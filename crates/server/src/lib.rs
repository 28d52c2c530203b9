//! # gc-server — an overload-hardened network front-end for GraphCache
//!
//! Serves a [`gc_core::SharedGraphCache`] over HTTP/1.1 with the
//! production robustness properties a cache front-end needs to face
//! "millions of users" (ROADMAP item 1) without falling over:
//!
//! * **bounded admission** — a fixed worker pool pulls connections from a
//!   bounded queue; when the queue is full the accept loop *sheds* the
//!   connection immediately with `503` + `Retry-After` instead of queueing
//!   without bound (overload degrades throughput, never latency-to-infinity
//!   or memory growth);
//! * **deadlines everywhere** — each request gets a deadline from its
//!   first byte (tightenable per-request via `X-Deadline-Ms`); requests
//!   that expire waiting in the queue are shed, requests that expire
//!   before execution get `504`, and slow clients that trickle bytes
//!   (slow-loris) are cut off with `408` by read/write socket timeouts;
//! * **graceful drain** — shutdown stops accepting, lets in-flight
//!   requests finish within a bound, cuts a final snapshot when a store
//!   is attached, and reports what happened ([`DrainReport`]);
//! * **observable** — `GET /metrics` exposes Prometheus-style per-stage
//!   latency histograms and shed/timeout counters; `GET /healthz` is
//!   pure liveness while `GET /readyz` reflects drain state and names
//!   the store's [`gc_core::persist::PersistHealth`] — a degraded store
//!   changes the body, not the status, while answers stay exact.
//!
//! The protocol layer ([`http`]) is hand-rolled over `std::net` (the
//! build container is offline) and property-tested to never panic or
//! over-read on arbitrary bytes. The client half ([`client`]) provides a
//! minimal blocking HTTP client plus the `gc-load` generator: N
//! connections replaying a workload with retry, capped exponential
//! backoff with jitter, and latency percentiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;

pub use api::{
    ErrorBody, MutateResponse, QueryResponse, StageSummary, StatsResponse, TracesResponse,
};
pub use client::{percentile, run_load, Backoff, ClientResponse, HttpClient, LoadReport, LoadSpec};
pub use http::{parse_request, HttpLimits, Parse, ParseError, Request, Response};
pub use metrics::{Histogram, ServerMetrics, ServingStats, Stage};
pub use server::{DrainReport, Server, ServerConfig, ServerHandle};
