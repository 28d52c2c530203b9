//! # gc-core — the GraphCache kernel
//!
//! This crate implements the paper's Kernel subsystem (Fig. 1) as a
//! **staged query pipeline** run by one Query Processing Runtime:
//!
//! * [`pipeline`] — the six explicit stages every query passes through
//!   (Fig. 3): [`pipeline::probe`] finds sub-case / super-case cache hits;
//!   [`pipeline::bound`] turns hit answers into definite answers and an
//!   upper bound, and decides whether Method M's filter is worth running;
//!   [`pipeline::filter`] computes Method M's candidate set `C_M` when it
//!   is; [`pipeline::prune`] reduces the candidate set to what still needs
//!   a test; [`pipeline::verify`] runs exact sub-iso
//!   testing on the calling thread; [`pipeline::admit`] credits hits, admits
//!   the query and runs the batched replacement sweep. A
//!   [`pipeline::PipelineCtx`] carries one query through the stages;
//! * [`SharedGraphCache`] — the runtime: the stages over *sharded* state
//!   behind `parking_lot::RwLock`s, `&self` queries from any number of
//!   threads and lock-free statistics, plus dataset mutation with in-place
//!   answer repair, snapshots and restores. Each query runs on its
//!   caller's thread; concurrency comes from concurrent callers. Code
//!   whose counts must be reproducible (tests, the experiments, the
//!   demo's single-client commands) builds it with
//!   `CacheConfig { shards: 1, .. }`.
//!
//! Supporting components:
//!
//! * [`CacheManager`] — storage of cached queries, their answer bitsets, the
//!   fingerprint table for exact-match detection, and the
//!   [`gc_index::QueryIndex`] for containment probes;
//! * [`ReplacementPolicy`] + [`Policy`] — the paper's replacement policies
//!   LRU, POP, PIN, PINC and HD behind the extension trait of Fig. 2(d)
//!   (plus [`policy_ext`]'s GDS / arithmetic-HD / Random);
//! * [`WindowManager`](window::WindowManager) — batched admission control;
//! * [`QueryReport`] — the one record of a query: the Demonstrator's
//!   per-query anatomy, from which the Statistics Monitor derives the
//!   atomic [`GlobalStats`] counters (no lock on the query path), the
//!   telemetry hub its sampled [`QueryTrace`], and the server its reply.
//!   The gauges beside the counters are read from their owners
//!   ([`SharedGraphCache::index_health`], [`SharedGraphCache::persist_health`],
//!   [`SharedGraphCache::telemetry`], [`SharedGraphCache::dataset`]);
//! * [`CostModel`] — atomic per-graph verification-cost EWMA feeding the
//!   cost-aware policies;
//! * [`persist`] — durable cache state: snapshot + journal persistence
//!   over [`gc_store`] ([`SharedGraphCache::snapshot_to`] /
//!   [`SharedGraphCache::restore_from`], a dataset-delta journal, and a
//!   catch-up snapshot after a failed write), so warm hit ratios survive
//!   restarts and deploys.
//!
//! ## Correctness
//!
//! GraphCache returns *exactly* the answer set Method M alone would return
//! (no false positives/negatives — paper §1, "Problem (2)"). This invariant
//! is enforced by integration tests and property tests comparing against
//! [`gc_method::execute_base`] on randomized workloads — including
//! [`SharedGraphCache`] under multi-threaded interleavings (`tests/prop.rs`
//! at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod cost;
mod entry;
mod memo;
pub mod persist;
pub mod pipeline;
mod policy;
pub mod policy_ext;
mod report;
mod shared;
mod stats;
pub mod telemetry;
pub mod window;

pub use cost::CostModel;

pub use cache::CacheManager;
pub use config::CacheConfig;
pub use entry::{AnswerText, CacheEntry, EntryId, EntryStats};
pub use persist::{
    CacheStore, FsyncPolicy, LoadOutcome, PersistHealth, RecoveryReport, SnapshotInfo,
};
pub use pipeline::probe::{CacheHits, Hit, Relation};
pub use pipeline::prune::{prune, Pruned};
pub use pipeline::PipelineCtx;
pub use policy::{HitCredit, HitKind, Policy, PolicyKind, ReplacementPolicy};
pub use report::{IndexHealth, QueryReport};
pub use shared::SharedGraphCache;
pub use stats::GlobalStats;
pub use telemetry::{
    Histogram, HistogramSnapshot, PipelineStage, QueryTiming, QueryTrace, Telemetry,
};
