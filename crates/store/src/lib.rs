//! # gc-store — durable cache state for GraphCache
//!
//! GraphCache's value is *accumulated* state: hit ratios and the
//! window/utility replacement signals only pay off once the cache is warm,
//! yet a process restart used to throw all of it away and re-pay the
//! cold-start subgraph-isomorphism tax. This crate makes that state outlive
//! the process:
//!
//! * [`snapshot`] — a versioned, checksummed, self-contained binary image
//!   of the cache: entries (query graph, kind, exact answer set, base
//!   costs, accumulated statistics), global statistics, the learned
//!   cost-model estimates, and window/clock state;
//! * [`journal`] — an append-only log of dataset mutations between
//!   snapshots, each record length-prefixed and CRC-guarded;
//! * [`store`] — the [`CacheStore`] directory pairing one snapshot with
//!   its journal, with crash-safe atomic rotation.
//!
//! The journal carries the dataset only. Every cached answer is a function
//! of the dataset, so its ops are what must survive a crash; the entries
//! are warmth, and reach disk only through a snapshot. A restarted cache
//! applies the journal's deltas to the snapshot's dataset, re-inserts the
//! snapshot's entries, and resumes as warm as that snapshot was; an entry
//! admitted after it is lost and costs tests, never a wrong answer.
//!
//! ## What is deliberately not persisted
//!
//! Feature vectors, verification profiles, WL fingerprints and the
//! containment indexes are all recomputed from the restored entries through
//! the cache's normal insert paths. That keeps the on-disk format decoupled
//! from the in-memory index layout: index redesigns (flat postings, arena
//! tries, tombstoned directories, …) never invalidate snapshots.
//!
//! ## Fail-closed recovery
//!
//! Corrupt, truncated and torn-write inputs are *detected* (checksums +
//! length-prefixed framing) and degrade to a cold start — never to a wrong
//! answer. The one tolerated anomaly is an incomplete trailing journal
//! frame (exactly what a crash mid-append leaves): recovery drops the torn
//! tail and keeps the intact prefix. The kernel's central invariant
//! (answers exactly equal Method M alone) is preserved by construction:
//! every persisted entry is a previously verified exact answer set, every
//! delta is checked against its recorded dataset fingerprint, and anything
//! that fails validation is discarded wholesale.
//!
//! ## Durability and fault testing
//!
//! [`FsyncPolicy`] adds group-commit fsync with a documented bounded-loss
//! guarantee, [`faults`] provides the deterministic failpoint layer
//! threaded through every store I/O site, and [`doctor`] is the forensic
//! walk behind the `gc doctor` CLI.
//!
//! This crate depends only on `gc-graph` and `gc-method` (graph and
//! query-kind types); the kernel wiring — `SharedGraphCache::{snapshot_to,
//! restore_from}`, the delta append in `insert_graph`/`remove_graph` and
//! the catch-up snapshot after a failed one — lives in `gc-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doctor;
pub mod faults;
pub mod journal;
pub mod snapshot;
pub mod store;
pub mod wire;

pub use doctor::{inspect_dir, DoctorReport, RestoreVerdict};
pub use faults::{Failpoint, FaultAction, FaultPlan, FaultSite};
pub use journal::{JournalHeader, JournalOp, JournalRecord};
pub use snapshot::{EntryRecord, EntryStatsRecord, SnapshotDoc, FORMAT_VERSION};
pub use store::{CacheStore, FsyncPolicy, LoadOutcome, RecoveredState, SnapshotInfo};
pub use wire::{crc64, WireError};
