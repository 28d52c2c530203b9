//! Kernel-side persistence wiring: snapshot construction, fail-closed
//! recovery, and the store's [`PersistHealth`].
//!
//! The on-disk formats live in [`gc_store`]; this module converts between
//! the kernel's live types ([`CacheEntry`], [`GlobalStats`],
//! [`crate::CostModel`]) and the store's portable records. The journal
//! carries dataset mutations only, so a restore is:
//!
//! 1. `resolve_dataset`: the snapshot's dataset, with every journaled
//!    delta re-applied in order, each validated by fingerprint;
//! 2. every snapshot entry re-inserted through the cache's **normal insert
//!    path** (features, fingerprints, profiles and indexes are all
//!    recomputed — the on-disk format knows nothing about index layout),
//!    its statistics restored and the replacement policy warmed via
//!    [`crate::ReplacementPolicy::on_restore`]; its answer is then
//!    repaired against the deltas it predates;
//! 3. a capacity sweep, then an immediate rotation of the store.
//!
//! An admission after the last snapshot is not on disk: the restored cache
//! is as warm as that snapshot, and the lost entry costs tests, never a
//! wrong answer.
//!
//! Anything invalid — checksum or framing failures, a dataset mismatch —
//! degrades to a cold start ([`RecoveryReport::warm`] = false, reason
//! attached). Corruption costs warmth, never correctness.

use crate::entry::{CacheEntry, EntryStats};
use crate::stats::{for_each_counter, GlobalStats};
use gc_method::Dataset;
use gc_store::{EntryRecord, EntryStatsRecord, JournalRecord, RecoveredState, SnapshotDoc};
use std::time::Duration;

pub use gc_store::{
    inspect_dir, CacheStore, DoctorReport, Failpoint, FaultPlan, FaultSite, FsyncPolicy,
    LoadOutcome, RestoreVerdict, SnapshotInfo,
};

/// What a restart recovered, for logs and dashboards.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `true` when snapshot + journal were valid and restored; `false` for
    /// a cold start.
    pub warm: bool,
    /// Why the start was cold (missing files on first boot, or the
    /// corruption/mismatch that was detected and failed closed).
    pub cold_reason: Option<String>,
    /// Generation of the restored snapshot (0 when cold).
    pub generation: u64,
    /// Entries in the snapshot.
    pub snapshot_entries: usize,
    /// Dataset mutations (inserts/removes) replayed from the journal.
    pub journal_deltas: usize,
    /// Legacy admit/evict records in the journal, skipped (see
    /// [`gc_store::journal`]).
    pub journal_legacy_skipped: usize,
    /// Live entries after the restore and the capacity sweep.
    pub entries_restored: usize,
    /// Restored logical clock.
    pub clock: u64,
    /// Bytes of a torn journal tail (a crash mid-append) dropped during
    /// recovery; 0 for a clean journal.
    pub journal_torn_bytes: usize,
}

impl RecoveryReport {
    /// A cold-start report with the given reason.
    pub fn cold(reason: impl Into<String>) -> Self {
        RecoveryReport { warm: false, cold_reason: Some(reason.into()), ..Default::default() }
    }

    /// One-line human-readable summary.
    pub fn describe(&self) -> String {
        if self.warm {
            let torn = if self.journal_torn_bytes > 0 {
                format!(", dropped a {}-byte torn journal tail", self.journal_torn_bytes)
            } else {
                String::new()
            };
            let skipped = if self.journal_legacy_skipped > 0 {
                format!(", {} legacy admit/evict records skipped", self.journal_legacy_skipped)
            } else {
                String::new()
            };
            format!(
                "warm restart: {} entries restored (snapshot {}), {} dataset delta(s) \
                 replayed{skipped}, generation {}, clock {}{torn}",
                self.entries_restored,
                self.snapshot_entries,
                self.journal_deltas,
                self.generation,
                self.clock
            )
        } else {
            format!("cold start: {}", self.cold_reason.as_deref().unwrap_or("no persisted state"))
        }
    }
}

// ---- live type ⇄ portable record conversions --------------------------------

pub(crate) fn entry_to_record(e: &CacheEntry) -> EntryRecord {
    EntryRecord {
        orig_id: e.id,
        graph: e.graph.clone(),
        kind: e.kind,
        answer: e.answer().iter().map(|i| i as u32).collect(),
        base_tests: e.base_tests,
        base_cost: e.base_cost,
        stats: EntryStatsRecord {
            inserted_at: e.stats.inserted_at,
            last_used: e.stats.last_used,
            exact_hits: e.stats.exact_hits,
            sub_hits: e.stats.sub_hits,
            super_hits: e.stats.super_hits,
            tests_saved: e.stats.tests_saved,
            cost_saved: e.stats.cost_saved,
        },
    }
}

pub(crate) fn record_to_stats(r: &EntryStatsRecord) -> EntryStats {
    EntryStats {
        inserted_at: r.inserted_at,
        last_used: r.last_used,
        exact_hits: r.exact_hits,
        sub_hits: r.sub_hits,
        super_hits: r.super_hits,
        tests_saved: r.tests_saved,
        cost_saved: r.cost_saved,
    }
}

/// The statistics counters as named snapshot records. Self-describing: a
/// restore reads known names and ignores unknown ones, so adding counters
/// never invalidates old snapshots. Gauges (index health, persistence,
/// serving, telemetry) are not counters and are not persisted — they are
/// recomputed or per-run.
pub(crate) fn stats_to_records(s: &GlobalStats) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    macro_rules! push_field {
        ($f:ident) => {
            out.push((stringify!($f).to_string(), s.$f));
        };
    }
    for_each_counter!(push_field);
    out.push(("total_time_nanos".to_string(), s.total_time.as_nanos() as u64));
    out
}

pub(crate) fn stats_from_records(records: &[(String, u64)]) -> GlobalStats {
    let mut s = GlobalStats::default();
    for (name, value) in records {
        macro_rules! match_field {
            ($f:ident) => {
                if name == stringify!($f) {
                    s.$f = *value;
                    continue;
                }
            };
        }
        for_each_counter!(match_field);
        if name == "total_time_nanos" {
            s.total_time = Duration::from_nanos(*value);
        }
        // Unknown names: ignored (forward compatibility).
    }
    s
}

// ---- snapshot assembly -------------------------------------------------------

/// Assemble a [`SnapshotDoc`] from runtime state. `entries` must yield every
/// live entry (the runtime passes records carrying shard-encoded ids,
/// cloned under per-shard read locks).
pub(crate) fn build_doc<'a>(
    dataset: &Dataset,
    stats: &GlobalStats,
    cost: &crate::cost::CostModel,
    clock: u64,
    window_pending: u32,
    policy_name: &str,
    entries: impl Iterator<Item = EntryRecord> + 'a,
) -> SnapshotDoc {
    // Graphs inserted after the cost model was sized have no slot yet;
    // pad with the OOB default so the exported vector always spans the
    // dataset (the restore re-seeds from real sizes anyway).
    let mut cost = cost.export();
    cost.resize(dataset.len(), (1.0, false));
    SnapshotDoc {
        dataset_fingerprint: dataset.content_fingerprint(),
        base_fingerprint: dataset.base_fingerprint(),
        dataset_generation: dataset.generation(),
        dataset_ops: dataset.ops().to_vec(),
        universe: dataset.len() as u64,
        clock,
        window_pending,
        policy_name: policy_name.to_string(),
        stats: stats_to_records(stats),
        cost,
        entries: entries.collect(),
    }
}

// ---- persistence health ------------------------------------------------------

/// Durability state of an attached [`CacheStore`].
///
/// Store failures never fail a query or a mutation — the cache's answers
/// come from memory and stay exact no matter what the disk does. Health
/// only says whether a restart would come back with the live dataset:
///
/// - `Healthy` — every applied mutation is in the snapshot or the journal.
/// - `Degraded` — a delta append failed, so some applied mutation is in
///   neither. Later mutations skip the append and each one tries a
///   catch-up snapshot instead; the first that lands captures the whole
///   live dataset and makes the store `Healthy` again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistHealth {
    /// Durability active.
    Healthy,
    /// Behind the live dataset until the next snapshot lands.
    Degraded,
}

impl PersistHealth {
    /// Stable lowercase name (for gauges and dashboards).
    pub fn as_str(self) -> &'static str {
        match self {
            PersistHealth::Healthy => "healthy",
            PersistHealth::Degraded => "degraded",
        }
    }
}

/// The dataset state a warm restart must serve: the caller's base dataset
/// with the snapshot's recorded mutations and every journaled delta
/// re-applied, plus the repair targets the entry post-pass needs.
pub(crate) struct ResolvedDataset {
    /// The fully resolved dataset (snapshot ops + journal deltas applied).
    pub dataset: Dataset,
    /// Graph ids inserted by *journal* deltas — snapshot entries predate
    /// these, so their answer sets need a per-graph verification repair.
    pub journal_inserted: Vec<gc_graph::GraphId>,
    /// Journal deltas applied (for the recovery report).
    pub journal_deltas: usize,
}

/// Reconstruct the dataset a recovered snapshot + journal describe,
/// starting from the dataset the caller booted with.
///
/// Accepts `base` in either of two states: *pristine* (generation 0) with
/// the snapshot's recorded base fingerprint — the snapshot's own op log is
/// re-applied on top — or *already mutated* to exactly the snapshot's
/// resulting state. Every journaled delta is then applied in order, each
/// validated against its recorded post-mutation fingerprint. Any mismatch
/// fails closed to a cold start: restoring cache entries against the wrong
/// dataset would serve wrong answers, which corruption must never do.
pub(crate) fn resolve_dataset(
    state: &RecoveredState,
    base: &Dataset,
) -> Result<ResolvedDataset, Box<RecoveryReport>> {
    let doc = &state.doc;
    let cold = |reason: String| Err(Box::new(RecoveryReport::cold(reason)));
    let mut dataset = if base.generation() == 0 {
        if base.base_fingerprint() != doc.base_fingerprint {
            return cold(format!(
                "snapshot belongs to a different dataset (base fingerprint {:#x} vs {:#x})",
                doc.base_fingerprint,
                base.base_fingerprint()
            ));
        }
        let mut ds = base.clone();
        for op in &doc.dataset_ops {
            ds.apply_op(op);
        }
        ds
    } else {
        base.clone()
    };
    if dataset.content_fingerprint() != doc.dataset_fingerprint
        || dataset.len() as u64 != doc.universe
    {
        return cold(format!(
            "snapshot dataset state mismatch (fingerprint {:#x}/universe {} vs {:#x}/{})",
            doc.dataset_fingerprint,
            doc.universe,
            dataset.content_fingerprint(),
            dataset.len()
        ));
    }
    let mut journal_inserted = Vec::new();
    for JournalRecord { generation, resulting_fingerprint, op } in &state.journal {
        if *generation != dataset.generation() + 1 {
            return cold(format!(
                "journal dataset delta out of order (generation {} after {})",
                generation,
                dataset.generation()
            ));
        }
        let inserted = matches!(op, gc_method::DatasetOp::Insert(_));
        dataset.apply_op(op);
        if dataset.content_fingerprint() != *resulting_fingerprint {
            return cold(format!(
                "journal dataset delta fingerprint mismatch at generation {generation}"
            ));
        }
        if inserted {
            journal_inserted.push(dataset.len() as gc_graph::GraphId - 1);
        }
    }
    Ok(ResolvedDataset { dataset, journal_inserted, journal_deltas: state.journal.len() })
}

/// Re-offer every inserted graph in `dataset`'s op log to the method's
/// index hooks and collect the ids the method declined into the filter
/// overlay (see [`crate::pipeline::filter::run`]). Used after a restore:
/// the method built its index over the *base* dataset, so post-base
/// inserts must be re-announced exactly as the live mutation path did.
pub(crate) fn rebuild_method_overlay(
    method: &dyn gc_method::Method,
    dataset: &Dataset,
) -> gc_graph::BitSet {
    let mut overlay = gc_graph::BitSet::new(dataset.len());
    let inserts =
        dataset.ops().iter().filter(|op| matches!(op, gc_method::DatasetOp::Insert(_))).count();
    let mut next_gid = dataset.len() - inserts;
    for op in dataset.ops() {
        match op {
            gc_method::DatasetOp::Insert(_) => {
                let gid = next_gid;
                next_gid += 1;
                if !method.on_insert_graph(dataset, gid as gc_graph::GraphId) {
                    overlay.insert(gid);
                }
            }
            gc_method::DatasetOp::Remove(gid) => {
                method.on_remove_graph(dataset, *gid);
                overlay.remove(*gid as usize);
            }
        }
    }
    overlay
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_records_roundtrip() {
        let s = GlobalStats {
            queries: 10,
            hit_queries: 4,
            exact_hits: 2,
            memo_hits: 5,
            exact_confirm_iso: 1,
            queries_with_sub_hits: 1,
            queries_with_super_hits: 1,
            sub_hits: 3,
            super_hits: 2,
            tests_executed: 100,
            probe_tests: 7,
            tests_saved: 50,
            filter_skipped: 6,
            verify_steps: 1000,
            probe_steps: 70,
            admitted: 8,
            evicted: 3,
            admission_rejected: 1,
            total_time: Duration::from_nanos(12345),
        };
        let records = stats_to_records(&s);
        let names: Vec<&str> = records.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names.len(), 19, "the 18 counters and total_time_nanos, nothing else");
        assert_eq!((names[0], names[18]), ("queries", "total_time_nanos"));
        let back = stats_from_records(&records);
        assert_eq!(back.queries, 10);
        assert_eq!(back.tests_executed, 100);
        assert_eq!(back.total_time, Duration::from_nanos(12345));
        assert_eq!(back, s);
        assert_eq!(back.memo_hits, 5, "memo hits are persisted");
    }

    #[test]
    fn unknown_counters_ignored_missing_read_zero() {
        let records = vec![
            ("queries".to_string(), 5u64),
            ("a_counter_from_the_future".to_string(), 1_000_000),
        ];
        let s = stats_from_records(&records);
        assert_eq!(s.queries, 5);
        assert_eq!(s.tests_executed, 0);
    }

    #[test]
    fn cold_report_describes_reason() {
        let r = RecoveryReport::cold("checksum mismatch");
        assert!(!r.warm);
        assert!(r.describe().contains("checksum mismatch"));
    }
}
