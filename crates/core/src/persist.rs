//! Kernel-side persistence wiring: snapshot construction, fail-closed
//! recovery, the dataset-delta append, and the periodic snapshotter.
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
use crate::stats::GlobalStats;
use gc_method::Dataset;
use gc_store::{EntryRecord, EntryStatsRecord, JournalRecord, RecoveredState, SnapshotDoc};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Counter names persisted in snapshots. Self-describing: a restore reads
/// known names and ignores unknown ones, so adding counters never
/// invalidates old snapshots. The index-health gauges are deliberately
/// absent — they are recomputed from the rebuilt index.
macro_rules! for_each_persisted_counter {
    ($cb:ident) => {
        $cb!(queries);
        $cb!(hit_queries);
        $cb!(exact_hits);
        $cb!(memo_hits);
        $cb!(exact_confirm_iso);
        $cb!(queries_with_sub_hits);
        $cb!(queries_with_super_hits);
        $cb!(sub_hits);
        $cb!(super_hits);
        $cb!(tests_executed);
        $cb!(probe_tests);
        $cb!(tests_saved);
        $cb!(filter_skipped);
        $cb!(verify_steps);
        $cb!(probe_steps);
        $cb!(admitted);
        $cb!(evicted);
        $cb!(admission_rejected);
    };
}

pub(crate) fn stats_to_records(s: &GlobalStats) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    macro_rules! push_field {
        ($f:ident) => {
            out.push((stringify!($f).to_string(), s.$f));
        };
    }
    for_each_persisted_counter!(push_field);
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
        for_each_persisted_counter!(match_field);
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

// ---- persistence health (circuit breaker) ------------------------------------

/// Circuit-breaker state of an attached [`CacheStore`].
///
/// Store failures never fail a query — the cache's answers come from
/// memory and stay exact no matter what the disk does. The breaker only
/// governs *durability*:
///
/// - `Healthy` — appends and rotations flow normally.
/// - `Degraded` — the store is down (appends failed past their retry
///   budget, or a rotation failed). Mutations are counted but not
///   persisted; a recovery probe periodically tries to cut a fresh full
///   snapshot, which — because a snapshot captures the complete live
///   state — subsumes everything that went unjournaled and restores
///   durability in one step.
/// - `Disabled` — the configured probe budget
///   ([`crate::CacheConfig::persist_max_probes`]) was exhausted;
///   persistence stays off until a manual
///   [`crate::SharedGraphCache::snapshot_now`] succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistHealth {
    /// Durability active.
    Healthy,
    /// Store down; serving memory-only while probing for recovery.
    Degraded,
    /// Probe budget exhausted; manual re-arm required.
    Disabled,
}

impl PersistHealth {
    /// Stable lowercase name (for gauges and dashboards).
    pub fn as_str(self) -> &'static str {
        match self {
            PersistHealth::Healthy => "healthy",
            PersistHealth::Degraded => "degraded",
            PersistHealth::Disabled => "disabled",
        }
    }
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_DISABLED: u8 = 2;

/// First retry delay for a failed append (doubles per attempt).
const RETRY_BASE: Duration = Duration::from_micros(500);
/// Retry delay cap — keeps the worst-case stall of a mutation small.
const RETRY_CAP: Duration = Duration::from_millis(8);
/// First recovery-probe delay after tripping to degraded.
const PROBE_BASE: Duration = Duration::from_millis(25);
/// Probe delay cap.
const PROBE_CAP: Duration = Duration::from_secs(2);

struct ProbeState {
    /// Consecutive failed probes since the trip.
    failed: u32,
    /// When the next probe may run (None = not scheduled).
    next_at: Option<Instant>,
    /// Current backoff step.
    backoff: Duration,
}

/// Health bookkeeping the runtime consults on its persistence paths.
/// Counters are atomics (read on every `stats()` call); probe scheduling
/// sits behind a mutex touched only while degraded.
pub(crate) struct StoreHealth {
    state: AtomicU8,
    errors: AtomicU64,
    buffered: AtomicU64,
    probe: Mutex<ProbeState>,
}

impl std::fmt::Debug for StoreHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHealth")
            .field("health", &self.health().as_str())
            .field("errors", &self.errors())
            .field("buffered", &self.buffered())
            .finish()
    }
}

impl StoreHealth {
    pub(crate) fn new() -> Self {
        StoreHealth {
            state: AtomicU8::new(HEALTH_HEALTHY),
            errors: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            probe: Mutex::new(ProbeState { failed: 0, next_at: None, backoff: PROBE_BASE }),
        }
    }

    pub(crate) fn health(&self) -> PersistHealth {
        match self.state.load(Ordering::Acquire) {
            HEALTH_HEALTHY => PersistHealth::Healthy,
            HEALTH_DEGRADED => PersistHealth::Degraded,
            _ => PersistHealth::Disabled,
        }
    }

    /// Total failed store operations (appends, rotations, probes).
    pub(crate) fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Records accepted while degraded/disabled (not persisted; the
    /// recovery snapshot subsumes them).
    pub(crate) fn buffered(&self) -> u64 {
        self.buffered.load(Ordering::Relaxed)
    }

    pub(crate) fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_buffered(&self, n: u64) {
        self.buffered.fetch_add(n, Ordering::Relaxed);
    }

    /// Trip to degraded (unless already disabled) and schedule the first
    /// recovery probe.
    pub(crate) fn trip_degraded(&self) {
        let _ = self.state.compare_exchange(
            HEALTH_HEALTHY,
            HEALTH_DEGRADED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        let mut probe = self.probe.lock().expect("probe lock");
        if probe.next_at.is_none() {
            probe.failed = 0;
            probe.backoff = PROBE_BASE;
            probe.next_at = Some(Instant::now() + PROBE_BASE);
        }
    }

    /// While degraded: is a recovery probe due? (Does not consume the
    /// deadline — the probe's outcome reschedules or clears it.)
    pub(crate) fn probe_due(&self) -> bool {
        if self.health() != PersistHealth::Degraded {
            return false;
        }
        let probe = self.probe.lock().expect("probe lock");
        probe.next_at.is_some_and(|at| Instant::now() >= at)
    }

    /// A probe failed: back off, and give up (disable) past `max_probes`.
    pub(crate) fn probe_failed(&self, max_probes: u32) {
        self.note_error();
        let mut probe = self.probe.lock().expect("probe lock");
        probe.failed += 1;
        if probe.failed >= max_probes {
            self.state.store(HEALTH_DISABLED, Ordering::Release);
            probe.next_at = None;
        } else {
            probe.backoff = (probe.backoff * 2).min(PROBE_CAP);
            probe.next_at = Some(Instant::now() + probe.backoff);
        }
    }

    /// Durability is re-established (a fresh full snapshot landed):
    /// everything unpersisted is subsumed, so the buffered count resets.
    pub(crate) fn mark_recovered(&self) {
        self.state.store(HEALTH_HEALTHY, Ordering::Release);
        self.buffered.store(0, Ordering::Relaxed);
        let mut probe = self.probe.lock().expect("probe lock");
        probe.failed = 0;
        probe.backoff = PROBE_BASE;
        probe.next_at = None;
    }
}

/// What the runtime must do after [`journal_dataset_delta`]: nothing, cut
/// the scheduled auto-snapshot, or attempt a recovery snapshot (reporting
/// the result back via [`StoreHealth::mark_recovered`] /
/// [`StoreHealth::probe_failed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PersistDirective {
    /// No follow-up.
    Nothing,
    /// A healthy auto-snapshot rotation is due.
    Rotate,
    /// Degraded and the probe deadline passed: try a recovery snapshot.
    Probe,
}

/// `true` when an auto-snapshot should run: the admission-count interval
/// or the journal's delta-byte threshold was reached (whichever knob is
/// set).
pub(crate) fn due_for_rotation(
    cfg: &crate::config::CacheConfig,
    admits_since: u64,
    journal_bytes: u64,
) -> bool {
    cfg.snapshot_interval.is_some_and(|n| admits_since >= n)
        || cfg.journal_max_bytes.is_some_and(|b| journal_bytes >= b)
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

/// Append one dataset mutation (the last op in `dataset`'s log) to
/// `store`, tracking `health`, and report what follow-up the runtime owes.
///
/// Persistence failures never fail the mutation — answers come from memory
/// and stay exact. A failed append retries up to
/// [`crate::CacheConfig::persist_retries`] times with capped exponential
/// backoff (the store truncates torn partial writes before each retry, so
/// retries are sound); past the budget the breaker trips to
/// [`PersistHealth::Degraded`] and later mutations are only counted
/// ([`StoreHealth::buffered`]) until a recovery probe succeeds. A delta
/// lost while degraded is safe: the recovery snapshot captures the
/// complete mutated dataset, subsuming every unjournaled op.
pub(crate) fn journal_dataset_delta(
    store: &CacheStore,
    health: &StoreHealth,
    cfg: &crate::config::CacheConfig,
    admits_since_snapshot: u64,
    dataset: &Dataset,
) -> PersistDirective {
    match health.health() {
        PersistHealth::Disabled => {
            health.note_buffered(1);
            return PersistDirective::Nothing;
        }
        PersistHealth::Degraded => {
            health.note_buffered(1);
            return if health.probe_due() {
                PersistDirective::Probe
            } else {
                PersistDirective::Nothing
            };
        }
        PersistHealth::Healthy => {}
    }
    let Some(op) = dataset.ops().last() else {
        return PersistDirective::Nothing;
    };
    let ops = [gc_store::JournalOp {
        generation: dataset.generation(),
        resulting_fingerprint: dataset.content_fingerprint(),
        op,
    }];
    let mut delay = RETRY_BASE;
    let mut attempt: u32 = 0;
    loop {
        match store.append(&ops) {
            Ok(_) => {
                return if due_for_rotation(cfg, admits_since_snapshot, store.journal_bytes()) {
                    PersistDirective::Rotate
                } else {
                    PersistDirective::Nothing
                };
            }
            Err(e) => {
                health.note_error();
                if attempt >= cfg.persist_retries {
                    eprintln!(
                        "graphcache: dataset delta append failed after {} attempt(s) ({e}); \
                         persistence degraded, serving memory-only while probing for recovery",
                        attempt + 1
                    );
                    health.trip_degraded();
                    health.note_buffered(1);
                    return PersistDirective::Nothing;
                }
                attempt += 1;
                std::thread::sleep(delay);
                delay = (delay * 2).min(RETRY_CAP);
            }
        }
    }
}

// ---- periodic snapshotter ----------------------------------------------------

struct SnapshotterShared {
    stop: Mutex<bool>,
    wake: Condvar,
    /// Set by the worker as its last act; `shutdown` waits on it with a
    /// bounded timeout so a wedged tick can never hang process exit.
    done: Mutex<bool>,
    done_wake: Condvar,
}

/// How long `shutdown` waits for the worker's final tick before detaching
/// it (a tick stalled this long means pathologically slow I/O; blocking
/// exit on it helps nobody — the store's atomic rotation keeps whatever
/// state was last committed consistent).
const SNAPSHOTTER_JOIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A background thread that periodically snapshots a
/// [`crate::SharedGraphCache`] to its attached store, quiescing one shard
/// at a time (each shard is captured under its read lock; queries on other
/// shards proceed untouched).
///
/// ```no_run
/// # use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
/// # use gc_core::persist::{CacheStore, Snapshotter};
/// # use gc_method::{Dataset, SiMethod};
/// # use std::sync::Arc;
/// # let dataset = Arc::new(Dataset::new(vec![]));
/// let store = Arc::new(CacheStore::open("/var/lib/graphcache").unwrap());
/// let mut gc = SharedGraphCache::with_policy(
///     dataset, Box::new(SiMethod), PolicyKind::Hd, CacheConfig::default()).unwrap();
/// gc.attach_store(Arc::clone(&store)).unwrap();
/// let gc = Arc::new(gc);
/// let snapshotter = Snapshotter::spawn(Arc::clone(&gc), std::time::Duration::from_secs(30));
/// // ... serve traffic ...
/// snapshotter.stop(); // final snapshot happens on the next rotation
/// ```
#[derive(Debug)]
pub struct Snapshotter {
    shared: Arc<SnapshotterShared>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Ticks that failed (IO errors); for tests and health checks.
    failures: Arc<AtomicBool>,
    /// Kept for the final best-effort journal sync at shutdown.
    cache: Arc<crate::SharedGraphCache>,
}

impl std::fmt::Debug for SnapshotterShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotterShared").finish()
    }
}

impl Snapshotter {
    /// Spawn a snapshotter ticking every `interval`. Each tick calls
    /// [`crate::SharedGraphCache::snapshot_now`]; ticks while no store is
    /// attached are no-ops.
    pub fn spawn(cache: Arc<crate::SharedGraphCache>, interval: Duration) -> Self {
        let shared = Arc::new(SnapshotterShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            done: Mutex::new(false),
            done_wake: Condvar::new(),
        });
        let failures = Arc::new(AtomicBool::new(false));
        let thread_shared = Arc::clone(&shared);
        let thread_failures = Arc::clone(&failures);
        let thread_cache = Arc::clone(&cache);
        let handle = std::thread::Builder::new()
            .name("gc-snapshotter".into())
            .spawn(move || {
                {
                    let mut stopped = thread_shared.stop.lock().expect("snapshotter lock");
                    loop {
                        if *stopped {
                            break;
                        }
                        let (guard, _timeout) = thread_shared
                            .wake
                            .wait_timeout(stopped, interval)
                            .expect("snapshotter lock");
                        stopped = guard;
                        if *stopped {
                            break;
                        }
                        // Tick outside the lock so a `stop()` issued
                        // mid-snapshot is observed the moment the tick
                        // ends, not an interval later.
                        drop(stopped);
                        if thread_cache.snapshot_now().is_err() {
                            thread_failures.store(true, Ordering::Relaxed);
                        }
                        stopped = thread_shared.stop.lock().expect("snapshotter lock");
                    }
                }
                *thread_shared.done.lock().expect("snapshotter done lock") = true;
                thread_shared.done_wake.notify_all();
            })
            .expect("spawn snapshotter thread");
        Snapshotter { shared, handle: Some(handle), failures, cache }
    }

    /// `true` if any tick failed with an IO error since spawn.
    pub fn had_failures(&self) -> bool {
        self.failures.load(Ordering::Relaxed)
    }

    /// Signal the thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Stop the worker with a bounded wait (a tick wedged longer than
    /// [`SNAPSHOTTER_JOIN_TIMEOUT`] is detached rather than hanging
    /// shutdown), then give the attached journal a final best-effort
    /// fsync so process exit can never race buffered appends.
    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            *self.shared.stop.lock().expect("snapshotter lock") = true;
            self.shared.wake.notify_all();
            let deadline = Instant::now() + SNAPSHOTTER_JOIN_TIMEOUT;
            let mut done = self.shared.done.lock().expect("snapshotter done lock");
            while !*done {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                let (guard, _timeout) = self
                    .shared
                    .done_wake
                    .wait_timeout(done, remaining)
                    .expect("snapshotter done lock");
                done = guard;
            }
            let finished = *done;
            drop(done);
            if finished {
                let _ = handle.join();
            } else {
                // Leaked on purpose: the worker is stuck inside a tick.
                self.failures.store(true, Ordering::Relaxed);
            }
        }
        if let Some(store) = self.cache.attached_store() {
            let _ = store.sync();
        }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        self.shutdown();
    }
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
            distinct_features: 99, // gauge: must not be persisted
            tombstoned_slots: 9,
            kernel_dispatch: "avx2", // gauge: per-machine, must not be persisted
            persist_health: "degraded", // gauge: per-run, must not be persisted
            persist_errors: 2,
            journal_records_buffered: 4,
            requests_total: 11, // serving gauges: per-run, must not be persisted
            requests_shed: 1,
            requests_timed_out: 1,
            uptime_secs: 5,
            dataset_generation: 7, // dataset gauges: recomputed, must not be persisted
            dataset_live_graphs: 70,
            pipeline_p50_us: 64, // telemetry gauges: per-run, must not be persisted
            pipeline_p99_us: 512,
            traces_sampled: 3,
            slow_queries: 1,
        };
        let back = stats_from_records(&stats_to_records(&s));
        assert_eq!(back.queries, 10);
        assert_eq!(back.tests_executed, 100);
        assert_eq!(back.total_time, Duration::from_nanos(12345));
        assert_eq!(back.distinct_features, 0, "gauges are not persisted");
        assert_eq!(back.tombstoned_slots, 0);
        assert_eq!(back.kernel_dispatch, "", "gauges are not persisted");
        assert_eq!(back.persist_health, "", "gauges are not persisted");
        let expected = GlobalStats {
            distinct_features: 0,
            tombstoned_slots: 0,
            kernel_dispatch: "",
            persist_health: "",
            persist_errors: 0,
            journal_records_buffered: 0,
            requests_total: 0,
            requests_shed: 0,
            requests_timed_out: 0,
            uptime_secs: 0,
            dataset_generation: 0,
            dataset_live_graphs: 0,
            pipeline_p50_us: 0,
            pipeline_p99_us: 0,
            traces_sampled: 0,
            slow_queries: 0,
            ..s
        };
        assert_eq!(back, expected);
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
