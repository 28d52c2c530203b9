//! Statistics Monitor / Manager.
//!
//! [`GlobalStats`] is a plain snapshot/delta struct; [`StatsMonitor`] holds
//! the live counters as atomics so *no lock is taken on the query path* —
//! concurrent queries from [`crate::SharedGraphCache`] publish their deltas
//! with `fetch_add` and dashboards snapshot without stalling anyone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate operational metrics of a cache instance (paper Fig. 1:
/// Statistics Monitor feeding the Demonstrator's Sub-Iso Testing / Query
/// Time panels).
///
/// Doubles as the *delta* type: the query pipeline accumulates one
/// `GlobalStats` per query and publishes it via [`StatsMonitor::add`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalStats {
    /// Queries processed.
    pub queries: u64,
    /// Queries with at least one hit of any kind.
    pub hit_queries: u64,
    /// Exact-match hits.
    pub exact_hits: u64,
    /// Memo hits: repeat queries served by an answer-only row (an evicted
    /// entry, or a query admission rejected), bypassing the
    /// filter/probe/verify pipeline entirely.
    pub memo_hits: u64,
    /// Exact and memo hits whose confirmation needed the isomorphism search
    /// (the query was a differently numbered isomorph of the stored graph,
    /// not a repeat of its presentation; see
    /// [`gc_iso::iso::confirm_isomorphic`]). Near 0: clients re-send
    /// queries verbatim and a hit is confirmed by comparing presentations.
    pub exact_confirm_iso: u64,
    /// Queries with at least one sub-case hit (query ⊑ cached).
    pub queries_with_sub_hits: u64,
    /// Queries with at least one super-case hit (cached ⊑ query).
    pub queries_with_super_hits: u64,
    /// Individual sub-case hits across all queries.
    pub sub_hits: u64,
    /// Individual super-case hits across all queries.
    pub super_hits: u64,
    /// Sub-iso tests executed against *dataset graphs* (Σ |C| over queries).
    pub tests_executed: u64,
    /// Sub-iso tests executed against *cached queries* while probing for
    /// hits (cache overhead).
    pub probe_tests: u64,
    /// Sub-iso tests saved relative to Method M alone (Σ (|C_M| − |C|),
    /// with `|C_M|` the recorded upper bound for queries on the bounded
    /// plan).
    pub tests_saved: u64,
    /// Pipeline queries that took the bounded plan: the cache hits already
    /// fenced the answer, so Method M's filter was skipped and the
    /// candidate set was the hits' upper bound (see
    /// [`crate::pipeline::bound`]).
    pub filter_skipped: u64,
    /// Verifier steps spent on dataset-graph verification.
    pub verify_steps: u64,
    /// Verifier steps spent probing the cache.
    pub probe_steps: u64,
    /// Entries admitted.
    pub admitted: u64,
    /// Entries evicted.
    pub evicted: u64,
    /// Queries rejected by the admission filter.
    pub admission_rejected: u64,
    /// Total wall-clock time inside `query()`.
    pub total_time: Duration,
    /// Index-health *gauge* (not a counter): distinct live feature hashes
    /// in the containment index's posting directory. Populated at snapshot
    /// time by [`crate::SharedGraphCache::stats`];
    /// always 0 in per-query deltas and ignored by [`StatsMonitor::add`].
    pub distinct_features: u64,
    /// Index-health *gauge*: tombstoned (evicted, not yet compacted) slots
    /// in the posting directory — the compaction-debt signal of the lazy
    /// directory maintenance. Same snapshot-time semantics as
    /// [`GlobalStats::distinct_features`].
    pub tombstoned_slots: u64,
    /// Deployment *gauge*: the kernel tier the bitset/merge hot loops
    /// dispatched to on this machine (`"avx2"` or `"scalar"`;
    /// see [`gc_graph::simd::kernel_name`]). Populated at snapshot time
    /// like the index-health gauges; empty in per-query deltas and ignored
    /// by [`StatsMonitor::add`].
    pub kernel_dispatch: &'static str,
    /// Persistence *gauge*: durability of the attached store
    /// (`"healthy"` or `"degraded"`; empty when no store is attached —
    /// see [`crate::persist::PersistHealth`]). Populated at snapshot time
    /// like the index-health gauges; empty in per-query deltas and ignored
    /// by [`StatsMonitor::add`].
    pub persist_health: &'static str,
    /// Persistence *gauge*: failed store operations (delta appends and
    /// snapshot rotations) since the store was attached. Snapshot-time
    /// semantics like [`GlobalStats::distinct_features`].
    pub persist_errors: u64,
    /// Persistence *gauge*: dataset mutations applied while the store was
    /// degraded — in neither the snapshot nor the journal until the next
    /// snapshot lands, which captures them all and resets this to 0. Same
    /// snapshot-time semantics.
    pub journal_records_buffered: u64,
    /// Serving *gauge*: HTTP requests routed by the `gc-server` front-end
    /// (0 when the cache is not being served). Populated by the server's
    /// stats snapshot, never by per-query deltas; ignored by
    /// [`StatsMonitor::add`] like the other gauges.
    pub requests_total: u64,
    /// Serving *gauge*: requests shed under overload (accept-loop `503`s
    /// plus queued-past-deadline `503`s). Same snapshot-time semantics.
    pub requests_shed: u64,
    /// Serving *gauge*: requests that exceeded a deadline (`504`/`408` or
    /// served late). Same snapshot-time semantics.
    pub requests_timed_out: u64,
    /// Serving *gauge*: seconds since the serving front-end started. Same
    /// snapshot-time semantics.
    pub uptime_secs: u64,
    /// Dataset *gauge*: generation counter of the live dataset (number of
    /// insert/remove mutations applied since the base dataset). Populated
    /// at snapshot time like the index-health gauges; 0 in per-query
    /// deltas and ignored by [`StatsMonitor::add`].
    pub dataset_generation: u64,
    /// Dataset *gauge*: live (non-tombstoned) graphs in the dataset. Same
    /// snapshot-time semantics.
    pub dataset_live_graphs: u64,
    /// Telemetry *gauge*: estimated median end-to-end query latency in
    /// microseconds, from the pipeline's log2 histogram (upper bucket
    /// bound — within 2× of the true median). Populated at snapshot time
    /// like the other gauges; ignored by [`StatsMonitor::add`].
    pub pipeline_p50_us: u64,
    /// Telemetry *gauge*: estimated p99 end-to-end query latency,
    /// microseconds. Same snapshot-time semantics.
    pub pipeline_p99_us: u64,
    /// Telemetry *gauge*: query traces captured by the sampler so far.
    /// Same snapshot-time semantics.
    pub traces_sampled: u64,
    /// Telemetry *gauge*: queries that exceeded the slow-query threshold.
    /// Same snapshot-time semantics.
    pub slow_queries: u64,
}

impl GlobalStats {
    /// Fraction of queries that enjoyed at least one cache hit.
    pub fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hit_queries as f64 / self.queries as f64
        }
    }

    /// Average sub-iso tests per query, *including* cache-probe tests —
    /// the cache must repay its own overhead.
    pub fn avg_tests_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.tests_executed + self.probe_tests) as f64 / self.queries as f64
        }
    }

    /// Average wall-clock time per query.
    pub fn avg_time_per_query(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.queries as u32
        }
    }

    /// Tombstoned fraction of the containment-index directory — the
    /// compaction-health gauge dashboards plot. Delegates to
    /// [`crate::report::IndexHealth::tombstone_ratio`], the single home of
    /// the formula.
    pub fn tombstone_ratio(&self) -> f64 {
        crate::report::IndexHealth {
            distinct_features: self.distinct_features as usize,
            tombstoned_slots: self.tombstoned_slots as usize,
        }
        .tombstone_ratio()
    }
}

/// The live counters, one atomic per [`GlobalStats`] field.
#[derive(Debug, Default)]
struct AtomicStats {
    queries: AtomicU64,
    hit_queries: AtomicU64,
    exact_hits: AtomicU64,
    memo_hits: AtomicU64,
    exact_confirm_iso: AtomicU64,
    queries_with_sub_hits: AtomicU64,
    queries_with_super_hits: AtomicU64,
    sub_hits: AtomicU64,
    super_hits: AtomicU64,
    tests_executed: AtomicU64,
    probe_tests: AtomicU64,
    tests_saved: AtomicU64,
    filter_skipped: AtomicU64,
    verify_steps: AtomicU64,
    probe_steps: AtomicU64,
    admitted: AtomicU64,
    evicted: AtomicU64,
    admission_rejected: AtomicU64,
    total_time_nanos: AtomicU64,
}

/// Thread-safe, lock-free wrapper around [`GlobalStats`] — the Statistics
/// Monitor.
///
/// Cloning shares the underlying counters (`Arc`). All operations are
/// `fetch_add`/`load` on relaxed atomics: per-field totals are exact; a
/// snapshot taken *while a query publishes* may see that query's fields
/// partially applied (torn across fields, never within one).
#[derive(Debug, Clone, Default)]
pub struct StatsMonitor {
    inner: Arc<AtomicStats>,
}

/// Every [`GlobalStats`] counter, in field order: the monitor's atomics
/// and the snapshot's persisted records ([`crate::persist`]) both walk it.
macro_rules! for_each_counter {
    ($macro_cb:ident) => {
        $macro_cb!(queries);
        $macro_cb!(hit_queries);
        $macro_cb!(exact_hits);
        $macro_cb!(memo_hits);
        $macro_cb!(exact_confirm_iso);
        $macro_cb!(queries_with_sub_hits);
        $macro_cb!(queries_with_super_hits);
        $macro_cb!(sub_hits);
        $macro_cb!(super_hits);
        $macro_cb!(tests_executed);
        $macro_cb!(probe_tests);
        $macro_cb!(tests_saved);
        $macro_cb!(filter_skipped);
        $macro_cb!(verify_steps);
        $macro_cb!(probe_steps);
        $macro_cb!(admitted);
        $macro_cb!(evicted);
        $macro_cb!(admission_rejected);
    };
}
pub(crate) use for_each_counter;

impl StatsMonitor {
    /// New monitor with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish one query's accumulated delta (lock-free).
    pub fn add(&self, delta: &GlobalStats) {
        let inner = &self.inner;
        macro_rules! add_field {
            ($f:ident) => {
                if delta.$f != 0 {
                    inner.$f.fetch_add(delta.$f, Ordering::Relaxed);
                }
            };
        }
        for_each_counter!(add_field);
        let nanos = delta.total_time.as_nanos() as u64;
        if nanos != 0 {
            inner.total_time_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Snapshot the current counters.
    pub fn snapshot(&self) -> GlobalStats {
        let inner = &self.inner;
        let mut out = GlobalStats::default();
        macro_rules! load_field {
            ($f:ident) => {
                out.$f = inner.$f.load(Ordering::Relaxed);
            };
        }
        for_each_counter!(load_field);
        out.total_time = Duration::from_nanos(inner.total_time_nanos.load(Ordering::Relaxed));
        out
    }

    /// Reset all counters.
    pub fn reset(&self) {
        let inner = &self.inner;
        macro_rules! reset_field {
            ($f:ident) => {
                inner.$f.store(0, Ordering::Relaxed);
            };
        }
        for_each_counter!(reset_field);
        inner.total_time_nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_averages() {
        let mut s = GlobalStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.avg_tests_per_query(), 0.0);
        assert_eq!(s.avg_time_per_query(), Duration::ZERO);
        s.queries = 10;
        s.hit_queries = 4;
        s.tests_executed = 90;
        s.probe_tests = 10;
        s.total_time = Duration::from_millis(100);
        assert!((s.hit_ratio() - 0.4).abs() < 1e-12);
        assert!((s.avg_tests_per_query() - 10.0).abs() < 1e-12);
        assert_eq!(s.avg_time_per_query(), Duration::from_millis(10));
    }

    #[test]
    fn monitor_shares_state() {
        let m = StatsMonitor::new();
        let m2 = m.clone();
        m.add(&GlobalStats { queries: 5, ..GlobalStats::default() });
        m2.add(&GlobalStats { queries: 5, ..GlobalStats::default() });
        assert_eq!(m.snapshot().queries, 10);
        m.reset();
        assert_eq!(m2.snapshot().queries, 0);
    }

    #[test]
    fn add_covers_every_field() {
        let m = StatsMonitor::new();
        let delta = GlobalStats {
            queries: 1,
            hit_queries: 2,
            exact_hits: 3,
            memo_hits: 17,
            exact_confirm_iso: 19,
            queries_with_sub_hits: 4,
            queries_with_super_hits: 5,
            sub_hits: 6,
            super_hits: 7,
            tests_executed: 8,
            probe_tests: 9,
            tests_saved: 10,
            filter_skipped: 18,
            verify_steps: 11,
            probe_steps: 12,
            admitted: 13,
            evicted: 14,
            admission_rejected: 15,
            total_time: Duration::from_nanos(16),
            // Gauges: never accumulated by the monitor (set at snapshot
            // time by the runtimes, not by `add`).
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
        };
        m.add(&delta);
        assert_eq!(m.snapshot(), delta);
        m.add(&delta);
        assert_eq!(m.snapshot().total_time, Duration::from_nanos(32));
    }

    #[test]
    fn gauges_pass_through_ratio() {
        let s = GlobalStats {
            distinct_features: 30,
            tombstoned_slots: 10,
            kernel_dispatch: "avx2",
            persist_health: "degraded",
            persist_errors: 5,
            journal_records_buffered: 7,
            requests_total: 100,
            requests_shed: 3,
            requests_timed_out: 2,
            uptime_secs: 60,
            dataset_generation: 4,
            dataset_live_graphs: 40,
            pipeline_p50_us: 128,
            pipeline_p99_us: 4096,
            traces_sampled: 9,
            slow_queries: 1,
            ..Default::default()
        };
        assert!((s.tombstone_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(GlobalStats::default().tombstone_ratio(), 0.0);
        // Gauge fields in a published delta are ignored by the monitor.
        let m = StatsMonitor::new();
        m.add(&s);
        assert_eq!(m.snapshot().distinct_features, 0);
        assert_eq!(m.snapshot().tombstoned_slots, 0);
        assert_eq!(m.snapshot().kernel_dispatch, "");
        assert_eq!(m.snapshot().persist_health, "");
        assert_eq!(m.snapshot().persist_errors, 0);
        assert_eq!(m.snapshot().journal_records_buffered, 0);
        assert_eq!(m.snapshot().requests_total, 0);
        assert_eq!(m.snapshot().requests_shed, 0);
        assert_eq!(m.snapshot().requests_timed_out, 0);
        assert_eq!(m.snapshot().uptime_secs, 0);
        assert_eq!(m.snapshot().dataset_generation, 0);
        assert_eq!(m.snapshot().dataset_live_graphs, 0);
        assert_eq!(m.snapshot().pipeline_p50_us, 0);
        assert_eq!(m.snapshot().pipeline_p99_us, 0);
        assert_eq!(m.snapshot().traces_sampled, 0);
        assert_eq!(m.snapshot().slow_queries, 0);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let m = StatsMonitor::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add(&GlobalStats {
                            queries: 1,
                            tests_executed: 2,
                            ..GlobalStats::default()
                        });
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.queries, 4000);
        assert_eq!(s.tests_executed, 8000);
    }
}
