//! Statistics Monitor / Manager.
//!
//! [`GlobalStats`] is a plain snapshot of the counters; the crate-private
//! `StatsMonitor` holds them live as atomics, so *no lock is taken on the
//! query path*: every query's [`QueryReport`] is observed with `fetch_add`s
//! and dashboards snapshot without stalling anyone. The gauges dashboards
//! show beside the counters are read from their owners at render time
//! ([`crate::SharedGraphCache::index_health`],
//! [`crate::SharedGraphCache::persist_health`],
//! [`crate::SharedGraphCache::telemetry`], the dataset).

use crate::report::QueryReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The counters of a cache instance (paper Fig. 1: the Statistics Monitor
/// feeding the Demonstrator's Sub-Iso Testing / Query Time panels), each a
/// sum over the queries' [`QueryReport`]s. The snapshot persists exactly
/// these.
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

    /// Average wall-clock time per query (divided in `u128` nanoseconds,
    /// so no query count truncates).
    pub fn avg_time_per_query(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            let nanos = self.total_time.as_nanos() / u128::from(self.queries);
            Duration::from_nanos(nanos as u64)
        }
    }
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

/// The Statistics Monitor: one relaxed atomic per [`GlobalStats`] counter.
/// Per-field totals are exact; a snapshot taken *while a query is
/// observed* may see that query's counters partially applied (torn across
/// fields, never within one).
#[derive(Debug, Default)]
pub(crate) struct StatsMonitor {
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

impl StatsMonitor {
    /// A monitor resuming from `counters` (a restored snapshot's).
    pub(crate) fn resumed(counters: &GlobalStats) -> Self {
        let m = StatsMonitor::default();
        macro_rules! store_field {
            ($f:ident) => {
                m.$f.store(counters.$f, Ordering::Relaxed);
            };
        }
        for_each_counter!(store_field);
        m.total_time_nanos.store(counters.total_time.as_nanos() as u64, Ordering::Relaxed);
        m
    }

    /// Count one query: every counter is a function of its report.
    pub(crate) fn observe(&self, r: &QueryReport) {
        let add = |counter: &AtomicU64, v: u64| {
            if v != 0 {
                counter.fetch_add(v, Ordering::Relaxed);
            }
        };
        add(&self.queries, 1);
        add(&self.hit_queries, u64::from(r.any_hit()));
        add(&self.exact_hits, u64::from(r.exact_hit));
        add(&self.memo_hits, u64::from(r.memo_hit));
        add(&self.exact_confirm_iso, u64::from(r.confirm_iso));
        add(&self.queries_with_sub_hits, u64::from(!r.sub_hits.is_empty()));
        add(&self.queries_with_super_hits, u64::from(!r.super_hits.is_empty()));
        add(&self.sub_hits, r.sub_hits.len() as u64);
        add(&self.super_hits, r.super_hits.len() as u64);
        add(&self.tests_executed, r.verified as u64);
        add(&self.probe_tests, r.probe_tests);
        add(&self.tests_saved, (r.cm_size - r.verified) as u64);
        add(&self.filter_skipped, u64::from(r.filter_skipped));
        add(&self.verify_steps, r.verify_steps);
        add(&self.probe_steps, r.probe_steps);
        add(&self.admitted, u64::from(r.admitted.is_some()));
        add(&self.evicted, r.evicted.len() as u64);
        add(&self.admission_rejected, u64::from(r.admission_rejected));
        add(&self.total_time_nanos, r.elapsed.as_nanos() as u64);
    }

    /// Snapshot the current counters.
    pub(crate) fn snapshot(&self) -> GlobalStats {
        let mut out = GlobalStats::default();
        macro_rules! load_field {
            ($f:ident) => {
                out.$f = self.$f.load(Ordering::Relaxed);
            };
        }
        for_each_counter!(load_field);
        out.total_time = Duration::from_nanos(self.total_time_nanos.load(Ordering::Relaxed));
        out
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
    fn avg_time_per_query_past_u32_queries() {
        let s = GlobalStats {
            queries: 1 << 32,
            total_time: Duration::from_nanos(5 << 32),
            ..GlobalStats::default()
        };
        assert_eq!(s.avg_time_per_query(), Duration::from_nanos(5));
        let s = GlobalStats {
            queries: (1 << 32) + 1,
            total_time: Duration::from_secs(10),
            ..GlobalStats::default()
        };
        assert_eq!(s.avg_time_per_query(), Duration::from_nanos(2), "10 s over 2^32+1 queries");
    }

    /// A report that moves every counter.
    fn busy_report() -> QueryReport {
        QueryReport {
            exact_hit: true,
            memo_hit: true,
            confirm_iso: true,
            filter_skipped: true,
            sub_hits: vec![1, 2],
            super_hits: vec![3],
            probe_tests: 9,
            verify_steps: 11,
            probe_steps: 12,
            admitted: Some(7),
            evicted: vec![1, 2],
            admission_rejected: true,
            elapsed: Duration::from_nanos(16),
            ..crate::report::tests::base_report()
        }
    }

    #[test]
    fn observe_covers_every_counter() {
        let m = StatsMonitor::default();
        m.observe(&busy_report());
        let expected = GlobalStats {
            queries: 1,
            hit_queries: 1,
            exact_hits: 1,
            memo_hits: 1,
            exact_confirm_iso: 1,
            queries_with_sub_hits: 1,
            queries_with_super_hits: 1,
            sub_hits: 2,
            super_hits: 1,
            tests_executed: 43,
            probe_tests: 9,
            tests_saved: 75 - 43,
            filter_skipped: 1,
            verify_steps: 11,
            probe_steps: 12,
            admitted: 1,
            evicted: 2,
            admission_rejected: 1,
            total_time: Duration::from_nanos(16),
        };
        assert_eq!(m.snapshot(), expected);
        m.observe(&busy_report());
        assert_eq!(m.snapshot().total_time, Duration::from_nanos(32));
        assert_eq!(StatsMonitor::resumed(&m.snapshot()).snapshot(), m.snapshot());
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let m = StatsMonitor::default();
        let report = crate::report::tests::base_report();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.observe(&report);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.queries, 4000);
        assert_eq!(s.tests_executed, 4000 * 43);
    }
}
