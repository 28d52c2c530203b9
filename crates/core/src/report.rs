//! Per-query reports for the Demonstrator.

use crate::entry::{AnswerText, EntryId};
use crate::telemetry::QueryTiming;
use gc_graph::BitSet;
use gc_method::QueryKind;
use std::sync::Arc;
use std::time::Duration;

/// Point-in-time health gauges of the containment index's posting
/// directory — the compaction signals of the tombstoned directory
/// maintenance (PR 4), surfaced here so dashboards and operators never
/// need to poke `gc_index` directly. Read via
/// [`crate::SharedGraphCache::index_health`], which is where the End-User
/// Monitor reads it at render time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexHealth {
    /// Distinct live feature hashes in the directory.
    pub distinct_features: usize,
    /// Tombstoned (evicted, not yet compacted) directory slots.
    pub tombstoned_slots: usize,
}

impl IndexHealth {
    /// Tombstoned fraction of the directory (0.0 when empty). Lazy
    /// compaction keeps this below [`gc_index::COMPACT_TOMBSTONE_PCT`]
    /// percent once [`gc_index::COMPACT_MIN`] slots are tombstoned.
    pub fn tombstone_ratio(&self) -> f64 {
        let total = self.distinct_features + self.tombstoned_slots;
        if total == 0 {
            0.0
        } else {
            self.tombstoned_slots as f64 / total as f64
        }
    }
}

/// Everything GraphCache can tell about one processed query — the data
/// behind the demo's Query Journey (Fig. 3) and the Demonstrator panels.
/// It is the one record of a query: the Statistics Monitor's counters, the
/// sampled [`crate::QueryTrace`] and the server's `/query` reply are each
/// derived from it.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The exact answer set `A` (Fig. 3(h)).
    pub answer: BitSet,
    /// On an exact or memo hit, the serving entry's or row's shared text
    /// slot for this very answer version (an `Arc` clone — no allocation;
    /// `None` on the pipeline). The HTTP server renders `answer` into it on first use
    /// ([`AnswerText::get_or_render`]) and copies it on every later hit;
    /// in-process callers can ignore it, nothing is rendered for them.
    pub answer_text: Option<Arc<AnswerText>>,
    /// The candidate set the pipeline started from (Fig. 3(b)): Method M's
    /// `C_M`, or the hits' upper bound `U` when bounded
    /// ([`QueryReport::filter_skipped`]). Either way it contains the answer
    /// and everything that was verified. On exact and memo hits no stage
    /// ran: this and the three stage sets below are empty over an *empty
    /// universe* (`universe() == 0`), so a hit allocates only its answer.
    pub cm_set: BitSet,
    /// `S` — definite answers contributed by hits (Fig. 3(c)).
    pub definite_set: BitSet,
    /// `C` — the reduced candidate set that was verified (Fig. 3(f)).
    pub verified_set: BitSet,
    /// `R` — candidates that survived verification (Fig. 3(g)).
    pub survivors_set: BitSet,
    /// Query kind.
    pub kind: QueryKind,
    /// `true` when an exact-match hit served the query outright.
    pub exact_hit: bool,
    /// `true` when an answer-only row (an evicted entry, or a query
    /// admission rejected) served the query, without credit or any stage.
    pub memo_hit: bool,
    /// `true` when the exact or memo hit's confirmation needed the
    /// isomorphism search (the query was a differently numbered isomorph
    /// of the stored graph; see [`gc_iso::iso::confirm_isomorphic`]).
    pub confirm_iso: bool,
    /// `true` when the pipeline took the bounded plan: the cache hits
    /// already fenced the answer, so Method M's filter never ran and
    /// `cm_set` is the hits' upper bound `U` (see
    /// [`crate::pipeline::bound`]). `false` on the filter plan and on the
    /// exact/memo fast paths.
    pub filter_skipped: bool,
    /// Sub-case hit entries (`H` in Fig. 3(a)).
    pub sub_hits: Vec<EntryId>,
    /// Super-case hit entries (`H'` in Fig. 3(e)).
    pub super_hits: Vec<EntryId>,
    /// Method M baseline tests: `|C_M|` (Fig. 3(b)) on the filter plan; an
    /// upper bound on it when bounded (never below `|cm_set|`, so
    /// `verified ≤ cm_size` always holds); for exact and memo hits the
    /// stored base count of the matching entry.
    pub cm_size: usize,
    /// `|S|` — definite answers from hits (Fig. 3(c)).
    pub definite: usize,
    /// `|C|` — candidates actually verified (Fig. 3(f)).
    pub verified: usize,
    /// `|R|` — candidates surviving verification (Fig. 3(g)).
    pub survivors: usize,
    /// Sub-iso tests against dataset graphs (= `verified`), plus cache
    /// probes in `probe_tests`.
    pub sub_iso_tests: u64,
    /// Sub-iso tests spent probing the cache for hits.
    pub probe_tests: u64,
    /// Verifier steps over dataset graphs.
    pub verify_steps: u64,
    /// Verifier steps spent probing the cache.
    pub probe_steps: u64,
    /// Entry admitted for this query, if any.
    pub admitted: Option<EntryId>,
    /// Entries evicted while admitting this query's window.
    pub evicted: Vec<EntryId>,
    /// `true` when the admission filter rejected the query.
    pub admission_rejected: bool,
    /// The dataset generation the answer was served against: the answer is
    /// exactly Method M's over the dataset at this generation.
    pub generation: u64,
    /// Time spent per stage (the stages that did not run read 0).
    pub timing: QueryTiming,
    /// Wall-clock time of the whole `query()` call.
    pub elapsed: Duration,
}

impl QueryReport {
    /// Which plan produced the candidate set: `"filter"` (Method M's
    /// filter), `"bounded"` (the hits' upper bound; the filter was
    /// skipped), or `""` for exact/memo hits, where no stage ran.
    pub fn plan(&self) -> &'static str {
        if self.exact_hit || self.memo_hit {
            ""
        } else if self.filter_skipped {
            "bounded"
        } else {
            "filter"
        }
    }

    /// Which tier served the query: `"exact"`, `"memo"` or `"pipeline"`
    /// (the trace's `outcome`, the server's `x-gc-tier` header).
    pub fn tier(&self) -> &'static str {
        if self.exact_hit {
            "exact"
        } else if self.memo_hit {
            "memo"
        } else {
            "pipeline"
        }
    }

    /// Per-query speedup in number of sub-iso tests relative to Method M
    /// alone: `|C_M| / (|C| + probes)` (the demo reports 75/43 = 1.74; we
    /// charge probe tests too, so the cache pays its own overhead).
    pub fn test_speedup(&self) -> f64 {
        let denom = self.sub_iso_tests + self.probe_tests;
        if denom == 0 {
            // Entire candidate set resolved from cache: infinite speedup is
            // reported as the base count (bounded for aggregation).
            return self.cm_size.max(1) as f64;
        }
        self.cm_size as f64 / denom as f64
    }

    /// Total savings in sub-iso tests versus Method M alone (can be negative
    /// when probing outweighs pruning).
    pub fn tests_saved(&self) -> i64 {
        self.cm_size as i64 - (self.sub_iso_tests + self.probe_tests) as i64
    }

    /// `true` if any hit (memo, exact, sub, super) occurred.
    pub fn any_hit(&self) -> bool {
        self.memo_hit || self.exact_hit || !self.sub_hits.is_empty() || !self.super_hits.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The demo's Fig. 3 pipeline query: 75 → 43 tests.
    pub(crate) fn base_report() -> QueryReport {
        QueryReport {
            answer: BitSet::new(10),
            answer_text: None,
            cm_set: BitSet::new(10),
            definite_set: BitSet::new(10),
            verified_set: BitSet::new(10),
            survivors_set: BitSet::new(10),
            kind: QueryKind::Subgraph,
            exact_hit: false,
            memo_hit: false,
            confirm_iso: false,
            filter_skipped: false,
            sub_hits: vec![],
            super_hits: vec![],
            cm_size: 75,
            definite: 1,
            verified: 43,
            survivors: 14,
            sub_iso_tests: 43,
            probe_tests: 0,
            verify_steps: 0,
            probe_steps: 0,
            admitted: None,
            evicted: vec![],
            admission_rejected: false,
            generation: 0,
            timing: QueryTiming::default(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn fig3_speedup() {
        // The demo's example: 75 -> 43 gives 1.74.
        let r = base_report();
        assert!((r.test_speedup() - 75.0 / 43.0).abs() < 1e-9);
        assert_eq!(r.tests_saved(), 32);
        assert!(!r.any_hit());
        assert_eq!((r.plan(), r.tier()), ("filter", "pipeline"));
        assert_eq!(QueryReport { filter_skipped: true, ..r.clone() }.plan(), "bounded");
        let memo = QueryReport { memo_hit: true, ..r };
        assert_eq!((memo.plan(), memo.tier()), ("", "memo"));
    }

    #[test]
    fn probes_charged() {
        let mut r = base_report();
        r.probe_tests = 7;
        assert!((r.test_speedup() - 75.0 / 50.0).abs() < 1e-9);
        assert_eq!(r.tests_saved(), 25);
    }

    #[test]
    fn index_health_ratio() {
        let h = IndexHealth { distinct_features: 6, tombstoned_slots: 2 };
        assert!((h.tombstone_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(IndexHealth::default().tombstone_ratio(), 0.0);
    }

    #[test]
    fn exact_hit_speedup_bounded() {
        let mut r = base_report();
        r.exact_hit = true;
        r.sub_iso_tests = 0;
        r.verified = 0;
        assert_eq!(r.test_speedup(), 75.0);
        assert!(r.any_hit());
        assert_eq!(r.tier(), "exact");
    }
}
