//! The staged query pipeline — the paper's kernel (Fig. 1/Fig. 3) as six
//! explicit stages, ordered by what each one costs and what it can spare
//! the next:
//!
//! ```text
//!  query ──▶ probe ──▶ bound ──┬──▶ filter ──┬──▶ prune ──▶ verify ──▶ admit ──▶ report
//!            (H,H')    (S,U)   │    (C_M)    │     (C)       (R)      (window)
//!                              └─ bounded: U ┘
//! ```
//!
//! * [`probe`] — Sub/Super Case Processors: find cache hits, snapshot their
//!   answers (read access to cache state; needs nothing from `C_M`);
//! * [`bound`] — bitset algebra turning hits into definite answers `S` and
//!   the upper bound `U`, and the choice of plan: when the hits already
//!   fence the answer, the candidate set is `U` and the filter is skipped
//!   (pure);
//! * [`filter`] — Method M's candidate set `C_M`, on the filter plan only
//!   (lock-free);
//! * [`prune`] — the reduced verification set `C = (candidates ∩ U) ∖ S`
//!   (pure);
//! * [`verify`] — exact sub-iso testing of `C` on the calling thread
//!   (lock-free);
//! * [`admit`] — hit crediting, admission, batched replacement (write
//!   access to cache state).
//!
//! A [`PipelineCtx`] carries one query through the stages, accumulating each
//! stage's product. The stages take their dependencies (cache manager,
//! policy, scratch) as explicit arguments; [`crate::SharedGraphCache`]
//! composes them over cache state sharded behind `parking_lot::RwLock`,
//! probing under read locks and admitting under short write sections. In
//! front of the stages sit the query's key (`query_key`, a hint from
//! `KeyHints` for a presentation seen before) and the exact tier, which
//! serves a query whole from a resident entry or an answer-only row
//! ([`FastTier`], reported by [`fast_report`]).

pub mod admit;
pub mod bound;
pub mod filter;
pub mod probe;
pub mod prune;
pub mod verify;

use crate::pipeline::admit::{AdmitOutcome, ExactServe};
use crate::pipeline::bound::Bound;
use crate::pipeline::probe::{CacheHits, HitSnapshot, ProbeScratch};
use crate::pipeline::prune::Pruned;
use crate::report::QueryReport;
use crate::telemetry::{PipelineStage, QueryTiming, Telemetry};
use gc_graph::{BitSet, Graph};
use gc_index::FeatureVec;
use gc_iso::GraphProfile;
use gc_method::QueryKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Carries one query through the pipeline stages.
///
/// Constructed at query entry; each stage reads its inputs from and writes
/// its product into the context. After the last stage,
/// [`PipelineCtx::into_report`] turns the accumulated products into the
/// query's [`QueryReport`].
#[derive(Debug)]
pub struct PipelineCtx<'q> {
    /// The query graph.
    pub query: &'q Graph,
    /// Subgraph or supergraph semantics.
    pub kind: QueryKind,
    /// Logical admission time (query sequence number).
    pub now: u64,
    /// Wall-clock entry time.
    pub start: Instant,
    /// The candidate set the pipeline started from: Method M's `C_M`
    /// (filter stage), or the hits' upper bound `U` when the bound stage
    /// skipped the filter.
    pub cm: BitSet,
    /// Bound stage product: `true` when the bounded plan was taken and the
    /// filter stage must not run.
    pub filter_skipped: bool,
    /// The query's feature vector under the cache's feature config,
    /// extracted **once per query** at the start of the probe stage and
    /// shared by the sub-probe, the super-probe (on every shard) and
    /// admission (`None` until probed; taken by the admit stage).
    pub features: Option<FeatureVec>,
    /// The query's verification profile, built once beside `features` and
    /// likewise shared by every probe and taken by the admit stage.
    pub profile: Option<GraphProfile>,
    /// Reusable probe- and verify-stage buffers (candidate selection,
    /// utility ordering, verifier search state). Owned by the runtime, one
    /// per thread, and swapped into the context for the query's lifetime,
    /// so neither stage's loop allocates in steady state.
    pub probe_scratch: ProbeScratch,
    /// Probe stage product: verified cache hits.
    pub hits: CacheHits,
    /// Probe stage product: answer snapshots in probe-discovery order
    /// (shard by shard, each shard's in `CacheHits::iter` order; only
    /// [`bound`], which is order-insensitive, consumes them from the
    /// context).
    pub hit_answers: Vec<HitSnapshot>,
    /// Bound stage product: definite answers `S` and upper bound `U`.
    pub bound: Bound,
    /// Prune stage product: the reduced set `C` (the definite answers `S`
    /// stay in `bound`).
    pub pruned: Pruned,
    /// Verify stage product: verification survivors `R`.
    pub survivors: BitSet,
    /// Verify stage product: verifier steps spent on dataset graphs.
    pub verify_steps: u64,
    /// Verify stage product: observed per-graph verification cost
    /// `(gid, steps)`, one entry per verified candidate (feeds the
    /// [`crate::cost::CostModel`]).
    pub verify_costs: Vec<(usize, u64)>,
}

impl<'q> PipelineCtx<'q> {
    /// Fresh context for one query over a dataset of `universe` graphs.
    pub fn new(query: &'q Graph, kind: QueryKind, now: u64, universe: usize) -> Self {
        PipelineCtx {
            query,
            kind,
            now,
            start: Instant::now(),
            cm: BitSet::new(universe),
            filter_skipped: false,
            features: None,
            profile: None,
            probe_scratch: ProbeScratch::default(),
            hits: CacheHits::default(),
            hit_answers: Vec::new(),
            bound: Bound::empty(universe),
            pruned: Pruned::empty(universe),
            survivors: BitSet::new(universe),
            verify_steps: 0,
            verify_costs: Vec::new(),
        }
    }

    /// The final answer `A = R ∪ S` (Fig. 3(h)).
    pub fn answer(&self) -> BitSet {
        let mut answer = self.survivors.clone();
        answer.union_with(&self.bound.definite);
        answer
    }

    /// Assemble the per-query report (Fig. 3 anatomy) after the last stage.
    ///
    /// `answer` is the [`PipelineCtx::answer`] value the caller already
    /// materialized for the admit stage — passed in so the full-universe
    /// union is computed exactly once per query. The query ran against
    /// dataset `generation`, spending `timing` in its stages.
    pub fn into_report(
        self,
        answer: BitSet,
        outcome: AdmitOutcome,
        generation: u64,
        timing: QueryTiming,
        elapsed: Duration,
    ) -> QueryReport {
        let verified_count = self.pruned.to_verify.count();
        let definite_count = self.bound.definite.count();
        let survivors_count = self.survivors.count();
        debug_assert_eq!(answer, self.answer(), "caller must pass this ctx's own answer");
        QueryReport {
            answer,
            answer_text: None,
            cm_set: self.cm,
            definite_set: self.bound.definite,
            verified_set: self.pruned.to_verify,
            survivors_set: self.survivors,
            kind: self.kind,
            exact_hit: false,
            memo_hit: false,
            confirm_iso: false,
            filter_skipped: self.filter_skipped,
            sub_hits: self.hits.sub,
            super_hits: self.hits.super_,
            cm_size: self.pruned.cm_size,
            definite: definite_count,
            verified: verified_count,
            survivors: survivors_count,
            sub_iso_tests: verified_count as u64,
            probe_tests: self.hits.probe_tests,
            verify_steps: self.verify_steps,
            probe_steps: self.hits.probe_steps,
            admitted: outcome.admitted,
            evicted: outcome.evicted,
            admission_rejected: outcome.rejected,
            generation,
            timing,
            elapsed,
        }
    }
}

/// What served a query whole in front of the pipeline: the exact tier
/// (Fig. 3's "traditional cache hit") holds entries and answer-only rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastTier {
    /// A live cache entry matched exactly.
    Exact,
    /// An answer-only row matched (a memo hit).
    Memo,
}

/// Build the report for a query `tier` served whole against dataset
/// `generation`; `confirm_steps` is what [`probe::find_exact`] reported for
/// the hit's confirmation (non-zero: it took an isomorphism search). No
/// stage ran, so the four stage sets are empty over an empty universe —
/// the answer is the only universe-sized value a hit produces, handed out
/// with the serving entry's or row's text slot.
pub fn fast_report(
    tier: FastTier,
    served: ExactServe,
    kind: QueryKind,
    confirm_steps: u64,
    generation: u64,
    timing: QueryTiming,
    elapsed: Duration,
) -> QueryReport {
    let ExactServe { answer, text, base_tests } = served;
    QueryReport {
        answer,
        answer_text: Some(text),
        cm_set: BitSet::new(0),
        definite_set: BitSet::new(0),
        verified_set: BitSet::new(0),
        survivors_set: BitSet::new(0),
        kind,
        exact_hit: tier == FastTier::Exact,
        memo_hit: tier == FastTier::Memo,
        confirm_iso: confirm_steps > 0,
        filter_skipped: false,
        sub_hits: Vec::new(),
        super_hits: Vec::new(),
        cm_size: base_tests as usize,
        definite: 0,
        verified: 0,
        survivors: 0,
        sub_iso_tests: 0,
        probe_tests: 0,
        verify_steps: 0,
        probe_steps: 0,
        admitted: None,
        evicted: Vec::new(),
        admission_rejected: false,
        generation,
        timing,
        elapsed,
    }
}

/// Presentation hash → WL fingerprint hints: a direct-mapped, lock-free
/// table of `(tag, key)` slots, written with the fingerprint every query
/// computes and read by [`query_key`], so a repeated presentation routes
/// its exact-tier lookup without recomputing the fingerprint.
///
/// **A hint only routes a lookup.** A lookup under a wrong key can only
/// miss — every isomorph of the query is stored under the query's true
/// fingerprint, in that fingerprint's home shard, and a hit is confirmed
/// by isomorphism — and on a miss the caller computes the fingerprint
/// ([`QueryKey::fingerprint`]) and looks again under it if it differs.
/// The pipeline, admission and the answer-only row only ever take the
/// computed key. So a stale, colliding or torn slot (the tag of one
/// writer, the key of another) costs a fingerprint, never an answer, and
/// nothing needs invalidating: a fingerprint is a function of the graph
/// alone. Hence `Relaxed` everywhere.
pub(crate) struct KeyHints {
    /// Power-of-two many; a tag's low bits pick its slot.
    slots: Box<[HintSlot]>,
}

#[derive(Default)]
struct HintSlot {
    tag: AtomicU64,
    key: AtomicU64,
}

impl KeyHints {
    /// Slots are capped at this many (16 MiB): beyond it a larger working
    /// set only collides more often.
    const MAX_SLOTS: usize = 1 << 20;

    /// A table of `slots` rounded up to a power of two (at least one, at
    /// most [`Self::MAX_SLOTS`]).
    pub(crate) fn new(slots: usize) -> Self {
        let slots = slots.clamp(1, Self::MAX_SLOTS).next_power_of_two();
        KeyHints { slots: (0..slots).map(|_| HintSlot::default()).collect() }
    }

    fn slot(&self, tag: u64) -> &HintSlot {
        &self.slots[tag as usize & (self.slots.len() - 1)]
    }

    /// The key last written under presentation hash `tag`, if its slot
    /// still holds that tag.
    pub(crate) fn get(&self, tag: u64) -> Option<u64> {
        let slot = self.slot(tag);
        (slot.tag.load(Ordering::Relaxed) == tag).then(|| slot.key.load(Ordering::Relaxed))
    }

    /// Hint `key` for presentation hash `tag`. Only a computed fingerprint
    /// may be written here.
    pub(crate) fn put(&self, tag: u64, key: u64) {
        let slot = self.slot(tag);
        slot.key.store(key, Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Relaxed);
    }

    /// Forget every hint (tests compare against a table-less run).
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        for slot in self.slots.iter() {
            slot.tag.store(!0, Ordering::Relaxed);
        }
    }
}

/// A query's key: the one its exact-tier lookup is routed by — a hint, or
/// the WL fingerprint when no hint was found — and the fingerprint itself
/// once computed.
pub(crate) struct QueryKey {
    presentation: u64,
    /// What the first exact-tier lookup (shard and bucket) uses.
    pub routed: u64,
    computed: Option<u64>,
}

impl QueryKey {
    /// The query's WL fingerprint — the key shard routing, admission and
    /// the answer-only row take. Computed here (and hinted) when the
    /// routed key was a hint.
    pub(crate) fn fingerprint(&mut self, hints: &KeyHints, query: &Graph) -> u64 {
        *self.computed.get_or_insert_with(|| {
            let fp = gc_graph::hash::fingerprint(query);
            hints.put(self.presentation, fp);
            fp
        })
    }
}

/// The query's key — a hint when `hints` holds one for the query's
/// presentation hash, else its WL fingerprint, computed and hinted. The
/// time since `start` it was ready at is recorded as the `key` stage. A
/// query computes at most one fingerprint: here, or on a hinted miss
/// through [`QueryKey::fingerprint`].
pub(crate) fn query_key(
    telemetry: &Telemetry,
    hints: &KeyHints,
    query: &Graph,
    start: Instant,
    timing: &mut QueryTiming,
) -> QueryKey {
    let presentation = gc_graph::hash::presentation_hash(query);
    let mut key = QueryKey { presentation, routed: 0, computed: None };
    key.routed = match hints.get(presentation) {
        Some(hint) => hint,
        None => key.fingerprint(hints, query),
    };
    telemetry.record(PipelineStage::Key, start.elapsed(), timing);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsMonitor;
    use gc_graph::{graph_from_parts, Label};

    #[test]
    fn ctx_report_algebra() {
        let q = graph_from_parts(&[Label(0)], &[]).unwrap();
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, 8);
        ctx.cm = BitSet::from_indices(8, [0usize, 1, 2, 3]);
        ctx.bound.definite = BitSet::from_indices(8, [3usize]);
        ctx.pruned =
            Pruned { to_verify: BitSet::from_indices(8, [0usize, 1]), cm_size: 4, saved: 2 };
        ctx.survivors = BitSet::from_indices(8, [1usize]);
        ctx.verify_steps = 42;
        assert_eq!(ctx.answer().to_vec(), vec![1, 3]);
        let answer = ctx.answer();
        let report = ctx.into_report(
            answer,
            AdmitOutcome { admitted: Some(7), evicted: vec![1, 2], rejected: false },
            3,
            QueryTiming::default(),
            Duration::from_millis(1),
        );
        let counters = StatsMonitor::default();
        counters.observe(&report);
        let delta = counters.snapshot();
        assert_eq!(delta.queries, 1);
        assert_eq!(delta.tests_executed, 2);
        assert_eq!(delta.tests_saved, 2);
        assert_eq!(delta.verify_steps, 42);
        assert_eq!((delta.admitted, delta.evicted, delta.admission_rejected), (1, 2, 0));
        assert_eq!(report.generation, 3);
        assert_eq!(report.answer.to_vec(), vec![1, 3]);
        assert_eq!(report.verified, 2);
        assert_eq!(report.survivors, 1);
        assert_eq!(report.admitted, Some(7));
        assert_eq!(report.evicted, vec![1, 2]);
        assert!(!report.exact_hit);
    }

    #[test]
    fn fast_report_and_delta_shapes() {
        for (tier, exact, memo) in [(FastTier::Exact, 1, 0), (FastTier::Memo, 0, 1)] {
            let text = std::sync::Arc::default();
            let answer = BitSet::from_indices(5, [2usize]);
            let served = ExactServe { answer, text, base_tests: 9 };
            let r = fast_report(
                tier,
                served,
                QueryKind::Supergraph,
                0,
                0,
                QueryTiming::default(),
                Duration::ZERO,
            );
            assert!(r.answer_text.is_some(), "every fast hit hands out its text slot");
            assert_eq!((r.exact_hit, r.memo_hit), (exact == 1, memo == 1));
            assert!(r.any_hit());
            assert_eq!(r.cm_size, 9);
            assert_eq!((r.sub_iso_tests, r.probe_tests, r.verify_steps), (0, 0, 0));
            assert_eq!(r.answer.to_vec(), vec![2]);
            assert_eq!(r.cm_set.universe(), 0, "no stage ran: nothing universe-sized but A");
            let counters = StatsMonitor::default();
            counters.observe(&r);
            let d = counters.snapshot();
            assert_eq!((d.exact_hits, d.memo_hits, d.exact_confirm_iso), (exact, memo, 0));
            assert_eq!(d.tests_saved, 9);
            let served =
                ExactServe { answer: r.answer, text: std::sync::Arc::default(), base_tests: 9 };
            let iso = fast_report(
                tier,
                served,
                QueryKind::Supergraph,
                4,
                0,
                QueryTiming::default(),
                Duration::ZERO,
            );
            let counters = StatsMonitor::default();
            counters.observe(&iso);
            assert_eq!(counters.snapshot().exact_confirm_iso, 1);
        }
    }
}
