//! Stage 2 — **Bound**: fence the answer with the hits alone, then decide
//! whether Method M's filter is worth running (Fig. 3(c), 3(d)).
//!
//! For a query `g` of kind `k`, every verified hit `h` carries an answer set
//! that is exact at the pinned dataset generation, and containment orders
//! the two answers:
//!
//! | relation                  | subgraph query          | supergraph query        |
//! |---------------------------|-------------------------|-------------------------|
//! | `query ⊑ cached` (sub)    | `A(h) ⊆ A(g)`: definite | `A(g) ⊆ A(h)`: pruning  |
//! | `cached ⊑ query` (super)  | `A(g) ⊆ A(h)`: pruning  | `A(h) ⊆ A(g)`: definite |
//!
//! So before anything is spent on the dataset index the pipeline holds
//!
//! ```text
//!   S = ⋃ definite answers   ⊆   A(g)   ⊆   U = live ∩ ⋂ pruning answers
//! ```
//!
//! and verifying `U ∖ S` yields `A(g)` exactly — for *any* Method M, filter
//! overlay and tombstones included, because no step of that argument looks
//! at `C_M`. The filter can only shrink the work further (`C_M ∩ U ∖ S`),
//! at the price of a walk over the dataset index that no cache hit makes
//! cheaper. [`Bound::skips_filter`] is that trade: with at least one pruning
//! hit and `|U ∖ S|` at most one [`BOUND_DIVISOR`]-th of the live graphs, the
//! candidate set becomes `U` and the filter does not run (the *bounded*
//! plan); otherwise the filter runs exactly as Method M alone would run it.
//!
//! The decision reads counts only — never a clock — so one query stream
//! yields the same plans, and therefore the same statistics, on every run.
//!
//! This stage is pure bitset algebra over the snapshots the probe stage
//! collected — no cache access, no locks.

use crate::pipeline::probe::{HitSnapshot, Relation};
use crate::pipeline::PipelineCtx;
use gc_graph::BitSet;
use gc_method::QueryKind;

/// The bounded plan runs when `|U ∖ S| · BOUND_DIVISOR ≤ live graphs`.
///
/// Measured on `gcbench drift-cold` (10 000 molecule graphs, FTV filter
/// ≈ 250 µs a query, ≈ 1 µs per sub-iso test): the filter pays for itself
/// above ≈ 245 open candidates, i.e. live/40. Neighbours tried on seed 1:
/// live/160 bounds a quarter fewer queries and leaves the median query
/// ≈ 15 % slower; live/10 is no faster and runs 14.5 % more tests
/// (CHANGES.md, PR 19). The filter's cost grows with the index and so with
/// the dataset, which is why the cut-off is a share of the live graphs and
/// not a count. Deliberately not a `CacheConfig` field.
pub const BOUND_DIVISOR: usize = 40;

/// Which plan the runtime may pick. [`Plan::Auto`] is the only value the
/// constructors set; the forced values exist so the test suites can drive
/// both paths over every query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Plan {
    /// Decide per query with [`Bound::skips_filter`].
    #[default]
    Auto,
    /// Never run the filter (sound: `U` is `live` without a pruning hit).
    ForceBounded,
    /// Always run the filter.
    ForceFilter,
}

/// What the hits alone say about a query's answer.
#[derive(Debug, Clone)]
pub struct Bound {
    /// `U` — no graph outside it can be an answer.
    pub upper: BitSet,
    /// `S` — definite answers (never verified).
    pub definite: BitSet,
    /// Smallest recorded baseline among the pruning hits (the hits that
    /// narrowed `U`); `None` without one.
    pub pruning_baseline: Option<u64>,
}

impl Bound {
    /// The bound of a query without hits over an empty universe (ctx
    /// initial state).
    pub fn empty(universe: usize) -> Self {
        Bound {
            upper: BitSet::new(universe),
            definite: BitSet::new(universe),
            pruning_baseline: None,
        }
    }

    /// `|U ∖ S|` — the tests the bounded plan would run.
    pub fn open(&self) -> usize {
        self.upper.difference_count(&self.definite)
    }

    /// Should a dataset of `live` graphs skip Method M's filter for this
    /// query? See the module docs.
    pub fn skips_filter(&self, live: usize) -> bool {
        self.pruning_baseline.is_some() && self.open() * BOUND_DIVISOR <= live
    }

    /// The Method M baseline (`|C_M|`) charged to a query that took the
    /// bounded plan, where the true `C_M` is never computed. For a filter
    /// that is monotone under containment (FTV, SI), `C_M(g) ⊆ C_M(h)` for
    /// every pruning hit `h`, so the smallest recorded baseline bounds
    /// `|C_M(g)|` from above; `|U|` keeps the baseline at least the number
    /// of tests the plan can run.
    pub fn baseline_tests(&self) -> u64 {
        (self.upper.count() as u64).max(self.pruning_baseline.unwrap_or(0))
    }
}

/// Does a hit of `rel` contribute definite answers (vs pruning) for queries
/// of `kind`? (The table in the module docs.)
pub fn gives_definite(kind: QueryKind, rel: Relation) -> bool {
    matches!(
        (kind, rel),
        (QueryKind::Subgraph, Relation::QueryInCached)
            | (QueryKind::Supergraph, Relation::CachedInQuery)
    )
}

/// Fold hit snapshots into the bound over the `live` graphs.
pub fn bound<'a>(
    live: &BitSet,
    hits: impl IntoIterator<Item = &'a HitSnapshot>,
    kind: QueryKind,
) -> Bound {
    let mut b = Bound { upper: live.clone(), ..Bound::empty(live.universe()) };
    for hit in hits {
        if gives_definite(kind, hit.relation) {
            b.definite.union_with(&hit.answer);
        } else {
            b.upper.intersect_with(&hit.answer);
            let tightest = b.pruning_baseline.map_or(hit.base_tests, |t| t.min(hit.base_tests));
            b.pruning_baseline = Some(tightest);
        }
    }
    b
}

/// Run the bound stage over the snapshots in `ctx`. When it takes the
/// bounded plan (`ctx.filter_skipped`) the candidate set is already `U` and
/// the caller must not run the filter stage.
pub fn run(ctx: &mut PipelineCtx<'_>, live: &BitSet, plan: Plan) {
    ctx.bound = bound(live, &ctx.hit_answers, ctx.kind);
    ctx.filter_skipped = match plan {
        Plan::Auto => ctx.bound.skips_filter(live.count()),
        Plan::ForceBounded => true,
        Plan::ForceFilter => false,
    };
    if ctx.filter_skipped {
        ctx.cm = ctx.bound.upper.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};
    use gc_method::{Dataset, FtvMethod, Method};

    fn bs(universe: usize, idx: &[usize]) -> BitSet {
        BitSet::from_indices(universe, idx.iter().copied())
    }

    fn hit(relation: Relation, universe: usize, idx: &[usize], base_tests: u64) -> HitSnapshot {
        HitSnapshot { relation, answer: bs(universe, idx), base_tests }
    }

    #[test]
    fn roles_follow_the_query_kind() {
        let live = BitSet::full(10);
        let hits = [
            hit(Relation::QueryInCached, 10, &[2, 3], 9),
            hit(Relation::CachedInQuery, 10, &[1, 2, 3, 7], 6),
        ];
        let sub = bound(&live, &hits, QueryKind::Subgraph);
        assert_eq!(sub.definite.to_vec(), vec![2, 3]);
        assert_eq!(sub.upper.to_vec(), vec![1, 2, 3, 7]);
        assert_eq!((sub.pruning_baseline, sub.open()), (Some(6), 2));
        let sup = bound(&live, &hits, QueryKind::Supergraph);
        assert_eq!(sup.definite.to_vec(), vec![1, 2, 3, 7]);
        assert_eq!(sup.upper.to_vec(), vec![2, 3]);
        assert_eq!(sup.pruning_baseline, Some(9));
    }

    #[test]
    fn pruning_hits_intersect_within_the_live_graphs() {
        let mut live = BitSet::full(10);
        live.remove(2);
        let hits = [
            hit(Relation::CachedInQuery, 10, &[0, 1, 3], 8),
            hit(Relation::CachedInQuery, 10, &[1, 3, 4], 5),
        ];
        let b = bound(&live, &hits, QueryKind::Subgraph);
        assert_eq!(b.upper.to_vec(), vec![1, 3]);
        assert_eq!(b.pruning_baseline, Some(5));
        // The tighter of the two recorded baselines, not |U|.
        assert_eq!(b.baseline_tests(), 5);
    }

    #[test]
    fn without_a_pruning_hit_the_filter_runs() {
        // Definite hits alone leave U = live: nothing fences the answer,
        // however many definite answers there are.
        let live = BitSet::full(80);
        let all: Vec<usize> = (0..80).collect();
        let b = bound(&live, &[hit(Relation::QueryInCached, 80, &all, 80)], QueryKind::Subgraph);
        assert_eq!((b.pruning_baseline, b.open()), (None, 0));
        assert!(!b.skips_filter(80));
        assert_eq!(b.baseline_tests(), 80, "no pruning hit: the baseline is |U|");
        assert!(!bound(&live, [], QueryKind::Subgraph).skips_filter(80));
    }

    #[test]
    fn cutoff_scales_with_the_live_graphs() {
        let live = BitSet::full(80);
        let two =
            bound(&live, &[hit(Relation::CachedInQuery, 80, &[4, 9], 30)], QueryKind::Subgraph);
        assert!(two.skips_filter(80), "2 · 40 ≤ 80");
        assert!(!two.skips_filter(79));
        let three =
            bound(&live, &[hit(Relation::CachedInQuery, 80, &[4, 9, 11], 30)], QueryKind::Subgraph);
        assert!(!three.skips_filter(80), "3 · 40 > 80");
        assert!(three.skips_filter(120));
    }

    #[test]
    fn closed_bound_needs_neither_filter_nor_verify() {
        let q = graph_from_parts(&[Label(0)], &[]).unwrap();
        let live = BitSet::full(4);
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, 4);
        ctx.hit_answers = vec![
            hit(Relation::CachedInQuery, 4, &[1, 2], 3),
            hit(Relation::QueryInCached, 4, &[1, 2], 4),
        ];
        run(&mut ctx, &live, Plan::Auto);
        assert!(ctx.filter_skipped, "U∖S = ∅ skips the filter on any dataset");
        assert_eq!(ctx.cm.to_vec(), vec![1, 2]);
        crate::pipeline::prune::run(&mut ctx);
        assert!(ctx.pruned.to_verify.is_empty(), "nothing left to verify");
        assert_eq!(ctx.bound.definite.to_vec(), vec![1, 2]);
        assert_eq!((ctx.pruned.cm_size, ctx.pruned.saved), (3, 3));
    }

    #[test]
    fn forced_plans_override_the_decision() {
        let q = graph_from_parts(&[Label(0)], &[]).unwrap();
        let live = BitSet::full(4);
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, 4);
        let skipped = |ctx: &mut PipelineCtx<'_>, plan| {
            run(ctx, &live, plan);
            ctx.filter_skipped
        };
        assert!(!skipped(&mut ctx, Plan::Auto));
        assert!(skipped(&mut ctx, Plan::ForceBounded));
        assert_eq!(ctx.cm, live, "no hit: the forced bound is every live graph");
        ctx.hit_answers = vec![hit(Relation::CachedInQuery, 4, &[], 2)];
        assert!(skipped(&mut ctx, Plan::Auto));
        assert!(!skipped(&mut ctx, Plan::ForceFilter));
    }

    #[test]
    fn baseline_bounds_the_true_cm_for_ftv() {
        // A chain h ⊑ g: with a monotone filter C_M(g) ⊆ C_M(h), so the
        // baseline charged on the bounded plan (from h's recorded |C_M|)
        // can never undercount what Method M would have tested for g.
        let g = |labels: &[u32], edges: &[(u32, u32)]| {
            let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
            graph_from_parts(&ls, edges).unwrap()
        };
        let dataset = Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[0, 1], &[(0, 1)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]),
        ]);
        let ftv = FtvMethod::build(&dataset, 2);
        let small = g(&[0, 1], &[(0, 1)]);
        let large = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            // The pruning side of the chain flips with the kind.
            let (cached, asked, relation) = match kind {
                QueryKind::Subgraph => (&small, &large, Relation::CachedInQuery),
                QueryKind::Supergraph => (&large, &small, Relation::QueryInCached),
            };
            let cached_cm = ftv.filter(&dataset, cached, kind);
            let cached_answer =
                gc_method::execute_base(&dataset, &ftv, gc_method::Engine::Vf2, cached, kind)
                    .answer;
            let snapshot = HitSnapshot {
                relation,
                answer: cached_answer,
                base_tests: cached_cm.count() as u64,
            };
            let b = bound(dataset.live_mask(), &[snapshot], kind);
            let true_cm = ftv.filter(&dataset, asked, kind).count() as u64;
            assert!(b.baseline_tests() >= true_cm, "{kind:?}: {} < {true_cm}", b.baseline_tests());
        }
    }
}
