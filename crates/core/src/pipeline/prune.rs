//! Stage 4 — **Prune**: apply the bound to the candidate set (Fig. 3(f)).
//!
//! [`crate::pipeline::bound`] turned the hits into definite answers `S` and
//! an upper bound `U`; this stage applies them to whichever candidate set
//! the plan produced:
//!
//! * *filter* plan — `C_M` is Method M's candidate set, and the reduced
//!   verification set is `C = (C_M ∩ U) ∖ S`;
//! * *bounded* plan — the candidate set *is* `U` (the filter never ran), so
//!   `C = U ∖ S`, and the Method M baseline charged to the query is the
//!   sound upper bound [`crate::pipeline::bound::Bound::baseline_tests`]
//!   instead of a `|C_M|` nobody computed.
//!
//! Soundness in both plans is the containment algebra `S ⊆ A(g) ⊆ U`:
//! everything outside `U` is a definite non-answer (`S'` in Fig. 3(d)),
//! everything in `S` is an answer without a test, and `A(g) ⊆ C_M` for a
//! sound filter — so verifying `C` and adding `S` yields `A(g)` exactly.
//!
//! Pure bitset algebra — no cache access, no locks.

use crate::pipeline::bound::Bound;
use crate::pipeline::PipelineCtx;
use gc_graph::BitSet;

/// Result of pruning the candidate set with cache hits. The definite
/// answers `S` it removed stay in [`Bound::definite`].
#[derive(Debug, Clone)]
pub struct Pruned {
    /// `C` — the reduced set that still needs verification.
    pub to_verify: BitSet,
    /// Method M's baseline tests for this query: `|C_M|` on the filter
    /// plan, its upper bound on the bounded plan.
    pub cm_size: usize,
    /// Number of candidates removed (`cm_size − |C|`), the per-query savings
    /// in sub-iso tests.
    pub saved: usize,
}

impl Pruned {
    /// Identity pruning over an empty candidate set (ctx initial state).
    pub fn empty(universe: usize) -> Self {
        Pruned { to_verify: BitSet::new(universe), cm_size: 0, saved: 0 }
    }
}

/// Apply `bound` to the candidate set `cm`, charging the query `cm_size`
/// baseline tests (`cm.count()` when `cm` is Method M's own `C_M`).
pub fn prune(cm: &BitSet, bound: &Bound, cm_size: usize) -> Pruned {
    // Definite answers are answers regardless of C_M; anything outside U
    // cannot be an answer; and S ⊆ A(g) ⊆ U, so removing S after the
    // intersection loses nothing.
    let mut to_verify = cm.clone();
    to_verify.intersect_with(&bound.upper);
    to_verify.difference_with(&bound.definite);
    let saved = cm_size - to_verify.count();
    Pruned { to_verify, cm_size, saved }
}

/// Run the prune stage over the bound and candidate set in `ctx`.
pub fn run(ctx: &mut PipelineCtx<'_>) {
    let cm_size =
        if ctx.filter_skipped { ctx.bound.baseline_tests() as usize } else { ctx.cm.count() };
    ctx.pruned = prune(&ctx.cm, &ctx.bound, cm_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::bound::bound;
    use crate::pipeline::probe::{HitSnapshot, Relation};
    use gc_method::QueryKind;

    fn bs(universe: usize, idx: &[usize]) -> BitSet {
        BitSet::from_indices(universe, idx.iter().copied())
    }

    /// Prune `cm` (Method M's own candidate set) with `hits` over a fully
    /// live universe; returns the bound's definite answers `S` beside it.
    fn pruned(cm: &BitSet, hits: &[(Relation, &[usize])], kind: QueryKind) -> (BitSet, Pruned) {
        let snapshots: Vec<HitSnapshot> = hits
            .iter()
            .map(|&(relation, idx)| HitSnapshot {
                relation,
                answer: bs(cm.universe(), idx),
                base_tests: cm.universe() as u64,
            })
            .collect();
        let b = bound(&BitSet::full(cm.universe()), &snapshots, kind);
        let p = prune(cm, &b, cm.count());
        (b.definite, p)
    }

    #[test]
    fn subgraph_query_sub_case_gives_definite() {
        let cm = bs(10, &[0, 1, 2, 3, 4]);
        let (definite, p) = pruned(&cm, &[(Relation::QueryInCached, &[2, 3])], QueryKind::Subgraph);
        assert_eq!(definite.to_vec(), vec![2, 3]);
        assert_eq!(p.to_verify.to_vec(), vec![0, 1, 4]);
        assert_eq!(p.cm_size, 5);
        assert_eq!(p.saved, 2);
    }

    #[test]
    fn subgraph_query_super_case_prunes() {
        let cm = bs(10, &[0, 1, 2, 3, 4]);
        let (definite, p) =
            pruned(&cm, &[(Relation::CachedInQuery, &[1, 2, 7])], QueryKind::Subgraph);
        assert!(definite.is_empty());
        assert_eq!(p.to_verify.to_vec(), vec![1, 2]);
        assert_eq!(p.saved, 3);
    }

    #[test]
    fn combined_hits_match_fig3_pipeline() {
        // Mimic the Query Journey: C_M of 5, one sub hit delivering {4},
        // one super hit keeping {0, 1, 4}.
        let cm = bs(8, &[0, 1, 2, 3, 4]);
        let (definite, p) = pruned(
            &cm,
            &[(Relation::QueryInCached, &[4]), (Relation::CachedInQuery, &[0, 1, 4, 6])],
            QueryKind::Subgraph,
        );
        assert_eq!(definite.to_vec(), vec![4]);
        assert_eq!(p.to_verify.to_vec(), vec![0, 1]);
        assert_eq!(p.saved, 3);
    }

    #[test]
    fn supergraph_query_roles_flip() {
        let cm = bs(10, &[0, 1, 2, 3]);
        // cached ⊑ query gives definite answers for supergraph queries.
        let (definite, p) =
            pruned(&cm, &[(Relation::CachedInQuery, &[1, 2])], QueryKind::Supergraph);
        assert_eq!(definite.to_vec(), vec![1, 2]);
        // query ⊑ cached prunes.
        assert_eq!(p.to_verify.to_vec(), vec![0, 3]);
        let (definite, p) =
            pruned(&cm, &[(Relation::QueryInCached, &[1, 2])], QueryKind::Supergraph);
        assert!(definite.is_empty());
        assert_eq!(p.to_verify.to_vec(), vec![1, 2]);
    }

    #[test]
    fn no_hits_is_identity() {
        let cm = bs(6, &[0, 3, 5]);
        let (definite, p) = pruned(&cm, &[], QueryKind::Subgraph);
        assert_eq!(p.to_verify, cm);
        assert!(definite.is_empty());
        assert_eq!(p.saved, 0);
    }

    #[test]
    fn multiple_pruning_hits_intersect() {
        let cm = bs(10, &[0, 1, 2, 3, 4, 5]);
        let (definite, p) = pruned(
            &cm,
            &[(Relation::CachedInQuery, &[0, 1, 2, 3]), (Relation::CachedInQuery, &[2, 3, 4])],
            QueryKind::Subgraph,
        );
        assert!(definite.is_empty());
        assert_eq!(p.to_verify.to_vec(), vec![2, 3]);
        assert_eq!(p.saved, 4);
    }

    #[test]
    fn multiple_definite_hits_union() {
        let cm = bs(10, &[0, 1, 2, 3, 4, 5]);
        let (definite, p) = pruned(
            &cm,
            &[(Relation::QueryInCached, &[0]), (Relation::QueryInCached, &[4, 5])],
            QueryKind::Subgraph,
        );
        assert_eq!(definite.to_vec(), vec![0, 4, 5]);
        assert_eq!(p.to_verify.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn bounded_plan_charges_the_baseline_not_the_candidates() {
        // The candidate set is U itself; the recorded baseline of the
        // pruning hit (6) is what Method M is charged.
        let hits = [HitSnapshot {
            relation: Relation::CachedInQuery,
            answer: bs(10, &[1, 2, 7]),
            base_tests: 6,
        }];
        let b = bound(&BitSet::full(10), &hits, QueryKind::Subgraph);
        let p = prune(&b.upper, &b, b.baseline_tests() as usize);
        assert_eq!(p.to_verify.to_vec(), vec![1, 2, 7]);
        assert_eq!((p.cm_size, p.saved), (6, 3));
    }
}
