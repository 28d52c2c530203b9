//! Exact graph-isomorphism testing (for exact-match cache hits).
//!
//! GraphCache detects exact-match hits by WL fingerprint (see
//! [`gc_graph::hash`]) and confirms with this test, so fingerprint collisions
//! can never produce a wrong answer. [`are_isomorphic`] is the from-scratch
//! reference; the cache's lookups call [`confirm_isomorphic`], which decides
//! the same thing from the stored graph's precomputed profile.
//!
//! For graphs with equal vertex and edge counts, a label-preserving
//! *non-induced* embedding is automatically bijective and edge-surjective,
//! hence an isomorphism — so the check reduces to one sub-iso test after the
//! cheap cardinality comparisons.

use crate::profile::{GraphProfile, VerifyCtx, VfScratch};
use crate::vf2;
use gc_graph::Graph;

/// `true` iff `a` and `b` are isomorphic labelled graphs.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    if a.label_histogram() != b.label_histogram() {
        return false;
    }
    // Equal n and m: any embedding a -> b is a bijection mapping all m edges
    // of a onto distinct edges of b, i.e. onto all of b's edges.
    vf2::exists(a, b)
}

thread_local! {
    /// Search state of [`confirm_isomorphic`], reused across calls.
    static CONFIRM_SCRATCH: std::cell::RefCell<VfScratch> =
        std::cell::RefCell::new(VfScratch::new());
}

/// [`are_isomorphic`]`(stored, query)` for a stored graph that carries its
/// full [`GraphProfile`] (with search order) — the confirmation behind every
/// fingerprint-keyed lookup. `None` when the graphs are not isomorphic;
/// otherwise the VF2 steps the confirmation took, `0` meaning the two
/// *presentations* were equal and no search ran.
///
/// A repeated query usually arrives as the same object or the same parsed
/// text, so presentation equality (one pass over four slices) decides most
/// calls. Only a differently numbered isomorph pays for a target-only
/// profile of `query` and the profiled, scratch-reusing
/// [`vf2::embeds_with`]. Both engines are exact, so the decision is always
/// the one [`are_isomorphic`] makes.
pub fn confirm_isomorphic(stored: &Graph, profile: &GraphProfile, query: &Graph) -> Option<u64> {
    if stored == query {
        return Some(0);
    }
    if stored.vertex_count() != query.vertex_count() || stored.edge_count() != query.edge_count() {
        return None;
    }
    let target = GraphProfile::target_only(query);
    if profile.summary.label_hist != target.summary.label_hist {
        return None;
    }
    let ctx = VerifyCtx::from_profiles(stored, profile, query, &target);
    let (found, stats) =
        CONFIRM_SCRATCH.with(|scratch| vf2::embeds_with(&ctx, None, &mut scratch.borrow_mut()));
    found.is_yes().then_some(stats.steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    #[test]
    fn permuted_graphs_are_isomorphic() {
        let a = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let b = g(&[2, 1, 0], &[(0, 1), (1, 2)]); // reversed path
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn structure_mismatch() {
        let path = g(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        let star = g(&[0; 4], &[(0, 1), (0, 2), (0, 3)]);
        assert!(!are_isomorphic(&path, &star));
    }

    #[test]
    fn label_mismatch() {
        let a = g(&[0, 1], &[(0, 1)]);
        let b = g(&[0, 2], &[(0, 1)]);
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn size_mismatch() {
        let a = g(&[0, 0], &[(0, 1)]);
        let b = g(&[0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(!are_isomorphic(&a, &b));
        // proper subgraph with same n but fewer edges
        let c = g(&[0, 0, 0], &[(0, 1)]);
        assert!(!are_isomorphic(&b, &c));
    }

    #[test]
    fn confirm_agrees_and_searches_only_for_other_presentations() {
        let path = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let reversed = g(&[2, 1, 0], &[(0, 1), (1, 2)]);
        // 1-WL cannot tell a hexagon from two triangles; the search can.
        let c6 = g(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let two_c3 = g(&[0; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let empty = g(&[], &[]);
        let all = [&path, &reversed, &c6, &two_c3, &empty];
        for a in all {
            let profile = GraphProfile::new(a, None);
            for b in all {
                let got = confirm_isomorphic(a, &profile, b);
                assert_eq!(got.is_some(), are_isomorphic(a, b), "a={a:?} b={b:?}");
                assert_eq!(got == Some(0), a == b, "steps are 0 exactly for equal presentations");
            }
        }
    }

    #[test]
    fn reflexive_and_empty() {
        let a = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        assert!(are_isomorphic(&a, &a));
        let e = g(&[], &[]);
        assert!(are_isomorphic(&e, &e));
    }
}
