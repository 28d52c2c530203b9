//! Weisfeiler–Lehman fingerprints and hashing utilities.
//!
//! The cache needs a fast way to detect *exact-match* hits: two isomorphic
//! query graphs must map to the same bucket. We use the 1-dimensional
//! Weisfeiler–Lehman colour refinement: vertex colours start from labels and
//! are iteratively refined with the multiset of neighbour colours. The sorted
//! multiset of final colours (plus `n` and `m`) hashes into a 64-bit
//! fingerprint.
//!
//! WL fingerprints are *isomorphism-invariant* (isomorphic graphs always get
//! equal fingerprints) but not complete: rare non-isomorphic graphs can
//! collide, so exact-match lookups confirm with a proper isomorphism test
//! (see `gc-iso`). This mirrors the canonical-labelling + verification split
//! the papers describe.
//!
//! The cache computes at most one [`fingerprint`] per query — it keys shard
//! routing, the exact-match lookup and admission alike — so the function runs
//! on thread-local buffers and allocates nothing once warm. A query whose
//! exact presentation the cache has seen before is routed by
//! [`presentation_hash`] instead, a far cheaper hash of the graph *as
//! numbered*, which the cache maps to the fingerprint it computed last time.

use crate::{Graph, VertexId};

/// Number of WL refinement rounds. Three rounds distinguish all graphs that
/// show up in practice at query sizes (≤ a few dozen vertices); collisions
/// are caught downstream by the isomorphism check.
pub const WL_ROUNDS: usize = 3;

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Mix two 64-bit values, order-sensitively.
///
/// Deliberately non-commutative and non-cancelling: `a` enters through a
/// multiplication, `b` through `splitmix64`, so `mix(x, y) != mix(y, x)` in
/// general and `mix(x, x)` does not collapse to a constant (a plain
/// `S(a ^ S(b))` construction does both, which made WL refinement degenerate).
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a.wrapping_mul(0xA24BAED4963EE407).wrapping_add(splitmix64(b)))
}

/// Hash an ordered sequence of u64 values.
pub fn hash_seq(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0x243F6A8885A308D3u64; // pi digits; arbitrary fixed seed
    for v in values {
        acc = mix(acc, v);
    }
    acc
}

/// Refine into `colors` (indexed by vertex) for `rounds` WL rounds:
/// `colors[v] <- H(colors[v], sorted neighbour colors)`. `next` and `nbrs`
/// are working buffers; all three are cleared first, so warm ones make the
/// refinement allocation-free.
fn wl_refine(
    g: &Graph,
    rounds: usize,
    colors: &mut Vec<u64>,
    next: &mut Vec<u64>,
    nbrs: &mut Vec<u64>,
) {
    colors.clear();
    colors.extend(g.vertices().map(|v| splitmix64(g.label(v).0 as u64 ^ 0xC0FFEE)));
    for _ in 0..rounds {
        next.clear();
        for v in g.vertices() {
            nbrs.clear();
            nbrs.extend(g.neighbors(v).iter().map(|&w| colors[w as usize]));
            nbrs.sort_unstable();
            let acc = nbrs.iter().fold(splitmix64(colors[v as usize]), |acc, &c| mix(acc, c));
            next.push(acc);
        }
        std::mem::swap(colors, next);
    }
}

/// Final WL colours after [`WL_ROUNDS`] rounds, indexed by vertex.
pub fn wl_colors(g: &Graph) -> Vec<u64> {
    wl_colors_rounds(g, WL_ROUNDS)
}

/// WL colours after a custom number of rounds.
pub fn wl_colors_rounds(g: &Graph, rounds: usize) -> Vec<u64> {
    let mut colors = Vec::with_capacity(g.vertex_count());
    wl_refine(g, rounds, &mut colors, &mut Vec::with_capacity(g.vertex_count()), &mut Vec::new());
    colors
}

thread_local! {
    /// [`fingerprint`]'s three working buffers (see [`wl_refine`]): the
    /// cache fingerprints every query once, on whatever thread serves it,
    /// and must not pay three allocations each.
    static WL_SCRATCH: std::cell::RefCell<[Vec<u64>; 3]> = const {
        std::cell::RefCell::new([Vec::new(), Vec::new(), Vec::new()])
    };
}

/// Isomorphism-invariant 64-bit fingerprint of a graph:
/// `mix(mix(n, m), hash_seq(sorted wl_colors))`.
///
/// Equal for isomorphic graphs; collisions between non-isomorphic graphs are
/// possible (use an isomorphism test to confirm). The value is a stored
/// format — cache entries, dataset fingerprints and journals carry it — so
/// it must never change. Allocation-free on a warm thread.
pub fn fingerprint(g: &Graph) -> u64 {
    WL_SCRATCH.with(|scratch| {
        let [colors, next, nbrs] = &mut *scratch.borrow_mut();
        wl_refine(g, WL_ROUNDS, colors, next, nbrs);
        colors.sort_unstable();
        let header = mix(g.vertex_count() as u64, g.edge_count() as u64);
        mix(header, hash_seq(colors.iter().copied()))
    })
}

/// A 64-bit hash of one *presentation* of a graph, vertex numbering
/// included: one multiply–xor pass over `n`, `m`, the labels and the CSR
/// neighbour array, then one SplitMix64 finish.
///
/// Graphs that are `==` hash equal. Unlike [`fingerprint`] it is **not**
/// isomorphism-invariant: renumbering the vertices almost always changes
/// it. Each step `h ← (h ^ w) · K` is a bijection of `h` for a fixed word
/// and injective in the word for a fixed `h`, so changing any single label
/// or neighbour id always changes the hash. Allocation-free, and a few
/// nanoseconds per vertex and edge.
pub fn presentation_hash(g: &Graph) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K);
    let header = step(step(0x243F_6A88_85A3_08D3, g.vertex_count() as u64), g.edge_count() as u64);
    let labelled = g.labels().iter().fold(header, |h, l| step(h, u64::from(l.0)));
    splitmix64(g.neighbor_array().iter().fold(labelled, |h, &w| step(h, u64::from(w))))
}

/// A vertex ordering by (WL colour, degree, id) — deterministic across
/// isomorphic presentations *up to colour ties*; used to seed search orders.
pub fn wl_vertex_order(g: &Graph) -> Vec<VertexId> {
    let colors = wl_colors(g);
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| (colors[v as usize], std::cmp::Reverse(g.degree(v)), v));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_parts;
    use crate::Label;

    fn relabel(labels: &[u32], edges: &[(u32, u32)], perm: &[u32]) -> Graph {
        // Apply vertex permutation: vertex i becomes perm[i].
        let n = labels.len();
        let mut new_labels = vec![Label(0); n];
        for (i, &l) in labels.iter().enumerate() {
            new_labels[perm[i] as usize] = Label(l);
        }
        let new_edges: Vec<(u32, u32)> =
            edges.iter().map(|&(u, v)| (perm[u as usize], perm[v as usize])).collect();
        graph_from_parts(&new_labels, &new_edges).unwrap()
    }

    #[test]
    fn isomorphic_graphs_same_fingerprint() {
        let labels = [0u32, 1, 0, 2, 1];
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)];
        let g1 = relabel(&labels, &edges, &[0, 1, 2, 3, 4]);
        let g2 = relabel(&labels, &edges, &[4, 2, 0, 1, 3]);
        let g3 = relabel(&labels, &edges, &[1, 3, 4, 0, 2]);
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        assert_eq!(fingerprint(&g1), fingerprint(&g3));
    }

    #[test]
    fn different_labels_different_fingerprint() {
        let edges = [(0u32, 1u32)];
        let g1 = graph_from_parts(&[Label(0), Label(1)], &edges).unwrap();
        let g2 = graph_from_parts(&[Label(0), Label(2)], &edges).unwrap();
        assert_ne!(fingerprint(&g1), fingerprint(&g2));
    }

    #[test]
    fn different_structure_different_fingerprint() {
        // Path P4 vs star S3, same labels and same degree *sum*.
        let p4 = graph_from_parts(&[Label(0); 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let s3 = graph_from_parts(&[Label(0); 4], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_ne!(fingerprint(&p4), fingerprint(&s3));
    }

    #[test]
    fn empty_and_singleton() {
        let e = graph_from_parts(&[], &[]).unwrap();
        let s = graph_from_parts(&[Label(7)], &[]).unwrap();
        assert_ne!(fingerprint(&e), fingerprint(&s));
    }

    #[test]
    fn wl_order_is_permutation() {
        let g =
            graph_from_parts(&[Label(0), Label(1), Label(0), Label(1)], &[(0, 1), (1, 2), (2, 3)])
                .unwrap();
        let mut order = wl_vertex_order(&g);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
