//! Connectivity-driven search order for backtracking matchers.

use gc_graph::{Graph, VertexId};

/// Compute a pattern-vertex visit order for backtracking search.
///
/// Properties:
/// * the first vertex of each connected component maximises
///   (label rarity, degree) — rare, highly-connected vertices fail fast;
/// * every later vertex within a component is adjacent to an already-ordered
///   vertex, so candidate sets can be generated from matched neighbours
///   instead of scanning the whole target;
/// * `label_freq`, when given, holds the label frequencies *of the target*
///   (index = label), steering the start vertex towards globally rare labels.
pub fn search_order(pattern: &Graph, label_freq: Option<&[u32]>) -> Vec<VertexId> {
    let n = pattern.vertex_count();
    let own_hist = pattern.label_histogram();
    // The tie-breaks below connectivity never change, so rank them once:
    // rarer target label, then rarer pattern label, then higher degree,
    // then lower id. Packed high to low into one `u128`; the full id makes
    // every key distinct.
    let static_key = |v: VertexId| -> u128 {
        let l = pattern.label(v).0 as usize;
        // Without target stats every vertex ties here and the pattern's
        // own label histogram decides.
        let freq = label_freq.map_or(0, |f| f.get(l).copied().unwrap_or(0));
        (u128::from(!freq) << 96)
            | (u128::from(!own_hist[l]) << 64)
            | (u128::from(pattern.degree(v) as u32) << 32)
            | u128::from(!v)
    };
    let mut ranked: Vec<u128> = pattern.vertices().map(static_key).collect();
    ranked.sort_unstable();
    // key[v] = (already-ordered neighbours of v) << 32 | (1 + rank of v):
    // one integer per vertex, compared whole. 0 marks a placed vertex, so
    // while any vertex is unplaced the maximum is an unplaced one.
    let mut key = vec![0u64; n];
    for (rank, &k) in ranked.iter().enumerate() {
        key[!(k as u32) as usize] = rank as u64 + 1;
    }

    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // The best next vertex: most connected to the placed ones, then the
        // best rank.
        let best = (0..n).max_by_key(|&v| key[v]).expect("an unplaced vertex remains");
        debug_assert_ne!(key[best], 0, "a placed vertex was chosen again");
        key[best] = 0;
        order.push(best as VertexId);
        for &w in pattern.neighbors(best as VertexId) {
            if key[w as usize] != 0 {
                key[w as usize] += 1 << 32;
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    #[test]
    fn order_is_permutation() {
        let g =
            graph_from_parts(&[Label(0), Label(1), Label(0), Label(2)], &[(0, 1), (1, 2), (2, 3)])
                .unwrap();
        let mut o = search_order(&g, None);
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2, 3]);
    }

    #[test]
    fn connected_prefix_property() {
        // In a connected pattern, every vertex after the first must touch an
        // earlier one.
        let g = graph_from_parts(&[Label(0); 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
            .unwrap();
        let o = search_order(&g, None);
        for (i, &v) in o.iter().enumerate().skip(1) {
            let touches = g.neighbors(v).iter().any(|w| o[..i].contains(w));
            assert!(touches, "vertex {v} at position {i} not connected to prefix");
        }
    }

    #[test]
    fn rare_target_label_goes_first() {
        // Vertex 2 has label 9 which is rare in the target stats.
        let g = graph_from_parts(&[Label(0), Label(0), Label(9)], &[(0, 1), (1, 2)]).unwrap();
        let mut freq = vec![1000u32; 10];
        freq[9] = 1;
        let o = search_order(&g, Some(&freq));
        assert_eq!(o[0], 2);
    }

    #[test]
    fn empty_and_singleton() {
        let e = graph_from_parts(&[], &[]).unwrap();
        assert!(search_order(&e, None).is_empty());
        let s = graph_from_parts(&[Label(3)], &[]).unwrap();
        assert_eq!(search_order(&s, None), vec![0]);
    }

    #[test]
    fn disconnected_pattern_covers_all_components() {
        let g = graph_from_parts(&[Label(0), Label(0), Label(1)], &[(0, 1)]).unwrap();
        let mut o = search_order(&g, None);
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2]);
    }
}
