//! Property tests for the graph substrate: bitset algebra laws, builder/IO
//! roundtrips, WL-fingerprint invariance and what the presentation hash
//! tells apart.

use gc_graph::{BitSet, Graph, GraphBuilder, Label};
use proptest::prelude::*;

fn arb_bitset(universe: usize) -> impl Strategy<Value = BitSet> {
    proptest::collection::vec(any::<bool>(), universe).prop_map(move |bits| {
        BitSet::from_indices(universe, bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i))
    })
}

fn arb_graph(max_n: usize, max_label: u32) -> impl Strategy<Value = Graph> {
    (0..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..=max_label, n);
        let edges = if n >= 2 {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(2 * n)).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        (labels, edges).prop_map(|(ls, es)| {
            let mut b = GraphBuilder::new();
            for l in ls {
                b.add_vertex(Label(l));
            }
            for (u, v) in es {
                if u != v {
                    let _ = b.add_edge_dedup(u, v);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitset_union_intersection_laws(
        a in arb_bitset(100),
        b in arb_bitset(100),
    ) {
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        let mut u = a.clone();
        u.union_with(&b);
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(u.count() + i.count(), a.count() + b.count());
        // A \ B is disjoint from B and A = (A \ B) ∪ (A ∩ B)
        let mut d = a.clone();
        d.difference_with(&b);
        prop_assert!(d.is_disjoint(&b));
        let mut rebuilt = d.clone();
        rebuilt.union_with(&i);
        prop_assert_eq!(&rebuilt, &a);
        // subset relations
        prop_assert!(i.is_subset(&a));
        prop_assert!(a.is_subset(&u));
        prop_assert_eq!(a.intersection_count(&b), i.count());
    }

    #[test]
    fn bitset_iter_roundtrip(a in arb_bitset(200)) {
        let items = a.to_vec();
        let rebuilt = BitSet::from_indices(200, items.iter().copied());
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn write_ids_is_the_members_joined_with_commas(
        a in arb_bitset(200),
        universe in 0usize..2_000_000,
        ids in proptest::collection::vec(0usize..2_000_000, 0..40),
    ) {
        for set in [a, BitSet::from_indices(universe, ids.into_iter().filter(|&i| i < universe))] {
            let joined: Vec<String> = set.iter().map(|i| i.to_string()).collect();
            let mut out = b"prefix:".to_vec();
            set.write_ids(&mut out);
            prop_assert_eq!(String::from_utf8(out).unwrap(), format!("prefix:{}", joined.join(",")));
        }
    }

    #[test]
    fn io_roundtrip(graphs in proptest::collection::vec(arb_graph(8, 4), 0..6)) {
        let text = gc_graph::io::dataset_to_string(&graphs);
        let back = gc_graph::io::parse_dataset(&text).unwrap();
        prop_assert_eq!(graphs, back);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted(g in arb_graph(10, 3)) {
        for v in g.vertices() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for &w in ns {
                prop_assert!(g.neighbors(w).contains(&v), "symmetry");
                prop_assert!(g.has_edge(v, w) && g.has_edge(w, v));
            }
        }
        // handshake lemma
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn summary_matches_graph(g in arb_graph(10, 3)) {
        let s = gc_graph::invariants::GraphSummary::of(&g);
        prop_assert_eq!(s.n, g.vertex_count());
        prop_assert_eq!(s.m, g.edge_count());
        prop_assert_eq!(&s.label_hist, &g.label_histogram());
        prop_assert!(s.degrees_desc.windows(2).all(|w| w[0] >= w[1]));
        // may_embed_into is reflexive.
        prop_assert!(s.may_embed_into(&s));
    }

    /// The fingerprint is a stored value (entries, dataset fingerprints,
    /// journals): it must equal the allocating definition it was written
    /// with, whatever the thread-local scratch held before and on whichever
    /// thread it runs.
    #[test]
    fn fingerprint_equals_its_definition(
        g in arb_graph(12, 3),
        before in arb_graph(12, 3),
    ) {
        use gc_graph::hash::{fingerprint, hash_seq, mix, wl_colors};
        let mut colors = wl_colors(&g);
        colors.sort_unstable();
        let header = mix(g.vertex_count() as u64, g.edge_count() as u64);
        let want = mix(header, hash_seq(colors));
        fingerprint(&before); // leaves another graph's colours in the scratch
        prop_assert_eq!(fingerprint(&g), want);
        prop_assert_eq!(fingerprint(&g.clone()), want);
        let on_fresh_thread = std::thread::scope(|s| s.spawn(|| fingerprint(&g)).join());
        prop_assert_eq!(on_fresh_thread.expect("fingerprint does not panic"), want);
    }

    #[test]
    fn dispatched_kernels_match_scalar_reference(
        // Sizes straddle every u64 block edge: empty, 1, 63/64/65,
        // 127/128/129, plus a multi-block tail.
        size_idx in 0usize..9,
        abits in proptest::collection::vec(any::<bool>(), 200),
        bbits in proptest::collection::vec(any::<bool>(), 200),
    ) {
        use gc_graph::simd::{self, scalar};
        let universe = [0usize, 1, 63, 64, 65, 127, 128, 129, 200][size_idx];
        let nblocks = universe.div_ceil(64);
        let pack = |bits: &[bool]| {
            let mut w = vec![0u64; nblocks];
            for i in 0..universe {
                if bits[i] {
                    w[i / 64] |= 1 << (i % 64);
                }
            }
            w
        };
        let (a, b) = (pack(&abits), pack(&bbits));
        for (dispatched, reference) in [
            (simd::and_words as fn(&mut [u64], &[u64]), scalar::and_words as fn(&mut [u64], &[u64])),
            (simd::or_words, scalar::or_words),
            (simd::andnot_words, scalar::andnot_words),
        ] {
            let (mut x, mut y) = (a.clone(), a.clone());
            dispatched(&mut x, &b);
            reference(&mut y, &b);
            prop_assert_eq!(x, y, "universe {}", universe);
        }
        prop_assert_eq!(simd::popcount_words(&a), scalar::popcount_words(&a));
        prop_assert_eq!(simd::and_popcount_words(&a, &b), scalar::and_popcount_words(&a, &b));
        prop_assert_eq!(simd::andnot_popcount_words(&a, &b), scalar::andnot_popcount_words(&a, &b));
        // The full set exercises the all-ones tail words too.
        let full = vec![!0u64; nblocks];
        prop_assert_eq!(simd::popcount_words(&full), scalar::popcount_words(&full));
        prop_assert_eq!(simd::and_popcount_words(&full, &b), scalar::and_popcount_words(&full, &b));
    }

    #[test]
    fn dispatched_posting_kernels_match_scalar_reference(
        cur_raw in proptest::collection::vec(0u32..400, 0..80),
        list_raw in proptest::collection::vec((0u32..400, 1u32..5), 0..80),
        need in 1u32..5,
    ) {
        use gc_graph::simd::{self, scalar};
        let mut cur: Vec<u32> = cur_raw;
        cur.sort_unstable();
        cur.dedup();
        let mut list: Vec<(u32, u32)> = list_raw;
        list.sort_unstable_by_key(|&(id, _)| id);
        list.dedup_by_key(|&mut (id, _)| id);
        // Pair-merge kernel (AVX2 blocks + scalar tail) ≡ linear reference.
        let (mut got, mut want) = (Vec::new(), Vec::new());
        simd::intersect_pairs(&cur, &list, need, &mut got);
        scalar::intersect_pairs(&cur, &list, need, &mut want);
        prop_assert_eq!(&got, &want);
        // Chunked posting intersection ≡ BitSet filtered-iterator form.
        let universe = 400usize;
        let mut via_kernel = BitSet::from_indices(universe, cur.iter().map(|&i| i as usize));
        let mut via_sorted = via_kernel.clone();
        via_kernel.intersect_with_postings(&list, need);
        via_sorted.intersect_with_sorted(
            list.iter().filter(|&&(_, c)| c >= need).map(|&(id, _)| id as usize),
        );
        prop_assert_eq!(&via_kernel, &via_sorted);
        prop_assert_eq!(via_kernel.to_vec(), want.iter().map(|&i| i as usize).collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `==` graphs share a presentation hash; changing one label, adding
    /// one edge or renumbering the vertices changes it on ≥ 99 % of a
    /// batch (a renumbering that yields an `==` graph — an automorphism —
    /// is not a change and is not counted).
    #[test]
    fn presentation_hash_follows_the_presentation(
        batch in proptest::collection::vec(
            (arb_graph(12, 3), proptest::collection::vec(any::<u64>(), 12), any::<u64>()),
            400,
        ),
    ) {
        use gc_graph::graph_from_parts;
        use gc_graph::hash::presentation_hash;
        let (mut cases, mut changed) = ([0u32; 3], [0u32; 3]);
        for (g, keys, pick) in &batch {
            let h = presentation_hash(g);
            let labels = g.labels().to_vec();
            let edges = g.edge_slice().to_vec();
            let rebuilt = graph_from_parts(&labels, &edges).unwrap();
            prop_assert_eq!(&rebuilt, g);
            prop_assert_eq!(presentation_hash(&rebuilt), h);
            prop_assert_eq!(presentation_hash(&g.clone()), h);
            let n = g.vertex_count();
            if n == 0 {
                continue;
            }
            let mut variants: [Option<Graph>; 3] = [None, None, None];
            // One label changed.
            let mut relabelled = labels.clone();
            let v = (*pick as usize) % n;
            relabelled[v] = Label((relabelled[v].0 + 1 + (*pick >> 32) as u32 % 3) % 4);
            variants[0] = Some(graph_from_parts(&relabelled, &edges).unwrap());
            // One edge added: the first non-edge from a picked vertex pair.
            let non_edge = (0..n * n)
                .map(|i| ((i + *pick as usize) % (n * n)) as u32)
                .map(|i| (i / n as u32, i % n as u32))
                .find(|&(a, b)| a < b && !g.has_edge(a, b));
            if let Some(edge) = non_edge {
                let mut more = edges.clone();
                more.push(edge);
                variants[1] = Some(graph_from_parts(&labels, &more).unwrap());
            }
            // The vertices renumbered: vertex i becomes its rank in `keys`.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (keys[i], i));
            let mut perm = vec![0u32; n];
            for (rank, &i) in order.iter().enumerate() {
                perm[i] = rank as u32;
            }
            let mut permuted = vec![Label(0); n];
            for (i, &l) in labels.iter().enumerate() {
                permuted[perm[i] as usize] = l;
            }
            let moved: Vec<(u32, u32)> =
                edges.iter().map(|&(a, b)| (perm[a as usize], perm[b as usize])).collect();
            variants[2] = Some(graph_from_parts(&permuted, &moved).unwrap());
            for (k, variant) in variants.iter().enumerate() {
                if let Some(other) = variant.as_ref().filter(|other| *other != g) {
                    cases[k] += 1;
                    changed[k] += u32::from(presentation_hash(other) != h);
                }
            }
        }
        for k in 0..3 {
            prop_assert!(cases[k] >= 100, "variant {} sampled only {} times", k, cases[k]);
            prop_assert!(
                f64::from(changed[k]) >= 0.99 * f64::from(cases[k]),
                "variant {}: {} of {} changed the hash", k, changed[k], cases[k]
            );
        }
    }
}
