//! Property-based cross-checks of the isomorphism engines.
//!
//! A brute-force reference matcher (explicit enumeration of injective
//! mappings) anchors correctness; VF2 and Ullmann must agree with it on
//! arbitrary small labelled graphs, and with each other.

use gc_graph::{graph_from_parts, Graph, Label};
use proptest::prelude::*;

/// Brute-force non-induced labelled sub-iso by recursion over pattern
/// vertices in id order. Exponential; only for tiny graphs.
fn brute_force_exists(p: &Graph, t: &Graph) -> bool {
    fn rec(p: &Graph, t: &Graph, depth: u32, mapping: &mut Vec<u32>, used: &mut Vec<bool>) -> bool {
        if depth as usize == p.vertex_count() {
            return true;
        }
        for v in t.vertices() {
            if used[v as usize] || p.label(depth) != t.label(v) {
                continue;
            }
            let ok = p.neighbors(depth).iter().all(|&w| {
                if w < depth {
                    t.has_edge(v, mapping[w as usize])
                } else {
                    true
                }
            });
            if !ok {
                continue;
            }
            mapping.push(v);
            used[v as usize] = true;
            if rec(p, t, depth + 1, mapping, used) {
                mapping.pop();
                used[v as usize] = false;
                return true;
            }
            mapping.pop();
            used[v as usize] = false;
        }
        false
    }
    rec(p, t, 0, &mut Vec::new(), &mut vec![false; t.vertex_count()])
}

/// Strategy: a random labelled graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_label: u32) -> impl Strategy<Value = Graph> {
    (0..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..=max_label, n);
        let edges = if n >= 2 {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(n * (n - 1) / 2)).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        (labels, edges).prop_map(move |(ls, es)| {
            let labels: Vec<Label> = ls.into_iter().map(Label).collect();
            let mut b = gc_graph::GraphBuilder::new();
            for l in &labels {
                b.add_vertex(*l);
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
    fn vf2_matches_brute_force(
        p in arb_graph(4, 2),
        t in arb_graph(6, 2),
    ) {
        prop_assert_eq!(gc_iso::vf2::exists(&p, &t), brute_force_exists(&p, &t));
    }

    #[test]
    fn ullmann_matches_brute_force(
        p in arb_graph(4, 2),
        t in arb_graph(6, 2),
    ) {
        prop_assert_eq!(gc_iso::ullmann::exists(&p, &t), brute_force_exists(&p, &t));
    }

    #[test]
    fn vf2_and_ullmann_agree(
        p in arb_graph(5, 3),
        t in arb_graph(7, 3),
    ) {
        prop_assert_eq!(gc_iso::vf2::exists(&p, &t), gc_iso::ullmann::exists(&p, &t));
    }

    #[test]
    fn every_graph_contains_itself(g in arb_graph(6, 3)) {
        prop_assert!(gc_iso::vf2::exists(&g, &g));
        prop_assert!(gc_iso::ullmann::exists(&g, &g));
    }

    #[test]
    fn extracted_subgraph_embeds(
        t in arb_graph(7, 3),
        keep_bits in proptest::collection::vec(any::<bool>(), 7),
        drop_edge_bits in proptest::collection::vec(any::<bool>(), 32),
    ) {
        // Take a vertex subset of t, keep a subset of the induced edges.
        let kept: Vec<u32> = t.vertices().filter(|&v| keep_bits[v as usize]).collect();
        let mut remap = vec![u32::MAX; t.vertex_count()];
        for (i, &v) in kept.iter().enumerate() {
            remap[v as usize] = i as u32;
        }
        let labels: Vec<Label> = kept.iter().map(|&v| t.label(v)).collect();
        let mut edges = Vec::new();
        for (i, (u, v)) in t.edges().enumerate() {
            if remap[u as usize] != u32::MAX
                && remap[v as usize] != u32::MAX
                && drop_edge_bits.get(i).copied().unwrap_or(false)
            {
                edges.push((remap[u as usize], remap[v as usize]));
            }
        }
        let p = graph_from_parts(&labels, &edges).unwrap();
        prop_assert!(gc_iso::vf2::exists(&p, &t));
        prop_assert!(gc_iso::ullmann::exists(&p, &t));
    }

    #[test]
    fn containment_invariants_are_sound(
        p in arb_graph(4, 2),
        t in arb_graph(6, 2),
    ) {
        // may_embed must never reject a true containment.
        if gc_iso::vf2::exists(&p, &t) {
            prop_assert!(gc_graph::invariants::may_embed(&p, &t));
        }
    }

    #[test]
    fn isomorphic_permutations_detected(
        t in arb_graph(6, 3),
        seed in any::<u64>(),
    ) {
        // Build a random permutation of t and check isomorphism + fingerprint.
        let n = t.vertex_count();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        // Fisher-Yates with a simple LCG (deterministic per seed).
        let mut s = seed | 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut labels = vec![Label(0); n];
        for v in 0..n {
            labels[perm[v] as usize] = t.label(v as u32);
        }
        let edges: Vec<(u32, u32)> = t
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize]))
            .collect();
        let t2 = graph_from_parts(&labels, &edges).unwrap();
        prop_assert!(gc_iso::iso::are_isomorphic(&t, &t2));
        prop_assert_eq!(gc_graph::hash::fingerprint(&t), gc_graph::hash::fingerprint(&t2));
    }

    #[test]
    fn embedding_count_positive_iff_exists(
        p in arb_graph(4, 2),
        t in arb_graph(5, 2),
    ) {
        let (count, _) = gc_iso::vf2::count_embeddings(&p, &t, None);
        prop_assert_eq!(count > 0, gc_iso::vf2::exists(&p, &t));
    }

    #[test]
    fn adding_pattern_edge_cannot_create_containment(
        t in arb_graph(6, 2),
        p in arb_graph(4, 2),
        extra in (0u32..4, 0u32..4),
    ) {
        // If p (with an extra edge) embeds, then p embeds: monotonicity.
        let (a, b) = extra;
        if a != b && (a as usize) < p.vertex_count() && (b as usize) < p.vertex_count() && !p.has_edge(a, b) {
            let labels: Vec<Label> = p.labels().to_vec();
            let mut edges: Vec<(u32, u32)> = p.edges().collect();
            edges.push((a.min(b), a.max(b)));
            let p_plus = graph_from_parts(&labels, &edges).unwrap();
            if gc_iso::vf2::exists(&p_plus, &t) {
                prop_assert!(gc_iso::vf2::exists(&p, &t));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn profiled_path_matches_from_scratch_both_engines_both_sides(
        a in arb_graph(4, 2),
        b in arb_graph(6, 2),
    ) {
        // One scratch shared by every test in this case — differently-sized
        // candidates, both directions, both engines — mirroring how the
        // cache's verify loop reuses it.
        let mut scratch = gc_iso::VfScratch::new();
        for (p, t) in [(&a, &b), (&b, &a)] {
            let pp = gc_iso::GraphProfile::new(p, Some(&t.label_histogram()));
            let tp = gc_iso::GraphProfile::target_only(t);
            let ctx = gc_iso::VerifyCtx::from_profiles(p, &pp, t, &tp);
            let (vf2_found, _) = gc_iso::vf2::embeds_with(&ctx, None, &mut scratch);
            prop_assert_eq!(vf2_found.is_yes(), gc_iso::vf2::exists(p, t));
            let (ull_found, _) = gc_iso::ullmann::embeds_with(&ctx, None, &mut scratch);
            prop_assert_eq!(ull_found.is_yes(), gc_iso::ullmann::exists(p, t));
            // A profile whose search order ignores target statistics must
            // not change the decision either (only the step count may move).
            let pp_blind = gc_iso::GraphProfile::new(p, None);
            let ctx_blind = gc_iso::VerifyCtx::from_profiles(p, &pp_blind, t, &tp);
            let (blind_found, _) = gc_iso::vf2::embeds_with(&ctx_blind, None, &mut scratch);
            prop_assert_eq!(blind_found.is_yes(), vf2_found.is_yes());
        }
    }

    #[test]
    fn signature_pruning_never_changes_answers(
        p in arb_graph(5, 3),
        t in arb_graph(7, 3),
    ) {
        let on = gc_iso::vf2::enumerate_with_options(
            &p, &t, None, gc_iso::vf2::Options { neighbor_signatures: true },
            &mut |_| gc_iso::vf2::Control::Stop,
        ).0;
        let off = gc_iso::vf2::enumerate_with_options(
            &p, &t, None, gc_iso::vf2::Options { neighbor_signatures: false },
            &mut |_| gc_iso::vf2::Control::Stop,
        ).0;
        prop_assert_eq!(on, off);
    }

    #[test]
    fn signature_pruning_never_increases_steps(
        p in arb_graph(5, 3),
        t in arb_graph(8, 3),
    ) {
        let (_, on) = gc_iso::vf2::enumerate_with_options(
            &p, &t, None, gc_iso::vf2::Options { neighbor_signatures: true },
            &mut |_| gc_iso::vf2::Control::Stop,
        );
        let (_, off) = gc_iso::vf2::enumerate_with_options(
            &p, &t, None, gc_iso::vf2::Options { neighbor_signatures: false },
            &mut |_| gc_iso::vf2::Control::Stop,
        );
        prop_assert!(on.steps <= off.steps, "{} > {}", on.steps, off.steps);
    }
}

/// The search order as first written: every step rebuilds each candidate's
/// five-part key tuple inside the scan. Kept as the oracle for
/// [`gc_iso::search_order`], whose output must not move by a single vertex
/// (VF2's step counts, and so the cost model, depend on it).
fn reference_search_order(pattern: &Graph, label_freq: Option<&[u32]>) -> Vec<u32> {
    let n = pattern.vertex_count();
    let mut order = Vec::with_capacity(n);
    if n == 0 {
        return order;
    }
    let freq_of = |v: u32| -> u64 {
        let l = pattern.label(v).0 as usize;
        match label_freq {
            Some(f) => f.get(l).copied().unwrap_or(0) as u64,
            None => 0,
        }
    };
    let own_hist = pattern.label_histogram();
    let own_freq = |v: u32| own_hist[pattern.label(v).0 as usize] as u64;
    let mut placed = vec![false; n];
    let mut connections = vec![0u32; n];
    for _ in 0..n {
        let mut best: Option<u32> = None;
        for v in pattern.vertices() {
            if placed[v as usize] {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let key = |u: u32| {
                        (
                            connections[u as usize],
                            std::cmp::Reverse(freq_of(u)),
                            std::cmp::Reverse(own_freq(u)),
                            pattern.degree(u) as u32,
                            std::cmp::Reverse(u),
                        )
                    };
                    key(v) > key(b)
                }
            };
            if better {
                best = Some(v);
            }
        }
        let v = best.expect("at least one unplaced vertex remains");
        placed[v as usize] = true;
        order.push(v);
        for &w in pattern.neighbors(v) {
            if !placed[w as usize] {
                connections[w as usize] += 1;
            }
        }
    }
    order
}

/// Strategy: a molecule-shaped graph — a random spanning tree plus a few
/// ring closures over a skewed alphabet (mostly label 0, as carbon is).
fn arb_molecule(max_n: usize) -> impl Strategy<Value = Graph> {
    fn atom(x: u32) -> u32 {
        match x {
            0..=64 => 0,
            65..=79 => 1,
            80..=89 => 2,
            90..=95 => 3,
            _ => 4 + x % 3,
        }
    }
    (1..=max_n).prop_flat_map(move |n| {
        (
            proptest::collection::vec((0u32..100).prop_map(atom), n),
            proptest::collection::vec(any::<u32>(), n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=3),
        )
            .prop_map(move |(labels, parents, rings)| {
                let mut b = gc_graph::GraphBuilder::new();
                for &l in &labels {
                    b.add_vertex(Label(l));
                }
                for (i, p) in parents.iter().enumerate().skip(1) {
                    let _ = b.add_edge_dedup(p % i as u32, i as u32);
                }
                for (u, v) in rings {
                    if u != v {
                        let _ = b.add_edge_dedup(u, v);
                    }
                }
                b.build()
            })
    })
}

/// Strategy: target label frequencies as the dataset hands them over,
/// sometimes shorter than the pattern's alphabet and with extreme counts.
fn arb_label_freq() -> impl Strategy<Value = Option<Vec<u32>>> {
    let count = (0u32..4, any::<u32>()).prop_map(|(pick, x)| match pick {
        0 => 0,
        1 => u32::MAX,
        2 => x % 8,
        _ => x,
    });
    (any::<bool>(), proptest::collection::vec(count, 0..8))
        .prop_map(|(given, freq)| given.then_some(freq))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn search_order_equals_reference_on_molecules(
        g in arb_molecule(48),
        freq in arb_label_freq(),
    ) {
        prop_assert_eq!(
            gc_iso::search_order(&g, freq.as_deref()),
            reference_search_order(&g, freq.as_deref())
        );
    }

    #[test]
    fn search_order_equals_reference_on_random_graphs(
        g in arb_graph(12, 4),
        freq in arb_label_freq(),
    ) {
        prop_assert_eq!(
            gc_iso::search_order(&g, freq.as_deref()),
            reference_search_order(&g, freq.as_deref())
        );
    }
}
