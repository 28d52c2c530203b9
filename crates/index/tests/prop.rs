//! Property tests: both index families are sound overapproximations.

use gc_graph::{Graph, Label};
use gc_index::{FeatureConfig, PathTrie, QueryIndex};
use proptest::prelude::*;

mod reference;

fn arb_graph(max_n: usize, max_label: u32) -> impl Strategy<Value = Graph> {
    (0..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..=max_label, n);
        let edges = if n >= 2 {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(2 * n)).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        (labels, edges).prop_map(|(ls, es)| {
            let mut b = gc_graph::GraphBuilder::new();
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn path_trie_filter_is_sound(
        dataset in proptest::collection::vec(arb_graph(6, 2), 1..8),
        query in arb_graph(4, 2),
        max_len in 0usize..4,
    ) {
        let trie = PathTrie::build(&dataset, FeatureConfig::with_max_len(max_len));
        let cands = trie.candidates(&query);
        for (gid, g) in dataset.iter().enumerate() {
            if gc_iso::vf2::exists(&query, g) {
                prop_assert!(cands.contains(gid), "FTV filter dropped true answer {gid}");
            }
        }
    }

    #[test]
    fn path_trie_super_filter_is_sound(
        dataset in proptest::collection::vec(arb_graph(5, 2), 1..8),
        query in arb_graph(7, 2),
        max_len in 0usize..4,
    ) {
        let trie = PathTrie::build(&dataset, FeatureConfig::with_max_len(max_len));
        let cands = trie.super_candidates(&query);
        for (gid, g) in dataset.iter().enumerate() {
            if gc_iso::vf2::exists(g, &query) {
                prop_assert!(cands.contains(gid), "super filter dropped true answer {gid}");
            }
        }
    }

    #[test]
    fn query_index_sub_case_is_sound(
        cached in proptest::collection::vec(arb_graph(5, 2), 1..8),
        query in arb_graph(4, 2),
        max_len in 0usize..3,
    ) {
        let mut qi = QueryIndex::new(FeatureConfig::with_max_len(max_len));
        for (i, c) in cached.iter().enumerate() {
            qi.insert(i as u32, c);
        }
        let qf = qi.features_of(&query);
        let cands = qi.sub_case_candidates(&qf);
        for (i, c) in cached.iter().enumerate() {
            if gc_iso::vf2::exists(&query, c) {
                prop_assert!(
                    cands.contains(&(i as u32)),
                    "sub-case candidates dropped true supergraph {i}"
                );
            }
        }
    }

    #[test]
    fn query_index_super_case_is_sound(
        cached in proptest::collection::vec(arb_graph(5, 2), 1..8),
        query in arb_graph(6, 2),
        max_len in 0usize..3,
    ) {
        let mut qi = QueryIndex::new(FeatureConfig::with_max_len(max_len));
        for (i, c) in cached.iter().enumerate() {
            qi.insert(i as u32, c);
        }
        let qf = qi.features_of(&query);
        let cands = qi.super_case_candidates(&qf);
        for (i, c) in cached.iter().enumerate() {
            if gc_iso::vf2::exists(c, &query) {
                prop_assert!(
                    cands.contains(&(i as u32)),
                    "super-case candidates dropped true subgraph {i}"
                );
            }
        }
    }

    #[test]
    fn query_index_insert_remove_roundtrip(
        cached in proptest::collection::vec(arb_graph(5, 2), 2..8),
        query in arb_graph(4, 2),
    ) {
        // Removing and re-inserting an entry leaves candidate sets unchanged.
        let cfg = FeatureConfig::with_max_len(2);
        let mut qi = QueryIndex::new(cfg);
        for (i, c) in cached.iter().enumerate() {
            qi.insert(i as u32, c);
        }
        let qf = qi.features_of(&query);
        let before_sub = qi.sub_case_candidates(&qf);
        let before_super = qi.super_case_candidates(&qf);

        qi.remove(0);
        qi.insert(0, &cached[0]);

        prop_assert_eq!(before_sub, qi.sub_case_candidates(&qf));
        prop_assert_eq!(before_super, qi.super_case_candidates(&qf));
    }

    #[test]
    fn feature_vec_domination_is_sound(
        p in arb_graph(4, 2),
        t in arb_graph(6, 2),
        max_len in 0usize..4,
    ) {
        let cfg = FeatureConfig::with_max_len(max_len);
        if gc_iso::vf2::exists(&p, &t) {
            let fp = gc_index::feature_vec(&p, &cfg);
            let ft = gc_index::feature_vec(&t, &cfg);
            prop_assert!(ft.dominates(&fp), "containment without feature domination");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tree_index_filter_is_sound(
        dataset in proptest::collection::vec(arb_graph(6, 2), 1..7),
        query in arb_graph(4, 2),
        max_edges in 0usize..4,
    ) {
        let idx = gc_index::TreeIndex::build(
            &dataset,
            gc_index::TreeConfig::with_max_edges(max_edges),
        );
        let cands = idx.candidates(&query);
        for (gid, g) in dataset.iter().enumerate() {
            if gc_iso::vf2::exists(&query, g) {
                prop_assert!(cands.contains(gid), "tree filter dropped true answer {gid}");
            }
        }
    }

    #[test]
    fn tree_index_super_filter_is_sound(
        dataset in proptest::collection::vec(arb_graph(5, 2), 1..7),
        query in arb_graph(7, 2),
        max_edges in 0usize..4,
    ) {
        let idx = gc_index::TreeIndex::build(
            &dataset,
            gc_index::TreeConfig::with_max_edges(max_edges),
        );
        let cands = idx.super_candidates(&query);
        for (gid, g) in dataset.iter().enumerate() {
            if gc_iso::vf2::exists(g, &query) {
                prop_assert!(cands.contains(gid), "tree super filter dropped {gid}");
            }
        }
    }

    #[test]
    fn tree_codes_isomorphism_invariant(
        t in arb_graph(6, 3),
        seed in any::<u64>(),
    ) {
        // Permute t; canonical tree-code multisets must match.
        let n = t.vertex_count();
        let mut perm: Vec<u32> = (0..n as u32).collect();
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
        let edges: Vec<(u32, u32)> = t.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])).collect();
        let t2 = gc_graph::graph_from_parts(&labels, &edges).unwrap();
        let cfg = gc_index::TreeConfig::with_max_edges(3);
        let (mut a, _) = gc_index::enumerate_tree_codes(&t, &cfg);
        let (mut b, _) = gc_index::enumerate_tree_codes(&t2, &cfg);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Equivalence: the allocation-free front-end vs the reference implementations
// (the pre-streaming extraction, HashMap-postings query index and
// pointer-chasing trie preserved in `reference/`).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streaming_extraction_matches_materialized(
        g in arb_graph(7, 3),
        max_len in 0usize..4,
        // Small caps exercise the truncation flag on dense graphs.
        cap_sel in 0usize..3,
    ) {
        let max_paths = [10usize, 100, 1_000_000][cap_sel];
        let cfg = FeatureConfig { max_len, max_paths };
        let reference = reference::feature_vec_materialized(&g, &cfg);
        let streamed = gc_index::feature_vec(&g, &cfg);
        prop_assert_eq!(streamed.truncated(), reference.truncated, "truncation flag diverged");
        prop_assert_eq!(streamed.items(), &reference.items[..], "feature multiset diverged");

        // The reusable-scratch path agrees with the one-shot path.
        let mut scratch = gc_index::ExtractScratch::new();
        let viewed = scratch.extract(&g, &cfg);
        prop_assert_eq!(viewed.truncated(), reference.truncated);
        prop_assert_eq!(viewed.items(), &reference.items[..]);
    }

    #[test]
    fn flat_query_index_matches_hashmap_reference(
        cached in proptest::collection::vec(arb_graph(5, 2), 1..10),
        queries in proptest::collection::vec(arb_graph(5, 2), 1..4),
        remove_mask in any::<u32>(),
        max_len in 0usize..3,
    ) {
        let cfg = FeatureConfig::with_max_len(max_len);
        let mut flat = QueryIndex::new(cfg);
        let mut reference = reference::RefQueryIndex::new(cfg);
        for (i, c) in cached.iter().enumerate() {
            flat.insert(i as u32, c);
            reference.insert(i as u32, c);
        }
        // Interleave removals so the dynamic maintenance paths are compared
        // too, not just bulk construction.
        for i in 0..cached.len() {
            if remove_mask & (1 << i) != 0 {
                flat.remove(i as u32);
                reference.remove(i as u32);
            }
        }
        let mut scratch = gc_index::CandScratch::new();
        for q in &queries {
            let qf = flat.features_of(q);
            prop_assert_eq!(
                reference::Features::of(&qf),
                reference.features_of(q),
                "feature extraction diverged"
            );
            prop_assert_eq!(
                flat.sub_case_candidates(&qf),
                reference.sub_case_candidates(&qf),
                "sub-case candidates diverged"
            );
            prop_assert_eq!(
                flat.super_case_candidates(&qf),
                reference.super_case_candidates(&qf),
                "super-case candidates diverged"
            );
            // The scratch-reusing probe path agrees with the wrappers.
            flat.sub_case_candidates_into(qf.as_features(), &mut scratch);
            prop_assert_eq!(scratch.candidates(), reference.sub_case_candidates(&qf).as_slice());
            flat.super_case_candidates_into(qf.as_features(), &mut scratch);
            prop_assert_eq!(scratch.candidates(), reference.super_case_candidates(&qf).as_slice());
        }
    }

    #[test]
    fn tombstoned_query_index_matches_eager_under_churn(
        graphs in proptest::collection::vec(arb_graph(5, 40), 2..8),
        queries in proptest::collection::vec(arb_graph(4, 40), 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..60),
        max_len in 0usize..3,
    ) {
        // Wide label alphabet: most features are unique to one entry, so
        // removals drain posting lists and exercise tombstoning, tail
        // merges and compaction; the eager directory is the executable
        // specification of the maintenance semantics.
        let cfg = FeatureConfig::with_max_len(max_len);
        let mut flat = QueryIndex::new(cfg);
        let mut eager = reference::EagerQueryIndex::new(cfg);
        let mut live: Vec<u32> = Vec::new();
        let mut next_id = 0u32;
        let mut scratch = gc_index::CandScratch::new();
        for (op, sel) in ops {
            if op % 3 == 0 && !live.is_empty() {
                let id = live[sel as usize % live.len()];
                live.retain(|&e| e != id);
                flat.remove(id);
                eager.remove(id);
            } else {
                let id = next_id;
                let g = &graphs[id as usize % graphs.len()];
                flat.insert(id, g);
                eager.insert(id, g);
                live.push(id);
                next_id += 1;
            }
            // Probe equivalence after *every* mutation, so divergence is
            // caught at the op that introduced it.
            let qf = flat.features_of(&queries[0]);
            prop_assert_eq!(
                flat.sub_case_candidates(&qf),
                eager.sub_case_candidates(&qf),
                "sub-case diverged mid-churn"
            );
            prop_assert_eq!(
                flat.super_case_candidates(&qf),
                eager.super_case_candidates(&qf),
                "super-case diverged mid-churn"
            );
        }
        for q in &queries {
            let qf = flat.features_of(q);
            prop_assert_eq!(flat.sub_case_candidates(&qf), eager.sub_case_candidates(&qf));
            prop_assert_eq!(flat.super_case_candidates(&qf), eager.super_case_candidates(&qf));
            // The scratch-reusing probe path agrees too.
            flat.sub_case_candidates_into(qf.as_features(), &mut scratch);
            prop_assert_eq!(scratch.candidates(), eager.sub_case_candidates(&qf).as_slice());
            flat.super_case_candidates_into(qf.as_features(), &mut scratch);
            prop_assert_eq!(scratch.candidates(), eager.super_case_candidates(&qf).as_slice());
        }
    }

    #[test]
    fn flat_tree_index_matches_reference_under_churn(
        graphs in proptest::collection::vec(arb_graph(6, 3), 2..8),
        queries in proptest::collection::vec(arb_graph(5, 3), 1..4),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        max_edges in 0usize..3,
    ) {
        let cfg = gc_index::TreeConfig::with_max_edges(max_edges);
        let mut flat = gc_index::TreeIndex::new(cfg);
        let mut reference = reference::RefTreeIndex::new(cfg);
        let mut live: Vec<u32> = Vec::new();
        let mut next_gid = 0u32;
        for (op, sel) in ops {
            if op % 3 == 0 && !live.is_empty() {
                let gid = live[sel as usize % live.len()];
                live.retain(|&g| g != gid);
                flat.remove_graph(gid);
                reference.remove_graph(gid);
            } else {
                let g = &graphs[next_gid as usize % graphs.len()];
                flat.insert_graph(next_gid, g);
                reference.insert_graph(next_gid, g);
                live.push(next_gid);
                next_gid += 1;
            }
            prop_assert_eq!(
                flat.candidates(&queries[0]),
                reference.candidates(&queries[0]),
                "tree sub filter diverged mid-churn"
            );
        }
        let mut scratch = gc_index::TreeScratch::new();
        let mut out = gc_graph::BitSet::new(flat.dataset_size());
        for q in &queries {
            prop_assert_eq!(flat.candidates(q), reference.candidates(q), "sub filter diverged");
            prop_assert_eq!(
                flat.super_candidates(q),
                reference.super_candidates(q),
                "super filter diverged"
            );
            // Scratch-reusing paths agree with the wrappers.
            flat.candidates_into(q, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference.candidates(q));
            flat.super_candidates_into(q, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference.super_candidates(q));
        }
    }

    #[test]
    fn gallop_matches_two_pointer(
        cur_raw in proptest::collection::vec(0u32..500, 0..80),
        list_raw in proptest::collection::vec((0u32..500, 1u32..4), 0..80),
        need in 1u32..4,
    ) {
        let mut cur = cur_raw;
        cur.sort_unstable();
        cur.dedup();
        let mut list = list_raw;
        list.sort_unstable_by_key(|&(id, _)| id);
        list.dedup_by_key(|&mut (id, _)| id);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        gc_index::merge::intersect_two_pointer(&cur, &list, need, &mut a);
        gc_index::merge::intersect_gallop(&cur, &list, need, &mut b);
        prop_assert_eq!(&a, &b, "gallop diverged from two-pointer");
        for cutoff in [1usize, 8, usize::MAX] {
            let mut c = Vec::new();
            gc_index::merge::intersect_adaptive(&cur, &list, need, cutoff, &mut c);
            prop_assert_eq!(&a, &c, "adaptive diverged at cutoff {}", cutoff);
        }
    }

    #[test]
    fn arena_trie_matches_node_reference(
        dataset in proptest::collection::vec(arb_graph(6, 2), 1..8),
        queries in proptest::collection::vec(arb_graph(5, 2), 1..4),
        max_len in 0usize..4,
    ) {
        let cfg = FeatureConfig::with_max_len(max_len);
        let arena = PathTrie::build(&dataset, cfg);
        let reference = reference::RefPathTrie::build(&dataset, cfg);
        let mut scratch = gc_index::TrieScratch::new();
        let mut out = gc_graph::BitSet::new(dataset.len());
        for q in &queries {
            prop_assert_eq!(arena.candidates(q), reference.candidates(q), "sub filter diverged");
            prop_assert_eq!(
                arena.super_candidates(q),
                reference.super_candidates(q),
                "super filter diverged"
            );
            // Scratch-reusing paths agree with the wrappers.
            arena.candidates_into(q, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference.candidates(q));
            arena.super_candidates_into(q, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference.super_candidates(q));
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic compaction-trigger boundary: the directory must stay
// equivalent to the eager one exactly at the sweep that reclaims tombstones.
// ---------------------------------------------------------------------------

#[test]
fn query_index_compaction_boundary_keeps_candidates_exact() {
    use gc_graph::graph_from_parts;
    // Chain graphs over a wide alphabet: every entry owns most of its
    // feature hashes, so each removal drains lists into tombstones.
    let chain = |seed: u32| {
        let labels: Vec<Label> = (0..5u32).map(|i| Label(1000 + seed * 17 + i * 3)).collect();
        graph_from_parts(&labels, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    };
    let cfg = FeatureConfig::with_max_len(3);
    let mut flat = QueryIndex::new(cfg);
    let mut eager = reference::EagerQueryIndex::new(cfg);
    for id in 0..32u32 {
        flat.insert(id, &chain(id));
        eager.insert(id, &chain(id));
    }
    let probe = chain(3);
    let mut crossed = false;
    for id in 0..24u32 {
        flat.remove(id);
        eager.remove(id);
        if flat.tombstoned_slots() == 0 && id >= 1 {
            crossed = true; // a compaction sweep ran somewhere in the prefix
        }
        // Equivalence must hold on both sides of every compaction sweep.
        let qf = flat.features_of(&probe);
        assert_eq!(flat.sub_case_candidates(&qf), eager.sub_case_candidates(&qf));
        assert_eq!(flat.super_case_candidates(&qf), eager.super_case_candidates(&qf));
    }
    assert!(crossed, "removals never crossed a compaction boundary");
    assert_eq!(flat.len(), 8);
}

// ---------------------------------------------------------------------------
// The supergraph probes' fit test (total cut, one-word mask, then exact
// confirmation) on datasets where it has survivors: cuts of the query, the
// query itself (total equal to the query's), near misses and random graphs,
// over an alphabet with more than 64 keys so mask bits collide.
// ---------------------------------------------------------------------------

/// A graph from labels and an edge list (self-loops and repeats dropped).
fn graph_of(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let labels: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
    let mut es: Vec<(u32, u32)> =
        edges.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
    es.sort_unstable();
    es.dedup();
    gc_graph::graph_from_parts(&labels, &es).unwrap()
}

fn parts(g: &Graph) -> (Vec<u32>, Vec<(u32, u32)>) {
    (g.labels().iter().map(|l| l.0).collect(), g.edges().collect())
}

/// A connected query: a random tree plus a few chords.
fn fit_query(rng: &mut proptest::TestRng) -> Graph {
    use proptest::rand::Rng;
    let n = rng.gen_range(4u32..=9);
    let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..12)).collect();
    let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (rng.gen_range(0..v), v)).collect();
    for _ in 0..rng.gen_range(0..3) {
        edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    graph_of(&labels, &edges)
}

/// A subgraph of `g`: each vertex and each surviving edge kept with
/// probability 3/4.
fn cut_of(g: &Graph, rng: &mut proptest::TestRng) -> (Vec<u32>, Vec<(u32, u32)>) {
    use proptest::rand::Rng;
    let (labels, edges) = parts(g);
    // keep[v]: v's id in the cut, if kept.
    let (mut keep, mut kept) = (Vec::new(), Vec::new());
    for &l in &labels {
        if rng.gen_range(0u32..4) == 0 {
            keep.push(None);
        } else {
            keep.push(Some(kept.len() as u32));
            kept.push(l);
        }
    }
    let kept_edges = edges
        .iter()
        .filter_map(|&(u, v)| Some((keep[u as usize]?, keep[v as usize]?)))
        .filter(|_| rng.gen_range(0u32..4) != 0)
        .collect();
    (kept, kept_edges)
}

/// The dataset of one case, in shuffled order: the query, three cuts, a cut
/// plus one isolated copy of a query label (often one too many), the query
/// one edge (or one pendant vertex) larger, and three random graphs.
fn fit_dataset(query: &Graph, rng: &mut proptest::TestRng) -> Vec<Graph> {
    use proptest::rand::Rng;
    let (labels, edges) = parts(query);
    let mut ds = vec![query.clone()];
    for _ in 0..3 {
        let (l, e) = cut_of(query, rng);
        ds.push(graph_of(&l, &e));
    }
    let (mut l, e) = cut_of(query, rng);
    l.push(labels[rng.gen_range(0..labels.len())]);
    ds.push(graph_of(&l, &e));
    let n = labels.len() as u32;
    let chord = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !query.has_edge(u, v) && rng.gen_range(0u32..2) == 0);
    let (mut l, mut e) = (labels.clone(), edges.clone());
    match chord {
        Some(c) => e.push(c),
        None => {
            l.push(rng.gen_range(0u32..12));
            e.push((rng.gen_range(0..n), n));
        }
    }
    ds.push(graph_of(&l, &e));
    for _ in 0..3 {
        ds.push(arb_graph(8, 11).generate(rng));
    }
    for i in (1..ds.len()).rev() {
        ds.swap(i, rng.gen_range(0..=i));
    }
    ds
}

fn multiset<K: Ord>(keys: impl IntoIterator<Item = K>) -> std::collections::BTreeMap<K, u32> {
    let mut m = std::collections::BTreeMap::new();
    for k in keys {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

/// Brute-force Σmin over the key multisets `keys_of`: the ids of `dataset`
/// with `Σ_k min(cnt_G(k), cnt_q(k)) == total(G)`, and whether some graph
/// whose total fits inside the query's is rejected (a near miss the total
/// cut cannot settle).
fn brute_super<K: Ord>(
    dataset: &[Graph],
    query: &Graph,
    keys_of: impl Fn(&Graph) -> Vec<K>,
) -> (Vec<usize>, bool) {
    let q = multiset(keys_of(query));
    let q_total: u64 = q.values().map(|&c| c as u64).sum();
    let (mut answer, mut near_miss) = (Vec::new(), false);
    for (i, g) in dataset.iter().enumerate() {
        let entry = multiset(keys_of(g));
        let total: u64 = entry.values().map(|&c| c as u64).sum();
        let covered: u64 =
            entry.iter().map(|(k, &c)| c.min(q.get(k).copied().unwrap_or(0)) as u64).sum();
        if covered == total {
            answer.push(i);
        } else {
            near_miss |= total <= q_total;
        }
    }
    (answer, near_miss)
}

#[test]
fn super_probes_match_sigma_min_where_the_fit_test_has_survivors() {
    use proptest::rand::{Rng, SeedableRng};
    const CASES: usize = 160;
    let mut rng = proptest::TestRng::seed_from_u64(proptest::seed_for("fit_test_survivors"));
    // Per index (trie, query index, tree index): cases with a non-empty
    // answer, cases with a near miss, cases over 64 distinct keys.
    let (mut answered, mut near, mut wide) = ([0usize; 3], [0usize; 3], [0usize; 3]);
    for case in 1..=CASES {
        let query = fit_query(&mut rng);
        let dataset = fit_dataset(&query, &mut rng);
        let cfg = FeatureConfig::with_max_len(rng.gen_range(2usize..=3));
        let tcfg = gc_index::TreeConfig::with_max_edges(rng.gen_range(2usize..=3));
        let mut tally = |i: usize, (answer, near_miss): &(Vec<usize>, bool), keys: usize| {
            answered[i] += usize::from(!answer.is_empty());
            near[i] += usize::from(*near_miss);
            wide[i] += usize::from(keys > 64);
        };

        let trie = PathTrie::build(&dataset, cfg);
        let brute = brute_super(&dataset, &query, |g| gc_index::enumerate_label_paths(g, &cfg).0);
        let got = trie.super_candidates(&query);
        assert_eq!(got.to_vec(), brute.0, "case {case}: trie super filter != Σmin");
        assert_eq!(
            got,
            reference::RefPathTrie::build(&dataset, cfg).super_candidates(&query),
            "case {case}: trie super filter != reference"
        );
        tally(0, &brute, trie.node_count() - 1);

        let mut qi = QueryIndex::new(cfg);
        let mut reference = reference::RefQueryIndex::new(cfg);
        for (id, g) in dataset.iter().enumerate() {
            qi.insert(id as u32, g);
            reference.insert(id as u32, g);
        }
        let qf = qi.features_of(&query);
        let brute = brute_super(&dataset, &query, |g| {
            let fv = gc_index::feature_vec(g, &cfg);
            fv.items().iter().flat_map(|&(h, c)| std::iter::repeat_n(h, c as usize)).collect()
        });
        let got = qi.super_case_candidates(&qf);
        assert_eq!(
            got.iter().map(|&e| e as usize).collect::<Vec<_>>(),
            brute.0,
            "case {case}: query-index super probe != Σmin"
        );
        assert_eq!(
            got,
            reference.super_case_candidates(&qf),
            "case {case}: query-index super probe != reference"
        );
        tally(1, &brute, qi.distinct_features());

        let tree = gc_index::TreeIndex::build(&dataset, tcfg);
        let brute = brute_super(&dataset, &query, |g| gc_index::enumerate_tree_codes(g, &tcfg).0);
        let got = tree.super_candidates(&query);
        assert_eq!(got.to_vec(), brute.0, "case {case}: tree super filter != Σmin");
        assert_eq!(
            got,
            reference::RefTreeIndex::build(&dataset, tcfg).super_candidates(&query),
            "case {case}: tree super filter != reference"
        );
        tally(2, &brute, tree.distinct_features());
    }
    for (i, name) in ["trie", "query index", "tree index"].iter().enumerate() {
        // The query itself is in every dataset.
        assert_eq!(answered[i], CASES, "{name}: a case had an empty answer");
        assert!(near[i] * 2 >= CASES, "{name}: too few cases have a near miss");
        assert!(wide[i] * 8 >= CASES, "{name}: too few cases exceed 64 keys");
    }
}
