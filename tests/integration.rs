//! Workspace-level integration tests exercising the public facade the way a
//! downstream application would.

use graphcache::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

fn molecule_cache(n_graphs: usize, seed: u64, capacity: usize) -> (Arc<Dataset>, GraphCache) {
    molecule_cache_with(n_graphs, seed, CacheConfig { capacity, ..CacheConfig::default() })
}

fn molecule_cache_with(
    n_graphs: usize,
    seed: u64,
    config: CacheConfig,
) -> (Arc<Dataset>, GraphCache) {
    let dataset = Arc::new(Dataset::new(molecule_dataset(n_graphs, seed)));
    let gc = GraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, 2)),
        PolicyKind::Hd,
        CacheConfig { window_size: 5, ..config },
    )
    .expect("valid config");
    (dataset, gc)
}

#[test]
fn cached_answers_match_base_method_end_to_end() {
    let (dataset, mut gc) = molecule_cache(40, 1001, 15);
    let reference = FtvMethod::build(&dataset, 2);
    let spec = WorkloadSpec {
        n_queries: 80,
        pool_size: 25,
        kind: WorkloadKind::Drift { chain_len: 3, repeat_prob: 0.3 },
        seed: 3,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    for wq in &workload.queries {
        let got = gc.query(&wq.graph, wq.kind);
        let want = execute_base(&dataset, &reference, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(got.answer, want.answer);
    }
    assert!(gc.stats().hit_queries > 0);
}

#[test]
fn pipeline_invariants_hold_on_every_query() {
    // Every query traced, so the trace accounting is checked on each one.
    let config = CacheConfig { capacity: 12, trace_sample_rate: 1.0, ..CacheConfig::default() };
    let (dataset, mut gc) = molecule_cache_with(30, 2002, config);
    let spec = WorkloadSpec {
        n_queries: 60,
        pool_size: 20,
        kind: WorkloadKind::Zipf { skew: 1.0 },
        seed: 9,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    for wq in &workload.queries {
        let r = gc.query(&wq.graph, wq.kind);
        if r.exact_hit || r.memo_hit {
            // Served whole by an entry / answer-only row: the
            // staged pipeline (whose algebra this checks) never ran.
            continue;
        }
        // Fig. 3 pipeline algebra — on either plan: `cm_set` is Method M's
        // C_M, or the hits' upper bound U when the filter was skipped.
        assert!(r.verified_set.is_subset(&r.cm_set), "C ⊆ C_M");
        assert!(r.verified <= r.cm_size, "|C| ≤ Method M's baseline");
        assert!(r.definite_set.is_disjoint(&r.verified_set), "S ∩ C = ∅");
        assert!(r.survivors_set.is_subset(&r.verified_set), "R ⊆ C");
        let mut a = r.survivors_set.clone();
        a.union_with(&r.definite_set);
        assert_eq!(a, r.answer, "A = R ∪ S");
        assert!(r.answer.is_subset(&r.cm_set), "A ⊆ C_M (sound filter, sound bound)");
        assert_eq!(r.verified as u64, r.sub_iso_tests);
    }

    // The same identities as each query's trace records them.
    let traces = gc.telemetry().recent_traces(workload.len());
    assert_eq!(traces.len(), workload.len(), "rate 1.0 traces every query");
    for t in &traces {
        // Stage spans close before the end-to-end clock is read; only µs
        // truncation separates their sum from the total.
        assert!(t.stage_sum_us() <= t.total_us + 2, "trace {}: stages exceed total", t.seq);
        if t.outcome == "pipeline" {
            assert_eq!(t.answer, t.definite + t.survivors, "trace {}: A = S + R", t.seq);
            assert!(t.survivors <= t.to_verify, "trace {}: |R| ≤ |C|", t.seq);
            assert!(t.to_verify <= t.cm_size, "trace {}: |C| ≤ |C_M|", t.seq);
        } else {
            assert_eq!(
                (t.cm_size, t.to_verify),
                (0, 0),
                "trace {}: a fast path ran no stage",
                t.seq
            );
        }
    }
}

#[test]
fn resubmission_is_an_exact_hit_with_zero_tests() {
    let (dataset, mut gc) = molecule_cache(25, 3003, 20);
    let mut rng = StdRng::seed_from_u64(5);
    let q = extract_query(dataset.graph(3), 7, &mut rng).unwrap();
    let first = gc.query(&q, QueryKind::Subgraph);
    assert!(!first.exact_hit);
    let second = gc.query(&q, QueryKind::Subgraph);
    assert!(second.exact_hit);
    assert_eq!(second.sub_iso_tests, 0);
    assert_eq!(second.probe_tests, 0);
    assert_eq!(first.answer, second.answer);
}

#[test]
fn chain_queries_generate_sub_and_super_hits() {
    let (dataset, mut gc) = molecule_cache(30, 4004, 30);
    let mut rng = StdRng::seed_from_u64(6);
    let chain = nested_chain(dataset.graph(2), &[3, 6, 9, 13], &mut rng);
    assert_eq!(chain.len(), 4);
    // Execute ends first, middles after: middles see hits both ways.
    gc.query(&chain[0], QueryKind::Subgraph);
    gc.query(&chain[3], QueryKind::Subgraph);
    let r1 = gc.query(&chain[1], QueryKind::Subgraph);
    assert!(
        !r1.sub_hits.is_empty() || !r1.super_hits.is_empty(),
        "chain middle must hit at least one end"
    );
    let r2 = gc.query(&chain[2], QueryKind::Subgraph);
    assert!(r2.any_hit());
}

#[test]
fn supergraph_and_subgraph_entries_do_not_mix() {
    let (dataset, mut gc) = molecule_cache(20, 5005, 20);
    let mut rng = StdRng::seed_from_u64(7);
    let q = extract_query(dataset.graph(0), 6, &mut rng).unwrap();
    let sub = gc.query(&q, QueryKind::Subgraph);
    // The same graph as a supergraph query: different semantics, must NOT
    // be served from the subgraph entry.
    let sup = gc.query(&q, QueryKind::Supergraph);
    assert!(!sup.exact_hit, "kinds must not cross-serve");
    // Answers are generally different: sub finds containers, super finds
    // contained graphs.
    let reference = FtvMethod::build(&dataset, 2);
    let want = execute_base(&dataset, &reference, Engine::Vf2, &q, QueryKind::Supergraph);
    assert_eq!(sup.answer, want.answer);
    let want_sub = execute_base(&dataset, &reference, Engine::Vf2, &q, QueryKind::Subgraph);
    assert_eq!(sub.answer, want_sub.answer);
}

#[test]
fn graph_io_roundtrips_through_the_cache() {
    // Serialize a dataset, reload it, and check cache answers agree.
    let graphs = molecule_dataset(10, 6006);
    let text = graphcache::graph::io::dataset_to_string(&graphs);
    let reloaded = graphcache::graph::io::parse_dataset(&text).unwrap();
    assert_eq!(graphs, reloaded);

    let d1 = Arc::new(Dataset::new(graphs));
    let d2 = Arc::new(Dataset::new(reloaded));
    let mut rng = StdRng::seed_from_u64(8);
    let q = extract_query(d1.graph(4), 5, &mut rng).unwrap();
    let mut gc1 = GraphCache::with_policy(
        d1.clone(),
        Box::new(SiMethod),
        PolicyKind::Lru,
        CacheConfig::default(),
    )
    .unwrap();
    let mut gc2 = GraphCache::with_policy(
        d2.clone(),
        Box::new(SiMethod),
        PolicyKind::Lru,
        CacheConfig::default(),
    )
    .unwrap();
    assert_eq!(
        gc1.query(&q, QueryKind::Subgraph).answer,
        gc2.query(&q, QueryKind::Subgraph).answer
    );
}

#[test]
fn custom_policy_via_public_trait() {
    /// Evict-newest policy (pathological on purpose).
    struct EvictNewest {
        order: Vec<EntryId>,
    }
    impl ReplacementPolicy for EvictNewest {
        fn name(&self) -> &'static str {
            "evict-newest"
        }
        fn on_insert(&mut self, e: EntryId, _now: u64) {
            self.order.push(e);
        }
        fn on_hit(&mut self, _e: EntryId, _c: &HitCredit, _now: u64) {}
        fn on_evict(&mut self, e: EntryId) {
            self.order.retain(|&x| x != e);
        }
        fn victims(&mut self, x: usize) -> Vec<EntryId> {
            self.order.iter().rev().take(x).copied().collect()
        }
    }

    let dataset = Arc::new(Dataset::new(molecule_dataset(20, 7007)));
    let mut gc = GraphCache::new(
        dataset.clone(),
        Box::new(SiMethod),
        Box::new(EvictNewest { order: Vec::new() }),
        CacheConfig { capacity: 5, window_size: 2, ..CacheConfig::default() },
    )
    .unwrap();
    assert_eq!(gc.policy_name(), "evict-newest");
    let spec = WorkloadSpec {
        n_queries: 40,
        pool_size: 40,
        kind: WorkloadKind::Uniform,
        seed: 12,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let reference = SiMethod;
    for wq in &workload.queries {
        let got = gc.query(&wq.graph, wq.kind);
        let want = execute_base(&dataset, &reference, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(got.answer, want.answer, "custom policy must not affect answers");
    }
    assert!(gc.stats().evicted > 0);
    assert!(gc.len() <= 5 + 2);
}

#[test]
fn skewed_workload_yields_speedup() {
    let (dataset, mut gc) = molecule_cache(60, 8008, 40);
    let reference = FtvMethod::build(&dataset, 2);
    let spec = WorkloadSpec {
        n_queries: 200,
        pool_size: 50,
        kind: WorkloadKind::Zipf { skew: 1.3 },
        seed: 21,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let mut base_tests = 0u64;
    for wq in &workload.queries {
        base_tests += execute_base(&dataset, &reference, Engine::Vf2, &wq.graph, wq.kind)
            .sub_iso_tests as u64;
        gc.query(&wq.graph, wq.kind);
    }
    let stats = gc.stats();
    let base_avg = base_tests as f64 / workload.len() as f64;
    let speedup = base_avg / stats.avg_tests_per_query();
    assert!(
        speedup > 1.5,
        "a skewed workload must show clear sub-iso-test speedup, got {speedup:.2}"
    );
}

#[test]
fn stats_are_internally_consistent() {
    let (dataset, mut gc) = molecule_cache(30, 9009, 10);
    let spec = WorkloadSpec {
        n_queries: 50,
        pool_size: 20,
        kind: WorkloadKind::Zipf { skew: 1.0 },
        seed: 2,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let mut any_hits = 0u64;
    let mut tests = 0u64;
    for wq in &workload.queries {
        let r = gc.query(&wq.graph, wq.kind);
        any_hits += u64::from(r.any_hit());
        tests += r.sub_iso_tests;
    }
    let s = gc.stats();
    assert_eq!(s.queries, 50);
    assert_eq!(s.hit_queries, any_hits);
    assert_eq!(s.tests_executed, tests);
    assert!(s.admitted >= s.evicted);
    assert_eq!(gc.len() as u64, s.admitted - s.evicted);
}
