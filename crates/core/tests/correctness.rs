//! End-to-end correctness: GraphCache never changes an answer.
//!
//! The paper's central correctness claim (§1 Problem (2)): GC produces no
//! false positives and no false negatives. These tests run full workloads
//! through the cache and compare every answer bit-for-bit against Method M
//! executed without a cache.

use gc_core::pipeline::probe::PROBE_BUDGET;
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_graph::{graph_from_parts, Label};
use gc_method::{execute_base, Dataset, Engine, FtvMethod, Method, QueryKind, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use std::sync::Arc;

fn check_workload(
    dataset: Arc<Dataset>,
    method_for_cache: Box<dyn Method>,
    reference: &dyn Method,
    policy: PolicyKind,
    config: CacheConfig,
    spec: &WorkloadSpec,
) {
    let workload = Workload::generate(dataset.graphs(), spec);
    let config = CacheConfig { shards: 1, ..config };
    let gc =
        SharedGraphCache::with_policy(dataset.clone(), method_for_cache, policy, config).unwrap();
    for (i, wq) in workload.queries.iter().enumerate() {
        let cached = gc.query(&wq.graph, wq.kind);
        let base = execute_base(&dataset, reference, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(
            cached.answer.to_vec(),
            base.answer.to_vec(),
            "answer mismatch at query {i} (kind {:?}, policy {policy})",
            wq.kind
        );
        // The cache may never *increase* the dataset sub-iso tests beyond
        // |C_M| (probing overhead is tracked separately).
        assert!(
            cached.sub_iso_tests as usize <= base.sub_iso_tests || cached.exact_hit,
            "query {i}: cache executed {} tests, base {}",
            cached.sub_iso_tests,
            base.sub_iso_tests
        );
    }
}

#[test]
fn correctness_si_zipf_all_policies() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(30, 101)));
    let spec = WorkloadSpec {
        n_queries: 60,
        pool_size: 15,
        kind: WorkloadKind::Zipf { skew: 1.2 },
        seed: 7,
        ..WorkloadSpec::default()
    };
    for policy in PolicyKind::all() {
        check_workload(
            dataset.clone(),
            Box::new(SiMethod),
            &SiMethod,
            policy,
            CacheConfig { capacity: 10, window_size: 3, ..CacheConfig::default() },
            &spec,
        );
    }
}

#[test]
fn correctness_ftv_drift() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(25, 202)));
    let ftv_cache = Box::new(FtvMethod::build(&dataset, 3));
    let ftv_ref = FtvMethod::build(&dataset, 3);
    let spec = WorkloadSpec {
        n_queries: 50,
        kind: WorkloadKind::Drift { chain_len: 4, repeat_prob: 0.25 },
        seed: 11,
        ..WorkloadSpec::default()
    };
    check_workload(
        dataset.clone(),
        ftv_cache,
        &ftv_ref,
        PolicyKind::Hd,
        CacheConfig { capacity: 12, window_size: 4, ..CacheConfig::default() },
        &spec,
    );
}

#[test]
fn correctness_supergraph_queries() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(20, 303)));
    let spec = WorkloadSpec {
        n_queries: 40,
        pool_size: 10,
        kind: WorkloadKind::Zipf { skew: 1.0 },
        supergraph_fraction: 0.5,
        seed: 13,
        ..WorkloadSpec::default()
    };
    check_workload(
        dataset.clone(),
        Box::new(SiMethod),
        &SiMethod,
        PolicyKind::Pin,
        CacheConfig { capacity: 8, window_size: 2, ..CacheConfig::default() },
        &spec,
    );
}

#[test]
fn exact_hits_on_repeats() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(20, 505)));
    let spec = WorkloadSpec {
        n_queries: 30,
        pool_size: 3, // tiny pool: heavy repetition
        kind: WorkloadKind::Uniform,
        seed: 19,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Lru,
        CacheConfig { capacity: 10, window_size: 1, shards: 1, ..CacheConfig::default() },
    )
    .unwrap();
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }
    let stats = gc.stats();
    assert!(stats.exact_hits > 0, "repeated queries must produce exact hits");
    assert!(stats.hit_ratio() > 0.3, "hit ratio {}", stats.hit_ratio());
    assert!(stats.tests_saved > 0);
}

#[test]
fn cache_respects_capacity() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(20, 606)));
    let spec = WorkloadSpec {
        n_queries: 60,
        pool_size: 60,
        kind: WorkloadKind::Uniform,
        seed: 23,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig { capacity: 7, window_size: 3, shards: 1, ..CacheConfig::default() },
    )
    .unwrap();
    let mut evictions = 0usize;
    for wq in &workload.queries {
        let r = gc.query(&wq.graph, wq.kind);
        evictions += r.evicted.len();
        assert!(gc.len() <= 7 + 3, "cache size {} exceeds capacity + window slack", gc.len());
    }
    assert!(evictions > 0, "a small cache under a wide workload must evict");
    assert!(gc.len() <= 7 + 3);
    let stats = gc.stats();
    assert_eq!(stats.evicted as usize, evictions);
    assert!(stats.admitted > stats.evicted);
}

#[test]
fn byte_budget_caps_memory() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(25, 808)));
    let spec = WorkloadSpec {
        n_queries: 80,
        pool_size: 80,
        kind: WorkloadKind::Uniform,
        seed: 31,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let budget = 16 * 1024; // 16 KiB — far below an unbounded run
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig {
            capacity: 1000,
            window_size: 4,
            max_bytes: Some(budget),
            shards: 1,
            ..CacheConfig::default()
        },
    )
    .unwrap();
    for wq in &workload.queries {
        let got = gc.query(&wq.graph, wq.kind);
        let want = execute_base(&dataset, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(got.answer, want.answer, "byte budget must not affect answers");
    }
    // Footprint can only exceed the budget by at most one open window of
    // admissions between sweeps.
    assert!(
        gc.memory_bytes() <= budget * 2,
        "memory {} should hover near budget {}",
        gc.memory_bytes(),
        budget
    );
    assert!(gc.stats().evicted > 0, "budget pressure must evict");
}

#[test]
fn zero_byte_budget_is_rejected() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(3, 1)));
    let cfg = CacheConfig { max_bytes: Some(0), ..CacheConfig::default() };
    assert!(
        SharedGraphCache::with_policy(dataset, Box::new(SiMethod), PolicyKind::Lru, cfg).is_err()
    );
}

#[test]
fn exhausted_hit_probe_keeps_answers_correct() {
    // A cached K_{6,6} holds no odd cycle, but its path features dominate
    // an 11-cycle's, so the cycle query makes it a sub-case candidate whose
    // confirmation search runs out of `PROBE_BUDGET`: no hit, exact answer.
    let one = |n: usize| vec![Label(0); n];
    let k66: Vec<(u32, u32)> = (0..6).flat_map(|a| (6..12).map(move |b| (a, b))).collect();
    let c11: Vec<(u32, u32)> = (0..11).map(|v| (v, (v + 1) % 11)).collect();
    let k66 = graph_from_parts(&one(12), &k66).unwrap();
    let c11 = graph_from_parts(&one(11), &c11).unwrap();
    // Small one-label graphs: both supergraph queries test some of them.
    let dataset = Arc::new(Dataset::new(vec![
        graph_from_parts(&one(1), &[]).unwrap(),
        graph_from_parts(&one(2), &[(0, 1)]).unwrap(),
        graph_from_parts(&one(3), &[(0, 1), (1, 2)]).unwrap(),
        graph_from_parts(&one(3), &[(0, 1), (1, 2), (2, 0)]).unwrap(),
        graph_from_parts(&one(4), &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
    ]));
    let cfg = CacheConfig { window_size: 1, shards: 1, ..CacheConfig::default() };
    let gc =
        SharedGraphCache::with_policy(dataset.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg)
            .unwrap();
    assert!(gc.query(&k66, QueryKind::Supergraph).admitted.is_some(), "K_{{6,6}} is cached");
    let got = gc.query(&c11, QueryKind::Supergraph);
    let want = execute_base(&dataset, &SiMethod, Engine::Vf2, &c11, QueryKind::Supergraph);
    assert_eq!(got.answer, want.answer);
    assert!(got.sub_hits.is_empty() && got.super_hits.is_empty(), "an odd cycle cannot hit");
    assert_eq!(got.probe_tests, 1, "K_{{6,6}} is the one candidate");
    // The search runs out of steps (not vacuous) and stops there (the
    // unbudgeted search takes over 11 million).
    assert!(
        (PROBE_BUDGET..=PROBE_BUDGET + 1).contains(&got.probe_steps),
        "the probe must stop at its budget: {} steps",
        got.probe_steps
    );
}
