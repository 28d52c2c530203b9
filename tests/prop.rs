//! Workspace-level property test: on arbitrary datasets and query streams,
//! the cache's answers are bit-for-bit those of the uncached method — the
//! paper's no-false-positives/no-false-negatives guarantee.

use graphcache::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_graph(max_n: usize, max_label: u32) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_never_changes_answers(
        dataset_graphs in proptest::collection::vec(arb_graph(8, 2), 3..10),
        queries in proptest::collection::vec((arb_graph(5, 2), any::<bool>()), 1..25),
        capacity in 1usize..6,
        window in 1usize..4,
        policy_idx in 0usize..5,
    ) {
        let dataset = Arc::new(Dataset::new(dataset_graphs));
        let policy = PolicyKind::all()[policy_idx];
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            policy,
            CacheConfig {
                capacity,
                window_size: window,
                min_admit_tests: 0,
                shards: 1,
                ..CacheConfig::default()
            },
        ).unwrap();
        for (q, is_super) in &queries {
            let kind = if *is_super { QueryKind::Supergraph } else { QueryKind::Subgraph };
            let got = gc.query(q, kind);
            let want = execute_base(&dataset, &SiMethod, Engine::Vf2, q, kind);
            prop_assert_eq!(
                got.answer.to_vec(),
                want.answer.to_vec(),
                "policy {} kind {:?}",
                policy,
                kind
            );
        }
    }

    #[test]
    fn shared_cache_matches_sequential_replay(
        dataset_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        policy_idx in 0usize..5,
        shards in 1usize..6,
        skew_tenths in 5usize..18,
    ) {
        // The tentpole invariant: `SharedGraphCache` queried from N threads
        // returns, for every workload item, the exact answer set the
        // sequential one-shard replay produces — for each PolicyKind.
        const THREADS: usize = 8;
        let policy = PolicyKind::all()[policy_idx];
        let dataset = Arc::new(Dataset::new(molecule_dataset(10, dataset_seed)));
        let spec = WorkloadSpec {
            n_queries: 48,
            pool_size: 12,
            kind: WorkloadKind::Zipf { skew: skew_tenths as f64 / 10.0 },
            seed: workload_seed,
            min_edges: 2,
            max_edges: 8,
            supergraph_fraction: 0.25,
        };
        let workload = Workload::generate(dataset.graphs(), &spec);
        let config = CacheConfig {
            capacity: 8,
            window_size: 2,
            shards,
            min_admit_tests: 0,
            ..CacheConfig::default()
        };

        let seq = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            policy,
            CacheConfig { shards: 1, ..config.clone() },
        ).unwrap();
        let expected: Vec<BitSet> = workload
            .queries
            .iter()
            .map(|wq| seq.query(&wq.graph, wq.kind).answer)
            .collect();

        let shared = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            policy,
            config,
        ).unwrap();
        let mismatches: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let shared = &shared;
                    let workload = &workload;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut bad = 0usize;
                        for (i, wq) in workload.queries.iter().enumerate() {
                            if i % THREADS != t {
                                continue;
                            }
                            if shared.query(&wq.graph, wq.kind).answer != expected[i] {
                                bad += 1;
                            }
                        }
                        bad
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client panicked")).sum()
        });
        prop_assert_eq!(mismatches, 0, "policy {} shards {}", policy, shards);
        prop_assert_eq!(shared.stats().queries as usize, workload.len());
    }

    #[test]
    fn ftv_cache_matches_si_cache(
        dataset_graphs in proptest::collection::vec(arb_graph(7, 2), 3..8),
        queries in proptest::collection::vec(arb_graph(4, 2), 1..15),
    ) {
        // Two caches over different Methods M must agree with each other.
        let dataset = Arc::new(Dataset::new(dataset_graphs));
        let gc_si = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig {
                capacity: 4,
                window_size: 2,
                min_admit_tests: 0,
                shards: 1,
                ..CacheConfig::default()
            },
        ).unwrap();
        let gc_ftv = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(FtvMethod::build(&dataset, 2)),
            PolicyKind::Lru,
            CacheConfig {
                capacity: 4,
                window_size: 2,
                min_admit_tests: 0,
                shards: 1,
                ..CacheConfig::default()
            },
        ).unwrap();
        for q in &queries {
            let a = gc_si.query(q, QueryKind::Subgraph);
            let b = gc_ftv.query(q, QueryKind::Subgraph);
            prop_assert_eq!(a.answer.to_vec(), b.answer.to_vec());
            // FTV filters at least as hard as SI.
            prop_assert!(b.cm_size <= a.cm_size || a.exact_hit || b.exact_hit);
        }
    }
}
