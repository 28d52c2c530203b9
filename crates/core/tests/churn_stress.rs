//! Churn stress: eviction-heavy Zipf workloads must keep every lookup
//! structure — fingerprint buckets, the tombstoned containment index, the
//! slab — exactly in sync with the live entry set, sequentially and across
//! `SharedGraphCache` shards under concurrent clients.
//!
//! Extends the `cache_sync.rs` invariants to the regime this PR targets:
//! tiny capacities with window 1 force an admission + eviction on almost
//! every query, so the index directory is driven through tombstoning, tail
//! merges and compaction sweeps at traffic rate.

use gc_core::{CacheConfig, CacheManager, GraphCache, PolicyKind, SharedGraphCache};
use gc_index::{COMPACT_MIN, COMPACT_TOMBSTONE_PCT};
use gc_method::{Dataset, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use std::sync::Arc;

mod common;

/// The shared `cache_sync` invariant, plus directory-health bounds.
fn assert_consistent(cm: &CacheManager) {
    common::assert_consistent(cm);

    // Tombstones are bounded by the compaction trigger (percentage
    // threshold with a floor of a few slots on tiny directories): lazy,
    // not leaky.
    let tombstones = cm.index().tombstoned_slots();
    let total = cm.index().distinct_features() + tombstones;
    assert!(
        tombstones < COMPACT_MIN || tombstones * 100 < COMPACT_TOMBSTONE_PCT * total,
        "tombstones exceeded the compaction trigger ({tombstones} of {total} slots)"
    );
}

#[test]
fn zipf_eviction_churn_keeps_sequential_cache_consistent() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(18, 4242)));
    let spec = WorkloadSpec {
        n_queries: 180,
        pool_size: 90,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        seed: 21,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    // Window 1 + capacity 3: nearly every query admits and evicts, so the
    // directory compacts repeatedly (14 times over both policies).
    let config = CacheConfig { capacity: 3, window_size: 1, ..CacheConfig::default() };
    for policy in [PolicyKind::Lru, PolicyKind::Hd] {
        let mut gc =
            GraphCache::with_policy(dataset.clone(), Box::new(SiMethod), policy, config.clone())
                .unwrap();
        for wq in &workload.queries {
            gc.query(&wq.graph, wq.kind);
            gc.for_each_shard(|_, cm| assert_consistent(cm));
        }
        let stats = gc.stats();
        assert!(stats.evicted > 0, "policy {policy} must have evicted");
        assert!(stats.admitted > stats.evicted, "admissions outnumber evictions");
    }
}

#[test]
fn zipf_eviction_churn_keeps_shared_shards_consistent() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(16, 777)));
    let spec = WorkloadSpec {
        n_queries: 60,
        pool_size: 60,
        kind: WorkloadKind::Zipf { skew: 1.2 },
        seed: 5,
        supergraph_fraction: 0.25,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let gc = Arc::new(
        SharedGraphCache::with_policy(
            dataset,
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig { capacity: 8, window_size: 1, shards: 4, ..CacheConfig::default() },
        )
        .unwrap(),
    );

    // 4 client threads drain the workload concurrently while the main
    // thread repeatedly sweeps the shard invariants under read locks.
    let n_threads = 4;
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let gc = Arc::clone(&gc);
            let queries = &workload.queries;
            scope.spawn(move || {
                for wq in queries.iter().skip(t).step_by(n_threads) {
                    gc.query(&wq.graph, wq.kind);
                }
            });
        }
        for _ in 0..20 {
            gc.for_each_shard(|_, cm| assert_consistent(cm));
            std::thread::yield_now();
        }
    });

    // Final full sweep after all clients finished.
    let mut total_entries = 0usize;
    gc.for_each_shard(|_, cm| {
        assert_consistent(cm);
        total_entries += cm.len();
    });
    assert_eq!(total_entries, gc.len(), "shard sizes must sum to the cache size");
    assert!(gc.stats().evicted > 0, "the workload must have forced evictions");
}

#[test]
fn repeat_heavy_churn_recycles_slots_without_desync() {
    // Interleave repeated (exact-hit) queries with fresh ones under window
    // 1 so admissions constantly recycle slab slots whose ids are still in
    // the directory's tombstoned region.
    let dataset = Arc::new(Dataset::new(molecule_dataset(12, 31)));
    let spec = WorkloadSpec {
        n_queries: 140,
        pool_size: 10, // tiny pool: heavy repeats + heavy slab reuse
        kind: WorkloadKind::Zipf { skew: 1.5 },
        seed: 77,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let mut gc = GraphCache::with_policy(
        dataset,
        Box::new(SiMethod),
        PolicyKind::Lru,
        CacheConfig { capacity: 4, window_size: 1, ..CacheConfig::default() },
    )
    .unwrap();
    for (i, wq) in workload.queries.iter().enumerate() {
        gc.query(&wq.graph, wq.kind);
        if i % 10 == 0 {
            gc.for_each_shard(|_, cm| assert_consistent(cm));
        }
    }
    gc.for_each_shard(|_, cm| assert_consistent(cm));
    let stats = gc.stats();
    assert!(stats.exact_hits > 0, "tiny pool must produce exact hits");
    assert!(stats.evicted > 0, "tiny capacity must produce evictions");
}
