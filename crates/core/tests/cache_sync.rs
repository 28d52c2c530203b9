//! Regression tests: `CacheManager::insert`/`remove` must keep the
//! fingerprint table and the containment `QueryIndex` exactly in sync with
//! the live entry set, across slab reuse, duplicate fingerprints and
//! eviction sweeps.
//!
//! A stale `EntryId` left in a fingerprint bucket would make
//! `find_exact` panic ("bucket holds live entries") or serve a wrong
//! exact-match; a stale id in the query index would make probe candidates
//! point at dead or reused slots. These tests hammer the mutation paths and
//! then assert full structural consistency.

use gc_core::{CacheConfig, CacheManager, EntryId, GraphCache, PolicyKind};
use gc_index::FeatureConfig;
use gc_method::{Dataset, QueryKind, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use std::sync::Arc;

mod common;
use common::assert_consistent;

/// Deterministic splitmix-style counter so the stress is reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

#[test]
fn interleaved_insert_remove_keeps_structures_in_sync() {
    let graphs = molecule_dataset(12, 99);
    let mut cm = CacheManager::new(FeatureConfig::with_max_len(2));
    let mut live: Vec<EntryId> = Vec::new();
    let mut rng = Lcg(7);
    for step in 0..400 {
        let remove = !live.is_empty() && rng.next().is_multiple_of(3);
        if remove {
            let idx = (rng.next() as usize) % live.len();
            let id = live.swap_remove(idx);
            assert!(cm.remove(id).is_some(), "live id {id} must remove");
            assert!(cm.remove(id).is_none(), "double-remove of {id} must be a no-op");
        } else {
            // Insert graphs cyclically: repeats produce identical
            // fingerprints, packing multiple ids into one bucket, and slab
            // reuse recycles freed ids into fresh buckets.
            let g = graphs[(step as usize) % graphs.len()].clone();
            let answer = gc_graph::BitSet::new(4);
            let id = cm.insert(g, QueryKind::Subgraph, answer, 4, 10, step);
            live.push(id);
        }
        if step % 25 == 0 {
            assert_consistent(&cm);
        }
    }
    assert_consistent(&cm);
    // Drain completely: every structure must end empty.
    for id in live {
        cm.remove(id);
    }
    assert!(cm.is_empty());
    assert_eq!(cm.ids().len(), 0);
    assert_consistent(&cm);
}

#[test]
fn eviction_sweeps_leave_no_stale_bucket_ids() {
    // Tiny capacity + window 1 under a wide workload: every query triggers
    // a sweep, maximizing (admit, evict, slab-reuse) interleavings through
    // the full runtime path.
    let dataset = Arc::new(Dataset::new(molecule_dataset(20, 123)));
    let spec = WorkloadSpec {
        n_queries: 120,
        pool_size: 120,
        kind: WorkloadKind::Uniform,
        seed: 5,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    for policy in PolicyKind::all() {
        let mut gc = GraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            policy,
            CacheConfig { capacity: 4, window_size: 1, ..CacheConfig::default() },
        )
        .unwrap();
        for wq in &workload.queries {
            gc.query(&wq.graph, wq.kind);
            gc.for_each_shard(|_, cm| assert_consistent(cm));
        }
        assert!(gc.stats().evicted > 0, "policy {policy} must have evicted");
    }
}

#[test]
fn byte_budget_eviction_loop_stays_consistent() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(15, 321)));
    let spec = WorkloadSpec {
        n_queries: 60,
        pool_size: 60,
        kind: WorkloadKind::Uniform,
        seed: 9,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let mut gc = GraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig {
            capacity: 1000,
            window_size: 2,
            max_bytes: Some(8 * 1024),
            ..CacheConfig::default()
        },
    )
    .unwrap();
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
        gc.for_each_shard(|_, cm| assert_consistent(cm));
    }
    assert!(gc.stats().evicted > 0);
}
