//! Experiment IV (Fig. 2(c)): Cache Replacement views.
//!
//! Reproduces the demo's replacement visualisation: each policy's cache is
//! warmed with the *same* 50 executed queries; the same 10 new workload
//! queries then arrive, forcing one window's worth of replacement. The demo
//! highlights that **different policies evict different graphs** (e.g. the
//! PIN cache evicted ids 39, 41, …, 49 while LRU evicted the oldest).

use gc_bench::write_artifact;
use gc_core::{CacheConfig, EntryId, PolicyKind, SharedGraphCache};
use gc_method::{Dataset, FtvMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Serialize)]
struct ReplacementView {
    policy: String,
    evicted: Vec<EntryId>,
}

fn main() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(100, 66)));
    // Warm workload: 50 distinct queries (the "50 previously executed
    // queries" of the demo); then 10 fresh ones trigger replacement.
    // Drift + repeats: cached entries accumulate *different* utility
    // profiles (some repeat a lot, some save many cheap tests, some few
    // expensive ones), so the five policies rank victims differently.
    let warm_spec = WorkloadSpec {
        n_queries: 400,
        pool_size: 200,
        kind: WorkloadKind::Drift { chain_len: 4, repeat_prob: 0.35 },
        min_edges: 3,
        max_edges: 14,
        seed: 5,
        ..WorkloadSpec::default()
    };
    let warm = Workload::generate(dataset.graphs(), &warm_spec);
    let fresh_spec = WorkloadSpec {
        n_queries: 60,
        pool_size: 60,
        kind: WorkloadKind::Uniform,
        min_edges: 5,
        max_edges: 12,
        seed: 777,
        ..WorkloadSpec::default()
    };
    // Deduplicate so every incoming query is a genuine admission (repeats
    // would be exact hits and never trigger replacement).
    let fresh = {
        let raw = Workload::generate(dataset.graphs(), &fresh_spec);
        let mut seen = std::collections::HashSet::new();
        let mut qs = Vec::new();
        for wq in raw.queries {
            if seen.insert(gc_graph::hash::fingerprint(&wq.graph)) {
                qs.push(wq);
            }
        }
        qs
    };

    let mut views: Vec<ReplacementView> = Vec::new();
    let mut distinct: BTreeMap<String, Vec<EntryId>> = BTreeMap::new();

    println!("=== Experiment IV: Cache Replacement (Fig. 2(c)) ===");
    println!("cache capacity 50, window 10; same warm-up, same 10 incoming queries\n");
    for policy in PolicyKind::all() {
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(FtvMethod::build(&dataset, 2)),
            policy,
            CacheConfig { capacity: 50, window_size: 10, shards: 1, ..CacheConfig::default() },
        )
        .expect("valid config");
        // Warm until the cache is full at 50 entries.
        for wq in &warm.queries {
            gc.query(&wq.graph, wq.kind);
            if gc.len() >= 50 {
                break;
            }
        }
        assert!(gc.len() >= 45, "warm-up must nearly fill the cache (got {})", gc.len());
        // Incoming distinct queries until one full window has been replaced.
        let mut evicted: Vec<EntryId> = Vec::new();
        for wq in &fresh {
            let r = gc.query(&wq.graph, wq.kind);
            evicted.extend(r.evicted);
            if evicted.len() >= 10 {
                break;
            }
        }
        evicted.sort_unstable();
        assert!(!evicted.is_empty(), "incoming window must force replacement");
        println!("{:<5} evicted {:>2} entries: {:?}", policy.to_string(), evicted.len(), evicted);
        distinct.insert(policy.to_string(), evicted.clone());
        views.push(ReplacementView { policy: policy.to_string(), evicted });
    }

    // The demo's point: policies disagree on victims.
    let unique: std::collections::HashSet<&Vec<EntryId>> = distinct.values().collect();
    println!(
        "\ndistinct eviction sets across the 5 policies: {} (paper: \"different graphs are cached out in different caches\")",
        unique.len()
    );
    assert!(unique.len() >= 2, "at least two policies must evict different sets on this workload");
    match write_artifact("exp4_replacement_view", &views) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
}
