//! Social-network scenario: broad-to-narrow audience queries.
//!
//! Paper §1: "social networking queries may start off broad (e.g., all the
//! people in a geographic location) and become narrower (e.g., those having
//! specific demographics)". We model a dataset of labelled ego-network
//! snapshots (heavy-tailed, preferential attachment) and a mixed workload of
//! subgraph *and* supergraph queries produced by drifting sessions.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use gc_workload::random::ba_dataset;
use graphcache::prelude::*;
use std::sync::Arc;

fn main() {
    // 120 ego-network snapshots of 40 vertices each; 6 demographic labels.
    let dataset = Arc::new(Dataset::new(ba_dataset(120, 40, 2, 6, 909)));
    println!(
        "dataset: {} ego-networks, avg degree {:.1}, max degree {}",
        dataset.len(),
        dataset.graphs().iter().map(|g| g.avg_degree()).sum::<f64>() / dataset.len() as f64,
        dataset.graphs().iter().map(|g| g.max_degree()).max().unwrap()
    );

    let spec = WorkloadSpec {
        n_queries: 250,
        kind: WorkloadKind::Drift { chain_len: 4, repeat_prob: 0.25 },
        min_edges: 2,
        max_edges: 8,
        supergraph_fraction: 0.3, // audience-containment questions
        seed: 31,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let n_super = workload.queries.iter().filter(|q| q.kind == QueryKind::Supergraph).count();
    println!(
        "workload: {} queries ({} subgraph, {} supergraph), drifting sessions\n",
        workload.len(),
        workload.len() - n_super,
        n_super
    );

    // Baseline (no cache) for the speedup.
    let baseline = SiMethod;
    let mut base_tests = 0u64;
    for wq in &workload.queries {
        base_tests +=
            execute_base(&dataset, &baseline, Engine::Vf2, &wq.graph, wq.kind).sub_iso_tests as u64;
    }

    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig { capacity: 60, window_size: 8, shards: 1, ..CacheConfig::default() },
    )
    .expect("valid config");
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }

    let stats = gc.stats();
    let base_avg = base_tests as f64 / workload.len() as f64;
    println!("results over SI method (no index):");
    println!("  hit ratio            : {:.0}%", 100.0 * stats.hit_ratio());
    println!(
        "  hits by case         : {} exact, {} sub, {} super",
        stats.exact_hits, stats.sub_hits, stats.super_hits
    );
    println!(
        "  avg sub-iso tests/qry: {:.1} (base method: {:.1})",
        stats.avg_tests_per_query(),
        base_avg
    );
    println!("  sub-iso test speedup : {:.2}x", base_avg / stats.avg_tests_per_query());
}
