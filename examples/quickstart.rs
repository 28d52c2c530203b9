//! Quickstart: build a dataset, wrap a base method with GraphCache, run a
//! workload, and read the speedup.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graphcache::prelude::*;
use std::sync::Arc;

fn main() {
    // A dataset of 100 molecule-like graphs (the demo deployment uses 100
    // AIDS molecules; `gc_workload::molecules` documents the substitution).
    let dataset = Arc::new(Dataset::new(molecule_dataset(100, 2018)));
    println!(
        "dataset: {} graphs, avg {:.1} vertices",
        dataset.len(),
        dataset.graphs().iter().map(|g| g.vertex_count()).sum::<usize>() as f64
            / dataset.len() as f64
    );

    // Method M: filter-then-verify over a path index of feature size 3.
    let method = Box::new(FtvMethod::build(&dataset, 3));
    println!("method: {} ({} KiB index)", method.name(), method.index_memory_bytes() / 1024);

    // GraphCache over Method M with the HD policy (the paper's
    // when-in-doubt recommendation).
    let mut gc = GraphCache::with_policy(
        dataset.clone(),
        method,
        PolicyKind::Hd,
        CacheConfig { capacity: 50, window_size: 10, ..CacheConfig::default() },
    )
    .expect("valid config");

    // A skewed workload of 500 subgraph queries.
    let spec = WorkloadSpec {
        n_queries: 500,
        pool_size: 120,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        seed: 7,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    // Run it, also measuring the no-cache baseline for the speedup.
    let baseline = FtvMethod::build(&dataset, 3);
    let mut base_tests = 0u64;
    for wq in &workload.queries {
        base_tests +=
            execute_base(&dataset, &baseline, Engine::Vf2, &wq.graph, wq.kind).sub_iso_tests as u64;
    }
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }

    let stats = gc.stats();
    println!("\nafter {} queries:", stats.queries);
    println!("  hit ratio          : {:.1}%", 100.0 * stats.hit_ratio());
    println!("  exact hits         : {}", stats.exact_hits);
    println!("  sub-case hits      : {}", stats.sub_hits);
    println!("  super-case hits    : {}", stats.super_hits);
    println!(
        "  tests executed     : {} (+{} cache probes)",
        stats.tests_executed, stats.probe_tests
    );
    println!("  tests saved        : {}", stats.tests_saved);
    let base_avg = base_tests as f64 / workload.len() as f64;
    let speedup = base_avg / stats.avg_tests_per_query();
    println!(
        "  sub-iso test speedup: {:.2}x ({:.2} -> {:.2} tests/query)",
        speedup,
        base_avg,
        stats.avg_tests_per_query()
    );
    println!(
        "  cache memory        : {} KiB ({:.2}% of the FTV index)",
        gc.memory_bytes() / 1024,
        100.0 * gc.memory_bytes() as f64 / gc.method_index_bytes().max(1) as f64
    );
}
