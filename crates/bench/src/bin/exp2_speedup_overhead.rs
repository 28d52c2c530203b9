//! Experiment II (paper §3.1.II): Speedup versus Overhead.
//!
//! Claims to reproduce (shape, not absolute numbers):
//!
//! 1. increasing the FTV feature size by one (`L → L+1`) improves average
//!    query time by roughly 10% but ~doubles the index space;
//! 2. GC over FTV(L) achieves large query-time speedups with *negligible*
//!    space overhead — the paper reports GC memory just over 1% of the FTV
//!    indices with speedups up to 40× on the AIDS dataset.

use gc_bench::{print_table, run_base, run_cached, write_artifact};
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_method::{Dataset, FtvMethod, FtvTreeMethod, Method};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Exp2Result {
    l: usize,
    ftv_l_avg_time_ms: f64,
    ftv_l1_avg_time_ms: f64,
    time_change_pct: f64,
    index_l_bytes: usize,
    index_l1_bytes: usize,
    space_ratio: f64,
    gc_time_speedup: f64,
    gc_test_speedup: f64,
    gc_memory_bytes: usize,
    gc_memory_vs_index_pct: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_graphs = if quick { 200 } else { 800 };
    let n_queries = if quick { 600 } else { 3000 };
    let l = 2usize;

    let dataset = Arc::new(Dataset::new(molecule_dataset(n_graphs, 4242)));
    let spec = WorkloadSpec {
        n_queries,
        pool_size: n_queries / 10,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        min_edges: 4,
        max_edges: 12,
        seed: 99,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    // --- FTV(L) vs FTV(L+1): filtering power vs space -----------------------
    let ftv_l = FtvMethod::build(&dataset, l);
    let ftv_l1 = FtvMethod::build(&dataset, l + 1);
    let index_l = ftv_l.index_memory_bytes();
    let index_l1 = ftv_l1.index_memory_bytes();
    let base_l = run_base(&dataset, &ftv_l, &workload);
    let base_l1 = run_base(&dataset, &ftv_l1, &workload);

    // --- alternative feature family: trees of the same size ------------------
    let ftv_tree = FtvTreeMethod::build(&dataset, l);
    let index_tree = ftv_tree.index_memory_bytes();
    let base_tree = run_base(&dataset, &ftv_tree, &workload);

    // --- GC over FTV(L) ------------------------------------------------------
    let config = CacheConfig { capacity: 50, window_size: 10, shards: 1, ..CacheConfig::default() };
    let gc_run = run_cached(
        &dataset,
        Box::new(FtvMethod::build(&dataset, l)),
        PolicyKind::Hd,
        &config,
        &workload,
        &base_l,
    );
    // Re-run to capture final memory via a live instance (run_cached reports
    // it, but we also want the entry count for the table).
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, l)),
        PolicyKind::Hd,
        config,
    )
    .expect("valid config");
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }

    let time_change = 100.0 * (base_l1.avg_time_s - base_l.avg_time_s) / base_l.avg_time_s;
    let result = Exp2Result {
        l,
        ftv_l_avg_time_ms: base_l.avg_time_s * 1e3,
        ftv_l1_avg_time_ms: base_l1.avg_time_s * 1e3,
        time_change_pct: time_change,
        index_l_bytes: index_l,
        index_l1_bytes: index_l1,
        space_ratio: index_l1 as f64 / index_l as f64,
        gc_time_speedup: gc_run.time_speedup,
        gc_test_speedup: gc_run.test_speedup,
        gc_memory_bytes: gc.memory_bytes(),
        gc_memory_vs_index_pct: 100.0 * gc.memory_bytes() as f64 / index_l as f64,
    };

    println!("=== Experiment II: Speedup versus Overhead ===");
    println!("dataset: {n_graphs} molecule-like graphs; {n_queries} Zipf queries\n");
    print_table(
        &["configuration", "avg time/query", "index/cache memory", "vs FTV(L)"],
        &[
            vec![
                format!("FTV(L={l})"),
                format!("{:.3} ms", result.ftv_l_avg_time_ms),
                format!("{} KiB", index_l / 1024),
                "1.00x time, 1.00x space".to_string(),
            ],
            vec![
                format!("FTV(L={})", l + 1),
                format!("{:.3} ms", result.ftv_l1_avg_time_ms),
                format!("{} KiB", index_l1 / 1024),
                format!("{:+.1}% time, {:.2}x space", result.time_change_pct, result.space_ratio),
            ],
            vec![
                format!("FTV-tree(T={l})"),
                format!("{:.3} ms", base_tree.avg_time_s * 1e3),
                format!("{} KiB", index_tree / 1024),
                format!(
                    "{:+.1}% time, {:.2}x space",
                    100.0 * (base_tree.avg_time_s - base_l.avg_time_s) / base_l.avg_time_s,
                    index_tree as f64 / index_l as f64
                ),
            ],
            vec![
                format!("GC over FTV(L={l})"),
                format!("{:.3} ms", base_l.avg_time_s * 1e3 / result.gc_time_speedup),
                format!(
                    "{} KiB cache ({:.1}% of index)",
                    result.gc_memory_bytes / 1024,
                    result.gc_memory_vs_index_pct
                ),
                format!(
                    "{:.2}x time speedup, {:.2}x test speedup",
                    result.gc_time_speedup, result.gc_test_speedup
                ),
            ],
        ],
    );
    println!(
        "\npaper's shape: L+1 gives ~-10% time at ~2x space; GC gives large speedups at ~1% space."
    );
    println!(
        "measured     : L+1 gives {:+.1}% time at {:.2}x space; GC gives {:.2}x at {:.1}% space.",
        result.time_change_pct,
        result.space_ratio,
        result.gc_time_speedup,
        result.gc_memory_vs_index_pct
    );
    match write_artifact("exp2_speedup_overhead", &result) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
}
