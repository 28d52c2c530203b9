//! Experiment V: speedup scaling sweeps (paper §1 "speedups up to 40×",
//! §2 Demonstrator metrics).
//!
//! The kernel papers measure how GC's speedup responds to cache size,
//! workload skew, and probing budgets. This harness sweeps:
//!
//! 1. cache capacity ∈ {25, 50, 100, 200, 400} at fixed skew;
//! 2. workload skew ∈ {0.0, 0.6, 1.2, 1.8} at fixed capacity —
//!    skew is where the up-to-40× regime lives: the more repetition and
//!    containment structure, the larger the speedup;
//! 3. hit-check cap ([`CacheConfig::max_hit_checks`], per direction and
//!    per shard; these runs use one shard) ∈ {4, 16, 64, 256}.

use gc_bench::{print_table, run_base, run_cached, write_artifact};
use gc_core::{CacheConfig, PolicyKind};
use gc_method::{Dataset, FtvMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct SweepPoint {
    sweep: String,
    x: f64,
    test_speedup: f64,
    time_speedup: f64,
    hit_ratio: f64,
}

fn spec_with(skew: f64, n_queries: usize) -> WorkloadSpec {
    WorkloadSpec {
        n_queries,
        pool_size: 300,
        kind: if skew == 0.0 { WorkloadKind::Uniform } else { WorkloadKind::Zipf { skew } },
        min_edges: 4,
        max_edges: 12,
        seed: 11,
        ..WorkloadSpec::default()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_queries = if quick { 500 } else { 2500 };
    let dataset = Arc::new(Dataset::new(molecule_dataset(if quick { 150 } else { 400 }, 3007)));
    let mut points: Vec<SweepPoint> = Vec::new();

    // --- sweep 1: cache capacity --------------------------------------------
    let workload = Workload::generate(dataset.graphs(), &spec_with(1.2, n_queries));
    let base = run_base(&dataset, &FtvMethod::build(&dataset, 2), &workload);
    let mut rows = Vec::new();
    for capacity in [25usize, 50, 100, 200, 400] {
        let cfg = CacheConfig { capacity, window_size: 10, ..CacheConfig::default() };
        let out = run_cached(
            &dataset,
            Box::new(FtvMethod::build(&dataset, 2)),
            PolicyKind::Hd,
            &cfg,
            &workload,
            &base,
        );
        rows.push(vec![
            capacity.to_string(),
            format!("{:.2}x", out.test_speedup),
            format!("{:.2}x", out.time_speedup),
            format!("{:.0}%", 100.0 * out.hit_ratio),
        ]);
        points.push(SweepPoint {
            sweep: "capacity".into(),
            x: capacity as f64,
            test_speedup: out.test_speedup,
            time_speedup: out.time_speedup,
            hit_ratio: out.hit_ratio,
        });
    }
    println!("=== Experiment V: scalability sweeps (HD policy, FTV(2) base) ===\n");
    println!("sweep 1: cache capacity (zipf 1.2, {n_queries} queries)");
    print_table(&["capacity", "test-speedup", "time-speedup", "hit%"], &rows);

    // --- sweep 2: workload skew ----------------------------------------------
    let mut rows = Vec::new();
    for skew in [0.0f64, 0.6, 1.2, 1.8] {
        let workload = Workload::generate(dataset.graphs(), &spec_with(skew, n_queries));
        let base = run_base(&dataset, &FtvMethod::build(&dataset, 2), &workload);
        let cfg = CacheConfig { capacity: 100, window_size: 10, ..CacheConfig::default() };
        let out = run_cached(
            &dataset,
            Box::new(FtvMethod::build(&dataset, 2)),
            PolicyKind::Hd,
            &cfg,
            &workload,
            &base,
        );
        rows.push(vec![
            format!("{skew:.1}"),
            format!("{:.2}x", out.test_speedup),
            format!("{:.2}x", out.time_speedup),
            format!("{:.0}%", 100.0 * out.hit_ratio),
        ]);
        points.push(SweepPoint {
            sweep: "skew".into(),
            x: skew,
            test_speedup: out.test_speedup,
            time_speedup: out.time_speedup,
            hit_ratio: out.hit_ratio,
        });
    }
    println!("\nsweep 2: workload skew (capacity 100) — the up-to-40x regime grows with skew");
    print_table(&["zipf skew", "test-speedup", "time-speedup", "hit%"], &rows);

    // --- sweep 3: hit-check cap ----------------------------------------------
    let workload = Workload::generate(dataset.graphs(), &spec_with(1.2, n_queries.min(1000)));
    let base = run_base(&dataset, &FtvMethod::build(&dataset, 2), &workload);
    let mut rows = Vec::new();
    for checks in [4usize, 16, 64, 256] {
        let cfg = CacheConfig {
            capacity: 100,
            window_size: 10,
            max_hit_checks: checks,
            ..CacheConfig::default()
        };
        let out = run_cached(
            &dataset,
            Box::new(FtvMethod::build(&dataset, 2)),
            PolicyKind::Hd,
            &cfg,
            &workload,
            &base,
        );
        rows.push(vec![
            checks.to_string(),
            format!("{:.2}x", out.test_speedup),
            format!("{:.0}%", 100.0 * out.hit_ratio),
        ]);
        points.push(SweepPoint {
            sweep: "hit_budget".into(),
            x: checks as f64,
            test_speedup: out.test_speedup,
            time_speedup: out.time_speedup,
            hit_ratio: out.hit_ratio,
        });
    }
    println!("\nsweep 3: hit-check cap (max candidates verified per query, each direction)");
    print_table(&["cap", "test-speedup", "hit%"], &rows);

    match write_artifact("exp5_scalability", &points) {
        Ok(p) => println!("\nartifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
}
