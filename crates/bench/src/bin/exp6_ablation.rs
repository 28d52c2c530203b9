//! Experiment VI (extension): ablation of GC's design choices.
//!
//! The paper leaves several mechanisms unspecified; this harness quantifies
//! the choices made by this reproduction:
//!
//! 1. **HD formula** — bundled rank-sum HD vs an arithmetic-normalised HD,
//!    vs pure PIN/PINC, vs GreedyDual-Size and a Random control;
//! 2. **window size** — replacement batching {1, 5, 10, 25};
//! 3. **admission threshold** — `min_admit_tests` ∈ {0, 1, 4, 16}.

use gc_bench::{print_table, run_base, write_artifact, BaseAggregate};
use gc_core::policy_ext::{GdsPolicy, HdArithPolicy, RandomPolicy};
use gc_core::{CacheConfig, GraphCache, PolicyKind, ReplacementPolicy};
use gc_method::{Dataset, FtvMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct AblationRow {
    axis: String,
    variant: String,
    test_speedup: f64,
    hit_ratio: f64,
}

fn run_with_policy(
    dataset: &Arc<Dataset>,
    policy: Box<dyn ReplacementPolicy>,
    config: &CacheConfig,
    workload: &Workload,
    base: &BaseAggregate,
) -> (f64, f64) {
    let mut gc = GraphCache::new(
        dataset.clone(),
        Box::new(FtvMethod::build(dataset, 2)),
        policy,
        config.clone(),
    )
    .expect("valid config");
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }
    let stats = gc.stats();
    (base.avg_tests / stats.avg_tests_per_query(), stats.hit_ratio())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_queries = if quick { 500 } else { 2500 };
    let dataset = Arc::new(Dataset::new(molecule_dataset(if quick { 150 } else { 300 }, 515)));
    let spec = WorkloadSpec {
        n_queries,
        pool_size: 200,
        kind: WorkloadKind::Drift { chain_len: 4, repeat_prob: 0.3 },
        min_edges: 4,
        max_edges: 12,
        seed: 61,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let base = run_base(&dataset, &FtvMethod::build(&dataset, 2), &workload);
    let tight = CacheConfig { capacity: 25, window_size: 10, ..CacheConfig::default() };
    let mut rows_json: Vec<AblationRow> = Vec::new();

    // --- axis 1: eviction formula --------------------------------------------
    let mut rows = Vec::new();
    let variants: Vec<(&str, Box<dyn ReplacementPolicy>)> = vec![
        ("HD (rank-sum, bundled)", PolicyKind::Hd.make()),
        ("HD-arith", Box::new(HdArithPolicy::new())),
        ("PIN", PolicyKind::Pin.make()),
        ("PINC", PolicyKind::Pinc.make()),
        ("GDS", Box::new(GdsPolicy::new())),
        ("Random", Box::new(RandomPolicy::new(99))),
    ];
    for (name, policy) in variants {
        let (speedup, hit) = run_with_policy(&dataset, policy, &tight, &workload, &base);
        rows.push(vec![name.to_string(), format!("{speedup:.2}x"), format!("{:.0}%", 100.0 * hit)]);
        rows_json.push(AblationRow {
            axis: "formula".into(),
            variant: name.into(),
            test_speedup: speedup,
            hit_ratio: hit,
        });
    }
    println!("=== Experiment VI: design-choice ablations (drift workload, capacity 25) ===\n");
    println!("axis 1: eviction formula");
    print_table(&["variant", "test-speedup", "hit%"], &rows);

    // --- axis 2: window size --------------------------------------------------
    let mut rows = Vec::new();
    for window in [1usize, 5, 10, 25] {
        let cfg = CacheConfig { window_size: window, ..tight.clone() };
        let (speedup, hit) =
            run_with_policy(&dataset, PolicyKind::Hd.make(), &cfg, &workload, &base);
        rows.push(vec![
            window.to_string(),
            format!("{speedup:.2}x"),
            format!("{:.0}%", 100.0 * hit),
        ]);
        rows_json.push(AblationRow {
            axis: "window".into(),
            variant: window.to_string(),
            test_speedup: speedup,
            hit_ratio: hit,
        });
    }
    println!("\naxis 2: admission window size (replacement batching)");
    print_table(&["window", "test-speedup", "hit%"], &rows);

    // --- axis 3: admission threshold -------------------------------------------
    let mut rows = Vec::new();
    for min_tests in [0usize, 1, 4, 16] {
        let cfg = CacheConfig { min_admit_tests: min_tests, ..tight.clone() };
        let (speedup, hit) =
            run_with_policy(&dataset, PolicyKind::Hd.make(), &cfg, &workload, &base);
        rows.push(vec![
            min_tests.to_string(),
            format!("{speedup:.2}x"),
            format!("{:.0}%", 100.0 * hit),
        ]);
        rows_json.push(AblationRow {
            axis: "admission".into(),
            variant: min_tests.to_string(),
            test_speedup: speedup,
            hit_ratio: hit,
        });
    }
    println!("\naxis 3: admission threshold (min sub-iso tests to cache a query)");
    print_table(&["min tests", "test-speedup", "hit%"], &rows);

    match write_artifact("exp6_ablation", &rows_json) {
        Ok(p) => println!("\nartifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
}
