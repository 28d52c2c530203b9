//! # gc-bench — the paper's figures for the GC reproduction
//!
//! One binary per table/figure of the paper:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `exp1_policies` | §3.1.I policy competition (+ Fig. 2(c)) |
//! | `exp2_speedup_overhead` | §3.1.II feature-size vs cache trade-off |
//! | `exp3_query_journey` | Fig. 3 pipeline anatomy |
//! | `exp4_replacement_view` | Fig. 2(c) eviction views |
//! | `exp5_scalability` | §1/§2 speedup scaling sweeps |
//! | `exp6_ablation` | ablation of the design choices the paper leaves open |
//!
//! Performance claims are judged with `gcbench` (its own package at the
//! repository root), not with these binaries. This library holds the shared
//! plumbing so every figure reports the paper's metrics the same way:
//! *speedup = avg(Method M) / avg(GC over Method M)* for both sub-iso-test
//! counts and query time (paper §2, Demonstrator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gc_core::{CacheConfig, GlobalStats, GraphCache, PolicyKind};
use gc_method::{execute_base, Dataset, Method};
use gc_workload::Workload;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Aggregate result of running a workload with Method M alone.
#[derive(Debug, Clone, Serialize)]
pub struct BaseAggregate {
    /// Average sub-iso tests per query.
    pub avg_tests: f64,
    /// Average wall-clock per query (seconds).
    pub avg_time_s: f64,
    /// Total queries.
    pub queries: usize,
}

/// Aggregate result of running a workload through GraphCache.
#[derive(Debug, Clone, Serialize)]
pub struct CachedAggregate {
    /// Policy used.
    pub policy: String,
    /// Average sub-iso tests per query (probes charged).
    pub avg_tests: f64,
    /// Average wall-clock per query (seconds).
    pub avg_time_s: f64,
    /// Fraction of queries with any hit.
    pub hit_ratio: f64,
    /// Entries evicted over the run.
    pub evicted: u64,
    /// Speedup in tests vs the base aggregate.
    pub test_speedup: f64,
    /// Speedup in time vs the base aggregate.
    pub time_speedup: f64,
    /// Final cache memory (bytes).
    pub cache_bytes: usize,
}

/// Run the workload through Method M without a cache.
pub fn run_base(dataset: &Arc<Dataset>, method: &dyn Method, workload: &Workload) -> BaseAggregate {
    let mut tests = 0u64;
    let mut time = Duration::ZERO;
    for wq in &workload.queries {
        let r = execute_base(dataset, method, gc_method::Engine::Vf2, &wq.graph, wq.kind);
        tests += r.sub_iso_tests as u64;
        time += r.elapsed;
    }
    let n = workload.len().max(1) as f64;
    BaseAggregate {
        avg_tests: tests as f64 / n,
        avg_time_s: time.as_secs_f64() / n,
        queries: workload.len(),
    }
}

/// Run the workload through GraphCache with the given policy.
pub fn run_cached(
    dataset: &Arc<Dataset>,
    method: Box<dyn Method>,
    policy: PolicyKind,
    config: &CacheConfig,
    workload: &Workload,
    base: &BaseAggregate,
) -> CachedAggregate {
    let mut gc = GraphCache::with_policy(dataset.clone(), method, policy, config.clone())
        .expect("valid config");
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }
    let stats = gc.stats();
    aggregate(&stats, gc.memory_bytes(), policy, base)
}

fn aggregate(
    stats: &GlobalStats,
    cache_bytes: usize,
    policy: PolicyKind,
    base: &BaseAggregate,
) -> CachedAggregate {
    let avg_tests = stats.avg_tests_per_query();
    let avg_time_s = stats.avg_time_per_query().as_secs_f64();
    CachedAggregate {
        policy: policy.to_string(),
        avg_tests,
        avg_time_s,
        hit_ratio: stats.hit_ratio(),
        evicted: stats.evicted,
        test_speedup: if avg_tests > 0.0 { base.avg_tests / avg_tests } else { f64::INFINITY },
        time_speedup: if avg_time_s > 0.0 { base.avg_time_s / avg_time_s } else { f64::INFINITY },
        cache_bytes,
    }
}

/// Write a JSON artefact under `bench_results/` (created on demand); the
/// experiments record their measurements there beside the printed table.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// Simple fixed-width table printer shared by the experiment binaries.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(c.len());
        }
    }
    let prow = |cells: &[String]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{c:<w$}  ", w = widths[i]));
        }
        println!("{}", line.trim_end());
    };
    prow(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * ncols));
    for row in rows {
        prow(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_method::SiMethod;
    use gc_workload::{molecule_dataset, WorkloadKind, WorkloadSpec};

    #[test]
    fn base_and_cached_aggregates() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(10, 3)));
        let spec = WorkloadSpec {
            n_queries: 20,
            pool_size: 5,
            kind: WorkloadKind::Zipf { skew: 1.0 },
            seed: 1,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(dataset.graphs(), &spec);
        let base = run_base(&dataset, &SiMethod, &w);
        assert_eq!(base.queries, 20);
        assert!(base.avg_tests > 0.0);
        let cfg = CacheConfig { capacity: 8, window_size: 2, ..CacheConfig::default() };
        let cached = run_cached(&dataset, Box::new(SiMethod), PolicyKind::Hd, &cfg, &w, &base);
        assert!(cached.test_speedup > 1.0, "repetition must speed things up");
        assert!(cached.hit_ratio > 0.0);
    }
}
