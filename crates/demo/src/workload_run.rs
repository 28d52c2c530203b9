//! Scenario II: The Workload Run (paper §3.2, Fig. 2(b,c)).
//!
//! Runs the same workload through one GraphCache instance per replacement
//! policy (all over the same Method M), tracking per-query hit percentages
//! and which entries each policy evicts, then renders the side-by-side
//! comparison the demo shows — different policies evict different graphs,
//! with different resulting speedups.
//!
//! Also hosts the **multi-client mode** ([`run_multi_client`]): the same
//! workload striped across N client threads hammering one
//! [`SharedGraphCache`], with optional per-answer verification against a
//! sequential replay — the demo surface of the concurrent front-end.

use crate::ascii;
use gc_core::{
    CacheConfig, CacheStore, EntryId, GlobalStats, GraphCache, PolicyKind, RecoveryReport,
    SharedGraphCache, SnapshotInfo,
};
use gc_method::{execute_base, Dataset, Engine, Method};
use gc_workload::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one policy's run over the workload.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: PolicyKind,
    /// Final cache statistics.
    pub stats: GlobalStats,
    /// Entry ids evicted, in eviction order.
    pub evicted: Vec<EntryId>,
    /// Entry ids resident at the end.
    pub resident: Vec<EntryId>,
    /// Per-query cache-hit flags (for the hit-percentage timeline).
    pub hit_timeline: Vec<bool>,
    /// Per-query hit percentage: verified hits over cached entries at the
    /// time of the query (the demo's "number of cache-hits over the number
    /// of cached graphs").
    pub hit_pct_timeline: Vec<f64>,
    /// Speedup in average sub-iso tests vs the base method (probe tests
    /// charged to the cache).
    pub test_speedup: f64,
    /// Speedup in average query time vs the base method.
    pub time_speedup: f64,
}

/// The full comparison across policies.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    /// One outcome per policy, in [`PolicyKind::all`] order.
    pub outcomes: Vec<PolicyOutcome>,
    /// Average sub-iso tests per query of the base method.
    pub base_avg_tests: f64,
    /// Average query time of the base method.
    pub base_avg_time: Duration,
}

/// Run `workload` under every bundled policy over caches built by
/// `make_method` (one fresh Method M per policy so indices are unshared),
/// and also through the base method alone for the speedup denominator.
pub fn run_workload_comparison(
    dataset: &Arc<Dataset>,
    make_method: &dyn Fn() -> Box<dyn Method>,
    config: &CacheConfig,
    workload: &Workload,
) -> WorkloadComparison {
    // Base method side (the speedup denominator... numerator in the paper's
    // ratio: speedup = base avg / GC avg).
    let base_method = make_method();
    let mut base_tests = 0u64;
    let mut base_time = Duration::ZERO;
    for wq in &workload.queries {
        let run = execute_base(dataset, base_method.as_ref(), Engine::Vf2, &wq.graph, wq.kind);
        base_tests += run.sub_iso_tests as u64;
        base_time += run.elapsed;
    }
    let n = workload.len().max(1) as f64;
    let base_avg_tests = base_tests as f64 / n;
    let base_avg_time = base_time.div_f64(n);

    let outcomes = PolicyKind::all()
        .into_iter()
        .map(|policy| {
            let mut gc =
                GraphCache::with_policy(dataset.clone(), make_method(), policy, config.clone())
                    .expect("valid config");
            let mut evicted = Vec::new();
            let mut hit_timeline = Vec::with_capacity(workload.len());
            let mut hit_pct_timeline = Vec::with_capacity(workload.len());
            for wq in &workload.queries {
                let cached = gc.len().max(1);
                let r = gc.query(&wq.graph, wq.kind);
                evicted.extend(r.evicted.iter().copied());
                hit_timeline.push(r.any_hit());
                let hits = r.sub_hits.len() + r.super_hits.len() + usize::from(r.exact_hit);
                hit_pct_timeline.push(100.0 * hits as f64 / cached as f64);
            }
            let stats = gc.stats();
            let gc_avg_tests = stats.avg_tests_per_query();
            let gc_avg_time = stats.avg_time_per_query();
            let mut resident = Vec::new();
            gc.for_each_shard(|_, cm| resident.extend(cm.ids()));
            PolicyOutcome {
                policy,
                evicted,
                resident,
                hit_timeline,
                hit_pct_timeline,
                test_speedup: if gc_avg_tests > 0.0 {
                    base_avg_tests / gc_avg_tests
                } else {
                    base_avg_tests
                },
                time_speedup: if gc_avg_time > Duration::ZERO {
                    base_avg_time.as_secs_f64() / gc_avg_time.as_secs_f64()
                } else {
                    f64::INFINITY
                },
                stats,
            }
        })
        .collect();

    WorkloadComparison { outcomes, base_avg_tests, base_avg_time }
}

impl WorkloadComparison {
    /// Render the Fig. 2(b,c)-style comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== The Workload Run: policy comparison ===\n");
        out.push_str(&format!(
            "base method: {:.2} sub-iso tests/query, {:.3} ms/query\n\n",
            self.base_avg_tests,
            self.base_avg_time.as_secs_f64() * 1e3
        ));
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.policy.to_string(),
                    format!("{:.1}%", 100.0 * o.stats.hit_ratio()),
                    format!("{:.2}", o.stats.avg_tests_per_query()),
                    format!("{:.2}x", o.test_speedup),
                    format!("{:.2}x", o.time_speedup),
                    format!("{}", o.stats.evicted),
                    crate::ascii_ids(&o.evicted, 10),
                ]
            })
            .collect();
        out.push_str(&ascii::table(
            &[
                "policy",
                "hit%",
                "tests/q",
                "test-speedup",
                "time-speedup",
                "#evicted",
                "evicted ids",
            ],
            &rows,
        ));
        out.push('\n');
        let bars: Vec<(String, f64)> =
            self.outcomes.iter().map(|o| (o.policy.to_string(), o.test_speedup)).collect();
        out.push_str("test-speedup by policy:\n");
        out.push_str(&ascii::bar_chart(&bars, 40));
        out
    }

    /// Sparkline-style rendering of one policy's hit-percentage timeline,
    /// bucketed into `buckets` workload phases (Scenario II: "upon each
    /// executed query, users can view sub/super case cache hit in
    /// percentage").
    pub fn render_timeline(&self, policy: PolicyKind, buckets: usize) -> String {
        let Some(o) = self.outcomes.iter().find(|o| o.policy == policy) else {
            return format!("no outcome for policy {policy}\n");
        };
        let n = o.hit_pct_timeline.len();
        if n == 0 || buckets == 0 {
            return String::new();
        }
        let per = n.div_ceil(buckets);
        let rows: Vec<(String, f64)> = o
            .hit_pct_timeline
            .chunks(per)
            .enumerate()
            .map(|(i, chunk)| {
                let avg = chunk.iter().sum::<f64>() / chunk.len() as f64;
                (format!("queries {:>4}-{:<4}", i * per + 1, i * per + chunk.len()), avg)
            })
            .collect();
        format!("hit % of cached entries over time ({policy}):\n{}", ascii::bar_chart(&rows, 30))
    }

    /// The best-performing policy by test speedup.
    pub fn winner(&self) -> PolicyKind {
        self.outcomes
            .iter()
            .max_by(|a, b| a.test_speedup.partial_cmp(&b.test_speedup).expect("no NaN"))
            .expect("non-empty outcomes")
            .policy
    }
}

// ---------------------------------------------------------------------------
// Multi-client mode
// ---------------------------------------------------------------------------

/// Outcome of running a workload through one [`SharedGraphCache`] from N
/// concurrent client threads.
#[derive(Debug, Clone)]
pub struct MultiClientRun {
    /// Client thread count.
    pub clients: usize,
    /// Replacement policy used.
    pub policy: PolicyKind,
    /// Total queries served (across all clients).
    pub queries: usize,
    /// Wall-clock time from first to last query.
    pub elapsed: Duration,
    /// Served queries per second of wall-clock time.
    pub throughput_qps: f64,
    /// Final cache statistics.
    pub stats: GlobalStats,
    /// Answers that differed from the sequential replay (always 0; counted
    /// only when verification was requested).
    pub mismatches: usize,
    /// Whether answers were verified against a sequential [`GraphCache`]
    /// replay of the same workload.
    pub verified: bool,
}

/// Run `workload` through one [`SharedGraphCache`] from `clients` threads
/// (queries striped round-robin), measuring throughput.
///
/// With `verify_answers`, the same workload is first replayed through a
/// sequential [`GraphCache`] over an identically-built Method M, and every
/// concurrent answer is compared bit-for-bit (paper §1 Problem (2): the
/// shared front-end may not introduce false positives/negatives).
pub fn run_multi_client(
    dataset: &Arc<Dataset>,
    make_method: &dyn Fn() -> Box<dyn Method>,
    policy: PolicyKind,
    config: &CacheConfig,
    workload: &Workload,
    clients: usize,
    verify_answers: bool,
) -> MultiClientRun {
    let clients = clients.max(1);
    let expected: Vec<gc_graph::BitSet> = if verify_answers {
        let mut seq =
            GraphCache::with_policy(dataset.clone(), make_method(), policy, config.clone())
                .expect("valid config");
        workload.queries.iter().map(|wq| seq.query(&wq.graph, wq.kind).answer).collect()
    } else {
        Vec::new()
    };

    let gc = SharedGraphCache::with_policy(dataset.clone(), make_method(), policy, config.clone())
        .expect("valid config");
    drive_clients(&gc, policy, workload, clients, verify_answers, &expected)
}

/// [`run_multi_client`] with persistence threaded through: the shared
/// cache is warm-restarted from `store` (the snapshot's entries, each
/// re-routed to its home shard, over the journal's dataset), the workload
/// runs as usual, and a closing snapshot is rotated in. Returns the
/// run, the recovery report, and the closing snapshot's info.
#[allow(clippy::too_many_arguments)] // run_multi_client's surface + the store
pub fn run_multi_client_persistent(
    dataset: &Arc<Dataset>,
    make_method: &dyn Fn() -> Box<dyn Method>,
    policy: PolicyKind,
    config: &CacheConfig,
    workload: &Workload,
    clients: usize,
    verify_answers: bool,
    store: Arc<CacheStore>,
) -> Result<(MultiClientRun, RecoveryReport, SnapshotInfo), String> {
    let clients = clients.max(1);
    let expected: Vec<gc_graph::BitSet> = if verify_answers {
        let mut seq =
            GraphCache::with_policy(dataset.clone(), make_method(), policy, config.clone())
                .expect("valid config");
        workload.queries.iter().map(|wq| seq.query(&wq.graph, wq.kind).answer).collect()
    } else {
        Vec::new()
    };

    let (gc, recovery) = SharedGraphCache::restore_from(
        dataset.clone(),
        Arc::from(make_method()),
        || policy.make(),
        config.clone(),
        store,
    )?;
    let run = drive_clients(&gc, policy, workload, clients, verify_answers, &expected);
    let info =
        gc.snapshot_now()?.expect("store is attached and no other thread snapshots this cache");
    Ok((run, recovery, info))
}

/// Stripe `workload` round-robin over `clients` threads against `gc`,
/// counting answers that differ from `expected` (when verifying).
fn drive_clients(
    gc: &SharedGraphCache,
    policy: PolicyKind,
    workload: &Workload,
    clients: usize,
    verify_answers: bool,
    expected: &[gc_graph::BitSet],
) -> MultiClientRun {
    let start = Instant::now();
    let mismatches: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                scope.spawn(move || {
                    let mut bad = 0usize;
                    for (i, wq) in workload.queries.iter().enumerate() {
                        if i % clients != t {
                            continue;
                        }
                        let report = gc.query(&wq.graph, wq.kind);
                        if verify_answers && report.answer != expected[i] {
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).sum()
    });
    let elapsed = start.elapsed();
    let queries = workload.len();
    MultiClientRun {
        clients,
        policy,
        queries,
        elapsed,
        throughput_qps: queries as f64 / elapsed.as_secs_f64().max(1e-9),
        stats: gc.stats(),
        mismatches,
        verified: verify_answers,
    }
}

impl MultiClientRun {
    /// Render the multi-client summary panel.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== Multi-client run: {} clients over one SharedGraphCache ({}) ===\n",
            self.clients, self.policy
        ));
        out.push_str(&ascii::table(
            &["clients", "queries", "wall time", "throughput", "hit%", "tests/q", "evicted"],
            &[vec![
                self.clients.to_string(),
                self.queries.to_string(),
                format!("{:.3} s", self.elapsed.as_secs_f64()),
                format!("{:.0} q/s", self.throughput_qps),
                format!("{:.1}%", 100.0 * self.stats.hit_ratio()),
                format!("{:.2}", self.stats.avg_tests_per_query()),
                self.stats.evicted.to_string(),
            ]],
        ));
        if self.verified {
            out.push_str(&format!(
                "answers vs sequential replay: {}\n",
                if self.mismatches == 0 {
                    "identical (bit-for-bit)".to_string()
                } else {
                    format!("{} MISMATCHES", self.mismatches)
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_method::SiMethod;
    use gc_workload::{molecule_dataset, WorkloadKind, WorkloadSpec};

    #[test]
    fn multi_client_matches_sequential_answers() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(12, 77)));
        let spec = WorkloadSpec {
            n_queries: 40,
            pool_size: 10,
            kind: WorkloadKind::Zipf { skew: 1.1 },
            seed: 3,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(dataset.graphs(), &spec);
        let cfg = CacheConfig { capacity: 8, window_size: 2, ..CacheConfig::default() };
        let run =
            run_multi_client(&dataset, &|| Box::new(SiMethod), PolicyKind::Hd, &cfg, &w, 4, true);
        assert_eq!(run.mismatches, 0, "shared answers must equal sequential replay");
        assert_eq!(run.stats.queries, 40);
        assert_eq!(run.queries, 40);
        assert!(run.throughput_qps > 0.0);
        let txt = run.render();
        assert!(txt.contains("identical"), "{txt}");
        assert!(txt.contains("4"));
    }

    #[test]
    fn multi_client_persists_and_warm_restarts() {
        let dir = std::env::temp_dir()
            .join(format!("gc_demo_multiclient_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = Arc::new(Dataset::new(molecule_dataset(12, 77)));
        let spec = WorkloadSpec {
            n_queries: 40,
            pool_size: 10,
            kind: WorkloadKind::Zipf { skew: 1.1 },
            seed: 3,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(dataset.graphs(), &spec);
        let cfg = CacheConfig {
            capacity: 8,
            window_size: 2,
            shards: 4,
            min_admit_tests: 0,
            ..CacheConfig::default()
        };

        let store = Arc::new(CacheStore::open(&dir).expect("open store"));
        let (run, recovery, info) = run_multi_client_persistent(
            &dataset,
            &|| Box::new(SiMethod),
            PolicyKind::Hd,
            &cfg,
            &w,
            4,
            true,
            store,
        )
        .expect("persistent run");
        assert_eq!(run.mismatches, 0);
        assert!(!recovery.warm, "first run starts cold");
        assert!(info.entries > 0, "warm cache must snapshot entries");

        // Second session over the same dir restores those entries.
        let store = Arc::new(CacheStore::open(&dir).expect("reopen store"));
        let (run2, recovery2, _info2) = run_multi_client_persistent(
            &dataset,
            &|| Box::new(SiMethod),
            PolicyKind::Hd,
            &cfg,
            &w,
            2,
            true,
            store,
        )
        .expect("warm restart run");
        assert_eq!(run2.mismatches, 0);
        assert!(recovery2.warm, "second run must warm-restart");
        assert_eq!(recovery2.snapshot_entries, info.entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparison_covers_all_policies() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(15, 41)));
        let spec = WorkloadSpec {
            n_queries: 30,
            pool_size: 8,
            kind: WorkloadKind::Zipf { skew: 1.2 },
            seed: 5,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(dataset.graphs(), &spec);
        let cfg = CacheConfig { capacity: 6, window_size: 2, ..CacheConfig::default() };
        let cmp = run_workload_comparison(&dataset, &|| Box::new(SiMethod), &cfg, &w);
        assert_eq!(cmp.outcomes.len(), 5);
        for o in &cmp.outcomes {
            assert_eq!(o.hit_timeline.len(), 30);
            assert_eq!(o.stats.queries, 30);
        }
        let txt = cmp.render();
        for p in ["LRU", "POP", "PIN", "PINC", "HD"] {
            assert!(txt.contains(p), "missing {p} in rendering");
        }
        // Hits must exist on a skewed workload with a warm cache.
        assert!(cmp.outcomes.iter().any(|o| o.stats.hit_queries > 0));
        let _ = cmp.winner();
    }
}
