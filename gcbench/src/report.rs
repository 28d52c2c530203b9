//! What a run reports: the metric catalogue (the same names, units and
//! bounds `BENCHMARK.json` declares — a unit test holds the two together),
//! the result files under `bench_results/gcbench/`, and `compare`.

use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every one is defined on all four
/// workloads and comes from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.20),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p99_us", "us", Lower, 0.25),
    e2e("tests_per_query", "count", Lower, 0.15),
    e2e("time_speedup", "ratio", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// One layer each (the layers are this repository's crates); from the traced
/// run. A layer a workload does not reach reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.bitset_ns_per_kword", "ns", Lower),
    layer("graph.intersect_pairs_ns_per_elem", "ns", Lower),
    layer("graph.kernel_tier", "count", Higher),
    layer("method.filter_us", "us", Lower),
    layer("method.filter_share", "share", Lower),
    layer("method.cm_per_query", "count", Lower),
    layer("method.cm_per_answer", "ratio", Lower),
    layer("iso.verify_us_per_test", "us", Lower),
    layer("iso.verify_share", "share", Lower),
    layer("iso.steps_per_test", "count", Lower),
    layer("iso.survivor_ratio", "ratio", Higher),
    layer("core.query_us", "us", Lower),
    layer("core.self_share", "share", Lower),
    layer("core.hit_ratio", "ratio", Higher),
    layer("core.exact_share", "share", Higher),
    layer("core.memo_share", "share", Higher),
    layer("core.sub_hits", "count", Higher),
    layer("core.super_hits", "count", Higher),
    layer("core.admitted", "count", Lower),
    layer("core.evicted", "count", Lower),
    layer("core.test_speedup", "ratio", Higher),
    layer("core.cache_bytes", "bytes", Lower),
    layer("core.stage_sum_share", "share", Higher),
    layer("core.mutate_us", "us", Lower),
    layer("core.mutate_p50_us", "us", Lower),
    layer("core.mutate_p95_us", "us", Lower),
    layer("core.mutate_busy_share", "share", Lower),
    layer("core.tests_per_query_drift", "ratio", Lower),
    layer("store.journal_bytes_per_op", "bytes", Lower),
    layer("store.journal_records", "count", Lower),
    layer("store.snapshot_ms", "ms", Lower),
    layer("store.restore_ms", "ms", Lower),
    layer("store.dir_bytes_per_cache_byte", "ratio", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("server.queue_us", "us", Lower),
    layer("server.parse_us", "us", Lower),
    layer("server.shed", "count", Lower),
    layer("server.resp_bytes", "bytes", Lower),
    layer("server.rate_ok_rps", "1/s", Higher),
    layer("gen.late_p99_us", "us", Lower),
    layer("trace_overhead_share", "share", Lower),
];

/// Values measured in one run, by metric name, each with the number of
/// samples behind it.
#[derive(Default)]
pub struct Measured(BTreeMap<&'static str, (f64, u64)>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, (value, samples));
    }

    /// The catalogue's metrics in catalogue order: (definition, value,
    /// samples). A per-layer metric the workload never set reads 0: the
    /// workload does not reach that layer.
    pub fn in_order<'a>(
        &'a self,
        defs: &'a [MetricDef],
    ) -> impl Iterator<Item = (&'a MetricDef, f64, u64)> + 'a {
        defs.iter().map(move |d| {
            let (value, samples) = self.0.get(d.name).copied().unwrap_or((0.0, 0));
            (d, value, samples)
        })
    }

    fn to_json(&self, defs: &[MetricDef], with_samples: bool) -> Value {
        let fields = self
            .in_order(defs)
            .map(|(d, value, samples)| {
                let mut m = vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::String(d.unit.into())),
                ];
                if with_samples {
                    m.push(("samples".to_string(), Value::UInt(samples)));
                }
                (d.name.to_string(), Value::Object(m))
            })
            .collect();
        Value::Object(fields)
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Everything one run found out.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub measured: Measured,
    /// Problem sizes and counts that repeat exactly for a seed.
    pub sizes: Value,
    pub counts: Value,
    /// Numbers defined on this workload only (mutation latencies, open-loop
    /// phases, cross-checks against the program's own histograms).
    pub extras: Value,
    /// `{name, start_ns, end_ns, parent, query_id}` records of a traced run.
    pub spans: Value,
}

impl RunResult {
    fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "gcbench {} seed {} — {} run{}",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            if self.smoke { " (smoke)" } else { "" }
        );
        for (d, value, samples) in self.measured.in_order(self.defs()) {
            let bound =
                if self.trace { String::new() } else { format!("  bound {:.0}%", d.bound * 100.0) };
            println!("  {:<36} {:>16.4} {:<6} n={samples}{bound}", d.name, value, d.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  failed_share {share} ({} of {} operations)", self.failed, self.attempted);
    }

    /// The one line the driver reads: last on standard output.
    pub fn contract_line(&self) -> String {
        let line = obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", self.measured.to_json(self.defs(), false)),
        ]);
        serde_json::to_string(&line).expect("serialize result line")
    }

    /// `<out>/<workload>[.r<k>][.trace].json`, stamped with the host, the
    /// seed and every size.
    pub fn write(&self, out: &Path, run_index: Option<usize>) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(out)?;
        let rep = run_index.map_or(String::new(), |k| format!(".r{k}"));
        let kind = if self.trace { ".trace" } else { "" };
        let path = out.join(format!("{}{rep}{kind}.json", self.workload));
        let doc = obj(vec![
            ("benchmark", Value::String("gcbench".into())),
            ("workload", Value::String(self.workload.clone())),
            ("seed", Value::UInt(self.seed)),
            ("seconds", Value::UInt(self.seconds as u64)),
            ("traced", Value::Bool(self.trace)),
            ("smoke", Value::Bool(self.smoke)),
            ("host", host_stamp()),
            ("sizes", self.sizes.clone()),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("failed_share", Value::Float(self.failed as f64 / self.attempted.max(1) as f64)),
            ("metrics", self.measured.to_json(self.defs(), true)),
            ("counts", self.counts.clone()),
            ("extras", self.extras.clone()),
            ("trace", self.spans.clone()),
            ("claim", Value::Null),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("serialize result file");
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
pub fn host_stamp() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("kernel", Value::String(crate::layers::kernel_name().into())),
        ("rustc", Value::String(command_line("rustc", &["--version"]))),
        ("git_rev", Value::String(command_line("git", &["rev-parse", "--short", "HEAD"]))),
    ])
}

// ---- compare -----------------------------------------------------------------

/// The untraced runs found in one directory.
#[derive(Default)]
pub struct ResultSet {
    /// End-to-end values by workload and metric, one per run.
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Seed and exact counts of each run, by workload.
    counts: BTreeMap<String, Vec<String>>,
}

fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    v.as_object()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Load every untraced result file in `dir`. Smoke files are refused: their
/// sizes are not the benchmark's.
pub fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if field(&doc, "benchmark").and_then(Value::as_str) != Some("gcbench") {
            continue;
        }
        if matches!(field(&doc, "smoke"), Some(Value::Bool(true))) {
            return Err(format!("{} is a smoke run; compare needs full runs", path.display()));
        }
        let workload = field(&doc, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?
            .to_string();
        let metrics = field(&doc, "metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (name, m) in metrics {
            let value = match field(m, "value") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(u)) => *u as f64,
                Some(Value::Int(i)) => *i as f64,
                _ => return Err(format!("{}: metric {name} has no value", path.display())),
            };
            let of_workload = set.metrics.entry(workload.clone()).or_default();
            of_workload.entry(name.clone()).or_default().push(value);
        }
        let seed = field(&doc, "seed").map_or(String::new(), |s| format!("{s:?}"));
        let c = field(&doc, "counts").map_or(String::new(), |c| format!("{c:?}"));
        set.counts.entry(workload).or_default().push(format!("{seed} {c}"));
    }
    if set.metrics.is_empty() {
        return Err(format!("{}: no gcbench result files", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

/// Judge one (metric, workload) pair from the two sets' values. `Unresolved`
/// when either set's own quartile spread exceeds the bound: the instrument
/// cannot tell a change of that size from its noise.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match def.better {
        Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let verdict = if spread(a) > def.bound || spread(b) > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else if -worse > def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// Print one row per (metric, workload); returns how many rows are not
/// `unchanged`, a difference in the exact counts counting as one.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<usize, String> {
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "spread A", "spread B"
    );
    let mut changed = 0;
    for (workload, metrics_a) in &a.metrics {
        let Some(metrics_b) = b.metrics.get(workload) else {
            println!("{workload:<16} missing from B");
            changed += 1;
            continue;
        };
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            let (worse, verdict) = judge(def, va, vb);
            changed += usize::from(verdict != Verdict::Unchanged);
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}% {:>8.2}% {:>8.2}%  {}",
                workload,
                def.name,
                median(va),
                median(vb),
                worse * 100.0,
                def.bound * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
        // Counts the program makes repeat exactly for a seed with one client;
        // over HTTP two connections race, so they are not compared there.
        if workload != "http-open" {
            let same = a.counts.get(workload) == b.counts.get(workload);
            println!("{workload:<16} counts (hits, admits, evictions, tests) identical: {same}");
            changed += usize::from(!same);
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef { name: "m", unit: "us", better, bound }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let d = def(Lower, 0.10);
        assert_eq!(judge(&d, &steady, &steady).1, Verdict::Unchanged);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&d, &steady, &slower).1, Verdict::Regressed);
        assert_eq!(judge(&d, &slower, &steady).1, Verdict::Improved);
        // The same numbers on a higher-is-better metric read the other way.
        let d = def(Higher, 0.10);
        assert_eq!(judge(&d, &steady, &slower).1, Verdict::Improved);
        // A set noisier than the bound resolves nothing, whatever the medians.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&def(Lower, 0.10), &noisy, &slower).1, Verdict::Unresolved);
    }

    /// `BENCHMARK.json` at the root of the repository declares exactly the
    /// catalogue above.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            field(&doc, key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| field(m, k).and_then(Value::as_str).unwrap().to_string();
                    let bound = match field(m, "bound") {
                        Some(Value::Float(f)) => Some(*f),
                        _ => None,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let ours = |defs: &[MetricDef], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == Lower { "lower" } else { "higher" };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        better.to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END, true));
        assert_eq!(declared("per_layer"), ours(PER_LAYER, false));
        let workloads: Vec<String> = field(&doc, "workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| field(w, "name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::streams::WORKLOADS);
    }
}
