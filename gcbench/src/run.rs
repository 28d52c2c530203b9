//! Drives one workload against the program and turns what it saw into the
//! catalogue's metrics. An untraced run yields the end-to-end metrics; a
//! traced run replays a fixed prefix of the same stream twice on fresh
//! programs — plain, then with spans and shadow calls on one query in four —
//! and yields the per-layer metrics plus what the tracing itself cost.

use crate::layers::{self, Graph, Program, ProgramSpec, Query};
use crate::openloop::{self, Phase, Sample};
use crate::report::{obj, Measured, RunResult};
use crate::spans::Tracer;
use crate::stats::{mean_us, median, percentile, percentile_us, typical};
use crate::streams::{self, Op, Scale, Stream};
use serde_json::Value;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Back-to-back constructions `setup_s` is the median of.
const SETUP_REPS: usize = 5;
/// Spans and shadow calls are recorded for one query in this many.
const TRACE_EVERY: u64 = 4;
/// The closed-loop part of the HTTP trace alternates between plain and traced
/// over this many blocks.
const TRACE_BLOCKS: usize = 10;
/// At most this many spans are written to the trace file (all are kept in
/// memory and counted in the per-layer table).
const TRACE_FILE_SPANS: usize = 20_000;
/// Latency limit `server.rate_ok_rps` holds the p99 to.
const RATE_OK_P99_US: f64 = 10_000.0;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
    pub smoke: bool,
    /// Spoil the first checked answer (shows that a wrong answer fails the run).
    pub corrupt: bool,
    pub out: PathBuf,
}

/// One answer in this many is compared with Method M's.
fn check_every(workload: &str) -> u64 {
    if workload == "zipf-fit" {
        1000
    } else {
        20
    }
}

/// Operations per second of `--seconds` the traced prefix is sized by.
fn trace_rate(workload: &str) -> usize {
    match workload {
        "zipf-fit" => 50_000,
        "http-open" => 2_000,
        _ => 1_000,
    }
}

/// A directory under the output directory that is removed when the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the program the workload needs, each time over a fresh copy of the
/// graphs and, on `mutate-durable`, a fresh store directory.
struct Builder<'a> {
    workload: &'a str,
    graphs: &'a [Graph],
    scratch: ScratchDir,
}

impl Builder<'_> {
    /// Returns the program, how long its construction took, and its store
    /// directory (unused unless the workload is durable).
    fn build(&self, name: &str) -> Result<(Program, Duration, PathBuf), String> {
        let dir = self.scratch.fresh(name)?;
        let spec = ProgramSpec {
            store_dir: (self.workload == "mutate-durable").then(|| dir.clone()),
            serve: self.workload == "http-open",
        };
        let input = self.graphs.to_vec();
        let start = Instant::now();
        let program = Program::build(input, &spec)?;
        Ok((program, start.elapsed(), dir))
    }
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let graphs = streams::dataset(cfg.scale);
    let stream = streams::build(&cfg.workload, &graphs, cfg.scale, cfg.seed);
    let builder = Builder {
        workload: &cfg.workload,
        graphs: &graphs,
        scratch: ScratchDir(cfg.out.join(format!("tmp-{}", std::process::id()))),
    };

    let mut measured = Measured::default();
    let mut spans = Value::Null;
    let mut sizes = vec![
        ("graphs", Value::UInt(graphs.len() as u64)),
        ("pool", Value::UInt(stream.pool.len() as u64)),
        ("warmup_ops", Value::UInt(stream.warmup as u64)),
        ("timed_ops", Value::UInt(stream.timed().len() as u64)),
        ("tail_ops", Value::UInt(stream.tail as u64)),
        ("check_every", Value::UInt(check_every(&cfg.workload))),
        ("cache_capacity", Value::UInt(layers::CACHE_CAPACITY as u64)),
        ("stream_hash", Value::String(format!("{:016x}", stream.hash()))),
    ];
    let outcome = if cfg.trace {
        let prefix = (trace_rate(&cfg.workload) * cfg.scale.seconds).min(stream.timed().len());
        sizes.push(("traced_prefix_ops", Value::UInt(prefix as u64)));
        sizes.push(("trace_every", Value::UInt(TRACE_EVERY)));
        let mut tracer = Tracer::new();
        let outcome = if cfg.workload == "http-open" {
            trace_http(cfg, &stream, prefix, &builder, &mut tracer, &mut measured)?
        } else {
            trace_in_process(cfg, &stream, prefix, &builder, &mut tracer, &mut measured)?
        };
        measured.set("graph.bitset_ns_per_kword", layers::bitset_ns_per_kword(graphs.len()), 1);
        measured.set("graph.intersect_pairs_ns_per_elem", layers::intersect_pairs_ns_per_elem(), 1);
        measured.set("graph.kernel_tier", f64::from(layers::kernel_tier()), 1);
        spans = tracer.to_json(TRACE_FILE_SPANS);
        outcome
    } else {
        sizes.push(("setup_reps", Value::UInt(SETUP_REPS as u64)));
        // Inputs in memory → first query servable, several times over; the
        // last construction is the one the workload runs against.
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            if let Some((previous, _)) = last.take() {
                drop(Program::shutdown(previous));
            }
            let (program, took, dir) = builder.build("program")?;
            setups.push(took.as_secs_f64());
            last = Some((program, dir));
        }
        measured.set("setup_s", median(&setups), SETUP_REPS as u64);
        let (program, store) = last.expect("SETUP_REPS > 0");
        let outcome = if cfg.workload == "http-open" {
            run_http(cfg, &stream, program, &mut measured)?
        } else {
            run_in_process(cfg, &graphs, &stream, program, &store, &mut measured)?
        };
        measured.set("peak_rss_mb", peak_rss_mib(), 1);
        outcome
    };

    Ok(RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        seconds: cfg.scale.seconds,
        trace: cfg.trace,
        smoke: cfg.smoke,
        attempted: outcome.attempted,
        failed: outcome.failed,
        measured,
        sizes: obj(sizes),
        counts: outcome.counts,
        extras: obj(outcome.extras),
        spans,
    })
}

struct Outcome {
    attempted: u64,
    failed: u64,
    counts: Value,
    extras: Vec<(&'static str, Value)>,
}

/// High-water mark of this process's resident set, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

/// Counts the program makes that repeat exactly for a seed with one client.
fn counts_of(p: &Program) -> (layers::GlobalStats, Value) {
    let stats = p.stats();
    let counts = obj(vec![
        ("queries", Value::UInt(stats.queries)),
        ("hit_queries", Value::UInt(stats.hit_queries)),
        ("exact_hits", Value::UInt(stats.exact_hits)),
        ("memo_hits", Value::UInt(stats.memo_hits)),
        ("sub_hits", Value::UInt(stats.sub_hits)),
        ("super_hits", Value::UInt(stats.super_hits)),
        ("tests_executed", Value::UInt(stats.tests_executed)),
        ("probe_tests", Value::UInt(stats.probe_tests)),
        ("tests_saved", Value::UInt(stats.tests_saved)),
        ("verify_steps", Value::UInt(stats.verify_steps)),
        ("admitted", Value::UInt(stats.admitted)),
        ("evicted", Value::UInt(stats.evicted)),
        ("entries", Value::UInt(p.entries() as u64)),
    ]);
    (stats, counts)
}

/// What the cache did over a traced replay, from the program's own counters.
fn cache_metrics(program: &Program, stats: &layers::GlobalStats, measured: &mut Measured) {
    measured.set("core.hit_ratio", stats.hit_ratio(), stats.queries);
    measured.set("core.exact_share", ratio(stats.exact_hits, stats.queries), stats.queries);
    measured.set("core.memo_share", ratio(stats.memo_hits, stats.queries), stats.queries);
    measured.set("core.sub_hits", stats.sub_hits as f64, stats.queries);
    measured.set("core.super_hits", stats.super_hits as f64, stats.queries);
    measured.set("core.admitted", stats.admitted as f64, stats.queries);
    measured.set("core.evicted", stats.evicted as f64, stats.queries);
    measured.set(
        "core.test_speedup",
        ratio(stats.tests_saved + stats.tests_executed, stats.tests_executed + stats.probe_tests),
        stats.queries,
    );
    measured.set("core.cache_bytes", program.cache_bytes() as f64, 1);
    measured.set("core.stage_sum_share", program.stage_sum_share(), stats.queries);
}

fn tests_per_query(stats: &layers::GlobalStats) -> f64 {
    (stats.tests_executed + stats.probe_tests) as f64 / stats.queries.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted<T: Ord + Copy>(values: &[T]) -> Vec<T> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

// ---- answer check ------------------------------------------------------------

/// Compares sampled answers bit for bit with Method M on the dataset as it
/// stands, and keeps Method M's time for the paper's second headline.
struct Checker {
    corrupt: bool,
    checked: u64,
    wrong: u64,
    base_ns: u64,
}

impl Checker {
    fn new(corrupt: bool) -> Self {
        Checker { corrupt, checked: 0, wrong: 0, base_ns: 0 }
    }

    fn check(&mut self, p: &Program, q: &Query, answer: &[usize]) {
        let (mut expected, base) = layers::baseline(p, q);
        if std::mem::take(&mut self.corrupt) && expected.pop().is_none() {
            expected.push(0);
        }
        self.checked += 1;
        self.wrong += u64::from(expected != answer);
        self.base_ns += base.as_nanos() as u64;
    }

    /// Method M's mean time per query, from the checked sample, over the
    /// program's typical mean time per query, from every timed query. The
    /// sample is systematic (one in n of the stream), so its mean estimates
    /// the stream's; dividing by the sampled queries' own times instead would
    /// rest the ratio on the handful of misses that fall into the sample.
    fn time_speedup(&self, mean_query_us: f64) -> f64 {
        us(self.base_ns) / self.checked.max(1) as f64 / mean_query_us.max(f64::MIN_POSITIVE)
    }
}

// ---- in-process replay -------------------------------------------------------

/// Work the shadow calls of the traced queries did, counted where it happens.
#[derive(Default)]
struct Shadow {
    filtered: u64,
    cm: u64,
    answers: u64,
    tests: u64,
    survivors: u64,
    steps: u64,
}

/// Journal growth across rotations (the store's own counters restart at each).
#[derive(Default)]
struct JournalTally {
    last: (u64, u64),
    bytes: u64,
    records: u64,
}

impl JournalTally {
    fn observe(&mut self, now: (u64, u64)) {
        let grew = |now: u64, last: u64| if now >= last { now - last } else { now };
        self.bytes += grew(now.0, self.last.0);
        self.records += grew(now.1, self.last.1);
        self.last = now;
    }
}

#[derive(Default)]
struct Replay {
    /// Latency of every timed query, ns (saturating at 4.29 s).
    lat_ns: Vec<u32>,
    mutate_ns: Vec<u64>,
    /// Wall time of the timed phase without the checks and shadow calls.
    timed: Duration,
    attempted: u64,
    /// Mutations the program refused or numbered unexpectedly.
    failed: u64,
    /// Tests and queries per tenth of the replay, in order.
    decile_tests: [u64; 10],
    decile_queries: [u64; 10],
    shadow: Shadow,
    journal: JournalTally,
}

impl Replay {
    fn mean_query_us(&self) -> f64 {
        mean_us(&self.lat_ns)
    }

    fn timed_ops(&self) -> u64 {
        (self.lat_ns.len() + self.mutate_ns.len()) as u64
    }
}

fn replay(
    p: &Program,
    s: &Stream,
    range: Range<usize>,
    check_every: u64,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
) -> Replay {
    let n_queries = s.ops[range.clone()].iter().filter(|op| matches!(op, Op::Query(_))).count();
    let base_len = s.base_graphs as u32;
    let mut r = Replay { lat_ns: Vec::with_capacity(n_queries), ..Default::default() };
    let mut scratch = layers::VfScratch::new();
    let mut phase_start = None;
    let mut paused = Duration::ZERO;
    let mut ordinal = 0u64;
    for idx in range {
        let timed = idx >= s.warmup;
        if timed && phase_start.is_none() {
            phase_start = Some(Instant::now());
        }
        r.attempted += 1;
        match s.ops[idx] {
            Op::Query(i) => {
                let q = &s.pool[i as usize];
                let start = Instant::now();
                let report = layers::core_query(p, q);
                let end = Instant::now();
                let ns = (end - start).as_nanos() as u64;
                let decile = (ordinal * 10 / n_queries as u64) as usize;
                r.decile_tests[decile] += report.sub_iso_tests + report.probe_tests;
                r.decile_queries[decile] += 1;
                if timed {
                    r.lat_ns.push(ns.min(u64::from(u32::MAX)) as u32);
                }
                let traced = tracer.is_some() && ordinal.is_multiple_of(TRACE_EVERY);
                let checked = timed && ordinal.is_multiple_of(check_every);
                if traced || checked {
                    let pause = Instant::now();
                    if let (true, Some(tracer)) = (traced, tracer.as_deref_mut()) {
                        let id = tracer.push("core.query", None, idx as u64, start, end);
                        if !report.exact_hit && !report.memo_hit {
                            shadow(
                                p,
                                q,
                                &report,
                                (id, idx as u64),
                                tracer,
                                &mut scratch,
                                &mut r.shadow,
                            );
                        }
                    }
                    if checked {
                        checker.check(p, q, &report.answer.to_vec());
                    }
                    paused += pause.elapsed();
                }
                ordinal += 1;
            }
            Op::Insert(i) => {
                let graph = s.fresh[i as usize].clone();
                let id = idx as u64;
                mutation(&mut r, tracer.as_deref_mut(), id, || {
                    layers::core_insert(p, graph) == base_len + i
                });
            }
            Op::Remove(gid) => {
                let id = idx as u64;
                mutation(&mut r, tracer.as_deref_mut(), id, || layers::core_remove(p, gid));
            }
        }
        if tracer.is_some() {
            r.journal.observe(p.journal_position());
        }
    }
    r.timed = phase_start.map_or(Duration::ZERO, |s| s.elapsed().saturating_sub(paused));
    r
}

/// Time one `core.mutate` call; `apply` says whether the program did what the
/// stream expected (the id it assigned, the graph it found live).
fn mutation(r: &mut Replay, tracer: Option<&mut Tracer>, id: u64, apply: impl FnOnce() -> bool) {
    let start = Instant::now();
    let ok = apply();
    let end = Instant::now();
    r.failed += u64::from(!ok);
    r.mutate_ns.push((end - start).as_nanos() as u64);
    if let Some(tracer) = tracer {
        tracer.push("core.mutate", None, id, start, end);
    }
}

/// Repeat, outside the query, the two calls that do its heavy lifting, as
/// child spans of it: Method M's filter, and the verification of exactly the
/// candidates the query verified.
fn shadow(
    p: &Program,
    q: &Query,
    report: &layers::QueryReport,
    (parent, query_id): (u32, u64),
    tracer: &mut Tracer,
    scratch: &mut layers::VfScratch,
    tally: &mut Shadow,
) {
    let dataset = p.dataset();
    let (cm, _) = tracer
        .record("method.filter", Some(parent), query_id, || layers::method_filter(p, &dataset, q));
    let ((tests, survivors, steps), _) =
        tracer.record("iso.verify", Some(parent), query_id, || {
            layers::iso_verify(&dataset, q, &report.verified_set, scratch)
        });
    tally.filtered += 1;
    tally.cm += cm.count() as u64;
    tally.answers += report.answer.count() as u64;
    tally.tests += tests;
    tally.survivors += survivors;
    tally.steps += steps;
}

/// Mutation latencies of a replay: count, mean, p50, p95 (µs), and their
/// share of the timed phase. With n ≈ 200, p95 is the highest percentile
/// that has at least ten samples beyond it.
struct Mutations {
    n: u64,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    busy_share: f64,
}

impl Mutations {
    fn of(r: &Replay) -> Option<Mutations> {
        let m = sorted(&r.mutate_ns);
        let total: u64 = m.iter().sum();
        (!m.is_empty()).then(|| Mutations {
            n: m.len() as u64,
            mean_us: us(total) / m.len() as f64,
            p50_us: us(percentile(&m, 50.0)),
            p95_us: us(percentile(&m, 95.0)),
            busy_share: total as f64 / r.timed.as_nanos().max(1) as f64,
        })
    }
}

/// What the end of `mutate-durable` showed.
struct Restart {
    snapshot_ms: f64,
    restore_ms: f64,
    dir_bytes: u64,
    cache_bytes: u64,
    /// Queries replayed on the restored cache; every one was checked.
    queries: u64,
}

/// Snapshot, restart from what the store holds over the pristine base
/// dataset, and check every answer of the stream's tail on the restored cache.
fn restart_and_check(
    program: Program,
    graphs: &[Graph],
    s: &Stream,
    store: &Path,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
) -> Result<Restart, String> {
    let start = Instant::now();
    layers::store_snapshot(&program)?;
    let end = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.push("store.snapshot", None, 0, start, end);
    }
    let snapshot_ms = (end - start).as_secs_f64() * 1e3;
    let cache_bytes = program.cache_bytes() as u64;
    let dir_bytes = std::fs::read_dir(store)
        .map_err(|e| format!("{}: {e}", store.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();

    let input = graphs.to_vec();
    let start = Instant::now();
    let restored = program.restart_from(input, store)?;
    let end = Instant::now();
    if let Some(t) = tracer {
        t.push("store.restore", None, 0, start, end);
    }
    let restore_ms = (end - start).as_secs_f64() * 1e3;
    for &op in &s.ops[s.ops.len() - s.tail..] {
        let q = s.query(op);
        let report = layers::core_query(&restored, q);
        checker.check(&restored, q, &report.answer.to_vec());
    }
    drop(restored.shutdown());
    Ok(Restart { snapshot_ms, restore_ms, dir_bytes, cache_bytes, queries: s.tail as u64 })
}

fn run_in_process(
    cfg: &Config,
    graphs: &[Graph],
    s: &Stream,
    program: Program,
    store: &Path,
    measured: &mut Measured,
) -> Result<Outcome, String> {
    let mut checker = Checker::new(cfg.corrupt);
    let end = s.ops.len() - s.tail;
    let r = replay(&program, s, 0..end, check_every(&cfg.workload), &mut checker, None);
    let (stats, counts) = counts_of(&program);

    let n = r.lat_ns.len() as u64;
    measured.set("qps", r.timed_ops() as f64 / r.timed.as_secs_f64(), r.timed_ops());
    measured.set("p50_us", typical(&r.lat_ns, |w| percentile_us(w, 50.0)), n);
    measured.set("p99_us", typical(&r.lat_ns, |w| percentile_us(w, 99.0)), n);
    measured.set("tests_per_query", tests_per_query(&stats), stats.queries);
    // Before the post-restore queries: those run on a cold processor cache.
    measured.set(
        "time_speedup",
        checker.time_speedup(typical(&r.lat_ns, mean_us)),
        checker.checked,
    );

    let mut extras = vec![("timed_s", Value::Float(r.timed.as_secs_f64()))];
    if let Some(m) = Mutations::of(&r) {
        extras.push(("mutations", Value::UInt(m.n)));
        extras.push(("mutate_p50_us", Value::Float(m.p50_us)));
        extras.push(("mutate_p95_us", Value::Float(m.p95_us)));
        extras.push(("mutate_busy_share", Value::Float(m.busy_share)));
    }
    let mut attempted = r.attempted;
    if s.tail > 0 {
        let restart = restart_and_check(program, graphs, s, store, &mut checker, None)?;
        attempted += restart.queries;
        extras.push(("snapshot_ms", Value::Float(restart.snapshot_ms)));
        extras.push(("restore_ms", Value::Float(restart.restore_ms)));
    } else {
        drop(program.shutdown());
    }
    extras.push(("answers_checked", Value::UInt(checker.checked)));
    extras.push(("answers_wrong", Value::UInt(checker.wrong)));
    Ok(Outcome { attempted, failed: r.failed + checker.wrong, counts, extras })
}

fn trace_in_process(
    cfg: &Config,
    s: &Stream,
    prefix: usize,
    builder: &Builder,
    tracer: &mut Tracer,
    measured: &mut Measured,
) -> Result<Outcome, String> {
    let every = check_every(&cfg.workload);
    // The same prefix without tracing: what the spans cost is the difference.
    let (plain_program, ..) = builder.build("plain")?;
    let plain = replay(&plain_program, s, 0..prefix, every, &mut Checker::new(false), None);
    drop(plain_program.shutdown());

    let (program, _, store) = builder.build("traced")?;
    let mut checker = Checker::new(cfg.corrupt);
    let r = replay(&program, s, 0..prefix, every, &mut checker, Some(tracer));
    let (stats, counts) = counts_of(&program);

    let (query_ns, queries) = tracer.total("core.query");
    let (filter_ns, filters) = tracer.total("method.filter");
    let (verify_ns, _) = tracer.total("iso.verify");
    let sh = &r.shadow;
    measured.set("method.filter_us", us(filter_ns) / filters.max(1) as f64, filters);
    measured.set("method.filter_share", ratio(filter_ns, query_ns), queries);
    measured.set("method.cm_per_query", ratio(sh.cm, sh.filtered), sh.filtered);
    measured.set("method.cm_per_answer", ratio(sh.cm, sh.answers), sh.filtered);
    measured.set("iso.verify_us_per_test", us(verify_ns) / sh.tests.max(1) as f64, sh.tests);
    measured.set("iso.verify_share", ratio(verify_ns, query_ns), queries);
    measured.set("iso.steps_per_test", ratio(sh.steps, sh.tests), sh.tests);
    measured.set("iso.survivor_ratio", ratio(sh.survivors, sh.tests), sh.tests);
    measured.set("core.query_us", us(query_ns) / queries.max(1) as f64, queries);
    measured.set("core.self_share", ratio(tracer.self_ns("core.query"), query_ns), queries);
    cache_metrics(&program, &stats, measured);
    let first = ratio(r.decile_tests[0], r.decile_queries[0]);
    let last = ratio(r.decile_tests[9], r.decile_queries[9]);
    measured.set(
        "core.tests_per_query_drift",
        last / first.max(f64::MIN_POSITIVE),
        r.decile_queries[9],
    );
    measured.set(
        "trace_overhead_share",
        r.mean_query_us() / plain.mean_query_us().max(f64::MIN_POSITIVE) - 1.0,
        r.lat_ns.len() as u64,
    );
    if let Some(m) = Mutations::of(&r) {
        measured.set("core.mutate_us", m.mean_us, m.n);
        measured.set("core.mutate_p50_us", m.p50_us, m.n);
        measured.set("core.mutate_p95_us", m.p95_us, m.n);
        measured.set("core.mutate_busy_share", m.busy_share, m.n);
    }

    // The program's own stage histograms beside the outside-timed spans (means
    // per query that ran the stage, and the self share each accounting gives);
    // where they disagree both show.
    let (program_filter_us, program_filter_share) = program.program_stage("filter");
    let (program_verify_us, program_verify_share) = program.program_stage("verify");
    let mut extras = vec![
        ("untraced_mean_query_us", Value::Float(plain.mean_query_us())),
        ("traced_mean_query_us", Value::Float(r.mean_query_us())),
        ("program_filter_mean_us", Value::Float(program_filter_us)),
        ("span_filter_mean_us", Value::Float(us(filter_ns) / filters.max(1) as f64)),
        ("program_verify_mean_us", Value::Float(program_verify_us)),
        ("span_verify_mean_us", Value::Float(us(verify_ns) / filters.max(1) as f64)),
        ("program_self_share", Value::Float(1.0 - program_filter_share - program_verify_share)),
    ];
    let mut attempted = r.attempted;
    if s.tail > 0 {
        measured.set(
            "store.journal_bytes_per_op",
            ratio(r.journal.bytes, r.attempted),
            r.attempted,
        );
        measured.set("store.journal_records", r.journal.records as f64, r.attempted);
        let restart =
            restart_and_check(program, builder.graphs, s, &store, &mut checker, Some(tracer))?;
        attempted += restart.queries;
        measured.set("store.snapshot_ms", restart.snapshot_ms, 1);
        measured.set("store.restore_ms", restart.restore_ms, 1);
        measured.set(
            "store.dir_bytes_per_cache_byte",
            ratio(restart.dir_bytes, restart.cache_bytes),
            1,
        );
    } else {
        drop(program.shutdown());
    }
    extras.push(("answers_checked", Value::UInt(checker.checked)));
    extras.push(("answers_wrong", Value::UInt(checker.wrong)));
    Ok(Outcome { attempted, failed: r.failed + checker.wrong, counts, extras })
}

// ---- over HTTP ---------------------------------------------------------------

/// The stream as (query, request body) pairs, bodies rendered once per pool
/// entry into `bodies`.
fn http_requests<'a>(s: &'a Stream, bodies: &'a mut Vec<String>) -> Vec<(&'a Query, &'a str)> {
    *bodies = s.pool.iter().map(|q| layers::http_body(&q.graph)).collect();
    s.ops.iter().map(|&op| (s.query(op), bodies[s.pool_index(op)].as_str())).collect()
}

fn connect(p: &Program) -> Result<Vec<layers::HttpClient>, String> {
    (0..layers::HTTP_CONNECTIONS).map(|_| layers::http_connect(p.addr())).collect()
}

fn not_ok(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok()).count() as u64
}

fn mean_rtt_us(samples: &[Sample]) -> f64 {
    us(samples.iter().map(Sample::rtt_ns).sum()) / samples.len().max(1) as f64
}

fn phase_json(p: &Phase) -> Value {
    obj(vec![
        ("rate", Value::UInt(p.rate)),
        ("sent", Value::UInt(p.sent as u64)),
        ("failed", Value::UInt(p.failed as u64)),
        ("p50_us", Value::Float(p.p50_us)),
        ("p99_us", Value::Float(p.p99_us)),
        ("max_us", Value::Float(p.max_us)),
        ("completed_rps", Value::Float(p.completed_rps)),
        ("backlog_at_end", Value::UInt(p.backlog as u64)),
        ("gen_late_p99_us", Value::Float(p.gen_late_p99_us)),
        ("invalid", Value::Bool(p.invalid)),
    ])
}

fn run_http(
    cfg: &Config,
    s: &Stream,
    program: Program,
    measured: &mut Measured,
) -> Result<Outcome, String> {
    let mut bodies = Vec::new();
    let requests = http_requests(s, &mut bodies);
    let timed = s.timed();
    let every = check_every(&cfg.workload) as usize;
    let rate = streams::HTTP_OPEN_RPS as u64;
    let mut clients = connect(&program)?;
    let (_, warm) = openloop::drive(&mut clients, &requests[..timed.start], None, |_| false);
    let open = &requests[timed];
    let (_, samples) = openloop::drive(&mut clients, open, Some(rate), |i| i % every == 0);
    drop(clients);

    let phase = Phase::of(rate, &samples);
    if phase.invalid {
        eprintln!(
            "gcbench: the load generator ran {:.0} us late (p99): this phase measured the \
             scheduler, not the program",
            phase.gen_late_p99_us
        );
    }
    let mut checker = Checker::new(cfg.corrupt);
    let mut unreadable = 0;
    for sample in samples.iter().filter(|s| s.ok()) {
        let Some(body) = &sample.body else { continue };
        match layers::parse_reply(body) {
            Some(reply) => checker.check(&program, open[sample.index].0, &reply.answer),
            None => unreadable += 1,
        }
    }
    let (stats, counts) = counts_of(&program);
    let shed = program.server_shed();
    drop(program.shutdown());

    let ok = samples.len() as u64 - not_ok(&samples);
    let from_due: Vec<u64> = samples.iter().filter(|s| s.ok()).map(Sample::latency_ns).collect();
    let round_trip: Vec<u64> = samples.iter().filter(|s| s.ok()).map(Sample::rtt_ns).collect();
    measured.set("qps", phase.completed_rps, ok);
    measured.set("p50_us", typical(&from_due, |w| percentile_us(w, 50.0)), ok);
    measured.set("p99_us", typical(&from_due, |w| percentile_us(w, 99.0)), ok);
    measured.set("tests_per_query", tests_per_query(&stats), stats.queries);
    measured.set(
        "time_speedup",
        checker.time_speedup(typical(&round_trip, mean_us)),
        checker.checked,
    );
    let extras = vec![
        ("open_loop", phase_json(&phase)),
        ("answers_checked", Value::UInt(checker.checked)),
        ("answers_wrong", Value::UInt(checker.wrong + unreadable)),
        ("server_shed", Value::UInt(shed)),
    ];
    Ok(Outcome {
        attempted: (warm.len() + samples.len()) as u64,
        failed: not_ok(&warm) + not_ok(&samples) + checker.wrong + unreadable,
        counts,
        extras,
    })
}

fn trace_http(
    cfg: &Config,
    s: &Stream,
    prefix: usize,
    builder: &Builder,
    tracer: &mut Tracer,
    measured: &mut Measured,
) -> Result<Outcome, String> {
    let mut bodies = Vec::new();
    let requests = http_requests(s, &mut bodies);
    let (warmup, closed) = requests[..s.warmup + prefix].split_at(s.warmup);
    let every = check_every(&cfg.workload);

    // Closed loop on one warmed server, in blocks that alternate between
    // plain and traced (one reply in four kept for its server-side timings):
    // what tracing costs is the difference between the two kinds of block,
    // and whatever drifts over the run drifts under both.
    let (program, ..) = builder.build("traced")?;
    let mut clients = connect(&program)?;
    let (_, warm) = openloop::drive(&mut clients, warmup, None, |_| false);
    let mut checker = Checker::new(cfg.corrupt);
    let mut failed = not_ok(&warm);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut overhead_ns, mut queue_us, mut parse_us, mut bytes, mut n) = (0, 0, 0, 0, 0u64);
    let block_len = closed.len().div_ceil(TRACE_BLOCKS).max(1);
    for (b, block) in closed.chunks(block_len).enumerate() {
        if b % 2 == 0 {
            plain.extend(openloop::drive(&mut clients, block, None, |_| false).1);
            continue;
        }
        let (origin, samples) =
            openloop::drive(&mut clients, block, None, |i| (i as u64).is_multiple_of(TRACE_EVERY));
        for sample in samples.iter().filter(|s| s.ok()) {
            let Some(body) = &sample.body else { continue };
            let Some(reply) = layers::parse_reply(body) else {
                failed += 1;
                continue;
            };
            let at = |ns: u64| origin + Duration::from_nanos(ns);
            let id = (b * block_len + sample.index) as u64;
            let http =
                tracer.push("http.request", None, id, at(sample.sent_ns), at(sample.done_ns));
            // The server reports durations, not instants: the query is placed
            // after the queue wait and the parse it reports.
            let exec_start = sample.sent_ns + (reply.queue_us + reply.parse_us) * 1000;
            let exec_end = exec_start + reply.execute_us * 1000;
            tracer.push("core.query", Some(http), id, at(exec_start), at(exec_end));
            overhead_ns += sample.rtt_ns().saturating_sub(reply.execute_us * 1000);
            queue_us += reply.queue_us;
            parse_us += reply.parse_us;
            bytes += body.len() as u64;
            n += 1;
            if id.is_multiple_of(every) {
                checker.check(&program, block[sample.index].0, &reply.answer);
            }
        }
        traced.extend(samples);
    }
    failed += not_ok(&plain) + not_ok(&traced);
    measured.set("server.overhead_us", us(overhead_ns) / n.max(1) as f64, n);
    measured.set("server.queue_us", ratio(queue_us, n), n);
    measured.set("server.parse_us", ratio(parse_us, n), n);
    measured.set("server.resp_bytes", ratio(bytes, n), n);
    let (exec_ns, execs) = tracer.total("core.query");
    measured.set("core.query_us", us(exec_ns) / execs.max(1) as f64, execs);
    measured.set(
        "trace_overhead_share",
        mean_rtt_us(&traced) / mean_rtt_us(&plain).max(f64::MIN_POSITIVE) - 1.0,
        traced.len() as u64,
    );

    // The sweep, open loop, on the same warm server.
    let per_rate = streams::sweep_seconds_per_rate(cfg.scale) as u64;
    let mut next = s.warmup + prefix;
    let mut attempted = (warmup.len() + closed.len()) as u64;
    let mut phases = Vec::new();
    let mut rate_ok = 0;
    let mut still_ok = true;
    for rate in streams::SWEEP_RATES {
        let count = ((rate * per_rate) as usize).min(requests.len() - next);
        let (_, swept) =
            openloop::drive(&mut clients, &requests[next..next + count], Some(rate), |_| false);
        next += count;
        attempted += swept.len() as u64;
        failed += not_ok(&swept);
        let phase = Phase::of(rate, &swept);
        still_ok &= phase.sustained(RATE_OK_P99_US);
        if still_ok {
            rate_ok = rate;
        }
        if rate == streams::HTTP_OPEN_RPS as u64 {
            measured.set("gen.late_p99_us", phase.gen_late_p99_us, swept.len() as u64);
        }
        phases.push(phase_json(&phase));
    }
    drop(clients);
    measured.set("server.rate_ok_rps", rate_ok as f64, streams::SWEEP_RATES.len() as u64);

    let (stats, counts) = counts_of(&program);
    measured.set("server.shed", program.server_shed() as f64, attempted);
    cache_metrics(&program, &stats, measured);
    drop(program.shutdown());
    // Two connections, each sending as soon as its last reply arrived.
    let closed_loop_rps = layers::HTTP_CONNECTIONS as f64 * 1e6 / mean_rtt_us(&plain);
    let extras = vec![
        ("untraced_mean_rtt_us", Value::Float(mean_rtt_us(&plain))),
        ("traced_mean_rtt_us", Value::Float(mean_rtt_us(&traced))),
        ("closed_loop_rps", Value::Float(closed_loop_rps)),
        ("sweep_seconds_per_rate", Value::UInt(per_rate)),
        ("sweep", Value::Array(phases)),
        ("answers_checked", Value::UInt(checker.checked)),
        ("answers_wrong", Value::UInt(checker.wrong)),
    ];
    Ok(Outcome { attempted, failed: failed + checker.wrong, counts, extras })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(workload: &str, corrupt: bool) -> Config {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-runs")
            .join(format!("{workload}-{corrupt}-{:?}", std::thread::current().id()));
        Config {
            workload: workload.into(),
            seed: 11,
            scale: Scale { graphs: 150, seconds: 1 },
            trace: false,
            smoke: true,
            corrupt,
            out,
        }
    }

    fn counts(result: &RunResult) -> String {
        format!("{:?}", result.counts)
    }

    #[test]
    fn two_replays_of_one_stream_count_the_same() {
        for workload in ["drift-cold", "mutate-durable"] {
            let a = run(&config(workload, false)).unwrap();
            let b = run(&config(workload, false)).unwrap();
            assert_eq!((a.failed, b.failed), (0, 0), "{workload}");
            assert_eq!(counts(&a), counts(&b), "{workload}");
            let tests = |r: &RunResult| {
                r.measured
                    .in_order(crate::report::END_TO_END)
                    .find(|m| m.0.name == "tests_per_query")
                    .unwrap()
                    .1
            };
            assert!(tests(&a) > 0.0 && tests(&a) == tests(&b), "{workload}");
        }
    }

    #[test]
    fn a_corrupted_answer_fails_the_run() {
        let spoiled = run(&config("drift-cold", true)).unwrap();
        assert_eq!(spoiled.failed, 1);
        assert!(spoiled.contract_line().starts_with("{\"correct\":false,"));
    }
}
