//! Experiment XI: warm restarts from durable cache state.
//!
//! GraphCache's whole value proposition is *accumulated* state, yet before
//! the `gc-store` subsystem every restart threw it away and re-paid the
//! cold-start subgraph-isomorphism tax. This harness measures what the
//! snapshot + journal persistence buys and gates its correctness contract:
//!
//! 1. **Session A** serves a Zipf workload with persistence attached
//!    (auto-snapshots mid-run, so the final on-disk state is a snapshot
//!    *plus* a journal tail), then "crashes" (dropped without a final
//!    snapshot).
//! 2. **Session B** warm-restarts from the store. The harness verifies the
//!    restored entry set matches A's exactly (by fingerprint multiset, with
//!    journaled admissions replayed) and that every restored entry serves
//!    an **exact hit with zero recomputed admissions**.
//! 3. A probe workload runs on B (warm) and on a fresh cold cache;
//!    **answers are cross-checked identical query-by-query** (and against
//!    Method M alone), and the time/queries to reach the target hit ratio
//!    are compared — the headline cold-vs-warm numbers.
//! 4. **Corruption injection**: bit-flipped and truncated snapshot/journal
//!    files must all fail closed to a *cold but correct* start, while a
//!    *torn journal tail* (the signature of a crash mid-append) must keep
//!    the intact prefix and restore warm. Any violation **exits nonzero**,
//!    making this a recovery gate as well as a benchmark.
//!
//! Writes `bench_results/exp11_warm_restart.json` and — as the repo's
//! persistence perf-trajectory artifact — `BENCH_store.json` on full runs.
//! `--smoke` shrinks everything for CI.

use gc_bench::{print_table, write_artifact};
use gc_core::persist::CacheStore;
use gc_core::{CacheConfig, GraphCache, PolicyKind, QueryReport};
use gc_method::{execute_base, Dataset, Engine, FtvMethod, QueryKind, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Exp11Artifact {
    smoke: bool,
    dataset_size: usize,
    warmup_queries: usize,
    probe_queries: usize,
    capacity: usize,
    /// Entries live in session A at the crash.
    entries_at_crash: usize,
    /// Entries session B restored (must equal `entries_at_crash`).
    entries_restored: usize,
    /// Journal records replayed on restore (admissions + evictions).
    journal_admits_replayed: usize,
    journal_evicts_replayed: usize,
    /// Wall time of the restore (load + replay + fresh snapshot), seconds.
    restore_s: f64,
    snapshot_bytes: u64,
    /// Probe-workload wall time, cold vs warm cache.
    cold_probe_s: f64,
    warm_probe_s: f64,
    /// `cold_probe_s / warm_probe_s`.
    warm_time_speedup: f64,
    /// Average sub-iso tests per probe query (probe tests charged), the
    /// paper's primary metric.
    cold_avg_tests: f64,
    warm_avg_tests: f64,
    /// `cold_avg_tests / warm_avg_tests`.
    warm_test_speedup: f64,
    /// Queries until the cumulative hit ratio reaches the target
    /// (`probe_queries + 1` = never reached).
    target_hit_ratio: f64,
    cold_queries_to_target: usize,
    warm_queries_to_target: usize,
    cold_final_hit_ratio: f64,
    warm_final_hit_ratio: f64,
    /// Restored entries re-queried as exact hits without re-admission.
    zero_recompute_entries: usize,
    /// Probe answers cross-checked identical (cold vs warm vs Method M).
    answers_cross_checked: usize,
    /// Corruption-injection cases that correctly failed closed.
    corruption_cases_passed: usize,
}

fn fail(msg: &str) -> ! {
    eprintln!("exp11 FAILED: {msg}");
    std::process::exit(1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_exp11_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read store dir").flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

fn session(
    ds: &Arc<Dataset>,
    cfg: &CacheConfig,
    store: Option<Arc<CacheStore>>,
) -> (GraphCache, gc_core::RecoveryReport) {
    let method = Box::new(FtvMethod::build(ds, 2));
    match store {
        Some(store) => {
            GraphCache::restore_from(ds.clone(), method, PolicyKind::Hd.make(), cfg.clone(), store)
                .unwrap_or_else(|e| fail(&format!("restore_from errored: {e}")))
        }
        None => (
            GraphCache::with_policy(ds.clone(), method, PolicyKind::Hd, cfg.clone())
                .expect("valid config"),
            gc_core::RecoveryReport::default(),
        ),
    }
}

fn entry_signature(gc: &GraphCache) -> Vec<(u64, QueryKind)> {
    let mut sig = Vec::new();
    gc.for_each_shard(|_, cm| sig.extend(cm.iter().map(|e| (e.fingerprint, e.kind))));
    sig.sort_unstable_by_key(|&(fp, k)| (fp, k as u8));
    sig
}

/// Run `queries` and return (reports, wall seconds).
fn run_queries(
    gc: &mut GraphCache,
    queries: &[gc_workload::WorkloadQuery],
) -> (Vec<QueryReport>, f64) {
    let start = Instant::now();
    let reports = queries.iter().map(|wq| gc.query(&wq.graph, wq.kind)).collect();
    (reports, start.elapsed().as_secs_f64())
}

/// First query index (1-based) at which the cumulative hit ratio reaches
/// `target`; `len + 1` when never reached.
fn queries_to_target(reports: &[QueryReport], target: f64) -> usize {
    let mut hits = 0usize;
    for (i, r) in reports.iter().enumerate() {
        hits += usize::from(r.any_hit());
        if hits as f64 / (i + 1) as f64 >= target {
            return i + 1;
        }
    }
    reports.len() + 1
}

/// One corruption case: mutate a copy of the store dir, then require a
/// cold-but-correct restore.
fn corruption_case(
    name: &str,
    golden: &Path,
    ds: &Arc<Dataset>,
    cfg: &CacheConfig,
    probe: &[gc_workload::WorkloadQuery],
    mutate: impl FnOnce(&Path),
) {
    let dir = fresh_dir(&format!("corrupt_{name}"));
    copy_dir(golden, &dir);
    mutate(&dir);
    let store = Arc::new(CacheStore::open(&dir).expect("open corrupted dir"));
    let (mut gc, report) = session(ds, cfg, Some(store));
    if report.warm {
        fail(&format!("corruption case {name:?}: corrupted store restored warm"));
    }
    if report.cold_reason.is_none() {
        fail(&format!("corruption case {name:?}: no cold reason reported"));
    }
    if !gc.is_empty() {
        fail(&format!("corruption case {name:?}: cold cache not empty"));
    }
    // Correctness survives: the cold cache still answers exactly.
    for wq in probe.iter().take(3) {
        let got = gc.query(&wq.graph, wq.kind);
        let want = execute_base(ds, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        if got.answer != want.answer {
            fail(&format!("corruption case {name:?}: cold cache answer diverged"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("snapshot.gcs")
}

fn journal_file(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "gcj"))
        .expect("journal present")
}

fn flip_byte(path: &Path, frac: f64) {
    let mut bytes = std::fs::read(path).expect("read file");
    let pos = ((bytes.len() - 1) as f64 * frac) as usize;
    bytes[pos] ^= 0x40;
    std::fs::write(path, bytes).expect("write file");
}

fn flip_byte_at(path: &Path, pos: usize) {
    let mut bytes = std::fs::read(path).expect("read file");
    bytes[pos] ^= 0x40;
    std::fs::write(path, bytes).expect("write file");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ds_size = if smoke { 36 } else { 90 };
    let warmup_queries = if smoke { 160 } else { 700 };
    let probe_queries = if smoke { 80 } else { 300 };
    let capacity = if smoke { 32 } else { 60 };

    let ds = Arc::new(Dataset::new(molecule_dataset(ds_size, 404)));
    let cfg = CacheConfig {
        capacity,
        window_size: 5,
        snapshot_interval: Some((warmup_queries / 4) as u64),
        ..CacheConfig::default()
    };
    let spec = |n, seed| WorkloadSpec {
        n_queries: n,
        pool_size: capacity + capacity / 2,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        seed,
        ..WorkloadSpec::default()
    };
    // One continuous traffic stream, interrupted by the restart: session A
    // serves the warm-up segment, the probe segment then runs on both the
    // warm-restarted cache and a cold one.
    let full = Workload::generate(ds.graphs(), &spec(warmup_queries + probe_queries, 7));
    let (warmup, probe) = full.queries.split_at(warmup_queries);

    // ---- session A: warm up with persistence, then crash -----------------
    let dir = fresh_dir("store");
    let store = Arc::new(CacheStore::open(&dir).expect("open store"));
    let (mut a, first) = session(&ds, &cfg, Some(store));
    if first.warm {
        fail("fresh directory restored warm");
    }
    run_queries(&mut a, warmup);
    // The warm-up may end exactly on a rotation boundary; top up with extra
    // traffic until the journal tail is non-empty, so the restore exercises
    // genuine journal replay.
    let topup = Workload::generate(ds.graphs(), &spec(64, 1234));
    let mut topup_iter = topup.queries.iter();
    while a.attached_store().expect("store attached").journal_records() == 0 {
        let Some(wq) = topup_iter.next() else {
            fail("journal tail is empty — auto-snapshot cadence leaves nothing to replay")
        };
        a.query(&wq.graph, wq.kind);
    }
    let a_sig = entry_signature(&a);
    let entries_at_crash = a.len();
    a.attached_store().expect("store attached").sync().expect("sync journal");
    drop(a); // crash: no final snapshot

    // Golden copy for the corruption cases before any restore rotates it.
    let golden = fresh_dir("golden");
    copy_dir(&dir, &golden);

    // ---- session B: warm restart ----------------------------------------
    let t = Instant::now();
    let store = Arc::new(CacheStore::open(&dir).expect("reopen store"));
    let (mut warm, report) = session(&ds, &cfg, Some(store));
    let restore_s = t.elapsed().as_secs_f64();
    if !report.warm {
        fail(&format!("restore was cold: {:?}", report.cold_reason));
    }
    if entry_signature(&warm) != a_sig {
        fail("restored entry set diverged from the crashed session");
    }
    let snapshot_bytes = std::fs::metadata(snapshot_file(&dir)).map(|m| m.len()).unwrap_or(0);

    // Zero recomputed admissions: every restored entry is an exact hit.
    let mut restored = Vec::new();
    warm.for_each_shard(|_, cm| restored.extend(cm.iter().map(|e| (e.graph.clone(), e.kind))));
    let mut zero_recompute_entries = 0usize;
    for (graph, kind) in restored {
        let r = warm.query(&graph, kind);
        if !r.exact_hit || r.admitted.is_some() {
            fail("restored entry was re-executed or re-admitted");
        }
        zero_recompute_entries += 1;
    }

    // ---- probe: cold vs warm, answers cross-checked ----------------------
    let (mut cold, _) = session(&ds, &cfg, None);
    let (cold_reports, cold_probe_s) = run_queries(&mut cold, probe);
    let (warm_reports, warm_probe_s) = run_queries(&mut warm, probe);
    let mut answers_cross_checked = 0usize;
    for (i, (rc, rw)) in cold_reports.iter().zip(&warm_reports).enumerate() {
        if rc.answer != rw.answer {
            fail(&format!("cold/warm answers diverged at probe query {i}"));
        }
        answers_cross_checked += 1;
    }
    // Spot-check against Method M alone (full sweep would double runtime).
    for wq in probe.iter().step_by(probe_queries.div_ceil(16).max(1)) {
        let want = execute_base(&ds, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        let got = warm.query(&wq.graph, wq.kind);
        if got.answer != want.answer {
            fail("warm cache diverged from Method M");
        }
    }

    let avg_tests = |reports: &[QueryReport]| {
        reports.iter().map(|r| (r.sub_iso_tests + r.probe_tests) as f64).sum::<f64>()
            / reports.len().max(1) as f64
    };
    let cold_avg_tests = avg_tests(&cold_reports);
    let warm_avg_tests = avg_tests(&warm_reports);
    let warm_final = warm_reports.iter().filter(|r| r.any_hit()).count() as f64
        / warm_reports.len().max(1) as f64;
    let cold_final = cold_reports.iter().filter(|r| r.any_hit()).count() as f64
        / cold_reports.len().max(1) as f64;
    let target_hit_ratio = 0.8 * warm_final;
    let cold_to_target = queries_to_target(&cold_reports, target_hit_ratio);
    let warm_to_target = queries_to_target(&warm_reports, target_hit_ratio);
    if warm_to_target > cold_to_target {
        fail("warm restart reached the target hit ratio later than cold start");
    }

    // ---- corruption injection -------------------------------------------
    type Corruptor = Box<dyn FnOnce(&Path)>;
    let mut corruption_cases_passed = 0usize;
    let cases: Vec<(&str, Corruptor)> = vec![
        ("snapshot_bitflip_head", Box::new(|d: &Path| flip_byte(&snapshot_file(d), 0.1))),
        ("snapshot_bitflip_tail", Box::new(|d: &Path| flip_byte(&snapshot_file(d), 0.95))),
        (
            "snapshot_truncated",
            Box::new(|d: &Path| {
                let p = snapshot_file(d);
                let bytes = std::fs::read(&p).expect("read snapshot");
                std::fs::write(&p, &bytes[..bytes.len() / 2]).expect("truncate snapshot");
            }),
        ),
        // A guaranteed mid-payload byte of the journal's FIRST record
        // (header 44 + frame header 12 + 2): a bit flip inside a
        // *complete* frame is corruption and must go cold — unlike a torn
        // tail, which only drops the incomplete suffix (checked below).
        (
            "journal_bitflip",
            Box::new(|d: &Path| {
                flip_byte_at(&journal_file(d), gc_store::journal::HEADER_LEN + 12 + 2)
            }),
        ),
        (
            "journal_missing",
            Box::new(|d: &Path| std::fs::remove_file(journal_file(d)).expect("remove journal")),
        ),
    ];
    for (name, mutate) in cases {
        corruption_case(name, &golden, &ds, &cfg, probe, mutate);
        corruption_cases_passed += 1;
    }

    // Torn journal tail: NOT corruption — the crash-mid-append signature.
    // Recovery must keep the intact prefix (warm), report the dropped
    // bytes, and stay exact.
    {
        let dir = fresh_dir("torn_tail");
        copy_dir(&golden, &dir);
        let p = journal_file(&dir);
        let bytes = std::fs::read(&p).expect("read journal");
        std::fs::write(&p, &bytes[..bytes.len() - 5]).expect("tear journal");
        let store = Arc::new(CacheStore::open(&dir).expect("open torn dir"));
        let (mut gc, report) = session(&ds, &cfg, Some(store));
        if !report.warm {
            fail(&format!("torn tail went cold instead of warm: {:?}", report.cold_reason));
        }
        if report.journal_torn_bytes == 0 {
            fail("torn tail restored warm but did not report the dropped bytes");
        }
        for wq in probe.iter().take(3) {
            let got = gc.query(&wq.graph, wq.kind);
            let want = execute_base(&ds, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
            if got.answer != want.answer {
                fail("torn-tail warm cache answer diverged");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        corruption_cases_passed += 1;
    }

    // ---- report ----------------------------------------------------------
    println!(
        "=== Experiment XI: warm restarts ({ds_size} graphs, {warmup_queries} warm-up + \
         {probe_queries} probe queries, capacity {capacity}, crash = snapshot + journal tail) ===\n"
    );
    let rows = vec![
        vec![
            "queries to target hit ratio".to_owned(),
            format!("{cold_to_target}"),
            format!("{warm_to_target}"),
            format!("target {target_hit_ratio:.2}"),
        ],
        vec![
            "probe wall time".to_owned(),
            format!("{:.1} ms", cold_probe_s * 1e3),
            format!("{:.1} ms", warm_probe_s * 1e3),
            format!("{:.2}x", cold_probe_s / warm_probe_s.max(1e-12)),
        ],
        vec![
            "avg sub-iso tests / query".to_owned(),
            format!("{cold_avg_tests:.1}"),
            format!("{warm_avg_tests:.1}"),
            format!("{:.2}x", cold_avg_tests / warm_avg_tests.max(1e-12)),
        ],
        vec![
            "final probe hit ratio".to_owned(),
            format!("{:.1}%", 100.0 * cold_final),
            format!("{:.1}%", 100.0 * warm_final),
            String::new(),
        ],
    ];
    print_table(&["metric", "cold start", "warm restart", "note"], &rows);
    println!(
        "\nrestore: {} entries in {:.1} ms (snapshot {} KiB + {} journal admits / {} evicts); \
         {} restored entries re-served with zero recomputed admissions; \
         {} probe answers cross-checked identical; {} corruption cases failed closed",
        report.entries_restored,
        restore_s * 1e3,
        snapshot_bytes / 1024,
        report.journal_admits,
        report.journal_evicts,
        zero_recompute_entries,
        answers_cross_checked,
        corruption_cases_passed
    );

    let artifact = Exp11Artifact {
        smoke,
        dataset_size: ds_size,
        warmup_queries,
        probe_queries,
        capacity,
        entries_at_crash,
        entries_restored: report.entries_restored,
        journal_admits_replayed: report.journal_admits,
        journal_evicts_replayed: report.journal_evicts,
        restore_s,
        snapshot_bytes,
        cold_probe_s,
        warm_probe_s,
        warm_time_speedup: cold_probe_s / warm_probe_s.max(1e-12),
        cold_avg_tests,
        warm_avg_tests,
        warm_test_speedup: cold_avg_tests / warm_avg_tests.max(1e-12),
        target_hit_ratio,
        cold_queries_to_target: cold_to_target,
        warm_queries_to_target: warm_to_target,
        cold_final_hit_ratio: cold_final,
        warm_final_hit_ratio: warm_final,
        zero_recompute_entries,
        answers_cross_checked,
        corruption_cases_passed,
    };
    match write_artifact("exp11_warm_restart", &artifact) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    if !smoke {
        match serde_json::to_string_pretty(&artifact) {
            Ok(json) => match std::fs::write("BENCH_store.json", json) {
                Ok(()) => println!("baseline: BENCH_store.json"),
                Err(e) => eprintln!("baseline write failed: {e}"),
            },
            Err(e) => eprintln!("baseline serialization failed: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&golden);
}
