//! Experiment XIII: live chaos — the cache under injected faults.
//!
//! The durability work (fsync policy, degraded-mode persistence, torn-tail
//! recovery) is only trustworthy if it holds under *adversarial* fault
//! schedules, not just the happy path. This harness replays a Zipf
//! workload while a deterministic [`gc_core::persist::FaultPlan`] injects
//! faults at every persistence I/O site, and gates the full contract:
//!
//! * **A — transient I/O errors**: `ErrOnce` at each journal/snapshot
//!   site; the retry budget absorbs them and persistence stays healthy.
//! * **B — persistent failure**: every append fails; the circuit breaker
//!   trips to degraded and the cache keeps serving *exact* answers
//!   memory-only (every answer cross-checked against Method M alone).
//! * **C — recovery**: the fault clears; a recovery probe cuts a fresh
//!   snapshot, re-arms durability, and the directory restores warm.
//! * **E — crash + bounded loss**: under `FsyncPolicy::EveryN(n)`, a
//!   simulated crash (journal truncated at any point at or past the last
//!   fsync) recovers an exact record prefix and loses at most
//!   `n - 1 + max_append_batch` records.
//!
//! Any divergence or failed recovery **exits nonzero**. Writes
//! `bench_results/exp13_fault_chaos.json` and — as the repo's fault
//!-tolerance trajectory artifact — `BENCH_chaos.json` on full runs.
//! `--smoke` shrinks everything for CI.

use gc_bench::{print_table, write_artifact};
use gc_core::persist::{CacheStore, Failpoint, FaultPlan, FaultSite};
use gc_core::{CacheConfig, FsyncPolicy, GraphCache, PersistHealth, PolicyKind};
use gc_method::{execute_base, Dataset, Engine, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Exp13Artifact {
    smoke: bool,
    dataset_size: usize,
    chaos_queries: usize,
    /// Every answer produced under chaos, cross-checked against Method M.
    answers_cross_checked: usize,
    /// Of those, answers served while persistence was degraded/disabled.
    answers_served_degraded: usize,
    /// Queries answered / queries issued — the cache never refuses one.
    availability: f64,
    /// Transient-fault sites that were absorbed by the retry budget.
    transient_sites_absorbed: usize,
    /// Injected faults that actually fired across all segments.
    faults_fired: usize,
    /// Recovery: snapshot generation before the outage and after re-arm.
    generation_before_outage: u64,
    generation_after_recovery: u64,
    /// Segment E: group-commit bound and the worst observed loss.
    fsync_every_n: u64,
    bounded_loss_limit: u64,
    max_records_lost: u64,
    crash_cuts_tested: usize,
}

fn fail(msg: &str) -> ! {
    eprintln!("exp13 FAILED: {msg}");
    std::process::exit(1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_exp13_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(n: usize) -> Arc<Dataset> {
    Arc::new(Dataset::new(molecule_dataset(n, 1313)))
}

fn workload(ds: &Arc<Dataset>, n: usize, seed: u64) -> Workload {
    let spec = WorkloadSpec {
        n_queries: n,
        pool_size: 24,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        seed,
        ..WorkloadSpec::default()
    };
    Workload::generate(ds.graphs(), &spec)
}

/// Run `w` through `gc`, cross-checking every answer against Method M
/// alone. Returns (answers checked, answers served while not healthy).
fn run_checked(gc: &mut GraphCache, ds: &Arc<Dataset>, w: &Workload, what: &str) -> (usize, usize) {
    let mut checked = 0usize;
    let mut degraded = 0usize;
    for wq in &w.queries {
        let got = gc.query(&wq.graph, wq.kind);
        let want = execute_base(ds, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        if got.answer != want.answer {
            fail(&format!("{what}: answer diverged from Method M under injected faults"));
        }
        checked += 1;
        if gc.persist_health().is_some_and(|h| h != PersistHealth::Healthy) {
            degraded += 1;
        }
    }
    (checked, degraded)
}

fn cache(ds: &Arc<Dataset>, cfg: CacheConfig) -> GraphCache {
    GraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ds_size = if smoke { 24 } else { 60 };
    let seg_queries = if smoke { 40 } else { 160 };
    // Deliberately not a multiple of the EveryN(4) group size so the tail of
    // the journal is unsynced and the cut sweep exercises real loss windows.
    let crash_records = if smoke { 25 } else { 81 };

    let ds = dataset(ds_size);
    let cfg = CacheConfig {
        capacity: 24,
        window_size: 3,
        min_admit_tests: 0,
        persist_retries: 2,
        ..CacheConfig::default()
    };
    let mut answers_cross_checked = 0usize;
    let mut answers_served_degraded = 0usize;
    let mut faults_fired = 0usize;

    // ---- segment A: transient errors absorbed by retries ------------------
    // One ErrOnce per append plus one SlowIo stall: the retry budget (2)
    // must absorb each without tripping the breaker. Rotation-site
    // transients are covered by gc-store's own tests; here the contract is
    // end-to-end health.
    let dir_a = fresh_dir("transient");
    let store_a = Arc::new(CacheStore::open(&dir_a).expect("open store"));
    let mut gc = cache(&ds, cfg.clone());
    gc.attach_store(Arc::clone(&store_a)).expect("attach");
    let plan = Arc::new(FaultPlan::seeded(1));
    let transient_sites: &[Failpoint] = &[
        Failpoint::ErrOnce,
        Failpoint::SlowIo { millis: 2 },
        Failpoint::ErrOnce,
        Failpoint::ErrOnce,
    ];
    for fp in transient_sites {
        plan.arm(FaultSite::JournalAppend, *fp);
    }
    store_a.set_fault_plan(Some(Arc::clone(&plan)));
    let (c, d) = run_checked(&mut gc, &ds, &workload(&ds, seg_queries, 2), "segment A");
    answers_cross_checked += c;
    answers_served_degraded += d;
    if gc.persist_health() != Some(PersistHealth::Healthy) {
        fail("segment A: transient faults tripped the breaker despite the retry budget");
    }
    let transient_sites_absorbed = plan.fired();
    if transient_sites_absorbed == 0 {
        fail("segment A: no transient fault fired — segment is vacuous");
    }
    faults_fired += transient_sites_absorbed;
    store_a.set_fault_plan(None);
    drop(gc);
    let _ = std::fs::remove_dir_all(&dir_a);

    // ---- segments B + C: persistent outage, then recovery -----------------
    let dir_b = fresh_dir("outage");
    let store_b = Arc::new(CacheStore::open(&dir_b).expect("open store"));
    let mut gc = cache(&ds, cfg.clone());
    gc.attach_store(Arc::clone(&store_b)).expect("attach");
    let generation_before_outage = store_b.generation().unwrap_or(0);
    let plan = Arc::new(FaultPlan::seeded(7));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    plan.arm(FaultSite::SnapshotWrite, Failpoint::ErrAfter { n: 0 });
    store_b.set_fault_plan(Some(Arc::clone(&plan)));
    let (c, d) = run_checked(&mut gc, &ds, &workload(&ds, seg_queries, 3), "segment B");
    answers_cross_checked += c;
    answers_served_degraded += d;
    if gc.persist_health() != Some(PersistHealth::Degraded) {
        fail("segment B: persistent append failure did not degrade persistence");
    }
    if d == 0 {
        fail("segment B: no answer was served degraded — segment is vacuous");
    }
    let stats = gc.stats();
    if stats.persist_errors == 0 || stats.journal_records_buffered == 0 {
        fail("segment B: degraded gauges not populated");
    }
    faults_fired += plan.fired();

    // C: outage ends; probes must re-arm durability.
    store_b.set_fault_plan(None);
    let probe_w = workload(&ds, 8, 4);
    let deadline = Instant::now() + Duration::from_secs(20);
    while gc.persist_health() != Some(PersistHealth::Healthy) {
        if Instant::now() >= deadline {
            fail("segment C: recovery probe never re-armed persistence");
        }
        let (c, d) = run_checked(&mut gc, &ds, &probe_w, "segment C");
        answers_cross_checked += c;
        answers_served_degraded += d;
        std::thread::sleep(Duration::from_millis(5));
    }
    let generation_after_recovery = store_b.generation().unwrap_or(0);
    if generation_after_recovery <= generation_before_outage {
        fail("segment C: recovery did not cut a fresh snapshot generation");
    }
    if gc.stats().journal_records_buffered != 0 {
        fail("segment C: buffered-records gauge not reset by the recovery snapshot");
    }
    drop(gc);
    let (mut warm, report) = GraphCache::restore_from(
        ds.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd.make(),
        cfg.clone(),
        Arc::new(CacheStore::open(&dir_b).expect("reopen store")),
    )
    .unwrap_or_else(|e| fail(&format!("segment C: restore errored: {e}")));
    if !report.warm {
        fail(&format!("segment C: post-recovery restore was cold: {:?}", report.cold_reason));
    }
    let (c, _) = run_checked(&mut warm, &ds, &workload(&ds, 8, 5), "segment C restore");
    answers_cross_checked += c;
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir_b);

    // ---- segment E: crash + bounded loss under group commit ---------------
    // Build a journal of single-op appends under EveryN(n), then simulate a
    // crash at every byte the OS could have persisted (any cut at or past
    // the last fsync) and check the recovery contract: an exact record
    // prefix, at least the synced records, at most n-1+max_batch lost.
    let fsync_every_n = 4u64;
    let dir_e = fresh_dir("crash");
    let store_e = Arc::new(CacheStore::open(&dir_e).expect("open store"));
    {
        // Empty base snapshot so recovery is snapshot + pure journal tail.
        let mut seeder = cache(&ds, cfg.clone());
        seeder.attach_store(Arc::clone(&store_e)).expect("base snapshot");
        seeder.detach_store();
    }
    store_e.set_fsync_policy(FsyncPolicy::EveryN(fsync_every_n));
    let seed_w = workload(&ds, crash_records, 8);
    let mut journaled = 0u64;
    for (i, wq) in seed_w.queries.iter().enumerate() {
        let want = execute_base(&ds, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        let answer: Vec<u32> = want.answer.to_vec().iter().map(|&g| g as u32).collect();
        store_e
            .append(&[gc_store::JournalOp::Admit {
                orig_id: i as u32,
                now: i as u64 + 1,
                kind: wq.kind,
                base_tests: want.sub_iso_tests as u64,
                base_cost: want.sub_iso_tests as u64,
                graph: &wq.graph,
                answer: &answer,
            }])
            .expect("append");
        journaled += 1;
    }
    let synced_bytes = store_e.journal_synced_bytes();
    let synced_records = store_e.journal_synced_records();
    let max_batch = store_e.max_append_batch();
    let bounded_loss_limit = fsync_every_n - 1 + max_batch;
    if journaled - synced_records > bounded_loss_limit {
        fail("segment E: unsynced backlog already exceeds the documented bound");
    }
    let journal_path = std::fs::read_dir(&dir_e)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "gcj"))
        .expect("journal present");
    let full_bytes = std::fs::read(&journal_path).expect("read journal");
    drop(store_e);

    let mut max_records_lost = 0u64;
    let mut crash_cuts_tested = 0usize;
    // Every cut the OS could leave behind: from the fsync'd prefix to the
    // full file. Step 1 in smoke would be hundreds of restores; sample.
    let step = if smoke { 7 } else { 3 };
    let mut cuts: Vec<usize> = (synced_bytes as usize..full_bytes.len()).step_by(step).collect();
    cuts.push(full_bytes.len());
    for cut in cuts {
        std::fs::write(&journal_path, &full_bytes[..cut]).expect("truncate journal");
        let store = Arc::new(CacheStore::open(&dir_e).expect("reopen store"));
        let state = match store.load() {
            gc_core::LoadOutcome::Warm(state) => state,
            gc_core::LoadOutcome::Cold { reason } => {
                fail(&format!("segment E: crash cut at {cut} went cold: {reason}"))
            }
        };
        let recovered = state.journal.len() as u64;
        if recovered < synced_records {
            fail("segment E: recovery lost fsync'd records");
        }
        // Exact prefix: record i of the recovery is record i of the write
        // order (spot-check the last recovered record's timestamp, which
        // was written as its 1-based index).
        if let Some(gc_store::JournalRecord::Admit { now, .. }) = state.journal.last() {
            if *now != recovered {
                fail("segment E: recovered journal is not an exact write-order prefix");
            }
        }
        let lost = journaled - recovered.min(journaled);
        max_records_lost = max_records_lost.max(lost);
        if lost > bounded_loss_limit {
            fail(&format!(
                "segment E: lost {lost} records at cut {cut}, bound is {bounded_loss_limit}"
            ));
        }
        crash_cuts_tested += 1;
    }
    let _ = std::fs::remove_dir_all(&dir_e);

    // ---- report -----------------------------------------------------------
    let chaos_queries = answers_cross_checked;
    let availability = 1.0; // every issued query was answered (or we exited)
    println!(
        "=== Experiment XIII: fault chaos ({ds_size} graphs, {chaos_queries} answers \
         cross-checked, fsync EveryN({fsync_every_n})) ===\n"
    );
    let rows = vec![
        vec![
            "availability under chaos".to_owned(),
            format!("{:.1}%", 100.0 * availability),
            format!("{chaos_queries} answers, all exact"),
        ],
        vec![
            "degraded-mode service".to_owned(),
            format!("{answers_served_degraded} answers"),
            "memory-only, all exact".to_owned(),
        ],
        vec![
            "transient faults absorbed".to_owned(),
            format!("{transient_sites_absorbed}"),
            "retries, breaker never tripped".to_owned(),
        ],
        vec![
            "recovery".to_owned(),
            format!("gen {generation_before_outage} -> {generation_after_recovery}"),
            "fresh snapshot re-armed durability".to_owned(),
        ],
        vec![
            "crash loss bound".to_owned(),
            format!("max {max_records_lost} of {journaled} records"),
            format!("bound {bounded_loss_limit}, {crash_cuts_tested} cuts"),
        ],
    ];
    print_table(&["contract", "observed", "note"], &rows);

    let artifact = Exp13Artifact {
        smoke,
        dataset_size: ds_size,
        chaos_queries,
        answers_cross_checked,
        answers_served_degraded,
        availability,
        transient_sites_absorbed,
        faults_fired,
        generation_before_outage,
        generation_after_recovery,
        fsync_every_n,
        bounded_loss_limit,
        max_records_lost,
        crash_cuts_tested,
    };
    match write_artifact("exp13_fault_chaos", &artifact) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    if !smoke {
        match serde_json::to_string_pretty(&artifact) {
            Ok(json) => match std::fs::write("BENCH_chaos.json", json) {
                Ok(()) => println!("baseline: BENCH_chaos.json"),
                Err(e) => eprintln!("baseline write failed: {e}"),
            },
            Err(e) => eprintln!("baseline serialization failed: {e}"),
        }
    }
}
