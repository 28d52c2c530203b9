//! Fault-injected integration tests: the cache under deterministic I/O
//! errors and torn writes.
//!
//! The invariant under test is GraphCache's central one — answers are
//! *exactly* those of Method M alone — extended with the durability
//! contract: under any injected fault the cache may get slower or colder
//! (degraded persistence), but never wrong, and persistence re-arms itself
//! once the fault clears.
//!
//! The journal holds dataset mutations only, so the faults are driven by
//! `insert_graph`/`remove_graph`; query traffic drives the recovery probes.
//! Each test arms its own plan on its own store, so they run in parallel.

use gc_core::persist::{Failpoint, FaultPlan, FaultSite};
use gc_core::{CacheConfig, GraphCache, PersistHealth, PolicyKind, SharedGraphCache};
use gc_method::{execute_base, Dataset, Engine, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Arc<Dataset> {
    Arc::new(Dataset::new(molecule_dataset(26, 7)))
}

fn workload(ds: &Arc<Dataset>, n: usize, seed: u64) -> Workload {
    let spec = WorkloadSpec {
        n_queries: n,
        pool_size: 16,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        seed,
        ..WorkloadSpec::default()
    };
    Workload::generate(ds.graphs(), &spec)
}

/// Run `w` through `gc`, asserting every answer equals Method M alone on
/// the cache's live dataset.
fn assert_exact(gc: &SharedGraphCache, w: &Workload) {
    let ds = gc.dataset();
    for wq in &w.queries {
        let got = gc.query(&wq.graph, wq.kind);
        let want = execute_base(&ds, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(got.answer, want.answer, "answer diverged under injected faults");
    }
}

/// `rounds` insert/remove pairs: two journal appends each.
fn mutate(gc: &SharedGraphCache, rounds: u64) {
    for round in 0..rounds {
        let gid = gc.insert_graph(molecule_dataset(1, 100 + round).remove(0));
        assert!(gc.remove_graph(gid));
    }
}

#[test]
fn transient_append_faults_are_absorbed_by_retries() {
    let ds = dataset();
    let dir = tmpdir("transient");
    let cfg = CacheConfig {
        capacity: 16,
        window_size: 2,
        min_admit_tests: 0,
        persist_retries: 2,
        ..CacheConfig::default()
    };
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let mut gc =
        GraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();

    // Each transient fault costs one append attempt; the retry budget (2)
    // must absorb it without tripping the breaker.
    let plan = Arc::new(FaultPlan::seeded(11));
    for point in [
        Failpoint::ErrOnce,
        Failpoint::SlowIo { millis: 2 },
        Failpoint::ErrOnce,
        Failpoint::ErrOnce,
    ] {
        plan.arm(FaultSite::JournalAppend, point);
    }
    store.set_fault_plan(Some(Arc::clone(&plan)));

    mutate(&gc, 3);
    assert_eq!(store.journal_records(), 6, "every mutation reached the journal");
    assert_exact(&gc, &workload(&ds, 30, 5));
    assert!(
        plan.fired_log().iter().any(|&(_, point)| point == "err_once"),
        "no transient error fired: the test is vacuous"
    );
    assert_eq!(
        gc.persist_health(),
        Some(PersistHealth::Healthy),
        "transient faults within the retry budget must not degrade persistence"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_append_failure_degrades_then_recovers() {
    let ds = dataset();
    let dir = tmpdir("degrade");
    let cfg = CacheConfig {
        capacity: 16,
        window_size: 2,
        min_admit_tests: 0,
        persist_retries: 1,
        ..CacheConfig::default()
    };
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let mut gc =
        GraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy));
    let healthy_generation = store.generation();

    // Every journal append fails from now on: the breaker must trip.
    let plan = Arc::new(FaultPlan::seeded(21));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    store.set_fault_plan(Some(plan.clone()));

    mutate(&gc, 2);
    assert_exact(&gc, &workload(&ds, 30, 9));
    assert_eq!(
        gc.persist_health(),
        Some(PersistHealth::Degraded),
        "persistent append failure must trip the circuit breaker"
    );
    let stats = gc.stats();
    assert_eq!(stats.persist_health, "degraded");
    assert!(stats.persist_errors > 0, "errors gauge must count the failed appends");
    assert!(stats.journal_records_buffered > 0, "degraded mutations are counted, not lost");

    // Fault clears: a recovery probe cuts a fresh snapshot and re-arms
    // durability. Probes are deadline-scheduled (capped backoff), so keep
    // querying until one fires.
    store.set_fault_plan(None);
    let deadline = Instant::now() + Duration::from_secs(10);
    let probe_queries = workload(&ds, 4, 10);
    while gc.persist_health() != Some(PersistHealth::Healthy) {
        assert!(Instant::now() < deadline, "recovery probe never re-armed persistence");
        assert_exact(&gc, &probe_queries);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        store.generation() > healthy_generation,
        "recovery must have cut a fresh snapshot generation"
    );
    let stats = gc.stats();
    assert_eq!(stats.persist_health, "healthy");
    assert_eq!(stats.journal_records_buffered, 0, "a full snapshot subsumes buffered records");

    // The recovered directory restores warm.
    drop(gc);
    let (gc2, report) = GraphCache::restore_from(
        ds.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd.make(),
        CacheConfig { capacity: 16, window_size: 2, ..CacheConfig::default() },
        Arc::new(gc_core::CacheStore::open(&dir).unwrap()),
    )
    .unwrap();
    assert!(report.warm, "post-recovery directory must restore warm: {}", report.describe());
    assert!(!gc2.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_probe_budget_disables_persistence() {
    let ds = dataset();
    let dir = tmpdir("disable");
    let cfg = CacheConfig {
        capacity: 16,
        window_size: 2,
        min_admit_tests: 0,
        persist_retries: 0,
        persist_max_probes: 2,
        ..CacheConfig::default()
    };
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let mut gc =
        GraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();

    // Appends AND snapshots fail persistently: a mutation trips the
    // breaker, then every recovery probe fails until the probe budget is
    // exhausted.
    let plan = Arc::new(FaultPlan::seeded(31));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    plan.arm(FaultSite::SnapshotWrite, Failpoint::ErrAfter { n: 0 });
    store.set_fault_plan(Some(plan));

    mutate(&gc, 1);
    assert_eq!(gc.persist_health(), Some(PersistHealth::Degraded));
    let w = workload(&ds, 8, 13);
    let deadline = Instant::now() + Duration::from_secs(10);
    while gc.persist_health() != Some(PersistHealth::Disabled) {
        assert!(Instant::now() < deadline, "probe budget never exhausted");
        assert_exact(&gc, &w);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gc.stats().persist_health, "disabled");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_cache_degrades_and_recovers() {
    let ds = dataset();
    let dir = tmpdir("shared_degrade");
    let cfg = CacheConfig {
        capacity: 16,
        window_size: 2,
        shards: 4,
        min_admit_tests: 0,
        persist_retries: 1,
        ..CacheConfig::default()
    };
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let mut gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();

    let plan = Arc::new(FaultPlan::seeded(41));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    store.set_fault_plan(Some(plan));
    mutate(&gc, 2);
    assert_exact(&gc, &workload(&ds, 30, 17));
    assert_eq!(gc.persist_health(), Some(PersistHealth::Degraded));

    store.set_fault_plan(None);
    let deadline = Instant::now() + Duration::from_secs(10);
    let probe_queries = workload(&ds, 4, 18);
    while gc.persist_health() != Some(PersistHealth::Healthy) {
        assert!(Instant::now() < deadline, "shared recovery probe never re-armed persistence");
        assert_exact(&gc, &probe_queries);
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
