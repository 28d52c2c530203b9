//! Fault-injected integration tests: the cache under deterministic I/O
//! errors and torn writes.
//!
//! The invariant under test is GraphCache's central one — answers are
//! *exactly* those of Method M alone — extended with the durability
//! contract: under any injected fault the cache may get colder (a
//! degraded store), but never wrong, and the next mutation after the
//! fault clears heals the store with a catch-up snapshot.
//!
//! The journal holds dataset mutations only, so the faults are driven by
//! `insert_graph`/`remove_graph`; queries never touch the store (no test
//! here sets `snapshot_interval`). Each test arms its own plan on its own
//! store, so they run in parallel.

use gc_core::persist::{Failpoint, FaultPlan, FaultSite};
use gc_core::{CacheConfig, PersistHealth, PolicyKind, SharedGraphCache};
use gc_method::{execute_base, Dataset, Engine, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Arc<Dataset> {
    Arc::new(Dataset::new(molecule_dataset(26, 7)))
}

fn config() -> CacheConfig {
    CacheConfig { capacity: 16, window_size: 2, min_admit_tests: 0, ..CacheConfig::default() }
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

/// `rounds` insert/remove pairs: two mutations each.
fn mutate(gc: &SharedGraphCache, rounds: u64) {
    for round in 0..rounds {
        let gid = gc.insert_graph(molecule_dataset(1, 100 + round).remove(0));
        assert!(gc.remove_graph(gid));
    }
}

/// Restore a fresh cache from `dir` over the pristine `base` and check it
/// is warm, serves `live`'s dataset (same content fingerprint) and
/// answers every query exactly.
fn assert_restores_live(base: &Arc<Dataset>, dir: &Path, live: &SharedGraphCache) {
    let (restored, report) = SharedGraphCache::restore_from(
        Arc::clone(base),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        config(),
        Arc::new(gc_core::CacheStore::open(dir).unwrap()),
    )
    .unwrap();
    assert!(report.warm, "the store must restore warm: {}", report.describe());
    assert_eq!(
        restored.dataset().content_fingerprint(),
        live.dataset().content_fingerprint(),
        "a healthy store must hold every applied mutation"
    );
    assert_exact(&restored, &workload(&restored.dataset(), 30, 99));
}

#[test]
fn failed_append_is_caught_up_by_a_snapshot() {
    let ds = dataset();
    let dir = tmpdir("catch_up");
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let one_shard = CacheConfig { shards: 1, ..config() };
    let mut gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, one_shard)
            .unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();
    assert_exact(&gc, &workload(&ds, 30, 5));
    let before = store.generation();

    let plan = Arc::new(FaultPlan::seeded(11));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrOnce);
    store.set_fault_plan(Some(Arc::clone(&plan)));
    gc.insert_graph(molecule_dataset(1, 100).remove(0));
    assert_eq!(plan.fired_log(), vec![(FaultSite::JournalAppend, "err_once")]);

    // The mutation itself cut the catch-up snapshot: healthy at once.
    assert_eq!(
        gc.persist_health(),
        Some(PersistHealth::Healthy),
        "the failed append's own mutation must catch the store up"
    );
    assert!(store.generation() > before, "no catch-up snapshot was cut");
    let stats = gc.stats();
    assert_eq!(stats.persist_errors, 1, "the failed append is counted");
    assert_eq!(stats.journal_records_buffered, 0);
    mutate(&gc, 1);
    assert_exact(&gc, &workload(&ds, 30, 6));
    assert_restores_live(&ds, &dir, &gc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_append_failure_degrades_then_recovers() {
    let ds = dataset();
    let dir = tmpdir("degrade");
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let one_shard = CacheConfig { shards: 1, ..config() };
    let mut gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, one_shard)
            .unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy));

    // Every journal append fails for the whole test; snapshots fail until
    // they are cleared below.
    let plan = Arc::new(FaultPlan::seeded(21));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    plan.arm(FaultSite::SnapshotWrite, Failpoint::ErrAfter { n: 0 });
    store.set_fault_plan(Some(plan.clone()));

    mutate(&gc, 1);
    assert_exact(&gc, &workload(&ds, 30, 9));
    assert_eq!(gc.persist_health(), Some(PersistHealth::Degraded));
    let stats = gc.stats();
    assert_eq!(stats.persist_health, "degraded");
    assert!(stats.persist_errors > 0, "errors gauge must count the failed writes");
    assert_eq!(stats.journal_records_buffered, 2, "both mutations are off disk");

    // Snapshots work again; appends still do not. The next mutation skips
    // its append and its catch-up snapshot heals the store — no waiting.
    plan.clear(FaultSite::SnapshotWrite);
    let healthy_generation = store.generation();
    gc.insert_graph(molecule_dataset(1, 200).remove(0));
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy));
    assert!(store.generation() > healthy_generation, "recovery must cut a fresh snapshot");
    let stats = gc.stats();
    assert_eq!(stats.persist_health, "healthy");
    assert_eq!(stats.journal_records_buffered, 0, "a full snapshot subsumes buffered records");

    // Appends still fail: each mutation heals itself with a snapshot.
    mutate(&gc, 1);
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy));
    assert_restores_live(&ds, &dir, &gc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn total_store_outage_stays_degraded_and_exact() {
    let ds = dataset();
    let dir = tmpdir("outage");
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let one_shard = CacheConfig { shards: 1, ..config() };
    let mut gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, one_shard)
            .unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();

    // Appends AND snapshots fail: every mutation tries (and fails) its
    // catch-up snapshot, and queries never touch the store.
    let plan = Arc::new(FaultPlan::seeded(31));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    plan.arm(FaultSite::SnapshotWrite, Failpoint::ErrAfter { n: 0 });
    store.set_fault_plan(Some(Arc::clone(&plan)));

    let mut errors = gc.stats().persist_errors;
    let mut inserted = Vec::new();
    for round in 0..6u64 {
        if round % 3 == 2 {
            assert!(gc.remove_graph(inserted.pop().expect("inserted earlier")));
        } else {
            inserted.push(gc.insert_graph(molecule_dataset(1, 300 + round).remove(0)));
        }
        assert_eq!(gc.persist_health(), Some(PersistHealth::Degraded), "round {round}");
        let stats = gc.stats();
        assert!(stats.persist_errors > errors, "round {round}: the retry was not attempted");
        errors = stats.persist_errors;
        assert_eq!(stats.journal_records_buffered, round + 1);
        assert_exact(&gc, &workload(&gc.dataset(), 12, round));
        assert_eq!(gc.stats().persist_errors, errors, "a query touched the store");
    }

    // The fault clears: the next mutation heals the store.
    store.set_fault_plan(None);
    gc.insert_graph(molecule_dataset(1, 400).remove(0));
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy));
    assert_eq!(gc.stats().journal_records_buffered, 0);
    assert_restores_live(&ds, &dir, &gc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_cache_degrades_and_recovers() {
    let ds = dataset();
    let dir = tmpdir("shared_degrade");
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let mut gc = SharedGraphCache::with_policy(
        ds.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig { shards: 4, ..config() },
    )
    .unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();

    let plan = Arc::new(FaultPlan::seeded(41));
    plan.arm(FaultSite::JournalAppend, Failpoint::ErrAfter { n: 0 });
    plan.arm(FaultSite::SnapshotWrite, Failpoint::ErrAfter { n: 0 });
    store.set_fault_plan(Some(plan));
    mutate(&gc, 2);
    assert_exact(&gc, &workload(&ds, 30, 17));
    assert_eq!(gc.persist_health(), Some(PersistHealth::Degraded));

    store.set_fault_plan(None);
    mutate(&gc, 1);
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy));
    assert_restores_live(&ds, &dir, &gc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `behind` flag's lock rule: it is cleared only while the snapshot
/// that caught the store up still holds the dataset lock. A mutation that
/// takes the lock just after a catch-up rotation sees the flag still set
/// and skips its append; were the flag cleared after that, its delta would
/// be lost while the store reads healthy. A later rotation would hide the
/// loss, so each of `EPOCHS` runs is short: four threads mutate and query
/// while this thread arms a seeded mix of faults on appends and snapshots
/// until `FAULTS` have fired; then the plan clears, one more mutation
/// runs, and the store must be healthy and restore the live dataset.
#[test]
fn concurrent_mutations_under_faults_never_lose_a_delta() {
    const EPOCHS: u64 = 40;
    for epoch in 0..EPOCHS {
        faulty_concurrent_epoch(epoch);
    }
}

fn faulty_concurrent_epoch(seed: u64) {
    const THREADS: u64 = 4;
    const FAULTS: usize = 3;
    let ds = dataset();
    let dir = tmpdir(&format!("concurrent_{seed}"));
    let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
    let mut gc = SharedGraphCache::with_policy(
        ds.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig { shards: 4, ..config() },
    )
    .unwrap();
    gc.attach_store(Arc::clone(&store)).unwrap();
    let gc = Arc::new(gc);
    let plan = Arc::new(FaultPlan::seeded(seed));
    store.set_fault_plan(Some(Arc::clone(&plan)));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (gc, stop) = (&gc, &stop);
            scope.spawn(move || {
                let queries = workload(&gc.dataset(), 8, t);
                let mut round = 0;
                while !stop.load(Ordering::Acquire) {
                    let gid = gc.insert_graph(molecule_dataset(1, 1000 * t + round).remove(0));
                    let wq = &queries.queries[round as usize % queries.queries.len()];
                    gc.query(&wq.graph, wq.kind);
                    assert!(gc.remove_graph(gid));
                    round += 1;
                }
            });
        }
        // At most one fault pending per site, and a snapshot fault armed on
        // only a quarter of the polls, so most catch-up rotations land with
        // mutations queued behind them. Either site always has a consumer
        // (a failed append cuts a snapshot, a caught-up store appends);
        // the poll cap only bounds a broken build.
        let sites = [FaultSite::JournalAppend, FaultSite::SnapshotWrite];
        let mut armed = [0; 2];
        for _ in 0..50_000 {
            let log = plan.fired_log();
            if log.len() >= FAULTS {
                break;
            }
            let r = plan.next_u64();
            for (si, site) in sites.into_iter().enumerate() {
                let pending = armed[si] > log.iter().filter(|(s, _)| *s == site).count();
                if pending || (si == 1 && !r.is_multiple_of(4)) {
                    continue;
                }
                let point = match (r >> (8 * si + 2)) % 3 {
                    0 => Failpoint::ErrOnce,
                    1 => Failpoint::ShortWrite { keep: ((r >> 16) % 24) as usize },
                    _ => Failpoint::TornRecord,
                };
                plan.arm(site, point);
                armed[si] += 1;
            }
            std::thread::sleep(Duration::from_micros(50 + (r >> 32) % 200));
        }
        stop.store(true, Ordering::Release);
    });
    assert!(plan.fired() > 0, "no fault fired: the test is vacuous");

    store.set_fault_plan(None);
    mutate(&gc, 1);
    assert_eq!(gc.persist_health(), Some(PersistHealth::Healthy), "epoch {seed}");
    assert_exact(&gc, &workload(&gc.dataset(), 8, seed));
    assert_restores_live(&ds, &dir, &gc);
    let _ = std::fs::remove_dir_all(&dir);
}
