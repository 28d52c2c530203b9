//! Durable cache state: snapshot + journal persistence with warm restarts.
//!
//! Covers the recovery contract end to end:
//!
//! * `restore(snapshot(cache)) ≡ cache` — answers and warmth — under
//!   randomized workloads (property test);
//! * a crash restores exactly the last snapshot's entries plus every
//!   journaled dataset delta, and every answer stays exact;
//! * bit-flipped, truncated and mid-record-torn snapshot/journal files are
//!   rejected and fall back to a *cold but correct* start;
//! * restores across shard counts work, because the on-disk format is
//!   decoupled from the in-memory layout, and a restore into a smaller
//!   cache trims it;
//! * a restore resumes the admission window's phase.

use gc_core::persist::{CacheStore, RecoveryReport};
use gc_core::{CacheConfig, GraphCache, PolicyKind, SharedGraphCache};
use gc_graph::Graph;
use gc_method::{execute_base, Dataset, Engine, QueryKind, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_warm_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(n: usize, seed: u64) -> Arc<Dataset> {
    Arc::new(Dataset::new(molecule_dataset(n, seed)))
}

fn workload(ds: &Arc<Dataset>, n_queries: usize, seed: u64) -> Workload {
    let spec = WorkloadSpec {
        n_queries,
        pool_size: 18,
        kind: WorkloadKind::Zipf { skew: 1.1 },
        seed,
        ..WorkloadSpec::default()
    };
    Workload::generate(ds.graphs(), &spec)
}

fn config() -> CacheConfig {
    CacheConfig { capacity: 24, window_size: 3, ..CacheConfig::default() }
}

fn session(ds: &Arc<Dataset>, cfg: CacheConfig) -> GraphCache {
    GraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap()
}

fn open(dir: &Path) -> Arc<CacheStore> {
    Arc::new(CacheStore::open(dir).unwrap())
}

/// Warm-restart a [`session`]-shaped cache over `ds` from `store`.
fn restore(
    ds: Arc<Dataset>,
    cfg: CacheConfig,
    store: Arc<CacheStore>,
) -> (GraphCache, RecoveryReport) {
    GraphCache::restore_from(ds, Box::new(SiMethod), PolicyKind::Hd.make(), cfg, store).unwrap()
}

/// Multiset of (fingerprint, kind) over a cache's live entries, across its
/// shards — the state signature restores are checked against.
fn entry_signature(gc: &SharedGraphCache) -> Vec<(u64, QueryKind)> {
    let mut sig = Vec::new();
    gc.for_each_shard(|_, cm| {
        sig.extend(cm.iter().map(|e| (e.fingerprint, e.kind)));
    });
    sig.sort_unstable_by_key(|&(fp, k)| (fp, k as u8));
    sig
}

/// The cached (query, kind) pairs, shard by shard.
fn cached_queries(gc: &SharedGraphCache) -> Vec<(Graph, QueryKind)> {
    let mut cached = Vec::new();
    gc.for_each_shard(|_, cm| cached.extend(cm.iter().map(|e| (e.graph.clone(), e.kind))));
    cached
}

/// The loss bound: the journal carries only the dataset, so a crash keeps
/// every mutation but only the entries of the last rotation.
#[test]
fn crash_restores_the_last_snapshot_plus_every_delta() {
    let ds = dataset(30, 11);
    let spec = WorkloadSpec {
        n_queries: 150,
        pool_size: 60,
        kind: WorkloadKind::Zipf { skew: 0.8 },
        seed: 5,
        ..WorkloadSpec::default()
    };
    let w = Workload::generate(ds.graphs(), &spec);
    let extra = molecule_dataset(2, 99);
    let dir = tmpdir("crash");

    // Session A: auto-snapshot every 16 admissions. Record the entry set
    // each time the store's generation bumps: that is what the rotation
    // wrote.
    let cfg = CacheConfig { snapshot_interval: Some(16), ..config() };
    let (mut a, first) = restore(ds.clone(), cfg.clone(), open(&dir));
    assert!(!first.warm, "fresh directory must start cold");
    let mut generation = a.attached_store().unwrap().generation();
    let mut at_rotation = entry_signature(&a);
    let mut rotations = 0;
    for (i, wq) in w.queries.iter().enumerate() {
        if i == 40 {
            a.insert_graph(extra[0].clone()); // before a rotation: in its snapshot
        }
        a.query(&wq.graph, wq.kind);
        let now = a.attached_store().unwrap().generation();
        if now != generation {
            (generation, at_rotation) = (now, entry_signature(&a));
            rotations += 1;
        }
    }
    assert!(rotations >= 2, "the stream must rotate more than once, got {rotations}");
    assert_ne!(entry_signature(&a), at_rotation, "admissions after the last rotation");

    // Mutate after the last rotation, then crash: no final snapshot, the
    // journal flushed as a group commit would have.
    a.insert_graph(extra[1].clone());
    assert!(a.remove_graph(3));
    let after_rotation = 2;
    assert_eq!(a.attached_store().unwrap().generation(), generation, "no rotation since");
    assert_eq!(a.attached_store().unwrap().journal_records(), after_rotation);
    let final_dataset = a.dataset();
    a.attached_store().unwrap().sync().unwrap();
    drop(a);

    // Session B: the last rotation's entries, every delta, exact answers.
    let (mut b, report) = restore(ds.clone(), cfg, open(&dir));
    assert!(report.warm, "valid store must restore warm: {:?}", report.cold_reason);
    assert_eq!(entry_signature(&b), at_rotation, "restored entries = the last rotation's");
    assert_eq!(report.journal_deltas as u64, after_rotation);
    assert_eq!(b.dataset().content_fingerprint(), final_dataset.content_fingerprint());
    let on_final = |graph: &Graph, kind| {
        execute_base(&final_dataset, &SiMethod, Engine::Vf2, graph, kind).answer
    };
    for (graph, kind) in cached_queries(&b) {
        let r = b.query(&graph, kind);
        assert!(r.exact_hit, "restored entry must serve an exact hit");
        assert_eq!(r.answer, on_final(&graph, kind));
    }
    for wq in &w.queries {
        assert_eq!(b.query(&wq.graph, wq.kind).answer, on_final(&wq.graph, wq.kind));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_and_cold_answers_are_identical() {
    let ds = dataset(26, 21);
    let warmup = workload(&ds, 80, 9);
    let probe = workload(&ds, 40, 77);
    let dir = tmpdir("equivalence");

    let store = open(&dir);
    let mut a = session(&ds, config());
    for wq in &warmup.queries {
        a.query(&wq.graph, wq.kind);
    }
    a.snapshot_to(&store).unwrap();
    drop(a);

    let (mut warm, report) = restore(ds.clone(), config(), open(&dir));
    assert!(report.warm);
    let mut cold = session(&ds, config());

    let mut warm_hits = 0u64;
    for wq in &probe.queries {
        let rw = warm.query(&wq.graph, wq.kind);
        let rc = cold.query(&wq.graph, wq.kind);
        assert_eq!(rw.answer, rc.answer, "warm and cold answers must be identical");
        warm_hits += u64::from(rw.any_hit());
    }
    assert!(warm_hits > 0, "a warm restart must actually hit");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- corruption injection ----------------------------------------------------

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.gcs")
}

fn journal_path(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "gcj"))
        .expect("journal file present")
}

/// Build a store directory with a snapshot and a one-delta journal tail.
fn persisted_dir(tag: &str, ds: &Arc<Dataset>) -> PathBuf {
    let dir = tmpdir(tag);
    let store = open(&dir);
    let mut gc = session(ds, config());
    let w = workload(ds, 60, 3);
    for wq in w.queries.iter().take(30) {
        gc.query(&wq.graph, wq.kind);
    }
    gc.attach_store(store).unwrap(); // snapshot of the first 30 queries
    for wq in w.queries.iter().skip(30) {
        gc.query(&wq.graph, wq.kind);
    }
    gc.insert_graph(molecule_dataset(1, 99).remove(0)); // the journal tail
    assert_eq!(gc.attached_store().unwrap().journal_records(), 1);
    gc.attached_store().unwrap().sync().unwrap();
    dir
}

/// Restore from `dir` and assert a cold-but-correct start.
fn assert_cold_but_correct(dir: &Path, ds: &Arc<Dataset>, what: &str) {
    let (mut gc, report) = restore(ds.clone(), config(), open(dir));
    assert!(!report.warm, "{what}: corruption must fail closed to a cold start");
    assert!(report.cold_reason.is_some(), "{what}: reason must be reported");
    assert!(gc.is_empty(), "{what}: cold cache must be empty");
    // Correctness is unaffected: the cold cache answers exactly.
    let q = &workload(ds, 5, 1).queries[0];
    let r = gc.query(&q.graph, q.kind);
    assert_eq!(
        r.answer,
        execute_base(ds, &SiMethod, Engine::Vf2, &q.graph, q.kind).answer,
        "{what}"
    );
}

#[test]
fn corrupted_files_fall_back_to_cold_start() {
    let ds = dataset(22, 31);

    // Baseline: the directory restores warm before corruption.
    {
        let dir = persisted_dir("baseline", &ds);
        let (_, report) = restore(ds.clone(), config(), open(&dir));
        assert!(report.warm, "sanity: uncorrupted dir restores warm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Bit flips at several positions in the snapshot.
    for pos_frac in [0.1, 0.5, 0.9] {
        let dir = persisted_dir("snap_flip", &ds);
        let path = snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        assert_cold_but_correct(&dir, &ds, "snapshot bit flip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Truncated snapshot (torn write).
    let dir = persisted_dir("snap_trunc", &ds);
    let path = snapshot_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert_cold_but_correct(&dir, &ds, "truncated snapshot");
    let _ = std::fs::remove_dir_all(&dir);

    // Missing journal for the snapshot's generation.
    let dir = persisted_dir("jrnl_missing", &ds);
    std::fs::remove_file(journal_path(&dir)).unwrap();
    assert_cold_but_correct(&dir, &ds, "missing journal");
    let _ = std::fs::remove_dir_all(&dir);

    // Bit flip inside the journal.
    let dir = persisted_dir("jrnl_flip", &ds);
    let path = journal_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&path, bytes).unwrap();
    assert_cold_but_correct(&dir, &ds, "journal bit flip");
    let _ = std::fs::remove_dir_all(&dir);

    // Mid-record tear: cut the journal a few bytes into its last record.
    // A torn *tail* is the signature of a crash mid-append, not of
    // corruption — recovery keeps the intact prefix (warm) and reports
    // the dropped bytes, instead of failing closed to cold. The torn
    // record is the insert, so the restored dataset is the base one.
    let dir = persisted_dir("jrnl_tear", &ds);
    let path = journal_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let (mut gc, report) = restore(ds.clone(), config(), open(&dir));
    assert!(report.warm, "a torn tail keeps the intact journal prefix");
    assert!(report.journal_torn_bytes > 0, "the dropped tail is reported");
    let q = &workload(&ds, 5, 1).queries[0];
    let r = gc.query(&q.graph, q.kind);
    assert_eq!(
        r.answer,
        execute_base(&ds, &SiMethod, Engine::Vf2, &q.graph, q.kind).answer,
        "mid-record journal tear: answers stay exact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_from_different_dataset_is_rejected() {
    let ds_a = dataset(20, 1);
    let ds_b = dataset(20, 2); // same size, different graphs
    let dir = persisted_dir("foreign", &ds_a);
    assert_cold_but_correct(&dir, &ds_b, "foreign dataset");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- sharded front-end -------------------------------------------------------

#[test]
fn shared_cache_snapshots_and_restores() {
    let ds = dataset(28, 41);
    let w = workload(&ds, 90, 13);
    let dir = tmpdir("shared");
    let cfg = CacheConfig { shards: 4, ..config() };

    let store = open(&dir);
    let mut a =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg.clone())
            .unwrap();
    a.attach_store(Arc::clone(&store)).unwrap();
    let a = Arc::new(a);
    // Hammer from several threads, rotations racing the queries.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let a = Arc::clone(&a);
            let queries = &w.queries;
            scope.spawn(move || {
                for wq in queries.iter().skip(t).step_by(4) {
                    a.query(&wq.graph, wq.kind);
                }
            });
        }
    });
    // Entries reach the store only through a snapshot.
    a.snapshot_now().unwrap().expect("store attached, no snapshot in flight");
    let a_sig = entry_signature(&a);
    drop(a);

    // Restore into a new shared cache.
    let (b, report) = SharedGraphCache::restore_from(
        ds.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg.clone(),
        open(&dir),
    )
    .unwrap();
    assert!(report.warm, "shared restore must be warm: {:?}", report.cold_reason);
    assert_eq!(entry_signature(&b), a_sig, "restored shard union must match");

    // Restored entries serve exact hits with exact answers.
    let to_check = cached_queries(&b);
    assert!(!to_check.is_empty());
    for (graph, kind) in to_check {
        let r = b.query(&graph, kind);
        assert!(r.exact_hit);
        assert_eq!(r.answer, execute_base(&ds, &SiMethod, Engine::Vf2, &graph, kind).answer);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_runtime_restore_shared_to_sequential() {
    // The on-disk format knows nothing of shards: a store written by four
    // shards restores into one (and keeps its entries), because replay
    // goes through the normal insert paths.
    let ds = dataset(24, 51);
    let w = workload(&ds, 60, 23);
    let dir = tmpdir("cross");
    let cfg = CacheConfig { shards: 4, ..config() };

    let store = open(&dir);
    let mut shared =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap();
    for wq in &w.queries {
        shared.query(&wq.graph, wq.kind);
    }
    shared.attach_store(store).unwrap();
    let shared_sig = entry_signature(&shared);
    drop(shared);

    let (seq, report) = restore(ds.clone(), config(), open(&dir));
    assert!(report.warm);
    assert_eq!(entry_signature(&seq), shared_sig);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_into_a_smaller_cache_trims_it() {
    let ds = dataset(26, 61);
    let dir = tmpdir("trim");
    let mut a = session(&ds, config());
    for wq in &workload(&ds, 80, 29).queries {
        a.query(&wq.graph, wq.kind);
    }
    assert!(a.len() > 3, "the snapshot must hold more than the smaller cache");
    a.snapshot_to(&open(&dir)).unwrap();

    let small = CacheConfig { capacity: 3, window_size: 1, ..config() };
    let (mut b, report) = restore(ds.clone(), small, open(&dir));
    assert!(report.warm);
    assert!(b.len() <= 3, "restored {} entries into a capacity-3 cache", b.len());
    assert_eq!(report.entries_restored, b.len());
    for (graph, kind) in cached_queries(&a) {
        let r = b.query(&graph, kind);
        assert_eq!(r.answer, execute_base(&ds, &SiMethod, Engine::Vf2, &graph, kind).answer);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restore resumes the admission window where the snapshot left it: the
/// original and the restored cache then sweep — and evict — at the same
/// queries. The snapshot is cut mid-window and before any eviction, so both
/// caches hold the same entries in the same slots and report the same ids.
#[test]
fn restore_resumes_the_admission_window() {
    let ds = dataset(26, 71);
    let w = workload(&ds, 120, 31);
    let dir = tmpdir("window");
    let cfg = CacheConfig { capacity: 8, window_size: 4, ..config() };
    let mut a = session(&ds, cfg.clone());
    let mut queries = w.queries.iter();
    for wq in queries.by_ref() {
        a.query(&wq.graph, wq.kind);
        if a.stats().admitted == 6 {
            break;
        }
    }
    let stats = a.stats();
    assert_eq!((stats.admitted, stats.evicted), (6, 0), "mid-window, nothing evicted yet");
    // Answer-only rows are not persisted. Nothing has been evicted or
    // rejected yet, so the original holds none the restored cache lacks;
    // from here both demote, store and serve the same rows.
    let mut rows = 0;
    a.for_each_shard(|_, cm| rows += cm.row_count());
    assert_eq!(rows, 0, "the snapshot must not drop rows the original serves");
    a.snapshot_to(&open(&dir)).unwrap();

    let (mut b, report) = restore(ds.clone(), cfg, open(&dir));
    assert!(report.warm);
    let mut evictions = 0;
    for (i, wq) in queries.enumerate() {
        let (ra, rb) = (a.query(&wq.graph, wq.kind), b.query(&wq.graph, wq.kind));
        assert_eq!(ra.answer, rb.answer);
        assert_eq!(ra.evicted, rb.evicted, "continuation query {i} evicts differently");
        evictions += ra.evicted.len();
    }
    assert!(evictions > 0, "the continuation must sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- property: restore(snapshot(cache)) ≡ cache ------------------------------

/// A store directory written by the commit *before* the WL fingerprint
/// moved to thread-local scratch (`write_store_fixture` below, run there).
/// Entry buckets, the dataset fingerprint and the journaled delta all carry
/// `gc_graph::hash::fingerprint` values, so restoring it warm is the
/// end-to-end proof that the function still returns what it returned.
const STORE_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store_v3");

fn fixture_inputs() -> (Arc<Dataset>, Workload, gc_graph::Graph) {
    let ds = dataset(14, 7);
    let inserted = molecule_dataset(1, 99).remove(0);
    (ds.clone(), workload(&ds, 36, 3), inserted)
}

/// Regenerates [`STORE_FIXTURE`] (snapshot + a journal tail holding one
/// dataset delta). The committed fixture predates the dataset-only journal,
/// so its tail also holds five legacy admission records, which restore
/// skips; a regenerated one holds none. Only to pin a *new* format version:
/// `cargo test -p gc-core --test warm_restart -- --ignored write_store_fixture`.
#[test]
#[ignore = "writes the committed fixture; run by hand at the commit to pin"]
fn write_store_fixture() {
    let (ds, w, inserted) = fixture_inputs();
    let _ = std::fs::remove_dir_all(STORE_FIXTURE);
    let cfg = CacheConfig { snapshot_interval: Some(8), ..config() };
    let store = open(Path::new(STORE_FIXTURE));
    let (mut gc, _) = restore(ds, cfg, store);
    for (i, wq) in w.queries.iter().enumerate() {
        if i == 30 {
            gc.insert_graph(inserted.clone());
        }
        gc.query(&wq.graph, wq.kind);
    }
    assert!(gc.attached_store().unwrap().journal_records() > 0, "snapshot + journal tail");
    gc.attached_store().unwrap().sync().unwrap();
}

#[test]
fn store_written_before_the_fingerprint_rewrite_restores_warm() {
    assert_eq!(gc_store::FORMAT_VERSION, 3, "a new format needs a new fixture");
    let (ds, w, inserted) = fixture_inputs();
    // Restoring rotates the directory, so work on a copy.
    let dir = tmpdir("fixture");
    std::fs::create_dir_all(&dir).unwrap();
    for file in std::fs::read_dir(STORE_FIXTURE).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), dir.join(file.file_name())).unwrap();
    }
    let store = open(&dir);
    let cfg = CacheConfig { snapshot_interval: Some(8), ..config() };
    let mut live = Dataset::clone(&ds);
    live.insert_graph(inserted);
    let (mut gc, report) = restore(ds, cfg, store);
    assert!(report.warm, "fixture must restore warm: {:?}", report.cold_reason);
    assert_eq!(report.journal_deltas, 1, "the journaled insert replays");
    assert_eq!(report.journal_legacy_skipped, 5, "the legacy admission records are skipped");
    assert_eq!((report.snapshot_entries, report.entries_restored), (8, 8));
    assert_eq!(gc.len(), 8, "exactly the snapshot's entries");
    assert_eq!(gc.dataset().content_fingerprint(), live.content_fingerprint());

    // Every query of the writing session is answered exactly; the ones
    // whose entries are in the snapshot are exact hits found through their
    // stored fingerprint buckets. A restored entry's text slot starts empty
    // and renders the restored (and delta-repaired) answer on first use.
    let (mut exact_hits, mut empty_slots) = (0, 0);
    for wq in &w.queries {
        let r = gc.query(&wq.graph, wq.kind);
        exact_hits += u32::from(r.exact_hit);
        let want = execute_base(&live, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(r.answer, want.answer);
        if let Some(text) = &r.answer_text {
            empty_slots += u32::from(text.get().is_none());
            let mut ids = Vec::new();
            want.answer.write_ids(&mut ids);
            assert_eq!(text.get_or_render(&r.answer), ids);
        }
    }
    assert!(exact_hits > 0, "restored entries must be found by fingerprint");
    assert!(empty_slots > 0, "restored entries carry no text");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn restore_of_snapshot_preserves_state_and_answers(
        ds_seed in 0u64..1000,
        w_seed in 0u64..1000,
        n_queries in 20usize..70,
        capacity in 4usize..32,
    ) {
        let ds = dataset(20, ds_seed);
        let w = workload(&ds, n_queries, w_seed);
        let cfg = CacheConfig { capacity, window_size: 2, ..CacheConfig::default() };
        let dir = tmpdir(&format!("prop_{ds_seed}_{w_seed}_{n_queries}_{capacity}"));

        let mut a = session(&ds, cfg.clone());
        for wq in &w.queries {
            a.query(&wq.graph, wq.kind);
        }
        let store = open(&dir);
        a.snapshot_to(&store).unwrap();

        let (mut b, report) = restore(ds.clone(), cfg, store);
        prop_assert!(report.warm);
        prop_assert_eq!(report.entries_restored, a.len());
        prop_assert_eq!(entry_signature(&b), entry_signature(&a));

        // Every cached entry answers exactly, as an exact hit, without
        // re-admission — and identically to the pre-restart cache.
        for (graph, kind) in cached_queries(&a) {
            let ra = a.query(&graph, kind);
            let rb = b.query(&graph, kind);
            prop_assert!(rb.exact_hit);
            prop_assert_eq!(&ra.answer, &rb.answer);
            prop_assert_eq!(&rb.answer, &execute_base(&ds, &SiMethod, Engine::Vf2, &graph, kind).answer);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
