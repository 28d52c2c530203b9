//! Live dataset mutation + answer-only rows: the dynamic-dataset contract.
//!
//! Covers:
//!
//! * any interleaving of insert/remove/query yields, at every step, the
//!   answers Method M alone would compute on the dataset *as mutated so
//!   far*, and a cold cache rebuilt on the final dataset agrees with the
//!   mutated-in-place cache (property test over random interleavings);
//! * one shard and four answer identically under the same
//!   mutation script;
//! * a memo hit (an answer-only row) performs **zero** probe/verify work,
//!   and every row is repaired in place by any dataset mutation, so memo
//!   hits keep landing across mutations;
//! * mutations racing a snapshot neither deadlock nor lose their delta —
//!   every journaled delta is recoverable (warm restart replays it);
//! * warm restarts replay dataset deltas from the journal on top of the
//!   pristine base dataset and repair restored answer sets;
//! * a journal whose deltas were altered, dropped or reordered, and a
//!   directory written by format version 2, restore cold;
//! * a remove that does not apply (already removed, unknown id) returns
//!   `false` without copying the dataset or panicking;
//! * an exact hit's shared answer-text slot always describes the answer it
//!   was handed out with, across in-place repairs.

mod common;

use common::assert_consistent;
use gc_core::persist::{inspect_dir, CacheStore, RecoveryReport};
use gc_core::{CacheConfig, PolicyKind, QueryReport, SharedGraphCache};
use gc_graph::BitSet;
use gc_method::{execute_base, Dataset, Engine, QueryKind, SiMethod};
use gc_store::journal::{decode_journal, encode_header, encode_record, HEADER_LEN};
use gc_store::{crc64, JournalOp, JournalRecord};
use gc_workload::{extract_query, molecule_dataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_dynamic_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(n: usize, seed: u64) -> Arc<Dataset> {
    Arc::new(Dataset::new(molecule_dataset(n, seed)))
}

/// One shard: the counts below do not depend on routing.
fn config() -> CacheConfig {
    CacheConfig { capacity: 16, window_size: 2, shards: 1, ..CacheConfig::default() }
}

/// Warm-restart a one-shard SI/HD cache over `ds` from `store`.
fn restore(
    ds: Arc<Dataset>,
    cfg: CacheConfig,
    store: Arc<CacheStore>,
) -> (SharedGraphCache, RecoveryReport) {
    let cfg = CacheConfig { shards: 1, ..cfg };
    SharedGraphCache::restore_from(ds, Arc::new(SiMethod), || PolicyKind::Hd.make(), cfg, store)
        .unwrap()
}

/// One step of an interleaved mutation/query script.
#[derive(Debug, Clone)]
enum Step {
    Insert,
    Remove,
    Query(QueryKind),
}

/// Deterministic script of `n` steps: ~1/6 inserts, ~1/6 removes, the rest
/// queries alternating kinds.
fn script(n: usize, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 => Step::Insert,
            1 => Step::Remove,
            k => Step::Query(if k % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph }),
        })
        .collect()
}

/// A query graph extracted from a random *live* dataset graph, so the
/// stream keeps producing non-trivial answers as the dataset churns.
fn live_query(ds: &Dataset, rng: &mut StdRng) -> gc_graph::Graph {
    let live: Vec<_> = ds.live_mask().iter().collect();
    let gid = live[rng.gen_range(0..live.len())];
    let size = rng.gen_range(3..8);
    extract_query(ds.graph(gid as u32), size, rng).expect("molecule graphs are non-empty")
}

/// Fresh molecule graphs to insert, distinct from the base pool.
fn insert_pool(n: usize, seed: u64) -> Vec<gc_graph::Graph> {
    molecule_dataset(n, seed)
}

/// Run `steps` against a sequential cache, checking every query against
/// Method M alone on the *current* dataset; every other query re-asks an
/// earlier one, so rows are hit across mutations. Returns the (graph, kind)
/// queries issued for replay against a cold rebuild, and how many memo hits
/// landed after the first mutation.
fn drive_sequential(
    gc: &SharedGraphCache,
    steps: &[Step],
    seed: u64,
) -> (Vec<(gc_graph::Graph, QueryKind)>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = insert_pool(steps.len(), seed ^ 0xfeed).into_iter();
    let mut issued: Vec<(gc_graph::Graph, QueryKind)> = Vec::new();
    let (mut mutated, mut memo_after_mutation) = (false, 0);
    for step in steps {
        match step {
            Step::Insert => {
                let gid = gc.insert_graph(pool.next().unwrap());
                assert!(gc.dataset().live_mask().contains(gid as usize));
                mutated = true;
            }
            Step::Remove => {
                // Keep at least 4 live graphs so queries stay meaningful.
                if gc.dataset().live_count() > 4 {
                    let live: Vec<_> = gc.dataset().live_mask().iter().collect();
                    let victim = live[rng.gen_range(0..live.len())] as u32;
                    assert!(gc.remove_graph(victim));
                    assert!(!gc.remove_graph(victim), "double remove must be a no-op");
                    mutated = true;
                }
            }
            Step::Query(kind) => {
                let (q, kind) = match issued.len() {
                    n if n > 0 && rng.gen_bool(0.5) => issued[rng.gen_range(0..n)].clone(),
                    _ => (live_query(&gc.dataset(), &mut rng), *kind),
                };
                let r = gc.query(&q, kind);
                let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, kind);
                assert_eq!(r.answer, want.answer, "answer must match Method M on current dataset");
                if r.memo_hit {
                    assert_eq!(r.sub_iso_tests, 0, "memo hit must run zero sub-iso tests");
                    assert_eq!(r.probe_tests, 0, "memo hit must run zero probes");
                    assert_eq!(r.verify_steps, 0, "memo hit must run zero verifier steps");
                    memo_after_mutation += usize::from(mutated);
                }
                issued.push((q, kind));
            }
        }
    }
    (issued, memo_after_mutation)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of insert/remove/query matches Method M per step,
    /// and a cold cache rebuilt on the final dataset answers identically
    /// to the mutated-in-place cache. Two entries and repeated queries put
    /// most repeats on repaired rows.
    #[test]
    fn interleavings_match_cold_rebuild(seed in 0u64..1000) {
        let ds = dataset(18, 40 + seed);
        let cfg = CacheConfig { capacity: 2, window_size: 1, ..config() };
        let gc =
            SharedGraphCache::with_policy(ds, Box::new(SiMethod), PolicyKind::Hd, cfg).unwrap();
        let steps = script(60, seed);
        let (issued, memo_after_mutation) = drive_sequential(&gc, &steps, seed);
        prop_assert!(gc.dataset().generation() > 0, "script must mutate");
        prop_assert!(memo_after_mutation > 0, "some memo hit must land after a mutation");
        gc.for_each_shard(|_, cm| assert_consistent(cm));

        // Cold rebuild on the final dataset: same answers for every query.
        let final_ds = gc.dataset();
        let cold =
            SharedGraphCache::with_policy(final_ds, Box::new(SiMethod), PolicyKind::Hd, config())
                .unwrap();
        for (q, kind) in issued {
            let warm = gc.query(&q, kind);
            let want = cold.query(&q, kind);
            prop_assert_eq!(warm.answer, want.answer, "mutated cache must equal cold rebuild");
        }
    }
}

/// One shard against four over one mutation script.
#[test]
fn sequential_and_sharded_answer_identically_under_mutation() {
    let ds = dataset(16, 77);
    let cfg = CacheConfig { shards: 4, ..config() };
    let one_shard = CacheConfig { shards: 1, ..cfg.clone() };
    let seq =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, one_shard)
            .unwrap();
    let shared =
        SharedGraphCache::new(ds, Arc::new(SiMethod), || PolicyKind::Hd.make(), cfg).unwrap();

    let steps = script(80, 99);
    let mut rng = StdRng::seed_from_u64(7);
    let mut pool = insert_pool(steps.len(), 0xabc).into_iter();
    for step in &steps {
        match step {
            Step::Insert => {
                let g = pool.next().unwrap();
                let a = seq.insert_graph(g.clone());
                assert_eq!(a, shared.insert_graph(g), "both must assign the same graph id");
            }
            Step::Remove => {
                if seq.dataset().live_count() > 4 {
                    let live: Vec<_> = seq.dataset().live_mask().iter().collect();
                    let victim = live[rng.gen_range(0..live.len())] as u32;
                    assert!(seq.remove_graph(victim));
                    assert!(shared.remove_graph(victim));
                }
            }
            Step::Query(kind) => {
                let q = live_query(&seq.dataset(), &mut rng);
                let ra = seq.query(&q, *kind);
                let rb = shared.query(&q, *kind);
                assert_eq!(ra.answer, rb.answer, "1 and 4 shards disagree under mutation");
            }
        }
    }
    assert_eq!(seq.dataset().generation(), shared.dataset().generation());
    assert_eq!(seq.dataset().content_fingerprint(), shared.dataset().content_fingerprint());
}

#[test]
fn memo_hit_is_zero_work_and_repaired_across_mutations() {
    let ds = dataset(20, 123);
    // Tiny cache: entries evict fast, so a repeat finds its evicted entry
    // demoted to an answer-only row.
    let cfg = CacheConfig { capacity: 2, window_size: 1, shards: 1, ..CacheConfig::default() };
    let gc = SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Lru, cfg)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let q = extract_query(ds.graph(1), 6, &mut rng).unwrap();
    let first = gc.query(&q, QueryKind::Subgraph);
    assert!(!first.memo_hit);

    // Evict q's entry with a stream of distinct queries (capacity 2).
    for gid in 4..14u32 {
        let filler = extract_query(ds.graph(gid), 5, &mut rng).unwrap();
        gc.query(&filler, QueryKind::Subgraph);
    }
    assert!(gc.memo_len() > 0, "evicted entries must be kept as answer-only rows");

    // The repeat is a zero-work memo hit with Method M's answer on the
    // dataset as it stands, before and after each kind of mutation.
    let repeat = || {
        let r = gc.query(&q, QueryKind::Subgraph);
        assert!(!r.exact_hit, "entry must have been evicted");
        assert!(r.memo_hit, "evicted repeat must be served by its answer-only row");
        assert_eq!((r.sub_iso_tests, r.probe_tests, r.verify_steps), (0, 0, 0));
        let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
        assert_eq!(r.answer, want.answer, "the row must equal Method M on this generation");
        r.answer
    };
    assert_eq!(repeat(), first.answer);
    let rows = gc.memo_len();

    // An insert of a graph containing q repairs the row to include it …
    let inserted = gc.insert_graph(ds.graph(1).clone());
    assert_eq!(gc.memo_len(), rows, "a mutation drops no row");
    assert!(repeat().contains(inserted as usize), "the repaired row sees the inserted graph");
    // … and removing a graph of the answer clears it from the row.
    let member = first.answer.iter().next().expect("graph 1 contains q") as u32;
    assert!(gc.remove_graph(member));
    assert!(!repeat().contains(member as usize), "the repaired row drops the removed graph");
    assert_eq!(gc.stats().memo_hits, 3);
}

#[test]
fn cached_entries_are_repaired_in_place_by_mutation() {
    let ds = dataset(20, 321);
    let gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, config())
            .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let q = extract_query(ds.graph(2), 5, &mut rng).unwrap();
    let first = gc.query(&q, QueryKind::Subgraph);
    assert!(first.admitted.is_some(), "first execution must admit the entry");

    // Insert a duplicate of a known container: the cached entry's answer
    // set must now include it — served as an exact hit, no re-execution.
    let gid = gc.insert_graph(ds.graph(2).clone());
    let hit = gc.query(&q, QueryKind::Subgraph);
    assert!(hit.exact_hit, "repair must keep the entry servable");
    assert!(hit.answer.contains(gid as usize), "repaired answer must include the inserted graph");

    // Remove that graph again: the bit must drop out of the cached answer.
    assert!(gc.remove_graph(gid));
    let hit2 = gc.query(&q, QueryKind::Subgraph);
    assert!(hit2.exact_hit);
    assert!(!hit2.answer.contains(gid as usize), "removal must clear the cached bit");
    let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
    assert_eq!(hit2.answer, want.answer);
}

/// An exact hit hands out its entry's text slot for that very answer: the
/// slot renders the answer it came with; a repair that changes the ids
/// swaps in a fresh slot while a slot held from before keeps its own text;
/// a repair that leaves the ids alone keeps the rendered slot.
#[test]
fn exact_hit_text_slot_follows_repairs() {
    let ds = dataset(20, 321);
    let mut rng = StdRng::seed_from_u64(4);
    let q = extract_query(ds.graph(2), 5, &mut rng).unwrap();
    let gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, config())
            .unwrap();
    let ids = |answer: &BitSet| {
        let mut text = Vec::new();
        answer.write_ids(&mut text);
        text
    };
    let slot = |r: &QueryReport| Arc::clone(r.answer_text.as_ref().expect("exact hits carry it"));

    let cold = gc.query(&q, QueryKind::Subgraph);
    assert!(!cold.exact_hit && cold.answer_text.is_none(), "only exact hits carry a slot");
    let first = gc.query(&q, QueryKind::Subgraph);
    assert!(first.exact_hit);
    assert_eq!(slot(&first).get(), None, "in-process callers never render");
    assert_eq!(slot(&first).get_or_render(&first.answer), ids(&first.answer));

    // A duplicate of graph 2 joins the answer: fresh slot, held one intact.
    let gid = gc.insert_graph(ds.graph(2).clone());
    let grown = gc.query(&q, QueryKind::Subgraph);
    assert!(grown.exact_hit && grown.answer.contains(gid as usize));
    assert!(!Arc::ptr_eq(&slot(&first), &slot(&grown)), "a changed answer gets a fresh slot");
    assert_eq!(slot(&first).get(), Some(&ids(&first.answer)[..]), "the held slot keeps its text");
    assert_eq!(slot(&grown).get_or_render(&grown.answer), ids(&grown.answer));

    // Removing a graph outside the answer leaves the ids, and the slot.
    let outside = gc.dataset().live_mask().iter().find(|&g| !grown.answer.contains(g));
    assert!(gc.remove_graph(outside.expect("some graph is not in the answer") as u32));
    let same = gc.query(&q, QueryKind::Subgraph);
    assert!(Arc::ptr_eq(&slot(&grown), &slot(&same)), "unchanged ids keep the rendered slot");
    assert_eq!(slot(&same).get(), Some(&ids(&same.answer)[..]));

    // Removing the inserted graph shrinks the answer back: fresh slot again.
    assert!(gc.remove_graph(gid));
    let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
    let shrunk = gc.query(&q, QueryKind::Subgraph);
    assert!(shrunk.exact_hit && !Arc::ptr_eq(&slot(&grown), &slot(&shrunk)));
    assert_eq!(shrunk.answer, want.answer);
    assert_eq!(slot(&shrunk).get_or_render(&shrunk.answer), ids(&want.answer));
    assert_eq!(ids(&shrunk.answer), ids(&first.answer), "back to the first answer's ids");
}

#[test]
fn warm_restart_replays_journaled_dataset_deltas() {
    let base = dataset(18, 555);
    let dir = tmpdir("deltas");
    let cfg = config();

    // Session A: snapshot first (pristine dataset), then mutate — the
    // mutations live only in the journal as dataset deltas.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (a, _) = restore(base.clone(), cfg.clone(), store);
    let mut rng = StdRng::seed_from_u64(12);
    let q = extract_query(base.graph(3), 5, &mut rng).unwrap();
    a.query(&q, QueryKind::Subgraph);
    a.snapshot_now().unwrap();

    let extra = molecule_dataset(3, 999);
    for g in extra {
        a.insert_graph(g);
    }
    assert!(a.remove_graph(0), "graph 0 must be removable");
    let final_gen = a.dataset().generation();
    let final_fp = a.dataset().content_fingerprint();
    let want = execute_base(&a.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
    let final_answer = a.query(&q, QueryKind::Subgraph).answer;
    assert_eq!(final_answer, want.answer);
    a.attached_store().unwrap().sync().unwrap();
    drop(a);

    // Session B: restore from the *pristine* base — the deltas must be
    // replayed from the journal, and restored entries repaired to the
    // final universe.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (b, report) = restore(base, cfg, store);
    assert!(report.warm, "delta-bearing store must restore warm: {:?}", report.cold_reason);
    assert!(report.journal_deltas >= 4, "all four mutations must replay as journal deltas");
    assert_eq!(b.dataset().generation(), final_gen);
    assert_eq!(b.dataset().content_fingerprint(), final_fp);

    let r = b.query(&q, QueryKind::Subgraph);
    assert!(r.exact_hit, "restored entry must serve an exact hit");
    assert_eq!(r.answer, final_answer, "restored answer must be repaired to the final dataset");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_accepts_already_mutated_base_dataset() {
    let base = dataset(14, 777);
    let dir = tmpdir("mutated_base");
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (a, _) = restore(base.clone(), config(), store);
    let mut rng = StdRng::seed_from_u64(2);
    let q = extract_query(base.graph(1), 5, &mut rng).unwrap();
    a.query(&q, QueryKind::Subgraph);
    for g in molecule_dataset(2, 31) {
        a.insert_graph(g);
    }
    a.snapshot_now().unwrap();
    let mutated = a.dataset();
    let answer = a.query(&q, QueryKind::Subgraph).answer;
    drop(a);

    // Restoring with the already-mutated dataset (e.g. the caller replayed
    // its own op log) must also work — no double-application of ops.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (b, report) = restore(mutated.clone(), config(), store);
    assert!(report.warm, "mutated base matching the snapshot must restore warm");
    assert_eq!(b.dataset().content_fingerprint(), mutated.content_fingerprint());
    assert_eq!(b.query(&q, QueryKind::Subgraph).answer, answer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3: a mutation racing `snapshot_now` must neither deadlock nor
/// have its delta dropped between the rotated-away journal and the new one.
/// Every mutation that returned must be recoverable from the store.
#[test]
fn mutations_racing_snapshots_are_never_dropped() {
    let base = dataset(16, 888);
    let dir = tmpdir("race");
    let cfg = CacheConfig { shards: 4, ..config() };
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let mut gc = SharedGraphCache::new(
        base.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg.clone(),
    )
    .unwrap();
    gc.attach_store(store).unwrap();
    let gc = Arc::new(gc);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let rotations = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let snapper = {
        let gc = Arc::clone(&gc);
        let stop = Arc::clone(&stop);
        let rotations = Arc::clone(&rotations);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                gc.snapshot_now().unwrap();
                rotations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        })
    };
    let querier = {
        let gc = Arc::clone(&gc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(3);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let ds = gc.dataset();
                let q = live_query(&ds, &mut rng);
                gc.query(&q, QueryKind::Subgraph);
            }
        })
    };

    // Main thread: bursts of mutations interleaved with the snapshots. A
    // mutation takes microseconds and a rotation milliseconds, so each
    // burst waits for one more rotation to land: deltas end up on both
    // sides of several rotations whatever the two threads' relative speed.
    let extra = molecule_dataset(24, 444);
    let mut inserted = Vec::new();
    for (i, g) in extra.into_iter().enumerate() {
        inserted.push(gc.insert_graph(g));
        if i % 3 == 2 {
            let victim = inserted.remove(0);
            assert!(gc.remove_graph(victim));
            let seen = rotations.load(std::sync::atomic::Ordering::Relaxed);
            while rotations.load(std::sync::atomic::Ordering::Relaxed) == seen {
                std::thread::yield_now();
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    snapper.join().unwrap();
    querier.join().unwrap();

    let final_gen = gc.dataset().generation();
    let final_fp = gc.dataset().content_fingerprint();
    assert_eq!(final_gen, 24 + 8, "every mutation must have applied");
    drop(gc);

    // Recovery sees every mutation: none fell between snapshot and journal.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (b, report) = SharedGraphCache::restore_from(
        base,
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg,
        store,
    )
    .unwrap();
    assert!(report.warm, "store must restore warm: {:?}", report.cold_reason);
    assert_eq!(b.dataset().generation(), final_gen, "no mutation may be dropped");
    assert_eq!(b.dataset().content_fingerprint(), final_fp);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store directory holding a snapshot of the pristine base dataset and a
/// journal of exactly four dataset deltas (generations 1-4: three inserts,
/// one remove).
fn dir_with_four_deltas(tag: &str) -> (Arc<Dataset>, PathBuf) {
    let base = dataset(12, 606);
    let dir = tmpdir(tag);
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (a, _) = restore(base.clone(), config(), store);
    for g in molecule_dataset(3, 909) {
        a.insert_graph(g);
    }
    assert!(a.remove_graph(0));
    a.attached_store().unwrap().sync().unwrap();
    (base, dir)
}

fn restore_report(base: Arc<Dataset>, dir: &Path) -> RecoveryReport {
    let store = Arc::new(CacheStore::open(dir).unwrap());
    restore(base, config(), store).1
}

fn journal_path(dir: &Path) -> PathBuf {
    let mut journals = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "gcj"));
    let path = journals.next().expect("one active journal");
    assert!(journals.next().is_none(), "stale journals are cleaned at rotation");
    path
}

/// Per-delta validation is what catches a journal that is intact frame by
/// frame (every checksum valid) but no longer describes one mutation
/// history.
#[test]
fn altered_dropped_or_reordered_deltas_restore_cold() {
    type Edit = fn(&mut Vec<JournalRecord>);
    let cases: [(&str, Edit, &str); 3] = [
        (
            "flipped",
            |recs| recs[1].resulting_fingerprint ^= 1,
            "journal dataset delta fingerprint mismatch at generation 2",
        ),
        (
            "dropped",
            |recs| drop(recs.remove(1)),
            "journal dataset delta out of order (generation 3 after 1)",
        ),
        (
            "swapped",
            |recs| recs.swap(1, 2),
            "journal dataset delta out of order (generation 3 after 1)",
        ),
    ];
    for (tag, edit, reason) in cases {
        let (base, dir) = dir_with_four_deltas(tag);
        let path = journal_path(&dir);
        let (header, mut records) = decode_journal(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(records.len(), 4, "{tag}: the journal holds the four deltas and nothing else");
        edit(&mut records);
        let mut bytes = encode_header(&header);
        for JournalRecord { generation, resulting_fingerprint, op } in &records {
            bytes.extend(encode_record(&JournalOp {
                generation: *generation,
                resulting_fingerprint: *resulting_fingerprint,
                op,
            }));
        }
        std::fs::write(&path, bytes).unwrap();

        let report = restore_report(base, &dir);
        assert!(!report.warm, "{tag}: a tampered delta journal must not restore warm");
        assert_eq!(report.cold_reason.as_deref(), Some(reason), "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The same directory untouched restores warm, so the cold starts above
    // are the edits' doing.
    let (base, dir) = dir_with_four_deltas("untouched");
    let report = restore_report(base, &dir);
    assert!(report.warm, "{:?}", report.cold_reason);
    assert_eq!(report.journal_deltas, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format version 3 redefined the dataset fingerprint, so a directory a
/// version-2 build wrote — same layout, valid checksums — is rejected by
/// version: a cold start that names it, and a doctor report, not a panic.
#[test]
fn version_2_directory_restores_cold_and_doctor_names_the_version() {
    let (base, dir) = dir_with_four_deltas("v2");
    let restamp = |path: &Path, checked_len: fn(usize) -> usize| {
        let mut bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes[8..12], gc_store::FORMAT_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let n = checked_len(bytes.len());
        let crc = crc64(&bytes[..n]);
        bytes[n..n + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    };
    // Snapshot: the checksum is the file's last 8 bytes; journal: the
    // header's.
    restamp(&dir.join("snapshot.gcs"), |len| len - 8);
    restamp(&journal_path(&dir), |_| HEADER_LEN - 8);

    let doctor = inspect_dir(&dir).unwrap();
    assert!(!doctor.healthy());
    let text = doctor.describe();
    assert!(text.contains("unsupported snapshot version 2"), "{text}");
    assert!(text.contains("unsupported journal version 2"), "{text}");

    let report = restore_report(base, &dir);
    assert!(!report.warm);
    let reason = report.cold_reason.unwrap();
    assert!(reason.contains("unsupported snapshot version 2"), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dataset with graph 2 already tombstoned, shared with the caller — the
/// state in which `Arc::make_mut` would deep-copy it.
fn shared_dataset_with_a_tombstone() -> Arc<Dataset> {
    let mut d = Dataset::new(molecule_dataset(8, 5));
    assert!(d.remove_graph(2));
    Arc::new(d)
}

fn cache_over(ds: &Arc<Dataset>) -> SharedGraphCache {
    SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, config()).unwrap()
}

#[test]
fn removing_an_already_removed_graph_does_not_copy_the_dataset() {
    let ds = shared_dataset_with_a_tombstone();
    let gc = cache_over(&ds);
    assert!(!gc.remove_graph(2));
    assert!(Arc::ptr_eq(&gc.dataset(), &ds), "a no-op remove must not copy the dataset");
    assert_eq!(gc.dataset().generation(), 1);
    assert_eq!(gc.telemetry().mutate().count(), 0, "only applied mutations are timed");
}

#[test]
fn removing_an_unknown_graph_id_returns_false() {
    let ds = shared_dataset_with_a_tombstone();
    let gc = cache_over(&ds);
    for gid in [ds.len() as u32, u32::MAX] {
        assert!(!gc.remove_graph(gid));
    }
    assert_eq!(gc.dataset().generation(), 1);
    // The write lock was released, not poisoned: the cache still mutates.
    assert!(gc.remove_graph(0));
    assert_eq!(gc.telemetry().mutate().count(), 1);
}
