//! Experiment XV: dynamic datasets and the generation-versioned answer
//! memo.
//!
//! The paper's cache assumes a static dataset; this harness gates the
//! live-mutation extension end to end:
//!
//! 1. **Interleaved stream**: inserts, removes, and queries interleave
//!    against one cache (filter-then-verify method + mutation overlay).
//!    **Every** answer is cross-checked against Method M alone on the
//!    dataset *as mutated so far* — in-place answer repair must be
//!    indistinguishable from a cold rebuild at every step. Memo hits are
//!    verified to do **zero** probe/verify/sub-iso work.
//! 2. **Memo ablation**: the same repeat-heavy stream with the memo
//!    enabled vs disabled (`memo_capacity: 0`), measuring avg tests and
//!    wall time — the memo may only ever save work.
//! 3. **Warm restart with deltas**: a session snapshots, then mutates
//!    (deltas land only in the journal), then "crashes". Restoring from
//!    the *pristine* base dataset must replay every delta
//!    (fingerprint-validated), repair restored entries to the final
//!    universe, and answer exactly.
//!
//! Any violation exits nonzero. Writes
//! `bench_results/exp15_dynamic_dataset.json`, and `BENCH_memo.json` on
//! full runs. `--smoke` shrinks everything for CI.

use gc_bench::{print_table, write_artifact};
use gc_core::persist::CacheStore;
use gc_core::{CacheConfig, GraphCache, PolicyKind};
use gc_method::{execute_base, Dataset, Engine, FtvMethod, QueryKind, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Exp15Artifact {
    smoke: bool,
    dataset_size: usize,
    stream_steps: usize,
    inserts_applied: u64,
    removes_applied: u64,
    final_generation: u64,
    final_live_graphs: u64,
    /// Stream answers cross-checked against Method M on the live dataset.
    answers_cross_checked: usize,
    /// Memo hits observed in the stream, each verified zero-work.
    stream_memo_hits: u64,
    /// Ablation: repeat-heavy stream with the memo on vs off.
    ablation_queries: usize,
    memo_hits: u64,
    memo_avg_tests: f64,
    nomemo_avg_tests: f64,
    /// `nomemo_avg_tests / memo_avg_tests`.
    memo_test_speedup: f64,
    memo_wall_s: f64,
    nomemo_wall_s: f64,
    /// Warm restart: dataset deltas replayed from the journal.
    journal_deltas_replayed: usize,
    entries_restored: usize,
    restore_s: f64,
    restart_answers_checked: usize,
}

fn fail(msg: &str) -> ! {
    eprintln!("exp15 FAILED: {msg}");
    std::process::exit(1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_exp15_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A query extracted from a random live graph of the current dataset.
fn live_query(ds: &Dataset, rng: &mut StdRng) -> gc_graph::Graph {
    let live: Vec<u32> = ds.live_mask().iter().map(|g| g as u32).collect();
    loop {
        let src = live[rng.gen_range(0..live.len())];
        let size = rng.gen_range(4..9);
        if let Some(q) = gc_workload::extract_query(ds.graph(src), size, rng) {
            return q;
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ds_size = if smoke { 30 } else { 110 };
    let stream_steps = if smoke { 120 } else { 600 };
    let ablation_queries = if smoke { 150 } else { 800 };

    // ---- phase 1: interleaved mutation stream, every answer checked ------
    let base = Arc::new(Dataset::new(molecule_dataset(ds_size, 1500)));
    let cfg = CacheConfig { capacity: 24, window_size: 3, ..CacheConfig::default() };
    let mut gc = GraphCache::with_policy(
        base.clone(),
        Box::new(FtvMethod::build(&base, 2)),
        PolicyKind::Hd,
        cfg.clone(),
    )
    .expect("valid config");

    let mut rng = StdRng::seed_from_u64(15);
    let mut pool = molecule_dataset(stream_steps / 4, 9100).into_iter();
    let (mut inserts_applied, mut removes_applied) = (0u64, 0u64);
    let mut answers_cross_checked = 0usize;
    let mut stream_memo_hits = 0u64;
    let mut asked: Vec<(gc_graph::Graph, QueryKind)> = Vec::new();
    for step in 0..stream_steps {
        match rng.gen_range(0..8) {
            0 => {
                let gid = gc.insert_graph(pool.next().expect("insert pool sized for the stream"));
                if !gc.dataset().live_mask().contains(gid as usize) {
                    fail("inserted graph is not live");
                }
                inserts_applied += 1;
            }
            1 if gc.dataset().live_count() > ds_size / 2 => {
                let live: Vec<u32> = gc.dataset().live_mask().iter().map(|g| g as u32).collect();
                let victim = live[rng.gen_range(0..live.len())];
                if !gc.remove_graph(victim) {
                    fail("remove of a live graph reported no-op");
                }
                removes_applied += 1;
            }
            k => {
                // A third of queries re-ask an earlier one, so exact-match
                // and memo paths are exercised under mutation, not just the
                // full pipeline.
                let (q, kind) = if !asked.is_empty() && k % 3 == 2 {
                    asked[rng.gen_range(0..asked.len())].clone()
                } else {
                    let kind = if k % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph };
                    let q = live_query(&gc.dataset(), &mut rng);
                    asked.push((q.clone(), kind));
                    (q, kind)
                };
                let r = gc.query(&q, kind);
                let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, kind);
                if r.answer != want.answer {
                    fail(&format!(
                        "step {step}: answer diverged from Method M on the mutated dataset \
                         (generation {})",
                        gc.dataset().generation()
                    ));
                }
                answers_cross_checked += 1;
                if r.memo_hit {
                    if r.probe_tests != 0 || r.sub_iso_tests != 0 || r.verify_steps != 0 {
                        fail(&format!(
                            "step {step}: memo hit did work ({} probes, {} tests, {} steps)",
                            r.probe_tests, r.sub_iso_tests, r.verify_steps
                        ));
                    }
                    stream_memo_hits += 1;
                }
            }
        }
    }
    if inserts_applied == 0 || removes_applied == 0 {
        fail("stream must exercise both inserts and removes");
    }
    if stream_memo_hits == 0 {
        fail("stream produced no memo hits — the re-ask mix is broken");
    }
    let final_generation = gc.dataset().generation();
    let final_live_graphs = gc.dataset().live_count() as u64;

    // ---- phase 2: memo ablation on a repeat-heavy stream -----------------
    // Small capacity forces evictions, so repeats outlive their cache
    // entries — exactly the window where the memo pays.
    let spec = WorkloadSpec {
        n_queries: ablation_queries,
        pool_size: 40,
        kind: WorkloadKind::Zipf { skew: 1.2 },
        seed: 23,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(base.graphs(), &spec);
    let run = |memo_capacity: usize| {
        let mut gc = GraphCache::with_policy(
            base.clone(),
            Box::new(FtvMethod::build(&base, 2)),
            PolicyKind::Lru,
            CacheConfig { capacity: 8, window_size: 2, memo_capacity, ..CacheConfig::default() },
        )
        .expect("valid config");
        let t0 = Instant::now();
        let mut tests = 0u64;
        for wq in &workload.queries {
            let r = gc.query(&wq.graph, wq.kind);
            if r.memo_hit && (r.probe_tests != 0 || r.sub_iso_tests != 0 || r.verify_steps != 0) {
                fail("ablation memo hit performed probe/verify work");
            }
            tests += r.sub_iso_tests + r.probe_tests;
        }
        (tests as f64 / workload.len() as f64, t0.elapsed().as_secs_f64(), gc.stats().memo_hits)
    };
    let (memo_avg_tests, memo_wall_s, memo_hits) = run(cfg.memo_capacity);
    let (nomemo_avg_tests, nomemo_wall_s, no_hits) = run(0);
    if no_hits != 0 {
        fail("memo_capacity 0 must disable the memo");
    }
    if memo_hits == 0 {
        fail("repeat-heavy ablation stream produced no memo hits");
    }
    if memo_avg_tests > nomemo_avg_tests + 1e-9 {
        fail(&format!(
            "memo increased work: {memo_avg_tests:.2} vs {nomemo_avg_tests:.2} avg tests"
        ));
    }

    // ---- phase 3: warm restart replays dataset deltas --------------------
    let dir = fresh_dir("store");
    let store = Arc::new(CacheStore::open(&dir).expect("open store"));
    let (mut a, first) = GraphCache::restore_from(
        base.clone(),
        Box::new(FtvMethod::build(&base, 2)),
        PolicyKind::Hd.make(),
        cfg.clone(),
        Arc::clone(&store),
    )
    .expect("restore_from");
    if first.warm {
        fail("fresh directory restored warm");
    }
    let mut rng = StdRng::seed_from_u64(77);
    let probes: Vec<(gc_graph::Graph, QueryKind)> = (0..8)
        .map(|i| {
            (
                live_query(&base, &mut rng),
                if i % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph },
            )
        })
        .collect();
    for (q, kind) in &probes {
        a.query(q, *kind);
    }
    a.snapshot_now().expect("snapshot");
    // Mutations after the snapshot: they exist only as journal deltas.
    let n_mutations = if smoke { 6 } else { 20 };
    for (i, g) in molecule_dataset(n_mutations, 555).into_iter().enumerate() {
        let gid = a.insert_graph(g);
        if i % 3 == 2 && !a.remove_graph(gid) {
            fail("post-snapshot remove reported no-op");
        }
    }
    let mutations_journaled = a.dataset().generation();
    let final_fp = a.dataset().content_fingerprint();
    let want_answers: Vec<_> = probes
        .iter()
        .map(|(q, kind)| execute_base(&a.dataset(), &SiMethod, Engine::Vf2, q, *kind).answer)
        .collect();
    a.attached_store().expect("store attached").sync().expect("sync journal");
    drop(a); // crash: deltas never made it into a snapshot

    let t = Instant::now();
    let store = Arc::new(CacheStore::open(&dir).expect("reopen store"));
    let (mut b, report) = GraphCache::restore_from(
        base.clone(),
        Box::new(FtvMethod::build(&base, 2)),
        PolicyKind::Hd.make(),
        cfg,
        store,
    )
    .expect("restore_from");
    let restore_s = t.elapsed().as_secs_f64();
    if !report.warm {
        fail(&format!("delta-bearing store restored cold: {:?}", report.cold_reason));
    }
    if report.journal_deltas as u64 != mutations_journaled {
        fail(&format!(
            "journal replayed {} deltas, expected {mutations_journaled}",
            report.journal_deltas
        ));
    }
    if b.dataset().generation() != mutations_journaled
        || b.dataset().content_fingerprint() != final_fp
    {
        fail("restored dataset does not match the crashed session's final dataset");
    }
    let mut restart_answers_checked = 0usize;
    for ((q, kind), want) in probes.iter().zip(&want_answers) {
        let r = b.query(q, *kind);
        if &r.answer != want {
            fail("restored cache answer diverged after delta replay");
        }
        restart_answers_checked += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);

    // ---- report ----------------------------------------------------------
    println!(
        "=== Experiment XV: dynamic datasets + answer memo ({ds_size} graphs, \
         {stream_steps}-step mutation stream, {ablation_queries}-query ablation) ===\n"
    );
    let rows = vec![
        vec![
            "mutation stream".to_owned(),
            format!("{inserts_applied} inserts, {removes_applied} removes"),
            format!("generation {final_generation}, {final_live_graphs} live"),
            format!("{answers_cross_checked} answers checked, {stream_memo_hits} memo hits"),
        ],
        vec![
            "memo ablation (avg tests)".to_owned(),
            format!("{memo_avg_tests:.1} with memo"),
            format!("{nomemo_avg_tests:.1} without"),
            format!("{:.2}x, {memo_hits} hits", nomemo_avg_tests / memo_avg_tests.max(1e-12)),
        ],
        vec![
            "memo ablation (wall)".to_owned(),
            format!("{:.1} ms", memo_wall_s * 1e3),
            format!("{:.1} ms", nomemo_wall_s * 1e3),
            format!("{:.2}x", nomemo_wall_s / memo_wall_s.max(1e-12)),
        ],
        vec![
            "warm restart".to_owned(),
            format!("{} deltas replayed", report.journal_deltas),
            format!("{} entries, {:.1} ms", report.entries_restored, restore_s * 1e3),
            format!("{restart_answers_checked} answers checked"),
        ],
    ];
    print_table(&["phase", "", "", "verification"], &rows);

    let artifact = Exp15Artifact {
        smoke,
        dataset_size: ds_size,
        stream_steps,
        inserts_applied,
        removes_applied,
        final_generation,
        final_live_graphs,
        answers_cross_checked,
        stream_memo_hits,
        ablation_queries,
        memo_hits,
        memo_avg_tests,
        nomemo_avg_tests,
        memo_test_speedup: nomemo_avg_tests / memo_avg_tests.max(1e-12),
        memo_wall_s,
        nomemo_wall_s,
        journal_deltas_replayed: report.journal_deltas,
        entries_restored: report.entries_restored,
        restore_s,
        restart_answers_checked,
    };
    match write_artifact("exp15_dynamic_dataset", &artifact) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    if !smoke {
        match serde_json::to_string_pretty(&artifact) {
            Ok(json) => match std::fs::write("BENCH_memo.json", json) {
                Ok(()) => println!("baseline: BENCH_memo.json"),
                Err(e) => eprintln!("baseline write failed: {e}"),
            },
            Err(e) => eprintln!("baseline serialization failed: {e}"),
        }
    }
}
