//! Experiment XII: core-aware scaling of the sharded front-end plus
//! dispatched-vs-scalar kernel speedups.
//!
//! Two measurements in one artifact:
//!
//! 1. **Kernel ratios** — the runtime-dispatched bitset/merge kernels
//!    (`gc_graph::simd`, selected once per process from CPU features)
//!    against the always-compiled portable-scalar reference, per kernel.
//!    These are core-count-independent: they show what the dispatch buys
//!    on this machine even when `available_parallelism` is 1.
//! 2. **Core scaling** — `SharedGraphCache` throughput over a zipf
//!    workload swept across shard counts and client threads (each query
//!    runs whole on its client's thread), against the sequential
//!    `GraphCache` baseline. Every shared-mode
//!    answer is cross-checked bit-for-bit against the sequential replay;
//!    any divergence aborts with a nonzero exit.
//!
//! Writes `bench_results/exp12_core_scaling.json` and, as the perf
//! trajectory artifact, `BENCH_scaling.json` at the working directory
//! root. Scaling is bounded by physical cores — a 1-core container shows
//! flat speedup curves by construction (the artifact records
//! `available_parallelism` so readers can tell); the kernel ratios remain
//! meaningful on any core count.

use gc_bench::{print_table, write_artifact};
use gc_core::{CacheConfig, GraphCache, PolicyKind, SharedGraphCache};
use gc_graph::simd;
use gc_method::{Dataset, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct KernelPoint {
    kernel: String,
    scalar_ns_per_call: f64,
    dispatched_ns_per_call: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ScalingPoint {
    shards: usize,
    clients: usize,
    queries: usize,
    elapsed_s: f64,
    throughput_qps: f64,
    speedup_vs_sequential: f64,
    hit_ratio: f64,
}

#[derive(Serialize)]
struct Exp12Artifact {
    available_parallelism: usize,
    kernel_dispatch: &'static str,
    dataset_graphs: usize,
    n_queries: usize,
    zipf_skew: f64,
    policy: String,
    kernels: Vec<KernelPoint>,
    scaling: Vec<ScalingPoint>,
}

/// Deterministic pseudo-random words (splitmix64) — no clock, no rand
/// state shared with the workload generator.
fn fill_words(seed: u64, out: &mut [u64]) {
    let mut s = seed;
    for w in out.iter_mut() {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *w = z ^ (z >> 31);
    }
}

/// Nanoseconds per call of `f`, median of 5 timed batches after a warmup.
fn bench_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps / 10 + 1 {
        f();
    }
    let mut samples = [0.0f64; 5];
    for s in samples.iter_mut() {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        *s = t0.elapsed().as_secs_f64() * 1e9 / reps as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[2]
}

fn kernel_ratios(reps: usize) -> Vec<KernelPoint> {
    const WORDS: usize = 4096;
    let mut a = vec![0u64; WORDS];
    let mut b = vec![0u64; WORDS];
    fill_words(7, &mut a);
    fill_words(11, &mut b);

    // Posting-style inputs: a dense-ish sorted candidate set and a sorted
    // `(id, count)` list, the shapes the trie/tree/merge hot loops see.
    let cur: Vec<u32> = (0..20_000u32).step_by(3).collect();
    let list: Vec<(u32, u32)> = (0..30_000u32).step_by(2).map(|id| (id, 1 + id % 3)).collect();
    let mut blocks = vec![0u64; 30_000usize.div_ceil(64)];
    let postings = &list;

    let mut points = Vec::new();
    let mut push = |kernel: &str, scalar_ns: f64, dispatched_ns: f64| {
        points.push(KernelPoint {
            kernel: kernel.to_string(),
            scalar_ns_per_call: scalar_ns,
            dispatched_ns_per_call: dispatched_ns,
            speedup: scalar_ns / dispatched_ns.max(1e-9),
        });
    };

    push(
        "popcount_words",
        bench_ns(reps, || {
            black_box(simd::scalar::popcount_words(black_box(&a)));
        }),
        bench_ns(reps, || {
            black_box(simd::popcount_words(black_box(&a)));
        }),
    );
    push(
        "and_popcount_words",
        bench_ns(reps, || {
            black_box(simd::scalar::and_popcount_words(black_box(&a), black_box(&b)));
        }),
        bench_ns(reps, || {
            black_box(simd::and_popcount_words(black_box(&a), black_box(&b)));
        }),
    );
    push(
        "or_words",
        bench_ns(reps, || {
            simd::scalar::or_words(black_box(&mut a), black_box(&b));
        }),
        bench_ns(reps, || {
            simd::or_words(black_box(&mut a), black_box(&b));
        }),
    );
    push(
        "intersect_postings",
        bench_ns(reps, || {
            fill_words(13, &mut blocks);
            simd::scalar::intersect_postings(black_box(&mut blocks), black_box(postings), 2);
        }),
        bench_ns(reps, || {
            fill_words(13, &mut blocks);
            simd::intersect_postings(black_box(&mut blocks), black_box(postings), 2);
        }),
    );
    let mut out = Vec::with_capacity(cur.len());
    push(
        "intersect_pairs",
        bench_ns(reps, || {
            out.clear();
            simd::scalar::intersect_pairs(black_box(&cur), black_box(&list), 1, &mut out);
            black_box(out.len());
        }),
        bench_ns(reps, || {
            out.clear();
            simd::intersect_pairs(black_box(&cur), black_box(&list), 1, &mut out);
            black_box(out.len());
        }),
    );
    // Skewed shape (list ≫ candidate run): the band where the AVX2 pair
    // block-scan engages (see `gc_graph::simd::pair_scan_wins`); the dense
    // shape above stays on the linear merge by design, so its ratio is ~1.
    let cur_skew: Vec<u32> = (0..64u32).map(|i| i * 256).collect();
    push(
        "intersect_pairs_skewed",
        bench_ns(reps, || {
            out.clear();
            simd::scalar::intersect_pairs(black_box(&cur_skew), black_box(&list), 1, &mut out);
            black_box(out.len());
        }),
        bench_ns(reps, || {
            out.clear();
            simd::intersect_pairs(black_box(&cur_skew), black_box(&list), 1, &mut out);
            black_box(out.len());
        }),
    );
    points
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dispatch = simd::kernel_name();

    // --- kernel ratios ------------------------------------------------------
    let reps = if smoke { 200 } else { 2000 };
    let kernels = kernel_ratios(reps);
    println!(
        "=== Experiment XII: core scaling + kernel dispatch ({cores} core(s), \
         dispatch: {dispatch}) ===\n"
    );
    let kernel_rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|k| {
            vec![
                k.kernel.clone(),
                format!("{:.0} ns", k.scalar_ns_per_call),
                format!("{:.0} ns", k.dispatched_ns_per_call),
                format!("{:.2}x", k.speedup),
            ]
        })
        .collect();
    print_table(&["kernel", "scalar", "dispatched", "speedup"], &kernel_rows);
    let best = kernels.iter().map(|k| k.speedup).fold(0.0f64, f64::max);
    println!("\nbest kernel speedup: {best:.2}x (dispatch tier: {dispatch})\n");

    // --- core-scaling sweep -------------------------------------------------
    let n_graphs = if smoke { 50 } else { 150 };
    let n_queries = if smoke { 300 } else { 1500 };
    let skew = 1.1;
    let dataset = Arc::new(Dataset::new(molecule_dataset(n_graphs, 4242)));
    let spec = WorkloadSpec {
        n_queries,
        pool_size: 120,
        kind: WorkloadKind::Zipf { skew },
        min_edges: 4,
        max_edges: 10,
        seed: 23,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    let mut seq = GraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig { capacity: 64, window_size: 8, ..CacheConfig::default() },
    )
    .expect("valid config");
    let t0 = Instant::now();
    let expected: Vec<gc_graph::BitSet> =
        workload.queries.iter().map(|wq| seq.query(&wq.graph, wq.kind).answer).collect();
    let seq_elapsed = t0.elapsed().as_secs_f64();
    let seq_qps = n_queries as f64 / seq_elapsed.max(1e-9);

    let shard_counts: &[usize] = if smoke { &[2] } else { &[2, 4] };
    let client_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut scaling = Vec::new();
    let mut rows = vec![vec![
        "seq".to_string(),
        "1".to_string(),
        format!("{seq_elapsed:.3} s"),
        format!("{seq_qps:.0} q/s"),
        "1.00x".to_string(),
    ]];
    for &shards in shard_counts {
        for &clients in client_counts {
            let config =
                CacheConfig { capacity: 64, window_size: 8, shards, ..CacheConfig::default() };
            let gc = SharedGraphCache::with_policy(
                dataset.clone(),
                Box::new(SiMethod),
                PolicyKind::Hd,
                config,
            )
            .expect("valid config");
            let t0 = Instant::now();
            let mismatches: usize = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|t| {
                        let gc = &gc;
                        let workload = &workload;
                        let expected = &expected;
                        scope.spawn(move || {
                            let mut bad = 0usize;
                            for (i, wq) in workload.queries.iter().enumerate() {
                                if i % clients != t {
                                    continue;
                                }
                                if gc.query(&wq.graph, wq.kind).answer != expected[i] {
                                    bad += 1;
                                }
                            }
                            bad
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client panicked")).sum()
            });
            let elapsed = t0.elapsed().as_secs_f64();
            // Divergence is a correctness failure: exit nonzero.
            assert_eq!(
                mismatches, 0,
                "shared answers diverged from sequential replay (shards {shards}, clients {clients})"
            );
            let qps = n_queries as f64 / elapsed.max(1e-9);
            scaling.push(ScalingPoint {
                shards,
                clients,
                queries: n_queries,
                elapsed_s: elapsed,
                throughput_qps: qps,
                speedup_vs_sequential: qps / seq_qps,
                hit_ratio: gc.stats().hit_ratio(),
            });
            rows.push(vec![
                format!("shards={shards}"),
                clients.to_string(),
                format!("{elapsed:.3} s"),
                format!("{qps:.0} q/s"),
                format!("{:.2}x", qps / seq_qps),
            ]);
        }
    }

    print_table(&["mode", "clients", "wall time", "throughput", "vs sequential"], &rows);
    println!("\nall shared-mode answers verified bit-identical to the sequential replay");
    if cores < 8 {
        println!(
            "note: only {cores} core(s) available — the speedup curve is bounded by \
             hardware, not the cache (see artifact's available_parallelism)"
        );
    }

    let artifact = Exp12Artifact {
        available_parallelism: cores,
        kernel_dispatch: dispatch,
        dataset_graphs: n_graphs,
        n_queries,
        zipf_skew: skew,
        policy: "HD".into(),
        kernels,
        scaling,
    };
    match write_artifact("exp12_core_scaling", &artifact) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    match serde_json::to_string_pretty(&artifact) {
        Ok(json) => match std::fs::write("BENCH_scaling.json", json) {
            Ok(()) => println!("baseline: BENCH_scaling.json"),
            Err(e) => eprintln!("baseline write failed: {e}"),
        },
        Err(e) => eprintln!("baseline serialization failed: {e}"),
    }
}
