//! Many client threads sharing one cache.
//!
//! `SharedGraphCache` serves the staged pipeline through `&self`: shard the
//! cache state, probe under read locks, admit under short write sections,
//! and let every client thread query concurrently. This example replays a
//! workload through a one-shard cache from one thread, then through an
//! eight-shard cache from eight, and checks that every concurrent answer is
//! exactly the one the sequential replay gave.
//!
//! Run with: `cargo run --release --example concurrent_clients`

use graphcache::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    const CLIENTS: usize = 8;
    const QUERIES: usize = 400;

    // A dataset and a skewed workload (repetition is what caches love).
    let dataset = Arc::new(Dataset::new(molecule_dataset(80, 2024)));
    let spec = WorkloadSpec {
        n_queries: QUERIES,
        pool_size: 60,
        kind: WorkloadKind::Zipf { skew: 1.2 },
        seed: 11,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    // Reference run: one shard, one thread (answers are exact regardless
    // of cache state, so this doubles as the ground truth).
    let seq = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, 2)),
        PolicyKind::Hd,
        CacheConfig { shards: 1, ..CacheConfig::default() },
    )
    .unwrap();
    let t0 = Instant::now();
    let expected: Vec<BitSet> =
        workload.queries.iter().map(|wq| seq.query(&wq.graph, wq.kind).answer).collect();
    let seq_time = t0.elapsed();

    // Concurrent run: CLIENTS threads stripe the same workload over one
    // SharedGraphCache.
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, 2)),
        PolicyKind::Hd,
        CacheConfig::default(),
    )
    .unwrap();
    let t0 = Instant::now();
    let mismatches: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let gc = &gc;
                let workload = &workload;
                let expected = &expected;
                scope.spawn(move || {
                    let mut bad = 0usize;
                    for (i, wq) in workload.queries.iter().enumerate() {
                        if i % CLIENTS != t {
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
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let shared_time = t0.elapsed();

    let stats = gc.stats();
    println!("{QUERIES} queries, {CLIENTS} concurrent clients, {} shards", gc.shard_count());
    let shared = format!("{} shards, {CLIENTS} clients", gc.shard_count());
    println!("{:<20}: {:>8.1} ms", "1 shard, 1 client", seq_time.as_secs_f64() * 1e3);
    println!("{shared:<20}: {:>8.1} ms", shared_time.as_secs_f64() * 1e3);
    println!(
        "hit ratio {:.1}% | exact hits {} | admitted {} | evicted {}",
        100.0 * stats.hit_ratio(),
        stats.exact_hits,
        stats.admitted,
        stats.evicted
    );
    match mismatches {
        0 => println!("all concurrent answers identical to the sequential replay ✓"),
        n => println!("!! {n} answers diverged — this would be a bug"),
    }
    assert_eq!(mismatches, 0);
}
