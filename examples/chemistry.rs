//! Chemistry scenario: substructure search over a compound library.
//!
//! The paper's motivating domain (§1): "biochemical queries could range from
//! simple molecules and aminoacids to complex proteins" — an analyst starts
//! from a small functional-group pattern and progressively refines it. Each
//! refinement is a supergraph of the previous query, so GraphCache keeps
//! converting earlier results into pruning power.
//!
//! ```sh
//! cargo run --release --example chemistry
//! ```

use graphcache::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

fn main() {
    // A compound library of 200 molecule-like graphs.
    let dataset = Arc::new(Dataset::new(molecule_dataset(200, 555)));
    let method = Box::new(FtvMethod::build(&dataset, 3));
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        method,
        PolicyKind::Pinc, // cost-aware: molecules vary in verification cost
        CacheConfig { capacity: 64, window_size: 4, shards: 1, ..CacheConfig::default() },
    )
    .expect("valid config");

    let mut rng = StdRng::seed_from_u64(4242);
    println!("compound library: {} molecules\n", dataset.len());
    println!("analyst session: grow a pattern from 3 to 12 bonds, re-querying each step\n");

    let mut session = 0;
    for source_id in [3u32, 17, 42] {
        session += 1;
        let chain = nested_chain(dataset.graph(source_id), &[3, 5, 8, 12], &mut rng);
        println!("-- session {session}: refining a motif from molecule #{source_id} --");
        for (step, q) in chain.iter().enumerate() {
            let r = gc.query(q, QueryKind::Subgraph);
            println!(
                "  step {}: {:2} bonds -> {:3} matches | C_M {:3} -> C {:3} | hits: {} sub, {} super{}",
                step + 1,
                q.edge_count(),
                r.answer.count(),
                r.cm_size,
                r.verified,
                r.sub_hits.len(),
                r.super_hits.len(),
                if r.exact_hit { " (exact)" } else { "" },
            );
        }
        // The analyst re-runs the final refined pattern (a resubmission —
        // the FTV weakness GC fixes: "think of the example when a query is
        // resubmitted to the system, it shall be processed from scratch").
        let last = chain.last().expect("non-empty chain");
        let r = gc.query(last, QueryKind::Subgraph);
        println!(
            "  re-run : {:2} bonds -> {:3} matches | exact hit: {} (0 sub-iso tests)\n",
            last.edge_count(),
            r.answer.count(),
            r.exact_hit
        );
    }

    let stats = gc.stats();
    println!("session totals:");
    println!("  queries            : {}", stats.queries);
    println!("  hit ratio          : {:.0}%", 100.0 * stats.hit_ratio());
    println!("  sub-iso tests run  : {}", stats.tests_executed + stats.probe_tests);
    println!("  sub-iso tests saved: {}", stats.tests_saved);
}
