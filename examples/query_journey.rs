//! Scenario I — The Query Journey (paper §3.2, Fig. 3).
//!
//! Reproduces the demo's end-user walkthrough: a cache pre-warmed with 50
//! executed queries, then one instrumented query whose trip through GC is
//! narrated panel by panel (`H`, `C_M`, `S`, `S'`, `C`, `R`, `A`) ending
//! with the sub-iso-test speedup. The paper's worked example has exactly
//! **one sub-case and three super-case hits**, reducing `|C_M| = 75` to
//! `|C| = 43` (speedup 1.74); this program stages the same anatomy — a
//! cached supergraph plus several cached subgraphs of the journey query —
//! and reports the same pipeline with the same shape of savings.
//!
//! ```sh
//! cargo run --release --example query_journey
//! ```

use gc_workload::molecules::{molecule_dataset_with, MoleculeParams};
use graphcache::demo::run_query_journey;
use graphcache::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

fn main() {
    // The demo deployment: 100 dataset graphs, cache capacity 50, Method M
    // with a weak filter (small feature size) so C_M stays sizeable, like
    // the 75 of Fig. 3(b). A nearly label-homogeneous dataset (hydrocarbon
    // backbones: 85% C, 15% O) keeps the filter honest — most molecules
    // share the query's label paths, exactly the regime of the demo figure.
    let params =
        MoleculeParams { label_weights: vec![(0, 0.85), (1, 0.15)], ..MoleculeParams::default() };
    let dataset = Arc::new(Dataset::new(molecule_dataset_with(100, &params, 1812)));
    let method = Box::new(FtvMethod::build(&dataset, 1));
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        method,
        PolicyKind::Hd,
        CacheConfig { capacity: 50, window_size: 1, shards: 1, ..CacheConfig::default() },
    )
    .expect("valid config");

    // A ⊑-chain over graph 0: sizes 3 < 4 < 5 < 10 < 16 edges. The journey
    // query will be the 10-edge element; warming with the three smaller
    // ones gives three super-case hits, warming with the largest gives one
    // sub-case hit — the demo's exact anatomy.
    let mut rng = StdRng::seed_from_u64(99);
    let chain = nested_chain(dataset.graph(0), &[3, 4, 5, 10, 16], &mut rng);
    let journey_query = chain[3].clone();
    gc.query(&chain[0], QueryKind::Subgraph);
    gc.query(&chain[1], QueryKind::Subgraph);
    gc.query(&chain[2], QueryKind::Subgraph);
    gc.query(&chain[4], QueryKind::Subgraph);

    // Fill the rest of the cache with unrelated executed queries, like the
    // demo's "graph cache with 50 executed queries".
    let mut filler = 0u32;
    while gc.len() < 50 && filler < 200 {
        filler += 1;
        let src = dataset.graph(1 + (filler % 90));
        if let Some(q) = extract_query(src, 6, &mut rng) {
            gc.query(&q, QueryKind::Subgraph);
        }
    }
    println!("cache warmed: {} entries, policy {}\n", gc.len(), gc.policy_name());

    let journey = run_query_journey(&gc, &journey_query, QueryKind::Subgraph);
    println!("{}", journey.rendering);

    let r = &journey.report;
    println!(
        "summary: {} sub-case + {} super-case hits reduced |C_M|={} to |C|={} (speedup {:.2})",
        r.sub_hits.len(),
        r.super_hits.len(),
        r.cm_size,
        r.verified,
        r.test_speedup()
    );
    assert!(!r.exact_hit, "journey query was never executed before");
}
