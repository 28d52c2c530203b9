//! Experiment III (Fig. 3): The Query Journey pipeline anatomy.
//!
//! Reproduces the demo's worked example quantitatively: a cache of 50
//! executed queries over a 100-graph dataset; one instrumented query that
//! enjoys both sub-case and super-case hits; the pipeline invariants
//! (`A = R ∪ S`, `C ⊆ C_M`, `S ∩ C = ∅`) checked and the per-stage counts
//! printed in the figure's order. The paper's instance shows
//! `|C_M| = 75 → |C| = 43`, speedup 1.74.

use gc_bench::write_artifact;
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_demo::run_query_journey;
use gc_method::{Dataset, FtvMethod, QueryKind};
use gc_workload::molecules::{molecule_dataset_with, MoleculeParams};
use gc_workload::{extract_query, nested_chain};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct JourneyNumbers {
    /// `"filter"` or `"bounded"`: which plan built the candidate set `cm`.
    plan: &'static str,
    sub_hits: usize,
    super_hits: usize,
    cm: usize,
    s: usize,
    s_prime: usize,
    c: usize,
    r: usize,
    a: usize,
    test_speedup: f64,
}

fn main() {
    // Label-homogeneous molecules so Method M's filter keeps a large C_M
    // (the paper's example keeps 75 of 100 graphs).
    let params =
        MoleculeParams { label_weights: vec![(0, 0.85), (1, 0.15)], ..MoleculeParams::default() };
    let dataset = Arc::new(Dataset::new(molecule_dataset_with(100, &params, 1812)));
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, 1)),
        PolicyKind::Hd,
        CacheConfig { capacity: 50, window_size: 1, shards: 1, ..CacheConfig::default() },
    )
    .expect("valid config");

    // Warm with a ⊑-chain around the journey query plus unrelated queries.
    let mut rng = StdRng::seed_from_u64(99);
    let chain = nested_chain(dataset.graph(0), &[3, 4, 5, 10, 16], &mut rng);
    let journey_query = chain[3].clone();
    for (i, q) in chain.iter().enumerate() {
        if i != 3 {
            gc.query(q, QueryKind::Subgraph);
        }
    }
    let mut filler = 0u32;
    while gc.len() < 50 && filler < 300 {
        filler += 1;
        if let Some(q) = extract_query(dataset.graph(1 + (filler % 90)), 6, &mut rng) {
            gc.query(&q, QueryKind::Subgraph);
        }
    }

    let journey = run_query_journey(&gc, &journey_query, QueryKind::Subgraph);
    println!("{}", journey.rendering);

    let r = &journey.report;
    // --- invariants of the Fig. 3 pipeline -----------------------------------
    assert!(!r.exact_hit);
    assert!(r.verified_set.is_subset(&r.cm_set), "C ⊆ C_M");
    assert!(r.answer.is_subset(&r.cm_set), "A ⊆ C_M");
    assert!(r.definite_set.is_disjoint(&r.verified_set), "S ∩ C = ∅");
    let mut a = r.survivors_set.clone();
    a.union_with(&r.definite_set);
    assert_eq!(a, r.answer, "A = R ∪ S");
    assert!(!r.sub_hits.is_empty(), "journey must include a sub-case hit");
    assert!(!r.super_hits.is_empty(), "journey must include super-case hits");
    assert!(r.verified < r.cm_size, "the cache must prune C_M");

    let numbers = JourneyNumbers {
        plan: r.plan(),
        sub_hits: r.sub_hits.len(),
        super_hits: r.super_hits.len(),
        cm: r.cm_size,
        s: r.definite,
        s_prime: r.cm_size - r.verified - r.definite,
        c: r.verified,
        r: r.survivors,
        a: r.answer.count(),
        test_speedup: r.test_speedup(),
    };
    println!(
        "paper's instance: 1 sub + 3 super hits, C_M 75 -> C 43, speedup 1.74 (ratio |C_M|/|C|)"
    );
    println!(
        "this instance   : {} sub + {} super hits, plan {}, C_M {} -> C {}, speedup {:.2} \
         (probe-charged)",
        numbers.sub_hits,
        numbers.super_hits,
        numbers.plan,
        numbers.cm,
        numbers.c,
        numbers.test_speedup
    );
    println!("all Fig. 3 pipeline invariants verified: A = R ∪ S, C ⊆ C_M, S ∩ C = ∅");
    match write_artifact("exp3_query_journey", &numbers) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
}
