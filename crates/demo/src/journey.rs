//! Scenario I: The Query Journey (paper §3.2, Fig. 3).
//!
//! Executes one query against a (typically pre-warmed)
//! [`SharedGraphCache`] and narrates every stage of the computation: cache
//! hits found, the candidate set (Method M's, or the hits' own upper bound
//! when they already fence the answer), savings from the sub and super
//! cases, the reduced verification set, the survivors, and the final
//! answer — ending with the speedup in sub-iso tests, exactly like the
//! demo's worked example (75 → 43, speedup 1.74).

use crate::ascii;
use gc_core::{QueryReport, SharedGraphCache};
use gc_graph::Graph;
use gc_method::QueryKind;

/// The captured journey: the report plus its rendering.
#[derive(Debug)]
pub struct QueryJourney {
    /// The underlying per-query report.
    pub report: QueryReport,
    /// Multi-panel text rendering.
    pub rendering: String,
}

/// Run `query` through `gc` and capture the Fig. 3 panels.
pub fn run_query_journey(gc: &SharedGraphCache, query: &Graph, kind: QueryKind) -> QueryJourney {
    let report = gc.query(query, kind);
    let rendering = render(gc, query, &report);
    QueryJourney { report, rendering }
}

fn render(gc: &SharedGraphCache, query: &Graph, r: &QueryReport) -> String {
    let mut out = String::new();
    let per_row = 50;
    out.push_str(&format!(
        "=== The Query Journey ({} query, {} vertices / {} edges) ===\n",
        r.kind,
        query.vertex_count(),
        query.edge_count()
    ));
    if r.exact_hit {
        out.push_str(&format!(
            "(a) exact-match HIT: answer served from cache, {} sub-iso tests saved\n(h) A: {}\n",
            r.cm_size,
            ascii::set_summary(&r.answer, 12),
        ));
        return out;
    }
    out.push_str(&format!("(a) H  — sub-case hits (query ⊑ cached): {:?}\n", r.sub_hits));
    out.push_str(&format!("(e) H' — super-case hits (cached ⊑ query): {:?}\n", r.super_hits));
    if r.filter_skipped {
        out.push_str(&format!(
            "(b) U  — plan: bounded — the hits fence the answer, Method M's filter skipped; \
             |U| = {}, |C_M| ≤ {}\n",
            r.cm_set.count(),
            r.cm_size
        ));
    } else {
        out.push_str(&format!(
            "(b) C_M — plan: filter — Method M candidates, |C_M| = {}\n",
            r.cm_size
        ));
    }
    out.push_str(&ascii::id_grid(&r.cm_set, per_row));
    out.push_str(&format!(
        "(c) S  — definite answers from hits, |S| = {} : {}\n",
        r.definite,
        ascii::set_summary(&r.definite_set, 12)
    ));
    let pruned_away = r.cm_size.saturating_sub(r.verified + r.definite);
    out.push_str(&format!("(d) S' — definite non-answers pruned, |S'| = {pruned_away}\n"));
    out.push_str(&format!("(f) C  — reduced candidate set, |C| = {}\n", r.verified));
    out.push_str(&ascii::id_grid(&r.verified_set, per_row));
    out.push_str(&format!(
        "(g) R  — survivors of sub-iso over C, |R| = {} : {}\n",
        r.survivors,
        ascii::set_summary(&r.survivors_set, 12)
    ));
    out.push_str(&format!(
        "(h) A = R ∪ S, |A| = {} : {}\n",
        r.answer.count(),
        ascii::set_summary(&r.answer, 12)
    ));
    out.push_str(&format!(
        "speedup in sub-iso testing: {}/{} = {:.2} (probe overhead: {} tests)\n",
        r.cm_size,
        r.sub_iso_tests + r.probe_tests,
        r.test_speedup(),
        r.probe_tests,
    ));
    out.push_str(&format!(
        "cache: {} entries, policy {}, method {}\n",
        gc.len(),
        gc.policy_name(),
        gc.method_name()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_core::{CacheConfig, PolicyKind};
    use gc_method::{Dataset, SiMethod};
    use gc_workload::{extract_query, molecule_dataset, nested_chain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn journey_renders_all_panels() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(40, 31)));
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig { capacity: 50, window_size: 1, shards: 1, ..CacheConfig::default() },
        )
        .unwrap();

        // Warm the cache with the ends of a ⊑-chain; the journey query is
        // the middle element, giving both a sub-case and a super-case hit
        // without an exact match.
        let mut rng = StdRng::seed_from_u64(3);
        let chain = nested_chain(dataset.graph(0), &[3, 6, 10], &mut rng);
        gc.query(&chain[0], QueryKind::Subgraph);
        gc.query(&chain[2], QueryKind::Subgraph);
        let j = run_query_journey(&gc, &chain[1], QueryKind::Subgraph);
        assert!(!j.report.exact_hit);
        for panel in ["(a)", "(b)", "(c)", "(d)", "(e)", "(f)", "(g)", "(h)", "speedup"] {
            assert!(j.rendering.contains(panel), "missing panel {panel}:\n{}", j.rendering);
        }
    }

    #[test]
    fn exact_hit_journey() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(10, 32)));
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            PolicyKind::Lru,
            CacheConfig { capacity: 10, window_size: 1, shards: 1, ..CacheConfig::default() },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let q = extract_query(dataset.graph(0), 5, &mut rng).unwrap();
        gc.query(&q, QueryKind::Subgraph);
        let j = run_query_journey(&gc, &q, QueryKind::Subgraph);
        assert!(j.report.exact_hit);
        assert!(j.rendering.contains("exact-match HIT"));
    }
}
