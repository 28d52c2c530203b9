//! Stage 5 — **Verify**: exact sub-iso testing of the reduced candidate set
//! `C` (Fig. 3(g)).
//!
//! The expensive stage. Builds the query's [`QueryProfile`] **once**, then
//! dispatches to a [`VerifyPool`] when the candidate set is big enough to
//! amortize the hand-off (the sequential runtime uses its per-instance pool;
//! [`crate::SharedGraphCache`] passes the process-wide
//! [`crate::parallel::global_pool`], batching verification work from all
//! concurrent queries onto one CPU-sized worker set), and runs inline
//! otherwise. Either way each worker reuses a thread-local
//! [`gc_method::VfScratch`], so the per-candidate loop is allocation-free.
//! Also feeds the observed per-graph verification costs into the
//! [`CostModel`] that PINC/HD rank by.

use crate::config::CacheConfig;
use crate::cost::CostModel;
use crate::parallel::{self, VerifyPool};
use crate::pipeline::PipelineCtx;
use gc_method::{Dataset, QueryProfile};
use std::sync::Arc;

/// Run verification for the reduced set in `ctx`, storing survivors `R`,
/// the verifier step count, and the per-graph step counts.
///
/// `pool`: worker pool to consider; the stage still runs inline when the
/// candidate count is below `cfg.parallel_threshold` (channel round-trips
/// would outweigh the work).
pub fn run(
    ctx: &mut PipelineCtx<'_>,
    dataset: &Arc<Dataset>,
    cfg: &CacheConfig,
    pool: Option<&VerifyPool>,
) {
    if ctx.pruned.to_verify.is_empty() {
        // Fully answered by hits/pruning (the cache's best case): skip the
        // per-query profile construction entirely.
        return;
    }
    let profile = QueryProfile::new(dataset, ctx.query, ctx.kind);
    let use_pool = pool.filter(|_| ctx.pruned.to_verify.count() >= cfg.parallel_threshold);
    let outcome = match use_pool {
        Some(pool) => pool.verify(dataset, cfg.engine, &profile, ctx.query, &ctx.pruned.to_verify),
        None => parallel::verify_candidates(
            dataset,
            cfg.engine,
            &profile,
            ctx.query,
            &ctx.pruned.to_verify,
            1,
        ),
    };
    ctx.survivors = outcome.survivors;
    ctx.verify_steps = outcome.steps;
    ctx.verify_costs = outcome.costs;
}

/// Feed the cost model with this query's observations: each verified graph
/// is charged its **own** measured step count (the scratch-based verifiers
/// report per-graph costs; the former mean-based accounting truncated
/// `steps / verified` to 0 for cheap queries, starving PINC/HD of signal).
pub fn observe_costs(ctx: &PipelineCtx<'_>, cost: &CostModel) {
    for &(gid, steps) in &ctx.verify_costs {
        cost.observe(gid, steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prune::Pruned;
    use gc_graph::{graph_from_parts, BitSet, Label};
    use gc_method::QueryKind;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> gc_graph::Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn dataset() -> Arc<Dataset> {
        Arc::new(Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1], &[(0, 1)]),
        ]))
    }

    #[test]
    fn inline_and_pooled_agree() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let cfg = CacheConfig { parallel_threshold: 0, ..CacheConfig::default() };
        let pool = VerifyPool::new(2);

        let mut inline_ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, ds.len());
        inline_ctx.pruned = Pruned {
            to_verify: ds.all_graphs(),
            definite: BitSet::new(ds.len()),
            cm_size: ds.len(),
            saved: 0,
        };
        let mut pooled_ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, ds.len());
        pooled_ctx.pruned = inline_ctx.pruned.clone();

        run(&mut inline_ctx, &ds, &cfg, None);
        run(&mut pooled_ctx, &ds, &cfg, Some(&pool));
        assert_eq!(inline_ctx.survivors, pooled_ctx.survivors);
        assert_eq!(inline_ctx.verify_steps, pooled_ctx.verify_steps);
        assert_eq!(inline_ctx.verify_costs, pooled_ctx.verify_costs);
        assert_eq!(inline_ctx.survivors.to_vec(), vec![0, 1, 3]);
    }

    #[test]
    fn costs_observed_per_graph() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let cfg = CacheConfig::default();
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, ds.len());
        ctx.pruned = Pruned {
            to_verify: BitSet::from_indices(ds.len(), [0usize, 1]),
            definite: BitSet::new(ds.len()),
            cm_size: 2,
            saved: 0,
        };
        run(&mut ctx, &ds, &cfg, None);
        assert!(ctx.verify_steps > 0);
        assert_eq!(ctx.verify_costs.len(), 2);
        let cost = CostModel::new(&ds);
        let before = cost.estimate(0);
        observe_costs(&ctx, &cost);
        // Each verified graph's estimate moved to its own observed steps —
        // no mean-smearing across the batch.
        assert_ne!(cost.estimate(0), before);
        for &(gid, steps) in &ctx.verify_costs {
            assert!(
                (cost.estimate(gid) - steps as f64).abs() < 1e-9,
                "estimate for graph {gid} should equal its observed steps"
            );
        }
    }

    #[test]
    fn cheap_queries_still_produce_cost_signal() {
        // Regression for the integer-division truncation bug: a query whose
        // total steps are fewer than the candidate count must still observe
        // non-zero costs for the graphs that did cost something.
        let ds = dataset();
        let q = g(&[3], &[]); // single vertex: trivially cheap tests
        let cfg = CacheConfig::default();
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, ds.len());
        ctx.pruned = Pruned {
            to_verify: ds.all_graphs(),
            definite: BitSet::new(ds.len()),
            cm_size: ds.len(),
            saved: 0,
        };
        run(&mut ctx, &ds, &cfg, None);
        let cost = CostModel::new(&ds);
        observe_costs(&ctx, &cost);
        // Graph 2 ([3,3]) matches label 3 and costs at least one step.
        let observed_g2 = ctx.verify_costs.iter().find(|&&(gid, _)| gid == 2).unwrap().1;
        assert!(observed_g2 > 0);
        assert!((cost.estimate(2) - observed_g2 as f64).abs() < 1e-9);
    }
}
