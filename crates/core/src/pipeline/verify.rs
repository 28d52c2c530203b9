//! Stage 5 — **Verify**: exact sub-iso testing of the reduced candidate set
//! `C` (Fig. 3(g)).
//!
//! The expensive stage. Builds the query's [`QueryProfile`] **once**, then
//! tests every candidate in ascending graph-id order on the calling thread,
//! through the verifier scratch the thread's
//! [`crate::pipeline::probe::ProbeScratch`] already carries — the
//! per-candidate loop neither sets up nor allocates once that scratch is
//! warm (pinned by `tests/probe_alloc.rs`). A query never fans out: the
//! cache's parallelism comes from concurrent queries, each on its own
//! client thread. Also feeds the observed per-graph verification costs
//! into the [`CostModel`] that PINC/HD rank by.
//!
//! **Memory, not search, is half of a cold test.** A candidate's data lies
//! in about seven heap arrays (labels, CSR offsets and neighbours, its
//! `sig`/`order` slices, its summary's histogram and degree sequence), and
//! on a drift-shaped stream over 10k molecules the candidates are spread
//! across the whole dataset: the same test costs about twice as much cold
//! as warm, and even an 8–15-step test pays the misses in full. So the loop
//! looks one candidate ahead and issues [`Dataset::prefetch`] for candidate
//! *i + 1* before testing candidate *i*; its lines arrive while *i* is
//! searched. The prefetch is a hint: every decision, step count and cost
//! entry is what a plain loop produces (property-tested below).
//!
//! Method M's reference run (`gc_method::execute_base`) keeps the plain
//! loop on purpose: it is the baseline `time_speedup` divides by, and a
//! baseline that moves with every verify-loop change would stop measuring
//! the same thing from one commit to the next.

use crate::cost::CostModel;
use crate::pipeline::PipelineCtx;
use gc_method::{Dataset, Engine, QueryProfile};

/// Verify the reduced set `C` in `ctx` with VF2: survivors `R` go into
/// `ctx.survivors`, the total steps into `ctx.verify_steps`, and one
/// `(gid, steps)` per candidate, ascending by gid, into `ctx.verify_costs`.
pub fn run(ctx: &mut PipelineCtx<'_>, dataset: &Dataset) {
    let PipelineCtx {
        query,
        kind,
        pruned,
        probe_scratch,
        survivors,
        verify_steps,
        verify_costs,
        ..
    } = ctx;
    let candidates = &pruned.to_verify;
    if candidates.is_empty() {
        // Fully answered by hits/pruning (the cache's best case): skip the
        // per-query profile construction entirely.
        return;
    }
    debug_assert_eq!(survivors.universe(), dataset.len(), "ctx built over this dataset");
    let mut gids = candidates.ones().peekable();
    // The first candidate's lines load while the query profile is built.
    if let Some(&first) = gids.peek() {
        dataset.prefetch(first as u32);
    }
    let profile = QueryProfile::new(dataset, query, *kind);
    verify_costs.reserve(candidates.count());
    while let Some(gid) = gids.next() {
        // Candidate i + 1's arrays load while candidate i is tested.
        if let Some(&next) = gids.peek() {
            dataset.prefetch(next as u32);
        }
        let (ok, steps) = Engine::Vf2.verify_candidate(
            dataset,
            &profile,
            query,
            gid as u32,
            &mut probe_scratch.vf,
        );
        *verify_steps += steps;
        verify_costs.push((gid, steps));
        if ok {
            survivors.insert(gid);
        }
    }
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
    use gc_graph::{graph_from_parts, BitSet, Graph, Label};
    use gc_method::QueryKind;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn dataset() -> Dataset {
        Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1], &[(0, 1)]),
            g(&[1, 0, 1], &[(0, 1), (1, 2)]),
        ])
    }

    /// Run the stage for `q` over the candidates `c`; returns the context.
    fn verified<'q>(ds: &Dataset, q: &'q Graph, kind: QueryKind, c: BitSet) -> PipelineCtx<'q> {
        let mut ctx = PipelineCtx::new(q, kind, 1, ds.len());
        ctx.pruned = Pruned { cm_size: c.count(), to_verify: c, saved: 0 };
        run(&mut ctx, ds);
        ctx
    }

    #[test]
    fn one_cost_per_candidate_ascending_by_gid() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let ctx = verified(&ds, &q, QueryKind::Subgraph, ds.all_graphs());
        assert_eq!(ctx.survivors.to_vec(), vec![0, 1, 3, 4]);
        assert_eq!(ctx.verify_costs.len(), 5, "one cost entry per verified candidate");
        assert_eq!(ctx.verify_costs.iter().map(|&(_, s)| s).sum::<u64>(), ctx.verify_steps);
        assert!(ctx.verify_costs.windows(2).all(|w| w[0].0 < w[1].0), "costs sorted by gid");
    }

    #[test]
    fn respects_candidate_subset() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let only = BitSet::from_indices(ds.len(), [2usize, 3]);
        let ctx = verified(&ds, &q, QueryKind::Subgraph, only);
        assert_eq!(ctx.survivors.to_vec(), vec![3]);
        assert_eq!(ctx.verify_costs.iter().map(|&(gid, _)| gid).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn empty_candidates() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let none = verified(&ds, &q, QueryKind::Subgraph, ds.empty_set());
        assert!(none.survivors.is_empty());
        assert_eq!(none.verify_steps, 0);
        assert!(none.verify_costs.is_empty());
    }

    #[test]
    fn singleton_candidates() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let hit = verified(&ds, &q, QueryKind::Subgraph, BitSet::from_indices(ds.len(), [3usize]));
        assert_eq!(hit.survivors.to_vec(), vec![3]);
        assert_eq!(hit.verify_costs.len(), 1);
        assert_eq!(hit.verify_costs[0], (3, hit.verify_steps));
        let miss = verified(&ds, &q, QueryKind::Subgraph, BitSet::from_indices(ds.len(), [2usize]));
        assert!(miss.survivors.is_empty());
        assert_eq!(miss.verify_costs.len(), 1, "a failed test still reports its cost");
    }

    #[test]
    fn survivors_match_reference_subiso() {
        // The stage's answer equals a from-scratch VF2 test of every graph,
        // in both directions, with no scratch or profile shared.
        let ds = dataset();
        let queries =
            [g(&[0, 1], &[(0, 1)]), g(&[3], &[]), g(&[0, 1, 2, 0], &[(0, 1), (1, 2), (0, 3)])];
        for (qi, q) in queries.iter().enumerate() {
            for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                let ctx = verified(&ds, q, kind, ds.all_graphs());
                let want: Vec<usize> = (0..ds.len())
                    .filter(|&gid| {
                        let data = &ds.graphs()[gid];
                        match kind {
                            QueryKind::Subgraph => gc_iso::is_subgraph(q, data),
                            QueryKind::Supergraph => gc_iso::is_subgraph(data, q),
                        }
                    })
                    .collect();
                assert_eq!(ctx.survivors.to_vec(), want, "{kind:?} answer for query {qi}");
            }
        }
    }

    #[test]
    fn supergraph_direction() {
        let ds = dataset();
        let q = g(&[0, 1, 2, 0], &[(0, 1), (1, 2), (0, 3)]);
        let ctx = verified(&ds, &q, QueryKind::Supergraph, ds.all_graphs());
        assert_eq!(ctx.survivors.to_vec(), vec![0, 3]);
    }

    #[test]
    fn warm_scratch_survives_many_queries() {
        // One scratch carried from query to query, as a runtime carries it:
        // differently shaped queries never see each other's search state.
        let ds = dataset();
        let (q1, q2) = (g(&[0, 1], &[(0, 1)]), g(&[3], &[]));
        let mut scratch = crate::pipeline::probe::ProbeScratch::new();
        for _ in 0..50 {
            for (q, want) in [(&q1, vec![0, 1, 3, 4]), (&q2, vec![2])] {
                let mut ctx = PipelineCtx::new(q, QueryKind::Subgraph, 1, ds.len());
                ctx.pruned.to_verify = ds.all_graphs();
                std::mem::swap(&mut ctx.probe_scratch, &mut scratch);
                run(&mut ctx, &ds);
                std::mem::swap(&mut ctx.probe_scratch, &mut scratch);
                assert_eq!(ctx.survivors.to_vec(), want);
            }
        }
    }

    /// What the stage computes, without the prefetch: `(survivors,
    /// verify_costs, verify_steps)` of a plain `verify_candidate` loop.
    fn plain_loop(
        ds: &Dataset,
        q: &Graph,
        kind: QueryKind,
        c: &BitSet,
    ) -> (Vec<usize>, Vec<(usize, u64)>, u64) {
        let profile = QueryProfile::new(ds, q, kind);
        let mut scratch = gc_method::VfScratch::new();
        let (mut survivors, mut costs, mut total) = (Vec::new(), Vec::new(), 0);
        for gid in c.ones() {
            let (ok, steps) =
                Engine::Vf2.verify_candidate(ds, &profile, q, gid as u32, &mut scratch);
            if ok {
                survivors.push(gid);
            }
            costs.push((gid, steps));
            total += steps;
        }
        (survivors, costs, total)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The prefetching stage decides, counts and charges exactly as the
        /// plain loop does: both kinds, over a dataset with tombstones, for a
        /// random subset, a single candidate, the universe's last id alone
        /// and a subset ending at it.
        #[test]
        fn prefetching_stage_equals_plain_loop(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..48,
            shape in 0u32..4,
            picks in proptest::collection::vec(proptest::prelude::any::<bool>(), 48),
            dead in proptest::collection::vec(0u32..48, 0..6),
            query_edges in 0usize..8,
        ) {
            use rand::SeedableRng;
            let mut ds = Dataset::new(gc_workload::molecule_dataset(n, seed));
            for gid in dead {
                if (gid as usize) < n {
                    ds.remove_graph(gid);
                }
            }
            let last = n - 1;
            let c = match shape {
                0 => BitSet::from_indices(n, (0..n).filter(|&i| picks[i])),
                1 => BitSet::from_indices(n, [seed as usize % n]),
                2 => BitSet::from_indices(n, [last]),
                _ => BitSet::from_indices(n, (0..n).filter(|&i| picks[i] || i == last)),
            };
            // A cut of one dataset graph (or, with no edges to cut, the whole
            // graph): sub- and supergraph tests both find matches.
            let source = ds.graph((seed % n as u64) as u32).clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let q = gc_workload::extract_query(&source, query_edges, &mut rng).unwrap_or(source);
            for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                let ctx = verified(&ds, &q, kind, c.clone());
                let (survivors, costs, steps) = plain_loop(&ds, &q, kind, &c);
                proptest::prop_assert_eq!(ctx.survivors.to_vec(), survivors, "{:?}", kind);
                proptest::prop_assert_eq!(&ctx.verify_costs, &costs, "{:?}", kind);
                proptest::prop_assert_eq!(ctx.verify_steps, steps, "{:?}", kind);
            }
        }
    }

    #[test]
    fn costs_observed_per_graph() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let ctx = verified(&ds, &q, QueryKind::Subgraph, BitSet::from_indices(ds.len(), [0, 1]));
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
        let ctx = verified(&ds, &q, QueryKind::Subgraph, ds.all_graphs());
        let cost = CostModel::new(&ds);
        observe_costs(&ctx, &cost);
        // Graph 2 ([3,3]) matches label 3 and costs at least one step.
        let observed_g2 = ctx.verify_costs.iter().find(|&&(gid, _)| gid == 2).unwrap().1;
        assert!(observed_g2 > 0);
        assert!((cost.estimate(2) - observed_g2 as f64).abs() < 1e-9);
    }
}
