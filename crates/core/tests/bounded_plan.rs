//! The probe → bound → (filter?) pipeline order: exactness and determinism.
//!
//! * Over random datasets × {SI, Sig, FTV} × both query kinds × interleaved
//!   `insert_graph`/`remove_graph`, with the bounded plan forced on for every
//!   query, forced off, and chosen per query, every answer at 1 and 3
//!   shards equals Method M alone on the dataset *as mutated so far* — the
//!   filter overlay and tombstones included — and the report invariants
//!   (`C ⊆ cm_set`, `A ⊆ cm_set`, `|C| ≤ cm_size`) hold on both plans.
//! * The plan is a function of the stream: 1 and 8 shards publish identical
//!   counters on one stream, and a second run repeats them exactly (no
//!   clock reading enters the decision).

use gc_core::pipeline::bound::Plan;
use gc_core::{CacheConfig, GlobalStats, PolicyKind, SharedGraphCache};
use gc_graph::{BitSet, Graph, GraphId};
use gc_method::{execute_base, Dataset, Engine, FtvMethod, Method, QueryKind, SiMethod, SigMethod};
use gc_workload::{molecule_dataset, nested_chain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

enum Op {
    Insert(Graph),
    Remove(GraphId),
    /// A query and Method M's answer on the dataset at that point.
    Query(Graph, QueryKind, BitSet),
}

/// `n_ops` operations over `base`: ⊑-chains cut from live graphs and issued
/// out of order (so later queries find both sub- and super-case hits), with
/// about a quarter of the steps mutating the dataset.
fn stream(base: &[Graph], n_ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Dataset::new(base.to_vec());
    let mut fresh = molecule_dataset(n_ops, seed ^ 0xfeed).into_iter();
    let mut ops = Vec::with_capacity(n_ops + 4);
    while ops.len() < n_ops {
        let live: Vec<usize> = model.live_mask().iter().collect();
        match rng.gen_range(0..8) {
            0 => {
                let g = fresh.next().expect("one fresh graph per op");
                model.insert_graph(g.clone());
                ops.push(Op::Insert(g));
            }
            1 if live.len() > 4 => {
                let gid = live[rng.gen_range(0..live.len())] as GraphId;
                assert!(model.remove_graph(gid));
                ops.push(Op::Remove(gid));
            }
            _ => {
                let source = model.graph(live[rng.gen_range(0..live.len())] as GraphId);
                let mut chain = nested_chain(source, &[2, 4, 6, 9], &mut rng);
                for i in (1..chain.len()).rev() {
                    chain.swap(i, rng.gen_range(0..=i));
                }
                let kind =
                    if rng.gen_bool(0.3) { QueryKind::Supergraph } else { QueryKind::Subgraph };
                for q in chain {
                    let want = execute_base(&model, &SiMethod, Engine::Vf2, &q, kind).answer;
                    ops.push(Op::Query(q, kind, want));
                }
            }
        }
    }
    ops
}

fn method(idx: usize, dataset: &Dataset) -> Box<dyn Method> {
    match idx {
        0 => Box::new(SiMethod),
        1 => Box::new(SigMethod),
        _ => Box::new(FtvMethod::build(dataset, 2)),
    }
}

fn build(base: &[Graph], method_idx: usize, shards: usize, plan: Plan) -> SharedGraphCache {
    let dataset = Arc::new(Dataset::new(base.to_vec()));
    let method = method(method_idx, &dataset);
    // Room for every query and no probe cap that binds: what the cache
    // holds, and so what each query finds, is then the same however the
    // entries are spread over shards.
    let config = CacheConfig {
        capacity: 4096,
        window_size: 3,
        max_hit_checks: 4096,
        shards,
        ..CacheConfig::default()
    };
    let gc = SharedGraphCache::new(dataset, Arc::from(method), || PolicyKind::Hd.make(), config);
    gc.unwrap().with_plan(plan)
}

/// The published counters with the one clock-derived field cleared.
fn counts(gc: &SharedGraphCache) -> GlobalStats {
    GlobalStats { total_time: Duration::ZERO, ..gc.stats() }
}

/// Drive `ops` through `gc`, checking every answer and report invariant;
/// returns how many queries ran the staged pipeline.
fn drive(gc: &SharedGraphCache, ops: &[Op], plan: Plan, what: &str) -> u64 {
    let mut pipeline_queries = 0;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(g) => {
                gc.insert_graph(g.clone());
            }
            Op::Remove(gid) => {
                assert!(gc.remove_graph(*gid), "{what}: op {i} removes a live graph")
            }
            Op::Query(q, kind, want) => {
                let r = gc.query(q, *kind);
                assert_eq!(&r.answer, want, "{what}: op {i} ({kind:?}) differs from Method M");
                if r.exact_hit || r.memo_hit {
                    continue;
                }
                pipeline_queries += 1;
                assert!(r.verified_set.is_subset(&r.cm_set), "{what}: op {i}: C ⊆ cm_set");
                assert!(r.answer.is_subset(&r.cm_set), "{what}: op {i}: A ⊆ cm_set");
                assert!(r.verified <= r.cm_size, "{what}: op {i}: |C| ≤ cm_size");
                match plan {
                    Plan::ForceBounded => {
                        assert!(r.filter_skipped, "{what}: op {i} ran the filter")
                    }
                    Plan::ForceFilter => assert!(!r.filter_skipped, "{what}: op {i} was bounded"),
                    Plan::Auto => {}
                }
            }
        }
    }
    pipeline_queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_plan_answers_like_method_m_under_mutation(
        seed in 0u64..10_000,
        method_idx in 0usize..3,
    ) {
        let base = molecule_dataset(14, seed);
        let ops = stream(&base, 48, seed);
        for plan in [Plan::ForceBounded, Plan::ForceFilter, Plan::Auto] {
            for shards in [1, 3] {
                let what = format!("method {method_idx} {plan:?} shards {shards} seed {seed}");
                let gc = build(&base, method_idx, shards, plan);
                let pipeline_queries = drive(&gc, &ops, plan, &what);
                let skipped = counts(&gc).filter_skipped;
                match plan {
                    Plan::ForceBounded => prop_assert_eq!(skipped, pipeline_queries),
                    Plan::ForceFilter => prop_assert_eq!(skipped, 0),
                    Plan::Auto => prop_assert!(skipped <= pipeline_queries),
                }
            }
        }
    }
}

#[test]
fn counts_are_a_function_of_the_stream() {
    // Large enough that live/40 leaves the bounded plan room to trigger.
    let base = molecule_dataset(240, 19);
    let ops = stream(&base, 160, 19);
    let run = |shards: usize| {
        let gc = build(&base, 2, shards, Plan::Auto);
        let pipeline_queries = drive(&gc, &ops, Plan::Auto, &format!("shards {shards}"));
        (counts(&gc), pipeline_queries)
    };
    let (one, pipeline_queries) = run(1);
    assert!(
        0 < one.filter_skipped && one.filter_skipped < pipeline_queries,
        "the stream must take both plans, got {} of {pipeline_queries} bounded",
        one.filter_skipped
    );
    assert!(one.sub_hits > 0 && one.super_hits > 0);
    let sharded = run(8).0;
    assert_eq!(sharded, one, "8 shards vs 1");
    assert_eq!(run(8).0, sharded, "the same stream twice");
}
