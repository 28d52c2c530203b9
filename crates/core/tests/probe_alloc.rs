//! Alloc-count assertion for the probe stage (ROADMAP item "probe-stage
//! candidate ordering still allocates"): with a warm
//! [`gc_core::pipeline::probe::ProbeScratch`], a full
//! [`gc_core::pipeline::probe::probe_cases`] pass — containment-index
//! probes, kind filtering, utility-sort ordering and the budgeted
//! confirmation tests — performs **zero heap allocations** when it finds
//! candidates but no hits (verified hits append to the returned
//! `CacheHits`, which is a per-query product, not scratch).
//!
//! Also pins the verify stage: with the thread's scratch warm, testing
//! `|C|` candidates allocates the query's profile and the `costs` vector,
//! reserved to `|C|` up front — the same count for 4 candidates as for 40.
//!
//! And pins the filter stage's overlay handling: once graphs have been
//! inserted behind an immutable method index, [`gc_core::pipeline::filter`]
//! unions the overlay into `C_M` in place — a query over a mutated dataset
//! allocates exactly what the same query over a pristine one does.
//!
//! Same counting-allocator harness as `crates/index/tests/alloc_free.rs`;
//! its own binary so the `#[global_allocator]` stays out of the other
//! integration tests.

use gc_core::pipeline::probe::{probe_cases, ProbeScratch};
use gc_core::pipeline::{filter, verify, PipelineCtx};
use gc_core::{CacheConfig, CacheManager};
use gc_graph::{graph_from_parts, BitSet, Graph, Label};
use gc_index::FeatureConfig;
use gc_iso::GraphProfile;
use gc_method::{Dataset, QueryKind, QueryProfile, SiMethod};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// thread-local counter bump (Cell<u64> is const-initialized and has no
// destructor, so touching it from the allocator cannot recurse or allocate).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
    graph_from_parts(&ls, edges).unwrap()
}

#[test]
fn steady_state_probe_stage_is_allocation_free() {
    // Feature size 1 (vertex + edge features): a triangle query's features
    // are dominated by label-chains that contain all three edge labels but
    // no cycle, so the entries are *candidates* in the sub direction yet
    // every confirmation test fails — the pass exercises candidate
    // selection, utility ordering and verification without producing hits.
    let cfg = CacheConfig::default();
    let mut cache = CacheManager::new(FeatureConfig::with_max_len(1));
    for (i, chain) in [
        g(&[0, 1, 2, 0, 2], &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        g(&[2, 0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        g(&[1, 2, 0, 2, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    ]
    .into_iter()
    .enumerate()
    {
        let universe = 4;
        cache.insert(
            chain,
            QueryKind::Subgraph,
            BitSet::from_indices(universe, [i]),
            4,
            100,
            i as u64,
        );
    }
    let query = g(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
    let qf = cache.index().features_of(&query);
    let q_profile = GraphProfile::new(&query, None);
    let mut scratch = ProbeScratch::new();

    // Warm-up grows every buffer (candidate lists, verifier scratch).
    let warm = probe_cases(
        &cache,
        &cfg,
        &query,
        QueryKind::Subgraph,
        &qf,
        q_profile.as_ref(),
        &mut scratch,
    );
    assert!(warm.probe_tests > 0, "the fixture must produce probe candidates");
    assert_eq!(warm.count(), 0, "the fixture must not produce verified hits");

    let before = allocations_on_this_thread();
    let hits = probe_cases(
        &cache,
        &cfg,
        &query,
        QueryKind::Subgraph,
        &qf,
        q_profile.as_ref(),
        &mut scratch,
    );
    let after = allocations_on_this_thread();
    assert_eq!(after - before, 0, "probe stage allocated on the steady-state path");
    assert_eq!(hits.probe_tests, warm.probe_tests, "reused scratch changed the probe");
}

#[test]
fn probe_ordering_is_deterministic_across_scratch_reuse() {
    // Same fixture, but with verifiable hits: repeated probes through one
    // scratch must return identical hit lists (ordering buffers are fully
    // reset per pass).
    let cfg = CacheConfig::default();
    let mut cache = CacheManager::new(FeatureConfig::default());
    let edge = g(&[0, 1], &[(0, 1)]);
    let square = g(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    cache.insert(edge, QueryKind::Subgraph, BitSet::from_indices(8, [1usize]), 8, 100, 0);
    cache.insert(square, QueryKind::Subgraph, BitSet::from_indices(8, [2usize]), 8, 100, 1);
    let query = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let qf = cache.index().features_of(&query);
    let q_profile = GraphProfile::new(&query, None);
    let mut scratch = ProbeScratch::new();
    let first = probe_cases(
        &cache,
        &cfg,
        &query,
        QueryKind::Subgraph,
        &qf,
        q_profile.as_ref(),
        &mut scratch,
    );
    assert_eq!(first.sub, vec![1], "query sits inside the square");
    assert_eq!(first.super_, vec![0], "the edge sits inside the query");
    for _ in 0..3 {
        let again = probe_cases(
            &cache,
            &cfg,
            &query,
            QueryKind::Subgraph,
            &qf,
            q_profile.as_ref(),
            &mut scratch,
        );
        assert_eq!(again.sub, first.sub);
        assert_eq!(again.super_, first.super_);
    }
}

#[test]
fn filter_overlay_union_adds_no_allocation() {
    let dataset = Dataset::new(vec![g(&[0, 1], &[(0, 1)]), g(&[2], &[]), g(&[0], &[])]);
    let query = g(&[0], &[]);
    let filter_allocations = |overlay: &BitSet| {
        let mut ctx = PipelineCtx::new(&query, QueryKind::Subgraph, 1, dataset.len());
        let before = allocations_on_this_thread();
        filter::run(&mut ctx, &SiMethod, &dataset, overlay);
        let spent = allocations_on_this_thread() - before;
        (spent, ctx.cm)
    };
    let (pristine, cm) = filter_allocations(&dataset.empty_set());
    assert_eq!(cm.count(), 3);
    // Every graph in the overlay: the worst case for a per-query copy.
    let (mutated, cm) = filter_allocations(&dataset.all_graphs());
    assert_eq!(cm.count(), 3);
    assert_eq!(mutated, pristine, "a non-empty overlay must not cost the filter an allocation");
}

#[test]
fn warm_verify_stage_allocates_a_constant() {
    let molecules = gc_workload::molecule_dataset(40, 11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let query = gc_workload::extract_query(&molecules[0], 4, &mut rng).unwrap();
    let dataset = Dataset::new(molecules);
    let mut scratch = ProbeScratch::new();
    let mut verify_allocations = |candidates: BitSet| {
        let mut ctx = PipelineCtx::new(&query, QueryKind::Subgraph, 1, dataset.len());
        ctx.pruned.to_verify = candidates;
        std::mem::swap(&mut ctx.probe_scratch, &mut scratch);
        let before = allocations_on_this_thread();
        verify::run(&mut ctx, &dataset);
        let spent = allocations_on_this_thread() - before;
        std::mem::swap(&mut ctx.probe_scratch, &mut scratch);
        assert!(ctx.survivors.contains(0), "the query was cut from graph 0");
        (spent, ctx.verify_costs.len())
    };
    // Warm-up grows the verifier scratch to the largest pair it will see.
    verify_allocations(dataset.all_graphs());

    let before = allocations_on_this_thread();
    drop(QueryProfile::new(&dataset, &query, QueryKind::Subgraph));
    let profile = allocations_on_this_thread() - before;
    let (small, tested) = verify_allocations(BitSet::from_indices(dataset.len(), 0..4));
    assert_eq!(tested, 4);
    let (large, tested) = verify_allocations(dataset.all_graphs());
    assert_eq!(tested, 40);
    assert_eq!(small, profile + 1, "the profile, then one reservation for costs");
    assert_eq!(large, small, "a warm verify stage allocates nothing per candidate");
}
