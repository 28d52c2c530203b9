//! Alloc-count pin for the path most requests take: a repeated query served
//! by a resident entry (an exact hit) or an answer-only row (a memo hit).
//! With the trace sampler off, a warm hit on an **identical presentation**
//! performs exactly **one** heap allocation — the answer set handed back in
//! the report — at one shard (what `GraphCache` runs) and at eight: the
//! repeat's key is a hint, read from a lock-free table by the query's
//! presentation hash (no WL fingerprint is computed; a presentation the
//! table lost computes one on thread-local scratch), it routes the lookup
//! (an entry's hit repeats it under the write lock), the confirmation is a
//! presentation comparison, the policy credit and the statistics are in
//! place, the report's four stage sets are empty over an empty universe,
//! and every hit's answer-text slot is a reference-count bump (nothing is
//! rendered in process).
//!
//! Same counting-allocator harness as `probe_alloc.rs`; its own binary so
//! the `#[global_allocator]` stays out of the other integration tests.

use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_graph::Graph;
use gc_method::{Dataset, QueryKind, SiMethod};
use gc_workload::{extract_query, molecule_dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Allocations `f` performs on this thread, and its result (dropped by the
/// caller, after the count is taken).
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(|c| c.get());
    let out = f();
    (ALLOCS.with(|c| c.get()) - before, out)
}

fn fixture() -> (Arc<Dataset>, Vec<Graph>) {
    let dataset = Arc::new(Dataset::new(molecule_dataset(40, 7)));
    let mut rng = StdRng::seed_from_u64(3);
    // One presentation per isomorphism class (per fingerprint, to be safe):
    // an isomorph of an earlier query would hit through the search branch.
    let mut seen = std::collections::HashSet::new();
    let queries: Vec<Graph> = (0..40)
        .filter_map(|i| extract_query(dataset.graph(i), 3 + (i as usize) % 6, &mut rng))
        .filter(|q| seen.insert(gc_graph::hash::fingerprint(q)))
        .collect();
    assert!(queries.len() >= 20, "the fixture needs a pool of queries");
    (dataset, queries)
}

/// `entries: true` admits every query (repeats are exact hits);
/// `false` rejects every admission, so every query is stored as an
/// answer-only row and repeats are memo hits.
fn config(entries: bool) -> CacheConfig {
    CacheConfig {
        capacity: 64,
        trace_sample_rate: 0.0, // a sampled trace allocates, by design
        min_admit_tests: if entries { 0 } else { usize::MAX },
        ..CacheConfig::default()
    }
}

/// Send every query twice (the second pass warms the thread-local scratch
/// and every lazily grown structure on the hit path), then count a third,
/// routed by its hint.
fn pin_hits(gc: &SharedGraphCache, queries: &[Graph], exact: bool) {
    let query = |q: &Graph| gc.query(q, QueryKind::Subgraph);
    for _ in 0..2 {
        for q in queries {
            query(q);
        }
    }
    for q in queries {
        let (allocations, hint) = counted(|| gc.key_hint(q));
        assert_eq!(allocations, 0, "a hint is a presentation hash and a table read");
        assert_eq!(hint, Some(gc_graph::hash::fingerprint(q)), "the repeat is routed by a hint");
        let (allocations, report) = counted(|| query(q));
        assert_eq!((report.exact_hit, report.memo_hit), (exact, !exact), "the repeat is a hit");
        assert_eq!(allocations, 1, "a warm hit allocates the returned answer and nothing else");
        assert!(report.answer.universe() > 0 && report.cm_set.universe() == 0);
        assert!(report.answer_text.is_some(), "every fast hit hands out its slot");
        let (allocations, slot) = counted(|| report.answer_text.clone());
        assert_eq!(allocations, 0, "cloning the text slot is a reference count");
        assert!(slot.is_some_and(|text| text.get().is_none()), "in-process hits render nothing");
    }
}

#[test]
fn warm_hits_allocate_only_the_returned_answer() {
    let (dataset, queries) = fixture();
    for (exact, shards) in [(true, 1), (false, 1), (true, 8), (false, 8)] {
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig { shards, ..config(exact) },
        )
        .unwrap();
        pin_hits(&gc, &queries, exact);
        let stats = gc.stats();
        assert_eq!(stats.exact_confirm_iso, 0, "identical presentations: no isomorphism search");
        assert_eq!(stats.exact_hits + stats.memo_hits, 2 * queries.len() as u64);
    }
}

#[test]
fn warm_fingerprint_allocates_nothing() {
    let (_, queries) = fixture();
    for q in &queries {
        gc_graph::hash::fingerprint(q); // grows the thread-local buffers
    }
    let (allocations, sum) = counted(|| {
        queries.iter().fold(0u64, |acc, q| acc.wrapping_add(gc_graph::hash::fingerprint(q)))
    });
    assert_eq!(allocations, 0);
    assert_ne!(sum, 0);
}
