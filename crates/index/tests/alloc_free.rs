//! Proof that the steady-state filter front-end is allocation-free.
//!
//! Same harness as `crates/iso/tests/alloc_free.rs`: a counting global
//! allocator tracks allocations **per thread**. After one warm-up pass grows
//! every scratch buffer to its high-water mark, a second pass over the same
//! queries must perform zero allocations across the whole probe path —
//! streaming feature extraction ([`ExtractScratch`]), both containment
//! probes of the flat-postings [`QueryIndex`] ([`CandScratch`]) and both
//! directions of the arena [`PathTrie`] and [`TreeIndex`] filters
//! ([`TrieScratch`], [`TreeScratch`] + a reused candidate bitset). Every
//! supergraph probe returns candidates on some fixture query, so the pass
//! reaches the exact confirmation behind each probe's fit test.
//!
//! This is an integration test (its own binary) so the `#[global_allocator]`
//! cannot interfere with the library's unit tests, and so the crate-level
//! `#![forbid(unsafe_code)]` (which the allocator impl necessarily violates)
//! stays intact for the library itself.

use gc_graph::{graph_from_parts, BitSet, Graph, Label};
use gc_index::{
    CandScratch, ExtractScratch, FeatureConfig, PathTrie, QueryIndex, TreeConfig, TreeIndex,
    TreeScratch, TrieScratch,
};
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

/// A labelled ring with a tail — molecule-ish shape, `n >= 3` vertices.
fn ring_with_tail(n: u32, ring: u32, label_stride: u32) -> Graph {
    let ring = ring.min(n);
    let labels: Vec<Label> = (0..n).map(|v| Label((v * label_stride) % 5)).collect();
    let mut edges: Vec<(u32, u32)> = (0..ring).map(|v| (v, (v + 1) % ring)).collect();
    for v in ring..n {
        edges.push((v - 1, v));
    }
    graph_from_parts(&labels, &edges).unwrap()
}

struct Fixture {
    trie: PathTrie,
    tree: TreeIndex,
    index: QueryIndex,
    queries: Vec<Graph>,
}

/// The disjoint union of `graphs`: it contains each of them.
fn disjoint_union(graphs: &[Graph]) -> Graph {
    let (mut labels, mut edges) = (Vec::new(), Vec::new());
    for g in graphs {
        let base = labels.len() as u32;
        labels.extend_from_slice(g.labels());
        edges.extend(g.edges().map(|(u, v)| (base + u, base + v)));
    }
    graph_from_parts(&labels, &edges).unwrap()
}

fn fixture() -> Fixture {
    let cfg = FeatureConfig::with_max_len(3);
    // Dataset of 70 mixed rings/chains: the universe crosses a bitset word
    // boundary, sizes vary and labels repeat so features are shared.
    let dataset: Vec<Graph> =
        (0..70).map(|i| ring_with_tail(3 + (i % 9), 3 + (i % 4), 1 + (i % 3))).collect();
    let trie = PathTrie::build(&dataset, cfg);
    let tree = TreeIndex::build(&dataset, TreeConfig::with_max_edges(2));
    // Cached queries: substructures of the dataset shapes.
    let mut index = QueryIndex::new(cfg);
    for (id, i) in (0..10u32).enumerate() {
        index.insert(id as u32, &ring_with_tail(3 + i, 3, 1 + (i % 3)));
    }
    let queries: Vec<Graph> = vec![
        ring_with_tail(4, 4, 1),
        ring_with_tail(7, 3, 2),
        ring_with_tail(5, 5, 3),
        graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap(),
        graph_from_parts(&[Label(9)], &[]).unwrap(), // feature missing everywhere
        // Contains every dataset graph (and so every cached query): each
        // graph passes every supergraph fit test, and the trie's survivor
        // buffer reaches its ceiling, the dataset size.
        disjoint_union(&dataset),
    ];
    Fixture { trie, tree, index, queries }
}

struct Scratches {
    extract: ExtractScratch,
    cand: CandScratch,
    trie: TrieScratch,
    tree: TreeScratch,
    cm: BitSet,
}

impl Scratches {
    fn new(fx: &Fixture) -> Self {
        Scratches {
            extract: ExtractScratch::new(),
            cand: CandScratch::new(),
            trie: TrieScratch::new(),
            tree: TreeScratch::new(),
            cm: BitSet::new(fx.trie.dataset_size()),
        }
    }
}

/// Candidates one sweep returned, per probe: query-index sub and super,
/// trie sub and super, tree sub and super.
type Touched = [usize; 6];

/// One steady-state probe pass: extraction once per query, both query-index
/// probes on the shared extraction, both trie filter directions, both
/// tree-feature filter directions.
fn sweep(fx: &Fixture, s: &mut Scratches) -> Touched {
    let mut touched = [0usize; 6];
    for q in &fx.queries {
        let cfg = *fx.index.config();
        let features = s.extract.extract(q, &cfg);
        fx.index.sub_case_candidates_into(features, &mut s.cand);
        touched[0] += s.cand.candidates().len();
        fx.index.super_case_candidates_into(features, &mut s.cand);
        touched[1] += s.cand.candidates().len();
        fx.trie.candidates_into(q, &mut s.trie, &mut s.cm);
        touched[2] += s.cm.count();
        fx.trie.super_candidates_into(q, &mut s.trie, &mut s.cm);
        touched[3] += s.cm.count();
        fx.tree.candidates_into(q, &mut s.tree, &mut s.cm);
        touched[4] += s.cm.count();
        fx.tree.super_candidates_into(q, &mut s.tree, &mut s.cm);
        touched[5] += s.cm.count();
    }
    touched
}

#[test]
fn steady_state_probe_path_is_allocation_free() {
    let fx = fixture();
    let mut s = Scratches::new(&fx);

    // Warm-up: grows every scratch buffer to its high-water mark.
    let warm = sweep(&fx, &mut s);
    for (probe, name) in [(1, "query-index"), (3, "trie"), (5, "tree")] {
        assert!(warm[probe] > 0, "no fixture query has a {name} supergraph candidate");
    }

    // Measured pass: identical work, zero allocations.
    let before = allocations_on_this_thread();
    let touched = sweep(&fx, &mut s);
    let after = allocations_on_this_thread();

    assert_eq!(after - before, 0, "filter front-end allocated on the hot path");
    assert_eq!(touched, warm, "reused scratch must not change the candidates");
}

#[test]
fn scratch_growth_happens_only_at_the_high_water_mark() {
    let fx = fixture();
    let mut s = Scratches::new(&fx);
    // Warm up on the *largest* query only; smaller queries afterwards must
    // not allocate even on first sight.
    let largest = fx
        .queries
        .iter()
        .max_by_key(|q| q.vertex_count() + q.edge_count())
        .expect("fixture has queries");
    let cfg = *fx.index.config();
    let features = s.extract.extract(largest, &cfg);
    fx.index.sub_case_candidates_into(features, &mut s.cand);
    let features = s.extract.extract(largest, &cfg);
    fx.index.super_case_candidates_into(features, &mut s.cand);
    fx.trie.candidates_into(largest, &mut s.trie, &mut s.cm);
    fx.trie.super_candidates_into(largest, &mut s.trie, &mut s.cm);
    // The trie's survivor buffer grows with the number of graphs that pass
    // the fit test, not with the query's size. The largest query contains
    // every dataset graph, so every graph survives and the buffer reaches
    // its ceiling.
    assert_eq!(s.cm.count(), fx.trie.dataset_size(), "every graph must survive the warm-up");
    fx.tree.candidates_into(largest, &mut s.tree, &mut s.cm);
    fx.tree.super_candidates_into(largest, &mut s.tree, &mut s.cm);

    let before = allocations_on_this_thread();
    let smallest = &fx.queries[4]; // the single-vertex query
    let features = s.extract.extract(smallest, &cfg);
    fx.index.sub_case_candidates_into(features, &mut s.cand);
    fx.trie.candidates_into(smallest, &mut s.trie, &mut s.cm);
    fx.tree.candidates_into(smallest, &mut s.tree, &mut s.cm);
    // Every query's supergraph probes fit the warmed scratch, including
    // those whose survivors are confirmed.
    for q in &fx.queries {
        let features = s.extract.extract(q, &cfg);
        fx.index.super_case_candidates_into(features, &mut s.cand);
        fx.trie.super_candidates_into(q, &mut s.trie, &mut s.cm);
        fx.tree.super_candidates_into(q, &mut s.tree, &mut s.cm);
    }
    let after = allocations_on_this_thread();
    assert_eq!(after - before, 0, "smaller queries must fit the warmed scratch");
}

/// After admission/eviction churn drives the query-index directory through
/// tail merges and a compaction sweep, the probe path must still be
/// allocation-free (compaction rebuilds the runs; the probe scratch and
/// slot tables are untouched).
#[test]
fn post_compaction_probe_path_is_allocation_free() {
    let chain = |seed: u32| {
        let labels: Vec<Label> = (0..5u32).map(|i| Label(500 + seed * 13 + i * 7)).collect();
        graph_from_parts(&labels, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    };
    let cfg = FeatureConfig::with_max_len(3);
    let mut index = QueryIndex::new(cfg);
    for id in 0..40u32 {
        index.insert(id, &chain(id));
    }
    // Evictions over the wide alphabet drain posting lists; crossing the
    // tombstone threshold compacts the directory.
    let mut saw_tombstones = 0usize;
    for id in 0..30u32 {
        index.remove(id);
        saw_tombstones = saw_tombstones.max(index.tombstoned_slots());
    }
    assert!(saw_tombstones > 0, "churn must create tombstones");
    assert!(
        index.tombstoned_slots() < saw_tombstones,
        "a compaction sweep must have reclaimed tombstones"
    );

    let mut extract = ExtractScratch::new();
    let mut cand = CandScratch::new();
    let queries = [chain(32), chain(35), chain(2) /* evicted: miss path */];
    // Warm-up pass, then the measured pass must not allocate.
    for q in &queries {
        let features = extract.extract(q, &cfg);
        index.sub_case_candidates_into(features, &mut cand);
        index.super_case_candidates_into(features, &mut cand);
    }
    let before = allocations_on_this_thread();
    let mut touched = 0usize;
    for q in &queries {
        let features = extract.extract(q, &cfg);
        index.sub_case_candidates_into(features, &mut cand);
        touched += cand.candidates().len();
        index.super_case_candidates_into(features, &mut cand);
        touched += cand.candidates().len();
    }
    let after = allocations_on_this_thread();
    assert_eq!(after - before, 0, "post-compaction probe path allocated");
    assert!(touched > 0, "live entries must still probe as candidates");
}
