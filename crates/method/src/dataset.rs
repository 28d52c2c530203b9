//! The dataset of data graphs — loaded in bulk, mutable afterwards.
//!
//! Graph ids are dense `0..len` and **stable for the lifetime of the
//! dataset**: [`Dataset::insert_graph`] appends a fresh id,
//! [`Dataset::remove_graph`] tombstones the slot instead of compacting, so
//! every cached answer bitset and index posting keeps meaning the same graph
//! across mutations. Each mutation bumps a [`Dataset::generation`] counter
//! and is appended to an op log ([`Dataset::ops`]) so persistence can
//! journal deltas and warm restarts can replay them onto the base dataset.

use gc_graph::invariants::GraphSummary;
use gc_graph::{BitSet, Graph, GraphId};
use gc_iso::{GraphProfile, ProfileRef};

/// Slot value hashed for tombstoned ids in [`Dataset::content_fingerprint`]:
/// a dataset with a removed graph must fingerprint differently from one
/// where the slot never existed or still holds the graph.
const TOMBSTONE_MARK: u64 = 0x7061_7065_7220_8888;

/// One slot's term of the [`Dataset::content_fingerprint`] accumulator.
/// Keyed by the slot index, so the same graphs in a different order sum to
/// a different value; terms combine by wrapping addition, so a mutation
/// adds or swaps exactly one term.
fn slot_term(slot: usize, slot_fp: u64) -> u64 {
    gc_graph::hash::mix(slot as u64, slot_fp)
}

/// One dataset mutation, in the order it was applied. Inserts carry the
/// graph (its id is implied: `base_len + #prior inserts`); removes carry the
/// tombstoned id.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetOp {
    /// A graph appended by [`Dataset::insert_graph`].
    Insert(Graph),
    /// A graph tombstoned by [`Dataset::remove_graph`].
    Remove(GraphId),
}

/// Flat side arrays of per-graph verification precomputation: packed
/// neighbour signatures and pattern-role search orders for every dataset
/// graph, concatenated with one shared offset table (both are per-vertex).
///
/// Built at load time and extended incrementally on insert, so the
/// verification hot path pays zero per-candidate setup — the engines receive
/// borrowed [`ProfileRef`] slices straight out of these arrays. Tombstoned
/// graphs keep their rows (the arrays are flat and ids must stay stable).
#[derive(Debug, Clone)]
pub struct DatasetProfiles {
    /// `off[i]..off[i + 1]` is graph `i`'s vertex range in `sig` / `order`.
    off: Vec<usize>,
    sig: Vec<u64>,
    order: Vec<u32>,
}

impl DatasetProfiles {
    /// Approximate heap bytes of the side arrays.
    pub fn memory_bytes(&self) -> usize {
        self.off.len() * std::mem::size_of::<usize>() + self.sig.len() * 8 + self.order.len() * 4
    }

    fn push(&mut self, p: &GraphProfile) {
        self.sig.extend_from_slice(&p.sig);
        self.order.extend_from_slice(&p.order);
        self.off.push(self.sig.len());
    }
}

/// A collection of data graphs with precomputed per-graph summaries and
/// verification profiles, supporting live insert/remove (the paper's Dataset
/// Graphs component, made dynamic).
#[derive(Debug, Clone)]
pub struct Dataset {
    graphs: Vec<Graph>,
    summaries: Vec<GraphSummary>,
    label_freq: Vec<u32>,
    profiles: DatasetProfiles,
    /// Live (non-tombstoned) slots; universe = `graphs.len()`.
    live: BitSet,
    dead: usize,
    generation: u64,
    /// `Σ slot_term(i, slot i's value)` over every slot, wrapping. Seeded by
    /// one WL pass in [`Dataset::new`], then kept current by the two
    /// mutators in O(1); [`Dataset::content_fingerprint`] only finalises it.
    fingerprint_acc: u64,
    base_fingerprint: u64,
    ops: Vec<DatasetOp>,
}

impl Dataset {
    /// Wrap a vector of graphs, precomputing summaries, label frequencies
    /// and per-graph verification profiles. This is generation 0; the
    /// op log starts empty.
    pub fn new(graphs: Vec<Graph>) -> Self {
        let mut summaries = Vec::with_capacity(graphs.len());
        let mut profiles = DatasetProfiles {
            off: Vec::with_capacity(graphs.len() + 1),
            sig: Vec::new(),
            order: Vec::new(),
        };
        profiles.off.push(0);
        for g in &graphs {
            // One full profile per graph: the graph serves as verification
            // *target* for subgraph queries and as *pattern* (hence the
            // search order) for supergraph queries.
            let p = GraphProfile::new(g, None);
            profiles.push(&p);
            summaries.push(p.summary);
        }
        let max_label = graphs
            .iter()
            .filter_map(|g| g.max_label())
            .map(|l| l.0)
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut label_freq = vec![0u32; max_label];
        for g in &graphs {
            for v in g.vertices() {
                label_freq[g.label(v).0 as usize] += 1;
            }
        }
        let live = BitSet::full(graphs.len());
        let mut d = Dataset {
            graphs,
            summaries,
            label_freq,
            profiles,
            live,
            dead: 0,
            generation: 0,
            fingerprint_acc: 0,
            base_fingerprint: 0,
            ops: Vec::new(),
        };
        d.fingerprint_acc = d.fold_slot_terms();
        d.base_fingerprint = d.content_fingerprint();
        d
    }

    /// The accumulator's definition: every slot's term, summed from scratch
    /// (one WL fingerprint per live graph). Seeds [`Dataset::new`]; after
    /// that the mutators maintain the same value incrementally and only the
    /// tests call this again, as their reference.
    fn fold_slot_terms(&self) -> u64 {
        self.graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let slot_fp = if self.live.contains(i) {
                    gc_graph::hash::fingerprint(g)
                } else {
                    TOMBSTONE_MARK
                };
                slot_term(i, slot_fp)
            })
            .fold(0, u64::wrapping_add)
    }

    /// Append a graph, assigning it the next dense id. Bumps the
    /// generation, extends the live mask/universe and logs the op.
    pub fn insert_graph(&mut self, g: Graph) -> GraphId {
        let id = self.graphs.len() as GraphId;
        let p = GraphProfile::new(&g, None);
        self.profiles.push(&p);
        self.summaries.push(p.summary);
        if let Some(ml) = g.max_label() {
            if self.label_freq.len() <= ml.0 as usize {
                self.label_freq.resize(ml.0 as usize + 1, 0);
            }
        }
        for v in g.vertices() {
            self.label_freq[g.label(v).0 as usize] += 1;
        }
        self.live.grow(id as usize + 1);
        self.live.insert(id as usize);
        self.fingerprint_acc = self
            .fingerprint_acc
            .wrapping_add(slot_term(id as usize, gc_graph::hash::fingerprint(&g)));
        self.ops.push(DatasetOp::Insert(g.clone()));
        self.graphs.push(g);
        self.generation += 1;
        id
    }

    /// Tombstone graph `gid`: it leaves the live mask (and thus every
    /// candidate and answer set) but keeps its slot, so all other ids stay
    /// stable. Returns `false` if the graph was already removed.
    ///
    /// # Panics
    /// Panics when `gid` is out of range.
    pub fn remove_graph(&mut self, gid: GraphId) -> bool {
        assert!((gid as usize) < self.graphs.len(), "graph id {gid} out of range");
        if !self.live.remove(gid as usize) {
            return false;
        }
        self.dead += 1;
        let g = &self.graphs[gid as usize];
        for v in g.vertices() {
            self.label_freq[g.label(v).0 as usize] -= 1;
        }
        // Swap the slot's term: the graph's out, the tombstone's in.
        self.fingerprint_acc = self
            .fingerprint_acc
            .wrapping_sub(slot_term(gid as usize, gc_graph::hash::fingerprint(g)))
            .wrapping_add(slot_term(gid as usize, TOMBSTONE_MARK));
        self.ops.push(DatasetOp::Remove(gid));
        self.generation += 1;
        true
    }

    /// Re-apply a logged mutation (warm-restart replay). Insert ids are
    /// implied by append order, exactly as when the op was first applied.
    pub fn apply_op(&mut self, op: &DatasetOp) {
        match op {
            DatasetOp::Insert(g) => {
                self.insert_graph(g.clone());
            }
            DatasetOp::Remove(gid) => {
                self.remove_graph(*gid);
            }
        }
    }

    /// Number of graph *slots* (live + tombstoned) — the bitset universe.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// `true` iff the dataset holds no graph slots.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Number of live (non-tombstoned) graphs.
    pub fn live_count(&self) -> usize {
        self.graphs.len() - self.dead
    }

    /// `true` iff graph `gid` exists and is not tombstoned.
    pub fn is_live(&self, gid: GraphId) -> bool {
        (gid as usize) < self.graphs.len() && self.live.contains(gid as usize)
    }

    /// The live mask: one bit per slot, set iff the graph is not
    /// tombstoned. The filter stage intersects candidate sets with this so
    /// removed graphs can never re-enter an answer.
    pub fn live_mask(&self) -> &BitSet {
        &self.live
    }

    /// `true` iff any graph has been removed (fast-path check: when false,
    /// the live mask is full and intersecting with it is a no-op).
    pub fn has_tombstones(&self) -> bool {
        self.dead > 0
    }

    /// Mutation counter: 0 at load, +1 per insert/remove. Stamps query
    /// traces and snapshots and orders journaled deltas.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Content fingerprint of the dataset as loaded (generation 0), before
    /// any mutation. Persistence records it so a snapshot's op log is only
    /// ever replayed onto the dataset it was cut from.
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fingerprint
    }

    /// The mutation log since load, in application order.
    pub fn ops(&self) -> &[DatasetOp] {
        &self.ops
    }

    /// Access a graph by id.
    ///
    /// Tombstoned slots keep their payload (ids must stay stable); callers
    /// iterating live-masked candidate sets never observe them.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn graph(&self, id: GraphId) -> &Graph {
        &self.graphs[id as usize]
    }

    /// Precomputed invariants summary of graph `id`.
    pub fn summary(&self, id: GraphId) -> &GraphSummary {
        &self.summaries[id as usize]
    }

    /// Precomputed verification profile of graph `id` (borrowed slices of
    /// the flat [`DatasetProfiles`] side arrays — no per-call work).
    pub fn profile(&self, id: GraphId) -> ProfileRef<'_> {
        let i = id as usize;
        let range = self.profiles.off[i]..self.profiles.off[i + 1];
        ProfileRef {
            summary: &self.summaries[i],
            sig: &self.profiles.sig[range.clone()],
            order: &self.profiles.order[range],
        }
    }

    /// Hint the CPU to load what testing graph `id` reads — the graph's CSR
    /// arrays, its `sig`/`order` slices and its summary vectors — so the
    /// misses overlap the test before it. Only a hint: no decision, step
    /// count or result depends on it.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    #[inline]
    pub fn prefetch(&self, id: GraphId) {
        let p = self.profile(id);
        self.graphs[id as usize].prefetch();
        gc_graph::simd::prefetch(p.sig);
        gc_graph::simd::prefetch(p.order);
        gc_graph::simd::prefetch(&p.summary.label_hist);
        gc_graph::simd::prefetch(&p.summary.degrees_desc);
    }

    /// The flat profile side arrays (for memory accounting).
    pub fn profiles(&self) -> &DatasetProfiles {
        &self.profiles
    }

    /// All graph slots in id order (tombstoned slots included — filter with
    /// [`Dataset::is_live`] when liveness matters).
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// Content fingerprint of the whole dataset, in O(1): the slot count
    /// mixed with the sum, over every slot `i`, of `mix(i, v_i)` where `v_i`
    /// is the slot's WL fingerprint (a fixed tombstone mark for removed
    /// slots). It depends only on what the slots hold now — any mutation
    /// history reaching the same slots and tombstones yields the same value
    /// — while a reordered dataset, a removed graph and a never-present one
    /// all differ. Persistence snapshots record it so cached answer sets are
    /// never restored over a different (or reordered) dataset; journaled
    /// deltas record the fingerprint that *resulted* from each mutation so
    /// replay is validated step by step.
    pub fn content_fingerprint(&self) -> u64 {
        gc_graph::hash::mix(self.fingerprint_acc, self.graphs.len() as u64)
    }

    /// Global label frequency across the dataset (index = label value);
    /// steers matcher search orders toward rare labels. Maintained
    /// incrementally under mutation (live graphs only).
    pub fn label_freq(&self) -> &[u32] {
        &self.label_freq
    }

    /// A fresh candidate bitset of every **live** graph over this dataset's
    /// universe.
    pub fn all_graphs(&self) -> BitSet {
        self.live.clone()
    }

    /// A fresh empty bitset over this dataset's universe.
    pub fn empty_set(&self) -> BitSet {
        BitSet::new(self.len())
    }

    /// Total approximate memory of the raw graphs (tombstoned payloads
    /// included — they are retained for id stability).
    pub fn memory_bytes(&self) -> usize {
        self.graphs.iter().map(Graph::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};
    use proptest::prelude::*;

    fn ds() -> Dataset {
        Dataset::new(vec![
            graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap(),
            graph_from_parts(&[Label(1), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap(),
        ])
    }

    #[test]
    fn accessors() {
        let d = ds();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.graph(0).vertex_count(), 2);
        assert_eq!(d.summary(1).n, 3);
        assert_eq!(d.label_freq(), &[1, 3, 1]);
        assert_eq!(d.generation(), 0);
        assert_eq!(d.live_count(), 2);
        assert!(d.is_live(0) && d.is_live(1));
        assert!(!d.has_tombstones());
        assert!(d.ops().is_empty());
        assert_eq!(d.base_fingerprint(), d.content_fingerprint());
    }

    #[test]
    fn profiles_match_per_graph_computation() {
        let mut d = ds();
        d.insert_graph(graph_from_parts(&[Label(0), Label(2)], &[(0, 1)]).unwrap());
        assert!(d.profiles().memory_bytes() > 0);
        for id in 0..d.len() as u32 {
            let fresh = GraphProfile::new(d.graph(id), None);
            let p = d.profile(id);
            assert_eq!(p.summary, &fresh.summary, "graph {id}");
            assert_eq!(p.sig, &fresh.sig[..], "graph {id}");
            assert_eq!(p.order, &fresh.order[..], "graph {id}");
        }
    }

    #[test]
    fn universe_sets() {
        let d = ds();
        assert_eq!(d.all_graphs().count(), 2);
        assert_eq!(d.empty_set().count(), 0);
        assert_eq!(d.all_graphs().universe(), 2);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.label_freq().len(), 0);
        assert_eq!(d.all_graphs().count(), 0);
    }

    #[test]
    fn insert_appends_and_maintains_state() {
        let mut d = ds();
        let g = graph_from_parts(&[Label(5), Label(1)], &[(0, 1)]).unwrap();
        let id = d.insert_graph(g.clone());
        assert_eq!(id, 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.live_count(), 3);
        assert_eq!(d.generation(), 1);
        assert!(d.is_live(2));
        assert_eq!(d.graph(2), &g);
        assert_eq!(d.label_freq(), &[1, 4, 1, 0, 0, 1], "label 5 grows the freq table");
        assert_eq!(d.all_graphs().to_vec(), vec![0, 1, 2]);
        assert_eq!(d.ops(), &[DatasetOp::Insert(g)]);
        assert_ne!(d.content_fingerprint(), d.base_fingerprint());
    }

    #[test]
    fn remove_tombstones_and_keeps_ids_stable() {
        let mut d = ds();
        assert!(d.remove_graph(0));
        assert!(!d.remove_graph(0), "double remove is a no-op");
        assert_eq!(d.len(), 2, "universe does not shrink");
        assert_eq!(d.live_count(), 1);
        assert_eq!(d.generation(), 1);
        assert!(!d.is_live(0));
        assert!(d.is_live(1));
        assert_eq!(d.label_freq(), &[0, 2, 1], "removed labels leave the freq table");
        assert_eq!(d.all_graphs().to_vec(), vec![1]);
        assert!(d.has_tombstones());
        assert_eq!(d.ops(), &[DatasetOp::Remove(0)]);
        // Graph 1's accessors are untouched.
        assert_eq!(d.summary(1).n, 3);
    }

    #[test]
    fn fingerprint_distinguishes_live_removed_and_never_present() {
        let g0 = graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap();
        let g1 = graph_from_parts(&[Label(1), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        let live = Dataset::new(vec![g0.clone(), g1.clone()]);
        // A leading and a trailing slot: live ≠ tombstoned ≠ never present.
        for (victim, without) in [(0, g1.clone()), (1, g0.clone())] {
            let mut removed = live.clone();
            removed.remove_graph(victim);
            let never = Dataset::new(vec![without]);
            assert_ne!(removed.content_fingerprint(), live.content_fingerprint());
            assert_ne!(removed.content_fingerprint(), never.content_fingerprint());
            assert_ne!(live.content_fingerprint(), never.content_fingerprint());
        }
        let swapped = Dataset::new(vec![g1, g0]);
        assert_ne!(swapped.content_fingerprint(), live.content_fingerprint(), "position-keyed");
    }

    #[test]
    fn replaying_ops_reproduces_fingerprint() {
        let mut d = ds();
        d.insert_graph(graph_from_parts(&[Label(3)], &[]).unwrap());
        d.remove_graph(1);
        d.insert_graph(graph_from_parts(&[Label(0), Label(0)], &[(0, 1)]).unwrap());
        let mut fresh = ds();
        for op in d.ops().to_vec() {
            fresh.apply_op(&op);
        }
        assert_eq!(fresh.generation(), d.generation());
        assert_eq!(fresh.content_fingerprint(), d.content_fingerprint());
        assert_eq!(fresh.label_freq(), d.label_freq());
        assert_eq!(fresh.all_graphs(), d.all_graphs());
    }

    /// A labelled path, one vertex per label.
    fn path(labels: &[u32]) -> Graph {
        let labels: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        let edges: Vec<(u32, u32)> = (1..labels.len() as u32).map(|v| (v - 1, v)).collect();
        graph_from_parts(&labels, &edges).unwrap()
    }

    fn arb_graphs(size: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Graph>> {
        proptest::collection::vec(proptest::collection::vec(0u32..4, 1..6), size)
            .prop_map(|all| all.iter().map(|labels| path(labels)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every op of a random insert/remove program the O(1)
        /// accumulator equals the from-scratch fold, and a dataset built
        /// directly from the final slots, tombstoned in another order,
        /// reaches the same fingerprint.
        #[test]
        fn incremental_fingerprint_matches_fold_and_ignores_history(
            base in arb_graphs(1..6),
            inserts in arb_graphs(0..8),
            ops in proptest::collection::vec((any::<bool>(), 0u32..64), 0..24),
        ) {
            let mut d = Dataset::new(base);
            prop_assert_eq!(d.fingerprint_acc, d.fold_slot_terms());
            let mut inserts = inserts.into_iter();
            for (insert, pick) in ops {
                let before = d.content_fingerprint();
                let applied = if insert {
                    inserts.next().map(|g| d.insert_graph(g)).is_some()
                } else {
                    d.remove_graph(pick % d.len() as u32)
                };
                prop_assert_eq!(d.fingerprint_acc, d.fold_slot_terms());
                prop_assert_eq!(d.content_fingerprint() != before, applied);
            }

            let mut direct = Dataset::new(d.graphs().to_vec());
            for gid in (0..d.len() as u32).rev().filter(|&gid| !d.is_live(gid)) {
                prop_assert!(direct.remove_graph(gid));
            }
            prop_assert_eq!(direct.content_fingerprint(), d.content_fingerprint());
        }

        /// Swapping two base graphs with different fingerprints changes the
        /// dataset fingerprint.
        #[test]
        fn swapping_two_graphs_changes_fingerprint(
            graphs in arb_graphs(2..8),
            i in 0usize..8,
            j in 0usize..8,
        ) {
            let (i, j) = (i % graphs.len(), j % graphs.len());
            let differ =
                gc_graph::hash::fingerprint(&graphs[i]) != gc_graph::hash::fingerprint(&graphs[j]);
            let mut swapped = graphs.clone();
            swapped.swap(i, j);
            let (a, b) = (Dataset::new(graphs), Dataset::new(swapped));
            prop_assert_eq!(a.content_fingerprint() != b.content_fingerprint(), differ);
        }
    }
}
