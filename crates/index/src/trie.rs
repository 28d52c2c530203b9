//! GraphGrepSX-style trie over labelled paths — the FTV dataset index.
//!
//! Each node of the trie corresponds to a label sequence (the path from the
//! root); a node stores a posting list `(graph_id, occurrence_count)` sorted
//! by graph id. Subgraph filtering walks the trie once per query feature and
//! intersects the graphs whose counts dominate the query's. Supergraph
//! filtering reads each graph's [fit signature](crate::fit) — its path total
//! and a one-word mask of its trie nodes — and looks up postings only for
//! the few graphs that pass it.
//!
//! ## Arena layout
//!
//! The index is built once over the (static) dataset, so after construction
//! the node structs are **frozen into a contiguous arena**: per-node child
//! edges and postings become ranges into two flat arrays (`child_start` /
//! `post_start` prefix tables). Lookups binary-search a node's child slice;
//! postings are read as one contiguous slice — no pointer chasing, no
//! per-node allocations.
//!
//! Query-side work streams: the label-path DFS of
//! [`crate::extract::stream_label_paths`] walks the arena in step with the
//! enumeration (a node stack mirrors the path stack), so query paths are
//! never materialized, and candidate intersection goes word-parallel
//! straight into the caller's [`BitSet`] via
//! [`BitSet::intersect_with_sorted`] — the filter allocates nothing per
//! feature. Reusable state lives in [`TrieScratch`]; its survivor buffer
//! grows to the largest number of graphs that ever passed one query's fit
//! test.
//!
//! Its [`memory_bytes`](PathTrie::memory_bytes) drives the space side of the
//! paper's Experiment II. Equivalence with the pointer-chasing
//! implementation is pinned against [`crate::reference::RefPathTrie`].

use crate::extract::{stream_label_paths, FeatureConfig, PathSink};
use crate::fit;
use crate::merge::gallop_to;
use gc_graph::{BitSet, Graph, GraphId, Label};

/// Sentinel for "the current path has left the trie" on the walk stack.
const MISS: u32 = u32::MAX;

#[derive(Debug, Default)]
struct BuildNode {
    /// Child edges sorted by label.
    children: Vec<(Label, u32)>,
    /// `(graph, count)` sorted by graph id (graphs are inserted in id
    /// order).
    postings: Vec<(GraphId, u32)>,
}

/// Reusable query-side state for [`PathTrie::candidates_into`] /
/// [`PathTrie::super_candidates_into`]. One per worker; buffers grow to
/// their high-water mark and stay.
#[derive(Debug, Default)]
pub struct TrieScratch {
    on_path: Vec<bool>,
    /// Trie node per path depth (`MISS` once off-trie).
    stack: Vec<u32>,
    /// One walked node id per emitted path occurrence.
    nodes: Vec<u32>,
    /// Aggregated `(node, required count)`.
    merged: Vec<(u32, u32)>,
    /// Graphs that passed the supergraph probe's fit test, ascending, each
    /// with the part of its path total the query has not yet covered.
    survivors: Vec<(GraphId, u64)>,
}

impl TrieScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Streams the query's label paths against the arena: maintains the trie
/// node reached by the current path and records it per emission.
struct WalkSink<'a> {
    trie: &'a PathTrie,
    stack: &'a mut Vec<u32>,
    nodes: &'a mut Vec<u32>,
    /// Some emitted path left the trie (a feature no indexed graph has).
    missing: bool,
}

impl PathSink for WalkSink<'_> {
    #[inline]
    fn push(&mut self, label: Label) {
        let parent = self.stack.last().copied().unwrap_or(0);
        let node = if parent == MISS { MISS } else { self.trie.child(parent, label) };
        self.stack.push(node);
    }

    #[inline]
    fn emit(&mut self) {
        let node = *self.stack.last().expect("emit follows a push");
        if node == MISS {
            self.missing = true;
        } else {
            self.nodes.push(node);
        }
    }

    #[inline]
    fn pop(&mut self) {
        self.stack.pop();
    }
}

/// The FTV dataset index: a trie of labelled simple paths up to a maximum
/// length, with per-graph occurrence counts, frozen into a flat arena.
#[derive(Debug)]
pub struct PathTrie {
    cfg: FeatureConfig,
    dataset_size: usize,
    /// Per-graph total path-occurrence counts and trie-node masks: the
    /// [fit signatures](crate::fit) of the supergraph filter.
    totals: Vec<u64>,
    masks: Vec<u64>,
    /// Graphs whose path enumeration was truncated; they are always
    /// candidates (soundness over filtering power).
    unfiltered: Vec<GraphId>,
    /// Arena: node `n`'s child edges are
    /// `child_labels/child_nodes[child_start[n]..child_start[n + 1]]`,
    /// sorted by label; its postings are
    /// `postings[post_start[n]..post_start[n + 1]]`, sorted by graph id.
    child_labels: Vec<Label>,
    child_nodes: Vec<u32>,
    child_start: Vec<u32>,
    postings: Vec<(GraphId, u32)>,
    post_start: Vec<u32>,
}

impl PathTrie {
    /// Build the index over `dataset` with feature config `cfg`.
    pub fn build(dataset: &[Graph], cfg: FeatureConfig) -> Self {
        let mut nodes: Vec<BuildNode> = vec![BuildNode::default()];
        let mut totals = vec![0u64; dataset.len()];
        let mut unfiltered = Vec::new();
        let mut on_path = Vec::new();

        /// Counts emissions without touching the trie (pass 1: truncation
        /// check, so a truncated graph never leaves partial postings).
        struct CountSink {
            emitted: u64,
        }
        impl PathSink for CountSink {
            fn push(&mut self, _: Label) {}
            fn emit(&mut self) {
                self.emitted += 1;
            }
            fn pop(&mut self) {}
        }

        struct InsertSink<'a> {
            nodes: &'a mut Vec<BuildNode>,
            stack: Vec<usize>,
            gid: GraphId,
        }
        impl PathSink for InsertSink<'_> {
            fn push(&mut self, label: Label) {
                let cur = self.stack.last().copied().unwrap_or(0);
                let next =
                    match self.nodes[cur].children.binary_search_by_key(&label, |&(cl, _)| cl) {
                        Ok(i) => self.nodes[cur].children[i].1 as usize,
                        Err(i) => {
                            let id = self.nodes.len() as u32;
                            self.nodes.push(BuildNode::default());
                            self.nodes[cur].children.insert(i, (label, id));
                            id as usize
                        }
                    };
                self.stack.push(next);
            }
            fn emit(&mut self) {
                let node = *self.stack.last().expect("emit follows a push");
                match self.nodes[node].postings.last_mut() {
                    Some((last_gid, c)) if *last_gid == self.gid => *c += 1,
                    _ => self.nodes[node].postings.push((self.gid, 1)),
                }
            }
            fn pop(&mut self) {
                self.stack.pop();
            }
        }

        for (gid, g) in dataset.iter().enumerate() {
            let gid = gid as GraphId;
            let mut counter = CountSink { emitted: 0 };
            if stream_label_paths(g, &cfg, &mut on_path, &mut counter) {
                unfiltered.push(gid);
                continue;
            }
            totals[gid as usize] = counter.emitted;
            let mut sink = InsertSink { nodes: &mut nodes, stack: Vec::new(), gid };
            stream_label_paths(g, &cfg, &mut on_path, &mut sink);
        }

        // Freeze into the arena (node ids preserved).
        let mut child_start = Vec::with_capacity(nodes.len() + 1);
        let mut post_start = Vec::with_capacity(nodes.len() + 1);
        let (mut nc, mut np) = (0u32, 0u32);
        for n in &nodes {
            child_start.push(nc);
            post_start.push(np);
            nc += n.children.len() as u32;
            np += n.postings.len() as u32;
        }
        child_start.push(nc);
        post_start.push(np);
        let mut child_labels = Vec::with_capacity(nc as usize);
        let mut child_nodes = Vec::with_capacity(nc as usize);
        let mut postings = Vec::with_capacity(np as usize);
        let mut masks = vec![0u64; dataset.len()];
        for (id, n) in nodes.into_iter().enumerate() {
            for (l, c) in n.children {
                child_labels.push(l);
                child_nodes.push(c);
            }
            let bit = fit::key_bit(id as u64);
            for &(gid, _) in &n.postings {
                masks[gid as usize] |= bit;
            }
            postings.extend(n.postings);
        }

        PathTrie {
            cfg,
            dataset_size: dataset.len(),
            totals,
            masks,
            unfiltered,
            child_labels,
            child_nodes,
            child_start,
            postings,
            post_start,
        }
    }

    /// The feature configuration the index was built with.
    pub fn config(&self) -> &FeatureConfig {
        &self.cfg
    }

    /// Number of indexed graphs.
    pub fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    /// Number of trie nodes (root included).
    pub fn node_count(&self) -> usize {
        self.child_start.len() - 1
    }

    /// The child of `node` along `label`, or [`MISS`].
    #[inline]
    fn child(&self, node: u32, label: Label) -> u32 {
        let (s, e) = (
            self.child_start[node as usize] as usize,
            self.child_start[node as usize + 1] as usize,
        );
        match self.child_labels[s..e].binary_search(&label) {
            Ok(i) => self.child_nodes[s + i],
            Err(_) => MISS,
        }
    }

    /// Posting slice of `node`.
    #[inline]
    fn node_postings(&self, node: u32) -> &[(GraphId, u32)] {
        let (s, e) =
            (self.post_start[node as usize] as usize, self.post_start[node as usize + 1] as usize);
        &self.postings[s..e]
    }

    fn walk(&self, labels: &[Label]) -> Option<u32> {
        let mut cur = 0u32;
        for &l in labels {
            cur = self.child(cur, l);
            if cur == MISS {
                return None;
            }
        }
        Some(cur)
    }

    /// Occurrence count of the exact label path `labels` in graph `gid`.
    pub fn count(&self, labels: &[Label], gid: GraphId) -> u32 {
        self.walk(labels)
            .and_then(|n| {
                let posts = self.node_postings(n);
                posts.binary_search_by_key(&gid, |&(g, _)| g).ok().map(|i| posts[i].1)
            })
            .unwrap_or(0)
    }

    /// Stream the query's paths against the arena, filling
    /// `scratch.nodes`. Returns `(truncated, missing)`.
    fn walk_query(&self, query: &Graph, scratch: &mut TrieScratch) -> (bool, bool) {
        scratch.stack.clear();
        scratch.nodes.clear();
        let mut sink = WalkSink {
            trie: self,
            stack: &mut scratch.stack,
            nodes: &mut scratch.nodes,
            missing: false,
        };
        let truncated = stream_label_paths(query, &self.cfg, &mut scratch.on_path, &mut sink);
        (truncated, sink.missing)
    }

    /// Aggregate `scratch.nodes` into sorted `(node, count)` runs in
    /// `scratch.merged`.
    fn aggregate_required(scratch: &mut TrieScratch) {
        scratch.nodes.sort_unstable();
        scratch.merged.clear();
        for &n in &scratch.nodes {
            match scratch.merged.last_mut() {
                Some((ln, c)) if *ln == n => *c += 1,
                _ => scratch.merged.push((n, 1)),
            }
        }
    }

    /// Compute the candidate set `C_M` for a subgraph query into `out`
    /// (universe must be `dataset_size`): every dataset graph whose
    /// per-feature counts dominate the query's.
    ///
    /// Sound: the true answer set is always a subset of the result.
    /// Allocation-free once `scratch` and `out` are warm.
    pub fn candidates_into(&self, query: &Graph, scratch: &mut TrieScratch, out: &mut BitSet) {
        assert_eq!(out.universe(), self.dataset_size, "candidate universe mismatch");
        let (truncated, missing) = self.walk_query(query, scratch);
        if truncated {
            // Cannot filter safely; everything is a candidate.
            out.set_all();
            return;
        }
        if missing {
            // Query has a path no dataset graph contains (beyond the
            // truncated ones).
            out.clear();
            for &g in &self.unfiltered {
                out.insert(g as usize);
            }
            return;
        }
        // (Forward and backward readings of a path reach *different* trie
        // nodes; counts are per-direction on both sides, so domination
        // still holds.)
        Self::aggregate_required(scratch);
        // Intersect, most selective (shortest posting list) first, each
        // feature's qualifying postings chunk-merged straight into `out` by
        // the dispatched posting kernel (count filter folded in).
        scratch.merged.sort_unstable_by_key(|&(n, _)| self.node_postings(n).len());
        out.set_all();
        for &(n, req) in &scratch.merged {
            out.intersect_with_postings(self.node_postings(n), req);
            if out.is_empty() {
                break;
            }
        }
        for &g in &self.unfiltered {
            out.insert(g as usize);
        }
    }

    /// Candidate set for a **supergraph** query into `out`: dataset graphs
    /// possibly *contained in* `query`. A graph qualifies when every one of
    /// its own path features appears in the query with at least the graph's
    /// count, checked via `Σ_f∈query min(cnt_G(f), cnt_q(f)) == total(G)` so
    /// the graphs' feature sets never need re-enumeration.
    ///
    /// Cost: one pass over the graphs' fit signatures (path total ≤ the
    /// query's, trie-node mask ⊆ the query's), then, per query trie node, a
    /// galloping lookup of each survivor in its postings. No posting list is
    /// scanned whole.
    ///
    /// Sound: the true answer set (`{G : G ⊑ q}`) is a subset of the
    /// result. Allocation-free once `scratch` and `out` are warm.
    pub fn super_candidates_into(
        &self,
        query: &Graph,
        scratch: &mut TrieScratch,
        out: &mut BitSet,
    ) {
        assert_eq!(out.universe(), self.dataset_size, "candidate universe mismatch");
        let (truncated, _missing) = self.walk_query(query, scratch);
        if truncated {
            out.set_all();
            return;
        }
        Self::aggregate_required(scratch);
        let q_total = scratch.merged.iter().map(|&(_, qc)| qc as u64).sum();
        let q_mask = fit::mask(scratch.merged.iter().map(|&(n, _)| n as u64));
        scratch.survivors.clear();
        for (gid, (&total, &mask)) in self.totals.iter().zip(&self.masks).enumerate() {
            if fit::fits(total, mask, q_total, q_mask) {
                scratch.survivors.push((gid as GraphId, total));
            }
        }
        // Σmin on the survivors: each query node takes min(c, qc) off the
        // uncovered rest of every survivor it posts.
        for &(n, qc) in &scratch.merged {
            let posts = self.node_postings(n);
            let mut at = 0;
            for (gid, rest) in scratch.survivors.iter_mut() {
                at = gallop_to(posts, at, *gid, |&(g, _)| g);
                match posts.get(at) {
                    Some(&(g, c)) if g == *gid => *rest -= c.min(qc) as u64,
                    Some(_) => {}
                    None => break,
                }
            }
        }
        out.clear();
        for &(gid, rest) in &scratch.survivors {
            if rest == 0 {
                out.insert(gid as usize);
            }
        }
        for &g in &self.unfiltered {
            out.insert(g as usize);
        }
    }

    /// Allocating wrapper over [`PathTrie::candidates_into`].
    pub fn candidates(&self, query: &Graph) -> BitSet {
        let mut scratch = TrieScratch::new();
        let mut out = BitSet::new(self.dataset_size);
        self.candidates_into(query, &mut scratch, &mut out);
        out
    }

    /// Allocating wrapper over [`PathTrie::super_candidates_into`].
    pub fn super_candidates(&self, query: &Graph) -> BitSet {
        let mut scratch = TrieScratch::new();
        let mut out = BitSet::new(self.dataset_size);
        self.super_candidates_into(query, &mut scratch, &mut out);
        out
    }

    /// Approximate heap footprint in bytes — the "space requirement" of the
    /// FTV index in Experiment II.
    pub fn memory_bytes(&self) -> usize {
        self.child_labels.capacity() * std::mem::size_of::<Label>()
            + self.child_nodes.capacity() * std::mem::size_of::<u32>()
            + self.child_start.capacity() * std::mem::size_of::<u32>()
            + self.postings.capacity() * std::mem::size_of::<(GraphId, u32)>()
            + self.post_start.capacity() * std::mem::size_of::<u32>()
            + self.unfiltered.capacity() * std::mem::size_of::<GraphId>()
            + self.totals.capacity() * std::mem::size_of::<u64>()
            + self.masks.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::graph_from_parts;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn small_dataset() -> Vec<Graph> {
        vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),         // path 0-1-2
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]), // triangle 0,1,0
            g(&[3, 3], &[(0, 1)]),                    // edge 3-3
            g(&[0, 1], &[(0, 1)]),                    // edge 0-1
        ]
    }

    #[test]
    fn exact_match_filtering() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        // Query: single edge 0-1. Graphs 0, 1, 3 contain it.
        let q = g(&[0, 1], &[(0, 1)]);
        let c = trie.candidates(&q);
        assert_eq!(c.to_vec(), vec![0, 1, 3]);
    }

    #[test]
    fn missing_feature_empties_candidates() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        let q = g(&[9], &[]);
        assert!(trie.candidates(&q).is_empty());
    }

    #[test]
    fn count_domination_filters() {
        // Query with two 0-1 edges requires count >= the query's own.
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        let q = g(&[0, 1, 0], &[(0, 1), (1, 2)]); // path 0-1-0
        let c = trie.candidates(&q);
        // Graph 1 (triangle 0,1,0) contains path 0-1-0; graph 0 is 0-1-2 and
        // does not; graph 3 has only one 0-1 edge.
        assert_eq!(c.to_vec(), vec![1]);
    }

    #[test]
    fn filter_is_sound_vs_vf2() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(3));
        let queries = [
            g(&[0, 1], &[(0, 1)]),
            g(&[1], &[]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
        ];
        for q in &queries {
            let c = trie.candidates(q);
            for (gid, dg) in ds.iter().enumerate() {
                if gc_iso::vf2::exists(q, dg) {
                    assert!(c.contains(gid), "filter dropped true answer {gid}");
                }
            }
        }
    }

    #[test]
    fn count_lookup() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        // Edge 0-1 occurs twice (two directions) in graph 3... as the
        // directed readings 0->1 and 1->0 land on different nodes, each
        // counted once.
        assert_eq!(trie.count(&[Label(0), Label(1)], 3), 1);
        assert_eq!(trie.count(&[Label(1), Label(0)], 3), 1);
        assert_eq!(trie.count(&[Label(9)], 3), 0);
    }

    #[test]
    fn empty_query_matches_all() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        let q = g(&[], &[]);
        assert_eq!(trie.candidates(&q).count(), ds.len());
    }

    #[test]
    fn truncated_data_graph_is_always_candidate() {
        let mut edges = Vec::new();
        for u in 0..9u32 {
            for v in (u + 1)..9 {
                edges.push((u, v));
            }
        }
        let clique = g(&[0; 9], &edges);
        let ds = vec![clique, g(&[1], &[])];
        let cfg = FeatureConfig { max_len: 6, max_paths: 50 };
        let trie = PathTrie::build(&ds, cfg);
        // Query that the clique *does* contain but whose features were lost.
        let q = g(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let c = trie.candidates(&q);
        assert!(c.contains(0), "truncated graph must stay a candidate");
        assert!(!c.contains(1));
    }

    #[test]
    fn super_candidates_filtering() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        // Supergraph query: triangle 0,1,0 with pendant 2 contains graphs 1
        // (triangle) and 3 (edge 0-1), and graph 0 (path 0-1-2).
        let q = g(&[0, 1, 0, 2], &[(0, 1), (1, 2), (0, 2), (1, 3)]);
        let c = trie.super_candidates(&q);
        for (gid, dg) in ds.iter().enumerate() {
            if gc_iso::vf2::exists(dg, &q) {
                assert!(c.contains(gid), "super filter dropped true answer {gid}");
            }
        }
        assert!(!c.contains(2)); // graph 2 is the 3-3 edge; label 3 nowhere in q
    }

    #[test]
    fn super_candidates_sound_small() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(3));
        let queries = [
            g(&[0, 1], &[(0, 1)]),
            g(&[0, 1, 2, 0], &[(0, 1), (1, 2), (1, 3)]),
            g(&[3, 3, 3], &[(0, 1), (1, 2)]),
        ];
        for q in &queries {
            let c = trie.super_candidates(q);
            for (gid, dg) in ds.iter().enumerate() {
                if gc_iso::vf2::exists(dg, q) {
                    assert!(c.contains(gid));
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let ds = small_dataset();
        let trie = PathTrie::build(&ds, FeatureConfig::with_max_len(3));
        let mut scratch = TrieScratch::new();
        let mut out = BitSet::new(ds.len());
        let queries =
            [g(&[0, 1], &[(0, 1)]), g(&[9], &[]), g(&[0, 1, 0], &[(0, 1), (1, 2)]), g(&[], &[])];
        for q in &queries {
            trie.candidates_into(q, &mut scratch, &mut out);
            assert_eq!(out, trie.candidates(q), "shared scratch changed the answer");
            trie.super_candidates_into(q, &mut scratch, &mut out);
            assert_eq!(out, trie.super_candidates(q));
        }
    }

    #[test]
    fn memory_grows_with_feature_size() {
        let ds = small_dataset();
        let t2 = PathTrie::build(&ds, FeatureConfig::with_max_len(2));
        let t4 = PathTrie::build(&ds, FeatureConfig::with_max_len(4));
        assert!(t4.memory_bytes() >= t2.memory_bytes());
        assert!(t4.node_count() >= t2.node_count());
    }
}
