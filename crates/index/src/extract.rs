//! Labelled-path feature extraction.
//!
//! A *feature* is the label sequence of a simple path (no repeated vertices)
//! with at most `max_len` edges. Paths are enumerated in both directions from
//! every start vertex — consistently for data graphs and query graphs, so
//! occurrence counts remain comparable. Count domination is a *sound* filter
//! for non-induced subgraph isomorphism: an embedding maps each simple path
//! of the pattern to a distinct simple path of the target with the same label
//! sequence, injectively, hence `count_q(f) ≤ count_G(f)` for every feature
//! `f` of the query.
//!
//! For the inverted indices we identify a feature by a 64-bit hash of its
//! label sequence ([`FeatureVec`]). Hash grouping preserves soundness: merged
//! counts of dominated features remain dominated.
//!
//! ## Streaming extraction
//!
//! The hot path never materializes paths. [`stream_label_paths`] drives a
//! [`PathSink`] with `push` / `emit` / `pop` events, and the sinks roll
//! whatever per-path state they need incrementally: [`ExtractScratch`] rolls
//! the forward feature hash on a prefix stack (the backward reading, needed
//! for the canonical hash, is folded from the ≤ `max_len + 1` labels on the
//! stack — still allocation-free), the dataset trie walks its arena in step
//! with the DFS. After warm-up the whole extraction performs **zero heap
//! allocations**; this is pinned by `tests/alloc_free.rs` and the streaming
//! result is property-tested equal to the materializing reference
//! enumerator, [`enumerate_label_paths`].

use gc_graph::hash::{hash_seq, mix};
use gc_graph::{Graph, Label, VertexId};

/// Configuration of path-feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Maximum path length in edges (0 = single-vertex features only).
    /// The paper's "feature size"; GraphGrepSX defaults to 4, our Experiment
    /// II compares `max_len` vs `max_len + 1`.
    pub max_len: usize,
    /// Safety valve: stop enumerating after this many path occurrences per
    /// graph (dense pathological graphs only; molecule-like data never hits
    /// it). Truncation is applied to *data and query alike only at the same
    /// config*, so an index built with a given config stays sound for queries
    /// extracted with the same config as long as the cap is not reached; a
    /// reached cap is reported via the enumerators' truncation flag so
    /// callers can fall back to no filtering.
    pub max_paths: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { max_len: 3, max_paths: 1_000_000 }
    }
}

impl FeatureConfig {
    /// Config with the given maximum path length (edges).
    pub fn with_max_len(max_len: usize) -> Self {
        FeatureConfig { max_len, ..Default::default() }
    }
}

/// Receives the streaming path enumeration of [`stream_label_paths`].
///
/// Event order mirrors the DFS: `push(l)` when a vertex with label `l`
/// extends the current path, then `emit()` exactly once for that path
/// occurrence (unless the enumeration cap was reached), recursion into the
/// children, and a matching `pop()` on backtrack. The labels pushed and not
/// yet popped *are* the current path.
pub trait PathSink {
    /// A vertex with `label` was appended to the current path.
    fn push(&mut self, label: Label);
    /// The current path is emitted as one feature occurrence.
    fn emit(&mut self);
    /// The deepest vertex was removed (backtrack).
    fn pop(&mut self);
}

/// Enumerate the labelled simple paths of `g` (both directions, every start
/// vertex, `0..=cfg.max_len` edges) into `sink`, without materializing them.
///
/// `on_path` is caller-provided scratch (cleared and resized here) so
/// steady-state extraction does not allocate. Returns `true` when the
/// enumeration hit `cfg.max_paths` and the emitted stream is partial —
/// callers must then treat the graph as unfilterable. Traversal order, cap
/// accounting and the truncation flag are identical to
/// [`enumerate_label_paths`] (property-tested).
pub fn stream_label_paths(
    g: &Graph,
    cfg: &FeatureConfig,
    on_path: &mut Vec<bool>,
    sink: &mut impl PathSink,
) -> bool {
    on_path.clear();
    on_path.resize(g.vertex_count(), false);
    let mut emitted = 0usize;
    let mut truncated = false;

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        g: &Graph,
        v: VertexId,
        remaining: usize,
        on_path: &mut [bool],
        sink: &mut impl PathSink,
        cap: usize,
        emitted: &mut usize,
        truncated: &mut bool,
    ) {
        if *truncated {
            return;
        }
        sink.push(g.label(v));
        on_path[v as usize] = true;
        if *emitted >= cap {
            *truncated = true;
        } else {
            *emitted += 1;
            sink.emit();
            if remaining > 0 {
                for &w in g.neighbors(v) {
                    if !on_path[w as usize] {
                        dfs(g, w, remaining - 1, on_path, sink, cap, emitted, truncated);
                    }
                }
            }
        }
        on_path[v as usize] = false;
        sink.pop();
    }

    for v in g.vertices() {
        dfs(g, v, cfg.max_len, on_path, sink, cfg.max_paths, &mut emitted, &mut truncated);
        if truncated {
            break;
        }
    }
    truncated
}

/// Enumerate the label sequences of all simple paths with `0..=cfg.max_len`
/// edges, from every start vertex, in both directions — the **materializing
/// reference enumerator**. The production pipeline uses
/// [`stream_label_paths`] / [`ExtractScratch`]; this stays as the executable
/// specification for equivalence tests and the test-side reference indexes.
///
/// Returns `(paths, truncated)`; when `truncated` is true the enumeration hit
/// `cfg.max_paths` and the result is partial (callers must then treat the
/// graph as unfilterable).
pub fn enumerate_label_paths(g: &Graph, cfg: &FeatureConfig) -> (Vec<Vec<Label>>, bool) {
    // Deliberately NOT built on `stream_label_paths`: this is the
    // independent specification the streaming enumerator is property-tested
    // against.
    let mut out = Vec::new();
    let mut truncated = false;
    let mut on_path = vec![false; g.vertex_count()];
    let mut path_labels: Vec<Label> = Vec::with_capacity(cfg.max_len + 1);

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        g: &Graph,
        v: VertexId,
        remaining: usize,
        on_path: &mut [bool],
        path_labels: &mut Vec<Label>,
        out: &mut Vec<Vec<Label>>,
        cap: usize,
        truncated: &mut bool,
    ) {
        if *truncated {
            return;
        }
        path_labels.push(g.label(v));
        on_path[v as usize] = true;
        if out.len() >= cap {
            *truncated = true;
        } else {
            out.push(path_labels.clone());
            if remaining > 0 {
                for &w in g.neighbors(v) {
                    if !on_path[w as usize] {
                        dfs(g, w, remaining - 1, on_path, path_labels, out, cap, truncated);
                    }
                }
            }
        }
        on_path[v as usize] = false;
        path_labels.pop();
    }

    for v in g.vertices() {
        dfs(
            g,
            v,
            cfg.max_len,
            &mut on_path,
            &mut path_labels,
            &mut out,
            cfg.max_paths,
            &mut truncated,
        );
        if truncated {
            break;
        }
    }
    (out, truncated)
}

/// Borrowed view of a graph's extracted features: `(hash, count)` pairs
/// sorted ascending by hash, plus the truncation flag. This is what the hot
/// probe path passes around — it borrows an [`ExtractScratch`] (or a
/// [`FeatureVec`]) instead of owning an allocation.
#[derive(Debug, Clone, Copy)]
pub struct FeaturesRef<'a> {
    items: &'a [(u64, u32)],
    truncated: bool,
}

impl<'a> FeaturesRef<'a> {
    /// View over externally-assembled items (must be sorted by hash with
    /// unique hashes, as produced by extraction).
    pub fn new(items: &'a [(u64, u32)], truncated: bool) -> Self {
        FeaturesRef { items, truncated }
    }

    /// The `(hash, count)` pairs, sorted ascending by hash.
    pub fn items(&self) -> &'a [(u64, u32)] {
        self.items
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff no features (the empty graph).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total occurrence count over all features.
    pub fn total_count(&self) -> u64 {
        self.items.iter().map(|&(_, c)| c as u64).sum()
    }

    /// `true` when path enumeration was truncated; domination answers are
    /// then unreliable and callers must skip filtering.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Count for a feature hash (0 when absent).
    pub fn count(&self, hash: u64) -> u32 {
        match self.items.binary_search_by_key(&hash, |&(h, _)| h) {
            Ok(i) => self.items[i].1,
            Err(_) => 0,
        }
    }

    /// Copy into an owned [`FeatureVec`] (one allocation; done once per
    /// query so probe and admission share the same extraction).
    pub fn to_feature_vec(&self) -> FeatureVec {
        let mask = crate::fit::mask(self.items.iter().map(|&(h, _)| h));
        let (items, total) = (self.items.to_vec(), self.total_count());
        FeatureVec { items, truncated: self.truncated, total, mask }
    }
}

/// Reusable extraction state: path bookkeeping, the rolling prefix-hash
/// stack, and the hash/item output buffers. One scratch per worker; after
/// the first extraction at a given graph scale, [`ExtractScratch::extract`]
/// performs no heap allocation.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    on_path: Vec<bool>,
    labels: Vec<Label>,
    /// `prefix[d]` = `hash_seq(labels[..=d])`, rolled incrementally.
    prefix: Vec<u64>,
    hashes: Vec<u64>,
    items: Vec<(u64, u32)>,
}

/// Sink that canonically hashes every emitted path with zero allocation.
struct HashSink<'a> {
    labels: &'a mut Vec<Label>,
    prefix: &'a mut Vec<u64>,
    hashes: &'a mut Vec<u64>,
    /// `hash_seq` of the empty sequence — the prefix-stack seed.
    empty_hash: u64,
}

impl PathSink for HashSink<'_> {
    #[inline]
    fn push(&mut self, label: Label) {
        let base = self.prefix.last().copied().unwrap_or(self.empty_hash);
        self.labels.push(label);
        self.prefix.push(mix(base, label.0 as u64));
    }

    #[inline]
    fn emit(&mut self) {
        // Canonical reading: the lexicographically smaller of forward and
        // backward. Forward is the rolled prefix hash; backward (rare — only
        // when the reversed labels compare smaller) folds the ≤ max_len + 1
        // labels on the stack.
        let labels = self.labels.as_slice();
        let n = labels.len();
        let mut rev_smaller = false;
        for i in 0..n / 2 {
            let (a, b) = (labels[i].0, labels[n - 1 - i].0);
            if a != b {
                rev_smaller = b < a;
                break;
            }
        }
        let h = if rev_smaller {
            hash_seq(labels.iter().rev().map(|l| l.0 as u64))
        } else {
            *self.prefix.last().expect("emit follows a push")
        };
        self.hashes.push(h);
    }

    #[inline]
    fn pop(&mut self) {
        self.labels.pop();
        self.prefix.pop();
    }
}

impl ExtractScratch {
    /// Fresh scratch (buffers grow to their high-water mark on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Extract the features of `g` under `cfg` into this scratch, returning
    /// a borrowed view. Equivalent to [`feature_vec`] but reusable: no
    /// allocation once the buffers are warm.
    pub fn extract(&mut self, g: &Graph, cfg: &FeatureConfig) -> FeaturesRef<'_> {
        self.labels.clear();
        self.prefix.clear();
        self.hashes.clear();
        self.items.clear();
        let truncated = {
            let mut sink = HashSink {
                labels: &mut self.labels,
                prefix: &mut self.prefix,
                hashes: &mut self.hashes,
                empty_hash: hash_seq(std::iter::empty()),
            };
            stream_label_paths(g, cfg, &mut self.on_path, &mut sink)
        };
        self.hashes.sort_unstable();
        let items = &mut self.items;
        for &h in self.hashes.iter() {
            match items.last_mut() {
                Some((lh, c)) if *lh == h => *c += 1,
                _ => items.push((h, 1)),
            }
        }
        FeaturesRef { items: &self.items, truncated }
    }
}

/// A graph's feature multiset, represented as `(feature_hash, count)` pairs
/// sorted by hash, with its fit signature (total count and
/// key mask) kept beside them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeatureVec {
    items: Vec<(u64, u32)>,
    truncated: bool,
    pub(crate) total: u64,
    pub(crate) mask: u64,
}

impl FeatureVec {
    /// Borrowed view for the allocation-free index APIs.
    pub fn as_features(&self) -> FeaturesRef<'_> {
        FeaturesRef { items: &self.items, truncated: self.truncated }
    }

    /// The `(hash, count)` pairs, sorted ascending by hash.
    pub fn items(&self) -> &[(u64, u32)] {
        &self.items
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff no features (the empty graph).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total occurrence count over all features.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// `true` when path enumeration was truncated; domination answers are
    /// then unreliable and callers must skip filtering.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Count for a feature hash (0 when absent).
    pub fn count(&self, hash: u64) -> u32 {
        self.as_features().count(hash)
    }

    /// `true` iff `self`'s counts dominate `other`'s on every feature of
    /// `other` (i.e. `other` may be contained in `self`). The fit
    /// signatures answer most `false`s without a merge-walk.
    pub fn dominates(&self, other: &FeatureVec) -> bool {
        crate::fit::fits(other.total, other.mask, self.total, self.mask)
            && crate::fit::dominated(&other.items, &self.items)
    }

    /// Approximate heap bytes (for index-size accounting).
    pub fn memory_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<(u64, u32)>()
    }
}

/// Hash a label sequence canonically: a path read forward and backward is
/// the same physical feature, so we hash the lexicographically smaller of
/// the two readings.
pub fn feature_hash(labels: &[Label]) -> u64 {
    let forward = labels.iter().map(|l| l.0 as u64);
    let rev_smaller = {
        let fw: Vec<u32> = labels.iter().map(|l| l.0).collect();
        let mut bw = fw.clone();
        bw.reverse();
        bw < fw
    };
    if rev_smaller {
        hash_seq(labels.iter().rev().map(|l| l.0 as u64))
    } else {
        hash_seq(forward)
    }
}

/// Extract the [`FeatureVec`] of a graph under `cfg` (streaming; one
/// allocation for the owned result).
pub fn feature_vec(g: &Graph, cfg: &FeatureConfig) -> FeatureVec {
    let mut scratch = ExtractScratch::new();
    scratch.extract(g, cfg).to_feature_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::graph_from_parts;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    #[test]
    fn single_edge_paths() {
        let e = g(&[0, 1], &[(0, 1)]);
        let (paths, trunc) = enumerate_label_paths(&e, &FeatureConfig::with_max_len(1));
        assert!(!trunc);
        // 2 single-vertex paths + the edge in both directions.
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn max_len_zero_gives_label_histogram() {
        let t = g(&[0, 0, 5], &[(0, 1), (1, 2)]);
        let fv = feature_vec(&t, &FeatureConfig::with_max_len(0));
        assert_eq!(fv.len(), 2); // labels {0, 5}
        assert_eq!(fv.total_count(), 3);
    }

    #[test]
    fn forward_backward_same_hash() {
        let a = [Label(1), Label(2), Label(3)];
        let b = [Label(3), Label(2), Label(1)];
        assert_eq!(feature_hash(&a), feature_hash(&b));
        let c = [Label(1), Label(3), Label(2)];
        assert_ne!(feature_hash(&a), feature_hash(&c));
    }

    #[test]
    fn streaming_matches_materialized_hashes() {
        // The rolled prefix hash + reverse fold must equal feature_hash on
        // every enumerated path.
        let graphs = [
            g(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
            g(&[5, 5, 5], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3], &[]),
            g(&[], &[]),
        ];
        for gr in &graphs {
            for max_len in 0..4 {
                let cfg = FeatureConfig::with_max_len(max_len);
                let (paths, _) = enumerate_label_paths(gr, &cfg);
                let mut want: Vec<u64> = paths.iter().map(|p| feature_hash(p)).collect();
                want.sort_unstable();
                let mut scratch = ExtractScratch::new();
                let f = scratch.extract(gr, &cfg);
                let total: u64 = f.total_count();
                assert_eq!(total as usize, want.len());
                let mut got: Vec<u64> = Vec::new();
                for &(h, c) in f.items() {
                    got.extend(std::iter::repeat_n(h, c as usize));
                }
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_graphs() {
        let mut scratch = ExtractScratch::new();
        let cfg = FeatureConfig::with_max_len(2);
        let a = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let b = g(&[7], &[]);
        let fa1 = scratch.extract(&a, &cfg).to_feature_vec();
        let fb = scratch.extract(&b, &cfg).to_feature_vec();
        let fa2 = scratch.extract(&a, &cfg).to_feature_vec();
        assert_eq!(fa1, fa2, "scratch reuse must not change the result");
        assert_eq!(fb.len(), 1);
        assert_eq!(feature_vec(&a, &cfg), fa1);
    }

    #[test]
    fn domination_on_subgraph() {
        let cfg = FeatureConfig::with_max_len(3);
        let path = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let tri = g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
        let f_path = feature_vec(&path, &cfg);
        let f_tri = feature_vec(&tri, &cfg);
        assert!(f_tri.dominates(&f_path));
        assert!(!f_path.dominates(&f_tri));
        assert!(f_tri.dominates(&f_tri));
    }

    #[test]
    fn empty_graph_dominated_by_all() {
        let cfg = FeatureConfig::default();
        let e = feature_vec(&g(&[], &[]), &cfg);
        let x = feature_vec(&g(&[0], &[]), &cfg);
        assert!(x.dominates(&e));
        assert!(e.dominates(&e));
        assert!(!e.dominates(&x));
    }

    #[test]
    fn truncation_flag() {
        // A clique blows up path counts quickly.
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        let k8 = g(&[0; 8], &edges);
        let cfg = FeatureConfig { max_len: 6, max_paths: 100 };
        let fv = feature_vec(&k8, &cfg);
        assert!(fv.truncated());
        let (_, trunc) = enumerate_label_paths(&k8, &cfg);
        assert!(trunc);
    }

    #[test]
    fn counts_are_exact_on_path_graph() {
        // P3 labelled 0-1-2: features of len<=1: [0],[1],[2],[0,1],[1,2]
        // each edge counted twice (two directions) but canonical hash merges
        // them into one feature with count 2.
        let p = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let fv = feature_vec(&p, &FeatureConfig::with_max_len(1));
        assert_eq!(fv.len(), 5);
        assert_eq!(fv.total_count(), 7); // 3 vertices + 2 edges * 2 dirs
    }
}
