//! The immutable CSR graph type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a vertex inside one [`Graph`] (dense, `0..n`).
pub type VertexId = u32;

/// Identifier of a graph inside a dataset (dense, `0..dataset.len()`).
pub type GraphId = u32;

/// A vertex label. Labels are small dense integers; datasets map their label
/// alphabet (e.g. atom symbols) onto `0..alphabet_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An immutable, undirected, simple, vertex-labelled graph.
///
/// Stored as a CSR adjacency structure with neighbour lists sorted
/// ascendingly, enabling `O(log d)` edge probes and cache-friendly scans. The
/// distinct edge list (with `u < v`) is kept alongside for iteration and
/// serialization.
///
/// `Graph` values are cheap to share (`Arc<Graph>` in the cache) and are never
/// mutated after [`crate::GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    labels: Vec<Label>,
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
    edges: Vec<(VertexId, VertexId)>,
}

impl Graph {
    pub(crate) fn from_parts(
        labels: Vec<Label>,
        offsets: Vec<u32>,
        neighbors: Vec<VertexId>,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        debug_assert_eq!(neighbors.len(), 2 * edges.len());
        Graph { labels, offsets, neighbors, edges }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// All labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbour list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The CSR neighbour array: every vertex's sorted neighbour list, in
    /// vertex order (`neighbors(0) ++ neighbors(1) ++ …`).
    #[inline]
    pub(crate) fn neighbor_array(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Hint the CPU to load the arrays a sub-iso test reads — labels, CSR
    /// offsets and neighbours, not the edge list — ahead of the test (see
    /// [`crate::simd::prefetch`]). Changes nothing.
    #[inline]
    pub fn prefetch(&self) {
        crate::simd::prefetch(&self.labels);
        crate::simd::prefetch(&self.offsets);
        crate::simd::prefetch(&self.neighbors);
    }

    /// `true` iff the undirected edge `(u, v)` exists. `O(log d(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let nu = self.neighbors(u);
        let nv = self.neighbors(v);
        // Probe the smaller adjacency list.
        if nu.len() <= nv.len() {
            nu.binary_search(&v).is_ok()
        } else {
            nv.binary_search(&u).is_ok()
        }
    }

    /// Iterator over vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.vertex_count() as VertexId
    }

    /// The distinct undirected edges, each as `(u, v)` with `u < v`, sorted.
    #[inline]
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter { inner: self.edges.iter() }
    }

    /// Raw edge slice (each `(u, v)` with `u < v`, sorted lexicographically).
    #[inline]
    pub fn edge_slice(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Histogram of labels: `hist[l]` = number of vertices with label `l`.
    /// Length is `max_label + 1` (or 0 for the empty graph).
    pub fn label_histogram(&self) -> Vec<u32> {
        let max = self.labels.iter().map(|l| l.0).max();
        let mut hist = vec![0u32; max.map_or(0, |m| m as usize + 1)];
        for l in &self.labels {
            hist[l.0 as usize] += 1;
        }
        hist
    }

    /// Largest label value present, if any.
    pub fn max_label(&self) -> Option<Label> {
        self.labels.iter().copied().max()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.vertex_count() as f64
        }
    }

    /// `true` iff the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components() <= 1
    }

    /// Number of connected components.
    pub fn connected_components(&self) -> usize {
        let n = self.vertex_count();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        let mut components = 0;
        for s in 0..n {
            if seen[s] {
                continue;
            }
            components += 1;
            seen[s] = true;
            stack.push(s as VertexId);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }

    /// Approximate heap footprint in bytes, used by the cache's memory
    /// accounting (Window/Cache Manager).
    pub fn memory_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<Label>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.edges.len() * std::mem::size_of::<(VertexId, VertexId)>()
    }

    /// Sorted multiset of neighbour labels of `v` (allocates; used by
    /// invariants and tests, not by hot paths).
    pub fn neighbor_labels(&self, v: VertexId) -> Vec<Label> {
        let mut ls: Vec<Label> = self.neighbors(v).iter().map(|&w| self.label(w)).collect();
        ls.sort_unstable();
        ls
    }
}

/// Iterator over the distinct undirected edges of a [`Graph`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    inner: std::slice::Iter<'a, (VertexId, VertexId)>,
}

impl Iterator for EdgeIter<'_> {
    type Item = (VertexId, VertexId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn path3() -> crate::Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(crate::Label(0));
        let c = b.add_vertex(crate::Label(1));
        let d = b.add_vertex(crate::Label(0));
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.label(1), crate::Label(1));
    }

    #[test]
    fn histogram_and_stats() {
        let g = path3();
        assert_eq!(g.label_histogram(), vec![2, 1]);
        assert_eq!(g.max_label(), Some(crate::Label(1)));
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity() {
        let g = path3();
        assert!(g.is_connected());
        assert_eq!(g.connected_components(), 1);

        let mut b = GraphBuilder::new();
        b.add_vertex(crate::Label(0));
        b.add_vertex(crate::Label(0));
        let g2 = b.build();
        assert_eq!(g2.connected_components(), 2);
        assert!(!g2.is_connected());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.connected_components(), 0);
        assert!(g.is_connected());
        assert_eq!(g.label_histogram(), Vec::<u32>::new());
        assert_eq!(g.max_label(), None);
    }

    #[test]
    fn edges_iterate_sorted() {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_vertex(crate::Label(0));
        }
        b.add_edge(3, 1).unwrap();
        b.add_edge(2, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn neighbor_labels_sorted() {
        let g = path3();
        assert_eq!(g.neighbor_labels(1), vec![crate::Label(0), crate::Label(0)]);
        assert_eq!(g.neighbor_labels(0), vec![crate::Label(1)]);
    }
}
