//! Filter-then-verify method over the path-trie index.

use crate::{Dataset, Method, QueryKind};
use gc_graph::{BitSet, Graph};
use gc_index::{FeatureConfig, PathTrie, TrieScratch};
use std::cell::RefCell;

thread_local! {
    /// Per-thread trie probe scratch: `Method::filter` is `&self` (shared
    /// across worker threads), so the reusable enumeration/intersection
    /// buffers live thread-locally. Only the output bitset is allocated per
    /// query.
    static FILTER_SCRATCH: RefCell<TrieScratch> = RefCell::new(TrieScratch::new());
}

/// A GraphGrepSX-style FTV method: a [`PathTrie`] over labelled paths up to
/// `L` edges filters the dataset; survivors are verified.
///
/// `L` is the paper's *feature size*: Experiment II rebuilds this method with
/// `L + 1` to trade roughly doubled index space for ~10% faster queries.
#[derive(Debug)]
pub struct FtvMethod {
    trie: PathTrie,
    max_len: usize,
}

impl FtvMethod {
    /// Build the index over `dataset` with maximum feature size `max_len`
    /// (in edges).
    pub fn build(dataset: &Dataset, max_len: usize) -> Self {
        let trie = PathTrie::build(dataset.graphs(), FeatureConfig::with_max_len(max_len));
        FtvMethod { trie, max_len }
    }

    /// The feature size `L` this index was built with.
    pub fn feature_size(&self) -> usize {
        self.max_len
    }

    /// Access the underlying trie (for diagnostics and benches).
    pub fn trie(&self) -> &PathTrie {
        &self.trie
    }
}

impl Method for FtvMethod {
    fn name(&self) -> String {
        format!("ftv(L={})", self.max_len)
    }

    fn filter(&self, _dataset: &Dataset, query: &Graph, kind: QueryKind) -> BitSet {
        FILTER_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let mut out = BitSet::new(self.trie.dataset_size());
            match kind {
                QueryKind::Subgraph => self.trie.candidates_into(query, scratch, &mut out),
                QueryKind::Supergraph => self.trie.super_candidates_into(query, scratch, &mut out),
            }
            out
        })
    }

    fn index_memory_bytes(&self) -> usize {
        self.trie.memory_bytes()
    }

    fn on_insert_graph(&self, _dataset: &Dataset, _gid: gc_graph::GraphId) -> bool {
        // The arena trie is frozen at build time; the runtime force-includes
        // inserted graphs as candidates instead (sound, but until a rebuild
        // every inserted graph is one extra candidate on every filtered
        // query, subgraph and supergraph alike).
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> gc_graph::Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn ds() -> Dataset {
        Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
        ])
    }

    #[test]
    fn filters_both_kinds() {
        let d = ds();
        let m = FtvMethod::build(&d, 2);
        let q = g(&[0, 1], &[(0, 1)]);
        let sub = m.filter(&d, &q, QueryKind::Subgraph);
        assert_eq!(sub.to_vec(), vec![0, 1]);
        // Supergraph query: which graphs fit inside the edge 0-1? None of the
        // 3-vertex graphs; the 3-3 edge has wrong labels.
        let sup = m.filter(&d, &q, QueryKind::Supergraph);
        assert!(sup.is_empty());
    }

    #[test]
    fn filter_beats_si_on_selectivity() {
        let d = ds();
        let ftv = FtvMethod::build(&d, 2);
        let q = g(&[9], &[]);
        assert!(ftv.filter(&d, &q, QueryKind::Subgraph).is_empty());
        assert_eq!(crate::SiMethod.filter(&d, &q, QueryKind::Subgraph).count(), 3);
    }

    #[test]
    fn name_and_memory() {
        let d = ds();
        let m1 = FtvMethod::build(&d, 1);
        let m3 = FtvMethod::build(&d, 3);
        assert_eq!(m1.name(), "ftv(L=1)");
        assert_eq!(m1.feature_size(), 1);
        assert!(m3.index_memory_bytes() >= m1.index_memory_bytes());
    }
}
