//! Answer-only rows: the exact-answer tier behind the cached entries.
//!
//! A row is a [`CacheEntry`] without index postings or policy state — an
//! entry the replacement sweep evicted, or a query the admission filter
//! rejected — kept by WL fingerprint so a repeat (or an isomorph) of it is
//! answered without running Method M. Each [`crate::CacheManager`] owns one
//! [`AnswerRows`]; only [`crate::pipeline::probe::find_exact`] reads it,
//! after the entry bucket missed, and confirms a row by
//! [`gc_iso::iso::confirm_isomorphic`] exactly as it confirms an entry, so
//! a fingerprint collision cannot leak a wrong answer.
//!
//! ## Correctness
//!
//! Rows are exact without a generation stamp: every dataset mutation drops
//! every row under the runtime's locks (see
//! [`crate::SharedGraphCache::insert_graph`]), so a row is only ever served
//! against the dataset generation it was computed on. Dropped rows are
//! freed by the shard's next admission, not by the mutation.

use crate::cache::FingerprintMap;
use crate::entry::CacheEntry;
use std::collections::VecDeque;

/// Answer-only rows by fingerprint, in one FIFO the caller bounds (see
/// module docs). A row's `id` is stale.
#[derive(Debug, Default)]
pub(crate) struct AnswerRows {
    rows: FingerprintMap<Vec<CacheEntry>>,
    /// The rows' fingerprints, oldest first.
    order: VecDeque<u64>,
    /// Rows the last [`Self::clear`] dropped, freed by [`Self::free_dropped`].
    dropped: FingerprintMap<Vec<CacheEntry>>,
}

impl AnswerRows {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The rows stored under fingerprint `fp`, oldest first.
    pub(crate) fn bucket(&self, fp: u64) -> impl Iterator<Item = &CacheEntry> {
        self.rows.get(&fp).into_iter().flatten()
    }

    /// Store `row`, keeping the newest `bound` rows (`0` stores nothing).
    pub(crate) fn push(&mut self, row: CacheEntry, bound: usize) {
        if bound == 0 {
            return;
        }
        self.order.push_back(row.fingerprint);
        self.rows.entry(row.fingerprint).or_default().push(row);
        while self.order.len() > bound {
            let fp = self.order.pop_front().expect("more rows than the bound");
            let bucket = self.rows.get_mut(&fp).expect("every listed row is stored");
            bucket.remove(0); // a bucket's rows are in FIFO order too
            if bucket.is_empty() {
                self.rows.remove(&fp);
            }
        }
    }

    /// Drop every row; their memory is kept until [`Self::free_dropped`].
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.dropped = std::mem::take(&mut self.rows);
    }

    /// Free the rows the last [`Self::clear`] dropped.
    pub(crate) fn free_dropped(&mut self) {
        self.dropped.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::pipeline::probe::find_exact;
    use crate::pipeline::FastTier;
    use crate::{CacheConfig, CacheManager, PolicyKind, SharedGraphCache};
    use gc_graph::hash::fingerprint;
    use gc_graph::{graph_from_parts, BitSet, Graph, Label};
    use gc_index::FeatureConfig;
    use gc_method::{Dataset, QueryKind, SiMethod};
    use std::sync::Arc;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    /// Store `q` as a subgraph-query row with `answer` and `base_tests`.
    fn store(cm: &mut CacheManager, q: &Graph, answer: &BitSet, base_tests: u64) {
        let id = cm.insert(q.clone(), QueryKind::Subgraph, answer.clone(), base_tests, 1, 0);
        assert!(cm.demote(id, 4));
    }

    /// A row's answer, `base_tests` and confirmation steps for `q`.
    fn lookup(cm: &CacheManager, q: &Graph, kind: QueryKind) -> Option<(BitSet, u64, u64)> {
        let (row, tier, steps) = find_exact(cm, fingerprint(q), q, kind)?;
        assert_eq!(tier, FastTier::Memo, "only rows are stored here");
        Some((row.answer().clone(), row.base_tests, steps))
    }

    /// A cache whose admission filter rejects every query, so each executed
    /// query is stored as a row.
    fn rejecting_cache(graphs: Vec<Graph>) -> SharedGraphCache {
        let config = CacheConfig { min_admit_tests: usize::MAX, ..CacheConfig::default() };
        let ds = Arc::new(Dataset::new(graphs));
        SharedGraphCache::with_policy(ds, Box::new(SiMethod), PolicyKind::Hd, config).unwrap()
    }

    #[test]
    fn memoizes_and_confirms_isomorphism() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        let q = g(&[0, 1], &[(0, 1)]);
        let answer = BitSet::from_indices(4, [1usize, 3]);
        assert!(lookup(&cm, &q, QueryKind::Subgraph).is_none());
        store(&mut cm, &q, &answer, 7);
        // The identical presentation hits without an isomorphism search …
        assert_eq!(lookup(&cm, &q.clone(), QueryKind::Subgraph), Some((answer.clone(), 7, 0)));
        // … an isomorphic relabeling of the same query hits through one.
        let q_iso = g(&[1, 0], &[(0, 1)]);
        let (hit, _, steps) = lookup(&cm, &q_iso, QueryKind::Subgraph).expect("row hit");
        assert_eq!(hit, answer);
        assert!(steps > 0, "a different presentation is confirmed by search");
        // Other kind misses.
        assert!(lookup(&cm, &q, QueryKind::Supergraph).is_none());
    }

    #[test]
    fn fingerprint_collisions_are_confirmed_apart() {
        // 1-WL gives a hexagon and two triangles the same fingerprint, so
        // their rows share a bucket; only the stored one may hit.
        let c6 = g(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let two_c3 = g(&[0; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_eq!(fingerprint(&c6), fingerprint(&two_c3));
        let mut cm = CacheManager::new(FeatureConfig::default());
        store(&mut cm, &c6, &BitSet::from_indices(2, [0usize]), 2);
        assert!(lookup(&cm, &two_c3, QueryKind::Subgraph).is_none());
        store(&mut cm, &two_c3, &BitSet::from_indices(2, [1usize]), 2);
        assert_eq!(cm.row_count(), 2, "not a duplicate of the hexagon");
        assert_eq!(lookup(&cm, &two_c3, QueryKind::Subgraph).unwrap().0.to_vec(), [1]);
        assert_eq!(lookup(&cm, &c6, QueryKind::Subgraph).unwrap().0.to_vec(), [0]);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let gc = rejecting_cache(vec![g(&[0, 1], &[(0, 1)]), g(&[2], &[])]);
        let (q, kind) = (g(&[0], &[]), QueryKind::Subgraph);
        assert!(!gc.query(&q, kind).memo_hit);
        assert!(!gc.query(&g(&[2], &[]), kind).memo_hit);
        assert_eq!((gc.len(), gc.memo_len()), (0, 2), "rejected queries are stored as rows");
        assert!(gc.query(&q, kind).memo_hit);
        // A mutation moves the dataset to a new generation and drops every
        // row, so the repeat is executed against the new dataset.
        let generation = gc.dataset().generation();
        let gid = gc.insert_graph(g(&[0], &[]));
        assert!(gc.dataset().generation() > generation);
        assert_eq!(gc.memo_len(), 0, "every row dropped");
        let again = gc.query(&q, kind);
        assert!(!again.memo_hit, "the new generation misses");
        assert_eq!(again.answer.to_vec(), [0, gid as usize]);
        assert!(gc.query(&q, kind).memo_hit, "and stores a row of the new generation");
        assert!(gc.remove_graph(gid));
        assert_eq!(gc.memo_len(), 0, "a removal drops every row too");
    }

    #[test]
    fn duplicate_store_is_idempotent() {
        let gc = rejecting_cache(vec![g(&[0, 1], &[(0, 1)]), g(&[1, 0, 1], &[(0, 1), (1, 2)])]);
        let kind = QueryKind::Subgraph;
        let first = gc.query(&g(&[0, 1], &[(0, 1)]), kind);
        assert!(!first.memo_hit);
        // An isomorph is answered by the stored row, not stored again.
        let iso = gc.query(&g(&[1, 0], &[(0, 1)]), kind);
        assert!(iso.memo_hit);
        assert_eq!(iso.answer, first.answer);
        assert_eq!(gc.memo_len(), 1, "isomorphic duplicate not stored twice");
    }
}
