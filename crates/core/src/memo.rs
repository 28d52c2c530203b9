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
//! Rows are exact without a generation stamp: every dataset mutation
//! repairs every row in place, exactly as it repairs the entries and under
//! the same locks (see [`crate::SharedGraphCache::insert_graph`]), so a
//! row's answer is always Method M's on the current generation. A row keeps
//! the path features of its query (moved from the demoted entry's index
//! slot, or from the rejected query's extraction) so that repair runs a
//! containment test only where the path counts allow one.

use crate::cache::FingerprintMap;
use crate::entry::CacheEntry;
use gc_index::FeatureVec;
use std::collections::VecDeque;

/// One answer-only row: the entry it stores and its query's features.
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) entry: CacheEntry,
    pub(crate) features: FeatureVec,
}

/// Answer-only rows by fingerprint, in one FIFO the caller bounds (see
/// module docs). A row's `id` is stale.
#[derive(Debug, Default)]
pub(crate) struct AnswerRows {
    rows: FingerprintMap<Vec<Row>>,
    /// The rows' fingerprints, oldest first.
    order: VecDeque<u64>,
}

impl AnswerRows {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The rows stored under fingerprint `fp`, oldest first.
    pub(crate) fn bucket(&self, fp: u64) -> impl Iterator<Item = &CacheEntry> {
        self.rows.get(&fp).into_iter().flatten().map(|row| &row.entry)
    }

    /// Every row, for repair.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Row> {
        self.rows.values_mut().flatten()
    }

    /// Every row (invariant checks).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.values().flatten()
    }

    /// Store `row`, keeping the newest `bound` rows (`0` stores nothing).
    pub(crate) fn push(&mut self, row: Row, bound: usize) {
        if bound == 0 {
            return;
        }
        let fp = row.entry.fingerprint;
        self.order.push_back(fp);
        self.rows.entry(fp).or_default().push(row);
        while self.order.len() > bound {
            let fp = self.order.pop_front().expect("more rows than the bound");
            let bucket = self.rows.get_mut(&fp).expect("every listed row is stored");
            bucket.remove(0); // a bucket's rows are in FIFO order too
            if bucket.is_empty() {
                self.rows.remove(&fp);
            }
        }
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
    use gc_method::{Dataset, Engine, QueryKind, SiMethod};
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

    /// A mutation repairs every row in place: the repeat stays a zero-work
    /// memo hit, with Method M's answer on the new generation.
    #[test]
    fn generation_bump_repairs_every_row() {
        let gc = rejecting_cache(vec![g(&[0, 1], &[(0, 1)]), g(&[2], &[])]);
        let (q, kind) = (g(&[0], &[]), QueryKind::Subgraph);
        assert!(!gc.query(&q, kind).memo_hit);
        assert!(!gc.query(&g(&[2], &[]), kind).memo_hit);
        assert_eq!((gc.len(), gc.memo_len()), (0, 2), "rejected queries are stored as rows");
        assert!(gc.query(&q, kind).memo_hit);
        let repeat_is_repaired = |gc: &SharedGraphCache| {
            let r = gc.query(&q, kind);
            assert!(r.memo_hit, "the row survives the mutation");
            assert_eq!((r.sub_iso_tests, r.probe_tests, r.verify_steps), (0, 0, 0));
            let want = gc_method::execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, kind);
            assert_eq!(r.answer, want.answer, "Method M's answer on the new generation");
            r.answer.to_vec()
        };
        let generation = gc.dataset().generation();
        let gid = gc.insert_graph(g(&[0], &[]));
        assert!(gc.dataset().generation() > generation);
        assert_eq!(gc.memo_len(), 2, "no row dropped");
        assert_eq!(repeat_is_repaired(&gc), [0, gid as usize]);
        // A graph the row's query does not embed in stays out of it.
        let other = gc.insert_graph(g(&[3], &[]));
        assert_eq!(repeat_is_repaired(&gc), [0, gid as usize]);
        assert!(gc.remove_graph(0) && gc.remove_graph(other));
        assert_eq!(repeat_is_repaired(&gc), [gid as usize]);
        assert_eq!(gc.memo_len(), 2);
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
