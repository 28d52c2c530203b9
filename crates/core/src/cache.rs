//! Cache Manager: storage of cached queries and their lookup structures.

use crate::entry::{CacheEntry, EntryId, EntryStats};
use crate::memo::AnswerRows;
use gc_graph::{BitSet, Graph};
use gc_index::{FeatureConfig, QueryIndex};
use gc_iso::GraphProfile;
use gc_method::QueryKind;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by WL fingerprint. The key is already a mixed 64-bit hash,
/// so [`FingerprintHasher`] passes it through instead of re-hashing it.
/// Queries whose fingerprints were crafted to collide cost at most a probe
/// over one shard's entries and answer-only rows, both bounded by the
/// cache's capacity.
pub(crate) type FingerprintMap<V> = HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>;

/// The identity hasher of a [`FingerprintMap`], up to a rotation: the low
/// bits pick a fingerprint's shard (`fp % shards`), so they are constant
/// within one shard's maps, and the rotation keeps them from also picking
/// the bucket.
#[derive(Debug, Default)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a fingerprint map hashes u64 keys only");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp.rotate_left(32);
    }
}

/// Owns the cached entries, the WL-fingerprint table (exact-match hits) and
/// the containment [`QueryIndex`] (sub/super-case hits).
///
/// Entry ids are slab slots: dense, reused after eviction. Beside the
/// entries it keeps **answer-only rows** (evicted entries, queries
/// admission rejected; `memo.rs` holds them) by fingerprint, in a FIFO the
/// caller bounds; only [`crate::pipeline::probe::find_exact`] sees them.
#[derive(Debug)]
pub struct CacheManager {
    slots: Vec<Option<CacheEntry>>,
    free: Vec<EntryId>,
    by_fingerprint: FingerprintMap<Vec<EntryId>>,
    index: QueryIndex,
    live: usize,
    rows: AnswerRows,
}

impl CacheManager {
    /// New empty cache whose query index extracts features under `cfg`;
    /// the runtime's shards use `FeatureConfig::default()`.
    pub fn new(cfg: FeatureConfig) -> Self {
        CacheManager {
            slots: Vec::new(),
            free: Vec::new(),
            by_fingerprint: FingerprintMap::default(),
            index: QueryIndex::new(cfg),
            live: 0,
            rows: AnswerRows::default(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of answer-only rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Access an entry; `None` for evicted/unknown ids.
    pub fn get(&self, id: EntryId) -> Option<&CacheEntry> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    /// Mutable access to an entry (Statistics Manager updates).
    pub fn get_mut(&mut self, id: EntryId) -> Option<&mut CacheEntry> {
        self.slots.get_mut(id as usize).and_then(Option::as_mut)
    }

    /// The containment index over cached queries.
    pub fn index(&self) -> &QueryIndex {
        &self.index
    }

    /// Iterate over live entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Ids of live entries in slot order.
    pub fn ids(&self) -> Vec<EntryId> {
        self.iter().map(|e| e.id).collect()
    }

    /// Entries whose fingerprint equals `fp` (exact-match bucket; confirm
    /// with isomorphism).
    pub fn fingerprint_bucket(&self, fp: u64) -> &[EntryId] {
        self.by_fingerprint.get(&fp).map_or(&[], Vec::as_slice)
    }

    /// Everything stored under fingerprint `fp`: the entries, then the
    /// answer-only rows (marked `true`), whose map is only looked up once
    /// the entries are exhausted — an entry hit pays one hash lookup.
    pub(crate) fn exact_bucket(&self, fp: u64) -> impl Iterator<Item = (&CacheEntry, bool)> {
        let entries = self.fingerprint_bucket(fp).iter();
        let entries = entries.map(|&id| (self.get(id).expect("bucket holds live entries"), false));
        let rows = std::iter::once(fp).flat_map(|fp| self.rows.bucket(fp));
        entries.chain(rows.map(|row| (row, true)))
    }

    /// Insert a new entry; returns its id. Computes the entry's fingerprint,
    /// profile and features here — prefer [`Self::insert_with_features`]
    /// when the pipeline already has them.
    pub fn insert(
        &mut self,
        graph: Graph,
        kind: QueryKind,
        answer: BitSet,
        base_tests: u64,
        base_cost: u64,
        now: u64,
    ) -> EntryId {
        let fp = gc_graph::hash::fingerprint(&graph);
        let profile = GraphProfile::new(&graph, None);
        let fv = self.index.features_of(&graph);
        self.insert_with_features(graph, profile, kind, answer, base_tests, base_cost, now, fp, fv)
    }

    /// Insert a new entry whose `profile` ([`GraphProfile::new`], no label
    /// frequencies), WL `fingerprint` and feature vector (by
    /// [`gc_index::QueryIndex::features_of`] under this cache's config) were
    /// already computed: the admit stage passes the query's own, so each is
    /// derived once per query.
    #[allow(clippy::too_many_arguments)] // mirrors `insert` + the three precomputed values
    pub fn insert_with_features(
        &mut self,
        graph: Graph,
        profile: GraphProfile,
        kind: QueryKind,
        answer: BitSet,
        base_tests: u64,
        base_cost: u64,
        now: u64,
        fingerprint: u64,
        features: gc_index::FeatureVec,
    ) -> EntryId {
        debug_assert_eq!(fingerprint, gc_graph::hash::fingerprint(&graph));
        self.rows.free_dropped();
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as EntryId
            }
        };
        self.index.insert_features(id, features);
        self.by_fingerprint.entry(fingerprint).or_default().push(id);
        self.slots[id as usize] = Some(CacheEntry::new(
            id,
            graph,
            profile,
            kind,
            answer,
            fingerprint,
            base_tests,
            base_cost,
            EntryStats { inserted_at: now, last_used: now, ..EntryStats::default() },
        ));
        self.live += 1;
        id
    }

    /// Remove an entry; returns it if it was live.
    pub fn remove(&mut self, id: EntryId) -> Option<CacheEntry> {
        let entry = self.slots.get_mut(id as usize)?.take()?;
        self.live -= 1;
        self.free.push(id);
        self.index.remove(id);
        if let Some(bucket) = self.by_fingerprint.get_mut(&entry.fingerprint) {
            bucket.retain(|&e| e != id);
            if bucket.is_empty() {
                self.by_fingerprint.remove(&entry.fingerprint);
            }
        }
        Some(entry)
    }

    /// Evict entry `id` by demoting it to an answer-only row (see
    /// [`Self::push_row`]); `false` if it is not a live entry.
    pub(crate) fn demote(&mut self, id: EntryId, bound: usize) -> bool {
        let Some(entry) = self.remove(id) else { return false };
        self.push_row(entry, bound);
        true
    }

    /// Store `row` as an answer-only row, keeping the newest `bound` rows
    /// (`0` stores nothing).
    pub(crate) fn push_row(&mut self, row: CacheEntry, bound: usize) {
        self.rows.push(row, bound);
    }

    /// Drop every answer-only row. They are freed by the next admission,
    /// not here: a mutation calls this on every shard under its locks.
    pub(crate) fn clear_rows(&mut self) {
        self.rows.clear();
    }

    /// Approximate heap bytes of all cached entries plus lookup structures —
    /// the "GC memory" side of Experiment II.
    pub fn memory_bytes(&self) -> usize {
        let entries: usize = self.iter().map(CacheEntry::memory_bytes).sum();
        entries + self.index.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn insert_simple(cm: &mut CacheManager, labels: &[u32]) -> EntryId {
        let graph = g(labels, &[]);
        cm.insert(graph, QueryKind::Subgraph, BitSet::new(4), 4, 10, 0)
    }

    #[test]
    fn insert_get_remove() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        let a = insert_simple(&mut cm, &[0]);
        let b = insert_simple(&mut cm, &[1]);
        assert_eq!(cm.len(), 2);
        assert_eq!(cm.get(a).unwrap().id, a);
        let removed = cm.remove(a).unwrap();
        assert_eq!(removed.id, a);
        assert!(cm.get(a).is_none());
        assert_eq!(cm.len(), 1);
        assert!(cm.remove(a).is_none());
        assert_eq!(cm.get(b).unwrap().graph.label(0), Label(1));
    }

    #[test]
    fn slot_reuse() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        let a = insert_simple(&mut cm, &[0]);
        cm.remove(a);
        let c = insert_simple(&mut cm, &[2]);
        assert_eq!(c, a, "slab must reuse freed slot");
        assert_eq!(cm.len(), 1);
    }

    #[test]
    fn fingerprint_buckets_track_entries() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        let graph = g(&[0, 1], &[(0, 1)]);
        let fp = gc_graph::hash::fingerprint(&graph);
        let id = cm.insert(graph, QueryKind::Subgraph, BitSet::new(2), 1, 1, 0);
        assert_eq!(cm.fingerprint_bucket(fp), &[id]);
        cm.remove(id);
        assert!(cm.fingerprint_bucket(fp).is_empty());
    }

    #[test]
    fn index_stays_in_sync() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        let id = cm.insert(g(&[0, 1], &[(0, 1)]), QueryKind::Subgraph, BitSet::new(2), 1, 1, 0);
        let qf = cm.index().features_of(&g(&[0, 1], &[(0, 1)]));
        assert_eq!(cm.index().sub_case_candidates(&qf), vec![id]);
        cm.remove(id);
        assert!(cm.index().sub_case_candidates(&qf).is_empty());
    }

    #[test]
    fn insert_with_features_matches_insert() {
        // The admission path reuses the probe stage's extraction; the index
        // must end up identical to the self-extracting insert.
        let graph = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let mut a = CacheManager::new(FeatureConfig::default());
        let ida = a.insert(graph.clone(), QueryKind::Subgraph, BitSet::new(4), 4, 10, 0);
        let mut b = CacheManager::new(FeatureConfig::default());
        let fv = b.index().features_of(&graph);
        let idb = b.insert_with_features(
            graph.clone(),
            GraphProfile::new(&graph, None),
            QueryKind::Subgraph,
            BitSet::new(4),
            4,
            10,
            0,
            gc_graph::hash::fingerprint(&graph),
            fv,
        );
        assert_eq!(ida, idb);
        let qf = a.index().features_of(&g(&[0, 1], &[(0, 1)]));
        assert_eq!(a.index().sub_case_candidates(&qf), b.index().sub_case_candidates(&qf));
        assert_eq!(a.index().super_case_candidates(&qf), b.index().super_case_candidates(&qf));
        b.remove(idb);
        assert!(b.index().sub_case_candidates(&qf).is_empty());
    }

    #[test]
    fn iteration_and_memory() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        insert_simple(&mut cm, &[0]);
        insert_simple(&mut cm, &[1]);
        assert_eq!(cm.iter().count(), 2);
        assert_eq!(cm.ids().len(), 2);
        assert!(cm.memory_bytes() > 0);
    }

    #[test]
    fn rows_are_bounded_and_invisible_to_the_entry_views() {
        let mut cm = CacheManager::new(FeatureConfig::default());
        let ids: Vec<EntryId> = (0..4).map(|l| insert_simple(&mut cm, &[l])).collect();
        let qf = cm.index().features_of(&g(&[0], &[]));
        assert!(cm.demote(ids[0], 2) && !cm.demote(ids[0], 2), "a row is no entry");
        assert!(cm.index().super_case_candidates(&qf).is_empty(), "no postings");
        assert!(cm.get(ids[0]).is_none() && !cm.ids().contains(&ids[0]));
        assert_eq!((cm.len(), cm.iter().count(), cm.row_count()), (3, 3, 1));
        let rows = |cm: &CacheManager, l: u32| {
            let fp = gc_graph::hash::fingerprint(&g(&[l], &[]));
            cm.exact_bucket(fp).filter(|&(_, row)| row).count()
        };
        assert_eq!(rows(&cm, 0), 1);
        // The FIFO keeps the newest rows; bound 0 stores nothing.
        assert!(cm.demote(ids[1], 2) && cm.demote(ids[2], 2) && cm.demote(ids[3], 0));
        assert_eq!([0, 1, 2, 3].map(|l| rows(&cm, l)), [0, 1, 1, 0]);
        assert_eq!((cm.len(), cm.row_count()), (0, 2));
        cm.clear_rows();
        assert_eq!([1, 2].map(|l| rows(&cm, l)), [0, 0]);
        assert_eq!(cm.row_count(), 0);
    }
}
