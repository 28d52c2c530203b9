//! Cache Manager: storage of cached queries and their lookup structures.

use crate::entry::{CacheEntry, EntryId, EntryStats};
use crate::memo::{AnswerRows, Row};
use gc_graph::{BitSet, Graph, GraphId};
use gc_index::{FeatureConfig, FeatureVec, QueryIndex};
use gc_iso::{GraphProfile, VfScratch};
use gc_method::{Dataset, Engine, QueryKind};
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
/// caller bounds; only [`crate::pipeline::probe::find_exact`] serves them,
/// and a dataset mutation repairs them with the entries.
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

    /// Remove an entry; returns it, with the features it was indexed by, if
    /// it was live.
    pub fn remove(&mut self, id: EntryId) -> Option<(CacheEntry, FeatureVec)> {
        let entry = self.slots.get_mut(id as usize)?.take()?;
        self.live -= 1;
        self.free.push(id);
        let features = self.index.remove(id).expect("live entries are indexed");
        if let Some(bucket) = self.by_fingerprint.get_mut(&entry.fingerprint) {
            bucket.retain(|&e| e != id);
            if bucket.is_empty() {
                self.by_fingerprint.remove(&entry.fingerprint);
            }
        }
        Some((entry, features))
    }

    /// Evict entry `id` by demoting it to an answer-only row that keeps its
    /// index features (see [`Self::push_row`]); `false` if it is not a live
    /// entry.
    pub(crate) fn demote(&mut self, id: EntryId, bound: usize) -> bool {
        let Some((entry, features)) = self.remove(id) else { return false };
        self.push_row(entry, features, bound);
        true
    }

    /// Store `row` with its query's `features` (under this cache's config)
    /// as an answer-only row, keeping the newest `bound` rows (`0` stores
    /// nothing).
    pub(crate) fn push_row(&mut self, row: CacheEntry, features: FeatureVec, bound: usize) {
        self.rows.push(Row { entry: row, features }, bound);
    }

    /// Every entry and every answer-only row, for a repair that treats them
    /// alike.
    pub(crate) fn records_mut(&mut self) -> impl Iterator<Item = &mut CacheEntry> {
        let rows = self.rows.iter_mut().map(|row| &mut row.entry);
        self.slots.iter_mut().flatten().chain(rows)
    }

    /// Repair every entry and row for dataset graph `gid`, whose bit they
    /// must not hold yet and whose `features` were extracted under this
    /// cache's config: grow each answer to the dataset's universe, and add
    /// `gid` where the record's query and the graph are contained the way
    /// the record's kind asks. The containment test runs only where the
    /// path counts admit containment, read from the record's own features
    /// (an entry's index slot, a row's copy); truncated features admit
    /// everything.
    pub(crate) fn repair_inserted(
        &mut self,
        dataset: &Dataset,
        gid: GraphId,
        features: &FeatureVec,
        vf: &mut VfScratch,
    ) {
        let mut repair = |record: &mut CacheEntry, own: Option<&FeatureVec>| {
            record.grow_answer(dataset.len());
            let admitted = own.is_none_or(|own| admits(record.kind, own, features));
            if admitted && record.answers_inserted(dataset, gid, Engine::Vf2, vf) {
                record.set_answer(gid as usize, true);
            }
        };
        for entry in self.slots.iter_mut().flatten() {
            repair(entry, self.index.features(entry.id));
        }
        for Row { entry, features } in self.rows.iter_mut() {
            repair(entry, Some(features));
        }
    }

    /// Every entry and every answer-only row (invariant checks).
    #[cfg(test)]
    pub(crate) fn records(&self) -> impl Iterator<Item = &CacheEntry> {
        self.iter().chain(self.rows.iter().map(|row| &row.entry))
    }

    /// Approximate heap bytes of all cached entries plus lookup structures —
    /// the "GC memory" side of Experiment II.
    pub fn memory_bytes(&self) -> usize {
        let entries: usize = self.iter().map(CacheEntry::memory_bytes).sum();
        entries + self.index.memory_bytes()
    }
}

/// `false` only if the path counts rule out that a record of `kind`, whose
/// query has features `own`, and a graph with `features` are contained the
/// way the kind asks. Truncated features admit everything.
fn admits(kind: QueryKind, own: &FeatureVec, features: &FeatureVec) -> bool {
    features.truncated()
        || own.truncated()
        || match kind {
            QueryKind::Subgraph => features.dominates(own),
            QueryKind::Supergraph => own.dominates(features),
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
        let (removed, _) = cm.remove(a).unwrap();
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The repair prefilter is sound: where a record's features reject a
        /// graph, VF2 finds no containment, and the containment index over
        /// the entries decides the same; `repair_inserted` then sets exactly
        /// the bits VF2 sets, for an entry and for a row of either kind.
        /// Records and inserted graphs are molecules, fragments cut from
        /// them and random graphs over two labels.
        #[test]
        fn prefilter_rejections_are_never_containments(
            seed in proptest::prelude::any::<u64>(),
            edges in 2usize..8,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut graphs = gc_workload::molecule_dataset(3, seed);
            for m in graphs.clone() {
                graphs.extend(gc_workload::extract_query(&m, edges, &mut rng));
            }
            graphs.push(gc_workload::random::erdos_renyi(5, 0.5, 2, &mut rng));
            graphs.push(gc_workload::random::erdos_renyi(9, 0.4, 2, &mut rng));
            let cfg = FeatureConfig::default();
            let features: Vec<FeatureVec> =
                graphs.iter().map(|g| gc_index::feature_vec(g, &cfg)).collect();
            let mut vf = VfScratch::new();
            for (gi, g) in graphs.iter().enumerate() {
                let dataset = Dataset::new(vec![g.clone()]);
                for (qi, q) in graphs.iter().enumerate() {
                    for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                        let contained = match kind {
                            QueryKind::Subgraph => Engine::Vf2.verify(q, g).0,
                            QueryKind::Supergraph => Engine::Vf2.verify(g, q).0,
                        };
                        let admitted = admits(kind, &features[qi], &features[gi]);
                        proptest::prop_assert!(admitted || !contained, "{:?} {} {}", kind, qi, gi);
                        let mut entry = CacheManager::new(cfg);
                        let id = entry.insert(q.clone(), kind, BitSet::new(0), 1, 1, 0);
                        let (index, fg) = (entry.index(), &features[gi]);
                        let by_index = match kind {
                            QueryKind::Subgraph => index.super_case_candidates(fg),
                            QueryKind::Supergraph => index.sub_case_candidates(fg),
                        };
                        proptest::prop_assert_eq!(by_index.contains(&id), admitted);
                        let mut row = CacheManager::new(cfg);
                        let rid = row.insert(q.clone(), kind, BitSet::new(0), 1, 1, 0);
                        proptest::prop_assert!(row.demote(rid, 1));
                        for cm in [&mut entry, &mut row] {
                            cm.repair_inserted(&dataset, 0, &features[gi], &mut vf);
                            let record = cm.records().next().expect("one record");
                            proptest::prop_assert_eq!(record.answer().contains(0), contained);
                        }
                    }
                }
            }
        }
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
        assert_eq!(cm.records_mut().count(), 2, "repair reaches the rows");
    }
}
