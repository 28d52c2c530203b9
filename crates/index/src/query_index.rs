//! Dynamic, bidirectional containment index over cached query graphs.
//!
//! This is the data structure behind GraphCache's Sub/Super Case Processors
//! (paper Fig. 1), in the spirit of iGQ \[10\]: an inverted index from
//! feature hash to `(entry, count)` postings over the *currently cached*
//! queries, supporting insert (admission) and remove (eviction).
//!
//! For a new query `g` with feature vector `F(g)`:
//!
//! * **sub-case candidates** — cached entries `h` that *may contain* `g`
//!   (`g ⊑ h` possible): every feature of `g` must appear in `h` with at
//!   least `g`'s count;
//! * **super-case candidates** — cached entries `h` *possibly contained in*
//!   `g` (`h ⊑ g`): every feature of `h` must appear in `g` with at least
//!   `h`'s count (`Σ min(cnt_h(f), cnt_g(f)) = total(h)`).
//!
//! Both are sound overapproximations; the processors verify candidates with
//! the SI engine.
//!
//! ## Layout
//!
//! Flat postings, no hash maps on the probe path: a churn-proof
//! [`crate::directory`] (sorted hash runs with tombstoned slots and a
//! batched append tail, binary-searched per query feature) indexes posting
//! lists sorted by entry id, so admission/eviction moves at most the small
//! tail run instead of the eager directory's full O(n) memmove per
//! new/drained hash.
//! Sub-case candidacy is a k-way sorted intersection (most selective list
//! first; each step picks two-pointer or galloping by length skew, see
//! [`crate::merge`]). Super-case candidacy reads no postings: each live
//! entry's [fit signature](crate::fit) — its feature total and a one-word
//! feature mask, set at insert — must fit inside the query's, and only
//! then is the entry's own sorted feature list merge-walked against the
//! query's. All per-probe state lives in a caller-owned [`CandScratch`],
//! so the steady-state probe path performs
//! **zero heap allocations** (pinned by `tests/alloc_free.rs`) and is
//! property-tested equal to both the HashMap reference (`RefQueryIndex`)
//! and the eager-directory reference (`EagerQueryIndex`), both in
//! `tests/reference/`.
//!
//! Entry ids are expected to be *slab-dense* (the cache manager reuses
//! evicted slots), since the dense slot table is sized by the maximum live
//! id.

use crate::directory::PostingDir;
use crate::extract::{feature_vec, FeatureConfig, FeatureVec, FeaturesRef};
use crate::fit;
use crate::merge;
use gc_graph::Graph;

/// Identifier of an entry in the cache (assigned by the caller).
pub type EntryId = u32;

/// Reusable probe state for [`QueryIndex::sub_case_candidates_into`] /
/// [`QueryIndex::super_case_candidates_into`]. One per worker; buffers grow
/// to their high-water mark and stay.
#[derive(Debug, Default)]
pub struct CandScratch {
    /// The result of the most recent probe (sorted ascending entry ids).
    out: Vec<EntryId>,
    cur: Vec<EntryId>,
    next: Vec<EntryId>,
    /// `(directory slot, required count)` per query feature, sorted most
    /// selective first.
    lists: Vec<(u32, u32)>,
}

impl CandScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidates computed by the most recent `*_candidates_into` call,
    /// sorted ascending.
    pub fn candidates(&self) -> &[EntryId] {
        &self.out
    }
}

/// Inverted feature index over cached query graphs.
#[derive(Debug)]
pub struct QueryIndex {
    cfg: FeatureConfig,
    /// Tombstoned sorted hash directory over posting lists.
    dir: PostingDir,
    /// Dense slot table indexed by entry id: each live entry's features,
    /// fit signature included.
    slots: Vec<Option<FeatureVec>>,
    live: usize,
    /// Entries whose extraction was truncated: always candidates in both
    /// directions (soundness). Sorted ascending.
    unfiltered: Vec<EntryId>,
}

impl QueryIndex {
    /// New empty index with feature config `cfg`.
    pub fn new(cfg: FeatureConfig) -> Self {
        QueryIndex {
            cfg,
            dir: PostingDir::default(),
            slots: Vec::new(),
            live: 0,
            unfiltered: Vec::new(),
        }
    }

    /// The feature configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.cfg
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.live + self.unfiltered.len()
    }

    /// `true` iff no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct live feature hashes in the directory.
    pub fn distinct_features(&self) -> usize {
        self.dir.live_slots()
    }

    /// Number of tombstoned directory slots awaiting compaction
    /// (diagnostics; bounded by [`crate::COMPACT_TOMBSTONE_PCT`] of the
    /// slots once there are [`crate::COMPACT_MIN`] of them).
    pub fn tombstoned_slots(&self) -> usize {
        self.dir.tombstoned_slots()
    }

    /// Extract the feature vector of a query under this index's config.
    /// Exposed so the runtime can compute it **once per query** and share it
    /// across the sub probe, the super probe and admission.
    pub fn features_of(&self, g: &Graph) -> FeatureVec {
        feature_vec(g, &self.cfg)
    }

    /// The features entry `id` is indexed by; `None` for an unknown id and
    /// for an unfiltered (truncated) entry.
    pub fn features(&self, id: EntryId) -> Option<&FeatureVec> {
        self.slots.get(id as usize)?.as_ref()
    }

    fn contains_id(&self, id: EntryId) -> bool {
        self.slots.get(id as usize).is_some_and(Option::is_some)
            || self.unfiltered.binary_search(&id).is_ok()
    }

    /// Index a cached query graph under `id`.
    ///
    /// # Panics
    /// Panics if `id` is already present (cache ids are unique by
    /// construction; a duplicate indicates a bookkeeping bug upstream).
    pub fn insert(&mut self, id: EntryId, g: &Graph) {
        let fv = self.features_of(g);
        self.insert_features(id, fv);
    }

    /// Index a cached query by a precomputed feature vector (must have been
    /// produced by [`QueryIndex::features_of`] on the same config — the
    /// admission stage passes the vector the probe stage already
    /// extracted).
    pub fn insert_features(&mut self, id: EntryId, fv: FeatureVec) {
        assert!(!self.contains_id(id), "duplicate entry id {id}");
        if fv.truncated() {
            let at = self.unfiltered.binary_search(&id).unwrap_err();
            self.unfiltered.insert(at, id);
            return;
        }
        for &(h, c) in fv.items() {
            self.dir.insert_posting(h, id, c);
        }
        if self.slots.len() <= id as usize {
            self.slots.resize_with(id as usize + 1, || None);
        }
        self.slots[id as usize] = Some(fv);
        self.live += 1;
    }

    /// Remove an entry (cache eviction) and hand back its features — an
    /// empty truncated vector for an unfiltered entry. Unknown ids are
    /// ignored (`None`).
    pub fn remove(&mut self, id: EntryId) -> Option<FeatureVec> {
        if let Ok(pos) = self.unfiltered.binary_search(&id) {
            self.unfiltered.remove(pos);
            return Some(FeaturesRef::new(&[], true).to_feature_vec());
        }
        let features = self.slots.get_mut(id as usize).and_then(Option::take)?;
        self.live -= 1;
        for &(h, _) in features.items() {
            self.dir.remove_posting(h, id);
        }
        Some(features)
    }

    /// Add the (always-candidate) unfiltered entries to the ascending,
    /// disjoint candidate run `out`, keeping it ascending.
    fn add_unfiltered(&self, out: &mut Vec<EntryId>) {
        if !self.unfiltered.is_empty() {
            out.extend_from_slice(&self.unfiltered);
            out.sort_unstable();
        }
    }

    /// Every indexed entry (unfiltered ∪ live slots), ascending, into
    /// `scratch` (the unfilterable-query fallback).
    fn all_entries_into(&self, scratch: &mut CandScratch) {
        scratch.out.clear();
        scratch.out.extend(
            self.slots.iter().enumerate().filter_map(|(id, s)| s.as_ref().map(|_| id as EntryId)),
        );
        self.add_unfiltered(&mut scratch.out);
    }

    /// Cached entries that may *contain* the query (`g ⊑ h` candidates),
    /// written to `scratch` (read them via [`CandScratch::candidates`]).
    ///
    /// `f` must come from an extraction under [`QueryIndex::config`].
    /// Allocation-free once the scratch is warm.
    pub fn sub_case_candidates_into(&self, f: FeaturesRef<'_>, scratch: &mut CandScratch) {
        if f.truncated() || f.is_empty() {
            // Unfilterable query, or the empty query (contained in
            // everything): every entry is a candidate.
            self.all_entries_into(scratch);
            return;
        }
        scratch.lists.clear();
        for &(h, qc) in f.items() {
            match self.dir.find(h) {
                Some(slot) => scratch.lists.push((slot, qc)),
                None => {
                    // A query feature no (filterable) entry has.
                    scratch.out.clear();
                    scratch.out.extend_from_slice(&self.unfiltered);
                    return;
                }
            }
        }
        // Most selective (shortest) posting list first: the running
        // intersection can only shrink, so later merges scan less.
        scratch.lists.sort_unstable_by_key(|&(slot, _)| self.dir.list(slot).len());
        let (s0, qc0) = scratch.lists[0];
        scratch.cur.clear();
        scratch.cur.extend(self.dir.list(s0).iter().filter(|&&(_, c)| c >= qc0).map(|&(e, _)| e));
        for &(slot, qc) in &scratch.lists[1..] {
            if scratch.cur.is_empty() {
                break;
            }
            merge::intersect_adaptive(
                &scratch.cur,
                self.dir.list(slot),
                qc,
                merge::GALLOP_CUTOFF,
                &mut scratch.next,
            );
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        scratch.out.clear();
        scratch.out.extend_from_slice(&scratch.cur);
        self.add_unfiltered(&mut scratch.out);
    }

    /// Cached entries possibly *contained in* the query (`h ⊑ g`
    /// candidates), written to `scratch`. Allocation-free once the scratch
    /// is warm.
    ///
    /// Cost: per live entry, a total cut and a one-word mask test against
    /// the query's; only an entry passing both has its feature list
    /// merge-walked against the query's. No posting list is read.
    pub fn super_case_candidates_into(&self, f: FeaturesRef<'_>, scratch: &mut CandScratch) {
        if f.truncated() {
            self.all_entries_into(scratch);
            return;
        }
        // Entries with no features (empty graphs) qualify trivially.
        let q_total = f.total_count();
        let q_mask = fit::mask(f.items().iter().map(|&(h, _)| h));
        scratch.out.clear();
        for (id, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                if fit::fits(s.total, s.mask, q_total, q_mask)
                    && fit::dominated(s.items(), f.items())
                {
                    scratch.out.push(id as EntryId);
                }
            }
        }
        self.add_unfiltered(&mut scratch.out);
    }

    /// Cached entries that may *contain* the query (`g ⊑ h` candidates),
    /// sorted ascending. Allocating convenience wrapper over
    /// [`QueryIndex::sub_case_candidates_into`].
    pub fn sub_case_candidates(&self, qf: &FeatureVec) -> Vec<EntryId> {
        let mut scratch = CandScratch::new();
        self.sub_case_candidates_into(qf.as_features(), &mut scratch);
        scratch.out
    }

    /// Cached entries possibly *contained in* the query (`h ⊑ g`
    /// candidates), sorted ascending. Allocating convenience wrapper over
    /// [`QueryIndex::super_case_candidates_into`].
    pub fn super_case_candidates(&self, qf: &FeatureVec) -> Vec<EntryId> {
        let mut scratch = CandScratch::new();
        self.super_case_candidates_into(qf.as_features(), &mut scratch);
        scratch.out
    }

    /// Approximate heap footprint in bytes (for the "GC memory is ~1% of the
    /// FTV index" comparison of Experiment II).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.unfiltered.capacity() * std::mem::size_of::<EntryId>()
            + self.dir.memory_bytes()
            + self.slots.capacity() * std::mem::size_of::<Option<FeatureVec>>();
        for features in self.slots.iter().flatten() {
            bytes += features.memory_bytes();
        }
        bytes
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

    fn idx() -> (QueryIndex, Vec<Graph>) {
        let cfg = FeatureConfig::with_max_len(2);
        let cached = vec![
            g(&[0, 1], &[(0, 1)]),                    // 0: edge 0-1
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),         // 1: path 0-1-2
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]), // 2: triangle
            g(&[7], &[]),                             // 3: isolated 7
        ];
        let mut qi = QueryIndex::new(cfg);
        for (i, c) in cached.iter().enumerate() {
            qi.insert(i as EntryId, c);
        }
        (qi, cached)
    }

    #[test]
    fn sub_case_finds_supergraphs() {
        let (qi, cached) = idx();
        // New query = edge 0-1: contained in entries 0, 1, 2.
        let qf = qi.features_of(&g(&[0, 1], &[(0, 1)]));
        let cands = qi.sub_case_candidates(&qf);
        for (e, c) in cached.iter().enumerate() {
            let truly = gc_iso::vf2::exists(&g(&[0, 1], &[(0, 1)]), c);
            if truly {
                assert!(cands.contains(&(e as EntryId)), "missing true sub-case {e}");
            }
        }
        assert!(cands.contains(&0) && cands.contains(&1) && cands.contains(&2));
        assert!(!cands.contains(&3));
    }

    #[test]
    fn super_case_finds_subgraphs() {
        let (qi, _) = idx();
        // New query = triangle 0,1,0 with a pendant 2: entries 0 and 2 are
        // contained in it; entry 1 (path 0-1-2) is too.
        let q = g(&[0, 1, 0, 2], &[(0, 1), (1, 2), (0, 2), (1, 3)]);
        let qf = qi.features_of(&q);
        let cands = qi.super_case_candidates(&qf);
        assert!(cands.contains(&0));
        assert!(cands.contains(&2));
        assert!(!cands.contains(&3)); // label 7 nowhere in q
    }

    #[test]
    fn candidates_are_sorted_ascending() {
        let (qi, _) = idx();
        let qf = qi.features_of(&g(&[0, 1], &[(0, 1)]));
        for cands in [qi.sub_case_candidates(&qf), qi.super_case_candidates(&qf)] {
            assert!(cands.windows(2).all(|w| w[0] < w[1]), "unsorted: {cands:?}");
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let (qi, _) = idx();
        let mut scratch = CandScratch::new();
        let qf = qi.features_of(&g(&[0, 1], &[(0, 1)]));
        qi.sub_case_candidates_into(qf.as_features(), &mut scratch);
        let first = scratch.candidates().to_vec();
        // Interleave a super probe, then repeat the sub probe.
        qi.super_case_candidates_into(qf.as_features(), &mut scratch);
        qi.sub_case_candidates_into(qf.as_features(), &mut scratch);
        assert_eq!(scratch.candidates(), first.as_slice());
    }

    #[test]
    fn remove_unindexes() {
        let (mut qi, _) = idx();
        assert_eq!(qi.len(), 4);
        let fv = qi.features_of(&g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]));
        assert_eq!(qi.remove(2), Some(fv), "the entry's features come back");
        assert_eq!(qi.len(), 3);
        let qf = qi.features_of(&g(&[0, 1], &[(0, 1)]));
        let cands = qi.sub_case_candidates(&qf);
        assert!(!cands.contains(&2));
        // Removing twice (or unknown ids) is a no-op.
        assert_eq!((qi.remove(2), qi.remove(99)), (None, None));
        assert_eq!(qi.len(), 3);
    }

    #[test]
    fn slab_id_reuse_after_remove() {
        let (mut qi, _) = idx();
        qi.remove(1);
        // The cache manager reuses freed slots: re-inserting id 1 must work.
        qi.insert(1, &g(&[9, 9], &[(0, 1)]));
        assert_eq!(qi.len(), 4);
        let qf = qi.features_of(&g(&[9], &[]));
        assert_eq!(qi.sub_case_candidates(&qf), vec![1]);
    }

    #[test]
    #[should_panic(expected = "duplicate entry id")]
    fn duplicate_insert_panics() {
        let (mut qi, _) = idx();
        qi.insert(0, &g(&[0], &[]));
    }

    #[test]
    fn empty_query_semantics() {
        let (qi, _) = idx();
        let qf = qi.features_of(&g(&[], &[]));
        // Empty query is a subgraph of every cached entry...
        assert_eq!(qi.sub_case_candidates(&qf).len(), 4);
        // ...and only contains cached entries that are themselves empty.
        assert!(qi.super_case_candidates(&qf).is_empty());
    }

    #[test]
    fn empty_cached_entry_always_super_candidate() {
        let mut qi = QueryIndex::new(FeatureConfig::default());
        qi.insert(0, &g(&[], &[]));
        let qf = qi.features_of(&g(&[5], &[]));
        assert_eq!(qi.super_case_candidates(&qf), vec![0]);
    }

    #[test]
    fn truncated_entry_tracked_in_unfiltered() {
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        let clique = g(&[0; 8], &edges);
        let cfg = FeatureConfig { max_len: 6, max_paths: 100 };
        let mut qi = QueryIndex::new(cfg);
        qi.insert(5, &clique);
        qi.insert(2, &g(&[1], &[]));
        assert_eq!(qi.len(), 2);
        // The truncated entry is a candidate for any query, in both
        // directions, and the output stays sorted.
        let qf = qi.features_of(&g(&[1], &[]));
        assert_eq!(qi.sub_case_candidates(&qf), vec![2, 5]);
        assert_eq!(qi.super_case_candidates(&qf), vec![2, 5]);
        assert!(qi.remove(5).is_some_and(|fv| fv.truncated() && fv.is_empty()));
        assert_eq!(qi.sub_case_candidates(&qf), vec![2]);
    }

    #[test]
    fn memory_accounting_positive() {
        let (qi, _) = idx();
        assert!(qi.memory_bytes() > 0);
    }

    #[test]
    fn heavy_churn_keeps_candidates_exact() {
        // Cycle 200 admissions/evictions through 8 slab slots with graphs
        // drawn from a wide label alphabet so the directory crosses tail
        // merges and compactions; a final probe must still be exact.
        let cfg = FeatureConfig::with_max_len(2);
        let mut qi = QueryIndex::new(cfg);
        let make =
            |seed: u32| g(&[seed % 97, (seed * 31) % 97, (seed * 7) % 97], &[(0, 1), (1, 2)]);
        for round in 0..200u32 {
            let id = round % 8;
            if round >= 8 {
                qi.remove(id);
            }
            qi.insert(id, &make(round));
        }
        assert_eq!(qi.len(), 8);
        // Entries 192..200 are live; each must be its own sub/super
        // candidate.
        for round in 192..200u32 {
            let qf = qi.features_of(&make(round));
            assert!(qi.sub_case_candidates(&qf).contains(&(round % 8)));
            assert!(qi.super_case_candidates(&qf).contains(&(round % 8)));
        }
    }
}
