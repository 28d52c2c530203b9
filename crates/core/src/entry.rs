//! Cached query entries.

use gc_graph::{BitSet, Graph};
use gc_iso::{GraphProfile, VerifyCtx, VfScratch};
use gc_method::QueryKind;
use std::sync::{Arc, OnceLock};

/// Identifier of a cache entry. Stable for the entry's lifetime; ids are
/// reused after eviction (slab allocation) — dashboards show them as the
/// "graph ids" of Figures 2(c) and 3.
pub type EntryId = u32;

/// Per-entry bookkeeping the Statistics Manager maintains.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EntryStats {
    /// Logical time (query sequence number) the entry was admitted.
    pub inserted_at: u64,
    /// Logical time of the last hit this entry contributed to.
    pub last_used: u64,
    /// Exact-match hits served.
    pub exact_hits: u64,
    /// Hits where the new query was a subgraph of this entry.
    pub sub_hits: u64,
    /// Hits where this entry was a subgraph of the new query.
    pub super_hits: u64,
    /// Total sub-iso tests this entry saved other queries.
    pub tests_saved: u64,
    /// Total estimated verifier steps this entry saved other queries.
    pub cost_saved: f64,
}

impl EntryStats {
    /// Total hits of any kind.
    pub fn total_hits(&self) -> u64 {
        self.exact_hits + self.sub_hits + self.super_hits
    }
}

/// The served text of one version of an entry's answer set: its ids as
/// [`BitSet::write_ids`] renders them, filled by the first reader that needs
/// it (the HTTP server) and shared by every later one.
///
/// An entry hands the slot out with each exact hit, and as an answer-only
/// row with each memo hit ([`crate::QueryReport::answer_text`]); it swaps
/// in a fresh one whenever a dataset mutation changes the answer, so a slot
/// only ever describes the answer it was handed out with: a report taken
/// before a repair keeps the text of its own answer. The text lives and
/// dies with its entry or row — it is not persisted, not exported and not counted in
/// [`CacheEntry::memory_bytes`], so eviction decisions never see it.
#[derive(Debug, Default)]
pub struct AnswerText(OnceLock<Box<[u8]>>);

impl AnswerText {
    /// The rendered ids, rendering them from `answer` on first use.
    /// `answer` must be the answer this slot was handed out with (the
    /// report's own). Concurrent first callers render once; all see the
    /// same bytes.
    pub fn get_or_render(&self, answer: &BitSet) -> &[u8] {
        self.0.get_or_init(|| {
            let mut ids = Vec::new();
            answer.write_ids(&mut ids);
            ids.into_boxed_slice()
        })
    }

    /// The rendered ids, if some reader has rendered them.
    pub fn get(&self) -> Option<&[u8]> {
        self.0.get().map(|ids| &ids[..])
    }
}

/// A cached query: the query graph, its kind, and its full answer set.
///
/// The answer is read through [`CacheEntry::answer`] and changed only by
/// the repair methods, which keep its [`AnswerText`] slot in step.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheEntry {
    /// Entry id (slab slot).
    pub id: EntryId,
    /// The cached query graph.
    pub graph: Graph,
    /// Verification profile of `graph`, computed once at admission and
    /// reused by every hit-confirmation probe against this entry (the same
    /// precompute-once discipline [`gc_method::DatasetProfiles`] applies to
    /// dataset graphs). Order built with `label_freq = None` — probes face
    /// ever-changing query graphs, so only the entry's own statistics are
    /// meaningful.
    pub profile: GraphProfile,
    /// Query kind the answer set corresponds to.
    pub kind: QueryKind,
    /// The exact answer set over the dataset universe.
    answer: BitSet,
    /// The served text of `answer`'s current version (empty until first
    /// served; never serialized).
    #[serde(skip)]
    text: Arc<AnswerText>,
    /// WL fingerprint of `graph` (exact-match bucket key).
    pub fingerprint: u64,
    /// `|C_M|` when this query was first executed — the number of sub-iso
    /// tests an exact-match hit saves.
    pub base_tests: u64,
    /// Verifier steps spent when first executed (cost analogue).
    pub base_cost: u64,
    /// Statistics Manager data.
    pub stats: EntryStats,
}

impl CacheEntry {
    /// An entry whose text slot starts empty.
    #[allow(clippy::too_many_arguments)] // one argument per stored fact
    pub(crate) fn new(
        id: EntryId,
        graph: Graph,
        profile: GraphProfile,
        kind: QueryKind,
        answer: BitSet,
        fingerprint: u64,
        base_tests: u64,
        base_cost: u64,
        stats: EntryStats,
    ) -> Self {
        CacheEntry {
            id,
            graph,
            profile,
            kind,
            answer,
            text: Arc::default(),
            fingerprint,
            base_tests,
            base_cost,
            stats,
        }
    }

    /// The exact answer set over the dataset universe.
    pub fn answer(&self) -> &BitSet {
        &self.answer
    }

    /// The shared text slot of the answer's current version — what an
    /// exact hit hands out beside its copy of the answer (an `Arc` clone:
    /// no allocation).
    pub fn answer_text(&self) -> &Arc<AnswerText> {
        &self.text
    }

    /// Repair: extend the answer's universe to `universe` (a dataset
    /// insert). The ids do not change, so neither does the text.
    pub(crate) fn grow_answer(&mut self, universe: usize) {
        self.answer.grow(universe);
    }

    /// Repair: add dataset graph `gid` to the answer (`member`) or drop it.
    pub(crate) fn set_answer(&mut self, gid: usize, member: bool) {
        let changed = if member { self.answer.insert(gid) } else { self.answer.remove(gid) };
        if changed {
            self.new_text_version();
        }
    }

    /// Repair: restrict the answer to `live` (tombstones a restored entry's
    /// record predates).
    pub(crate) fn mask_answer(&mut self, live: &BitSet) {
        let before = self.answer.count();
        self.answer.intersect_with(live);
        if self.answer.count() != before {
            self.new_text_version();
        }
    }

    /// The answer changed: the old slot stays with whoever holds it (it
    /// still describes *their* answer) and the entry starts a fresh one.
    /// Runs under the same write lock that changed the answer; an unshared
    /// slot is just emptied in place.
    fn new_text_version(&mut self) {
        match Arc::get_mut(&mut self.text) {
            Some(text) => *text = AnswerText::default(),
            None => self.text = Arc::default(),
        }
    }

    /// Does the (freshly inserted) dataset graph `gid` belong in this
    /// entry's answer set? Cheap summary prefilter, then the exact
    /// containment test in the direction the entry's kind dictates, over
    /// the entry's stored profile and the dataset's, with the caller's
    /// verifier scratch — the answer-repair primitive of live dataset
    /// mutation.
    pub(crate) fn answers_inserted(
        &self,
        dataset: &gc_method::Dataset,
        gid: gc_graph::GraphId,
        engine: gc_method::Engine,
        scratch: &mut VfScratch,
    ) -> bool {
        let (graph, profile) = (dataset.graph(gid), dataset.profile(gid));
        let ctx = match self.kind {
            QueryKind::Subgraph => {
                if !self.profile.summary.may_embed_into(dataset.summary(gid)) {
                    return false;
                }
                VerifyCtx::new(&self.graph, self.profile.as_ref(), graph, profile)
            }
            QueryKind::Supergraph => {
                if !dataset.summary(gid).may_embed_into(&self.profile.summary) {
                    return false;
                }
                VerifyCtx::new(graph, profile, &self.graph, self.profile.as_ref())
            }
        };
        engine.verify_ctx(&ctx, None, scratch).0.is_yes()
    }

    /// Approximate heap bytes held by this entry (graph + profile + answer
    /// set), reported by the cache's memory accounting. The rendered
    /// [`AnswerText`] is deliberately left out: these bytes drive
    /// `max_bytes` eviction, which must not depend on which entries
    /// happened to be served over HTTP.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + self.profile.memory_bytes()
            + self.answer.memory_bytes()
            + std::mem::size_of::<Self>()
            - std::mem::size_of::<Arc<AnswerText>>() // the slot's pointer too
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    #[test]
    fn stats_totals() {
        let s = EntryStats { exact_hits: 2, sub_hits: 3, super_hits: 5, ..EntryStats::default() };
        assert_eq!(s.total_hits(), 10);
    }

    #[test]
    fn memory_positive() {
        let e = entry(BitSet::full(10));
        assert!(e.memory_bytes() > 0);
        assert_eq!(e.answer_text().get_or_render(e.answer()), b"0,1,2,3,4,5,6,7,8,9");
        assert_eq!(e.memory_bytes(), entry(BitSet::full(10)).memory_bytes(), "text is not counted");
    }

    fn entry(answer: BitSet) -> CacheEntry {
        let g = graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap();
        CacheEntry::new(
            0,
            g.clone(),
            GraphProfile::new(&g, None),
            QueryKind::Subgraph,
            answer,
            gc_graph::hash::fingerprint(&g),
            4,
            100,
            EntryStats::default(),
        )
    }

    #[test]
    fn repairs_version_the_text_only_when_the_ids_change() {
        let mut e = entry(BitSet::from_indices(10, [1usize, 4]));
        assert_eq!(e.answer_text().get(), None, "nothing renders until a reader asks");
        let served = Arc::clone(e.answer_text());
        assert_eq!(served.get_or_render(e.answer()), b"1,4");

        // No change to the ids: the rendered slot stays.
        e.grow_answer(20);
        e.set_answer(4, true);
        e.set_answer(7, false);
        e.mask_answer(&BitSet::full(20));
        assert!(Arc::ptr_eq(e.answer_text(), &served));

        // A changed answer gets a fresh slot; the held one keeps its text.
        e.set_answer(12, true);
        assert!(!Arc::ptr_eq(e.answer_text(), &served));
        assert_eq!(served.get(), Some(&b"1,4"[..]));
        assert_eq!(e.answer_text().get_or_render(e.answer()), b"1,4,12");
        drop(served);

        // An unshared slot is emptied in place.
        let slot = Arc::as_ptr(e.answer_text());
        e.set_answer(1, false);
        assert_eq!(Arc::as_ptr(e.answer_text()), slot);
        assert_eq!(e.answer_text().get(), None);
        e.mask_answer(&BitSet::from_indices(20, [12usize]));
        assert_eq!(e.answer_text().get_or_render(e.answer()), b"12");
    }

    #[test]
    fn concurrent_first_renders_agree() {
        let answer = BitSet::from_indices(100_000, (0..100_000).step_by(7));
        let slot = AnswerText::default();
        let texts: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..2).map(|_| s.spawn(|| slot.get_or_render(&answer).to_vec())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(texts[0], texts[1]);
        let mut want = Vec::new();
        answer.write_ids(&mut want);
        assert_eq!(texts[0], want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Repair through the stored profiles decides exactly what a
        /// from-scratch `engine.verify` decides, in the direction each kind
        /// dictates: molecules and fragments cut from them, as entries and
        /// as dataset graphs, so both directions see hits and misses.
        #[test]
        fn answers_inserted_matches_from_scratch_verify(
            seed in proptest::prelude::any::<u64>(),
            edges in 2usize..9,
            ullmann in proptest::prelude::any::<bool>(),
        ) {
            use gc_method::{Dataset, Engine};
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let molecules = gc_workload::molecule_dataset(3, seed);
            let mut graphs = molecules.clone();
            for m in &molecules {
                graphs.extend(gc_workload::extract_query(m, edges, &mut rng));
            }
            let dataset = Dataset::new(graphs.clone());
            let engine = if ullmann { Engine::Ullmann } else { Engine::Vf2 };
            let mut scratch = VfScratch::new();
            for g in &graphs {
                for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                    let e = CacheEntry::new(
                        0,
                        g.clone(),
                        GraphProfile::new(g, None),
                        kind,
                        BitSet::new(dataset.len()),
                        gc_graph::hash::fingerprint(g),
                        0,
                        0,
                        EntryStats::default(),
                    );
                    for gid in 0..dataset.len() as gc_graph::GraphId {
                        let t = dataset.graph(gid);
                        let want = match kind {
                            QueryKind::Subgraph => engine.verify(g, t).0,
                            QueryKind::Supergraph => engine.verify(t, g).0,
                        };
                        let got = e.answers_inserted(&dataset, gid, engine, &mut scratch);
                        proptest::prop_assert_eq!(got, want, "{:?} gid {}", kind, gid);
                    }
                }
            }
        }
    }

    #[test]
    fn serialized_entries_carry_no_text() {
        let e = entry(BitSet::from_indices(10, [3usize]));
        e.answer_text().get_or_render(e.answer());
        let json = serde_json::to_string(&e).unwrap();
        assert!(!json.contains("text"), "{json}");
        let back: CacheEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.answer(), e.answer());
        assert_eq!(back.answer_text().get(), None, "a reloaded entry starts with an empty slot");
    }
}
