//! Stage 1 — **Probe**: the Sub/Super Case Processors (Fig. 3(a), 3(e)).
//!
//! Detects cache hits for a new query. Terminology (fixed by the demo's
//! Fig. 3, stated for *subgraph* queries):
//!
//! * **sub case** — the new query `g` is a subgraph of a cached query `h`
//!   (`g ⊑ h`, [`Relation::QueryInCached`]);
//! * **super case** — a cached query `h` is a subgraph of `g` (`h ⊑ g`,
//!   [`Relation::CachedInQuery`]).
//!
//! Which relation yields definite answers and which yields pruning depends
//! on the query kind; that mapping lives in [`crate::pipeline::bound`]. This
//! stage only *finds and verifies* the relationships, under budgets so that
//! cache probing can never dominate query time.
//!
//! The stage runs **first**: it needs the query and the cache, nothing from
//! Method M's candidate set, and what it finds decides whether the filter
//! has to run at all (see [`crate::pipeline::bound`]).
//!
//! In front of the stage sits [`find_exact`], the exact-match lookup the
//! runtime's exact tier, admission-time duplicate check and restore replay
//! share. It is the one reader of answer-only rows (see
//! [`CacheManager`]): the caller's key picks the bucket,
//! [`gc_iso::iso::confirm_isomorphic`] confirms — by comparing
//! presentations when the query is a verbatim repeat, by a profiled search
//! only for a renumbered isomorph. The key is the query's WL fingerprint
//! or, on the runtime's exact tier, a hint of it; a wrong key can only
//! miss, since every isomorph of the query is stored under its true
//! fingerprint.
//!
//! The stage snapshots (clones) each hit's answer set, and copies its
//! recorded baseline, while the cache is borrowed, so everything downstream
//! of probing works on owned data — this is what lets
//! [`crate::SharedGraphCache`] drop its shard read locks before the
//! (expensive) verify stage runs.

use crate::cache::CacheManager;
use crate::config::CacheConfig;
use crate::entry::{CacheEntry, EntryId};
use crate::pipeline::FastTier;
use gc_graph::{BitSet, Graph};
use gc_index::CandScratch;
use gc_iso::{Found, ProfileRef, VerifyCtx, VfScratch};
use gc_method::{Engine, QueryKind};

/// Reusable per-query state: the containment-index probe buffers, the
/// filtered + utility-ordered candidate lists, and the verifier scratch
/// shared by the probe stage's budgeted confirmation tests, the verify
/// stage's candidate tests and answer repair. Lives in
/// [`crate::PipelineCtx::probe_scratch`] but is *owned* by the runtime (one
/// per thread) and swapped into each query's context, so the steady-state
/// candidate-selection and verification loops allocate nothing (pinned by
/// `tests/probe_alloc.rs`).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Sub/super containment probe state (shared with `gc_index`).
    cand: CandScratch,
    /// Kind-filtered, utility-sorted sub-case candidates.
    sub_ids: Vec<EntryId>,
    /// Kind-filtered, utility-sorted super-case candidates.
    super_ids: Vec<EntryId>,
    /// Verifier search state reused across every confirmation and
    /// candidate test the owning thread runs.
    pub(crate) vf: VfScratch,
}

impl ProbeScratch {
    /// Fresh scratch (buffers grow to their high-water mark on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Structural relation of a verified hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `query ⊑ cached` — the demo's *sub case* (`H` in Fig. 3).
    QueryInCached,
    /// `cached ⊑ query` — the demo's *super case* (`H'` in Fig. 3).
    CachedInQuery,
}

/// One verified cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// The cached entry.
    pub entry: EntryId,
    /// How it relates to the new query.
    pub relation: Relation,
}

/// What the probe stage copies out of one hit entry while the cache is
/// borrowed — everything the stages downstream of probing need from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitSnapshot {
    /// How the entry relates to the new query.
    pub relation: Relation,
    /// The entry's answer set, exact at the pinned dataset generation.
    pub answer: BitSet,
    /// The entry's recorded Method M baseline (`|C_M|`, or its upper bound
    /// when the entry was itself admitted from the bounded plan).
    pub base_tests: u64,
}

/// All hits found for one query, plus probing costs.
#[derive(Debug, Clone, Default)]
pub struct CacheHits {
    /// Verified sub-case hits (`query ⊑ cached`).
    pub sub: Vec<EntryId>,
    /// Verified super-case hits (`cached ⊑ query`).
    pub super_: Vec<EntryId>,
    /// Sub-iso tests spent probing (cache overhead, counted into the
    /// speedup denominator).
    pub probe_tests: u64,
    /// Verifier steps spent probing.
    pub probe_steps: u64,
}

impl CacheHits {
    /// All hits with their relations (subs first, then supers).
    pub fn iter(&self) -> impl Iterator<Item = Hit> + '_ {
        self.sub
            .iter()
            .map(|&e| Hit { entry: e, relation: Relation::QueryInCached })
            .chain(self.super_.iter().map(|&e| Hit { entry: e, relation: Relation::CachedInQuery }))
    }

    /// Total number of verified hits.
    pub fn count(&self) -> usize {
        self.sub.len() + self.super_.len()
    }

    /// Absorb another probe result (used by the sharded front-end to merge
    /// per-shard hits; entry-id namespaces are the caller's concern).
    pub fn merge(&mut self, other: CacheHits) {
        self.sub.extend(other.sub);
        self.super_.extend(other.super_);
        self.probe_tests += other.probe_tests;
        self.probe_steps += other.probe_steps;
    }
}

/// Find the exact match for `query` (same kind) in the bucket of `key`, the
/// query's [`gc_graph::hash::fingerprint`] (any other key only misses: an
/// isomorph of `query` is stored under that one). Returns the matching
/// entry — [`FastTier::Exact`] — or answer-only row — [`FastTier::Memo`],
/// whose `id` is stale — and the steps its confirmation took
/// ([`gc_iso::iso::confirm_isomorphic`]: `0` = equal presentation, no
/// isomorphism search).
pub fn find_exact<'c>(
    cache: &'c CacheManager,
    key: u64,
    query: &Graph,
    kind: QueryKind,
) -> Option<(&'c CacheEntry, FastTier, u64)> {
    cache.exact_bucket(key).find_map(|(e, row)| {
        if e.kind != kind {
            return None;
        }
        let steps = gc_iso::iso::confirm_isomorphic(&e.graph, &e.profile, query)?;
        Some((e, if row { FastTier::Memo } else { FastTier::Exact }, steps))
    })
}

/// Step budget of one hit-candidate verification; a test that exhausts it
/// counts as "no hit" (sound — only savings are lost).
pub const PROBE_BUDGET: u64 = 100_000;

/// Probe for sub/super-case hits only (no exact-match check).
///
/// Candidates come from the containment [`gc_index::QueryIndex`]; each is
/// confirmed with a budgeted sub-iso test. Verification order favours the
/// most *useful* entries first (largest answer sets for sub-case hits —
/// they yield more definite answers for subgraph queries; smallest answer
/// sets for super-case hits — they prune more), so the per-direction check
/// cap ([`CacheConfig::max_hit_checks`], applied per call and so per shard)
/// spends its budget where it pays.
/// For supergraph queries the utility direction flips with the semantics;
/// ordering is adjusted accordingly.
///
/// The runtime calls this per shard (exact hits can only live in the
/// query's fingerprint home shard, which is checked separately), passing
/// the **same** query feature vector `qf`, query profile and scratch to
/// every shard — features and the verification profile are computed once
/// per query, not once per shard. `qf` must come from
/// [`gc_index::QueryIndex::features_of`] under the cache's feature config;
/// `q_profile` from [`gc_iso::GraphProfile::new`] on the same query.
///
/// With a warm `scratch`, candidate selection and utility ordering perform
/// zero heap allocations (only verified hits append to the returned
/// [`CacheHits`]).
pub fn probe_cases(
    cache: &CacheManager,
    cfg: &CacheConfig,
    query: &Graph,
    kind: QueryKind,
    qf: &gc_index::FeatureVec,
    q_profile: ProfileRef<'_>,
    scratch: &mut ProbeScratch,
) -> CacheHits {
    let mut hits = CacheHits::default();

    // --- sub case: query ⊑ cached ---------------------------------------
    cache.index().sub_case_candidates_into(qf.as_features(), &mut scratch.cand);
    scratch.sub_ids.clear();
    scratch.sub_ids.extend(
        scratch
            .cand
            .candidates()
            .iter()
            .copied()
            .filter(|&id| cache.get(id).is_some_and(|e| e.kind == kind)),
    );
    // Utility ordering (see doc comment): for subgraph queries a sub-case
    // hit contributes `answer` as definite answers -> prefer large answers.
    // For supergraph queries it contributes pruning -> prefer small answers.
    match kind {
        QueryKind::Subgraph => scratch.sub_ids.sort_unstable_by_key(|&id| {
            std::cmp::Reverse(cache.get(id).map_or(0, |e| e.answer().count()))
        }),
        QueryKind::Supergraph => scratch
            .sub_ids
            .sort_unstable_by_key(|&id| cache.get(id).map_or(usize::MAX, |e| e.answer().count())),
    }
    for &id in scratch.sub_ids.iter().take(cfg.max_hit_checks) {
        let e = cache.get(id).expect("candidate ids are live");
        hits.probe_tests += 1;
        let ctx = VerifyCtx::new(query, q_profile, &e.graph, e.profile.as_ref());
        let (found, stats) = Engine::Vf2.verify_ctx(&ctx, Some(PROBE_BUDGET), &mut scratch.vf);
        hits.probe_steps += stats.steps;
        if found == Found::Yes {
            hits.sub.push(id);
        }
    }

    // --- super case: cached ⊑ query --------------------------------------
    cache.index().super_case_candidates_into(qf.as_features(), &mut scratch.cand);
    scratch.super_ids.clear();
    scratch.super_ids.extend(
        scratch
            .cand
            .candidates()
            .iter()
            .copied()
            .filter(|&id| cache.get(id).is_some_and(|e| e.kind == kind)),
    );
    match kind {
        QueryKind::Subgraph => scratch
            .super_ids
            .sort_unstable_by_key(|&id| cache.get(id).map_or(usize::MAX, |e| e.answer().count())),
        QueryKind::Supergraph => scratch.super_ids.sort_unstable_by_key(|&id| {
            std::cmp::Reverse(cache.get(id).map_or(0, |e| e.answer().count()))
        }),
    }
    for &id in scratch.super_ids.iter().take(cfg.max_hit_checks) {
        let e = cache.get(id).expect("candidate ids are live");
        hits.probe_tests += 1;
        // The entry is the pattern here; its admission-time profile carries
        // the search order.
        let ctx = VerifyCtx::new(&e.graph, e.profile.as_ref(), query, q_profile);
        let (found, stats) = Engine::Vf2.verify_ctx(&ctx, Some(PROBE_BUDGET), &mut scratch.vf);
        hits.probe_steps += stats.steps;
        if found == Found::Yes {
            hits.super_.push(id);
        }
    }
    hits
}

/// Snapshot the answer sets and recorded baselines of `hits` (in
/// [`CacheHits::iter`] order) while the cache is still borrowed.
pub fn snapshot_answers(cache: &CacheManager, hits: &CacheHits) -> Vec<HitSnapshot> {
    hits.iter()
        .map(|h| {
            let e = cache.get(h.entry).expect("hit ids are live under the borrow");
            HitSnapshot {
                relation: h.relation,
                answer: e.answer().clone(),
                base_tests: e.base_tests,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, BitSet, Label};
    use gc_index::FeatureConfig;
    use gc_iso::GraphProfile;

    /// The runtime's order over one cache manager: no probing when the
    /// exact tier matches, else the sub/super cases with features and the
    /// query profile built here.
    fn probe(cache: &CacheManager, cfg: &CacheConfig, query: &Graph, kind: QueryKind) -> CacheHits {
        if exact(cache, query, kind).is_some() {
            return CacheHits::default();
        }
        let qf = cache.index().features_of(query);
        let q_profile = GraphProfile::new(query, None);
        let mut scratch = ProbeScratch::new();
        probe_cases(cache, cfg, query, kind, &qf, q_profile.as_ref(), &mut scratch)
    }

    /// [`find_exact`] under the query's own fingerprint: tier and steps.
    fn exact(cache: &CacheManager, query: &Graph, kind: QueryKind) -> Option<(FastTier, u64)> {
        find_exact(cache, gc_graph::hash::fingerprint(query), query, kind).map(|(_, t, s)| (t, s))
    }

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn cache_with(entries: &[(Graph, QueryKind)]) -> CacheManager {
        let mut cm = CacheManager::new(FeatureConfig::with_max_len(2));
        for (graph, kind) in entries {
            cm.insert(graph.clone(), *kind, BitSet::new(8), 8, 100, 0);
        }
        cm
    }

    #[test]
    fn exact_match_found_and_kind_respected() {
        let q = g(&[0, 1], &[(0, 1)]);
        let cm = cache_with(&[(q.clone(), QueryKind::Subgraph)]);
        assert_eq!(exact(&cm, &q, QueryKind::Subgraph), Some((FastTier::Exact, 0)), "no search");
        assert!(exact(&cm, &q, QueryKind::Supergraph).is_none());
        // A permuted isomorphic presentation still matches — by search.
        let q2 = g(&[1, 0], &[(0, 1)]);
        assert!(exact(&cm, &q2, QueryKind::Subgraph).is_some_and(|(.., steps)| steps > 0));
    }

    /// `g` with vertex `i` renumbered `perm[i]`.
    fn permuted(g: &Graph, perm: &[u32]) -> Graph {
        let mut labels = vec![Label(0); perm.len()];
        for v in g.vertices() {
            labels[perm[v as usize] as usize] = g.label(v);
        }
        let edges: Vec<_> = g.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])).collect();
        graph_from_parts(&labels, &edges).unwrap()
    }

    #[test]
    fn bucket_sharing_non_isomorph_is_not_an_exact_match() {
        // 1-WL cannot tell a hexagon from two triangles (equal n, m, labels,
        // degrees): same fingerprint, same bucket — the confirmation, not
        // the presentation shortcut, keeps them apart — for an answer-only
        // row in the bucket as for a resident entry.
        let c6 = g(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let two_c3 = g(&[0; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let fp = gc_graph::hash::fingerprint(&c6);
        assert_eq!(fp, gc_graph::hash::fingerprint(&two_c3));
        let sub = QueryKind::Subgraph;
        let mut cm = cache_with(&[(c6.clone(), sub)]);
        assert_eq!(cm.fingerprint_bucket(fp), &[0]);
        assert!(exact(&cm, &two_c3, sub).is_none());
        assert_eq!(exact(&cm, &c6, sub), Some((FastTier::Exact, 0)));
        // The hexagon demoted to a row: still only the hexagon matches.
        assert!(cm.demote(0, 4));
        assert!(exact(&cm, &two_c3, sub).is_none());
        assert_eq!(exact(&cm, &c6, sub), Some((FastTier::Memo, 0)));
        // Two triangles admitted beside the row: each finds its own.
        cm.insert(two_c3.clone(), sub, BitSet::new(8), 8, 100, 0);
        assert_eq!(exact(&cm, &two_c3, sub), Some((FastTier::Exact, 0)));
        assert_eq!(exact(&cm, &c6, sub), Some((FastTier::Memo, 0)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// A resident entry and an answer-only row hit exactly when the
        /// reference `are_isomorphic` says so, for the stored presentation
        /// (no search), a random renumbering of it (by search, unless the
        /// renumbering is an automorphism) and an unrelated query; never
        /// across kinds, and never for the stored presentation looked up
        /// under a key other than its fingerprint.
        #[test]
        fn exact_and_memo_hit_iff_isomorphic(
            seed in proptest::prelude::any::<u64>(),
            edges in 2usize..12,
            supergraph in proptest::prelude::any::<bool>(),
            key_error in 1u64..=u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let molecules = gc_workload::molecule_dataset(2, seed);
            let stored = gc_workload::extract_query(&molecules[0], edges, &mut rng).unwrap();
            let other = gc_workload::extract_query(&molecules[1], edges, &mut rng).unwrap();
            let mut perm: Vec<u32> = (0..stored.vertex_count() as u32).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let renumbered = permuted(&stored, &perm);
            let (kind, other_kind) = if supergraph {
                (QueryKind::Supergraph, QueryKind::Subgraph)
            } else {
                (QueryKind::Subgraph, QueryKind::Supergraph)
            };
            let cm = cache_with(&[(stored.clone(), kind)]);
            let stored_fp = gc_graph::hash::fingerprint(&stored);
            let mut rows = cache_with(&[(stored.clone(), kind)]);
            assert!(rows.demote(0, 4));

            let stored_copy = stored.clone();
            let fp = gc_graph::hash::fingerprint;
            for (q, key) in [
                (&stored_copy, stored_fp),
                (&renumbered, fp(&renumbered)),
                (&other, fp(&other)),
                (&stored_copy, stored_fp ^ key_error),
            ] {
                let want = key == fp(q) && gc_iso::iso::are_isomorphic(&stored, q);
                let exact = find_exact(&cm, key, q, kind).map(|(_, tier, steps)| (tier, steps));
                let row = find_exact(&rows, key, q, kind).map(|(_, tier, steps)| (tier, steps));
                proptest::prop_assert_eq!(exact.is_some(), want);
                proptest::prop_assert_eq!(exact.map(|(_, steps)| steps), row.map(|(_, steps)| steps));
                proptest::prop_assert!(exact.is_none_or(|(tier, _)| tier == FastTier::Exact));
                proptest::prop_assert!(row.is_none_or(|(tier, _)| tier == FastTier::Memo));
                if let Some((_, steps)) = row {
                    proptest::prop_assert_eq!(key, stored_fp);
                    proptest::prop_assert_eq!(steps == 0, *q == stored);
                }
                proptest::prop_assert!(find_exact(&cm, key, q, other_kind).is_none());
                proptest::prop_assert!(find_exact(&rows, key, q, other_kind).is_none());
            }
            proptest::prop_assert!(gc_iso::iso::are_isomorphic(&stored, &renumbered));
        }
    }

    #[test]
    fn probe_finds_both_cases() {
        // cached: edge 0-1 (will be h ⊑ g) and 4-cycle containing the path
        // (will be g ⊑ h).
        let edge = g(&[0, 1], &[(0, 1)]);
        let square = g(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cm = cache_with(&[(edge, QueryKind::Subgraph), (square, QueryKind::Subgraph)]);
        let q = g(&[0, 1, 0], &[(0, 1), (1, 2)]); // path 0-1-0
        let hits = probe(&cm, &CacheConfig::default(), &q, QueryKind::Subgraph);
        assert!(exact(&cm, &q, QueryKind::Subgraph).is_none());
        assert_eq!(hits.sub, vec![1], "q is inside the square");
        assert_eq!(hits.super_, vec![0], "edge is inside q");
        assert!(hits.probe_tests >= 2);
        assert_eq!(hits.count(), 2);
    }

    #[test]
    fn exact_hit_short_circuits_probing() {
        let q = g(&[0, 1], &[(0, 1)]);
        let cm = cache_with(&[(q.clone(), QueryKind::Subgraph)]);
        let hits = probe(&cm, &CacheConfig::default(), &q, QueryKind::Subgraph);
        assert!(exact(&cm, &q, QueryKind::Subgraph).is_some());
        assert_eq!(hits.probe_tests, 0);
        assert!(hits.sub.is_empty() && hits.super_.is_empty());
    }

    #[test]
    fn kind_mismatch_is_not_a_hit() {
        let edge = g(&[0, 1], &[(0, 1)]);
        let cm = cache_with(&[(edge, QueryKind::Supergraph)]);
        let q = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let hits = probe(&cm, &CacheConfig::default(), &q, QueryKind::Subgraph);
        assert_eq!(hits.count(), 0);
    }

    #[test]
    fn check_caps_limit_probing() {
        let mut entries = Vec::new();
        for _ in 0..10 {
            entries.push((g(&[0, 1], &[(0, 1)]), QueryKind::Subgraph));
        }
        // 10 identical cached edges, each inside the query; cap checks at 3.
        let cm = {
            let mut cm = CacheManager::new(FeatureConfig::with_max_len(2));
            for (graph, kind) in &entries {
                cm.insert(graph.clone(), *kind, BitSet::new(8), 8, 100, 0);
            }
            cm
        };
        let q = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let cfg = CacheConfig { max_hit_checks: 3, ..CacheConfig::default() };
        let hits = probe(&cm, &cfg, &q, QueryKind::Subgraph);
        assert_eq!(hits.super_.len(), 3, "the cap takes exactly 3 of 10 super-case hits");
        // No edge contains the 3-vertex query: the sub direction has
        // nothing to test.
        assert!(hits.sub.is_empty());
        assert_eq!(hits.probe_tests, 3);
    }

    #[test]
    fn snapshots_align_with_iter_order() {
        let edge = g(&[0, 1], &[(0, 1)]);
        let square = g(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut cm = CacheManager::new(FeatureConfig::with_max_len(2));
        cm.insert(edge, QueryKind::Subgraph, BitSet::from_indices(8, [1usize]), 8, 100, 0);
        cm.insert(square, QueryKind::Subgraph, BitSet::from_indices(8, [2usize]), 8, 100, 0);
        let q = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let hits = probe(&cm, &CacheConfig::default(), &q, QueryKind::Subgraph);
        let snaps = snapshot_answers(&cm, &hits);
        assert_eq!(snaps.len(), hits.count());
        for (hit, snap) in hits.iter().zip(&snaps) {
            assert_eq!(hit.relation, snap.relation);
            assert_eq!(cm.get(hit.entry).unwrap().answer(), &snap.answer);
            assert_eq!(snap.base_tests, 8);
        }
    }

    #[test]
    fn merge_combines_shard_results() {
        let mut a = CacheHits { sub: vec![1], super_: vec![2], probe_tests: 3, probe_steps: 10 };
        let b = CacheHits { sub: vec![7], super_: vec![], probe_tests: 1, probe_steps: 5 };
        a.merge(b);
        assert_eq!(a.sub, vec![1, 7]);
        assert_eq!(a.super_, vec![2]);
        assert_eq!(a.probe_tests, 4);
        assert_eq!(a.probe_steps, 15);
        assert_eq!(a.count(), 3);
    }
}
