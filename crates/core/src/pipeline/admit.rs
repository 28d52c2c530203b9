//! Stage 6 — **Admit**: hit crediting, admission and the batched
//! replacement sweep (Statistics Manager + Window Manager).
//!
//! The only stage that *mutates* cache state, so it is where the runtime
//! takes its short write sections. Everything here operates on an explicit
//! `(CacheManager, ReplacementPolicy, WindowManager)` triple: one shard's,
//! under that shard's write lock.
//!
//! Crediting tolerates hit entries that died between probing and crediting
//! (a concurrent eviction, even one that demoted the entry to a row): the
//! credit is simply dropped and the policy never hears of it. With one client
//! this cannot happen; concurrently it is the correct degradation (the hit's
//! *answers* were already snapshotted, so only a utility update is lost).

use crate::cache::CacheManager;
use crate::config::CacheConfig;
use crate::cost::CostModel;
use crate::entry::{AnswerText, CacheEntry, EntryId, EntryStats};
use crate::pipeline::bound::gives_definite;
use crate::pipeline::probe::{CacheHits, HitSnapshot, Relation};
use crate::policy::{HitCredit, HitKind, ReplacementPolicy};
use crate::window::WindowManager;
use gc_graph::{BitSet, Graph};
use gc_iso::GraphProfile;
use gc_method::QueryKind;
use std::sync::Arc;

/// Capacity limits of one admission target: one shard.
#[derive(Debug, Clone, Copy)]
pub struct AdmitLimits {
    /// Maximum entries.
    pub capacity: usize,
    /// Optional byte budget (entries + index).
    pub max_bytes: Option<usize>,
    /// Maximum answer-only rows.
    pub rows: usize,
}

/// Outcome of the admit stage.
#[derive(Debug, Clone, Default)]
pub struct AdmitOutcome {
    /// Entry admitted for this query, if any.
    pub admitted: Option<EntryId>,
    /// Entries evicted by this query's replacement sweep.
    pub evicted: Vec<EntryId>,
    /// `true` when the admission filter rejected the query.
    pub rejected: bool,
}

/// Attribute per-hit savings to entries (paper: "each cache hit shall evoke
/// various numbers of savings in sub-iso testing").
///
/// `cm` is the candidate set the pipeline started from. On the filter plan
/// (`bounded_mean_cost` is `None`) that is Method M's `C_M` and each hit is
/// credited what it alone removed from it. On the bounded plan `cm` is the
/// hits' upper bound `U` and no `C_M` exists, so a pruning hit `h` is
/// credited against its *own* recorded baseline — `h.base_tests − |A_h|`
/// tests, each priced at `bounded_mean_cost` (the caller's
/// [`CostModel::mean_over`] `U`) — a quantity that does not depend on which
/// other hits the query found or in what order; definite hits keep
/// `|A_h ∩ cm|`, which is `|A_h|` there since `A_h ⊆ A(g) ⊆ U`.
///
/// `answers[i]` must be the snapshot of `hits.iter()`'s `i`-th hit (the
/// probe stage guarantees this alignment). Entries that no longer exist are
/// skipped, see module docs.
#[allow(clippy::too_many_arguments)] // explicit state triple + query facts; a struct would just rename them
pub fn credit_hits(
    cache: &mut CacheManager,
    policy: &mut dyn ReplacementPolicy,
    cost: &CostModel,
    cm: &BitSet,
    bounded_mean_cost: Option<f64>,
    kind: QueryKind,
    now: u64,
    hits: &CacheHits,
    answers: &[HitSnapshot],
) {
    debug_assert_eq!(answers.len(), hits.count(), "answers must align with hits");
    for (h, snap) in hits.iter().zip(answers) {
        debug_assert_eq!(h.relation, snap.relation);
        let answer = &snap.answer;
        // Tests this hit alone would have saved, and their estimated cost —
        // cardinality via the dispatched popcount kernels and the cost sum
        // over the lazy pair iterators; no temporary bitset is cloned.
        let (tests_saved, cost_saved) = if gives_definite(kind, h.relation) {
            (answer.intersect_count(cm) as u64, cost.sum_over_ids(answer.intersection_ones(cm)))
        } else if let Some(mean_cost) = bounded_mean_cost {
            let tests = snap.base_tests.saturating_sub(answer.count() as u64);
            (tests, tests as f64 * mean_cost)
        } else {
            (cm.difference_count(answer) as u64, cost.sum_over_ids(cm.difference_ones(answer)))
        };
        let hit_kind = match h.relation {
            Relation::QueryInCached => HitKind::QueryInCached,
            Relation::CachedInQuery => HitKind::CachedInQuery,
        };
        let credit = HitCredit { kind: hit_kind, tests_saved, cost_saved };
        let Some(e) = cache.get_mut(h.entry) else {
            continue; // concurrently evicted: drop the credit
        };
        e.stats.last_used = now;
        e.stats.tests_saved += credit.tests_saved;
        e.stats.cost_saved += credit.cost_saved;
        match credit.kind {
            HitKind::Exact => e.stats.exact_hits += 1,
            HitKind::QueryInCached => e.stats.sub_hits += 1,
            HitKind::CachedInQuery => e.stats.super_hits += 1,
        }
        policy.on_hit(h.entry, &credit, now);
    }
}

/// What an exact hit — on a resident entry or an answer-only row — hands
/// out: a copy of the answer, the shared text slot for that answer version,
/// and the tests it saved.
#[derive(Debug)]
pub struct ExactServe {
    /// The answer set (the hit's one allocation).
    pub answer: BitSet,
    /// The [`AnswerText`] slot — an `Arc` clone, allocation-free.
    pub text: Arc<AnswerText>,
    /// The recorded `|C_M|`: the tests the hit saved.
    pub base_tests: u64,
}

impl ExactServe {
    /// Copy out what `e` hands out.
    pub fn of(e: &CacheEntry) -> Self {
        ExactServe {
            answer: e.answer().clone(),
            text: Arc::clone(e.answer_text()),
            base_tests: e.base_tests,
        }
    }
}

/// Serve an exact-match hit: bump the entry's statistics, credit the policy,
/// and hand out its answer with its text slot.
///
/// Returns `None` if the entry is no longer resident (concurrent eviction
/// between lookup and service) — the caller falls back to the full
/// pipeline.
pub fn serve_exact(
    cache: &mut CacheManager,
    policy: &mut dyn ReplacementPolicy,
    id: EntryId,
    now: u64,
) -> Option<ExactServe> {
    let e = cache.get_mut(id)?;
    e.stats.exact_hits += 1;
    e.stats.last_used = now;
    e.stats.tests_saved += e.base_tests;
    e.stats.cost_saved += e.base_cost as f64;
    let (base_tests, base_cost) = (e.base_tests, e.base_cost);
    let served = ExactServe::of(e);
    policy.on_hit(
        id,
        &HitCredit { kind: HitKind::Exact, tests_saved: base_tests, cost_saved: base_cost as f64 },
        now,
    );
    Some(served)
}

/// Admit the executed query immediately; run the batched replacement sweep
/// when the admission window closes. Its victims, and a query the
/// admission filter rejects, become answer-only rows (see
/// [`CacheManager`]).
///
/// `fingerprint` is the query's WL key, computed once at query entry, and
/// `features` and `profile` the ones the probe stage built (taken from the
/// `PipelineCtx` by the caller) — admission moves them into the entry or
/// row instead of re-deriving them. `None` computes them (tests).
#[allow(clippy::too_many_arguments)] // explicit state triple + query facts; a struct would just rename them
pub fn run(
    cache: &mut CacheManager,
    policy: &mut dyn ReplacementPolicy,
    window: &mut WindowManager,
    cfg: &CacheConfig,
    limits: AdmitLimits,
    query: &Graph,
    kind: QueryKind,
    fingerprint: u64,
    features: Option<gc_index::FeatureVec>,
    profile: Option<GraphProfile>,
    answer: &BitSet,
    base_tests: u64,
    base_cost: u64,
    now: u64,
) -> AdmitOutcome {
    let profile = profile.unwrap_or_else(|| GraphProfile::new(query, None));
    let features = features.unwrap_or_else(|| cache.index().features_of(query));
    if (base_tests as usize) < cfg.min_admit_tests {
        let (graph, answer, stats) = (query.clone(), answer.clone(), EntryStats::default());
        let row = CacheEntry::new(
            0,
            graph,
            profile,
            kind,
            answer,
            fingerprint,
            base_tests,
            base_cost,
            stats,
        );
        cache.push_row(row, features, limits.rows);
        return AdmitOutcome { rejected: true, ..AdmitOutcome::default() };
    }
    let id = cache.insert_with_features(
        query.clone(),
        profile,
        kind,
        answer.clone(),
        base_tests,
        base_cost,
        now,
        fingerprint,
        features,
    );
    let bytes = cache.get(id).expect("just inserted").memory_bytes();
    policy.on_insert_sized(id, now, bytes);
    let mut evicted = Vec::new();
    if window.on_admit() {
        let excess = cache.len().saturating_sub(limits.capacity);
        if excess > 0 {
            for victim in policy.victims(excess) {
                if cache.demote(victim, limits.rows) {
                    policy.on_evict(victim);
                    evicted.push(victim);
                }
            }
        }
        // Byte budget: keep evicting least-useful entries until the
        // footprint fits (never evicting the just-admitted entry's whole
        // cache away: stop at one entry).
        if let Some(max_bytes) = limits.max_bytes {
            while cache.len() > 1 && cache.memory_bytes() > max_bytes {
                let Some(victim) = policy.victims(1).first().copied() else { break };
                if cache.demote(victim, limits.rows) {
                    policy.on_evict(victim);
                    evicted.push(victim);
                } else {
                    break;
                }
            }
        }
    }
    AdmitOutcome { admitted: Some(id), evicted, rejected: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, PolicyKind};
    use gc_graph::{graph_from_parts, Label};
    use gc_index::FeatureConfig;
    use gc_method::Dataset;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn setup() -> (CacheManager, Policy, WindowManager, CacheConfig, CostModel) {
        let cache = CacheManager::new(FeatureConfig::default());
        let policy = Policy::new(PolicyKind::Lru);
        let window = WindowManager::new(1);
        let cfg = CacheConfig { capacity: 2, window_size: 1, ..CacheConfig::default() };
        let ds = Dataset::new(vec![g(&[0], &[]), g(&[1], &[])]);
        (cache, policy, window, cfg, CostModel::new(&ds))
    }

    fn admit_one(
        cache: &mut CacheManager,
        policy: &mut Policy,
        window: &mut WindowManager,
        cfg: &CacheConfig,
        labels: &[u32],
        now: u64,
    ) -> AdmitOutcome {
        let query = g(labels, &[]);
        run(
            cache,
            policy,
            window,
            cfg,
            AdmitLimits { capacity: cfg.capacity, max_bytes: cfg.max_bytes, rows: 0 },
            &query,
            QueryKind::Subgraph,
            gc_graph::hash::fingerprint(&query),
            None,
            None,
            &BitSet::new(2),
            5,
            10,
            now,
        )
    }

    #[test]
    fn admission_inserts_then_sweeps_at_capacity() {
        let (mut cache, mut policy, mut window, cfg, _) = setup();
        for now in 1..=2 {
            let out = admit_one(&mut cache, &mut policy, &mut window, &cfg, &[now as u32], now);
            assert!(out.admitted.is_some());
            assert!(out.evicted.is_empty());
        }
        // Third admission overflows capacity 2 -> LRU evicts the oldest.
        let out = admit_one(&mut cache, &mut policy, &mut window, &cfg, &[9], 3);
        assert!(out.admitted.is_some());
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn admission_filter_rejects_cheap_queries() {
        let (mut cache, mut policy, mut window, cfg, _) = setup();
        let cfg = CacheConfig { min_admit_tests: 100, ..cfg };
        let out = run(
            &mut cache,
            &mut policy,
            &mut window,
            &cfg,
            AdmitLimits { capacity: cfg.capacity, max_bytes: cfg.max_bytes, rows: 0 },
            &g(&[0], &[]),
            QueryKind::Subgraph,
            gc_graph::hash::fingerprint(&g(&[0], &[])),
            None,
            None,
            &BitSet::new(2),
            5,
            10,
            1,
        );
        assert!(out.rejected);
        assert!(out.admitted.is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn exact_service_updates_stats_and_tolerates_dead_entries() {
        let (mut cache, mut policy, _, _, _) = setup();
        let id = cache.insert(
            g(&[3], &[]),
            QueryKind::Subgraph,
            BitSet::from_indices(2, [1usize]),
            7,
            70,
            1,
        );
        policy.on_insert(id, 1);
        let served = serve_exact(&mut cache, &mut policy, id, 5).expect("entry is live");
        assert_eq!(served.answer.to_vec(), vec![1]);
        assert_eq!(served.base_tests, 7);
        let e = cache.get(id).unwrap();
        assert!(Arc::ptr_eq(&served.text, e.answer_text()), "the entry's own slot");
        assert_eq!(e.stats.exact_hits, 1);
        assert_eq!(e.stats.last_used, 5);
        assert_eq!(e.stats.tests_saved, 7);
        assert_eq!(e.stats.cost_saved, 70.0);
        cache.remove(id);
        assert!(serve_exact(&mut cache, &mut policy, id, 6).is_none());
    }

    #[test]
    fn crediting_skips_dead_entries() {
        let (mut cache, mut policy, _, _, cost) = setup();
        let live = cache.insert(g(&[0], &[]), QueryKind::Subgraph, BitSet::new(2), 1, 1, 1);
        let dead = cache.insert(g(&[1], &[]), QueryKind::Subgraph, BitSet::new(2), 1, 1, 1);
        let demoted = cache.insert(g(&[2], &[]), QueryKind::Subgraph, BitSet::new(2), 1, 1, 1);
        policy.on_insert(live, 1);
        // Both die after probing; the policy forgets them at eviction.
        cache.remove(dead);
        assert!(cache.demote(demoted, 4));
        let hits = CacheHits { sub: vec![live, dead, demoted], ..CacheHits::default() };
        let snap = |gid: usize| HitSnapshot {
            relation: Relation::QueryInCached,
            answer: BitSet::from_indices(2, [gid]),
            base_tests: 1,
        };
        let answers = vec![snap(0), snap(1), snap(0)];
        let cm = BitSet::from_indices(2, [0usize, 1]);
        credit_hits(
            &mut cache,
            &mut policy,
            &cost,
            &cm,
            None,
            QueryKind::Subgraph,
            9,
            &hits,
            &answers,
        );
        let e = cache.get(live).unwrap();
        assert_eq!(e.stats.sub_hits, 1);
        assert_eq!(e.stats.last_used, 9);
        assert_eq!(e.stats.tests_saved, 1, "definite sub hit saves |answer ∩ cm|");
        let fp = gc_graph::hash::fingerprint(&g(&[2], &[]));
        let (row, _) = cache.exact_bucket(fp).next().expect("the row keeps its bucket");
        assert_eq!(row.stats, EntryStats { inserted_at: 1, last_used: 1, ..EntryStats::default() });
        assert_eq!(policy.victims(3), vec![live], "the policy never hears of a dead hit");
    }

    #[test]
    fn bounded_pruning_credit_uses_the_entrys_own_baseline() {
        let (mut cache, mut policy, _, _, cost) = setup();
        let id = cache.insert(g(&[0], &[]), QueryKind::Subgraph, BitSet::new(2), 7, 1, 1);
        policy.on_insert(id, 1);
        let hits = CacheHits { super_: vec![id], ..CacheHits::default() };
        let answers = vec![HitSnapshot {
            relation: Relation::CachedInQuery,
            answer: BitSet::from_indices(2, [1usize]),
            base_tests: 7,
        }];
        // cm = U = the pruning hit's answer; no C_M to subtract from.
        let u = answers[0].answer.clone();
        for (round, credited) in [(Some(2.5), 6), (None, 0)] {
            let before = cache.get(id).unwrap().stats.clone();
            credit_hits(
                &mut cache,
                &mut policy,
                &cost,
                &u,
                round,
                QueryKind::Subgraph,
                9,
                &hits,
                &answers,
            );
            let e = cache.get(id).unwrap();
            assert_eq!(e.stats.tests_saved - before.tests_saved, credited);
            assert!((e.stats.cost_saved - before.cost_saved - credited as f64 * 2.5).abs() < 1e-9);
        }
    }
}
