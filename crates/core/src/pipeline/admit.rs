//! Stage 6 — **Admit**: hit crediting, admission and the batched
//! replacement sweep (Statistics Manager + Window Manager).
//!
//! The only stage that *mutates* cache state, so it is where the runtime
//! takes its short write sections. Everything here operates on an explicit
//! `(CacheManager, ReplacementPolicy, WindowManager)` triple: one shard's,
//! under that shard's write lock.
//!
//! Crediting tolerates hit entries that died between probing and crediting
//! (a concurrent eviction): the credit is simply dropped. With one client
//! this cannot happen; concurrently it is the
//! correct degradation (the hit's *answers* were already snapshotted, so
//! correctness is unaffected — only a utility update is lost).

use crate::cache::CacheManager;
use crate::config::CacheConfig;
use crate::cost::CostModel;
use crate::entry::{AnswerText, EntryId};
use crate::pipeline::bound::gives_definite;
use crate::pipeline::probe::{CacheHits, HitSnapshot, Relation};
use crate::policy::{HitCredit, HitKind, ReplacementPolicy};
use crate::window::WindowManager;
use gc_graph::{BitSet, Graph};
use gc_method::QueryKind;
use std::sync::Arc;

/// Capacity limits of one admission target: one shard.
#[derive(Debug, Clone, Copy)]
pub struct AdmitLimits {
    /// Maximum entries.
    pub capacity: usize,
    /// Optional byte budget (entries + index).
    pub max_bytes: Option<usize>,
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

/// What an exact hit hands out: a copy of the entry's answer, the entry's
/// shared text slot for that answer version, and the tests it saved.
#[derive(Debug)]
pub struct ExactServe {
    /// The entry's answer set (the hit's one allocation).
    pub answer: BitSet,
    /// The entry's [`AnswerText`] slot — an `Arc` clone, allocation-free.
    pub text: Arc<AnswerText>,
    /// The entry's recorded `|C_M|`: the tests the hit saved.
    pub base_tests: u64,
}

/// Serve an exact-match hit: bump the entry's statistics, credit the policy,
/// and hand out its answer with its text slot.
///
/// Returns `None` if the entry no longer exists (concurrent eviction
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
    let served =
        ExactServe { answer: e.answer().clone(), text: Arc::clone(e.answer_text()), base_tests };
    policy.on_hit(
        id,
        &HitCredit { kind: HitKind::Exact, tests_saved: base_tests, cost_saved: base_cost as f64 },
        now,
    );
    Some(served)
}

/// Admit the executed query immediately; run the batched replacement sweep
/// when the admission window closes.
///
/// `fingerprint` is the query's WL key, computed once at query entry, and
/// `features` the feature vector the probe stage already extracted
/// (`PipelineCtx::features`, taken by the caller) — admission reuses both
/// instead of re-hashing the query and re-enumerating its paths. `None`
/// features fall back to extraction (tests).
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
    answer: &BitSet,
    base_tests: u64,
    base_cost: u64,
    now: u64,
) -> AdmitOutcome {
    if (base_tests as usize) < cfg.min_admit_tests {
        return AdmitOutcome { rejected: true, ..AdmitOutcome::default() };
    }
    let features = features.unwrap_or_else(|| cache.index().features_of(query));
    let id = cache.insert_with_features(
        query.clone(),
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
                if cache.remove(victim).is_some() {
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
                if cache.remove(victim).is_some() {
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
            AdmitLimits { capacity: cfg.capacity, max_bytes: cfg.max_bytes },
            &query,
            QueryKind::Subgraph,
            gc_graph::hash::fingerprint(&query),
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
            AdmitLimits { capacity: cfg.capacity, max_bytes: cfg.max_bytes },
            &g(&[0], &[]),
            QueryKind::Subgraph,
            gc_graph::hash::fingerprint(&g(&[0], &[])),
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
        policy.on_insert(live, 1);
        policy.on_insert(dead, 1);
        cache.remove(dead);
        let hits = CacheHits { sub: vec![live, dead], ..CacheHits::default() };
        let snap = |gid: usize| HitSnapshot {
            relation: Relation::QueryInCached,
            answer: BitSet::from_indices(2, [gid]),
            base_tests: 1,
        };
        let answers = vec![snap(0), snap(1)];
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
