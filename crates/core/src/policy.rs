//! Graph-cache replacement policies.
//!
//! The paper bundles five policies (§3.1, Experiment I):
//!
//! * **LRU** — classic recency;
//! * **POP** — popularity (number of hits served);
//! * **PIN** — utility measured in *number of sub-iso tests saved*;
//! * **PINC** — utility measured in *sub-iso testing cost saved* (verifier
//!   steps, weighting savings by how expensive the skipped graphs are);
//! * **HD** — "coalesces both PIN and PINC". The paper gives no formula; we
//!   use a rank-sum blend: each entry's eviction score is the sum of its
//!   rank under PIN and its rank under PINC (ties broken by recency). This
//!   is scale-free, workload-adaptive, and reproduces the paper's takeaway
//!   ("HD is best or on par") in Experiment I; `exp6_ablation` sets it
//!   against an arithmetic-mean variant.
//!
//! The [`ReplacementPolicy`] trait mirrors the developer API of the paper's
//! Fig. 2(d): `on_hit` is `updateCacheStaInfo`, `victims` is
//! `getReplacedContent`, and the runtime's eviction step plays the role of
//! `updateCacheItems`. Custom policies plug in by implementing the trait
//! (see `examples/custom_policy.rs`).

use crate::entry::{EntryId, EntryStats};
use std::collections::HashMap;

/// How a cached entry contributed to a new query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// The new query was isomorphic to the cached one.
    Exact,
    /// The new query is a subgraph of the cached one (the demo's "sub case").
    QueryInCached,
    /// The cached query is a subgraph of the new one ("super case").
    CachedInQuery,
}

/// Utility credited to an entry for one hit (Statistics Manager record).
#[derive(Debug, Clone, Copy)]
pub struct HitCredit {
    /// The containment relation of the hit.
    pub kind: HitKind,
    /// Sub-iso tests this entry saved for the new query.
    pub tests_saved: u64,
    /// Estimated verifier steps saved (per-graph cost model).
    pub cost_saved: f64,
}

/// Replacement policy interface (the paper's `Cache` extension class).
///
/// Implementations keep their own per-entry score state, fed by the runtime:
/// `on_insert` at admission, `on_hit` whenever the entry contributes to a
/// query (the paper's `updateCacheStaInfo`), `on_evict` at removal. When the
/// cache overflows, the runtime calls `victims` (the paper's
/// `getReplacedContent`) for the `x` entries with least utility.
pub trait ReplacementPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// An entry was admitted at logical time `now`.
    fn on_insert(&mut self, entry: EntryId, now: u64);

    /// Size-aware admission hook: like [`ReplacementPolicy::on_insert`] but
    /// with the entry's memory footprint, for size-sensitive policies (e.g.
    /// GreedyDual-Size). Defaults to delegating to `on_insert`.
    fn on_insert_sized(&mut self, entry: EntryId, now: u64, bytes: usize) {
        let _ = bytes;
        self.on_insert(entry, now);
    }

    /// An entry was restored from a persistence snapshot with its
    /// accumulated statistics. Policies that can reconstruct their utility
    /// state from `stats` should do so, so a warm-restarted cache ranks
    /// eviction candidates like the original would have; the default
    /// treats the entry as a fresh admission at its recorded `last_used`
    /// time (sound for any policy, loses utility history).
    fn on_restore(&mut self, entry: EntryId, stats: &EntryStats, bytes: usize, now: u64) {
        let _ = now;
        self.on_insert_sized(entry, stats.last_used, bytes);
    }

    /// An entry contributed a hit at logical time `now`.
    fn on_hit(&mut self, entry: EntryId, credit: &HitCredit, now: u64);

    /// An entry was evicted; forget its state.
    fn on_evict(&mut self, entry: EntryId);

    /// Return (up to) the `x` entries with least utility, best victim first.
    /// Must not mutate state; the runtime follows up with `on_evict`.
    fn victims(&mut self, x: usize) -> Vec<EntryId>;
}

/// Bundled policy kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Least popular (fewest hits).
    Pop,
    /// Least sub-iso tests saved.
    Pin,
    /// Least sub-iso testing cost saved.
    Pinc,
    /// Hybrid rank-sum of PIN and PINC.
    Hd,
}

impl PolicyKind {
    /// All bundled policies, in the paper's presentation order.
    pub fn all() -> [PolicyKind; 5] {
        [PolicyKind::Lru, PolicyKind::Pop, PolicyKind::Pin, PolicyKind::Pinc, PolicyKind::Hd]
    }

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Pop => "POP",
            PolicyKind::Pin => "PIN",
            PolicyKind::Pinc => "PINC",
            PolicyKind::Hd => "HD",
        }
    }

    /// Instantiate the bundled implementation.
    pub fn make(self) -> Box<dyn ReplacementPolicy> {
        Box::new(Policy::new(self))
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "LRU" => Ok(PolicyKind::Lru),
            "POP" => Ok(PolicyKind::Pop),
            "PIN" => Ok(PolicyKind::Pin),
            "PINC" => Ok(PolicyKind::Pinc),
            "HD" => Ok(PolicyKind::Hd),
            other => Err(format!("unknown policy {other:?} (expected LRU/POP/PIN/PINC/HD)")),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Score {
    last_used: u64,
    hits: u64,
    tests_saved: u64,
    cost_saved: f64,
}

/// The bundled implementation of all five policy kinds over shared
/// bookkeeping.
#[derive(Debug)]
pub struct Policy {
    kind: PolicyKind,
    scores: HashMap<EntryId, Score>,
}

impl Policy {
    /// New policy of the given kind.
    pub fn new(kind: PolicyKind) -> Self {
        Policy { kind, scores: HashMap::new() }
    }

    /// The kind this policy ranks by.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn rank_simple<K: Ord>(&self, key: impl Fn(&Score) -> K, x: usize) -> Vec<EntryId> {
        let mut entries: Vec<(&EntryId, &Score)> = self.scores.iter().collect();
        // Deterministic: tie-break by last_used then id.
        entries.sort_by(|(ia, sa), (ib, sb)| {
            key(sa).cmp(&key(sb)).then(sa.last_used.cmp(&sb.last_used)).then(ia.cmp(ib))
        });
        entries.into_iter().take(x).map(|(&e, _)| e).collect()
    }

    fn rank_hd(&self, x: usize) -> Vec<EntryId> {
        // Rank-sum of PIN and PINC orderings; smallest combined rank evicted.
        let mut ids: Vec<EntryId> = self.scores.keys().copied().collect();
        let mut by_pin = ids.clone();
        by_pin.sort_by(|a, b| {
            let (sa, sb) = (&self.scores[a], &self.scores[b]);
            sa.tests_saved.cmp(&sb.tests_saved).then(sa.last_used.cmp(&sb.last_used)).then(a.cmp(b))
        });
        let mut by_pinc = ids.clone();
        by_pinc.sort_by(|a, b| {
            let (sa, sb) = (&self.scores[a], &self.scores[b]);
            sa.cost_saved
                .partial_cmp(&sb.cost_saved)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(sa.last_used.cmp(&sb.last_used))
                .then(a.cmp(b))
        });
        let mut rank: HashMap<EntryId, u64> = HashMap::with_capacity(ids.len());
        for (r, &e) in by_pin.iter().enumerate() {
            *rank.entry(e).or_insert(0) += r as u64;
        }
        for (r, &e) in by_pinc.iter().enumerate() {
            *rank.entry(e).or_insert(0) += r as u64;
        }
        ids.sort_by(|a, b| {
            rank[a]
                .cmp(&rank[b])
                .then(self.scores[a].last_used.cmp(&self.scores[b].last_used))
                .then(a.cmp(b))
        });
        ids.truncate(x);
        ids
    }
}

impl ReplacementPolicy for Policy {
    fn name(&self) -> &'static str {
        self.kind.as_str()
    }

    fn on_insert(&mut self, entry: EntryId, now: u64) {
        self.scores.insert(entry, Score { last_used: now, ..Score::default() });
    }

    fn on_restore(&mut self, entry: EntryId, stats: &EntryStats, _bytes: usize, _now: u64) {
        // Exact reconstruction: every signal the five bundled kinds rank by
        // is derivable from the entry's persisted statistics.
        self.scores.insert(
            entry,
            Score {
                last_used: stats.last_used,
                hits: stats.total_hits(),
                tests_saved: stats.tests_saved,
                cost_saved: stats.cost_saved,
            },
        );
    }

    fn on_hit(&mut self, entry: EntryId, credit: &HitCredit, now: u64) {
        let s = self.scores.entry(entry).or_default();
        s.last_used = now;
        s.hits += 1;
        s.tests_saved += credit.tests_saved;
        s.cost_saved += credit.cost_saved;
    }

    fn on_evict(&mut self, entry: EntryId) {
        self.scores.remove(&entry);
    }

    fn victims(&mut self, x: usize) -> Vec<EntryId> {
        match self.kind {
            PolicyKind::Lru => self.rank_simple(|s| s.last_used, x),
            PolicyKind::Pop => self.rank_simple(|s| s.hits, x),
            PolicyKind::Pin => self.rank_simple(|s| s.tests_saved, x),
            // f64 keys: order by bit pattern of the non-negative cost.
            PolicyKind::Pinc => self.rank_simple(|s| s.cost_saved.max(0.0).to_bits(), x),
            PolicyKind::Hd => self.rank_hd(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn credit(tests: u64, cost: f64) -> HitCredit {
        HitCredit { kind: HitKind::CachedInQuery, tests_saved: tests, cost_saved: cost }
    }

    #[test]
    fn lru_evicts_oldest_use() {
        let mut p = Policy::new(PolicyKind::Lru);
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        p.on_insert(3, 3);
        p.on_hit(1, &credit(0, 0.0), 10); // refresh entry 1
        assert_eq!(p.victims(2), vec![2, 3]);
    }

    #[test]
    fn pop_evicts_least_hit() {
        let mut p = Policy::new(PolicyKind::Pop);
        for e in 1..=3 {
            p.on_insert(e, e as u64);
        }
        p.on_hit(1, &credit(1, 1.0), 4);
        p.on_hit(1, &credit(1, 1.0), 5);
        p.on_hit(3, &credit(1, 1.0), 6);
        assert_eq!(p.victims(1), vec![2]);
        assert_eq!(p.victims(3), vec![2, 3, 1]);
    }

    #[test]
    fn pin_uses_tests_saved() {
        let mut p = Policy::new(PolicyKind::Pin);
        for e in 1..=3 {
            p.on_insert(e, e as u64);
        }
        p.on_hit(1, &credit(100, 1.0), 4);
        p.on_hit(2, &credit(5, 500.0), 5);
        p.on_hit(3, &credit(50, 50.0), 6);
        // PIN ignores cost: evict 2 (5 tests) first.
        assert_eq!(p.victims(2), vec![2, 3]);
    }

    #[test]
    fn pinc_uses_cost_saved() {
        let mut p = Policy::new(PolicyKind::Pinc);
        for e in 1..=3 {
            p.on_insert(e, e as u64);
        }
        p.on_hit(1, &credit(100, 1.0), 4);
        p.on_hit(2, &credit(5, 500.0), 5);
        p.on_hit(3, &credit(50, 50.0), 6);
        // PINC ignores test counts: evict 1 (cost 1.0) first.
        assert_eq!(p.victims(2), vec![1, 3]);
    }

    #[test]
    fn hd_blends_pin_and_pinc() {
        let mut p = Policy::new(PolicyKind::Hd);
        for e in 1..=3 {
            p.on_insert(e, e as u64);
        }
        // Entry 1: great on PIN, terrible on PINC. Entry 2: the reverse.
        // Entry 3: mediocre on both -> HD should protect neither extreme
        // unduly; entry 3's rank-sum (1+1=2) beats 1 (2+0=2 tie) ...
        p.on_hit(1, &credit(100, 1.0), 4);
        p.on_hit(2, &credit(5, 500.0), 5);
        p.on_hit(3, &credit(50, 50.0), 6);
        let v = p.victims(3);
        assert_eq!(v.len(), 3);
        // rank_PIN: 2(0) 3(1) 1(2); rank_PINC: 1(0) 3(1) 2(2)
        // rank-sum: 1 -> 2, 2 -> 2, 3 -> 2; tie-broken by last_used: 1,2,3.
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn eviction_forgets_state() {
        let mut p = Policy::new(PolicyKind::Pop);
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        p.on_evict(1);
        assert_eq!(p.victims(5), vec![2]);
    }

    #[test]
    fn never_used_entries_evicted_before_used_pin() {
        let mut p = Policy::new(PolicyKind::Pin);
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        p.on_hit(2, &credit(10, 10.0), 3);
        assert_eq!(p.victims(1), vec![1]);
    }

    #[test]
    fn kind_parsing() {
        assert_eq!("hd".parse::<PolicyKind>().unwrap(), PolicyKind::Hd);
        assert_eq!("LRU".parse::<PolicyKind>().unwrap(), PolicyKind::Lru);
        assert!("nope".parse::<PolicyKind>().is_err());
        assert_eq!(PolicyKind::all().len(), 5);
    }

    #[test]
    fn victims_is_stable_and_bounded() {
        let mut p = Policy::new(PolicyKind::Lru);
        for e in 0..10 {
            p.on_insert(e, e as u64);
        }
        assert_eq!(p.victims(0), Vec::<EntryId>::new());
        assert_eq!(p.victims(100).len(), 10);
        // Calling victims twice without evictions yields the same answer.
        assert_eq!(p.victims(4), p.victims(4));
    }
}
