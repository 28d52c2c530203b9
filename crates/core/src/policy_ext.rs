//! Extension replacement policies beyond the paper's bundled five.
//!
//! GC is "designed as a pluggable cache, allowing any future component to be
//! incorporated (… replacement policies …)" (paper §1). This module
//! exercises that claim with three genuinely different policies used by the
//! ablation harness (`exp6_ablation`) and available to applications:
//!
//! * [`GdsPolicy`] — GreedyDual-Size (Cao & Irani), the classic cost/size
//!   web-cache policy adapted to graph caching: an entry's credit is the
//!   verification cost it saves per byte it occupies, with the usual
//!   inflation term so long-idle entries age out;
//! * [`HdArithPolicy`] — an arithmetic-mean variant of HD (normalised
//!   PIN + PINC), the main ablation against the bundled rank-sum HD
//!   (`exp6_ablation`);
//! * [`RandomPolicy`] — seeded random eviction, the control baseline every
//!   informed policy must beat.

use crate::entry::EntryId;
use crate::policy::{HitCredit, ReplacementPolicy};
use std::collections::HashMap;

/// GreedyDual-Size: score `H(e) = L + cost_saved(e) / size(e)`, evict the
/// minimum-`H` entry and raise the inflation level `L` to the evicted score.
#[derive(Debug, Default)]
pub struct GdsPolicy {
    inflation: f64,
    /// entry -> (score H, size bytes, cumulative cost credit)
    state: HashMap<EntryId, (f64, usize, f64)>,
}

impl GdsPolicy {
    /// New GDS policy with zero inflation.
    pub fn new() -> Self {
        Self::default()
    }

    fn rescore(&mut self, entry: EntryId) {
        if let Some((h, size, credit)) = self.state.get_mut(&entry) {
            *h = self.inflation + 1.0 + *credit / (*size).max(1) as f64;
        }
    }
}

impl ReplacementPolicy for GdsPolicy {
    fn name(&self) -> &'static str {
        "GDS"
    }

    fn on_insert(&mut self, entry: EntryId, _now: u64) {
        // Size unknown through the unsized hook; assume unit size.
        self.state.insert(entry, (self.inflation + 1.0, 1, 0.0));
    }

    fn on_insert_sized(&mut self, entry: EntryId, _now: u64, bytes: usize) {
        self.state.insert(entry, (0.0, bytes.max(1), 0.0));
        self.rescore(entry);
    }

    fn on_hit(&mut self, entry: EntryId, credit: &HitCredit, _now: u64) {
        if let Some((_, _, c)) = self.state.get_mut(&entry) {
            *c += credit.cost_saved.max(credit.tests_saved as f64);
        }
        self.rescore(entry);
    }

    fn on_evict(&mut self, entry: EntryId) {
        if let Some((h, _, _)) = self.state.remove(&entry) {
            // Inflation only rises.
            if h > self.inflation {
                self.inflation = h;
            }
        }
    }

    fn victims(&mut self, x: usize) -> Vec<EntryId> {
        let mut ids: Vec<(EntryId, f64)> =
            self.state.iter().map(|(&e, &(h, _, _))| (e, h)).collect();
        ids.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ids.into_iter().take(x).map(|(e, _)| e).collect()
    }
}

/// Arithmetic HD: eviction score = `PIN(e)/max_PIN + PINC(e)/max_PINC`,
/// normalised at decision time (scale-dependent, unlike the bundled
/// rank-sum HD).
#[derive(Debug, Default)]
pub struct HdArithPolicy {
    /// entry -> (tests_saved, cost_saved, last_used)
    state: HashMap<EntryId, (u64, f64, u64)>,
}

impl HdArithPolicy {
    /// New arithmetic-HD policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for HdArithPolicy {
    fn name(&self) -> &'static str {
        "HD-arith"
    }

    fn on_insert(&mut self, entry: EntryId, now: u64) {
        self.state.insert(entry, (0, 0.0, now));
    }

    fn on_hit(&mut self, entry: EntryId, credit: &HitCredit, now: u64) {
        let e = self.state.entry(entry).or_insert((0, 0.0, now));
        e.0 += credit.tests_saved;
        e.1 += credit.cost_saved;
        e.2 = now;
    }

    fn on_evict(&mut self, entry: EntryId) {
        self.state.remove(&entry);
    }

    fn victims(&mut self, x: usize) -> Vec<EntryId> {
        let max_pin = self.state.values().map(|v| v.0).max().unwrap_or(0).max(1) as f64;
        let max_pinc = self.state.values().map(|v| v.1).fold(0.0f64, f64::max).max(1.0);
        let mut ids: Vec<(EntryId, f64, u64)> = self
            .state
            .iter()
            .map(|(&e, &(pin, pinc, last))| (e, pin as f64 / max_pin + pinc / max_pinc, last))
            .collect();
        ids.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
                .then(a.0.cmp(&b.0))
        });
        ids.into_iter().take(x).map(|(e, _, _)| e).collect()
    }
}

/// Seeded random eviction (control baseline). Deterministic per seed via a
/// splitmix-style counter, so experiments stay reproducible.
#[derive(Debug)]
pub struct RandomPolicy {
    entries: Vec<EntryId>,
    state: u64,
}

impl RandomPolicy {
    /// New random policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy { entries: Vec::new(), state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.state >> 11
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn on_insert(&mut self, entry: EntryId, _now: u64) {
        self.entries.push(entry);
    }

    fn on_hit(&mut self, _entry: EntryId, _credit: &HitCredit, _now: u64) {}

    fn on_evict(&mut self, entry: EntryId) {
        self.entries.retain(|&e| e != entry);
    }

    fn victims(&mut self, x: usize) -> Vec<EntryId> {
        let mut pool = self.entries.clone();
        let mut out = Vec::with_capacity(x.min(pool.len()));
        while out.len() < x && !pool.is_empty() {
            let i = (self.next() as usize) % pool.len();
            out.push(pool.swap_remove(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HitKind;

    fn credit(tests: u64, cost: f64) -> HitCredit {
        HitCredit { kind: HitKind::CachedInQuery, tests_saved: tests, cost_saved: cost }
    }

    #[test]
    fn gds_prefers_cost_dense_entries() {
        let mut p = GdsPolicy::new();
        p.on_insert_sized(1, 1, 1000); // big, cheap
        p.on_insert_sized(2, 2, 100); // small, valuable
        p.on_hit(1, &credit(1, 10.0), 3);
        p.on_hit(2, &credit(1, 10.0), 4);
        // Entry 1: 10/1000; entry 2: 10/100 -> evict 1 first.
        assert_eq!(p.victims(1), vec![1]);
    }

    #[test]
    fn gds_inflation_ages_idle_entries() {
        let mut p = GdsPolicy::new();
        p.on_insert_sized(1, 1, 100);
        p.on_hit(1, &credit(0, 50.0), 2);
        p.on_insert_sized(2, 3, 100);
        // Evicting 2 (score 0) raises inflation to ~0; evict 1 next...
        let v = p.victims(1);
        assert_eq!(v, vec![2]);
        p.on_evict(2);
        // New entry after inflation gets a competitive base score.
        p.on_insert_sized(3, 4, 100);
        assert!(p.victims(1) == vec![3] || p.victims(1) == vec![1]);
    }

    #[test]
    fn hd_arith_blends_both_axes() {
        let mut p = HdArithPolicy::new();
        for e in 1..=3 {
            p.on_insert(e, e as u64);
        }
        p.on_hit(1, &credit(100, 0.0), 4); // all PIN
        p.on_hit(2, &credit(0, 100.0), 5); // all PINC
        p.on_hit(3, &credit(60, 60.0), 6); // balanced
                                           // Entry 3 scores 0.6 + 0.6 = 1.2 > entries 1, 2 at 1.0.
        let v = p.victims(3);
        assert_eq!(v[2], 3, "balanced entry is most protected");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut p = RandomPolicy::new(seed);
            for e in 0..20 {
                p.on_insert(e, e as u64);
            }
            p.victims(5)
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn random_victims_are_live_and_distinct() {
        let mut p = RandomPolicy::new(3);
        for e in 0..10 {
            p.on_insert(e, 0);
        }
        p.on_evict(4);
        let v = p.victims(20);
        assert_eq!(v.len(), 9);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 9);
        assert!(!v.contains(&4));
    }
}
