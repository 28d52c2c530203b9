//! Per-graph verification cost model.
//!
//! PINC ranks cached entries by the *cost* of the sub-iso tests they save,
//! not just their number. That requires estimating what verifying each
//! dataset graph would have cost. The model keeps a per-graph exponential
//! moving average of observed verifier steps, seeded with a size heuristic
//! (`n + m`) before the first observation — larger graphs cost more to
//! verify, which is exactly the signal PINC exploits and PIN ignores.
//!
//! Estimates live in atomics so observation needs only `&self`, from any
//! of [`crate::SharedGraphCache`]'s client threads. Under concurrent
//! observation the EWMA update is a
//! load/compute/store and two racing updates may drop one sample — benign
//! for a smoothed heuristic that only ranks eviction candidates, and worth
//! not paying a lock for on every verified candidate.

use gc_graph::BitSet;
use gc_method::Dataset;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// EWMA smoothing factor: responsive but stable.
const ALPHA: f64 = 0.3;

/// Per-dataset-graph verification cost estimates (verifier steps).
#[derive(Debug)]
pub struct CostModel {
    /// `f64` bit patterns, updated racily-but-benignly (see module docs).
    est: Vec<AtomicU64>,
    observed: Vec<AtomicBool>,
}

impl CostModel {
    /// Seed estimates from graph sizes.
    pub fn new(dataset: &Dataset) -> Self {
        let est = dataset
            .graphs()
            .iter()
            .map(|g| AtomicU64::new(((g.vertex_count() + g.edge_count()) as f64).to_bits()))
            .collect();
        CostModel { observed: (0..dataset.len()).map(|_| AtomicBool::new(false)).collect(), est }
    }

    /// Record the measured steps of verifying graph `gid`. Ids beyond the
    /// model's universe are ignored — with a dynamic dataset a query may
    /// verify a graph inserted after the model was sized (the next rebuild
    /// or restore re-seeds it).
    pub fn observe(&self, gid: usize, steps: u64) {
        let (Some(est), Some(observed)) = (self.est.get(gid), self.observed.get(gid)) else {
            return;
        };
        let s = steps as f64;
        let next = if observed.swap(true, Ordering::Relaxed) {
            let current = f64::from_bits(est.load(Ordering::Relaxed));
            ALPHA * s + (1.0 - ALPHA) * current
        } else {
            s
        };
        est.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Estimated cost of verifying graph `gid` (1.0 — the cheapest
    /// possible test — for ids beyond the model's universe).
    pub fn estimate(&self, gid: usize) -> f64 {
        self.est.get(gid).map_or(1.0, |e| f64::from_bits(e.load(Ordering::Relaxed)))
    }

    /// Σ estimates over a set of graphs (the cost a hit saved).
    pub fn sum_over(&self, set: &BitSet) -> f64 {
        self.sum_over_ids(set.iter())
    }

    /// Σ estimates over an id stream — the allocation-free form of
    /// [`CostModel::sum_over`] for lazily-combined sets (e.g.
    /// [`gc_graph::BitSet::intersection_ones`]).
    pub fn sum_over_ids(&self, ids: impl Iterator<Item = usize>) -> f64 {
        ids.map(|g| self.estimate(g)).sum()
    }

    /// Mean estimate over a set of graphs; 1.0 — the cheapest possible
    /// test, as for ids beyond the model — over the empty set.
    pub fn mean_over(&self, set: &BitSet) -> f64 {
        match set.count() {
            0 => 1.0,
            n => self.sum_over(set) / n as f64,
        }
    }

    /// Export the per-graph `(estimate, observed)` state for persistence
    /// snapshots, in graph-id order.
    pub fn export(&self) -> Vec<(f64, bool)> {
        self.est
            .iter()
            .zip(&self.observed)
            .map(|(e, o)| (f64::from_bits(e.load(Ordering::Relaxed)), o.load(Ordering::Relaxed)))
            .collect()
    }

    /// Restore one graph's persisted estimate (warm restart). Out-of-range
    /// ids are ignored — the restore path validates the universe first, so
    /// this only guards against logic errors.
    pub fn restore_estimate(&self, gid: usize, est: f64, observed: bool) {
        if let (Some(e), Some(o)) = (self.est.get(gid), self.observed.get(gid)) {
            e.store(est.to_bits(), Ordering::Relaxed);
            o.store(observed, Ordering::Relaxed);
        }
    }
}

impl Clone for CostModel {
    fn clone(&self) -> Self {
        CostModel {
            est: self.est.iter().map(|a| AtomicU64::new(a.load(Ordering::Relaxed))).collect(),
            observed: self
                .observed
                .iter()
                .map(|a| AtomicBool::new(a.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    fn ds() -> Dataset {
        Dataset::new(vec![
            graph_from_parts(&[Label(0)], &[]).unwrap(),
            graph_from_parts(&[Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap(),
        ])
    }

    #[test]
    fn seeded_by_size() {
        let m = CostModel::new(&ds());
        assert!(m.estimate(1) > m.estimate(0));
    }

    #[test]
    fn observation_replaces_then_smooths() {
        let m = CostModel::new(&ds());
        m.observe(0, 100);
        assert!((m.estimate(0) - 100.0).abs() < 1e-9);
        m.observe(0, 0);
        assert!((m.estimate(0) - 70.0).abs() < 1e-9); // 0.3*0 + 0.7*100
    }

    #[test]
    fn sum_over_sets() {
        let m = CostModel::new(&ds());
        m.observe(0, 10);
        m.observe(1, 30);
        let all = BitSet::from_indices(2, [0usize, 1]);
        assert!((m.sum_over(&all) - 40.0).abs() < 1e-9);
        assert!((m.mean_over(&all) - 20.0).abs() < 1e-9);
        let none = BitSet::new(2);
        assert_eq!(m.sum_over(&none), 0.0);
        assert_eq!(m.mean_over(&none), 1.0);
    }

    #[test]
    fn out_of_range_ids_are_benign() {
        let m = CostModel::new(&ds());
        m.observe(99, 1000); // ignored, no panic
        assert!((m.estimate(99) - 1.0).abs() < 1e-12);
        let beyond = BitSet::from_indices(100, [0usize, 99]);
        assert!((m.sum_over(&beyond) - (m.estimate(0) + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let m = CostModel::new(&ds());
        m.observe(0, 10);
        let snap = m.clone();
        m.observe(0, 1000);
        assert!((snap.estimate(0) - 10.0).abs() < 1e-9);
        assert!(snap.estimate(0) < m.estimate(0));
    }
}
