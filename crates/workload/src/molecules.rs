//! Molecule-like graph generator (AIDS dataset substitute).
//!
//! The AIDS Antiviral Screen graphs are small organic molecules: sparse
//! (average degree ≈ 2.1), mostly tree-shaped with a few rings, with a
//! heavily skewed label (atom) distribution dominated by carbon. The
//! generator reproduces those statistics:
//!
//! 1. grow a random tree with valence-capped preferential attachment
//!    (max degree 4, like tetravalent carbon);
//! 2. close a small number of rings by adding edges between nearby tree
//!    vertices (respecting the valence cap);
//! 3. draw labels from a configurable skewed distribution.
//!
//! The cache's behaviour depends on sparsity, label skew, and the
//! containment structure of queries — all preserved here; absolute NCI
//! chemistry is not required.

use gc_graph::{Graph, GraphBuilder, Label, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the molecule generator.
#[derive(Debug, Clone)]
pub struct MoleculeParams {
    /// Minimum vertices per graph.
    pub min_vertices: usize,
    /// Maximum vertices per graph.
    pub max_vertices: usize,
    /// Maximum vertex degree ("valence").
    pub max_degree: usize,
    /// Probability of attempting one ring closure per tree vertex.
    pub ring_prob: f64,
    /// Cumulative-weight label distribution: `(label, weight)`; weights need
    /// not sum to 1.
    pub label_weights: Vec<(u32, f64)>,
}

impl Default for MoleculeParams {
    fn default() -> Self {
        MoleculeParams {
            min_vertices: 10,
            max_vertices: 60,
            max_degree: 4,
            ring_prob: 0.15,
            // Roughly the AIDS atom mix: C dominates, then O, N, rarer rest.
            label_weights: vec![
                (0, 0.60), // C
                (1, 0.14), // O
                (2, 0.12), // N
                (3, 0.06), // S
                (4, 0.04), // Cl
                (5, 0.02), // F
                (6, 0.01), // P
                (7, 0.01), // Br
            ],
        }
    }
}

impl MoleculeParams {
    fn sample_label(&self, rng: &mut impl Rng) -> Label {
        let total: f64 = self.label_weights.iter().map(|&(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for &(l, w) in &self.label_weights {
            if x < w {
                return Label(l);
            }
            x -= w;
        }
        Label(self.label_weights.last().expect("non-empty weights").0)
    }
}

/// Generate one molecule-like graph.
pub fn molecule(params: &MoleculeParams, rng: &mut impl Rng) -> Graph {
    assert!(params.min_vertices >= 1 && params.max_vertices >= params.min_vertices);
    assert!(params.max_degree >= 2, "valence must allow chains");
    let n = rng.gen_range(params.min_vertices..=params.max_vertices);
    let mut b = GraphBuilder::with_capacity(n, n + n / 4);
    let mut degree = vec![0usize; n];

    for _ in 0..n {
        b.add_vertex(params.sample_label(rng));
    }
    // Tree growth: attach vertex i to a random earlier vertex with spare
    // valence; bias towards low-degree vertices to keep chains long (like
    // molecule backbones).
    for i in 1..n {
        let mut tries = 0;
        let parent = loop {
            let candidate = rng.gen_range(0..i);
            if degree[candidate] < params.max_degree || tries > 16 {
                break candidate;
            }
            tries += 1;
        };
        b.add_edge(parent as VertexId, i as VertexId).expect("tree edges are fresh");
        degree[parent] += 1;
        degree[i] += 1;
    }
    // Ring closures.
    for v in 0..n {
        if degree[v] >= params.max_degree || !rng.gen_bool(params.ring_prob) {
            continue;
        }
        let w = rng.gen_range(0..n);
        if w != v && degree[w] < params.max_degree && !b.has_edge(v as VertexId, w as VertexId) {
            b.add_edge(v as VertexId, w as VertexId).expect("checked non-duplicate");
            degree[v] += 1;
            degree[w] += 1;
        }
    }
    b.build()
}

/// Generate a dataset of `count` molecule-like graphs from a seed.
pub fn molecule_dataset(count: usize, seed: u64) -> Vec<Graph> {
    molecule_dataset_with(count, &MoleculeParams::default(), seed)
}

/// Generate a dataset with custom parameters.
pub fn molecule_dataset_with(count: usize, params: &MoleculeParams, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| molecule(params, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = molecule_dataset(5, 42);
        let b = molecule_dataset(5, 42);
        let c = molecule_dataset(5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_are_molecule_like() {
        let ds = molecule_dataset(50, 7);
        for g in &ds {
            assert!(g.vertex_count() >= 10 && g.vertex_count() <= 60);
            assert!(g.is_connected(), "molecules are connected");
            assert!(g.max_degree() <= 4, "valence cap");
            assert!(g.avg_degree() < 3.0, "sparse like molecules");
            // Tree has n-1 edges; rings add a few.
            assert!(g.edge_count() >= g.vertex_count() - 1);
            assert!(g.edge_count() <= g.vertex_count() + g.vertex_count() / 2);
        }
    }

    #[test]
    fn labels_are_skewed_towards_carbon() {
        let ds = molecule_dataset(100, 11);
        let mut counts = [0usize; 8];
        let mut total = 0usize;
        for g in &ds {
            for v in g.vertices() {
                counts[g.label(v).0 as usize] += 1;
                total += 1;
            }
        }
        let carbon = counts[0] as f64 / total as f64;
        assert!(carbon > 0.5 && carbon < 0.7, "carbon share {carbon}");
        assert!(counts[7] < counts[0] / 10, "rare labels stay rare");
    }

    #[test]
    fn custom_params_respected() {
        let params = MoleculeParams {
            min_vertices: 3,
            max_vertices: 5,
            max_degree: 2, // paths/cycles only
            ring_prob: 0.0,
            label_weights: vec![(9, 1.0)],
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let g = molecule(&params, &mut rng);
            assert!(g.vertex_count() <= 5);
            assert!(g.max_degree() <= 2);
            assert!(g.vertices().all(|v| g.label(v) == Label(9)));
        }
    }
}
