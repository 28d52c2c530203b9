//! Baseline execution: Method M without any cache.

use crate::{Dataset, Engine, Method, QueryKind, QueryProfile};
use gc_graph::{BitSet, Graph};
use gc_iso::VfScratch;
use std::time::{Duration, Instant};

/// Result of running one query through Method M alone (filter + verify).
///
/// The Demonstrator's speedup metric divides the base method's averages by
/// GraphCache's (paper §2): this struct is the numerator side.
#[derive(Debug, Clone)]
pub struct BaseRun {
    /// The exact answer set.
    pub answer: BitSet,
    /// `|C_M|` — candidate-set size after filtering.
    pub candidates: usize,
    /// Number of sub-iso tests executed (= `|C_M|`; every candidate is
    /// verified).
    pub sub_iso_tests: usize,
    /// Total verifier search steps across all tests (cost unit for PINC).
    pub verify_steps: u64,
    /// Wall-clock time of filter + verification.
    pub elapsed: Duration,
}

/// Execute `query` over `dataset` using `method` for filtering and `engine`
/// for verification — no cache involved.
pub fn execute_base(
    dataset: &Dataset,
    method: &dyn Method,
    engine: Engine,
    query: &Graph,
    kind: QueryKind,
) -> BaseRun {
    let start = Instant::now();
    let candidates = method.filter(dataset, query, kind);
    let cand_count = candidates.count();
    let mut answer = dataset.empty_set();
    let mut verify_steps = 0u64;
    // One query profile + one scratch for the whole candidate sweep: the
    // per-candidate loop is setup- and allocation-free. No prefetch of the
    // next candidate, unlike the cache's verify stage: this run is the
    // fixed reference `time_speedup` is measured against.
    let profile = QueryProfile::new(dataset, query, kind);
    let mut scratch = VfScratch::new();
    for gid in candidates.iter() {
        let (contained, steps) =
            engine.verify_candidate(dataset, &profile, query, gid as u32, &mut scratch);
        verify_steps += steps;
        if contained {
            answer.insert(gid);
        }
    }
    BaseRun {
        answer,
        candidates: cand_count,
        sub_iso_tests: cand_count,
        verify_steps,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FtvMethod, SiMethod};
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn ds() -> Dataset {
        Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),         // contains 0-1
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]), // contains 0-1
            g(&[3, 3], &[(0, 1)]),                    // does not
            g(&[0, 1], &[(0, 1)]),                    // exact
        ])
    }

    #[test]
    fn si_and_ftv_agree_on_answers() {
        let d = ds();
        let q = g(&[0, 1], &[(0, 1)]);
        let si = execute_base(&d, &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
        let ftv_m = FtvMethod::build(&d, 2);
        let ftv = execute_base(&d, &ftv_m, Engine::Vf2, &q, QueryKind::Subgraph);
        assert_eq!(si.answer, ftv.answer);
        assert_eq!(si.answer.to_vec(), vec![0, 1, 3]);
        // FTV performs fewer sub-iso tests than SI.
        assert!(ftv.sub_iso_tests <= si.sub_iso_tests);
        assert_eq!(si.sub_iso_tests, 4);
    }

    #[test]
    fn supergraph_queries() {
        let d = ds();
        // Query contains graph 3 (edge 0-1) and graph 0 (path 0-1-2).
        let q = g(&[0, 1, 2, 0], &[(0, 1), (1, 2), (0, 3)]);
        let si = execute_base(&d, &SiMethod, Engine::Vf2, &q, QueryKind::Supergraph);
        let ftv_m = FtvMethod::build(&d, 2);
        let ftv = execute_base(&d, &ftv_m, Engine::Vf2, &q, QueryKind::Supergraph);
        assert_eq!(si.answer, ftv.answer);
        assert_eq!(si.answer.to_vec(), vec![0, 3]);
    }

    #[test]
    fn both_engines_agree() {
        let d = ds();
        let q = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let a = execute_base(&d, &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
        let b = execute_base(&d, &SiMethod, Engine::Ullmann, &q, QueryKind::Subgraph);
        assert_eq!(a.answer, b.answer);
    }
}
