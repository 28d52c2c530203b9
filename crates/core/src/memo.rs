//! Generation-versioned exact answer memo.
//!
//! A bounded map from canonical query hash (the query's WL fingerprint,
//! computed at query entry and passed in, mixed with the query kind) to a
//! complete, verified answer set, stamped with the
//! [`gc_method::Dataset`] generation it was computed against. Sitting in
//! front of the containment probe, it serves repeat queries that the
//! fingerprint table cannot: queries the admission filter rejected, queries
//! evicted by replacement, and queries whose entries never existed — the
//! memo remembers *answers*, not cache entries, so it costs no index slots
//! and never competes with the replacement policy.
//!
//! ## Correctness
//!
//! A memo answer is only served when its recorded dataset generation equals
//! the live dataset's — any insert or remove bumps the generation, which
//! invalidates the **entire** memo in O(1) (stale slots are dropped lazily
//! on the next lookup/store). A hit is confirmed with
//! [`gc_iso::iso::confirm_isomorphic`] — the entry table's primitive: equal
//! presentation, else a profiled isomorphism search — so fingerprint
//! collisions cannot leak a wrong answer. Within a generation
//! the dataset is immutable, hence a memoized answer set is exactly the
//! answer Method M alone would produce: the memo is sound by construction.

use gc_graph::{BitSet, Graph};
use gc_iso::GraphProfile;
use gc_method::QueryKind;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// One memoized answer.
#[derive(Debug, Clone)]
pub(crate) struct MemoHit {
    /// The complete answer set (current-universe bitset).
    pub answer: BitSet,
    /// `|C_M|` of the original execution (tests an exact repeat saves).
    pub base_tests: u64,
    /// Steps the hit's confirmation took
    /// ([`gc_iso::iso::confirm_isomorphic`]; 0 = equal presentation).
    pub confirm_steps: u64,
}

#[derive(Debug)]
struct MemoSlot {
    graph: Graph,
    /// Full profile of `graph`, built at [`AnswerMemo::store`] so a lookup
    /// that must search (an isomorph, not a repeat) does no pattern set-up.
    profile: GraphProfile,
    kind: QueryKind,
    answer: BitSet,
    base_tests: u64,
}

impl MemoSlot {
    /// Confirmation steps if this slot answers `query` under `kind`.
    fn confirm(&self, query: &Graph, kind: QueryKind) -> Option<u64> {
        if self.kind != kind {
            return None;
        }
        gc_iso::iso::confirm_isomorphic(&self.graph, &self.profile, query)
    }
}

/// Bounded, generation-versioned answer memo (see module docs). Shared by
/// reference: the one lock every query's memo access goes through lives in
/// here, is never taken by a disabled memo, and is held for a hash probe
/// plus — on a repeat — one presentation comparison and the answer copy.
#[derive(Debug)]
pub(crate) struct AnswerMemo {
    /// Maximum stored answers (0 = memo disabled).
    capacity: usize,
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    /// Keyed by `mix(fingerprint, kind)`; collisions resolved by exact
    /// isomorphism on the stored graph.
    map: HashMap<u64, Vec<MemoSlot>>,
    /// Insertion order for FIFO bounding (keys may repeat across
    /// generations; eviction tolerates misses).
    order: VecDeque<u64>,
    /// Dataset generation the stored answers are valid for.
    generation: u64,
    /// Live slot count (order may hold stale keys).
    len: usize,
}

/// The memo's map key for a query with WL `fingerprint`.
fn memo_key(fingerprint: u64, kind: QueryKind) -> u64 {
    let tag = match kind {
        QueryKind::Subgraph => 0x5355_4251,   // "SUBQ"
        QueryKind::Supergraph => 0x5355_5051, // "SUPQ"
    };
    gc_graph::hash::mix(fingerprint, tag)
}

impl MemoState {
    /// Drop everything if the memo was computed against an older dataset
    /// generation — the O(1)-invalidation contract (one comparison per
    /// lookup; the actual clear is amortized over the stale entries).
    fn sync_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.map.clear();
            self.order.clear();
            self.len = 0;
            self.generation = generation;
        }
    }
}

impl AnswerMemo {
    pub(crate) fn new(capacity: usize) -> Self {
        AnswerMemo { capacity, state: Mutex::default() }
    }

    /// Look up the exact answer for `query` (WL `fingerprint`) at dataset
    /// `generation`.
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        query: &Graph,
        kind: QueryKind,
        generation: u64,
    ) -> Option<MemoHit> {
        if self.capacity == 0 {
            return None;
        }
        let mut state = self.state.lock();
        state.sync_generation(generation);
        state.map.get(&memo_key(fingerprint, kind))?.iter().find_map(|s| {
            let confirm_steps = s.confirm(query, kind)?;
            Some(MemoHit { answer: s.answer.clone(), base_tests: s.base_tests, confirm_steps })
        })
    }

    /// Store a freshly executed query's exact answer at `generation`.
    pub(crate) fn store(
        &self,
        fingerprint: u64,
        query: &Graph,
        kind: QueryKind,
        answer: &BitSet,
        base_tests: u64,
        generation: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        // Built before the lock; wasted only on the rare duplicate store.
        let profile = GraphProfile::new(query, None);
        let mut guard = self.state.lock();
        let state = &mut *guard;
        state.sync_generation(generation);
        let key = memo_key(fingerprint, kind);
        let holds_query = |s: &MemoSlot| s.confirm(query, kind).is_some();
        if state.map.get(&key).is_some_and(|slots| slots.iter().any(holds_query)) {
            return; // already memoized this generation
        }
        while state.len >= self.capacity {
            let Some(old_key) = state.order.pop_front() else { break };
            if let Some(slots) = state.map.get_mut(&old_key) {
                if !slots.is_empty() {
                    slots.remove(0);
                    state.len -= 1;
                }
                if slots.is_empty() {
                    state.map.remove(&old_key);
                }
            }
        }
        state.map.entry(key).or_default().push(MemoSlot {
            graph: query.clone(),
            profile,
            kind,
            answer: answer.clone(),
            base_tests,
        });
        state.order.push_back(key);
        state.len += 1;
    }

    /// Live memoized answers (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::hash::fingerprint;
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn lookup(memo: &AnswerMemo, q: &Graph, kind: QueryKind, generation: u64) -> Option<MemoHit> {
        memo.lookup(fingerprint(q), q, kind, generation)
    }

    fn store(memo: &AnswerMemo, q: &Graph, answer: &BitSet, base_tests: u64, generation: u64) {
        memo.store(fingerprint(q), q, QueryKind::Subgraph, answer, base_tests, generation);
    }

    #[test]
    fn memoizes_and_confirms_isomorphism() {
        let memo = AnswerMemo::new(4);
        let q = g(&[0, 1], &[(0, 1)]);
        let answer = BitSet::from_indices(4, [1usize, 3]);
        assert!(lookup(&memo, &q, QueryKind::Subgraph, 0).is_none());
        store(&memo, &q, &answer, 7, 0);
        // The identical presentation hits without an isomorphism search …
        let hit = lookup(&memo, &q.clone(), QueryKind::Subgraph, 0).expect("memo hit");
        assert_eq!((hit.answer, hit.base_tests, hit.confirm_steps), (answer.clone(), 7, 0));
        // … an isomorphic relabeling of the same query hits through one.
        let q_iso = g(&[1, 0], &[(0, 1)]);
        let hit = lookup(&memo, &q_iso, QueryKind::Subgraph, 0).expect("memo hit");
        assert_eq!(hit.answer, answer);
        assert!(hit.confirm_steps > 0, "a different presentation is confirmed by search");
        // Other kind misses.
        assert!(lookup(&memo, &q, QueryKind::Supergraph, 0).is_none());
    }

    #[test]
    fn fingerprint_collisions_are_confirmed_apart() {
        // 1-WL gives a hexagon and two triangles the same fingerprint, so
        // they share a bucket; only the stored one may hit.
        let c6 = g(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let two_c3 = g(&[0; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_eq!(fingerprint(&c6), fingerprint(&two_c3));
        let memo = AnswerMemo::new(4);
        store(&memo, &c6, &BitSet::from_indices(2, [0usize]), 2, 0);
        assert!(lookup(&memo, &two_c3, QueryKind::Subgraph, 0).is_none());
        store(&memo, &two_c3, &BitSet::from_indices(2, [1usize]), 2, 0);
        assert_eq!(memo.len(), 2, "not a duplicate of the hexagon");
        assert_eq!(lookup(&memo, &two_c3, QueryKind::Subgraph, 0).unwrap().answer.to_vec(), [1]);
        assert_eq!(lookup(&memo, &c6, QueryKind::Subgraph, 0).unwrap().answer.to_vec(), [0]);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let memo = AnswerMemo::new(4);
        let q = g(&[0], &[]);
        store(&memo, &q, &BitSet::from_indices(2, [0usize]), 2, 0);
        assert!(lookup(&memo, &q, QueryKind::Subgraph, 0).is_some());
        assert!(lookup(&memo, &q, QueryKind::Subgraph, 1).is_none(), "new generation misses");
        assert_eq!(memo.len(), 0, "stale slots dropped");
    }

    #[test]
    fn capacity_bounds_and_zero_disables() {
        let memo = AnswerMemo::new(2);
        for i in 0..5u32 {
            store(&memo, &g(&[i], &[]), &BitSet::new(1), 1, 0);
        }
        assert!(memo.len() <= 2);
        // The newest entries survive FIFO eviction.
        assert!(lookup(&memo, &g(&[4], &[]), QueryKind::Subgraph, 0).is_some());
        assert!(lookup(&memo, &g(&[0], &[]), QueryKind::Subgraph, 0).is_none());
    }

    #[test]
    fn disabled_memo_never_takes_the_lock() {
        let off = AnswerMemo::new(0);
        let q = g(&[0], &[]);
        // Held for the whole test: a lookup or store that locked would
        // never return, so a second thread reports back through a channel.
        let held = off.state.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                store(&off, &q, &BitSet::new(1), 1, 0);
                tx.send(lookup(&off, &q, QueryKind::Subgraph, 0).is_none()).unwrap();
            });
            let missed = rx.recv_timeout(std::time::Duration::from_secs(20));
            drop(held); // lets a (wrongly) blocked thread finish, so the scope can join
            assert_eq!(missed, Ok(true), "a disabled memo answered without the lock");
        });
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn duplicate_store_is_idempotent() {
        let memo = AnswerMemo::new(4);
        store(&memo, &g(&[0, 1], &[(0, 1)]), &BitSet::new(2), 1, 0);
        store(&memo, &g(&[1, 0], &[(0, 1)]), &BitSet::new(2), 1, 0);
        assert_eq!(memo.len(), 1, "isomorphic duplicate not stored twice");
    }
}
