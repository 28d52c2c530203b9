//! Reference implementations of the feature front-end.
//!
//! These are the pre-arena/pre-flat-postings data structures, kept as
//! *executable specifications*: the property tests in `prop.rs` assert the
//! production structures compute identical candidate sets. They live with
//! the tests, are built from `gc_index`'s public API only, and are **not**
//! on any hot path — do not optimize them; their value is being obviously
//! equivalent to the documented semantics.

use gc_graph::{BitSet, Graph, GraphId, Label};
use gc_index::{
    enumerate_label_paths, enumerate_tree_codes, feature_hash, EntryId, FeatureConfig, FeatureVec,
    TreeConfig,
};
use std::collections::HashMap;

/// A feature multiset as the materializing extraction builds it — the two
/// things a [`FeatureVec`] holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Features {
    /// `(feature_hash, count)` pairs sorted by hash.
    pub items: Vec<(u64, u32)>,
    /// Path enumeration was truncated.
    pub truncated: bool,
}

impl Features {
    /// The contents of a production feature vector.
    pub fn of(fv: &FeatureVec) -> Self {
        Features { items: fv.items().to_vec(), truncated: fv.truncated() }
    }
}

/// Materializing feature extraction: enumerate every path into an owned
/// `Vec<Vec<Label>>`, hash each, sort and aggregate. The pre-streaming
/// implementation of [`gc_index::feature_vec`].
pub fn feature_vec_materialized(g: &Graph, cfg: &FeatureConfig) -> Features {
    let (paths, truncated) = enumerate_label_paths(g, cfg);
    let mut hashes: Vec<u64> = paths.iter().map(|p| feature_hash(p)).collect();
    hashes.sort_unstable();
    let mut items: Vec<(u64, u32)> = Vec::new();
    for h in hashes {
        match items.last_mut() {
            Some((lh, c)) if *lh == h => *c += 1,
            _ => items.push((h, 1)),
        }
    }
    Features { items, truncated }
}

/// An indexed entry's `(hash, count)` items, for removal and the Σmin
/// total.
#[derive(Debug, Default)]
struct Slot {
    items: Vec<(u64, u32)>,
}

impl Slot {
    fn total_count(&self) -> u64 {
        self.items.iter().map(|&(_, c)| c as u64).sum()
    }
}

/// The HashMap-postings containment index over cached query graphs — the
/// pre-flat implementation of [`gc_index::QueryIndex`], semantics
/// documented there.
#[derive(Debug)]
pub struct RefQueryIndex {
    cfg: FeatureConfig,
    posting: HashMap<u64, Vec<(EntryId, u32)>>,
    slots: HashMap<EntryId, Slot>,
    unfiltered: Vec<EntryId>,
}

impl RefQueryIndex {
    /// New empty index with feature config `cfg`.
    pub fn new(cfg: FeatureConfig) -> Self {
        RefQueryIndex {
            cfg,
            posting: HashMap::new(),
            slots: HashMap::new(),
            unfiltered: Vec::new(),
        }
    }

    /// Extract a query's features under this index's config (materialized).
    pub fn features_of(&self, g: &Graph) -> Features {
        feature_vec_materialized(g, &self.cfg)
    }

    /// Index a cached query graph under `id`.
    pub fn insert(&mut self, id: EntryId, g: &Graph) {
        let fv = self.features_of(g);
        assert!(
            !self.slots.contains_key(&id) && !self.unfiltered.contains(&id),
            "duplicate entry id {id}"
        );
        if fv.truncated {
            self.unfiltered.push(id);
            return;
        }
        for &(h, c) in &fv.items {
            self.posting.entry(h).or_default().push((id, c));
        }
        self.slots.insert(id, Slot { items: fv.items });
    }

    /// Remove an entry. Unknown ids are ignored.
    pub fn remove(&mut self, id: EntryId) {
        if let Some(pos) = self.unfiltered.iter().position(|&e| e == id) {
            self.unfiltered.swap_remove(pos);
            return;
        }
        let Some(slot) = self.slots.remove(&id) else { return };
        for &(h, _) in &slot.items {
            if let Some(list) = self.posting.get_mut(&h) {
                if let Some(pos) = list.iter().position(|&(e, _)| e == id) {
                    list.swap_remove(pos);
                }
                if list.is_empty() {
                    self.posting.remove(&h);
                }
            }
        }
    }

    /// Cached entries that may *contain* the query (`g ⊑ h` candidates),
    /// sorted ascending.
    pub fn sub_case_candidates(&self, qf: &FeatureVec) -> Vec<EntryId> {
        let mut out: Vec<EntryId> = self.unfiltered.clone();
        if qf.truncated() || qf.is_empty() {
            out.extend(self.slots.keys().copied());
            out.sort_unstable();
            return out;
        }
        // acc[e] = number of query features satisfied by e.
        let mut acc: HashMap<EntryId, u32> = HashMap::new();
        let needed = qf.len() as u32;
        for (i, &(h, qc)) in qf.items().iter().enumerate() {
            let Some(list) = self.posting.get(&h) else {
                out.sort_unstable();
                return out;
            };
            for &(e, c) in list {
                if c >= qc {
                    if i == 0 {
                        acc.insert(e, 1);
                    } else if let Some(a) = acc.get_mut(&e) {
                        *a += 1;
                    }
                }
            }
        }
        out.extend(acc.iter().filter(|&(_, &a)| a == needed).map(|(&e, _)| e));
        out.sort_unstable();
        out
    }

    /// Cached entries possibly *contained in* the query (`h ⊑ g`
    /// candidates), sorted ascending.
    pub fn super_case_candidates(&self, qf: &FeatureVec) -> Vec<EntryId> {
        let mut out: Vec<EntryId> = self.unfiltered.clone();
        if qf.truncated() {
            out.extend(self.slots.keys().copied());
            out.sort_unstable();
            return out;
        }
        let mut matched: HashMap<EntryId, u64> = HashMap::new();
        for &(h, qc) in qf.items() {
            if let Some(list) = self.posting.get(&h) {
                for &(e, c) in list {
                    *matched.entry(e).or_insert(0) += c.min(qc) as u64;
                }
            }
        }
        for (&e, slot) in &self.slots {
            let total = slot.total_count();
            if total == 0 || matched.get(&e).copied().unwrap_or(0) == total {
                out.push(e);
            }
        }
        out.sort_unstable();
        out
    }
}

/// The eagerly-maintained sorted-directory containment index — the
/// pre-tombstone implementation of [`gc_index::QueryIndex`]: every insertion
/// of a new feature hash pays a `Vec::insert` memmove over the whole
/// directory and every drained posting list pays the matching
/// `Vec::remove`. Kept as the "eager directory" side of the
/// tombstone-equivalence property tests.
#[derive(Debug)]
pub struct EagerQueryIndex {
    cfg: FeatureConfig,
    /// Sorted feature-hash directory (eagerly compacted).
    dir: Vec<u64>,
    /// `posts[i]` holds the postings of `dir[i]`, sorted by entry id.
    posts: Vec<Vec<(EntryId, u32)>>,
    slots: HashMap<EntryId, Slot>,
    unfiltered: Vec<EntryId>,
}

impl EagerQueryIndex {
    /// New empty index with feature config `cfg`.
    pub fn new(cfg: FeatureConfig) -> Self {
        EagerQueryIndex {
            cfg,
            dir: Vec::new(),
            posts: Vec::new(),
            slots: HashMap::new(),
            unfiltered: Vec::new(),
        }
    }

    /// Index a cached query graph under `id`.
    pub fn insert(&mut self, id: EntryId, g: &Graph) {
        let fv = gc_index::feature_vec(g, &self.cfg);
        assert!(
            !self.slots.contains_key(&id) && !self.unfiltered.contains(&id),
            "duplicate entry id {id}"
        );
        if fv.truncated() {
            self.unfiltered.push(id);
            return;
        }
        for &(h, c) in fv.items() {
            match self.dir.binary_search(&h) {
                Ok(i) => {
                    let list = &mut self.posts[i];
                    let at = list
                        .binary_search_by_key(&id, |&(e, _)| e)
                        .expect_err("feature hashes are unique per entry");
                    list.insert(at, (id, c));
                }
                Err(i) => {
                    self.dir.insert(i, h);
                    self.posts.insert(i, vec![(id, c)]);
                }
            }
        }
        self.slots.insert(id, Slot { items: fv.items().to_vec() });
    }

    /// Remove an entry (cache eviction). Unknown ids are ignored.
    pub fn remove(&mut self, id: EntryId) {
        if let Some(pos) = self.unfiltered.iter().position(|&e| e == id) {
            self.unfiltered.swap_remove(pos);
            return;
        }
        let Some(slot) = self.slots.remove(&id) else { return };
        for &(h, _) in &slot.items {
            if let Ok(i) = self.dir.binary_search(&h) {
                let list = &mut self.posts[i];
                if let Ok(pos) = list.binary_search_by_key(&id, |&(e, _)| e) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.dir.remove(i);
                    self.posts.remove(i);
                }
            }
        }
    }

    /// Cached entries that may *contain* the query, sorted ascending
    /// (two-pointer k-way merge, most selective list first).
    pub fn sub_case_candidates(&self, qf: &FeatureVec) -> Vec<EntryId> {
        let mut out: Vec<EntryId> = self.unfiltered.clone();
        if qf.truncated() || qf.is_empty() {
            out.extend(self.slots.keys().copied());
            out.sort_unstable();
            return out;
        }
        let mut lists: Vec<(usize, u32)> = Vec::with_capacity(qf.len());
        for &(h, qc) in qf.items() {
            match self.dir.binary_search(&h) {
                Ok(i) => lists.push((i, qc)),
                Err(_) => {
                    out.sort_unstable();
                    return out;
                }
            }
        }
        lists.sort_unstable_by_key(|&(i, _)| self.posts[i].len());
        let (i0, qc0) = lists[0];
        let mut cur: Vec<EntryId> =
            self.posts[i0].iter().filter(|&&(_, c)| c >= qc0).map(|&(e, _)| e).collect();
        let mut next = Vec::new();
        for &(li, qc) in &lists[1..] {
            if cur.is_empty() {
                break;
            }
            gc_index::merge::intersect_two_pointer(&cur, &self.posts[li], qc, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        out.extend(cur);
        out.sort_unstable();
        out
    }

    /// Cached entries possibly *contained in* the query, sorted ascending.
    pub fn super_case_candidates(&self, qf: &FeatureVec) -> Vec<EntryId> {
        let mut out: Vec<EntryId> = self.unfiltered.clone();
        if qf.truncated() {
            out.extend(self.slots.keys().copied());
            out.sort_unstable();
            return out;
        }
        let mut matched: HashMap<EntryId, u64> = HashMap::new();
        for &(h, qc) in qf.items() {
            if let Ok(i) = self.dir.binary_search(&h) {
                for &(e, c) in &self.posts[i] {
                    *matched.entry(e).or_insert(0) += c.min(qc) as u64;
                }
            }
        }
        for (&e, slot) in &self.slots {
            let total = slot.total_count();
            if total == 0 || matched.get(&e).copied().unwrap_or(0) == total {
                out.push(e);
            }
        }
        out.sort_unstable();
        out
    }
}

/// The HashMap-postings tree-feature index — the pre-flat implementation of
/// [`gc_index::TreeIndex`], extended with the same dynamic insert/remove
/// API so the flat tier can be property-tested against it under
/// interleaved admission/eviction/probe schedules. Semantics documented on
/// [`gc_index::TreeIndex`].
#[derive(Debug)]
pub struct RefTreeIndex {
    cfg: TreeConfig,
    postings: HashMap<u64, Vec<(GraphId, u32)>>,
    /// Per-graph `(code, count)` items (sorted by code) + total, for
    /// removal.
    slots: HashMap<GraphId, (Vec<(u64, u32)>, u64)>,
    dataset_size: usize,
    unfiltered: Vec<GraphId>,
}

impl RefTreeIndex {
    /// New empty index.
    pub fn new(cfg: TreeConfig) -> Self {
        RefTreeIndex {
            cfg,
            postings: HashMap::new(),
            slots: HashMap::new(),
            dataset_size: 0,
            unfiltered: Vec::new(),
        }
    }

    /// Build over `dataset` (graph ids are dataset positions).
    pub fn build(dataset: &[Graph], cfg: TreeConfig) -> Self {
        let mut idx = Self::new(cfg);
        for (gid, g) in dataset.iter().enumerate() {
            idx.insert_graph(gid as GraphId, g);
        }
        idx
    }

    /// Index `g` under `gid`.
    pub fn insert_graph(&mut self, gid: GraphId, g: &Graph) {
        assert!(
            !self.slots.contains_key(&gid) && !self.unfiltered.contains(&gid),
            "duplicate graph id {gid}"
        );
        self.dataset_size = self.dataset_size.max(gid as usize + 1);
        let (codes, truncated) = enumerate_tree_codes(g, &self.cfg);
        if truncated {
            self.unfiltered.push(gid);
            return;
        }
        let total = codes.len() as u64;
        let mut sorted = codes;
        sorted.sort_unstable();
        let mut items: Vec<(u64, u32)> = Vec::new();
        for c in sorted {
            match items.last_mut() {
                Some((lc, n)) if *lc == c => *n += 1,
                _ => items.push((c, 1)),
            }
        }
        for &(code, count) in &items {
            self.postings.entry(code).or_default().push((gid, count));
        }
        self.slots.insert(gid, (items, total));
    }

    /// Remove a graph. Unknown ids are ignored; the universe keeps its
    /// high-water size.
    pub fn remove_graph(&mut self, gid: GraphId) {
        if let Some(pos) = self.unfiltered.iter().position(|&e| e == gid) {
            self.unfiltered.swap_remove(pos);
            return;
        }
        let Some((items, _)) = self.slots.remove(&gid) else { return };
        for &(code, _) in &items {
            if let Some(list) = self.postings.get_mut(&code) {
                if let Some(pos) = list.iter().position(|&(e, _)| e == gid) {
                    list.swap_remove(pos);
                }
                if list.is_empty() {
                    self.postings.remove(&code);
                }
            }
        }
    }

    /// Candidate set for a subgraph query (sound overapproximation).
    pub fn candidates(&self, query: &Graph) -> BitSet {
        let (codes, truncated) = enumerate_tree_codes(query, &self.cfg);
        if truncated {
            return BitSet::full(self.dataset_size);
        }
        let mut required: HashMap<u64, u32> = HashMap::new();
        for c in codes {
            *required.entry(c).or_insert(0) += 1;
        }
        if required.is_empty() {
            // No features (the empty query): every indexed graph qualifies.
            return BitSet::from_indices(
                self.dataset_size,
                self.slots
                    .keys()
                    .map(|&g| g as usize)
                    .chain(self.unfiltered.iter().map(|&g| g as usize)),
            );
        }
        let mut cands: Option<BitSet> = None;
        for (code, need) in required {
            let Some(list) = self.postings.get(&code) else {
                return BitSet::from_indices(
                    self.dataset_size,
                    self.unfiltered.iter().map(|&g| g as usize),
                );
            };
            let mut qualifying = BitSet::new(self.dataset_size);
            for &(gid, c) in list {
                if c >= need {
                    qualifying.insert(gid as usize);
                }
            }
            match cands.as_mut() {
                Some(acc) => acc.intersect_with(&qualifying),
                None => cands = Some(qualifying),
            }
        }
        let mut cands = cands.expect("required is non-empty");
        for &g in &self.unfiltered {
            cands.insert(g as usize);
        }
        cands
    }

    /// Candidate set for a supergraph query via the Σmin identity.
    pub fn super_candidates(&self, query: &Graph) -> BitSet {
        let (codes, truncated) = enumerate_tree_codes(query, &self.cfg);
        if truncated {
            return BitSet::full(self.dataset_size);
        }
        let mut qcounts: HashMap<u64, u32> = HashMap::new();
        for c in codes {
            *qcounts.entry(c).or_insert(0) += 1;
        }
        let mut matched: HashMap<GraphId, u64> = HashMap::new();
        for (code, qc) in qcounts {
            if let Some(list) = self.postings.get(&code) {
                for &(gid, c) in list {
                    *matched.entry(gid).or_insert(0) += c.min(qc) as u64;
                }
            }
        }
        let mut out = BitSet::new(self.dataset_size);
        for (&gid, &(_, total)) in &self.slots {
            if total == 0 || matched.get(&gid).copied().unwrap_or(0) == total {
                out.insert(gid as usize);
            }
        }
        for &g in &self.unfiltered {
            out.insert(g as usize);
        }
        out
    }
}

#[derive(Debug, Default)]
struct Node {
    /// Child edges sorted by label for binary search.
    children: Vec<(Label, u32)>,
    /// `(graph, count)` sorted by graph id.
    postings: Vec<(GraphId, u32)>,
}

/// The pointer-chasing node trie — the pre-arena implementation of
/// [`gc_index::PathTrie`], semantics documented there.
#[derive(Debug)]
pub struct RefPathTrie {
    cfg: FeatureConfig,
    nodes: Vec<Node>,
    dataset_size: usize,
    totals: Vec<u64>,
    unfiltered: Vec<GraphId>,
}

impl RefPathTrie {
    /// Build the index over `dataset` with feature config `cfg`.
    pub fn build(dataset: &[Graph], cfg: FeatureConfig) -> Self {
        let mut trie = RefPathTrie {
            cfg,
            nodes: vec![Node::default()],
            dataset_size: dataset.len(),
            totals: vec![0; dataset.len()],
            unfiltered: Vec::new(),
        };
        for (gid, g) in dataset.iter().enumerate() {
            trie.insert_graph(gid as GraphId, g);
        }
        trie
    }

    fn insert_graph(&mut self, gid: GraphId, g: &Graph) {
        let (paths, truncated) = enumerate_label_paths(g, &self.cfg);
        if truncated {
            self.unfiltered.push(gid);
            return;
        }
        self.totals[gid as usize] = paths.len() as u64;
        for path in &paths {
            let node = self.walk_insert(path);
            match self.nodes[node].postings.last_mut() {
                Some((last_gid, c)) if *last_gid == gid => *c += 1,
                _ => self.nodes[node].postings.push((gid, 1)),
            }
        }
    }

    fn walk_insert(&mut self, labels: &[Label]) -> usize {
        let mut cur = 0usize;
        for &l in labels {
            cur = match self.nodes[cur].children.binary_search_by_key(&l, |&(cl, _)| cl) {
                Ok(i) => self.nodes[cur].children[i].1 as usize,
                Err(i) => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    self.nodes[cur].children.insert(i, (l, id));
                    id as usize
                }
            };
        }
        cur
    }

    fn walk(&self, labels: &[Label]) -> Option<usize> {
        let mut cur = 0usize;
        for &l in labels {
            match self.nodes[cur].children.binary_search_by_key(&l, |&(cl, _)| cl) {
                Ok(i) => cur = self.nodes[cur].children[i].1 as usize,
                Err(_) => return None,
            }
        }
        Some(cur)
    }

    /// Candidate set for a subgraph query (sound overapproximation).
    pub fn candidates(&self, query: &Graph) -> BitSet {
        let (qpaths, qtrunc) = enumerate_label_paths(query, &self.cfg);
        if qtrunc {
            return BitSet::full(self.dataset_size);
        }
        let mut required: Vec<(usize, u32)> = Vec::with_capacity(qpaths.len());
        for p in &qpaths {
            match self.walk(p) {
                Some(n) => required.push((n, 1)),
                None => {
                    return BitSet::from_indices(
                        self.dataset_size,
                        self.unfiltered.iter().map(|&g| g as usize),
                    );
                }
            }
        }
        required.sort_unstable();
        let mut merged: Vec<(usize, u32)> = Vec::new();
        for (n, c) in required {
            match merged.last_mut() {
                Some((ln, lc)) if *ln == n => *lc += c,
                _ => merged.push((n, c)),
            }
        }
        merged.sort_unstable_by_key(|&(n, _)| self.nodes[n].postings.len());
        let mut cands = BitSet::full(self.dataset_size);
        let mut scratch = BitSet::new(self.dataset_size);
        for (n, req) in merged {
            scratch.clear();
            for &(gid, c) in &self.nodes[n].postings {
                if c >= req {
                    scratch.insert(gid as usize);
                }
            }
            cands.intersect_with(&scratch);
            if cands.is_empty() {
                break;
            }
        }
        for &g in &self.unfiltered {
            cands.insert(g as usize);
        }
        cands
    }

    /// Candidate set for a supergraph query (sound overapproximation).
    pub fn super_candidates(&self, query: &Graph) -> BitSet {
        let (qpaths, qtrunc) = enumerate_label_paths(query, &self.cfg);
        if qtrunc {
            return BitSet::full(self.dataset_size);
        }
        let mut required: Vec<usize> = qpaths.iter().filter_map(|p| self.walk(p)).collect();
        required.sort_unstable();
        let mut matched = vec![0u64; self.dataset_size];
        let mut i = 0;
        while i < required.len() {
            let n = required[i];
            let mut qc = 0u32;
            while i < required.len() && required[i] == n {
                qc += 1;
                i += 1;
            }
            for &(gid, c) in &self.nodes[n].postings {
                matched[gid as usize] += c.min(qc) as u64;
            }
        }
        let mut out = BitSet::new(self.dataset_size);
        for (gid, (&m, &t)) in matched.iter().zip(&self.totals).enumerate() {
            if m == t {
                out.insert(gid);
            }
        }
        for &g in &self.unfiltered {
            out.insert(g as usize);
        }
        out
    }
}
