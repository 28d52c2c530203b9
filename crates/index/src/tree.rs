//! Tree-feature extraction and the tree-feature FTV index.
//!
//! GraphGrepSX indexes *paths*; other FTV systems index *trees* or general
//! subgraphs ("feature is the sub-structure of graph, e.g., a path, tree or
//! subgraph" — paper §3.1). This module provides the tree option:
//!
//! * a *tree feature* is (the canonical form of) a subtree of the graph with
//!   at most `max_edges` edges — enumerated as connected acyclic edge
//!   subsets, canonised with an AHU-style hash rooted at the tree centre;
//! * occurrence counts dominate under non-induced embeddings by the same
//!   injectivity argument as paths (each subtree of the query maps to a
//!   distinct label-isomorphic subtree of the target), so count-domination
//!   filtering is sound in both containment directions.
//!
//! Trees have higher discriminative power than paths of the same size but
//! cost more to enumerate — exactly the trade-off axis of Experiment II.
//!
//! ## Flat layout and streaming enumeration
//!
//! [`TreeIndex`] follows the same flat-array discipline as the path tier:
//! canonical-subtree hashes live in the churn-proof tombstoned
//! [`crate::directory`] (so graphs can be inserted and removed at traffic
//! rates), posting lists are sorted by graph id and intersected
//! word-parallel into a caller-owned bitset for subgraph queries, while
//! supergraph queries read no postings: each graph's
//! [fit signature](crate::fit) (code total and one-word code mask) must fit
//! inside the query's before its own code list is merge-walked against the
//! query's. All per-probe state — including the subtree enumeration
//! itself — lives in a reusable
//! [`TreeScratch`], making the steady-state probe path **zero-allocation**
//! (pinned by `tests/alloc_free.rs`).
//!
//! The enumerator behind it generates each connected acyclic edge subset
//! *exactly once* (no dedup hash set): subtrees are partitioned by their
//! minimum edge index (the *root edge*), grown only with larger-indexed
//! edges that attach a new vertex, and duplicates are cut by the classic
//! skip-exclusion rule — once a sibling branch has considered extension
//! edge `e`, deeper branches of the same node may not use it. The AHU
//! canonical hash is computed over scratch arrays with arithmetic identical
//! to the materializing reference enumerator ([`enumerate_tree_codes`]),
//! which is kept as the executable specification; equivalence of the whole
//! index against `RefTreeIndex` (in `tests/reference/`) is property-tested
//! under interleaved insert/remove/probe schedules.

use crate::directory::PostingDir;
use crate::fit;
use gc_graph::hash::{hash_seq, mix};
use gc_graph::{BitSet, Graph, GraphId, VertexId};
use std::collections::{HashMap, HashSet};

/// Configuration of tree-feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum subtree size in edges (0 = single-vertex features).
    pub max_edges: usize,
    /// Safety valve on enumerated subtree occurrences per graph.
    pub max_trees: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_edges: 3, max_trees: 500_000 }
    }
}

impl TreeConfig {
    /// Config with the given maximum subtree size (edges).
    pub fn with_max_edges(max_edges: usize) -> Self {
        TreeConfig { max_edges, ..Default::default() }
    }
}

/// Enumerate the canonical hashes of all subtrees with `0..=max_edges`
/// edges. Returns one hash per subtree *occurrence* (distinct edge set),
/// plus a truncation flag.
///
/// This is the **materializing reference enumerator** (HashSet dedup,
/// per-subset allocations): the production tier streams through
/// [`TreeScratch`] and is property-tested to emit the same code multiset
/// and truncation flag.
pub fn enumerate_tree_codes(g: &Graph, cfg: &TreeConfig) -> (Vec<u64>, bool) {
    let mut out: Vec<u64> = Vec::new();
    let mut truncated = false;

    // 0-edge trees: single vertices.
    for v in g.vertices() {
        out.push(mix(0xA11CE, g.label(v).0 as u64));
    }
    if cfg.max_edges == 0 || g.edge_count() == 0 {
        return (out, truncated);
    }

    // Grow connected acyclic edge sets; dedup by sorted edge list.
    let mut seen: HashSet<Vec<(VertexId, VertexId)>> = HashSet::new();
    let mut stack: Vec<Vec<(VertexId, VertexId)>> = Vec::new();
    for e in g.edges() {
        stack.push(vec![e]);
    }
    while let Some(edges) = stack.pop() {
        let mut key = edges.clone();
        key.sort_unstable();
        if !seen.insert(key) {
            continue;
        }
        if seen.len() > cfg.max_trees {
            truncated = true;
            break;
        }
        out.push(ahu_hash(g, &edges));
        if edges.len() >= cfg.max_edges {
            continue;
        }
        // Extend by one incident edge that adds a NEW vertex (keeps the
        // subgraph acyclic and connected).
        let verts: HashSet<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        for &v in &verts {
            for &w in g.neighbors(v) {
                if !verts.contains(&w) {
                    let mut next = edges.clone();
                    next.push((v.min(w), v.max(w)));
                    stack.push(next);
                }
            }
        }
    }
    (out, truncated)
}

/// AHU-style canonical hash of the tree given by `edges` (labels from `g`).
/// Rooted at the tree centre; for bicentral trees the two rootings are
/// mixed order-insensitively.
fn ahu_hash(g: &Graph, edges: &[(VertexId, VertexId)]) -> u64 {
    let mut adj: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for &(u, v) in edges {
        adj.entry(u).or_default().push(v);
        adj.entry(v).or_default().push(u);
    }
    let centers = tree_centers(&adj);
    let h1 = rooted_hash(g, &adj, centers[0], None);
    if centers.len() == 1 {
        mix(0x7EE, h1)
    } else {
        let h2 = rooted_hash(g, &adj, centers[1], None);
        // Order-insensitive combination of the two centre rootings.
        mix(0x7EE, h1.min(h2).wrapping_add(h1.max(h2).rotate_left(17)))
    }
}

fn tree_centers(adj: &HashMap<VertexId, Vec<VertexId>>) -> Vec<VertexId> {
    let mut degree: HashMap<VertexId, usize> = adj.iter().map(|(&v, ns)| (v, ns.len())).collect();
    let mut remaining: HashSet<VertexId> = adj.keys().copied().collect();
    let mut leaves: Vec<VertexId> =
        degree.iter().filter(|&(_, &d)| d <= 1).map(|(&v, _)| v).collect();
    while remaining.len() > 2 {
        let mut next_leaves = Vec::new();
        for &leaf in &leaves {
            remaining.remove(&leaf);
            for &n in &adj[&leaf] {
                if remaining.contains(&n) {
                    let d = degree.get_mut(&n).expect("neighbour tracked");
                    *d -= 1;
                    if *d == 1 {
                        next_leaves.push(n);
                    }
                }
            }
        }
        leaves = next_leaves;
    }
    let mut centers: Vec<VertexId> = remaining.into_iter().collect();
    centers.sort_unstable();
    centers
}

fn rooted_hash(
    g: &Graph,
    adj: &HashMap<VertexId, Vec<VertexId>>,
    v: VertexId,
    parent: Option<VertexId>,
) -> u64 {
    let mut child_hashes: Vec<u64> = adj[&v]
        .iter()
        .filter(|&&w| Some(w) != parent)
        .map(|&w| rooted_hash(g, adj, w, Some(v)))
        .collect();
    child_hashes.sort_unstable();
    let base = mix(0x5AB1E, g.label(v).0 as u64);
    mix(base, hash_seq(child_hashes))
}

/// Sentinel local id for "no parent" in the scratch AHU recursion.
const NO_PARENT: u32 = u32::MAX;

/// Reusable tree-feature extraction and probe state. One per worker;
/// buffers grow to their high-water mark and stay, so steady-state
/// extraction and probing allocate nothing.
#[derive(Debug, Default)]
pub struct TreeScratch {
    // --- per-graph edge arrays + incidence CSR --------------------------
    edge_u: Vec<VertexId>,
    edge_v: Vec<VertexId>,
    inc_start: Vec<u32>,
    inc_edge: Vec<u32>,
    // --- enumeration state ----------------------------------------------
    /// Vertex membership of the current subset.
    in_sub: Vec<bool>,
    /// Skip-exclusion marks per edge.
    excluded: Vec<bool>,
    /// Edge indices of the current subset.
    sub_edges: Vec<u32>,
    /// Subset vertices in join order (first two = root edge endpoints).
    sub_verts: Vec<VertexId>,
    /// Extension-edge stack (per-level ranges live in recursion locals).
    ext: Vec<u32>,
    /// Edges excluded per level, unwound on backtrack.
    excl_trail: Vec<u32>,
    // --- scratch AHU hashing --------------------------------------------
    /// Vertex → local id within the current subset.
    local_id: Vec<u32>,
    /// Local adjacency (outer sized `max_edges + 1`).
    adj: Vec<Vec<u32>>,
    deg: Vec<u32>,
    alive: Vec<bool>,
    leaves: Vec<u32>,
    next_leaves: Vec<u32>,
    /// Per-depth child-hash buffers for the rooted AHU fold.
    child_bufs: Vec<Vec<u64>>,
    // --- outputs ---------------------------------------------------------
    codes: Vec<u64>,
    items: Vec<(u64, u32)>,
    // --- probe state ------------------------------------------------------
    /// `(directory slot, required count)`, sorted most selective first.
    req: Vec<(u32, u32)>,
}

impl TreeScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enumerate `g`'s canonical subtree codes into `self.codes` (one per
    /// distinct edge set, unsorted) and aggregate them into sorted
    /// `(code, count)` runs in `self.items`. Returns the truncation flag.
    ///
    /// Emits the same code multiset and truncation flag as
    /// [`enumerate_tree_codes`] (property-tested), without allocating once
    /// the buffers are warm.
    fn extract(&mut self, g: &Graph, cfg: &TreeConfig) -> bool {
        self.codes.clear();
        for v in g.vertices() {
            self.codes.push(mix(0xA11CE, g.label(v).0 as u64));
        }
        let truncated = if cfg.max_edges == 0 || g.edge_count() == 0 {
            false
        } else {
            self.prepare(g, cfg);
            self.enumerate(g, cfg)
        };
        self.codes.sort_unstable();
        self.items.clear();
        for i in 0..self.codes.len() {
            let h = self.codes[i];
            match self.items.last_mut() {
                Some((lh, c)) if *lh == h => *c += 1,
                _ => self.items.push((h, 1)),
            }
        }
        truncated
    }

    /// Size the per-graph buffers: edge list, incidence CSR, membership and
    /// exclusion marks, local-AHU arrays.
    fn prepare(&mut self, g: &Graph, cfg: &TreeConfig) {
        let n = g.vertex_count();
        self.edge_u.clear();
        self.edge_v.clear();
        for (u, v) in g.edges() {
            self.edge_u.push(u);
            self.edge_v.push(v);
        }
        let m = self.edge_u.len();
        // Incidence CSR via counting sort.
        self.inc_start.clear();
        self.inc_start.resize(n + 1, 0);
        for i in 0..m {
            self.inc_start[self.edge_u[i] as usize + 1] += 1;
            self.inc_start[self.edge_v[i] as usize + 1] += 1;
        }
        for v in 0..n {
            self.inc_start[v + 1] += self.inc_start[v];
        }
        self.inc_edge.clear();
        self.inc_edge.resize(2 * m, 0);
        // Reuse `deg` as the fill cursor.
        self.deg.clear();
        self.deg.extend_from_slice(&self.inc_start[..n]);
        for e in 0..m {
            for x in [self.edge_u[e], self.edge_v[e]] {
                let cur = &mut self.deg[x as usize];
                self.inc_edge[*cur as usize] = e as u32;
                *cur += 1;
            }
        }
        self.in_sub.clear();
        self.in_sub.resize(n, false);
        self.excluded.clear();
        self.excluded.resize(m, false);
        self.local_id.clear();
        self.local_id.resize(n, 0);
        let k = cfg.max_edges + 1;
        if self.adj.len() < k {
            self.adj.resize_with(k, Vec::new);
        }
        if self.child_bufs.len() < k + 1 {
            self.child_bufs.resize_with(k + 1, Vec::new);
        }
        self.sub_edges.clear();
        self.sub_verts.clear();
        self.ext.clear();
        self.excl_trail.clear();
    }

    /// Duplicate-free subtree enumeration (see module docs). Returns the
    /// truncation flag — identical semantics to the reference enumerator:
    /// truncated iff the number of distinct subtrees exceeds
    /// `cfg.max_trees`.
    fn enumerate(&mut self, g: &Graph, cfg: &TreeConfig) -> bool {
        let m = self.edge_u.len();
        let mut emitted = 0usize;
        let mut truncated = false;
        for r in 0..m as u32 {
            let (u0, v0) = (self.edge_u[r as usize], self.edge_v[r as usize]);
            self.in_sub[u0 as usize] = true;
            self.in_sub[v0 as usize] = true;
            self.sub_edges.push(r);
            self.sub_verts.push(u0);
            self.sub_verts.push(v0);
            self.ext.clear();
            for x in [u0, v0] {
                self.push_fresh_candidates(x, r);
            }
            self.grow(g, r, cfg.max_edges - 1, cfg.max_trees, &mut emitted, &mut truncated);
            self.in_sub[u0 as usize] = false;
            self.in_sub[v0 as usize] = false;
            self.sub_edges.clear();
            self.sub_verts.clear();
            if truncated {
                // Exclusion marks deeper in the aborted branch were already
                // unwound by `grow`; clear any leftovers defensively.
                for &e in &self.excl_trail {
                    self.excluded[e as usize] = false;
                }
                self.excl_trail.clear();
                break;
            }
            debug_assert!(self.excl_trail.is_empty());
        }
        truncated
    }

    /// Append the extension edges discovered by vertex `x` joining the
    /// subset: incident edges with index > `root` whose other endpoint is
    /// outside (each such edge enters the stack exactly once — when its
    /// first endpoint joins).
    #[inline]
    fn push_fresh_candidates(&mut self, x: VertexId, root: u32) {
        let (s, e) = (self.inc_start[x as usize] as usize, self.inc_start[x as usize + 1] as usize);
        for k in s..e {
            let f = self.inc_edge[k];
            if f <= root || self.excluded[f as usize] {
                continue;
            }
            let (fu, fv) = (self.edge_u[f as usize], self.edge_v[f as usize]);
            let other = if fu == x { fv } else { fu };
            if !self.in_sub[other as usize] {
                self.ext.push(f);
            }
        }
    }

    /// Emit the current subset and branch over the extension stack with
    /// skip-exclusion (each acyclic connected superset is reached exactly
    /// once).
    fn grow(
        &mut self,
        g: &Graph,
        root: u32,
        remaining: usize,
        cap: usize,
        emitted: &mut usize,
        truncated: &mut bool,
    ) {
        *emitted += 1;
        if *emitted > cap {
            *truncated = true;
            return;
        }
        let code = self.ahu_subset(g);
        self.codes.push(code);
        if remaining == 0 {
            return;
        }
        let n_ext = self.ext.len();
        let trail_base = self.excl_trail.len();
        for i in 0..n_ext {
            let e = self.ext[i];
            if self.excluded[e as usize] {
                continue;
            }
            let (a, b) = (self.edge_u[e as usize], self.edge_v[e as usize]);
            let (ia, ib) = (self.in_sub[a as usize], self.in_sub[b as usize]);
            if ia && ib {
                // Both endpoints joined since this edge was stacked: adding
                // it now would close a cycle. It stays stacked (it becomes
                // valid again on shallower backtracks), just not chosen.
                continue;
            }
            debug_assert!(ia || ib, "stacked edges touch the subset");
            let x = if ia { b } else { a };
            self.sub_edges.push(e);
            self.sub_verts.push(x);
            self.in_sub[x as usize] = true;
            let ext_mark = self.ext.len();
            self.push_fresh_candidates(x, root);
            self.grow(g, root, remaining - 1, cap, emitted, truncated);
            self.ext.truncate(ext_mark);
            self.in_sub[x as usize] = false;
            self.sub_verts.pop();
            self.sub_edges.pop();
            if *truncated {
                break;
            }
            self.excluded[e as usize] = true;
            self.excl_trail.push(e);
        }
        for &e in &self.excl_trail[trail_base..] {
            self.excluded[e as usize] = false;
        }
        self.excl_trail.truncate(trail_base);
    }

    /// AHU canonical hash of the current subset — same arithmetic as the
    /// reference [`ahu_hash`] (centre rooting, sorted child folds), over
    /// scratch arrays.
    fn ahu_subset(&mut self, g: &Graph) -> u64 {
        let k = self.sub_verts.len();
        debug_assert_eq!(k, self.sub_edges.len() + 1);
        for (i, &v) in self.sub_verts.iter().enumerate() {
            self.local_id[v as usize] = i as u32;
        }
        for a in self.adj[..k].iter_mut() {
            a.clear();
        }
        for i in 0..self.sub_edges.len() {
            let e = self.sub_edges[i] as usize;
            let a = self.local_id[self.edge_u[e] as usize] as usize;
            let b = self.local_id[self.edge_v[e] as usize] as usize;
            self.adj[a].push(b as u32);
            self.adj[b].push(a as u32);
        }
        // Centre(s) by iterative leaf stripping.
        self.deg.clear();
        self.alive.clear();
        self.leaves.clear();
        for i in 0..k {
            let d = self.adj[i].len() as u32;
            self.deg.push(d);
            self.alive.push(true);
            if d <= 1 {
                self.leaves.push(i as u32);
            }
        }
        let mut remaining = k;
        while remaining > 2 {
            self.next_leaves.clear();
            for li in 0..self.leaves.len() {
                let leaf = self.leaves[li] as usize;
                self.alive[leaf] = false;
                remaining -= 1;
                for ni in 0..self.adj[leaf].len() {
                    let n = self.adj[leaf][ni] as usize;
                    if self.alive[n] {
                        self.deg[n] -= 1;
                        if self.deg[n] == 1 {
                            self.next_leaves.push(n as u32);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.leaves, &mut self.next_leaves);
        }
        let mut c1 = NO_PARENT;
        let mut c2 = NO_PARENT;
        for i in 0..k {
            if self.alive[i] {
                if c1 == NO_PARENT {
                    c1 = i as u32;
                } else {
                    c2 = i as u32;
                }
            }
        }
        let h1 = self.rooted(g, c1, NO_PARENT, 0);
        if c2 == NO_PARENT {
            mix(0x7EE, h1)
        } else {
            let h2 = self.rooted(g, c2, NO_PARENT, 0);
            mix(0x7EE, h1.min(h2).wrapping_add(h1.max(h2).rotate_left(17)))
        }
    }

    /// Rooted AHU fold with per-depth child buffers (depth ≤ subset size).
    fn rooted(&mut self, g: &Graph, v: u32, parent: u32, depth: usize) -> u64 {
        let mut buf = std::mem::take(&mut self.child_bufs[depth]);
        buf.clear();
        for j in 0..self.adj[v as usize].len() {
            let w = self.adj[v as usize][j];
            if w != parent {
                buf.push(self.rooted(g, w, v, depth + 1));
            }
        }
        buf.sort_unstable();
        let vertex = self.sub_verts[v as usize];
        let base = mix(0x5AB1E, g.label(vertex).0 as u64);
        let h = mix(base, hash_seq(buf.iter().copied()));
        self.child_bufs[depth] = buf;
        h
    }
}

#[derive(Debug)]
struct TreeSlot {
    /// The graph's aggregated `(code, count)` items (needed for removal).
    items: Vec<(u64, u32)>,
    /// Total code occurrences and the codes' mask: the graph's fit
    /// signature.
    total: u64,
    mask: u64,
}

/// Tree-feature FTV index: canonical-subtree hash → per-graph counts, on
/// flat postings behind the tombstoned directory. Supports dynamic graph
/// insertion/removal; probes are allocation-free through a caller-owned
/// [`TreeScratch`].
#[derive(Debug)]
pub struct TreeIndex {
    cfg: TreeConfig,
    dir: PostingDir,
    /// Dense slot table indexed by graph id (`None` = absent/removed).
    slots: Vec<Option<TreeSlot>>,
    live: usize,
    /// Universe of candidate bitsets: high-water `gid + 1`.
    dataset_size: usize,
    /// Graphs whose enumeration was truncated: always candidates (sorted).
    unfiltered: Vec<GraphId>,
}

impl TreeIndex {
    /// New empty index.
    pub fn new(cfg: TreeConfig) -> Self {
        TreeIndex {
            cfg,
            dir: PostingDir::default(),
            slots: Vec::new(),
            live: 0,
            dataset_size: 0,
            unfiltered: Vec::new(),
        }
    }

    /// Build over `dataset` (graph ids are dataset positions).
    pub fn build(dataset: &[Graph], cfg: TreeConfig) -> Self {
        let mut idx = Self::new(cfg);
        let mut scratch = TreeScratch::new();
        for (gid, g) in dataset.iter().enumerate() {
            idx.insert_graph_with(gid as GraphId, g, &mut scratch);
        }
        idx
    }

    /// The feature configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// Number of indexed graphs.
    pub fn len(&self) -> usize {
        self.live + self.unfiltered.len()
    }

    /// `true` iff no graphs are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Universe of the candidate bitsets (high-water graph id + 1 —
    /// removal does not shrink it).
    pub fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    /// Number of distinct live subtree codes in the directory.
    pub fn distinct_features(&self) -> usize {
        self.dir.live_slots()
    }

    fn contains_gid(&self, gid: GraphId) -> bool {
        self.slots.get(gid as usize).is_some_and(Option::is_some)
            || self.unfiltered.binary_search(&gid).is_ok()
    }

    /// Index `g` under `gid` (admission for dynamic datasets).
    ///
    /// # Panics
    /// Panics if `gid` is already present.
    pub fn insert_graph(&mut self, gid: GraphId, g: &Graph) {
        let mut scratch = TreeScratch::new();
        self.insert_graph_with(gid, g, &mut scratch);
    }

    /// Like [`TreeIndex::insert_graph`] with a caller-owned enumeration
    /// scratch (bulk builds and admission paths reuse one).
    pub fn insert_graph_with(&mut self, gid: GraphId, g: &Graph, scratch: &mut TreeScratch) {
        assert!(!self.contains_gid(gid), "duplicate graph id {gid}");
        self.dataset_size = self.dataset_size.max(gid as usize + 1);
        let truncated = scratch.extract(g, &self.cfg);
        if truncated {
            let at = self.unfiltered.binary_search(&gid).unwrap_err();
            self.unfiltered.insert(at, gid);
            return;
        }
        let mut total = 0u64;
        for &(code, count) in &scratch.items {
            self.dir.insert_posting(code, gid, count);
            total += count as u64;
        }
        if self.slots.len() <= gid as usize {
            self.slots.resize_with(gid as usize + 1, || None);
        }
        let mask = fit::mask(scratch.items.iter().map(|&(code, _)| code));
        self.slots[gid as usize] = Some(TreeSlot { items: scratch.items.clone(), total, mask });
        self.live += 1;
    }

    /// Remove a graph (eviction for dynamic datasets). Unknown ids are
    /// ignored. The candidate universe does not shrink.
    pub fn remove_graph(&mut self, gid: GraphId) {
        if let Ok(pos) = self.unfiltered.binary_search(&gid) {
            self.unfiltered.remove(pos);
            return;
        }
        let Some(slot) = self.slots.get_mut(gid as usize).and_then(Option::take) else { return };
        self.live -= 1;
        for &(code, _) in &slot.items {
            self.dir.remove_posting(code, gid);
        }
    }

    /// Candidate set for a subgraph query into `out` (universe must be
    /// [`TreeIndex::dataset_size`]): sound overapproximation of the graphs
    /// that may contain `query`. Allocation-free once `scratch` and `out`
    /// are warm.
    pub fn candidates_into(&self, query: &Graph, scratch: &mut TreeScratch, out: &mut BitSet) {
        assert_eq!(out.universe(), self.dataset_size, "candidate universe mismatch");
        if scratch.extract(query, &self.cfg) {
            out.set_all();
            return;
        }
        scratch.req.clear();
        for &(code, need) in &scratch.items {
            match self.dir.find(code) {
                Some(slot) => scratch.req.push((slot, need)),
                None => {
                    // A query subtree no (filterable) graph has.
                    out.clear();
                    for &g in &self.unfiltered {
                        out.insert(g as usize);
                    }
                    return;
                }
            }
        }
        if scratch.req.is_empty() {
            // Featureless query: every live graph qualifies. (Slot gaps —
            // removed gids — must not, so this cannot start from
            // `set_all`.)
            out.clear();
            for (gid, slot) in self.slots.iter().enumerate() {
                if slot.is_some() {
                    out.insert(gid);
                }
            }
        } else {
            // Most selective first, chunk-merged straight into `out` by the
            // dispatched posting kernel (count filter folded in); the
            // first intersection also erases never-indexed gap ids.
            scratch.req.sort_unstable_by_key(|&(slot, _)| self.dir.list(slot).len());
            out.set_all();
            for &(slot, need) in &scratch.req {
                out.intersect_with_postings(self.dir.list(slot), need);
                if out.is_empty() {
                    break;
                }
            }
        }
        for &g in &self.unfiltered {
            out.insert(g as usize);
        }
    }

    /// Candidate set for a supergraph query into `out`: graphs whose every
    /// subtree code occurs in `query` at least as often (the Σmin
    /// identity). Sound overapproximation of the graphs possibly contained
    /// in `query`. Allocation-free once `scratch` and `out` are warm.
    ///
    /// Cost: per live graph, a total cut and a one-word mask test against
    /// the query's; only a graph passing both has its code list
    /// merge-walked against the query's. No posting list is read.
    pub fn super_candidates_into(
        &self,
        query: &Graph,
        scratch: &mut TreeScratch,
        out: &mut BitSet,
    ) {
        assert_eq!(out.universe(), self.dataset_size, "candidate universe mismatch");
        if scratch.extract(query, &self.cfg) {
            out.set_all();
            return;
        }
        let q_total = scratch.items.iter().map(|&(_, qc)| qc as u64).sum();
        let q_mask = fit::mask(scratch.items.iter().map(|&(code, _)| code));
        out.clear();
        for (gid, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                if fit::fits(s.total, s.mask, q_total, q_mask)
                    && fit::dominated(&s.items, &scratch.items)
                {
                    out.insert(gid);
                }
            }
        }
        for &g in &self.unfiltered {
            out.insert(g as usize);
        }
    }

    /// Candidate set for a subgraph query (allocating wrapper over
    /// [`TreeIndex::candidates_into`]).
    pub fn candidates(&self, query: &Graph) -> BitSet {
        let mut scratch = TreeScratch::new();
        let mut out = BitSet::new(self.dataset_size);
        self.candidates_into(query, &mut scratch, &mut out);
        out
    }

    /// Candidate set for a supergraph query (allocating wrapper over
    /// [`TreeIndex::super_candidates_into`]).
    pub fn super_candidates(&self, query: &Graph) -> BitSet {
        let mut scratch = TreeScratch::new();
        let mut out = BitSet::new(self.dataset_size);
        self.super_candidates_into(query, &mut scratch, &mut out);
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.dir.memory_bytes()
            + self.unfiltered.capacity() * std::mem::size_of::<GraphId>()
            + self.slots.capacity() * std::mem::size_of::<Option<TreeSlot>>();
        for slot in self.slots.iter().flatten() {
            bytes += slot.items.capacity() * std::mem::size_of::<(u64, u32)>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    /// Streaming extraction must emit exactly the reference code multiset.
    fn stream_codes(gr: &Graph, cfg: &TreeConfig) -> (Vec<u64>, bool) {
        let mut s = TreeScratch::new();
        let truncated = s.extract(gr, cfg);
        (s.codes.clone(), truncated)
    }

    #[test]
    fn streaming_enumeration_matches_reference() {
        let graphs = [
            g(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
            g(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
            g(&[5, 5, 5], &[(0, 1), (1, 2), (0, 2)]),
            g(&[1, 2, 3, 4, 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
            g(&[3], &[]),
            g(&[], &[]),
        ];
        for gr in &graphs {
            for max_edges in 0..5 {
                let cfg = TreeConfig::with_max_edges(max_edges);
                let (mut want, wt) = enumerate_tree_codes(gr, &cfg);
                let (mut got, gt) = stream_codes(gr, &cfg);
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(gt, wt, "truncation flag diverged at T={max_edges}");
                assert_eq!(got, want, "code multiset diverged at T={max_edges}");
            }
        }
    }

    #[test]
    fn streaming_truncation_matches_reference() {
        let mut edges = Vec::new();
        for u in 0..7u32 {
            for v in (u + 1)..7 {
                edges.push((u, v));
            }
        }
        let clique = g(&[0; 7], &edges);
        for max_trees in [1usize, 10, 50, 100_000] {
            let cfg = TreeConfig { max_edges: 4, max_trees };
            let (_, wt) = enumerate_tree_codes(&clique, &cfg);
            let (_, gt) = stream_codes(&clique, &cfg);
            assert_eq!(gt, wt, "truncation flag diverged at cap {max_trees}");
        }
    }

    #[test]
    fn star_and_path_have_different_codes() {
        // Same label multiset and edge count, different shape: tree features
        // distinguish them where length-2 path features cannot fully.
        let star = g(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = g(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let cfg = TreeConfig::with_max_edges(3);
        let (mut cs, _) = stream_codes(&star, &cfg);
        let (mut cp, _) = stream_codes(&path, &cfg);
        cs.sort_unstable();
        cp.sort_unstable();
        assert_ne!(cs, cp);
    }

    #[test]
    fn codes_are_isomorphism_invariant() {
        let a = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let b = g(&[2, 1, 0], &[(0, 1), (1, 2)]); // same path reversed
        let cfg = TreeConfig::with_max_edges(2);
        let (mut ca, _) = stream_codes(&a, &cfg);
        let (mut cb, _) = stream_codes(&b, &cfg);
        ca.sort_unstable();
        cb.sort_unstable();
        assert_eq!(ca, cb);
    }

    fn small_dataset() -> Vec<Graph> {
        vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1], &[(0, 1)]),
            g(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
        ]
    }

    #[test]
    fn filter_is_sound_vs_vf2() {
        let ds = small_dataset();
        let idx = TreeIndex::build(&ds, TreeConfig::with_max_edges(3));
        let queries = [
            g(&[0, 1], &[(0, 1)]),
            g(&[0, 0, 0], &[(0, 1), (0, 2)]),
            g(&[1], &[]),
            g(&[0, 1, 0], &[(0, 1), (1, 2)]),
        ];
        for q in &queries {
            let c = idx.candidates(q);
            for (gid, dg) in ds.iter().enumerate() {
                if gc_iso::vf2::exists(q, dg) {
                    assert!(c.contains(gid), "tree filter dropped true answer {gid}");
                }
            }
        }
    }

    #[test]
    fn super_filter_is_sound_vs_vf2() {
        let ds = small_dataset();
        let idx = TreeIndex::build(&ds, TreeConfig::with_max_edges(3));
        let q = g(&[0, 1, 0, 2], &[(0, 1), (1, 2), (0, 2), (1, 3)]);
        let c = idx.super_candidates(&q);
        for (gid, dg) in ds.iter().enumerate() {
            if gc_iso::vf2::exists(dg, &q) {
                assert!(c.contains(gid), "tree super filter dropped {gid}");
            }
        }
    }

    #[test]
    fn star_query_filters_paths_out() {
        let ds = small_dataset();
        let idx = TreeIndex::build(&ds, TreeConfig::with_max_edges(3));
        // 3-star of label 0 fits only in graph 4.
        let q = g(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let c = idx.candidates(&q);
        assert_eq!(c.to_vec(), vec![4]);
    }

    #[test]
    fn memory_grows_with_size() {
        let ds = small_dataset();
        let small = TreeIndex::build(&ds, TreeConfig::with_max_edges(1));
        let large = TreeIndex::build(&ds, TreeConfig::with_max_edges(4));
        assert!(large.memory_bytes() >= small.memory_bytes());
    }

    #[test]
    fn truncation_keeps_graph_unfiltered() {
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        let clique = g(&[0; 8], &edges);
        let ds = vec![clique, g(&[1], &[])];
        let idx = TreeIndex::build(&ds, TreeConfig { max_edges: 5, max_trees: 50 });
        let q = g(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        assert!(idx.candidates(&q).contains(0));
    }

    #[test]
    fn dynamic_insert_remove_roundtrip() {
        let ds = small_dataset();
        let built = TreeIndex::build(&ds, TreeConfig::with_max_edges(3));
        let mut dynamic = TreeIndex::new(TreeConfig::with_max_edges(3));
        for (gid, gr) in ds.iter().enumerate() {
            dynamic.insert_graph(gid as GraphId, gr);
        }
        // Remove then re-insert a middle graph; answers must match a clean
        // build on every query.
        dynamic.remove_graph(1);
        dynamic.remove_graph(1); // double remove is a no-op
        dynamic.insert_graph(1, &ds[1]);
        for q in &ds {
            assert_eq!(dynamic.candidates(q), built.candidates(q));
            assert_eq!(dynamic.super_candidates(q), built.super_candidates(q));
        }
        dynamic.remove_graph(3);
        let q = g(&[0, 1], &[(0, 1)]);
        assert!(!dynamic.candidates(&q).contains(3), "removed graph still a candidate");
    }

    #[test]
    #[should_panic(expected = "duplicate graph id")]
    fn duplicate_insert_panics() {
        let ds = small_dataset();
        let mut idx = TreeIndex::build(&ds, TreeConfig::with_max_edges(2));
        idx.insert_graph(0, &ds[0]);
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let ds = small_dataset();
        let idx = TreeIndex::build(&ds, TreeConfig::with_max_edges(3));
        let mut scratch = TreeScratch::new();
        let mut out = BitSet::new(idx.dataset_size());
        let queries =
            [g(&[0, 1], &[(0, 1)]), g(&[9], &[]), g(&[0, 0, 0], &[(0, 1), (0, 2)]), g(&[], &[])];
        for q in &queries {
            idx.candidates_into(q, &mut scratch, &mut out);
            assert_eq!(out, idx.candidates(q), "shared scratch changed the answer");
            idx.super_candidates_into(q, &mut scratch, &mut out);
            assert_eq!(out, idx.super_candidates(q));
        }
    }
}
