//! The only file that calls into the program's crates. One function per span
//! name of the traced run (`core.query`, `method.filter`, `iso.verify`,
//! `core.mutate`, `store.snapshot`, `store.restore`, `http.request`) plus
//! set-up, the Method-M baseline and the input generators — so when the
//! program's API moves, the benchmark is fixed here and nowhere else.
//!
//! Deliberately unused: `gc_bench::run_cached`, `gc_core::GraphCache` and
//! `gc_index::reference` (ROADMAP items 2-3 delete or demote them).

use gc_core::{CacheConfig, PipelineStage, PolicyKind, SharedGraphCache};
use gc_method::{execute_base, Engine, FtvMethod, Method, QueryProfile};
use gc_server::{QueryResponse, Server, ServerConfig};
use gc_store::{CacheStore, FsyncPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use gc_core::{GlobalStats, QueryReport};
pub use gc_graph::{BitSet, Graph};
pub use gc_method::{Dataset, QueryKind, VfScratch};
pub use gc_server::HttpClient;
pub use gc_workload::WorkloadQuery as Query;

/// Cache entries of the fixed configuration: with the 1024-slot answer memo
/// this is the "program's own cache" the working sets are sized against.
pub const CACHE_CAPACITY: usize = 500;
/// Feature length of the FTV method (Method M).
pub const FTV_MAX_LEN: usize = 3;
/// Connections and server workers over HTTP; never more than `nproc` here.
pub const HTTP_CONNECTIONS: usize = 2;

// ---- generators (fed by --seed; the program sees only their output) --------

pub fn gen_dataset(count: usize, seed: u64) -> Vec<Graph> {
    gc_workload::molecule_dataset(count, seed)
}

/// `size` connected subgraph queries cut from random graphs, their sizes
/// cycling through 3-12 edges so that every pool has the same size mix.
pub fn gen_pool(graphs: &[Graph], size: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let source = &graphs[rng.gen_range(0..graphs.len())];
        let edges = 3 + pool.len() % 10;
        if let Some(graph) = gc_workload::extract_query(source, edges, &mut rng) {
            pool.push(Query { graph, kind: QueryKind::Subgraph });
        }
    }
    pool
}

/// `n` Zipf(`skew`) ranks over `0..support`.
pub fn gen_zipf(support: usize, skew: f64, n: usize, seed: u64) -> Vec<u32> {
    let zipf = gc_workload::Zipf::new(support, skew);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// `n` queries arriving as ⊑-chains of four, one in five a supergraph query.
pub fn gen_drift(graphs: &[Graph], n: usize, seed: u64) -> Vec<Query> {
    let spec = gc_workload::WorkloadSpec {
        n_queries: n,
        kind: gc_workload::WorkloadKind::Drift { chain_len: 4, repeat_prob: 0.2 },
        supergraph_fraction: 0.2,
        seed,
        ..Default::default()
    };
    gc_workload::Workload::generate(graphs, &spec).queries
}

pub fn graph_fingerprint(g: &Graph) -> u64 {
    gc_graph::hash::fingerprint(g)
}

pub fn http_body(g: &Graph) -> String {
    gc_graph::io::dataset_to_string(std::slice::from_ref(g))
}

// ---- set-up ----------------------------------------------------------------

/// What surrounds the cache in one workload.
#[derive(Debug, Clone, Default)]
pub struct ProgramSpec {
    /// Attach a `CacheStore` in this directory (journal on, group commit).
    pub store_dir: Option<PathBuf>,
    /// Serve the cache over HTTP on a loopback port.
    pub serve: bool,
}

/// The program as one workload drives it.
pub struct Program {
    gc: Arc<SharedGraphCache>,
    method: Arc<FtvMethod>,
    store: Option<Arc<CacheStore>>,
    server: Option<Server>,
}

fn cache_config(durable: bool) -> CacheConfig {
    let mut config = CacheConfig { capacity: CACHE_CAPACITY, ..Default::default() };
    if durable {
        config.fsync_policy = FsyncPolicy::EveryN(64);
        config.snapshot_interval = Some(2000);
    }
    config
}

impl Program {
    /// Inputs in memory → first query servable. Everything in here is what
    /// `setup_s` times.
    pub fn build(graphs: Vec<Graph>, spec: &ProgramSpec) -> Result<Program, String> {
        let dataset = Arc::new(Dataset::new(graphs));
        let method = Arc::new(FtvMethod::build(&dataset, FTV_MAX_LEN));
        let mut gc = SharedGraphCache::new(
            dataset,
            method.clone(),
            || PolicyKind::Hd.make(),
            cache_config(spec.store_dir.is_some()),
        )?;
        let mut store = None;
        if let Some(dir) = &spec.store_dir {
            let opened = Arc::new(CacheStore::open(dir).map_err(|e| format!("open store: {e}"))?);
            gc.attach_store(opened.clone())?;
            store = Some(opened);
        }
        let gc = Arc::new(gc);
        let server = if spec.serve {
            let config = ServerConfig { workers: HTTP_CONNECTIONS, ..Default::default() };
            Some(Server::start(gc.clone(), config)?)
        } else {
            None
        };
        Ok(Program { gc, method, store, server })
    }

    /// `store.restore` — stop this program and start a fresh cache over the
    /// pristine `graphs`, warmed from what the store directory `dir` holds.
    /// The method index is kept: it is built on the same base graphs.
    pub fn restart_from(self, graphs: Vec<Graph>, dir: &Path) -> Result<Program, String> {
        let method = self.method.clone();
        drop(self.shutdown());
        let store = Arc::new(CacheStore::open(dir).map_err(|e| format!("reopen store: {e}"))?);
        let (gc, report) = SharedGraphCache::restore_from(
            Arc::new(Dataset::new(graphs)),
            method.clone(),
            || PolicyKind::Hd.make(),
            cache_config(true),
            store.clone(),
        )?;
        if !report.warm {
            return Err(format!("restore came back cold: {}", report.describe()));
        }
        Ok(Program { gc: Arc::new(gc), method, store: Some(store), server: None })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("workload serves over HTTP").addr()
    }

    /// The dataset as it stands. Drop the handle before the next mutation: a
    /// live clone turns the program's copy-on-write into a copy of every graph.
    pub fn dataset(&self) -> Arc<Dataset> {
        self.gc.dataset()
    }

    pub fn stats(&self) -> GlobalStats {
        self.gc.stats()
    }

    /// Cached entries.
    pub fn entries(&self) -> usize {
        self.gc.len()
    }

    pub fn cache_bytes(&self) -> usize {
        self.gc.memory_bytes()
    }

    /// Requests the server refused with 503 since it started.
    pub fn server_shed(&self) -> u64 {
        self.server.as_ref().map_or(0, |s| s.serving_stats().requests_shed)
    }

    /// (bytes, records) in the active journal; both restart at a rotation.
    pub fn journal_position(&self) -> (u64, u64) {
        self.store.as_ref().map_or((0, 0), |s| (s.journal_bytes(), s.journal_records()))
    }

    /// Σ of the program's own stage histograms ÷ its total histogram: how
    /// much of the time it reports per query it also attributes to a stage.
    pub fn stage_sum_share(&self) -> f64 {
        let t = self.gc.telemetry();
        let stages: u64 = PipelineStage::ALL.iter().map(|&s| t.stage(s).sum_us()).sum();
        stages as f64 / t.total().sum_us().max(1) as f64
    }

    /// One of the program's own stage histograms: (mean µs per observation,
    /// share of the program's total histogram). A cross-check for the
    /// benchmark's outside-timed spans.
    pub fn program_stage(&self, stage: &str) -> (f64, f64) {
        let t = self.gc.telemetry();
        let total = t.total().sum_us().max(1) as f64;
        PipelineStage::ALL.iter().find(|s| s.label() == stage).map_or((0.0, 0.0), |&s| {
            (t.stage(s).snapshot().mean_us(), t.stage(s).sum_us() as f64 / total)
        })
    }

    /// Stop the server (joins its threads) and release the cache.
    pub fn shutdown(self) -> Arc<SharedGraphCache> {
        if let Some(server) = self.server {
            server.drain();
        }
        self.gc
    }
}

// ---- one function per span -------------------------------------------------

/// `core.query`
pub fn core_query(p: &Program, q: &Query) -> QueryReport {
    p.gc.query(&q.graph, q.kind)
}

/// `method.filter` — Method M's filter alone, as a shadow of the one the
/// query just ran.
pub fn method_filter(p: &Program, dataset: &Dataset, q: &Query) -> BitSet {
    p.method.filter(dataset, &q.graph, q.kind)
}

/// `iso.verify` — re-verify the candidates the query verified. Returns
/// (tests, survivors, search steps).
pub fn iso_verify(
    dataset: &Dataset,
    q: &Query,
    candidates: &BitSet,
    scratch: &mut VfScratch,
) -> (u64, u64, u64) {
    let profile = QueryProfile::new(dataset, &q.graph, q.kind);
    let (mut tests, mut survivors, mut steps) = (0, 0, 0);
    for gid in candidates.iter() {
        let (contained, s) =
            Engine::Vf2.verify_candidate(dataset, &profile, &q.graph, gid as u32, scratch);
        tests += 1;
        survivors += u64::from(contained);
        steps += s;
    }
    (tests, survivors, steps)
}

/// `core.mutate` (insert); returns the id the program assigned.
pub fn core_insert(p: &Program, g: Graph) -> u32 {
    p.gc.insert_graph(g)
}

/// `core.mutate` (remove)
pub fn core_remove(p: &Program, gid: u32) -> bool {
    p.gc.remove_graph(gid)
}

/// `store.snapshot`; returns the snapshot's size in bytes.
pub fn store_snapshot(p: &Program) -> Result<u64, String> {
    p.gc.snapshot_now()?.map(|info| info.snapshot_bytes).ok_or_else(|| "no store attached".into())
}

/// What one `http.request` returned.
pub struct HttpReply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub fn http_connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect(addr)
}

/// `http.request` — one blocking `POST /query`, no retries. A transport
/// error comes back as status 0.
pub fn http_request(client: &mut HttpClient, q: &Query, body: &str) -> HttpReply {
    let path = match q.kind {
        QueryKind::Subgraph => "/query?kind=sub",
        QueryKind::Supergraph => "/query?kind=super",
    };
    match client.post(path, body.as_bytes()) {
        Ok(resp) => HttpReply { status: resp.status, body: resp.body },
        Err(_) => HttpReply { status: 0, body: Vec::new() },
    }
}

pub fn parse_reply(body: &[u8]) -> Option<QueryResponse> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

// ---- Method M alone: the baseline every answer is checked against -----------

/// Method M over the *live* dataset: the FTV filter built on the base graphs,
/// widened by every graph inserted since and masked by the live set. On an
/// unmutated dataset it is the FTV filter unchanged.
struct LiveFtv<'a>(&'a FtvMethod);

impl Method for LiveFtv<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn filter(&self, dataset: &Dataset, query: &Graph, kind: QueryKind) -> BitSet {
        let mut cm = self.0.filter(dataset, query, kind);
        let indexed = cm.universe();
        cm.grow(dataset.len());
        for gid in indexed..dataset.len() {
            cm.insert(gid);
        }
        cm.intersect_with(dataset.live_mask());
        cm
    }

    fn index_memory_bytes(&self) -> usize {
        self.0.index_memory_bytes()
    }
}

/// `execute_base` on the dataset as it stands now: (answer, time). The
/// dataset handle is released before returning.
pub fn baseline(p: &Program, q: &Query) -> (Vec<usize>, Duration) {
    let dataset = p.dataset();
    let run = execute_base(&dataset, &LiveFtv(&p.method), Engine::Vf2, &q.graph, q.kind);
    (run.answer.to_vec(), run.elapsed)
}

// ---- gc-graph kernels --------------------------------------------------------

pub fn kernel_name() -> &'static str {
    gc_graph::simd::kernel_name()
}

/// The dispatch tier as a number: 0 scalar, 1 sse2, 2 avx2.
pub fn kernel_tier() -> u32 {
    match kernel_name() {
        "avx2" => 2,
        "sse2" => 1,
        _ => 0,
    }
}

/// ns per 1000 words of and + andnot + popcount at a `universe`-bit set.
pub fn bitset_ns_per_kword(universe: usize) -> f64 {
    let a0 = BitSet::from_indices(universe, (0..universe).step_by(3));
    let b = BitSet::from_indices(universe, (0..universe).step_by(5));
    let words = universe.div_ceil(64);
    let rounds = 20_000;
    let mut sink = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        let mut a = a0.clone();
        a.intersect_with(&b);
        a.difference_with(&b);
        sink += std::hint::black_box(&a).count() + a0.intersect_count(&b);
    }
    std::hint::black_box(sink);
    // Four word passes a round (and, andnot, popcount, and-popcount).
    start.elapsed().as_nanos() as f64 / (rounds * 4 * words) as f64 * 1000.0
}

/// ns per element of the dispatched posting-pair intersection.
pub fn intersect_pairs_ns_per_elem() -> f64 {
    let cur: Vec<u32> = (0..10_000).step_by(7).collect();
    let list: Vec<(u32, u32)> = (0..10_000).step_by(2).map(|id| (id, 1 + id % 3)).collect();
    let rounds = 5_000;
    let mut out = Vec::with_capacity(cur.len());
    let start = Instant::now();
    for _ in 0..rounds {
        out.clear();
        gc_graph::simd::intersect_pairs(std::hint::black_box(&cur), &list, 2, &mut out);
        std::hint::black_box(&out);
    }
    start.elapsed().as_nanos() as f64 / (rounds * (cur.len() + list.len())) as f64
}
