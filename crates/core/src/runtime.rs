//! [`GraphCache`]: the Query Processing Runtime with one owner — a
//! [`SharedGraphCache`] of one shard behind `&mut self`.
//!
//! The shard count is the one thing this type decides. Every query,
//! mutation, snapshot and restore runs [`SharedGraphCache`]'s code;
//! accessors come through `Deref`, and `query`, `query_traced`,
//! `insert_graph` and `remove_graph` are `&mut self` forwards, so the type
//! still says that one caller owns the cache.

use crate::config::CacheConfig;
use crate::persist::RecoveryReport;
use crate::policy::ReplacementPolicy;
use crate::report::QueryReport;
use crate::shared::SharedGraphCache;
use crate::PolicyKind;
use gc_graph::{Graph, GraphId};
use gc_method::{Dataset, Method, QueryKind};
use gc_store::CacheStore;
use std::sync::Arc;

/// The GraphCache kernel: a semantic cache layered over a base Method M.
///
/// ```
/// use gc_core::{CacheConfig, GraphCache, PolicyKind};
/// use gc_method::{Dataset, QueryKind, SiMethod};
/// use gc_graph::{graph_from_parts, Label};
/// use std::sync::Arc;
///
/// let dataset = Arc::new(Dataset::new(vec![
///     graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap(),
///     graph_from_parts(&[Label(2)], &[]).unwrap(),
/// ]));
/// let mut gc = GraphCache::new(
///     dataset,
///     Box::new(SiMethod),
///     PolicyKind::Hd.make(),
///     CacheConfig::default(),
/// ).unwrap();
///
/// let q = graph_from_parts(&[Label(0)], &[]).unwrap();
/// let report = gc.query(&q, QueryKind::Subgraph);
/// assert_eq!(report.answer.to_vec(), vec![0]);
/// ```
#[derive(Debug)]
pub struct GraphCache(SharedGraphCache);

impl GraphCache {
    /// Create a cache over `dataset` using `method` as Method M and `policy`
    /// for replacement. `config.shards` is overridden: a `GraphCache` is
    /// one shard.
    pub fn new(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        policy: Box<dyn ReplacementPolicy>,
        config: CacheConfig,
    ) -> Result<Self, String> {
        SharedGraphCache::new(dataset, Arc::from(method), only(policy), one_shard(config))
            .map(GraphCache)
    }

    /// Convenience constructor with a bundled policy kind.
    pub fn with_policy(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        kind: PolicyKind,
        config: CacheConfig,
    ) -> Result<Self, String> {
        Self::new(dataset, method, kind.make(), config)
    }

    /// Build a cache and warm-restart it from `store`; see
    /// [`SharedGraphCache::restore_from`].
    pub fn restore_from(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        policy: Box<dyn ReplacementPolicy>,
        config: CacheConfig,
        store: Arc<CacheStore>,
    ) -> Result<(Self, RecoveryReport), String> {
        let method = Arc::from(method);
        SharedGraphCache::restore_from(dataset, method, only(policy), one_shard(config), store)
            .map(|(gc, report)| (GraphCache(gc), report))
    }

    /// Process one query; returns the exact answer set plus the full
    /// Query-Journey anatomy (Fig. 3).
    pub fn query(&mut self, query: &Graph, kind: QueryKind) -> QueryReport {
        self.0.query(query, kind)
    }

    /// [`Self::query`] with a request id for any captured trace; see
    /// [`SharedGraphCache::query_traced`].
    pub fn query_traced(
        &mut self,
        query: &Graph,
        kind: QueryKind,
        request_id: Option<&str>,
    ) -> QueryReport {
        self.0.query_traced(query, kind, request_id)
    }

    /// Insert a data graph into the live dataset, repairing every cached
    /// answer in place; see [`SharedGraphCache::insert_graph`].
    pub fn insert_graph(&mut self, g: Graph) -> GraphId {
        self.0.insert_graph(g)
    }

    /// Tombstone a data graph; `false` if it was not live. See
    /// [`SharedGraphCache::remove_graph`].
    pub fn remove_graph(&mut self, gid: GraphId) -> bool {
        self.0.remove_graph(gid)
    }
}

fn one_shard(config: CacheConfig) -> CacheConfig {
    CacheConfig { shards: 1, ..config }
}

/// The policy factory of a one-shard cache: hands out `policy` once.
fn only(policy: Box<dyn ReplacementPolicy>) -> impl FnMut() -> Box<dyn ReplacementPolicy> {
    let mut policy = Some(policy);
    move || policy.take().expect("a one-shard cache builds one policy")
}

impl std::ops::Deref for GraphCache {
    type Target = SharedGraphCache;

    fn deref(&self) -> &SharedGraphCache {
        &self.0
    }
}

impl std::ops::DerefMut for GraphCache {
    fn deref_mut(&mut self) -> &mut SharedGraphCache {
        &mut self.0
    }
}
