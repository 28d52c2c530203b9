//! # graphcache — GC: a graph caching system for subgraph/supergraph queries
//!
//! A from-scratch Rust reproduction of *"GC: A Graph Caching System for
//! Subgraph/Supergraph Queries"* (Wang, Liu, Ma, Ntarmos, Triantafillou —
//! PVLDB 11(12), 2018) and the GraphCache/iGQ kernel it demonstrates.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on one crate:
//!
//! * [`graph`] ([`gc_graph`]) — labelled undirected graphs, bitsets, I/O,
//!   WL fingerprints;
//! * [`iso`] ([`gc_iso`]) — VF2 and Ullmann subgraph-isomorphism engines;
//! * [`index`] ([`gc_index`]) — path-feature indices (FTV dataset index and
//!   the dynamic query index);
//! * [`method`] ([`gc_method`]) — the pluggable Method M abstraction
//!   (SI and FTV base methods);
//! * [`core`] ([`gc_core`]) — the GraphCache kernel: the staged query
//!   pipeline (filter → probe → prune → verify → admit), replacement
//!   policies (LRU/POP/PIN/PINC/HD), window manager, and the one runtime:
//!   the concurrent sharded [`SharedGraphCache`](prelude::SharedGraphCache),
//!   built with one shard where counts must not depend on routing;
//! * [`workload`] ([`gc_workload`]) — dataset generators and workload
//!   synthesizers;
//! * [`demo`] ([`gc_demo`]) — the text Demonstrator (Query Journey /
//!   Workload Run dashboards).
//!
//! ## Quick start
//!
//! ```
//! use graphcache::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A dataset (here: synthetic molecule-like graphs standing in for AIDS).
//! let dataset = Arc::new(Dataset::new(molecule_dataset(100, 42)));
//!
//! // 2. A base method M (filter-then-verify over a path index) and a cache.
//! let method = Box::new(FtvMethod::build(&dataset, 3));
//! let gc = SharedGraphCache::with_policy(
//!     dataset.clone(),
//!     method,
//!     PolicyKind::Hd,
//!     CacheConfig::default(),
//! ).unwrap();
//!
//! // 3. Queries.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let q = extract_query(dataset.graph(0), 6, &mut rng).unwrap();
//! let first = gc.query(&q, QueryKind::Subgraph);
//! let again = gc.query(&q, QueryKind::Subgraph); // exact-match hit
//! assert_eq!(first.answer, again.answer);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gc_core as core;
pub use gc_demo as demo;
pub use gc_graph as graph;
pub use gc_index as index;
pub use gc_iso as iso;
pub use gc_method as method;
pub use gc_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use gc_core::{
        CacheConfig, CacheEntry, EntryId, GlobalStats, HitCredit, HitKind, Policy, PolicyKind,
        QueryReport, ReplacementPolicy, SharedGraphCache, StatsMonitor,
    };
    pub use gc_demo::{run_multi_client, run_query_journey, run_workload_comparison};
    pub use gc_graph::{BitSet, Graph, GraphBuilder, Label};
    pub use gc_index::FeatureConfig;
    pub use gc_iso::{is_subgraph, Matcher};
    pub use gc_method::{execute_base, Dataset, Engine, FtvMethod, Method, QueryKind, SiMethod};
    pub use gc_workload::{
        extract_query, molecule_dataset, nested_chain, Workload, WorkloadKind, WorkloadSpec,
    };
    pub use rand::SeedableRng;
}
