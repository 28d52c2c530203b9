//! # gc-graph — graph substrate for GraphCache
//!
//! This crate provides the data-graph substrate every other GraphCache crate
//! builds on:
//!
//! * [`Graph`]: an immutable, undirected, vertex-labelled graph in a compact
//!   CSR-like representation, built through [`GraphBuilder`];
//! * [`BitSet`]: a fixed-universe bitset used for answer sets and candidate
//!   sets over dataset graph ids;
//! * [`io`]: reader/writer for the `t/v/e` text format used by the classic
//!   graph-query datasets (AIDS, PubChem, gSpan tooling);
//! * [`simd`]: runtime-dispatched word/SIMD kernels under every hot
//!   [`BitSet`] and posting-merge loop (portable scalar fallback included);
//! * [`hash`]: Weisfeiler–Lehman fingerprints used for exact-match cache hits;
//! * [`invariants`]: cheap necessary conditions for subgraph containment used
//!   to prune sub-iso tests before they start.
//!
//! The paper (GC, VLDB'18) targets undirected graphs with labels on vertices
//! only; that is exactly what [`Graph`] models. Edge labels and direction are
//! noted by the paper as straightforward generalisations and are out of scope
//! here.

// `deny` rather than `forbid`: the one sanctioned exception is the
// runtime-dispatched kernel module, which opts back in with a scoped
// `#![allow(unsafe_code)]` (feature-gated calls + raw vector loads).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod builder;
mod error;
mod graph;
pub mod hash;
pub mod invariants;
pub mod io;
pub mod simd;

pub use bitset::{BitSet, PairOnes};
pub use builder::{graph_from_parts, GraphBuilder};
pub use error::GraphError;
pub use graph::{EdgeIter, Graph, GraphId, Label, VertexId};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
