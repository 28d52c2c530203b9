//! # gc-index — feature indices for GraphCache
//!
//! Two index families power GraphCache:
//!
//! 1. **FTV dataset index** ([`PathTrie`]): the "Filter" of Method M
//!    (paper Fig. 1), modelled on GraphGrepSX (the paper's reference \[1\]):
//!    all labelled simple paths of up to `L` edges of each dataset graph are
//!    stored in a suffix-trie-like structure with per-graph occurrence
//!    counts. A query's candidate set is every graph whose counts dominate
//!    the query's counts on all query features. `L` is the *feature size*
//!    knob of the paper's Experiment II ("Speedup versus Overhead").
//!    [`TreeIndex`] provides the alternative *tree*-feature family (the
//!    paper's "a path, tree or subgraph"), trading enumeration cost for
//!    discriminative power.
//!
//! 2. **Dynamic query index** ([`QueryIndex`]): the structure behind the
//!    Sub/Super Case Processors, modelled on iGQ (the paper's reference
//!    \[10\]): an inverted index over *cached query graphs* supporting both
//!    containment directions — "which cached queries may contain the new
//!    query g?" (sub-case candidates) and "which cached queries may be
//!    contained in g?" (super-case candidates) — with insertion and removal
//!    as the cache admits and evicts entries.
//!
//! Both filters are **sound**: they may return false candidates (removed by
//! sub-iso verification downstream) but never drop a true one. This is
//! property-tested against the VF2 engine.
//!
//! Every "which indexed graphs can be contained in this query" probe
//! ([`PathTrie::super_candidates_into`],
//! [`QueryIndex::super_case_candidates_into`],
//! [`TreeIndex::super_candidates_into`]) shares one fit test: each indexed
//! graph keeps its feature total and a one-word feature mask, and only a
//! graph whose total and mask fit inside the query's has the count
//! identity `Σ min(cnt_G, cnt_q) = total(G)` confirmed exactly. The probe
//! costs one signature read per indexed graph plus the survivors'
//! confirmation; no posting list is scanned whole.
//!
//! ## Allocation discipline
//!
//! The per-query front-end (extraction + index lookups) is the hot path of
//! every cache probe, so it follows the same flat-array discipline as the
//! verification engines: extraction streams paths through a
//! [`PathSink`] into a reusable [`ExtractScratch`] (no per-path `Vec`s),
//! [`QueryIndex`] keeps sorted flat postings probed through a
//! [`CandScratch`], [`TreeIndex`] streams its subtree enumeration through a
//! [`TreeScratch`], and [`PathTrie`] is a contiguous arena intersected
//! word-parallel into a caller-owned bitset via a [`TrieScratch`]. After
//! warm-up the whole probe path performs zero heap allocations
//! (`tests/alloc_free.rs`); the [`reference`](mod@reference) module keeps
//! the previous materializing/HashMap/eager implementations as executable
//! specifications.
//!
//! ## Maintenance discipline
//!
//! Admission and eviction churn the dynamic indexes at traffic rates, so
//! directory maintenance is amortized too: both [`QueryIndex`] and
//! [`TreeIndex`] keep their sorted hash directories behind tombstoned
//! slots with lazy compaction and a batched append tail (insert/remove
//! memmoves at most the small tail run instead of the whole directory),
//! and the k-way
//! sub-case merge switches per step between two-pointer and galloping
//! intersection ([`merge`]) when posting-list lengths are skewed. Both
//! thresholds are constants: compaction at [`COMPACT_TOMBSTONE_PCT`] percent
//! tombstoned slots (never below [`COMPACT_MIN`]), galloping at a length
//! ratio of 8. `tests/prop.rs` holds the tombstoned directory equal to an
//! eager one under interleaved admit/evict/probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod directory;
mod extract;
mod fit;
pub mod merge;
mod query_index;
pub mod reference;
mod tree;
mod trie;

pub use directory::{COMPACT_MIN, COMPACT_TOMBSTONE_PCT};
pub use extract::{
    enumerate_label_paths, feature_hash, feature_vec, stream_label_paths, ExtractScratch,
    FeatureConfig, FeatureVec, FeaturesRef, PathSink,
};
pub use query_index::{CandScratch, EntryId, QueryIndex};
pub use tree::{enumerate_tree_codes, TreeConfig, TreeIndex, TreeScratch};
pub use trie::{PathTrie, TrieScratch};
