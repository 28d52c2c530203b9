//! # gc-iso — subgraph isomorphism engines for GraphCache
//!
//! GraphCache's Verifier component (paper Fig. 1) decides `q ⊑ G`:
//! does a *non-induced* subgraph isomorphism from the pattern `q` into the
//! target `G` exist, respecting vertex labels? This crate provides:
//!
//! * [`vf2`] — the production engine, a VF2-style backtracking search
//!   (Cordella et al., TPAMI 2004 — the paper's reference \[3\]) with
//!   label/degree pruning, connectivity-driven search order, embedding
//!   enumeration, and step budgets;
//! * [`ullmann`] — Ullmann's algorithm with bitset domains and forward
//!   checking; used as a cross-checking baseline and for ablation benches;
//! * [`profile`] — precomputed per-graph verification profiles
//!   ([`GraphProfile`]) and reusable search scratch ([`VfScratch`]): the
//!   allocation-free hot path both engines expose as `embeds_with`;
//! * [`iso`] — exact graph-isomorphism testing built on top (for the cache's
//!   exact-match hits);
//! * [`Matcher`] — object-safe abstraction so Method M can swap engines
//!   ("pluggable cache", paper §1).
//!
//! All engines are exact: given enough budget they never report a wrong
//! answer (property-tested against a brute-force reference).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iso;
mod order;
pub mod profile;
pub mod ullmann;
pub mod vf2;

pub use order::search_order;
pub use profile::{GraphProfile, ProfileRef, VerifyCtx, VfScratch};

use gc_graph::Graph;

/// Result of a (possibly budgeted) containment search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// An embedding exists.
    Yes,
    /// No embedding exists.
    No,
    /// The step budget ran out before the search completed.
    Unknown,
}

impl Found {
    /// `true` iff the outcome is [`Found::Yes`].
    pub fn is_yes(self) -> bool {
        matches!(self, Found::Yes)
    }
}

/// Statistics produced by one search invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of candidate-pair extensions attempted (search tree nodes).
    pub steps: u64,
    /// Number of complete embeddings found (for counting searches).
    pub embeddings: u64,
}

/// An exact subgraph-isomorphism engine.
///
/// Implementations must be exact: [`Found::Yes`]/[`Found::No`] answers are
/// authoritative; [`Found::Unknown`] may only be returned when `budget` is
/// `Some` and was exhausted.
pub trait Matcher: Send + Sync {
    /// Does `pattern ⊑ target` (non-induced, label-preserving)?
    fn contains(&self, pattern: &Graph, target: &Graph, budget: Option<u64>) -> Found;

    /// Engine name for reports and dashboards.
    fn name(&self) -> &'static str;
}

/// The default production matcher (VF2).
#[derive(Debug, Clone, Copy, Default)]
pub struct Vf2Matcher;

impl Matcher for Vf2Matcher {
    fn contains(&self, pattern: &Graph, target: &Graph, budget: Option<u64>) -> Found {
        vf2::exists_budgeted(pattern, target, budget)
    }

    fn name(&self) -> &'static str {
        "vf2"
    }
}

/// Ullmann matcher (baseline / cross-check).
#[derive(Debug, Clone, Copy, Default)]
pub struct UllmannMatcher;

impl Matcher for UllmannMatcher {
    fn contains(&self, pattern: &Graph, target: &Graph, budget: Option<u64>) -> Found {
        ullmann::exists_budgeted(pattern, target, budget)
    }

    fn name(&self) -> &'static str {
        "ullmann"
    }
}

/// Convenience: non-induced labelled subgraph test with the default engine.
pub fn is_subgraph(pattern: &Graph, target: &Graph) -> bool {
    vf2::exists(pattern, target)
}
