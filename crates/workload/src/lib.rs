//! # gc-workload — datasets and workloads for GraphCache experiments
//!
//! The paper evaluates GC on the AIDS Antiviral Screen molecules plus
//! synthetic datasets, with >6M queries "generated from graphs in the
//! dataset following established principles" (§3). Neither the NCI molecules
//! nor the authors' query logs are redistributable here, so this crate
//! provides faithful synthetic substitutes:
//!
//! * [`molecules`] — molecule-like labelled graphs (sparse, tree-plus-rings,
//!   skewed atom-label distribution) standing in for AIDS;
//! * [`random`] — Erdős–Rényi and preferential-attachment generators for the
//!   "synthetic datasets with various characteristics";
//! * [`queries`] — query extraction from data graphs (random connected
//!   subgraphs — the established principle in this literature) and nested
//!   query chains (`q1 ⊑ q2 ⊑ …`) that create sub/supergraph relationships
//!   between workload queries;
//! * [`workload`] — workload synthesizers: uniform, Zipf-skewed, and
//!   drifting session mixes over a query pool, plus serde serialization so
//!   experiment inputs are reproducible artefacts;
//! * [`zipf`] — a small Zipf sampler (no external dependency).
//!
//! Every generator takes an explicit RNG so experiments are deterministic
//! given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod molecules;
pub mod queries;
pub mod random;
pub mod workload;
pub mod zipf;

pub use molecules::{molecule_dataset, MoleculeParams};
pub use queries::{extract_query, nested_chain, QuerySizer};
pub use workload::{Workload, WorkloadKind, WorkloadQuery, WorkloadSpec};
pub use zipf::Zipf;
