//! # gc-demo — the GraphCache Demonstrator
//!
//! The paper's Demonstrator and Dashboard Manager subsystems (Fig. 1) are a
//! web UI; this crate reproduces their *quantitative* content as plain-text
//! dashboards:
//!
//! * [`journey`] — Scenario I, *The Query Journey* (Fig. 3): the anatomy of
//!   one query's trip through GC, panel by panel (`H`, `C_M`, `S`, `S'`,
//!   `C`, `R`, `A`) with the resulting speedup;
//! * [`workload_run`] — Scenario II, *The Workload Run* (Fig. 2(b,c)):
//!   execute a workload under every bundled replacement policy, track hits
//!   per query and evictions per policy, and render the comparison;
//! * [`ascii`] — small rendering toolkit (id grids, bar charts, tables)
//!   shared by the scenarios and the harness binaries.
//!
//! Everything renders to `String`, so the dashboards are testable and usable
//! from both examples and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod dashboard;
pub mod journey;
pub mod workload_run;

pub use dashboard::{developer_monitor, end_user_monitor, render_end_user_monitor, DeploymentInfo};
pub use journey::{run_query_journey, QueryJourney};
pub use workload_run::{
    run_multi_client, run_workload_comparison, MultiClientRun, PolicyOutcome, WorkloadComparison,
};

/// Render a short id list like `39, 41, 43, …` capped at `max` items.
pub fn ascii_ids(ids: &[gc_core::EntryId], max: usize) -> String {
    let shown: Vec<String> = ids.iter().take(max).map(|i| i.to_string()).collect();
    let ellipsis = if ids.len() > max { ", …" } else { "" };
    format!("{}{}", shown.join(", "), ellipsis)
}
