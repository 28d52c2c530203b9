//! JSON wire types for the HTTP API.
//!
//! The request body of `POST /query` is not JSON — it is the same t/v/e
//! text format the rest of the system uses for graphs
//! ([`gc_graph::io::parse_dataset`]), with the query kind selected by the
//! `?kind=sub|super` query parameter. Responses are JSON via these types —
//! except the `/query` reply itself, which the server writes straight into
//! its output buffer ([`QueryReply::write_json`]) in exactly the bytes
//! `serde_json` would produce for the equivalent [`QueryResponse`].

use gc_core::QueryReport;
use serde::{Deserialize, Serialize};
use std::io::Write as _;

/// `POST /query` success response: the exact answer set plus the
/// Query-Journey anatomy and the server-side stage timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Ids of the dataset graphs in the answer set.
    pub answer: Vec<usize>,
    /// `"sub"` or `"super"`.
    pub kind: String,
    /// `true` when an exact-match hit served the query outright.
    pub exact_hit: bool,
    /// `true` when an answer-only row (an evicted entry, or a query
    /// admission rejected) served the query with zero probe/verify work.
    pub memo_hit: bool,
    /// Which plan produced the candidate set: `"filter"` (the base
    /// method's filter ran) or `"bounded"` (the cache hits already fenced
    /// the answer and the filter was skipped); empty for exact/memo hits.
    pub plan: String,
    /// Base method's baseline tests: `|C_M|`, or an upper bound on it when
    /// `plan` is `"bounded"`.
    pub cm_size: usize,
    /// `|S|` — definite answers contributed by cache hits.
    pub definite: usize,
    /// `|C|` — candidates actually verified.
    pub verified: usize,
    /// Sub-iso tests against dataset graphs.
    pub sub_iso_tests: u64,
    /// Sub-iso tests spent probing the cache.
    pub probe_tests: u64,
    /// Time spent waiting in the admission queue, microseconds.
    pub queue_us: u64,
    /// Time from first request byte to a fully-parsed request,
    /// microseconds (includes socket reads).
    pub parse_us: u64,
    /// Cache pipeline execution time, microseconds.
    pub execute_us: u64,
    /// `true` when the request finished after its deadline (it was still
    /// served — the answer is exact — but operators should treat the
    /// latency SLO as missed).
    pub deadline_exceeded: bool,
}

/// A `/query` success reply: the [`QueryResponse`] fields, read from the
/// query's [`QueryReport`] plus the server's own timings, without the owned
/// id vector and strings. The server never builds a `QueryResponse`; it
/// writes this.
#[derive(Debug, Clone, Copy)]
pub struct QueryReply<'a> {
    /// The query's record: its answer (with the shared rendered ids of an
    /// exact or memo hit), kind, tier, plan and test counts.
    pub report: &'a QueryReport,
    /// See [`QueryResponse::queue_us`].
    pub queue_us: u64,
    /// See [`QueryResponse::parse_us`].
    pub parse_us: u64,
    /// See [`QueryResponse::execute_us`].
    pub execute_us: u64,
    /// See [`QueryResponse::deadline_exceeded`].
    pub deadline_exceeded: bool,
}

impl QueryReply<'_> {
    /// Append the reply's JSON to `out`: byte for byte what
    /// `serde_json::to_string` gives for the equivalent [`QueryResponse`]
    /// (same field order, compact), with no intermediate value tree and no
    /// allocation of its own beyond growing `out`. An exact or memo hit's
    /// ids are copied from its shared [`gc_core::AnswerText`] (rendered by
    /// the first reply that needed them); a pipeline answer's are rendered
    /// by [`BitSet::write_ids`](gc_graph::BitSet::write_ids) as they are
    /// written.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let r = self.report;
        out.extend_from_slice(b"{\"answer\":[");
        match &r.answer_text {
            Some(text) => out.extend_from_slice(text.get_or_render(&r.answer)),
            None => r.answer.write_ids(out),
        }
        // Writing to a `Vec` cannot fail; `kind` and `plan` are fixed
        // labels that need no escaping.
        let _ = write!(
            out,
            "],\"kind\":\"{}\",\"exact_hit\":{},\"memo_hit\":{},\"plan\":\"{}\",\
             \"cm_size\":{},\"definite\":{},\"verified\":{},\"sub_iso_tests\":{},\
             \"probe_tests\":{},\"queue_us\":{},\"parse_us\":{},\"execute_us\":{},\
             \"deadline_exceeded\":{}}}",
            r.kind.as_str(),
            r.exact_hit,
            r.memo_hit,
            r.plan(),
            r.cm_size,
            r.definite,
            r.verified,
            r.sub_iso_tests,
            r.probe_tests,
            self.queue_us,
            self.parse_us,
            self.execute_us,
            self.deadline_exceeded,
        );
    }
}

/// `POST /mutate` success response. `op` echoes the applied operation
/// (`"insert"` or `"remove"`); `applied` is `false` only for a remove of
/// an already-tombstoned (or never-live) graph id, which is a no-op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutateResponse {
    /// `"insert"` or `"remove"`.
    pub op: String,
    /// The inserted graph's id, or the id the remove targeted.
    pub graph_id: u32,
    /// Whether the mutation changed the dataset.
    pub applied: bool,
    /// Dataset generation after the mutation (one journaled delta each).
    pub generation: u64,
    /// Live (non-tombstoned) graphs after the mutation.
    pub live_graphs: u64,
}

/// Error response body (`4xx`/`5xx`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// What went wrong.
    pub error: String,
    /// Mirror of the `Retry-After` header on `503` shed responses.
    pub retry_after_secs: Option<u64>,
}

/// `GET /stats` response: cache-level Statistics Monitor counters plus
/// the server's serving gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Queries processed by the cache.
    pub queries: u64,
    /// Queries with at least one hit.
    pub hit_queries: u64,
    /// Exact-match hits.
    pub exact_hits: u64,
    /// Memo hits: served by an answer-only row, pipeline bypassed.
    pub memo_hits: u64,
    /// Exact/memo hits confirmed by isomorphism search rather than by an
    /// equal presentation (clients sending isomorphs, not repeats).
    pub exact_confirm_iso: u64,
    /// Individual sub-case hits.
    pub sub_hits: u64,
    /// Individual super-case hits.
    pub super_hits: u64,
    /// Sub-iso tests against dataset graphs.
    pub tests_executed: u64,
    /// Sub-iso tests spent probing the cache.
    pub probe_tests: u64,
    /// Sub-iso tests saved vs the base method alone.
    pub tests_saved: u64,
    /// Pipeline queries that skipped the base method's filter (bounded
    /// plan).
    pub filter_skipped: u64,
    /// Entries admitted.
    pub admitted: u64,
    /// Entries evicted.
    pub evicted: u64,
    /// Live cached entries.
    pub entries: usize,
    /// Dataset generation (total mutations applied since construction).
    pub dataset_generation: u64,
    /// Live (non-tombstoned) dataset graphs.
    pub dataset_live_graphs: u64,
    /// Fraction of queries with at least one hit.
    pub hit_ratio: f64,
    /// SIMD kernel tier the hot loops dispatched to.
    pub kernel_dispatch: String,
    /// Store health, `healthy` or `degraded` (empty when no store attached).
    pub persist_health: String,
    /// Failed persistence operations since attach.
    pub persist_errors: u64,
    /// Dataset mutations not on disk while persistence is degraded.
    pub journal_records_buffered: u64,
    /// HTTP requests parsed and routed.
    pub requests_total: u64,
    /// Requests shed under overload (both shed points).
    pub requests_shed: u64,
    /// Requests that exceeded a deadline.
    pub requests_timed_out: u64,
    /// Seconds since server start.
    pub uptime_secs: u64,
    /// `true` while the server is draining (also flips `/readyz`).
    pub draining: bool,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Admission-queue depth (connections beyond this are shed).
    pub queue_depth: usize,
    /// Bucket-estimated p50 end-to-end query latency, microseconds
    /// (upper bound, within one log2 bucket of the true value).
    pub pipeline_p50_us: u64,
    /// Bucket-estimated p90 end-to-end query latency, microseconds.
    pub pipeline_p90_us: u64,
    /// Bucket-estimated p99 end-to-end query latency, microseconds.
    pub pipeline_p99_us: u64,
    /// Query traces captured by the sampler.
    pub traces_sampled: u64,
    /// Queries over the slow-query threshold (always traced).
    pub slow_queries: u64,
    /// Per-stage latency summaries for the cache pipeline.
    pub stages: Vec<StageSummary>,
    /// Per-stage latency summaries for the server's request lifecycle:
    /// `queue`, `parse`, `execute`, `render`, `write`.
    pub request_stages: Vec<StageSummary>,
}

/// Latency summary for one cache pipeline or request stage (from the
/// stage's log2-µs histogram; percentiles are bucket upper bounds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage label: a pipeline stage (`probe`/`bound`/`filter`/`prune`/
    /// `verify`/`admit`/`key`/`exact`, then `mutate`) or a request
    /// stage (`queue`/`parse`/`execute`/`render`/`write`).
    pub stage: String,
    /// Observations recorded for this stage.
    pub count: u64,
    /// Bucket-estimated p50, microseconds.
    pub p50_us: u64,
    /// Bucket-estimated p90, microseconds.
    pub p90_us: u64,
    /// Bucket-estimated p99, microseconds.
    pub p99_us: u64,
}

/// `GET /debug/traces` / `GET /debug/slow` response: recent query traces,
/// newest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracesResponse {
    /// The traces, newest first.
    pub traces: Vec<gc_core::QueryTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_response_roundtrips() {
        let r = QueryResponse {
            answer: vec![0, 3, 17],
            kind: "sub".into(),
            exact_hit: true,
            memo_hit: false,
            plan: "bounded".into(),
            cm_size: 75,
            definite: 1,
            verified: 43,
            sub_iso_tests: 43,
            probe_tests: 2,
            queue_us: 10,
            parse_us: 20,
            execute_us: 30,
            deadline_exceeded: false,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: QueryResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn mutate_response_roundtrips() {
        let m = MutateResponse {
            op: "insert".into(),
            graph_id: 120,
            applied: true,
            generation: 7,
            live_graphs: 119,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: MutateResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn error_body_roundtrips_with_and_without_retry() {
        for retry in [Some(2u64), None] {
            let e = ErrorBody { error: "shed".into(), retry_after_secs: retry };
            let json = serde_json::to_string(&e).unwrap();
            let back: ErrorBody = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn stats_response_roundtrips() {
        let s = StatsResponse {
            queries: 100,
            hit_queries: 40,
            exact_hits: 10,
            memo_hits: 4,
            exact_confirm_iso: 1,
            sub_hits: 5,
            super_hits: 3,
            tests_executed: 900,
            probe_tests: 100,
            tests_saved: 500,
            filter_skipped: 12,
            admitted: 20,
            evicted: 5,
            entries: 15,
            dataset_generation: 3,
            dataset_live_graphs: 98,
            hit_ratio: 0.4,
            kernel_dispatch: "avx2".into(),
            persist_health: "healthy".into(),
            persist_errors: 0,
            journal_records_buffered: 0,
            requests_total: 100,
            requests_shed: 7,
            requests_timed_out: 1,
            uptime_secs: 60,
            draining: false,
            workers: 4,
            queue_depth: 64,
            pipeline_p50_us: 128,
            pipeline_p90_us: 1024,
            pipeline_p99_us: 4096,
            traces_sampled: 2,
            slow_queries: 1,
            stages: vec![StageSummary {
                stage: "verify".into(),
                count: 90,
                p50_us: 64,
                p90_us: 256,
                p99_us: 2048,
            }],
            request_stages: vec![StageSummary {
                stage: "render".into(),
                count: 100,
                p50_us: 2,
                p90_us: 4,
                p99_us: 64,
            }],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: StatsResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn traces_response_roundtrips() {
        let t = TracesResponse {
            traces: vec![gc_core::QueryTrace {
                seq: 42,
                request_id: Some("req-7".into()),
                kind: "sub".into(),
                outcome: "pipeline".into(),
                plan: "filter".into(),
                total_us: 900,
                verify_us: 700,
                cm_size: 40,
                to_verify: 12,
                survivors: 9,
                definite: 3,
                answer: 12,
                slow: true,
                ..Default::default()
            }],
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: TracesResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
