//! Pipeline telemetry: the shared log2-microsecond [`Histogram`],
//! per-stage span timers, and sampled per-query [`QueryTrace`] records.
//!
//! Everything on the hot path is a relaxed atomic operation — observing a
//! latency or bumping the trace sequence never takes a lock and never
//! serializes concurrent queries. Trace capture itself (the only part
//! that allocates) runs only for sampled or slow queries, and writes into
//! a fixed-capacity ring whose slots are guarded by `try_lock`: under
//! contention a trace is dropped rather than ever blocking the query.
//!
//! The histogram here is the one implementation shared by the cache
//! pipeline, the server's request-stage metrics, and the load generator's
//! latency reports — one set of bucket math, property-tested once.

use crate::config::CacheConfig;
use crate::report::QueryReport;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of finite histogram buckets: bucket `i` counts observations
/// `< 2^i` µs, so the finite range spans 1 µs .. ~1 s (2^20 µs); larger
/// observations land in the implicit `+Inf` bucket.
pub const BUCKETS: usize = 21;

/// A log2-microsecond latency histogram with atomic buckets.
///
/// Observations are bucketed by `floor(log2(us)) + 1` (0 µs → bucket 0),
/// so any percentile estimated from the buckets is exact to within one
/// power-of-two bucket — the reported bound is never more than 2× the
/// true value's bucket floor. The exact maximum is tracked separately.
/// The sum is kept in nanoseconds, so sub-microsecond observations (a key,
/// an exact hit) still add up instead of each truncating to 0.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    inf: AtomicU64,
    sum_ns: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Record one observation given directly in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.observe_ns(us.saturating_mul(1000));
    }

    fn observe_ns(&self, ns: u64) {
        let us = ns / 1000;
        // Index of the first bucket whose bound 2^i exceeds `us`:
        // us == 0 → bucket 0 (< 1 µs); us in [2^(i-1), 2^i) → bucket i.
        let idx = (u64::BITS - us.leading_zeros()) as usize;
        if idx < BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.inf.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // A plain load almost always settles it: one less locked
        // read-modify-write per observation.
        if us > self.max_us.load(Ordering::Relaxed) {
            self.max_us.fetch_max(us, Ordering::Relaxed);
        }
    }

    /// Total observations — the buckets' total: an observation is two
    /// atomic adds (its bucket, the sum), not three.
    pub fn count(&self) -> u64 {
        let finite: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        finite + self.inf.load(Ordering::Relaxed)
    }

    /// Sum of all observations, whole microseconds (truncated once, from
    /// the nanosecond total).
    pub fn sum_us(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed) / 1000
    }

    /// Largest observation seen, microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counts, for merging and percentile
    /// estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let inf = self.inf.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            inf,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            count: buckets.iter().sum::<u64>() + inf,
            max_us: self.max_us(),
        }
    }

    /// Estimated percentile (0..=100) in microseconds; see
    /// [`HistogramSnapshot::percentile_us`] for the error bound.
    pub fn percentile_us(&self, p: f64) -> u64 {
        self.snapshot().percentile_us(p)
    }

    /// Render Prometheus `_bucket`/`_sum`/`_count` lines for this
    /// histogram under `name`. `labels` is a pre-formatted label list
    /// (e.g. `stage="probe"`) inserted verbatim before the `le` label;
    /// pass `""` for an unlabelled histogram.
    pub fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            let bound = 1u64 << i;
            out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}\n"));
        }
        cumulative += self.inf.load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", self.sum_us()));
        out.push_str(&format!("{name}_count{{{labels}}} {cumulative}\n"));
    }
}

/// A point-in-time copy of a [`Histogram`]'s counts. Snapshots merge
/// (for combining per-thread histograms) and answer percentile queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramSnapshot {
    /// Finite bucket counts (bucket `i` counts observations `< 2^i` µs).
    pub buckets: [u64; BUCKETS],
    /// Observations ≥ 2^20 µs.
    pub inf: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
    /// Largest observation, microseconds.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.inf += other.inf;
        self.sum_ns += other.sum_ns;
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Estimated percentile (0..=100), microseconds.
    ///
    /// Uses nearest-rank over the log2 buckets and reports the *upper
    /// bound* of the rank's bucket (bucket 0 → 0 µs, bucket `i` → 2^i µs,
    /// +Inf → the exact tracked maximum). Because bucket `i` spans
    /// `[2^(i-1), 2^i)`, the estimate is never below the true value and
    /// never more than 2× above it — one bucket of error, by
    /// construction.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen > rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max_us
    }

    /// Mean observation, microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / 1000.0 / self.count as f64
        }
    }
}

/// The pipeline stages the cache times individually, in execution order,
/// then what runs in front of the pipeline: the query's key and the
/// exact-match hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Cache probe: find sub/super hits in the index, snapshot answers.
    Probe,
    /// Bound: fold hit answers into definite answers and an upper bound,
    /// and pick the plan (run the filter, or start from the bound).
    Bound,
    /// Method M filtering: build the candidate set CM. Not observed for
    /// queries on the bounded plan — the stage does not run there.
    Filter,
    /// Prune: reduce the candidate set to the to-verify set.
    Prune,
    /// Verification of surviving candidates (sub-iso tests).
    Verify,
    /// Hit crediting, window admission (or an answer-only row), the sweep.
    Admit,
    /// Query entry until the key the exact tier is routed by is ready: a
    /// hint read by the query's presentation hash when its presentation
    /// was seen before, else its WL fingerprint, computed. Every query.
    Key,
    /// Key done until an exact-match hit is served: `find_exact` under the
    /// read lock (bucket lookup under the routed key, then confirmation),
    /// the answer copy and, for an entry, the same under the write lock
    /// with crediting. When a hint missed and was wrong, it also holds the
    /// fingerprint and the lookup under it. Exact and memo hits only:
    /// `key + exact` is their whole time.
    Exact,
}

impl PipelineStage {
    /// All stages, in pipeline order (a stage's position is its
    /// discriminant, see [`PipelineStage::index`]).
    pub const ALL: [PipelineStage; 8] = [
        PipelineStage::Probe,
        PipelineStage::Bound,
        PipelineStage::Filter,
        PipelineStage::Prune,
        PipelineStage::Verify,
        PipelineStage::Admit,
        PipelineStage::Key,
        PipelineStage::Exact,
    ];

    /// Position in [`PipelineStage::ALL`] and in per-stage arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Prometheus / display label.
    pub fn label(self) -> &'static str {
        match self {
            PipelineStage::Probe => "probe",
            PipelineStage::Bound => "bound",
            PipelineStage::Filter => "filter",
            PipelineStage::Prune => "prune",
            PipelineStage::Verify => "verify",
            PipelineStage::Admit => "admit",
            PipelineStage::Key => "key",
            PipelineStage::Exact => "exact",
        }
    }
}

/// Per-query local stage timings, filled in by [`Span`] timers and
/// [`Telemetry::record`] and carried on the query's
/// [`crate::QueryReport`]. Nanoseconds, like the [`Histogram`] sum, so a
/// trace converts each stage to µs once. Plain `u64`s — no atomics, no
/// allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryTiming {
    /// Nanoseconds spent per stage, indexed by [`PipelineStage::index`].
    pub stage_ns: [u64; PipelineStage::ALL.len()],
}

impl QueryTiming {
    /// Nanoseconds this query spent in `stage` (0 if it never ran).
    pub fn ns(&self, stage: PipelineStage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Whole microseconds this query spent in `stage`.
    pub fn us(&self, stage: PipelineStage) -> u64 {
        self.ns(stage) / 1000
    }
}

/// `d` in nanoseconds, saturated to `u64`.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// RAII span timer: created via [`Telemetry::span`] (or
/// [`Telemetry::mutate_span`]), records its elapsed time into the stage
/// histogram and, for a query stage, the query-local timing slot on drop.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    /// `None` for spans that belong to no query (dataset mutations).
    slot: Option<&'a mut u64>,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.observe(elapsed);
        if let Some(slot) = self.slot.as_deref_mut() {
            *slot += nanos(elapsed);
        }
    }
}

/// One sampled (or slow) query, with enough context to answer "where did
/// this query's time go?" after the fact.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct QueryTrace {
    /// Query sequence number (monotonic per cache instance).
    pub seq: u64,
    /// Request id propagated from the serving edge (`X-Request-Id`), when
    /// the query arrived over HTTP.
    pub request_id: Option<String>,
    /// Query kind: `"sub"` or `"super"`.
    pub kind: String,
    /// How the answer was produced: `"exact"`, `"memo"`, or `"pipeline"`.
    pub outcome: String,
    /// Home shard (always 0 for a one-shard cache).
    pub shard: u32,
    /// Dataset generation the query executed against.
    pub generation: u64,
    /// Which plan the pipeline ran: `"filter"` (Method M's filter built the
    /// candidate set) or `"bounded"` (the hits' upper bound did and the
    /// filter was skipped); empty for `exact`/`memo` outcomes.
    pub plan: String,
    /// End-to-end latency, microseconds.
    pub total_us: u64,
    /// Probe-stage time, microseconds.
    pub probe_us: u64,
    /// Bound-stage time, microseconds.
    pub bound_us: u64,
    /// Filter-stage time, microseconds (0 on the bounded plan).
    pub filter_us: u64,
    /// Prune-stage time, microseconds.
    pub prune_us: u64,
    /// Verify-stage time, microseconds.
    pub verify_us: u64,
    /// Admit-stage time (crediting + admission + replacement sweep),
    /// microseconds.
    pub admit_us: u64,
    /// Key time (entry until the exact tier's key is ready), microseconds.
    pub key_us: u64,
    /// Exact-tier time of an exact or memo hit (key ready until served),
    /// microseconds; 0 on the pipeline.
    pub exact_us: u64,
    /// Method M baseline tests: `|C_M|` out of the filter stage, or its
    /// upper bound on the bounded plan; 0 for `exact`/`memo` outcomes.
    pub cm_size: u64,
    /// Candidates answered definitively by cache hits (no test needed).
    pub definite: u64,
    /// Candidates sent to verification after pruning.
    pub to_verify: u64,
    /// Candidates that survived verification.
    pub survivors: u64,
    /// Final answer size (`definite + survivors` for pipeline queries).
    pub answer: u64,
    /// Sub-iso tests spent probing hit candidates.
    pub probe_tests: u64,
    /// Verifier search steps spent on candidate verification.
    pub verify_steps: u64,
    /// Whether this query exceeded the slow-query threshold.
    pub slow: bool,
}

impl QueryTrace {
    /// The trace of the query `report` records, captured as number `seq`
    /// (with the serving edge's `request_id`) on home `shard`. An exact or
    /// memo hit ran no pipeline stage, so its candidate counts read 0.
    pub(crate) fn of(
        report: &QueryReport,
        seq: u64,
        request_id: Option<&str>,
        shard: u32,
        slow: bool,
    ) -> Self {
        let us = |stage| report.timing.us(stage);
        let ran_pipeline = !(report.exact_hit || report.memo_hit);
        QueryTrace {
            seq,
            request_id: request_id.map(str::to_owned),
            kind: report.kind.as_str().to_owned(),
            outcome: report.tier().to_owned(),
            shard,
            generation: report.generation,
            plan: report.plan().to_owned(),
            total_us: nanos(report.elapsed) / 1000,
            probe_us: us(PipelineStage::Probe),
            bound_us: us(PipelineStage::Bound),
            filter_us: us(PipelineStage::Filter),
            prune_us: us(PipelineStage::Prune),
            verify_us: us(PipelineStage::Verify),
            admit_us: us(PipelineStage::Admit),
            key_us: us(PipelineStage::Key),
            exact_us: us(PipelineStage::Exact),
            cm_size: if ran_pipeline { report.cm_size as u64 } else { 0 },
            definite: report.definite as u64,
            to_verify: report.verified as u64,
            survivors: report.survivors as u64,
            answer: report.answer.count() as u64,
            probe_tests: report.probe_tests,
            verify_steps: report.verify_steps,
            slow,
        }
    }

    /// Sum of the per-stage durations, all eight — compare against
    /// [`total_us`] to check the spans cover the query. The stages are
    /// disjoint spans of it, so the sum never exceeds the total; it falls
    /// short by untimed glue and each stage's truncation to whole µs.
    ///
    /// [`total_us`]: QueryTrace::total_us
    pub fn stage_sum_us(&self) -> u64 {
        self.probe_us
            + self.bound_us
            + self.filter_us
            + self.prune_us
            + self.verify_us
            + self.admit_us
            + self.key_us
            + self.exact_us
    }
}

/// Fixed-capacity trace ring. Slots are individually locked; writers use
/// `try_lock` and drop the trace on contention, so pushing never blocks
/// the query path. Readers (debug endpoints) skim the most recent slots.
#[derive(Debug)]
struct TraceRing {
    slots: Vec<Mutex<Option<QueryTrace>>>,
    cursor: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    fn push(&self, trace: QueryTrace) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        if let Some(mut slot) = self.slots[at].try_lock() {
            *slot = Some(trace);
        }
        // Contended slot: drop the trace. Telemetry never blocks serving.
    }

    /// Most recent `n` traces, newest first.
    fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let len = self.slots.len();
        let head = self.cursor.load(Ordering::Relaxed) as usize;
        let filled = head.min(len);
        let mut out = Vec::with_capacity(n.min(filled));
        // head is the *next* write position, so head-1 holds the newest.
        for back in 1..=filled {
            if out.len() == n {
                break;
            }
            let at = (head - back) % len;
            if let Some(slot) = self.slots[at].try_lock() {
                if let Some(t) = slot.as_ref() {
                    out.push(t.clone());
                }
            }
        }
        out
    }
}

/// The per-cache telemetry hub: stage histograms, the total-latency
/// histogram, the trace sampler, and the slow-query ring.
#[derive(Debug)]
pub struct Telemetry {
    stages: [Histogram; PipelineStage::ALL.len()],
    total: Histogram,
    /// `insert_graph` / `remove_graph`, timed over their write-locked
    /// section. Not a [`PipelineStage`]: a mutation is no part of any
    /// query, so it stays out of the stages that sum to `total`.
    mutate: Histogram,
    /// Sample every `period`-th query (0 = sampling disabled).
    sample_period: u64,
    slow_threshold: Duration,
    seq: AtomicU64,
    sampled_count: AtomicU64,
    slow_count: AtomicU64,
    traces: TraceRing,
    slow: TraceRing,
}

/// Capacity of the sampled-trace ring.
const TRACE_RING_CAPACITY: usize = 256;
/// Capacity of the always-on slow-query ring.
const SLOW_RING_CAPACITY: usize = 64;

impl Telemetry {
    /// Build telemetry from the cache config's sampling knobs.
    pub fn from_config(config: &CacheConfig) -> Self {
        let rate = config.trace_sample_rate;
        let sample_period = if rate > 0.0 { (1.0 / rate).round().max(1.0) as u64 } else { 0 };
        Telemetry {
            stages: Default::default(),
            total: Histogram::default(),
            mutate: Histogram::default(),
            sample_period,
            slow_threshold: config.slow_query_threshold,
            seq: AtomicU64::new(0),
            sampled_count: AtomicU64::new(0),
            slow_count: AtomicU64::new(0),
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            slow: TraceRing::new(SLOW_RING_CAPACITY),
        }
    }

    /// The histogram for one pipeline stage.
    pub fn stage(&self, stage: PipelineStage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// The end-to-end query-latency histogram (every query, all paths).
    pub fn total(&self) -> &Histogram {
        &self.total
    }

    /// The dataset-mutation histogram (one observation per applied
    /// `insert_graph` / `remove_graph`).
    pub fn mutate(&self) -> &Histogram {
        &self.mutate
    }

    /// Every stage histogram with its display label: the pipeline stages
    /// in order, then `mutate`. What `/metrics`, `/stats` and
    /// `gc top` list.
    pub fn labelled_stages(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        PipelineStage::ALL
            .iter()
            .map(|s| s.label())
            .zip(self.stages.iter())
            .chain(std::iter::once(("mutate", &self.mutate)))
    }

    /// Record `elapsed` as the query's time in `stage`: into the stage
    /// histogram and the query-local `timing` slot (what a [`Span`] does
    /// on drop, for a stage timed from instants taken elsewhere).
    pub fn record(&self, stage: PipelineStage, elapsed: Duration, timing: &mut QueryTiming) {
        self.stages[stage.index()].observe(elapsed);
        timing.stage_ns[stage.index()] += nanos(elapsed);
    }

    /// Start an RAII span for `stage`: on drop, the elapsed time lands in
    /// the stage histogram and the query-local `timing` slot.
    pub fn span<'a>(&'a self, stage: PipelineStage, timing: &'a mut QueryTiming) -> Span<'a> {
        Span {
            hist: &self.stages[stage.index()],
            slot: Some(&mut timing.stage_ns[stage.index()]),
            start: Instant::now(),
        }
    }

    /// Start an RAII span around a dataset mutation: on drop, the elapsed
    /// time lands in the [`Telemetry::mutate`] histogram.
    pub fn mutate_span(&self) -> Span<'_> {
        Span { hist: &self.mutate, slot: None, start: Instant::now() }
    }

    /// Claim the next query sequence number (one relaxed `fetch_add`).
    pub fn begin_query(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Finish a query: observe the total latency and, when the query is
    /// sampled or slow, materialize a trace via `build` (which is *not*
    /// called otherwise — the disabled path is pure atomics, zero
    /// allocation). `build` receives whether the query was slow.
    pub fn finish_query(
        &self,
        seq: u64,
        elapsed: Duration,
        build: impl FnOnce(bool) -> QueryTrace,
    ) {
        self.total.observe(elapsed);
        let slow = elapsed >= self.slow_threshold;
        let sampled = self.sample_period != 0 && seq.is_multiple_of(self.sample_period);
        if !slow && !sampled {
            return;
        }
        let trace = build(slow);
        if slow {
            self.slow_count.fetch_add(1, Ordering::Relaxed);
            self.slow.push(trace.clone());
        }
        if sampled {
            self.sampled_count.fetch_add(1, Ordering::Relaxed);
            self.traces.push(trace);
        } else {
            drop(trace);
        }
    }

    /// Number of traces captured by the sampler.
    pub fn sampled_count(&self) -> u64 {
        self.sampled_count.load(Ordering::Relaxed)
    }

    /// Number of queries that exceeded the slow-query threshold.
    pub fn slow_count(&self) -> u64 {
        self.slow_count.load(Ordering::Relaxed)
    }

    /// Most recent `n` sampled traces, newest first.
    pub fn recent_traces(&self, n: usize) -> Vec<QueryTrace> {
        self.traces.recent(n)
    }

    /// Most recent `n` slow-query traces, newest first.
    pub fn recent_slow(&self, n: usize) -> Vec<QueryTrace> {
        self.slow.recent(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn trace(seq: u64) -> QueryTrace {
        QueryTrace {
            seq,
            request_id: None,
            kind: "sub".into(),
            outcome: "pipeline".into(),
            shard: 0,
            generation: 0,
            plan: "filter".into(),
            total_us: 10,
            probe_us: 2,
            bound_us: 0,
            filter_us: 1,
            prune_us: 3,
            verify_us: 4,
            admit_us: 0,
            key_us: 6,
            exact_us: 0,
            cm_size: 5,
            definite: 1,
            to_verify: 3,
            survivors: 2,
            answer: 3,
            probe_tests: 0,
            verify_steps: 7,
            slow: false,
        }
    }

    #[test]
    fn histogram_buckets_observations_by_log2_us() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(0)); // bucket 0 (< 1 µs)
        h.observe(Duration::from_micros(1)); // bucket 1 (< 2 µs)
        h.observe(Duration::from_micros(3)); // bucket 2 (< 4 µs)
        h.observe(Duration::from_secs(10)); // +Inf (> 2^20 µs)
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_us(), 10_000_000);
        let mut out = String::new();
        h.render_prometheus(&mut out, "m", "stage=\"s\"");
        assert!(out.contains("m_bucket{stage=\"s\",le=\"1\"} 1\n"));
        assert!(out.contains("m_bucket{stage=\"s\",le=\"2\"} 2\n"));
        assert!(out.contains("m_bucket{stage=\"s\",le=\"4\"} 3\n"));
        assert!(out.contains("m_bucket{stage=\"s\",le=\"+Inf\"} 4\n"));
        assert!(out.contains("m_count{stage=\"s\"} 4\n"));
    }

    #[test]
    fn sub_microsecond_observations_add_up() {
        // 0.3 µs each: bucket 0, max 0 µs — but 1000 of them are 300 µs,
        // not the 0 a per-observation truncation to whole µs summed to.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(Duration::from_nanos(300));
        }
        assert_eq!(h.sum_us(), 300);
        assert!((h.snapshot().mean_us() - 0.3).abs() < 1e-9);
        assert_eq!((h.snapshot().buckets[0], h.max_us()), (1000, 0));
        let mut out = String::new();
        h.render_prometheus(&mut out, "m", "");
        assert!(out.contains("m_sum{} 300\n"));
    }

    #[test]
    fn unlabelled_render_has_no_stray_comma() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(1));
        let mut out = String::new();
        h.render_prometheus(&mut out, "m", "");
        assert!(out.contains("m_bucket{le=\"2\"} 1\n"));
        assert!(out.contains("m_sum{} 1\n"));
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(Duration::from_micros(100)); // bucket 7 (< 128)
        }
        h.observe(Duration::from_micros(5000)); // bucket 13 (< 8192)
        assert_eq!(h.percentile_us(50.0), 128);
        assert_eq!(h.percentile_us(100.0), 8192);
        // +Inf rank reports the exact max.
        h.observe(Duration::from_secs(30));
        assert_eq!(h.percentile_us(100.0), 30_000_000);
        // Empty histogram → 0.
        assert_eq!(Histogram::default().percentile_us(50.0), 0);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.observe(Duration::from_micros(3));
        b.observe(Duration::from_micros(3));
        b.observe(Duration::from_micros(900));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_ns, 906_000);
        assert!((m.mean_us() - 302.0).abs() < 1e-9);
        assert_eq!(m.max_us, 900);
        assert_eq!(m.buckets[2], 2); // two 3 µs observations
    }

    #[test]
    fn stage_labels_cover_all() {
        let labels: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["probe", "bound", "filter", "prune", "verify", "admit", "key", "exact"]
        );
        for (i, stage) in PipelineStage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "ALL lists the stages in discriminant order");
        }
    }

    #[test]
    fn span_records_into_histogram_and_timing() {
        let config = CacheConfig::default();
        let t = Telemetry::from_config(&config);
        let mut timing = QueryTiming::default();
        {
            let _span = t.span(PipelineStage::Probe, &mut timing);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(t.stage(PipelineStage::Probe).count(), 1);
        assert!(timing.us(PipelineStage::Probe) >= 1_000, "probe slot holds the span time");
        assert_eq!(t.stage(PipelineStage::Filter).count(), 0);
    }

    #[test]
    fn mutate_span_records_outside_the_pipeline_stages() {
        let t = Telemetry::from_config(&CacheConfig::default());
        drop(t.mutate_span());
        assert_eq!(t.mutate().count(), 1);
        assert!(PipelineStage::ALL.iter().all(|&s| t.stage(s).count() == 0));
        let labels: Vec<&str> = t.labelled_stages().map(|(label, _)| label).collect();
        assert_eq!(
            labels,
            ["probe", "bound", "filter", "prune", "verify", "admit", "key", "exact", "mutate"]
        );
        assert_eq!(t.labelled_stages().last().unwrap().1.count(), 1);
    }

    #[test]
    fn sampler_period_derives_from_rate() {
        for (rate, period) in [(0.0, 0), (0.01, 100), (1.0, 1)] {
            let config = CacheConfig { trace_sample_rate: rate, ..CacheConfig::default() };
            assert_eq!(Telemetry::from_config(&config).sample_period, period);
        }
    }

    #[test]
    fn slow_queries_always_captured_even_when_sampling_disabled() {
        let config = CacheConfig {
            trace_sample_rate: 0.0,
            slow_query_threshold: Duration::from_micros(50),
            ..CacheConfig::default()
        };
        let t = Telemetry::from_config(&config);
        let seq = t.begin_query();
        t.finish_query(seq, Duration::from_micros(200), |slow| {
            assert!(slow);
            QueryTrace { slow, ..trace(seq) }
        });
        assert_eq!(t.slow_count(), 1);
        assert_eq!(t.sampled_count(), 0);
        assert_eq!(t.recent_slow(10).len(), 1);
        assert!(t.recent_slow(10)[0].slow);
        assert!(t.recent_traces(10).is_empty());
    }

    #[test]
    fn fast_queries_below_threshold_not_captured_when_disabled() {
        let config = CacheConfig { trace_sample_rate: 0.0, ..CacheConfig::default() };
        let t = Telemetry::from_config(&config);
        for _ in 0..100 {
            let seq = t.begin_query();
            t.finish_query(seq, Duration::from_micros(5), |_| {
                panic!("build must not run for unsampled fast queries")
            });
        }
        assert_eq!(t.total().count(), 100);
        assert_eq!(t.slow_count(), 0);
        assert_eq!(t.sampled_count(), 0);
    }

    #[test]
    fn always_on_sampler_captures_every_query() {
        let config = CacheConfig { trace_sample_rate: 1.0, ..CacheConfig::default() };
        let t = Telemetry::from_config(&config);
        for _ in 0..10 {
            let seq = t.begin_query();
            t.finish_query(seq, Duration::from_micros(5), |slow| QueryTrace { slow, ..trace(seq) });
        }
        assert_eq!(t.sampled_count(), 10);
        let recent = t.recent_traces(100);
        assert_eq!(recent.len(), 10);
        // Newest first.
        assert_eq!(recent[0].seq, 9);
        assert_eq!(recent[9].seq, 0);
    }

    #[test]
    fn trace_ring_overwrites_oldest() {
        let ring = TraceRing::new(4);
        for seq in 0..10 {
            ring.push(trace(seq));
        }
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].seq, 9);
        assert_eq!(recent[3].seq, 6);
    }

    #[test]
    fn trace_ring_recent_respects_n_and_partial_fill() {
        let ring = TraceRing::new(8);
        for seq in 0..3 {
            ring.push(trace(seq));
        }
        let recent = ring.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].seq, 2);
        assert_eq!(recent[1].seq, 1);
        assert_eq!(ring.recent(10).len(), 3);
    }

    #[test]
    fn stage_sum_is_sum_of_stage_fields() {
        let t = trace(0);
        assert_eq!(t.stage_sum_us(), 1 + 2 + 3 + 4 + 6);
        assert_eq!(QueryTrace { exact_us: 5, ..t }.stage_sum_us(), 1 + 2 + 3 + 4 + 6 + 5);
    }

    #[test]
    fn query_trace_roundtrips_through_json() {
        let t = QueryTrace { request_id: Some("req-1".into()), ..trace(42) };
        let json = serde_json::to_string(&t).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn concurrent_observers_conserve_count_and_sum() {
        let h = Arc::new(Histogram::default());
        let threads = 4;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.observe_us(t * per_thread + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), threads * per_thread);
        let expected_sum: u64 = (0..threads * per_thread).sum();
        assert_eq!(h.sum_us(), expected_sum);
        assert_eq!(h.max_us(), threads * per_thread - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Exact powers of two land in the bucket *above* (bucket i spans
        /// [2^(i-1), 2^i), so 2^k goes to bucket k+1).
        #[test]
        fn bucket_index_at_powers_of_two(k in 0u32..20) {
            let h = Histogram::default();
            let us = 1u64 << k;
            h.observe_us(us);
            let snap = h.snapshot();
            let expected = (k + 1) as usize;
            prop_assert_eq!(snap.buckets[expected], 1);
            let total: u64 = snap.buckets.iter().sum();
            prop_assert_eq!(total + snap.inf, 1);
            // One below the power stays in bucket k (for k ≥ 1).
            if k >= 1 {
                let h2 = Histogram::default();
                h2.observe_us(us - 1);
                prop_assert_eq!(h2.snapshot().buckets[k as usize], 1);
            }
        }

        /// Count/sum conservation under parallel writers, and percentile
        /// bounds: estimate ∈ [true_value, 2 × true_value] for single-value
        /// histograms.
        #[test]
        fn concurrent_observe_conserves(values in proptest::collection::vec(0u64..2_000_000, 1..200)) {
            let h = Arc::new(Histogram::default());
            let mid = values.len() / 2;
            let (left, right) = (values[..mid].to_vec(), values[mid..].to_vec());
            let hl = Arc::clone(&h);
            let tl = std::thread::spawn(move || for &v in &left { hl.observe_us(v); });
            for &v in &right { h.observe_us(v); }
            tl.join().unwrap();
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.sum_us(), values.iter().sum::<u64>());
            prop_assert_eq!(h.max_us(), *values.iter().max().unwrap());
            let snap = h.snapshot();
            let bucket_total: u64 = snap.buckets.iter().sum();
            prop_assert_eq!(bucket_total + snap.inf, snap.count);
        }

        /// Percentile estimates stay within one log2 bucket of the true
        /// value: true ≤ estimate ≤ max(2 × true, 1).
        #[test]
        fn percentile_within_one_bucket(v in 0u64..1_000_000) {
            let h = Histogram::default();
            h.observe_us(v);
            let est = h.percentile_us(50.0);
            prop_assert!(est >= v, "estimate {} below true {}", est, v);
            prop_assert!(est <= (2 * v).max(1), "estimate {} above 2x true {}", est, v);
        }
    }
}
