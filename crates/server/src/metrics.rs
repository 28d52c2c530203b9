//! Server-side metrics: lock-free counters and per-stage latency
//! histograms, rendered as Prometheus text exposition.
//!
//! Mirrors the accounting philosophy of the cache's Statistics Monitor
//! (the [`gc_core::GlobalStats`] counters): every observation is a relaxed
//! `fetch_add`, so metrics never serialize the request path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Request-lifecycle stages the server times individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accept → worker pickup (admission-queue wait).
    Queue,
    /// First byte → complete parsed request (includes socket reads).
    Parse,
    /// Cache pipeline execution (`SharedGraphCache::query_traced`) alone.
    Execute,
    /// Everything a `/query` costs around the execution: decoding the t/v/e
    /// body into a graph, and writing the reply into the connection's
    /// output buffer. With the other four stages it adds up to the
    /// server-side service time of a `/query` request.
    Render,
    /// Writing the response bytes to the socket.
    Write,
}

impl Stage {
    /// All stages, in lifecycle order.
    pub const ALL: [Stage; 5] =
        [Stage::Queue, Stage::Parse, Stage::Execute, Stage::Render, Stage::Write];

    /// Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::Execute => "execute",
            Stage::Render => "render",
            Stage::Write => "write",
        }
    }
}

/// The log2-microsecond latency histogram, shared with the cache pipeline.
///
/// The server timed its request stages with a private histogram until the
/// cache grew per-stage telemetry; both now use the single property-tested
/// implementation in [`gc_core::telemetry`].
pub use gc_core::telemetry::Histogram;

/// The serving counters dashboards show for a served cache, read from
/// [`ServerMetrics`] at one instant.
#[derive(Debug, Clone, Copy)]
pub struct ServingStats {
    /// HTTP requests parsed and routed.
    pub requests_total: u64,
    /// Requests shed under overload (both shed points, see
    /// [`ServerMetrics::total_shed`]).
    pub requests_shed: u64,
    /// Requests that exceeded a deadline.
    pub requests_timed_out: u64,
    /// Seconds since the server started.
    pub uptime_secs: u64,
}

/// All server-side counters and histograms, shared across workers.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Server start time (uptime gauge base).
    started: Instant,
    /// Connections accepted into the admission queue.
    pub connections_accepted: AtomicU64,
    /// Connections shed at the accept loop (queue full → `503`).
    pub connections_shed: AtomicU64,
    /// HTTP requests fully parsed and routed (any endpoint, any status).
    pub requests_total: AtomicU64,
    /// Requests shed after admission (queued past their deadline → `503`).
    pub requests_shed: AtomicU64,
    /// Requests that hit a deadline: expired before execution (`504`),
    /// stalled mid-read (`408`), or completed past their deadline (served,
    /// but counted here so operators see deadline pressure).
    pub requests_timed_out: AtomicU64,
    /// Protocol errors (malformed requests, oversized heads/bodies).
    pub parse_errors: AtomicU64,
    /// Per-stage latency histograms, indexed by `stage as usize` (the
    /// enum's declaration order is [`Stage::ALL`]'s).
    stages: [Histogram; Stage::ALL.len()],
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh metrics; uptime starts now.
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            connections_accepted: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            requests_timed_out: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            stages: Default::default(),
        }
    }

    /// Record a stage latency.
    pub fn observe(&self, stage: Stage, d: Duration) {
        self.stage(stage).observe(d);
    }

    /// The histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The serving counters, now.
    pub fn serving(&self) -> ServingStats {
        ServingStats {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            requests_shed: self.total_shed(),
            requests_timed_out: self.requests_timed_out.load(Ordering::Relaxed),
            uptime_secs: self.uptime_secs(),
        }
    }

    /// Shed total across both shed points (accept-loop and queue-expiry) —
    /// the number operators alert on.
    pub fn total_shed(&self) -> u64 {
        self.connections_shed.load(Ordering::Relaxed) + self.requests_shed.load(Ordering::Relaxed)
    }

    /// Render the full Prometheus text exposition: server counters, stage
    /// histograms, cache pipeline telemetry, the cache-level counters from
    /// `cache_stats`, and the cache's `entries` and `persist_errors` gauges.
    pub fn render_prometheus(
        &self,
        cache_stats: &gc_core::GlobalStats,
        entries: usize,
        telemetry: &gc_core::Telemetry,
        persist_errors: u64,
    ) -> String {
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"));
        };

        gauge(&mut out, "gc_uptime_seconds", "Seconds since server start.", self.uptime_secs());
        counter(
            &mut out,
            "gc_connections_accepted_total",
            "Connections admitted to the worker queue.",
            self.connections_accepted.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gc_requests_total",
            "HTTP requests parsed and routed.",
            self.requests_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gc_requests_shed_total",
            "Requests shed under overload (accept-loop 503s plus queue-deadline 503s).",
            self.total_shed(),
        );
        counter(
            &mut out,
            "gc_requests_timed_out_total",
            "Requests that exceeded a deadline (504/408 or served late).",
            self.requests_timed_out.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gc_parse_errors_total",
            "Malformed or over-limit requests rejected by the HTTP parser.",
            self.parse_errors.load(Ordering::Relaxed),
        );

        out.push_str(concat!(
            "# HELP gc_request_stage_microseconds Request latency by lifecycle stage.\n",
            "# TYPE gc_request_stage_microseconds histogram\n"
        ));
        for stage in Stage::ALL {
            self.stage(stage).render_prometheus(
                &mut out,
                "gc_request_stage_microseconds",
                &format!("stage=\"{}\"", stage.label()),
            );
        }

        // Cache pipeline telemetry: per-stage spans (the query stages plus
        // dataset mutations) and the end-to-end query histogram with its
        // bucket-estimated percentiles.
        out.push_str(concat!(
            "# HELP gc_pipeline_stage_microseconds Cache pipeline latency by stage.\n",
            "# TYPE gc_pipeline_stage_microseconds histogram\n"
        ));
        for (label, hist) in telemetry.labelled_stages() {
            hist.render_prometheus(
                &mut out,
                "gc_pipeline_stage_microseconds",
                &format!("stage=\"{label}\""),
            );
        }
        out.push_str(concat!(
            "# HELP gc_query_microseconds End-to-end cache query latency.\n",
            "# TYPE gc_query_microseconds histogram\n"
        ));
        telemetry.total().render_prometheus(&mut out, "gc_query_microseconds", "");
        for (p, name) in [(50.0, "gc_query_p50_microseconds"), (99.0, "gc_query_p99_microseconds")]
        {
            gauge(
                &mut out,
                name,
                "Bucket-estimated query latency percentile (upper bound, \
                 within one log2 bucket of the true value).",
                telemetry.total().percentile_us(p),
            );
        }
        counter(
            &mut out,
            "gc_traces_sampled_total",
            "Query traces captured by the sampler.",
            telemetry.sampled_count(),
        );
        counter(
            &mut out,
            "gc_slow_queries_total",
            "Queries over the slow-query threshold (always traced).",
            telemetry.slow_count(),
        );

        // Cache-level counters (the Statistics Monitor, exported).
        counter(&mut out, "gc_cache_queries_total", "Queries processed.", cache_stats.queries);
        counter(
            &mut out,
            "gc_cache_hit_queries_total",
            "Queries with at least one cache hit.",
            cache_stats.hit_queries,
        );
        counter(&mut out, "gc_cache_exact_hits_total", "Exact-match hits.", cache_stats.exact_hits);
        counter(
            &mut out,
            "gc_exact_confirm_iso_total",
            "Exact/memo hits confirmed by isomorphism search, not by an equal presentation.",
            cache_stats.exact_confirm_iso,
        );
        counter(
            &mut out,
            "gc_cache_tests_executed_total",
            "Sub-iso tests against dataset graphs.",
            cache_stats.tests_executed,
        );
        counter(
            &mut out,
            "gc_cache_tests_saved_total",
            "Sub-iso tests saved vs Method M alone.",
            cache_stats.tests_saved,
        );
        counter(
            &mut out,
            "gc_filter_skipped_total",
            "Pipeline queries whose cache hits fenced the answer, so Method M's filter was skipped.",
            cache_stats.filter_skipped,
        );
        counter(&mut out, "gc_cache_admitted_total", "Entries admitted.", cache_stats.admitted);
        counter(&mut out, "gc_cache_evicted_total", "Entries evicted.", cache_stats.evicted);
        gauge(&mut out, "gc_cache_entries", "Live cached entries.", entries as u64);
        gauge(
            &mut out,
            "gc_cache_persist_errors",
            "Failed persistence operations since attach.",
            persist_errors,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations_by_log2_us() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(0)); // bucket 0 (< 1 µs)
        h.observe(Duration::from_micros(1)); // bucket 1 (< 2 µs)
        h.observe(Duration::from_micros(3)); // bucket 2 (< 4 µs)
        h.observe(Duration::from_secs(10)); // +Inf (> 2^20 µs)
        assert_eq!(h.count(), 4);
        let mut out = String::new();
        h.render_prometheus(&mut out, "m", "stage=\"s\"");
        assert!(out.contains("m_bucket{stage=\"s\",le=\"1\"} 1\n"));
        assert!(out.contains("m_bucket{stage=\"s\",le=\"2\"} 2\n"));
        assert!(out.contains("m_bucket{stage=\"s\",le=\"4\"} 3\n"));
        assert!(out.contains("m_bucket{stage=\"s\",le=\"+Inf\"} 4\n"));
        assert!(out.contains("m_count{stage=\"s\"} 4\n"));
    }

    #[test]
    fn bucket_bounds_are_cumulative() {
        let h = Histogram::default();
        for us in [1u64, 2, 4, 8, 16, 1000, 100_000] {
            h.observe(Duration::from_micros(us));
        }
        let mut out = String::new();
        h.render_prometheus(&mut out, "m", "stage=\"s\"");
        // The +Inf bucket equals the total count.
        assert!(out.contains(&format!("le=\"+Inf\"}} {}\n", h.count())));
        assert_eq!(h.sum_us(), 101_031);
    }

    #[test]
    fn prometheus_exposition_contains_all_families() {
        let m = ServerMetrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.connections_shed.fetch_add(1, Ordering::Relaxed);
        m.requests_shed.fetch_add(1, Ordering::Relaxed);
        m.observe(Stage::Execute, Duration::from_micros(42));
        let stats = gc_core::GlobalStats { queries: 3, filter_skipped: 2, ..Default::default() };
        let telemetry = gc_core::Telemetry::from_config(&gc_core::CacheConfig::default());
        let text = m.render_prometheus(&stats, 7, &telemetry, 4);
        assert!(text.contains("gc_requests_total 3\n"));
        assert!(text.contains("gc_requests_shed_total 2\n"), "both shed points sum");
        assert!(text.contains("stage=\"execute\""));
        assert!(text.contains("gc_request_stage_microseconds_count{stage=\"render\"} 0\n"));
        assert!(text.contains("gc_cache_queries_total 3\n"));
        assert!(text.contains("gc_filter_skipped_total 2\n"));
        assert!(text.contains("gc_cache_entries 7\n"));
        assert!(text.contains("gc_cache_persist_errors 4\n"));
        assert!(text.contains("# TYPE gc_request_stage_microseconds histogram\n"));
    }

    #[test]
    fn prometheus_exposition_contains_pipeline_telemetry() {
        let m = ServerMetrics::new();
        let telemetry = gc_core::Telemetry::from_config(&gc_core::CacheConfig::default());
        let seq = telemetry.begin_query();
        let mut timing = gc_core::QueryTiming::default();
        {
            let _span = telemetry.span(gc_core::PipelineStage::Verify, &mut timing);
        }
        drop(telemetry.mutate_span());
        telemetry.finish_query(seq, Duration::from_micros(900), |slow| gc_core::QueryTrace {
            slow,
            ..Default::default()
        });
        let stats = gc_core::GlobalStats::default();
        let text = m.render_prometheus(&stats, 0, &telemetry, 0);
        assert!(text.contains("# TYPE gc_pipeline_stage_microseconds histogram\n"));
        assert!(text.contains("gc_pipeline_stage_microseconds_count{stage=\"verify\"} 1\n"));
        assert!(text.contains("gc_pipeline_stage_microseconds_count{stage=\"filter\"} 0\n"));
        assert!(text.contains("gc_pipeline_stage_microseconds_count{stage=\"bound\"} 0\n"));
        assert!(text.contains("gc_pipeline_stage_microseconds_count{stage=\"mutate\"} 1\n"));
        assert!(text.contains("# TYPE gc_query_microseconds histogram\n"));
        assert!(text.contains("gc_query_microseconds_count{} 1\n"));
        assert!(text.contains("# TYPE gc_query_p50_microseconds gauge\n"));
        assert!(text.contains("# TYPE gc_query_p99_microseconds gauge\n"));
        // 900 µs lands in the (512, 1024] bucket; the estimate reports the
        // upper bound.
        assert!(text.contains("gc_query_p50_microseconds 1024\n"));
        assert!(text.contains("gc_traces_sampled_total 1\n"), "seq 0 sampled at default rate");
        assert!(text.contains("gc_slow_queries_total 0\n"));
    }
}
