//! Dashboard Manager: the End-User Monitor and Developer Monitor.
//!
//! The paper's Dashboard Manager (Fig. 1) serves two audiences: end-users
//! get digested performance panels (Sub-Iso Testing, Query Time, Cache
//! Replacement); developers get introspection into the cache's internals.
//! Both render here as plain text from a live [`SharedGraphCache`].

use crate::ascii;
use gc_core::{GlobalStats, SharedGraphCache};

/// Deployment facts the End-User Monitor renders alongside the
/// statistics — extracted so the panel can also be drawn for a served
/// cache whose stats carry the serving gauges.
#[derive(Debug, Clone)]
pub struct DeploymentInfo {
    /// Base method name.
    pub method: String,
    /// Replacement policy name.
    pub policy: &'static str,
    /// Live cached entries.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Admission window size.
    pub window_size: usize,
    /// Cache memory footprint, bytes.
    pub memory_bytes: usize,
}

impl DeploymentInfo {
    /// Deployment facts of a cache.
    pub fn of(gc: &SharedGraphCache) -> Self {
        DeploymentInfo {
            method: gc.method_name(),
            policy: gc.policy_name(),
            entries: gc.len(),
            capacity: gc.config().capacity,
            window_size: gc.config().window_size,
            memory_bytes: gc.memory_bytes(),
        }
    }
}

/// End-User Monitor: the three Demonstrator panels (paper §2) — sub-iso
/// testing, query time, and cache replacement — from the cache's global
/// statistics.
pub fn end_user_monitor(gc: &SharedGraphCache) -> String {
    render_end_user_monitor(&DeploymentInfo::of(gc), &gc.stats())
}

/// [`end_user_monitor`] for any stats snapshot: a served cache passes
/// stats with the serving gauges populated (see `gc_server`), which
/// lights up the serving line of the `[Index Health]` panel.
pub fn render_end_user_monitor(info: &DeploymentInfo, s: &GlobalStats) -> String {
    let mut out = String::new();
    out.push_str("=== End-User Monitor ===\n");
    out.push_str(&format!(
        "deployment: method {}, policy {}, {} / {} cache entries\n\n",
        info.method, info.policy, info.entries, info.capacity
    ));
    out.push_str("[Sub-Iso Testing]\n");
    out.push_str(&format!("  queries processed      : {}\n", s.queries));
    out.push_str(&format!(
        "  tests executed         : {} against data graphs, {} probing the cache\n",
        s.tests_executed, s.probe_tests
    ));
    out.push_str(&format!("  tests saved            : {}\n", s.tests_saved));
    out.push_str(&format!("  avg tests per query    : {:.2}\n\n", s.avg_tests_per_query()));
    out.push_str("[Query Time]\n");
    out.push_str(&format!(
        "  total / avg            : {:.1} ms / {:.3} ms\n\n",
        s.total_time.as_secs_f64() * 1e3,
        s.avg_time_per_query().as_secs_f64() * 1e3
    ));
    out.push_str("[Cache Replacement]\n");
    out.push_str(&format!(
        "  hit ratio              : {:.1}% ({} exact, {} sub-case, {} super-case hits)\n",
        100.0 * s.hit_ratio(),
        s.exact_hits,
        s.sub_hits,
        s.super_hits
    ));
    out.push_str(&format!(
        "  admitted / evicted     : {} / {} (window {}, {} rejected by admission)\n",
        s.admitted, s.evicted, info.window_size, s.admission_rejected
    ));
    out.push_str(&format!("  cache memory           : {} KiB\n\n", info.memory_bytes / 1024));
    out.push_str("[Index Health]\n");
    out.push_str(&format!("  distinct features      : {}\n", s.distinct_features));
    out.push_str(&format!(
        "  tombstoned slots       : {} ({:.1}% of directory; compacted lazily)\n",
        s.tombstoned_slots,
        100.0 * s.tombstone_ratio()
    ));
    out.push_str(&format!(
        "  kernel dispatch        : {} (bitset/merge hot loops)\n",
        s.kernel_dispatch
    ));
    out.push_str(&format!(
        "  pipeline latency       : p50 {} us, p99 {} us ({} traces sampled, {} slow)\n",
        s.pipeline_p50_us, s.pipeline_p99_us, s.traces_sampled, s.slow_queries
    ));
    if s.persist_health.is_empty() {
        out.push_str("  persistence            : detached (memory-only)\n");
    } else {
        out.push_str(&format!(
            "  persistence            : {} ({} persist errors, {} records buffered)\n",
            s.persist_health, s.persist_errors, s.journal_records_buffered
        ));
    }
    // Serving gauges are populated only when the stats come from a
    // `gc-server` front-end snapshot; a cache that is not being served
    // says so rather than rendering misleading zeros.
    if s.requests_total > 0 || s.uptime_secs > 0 {
        out.push_str(&format!(
            "  serving                : {} requests ({} shed, {} timed out), up {}s\n",
            s.requests_total, s.requests_shed, s.requests_timed_out, s.uptime_secs
        ));
    } else {
        out.push_str("  serving                : not serving (start with `gc serve`)\n");
    }
    out
}

/// Developer Monitor: per-entry utility table (the data the replacement
/// policies rank by), top `limit` entries by total hits.
pub fn developer_monitor(gc: &SharedGraphCache, limit: usize) -> String {
    let mut entries: Vec<(u64, Vec<String>)> = Vec::new();
    gc.for_each_shard(|_, cm| {
        entries.extend(cm.iter().map(|e| {
            let row = vec![
                e.id.to_string(),
                e.kind.to_string(),
                format!("{}v/{}e", e.graph.vertex_count(), e.graph.edge_count()),
                e.answer().count().to_string(),
                e.stats.exact_hits.to_string(),
                e.stats.sub_hits.to_string(),
                e.stats.super_hits.to_string(),
                e.stats.tests_saved.to_string(),
                format!("{:.0}", e.stats.cost_saved),
                e.stats.last_used.to_string(),
            ];
            (e.stats.total_hits(), row)
        }));
    });
    entries.sort_by_key(|(hits, _)| std::cmp::Reverse(*hits));
    let rows: Vec<Vec<String>> = entries.into_iter().take(limit).map(|(_, row)| row).collect();
    let mut out = String::new();
    out.push_str("=== Developer Monitor: cached entries by utility ===\n");
    out.push_str(&ascii::table(
        &[
            "id",
            "kind",
            "size",
            "|A|",
            "exact",
            "sub",
            "super",
            "tests_saved",
            "cost_saved",
            "last_used",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "({} of {} entries shown; extend gc_core::ReplacementPolicy to rank them differently)\n",
        rows.len(),
        gc.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_core::{CacheConfig, PolicyKind};
    use gc_method::{Dataset, QueryKind, SiMethod};
    use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
    use std::sync::Arc;

    fn warmed() -> SharedGraphCache {
        let dataset = Arc::new(Dataset::new(molecule_dataset(15, 21)));
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig { capacity: 8, window_size: 2, shards: 1, ..CacheConfig::default() },
        )
        .unwrap();
        let spec = WorkloadSpec {
            n_queries: 30,
            pool_size: 10,
            kind: WorkloadKind::Zipf { skew: 1.2 },
            seed: 4,
            ..WorkloadSpec::default()
        };
        for wq in &Workload::generate(dataset.graphs(), &spec).queries {
            gc.query(&wq.graph, QueryKind::Subgraph);
        }
        gc
    }

    #[test]
    fn end_user_panels_present() {
        let gc = warmed();
        let txt = end_user_monitor(&gc);
        for section in
            ["[Sub-Iso Testing]", "[Query Time]", "[Cache Replacement]", "[Index Health]"]
        {
            assert!(txt.contains(section), "missing {section}");
        }
        assert!(txt.contains("hit ratio"));
        assert!(txt.contains("distinct features"));
        assert!(txt.contains("tombstoned slots"));
        // No store attached in this fixture: the persistence gauge says so
        // instead of rendering an empty health string.
        assert!(txt.contains("persistence            : detached"), "{txt}");
        // The dispatch gauge must render a concrete tier, never the
        // delta-default empty string.
        assert!(
            txt.contains("kernel dispatch        : avx2")
                || txt.contains("kernel dispatch        : scalar"),
            "{txt}"
        );
        // Not served: the serving gauge line says so.
        assert!(txt.contains("serving                : not serving"), "{txt}");
        // Telemetry gauges: a warmed cache has pipeline percentiles.
        assert!(txt.contains("pipeline latency       : p50 "), "{txt}");
    }

    #[test]
    fn pipeline_latency_line_renders_telemetry_gauges() {
        let gc = warmed();
        let mut s = gc.stats();
        s.pipeline_p50_us = 128;
        s.pipeline_p99_us = 4096;
        s.traces_sampled = 3;
        s.slow_queries = 1;
        let txt = render_end_user_monitor(&DeploymentInfo::of(&gc), &s);
        assert!(
            txt.contains(
                "pipeline latency       : p50 128 us, p99 4096 us (3 traces sampled, 1 slow)"
            ),
            "{txt}"
        );
    }

    #[test]
    fn serving_gauges_render_when_populated() {
        let gc = warmed();
        let mut s = gc.stats();
        s.requests_total = 120;
        s.requests_shed = 7;
        s.requests_timed_out = 2;
        s.uptime_secs = 33;
        let txt = render_end_user_monitor(&DeploymentInfo::of(&gc), &s);
        assert!(
            txt.contains("serving                : 120 requests (7 shed, 2 timed out), up 33s"),
            "{txt}"
        );
    }

    #[test]
    fn persistence_gauge_renders_health_when_attached() {
        let mut gc = warmed();
        let dir = std::env::temp_dir().join(format!("gc_dashboard_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(gc_core::CacheStore::open(&dir).unwrap());
        gc.attach_store(store).unwrap();
        let txt = end_user_monitor(&gc);
        assert!(txt.contains("persistence            : healthy"), "{txt}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_health_gauges_track_the_live_index() {
        let gc = warmed();
        let s = gc.stats();
        let h = gc.index_health();
        assert_eq!(s.distinct_features, h.distinct_features as u64);
        assert_eq!(s.tombstoned_slots, h.tombstoned_slots as u64);
        assert!(h.distinct_features > 0, "a warmed cache indexes features");
    }

    #[test]
    fn developer_table_lists_entries() {
        let gc = warmed();
        let txt = developer_monitor(&gc, 5);
        assert!(txt.contains("tests_saved"));
        // Table rows bounded by limit.
        let data_lines =
            txt.lines().filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit())).count();
        assert!(data_lines <= 5);
        assert!(data_lines >= 1);
    }
}
