//! Dashboard Manager: the End-User Monitor and Developer Monitor.
//!
//! The paper's Dashboard Manager (Fig. 1) serves two audiences: end-users
//! get digested performance panels (Sub-Iso Testing, Query Time, Cache
//! Replacement); developers get introspection into the cache's internals.
//! Both render here as plain text from a live [`SharedGraphCache`].

use crate::ascii;
use gc_core::SharedGraphCache;
use gc_server::ServingStats;

/// End-User Monitor: the three Demonstrator panels (paper §2) — sub-iso
/// testing, query time, and cache replacement — from the cache's counters,
/// then the `[Index Health]` gauges read from their owners.
pub fn end_user_monitor(gc: &SharedGraphCache) -> String {
    render_end_user_monitor(gc, None)
}

/// [`end_user_monitor`] for a served cache: `serving` (the server's own
/// counters, see `gc_server::Server::serving_stats`) lights up the serving
/// line of the `[Index Health]` panel.
pub fn render_end_user_monitor(gc: &SharedGraphCache, serving: Option<&ServingStats>) -> String {
    let s = gc.stats();
    let mut out = String::new();
    out.push_str("=== End-User Monitor ===\n");
    out.push_str(&format!(
        "deployment: method {}, policy {}, {} / {} cache entries\n\n",
        gc.method_name(),
        gc.policy_name(),
        gc.len(),
        gc.config().capacity
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
        s.admitted,
        s.evicted,
        gc.config().window_size,
        s.admission_rejected
    ));
    out.push_str(&format!("  cache memory           : {} KiB\n\n", gc.memory_bytes() / 1024));
    out.push_str("[Index Health]\n");
    let index = gc.index_health();
    out.push_str(&format!("  distinct features      : {}\n", index.distinct_features));
    out.push_str(&format!(
        "  tombstoned slots       : {} ({:.1}% of directory; compacted lazily)\n",
        index.tombstoned_slots,
        100.0 * index.tombstone_ratio()
    ));
    out.push_str(&format!(
        "  kernel dispatch        : {} (bitset/merge hot loops)\n",
        gc_graph::simd::kernel_name()
    ));
    let t = gc.telemetry();
    out.push_str(&format!(
        "  pipeline latency       : p50 {} us, p99 {} us ({} traces sampled, {} slow)\n",
        t.total().percentile_us(50.0),
        t.total().percentile_us(99.0),
        t.sampled_count(),
        t.slow_count()
    ));
    match gc.persist_health() {
        None => out.push_str("  persistence            : detached (memory-only)\n"),
        Some((health, errors, buffered)) => out.push_str(&format!(
            "  persistence            : {} ({errors} persist errors, {buffered} records buffered)\n",
            health.as_str()
        )),
    }
    // A cache that is not being served says so rather than rendering
    // misleading zeros.
    match serving {
        Some(v) => out.push_str(&format!(
            "  serving                : {} requests ({} shed, {} timed out), up {}s\n",
            v.requests_total, v.requests_shed, v.requests_timed_out, v.uptime_secs
        )),
        None => out.push_str("  serving                : not serving (start with `gc serve`)\n"),
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
        let dataset = Arc::new(Dataset::new(molecule_dataset(3, 21)));
        let config = CacheConfig {
            trace_sample_rate: 1.0,
            slow_query_threshold: std::time::Duration::from_millis(1),
            ..CacheConfig::default()
        };
        let gc = SharedGraphCache::with_policy(dataset, Box::new(SiMethod), PolicyKind::Hd, config)
            .unwrap();
        // Three queries observed straight into the cache's telemetry hub:
        // p50 lands in the (64, 128] µs bucket, p99 in (2048, 4096].
        let t = gc.telemetry();
        for us in [100, 100, 4000] {
            let seq = t.begin_query();
            t.finish_query(seq, std::time::Duration::from_micros(us), |slow| gc_core::QueryTrace {
                slow,
                ..Default::default()
            });
        }
        let txt = end_user_monitor(&gc);
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
        let serving = ServingStats {
            requests_total: 120,
            requests_shed: 7,
            requests_timed_out: 2,
            uptime_secs: 33,
        };
        let txt = render_end_user_monitor(&gc, Some(&serving));
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
        let txt = end_user_monitor(&gc);
        let h = gc.index_health();
        assert!(txt.contains(&format!("distinct features      : {}\n", h.distinct_features)));
        assert!(txt.contains(&format!("tombstoned slots       : {} (", h.tombstoned_slots)));
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
