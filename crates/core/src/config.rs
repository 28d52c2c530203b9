//! Cache configuration.

use crate::shared::LOCAL_BITS;
use gc_store::FsyncPolicy;

/// Tunables of a [`crate::SharedGraphCache`] instance.
///
/// Defaults follow the demo deployment (paper §3: cache of 50 executed
/// queries, window batches of 10) with budgets sized so cache probing can
/// never dominate query time. What no deployment varies is a constant, not
/// a field: the per-test probe step budget
/// ([`crate::pipeline::probe::PROBE_BUDGET`]), the 1 024 answer-only rows,
/// the query index's `FeatureConfig::default()` and its maintenance
/// thresholds ([`gc_index::COMPACT_TOMBSTONE_PCT`]).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of cached queries.
    pub capacity: usize,
    /// Admission window size: executed queries are buffered and admitted in
    /// batches of this many (Window Manager).
    pub window_size: usize,
    /// Maximum hit candidates to *verify* per query in each direction: at
    /// most this many sub-case and this many super-case tests.
    pub max_hit_checks: usize,
    /// Admission filter: only cache queries whose execution performed at
    /// least this many sub-iso tests (cheap queries cannot repay their cache
    /// slot).
    pub min_admit_tests: usize,
    /// Optional byte budget for the cache (entries + index). When set,
    /// replacement sweeps also evict until the footprint fits — the memory
    /// side of the kernel's "resource management (memory and threads)". The
    /// entry-count `capacity` still applies independently.
    pub max_bytes: Option<usize>,
    /// Shard count: cache state is split into this many
    /// independently-locked shards (queries are routed by graph
    /// fingerprint). More shards → less write contention, a few more
    /// shard probes per query; one shard makes entry ids, hits and
    /// evictions independent of routing. Must be in `1..=256`.
    pub shards: usize,
    /// Persistence: automatically write a snapshot (and rotate the
    /// journal) after this many admissions, when a
    /// [`gc_store::CacheStore`] is attached. Entries reach disk only
    /// through snapshots, so this bounds the warmth a crash loses: at most
    /// this many admissions. The admission that crosses the interval cuts
    /// the snapshot; a failed one resets the count too, so a dead disk is
    /// retried once per interval. `None` disables the admission-count
    /// trigger (snapshots then happen only on explicit
    /// [`crate::SharedGraphCache::snapshot_now`] /
    /// [`crate::SharedGraphCache::snapshot_to`] calls, the journal-size
    /// trigger, or to catch up after a failed delta append). Must be > 0
    /// when set.
    pub snapshot_interval: Option<u64>,
    /// Persistence: automatically snapshot once the journal's dataset
    /// deltas exceed this many bytes, bounding both delta replay time and
    /// the disk footprint between snapshots. Checked by each mutation
    /// after its append, the only thing that grows the journal. `None`
    /// disables the size trigger. Must be > 0 when set.
    pub journal_max_bytes: Option<u64>,
    /// Persistence: group-commit fsync policy applied to journal appends
    /// (dataset deltas) when a store is attached (see [`FsyncPolicy`] for
    /// the bounded-loss guarantee of each variant, counted in delta
    /// records). `EveryN`/`IntervalMs` arguments must be > 0.
    pub fsync_policy: FsyncPolicy,
    /// Telemetry: fraction of queries whose full [`crate::QueryTrace`] is
    /// captured into the trace ring (rounded to an every-Nth-query
    /// sampler). 0 disables sampling entirely — the query path then does
    /// no trace allocation at all. Must be in `0.0..=1.0` and finite.
    pub trace_sample_rate: f64,
    /// Telemetry: queries at least this slow are *always* traced into the
    /// separate slow-query ring, regardless of `trace_sample_rate`.
    pub slow_query_threshold: std::time::Duration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 50,
            window_size: 10,
            max_hit_checks: 64,
            min_admit_tests: 1,
            max_bytes: None,
            shards: 8,
            snapshot_interval: None,
            journal_max_bytes: None,
            fsync_policy: FsyncPolicy::Never,
            trace_sample_rate: 0.01,
            slow_query_threshold: std::time::Duration::from_millis(100),
        }
    }
}

impl CacheConfig {
    /// Config with the given entry capacity, other knobs at defaults.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig { capacity, ..Default::default() }
    }

    /// Validate invariants (positive capacity and window, nonzero budgets,
    /// shard-local entry ids that fit their encoding).
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("capacity must be > 0".into());
        }
        if self.window_size == 0 {
            return Err("window_size must be > 0".into());
        }
        if self.max_bytes == Some(0) {
            return Err("max_bytes must be > 0 when set".into());
        }
        if self.shards == 0 || self.shards > 256 {
            return Err("shards must be in 1..=256".into());
        }
        // A shard's slab peaks at its capacity share plus one window of
        // admissions before the sweep; each slot's id must fit the
        // shard-local bits of an encoded entry id.
        let local_ids = 1usize << LOCAL_BITS;
        if self.capacity.div_ceil(self.shards).saturating_add(self.window_size) > local_ids {
            return Err(format!(
                "capacity / shards + window_size must be <= {local_ids} \
                 (shard-local entry ids are {LOCAL_BITS} bits)"
            ));
        }
        if self.snapshot_interval == Some(0) {
            return Err("snapshot_interval must be > 0 when set".into());
        }
        if self.journal_max_bytes == Some(0) {
            return Err("journal_max_bytes must be > 0 when set".into());
        }
        match self.fsync_policy {
            FsyncPolicy::EveryN(0) => return Err("fsync_policy EveryN(n) needs n > 0".into()),
            FsyncPolicy::IntervalMs(0) => {
                return Err("fsync_policy IntervalMs(ms) needs ms > 0".into())
            }
            _ => {}
        }
        if !self.trace_sample_rate.is_finite() || !(0.0..=1.0).contains(&self.trace_sample_rate) {
            return Err("trace_sample_rate must be finite and in 0.0..=1.0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(CacheConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CacheConfig { capacity: 0, ..CacheConfig::default() }.validate().is_err());
        assert!(CacheConfig { window_size: 0, ..CacheConfig::default() }.validate().is_err());
        assert!(CacheConfig { shards: 0, ..CacheConfig::default() }.validate().is_err());
        assert!(CacheConfig { shards: 257, ..CacheConfig::default() }.validate().is_err());
        assert!(CacheConfig { shards: 256, ..CacheConfig::default() }.validate().is_ok());
        // Shard-local entry ids are 24 bits: one shard's capacity share plus
        // its window must fit.
        let ids = 1 << LOCAL_BITS;
        let one_shard = |capacity, window_size| CacheConfig {
            capacity,
            window_size,
            shards: 1,
            ..CacheConfig::default()
        };
        let err = one_shard(20_000_000, 10).validate().unwrap_err();
        assert!(err.contains(&ids.to_string()), "{err}");
        assert!(one_shard(ids - 10, 10).validate().is_ok());
        assert!(one_shard(ids - 9, 10).validate().is_err());
        assert!(one_shard(ids, 1).validate().is_err());
        assert!(CacheConfig { capacity: 20_000_000, shards: 2, ..CacheConfig::default() }
            .validate()
            .is_ok());
        assert!(CacheConfig { capacity: usize::MAX, ..CacheConfig::default() }.validate().is_err());
        assert!(CacheConfig { snapshot_interval: Some(0), ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { snapshot_interval: Some(100), ..CacheConfig::default() }
            .validate()
            .is_ok());
        assert!(CacheConfig { journal_max_bytes: Some(0), ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { journal_max_bytes: Some(1 << 20), ..CacheConfig::default() }
            .validate()
            .is_ok());
        assert!(CacheConfig { fsync_policy: FsyncPolicy::EveryN(0), ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { fsync_policy: FsyncPolicy::IntervalMs(0), ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { fsync_policy: FsyncPolicy::EveryN(8), ..CacheConfig::default() }
            .validate()
            .is_ok());
        assert!(CacheConfig { trace_sample_rate: -0.1, ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { trace_sample_rate: 1.5, ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { trace_sample_rate: f64::NAN, ..CacheConfig::default() }
            .validate()
            .is_err());
        assert!(CacheConfig { trace_sample_rate: 0.0, ..CacheConfig::default() }
            .validate()
            .is_ok());
        assert!(CacheConfig { trace_sample_rate: 1.0, ..CacheConfig::default() }
            .validate()
            .is_ok());
    }

    #[test]
    fn with_capacity_sets_capacity() {
        let c = CacheConfig::with_capacity(123);
        assert_eq!(c.capacity, 123);
        assert_eq!(c.window_size, CacheConfig::default().window_size);
    }
}
