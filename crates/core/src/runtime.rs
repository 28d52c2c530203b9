//! The sequential Query Processing Runtime: GraphCache itself.
//!
//! Since the pipeline refactor this file is a *thin composition* over the
//! stage modules in [`crate::pipeline`] — each stage lives in its own module
//! (`probe`, `bound`, `filter`, `prune`, `verify`, `admit`) and
//! [`GraphCache::query`] just wires them together over this instance's
//! state. The concurrent front-end ([`crate::SharedGraphCache`]) composes
//! the same stages over sharded, lock-protected state.

use crate::cache::CacheManager;
use crate::config::CacheConfig;
use crate::cost::CostModel;
use crate::entry::{AnswerText, CacheEntry, EntryId};
use crate::memo::AnswerMemo;
use crate::persist::{self, PersistHealth, RecoveryReport, RestoredEntry, StoreHealth};
use crate::pipeline::admit::{self, AdmitLimits};
use crate::pipeline::probe::ProbeScratch;
use crate::pipeline::{self, bound, filter, probe, prune, verify, FastTier, PipelineCtx};
use crate::policy::ReplacementPolicy;
use crate::report::{IndexHealth, QueryReport};
use crate::stats::{GlobalStats, StatsMonitor};
use crate::telemetry::{PipelineStage, QueryTiming, QueryTrace, Telemetry};
use crate::window::WindowManager;
use crate::PolicyKind;
use gc_graph::{BitSet, Graph, GraphId};
use gc_method::{Dataset, Method, QueryKind};
use gc_store::{CacheStore, LoadOutcome, SnapshotInfo};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Journaling state of an attached [`CacheStore`].
struct StoreState {
    store: Arc<CacheStore>,
    /// Admissions since the last rotation (the `snapshot_interval` input).
    admits_since_snapshot: u64,
    /// Persistence circuit breaker (degraded-mode state + gauges).
    health: Arc<StoreHealth>,
}

/// The GraphCache kernel: a semantic cache layered over a base Method M.
///
/// ```
/// use gc_core::{CacheConfig, GraphCache, PolicyKind};
/// use gc_method::{Dataset, QueryKind, SiMethod};
/// use gc_graph::{graph_from_parts, Label};
/// use std::sync::Arc;
///
/// let dataset = Arc::new(Dataset::new(vec![
///     graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap(),
///     graph_from_parts(&[Label(2)], &[]).unwrap(),
/// ]));
/// let mut gc = GraphCache::new(
///     dataset,
///     Box::new(SiMethod),
///     PolicyKind::Hd.make(),
///     CacheConfig::default(),
/// ).unwrap();
///
/// let q = graph_from_parts(&[Label(0)], &[]).unwrap();
/// let report = gc.query(&q, QueryKind::Subgraph);
/// assert_eq!(report.answer.to_vec(), vec![0]);
/// ```
pub struct GraphCache {
    dataset: Arc<Dataset>,
    method: Box<dyn Method>,
    policy: Box<dyn ReplacementPolicy>,
    config: CacheConfig,
    cache: CacheManager,
    window: WindowManager,
    stats: StatsMonitor,
    cost: CostModel,
    /// Dataset graphs the method's filter index does not cover (inserted
    /// after an immutable index was built); unioned into `C_M` by the
    /// filter stage.
    overlay: BitSet,
    /// Which plans the bound stage may pick ([`bound::Plan::Auto`] unless a
    /// test forced one).
    plan: bound::Plan,
    /// Generation-versioned exact answer memo: repeats of a query on an
    /// unmutated dataset skip filter/probe/verify entirely.
    memo: AnswerMemo,
    /// Probe- and verify-stage buffers reused across queries (swapped into
    /// each query's [`PipelineCtx`]).
    probe_scratch: ProbeScratch,
    clock: u64,
    /// Attached persistence store (admissions/evictions journaled,
    /// auto-snapshots per the config's persistence knobs).
    store: Option<StoreState>,
    /// Pipeline telemetry: stage histograms, the trace sampler, and the
    /// slow-query ring.
    telemetry: Telemetry,
}

impl GraphCache {
    /// Create a cache over `dataset` using `method` as Method M and `policy`
    /// for replacement.
    pub fn new(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        policy: Box<dyn ReplacementPolicy>,
        config: CacheConfig,
    ) -> Result<Self, String> {
        config.validate()?;
        let telemetry = Telemetry::from_config(&config);
        Ok(GraphCache {
            cache: CacheManager::with_tuning(config.feature_config, config.index_tuning),
            window: WindowManager::new(config.window_size),
            stats: StatsMonitor::new(),
            cost: CostModel::new(&dataset),
            overlay: BitSet::new(dataset.len()),
            plan: bound::Plan::Auto,
            memo: AnswerMemo::new(config.memo_capacity),
            dataset,
            method,
            policy,
            config,
            probe_scratch: ProbeScratch::new(),
            clock: 0,
            store: None,
            telemetry,
        })
    }

    /// Convenience constructor with a bundled policy kind.
    pub fn with_policy(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        kind: PolicyKind,
        config: CacheConfig,
    ) -> Result<Self, String> {
        Self::new(dataset, method, kind.make(), config)
    }

    /// Test hook: pin the bound stage to one plan for every query, so a
    /// suite can drive the bounded and the filter path over the same
    /// stream. Not configuration — production code never calls it.
    #[doc(hidden)]
    pub fn with_plan(mut self, plan: bound::Plan) -> Self {
        self.plan = plan;
        self
    }

    /// Process one query; returns the exact answer set plus the full
    /// Query-Journey anatomy (Fig. 3).
    ///
    /// Thin sequential composition of the pipeline stages; see
    /// [`crate::pipeline`] for what each stage does.
    pub fn query(&mut self, query: &Graph, kind: QueryKind) -> QueryReport {
        self.query_traced(query, kind, None)
    }

    /// [`Self::query`] with an optional request id (propagated from the
    /// serving edge's `X-Request-Id` header) attached to any captured
    /// [`QueryTrace`]. The id is only materialized when the query is
    /// actually sampled or slow.
    pub fn query_traced(
        &mut self,
        query: &Graph,
        kind: QueryKind,
        request_id: Option<&str>,
    ) -> QueryReport {
        let start = Instant::now();
        self.clock += 1;
        let now = self.clock;
        let seq = self.telemetry.begin_query();
        let mut timing = QueryTiming::default();
        let generation = self.dataset.generation();
        let (fp, key) = query_key(&self.telemetry, query, start);
        let fast = FastPath {
            telemetry: &self.telemetry,
            stats: &self.stats,
            seq,
            start,
            key,
            request_id,
            kind,
            shard: 0,
            generation,
        };

        // ---- exact-match fast path (traditional cache hit) ---------------
        if let Some((id, confirm_steps)) = probe::find_exact(&self.cache, query, kind) {
            let served = admit::serve_exact(&mut self.cache, self.policy.as_mut(), id, now)
                .expect("exact hit is live in the sequential runtime");
            let report = fast.finish(
                FastTier::Exact,
                &timing,
                served.answer,
                Some(served.text),
                served.base_tests,
                confirm_steps,
            );
            // Exact hits skip the journal hooks (nothing mutated), so an
            // exact-hit-only workload must still drive recovery probes.
            self.maybe_probe_persistence();
            return report;
        }

        // ---- answer-memo fast path (generation-versioned) -----------------
        let memo_hit = {
            let _span = self.telemetry.span(PipelineStage::Memo, &mut timing);
            self.memo.lookup(fp, query, kind, generation)
        };
        if let Some(hit) = memo_hit {
            let report = fast.finish(
                FastTier::Memo,
                &timing,
                hit.answer,
                None,
                hit.base_tests,
                hit.confirm_steps,
            );
            self.maybe_probe_persistence();
            return report;
        }

        let mut ctx = PipelineCtx::new(query, kind, now, self.dataset.len());
        // Lend the runtime's warm probe buffers to this query's context
        // (returned before the context is consumed below).
        std::mem::swap(&mut ctx.probe_scratch, &mut self.probe_scratch);
        {
            let _span = self.telemetry.span(PipelineStage::Probe, &mut timing);
            probe::run(&mut ctx, &self.cache, &self.config);
        }
        {
            let _span = self.telemetry.span(PipelineStage::Bound, &mut timing);
            bound::run(&mut ctx, self.dataset.live_mask(), self.plan);
        }
        if !ctx.filter_skipped {
            let _span = self.telemetry.span(PipelineStage::Filter, &mut timing);
            filter::run(&mut ctx, self.method.as_ref(), &self.dataset, &self.overlay);
        }
        {
            let _span = self.telemetry.span(PipelineStage::Prune, &mut timing);
            prune::run(&mut ctx);
        }
        {
            let _span = self.telemetry.span(PipelineStage::Verify, &mut timing);
            verify::run(&mut ctx, &self.dataset, self.config.engine);
        }
        verify::observe_costs(&ctx, &self.cost);

        let admit_span = self.telemetry.span(PipelineStage::Admit, &mut timing);
        admit::credit_hits(
            &mut self.cache,
            self.policy.as_mut(),
            &self.cost,
            &ctx.cm,
            ctx.filter_skipped.then(|| self.cost.mean_over(&ctx.cm)),
            kind,
            now,
            &ctx.hits,
            &ctx.hit_answers,
        );
        let answer = ctx.answer();
        let outcome = admit::run(
            &mut self.cache,
            self.policy.as_mut(),
            &mut self.window,
            &self.config,
            AdmitLimits::from_config(&self.config),
            query,
            kind,
            fp,
            ctx.features.take(), // the probe stage's extraction, reused
            &answer,
            ctx.pruned.cm_size as u64,
            ctx.verify_steps,
            now,
        );
        let (base_tests, base_cost) = (ctx.pruned.cm_size as u64, ctx.verify_steps);
        self.memo.store(fp, query, kind, &answer, base_tests, generation);
        drop(admit_span);

        let elapsed = start.elapsed();
        self.stats.add(&ctx.stats_delta(&outcome, elapsed));
        std::mem::swap(&mut ctx.probe_scratch, &mut self.probe_scratch);
        self.telemetry.finish_query(seq, elapsed, |slow| {
            pipeline_trace(
                seq, elapsed, &timing, request_id, kind, 0, generation, &ctx, &answer, slow,
            )
        });
        let report = ctx.into_report(answer, outcome, elapsed);
        self.journal_mutations(query, kind, base_tests, base_cost, now, &report);
        report
    }

    /// Append this query's admission/evictions to the attached journal and
    /// run the auto-snapshot triggers. Persistence failures are reported to
    /// stderr and routed through the circuit breaker — they never fail the
    /// query: degraded, the cache keeps answering memory-only and at worst
    /// the next restart loses warmth.
    fn journal_mutations(
        &mut self,
        query: &Graph,
        kind: QueryKind,
        base_tests: u64,
        base_cost: u64,
        now: u64,
        report: &QueryReport,
    ) {
        let Some(st) = self.store.as_mut() else { return };
        if report.admitted.is_some() {
            st.admits_since_snapshot += 1;
        }
        let directive = persist::journal_outcome(
            &st.store,
            &st.health,
            &self.config,
            st.admits_since_snapshot,
            query,
            kind,
            &report.answer,
            base_tests,
            base_cost,
            now,
            report.admitted,
            &report.evicted,
        );
        self.dispatch_directive(directive);
    }

    /// Act on a journal append's follow-up: cut the due auto-snapshot or
    /// run the due recovery probe.
    fn dispatch_directive(&mut self, directive: persist::PersistDirective) {
        match directive {
            persist::PersistDirective::Nothing => {}
            persist::PersistDirective::Rotate => {
                if let Err(e) = self.snapshot_now() {
                    eprintln!("graphcache: auto-snapshot failed ({e})");
                    if let Some(st) = self.store.as_ref() {
                        st.health.note_error();
                        st.health.trip_degraded();
                    }
                }
            }
            persist::PersistDirective::Probe => self.maybe_probe_persistence(),
        }
    }

    // ---- dataset mutation ---------------------------------------------------

    /// Insert a data graph into the live dataset; returns its id.
    ///
    /// Everything derived from the dataset is repaired in place: the
    /// method index is offered the graph (the filter overlay covers
    /// methods that decline — see [`gc_method::Method::on_insert_graph`]),
    /// every cached answer set re-verifies the new graph when its summary
    /// prefilter admits it, the answer memo is invalidated wholesale by
    /// the dataset generation bump, and the mutation is journaled to the
    /// attached store.
    pub fn insert_graph(&mut self, g: Graph) -> GraphId {
        let start = Instant::now();
        let gid = Arc::make_mut(&mut self.dataset).insert_graph(g);
        let universe = self.dataset.len();
        if self.overlay.universe() < universe {
            self.overlay.grow(universe);
        }
        if !self.method.on_insert_graph(&self.dataset, gid) {
            self.overlay.insert(gid as usize);
        }
        let dataset = Arc::clone(&self.dataset);
        let engine = self.config.engine;
        for id in self.cache.ids() {
            let entry = self.cache.get_mut(id).expect("listed id is live");
            entry.grow_answer(universe);
            if entry.answers_inserted(&dataset, gid, engine) {
                entry.insert_answer(gid as usize);
            }
        }
        self.finish_mutation(start);
        gid
    }

    /// Tombstone a data graph. Returns `false` if `gid` was already
    /// removed or never existed. The graph is cleared from every cached
    /// answer set, the method index is told
    /// ([`gc_method::Method::on_remove_graph`]), the memo invalidates via
    /// the generation bump, and the mutation is journaled.
    pub fn remove_graph(&mut self, gid: GraphId) -> bool {
        // Decided on the shared handle: `make_mut` deep-copies the dataset
        // whenever the caller still holds the `Arc` it was built from,
        // which a no-op must not cost, and an unknown id must not panic.
        if !self.dataset.is_live(gid) {
            return false;
        }
        let start = Instant::now();
        let removed = Arc::make_mut(&mut self.dataset).remove_graph(gid);
        debug_assert!(removed, "liveness checked above");
        self.method.on_remove_graph(&self.dataset, gid);
        if (gid as usize) < self.overlay.universe() {
            self.overlay.remove(gid as usize);
        }
        for id in self.cache.ids() {
            let entry = self.cache.get_mut(id).expect("listed id is live");
            entry.remove_answer(gid as usize);
        }
        self.finish_mutation(start);
        true
    }

    /// Close a dataset mutation begun at `start`: append the delta to the
    /// attached journal (same degraded-mode discipline as
    /// [`Self::journal_mutations`]), observe the `mutate` stage — the same
    /// interval the sharded front-end spends under its write lock — and
    /// only then run whatever snapshot or probe the append made due.
    fn finish_mutation(&mut self, start: Instant) {
        let directive = match self.store.as_ref() {
            Some(st) => persist::journal_dataset_delta(
                &st.store,
                &st.health,
                &self.config,
                st.admits_since_snapshot,
                &self.dataset,
            ),
            None => persist::PersistDirective::Nothing,
        };
        self.telemetry.mutate().observe(start.elapsed());
        self.dispatch_directive(directive);
    }

    /// While [`PersistHealth::Degraded`] and a recovery probe is due, try
    /// to cut a fresh full snapshot: success re-arms durability (the
    /// snapshot subsumes every buffered mutation), failure backs the probe
    /// off — until the probe budget disables persistence.
    fn maybe_probe_persistence(&mut self) {
        let Some(st) = self.store.as_ref() else { return };
        let health = Arc::clone(&st.health);
        if health.health() != PersistHealth::Degraded || !health.probe_due() {
            return;
        }
        match self.snapshot_now() {
            Ok(info) => {
                health.mark_recovered();
                eprintln!(
                    "graphcache: persistence recovered (fresh snapshot, generation {})",
                    info.generation
                );
            }
            Err(_) => health.probe_failed(self.config.persist_max_probes),
        }
    }

    // ---- persistence --------------------------------------------------------

    /// Export a snapshot of all cached entries (for persistence / warm
    /// starts). Entries are self-contained: query graph, kind, answer set,
    /// base costs and accumulated statistics.
    pub fn export_entries(&self) -> Vec<CacheEntry> {
        self.cache.iter().cloned().collect()
    }

    /// Import previously exported entries into this cache (e.g. to warm-start
    /// a new session over the *same dataset*).
    ///
    /// Entries receive fresh ids; their accumulated statistics are preserved
    /// in the entry records, but the replacement policy sees them as fresh
    /// admissions (policy-internal utility state is not portable across
    /// policies). Exact-duplicate entries (same fingerprint + kind +
    /// isomorphic graph) are skipped. If the import exceeds capacity, a
    /// replacement sweep trims the cache.
    ///
    /// Returns the number of entries actually imported, or an error if any
    /// entry's answer universe does not match this dataset.
    ///
    /// With a store attached, the import ends with a snapshot rotation:
    /// bulk imports bypass the per-query journal hooks, so rotating is
    /// what keeps the persisted state in sync with the live cache (and
    /// keeps later journaled slot ids unambiguous).
    pub fn import_entries(
        &mut self,
        entries: impl IntoIterator<Item = CacheEntry>,
    ) -> Result<usize, String> {
        let mut imported = 0usize;
        self.clock += 1;
        let now = self.clock;
        for e in entries {
            if e.answer().universe() != self.dataset.len() {
                return Err(format!(
                    "entry universe {} does not match dataset size {}",
                    e.answer().universe(),
                    self.dataset.len()
                ));
            }
            if probe::find_exact(&self.cache, &e.graph, e.kind).is_some() {
                continue;
            }
            let answer = e.answer().clone();
            let id = self.cache.insert(e.graph, e.kind, answer, e.base_tests, e.base_cost, now);
            if let Some(slot) = self.cache.get_mut(id) {
                slot.stats = e.stats;
            }
            let bytes = self.cache.get(id).expect("just inserted").memory_bytes();
            self.policy.on_insert_sized(id, now, bytes);
            imported += 1;
        }
        let excess = self.cache.len().saturating_sub(self.config.capacity);
        if excess > 0 {
            for victim in self.policy.victims(excess) {
                if self.cache.remove(victim).is_some() {
                    self.policy.on_evict(victim);
                }
            }
        }
        self.stats.add(&GlobalStats { admitted: imported as u64, ..GlobalStats::default() });
        if let Some(health) = self.store.as_ref().map(|st| Arc::clone(&st.health)) {
            if let Err(e) = self.snapshot_now() {
                eprintln!("graphcache: post-import snapshot failed ({e})");
                health.note_error();
                health.trip_degraded();
            }
        }
        Ok(imported)
    }

    // ---- durable state (snapshot + journal) -------------------------------

    /// Write a full snapshot of this cache into `store` (rotating its
    /// journal). If `store` is the attached store, the auto-snapshot
    /// counters reset too.
    pub fn snapshot_to(&mut self, store: &CacheStore) -> Result<SnapshotInfo, String> {
        let doc = persist::build_doc(
            &self.dataset,
            &self.stats.snapshot(),
            &self.cost,
            self.clock,
            self.window.pending() as u32,
            self.policy.name(),
            self.cache.iter().map(persist::entry_to_record),
        );
        let info = store.rotate(&doc).map_err(|e| format!("snapshot failed: {e}"))?;
        if let Some(st) = self.store.as_mut() {
            if std::ptr::eq(store, st.store.as_ref()) {
                st.admits_since_snapshot = 0;
            }
        }
        Ok(info)
    }

    /// Snapshot to the attached store. Errors if none is attached.
    pub fn snapshot_now(&mut self) -> Result<SnapshotInfo, String> {
        let store = match self.store.as_ref() {
            Some(st) => Arc::clone(&st.store),
            None => return Err("no store attached".into()),
        };
        self.snapshot_to(&store)
    }

    /// Attach a persistence store: writes an initial snapshot of the
    /// current state (establishing the journal's base), then journals every
    /// admission/eviction and honours the config's
    /// `snapshot_interval` / `journal_max_bytes` auto-snapshot knobs.
    pub fn attach_store(&mut self, store: Arc<CacheStore>) -> Result<SnapshotInfo, String> {
        store.set_fsync_policy(self.config.fsync_policy);
        self.store = Some(StoreState {
            store,
            admits_since_snapshot: 0,
            health: Arc::new(StoreHealth::new()),
        });
        self.snapshot_now()
    }

    /// Detach the persistence store (journaling stops; on-disk state stays
    /// at the last snapshot + journal).
    pub fn detach_store(&mut self) -> Option<Arc<CacheStore>> {
        self.store.take().map(|st| st.store)
    }

    /// The attached persistence store, if any.
    pub fn attached_store(&self) -> Option<&CacheStore> {
        self.store.as_ref().map(|st| st.store.as_ref())
    }

    /// Persistence health of the attached store (`None` when detached).
    /// `Degraded`/`Disabled` mean journaling is paused — the cache keeps
    /// serving exact answers memory-only; see [`crate::persist`].
    pub fn persist_health(&self) -> Option<PersistHealth> {
        self.store.as_ref().map(|st| st.health.health())
    }

    /// Build a cache and warm-restart it from `store`: replay snapshot
    /// then journal, attach the store, and write a fresh snapshot so the
    /// new process journals against its own entry-id namespace.
    ///
    /// Recovery is **fail-closed**: corrupt, truncated or torn files — and
    /// a snapshot taken over a different dataset — yield a *cold* (empty
    /// but fully functional) cache with the reason in the
    /// [`RecoveryReport`]; answers are never wrong, restarts only lose
    /// warmth. `Err` is reserved for an invalid `config` or an IO failure
    /// writing the fresh snapshot.
    pub fn restore_from(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        policy: Box<dyn ReplacementPolicy>,
        config: CacheConfig,
        store: Arc<CacheStore>,
    ) -> Result<(Self, RecoveryReport), String> {
        let mut gc = Self::new(dataset, method, policy, config)?;
        let report = gc.restore_state(&store);
        gc.attach_store(store)?;
        Ok((gc, report))
    }

    /// Replay `store`'s recovered state into this (fresh) cache.
    fn restore_state(&mut self, store: &CacheStore) -> RecoveryReport {
        let state = match store.load() {
            LoadOutcome::Cold { reason } => return RecoveryReport::cold(reason),
            LoadOutcome::Warm(state) => state,
        };
        // Resolve the dataset the persisted state describes *first*: the
        // snapshot's recorded ops and every journaled delta are re-applied
        // (each validated by fingerprint), and all entry replay below runs
        // against the final universe.
        let resolved = match persist::resolve_dataset(&state, &self.dataset) {
            Ok(resolved) => resolved,
            Err(report) => return *report,
        };
        let persist::ResolvedDataset { dataset, journal_inserted, journal_deltas } = resolved;
        self.dataset = Arc::new(dataset);
        self.cost = CostModel::new(&self.dataset);
        self.overlay = persist::rebuild_method_overlay(self.method.as_ref(), &self.dataset);

        struct SeqTarget<'a> {
            cache: &'a mut CacheManager,
            policy: &'a mut dyn ReplacementPolicy,
            now_hint: u64,
        }
        impl persist::ReplayTarget for SeqTarget<'_> {
            fn insert(&mut self, e: RestoredEntry) -> Option<EntryId> {
                if probe::find_exact(self.cache, &e.graph, e.kind).is_some() {
                    return None; // order-tolerant duplicate skip
                }
                let stats = e.stats.clone();
                let id = self.cache.insert(
                    e.graph,
                    e.kind,
                    e.answer,
                    e.base_tests,
                    e.base_cost,
                    stats.inserted_at,
                );
                let slot = self.cache.get_mut(id).expect("just inserted");
                slot.stats = e.stats;
                let bytes = self.cache.get(id).expect("just inserted").memory_bytes();
                self.policy.on_restore(id, &stats, bytes, self.now_hint);
                Some(id)
            }

            fn evict(&mut self, key: EntryId) {
                if self.cache.remove(key).is_some() {
                    self.policy.on_evict(key);
                }
            }
        }

        let snapshot_entries = state.doc.entries.len();
        let mut target = SeqTarget {
            cache: &mut self.cache,
            policy: self.policy.as_mut(),
            now_hint: state.doc.clock,
        };
        let counts = persist::replay(&state, self.dataset.len(), &mut target);
        self.clock = counts.max_now;

        // Enforce this config's capacity. A cache legitimately rests at up
        // to `capacity + window_size - 1` entries between replacement
        // sweeps, so a same-config restore reproduces the snapshotted
        // state exactly; only a *smaller* restoring config triggers a
        // trim (down to `capacity`, like a window-close sweep would).
        let allowance = self.config.capacity + self.config.window_size - 1;
        if self.cache.len() > allowance {
            let excess = self.cache.len() - self.config.capacity;
            for victim in self.policy.victims(excess) {
                if self.cache.remove(victim).is_some() {
                    self.policy.on_evict(victim);
                }
            }
        }
        self.window.restore_pending(state.doc.window_pending as usize + counts.journal_admits);
        self.stats.add(&persist::stats_from_records(&state.doc.stats));
        for (gid, &(est, observed)) in state.doc.cost.iter().enumerate() {
            self.cost.restore_estimate(gid, est, observed);
        }

        // Repair replayed answers against mutations their records predate:
        // tombstoned graphs are masked out, and each journal-inserted graph
        // is re-verified per entry (idempotent — records written after the
        // delta already carry the right bit).
        let dataset = Arc::clone(&self.dataset);
        let engine = self.config.engine;
        for id in self.cache.ids() {
            let entry = self.cache.get_mut(id).expect("listed id is live");
            if dataset.has_tombstones() {
                entry.mask_answer(dataset.live_mask());
            }
            for &gid in &journal_inserted {
                if !dataset.live_mask().contains(gid as usize) {
                    continue; // inserted then removed: stays masked out
                }
                if entry.answers_inserted(&dataset, gid, engine) {
                    entry.insert_answer(gid as usize);
                } else {
                    entry.remove_answer(gid as usize);
                }
            }
        }

        RecoveryReport {
            warm: true,
            cold_reason: None,
            generation: state.generation,
            snapshot_entries,
            journal_admits: counts.journal_admits,
            journal_evicts: counts.journal_evicts,
            journal_deltas,
            journal_torn_bytes: state.torn_tail_bytes,
            entries_restored: self.cache.len(),
            clock: self.clock,
        }
    }

    // ---- accessors --------------------------------------------------------

    /// Snapshot of the global statistics, with the index-health gauges
    /// ([`GlobalStats::distinct_features`], [`GlobalStats::tombstoned_slots`])
    /// populated from the live containment index and the kernel-dispatch
    /// gauge from the runtime detection.
    pub fn stats(&self) -> GlobalStats {
        let mut s = self.stats.snapshot();
        let health = self.index_health();
        s.distinct_features = health.distinct_features as u64;
        s.tombstoned_slots = health.tombstoned_slots as u64;
        s.kernel_dispatch = gc_graph::simd::kernel_name();
        s.dataset_generation = self.dataset.generation();
        s.dataset_live_graphs = self.dataset.live_count() as u64;
        if let Some(st) = self.store.as_ref() {
            s.persist_health = st.health.health().as_str();
            s.persist_errors = st.health.errors();
            s.journal_records_buffered = st.health.buffered();
        }
        s.pipeline_p50_us = self.telemetry.total().percentile_us(50.0);
        s.pipeline_p99_us = self.telemetry.total().percentile_us(99.0);
        s.traces_sampled = self.telemetry.sampled_count();
        s.slow_queries = self.telemetry.slow_count();
        s
    }

    /// The pipeline telemetry hub: stage histograms, sampled traces, and
    /// the slow-query ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Point-in-time health gauges of the containment index's posting
    /// directory (compaction debt of the tombstoned maintenance tier).
    pub fn index_health(&self) -> IndexHealth {
        let index = self.cache.index();
        IndexHealth {
            distinct_features: index.distinct_features(),
            tombstoned_slots: index.tombstoned_slots(),
        }
    }

    /// Shared handle to the Statistics Monitor.
    pub fn monitor(&self) -> StatsMonitor {
        self.stats.clone()
    }

    /// The cache manager (entry inspection for dashboards).
    pub fn cache(&self) -> &CacheManager {
        &self.cache
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` iff the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The replacement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The base method's name.
    pub fn method_name(&self) -> String {
        self.method.name()
    }

    /// The dataset this cache serves.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Live answers in the generation-versioned memo (diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Cache memory footprint (entries + index), for Experiment II.
    pub fn memory_bytes(&self) -> usize {
        self.cache.memory_bytes()
    }

    /// Method M's index footprint, for Experiment II.
    pub fn method_index_bytes(&self) -> usize {
        self.method.index_memory_bytes()
    }
}

/// `"sub"` / `"super"` trace label for a query kind.
pub(crate) fn kind_label(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Subgraph => "sub",
        QueryKind::Supergraph => "super",
    }
}

/// The query's key — its WL fingerprint, shared by shard routing, the memo
/// and admission ([`probe::find_exact`] still derives its own) — and the
/// time since `start` it was ready at (observed as the `key` stage).
pub(crate) fn query_key(telemetry: &Telemetry, query: &Graph, start: Instant) -> (u64, Duration) {
    let fp = gc_graph::hash::fingerprint(query);
    let key = start.elapsed();
    telemetry.stage(PipelineStage::Key).observe(key);
    (fp, key)
}

/// What both runtimes know about a query before any tier has answered it;
/// closes the query when a tier in front of the pipeline serves it whole.
pub(crate) struct FastPath<'a> {
    pub telemetry: &'a Telemetry,
    pub stats: &'a StatsMonitor,
    pub seq: u64,
    pub start: Instant,
    /// [`query_key`]'s time: `start` → fingerprint ready.
    pub key: Duration,
    pub request_id: Option<&'a str>,
    pub kind: QueryKind,
    pub shard: u32,
    pub generation: u64,
}

impl FastPath<'_> {
    /// Publish the hit's statistics, observe it into the telemetry hub (an
    /// exact hit also as the `exact` stage: key done → now) and build its
    /// report around `answer`, the hit's one universe-sized value, and —
    /// on an exact hit — the entry's `answer_text` slot for it. The
    /// trace, when sampled or slow, carries the answer size and any
    /// memo-span time but no pipeline-stage counts (those stages never ran).
    pub(crate) fn finish(
        &self,
        tier: FastTier,
        timing: &QueryTiming,
        answer: BitSet,
        answer_text: Option<Arc<AnswerText>>,
        base_tests: u64,
        confirm_steps: u64,
    ) -> QueryReport {
        let elapsed = self.start.elapsed();
        self.stats.add(&pipeline::fast_stats_delta(tier, base_tests, confirm_steps, elapsed));
        if tier == FastTier::Exact {
            self.telemetry.stage(PipelineStage::Exact).observe(elapsed.saturating_sub(self.key));
        }
        self.telemetry.finish_query(self.seq, elapsed, |slow| QueryTrace {
            seq: self.seq,
            request_id: self.request_id.map(str::to_owned),
            kind: kind_label(self.kind).to_owned(),
            outcome: tier.label().to_owned(),
            shard: self.shard,
            generation: self.generation,
            total_us: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
            memo_us: timing.us(PipelineStage::Memo),
            answer: answer.count() as u64,
            slow,
            ..QueryTrace::default()
        });
        pipeline::fast_report(tier, answer, answer_text, self.kind, base_tests, elapsed)
    }
}

/// Assemble a full-pipeline [`QueryTrace`] from the query's context.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipeline_trace(
    seq: u64,
    elapsed: std::time::Duration,
    timing: &QueryTiming,
    request_id: Option<&str>,
    kind: QueryKind,
    shard: u32,
    generation: u64,
    ctx: &PipelineCtx<'_>,
    answer: &BitSet,
    slow: bool,
) -> QueryTrace {
    QueryTrace {
        seq,
        request_id: request_id.map(str::to_owned),
        kind: kind_label(kind).to_owned(),
        outcome: "pipeline".to_owned(),
        shard,
        generation,
        plan: crate::report::plan_label(ctx.filter_skipped).to_owned(),
        total_us: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
        probe_us: timing.us(PipelineStage::Probe),
        bound_us: timing.us(PipelineStage::Bound),
        filter_us: timing.us(PipelineStage::Filter),
        prune_us: timing.us(PipelineStage::Prune),
        verify_us: timing.us(PipelineStage::Verify),
        admit_us: timing.us(PipelineStage::Admit),
        memo_us: timing.us(PipelineStage::Memo),
        cm_size: ctx.pruned.cm_size as u64,
        definite: ctx.bound.definite.count() as u64,
        to_verify: ctx.pruned.to_verify.count() as u64,
        survivors: ctx.survivors.count() as u64,
        answer: answer.count() as u64,
        probe_tests: ctx.hits.probe_tests,
        verify_steps: ctx.verify_steps,
        slow,
    }
}

impl std::fmt::Debug for GraphCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphCache")
            .field("method", &self.method.name())
            .field("policy", &self.policy.name())
            .field("entries", &self.cache.len())
            .field("clock", &self.clock)
            .finish()
    }
}
