//! The Query Processing Runtime: [`SharedGraphCache`].
//!
//! This is the one runtime. Queries, dataset mutations with their in-place
//! answer repair, snapshots and restores are implemented here once, and
//! every cache — a test's, an experiment's, a server's — is one of these.
//! Queries take `&self`, so any number of client threads can query one
//! cache concurrently; a caller that needs reproducible counts asks for
//! one shard (`CacheConfig { shards: 1, .. }`):
//!
//! * **sharding** — cache state is split into [`CacheConfig::shards`]
//!   independent shards, each `(CacheManager, WindowManager)` behind a
//!   `parking_lot::RwLock` plus its own replacement-policy instance behind a
//!   `Mutex`. A query graph's WL fingerprint picks its *home shard*
//!   (admission and exact-match lookups, rows included, touch only that
//!   shard; fingerprints are isomorphism-invariant, so a duplicate routes home).
//!   A repeated presentation finds its fingerprint as a hint in a lock-free
//!   table instead of recomputing it (see `KeyHints`: a hint only routes);
//! * **read-mostly probing** — the probe / bound / filter / prune / verify
//!   stages and answer-only row hits take only shard *read* locks (held
//!   just long enough to copy answers); write locks are taken for the short
//!   sections that mutate state: hit crediting and admission/eviction;
//! * **lock-free accounting** — [`StatsMonitor`] and [`CostModel`] are
//!   atomics-based, so statistics and cost observations never serialize
//!   queries;
//! * **one query, one thread** — every stage of a query, shard probes and
//!   candidate verification included, runs on the caller's thread with
//!   that thread's scratch; the cores are occupied by concurrent callers
//!   (the server's workers, `gc run --clients N`), not by fanning one
//!   query out.
//!
//! ## Correctness under concurrency
//!
//! GraphCache's central invariant — answers are *exactly* those of Method M
//! alone (paper §1, Problem (2)) — holds under any interleaving, because the
//! cache only ever (a) serves a previously-verified exact answer set, or
//! (b) prunes/augments the candidate set with answer snapshots taken under
//! a read lock, each of which is itself an exact answer set. Entries
//! evicted between probing and crediting merely lose a utility update
//! (credits are dropped for dead entries; see [`crate::pipeline::admit`]).
//! The answer-set equivalence of concurrent clients with a one-client
//! replay is property-tested in `tests/prop.rs` across all bundled policies.
//!
//! ## Entry-id namespaces
//!
//! Each shard numbers its entries independently. Ids in reports
//! ([`QueryReport::sub_hits`], evictions, …) are *encoded* as
//! `shard << 24 | local` so they stay unique cache-wide; use
//! [`SharedGraphCache::decode_entry_id`] to recover the shard and local id.
//! Shard 0's encoding is the identity, so a one-shard cache reports plain
//! slab ids.

use crate::cache::CacheManager;
use crate::config::CacheConfig;
use crate::cost::CostModel;
use crate::entry::EntryId;
use crate::persist::{self, PersistHealth, RecoveryReport};
use crate::pipeline::admit::{self, AdmitLimits, AdmitOutcome};
use crate::pipeline::probe::{CacheHits, ProbeScratch};
use crate::pipeline::{bound, filter, probe, prune, verify, FastTier, PipelineCtx};
use crate::pipeline::{pipeline_trace, query_key, FastPath, KeyHints};
use crate::policy::ReplacementPolicy;
use crate::report::{IndexHealth, QueryReport};
use crate::stats::{GlobalStats, StatsMonitor};
use crate::telemetry::{PipelineStage, QueryTiming, Telemetry};
use crate::window::WindowManager;
use crate::PolicyKind;
use gc_graph::{BitSet, Graph, GraphId};
use gc_method::{Dataset, Engine, Method, QueryKind};
use gc_store::{CacheStore, EntryRecord, JournalOp, LoadOutcome, SnapshotInfo};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Per-thread query buffers: `query` is `&self` (any number of client
    /// threads), so the reusable candidate-selection and verifier scratch
    /// is swapped from here into each query's [`PipelineCtx`] and back;
    /// every shard probe and every candidate test of one query shares it.
    static PROBE_SCRATCH: std::cell::RefCell<ProbeScratch> =
        std::cell::RefCell::new(ProbeScratch::new());
}

/// Answer-only rows kept cache-wide, split over the shards like
/// [`CacheConfig::capacity`].
const ANSWER_ROWS: usize = 1024;

/// Feature configuration of every shard's query index. A query's features
/// are extracted under the same one, so they match the postings.
fn cache_features() -> gc_index::FeatureConfig {
    gc_index::FeatureConfig::default()
}

/// Bits of an encoded entry id that hold the shard-local id
/// ([`CacheConfig::validate`] keeps every shard's slab within them).
pub(crate) const LOCAL_BITS: u32 = 24;
/// Mask of the shard-local id.
const LOCAL_MASK: EntryId = (1 << LOCAL_BITS) - 1;

/// One shard's probe result: `(shard index, shard-local hits, range of the
/// hits' answer snapshots inside `PipelineCtx::hit_answers`)`.
type ShardProbe = (usize, CacheHits, std::ops::Range<usize>);

/// State a shard protects with one RwLock: entries + admission window.
struct ShardState {
    cache: CacheManager,
    window: WindowManager,
}

/// Dataset-side state behind one cache-wide RwLock: the live dataset plus
/// the filter overlay (graphs the method's index does not cover).
///
/// Queries hold the **read** lock for their full duration; a dataset
/// mutation takes the **write** lock, which quiesces all in-flight queries
/// and gives the mutation an exclusive window to repair every shard's
/// answer sets. Lock order is always `data` → shard locks (queries,
/// mutations and snapshots all acquire in that order), so the two lock
/// layers can never deadlock.
struct DataState {
    dataset: Arc<Dataset>,
    overlay: BitSet,
}

/// One shard: lockable state plus its replacement policy.
///
/// The policy sits in its own `Mutex` (instead of inside the `RwLock`)
/// because `ReplacementPolicy` implementations are `Send` but not required
/// to be `Sync`; the policy is only ever touched while also holding the
/// shard's write lock, so the extra mutex is uncontended.
struct Shard {
    state: RwLock<ShardState>,
    policy: Mutex<Box<dyn ReplacementPolicy>>,
}

/// The GraphCache runtime: the staged pipeline over sharded state, `&self`
/// queries from any number of threads.
///
/// ```
/// use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
/// use gc_method::{Dataset, QueryKind, SiMethod};
/// use gc_graph::{graph_from_parts, Label};
/// use std::sync::Arc;
///
/// let dataset = Arc::new(Dataset::new(vec![
///     graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap(),
///     graph_from_parts(&[Label(2)], &[]).unwrap(),
/// ]));
/// let gc = SharedGraphCache::with_policy(
///     dataset,
///     Box::new(SiMethod),
///     PolicyKind::Hd,
///     CacheConfig::default(),
/// ).unwrap();
///
/// let q = graph_from_parts(&[Label(0)], &[]).unwrap();
/// // `&self` — clone handles into threads, or share behind an Arc.
/// let report = gc.query(&q, QueryKind::Subgraph);
/// assert_eq!(report.answer.to_vec(), vec![0]);
/// let again = gc.query(&q, QueryKind::Subgraph);
/// assert!(again.exact_hit);
/// ```
pub struct SharedGraphCache {
    /// Live dataset + filter overlay (see [`DataState`] for the locking
    /// protocol).
    data: RwLock<DataState>,
    method: Arc<dyn Method>,
    config: CacheConfig,
    shards: Vec<Shard>,
    /// Per-shard admission limits; entry capacities sum to exactly
    /// `config.capacity` (base + 1 for the first `capacity % shards`
    /// shards), so N shards retain no more entries than one would. Shards
    /// with capacity 0 (when `capacity < shards`) still admit within a
    /// window but are emptied by every sweep. `ANSWER_ROWS` answer-only
    /// rows are split the same way.
    limits: Vec<AdmitLimits>,
    stats: StatsMonitor,
    cost: CostModel,
    clock: AtomicU64,
    policy_name: &'static str,
    /// Attached persistence store (dataset mutations journaled, entries
    /// snapshotted per the config's persistence knobs).
    store: Option<Arc<CacheStore>>,
    /// Admissions since the last rotation (auto-snapshot trigger input).
    admits_since_snapshot: AtomicU64,
    /// Single-flight guard: only one thread builds a snapshot at a time;
    /// concurrent triggers become no-ops.
    snapshotting: AtomicBool,
    /// `true` exactly while some applied mutation is in neither the
    /// attached store's snapshot nor its journal. Written only under the
    /// `data` lock: a failed delta append sets it under the write lock,
    /// and [`Self::snapshot_to`] clears it under the read lock it holds
    /// across the rotation that captured every such mutation. The lock
    /// orders every write and the mutation's read, so `Relaxed` suffices;
    /// the health gauge reads it unlocked.
    behind: AtomicBool,
    /// Failed store operations since attach (the `persist_errors` gauge).
    persist_errors: AtomicU64,
    /// Mutations applied while `behind` (the `journal_records_buffered`
    /// gauge); cleared with it.
    buffered: AtomicU64,
    /// Pipeline telemetry: stage histograms, the trace sampler, and the
    /// slow-query ring (all lock-free on the query path).
    telemetry: Telemetry,
    /// Which plans the bound stage may pick ([`bound::Plan::Auto`] unless a
    /// test forced one).
    plan: bound::Plan,
    /// Presentation hash → fingerprint hints in front of the exact tier:
    /// 2 × (capacity + [`ANSWER_ROWS`]) slots, so every resident entry and
    /// row can keep a presentation's hint at a modest collision rate.
    hints: KeyHints,
}

impl SharedGraphCache {
    /// Create a cache; `make_policy` is called once per shard and builds
    /// that shard's replacement-policy instance (each shard replaces
    /// independently over its own entries).
    pub fn new(
        dataset: Arc<Dataset>,
        method: Arc<dyn Method>,
        mut make_policy: impl FnMut() -> Box<dyn ReplacementPolicy>,
        config: CacheConfig,
    ) -> Result<Self, String> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|_| {
                let policy = make_policy();
                Shard {
                    state: RwLock::new(ShardState {
                        cache: CacheManager::new(cache_features()),
                        window: WindowManager::new(config.window_size),
                    }),
                    policy: Mutex::new(policy),
                }
            })
            .collect::<Vec<_>>();
        let policy_name = shards[0].policy.lock().name();
        let share = |total: usize, si: usize| {
            total / config.shards + usize::from(si < total % config.shards)
        };
        let limits = (0..config.shards)
            .map(|si| AdmitLimits {
                capacity: share(config.capacity, si),
                max_bytes: config.max_bytes.map(|b| (b / config.shards).max(1)),
                rows: share(ANSWER_ROWS, si),
            })
            .collect();
        let telemetry = Telemetry::from_config(&config);
        let hints = KeyHints::new(config.capacity.saturating_add(ANSWER_ROWS).saturating_mul(2));
        Ok(SharedGraphCache {
            cost: CostModel::new(&dataset),
            stats: StatsMonitor::new(),
            clock: AtomicU64::new(0),
            data: RwLock::new(DataState { overlay: BitSet::new(dataset.len()), dataset }),
            method,
            config,
            telemetry,
            plan: bound::Plan::Auto,
            hints,
            shards,
            limits,
            policy_name,
            store: None,
            admits_since_snapshot: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
            behind: AtomicBool::new(false),
            persist_errors: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
        })
    }

    /// Convenience constructor with a bundled policy kind.
    pub fn with_policy(
        dataset: Arc<Dataset>,
        method: Box<dyn Method>,
        kind: PolicyKind,
        config: CacheConfig,
    ) -> Result<Self, String> {
        Self::new(dataset, Arc::from(method), move || kind.make(), config)
    }

    /// Test hook: pin the bound stage to one plan for every query, so a
    /// suite can drive the bounded and the filter path over the same
    /// stream. Not configuration — production code never calls it.
    #[doc(hidden)]
    pub fn with_plan(mut self, plan: bound::Plan) -> Self {
        self.plan = plan;
        self
    }

    /// Diagnostic: the key the hint table would route `query` by, if it
    /// holds a hint for the query's presentation.
    #[doc(hidden)]
    pub fn key_hint(&self, query: &Graph) -> Option<u64> {
        self.hints.get(gc_graph::hash::presentation_hash(query))
    }

    /// Process one query through the staged pipeline; callable from any
    /// number of threads concurrently. Returns the exact answer set plus
    /// the Query-Journey anatomy (Fig. 3).
    pub fn query(&self, query: &Graph, kind: QueryKind) -> QueryReport {
        self.query_traced(query, kind, None)
    }

    /// [`Self::query`] with an optional request id (propagated from the
    /// serving edge's `X-Request-Id` header) attached to any captured
    /// [`crate::QueryTrace`]. The id is only materialized when the query
    /// is actually sampled or slow.
    pub fn query_traced(
        &self,
        query: &Graph,
        kind: QueryKind,
        request_id: Option<&str>,
    ) -> QueryReport {
        let start = Instant::now();
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let seq = self.telemetry.begin_query();
        let (mut key, key_ready) = query_key(&self.telemetry, &self.hints, query, start);

        // Pin the dataset for the query's duration: mutations take this
        // lock exclusively, so everything below sees one generation. The
        // guard is dropped before any path that may snapshot (snapshots
        // re-acquire the read lock; parking_lot locks are not reentrant).
        let data = self.data.read();
        let generation = data.dataset.generation();

        // ---- exact tier: the routed key's home shard -----------------------
        // A hit under a hinted key proves the hint right (see `KeyHints`). A
        // miss computes the fingerprint, and a wrong hint is looked up again
        // under it.
        let mut home = self.home_shard(key.routed);
        let mut hit = self.exact_tier(home, key.routed, query, kind, now);
        if hit.is_none() {
            let fp = key.fingerprint(&self.hints, query);
            if fp != key.routed {
                home = self.home_shard(fp);
                hit = self.exact_tier(home, fp, query, kind, now);
            }
        }
        if let Some((tier, served, steps)) = hit {
            drop(data);
            let fast = FastPath {
                telemetry: &self.telemetry,
                stats: &self.stats,
                seq,
                start,
                key: key_ready,
                request_id,
                kind,
                shard: home as u32,
                generation,
            };
            return fast.finish(tier, served, steps);
        }

        // ---- staged pipeline ---------------------------------------------
        // From here on only the computed key is used (computed above).
        let fp = key.fingerprint(&self.hints, query);
        let mut timing = QueryTiming::default();
        let mut ctx = PipelineCtx::new(query, kind, now, data.dataset.len());
        // Borrow this thread's warm probe buffers for the query's lifetime
        // (returned before the context is consumed below).
        PROBE_SCRATCH.with(|s| std::mem::swap(&mut ctx.probe_scratch, &mut s.borrow_mut()));

        // The query's features and verification profile are computed once
        // here — every shard's sub/super probe shares them, and admission
        // below moves them into the entry or row, instead of each of the N
        // shards and admission re-deriving both.
        ctx.features = Some(gc_index::feature_vec(query, &cache_features()));
        ctx.profile = Some(gc_iso::GraphProfile::new(query, None));

        // Probe every shard under its read lock; snapshot hit answers while
        // the lock is held (one clone per hit, straight into the context),
        // then merge shard-local hits into the context with encoded ids.
        // Per-shard hits are kept aside with their snapshot's range inside
        // `ctx.hit_answers` for the crediting write sections below.
        let mut per_shard: Vec<ShardProbe> = Vec::new();
        {
            let _span = self.telemetry.span(PipelineStage::Probe, &mut timing);
            for (si, shard) in self.shards.iter().enumerate() {
                let state = shard.state.read();
                let qf = ctx.features.as_ref().expect("just set");
                let q_profile = ctx.profile.as_ref().expect("just set");
                let hits = probe::probe_cases(
                    &state.cache,
                    &self.config,
                    query,
                    kind,
                    qf,
                    q_profile.as_ref(),
                    &mut ctx.probe_scratch,
                );
                if hits.count() == 0 {
                    ctx.hits.probe_tests += hits.probe_tests;
                    ctx.hits.probe_steps += hits.probe_steps;
                    continue;
                }
                let range_start = ctx.hit_answers.len();
                ctx.hit_answers.extend(probe::snapshot_answers(&state.cache, &hits));
                drop(state);
                ctx.hits.merge(encode_hits(si, &hits));
                per_shard.push((si, hits, range_start..ctx.hit_answers.len()));
            }
        }

        // What the hits alone say about the answer decides the plan: start
        // from their upper bound, or pay for Method M's filter.
        {
            let _span = self.telemetry.span(PipelineStage::Bound, &mut timing);
            bound::run(&mut ctx, data.dataset.live_mask(), self.plan);
        }
        if !ctx.filter_skipped {
            let _span = self.telemetry.span(PipelineStage::Filter, &mut timing);
            filter::run(&mut ctx, self.method.as_ref(), &data.dataset, &data.overlay);
        }
        {
            let _span = self.telemetry.span(PipelineStage::Prune, &mut timing);
            prune::run(&mut ctx);
        }
        {
            let _span = self.telemetry.span(PipelineStage::Verify, &mut timing);
            verify::run(&mut ctx, &data.dataset);
        }
        verify::observe_costs(&ctx, &self.cost);

        let admit_span = self.telemetry.span(PipelineStage::Admit, &mut timing);
        // ---- crediting: short write section per shard with hits -----------
        let bounded_mean_cost = ctx.filter_skipped.then(|| self.cost.mean_over(&ctx.cm));
        for (si, hits, range) in &per_shard {
            let shard = &self.shards[*si];
            let mut state = shard.state.write();
            let mut policy = shard.policy.lock();
            admit::credit_hits(
                &mut state.cache,
                policy.as_mut(),
                &self.cost,
                &ctx.cm,
                bounded_mean_cost,
                kind,
                now,
                hits,
                &ctx.hit_answers[range.clone()],
            );
        }

        // ---- admission: short write section on the home shard --------------
        let answer = ctx.answer();
        let outcome = {
            let shard = &self.shards[home];
            let mut state = shard.state.write();
            // A concurrent query for an isomorphic graph may have admitted
            // it (or stored its row) while we were verifying; don't store a
            // duplicate.
            if probe::find_exact(&state.cache, fp, query, kind).is_some() {
                AdmitOutcome::default()
            } else {
                let mut policy = shard.policy.lock();
                let ShardState { cache, window } = &mut *state;
                let mut outcome = admit::run(
                    cache,
                    policy.as_mut(),
                    window,
                    &self.config,
                    self.limits[home],
                    query,
                    kind,
                    fp,
                    ctx.features.take(), // the probe stage's extraction, reused
                    ctx.profile.take(),
                    &answer,
                    ctx.pruned.cm_size as u64,
                    ctx.verify_steps,
                    now,
                );
                outcome.admitted = outcome.admitted.map(|id| encode_entry_id(home, id));
                for id in &mut outcome.evicted {
                    *id = encode_entry_id(home, *id);
                }
                outcome
            }
        };
        drop(admit_span);

        let elapsed = start.elapsed();
        self.stats.add(&ctx.stats_delta(&outcome, elapsed));
        self.telemetry.finish_query(seq, elapsed, |slow| {
            pipeline_trace(
                seq,
                elapsed,
                &timing,
                request_id,
                kind,
                home as u32,
                generation,
                &ctx,
                &answer,
                slow,
            )
        });
        // Release the dataset first: a due rotation snapshots, and
        // snapshots re-acquire the data read lock.
        drop(data);
        if outcome.admitted.is_some() {
            self.count_admission();
        }

        PROBE_SCRATCH.with(|s| std::mem::swap(&mut ctx.probe_scratch, &mut s.borrow_mut()));
        ctx.into_report(answer, outcome, elapsed)
    }

    /// Count one admission toward the auto-snapshot trigger and snapshot
    /// when it is due. An entry reaches disk only through a snapshot, so
    /// this is the only store work an admission does. Must be called
    /// without holding the `data` lock or any shard lock.
    fn count_admission(&self) {
        if self.store.is_none() {
            return;
        }
        let admits_since = self.admits_since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.snapshot_interval.is_some_and(|n| admits_since >= n) {
            self.auto_snapshot();
        }
    }

    /// A snapshot the cache cuts on its own: an interval, journal-size or
    /// catch-up trigger. A failure is logged and counted by
    /// [`Self::snapshot_now`]; the next trigger retries. Must be called
    /// without holding the `data` lock or any shard lock: the snapshot
    /// re-acquires them.
    fn auto_snapshot(&self) {
        if let Err(e) = self.snapshot_now() {
            eprintln!("graphcache: auto-snapshot failed ({e})");
        }
    }

    // ---- dataset mutation ---------------------------------------------------

    /// Insert a data graph into the live dataset; returns its id. Callable
    /// from any thread (`&self`): the mutation takes the dataset write
    /// lock, which waits out every in-flight query and blocks new ones, so
    /// the repair below is atomic with respect to queries.
    ///
    /// Everything derived from the dataset is repaired in place: the method
    /// index is offered the graph (the filter overlay covers methods that
    /// decline — see [`gc_method::Method::on_insert_graph`]), every cached
    /// answer set re-verifies the new graph where its summary prefilter
    /// admits it, every answer-only row is dropped, and the delta is
    /// journaled — inside the write lock, so deltas always land in
    /// generation order.
    ///
    /// Dropping the rows here is what keeps them exact without a
    /// generation stamp: a query stores its row during admission, under
    /// the shard write lock *and* the `data` read lock it has held since
    /// entry, so every row in a shard was computed against the current
    /// generation, and a row computed against an older one can never land
    /// after this mutation (which holds the `data` write lock while it
    /// clears each shard under that shard's write lock). The rows are freed
    /// by each shard's next admission, not by the mutation.
    pub fn insert_graph(&self, g: Graph) -> GraphId {
        let mut data = self.data.write();
        let span = self.telemetry.mutate_span();
        let gid = Arc::make_mut(&mut data.dataset).insert_graph(g);
        let universe = data.dataset.len();
        if data.overlay.universe() < universe {
            data.overlay.grow(universe);
        }
        if !self.method.on_insert_graph(&data.dataset, gid) {
            data.overlay.insert(gid as usize);
        }
        PROBE_SCRATCH.with(|s| {
            let vf = &mut s.borrow_mut().vf;
            for shard in self.shards.iter() {
                let mut state = shard.state.write();
                state.cache.clear_rows();
                for id in state.cache.ids() {
                    let entry = state.cache.get_mut(id).expect("listed id is live");
                    entry.grow_answer(universe);
                    if entry.answers_inserted(&data.dataset, gid, Engine::Vf2, vf) {
                        entry.insert_answer(gid as usize);
                    }
                }
            }
        });
        let behind = self.journal_delta(&data.dataset);
        drop(data);
        drop(span);
        self.after_mutation(behind);
        gid
    }

    /// Tombstone a data graph; returns `false` if `gid` was already removed
    /// or never existed. Same quiescing discipline as
    /// [`Self::insert_graph`]; the graph is cleared from every shard's
    /// cached answer sets, the method index is told
    /// ([`gc_method::Method::on_remove_graph`]), every answer-only row is
    /// dropped (see [`Self::insert_graph`] for why that keeps them exact),
    /// and the delta is journaled.
    pub fn remove_graph(&self, gid: GraphId) -> bool {
        let mut data = self.data.write();
        // Decided on the shared handle: `make_mut` deep-copies the dataset
        // whenever a `dataset()` handle is alive, which a no-op must not
        // cost, and an unknown id must not panic under the write lock.
        if !data.dataset.is_live(gid) {
            return false;
        }
        let span = self.telemetry.mutate_span();
        let removed = Arc::make_mut(&mut data.dataset).remove_graph(gid);
        debug_assert!(removed, "liveness checked above");
        self.method.on_remove_graph(&data.dataset, gid);
        if (gid as usize) < data.overlay.universe() {
            data.overlay.remove(gid as usize);
        }
        for shard in self.shards.iter() {
            let mut state = shard.state.write();
            state.cache.clear_rows();
            for id in state.cache.ids() {
                let entry = state.cache.get_mut(id).expect("listed id is live");
                entry.remove_answer(gid as usize);
            }
        }
        let behind = self.journal_delta(&data.dataset);
        drop(data);
        drop(span);
        self.after_mutation(behind);
        true
    }

    /// Journal the dataset's latest mutation. Called under the `data`
    /// write lock, so deltas land in generation order. Returns whether the
    /// store is now behind: this append failed, or an earlier one did and
    /// no snapshot has caught up since — then the append is skipped, since
    /// the journal already misses a delta, and the catch-up snapshot
    /// covers this mutation too. The store's health never fails the
    /// mutation: answers come from memory.
    fn journal_delta(&self, dataset: &Dataset) -> bool {
        let Some(store) = self.store.as_ref() else { return false };
        if !self.behind.load(Ordering::Relaxed) {
            let op = dataset.ops().last().expect("a mutation was just applied");
            let delta = JournalOp {
                generation: dataset.generation(),
                resulting_fingerprint: dataset.content_fingerprint(),
                op,
            };
            match store.append(&[delta]) {
                Ok(_) => return false,
                Err(e) => {
                    eprintln!(
                        "graphcache: dataset delta append failed ({e}); \
                         persistence degraded until a snapshot catches up"
                    );
                    self.persist_errors.fetch_add(1, Ordering::Relaxed);
                    self.behind.store(true, Ordering::Relaxed);
                }
            }
        }
        self.buffered.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// A mutation's store work once the `data` lock has dropped: a store
    /// left behind cuts its catch-up snapshot, and a journal grown past
    /// `journal_max_bytes` is rotated. So a failed write is retried once
    /// per mutation, never on a timer and never by a query.
    fn after_mutation(&self, behind: bool) {
        let Some(store) = self.store.as_ref() else { return };
        if behind || self.config.journal_max_bytes.is_some_and(|b| store.journal_bytes() >= b) {
            self.auto_snapshot();
        }
    }

    /// The shard that owns fingerprint `fp`: its entries, its answer-only
    /// rows and its admission.
    fn home_shard(&self, fp: u64) -> usize {
        (fp % self.shards.len() as u64) as usize
    }

    /// The exact tier in `home` under `key`: one read-locked lookup. An
    /// answer-only row is served under it (a copy of its answer and text
    /// slot, no credit); an entry is credited, so it pays for the write
    /// lock. Returns the serving tier, what it served and the
    /// confirmation's steps.
    fn exact_tier(
        &self,
        home: usize,
        key: u64,
        query: &Graph,
        kind: QueryKind,
        now: u64,
    ) -> Option<(FastTier, admit::ExactServe, u64)> {
        let state = self.shards[home].state.read();
        match probe::find_exact(&state.cache, key, query, kind)? {
            (row, FastTier::Memo, steps) => {
                Some((FastTier::Memo, admit::ExactServe::of(row), steps))
            }
            _ => {
                drop(state);
                let (served, steps) = self.serve_exact(home, key, query, kind, now)?;
                Some((FastTier::Exact, served, steps))
            }
        }
    }

    /// Credit and copy out the exact hit for `query` (WL fingerprint `key`)
    /// from `home` under its write lock, where it is looked up again: `None`
    /// if the entry was evicted (or demoted to a row) since the read-locked
    /// check (caller falls back to the full pipeline).
    fn serve_exact(
        &self,
        home: usize,
        key: u64,
        query: &Graph,
        kind: QueryKind,
        now: u64,
    ) -> Option<(admit::ExactServe, u64)> {
        let shard = &self.shards[home];
        let mut state = shard.state.write();
        let (id, confirm_steps) = match probe::find_exact(&state.cache, key, query, kind)? {
            (e, FastTier::Exact, steps) => (e.id, steps),
            (_, FastTier::Memo, _) => return None, // a row's id is stale
        };
        let mut policy = shard.policy.lock();
        let served = admit::serve_exact(&mut state.cache, policy.as_mut(), id, now)?;
        Some((served, confirm_steps))
    }

    // ---- durable state (snapshot + journal) -------------------------------

    /// Attach a persistence store: writes an initial snapshot of the
    /// current state (establishing the journal's base), then journals
    /// every dataset mutation and honours the config's
    /// `snapshot_interval` / `journal_max_bytes` auto-snapshot knobs.
    /// Entries reach the store only through snapshots.
    ///
    /// Takes `&mut self`, so attach before sharing the cache behind an
    /// `Arc` (construction-time wiring, like the policy).
    pub fn attach_store(&mut self, store: Arc<CacheStore>) -> Result<SnapshotInfo, String> {
        store.set_fsync_policy(self.config.fsync_policy);
        self.store = Some(store);
        *self.behind.get_mut() = false;
        *self.persist_errors.get_mut() = 0;
        *self.buffered.get_mut() = 0;
        self.snapshot_now().map(|info| info.expect("store just attached"))
    }

    /// Snapshot the whole cache to the attached store (see
    /// [`Self::snapshot_to`]), resetting the auto-snapshot counter. A
    /// failed rotation resets it too, so a dead disk is retried once per
    /// `snapshot_interval` admissions rather than on every one, and counts
    /// toward the `persist_errors` gauge.
    ///
    /// Returns `Ok(None)` when no store is attached or another thread's
    /// snapshot is already in flight (single-flight).
    pub fn snapshot_now(&self) -> Result<Option<SnapshotInfo>, String> {
        let Some(store) = self.store.as_ref() else { return Ok(None) };
        if self.snapshotting.swap(true, Ordering::Acquire) {
            return Ok(None);
        }
        let result = self.snapshot_to(store);
        self.admits_since_snapshot.store(0, Ordering::Relaxed);
        if result.is_err() {
            self.persist_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.snapshotting.store(false, Ordering::Release);
        result.map(Some)
    }

    /// Write a full snapshot of this cache into `store`, rotating its
    /// journal, quiescing **one shard at a time**: each shard's entries are
    /// captured under its read lock while queries on every other shard
    /// proceed untouched.
    ///
    /// With one shard, or when rotation does not race queries (shutdown
    /// snapshots, a quiet period),
    /// `restore(snapshot(cache)) ≡ cache` exactly, the admission window's
    /// phase included. Otherwise the union is a *fuzzy* cut: an admission
    /// made in a shard after that shard's capture is just not in the
    /// snapshot, exactly like an admission after the last rotation. Every
    /// captured entry is a self-contained verified answer set, so this
    /// costs warmth only.
    pub fn snapshot_to(&self, store: &CacheStore) -> Result<SnapshotInfo, String> {
        // Dataset read lock FIRST (the cache-wide lock order), held across
        // the rotation: a mutation arriving mid-snapshot waits on the write
        // lock, so its delta lands in the *new* journal — never silently
        // dropped by the rotation — and the captured doc is one consistent
        // dataset generation.
        let data = self.data.read();
        let mut entries: Vec<EntryRecord> = Vec::new();
        let mut window_pending = 0;
        for (si, shard) in self.shards.iter().enumerate() {
            let state = shard.state.read();
            window_pending += state.window.pending();
            for e in state.cache.iter() {
                let mut rec = persist::entry_to_record(e);
                rec.orig_id = encode_entry_id(si, e.id);
                entries.push(rec);
            }
        }
        let doc = persist::build_doc(
            &data.dataset,
            &self.stats.snapshot(),
            &self.cost,
            self.clock.load(Ordering::Relaxed),
            u32::try_from(window_pending).unwrap_or(u32::MAX),
            self.policy_name,
            entries.into_iter(),
        );
        let info = store.rotate(&doc).map_err(|e| format!("snapshot failed: {e}"))?;
        // The doc holds every applied mutation, so the attached store is
        // caught up. Cleared before `data` drops: a mutation after the drop
        // appends (setting the flag again if that fails); clearing later
        // could erase the flag a mutation in that gap set, and its delta
        // would be lost while the health read healthy.
        if self.store.as_deref().is_some_and(|s| std::ptr::eq(s, store)) {
            self.behind.store(false, Ordering::Relaxed);
            self.buffered.store(0, Ordering::Relaxed);
        }
        drop(data);
        Ok(info)
    }

    /// The attached persistence store, if any.
    pub fn attached_store(&self) -> Option<&CacheStore> {
        self.store.as_deref()
    }

    /// Persistence health of the attached store (`None` when detached).
    /// `Degraded` means some applied mutation is not on disk until the
    /// next snapshot lands — the cache keeps serving exact answers; see
    /// [`PersistHealth`].
    pub fn persist_health(&self) -> Option<PersistHealth> {
        self.store.as_ref().map(|_| {
            if self.behind.load(Ordering::Relaxed) {
                PersistHealth::Degraded
            } else {
                PersistHealth::Healthy
            }
        })
    }

    /// Build a cache and warm-restart it from `store`: apply the journal's
    /// dataset deltas to the snapshot's dataset, re-insert the snapshot's
    /// entries (each routed to its home shard by fingerprint, through the
    /// normal insert path), attach the store, and write a fresh snapshot.
    /// Entries admitted after the last snapshot are not restored.
    ///
    /// Recovery is **fail-closed**: corrupt, truncated or torn files — and
    /// a snapshot taken over a different dataset — yield a *cold* (empty
    /// but fully functional) cache with the reason in the
    /// [`RecoveryReport`]; answers are never wrong, restarts only lose
    /// warmth. `Err` is reserved for an invalid `config` or an IO failure
    /// writing the fresh snapshot.
    pub fn restore_from(
        dataset: Arc<Dataset>,
        method: Arc<dyn Method>,
        make_policy: impl FnMut() -> Box<dyn ReplacementPolicy>,
        config: CacheConfig,
        store: Arc<CacheStore>,
    ) -> Result<(Self, RecoveryReport), String> {
        let mut gc = Self::new(dataset, method, make_policy, config)?;
        let report = gc.restore_state(&store);
        gc.attach_store(store)?;
        Ok((gc, report))
    }

    /// Restore `store`'s recovered state into this (fresh) cache.
    fn restore_state(&mut self, store: &CacheStore) -> RecoveryReport {
        let state = match store.load() {
            LoadOutcome::Cold { reason } => return RecoveryReport::cold(reason),
            LoadOutcome::Warm(state) => state,
        };
        // Resolve the dataset the persisted state describes *first*: the
        // snapshot's recorded ops and every journaled delta are re-applied
        // (each validated by fingerprint), and every entry below is
        // inserted against the final universe.
        let base = Arc::clone(&self.data.get_mut().dataset);
        let resolved = match persist::resolve_dataset(&state, &base) {
            Ok(resolved) => resolved,
            Err(report) => return *report,
        };
        let persist::ResolvedDataset { dataset, journal_inserted, journal_deltas } = resolved;
        let dataset = Arc::new(dataset);
        self.cost = CostModel::new(&dataset);
        {
            let data = self.data.get_mut();
            data.overlay = persist::rebuild_method_overlay(self.method.as_ref(), &dataset);
            data.dataset = Arc::clone(&dataset);
        }

        // Each snapshot entry goes to its home shard by fingerprint. A
        // snapshot is input from outside the program, so a duplicate is
        // skipped rather than trusted.
        let mut clock = state.doc.clock;
        for rec in &state.doc.entries {
            clock = clock.max(rec.stats.last_used).max(rec.stats.inserted_at);
            let fp = gc_graph::hash::fingerprint(&rec.graph);
            let home = self.home_shard(fp);
            let shard = &self.shards[home];
            let mut shard_state = shard.state.write();
            if probe::find_exact(&shard_state.cache, fp, &rec.graph, rec.kind).is_some() {
                continue;
            }
            let answer =
                BitSet::from_indices(dataset.len(), rec.answer.iter().map(|&i| i as usize));
            let stats = persist::record_to_stats(&rec.stats);
            let features = shard_state.cache.index().features_of(&rec.graph);
            let profile = gc_iso::GraphProfile::new(&rec.graph, None);
            let id = shard_state.cache.insert_with_features(
                rec.graph.clone(),
                profile,
                rec.kind,
                answer,
                rec.base_tests,
                rec.base_cost,
                stats.inserted_at,
                fp,
                features,
            );
            let entry = shard_state.cache.get_mut(id).expect("just inserted");
            entry.stats = stats.clone();
            let bytes = entry.memory_bytes();
            shard.policy.lock().on_restore(id, &stats, bytes, state.doc.clock);
        }
        self.clock.store(clock, Ordering::Relaxed);

        // Enforce each shard's capacity share. A shard legitimately rests
        // at up to `capacity + window_size - 1` entries between replacement
        // sweeps, so a same-config restore reproduces the snapshotted state
        // exactly; only a smaller restoring config (or different shard
        // routing) triggers a trim, down to capacity like a window-close
        // sweep would.
        //
        // The window resumes its phase: the snapshot's pending admissions,
        // dealt evenly over the shards — with one shard, exactly where the
        // snapshotted window stood.
        let pending = state.doc.window_pending as usize;
        let n_shards = self.shards.len();
        for (si, shard) in self.shards.iter().enumerate() {
            let mut shard_state = shard.state.write();
            let mut policy = shard.policy.lock();
            let allowance = self.limits[si].capacity + self.config.window_size - 1;
            if shard_state.cache.len() > allowance {
                let excess = shard_state.cache.len() - self.limits[si].capacity;
                for victim in policy.victims(excess) {
                    if shard_state.cache.remove(victim).is_some() {
                        policy.on_evict(victim);
                    }
                }
            }
            let share = pending / n_shards + usize::from(si < pending % n_shards);
            shard_state.window.restore_pending(share);
        }
        self.stats.add(&persist::stats_from_records(&state.doc.stats));
        for (gid, &(est, observed)) in state.doc.cost.iter().enumerate() {
            self.cost.restore_estimate(gid, est, observed);
        }

        // Repair restored answers against the mutations the snapshot
        // predates: tombstoned graphs are masked out, and each
        // journal-inserted graph is re-verified per entry.
        PROBE_SCRATCH.with(|s| {
            let vf = &mut s.borrow_mut().vf;
            for shard in self.shards.iter() {
                let mut shard_state = shard.state.write();
                for id in shard_state.cache.ids() {
                    let entry = shard_state.cache.get_mut(id).expect("listed id is live");
                    if dataset.has_tombstones() {
                        entry.mask_answer(dataset.live_mask());
                    }
                    for &gid in &journal_inserted {
                        if !dataset.live_mask().contains(gid as usize) {
                            continue; // inserted then removed: stays masked out
                        }
                        if entry.answers_inserted(&dataset, gid, Engine::Vf2, vf) {
                            entry.insert_answer(gid as usize);
                        } else {
                            entry.remove_answer(gid as usize);
                        }
                    }
                }
            }
        });

        RecoveryReport {
            warm: true,
            cold_reason: None,
            generation: state.generation,
            snapshot_entries: state.doc.entries.len(),
            journal_deltas,
            journal_legacy_skipped: state.legacy_records,
            journal_torn_bytes: state.torn_tail_bytes,
            entries_restored: self.len(),
            clock,
        }
    }

    // ---- accessors --------------------------------------------------------

    /// Run `f` over every shard's cache manager under its read lock, in
    /// shard order (diagnostics and invariant checks; the lock is held only
    /// for the duration of each call).
    pub fn for_each_shard(&self, mut f: impl FnMut(usize, &CacheManager)) {
        for (si, shard) in self.shards.iter().enumerate() {
            let state = shard.state.read();
            f(si, &state.cache);
        }
    }

    /// Snapshot of the global statistics, with the index-health gauges
    /// populated by summing every shard's containment-index directory.
    pub fn stats(&self) -> GlobalStats {
        let mut s = self.stats.snapshot();
        let health = self.index_health();
        s.distinct_features = health.distinct_features as u64;
        s.tombstoned_slots = health.tombstoned_slots as u64;
        s.kernel_dispatch = gc_graph::simd::kernel_name();
        {
            let data = self.data.read();
            s.dataset_generation = data.dataset.generation();
            s.dataset_live_graphs = data.dataset.live_count() as u64;
        }
        if let Some(health) = self.persist_health() {
            s.persist_health = health.as_str();
            s.persist_errors = self.persist_errors.load(Ordering::Relaxed);
            s.journal_records_buffered = self.buffered.load(Ordering::Relaxed);
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

    /// Point-in-time index-health gauges, summed across shards (each shard
    /// read under its own lock, like [`SharedGraphCache::for_each_shard`]).
    pub fn index_health(&self) -> IndexHealth {
        let mut health = IndexHealth::default();
        self.for_each_shard(|_, cm| {
            health.distinct_features += cm.index().distinct_features();
            health.tombstoned_slots += cm.index().tombstoned_slots();
        });
        health
    }

    /// Shared handle to the Statistics Monitor (lock-free).
    pub fn monitor(&self) -> StatsMonitor {
        self.stats.clone()
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().cache.len()).sum()
    }

    /// `true` iff no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The replacement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy_name
    }

    /// The base method's name.
    pub fn method_name(&self) -> String {
        self.method.name()
    }

    /// The dataset this cache serves (a point-in-time handle: mutations
    /// swap the shared `Arc`, so hold the clone only as long as a stale
    /// view is acceptable).
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.data.read().dataset)
    }

    /// Answer-only rows across shards (diagnostics): evicted entries and
    /// queries admission rejected, each serving exact repeats as a memo hit.
    pub fn memo_len(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().cache.row_count()).sum()
    }

    /// Cache memory footprint across shards (entries + per-shard index).
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().cache.memory_bytes()).sum()
    }

    /// Method M's index footprint, for Experiment II.
    pub fn method_index_bytes(&self) -> usize {
        self.method.index_memory_bytes()
    }

    /// Split an encoded entry id from a [`QueryReport`] into
    /// `(shard, local_id)`.
    pub fn decode_entry_id(id: EntryId) -> (usize, EntryId) {
        ((id >> LOCAL_BITS) as usize, id & LOCAL_MASK)
    }
}

fn encode_entry_id(shard: usize, local: EntryId) -> EntryId {
    debug_assert!(local <= LOCAL_MASK, "shard-local id overflows encoding");
    ((shard as EntryId) << LOCAL_BITS) | local
}

fn encode_hits(shard: usize, hits: &CacheHits) -> CacheHits {
    CacheHits {
        exact: hits.exact.map(|id| encode_entry_id(shard, id)),
        sub: hits.sub.iter().map(|&id| encode_entry_id(shard, id)).collect(),
        super_: hits.super_.iter().map(|&id| encode_entry_id(shard, id)).collect(),
        probe_tests: hits.probe_tests,
        probe_steps: hits.probe_steps,
    }
}

impl std::fmt::Debug for SharedGraphCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedGraphCache")
            .field("method", &self.method.name())
            .field("policy", &self.policy_name)
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_method::SiMethod;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<gc_graph::Label> = labels.iter().map(|&l| gc_graph::Label(l)).collect();
        gc_graph::graph_from_parts(&ls, edges).unwrap()
    }

    fn dataset() -> Arc<Dataset> {
        Arc::new(Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1], &[(0, 1)]),
        ]))
    }

    fn shared(config: CacheConfig) -> SharedGraphCache {
        SharedGraphCache::with_policy(dataset(), Box::new(SiMethod), PolicyKind::Hd, config)
            .unwrap()
    }

    /// Eight shards against one.
    #[test]
    fn answers_match_sequential_and_repeats_hit_exactly() {
        let gc = shared(CacheConfig::default());
        let seq = shared(CacheConfig { shards: 1, ..CacheConfig::default() });
        let queries = [g(&[0, 1], &[(0, 1)]), g(&[0], &[]), g(&[3], &[]), g(&[0, 1], &[(0, 1)])];
        for q in &queries {
            let a = gc.query(q, QueryKind::Subgraph);
            let b = seq.query(q, QueryKind::Subgraph);
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.exact_hit, b.exact_hit);
        }
        assert_eq!(gc.stats().exact_hits, 1, "the repeat is an exact hit");
        assert_eq!(gc.len(), seq.len());
    }

    #[test]
    fn concurrent_queries_are_exact() {
        let gc = Arc::new(shared(CacheConfig {
            capacity: 8,
            window_size: 2,
            shards: 4,
            ..CacheConfig::default()
        }));
        let queries =
            [g(&[0, 1], &[(0, 1)]), g(&[0], &[]), g(&[3], &[]), g(&[1, 0, 1], &[(0, 1), (1, 2)])];
        // Precompute expected answers sequentially (answers are
        // cache-state-independent).
        let expected: Vec<Vec<usize>> =
            queries.iter().map(|q| gc.query(q, QueryKind::Subgraph).answer.to_vec()).collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let gc = Arc::clone(&gc);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..25 {
                        let i = (t + round) % queries.len();
                        let got = gc.query(&queries[i], QueryKind::Subgraph);
                        assert_eq!(got.answer.to_vec(), expected[i]);
                    }
                });
            }
        });
        let stats = gc.stats();
        assert_eq!(stats.queries, 4 + 8 * 25);
        assert!(stats.exact_hits > 0);
    }

    #[test]
    fn capacity_is_respected_across_shards() {
        let gc = shared(CacheConfig {
            capacity: 4,
            window_size: 1,
            shards: 2,
            min_admit_tests: 0,
            ..CacheConfig::default()
        });
        for i in 0..20u32 {
            // Distinct single-vertex queries with distinct labels.
            gc.query(&g(&[i], &[]), QueryKind::Subgraph);
        }
        // Per-shard capacity is 4/2 = 2; window 1 sweeps on every
        // admission, so the resting total never exceeds the configured
        // capacity — same bound as one shard.
        assert!(gc.len() <= 4, "len {} exceeds configured capacity", gc.len());
        assert!(gc.stats().evicted > 0);
    }

    #[test]
    fn total_capacity_not_inflated_by_many_shards() {
        // capacity < shards: the per-shard split is 1,1,1,0,0,0,0,0 —
        // the shared cache must not retain ~shards entries for a
        // capacity-3 config (the former div_ceil split retained one per
        // shard, inflating capacity by up to 8x).
        let gc = shared(CacheConfig {
            capacity: 3,
            window_size: 1,
            shards: 8,
            min_admit_tests: 0,
            ..CacheConfig::default()
        });
        for i in 0..40u32 {
            gc.query(&g(&[i], &[]), QueryKind::Subgraph);
        }
        assert!(gc.len() <= 3, "len {} exceeds configured capacity 3", gc.len());
    }

    #[test]
    fn entry_id_encoding_roundtrips() {
        for (shard, local) in [(0usize, 0u32), (3, 17), (255, LOCAL_MASK)] {
            let enc = encode_entry_id(shard, local);
            assert_eq!(SharedGraphCache::decode_entry_id(enc), (shard, local));
        }
    }

    #[test]
    fn single_shard_config_works() {
        let gc = shared(CacheConfig { shards: 1, ..CacheConfig::default() });
        let q = g(&[0, 1], &[(0, 1)]);
        let r1 = gc.query(&q, QueryKind::Subgraph);
        let r2 = gc.query(&q, QueryKind::Subgraph);
        assert!(!r1.exact_hit && r2.exact_hit);
        assert_eq!(r1.answer, r2.answer);
        assert_eq!(gc.shard_count(), 1);
    }

    /// A presentation pool over a small molecule dataset: queries cut from
    /// dataset graphs, each followed by a renumbered isomorph of itself (a
    /// second presentation of the same class).
    fn hint_fixture(seed: u64) -> (Arc<Dataset>, Vec<Graph>) {
        use rand::{Rng, SeedableRng};
        let dataset = Arc::new(Dataset::new(gc_workload::molecule_dataset(20, seed)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pool = Vec::new();
        for i in 0..8u32 {
            let Some(q) =
                gc_workload::extract_query(dataset.graph(i), 2 + i as usize % 5, &mut rng)
            else {
                continue;
            };
            let n = q.vertex_count() as u32;
            let shift = rng.gen_range(1..n.max(2));
            let perm: Vec<u32> = (0..n).map(|v| (v + shift) % n).collect();
            let mut labels = vec![gc_graph::Label(0); n as usize];
            for v in q.vertices() {
                labels[perm[v as usize] as usize] = q.label(v);
            }
            let edges: Vec<(u32, u32)> =
                q.edges().map(|(a, b)| (perm[a as usize], perm[b as usize])).collect();
            let iso = gc_graph::graph_from_parts(&labels, &edges).unwrap();
            pool.push(q);
            pool.push(iso);
        }
        (dataset, pool)
    }

    /// Counters only: the time total differs between any two runs.
    fn counters(gc: &SharedGraphCache) -> GlobalStats {
        GlobalStats { total_time: std::time::Duration::ZERO, ..gc.monitor().snapshot() }
    }

    /// How a step poisons the queried presentation's hint slot first.
    #[derive(Debug, Clone, Copy)]
    enum Poison {
        /// Whatever earlier queries left.
        None,
        /// A random key.
        Random(u64),
        /// A torn pair: this presentation's tag, another one's key.
        Torn(usize),
        /// The fingerprint of a class the cache holds (another one's, when
        /// there is one).
        Cached(usize),
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Poisoned hints change nothing: every answer equals Method M's on
        /// the live dataset, and every report flag and counter equals a run
        /// whose table is cleared before each query (every key computed) —
        /// both kinds, 1 and 8 shards, a full and a one-slot table, with
        /// inserts and removals interleaved.
        #[test]
        fn poisoned_hints_change_no_answer_and_no_counter(
            seed in 0u64..1_000,
            min_admit_tests in 0usize..30,
            one_slot in proptest::prelude::any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let (dataset, pool) = hint_fixture(seed);
            for shards in [1, 8] {
                let config = CacheConfig {
                    capacity: 4,
                    window_size: 2,
                    shards,
                    min_admit_tests,
                    ..CacheConfig::default()
                };
                let build = || {
                    let mut gc = shared_over(Arc::clone(&dataset), config.clone());
                    if one_slot {
                        gc.hints = KeyHints::new(1);
                    }
                    gc
                };
                let (hinted, cleared) = (build(), build());
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ shards as u64);
                let mut fresh = gc_workload::molecule_dataset(16, seed + 1).into_iter();
                for step in 0..60 {
                    match rng.gen_range(0..12) {
                        0 => {
                            let g = fresh.next().expect("one fresh graph per step at most");
                            assert_eq!(hinted.insert_graph(g.clone()), cleared.insert_graph(g));
                        }
                        1 => {
                            let live: Vec<usize> = hinted.dataset().live_mask().iter().collect();
                            let gid = live[rng.gen_range(0..live.len())] as u32;
                            assert!(hinted.remove_graph(gid) && cleared.remove_graph(gid));
                        }
                        _ => {
                            let q = &pool[rng.gen_range(0..pool.len())];
                            let kind = if rng.gen_bool(0.5) {
                                QueryKind::Subgraph
                            } else {
                                QueryKind::Supergraph
                            };
                            let tag = gc_graph::hash::presentation_hash(q);
                            let poison = match rng.gen_range(0..4) {
                                0 => Poison::None,
                                1 => Poison::Random(rng.gen()),
                                2 => Poison::Torn(rng.gen_range(0..pool.len())),
                                _ => Poison::Cached(rng.gen()),
                            };
                            match poison {
                                Poison::None => {}
                                Poison::Random(key) => hinted.hints.put(tag, key),
                                Poison::Torn(other) => {
                                    let key = gc_graph::hash::fingerprint(&pool[other]);
                                    hinted.hints.put(tag, key);
                                }
                                Poison::Cached(pick) => {
                                    let own = gc_graph::hash::fingerprint(q);
                                    let mut keys = Vec::new();
                                    hinted.for_each_shard(|_, cm| {
                                        keys.extend(cm.iter().map(|e| e.fingerprint));
                                    });
                                    let others: Vec<u64> =
                                        keys.iter().copied().filter(|&k| k != own).collect();
                                    let keys = if others.is_empty() { keys } else { others };
                                    if !keys.is_empty() {
                                        hinted.hints.put(tag, keys[pick % keys.len()]);
                                    }
                                }
                            }
                            cleared.hints.clear();
                            let got = hinted.query(q, kind);
                            let want = cleared.query(q, kind);
                            let base = gc_method::execute_base(
                                &hinted.dataset(),
                                &SiMethod,
                                Engine::Vf2,
                                q,
                                kind,
                            );
                            let at = format!("step {step}, {shards} shards, {kind:?}, {poison:?}");
                            assert_eq!(got.answer, base.answer, "{at}: hinted answer");
                            assert_eq!(want.answer, base.answer, "{at}: cleared answer");
                            assert_eq!(
                                (got.exact_hit, got.memo_hit, got.admitted, &got.evicted),
                                (want.exact_hit, want.memo_hit, want.admitted, &want.evicted),
                                "{at}: tier and admission"
                            );
                        }
                    }
                    assert_eq!(counters(&hinted), counters(&cleared), "after step {step}");
                }
            }
        }
    }

    fn shared_over(dataset: Arc<Dataset>, config: CacheConfig) -> SharedGraphCache {
        SharedGraphCache::with_policy(dataset, Box::new(SiMethod), PolicyKind::Hd, config).unwrap()
    }

    /// Four threads query presentations and their renumbered isomorphs,
    /// both kinds, through a one-slot table: every presentation collides,
    /// so the slot is overwritten (and read torn) all the time.
    #[test]
    fn colliding_presentations_answer_exactly_under_threads() {
        let (dataset, pool) = hint_fixture(5);
        let kinds = [QueryKind::Subgraph, QueryKind::Supergraph];
        let expected: Vec<Vec<BitSet>> = pool
            .iter()
            .map(|q| {
                kinds
                    .iter()
                    .map(|&kind| {
                        gc_method::execute_base(&dataset, &SiMethod, Engine::Vf2, q, kind).answer
                    })
                    .collect()
            })
            .collect();
        let config = CacheConfig { capacity: 6, window_size: 2, ..CacheConfig::default() };
        let mut gc = shared_over(dataset, config);
        gc.hints = KeyHints::new(1);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (gc, pool, expected) = (&gc, &pool, &expected);
                scope.spawn(move || {
                    for round in 0..200 {
                        let i = (t * 7 + round * 3) % pool.len();
                        let k = (t + round) % 2;
                        let got = gc.query(&pool[i], kinds[k]);
                        assert_eq!(got.answer, expected[i][k], "thread {t}, round {round}");
                    }
                });
            }
        });
        let stats = gc.stats();
        assert_eq!(stats.queries, 4 * 200);
        assert!(stats.exact_hits + stats.memo_hits > 0, "repeats are served whole");
    }

    #[test]
    fn invalid_config_rejected() {
        let err = SharedGraphCache::with_policy(
            dataset(),
            Box::new(SiMethod),
            PolicyKind::Lru,
            CacheConfig { shards: 0, ..CacheConfig::default() },
        );
        assert!(err.is_err());
    }
}
