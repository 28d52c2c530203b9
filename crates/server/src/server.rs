//! The overload-hardened server: bounded accept loop, fixed worker pool,
//! load-shedding admission queue, per-request deadlines, and graceful
//! drain.
//!
//! ## Overload model
//!
//! Work enters through exactly one bounded channel. The accept thread
//! `try_send`s each connection into a `sync_channel(queue_depth)`; a full
//! queue means the system is saturated, and the connection is *shed* on
//! the spot with `503` + `Retry-After` (a few microseconds of work) —
//! never queued without bound. Connections that make it into the queue
//! but wait longer than the request deadline are also shed when a worker
//! finally picks them up: serving a request the client has given up on
//! wastes the capacity that shedding exists to protect.
//!
//! ## Deadline model
//!
//! Every request has a deadline: [`ServerConfig::request_deadline`],
//! tightenable per request with an `X-Deadline-Ms` header. Time spent in
//! the queue and reading the request counts against it. A request whose
//! deadline expires before execution gets `504`; a slow client that
//! stalls mid-request gets `408` (socket read timeouts bound every
//! blocking read — the slow-loris defense); a request that *completes*
//! past its deadline is still answered (the answer is exact either way)
//! but flagged `deadline_exceeded` and counted in
//! `requests_timed_out`.
//!
//! ## Drain model
//!
//! [`Server::drain`] stops the accept loop, lets workers finish queued
//! and in-flight requests within [`ServerConfig::drain_timeout`], clears
//! any injected fault plan, and cuts a final snapshot when a store is
//! attached — so a subsequent warm restart serves exact answers
//! immediately.

use crate::api::{ErrorBody, QueryReply, StageSummary, StatsResponse, TracesResponse};
use crate::http::{parse_request, HttpLimits, InPlace, Parse, Request, Response};
use crate::metrics::{ServerMetrics, ServingStats, Stage};
use gc_core::SharedGraphCache;
use gc_method::QueryKind;
use gc_store::faults::FaultPlan;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Admission-queue depth; connections beyond this are shed with `503`.
    pub queue_depth: usize,
    /// Default per-request deadline (queue wait + read + execute).
    pub request_deadline: Duration,
    /// Socket read timeout — bounds every blocking read (slow-loris).
    pub read_timeout: Duration,
    /// Socket write timeout — bounds writes to slow readers.
    pub write_timeout: Duration,
    /// Bound on graceful drain: workers still busy after this are left
    /// behind (their socket timeouts bound how long they linger).
    pub drain_timeout: Duration,
    /// `Retry-After` seconds sent with shed (`503`) responses.
    pub retry_after_secs: u64,
    /// HTTP parser limits.
    pub limits: HttpLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            request_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            limits: HttpLimits::default(),
        }
    }
}

/// What [`Server::drain`] accomplished.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Worker threads that exited within the drain bound.
    pub workers_finished: usize,
    /// Total worker threads.
    pub workers_total: usize,
    /// `true` when the drain bound expired with workers still busy.
    pub forced: bool,
    /// Wall-clock duration of the drain.
    pub drained_in: Duration,
    /// Generation of the final snapshot, when a store was attached and
    /// the snapshot succeeded.
    pub snapshot_generation: Option<u64>,
}

/// State shared by the accept thread, workers, and the handle.
struct Shared {
    cache: Arc<SharedGraphCache>,
    config: ServerConfig,
    metrics: ServerMetrics,
    draining: AtomicBool,
}

/// A running server. Dropping it without calling [`Server::drain`] leaves
/// the threads running for the process lifetime; drain for an orderly
/// stop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    done_rx: Receiver<usize>,
}

/// Handle alias (re-exported for API clarity).
pub type ServerHandle = Server;

impl Server {
    /// Bind and start serving `cache` per `config`.
    pub fn start(cache: Arc<SharedGraphCache>, config: ServerConfig) -> Result<Server, String> {
        Self::start_with_faults(cache, config, None)
    }

    /// [`Server::start`], additionally installing `fault_plan` on the
    /// cache's attached store for the server's lifetime — fault tests
    /// inject store faults through the same lifecycle a real deployment
    /// would wire them through. The plan is cleared during
    /// [`Server::drain`] so the final snapshot is taken fault-free.
    pub fn start_with_faults(
        cache: Arc<SharedGraphCache>,
        config: ServerConfig,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Result<Server, String> {
        if config.workers == 0 || config.queue_depth == 0 {
            return Err("server needs at least 1 worker and queue depth 1".into());
        }
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;

        if let Some(plan) = fault_plan {
            match cache.attached_store() {
                Some(store) => store.set_fault_plan(Some(plan)),
                None => return Err("fault plan given but no store is attached".into()),
            }
        }

        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        let shared = Arc::new(Shared {
            cache,
            config,
            metrics: ServerMetrics::new(),
            draining: AtomicBool::new(false),
        });

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                let done_tx = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("gc-server-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&shared, &rx);
                        let _ = done_tx.send(i);
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gc-server-accept".into())
                .spawn(move || accept_loop(listener, tx, &shared))
                .expect("spawn accept thread")
        };

        Ok(Server { shared, addr, accept, workers, done_rx })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The served cache.
    pub fn cache(&self) -> &Arc<SharedGraphCache> {
        &self.shared.cache
    }

    /// The server's own serving counters — what dashboards render beside
    /// the cache's for a served cache.
    pub fn serving_stats(&self) -> ServingStats {
        self.shared.metrics.serving()
    }

    /// Gracefully stop: stop accepting, let workers finish in-flight
    /// work within [`ServerConfig::drain_timeout`], clear any injected
    /// fault plan, and cut a final snapshot when a store is attached.
    pub fn drain(self) -> DrainReport {
        let t0 = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        // The accept thread blocks in `accept()`; a self-connection wakes
        // it so it can observe the drain flag and exit (dropping the
        // queue sender, which in turn lets idle workers exit).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let _ = self.accept.join();

        let total = self.workers.len();
        let mut finished = vec![false; total];
        let mut n_done = 0usize;
        let deadline = t0 + self.shared.config.drain_timeout;
        while n_done < total {
            let now = Instant::now();
            let Some(budget) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                break;
            };
            match self.done_rx.recv_timeout(budget) {
                Ok(i) => {
                    finished[i] = true;
                    n_done += 1;
                }
                Err(_) => break,
            }
        }
        for (i, handle) in self.workers.into_iter().enumerate() {
            if finished[i] {
                let _ = handle.join();
            }
            // Workers still busy past the bound are left detached; their
            // socket read/write timeouts bound how long they can linger,
            // and the drain flag makes them close keep-alive connections
            // after the in-flight request.
        }
        let forced = n_done < total;

        if let Some(store) = self.shared.cache.attached_store() {
            store.set_fault_plan(None);
        }
        let snapshot_generation = match self.shared.cache.snapshot_now() {
            Ok(info) => info.map(|i| i.generation),
            Err(e) => {
                eprintln!("gc-server: final drain snapshot failed ({e})");
                None
            }
        };
        DrainReport {
            workers_finished: n_done,
            workers_total: total,
            forced,
            drained_in: t0.elapsed(),
            snapshot_generation,
        }
    }
}

/// Process-wide sequence for generated request ids.
static REQUEST_ID_SEQ: AtomicU64 = AtomicU64::new(0);

/// Generate a request id for a request that arrived without one:
/// `gc-<pid>-<seq>` — unique within the process, greppable across a
/// restart (the pid changes).
fn generate_request_id() -> String {
    let seq = REQUEST_ID_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("gc-{:x}-{seq:x}", std::process::id())
}

/// The id to echo back: the client's `X-Request-Id` when present, a
/// generated one otherwise. Every response carries one — including shed
/// `503`s and timeout `408`/`504`s — so any observed failure can be
/// joined against the slow-query log.
fn request_id_for(req: &Request) -> Cow<'_, str> {
    req.header("x-request-id").map_or_else(|| Cow::Owned(generate_request_id()), Cow::Borrowed)
}

// ---- accept loop -----------------------------------------------------------

fn accept_loop(listener: TcpListener, tx: SyncSender<(TcpStream, Instant)>, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Transient accept errors (e.g. the peer reset before we got
            // to it) must not kill the accept loop.
            Err(_) => {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::Relaxed) {
            // The drain self-connection (or a straggler) lands here.
            return;
        }
        match tx.try_send((stream, Instant::now())) {
            Ok(()) => {
                shared.metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full((stream, _))) => shed_connection(stream, shared),
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Queue full: answer `503` + `Retry-After` immediately and close. The
/// write gets a short timeout so a slow shed client cannot stall the
/// accept loop.
fn shed_connection(mut stream: TcpStream, shared: &Shared) {
    shared.metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let retry = shared.config.retry_after_secs;
    let body = ErrorBody {
        error: "overloaded: admission queue full".into(),
        retry_after_secs: Some(retry),
    };
    let resp = Response::json(503, serde_json::to_string(&body).unwrap_or_default())
        .with_header("retry-after", retry.to_string())
        .with_header("x-request-id", generate_request_id());
    let _ = stream.write_all(&resp.encode(false));
}

// ---- workers ---------------------------------------------------------------

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<(TcpStream, Instant)>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let next = rx.lock().recv();
        let Ok((stream, enqueued)) = next else { return };
        let waited = enqueued.elapsed();
        shared.metrics.observe(Stage::Queue, waited);
        if waited > shared.config.request_deadline {
            // The client has likely given up; serving now wastes the
            // capacity shedding protects.
            shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
            shed_queued(stream, shared);
            continue;
        }
        handle_connection(stream, waited, shared);
    }
}

fn shed_queued(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let retry = shared.config.retry_after_secs;
    let body =
        ErrorBody { error: "shed: queued past deadline".into(), retry_after_secs: Some(retry) };
    let resp = Response::json(503, serde_json::to_string(&body).unwrap_or_default())
        .with_header("retry-after", retry.to_string())
        .with_header("x-request-id", generate_request_id());
    let _ = stream.write_all(&resp.encode(false));
}

/// Serve one connection: incremental parse with keep-alive and
/// pipelining, socket timeouts on every read/write, and the per-request
/// deadline from the first byte.
fn handle_connection(mut stream: TcpStream, mut queue_wait: Duration, shared: &Shared) {
    let cfg = &shared.config;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    // Every response on this connection is written into `out`, reused
    // across its keep-alive requests and sent with one `write_all`.
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let mut first_byte: Option<Instant> = None;
    loop {
        match parse_request(&buf, &cfg.limits) {
            Parse::Complete { request, consumed } => {
                let parse_time = first_byte.take().map(|t| t.elapsed()).unwrap_or_default();
                shared.metrics.observe(Stage::Parse, parse_time);
                buf.drain(..consumed);
                // Queue wait counts against the *first* request only;
                // later keep-alive requests never sat in the queue.
                let waited = std::mem::take(&mut queue_wait);
                let request_id = request_id_for(&request);
                let reply = route(&request, &request_id, waited, parse_time, shared, &mut out);
                let keep = request.keep_alive() && !shared.draining.load(Ordering::Relaxed);
                let start = match reply {
                    Reply::Written(pending) => pending.finish(&mut out, keep),
                    Reply::Response(response) => {
                        out.clear();
                        response
                            .with_header("x-request-id", request_id.into_owned())
                            .encode_into(&mut out, keep);
                        0
                    }
                };
                let t0 = Instant::now();
                if stream.write_all(&out[start..]).is_err() {
                    return;
                }
                shared.metrics.observe(Stage::Write, t0.elapsed());
                if !keep {
                    return;
                }
                // A pipelined next request may already be buffered; loop
                // back to the parser before reading.
                continue;
            }
            Parse::Error(e) => {
                shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                let body = ErrorBody { error: e.describe().into(), retry_after_secs: None };
                let resp =
                    Response::json(e.status(), serde_json::to_string(&body).unwrap_or_default())
                        .with_header("x-request-id", generate_request_id());
                let _ = stream.write_all(&resp.encode(false));
                return;
            }
            Parse::Partial => {}
        }

        // Slow-loris bound: a partially-received request cannot outlive
        // its deadline no matter how steadily the client trickles bytes.
        if first_byte.is_some_and(|t| t.elapsed() > cfg.request_deadline) {
            answer_timeout(&mut stream, shared);
            return;
        }

        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if first_byte.is_none() {
                    first_byte = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    // Idle keep-alive connection: close quietly.
                    return;
                }
                // Mid-request stall: the read timeout is the slow-loris
                // backstop when the deadline has not fired yet.
                answer_timeout(&mut stream, shared);
                return;
            }
            Err(_) => return,
        }
    }
}

fn answer_timeout(stream: &mut TcpStream, shared: &Shared) {
    shared.metrics.requests_timed_out.fetch_add(1, Ordering::Relaxed);
    let body = ErrorBody { error: "request timed out".into(), retry_after_secs: None };
    let resp = Response::json(408, serde_json::to_string(&body).unwrap_or_default())
        .with_header("x-request-id", generate_request_id());
    let _ = stream.write_all(&resp.encode(false));
}

// ---- routing ---------------------------------------------------------------

/// What a routed request produced.
enum Reply {
    /// A response still to be framed: the connection adds `x-request-id`
    /// and encodes it into its output buffer.
    Response(Response),
    /// A `/query` reply already written into the output buffer — headers
    /// (`x-request-id` included) and body — awaiting only its framing.
    Written(InPlace),
}

fn route(
    req: &Request,
    request_id: &str,
    queue_wait: Duration,
    parse_time: Duration,
    shared: &Shared,
    out: &mut Vec<u8>,
) -> Reply {
    shared.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => {
            match handle_query(req, request_id, queue_wait, parse_time, shared, out) {
                Ok(written) => return Reply::Written(written),
                Err(response) => response,
            }
        }
        ("POST", "/mutate") => handle_mutate(req, shared),
        ("GET", "/stats") => handle_stats(shared),
        ("GET", "/metrics") => {
            let cache = &shared.cache;
            let text = shared.metrics.render_prometheus(
                &cache.stats(),
                cache.len(),
                cache.telemetry(),
                cache.persist_health().map_or(0, |(_, errors, _)| errors),
            );
            Response::text(200, text)
        }
        ("GET", "/debug/traces") => handle_traces(req, shared, false),
        ("GET", "/debug/slow") => handle_traces(req, shared, true),
        ("GET", "/healthz") => Response::text(200, "ok"),
        ("GET", "/readyz") => handle_readyz(shared),
        (
            _,
            "/query" | "/mutate" | "/stats" | "/metrics" | "/debug/traces" | "/debug/slow"
            | "/healthz" | "/readyz",
        ) => error_response(405, format!("method {} not allowed for {}", req.method, req.path)),
        _ => error_response(404, format!("no such endpoint: {}", req.path)),
    };
    Reply::Response(response)
}

fn error_response(status: u16, error: String) -> Response {
    let body = ErrorBody { error, retry_after_secs: None };
    Response::json(status, serde_json::to_string(&body).unwrap_or_default())
}

/// `POST /query`: decode the t/v/e body, run the query, and write the reply
/// straight into `out` — no [`crate::QueryResponse`] is built. An exact or
/// memo hit copies its entry's or row's shared [`gc_core::AnswerText`]
/// (rendered by the first request that needed it); pipeline answers are
/// rendered by [`gc_graph::BitSet::write_ids`] as they are written. The
/// decode and the write-out are the `render` stage; the query alone is
/// `execute`. A request that cannot be served comes back as an error
/// response.
fn handle_query(
    req: &Request,
    request_id: &str,
    queue_wait: Duration,
    parse_time: Duration,
    shared: &Shared,
    out: &mut Vec<u8>,
) -> Result<InPlace, Response> {
    let decode_start = Instant::now();
    // The effective deadline: the server default, tightened by the
    // client's X-Deadline-Ms if present.
    let mut deadline = shared.config.request_deadline;
    if let Some(ms) = req.header("x-deadline-ms").and_then(|v| v.parse::<u64>().ok()) {
        deadline = deadline.min(Duration::from_millis(ms));
    }
    let consumed = queue_wait + parse_time;
    if consumed >= deadline {
        shared.metrics.requests_timed_out.fetch_add(1, Ordering::Relaxed);
        return Err(error_response(504, "deadline expired before execution".into()));
    }

    let kind = match req.query_param("kind") {
        None | Some("sub") => QueryKind::Subgraph,
        Some("super") => QueryKind::Supergraph,
        Some(other) => {
            return Err(error_response(400, format!("unknown kind {other:?} (want sub|super)")))
        }
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Err(error_response(400, "query body is not UTF-8".into())),
    };
    let graphs = match gc_graph::io::parse_dataset(text) {
        Ok(g) => g,
        Err(e) => return Err(error_response(400, format!("query body is not t/v/e: {e}"))),
    };
    let [query] = graphs.as_slice() else {
        return Err(error_response(
            400,
            format!("query body must contain exactly one graph, got {}", graphs.len()),
        ));
    };
    let decode = decode_start.elapsed();

    let t0 = Instant::now();
    let report = shared.cache.query_traced(query, kind, req.header("x-request-id"));
    let execute = t0.elapsed();
    shared.metrics.observe(Stage::Execute, execute);
    let deadline_exceeded = consumed + execute > deadline;
    if deadline_exceeded {
        shared.metrics.requests_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    let write_start = Instant::now();
    let reply = QueryReply {
        report: &report,
        queue_us: queue_wait.as_micros() as u64,
        parse_us: parse_time.as_micros() as u64,
        execute_us: execute.as_micros() as u64,
        deadline_exceeded,
    };
    let pending = InPlace::begin(
        out,
        200,
        &[
            ("content-type", b"application/json"),
            ("x-gc-tier", report.tier().as_bytes()),
            ("x-request-id", request_id.as_bytes()),
        ],
    );
    reply.write_json(out);
    shared.metrics.observe(Stage::Render, decode + write_start.elapsed());
    Ok(pending)
}

/// `POST /mutate?op=insert` (t/v/e body, exactly one graph) or
/// `POST /mutate?op=remove&id=N`. Mutations are serialized by the cache's
/// dataset lock, repair every cached answer set, drop every answer-only
/// row, and journal one dataset delta each.
fn handle_mutate(req: &Request, shared: &Shared) -> Response {
    match req.query_param("op") {
        Some("insert") => {
            let text = match std::str::from_utf8(&req.body) {
                Ok(t) => t,
                Err(_) => return error_response(400, "mutate body is not UTF-8".into()),
            };
            let graphs = match gc_graph::io::parse_dataset(text) {
                Ok(g) => g,
                Err(e) => return error_response(400, format!("mutate body is not t/v/e: {e}")),
            };
            let [graph] = graphs.as_slice() else {
                return error_response(
                    400,
                    format!("mutate body must contain exactly one graph, got {}", graphs.len()),
                );
            };
            let gid = shared.cache.insert_graph(graph.clone());
            mutate_response("insert", gid, true, shared)
        }
        Some("remove") => {
            let Some(gid) = req.query_param("id").and_then(|v| v.parse::<u32>().ok()) else {
                return error_response(400, "op=remove needs an id=N query parameter".into());
            };
            if (gid as usize) >= shared.cache.dataset().len() {
                return error_response(404, format!("graph id {gid} is out of range"));
            }
            let applied = shared.cache.remove_graph(gid);
            mutate_response("remove", gid, applied, shared)
        }
        other => error_response(400, format!("unknown op {other:?} (want insert|remove)")),
    }
}

fn mutate_response(op: &str, gid: u32, applied: bool, shared: &Shared) -> Response {
    let dataset = shared.cache.dataset();
    let resp = crate::api::MutateResponse {
        op: op.into(),
        graph_id: gid,
        applied,
        generation: dataset.generation(),
        live_graphs: dataset.live_count() as u64,
    };
    match serde_json::to_string(&resp) {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, format!("mutate serialization failed: {e}")),
    }
}

/// `GET /stats`: the cache's counters, then each gauge read from its owner
/// — the dataset, the kernel tier, the store, the telemetry hub and the
/// server's own metrics.
fn handle_stats(shared: &Shared) -> Response {
    let cache = &shared.cache;
    let s = cache.stats();
    // Read and drop at once: a live dataset handle would make the next
    // mutation copy the dataset.
    let (generation, live_graphs) = {
        let dataset = cache.dataset();
        (dataset.generation(), dataset.live_count() as u64)
    };
    let (persist_health, persist_errors, journal_records_buffered) = cache
        .persist_health()
        .map_or(("", 0, 0), |(h, errors, buffered)| (h.as_str(), errors, buffered));
    let serving = shared.metrics.serving();
    let telemetry = cache.telemetry();
    let resp = StatsResponse {
        queries: s.queries,
        hit_queries: s.hit_queries,
        exact_hits: s.exact_hits,
        memo_hits: s.memo_hits,
        exact_confirm_iso: s.exact_confirm_iso,
        sub_hits: s.sub_hits,
        super_hits: s.super_hits,
        tests_executed: s.tests_executed,
        probe_tests: s.probe_tests,
        tests_saved: s.tests_saved,
        filter_skipped: s.filter_skipped,
        admitted: s.admitted,
        evicted: s.evicted,
        entries: cache.len(),
        dataset_generation: generation,
        dataset_live_graphs: live_graphs,
        hit_ratio: s.hit_ratio(),
        kernel_dispatch: gc_graph::simd::kernel_name().into(),
        persist_health: persist_health.into(),
        persist_errors,
        journal_records_buffered,
        requests_total: serving.requests_total,
        requests_shed: serving.requests_shed,
        requests_timed_out: serving.requests_timed_out,
        uptime_secs: serving.uptime_secs,
        draining: shared.draining.load(Ordering::Relaxed),
        workers: shared.config.workers,
        queue_depth: shared.config.queue_depth,
        pipeline_p50_us: telemetry.total().percentile_us(50.0),
        pipeline_p90_us: telemetry.total().percentile_us(90.0),
        pipeline_p99_us: telemetry.total().percentile_us(99.0),
        traces_sampled: telemetry.sampled_count(),
        slow_queries: telemetry.slow_count(),
        stages: telemetry.labelled_stages().map(|(label, h)| stage_summary(label, h)).collect(),
        request_stages: Stage::ALL
            .iter()
            .map(|&st| stage_summary(st.label(), shared.metrics.stage(st)))
            .collect(),
    };
    match serde_json::to_string(&resp) {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, format!("stats serialization failed: {e}")),
    }
}

fn stage_summary(label: &str, h: &crate::metrics::Histogram) -> StageSummary {
    StageSummary {
        stage: label.into(),
        count: h.count(),
        p50_us: h.percentile_us(50.0),
        p90_us: h.percentile_us(90.0),
        p99_us: h.percentile_us(99.0),
    }
}

/// `GET /debug/traces?n=` (sampled ring) / `GET /debug/slow?n=` (slow
/// ring): the most recent `n` traces (default 20), newest first.
fn handle_traces(req: &Request, shared: &Shared, slow: bool) -> Response {
    let n = req.query_param("n").and_then(|v| v.parse::<usize>().ok()).unwrap_or(20);
    let telemetry = shared.cache.telemetry();
    let traces = if slow { telemetry.recent_slow(n) } else { telemetry.recent_traces(n) };
    match serde_json::to_string(&TracesResponse { traces }) {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, format!("trace serialization failed: {e}")),
    }
}

/// Readiness: `503` while draining; `200` otherwise — including a
/// `Degraded` store, which keeps serving exact answers while the next
/// mutation retries its snapshot, with the state named in the body so
/// operators can see it.
fn handle_readyz(shared: &Shared) -> Response {
    if shared.draining.load(Ordering::Relaxed) {
        return Response::text(503, "draining");
    }
    match shared.cache.persist_health() {
        Some((h, ..)) => Response::text(200, format!("ready (persistence {})", h.as_str())),
        None => Response::text(200, "ready (no store attached)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QueryResponse;
    use crate::client::HttpClient;
    use gc_core::{CacheConfig, PolicyKind};
    use gc_method::{Dataset, SiMethod};
    use gc_workload::molecule_dataset;

    fn start_server(config: ServerConfig) -> (Server, Arc<Dataset>) {
        let graphs = molecule_dataset(24, 42);
        let dataset = Arc::new(Dataset::new(graphs));
        let cache = SharedGraphCache::with_policy(
            Arc::clone(&dataset),
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig { capacity: 16, window_size: 4, ..CacheConfig::default() },
        )
        .unwrap();
        (Server::start(Arc::new(cache), config).unwrap(), dataset)
    }

    fn quick_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            request_deadline: Duration::from_secs(2),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            drain_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_exact_answers_over_http() {
        let (server, dataset) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let query = dataset.graphs()[0].clone();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&query));

        let resp = client.post("/query?kind=sub", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        let parsed: QueryResponse = serde_json::from_str(&resp.body_text()).unwrap();
        let base = gc_method::execute_base(
            &dataset,
            &SiMethod,
            gc_method::Engine::Vf2,
            &query,
            QueryKind::Subgraph,
        );
        assert_eq!(parsed.answer, base.answer.to_vec());

        // Again: the repeat must be an exact hit with the same answer.
        let resp = client.post("/query?kind=sub", body.as_bytes()).unwrap();
        let again: QueryResponse = serde_json::from_str(&resp.body_text()).unwrap();
        assert!(again.exact_hit);
        assert_eq!(again.answer, parsed.answer);
        server.drain();
    }

    #[test]
    fn health_stats_and_metrics_endpoints() {
        let (server, _) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let ready = client.get("/readyz").unwrap();
        assert_eq!(ready.status, 200);
        assert!(ready.body_text().contains("no store attached"));

        let stats = client.get("/stats").unwrap();
        assert_eq!(stats.status, 200);
        let parsed: StatsResponse = serde_json::from_str(&stats.body_text()).unwrap();
        assert!(parsed.requests_total >= 2);
        assert_eq!(parsed.workers, 2);
        assert!(!parsed.draining);

        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body_text().contains("gc_requests_total"));
        assert!(metrics.body_text().contains("gc_request_stage_microseconds_bucket"));
        server.drain();
    }

    /// The names clients and scrapers depend on: the keys of `/stats`, the
    /// metric families of `/metrics`, and the fields of a trace.
    #[test]
    fn public_names_are_pinned() {
        let (server, dataset) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));
        let resp = client
            .request("POST", "/query?kind=sub", &[("x-request-id", "pin-1")], body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200);
        let keys = |v: &serde_json::Value| -> Vec<String> {
            v.as_object().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };

        let stats: serde_json::Value =
            serde_json::from_str(&client.get("/stats").unwrap().body_text()).unwrap();
        let want = "queries hit_queries exact_hits memo_hits exact_confirm_iso sub_hits \
            super_hits tests_executed probe_tests tests_saved filter_skipped admitted evicted \
            entries dataset_generation dataset_live_graphs hit_ratio kernel_dispatch \
            persist_health persist_errors journal_records_buffered requests_total requests_shed \
            requests_timed_out uptime_secs draining workers queue_depth pipeline_p50_us \
            pipeline_p90_us pipeline_p99_us traces_sampled slow_queries stages request_stages";
        assert_eq!(keys(&stats), want.split_whitespace().collect::<Vec<_>>());

        let metrics = client.get("/metrics").unwrap().body_text();
        let families: Vec<&str> =
            metrics.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
        let want = "gc_uptime_seconds gauge
            gc_connections_accepted_total counter
            gc_requests_total counter
            gc_requests_shed_total counter
            gc_requests_timed_out_total counter
            gc_parse_errors_total counter
            gc_request_stage_microseconds histogram
            gc_pipeline_stage_microseconds histogram
            gc_query_microseconds histogram
            gc_query_p50_microseconds gauge
            gc_query_p99_microseconds gauge
            gc_traces_sampled_total counter
            gc_slow_queries_total counter
            gc_cache_queries_total counter
            gc_cache_hit_queries_total counter
            gc_cache_exact_hits_total counter
            gc_exact_confirm_iso_total counter
            gc_cache_tests_executed_total counter
            gc_cache_tests_saved_total counter
            gc_filter_skipped_total counter
            gc_cache_admitted_total counter
            gc_cache_evicted_total counter
            gc_cache_entries gauge
            gc_cache_persist_errors gauge";
        let want: Vec<&str> = want.lines().map(str::trim).collect();
        assert_eq!(families, want);

        let traces: serde_json::Value =
            serde_json::from_str(&client.get("/debug/traces").unwrap().body_text()).unwrap();
        let (_, traces) = &traces.as_object().unwrap()[0];
        let trace = &traces.as_array().expect("a traces array")[0];
        let mut fields = keys(trace);
        fields.sort();
        let mut want: Vec<&str> = "seq request_id kind outcome shard generation plan total_us \
            probe_us bound_us filter_us prune_us verify_us admit_us cm_size definite to_verify \
            survivors answer probe_tests verify_steps slow"
            .split_whitespace()
            .chain(["key_us", "exact_us"])
            .collect();
        want.sort();
        assert_eq!(fields, want);
        server.drain();
    }

    #[test]
    fn request_id_echoed_or_generated_on_every_response() {
        let (server, dataset) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));

        // Client-provided id: echoed verbatim.
        let resp = client
            .request("POST", "/query?kind=sub", &[("x-request-id", "trace-me-7")], body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-request-id"), Some("trace-me-7"));

        // No id: the server generates one.
        let resp = client.get("/stats").unwrap();
        let rid = resp.header("x-request-id").expect("generated id");
        assert!(rid.starts_with("gc-"), "generated id format: {rid}");

        // Error responses carry one too.
        let resp = client.get("/nope").unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.header("x-request-id").is_some());

        // Deadline 504s carry one.
        let resp = client
            .request(
                "POST",
                "/query",
                &[("x-deadline-ms", "0"), ("x-request-id", "late-1")],
                body.as_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 504);
        assert_eq!(resp.header("x-request-id"), Some("late-1"));
        server.drain();
    }

    #[test]
    fn debug_trace_endpoints_serve_sampled_and_slow_queries() {
        let graphs = molecule_dataset(24, 42);
        let dataset = Arc::new(Dataset::new(graphs));
        let cache = SharedGraphCache::with_policy(
            Arc::clone(&dataset),
            Box::new(SiMethod),
            PolicyKind::Hd,
            CacheConfig {
                capacity: 16,
                window_size: 4,
                trace_sample_rate: 1.0,               // trace everything
                slow_query_threshold: Duration::ZERO, // ...and everything is "slow"
                ..CacheConfig::default()
            },
        )
        .unwrap();
        let server = Server::start(Arc::new(cache), quick_config()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));
        for _ in 0..3 {
            let resp = client
                .request("POST", "/query?kind=sub", &[("x-request-id", "dbg-1")], body.as_bytes())
                .unwrap();
            assert_eq!(resp.status, 200);
        }

        let resp = client.get("/debug/traces?n=2").unwrap();
        assert_eq!(resp.status, 200);
        let parsed: crate::api::TracesResponse = serde_json::from_str(&resp.body_text()).unwrap();
        assert_eq!(parsed.traces.len(), 2, "n caps the returned traces");
        // Newest first: the later query has the higher seq.
        assert!(parsed.traces[0].seq > parsed.traces[1].seq);
        assert_eq!(parsed.traces[0].request_id.as_deref(), Some("dbg-1"));
        assert_eq!(parsed.traces[0].kind, "sub");

        let resp = client.get("/debug/slow").unwrap();
        assert_eq!(resp.status, 200);
        let slow: crate::api::TracesResponse = serde_json::from_str(&resp.body_text()).unwrap();
        assert_eq!(slow.traces.len(), 3, "zero threshold captures every query as slow");
        assert!(slow.traces.iter().all(|t| t.slow));

        // /stats surfaces the telemetry gauges and stage summaries.
        let stats: StatsResponse =
            serde_json::from_str(&client.get("/stats").unwrap().body_text()).unwrap();
        assert_eq!(stats.slow_queries, 3);
        assert!(stats.traces_sampled >= 3);
        assert_eq!(stats.stages.len(), 9, "eight pipeline stages, then mutate");
        assert!(stats.stages.iter().any(|s| s.stage == "filter" && s.count > 0));
        assert!(stats.stages.iter().any(|s| s.stage == "bound" && s.count > 0));
        assert_eq!(stats.filter_skipped, 0, "one cold query, then exact hits: nothing to bound");
        assert_eq!(parsed.traces[0].plan, "", "an exact hit ran no plan");
        assert!(slow.traces.iter().any(|t| t.plan == "filter"));
        assert!(stats.stages.iter().any(|s| s.stage == "mutate" && s.count == 0));
        assert!(stats.stages.iter().any(|s| s.stage == "key" && s.count == 3), "every query");
        assert!(stats.stages.iter().any(|s| s.stage == "exact" && s.count == 2), "the two hits");
        assert_eq!(stats.exact_confirm_iso, 0, "the repeats re-sent the same text");
        let labels: Vec<&str> = stats.request_stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(labels, ["queue", "parse", "execute", "render", "write"]);
        let render = stats.request_stages.iter().find(|s| s.stage == "render").unwrap();
        assert_eq!(render.count, 3, "every /query decodes and writes its reply");

        // /metrics exposes the pipeline histograms.
        let metrics = client.get("/metrics").unwrap().body_text();
        assert!(metrics.contains("gc_pipeline_stage_microseconds_bucket"));
        assert!(metrics.contains("gc_query_microseconds_count"));
        assert!(metrics.contains("gc_filter_skipped_total 0\n"));
        assert!(metrics.contains("gc_exact_confirm_iso_total 0\n"));
        assert!(metrics.contains("gc_request_stage_microseconds_count{stage=\"render\"} 3\n"));

        // Wrong method: still part of the routed surface.
        assert_eq!(client.post("/debug/traces", &[]).unwrap().status, 405);
        server.drain();
    }

    #[test]
    fn unknown_paths_and_methods_rejected() {
        let (server, _) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/nope").unwrap().status, 404);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/query").unwrap().status, 405);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.post("/query", b"this is not t/v/e").unwrap().status, 400);
        server.drain();
    }

    #[test]
    fn tight_client_deadline_times_out() {
        let (server, dataset) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));
        // 0 ms deadline: expired before execution.
        let resp =
            client.request("POST", "/query", &[("x-deadline-ms", "0")], body.as_bytes()).unwrap();
        assert_eq!(resp.status, 504);
        assert!(server.metrics().requests_timed_out.load(Ordering::Relaxed) >= 1);
        server.drain();
    }

    #[test]
    fn slow_loris_is_cut_off() {
        let mut cfg = quick_config();
        cfg.read_timeout = Duration::from_millis(100);
        let (server, _) = start_server(cfg);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Send a torn request head and stall.
        stream.write_all(b"POST /query HTTP/1.1\r\ncontent-le").unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 408"), "expected 408, got: {text}");
        server.drain();
    }

    #[test]
    fn drain_finishes_and_reports() {
        let (server, _) = start_server(quick_config());
        let report = server.drain();
        assert!(!report.forced);
        assert_eq!(report.workers_finished, report.workers_total);
        assert_eq!(report.snapshot_generation, None, "no store attached");
    }

    #[test]
    fn mutate_endpoint_inserts_and_removes_live() {
        let (server, dataset) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();

        // Warm a query whose answer the mutations must repair.
        let query = dataset.graphs()[0].clone();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&query));
        let before: QueryResponse = serde_json::from_str(
            &client.post("/query?kind=sub", body.as_bytes()).unwrap().body_text(),
        )
        .unwrap();

        // Insert a duplicate of graph 0: it must join the answer set.
        let resp = client.post("/mutate?op=insert", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        let ins: crate::api::MutateResponse = serde_json::from_str(&resp.body_text()).unwrap();
        assert!(ins.applied);
        assert_eq!(ins.op, "insert");
        assert_eq!(ins.generation, 1);
        assert_eq!(ins.graph_id as usize, dataset.len());

        let after: QueryResponse = serde_json::from_str(
            &client.post("/query?kind=sub", body.as_bytes()).unwrap().body_text(),
        )
        .unwrap();
        assert!(after.answer.contains(&(ins.graph_id as usize)));

        // Remove it again: answer returns to the original set; a second
        // remove of the same id is a no-op.
        let resp = client.post(&format!("/mutate?op=remove&id={}", ins.graph_id), &[]).unwrap();
        assert_eq!(resp.status, 200);
        let rm: crate::api::MutateResponse = serde_json::from_str(&resp.body_text()).unwrap();
        assert!(rm.applied);
        assert_eq!(rm.generation, 2);
        let resp = client.post(&format!("/mutate?op=remove&id={}", ins.graph_id), &[]).unwrap();
        let rm2: crate::api::MutateResponse = serde_json::from_str(&resp.body_text()).unwrap();
        assert!(!rm2.applied, "double remove must be a no-op");

        let restored: QueryResponse = serde_json::from_str(
            &client.post("/query?kind=sub", body.as_bytes()).unwrap().body_text(),
        )
        .unwrap();
        assert_eq!(restored.answer, before.answer);

        // Bad requests are rejected cleanly.
        assert_eq!(client.post("/mutate?op=remove&id=999999", &[]).unwrap().status, 404);
        assert_eq!(client.post("/mutate?op=teleport", &[]).unwrap().status, 400);
        assert_eq!(client.post("/mutate?op=insert", b"not t/v/e").unwrap().status, 400);

        // /stats surfaces the mutation gauges.
        let stats: StatsResponse =
            serde_json::from_str(&client.get("/stats").unwrap().body_text()).unwrap();
        assert_eq!(stats.dataset_generation, 2, "the no-op remove must not bump the generation");
        assert_eq!(stats.dataset_live_graphs, dataset.len() as u64);
        assert!(
            stats.stages.iter().any(|s| s.stage == "mutate" && s.count == 2),
            "the mutate stage times each applied mutation and skips the no-op"
        );
        server.drain();
    }

    /// An exact hit over HTTP copies its entry's rendered text; a mutation
    /// that changes the answer must never let a stale text out: the next
    /// reply is still an exact hit, carrying the repaired answer — and every
    /// reply is byte-identical to `serde_json`'s rendering of what it
    /// parses to, with its serving tier in `x-gc-tier`.
    #[test]
    fn exact_hit_text_follows_repairs_over_http() {
        let (server, dataset) = start_server(quick_config());
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let query = dataset.graphs()[0].clone();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&query));
        let ask = |client: &mut HttpClient, tier: &str| -> QueryResponse {
            let resp = client.post("/query?kind=sub", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("x-gc-tier"), Some(tier));
            let text = resp.body_text();
            let parsed: QueryResponse = serde_json::from_str(&text).unwrap();
            assert_eq!(serde_json::to_string(&parsed).unwrap(), text, "serde_json's exact bytes");
            let dataset = server.cache().dataset();
            let want = gc_method::execute_base(
                &dataset,
                &SiMethod,
                gc_method::Engine::Vf2,
                &query,
                QueryKind::Subgraph,
            );
            assert_eq!(parsed.answer, want.answer.to_vec());
            assert_eq!(parsed.exact_hit, tier == "exact");
            parsed
        };
        let cold = ask(&mut client, "pipeline");
        assert!(cold.answer.contains(&0), "graph 0 contains itself");
        // Served twice: the first hit renders the entry's text, the second
        // copies it.
        for _ in 0..2 {
            assert_eq!(ask(&mut client, "exact").answer, cold.answer);
        }
        let mutate = |client: &mut HttpClient, path: &str, body: &[u8]| {
            let resp = client.post(path, body).unwrap();
            assert_eq!(resp.status, 200);
            serde_json::from_str::<crate::api::MutateResponse>(&resp.body_text()).unwrap()
        };

        // A duplicate of graph 0 joins the answer.
        let ins = mutate(&mut client, "/mutate?op=insert", body.as_bytes());
        let grown = ask(&mut client, "exact");
        assert_eq!(grown.answer.last(), Some(&(ins.graph_id as usize)));
        assert_eq!(ask(&mut client, "exact").answer, grown.answer);
        // Removing it, then graph 0 itself, shrinks the answer twice.
        mutate(&mut client, &format!("/mutate?op=remove&id={}", ins.graph_id), &[]);
        assert_eq!(ask(&mut client, "exact").answer, cold.answer);
        mutate(&mut client, "/mutate?op=remove&id=0", &[]);
        let shrunk = ask(&mut client, "exact");
        assert_eq!(shrunk.answer, cold.answer[1..]);
        server.drain();
    }

    /// A memo hit's text follows the in-place repairs of its row: after an
    /// insert and after a remove, the repeat is still served from the row,
    /// byte-identical to `serde_json` and equal to Method M's answer on the
    /// mutated dataset.
    #[test]
    fn memo_hit_text_follows_row_repairs_over_http() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(24, 42)));
        // Nothing is admitted: the query is stored as an answer-only row.
        let config = CacheConfig { min_admit_tests: usize::MAX, ..CacheConfig::default() };
        let cache = SharedGraphCache::with_policy(
            Arc::clone(&dataset),
            Box::new(SiMethod),
            PolicyKind::Hd,
            config,
        )
        .unwrap();
        let server = Server::start(Arc::new(cache), quick_config()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let query = dataset.graphs()[0].clone();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&query));
        let ask = |client: &mut HttpClient, tier: &str| -> Vec<usize> {
            let resp = client.post("/query?kind=sub", body.as_bytes()).unwrap();
            assert_eq!(resp.header("x-gc-tier"), Some(tier));
            let text = resp.body_text();
            let parsed: QueryResponse = serde_json::from_str(&text).unwrap();
            assert_eq!(serde_json::to_string(&parsed).unwrap(), text, "serde_json's exact bytes");
            let want = gc_method::execute_base(
                &server.cache().dataset(),
                &SiMethod,
                gc_method::Engine::Vf2,
                &query,
                QueryKind::Subgraph,
            );
            assert_eq!(parsed.answer, want.answer.to_vec());
            assert_eq!(parsed.memo_hit, tier == "memo");
            parsed.answer
        };
        let cold = ask(&mut client, "pipeline");
        assert_eq!(ask(&mut client, "memo"), cold, "the first memo hit renders the row's text");
        let mutate = |client: &mut HttpClient, path: &str, body: &[u8]| {
            let resp = client.post(path, body).unwrap();
            assert_eq!(resp.status, 200);
            serde_json::from_str::<crate::api::MutateResponse>(&resp.body_text()).unwrap()
        };
        // A duplicate of graph 0 joins the row's answer …
        let ins = mutate(&mut client, "/mutate?op=insert", body.as_bytes());
        let grown = ask(&mut client, "memo");
        assert_eq!(grown.last(), Some(&(ins.graph_id as usize)));
        assert_eq!(ask(&mut client, "memo"), grown);
        // … and removing graph 0 takes it out again.
        mutate(&mut client, "/mutate?op=remove&id=0", &[]);
        assert_eq!(ask(&mut client, "memo"), grown[1..]);
        server.drain();
    }

    #[test]
    fn memo_hits_are_named_in_the_tier_header() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(24, 42)));
        let cache = SharedGraphCache::with_policy(
            Arc::clone(&dataset),
            Box::new(SiMethod),
            PolicyKind::Hd,
            // Nothing is admitted: the query is stored as an answer-only row,
            // so a repeat can only be a memo hit.
            CacheConfig { min_admit_tests: usize::MAX, ..CacheConfig::default() },
        )
        .unwrap();
        let cache = Arc::new(cache);
        let server = Server::start(Arc::clone(&cache), quick_config()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let query = &dataset.graphs()[3];
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(query));
        for tier in ["pipeline", "memo", "memo"] {
            let resp = client.post("/query?kind=super", body.as_bytes()).unwrap();
            assert_eq!(resp.header("x-gc-tier"), Some(tier));
            let parsed: QueryResponse = serde_json::from_str(&resp.body_text()).unwrap();
            assert_eq!(parsed.memo_hit, tier == "memo");
            assert_eq!(parsed.kind, "super");
        }
        // The memo hits share the row's one text slot, rendered by the
        // first of them and kept.
        let a = cache.query(query, QueryKind::Supergraph);
        let b = cache.query(query, QueryKind::Supergraph);
        let (ta, tb) = (a.answer_text.unwrap(), b.answer_text.unwrap());
        assert!(a.memo_hit && b.memo_hit && Arc::ptr_eq(&ta, &tb));
        let mut ids = Vec::new();
        a.answer.write_ids(&mut ids);
        assert_eq!(ta.get(), Some(&ids[..]), "rendered over HTTP and kept");
        server.drain();
    }

    /// Satellite: a keep-alive socket the server closed between requests
    /// (here: idle timeout; a restart behaves identically) must be
    /// transparently re-established — the next `post` succeeds without
    /// the caller seeing an error or reconnecting by hand.
    #[test]
    fn stale_keepalive_socket_reconnects_transparently() {
        let mut cfg = quick_config();
        cfg.read_timeout = Duration::from_millis(100);
        let (server, dataset) = start_server(cfg);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));

        let first = client.post("/query?kind=sub", body.as_bytes()).unwrap();
        assert_eq!(first.status, 200);

        // Let the server's idle keep-alive timeout close the connection
        // under the client's feet.
        std::thread::sleep(Duration::from_millis(400));

        let second = client.post("/query?kind=sub", body.as_bytes()).unwrap();
        assert_eq!(second.status, 200, "stale keep-alive must retry once, not surface an error");
        let a: QueryResponse = serde_json::from_str(&first.body_text()).unwrap();
        let b: QueryResponse = serde_json::from_str(&second.body_text()).unwrap();
        assert_eq!(a.answer, b.answer);
        server.drain();
    }

    /// Satellite: `run_load` must give the *initial* connect the same
    /// retry + backoff budget as any request, instead of failing the
    /// thread's whole query slice when the server is not up yet.
    #[test]
    fn run_load_retries_initial_connect_until_server_is_up() {
        use gc_workload::{Workload, WorkloadKind, WorkloadSpec};

        // Reserve a port, then start the server on it only after a delay —
        // the load generator's first connects land on a closed port.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let starter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let (server, _) =
                start_server(ServerConfig { addr: addr.to_string(), ..quick_config() });
            server
        });

        let graphs = molecule_dataset(24, 42);
        let spec = WorkloadSpec {
            n_queries: 8,
            pool_size: 8,
            kind: WorkloadKind::Uniform,
            seed: 3,
            ..WorkloadSpec::default()
        };
        let workload = Workload::generate(&graphs, &spec);
        let report = crate::client::run_load(
            addr,
            &workload,
            &crate::client::LoadSpec {
                connections: 2,
                retries: 20,
                backoff_base_ms: 40,
                backoff_cap_ms: 120,
                seed: 1,
            },
        );
        assert_eq!(report.failed, 0, "connect retries must ride out the late server start");
        assert_eq!(report.ok, 8);
        assert!(report.retries > 0, "the initial connects must have been retried");
        starter.join().unwrap().drain();
    }

    #[test]
    fn overload_sheds_with_503_and_retry_after() {
        let (server, dataset) = start_server(ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_millis(400),
            ..quick_config()
        });
        // Occupy the single worker with a stalled connection, fill the
        // 1-slot queue with another, then watch further connections shed.
        let mut busy = TcpStream::connect(server.addr()).unwrap();
        busy.write_all(b"POST /query HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let _queued = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        let mut shed_seen = false;
        for _ in 0..10 {
            let mut probe = TcpStream::connect(server.addr()).unwrap();
            probe.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let mut out = Vec::new();
            let _ = probe.read_to_end(&mut out);
            let text = String::from_utf8_lossy(&out);
            if text.starts_with("HTTP/1.1 503") {
                assert!(text.to_ascii_lowercase().contains("retry-after:"));
                assert!(
                    text.to_ascii_lowercase().contains("x-request-id:"),
                    "shed 503 must carry a request id"
                );
                shed_seen = true;
                break;
            }
        }
        assert!(shed_seen, "expected at least one shed 503");
        assert!(server.metrics().total_shed() >= 1);

        // After the stalled clients are timed out, the server must be
        // fully responsive again — overload never wedges it.
        std::thread::sleep(Duration::from_millis(600));
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));
        let resp = client.post("/query", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        server.drain();
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gc_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A cache over `dataset` that admits every executed query, with a
    /// store in `dir` attached.
    fn admitting_cache(dataset: &Arc<Dataset>, dir: &std::path::Path) -> SharedGraphCache {
        let cfg = CacheConfig {
            capacity: 16,
            window_size: 2,
            min_admit_tests: 0,
            ..CacheConfig::default()
        };
        let mut cache = SharedGraphCache::with_policy(
            Arc::clone(dataset),
            Box::new(SiMethod),
            PolicyKind::Hd,
            cfg,
        )
        .unwrap();
        cache.attach_store(Arc::new(gc_core::CacheStore::open(dir).unwrap())).unwrap();
        cache
    }

    /// POST `n` Zipf queries (seeded) to `addr` and assert every answer
    /// equals Method M's on `dataset`.
    fn assert_exact_over_http(addr: SocketAddr, dataset: &Dataset, n: usize, seed: u64) {
        use gc_workload::{Workload, WorkloadKind, WorkloadSpec};
        let spec = WorkloadSpec {
            n_queries: n,
            pool_size: 12,
            kind: WorkloadKind::Zipf { skew: 1.1 },
            seed,
            ..WorkloadSpec::default()
        };
        let mut client = HttpClient::connect(addr).unwrap();
        for wq in &Workload::generate(dataset.graphs(), &spec).queries {
            let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&wq.graph));
            let path = match wq.kind {
                QueryKind::Subgraph => "/query?kind=sub",
                QueryKind::Supergraph => "/query?kind=super",
            };
            let resp = client.post(path, body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_text());
            let got: QueryResponse = serde_json::from_str(&resp.body_text()).unwrap();
            let want = gc_method::execute_base(
                dataset,
                &SiMethod,
                gc_method::Engine::Vf2,
                &wq.graph,
                wq.kind,
            );
            assert_eq!(got.answer, want.answer.to_vec(), "HTTP answer diverged from Method M");
        }
    }

    #[test]
    fn hostile_clients_leave_the_server_exact() {
        let mut cfg = quick_config();
        cfg.read_timeout = Duration::from_millis(100);
        // Room for every hostile connection below, so none of them is shed
        // and the checked queries queue behind them instead.
        cfg.queue_depth = 64;
        let (server, dataset) = start_server(cfg);
        let addr = server.addr();

        // Protocol garbage: every connection gets an error status, never a
        // hang or a 200.
        let garbage: [&[u8]; 4] = [
            b"\x00\xffnot http at all\r\n\r\n",
            b"GET \x7f HTTP/1.1\r\n\r\n",
            b"POST /query HTTP/9.9\r\n\r\n",
            &[0xAA; 512],
        ];
        for junk in garbage {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(junk);
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut out = Vec::new();
            let _ = s.read_to_end(&mut out);
            let text = String::from_utf8_lossy(&out);
            assert!(
                text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5"),
                "garbage {junk:?} got no error status: {text:?}"
            );
        }
        assert!(server.metrics().parse_errors.load(Ordering::Relaxed) > 0);

        // A body cut off mid-way, then connect/close churn with no request.
        for _ in 0..4 {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(
                b"POST /query?kind=sub HTTP/1.1\r\ncontent-length: 500\r\n\r\nt # 0\nv 0 0\n",
            );
        }
        for _ in 0..20 {
            drop(TcpStream::connect(addr).unwrap());
        }

        assert_exact_over_http(addr, &dataset, 12, 4);
        assert!(!server.drain().forced, "hostile clients must not wedge a worker");
    }

    #[test]
    fn store_faults_degrade_visibly_while_answers_stay_exact() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(24, 42)));
        let dir = tmpdir("faults");
        let cache = admitting_cache(&dataset, &dir);
        let plan = Arc::new(FaultPlan::seeded(14));
        plan.arm(gc_store::FaultSite::JournalAppend, gc_store::Failpoint::ErrAfter { n: 0 });
        plan.arm(gc_store::FaultSite::SnapshotWrite, gc_store::Failpoint::ErrAfter { n: 0 });
        let server =
            Server::start_with_faults(Arc::new(cache), quick_config(), Some(Arc::clone(&plan)))
                .unwrap();

        // The journal holds dataset mutations only: an insert and its
        // remove are the appends that fail. Answers then equal the
        // unmutated dataset's again.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&dataset.graphs()[0]));
        let resp = client.post("/mutate?op=insert", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let id = dataset.len();
        let resp = client.post(&format!("/mutate?op=remove&id={id}"), &[]).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        assert!(plan.fired() > 0, "no store fault fired: the test is vacuous");
        assert_exact_over_http(server.addr(), &dataset, 20, 6);
        let stats: StatsResponse =
            serde_json::from_str(&client.get("/stats").unwrap().body_text()).unwrap();
        assert_eq!(stats.persist_health, "degraded");
        assert!(stats.persist_errors > 0, "a total outage must count errors");
        // Degraded still serves exact answers, so it stays ready, but says so.
        let ready = client.get("/readyz").unwrap();
        assert_eq!(ready.status, 200);
        assert!(ready.body_text().contains("degraded"), "{:?}", ready.body_text());
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_snapshot_restarts_warm_and_exact() {
        let dataset = Arc::new(Dataset::new(molecule_dataset(24, 42)));
        let dir = tmpdir("restart");
        let server =
            Server::start(Arc::new(admitting_cache(&dataset, &dir)), quick_config()).unwrap();
        assert_exact_over_http(server.addr(), &dataset, 20, 7);
        let report = server.drain();
        assert!(!report.forced);
        assert!(report.snapshot_generation.is_some(), "drain must cut a final snapshot");

        let (restored, recovery) = SharedGraphCache::restore_from(
            Arc::clone(&dataset),
            Arc::new(SiMethod),
            || PolicyKind::Hd.make(),
            CacheConfig { capacity: 16, window_size: 2, ..CacheConfig::default() },
            Arc::new(gc_core::CacheStore::open(&dir).unwrap()),
        )
        .unwrap();
        assert!(recovery.warm, "{}", recovery.describe());
        assert!(!restored.is_empty(), "the drained entries come back");
        let reborn = Server::start(Arc::new(restored), quick_config()).unwrap();
        assert_exact_over_http(reborn.addr(), &dataset, 20, 8);
        assert!(!reborn.drain().forced);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
