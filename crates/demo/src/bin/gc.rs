//! `gc` — command-line front-end to the GraphCache demonstrator.
//!
//! Subcommands:
//!
//! ```text
//! gc generate --out ds.tve [--count 100] [--seed 42] [--model molecules|er|ba]
//! gc run      --dataset ds.tve [--queries 300] [--workload zipf|uniform|drift]
//!             [--policy HD] [--capacity 50] [--feature-size 2] [--dev]
//!             [--clients 8] [--check]   # N>1: N client threads, one cache;
//!                                       # --check: every answer vs Method M
//!             [--snapshot-dir state/]   # warm-restart + journal + snapshot
//!             [--server 127.0.0.1:7411] # client mode: POST the workload to
//!                                       # a running `gc serve` over HTTP
//! gc serve    --dataset ds.tve [--addr 127.0.0.1:7411] [--workers 4]   # one query per worker
//!             [--queue-depth 64] [--deadline-ms 5000] [--snapshot-dir state/]
//!             [--duration-secs S]       # omitted: serve until Enter/EOF
//! gc save     --dataset ds.tve --snapshot-dir state/   # run + persist
//! gc load     --dataset ds.tve --snapshot-dir state/   # restore + dashboards
//! gc mutate   --dataset ds.tve [--rounds 5] [--inserts 3] [--removes 2]
//!             [--check] [--server 127.0.0.1:7411]   # live dataset demo
//! gc journey  --dataset ds.tve [--seed 7]
//! gc compare  --dataset ds.tve [--queries 300] [--workload zipf]
//! gc top      [--server 127.0.0.1:7411] [--interval-ms 1000] [--iterations N]
//! ```
//!
//! With `--snapshot-dir`, `run` restores the cache from the directory's
//! snapshot + journal (cold on first use or after corruption — recovery is
//! fail-closed), journals this run's dataset mutations, and writes a fresh
//! snapshot at exit, so consecutive runs keep their warm hit ratio.
//! This composes with `--clients N`: the shared cache is warm-restarted
//! (entries re-routed to their home shards) before the client threads
//! start, and the closing snapshot is taken after they join.
//!
//! Every local cache comes from one function, `build_cache`: one shard,
//! except `run --clients N` (N > 1) and `serve`, which take the default
//! shard count; with `--snapshot-dir` it is warm-restarted from the
//! directory, for every subcommand.
//!
//! Datasets are plain `t/v/e` text files (the AIDS/gSpan format), so real
//! datasets drop in directly.

use gc_core::persist::CacheStore;
use gc_core::{CacheConfig, PolicyKind, RecoveryReport, SharedGraphCache};
use gc_demo::{
    developer_monitor, end_user_monitor, render_end_user_monitor, run_multi_client,
    run_query_journey, run_workload_comparison, DeploymentInfo,
};
use gc_method::{Dataset, FtvMethod, QueryKind};
use gc_server::{HttpClient, QueryResponse, Server, ServerConfig};
use gc_workload::random::{ba_dataset, er_dataset};
use gc_workload::{molecule_dataset, nested_chain, Workload, WorkloadKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            eprintln!("unexpected argument {:?}", args[i]);
            i += 1;
        }
    }
    flags
}

/// `--key`'s value parsed as `T`, `None` when the flag is absent. A value
/// that does not parse is an error naming the flag, never a silent default.
fn opt<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("--{key}: invalid value {v:?}")))
        .transpose()
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    Ok(opt(flags, key)?.unwrap_or(default))
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Arc<Dataset>, String> {
    let path = flags.get("dataset").ok_or("missing --dataset <file.tve>")?;
    let graphs = gc_graph::io::load_dataset(path).map_err(|e| e.to_string())?;
    if graphs.is_empty() {
        return Err(format!("{path}: empty dataset"));
    }
    Ok(Arc::new(Dataset::new(graphs)))
}

fn workload_kind(name: &str) -> Result<WorkloadKind, String> {
    match name {
        "uniform" => Ok(WorkloadKind::Uniform),
        "zipf" => Ok(WorkloadKind::Zipf { skew: 1.2 }),
        "drift" => Ok(WorkloadKind::Drift { chain_len: 4, repeat_prob: 0.3 }),
        other => Err(format!("unknown workload {other:?} (uniform|zipf|drift)")),
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("missing --out <file.tve>")?;
    let count: usize = get(flags, "count", 100)?;
    let seed: u64 = get(flags, "seed", 42)?;
    let model = flags.get("model").map(String::as_str).unwrap_or("molecules");
    let graphs = match model {
        "molecules" => molecule_dataset(count, seed),
        "er" => er_dataset(count, 25, 0.12, 4, seed),
        "ba" => ba_dataset(count, 30, 2, 4, seed),
        other => return Err(format!("unknown model {other:?} (molecules|er|ba)")),
    };
    std::fs::write(out, gc_graph::io::dataset_to_string(&graphs)).map_err(|e| e.to_string())?;
    println!("wrote {count} {model} graphs to {out}");
    Ok(())
}

fn cache_config(flags: &HashMap<String, String>) -> Result<CacheConfig, String> {
    // Group-commit fsync policy: --fsync-every N / --fsync-interval-ms M
    // (mutually exclusive; the per-count bound wins when both are given).
    let fsync_policy = if let Some(n) = opt(flags, "fsync-every")? {
        gc_core::FsyncPolicy::EveryN(n)
    } else if let Some(ms) = opt(flags, "fsync-interval-ms")? {
        gc_core::FsyncPolicy::IntervalMs(ms)
    } else {
        gc_core::FsyncPolicy::Never
    };
    Ok(CacheConfig {
        capacity: get(flags, "capacity", 50)?,
        window_size: get(flags, "window", 10)?,
        snapshot_interval: opt(flags, "snapshot-interval")?,
        journal_max_bytes: opt(flags, "journal-max-bytes")?,
        fsync_policy,
        ..CacheConfig::default()
    })
}

/// Build the cache every subcommand runs: `shards` shards over a fresh
/// FTV method, warm-restarted from `--snapshot-dir` when one is given
/// (journaling stays attached, so the session's mutations persist too).
/// The recovery report is printed and returned; `None` without a store.
fn build_cache(
    dataset: &Arc<Dataset>,
    flags: &HashMap<String, String>,
    shards: usize,
) -> Result<(SharedGraphCache, Option<RecoveryReport>), String> {
    let policy: PolicyKind =
        flags.get("policy").map(|p| p.parse()).transpose()?.unwrap_or(PolicyKind::Hd);
    let feature_size: usize = get(flags, "feature-size", 2)?;
    let config = CacheConfig { shards, ..cache_config(flags)? };
    let method = Arc::new(FtvMethod::build(dataset, feature_size));
    let Some(dir) = flags.get("snapshot-dir") else {
        let gc = SharedGraphCache::new(dataset.clone(), method, || policy.make(), config)?;
        return Ok((gc, None));
    };
    let store = Arc::new(CacheStore::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let (gc, recovery) =
        SharedGraphCache::restore_from(dataset.clone(), method, || policy.make(), config, store)?;
    println!("[Persistence] {}", recovery.describe());
    Ok((gc, Some(recovery)))
}

fn finish_snapshot(gc: &SharedGraphCache) -> Result<(), String> {
    let info = gc.snapshot_now()?.ok_or("no store attached")?;
    println!(
        "[Persistence] snapshot generation {} written: {} entries, {} KiB",
        info.generation,
        info.entries,
        info.snapshot_bytes / 1024
    );
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let spec = WorkloadSpec {
        n_queries: get(flags, "queries", 300)?,
        pool_size: get(flags, "pool", 100)?,
        kind: workload_kind(flags.get("workload").map(String::as_str).unwrap_or("zipf"))?,
        seed: get(flags, "seed", 7)?,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    // Server-client mode: POST the workload to a running `gc serve`
    // front-end instead of executing locally (`--check` cross-checks every
    // HTTP answer against a fault-free local base execution).
    if let Some(addr) = flags.get("server") {
        return run_against_server(addr, &dataset, &workload, flags);
    }

    // N > 1 clients stripe the workload over N threads hammering one cache
    // of the default shard count; one client runs a one-shard cache.
    // `--check` compares every answer with Method M alone, and
    // `--snapshot-dir` warm-restarts the cache and journals the session,
    // in both modes.
    let clients: usize = get(flags, "clients", 1)?;
    let shards = if clients > 1 { CacheConfig::default().shards } else { 1 };
    let (gc, _) = build_cache(&dataset, flags, shards)?;
    let run = run_multi_client(&gc, &workload, clients, flags.contains_key("check"));
    if clients > 1 {
        print!("{}", run.render());
    } else {
        println!("{}", end_user_monitor(&gc));
        if flags.contains_key("dev") {
            println!("{}", developer_monitor(&gc, get(flags, "top", 15)?));
        }
        if run.verified {
            println!(
                "checked  : {} of {} answers match Method M alone",
                run.queries - run.mismatches,
                run.queries
            );
        }
    }
    if flags.contains_key("snapshot-dir") {
        finish_snapshot(&gc)?;
    }
    if run.mismatches > 0 {
        return Err(format!("{} answer mismatches vs Method M", run.mismatches));
    }
    Ok(())
}

/// `gc save`: run a workload and persist the warm cache — `gc run` with a
/// mandatory snapshot dir and a closing snapshot.
fn cmd_save(flags: &HashMap<String, String>) -> Result<(), String> {
    if !flags.contains_key("snapshot-dir") {
        return Err("missing --snapshot-dir <dir>".into());
    }
    cmd_run(flags)
}

/// `gc load`: warm-restart from a snapshot dir and show what came back,
/// without running any workload.
fn cmd_load(flags: &HashMap<String, String>) -> Result<(), String> {
    if !flags.contains_key("snapshot-dir") {
        return Err("missing --snapshot-dir <dir>".into());
    }
    let dataset = load_dataset(flags)?;
    let (gc, recovery) = build_cache(&dataset, flags, 1)?;
    let recovery = recovery.expect("--snapshot-dir is set");
    println!("{}", end_user_monitor(&gc));
    println!("{}", developer_monitor(&gc, get(flags, "top", 15)?));
    if !recovery.warm {
        return Err(recovery.cold_reason.unwrap_or_else(|| "cold start".into()));
    }
    Ok(())
}

/// `gc doctor [--json] <dir>`: offline health check of a persistence
/// directory — CRC-walks the snapshot and every journal, validates the
/// generation chain, reports torn tails, and says what a restore would
/// recover. `--json` emits the full report as JSON for scripting; either
/// way the exit code is nonzero exactly when the directory is corrupt (a
/// restore would be forced cold by damage, not by benign emptiness).
fn cmd_doctor(dir: &str, json: bool) -> Result<(), String> {
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("{dir}: not a directory"));
    }
    let report = gc_core::persist::inspect_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"))?
        );
    } else {
        println!("{}", report.describe());
    }
    if report.healthy() {
        Ok(())
    } else if json {
        Err(format!("{dir}: persistence directory is corrupt (see JSON verdict)"))
    } else {
        Err(format!("{dir}: persistence directory is corrupt (see report above)"))
    }
}

/// `gc serve`: run the overload-hardened HTTP front-end over a shared
/// cache until `--duration-secs` elapses (or Enter/EOF on stdin), then
/// drain gracefully — finishing in-flight requests and, with
/// `--snapshot-dir`, cutting a final snapshot for a warm restart.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let workers: usize = get(flags, "workers", 4)?;
    let (cache, _) = build_cache(&dataset, flags, CacheConfig::default().shards)?;
    let server = Server::start(
        Arc::new(cache),
        ServerConfig {
            addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7411".into()),
            workers,
            queue_depth: get(flags, "queue-depth", 64)?,
            request_deadline: std::time::Duration::from_millis(get(flags, "deadline-ms", 5_000)?),
            ..ServerConfig::default()
        },
    )?;
    println!("gc-server listening on http://{}", server.addr());
    println!(
        "  POST /query?kind=sub|super (t/v/e body)  GET /stats /metrics /healthz /readyz \
         /debug/traces /debug/slow"
    );
    match opt::<u64>(flags, "duration-secs")? {
        Some(secs) => {
            println!("serving for {secs}s, then draining");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
        None => {
            println!("press Enter to drain and exit");
            let _ = std::io::stdin().read_line(&mut String::new());
        }
    }
    println!(
        "{}",
        render_end_user_monitor(&DeploymentInfo::of(server.cache()), &server.serving_stats())
    );
    let report = server.drain();
    println!(
        "[Drain] {}/{} workers finished in {:.0} ms{}{}",
        report.workers_finished,
        report.workers_total,
        report.drained_in.as_secs_f64() * 1e3,
        if report.forced { " (forced: drain bound expired)" } else { "" },
        match report.snapshot_generation {
            Some(g) => format!(", final snapshot generation {g}"),
            None => String::new(),
        }
    );
    if report.forced {
        return Err("drain bound expired with workers still busy".into());
    }
    Ok(())
}

/// `gc run --server ADDR`: drive a running `gc serve` over HTTP with the
/// same workload `gc run` would execute locally. Both sides must be given
/// the same `--dataset`. With `--check`, every answer is cross-checked
/// against a local base (Method M alone) execution.
fn run_against_server(
    addr: &str,
    dataset: &Arc<Dataset>,
    workload: &gc_workload::Workload,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    let addr = addr.trim_start_matches("http://");
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("--server {addr}: {e}"))?;
    let check = flags.contains_key("check");
    let feature_size: usize = get(flags, "feature-size", 2)?;
    let method = check.then(|| FtvMethod::build(dataset, feature_size));
    let mut client = HttpClient::connect(addr)?;
    let (mut ok, mut exact_hits, mut shed, mut failed, mut checked) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let t0 = std::time::Instant::now();
    for wq in &workload.queries {
        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&wq.graph));
        let path = match wq.kind {
            QueryKind::Subgraph => "/query?kind=sub",
            QueryKind::Supergraph => "/query?kind=super",
        };
        let resp = match client.post(path, body.as_bytes()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("gc: request failed: {e}");
                failed += 1;
                continue;
            }
        };
        match resp.status {
            200 => {
                let parsed: QueryResponse = serde_json::from_str(&resp.body_text())
                    .map_err(|e| format!("bad /query response: {e}"))?;
                ok += 1;
                exact_hits += parsed.exact_hit as u64;
                if let Some(method) = &method {
                    let base = gc_method::execute_base(
                        dataset,
                        method,
                        gc_method::Engine::Vf2,
                        &wq.graph,
                        wq.kind,
                    );
                    if parsed.answer != base.answer.to_vec() {
                        return Err(format!(
                            "answer mismatch vs local base execution (server {} ids, base {})",
                            parsed.answer.len(),
                            base.answer.count()
                        ));
                    }
                    checked += 1;
                }
            }
            503 => shed += 1,
            other => {
                eprintln!("gc: HTTP {other}: {}", resp.body_text());
                failed += 1;
            }
        }
    }
    let elapsed = t0.elapsed();
    println!("=== Server Run ===");
    println!("server   : http://{addr}");
    println!(
        "requests : {} sent, {ok} ok ({exact_hits} exact hits), {shed} shed, {failed} failed",
        workload.queries.len()
    );
    if check {
        println!("checked  : {checked}/{ok} answers match local base execution exactly");
    }
    println!(
        "time     : {:.1} ms total, {:.2} ms/query over HTTP",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / workload.queries.len().max(1) as f64
    );
    let stats = client.get("/stats")?;
    if stats.status == 200 {
        println!("\n[Server /stats]\n{}", stats.body_text());
    }
    if failed > 0 {
        return Err(format!("{failed} requests failed"));
    }
    Ok(())
}

/// `gc mutate`: the dynamic-dataset demo — rounds of interleaved
/// queries, inserts, and removes against one live cache, showing the
/// generation counter, in-place answer repair, and the answer-only rows
/// (memo hits) at work. With `--check`, every answer is cross-checked against Method M
/// alone on the dataset *as mutated so far*. With `--server ADDR`, the
/// mutations are POSTed to a running `gc serve` via `/mutate` instead.
fn cmd_mutate(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let rounds: usize = get(flags, "rounds", 5)?;
    let inserts: usize = get(flags, "inserts", 3)?;
    let removes: usize = get(flags, "removes", 2)?;
    let queries: usize = get(flags, "queries", 40)?;
    let seed: u64 = get(flags, "seed", 7)?;

    if let Some(addr) = flags.get("server") {
        return mutate_against_server(addr, &dataset, rounds, inserts, removes, queries, seed);
    }

    let check = flags.contains_key("check");
    let (gc, _) = build_cache(&dataset, flags, 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let fresh = molecule_dataset(rounds * inserts, seed ^ 0x6d75_7461);
    let mut fresh = fresh.into_iter();
    let mut checked = 0u64;

    println!("=== Dynamic Dataset Demo ===");
    println!(
        "round | generation | live graphs | answer-only rows | memo hits | hit ratio | avg tests/query"
    );
    for round in 0..rounds {
        for _ in 0..queries {
            let live: Vec<u32> = gc.dataset().live_mask().iter().map(|gid| gid as u32).collect();
            let src = live[rng.gen_range(0..live.len())];
            let Some(q) = gc_workload::extract_query(gc.dataset().graph(src), 6, &mut rng) else {
                continue;
            };
            let r = gc.query(&q, QueryKind::Subgraph);
            if check {
                let base = gc_method::execute_base(
                    &gc.dataset(),
                    &gc_method::SiMethod,
                    gc_method::Engine::Vf2,
                    &q,
                    QueryKind::Subgraph,
                );
                if r.answer != base.answer {
                    return Err(format!(
                        "round {round}: answer mismatch vs Method M on the mutated dataset"
                    ));
                }
                checked += 1;
            }
        }
        for g in fresh.by_ref().take(inserts) {
            gc.insert_graph(g);
        }
        for _ in 0..removes {
            let live: Vec<u32> = gc.dataset().live_mask().iter().map(|g| g as u32).collect();
            if live.len() <= 4 {
                break;
            }
            gc.remove_graph(live[rng.gen_range(0..live.len())]);
        }
        let s = gc.stats();
        println!(
            "{round:>5} | {:>10} | {:>11} | {:>16} | {:>9} | {:>8.1}% | {:>15.1}",
            s.dataset_generation,
            s.dataset_live_graphs,
            gc.memo_len(),
            s.memo_hits,
            s.hit_ratio() * 100.0,
            s.avg_tests_per_query(),
        );
    }
    if check {
        println!("checked  : {checked} answers match Method M on the live dataset exactly");
    }
    Ok(())
}

/// Drive a running `gc serve` through `/mutate` + `/query`.
fn mutate_against_server(
    addr: &str,
    dataset: &Arc<Dataset>,
    rounds: usize,
    inserts: usize,
    removes: usize,
    queries: usize,
    seed: u64,
) -> Result<(), String> {
    let addr = addr.trim_start_matches("http://");
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("--server {addr}: {e}"))?;
    let mut client = HttpClient::connect(addr)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = molecule_dataset(rounds * inserts, seed ^ 0x6d75_7461).into_iter();
    let mut inserted: Vec<u32> = Vec::new();
    let (mut ok, mut memo_hits) = (0u64, 0u64);
    println!("=== Dynamic Dataset Demo (server http://{addr}) ===");
    for round in 0..rounds {
        for _ in 0..queries {
            let src = rng.gen_range(0..dataset.len() as u32);
            let Some(q) = gc_workload::extract_query(dataset.graph(src), 6, &mut rng) else {
                continue;
            };
            let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&q));
            let resp = client.post("/query?kind=sub", body.as_bytes())?;
            if resp.status == 200 {
                let parsed: QueryResponse = serde_json::from_str(&resp.body_text())
                    .map_err(|e| format!("bad /query response: {e}"))?;
                ok += 1;
                memo_hits += parsed.memo_hit as u64;
            }
        }
        for g in fresh.by_ref().take(inserts) {
            let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&g));
            let resp = client.post("/mutate?op=insert", body.as_bytes())?;
            if resp.status != 200 {
                return Err(format!("insert failed: HTTP {}: {}", resp.status, resp.body_text()));
            }
            let parsed: gc_server::MutateResponse = serde_json::from_str(&resp.body_text())
                .map_err(|e| format!("bad /mutate response: {e}"))?;
            inserted.push(parsed.graph_id);
        }
        for _ in 0..removes.min(inserted.len()) {
            let gid = inserted.remove(0);
            let resp = client.post(&format!("/mutate?op=remove&id={gid}"), &[])?;
            if resp.status != 200 {
                return Err(format!("remove failed: HTTP {}: {}", resp.status, resp.body_text()));
            }
        }
        let stats = client.get("/stats")?;
        if stats.status != 200 {
            return Err(format!("/stats failed: HTTP {}", stats.status));
        }
        let s: gc_server::StatsResponse = serde_json::from_str(&stats.body_text())
            .map_err(|e| format!("bad /stats response: {e}"))?;
        println!(
            "round {round}: generation {}, {} live graphs, {ok} queries ok, {memo_hits} memo hits",
            s.dataset_generation, s.dataset_live_graphs
        );
    }
    Ok(())
}

/// `gc top`: live terminal dashboard over a running `gc serve` — polls
/// `/stats` and `/debug/slow` every `--interval-ms` and redraws in place
/// (ANSI clear), showing throughput, the per-stage pipeline latency
/// table, and the most recent slow queries. `--iterations N` bounds the
/// refresh loop (0, the default, runs until killed).
fn cmd_top(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("server").cloned().unwrap_or_else(|| "127.0.0.1:7411".into());
    let addr = addr.trim_start_matches("http://");
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("--server {addr}: {e}"))?;
    let interval = std::time::Duration::from_millis(get(flags, "interval-ms", 1000)?);
    let iterations: u64 = get(flags, "iterations", 0)?;
    let mut client = HttpClient::connect(addr)?;
    let mut tick = 0u64;
    loop {
        let stats = client.get("/stats")?;
        if stats.status != 200 {
            return Err(format!("/stats: HTTP {}", stats.status));
        }
        let s: gc_server::StatsResponse = serde_json::from_str(&stats.body_text())
            .map_err(|e| format!("bad /stats response: {e}"))?;
        let slow = client.get("/debug/slow?n=5")?;
        let slow: gc_server::TracesResponse = serde_json::from_str(&slow.body_text())
            .map_err(|e| format!("bad /debug/slow response: {e}"))?;

        let mut frame = String::with_capacity(2048);
        frame.push_str(&format!(
            "gc top — http://{addr}  (refresh {} ms)\n\n",
            interval.as_millis()
        ));
        frame.push_str(&format!(
            "queries {}  hit ratio {:.1}%  filter skipped {}  entries {}  generation {}  up {}s{}\n",
            s.queries,
            100.0 * s.hit_ratio,
            s.filter_skipped,
            s.entries,
            s.dataset_generation,
            s.uptime_secs,
            if s.draining { "  DRAINING" } else { "" }
        ));
        frame.push_str(&format!(
            "requests {}  shed {}  timed out {}  traces sampled {}  slow {}\n",
            s.requests_total,
            s.requests_shed,
            s.requests_timed_out,
            s.traces_sampled,
            s.slow_queries
        ));
        frame.push_str(&format!(
            "latency  p50 {} us  p90 {} us  p99 {} us  (bucket upper bounds)\n\n",
            s.pipeline_p50_us, s.pipeline_p90_us, s.pipeline_p99_us
        ));
        frame.push_str(&format!(
            "{:<8} {:>10} {:>9} {:>9} {:>9}\n",
            "stage", "count", "p50_us", "p90_us", "p99_us"
        ));
        for st in &s.stages {
            frame.push_str(&format!(
                "{:<8} {:>10} {:>9} {:>9} {:>9}\n",
                st.stage, st.count, st.p50_us, st.p90_us, st.p99_us
            ));
        }
        frame.push('\n');
        if slow.traces.is_empty() {
            frame.push_str("slow queries: none\n");
        } else {
            frame.push_str("slow queries (newest first):\n");
            for t in &slow.traces {
                frame.push_str(&format!(
                    "  seq {:<7} {:<5} {:<8} {:<7} total {:>8} us  verify {:>8} us  cm {:>5}  \
                     answer {:>4}  rid {}\n",
                    t.seq,
                    t.kind,
                    t.outcome,
                    if t.plan.is_empty() { "-" } else { &t.plan },
                    t.total_us,
                    t.verify_us,
                    t.cm_size,
                    t.answer,
                    t.request_id.as_deref().unwrap_or("-")
                ));
            }
        }
        // Clear + home, then the whole frame in one write (no flicker).
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();

        tick += 1;
        if iterations != 0 && tick >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_journey(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let (gc, _) = build_cache(&dataset, flags, 1)?;
    let seed: u64 = get(flags, "seed", 7)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let chain = nested_chain(dataset.graph(0), &[3, 5, 8, 12], &mut rng);
    if chain.len() < 4 {
        return Err("dataset graph 0 is too small to stage a journey".into());
    }
    for (i, q) in chain.iter().enumerate() {
        if i != 2 {
            gc.query(q, QueryKind::Subgraph);
        }
    }
    let journey = run_query_journey(&gc, &chain[2], QueryKind::Subgraph);
    println!("{}", journey.rendering);
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let spec = WorkloadSpec {
        n_queries: get(flags, "queries", 300)?,
        pool_size: get(flags, "pool", 150)?,
        kind: workload_kind(flags.get("workload").map(String::as_str).unwrap_or("zipf"))?,
        seed: get(flags, "seed", 7)?,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let feature_size: usize = get(flags, "feature-size", 2)?;
    let config = CacheConfig {
        capacity: get(flags, "capacity", 25)?,
        window_size: get(flags, "window", 10)?,
        ..CacheConfig::default()
    };
    let cmp = run_workload_comparison(
        &dataset,
        &|| Box::new(FtvMethod::build(&dataset, feature_size)),
        &config,
        &workload,
    );
    println!("{}", cmp.render());
    println!("winner: {}", cmp.winner());
    Ok(())
}

const USAGE: &str =
    "usage: gc <generate|run|serve|save|load|doctor|mutate|journey|compare|top> [--flag value]...
  gc generate --out ds.tve [--count N] [--seed S] [--model molecules|er|ba]
  gc run      --dataset ds.tve [--queries N] [--workload zipf|uniform|drift]
              [--policy LRU|POP|PIN|PINC|HD] [--capacity N] [--feature-size L] [--dev]
              [--clients N] [--check]   (N>1: N client threads, one cache;
               --check compares every answer with Method M alone)
              [--server HOST:PORT]      (client mode: POST the workload to a
               running `gc serve`; --check cross-checks every HTTP answer)
              [--snapshot-dir DIR [--snapshot-interval N] [--journal-max-bytes B]
               [--fsync-every N | --fsync-interval-ms M]]
              (DIR: warm-restart from it, journal this run, snapshot at exit;
               composes with --clients N: shared-cache restore + snapshot)
  gc serve    --dataset ds.tve [--addr 127.0.0.1:7411] [--workers N]
              [--queue-depth N] [--deadline-ms M] [--snapshot-dir DIR]
              [--duration-secs S]   (omitted: serve until Enter/EOF; then a
               graceful drain finishes in-flight work and snapshots)
  gc save     --dataset ds.tve --snapshot-dir DIR [run flags]  (run + persist)
  gc load     --dataset ds.tve --snapshot-dir DIR  (restore + show dashboards)
  gc doctor   [--json] DIR   (offline check: CRC walk, generation chain,
                     torn tails, what a restore would recover; --json emits
                     the full report as JSON; exit 1 if corrupt)
  gc mutate   --dataset ds.tve [--rounds N] [--inserts I] [--removes R]
              [--queries Q] [--seed S] [--check]  (live insert/remove demo;
               --check cross-checks every answer against Method M alone)
              [--server HOST:PORT]  (POST mutations to a running `gc serve`
               via /mutate instead of mutating locally)
  gc journey  --dataset ds.tve [--seed S]
  gc compare  --dataset ds.tve [--queries N] [--workload ...] [--capacity N]
  gc top      [--server HOST:PORT] [--interval-ms M] [--iterations N]
              (live dashboard over a running `gc serve`: throughput,
               per-stage pipeline latency, recent slow queries; N=0 runs
               until killed)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `doctor` takes a positional directory (plus an optional --json).
    if cmd == "doctor" {
        let json = args[1..].iter().any(|a| a == "--json");
        let Some(dir) = args[1..].iter().find(|a| !a.starts_with("--")) else {
            eprintln!("gc: missing directory\n  gc doctor [--json] DIR");
            return ExitCode::from(2);
        };
        return match cmd_doctor(dir, json) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gc: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "run" => cmd_run(&flags),
        "serve" => cmd_serve(&flags),
        "save" => cmd_save(&flags),
        "load" => cmd_load(&flags),
        "mutate" => cmd_mutate(&flags),
        "journey" => cmd_journey(&flags),
        "compare" => cmd_compare(&flags),
        "top" => cmd_top(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gc: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn malformed_numeric_flags_are_errors_naming_the_flag() {
        let err = get::<usize>(&flags(&[("count", "3O")]), "count", 100).unwrap_err();
        assert!(err.contains("--count") && err.contains("3O"), "{err}");
        for key in ["fsync-every", "fsync-interval-ms", "snapshot-interval", "journal-max-bytes"] {
            let err = cache_config(&flags(&[(key, "x")])).unwrap_err();
            assert!(err.contains(&format!("--{key}")) && err.contains("\"x\""), "{err}");
        }
        let err = cmd_generate(&flags(&[("out", "unused.tve"), ("count", "3O")])).unwrap_err();
        assert!(err.contains("--count"), "{err}");
    }

    #[test]
    fn absent_flags_default_and_good_values_parse() {
        assert_eq!(get(&flags(&[]), "count", 100), Ok(100));
        assert_eq!(get(&flags(&[("count", "30")]), "count", 100), Ok(30));
        let cfg =
            cache_config(&flags(&[("fsync-every", "8"), ("snapshot-interval", "5")])).unwrap();
        assert_eq!(cfg.fsync_policy, gc_core::FsyncPolicy::EveryN(8));
        assert_eq!(cfg.snapshot_interval, Some(5));
        assert_eq!(cfg.journal_max_bytes, None);
        let cfg = cache_config(&flags(&[])).unwrap();
        assert_eq!(cfg.fsync_policy, gc_core::FsyncPolicy::Never);
    }
}
