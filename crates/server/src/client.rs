//! Minimal blocking HTTP client + the load generator behind `gc-load`.
//!
//! The client half of the hand-rolled protocol layer: keep-alive
//! connections, `Content-Length`-framed responses (the server always
//! sends one), socket timeouts, and transparent reconnect. On top of it,
//! [`run_load`] replays a workload from N connection threads with retry,
//! capped exponential backoff with jitter, and per-request latency
//! percentiles — the well-behaved client the shedding design assumes
//! (it backs off when told `503`, rather than hammering).

use crate::api::QueryResponse;
use crate::http::push_header;
use gc_core::telemetry::{Histogram, HistogramSnapshot};
use gc_method::QueryKind;
use gc_workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A blocking keep-alive HTTP/1.1 client for one server address.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Socket timeout for connect/read/write.
    pub timeout: Duration,
    /// The outgoing request, rebuilt in place for every request.
    send: Vec<u8>,
    /// The incoming response (head and body), read in place.
    recv: Vec<u8>,
}

impl HttpClient {
    /// Connect to `addr` (lazily re-connects after errors).
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let timeout = Duration::from_secs(5);
        let stream = Some(open_stream(addr, timeout)?);
        Ok(HttpClient { addr, stream, timeout, send: Vec::new(), recv: Vec::new() })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, String> {
        self.request("GET", path, &[], &[])
    }

    /// `POST path` with a body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> Result<ClientResponse, String> {
        self.request("POST", path, &[], body)
    }

    /// Send one request and read the framed response. On any transport
    /// error the connection is dropped (the next call reconnects) and the
    /// error is returned.
    ///
    /// **Stale keep-alive handling:** a server is free to close an idle
    /// keep-alive connection between requests (idle timeout, drain,
    /// restart). A request written into such a socket fails with a write
    /// error or a clean close before any response byte — in both cases
    /// the server never answered this request, so the client reconnects
    /// and resends **once**, transparently. The retry only fires on a
    /// *reused* connection with *zero* response bytes received; a failure
    /// on a fresh connection or after partial response data surfaces as
    /// an error (resending there could double-execute).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, String> {
        let reused = self.stream.is_some();
        match self.request_inner(method, path, headers, body) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.stream = None;
                if reused && e.stale_keepalive {
                    let result = self.request_inner(method, path, headers, body);
                    if result.is_err() {
                        self.stream = None;
                    }
                    result.map_err(|e| e.msg)
                } else {
                    Err(e.msg)
                }
            }
        }
    }

    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, TransportError> {
        let raw = &mut self.send;
        raw.clear();
        for part in [method, " ", path, " HTTP/1.1\r\nhost: gc\r\n"] {
            raw.extend_from_slice(part.as_bytes());
        }
        for (k, v) in headers {
            push_header(raw, k, v.as_bytes());
        }
        let _ = write!(raw, "content-length: {}\r\n\r\n", body.len());
        raw.extend_from_slice(body);
        if self.stream.is_none() {
            self.stream =
                Some(open_stream(self.addr, self.timeout).map_err(TransportError::fresh)?);
        }
        let stream = self.stream.as_mut().expect("just ensured");
        // A write error on a reused socket is the stale-keep-alive
        // signature: the server closed and cannot have seen the request.
        stream
            .write_all(raw)
            .map_err(|e| TransportError { msg: format!("write: {e}"), stale_keepalive: true })?;
        let response = read_response(stream, &mut self.recv)?;
        // Honour the server's close decision (shed and error responses
        // close; the next request reconnects).
        if response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Connect to `addr` with `timeout` on the connect and on every read/write.
fn open_stream(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, String> {
    let stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// A transport-level request failure. `stale_keepalive` marks the two
/// failure shapes where the server provably never answered the request —
/// a failed write, or a close before the first response byte — which a
/// reused connection may transparently retry once.
#[derive(Debug)]
struct TransportError {
    msg: String,
    stale_keepalive: bool,
}

impl TransportError {
    fn fresh(msg: String) -> Self {
        TransportError { msg, stale_keepalive: false }
    }
}

/// Bytes asked of the socket per read while the head is incomplete.
const HEAD_READ: usize = 8 * 1024;

/// Read one `Content-Length`-framed response from `stream` into `buf`
/// (cleared first; the client reuses it across requests): the head in
/// reads of up to [`HEAD_READ`] bytes, then exactly the rest of the body.
/// The returned body is an exactly sized copy — callers keep bodies (the
/// benchmark samples them), so it must not carry the read buffer's slack.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<ClientResponse, TransportError> {
    buf.clear();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 64 * 1024 {
            return Err(TransportError::fresh("response head too large".into()));
        }
        let filled = buf.len();
        buf.resize(filled + HEAD_READ, 0);
        let read = stream.read(&mut buf[filled..]);
        buf.truncate(filled + read.as_ref().map_or(0, |&n| n));
        // A clean close (or reset) before the first response byte is the
        // stale-keep-alive signature when the socket was reused.
        match read {
            Ok(0) => {
                return Err(TransportError {
                    msg: "connection closed mid-response".into(),
                    stale_keepalive: filled == 0,
                })
            }
            Ok(_) => {}
            Err(e) => {
                return Err(TransportError {
                    msg: format!("read: {e}"),
                    stale_keepalive: filled == 0,
                })
            }
        }
    };

    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| TransportError::fresh("response head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status =
        status_line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).ok_or_else(|| {
            TransportError::fresh(format!("malformed status line: {status_line:?}"))
        })?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| TransportError::fresh(format!("bad content-length: {value:?}")))?;
        }
        headers.push((name, value));
    }

    let total = head_end + content_length;
    if buf.len() < total {
        let missing = (total - buf.len()) as u64;
        stream
            .take(missing)
            .read_to_end(buf)
            .map_err(|e| TransportError::fresh(format!("read body: {e}")))?;
        if buf.len() < total {
            return Err(TransportError::fresh("connection closed mid-body".into()));
        }
    }
    Ok(ClientResponse { status, headers, body: buf[head_end..total].to_vec() })
}

// ---- backoff ---------------------------------------------------------------

/// Capped exponential backoff with jitter: attempt `n` sleeps a uniform
/// draw from `[base·2ⁿ/2, base·2ⁿ]`, capped at `cap`. Jitter decorrelates
/// retrying clients so a shedding server is not met with a synchronized
/// thundering herd.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// First-retry delay.
    pub base: Duration,
    /// Upper bound on any delay.
    pub cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// New backoff schedule.
    pub fn new(base: Duration, cap: Duration) -> Self {
        Backoff { base, cap, attempt: 0 }
    }

    /// Delay for the next retry (advances the schedule).
    pub fn next_delay(&mut self, rng: &mut impl Rng) -> Duration {
        let exp = self.base.saturating_mul(1u32 << self.attempt.min(16));
        let capped = exp.min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let micros = capped.as_micros().max(1) as u64;
        Duration::from_micros(rng.gen_range(micros / 2..=micros))
    }

    /// Reset after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

// ---- load generation -------------------------------------------------------

/// Parameters of a [`run_load`] run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadSpec {
    /// Concurrent connection threads.
    pub connections: usize,
    /// Retries per request after shed/timeout/transport errors.
    pub retries: u32,
    /// First-retry backoff delay, milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff cap, milliseconds.
    pub backoff_cap_ms: u64,
    /// RNG seed for jitter.
    pub seed: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec { connections: 4, retries: 3, backoff_base_ms: 5, backoff_cap_ms: 200, seed: 0 }
    }
}

/// Outcome of a [`run_load`] run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Requests attempted (unique workload queries).
    pub sent: u64,
    /// Requests that got a `200` with a parseable body.
    pub ok: u64,
    /// `503` shed responses observed (before retries).
    pub shed: u64,
    /// `504`/`408` deadline responses observed.
    pub timed_out: u64,
    /// Requests that exhausted retries without a `200`.
    pub failed: u64,
    /// Retries performed.
    pub retries: u64,
    /// p50 end-to-end latency, microseconds (successful requests).
    ///
    /// Percentiles come from a shared log2-µs [`Histogram`] per thread
    /// (merged at the end) rather than buffering every raw latency: the
    /// estimate is a bucket *upper bound*, at most 2× the true value —
    /// one bucket of error — in exchange for O(1) memory per thread.
    pub p50_us: u64,
    /// p90 end-to-end latency, microseconds (same one-bucket bound).
    pub p90_us: u64,
    /// p99 end-to-end latency, microseconds (same one-bucket bound).
    pub p99_us: u64,
    /// Max end-to-end latency, microseconds (exact — the histogram
    /// tracks the true maximum).
    pub max_us: u64,
    /// Wall-clock duration of the whole run, microseconds.
    pub elapsed_us: u64,
    /// Successful requests per second.
    pub throughput_rps: f64,
}

/// `p`-th percentile (0–100) of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Replay `workload` against the server at `addr` from
/// [`LoadSpec::connections`] threads (queries striped round-robin), with
/// retry + backoff on shed/timeout/transport errors. Returns the merged
/// report; per-request answers are NOT checked here (the chaos gate does
/// that with `execute_base` replay).
pub fn run_load(addr: SocketAddr, workload: &Workload, spec: &LoadSpec) -> LoadReport {
    let t0 = Instant::now();
    let n_threads = spec.connections.max(1);
    let results: Vec<(LoadReport, HistogramSnapshot)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut report = LoadReport::default();
                    let latencies = Histogram::new();
                    let mut rng =
                        StdRng::seed_from_u64(spec.seed ^ (t as u64).wrapping_mul(0x9e37));
                    // The initial connect gets the same retry + backoff
                    // budget as any request: a server that is restarting
                    // (or briefly saturating its accept queue) must not
                    // fail the thread's whole query slice on the spot.
                    let mut connect_backoff = Backoff::new(
                        Duration::from_millis(spec.backoff_base_ms),
                        Duration::from_millis(spec.backoff_cap_ms),
                    );
                    let mut connect_attempts_left = spec.retries + 1;
                    let mut client = loop {
                        connect_attempts_left -= 1;
                        match HttpClient::connect(addr) {
                            Ok(client) => break client,
                            Err(_) if connect_attempts_left > 0 => {
                                report.retries += 1;
                                std::thread::sleep(connect_backoff.next_delay(&mut rng));
                            }
                            Err(_) => {
                                report.failed =
                                    workload.queries.iter().skip(t).step_by(n_threads).count()
                                        as u64;
                                return (report, latencies.snapshot());
                            }
                        }
                    };
                    for wq in workload.queries.iter().skip(t).step_by(n_threads) {
                        let body = gc_graph::io::dataset_to_string(std::slice::from_ref(&wq.graph));
                        let path = match wq.kind {
                            QueryKind::Subgraph => "/query?kind=sub",
                            QueryKind::Supergraph => "/query?kind=super",
                        };
                        report.sent += 1;
                        let mut backoff = Backoff::new(
                            Duration::from_millis(spec.backoff_base_ms),
                            Duration::from_millis(spec.backoff_cap_ms),
                        );
                        let started = Instant::now();
                        let mut attempts_left = spec.retries + 1;
                        let ok = loop {
                            attempts_left -= 1;
                            match client.post(path, body.as_bytes()) {
                                Ok(resp) if resp.status == 200 => {
                                    if serde_json::from_str::<QueryResponse>(&resp.body_text())
                                        .is_ok()
                                    {
                                        break true;
                                    }
                                    break false;
                                }
                                Ok(resp) => {
                                    if resp.status == 503 {
                                        report.shed += 1;
                                    } else if resp.status == 504 || resp.status == 408 {
                                        report.timed_out += 1;
                                    }
                                }
                                Err(_) => {}
                            }
                            if attempts_left == 0 {
                                break false;
                            }
                            report.retries += 1;
                            std::thread::sleep(backoff.next_delay(&mut rng));
                        };
                        if ok {
                            report.ok += 1;
                            latencies.observe(started.elapsed());
                        } else {
                            report.failed += 1;
                        }
                    }
                    (report, latencies.snapshot())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });

    let mut merged = LoadReport::default();
    let mut latencies = HistogramSnapshot::default();
    for (r, l) in results {
        merged.sent += r.sent;
        merged.ok += r.ok;
        merged.shed += r.shed;
        merged.timed_out += r.timed_out;
        merged.failed += r.failed;
        merged.retries += r.retries;
        latencies.merge(&l);
    }
    merged.p50_us = latencies.percentile_us(50.0);
    merged.p90_us = latencies.percentile_us(90.0);
    merged.p99_us = latencies.percentile_us(99.0);
    merged.max_us = latencies.max_us;
    let elapsed = t0.elapsed();
    merged.elapsed_us = elapsed.as_micros() as u64;
    merged.throughput_rps =
        if elapsed.is_zero() { 0.0 } else { merged.ok as f64 / elapsed.as_secs_f64() };
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_expected_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 51); // nearest-rank on 0-indexed
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(100));
        let mut rng = StdRng::seed_from_u64(7);
        let d1 = b.next_delay(&mut rng);
        assert!(d1 >= Duration::from_millis(5) && d1 <= Duration::from_millis(10), "{d1:?}");
        let d2 = b.next_delay(&mut rng);
        assert!(d2 >= Duration::from_millis(10) && d2 <= Duration::from_millis(20), "{d2:?}");
        for _ in 0..10 {
            let d = b.next_delay(&mut rng);
            assert!(d <= Duration::from_millis(100), "capped: {d:?}");
        }
        b.reset();
        let d = b.next_delay(&mut rng);
        assert!(d <= Duration::from_millis(10), "reset restarts the schedule: {d:?}");
    }
}
