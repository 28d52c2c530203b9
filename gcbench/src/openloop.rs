//! Load generator for the HTTP workload. Open loop: every request has a due
//! time on a fixed schedule, requests are striped over the connections, and
//! latency runs from the due time — a stall is charged to every request it
//! delays. The generator spins up to its due times instead of sleeping up to
//! them, and its own lateness is measured beside the latencies, so that the
//! numbers describe the program, not the scheduler. `rate: None` makes the
//! same driver a closed loop (each connection sends as soon as it is free).

use crate::layers::{self, HttpClient, Query};
use crate::stats::percentile;
use std::time::{Duration, Instant};

/// When request `i` of a `rate`-per-second schedule is due, in ns from the
/// start of the phase.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64
}

/// How late the generator itself was: the send instant minus the first
/// instant it could have sent (the due time, or when its connection came
/// free if the previous reply was still outstanding then).
pub fn generator_late_ns(due: u64, connection_free: u64, sent: u64) -> u64 {
    sent.saturating_sub(due.max(connection_free))
}

/// A wait shorter than this is spun through (yielding the processor to any
/// thread that wants it); only the part of a wait beyond it is slept.
const SPIN: Duration = Duration::from_millis(2);

/// Block until `due`. Sleeping all the way costs a timer wake-up from an idle
/// processor — on the reference box 60 to 250 µs, varying with what the host
/// is doing — which an open loop would then charge to the program; spinning
/// through the last stretch keeps this thread's processor awake instead.
fn wait_until(due: Instant) {
    let wait = due.saturating_duration_since(Instant::now());
    if wait > SPIN {
        std::thread::sleep(wait - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One request as the generator saw it; times in ns from the phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the phase's request list.
    pub index: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub late_ns: u64,
    pub status: u16,
    /// The reply body, kept only where the caller asked for it.
    pub body: Option<Vec<u8>>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency as the user sees it: from when the request was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Round trip alone: from the send to the last byte of the reply.
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }
}

/// Send `requests` (query, body) over `clients`, request `i` on connection
/// `i % clients.len()`. Returns the instant the samples' times count from,
/// and the samples in request order.
pub fn drive(
    clients: &mut [HttpClient],
    requests: &[(&Query, &str)],
    rate: Option<u64>,
    keep_body: impl Fn(usize) -> bool + Sync,
) -> (Instant, Vec<Sample>) {
    let stride = clients.len();
    // A little lead so both threads are parked on the schedule before it starts.
    let origin = Instant::now() + Duration::from_millis(2);
    let keep_body = &keep_body;
    let mut per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let since = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
                    let mut out = Vec::with_capacity(requests.len() / stride + 1);
                    let mut free_ns = 0;
                    for index in (lane..requests.len()).step_by(stride) {
                        let due = rate.map_or(free_ns, |r| due_ns(index as u64, r));
                        wait_until(origin + Duration::from_nanos(due));
                        let (query, body) = requests[index];
                        let sent = Instant::now();
                        let reply = layers::http_request(client, query, body);
                        let done_ns = since(Instant::now());
                        let sent_ns = since(sent);
                        out.push(Sample {
                            index,
                            due_ns: due,
                            sent_ns,
                            done_ns,
                            late_ns: generator_late_ns(due, free_ns, sent_ns),
                            status: reply.status,
                            body: keep_body(index).then_some(reply.body),
                        });
                        free_ns = done_ns;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut all: Vec<Sample> = per_thread.drain(..).flatten().collect();
    all.sort_by_key(|s| s.index);
    (origin, all)
}

/// What one open-loop phase showed.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: u64,
    pub sent: usize,
    pub failed: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    /// Completions per second, from the phase start to the last reply.
    pub completed_rps: f64,
    /// Requests not yet answered when the schedule ended.
    pub backlog: usize,
    pub gen_late_p99_us: f64,
    /// The generator ran more than 1 ms late (p99) on its own account, so the
    /// latencies say nothing about the program.
    pub invalid: bool,
}

impl Phase {
    pub fn of(rate: u64, samples: &[Sample]) -> Phase {
        let mut lat: Vec<u64> = samples.iter().filter(|s| s.ok()).map(Sample::latency_ns).collect();
        lat.sort_unstable();
        let mut late: Vec<u64> = samples.iter().map(|s| s.late_ns).collect();
        late.sort_unstable();
        let schedule_end = due_ns(samples.len() as u64, rate);
        let last_done = samples.iter().map(|s| s.done_ns).max().unwrap_or(1).max(1);
        let gen_late_p99_us = percentile(&late, 99.0) as f64 / 1e3;
        Phase {
            rate,
            sent: samples.len(),
            failed: samples.iter().filter(|s| !s.ok()).count(),
            p50_us: percentile(&lat, 50.0) as f64 / 1e3,
            p99_us: percentile(&lat, 99.0) as f64 / 1e3,
            max_us: percentile(&lat, 100.0) as f64 / 1e3,
            completed_rps: lat.len() as f64 / (last_done as f64 / 1e9),
            backlog: samples.iter().filter(|s| s.done_ns > schedule_end).count(),
            gen_late_p99_us,
            invalid: gen_late_p99_us > 1000.0,
        }
    }

    /// The rate is sustained: valid measurement, nothing failed, p99 within
    /// `limit_us` of the due times, and completions kept pace with arrivals
    /// (a backlog that grows through the phase shows as a completion rate
    /// below the offered one).
    pub fn sustained(&self, limit_us: f64) -> bool {
        !self.invalid
            && self.failed == 0
            && self.p99_us <= limit_us
            && self.completed_rps >= 0.98 * self.rate as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_and_exact() {
        assert_eq!(due_ns(0, 2000), 0);
        assert_eq!(due_ns(1, 2000), 500_000);
        assert_eq!(due_ns(2000, 2000), 1_000_000_000);
        assert_eq!(due_ns(3, 3000), 1_000_000);
        // No drift over a long schedule: request 10^9 of a 3000/s schedule.
        assert_eq!(due_ns(3_000_000_000, 3000), 1_000_000_000_000_000);
    }

    #[test]
    fn lateness_is_charged_to_whoever_caused_it() {
        // Connection idle at the due time: all of the delay is the generator's.
        assert_eq!(generator_late_ns(1_000, 400, 1_250), 250);
        // Previous reply still outstanding at the due time: only the gap
        // between the connection coming free and the send is the generator's.
        assert_eq!(generator_late_ns(1_000, 5_000, 5_030), 30);
        assert_eq!(generator_late_ns(1_000, 0, 900), 0);
    }

    #[test]
    fn latency_runs_from_due_time_and_backlog_is_counted() {
        let sample = |index, due_ns, done_ns, status| Sample {
            index,
            due_ns,
            sent_ns: due_ns + 10,
            done_ns,
            late_ns: 10,
            status,
            body: None,
        };
        // 1000/s: due every 1 ms; the schedule of 4 requests ends at 4 ms.
        let samples = vec![
            sample(0, 0, 200_000, 200),
            sample(1, 1_000_000, 1_300_000, 200),
            sample(2, 2_000_000, 4_500_000, 200), // stalled: 2.5 ms from due
            sample(3, 3_000_000, 4_700_000, 503),
        ];
        assert_eq!(samples[2].latency_ns(), 2_500_000);
        let phase = Phase::of(1000, &samples);
        assert_eq!((phase.sent, phase.failed, phase.backlog), (4, 1, 2));
        assert_eq!(phase.p50_us, 300.0);
        assert!(!phase.invalid && !phase.sustained(10_000.0));
    }
}
