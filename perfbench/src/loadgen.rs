//! The open-loop load generator, its failure accounting and the rate
//! ladder.
//!
//! Every request has a due time on a fixed schedule. A small set of
//! worker threads (at most `nproc`, one connection each) take requests
//! in due order, wait until they are due and send them; a request that
//! waits for a free connection is late, and its latency is measured
//! from when it was due, so a stalled server shows in every request
//! queued behind the stall. The generator's own lateness — how late a
//! free worker sent a due request — is reported separately: when it is
//! large the run measured the generator, not the program.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use faultline_serve::router::Route;

use crate::client::{Conn, Tier, TransportError};
use crate::stats::{self, Tail};

/// Median lateness growth (last fifth of a step over its first fifth)
/// above which a step's backlog counts as growing: at least this many
/// ms, and at least [`BACKLOG_GROWTH_SHARE`] of the step's length, so
/// bursts of slow requests on a healthy step do not count.
pub const BACKLOG_GROWTH_MS: f64 = 2.0;
/// See [`BACKLOG_GROWTH_MS`].
pub const BACKLOG_GROWTH_SHARE: f64 = 0.05;

/// Fewest samples in one latency window of a step.
pub const WINDOW_MIN: usize = 1000;
/// Most latency windows in one step.
pub const MAX_WINDOWS: usize = 64;

/// One request to send.
#[derive(Debug, Clone)]
pub struct Request {
    /// The route it targets.
    pub route: Route,
    /// The serialized HTTP request.
    pub wire: Vec<u8>,
}

/// The request stream of one phase: requests in due order, their due
/// offsets in seconds, and the rendezvous groups of requests that must
/// be sent together (both halves of a coalescing pair).
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Requests in due order.
    pub requests: Vec<Request>,
    /// Due offset of each request from the phase start, seconds.
    pub due: Vec<f64>,
    /// For each request, the pair it belongs to (both members are
    /// adjacent and share a due time).
    pub pair: Vec<Option<usize>>,
}

impl Schedule {
    /// Spaces `requests` evenly at `rate` per second.
    #[must_use]
    pub fn at_rate(requests: Vec<Request>, pair: Vec<Option<usize>>, rate: f64) -> Schedule {
        let mut due = Vec::with_capacity(requests.len());
        let mut slot = 0usize;
        for i in 0..requests.len() {
            // Pair members share the slot of the first member.
            if i > 0 && pair[i].is_some() && pair[i] == pair[i - 1] {
                due.push(due[i - 1]);
                continue;
            }
            due.push(slot as f64 / rate);
            slot += 1;
        }
        Schedule { requests, due, pair }
    }

    /// Every request due at once: a closed loop over the connections.
    #[must_use]
    pub fn closed(requests: Vec<Request>, pair: Vec<Option<usize>>) -> Schedule {
        let due = vec![0.0; requests.len()];
        Schedule { requests, due, pair }
    }

    fn pairs(&self) -> usize {
        self.pair.iter().flatten().max().map_or(0, |p| p + 1)
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A response: status, tier and FNV-1a digest of the body.
    Response {
        /// HTTP status.
        status: u16,
        /// `X-Cache` tier.
        tier: Tier,
        /// Body digest.
        digest: u64,
    },
    /// No response.
    Transport(TransportError),
}

/// One sent request; times are seconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the schedule.
    pub index: usize,
    /// When it was due.
    pub due: f64,
    /// When a worker was free to send it.
    pub ready: f64,
    /// When it was sent.
    pub sent: f64,
    /// When its response (or failure) completed.
    pub done: f64,
    /// The outcome.
    pub answer: Answer,
}

impl Sample {
    /// How late a free worker sent it: the generator's own lag.
    #[must_use]
    pub fn lag(&self) -> f64 {
        self.sent - self.due.max(self.ready)
    }

    /// How long it waited past its due time before it was sent.
    #[must_use]
    pub fn lateness(&self) -> f64 {
        self.sent - self.due
    }
}

/// FNV-1a 64 of a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Waits for `target` without sleeping: the worker yields, so a server
/// thread sharing its CPU runs whenever it has work, and the CPU never
/// idles into a halt. On a virtual machine the wake-up from a halted
/// CPU can take milliseconds, which would show as generator lag and in
/// the server's own wake-ups.
fn wait_until(target: Instant) {
    while Instant::now() < target {
        std::thread::yield_now();
    }
}

fn worker(
    addr: &str,
    schedule: &Schedule,
    next: &AtomicUsize,
    barriers: &[Barrier],
    start: Instant,
    cpu: Option<usize>,
) -> (Vec<Sample>, u64) {
    if let Some(cpu) = cpu {
        crate::pin::pin_current_thread(cpu)
            .expect("the CPU came from this process's own affinity mask");
    }
    let mut conn = Conn::new(addr);
    let mut samples = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(request) = schedule.requests.get(index) else { break };
        if let Some(pair) = schedule.pair[index] {
            barriers[pair].wait();
        }
        let ready = start.elapsed().as_secs_f64();
        let due = schedule.due[index];
        wait_until(start + Duration::from_secs_f64(due));
        let sent = start.elapsed().as_secs_f64();
        let answer = match conn.send(&request.wire) {
            Ok(response) => Answer::Response {
                status: response.status,
                tier: response.tier,
                digest: fnv1a(&response.body),
            },
            Err(error) => Answer::Transport(error),
        };
        let done = start.elapsed().as_secs_f64();
        samples.push(Sample { index, due, ready, sent, done, answer });
    }
    (samples, conn.connects)
}

/// Drives one phase against `addr` with `workers` connections, their
/// threads pinned to `cpu` when given; returns the samples in schedule
/// order and the connects made.
#[must_use]
pub fn run(
    addr: &str,
    schedule: &Schedule,
    workers: usize,
    cpu: Option<usize>,
) -> (Vec<Sample>, u64) {
    let workers = workers.max(1);
    // A pair needs two workers to rendezvous; with one, its halves go
    // out back to back.
    let barriers: Vec<Barrier> =
        (0..schedule.pairs()).map(|_| Barrier::new(workers.min(2))).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let (mut samples, connects) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| worker(addr, schedule, &next, &barriers, start, cpu)))
            .collect();
        let (mut samples, mut connects) = (Vec::new(), 0);
        for handle in handles {
            let (s, c) = handle.join().expect("load worker panicked");
            samples.extend(s);
            connects += c;
        }
        (samples, connects)
    });
    samples.sort_by_key(|s| s.index);
    (samples, connects)
}

/// A sample judged against its expected body.
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    /// The raw sample.
    pub sample: Sample,
    /// The route of its request.
    pub route: Route,
    /// Whether it failed: transport error, non-200, or a wrong body.
    pub failed: bool,
}

impl Judged {
    /// Latency from due time in ms; a failed request misses every
    /// limit, so it counts as infinitely slow.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        if self.failed {
            f64::INFINITY
        } else {
            (self.sample.done - self.sample.due) * 1e3
        }
    }

    /// The answering tier (untiered for failures without a response).
    #[must_use]
    pub fn tier(&self) -> Tier {
        match self.sample.answer {
            Answer::Response { tier, .. } => tier,
            Answer::Transport(_) => Tier::Untiered,
        }
    }
}

/// Judges a sample: it passes only as a 200 whose body digest equals
/// the expected one.
#[must_use]
pub fn judge(sample: Sample, route: Route, expected_digest: u64) -> Judged {
    let failed = match sample.answer {
        Answer::Response { status, digest, .. } => status != 200 || digest != expected_digest,
        Answer::Transport(_) => true,
    };
    Judged { sample, route, failed }
}

/// Latencies in ms of the given judged samples, ascending.
#[must_use]
pub fn latencies<'a>(judged: impl IntoIterator<Item = &'a Judged>) -> Vec<f64> {
    stats::sorted(&judged.into_iter().map(Judged::latency_ms).collect::<Vec<_>>())
}

/// Whether the queue of due-but-unsent requests grew over the phase:
/// the median lateness of its last fifth exceeds that of its first
/// fifth by more than [`BACKLOG_GROWTH_MS`] and by more than
/// [`BACKLOG_GROWTH_SHARE`] of the phase's scheduled length.
#[must_use]
pub fn backlog_grows(samples: &[Sample]) -> bool {
    let fifth = samples.len() / 5;
    if fifth == 0 {
        return false;
    }
    let late = |part: &[Sample]| {
        stats::median(&part.iter().map(|s| s.lateness() * 1e3).collect::<Vec<_>>())
    };
    let length_ms = (samples[samples.len() - 1].due - samples[0].due) * 1e3;
    let limit = BACKLOG_GROWTH_MS.max(BACKLOG_GROWTH_SHARE * length_ms);
    late(&samples[samples.len() - fifth..]) - late(&samples[..fifth]) > limit
}

/// The summary of one fixed-rate step.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests failed.
    pub failed: usize,
    /// Median latency from due time, ms (median over windows).
    pub p50_ms: f64,
    /// Tail latency from due time, ms (median over windows; `samples`
    /// is the window size).
    pub tail: Option<Tail>,
    /// Whether the backlog grew.
    pub backlog_grows: bool,
    /// p99 of the generator's own lag, ms.
    pub lag_p99_ms: f64,
}

impl Step {
    /// Summarizes judged samples offered at `rate`. Latency figures are
    /// medians over consecutive windows of at least [`WINDOW_MIN`]
    /// samples (at most [`MAX_WINDOWS`]), so one burst of outside
    /// interference moves one window, not the step.
    #[must_use]
    pub fn new(rate: f64, judged: &[Judged]) -> Step {
        let windows = (judged.len() / WINDOW_MIN).clamp(1, MAX_WINDOWS);
        let (mut p50s, mut tails) = (Vec::new(), Vec::new());
        for window in judged.chunks(judged.len().div_ceil(windows).max(1)) {
            let sorted = latencies(window);
            p50s.push(stats::quantile(&sorted, 0.5));
            tails.extend(stats::tail(&sorted));
        }
        let tail = tails.first().map(|t| Tail {
            value: stats::median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            ..*t
        });
        let raw: Vec<Sample> = judged.iter().map(|j| j.sample).collect();
        let lags = stats::sorted(&raw.iter().map(|s| s.lag() * 1e3).collect::<Vec<_>>());
        Step {
            rate,
            failed: judged.iter().filter(|j| j.failed).count(),
            p50_ms: stats::median(&p50s),
            tail,
            backlog_grows: backlog_grows(&raw),
            lag_p99_ms: stats::quantile(&lags, 0.99),
        }
    }

    /// Whether the step meets a tail limit with no failures and no
    /// growing backlog.
    #[must_use]
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_grows && self.tail.is_some_and(|t| t.value <= limit_ms)
    }
}

/// Runs steps at ascending rates until one's backlog grows; returns
/// the steps run and the highest passing rate (0 when none passed).
///
/// # Errors
///
/// The first error a step returns.
pub fn ladder<E>(
    rates: &[f64],
    limit_ms: f64,
    mut run_step: impl FnMut(f64) -> Result<Step, E>,
) -> Result<(Vec<Step>, f64), E> {
    let mut steps = Vec::new();
    let mut max_rate = 0.0f64;
    for &rate in rates {
        let step = run_step(rate)?;
        let stop = step.backlog_grows;
        if step.passes(limit_ms) {
            max_rate = max_rate.max(rate);
        }
        steps.push(step);
        if stop {
            break;
        }
    }
    Ok((steps, max_rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: usize, due: f64, sent: f64, done: f64, answer: Answer) -> Sample {
        Sample { index, due, ready: due, sent, done, answer }
    }

    fn ok(digest: u64) -> Answer {
        Answer::Response { status: 200, tier: Tier::Hit, digest }
    }

    #[test]
    fn every_failure_kind_counts_and_misses_the_limit() {
        let cases = [
            Answer::Response { status: 503, tier: Tier::Untiered, digest: 7 },
            Answer::Response { status: 504, tier: Tier::Untiered, digest: 7 },
            Answer::Transport(TransportError::Reset),
            Answer::Response { status: 200, tier: Tier::Miss, digest: 8 },
        ];
        for answer in cases {
            let judged = judge(sample(0, 0.0, 0.0, 0.001, answer), Route::Cr, 7);
            assert!(judged.failed, "{answer:?} must fail");
            assert_eq!(judged.latency_ms(), f64::INFINITY, "{answer:?} misses every limit");
        }
        let good = judge(sample(0, 0.0, 0.0, 0.001, ok(7)), Route::Cr, 7);
        assert!(!good.failed);
        assert!((good.latency_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_failure_fails_a_step_even_under_the_limit() {
        let mut judged: Vec<Judged> = (0..200)
            .map(|i| {
                judge(
                    sample(i, i as f64 * 1e-3, i as f64 * 1e-3, i as f64 * 1e-3 + 1e-4, ok(1)),
                    Route::Cr,
                    1,
                )
            })
            .collect();
        assert!(Step::new(1000.0, &judged).passes(5.0));
        judged[10] = judge(judged[10].sample, Route::Cr, 2);
        let step = Step::new(1000.0, &judged);
        assert_eq!(step.failed, 1);
        assert!(!step.passes(5.0));
        // Enough failures push the tail itself past any limit.
        for j in judged.iter_mut().take(20) {
            *j = judge(j.sample, Route::Cr, 2);
        }
        assert_eq!(Step::new(1000.0, &judged).tail.unwrap().value, f64::INFINITY);
    }

    #[test]
    fn one_bad_window_does_not_move_the_step() {
        let judged: Vec<Judged> = (0..4000)
            .map(|i| {
                let due = i as f64 * 1e-4;
                let service = if (1000..1100).contains(&i) { 0.05 } else { 1e-4 };
                judge(sample(i, due, due, due + service, ok(1)), Route::Cr, 1)
            })
            .collect();
        let step = Step::new(10_000.0, &judged);
        let tail = step.tail.unwrap();
        assert_eq!(tail.samples, 1000, "four windows of 1000");
        assert!((tail.value - 0.1).abs() < 1e-9, "the stalled window is outvoted: {tail:?}");
        assert!((step.p50_ms - 0.1).abs() < 1e-9);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let judged = judge(sample(0, 1.0, 1.5, 1.502, ok(1)), Route::Cr, 1);
        assert!((judged.latency_ms() - 502.0).abs() < 1e-6);
        assert!((judged.sample.lateness() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn generator_lag_excludes_waiting_for_a_busy_connection() {
        // Free at 1.4, due at 1.0, sent at 1.401: 1 ms of generator lag.
        let s = Sample { index: 0, due: 1.0, ready: 1.4, sent: 1.401, done: 1.5, answer: ok(1) };
        assert!((s.lag() - 0.001).abs() < 1e-9);
    }

    fn step_with_lateness(late_ms: impl Fn(usize) -> f64) -> Vec<Sample> {
        (0..100)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = due + late_ms(i) / 1e3;
                sample(i, due, sent, sent + 1e-4, ok(1))
            })
            .collect()
    }

    #[test]
    fn backlog_growth_needs_a_sustained_rise() {
        assert!(!backlog_grows(&step_with_lateness(|_| 0.3)));
        // A single stall is not a growing backlog.
        assert!(!backlog_grows(&step_with_lateness(|i| if i == 90 { 50.0 } else { 0.3 })));
        // Nor is a rise within 5% of the one-second step's length.
        assert!(!backlog_grows(&step_with_lateness(|i| i as f64 * 0.4)));
        // Lateness rising linearly past that is.
        assert!(backlog_grows(&step_with_lateness(|i| i as f64 * 0.8)));
    }

    fn fake_step(rate: f64, grows: bool) -> Step {
        Step {
            rate,
            failed: 0,
            p50_ms: 0.1,
            tail: Some(Tail {
                value: if grows { 40.0 } else { 0.5 },
                percentile: 99.0,
                samples: 100,
            }),
            backlog_grows: grows,
            lag_p99_ms: 0.0,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_step_whose_backlog_grows() {
        let mut offered = Vec::new();
        let (steps, max_rate) = ladder(&[100.0, 200.0, 400.0, 800.0], 5.0, |rate| {
            offered.push(rate);
            Ok::<_, ()>(fake_step(rate, rate >= 400.0))
        })
        .unwrap();
        assert_eq!(offered, vec![100.0, 200.0, 400.0], "800 never runs");
        assert_eq!(steps.len(), 3);
        assert_eq!(max_rate, 200.0);
    }

    #[test]
    fn ladder_max_rate_skips_steps_over_the_limit() {
        let (_, max_rate) = ladder(&[100.0, 200.0, 400.0], 5.0, |rate| {
            let mut step = fake_step(rate, false);
            if rate == 400.0 {
                step.tail = Some(Tail { value: 9.0, percentile: 99.0, samples: 100 });
            }
            Ok::<_, ()>(step)
        })
        .unwrap();
        assert_eq!(max_rate, 200.0, "a step over the tail limit does not count");
    }

    #[test]
    fn pairs_share_a_due_slot() {
        let r = Request { route: Route::Healthz, wire: Vec::new() };
        let s = Schedule::at_rate(vec![r; 4], vec![None, Some(0), Some(0), None], 10.0);
        assert_eq!(s.due, vec![0.0, 0.1, 0.1, 0.2]);
        assert_eq!(s.pairs(), 1);
    }
}
