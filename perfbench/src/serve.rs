//! The `serve-hot` and `serve-cold` workloads against one release
//! `faultline serve` shard in its own process.
//!
//! A run: set-up (spawn until `/healthz` answers, several times), the
//! hot mix's warm-up, closed-loop passes replaying one seeded request
//! list (`study_s`), the reference step at the workload's fixed rate
//! (latency, `/metrics` deltas), then the rate ladder above it. Every
//! response is checked against the body the same handlers compute in
//! this process.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use faultline_analysis::scenario::Scenario;
use faultline_analysis::supremum::{resolve_strategy, SupremumQuery, TURNING_POINT_EPS};
use faultline_core::Params;
use faultline_scenario::ScenarioDoc;
use faultline_serve::router::Route;

use crate::calib::Sampler;
use crate::client::Tier;
use crate::kernel::{self, Tally};
use crate::loadgen::{self, Judged, Request, Schedule, Step};
use crate::replay::{replay, Layer};
use crate::report::Report;
use crate::requests::{
    cold_requests, expected_body, expected_digests, hot_request, hot_warmup, Rng,
};
use crate::server::{Deltas, Flags, Server};
use crate::stats;

/// Server spawns per run; the median set-up time is reported.
const SETUPS: usize = 11;
/// Share of `--seconds` the reference step runs for.
const REFERENCE_SHARE: f64 = 0.4;
/// Share of `--seconds` each ladder step above the reference runs for.
const STEP_SHARE: f64 = 0.1;
/// Generator lag p99 above which a run measured the generator, not the
/// server (or a quarter of the latency tail, when that is larger).
pub const LAG_LIMIT_MS: f64 = 1.0;

/// A serve workload's pinned shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Whether this is the hot (memo and LRU) mix; else the cold one.
    pub hot: bool,
    /// Pinned server flags.
    pub flags: Flags,
    /// The fixed reference rate latency is reported at, req/s.
    pub reference_rate: f64,
    /// Ladder rates above the reference, ascending, req/s.
    pub ladder: &'static [f64],
    /// Tail-latency limit a ladder step must meet, ms.
    pub limit_ms: f64,
    /// Requests in each closed-loop pass.
    pub closed: usize,
    /// Closed-loop passes per run; the median pass time is `study_s`.
    pub closed_passes: usize,
    /// Generator threads, one connection each (capped at `nproc`).
    pub generator_threads: usize,
}

/// `serve-hot`: the loadgen mix, all answered by the memo tier or LRU.
pub const HOT: Spec = Spec {
    hot: true,
    flags: Flags {
        threads: 2,
        cache_bytes: 64 << 20,
        memo_max_n: 64,
        queue: 64,
        timeout_secs: 60,
        faultline_threads: 2,
    },
    reference_rate: 8000.0,
    // The knee (the closed-loop rate, 40-70k req/s on a 2-vCPU host)
    // sits well inside the 24k-96k gap, so the figure holds still
    // under host noise and drops only on a large regression.
    ladder: &[12000.0, 24000.0, 96000.0],
    limit_ms: 20.0,
    closed: 8000,
    closed_passes: 15,
    // Hot answers take microseconds: one connection keeps up.
    generator_threads: 1,
};

/// `serve-cold`: distinct keys, an LRU far smaller than the working set.
pub const COLD: Spec = Spec {
    hot: false,
    // One pool thread: the shard runs on one pinned CPU.
    flags: Flags {
        threads: 1,
        cache_bytes: 64 << 10,
        memo_max_n: 64,
        queue: 64,
        timeout_secs: 60,
        faultline_threads: 1,
    },
    // Most of the server's CPU goes to the tiny optimizes (one request
    // in twenty), each holding up whatever arrives behind it. At 100
    // req/s the server was busy a quarter of the time, about a quarter
    // of the requests waited, and the median sat at the edge of that
    // queue: it moved by a quarter between runs. At 50 req/s it sits
    // among the requests that did not wait.
    reference_rate: 50.0,
    // The knee (about 500 req/s) sits inside the 300-1200 gap.
    ladder: &[150.0, 300.0, 1200.0],
    limit_ms: 200.0,
    closed: 600,
    closed_passes: 5,
    // Two, so both halves of a coalescing pair are in flight together.
    generator_threads: 2,
};

/// Seeded request phases and their expected body digests.
struct Inputs {
    hot: bool,
    rng: Rng,
    seen: HashSet<u64>,
    hot_digests: HashMap<Vec<u8>, u64>,
}

impl Inputs {
    fn digest_hot(&mut self, request: &Request) -> Result<u64, String> {
        if let Some(d) = self.hot_digests.get(&request.wire) {
            return Ok(*d);
        }
        let d = loadgen::fnv1a(&expected_body(request)?);
        self.hot_digests.insert(request.wire.clone(), d);
        Ok(d)
    }

    fn phase(&mut self, count: usize, rate: Option<f64>) -> Result<(Schedule, Vec<u64>), String> {
        let (requests, pair) = if self.hot {
            ((0..count).map(|_| hot_request(&mut self.rng)).collect(), vec![None; count])
        } else {
            cold_requests(&mut self.rng, count, &mut self.seen)
        };
        let expected = if self.hot {
            requests.iter().map(|r| self.digest_hot(r)).collect::<Result<Vec<_>, _>>()?
        } else {
            expected_digests(&requests)?
        };
        let schedule = match rate {
            Some(rate) => Schedule::at_rate(requests, pair, rate),
            None => Schedule::closed(requests, pair),
        };
        Ok((schedule, expected))
    }
}

/// Runs a phase and judges every response; returns the judged samples
/// and the connects made.
fn drive(
    addr: &str,
    schedule: &Schedule,
    expected: &[u64],
    (workers, cpu): (usize, Option<usize>),
    wrong: &mut u64,
) -> (Vec<Judged>, u64) {
    let (samples, connects) = loadgen::run(addr, schedule, workers, cpu);
    let judged: Vec<Judged> = samples
        .into_iter()
        .map(|s| {
            let judged = loadgen::judge(s, schedule.requests[s.index].route, expected[s.index]);
            if judged.failed && matches!(s.answer, loadgen::Answer::Response { status: 200, .. }) {
                *wrong += 1;
            }
            judged
        })
        .collect();
    (judged, connects)
}

/// Runs a serve workload.
///
/// # Errors
///
/// Spawn, scrape or in-process failures; wrong answers are reported in
/// the result instead.
pub fn run_workload(
    spec: &Spec,
    bin: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    workers: usize,
) -> Result<Report, String> {
    let mut report = Report::new();
    let mut inputs = Inputs {
        hot: spec.hot,
        rng: Rng::new(seed, u64::from(spec.hot)),
        seen: HashSet::new(),
        hot_digests: HashMap::new(),
    };
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut tally = |judged: &[Judged]| {
        attempted += judged.len() as u64;
        failed += judged.iter().filter(|j| j.failed).count() as u64;
    };

    // Generator and server share one CPU, the last allowed one (the
    // first usually takes the device interrupts); see `pin`.
    let cpu = crate::pin::allowed_cpus().last().copied();
    if let Some(cpu) = cpu {
        eprintln!("perfbench: generator and server pinned to CPU {cpu}");
    }
    let generator = (workers, cpu);
    // Set-up is the server's CPU time until `/healthz` answered, in
    // reference seconds (see `calib`): its wall time, 15 ms, swung by a
    // third between runs with steal and wake-up delays. The sampler's
    // own clock is unused; only its slowness scales the spawns.
    let sampler = Sampler::start(crate::cpu::Clock::this_thread(), cpu)?;
    let (mut setups, mut setup_cpus, mut setup_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.stop()?;
        }
        let (spawned, setup) = Server::spawn(bin, &spec.flags, cpu)?;
        setups.push(setup.cpu_s / sampler.slowness());
        setup_cpus.push(setup.cpu_s);
        setup_walls.push(setup.wall_s);
        server = Some(spawned);
    }
    drop(sampler);
    let server = server.expect("at least one set-up");
    eprintln!(
        "perfbench: set-up median: reference {:.6} s, server CPU {:.6} s, wall {:.6} s",
        stats::median(&setups),
        stats::median(&setup_cpus),
        stats::median(&setup_walls)
    );
    report.set("setup_s", stats::median(&setups));

    let warmup = if spec.hot { hot_warmup() } else { Vec::new() };
    if !warmup.is_empty() {
        let expected =
            warmup.iter().map(|r| inputs.digest_hot(r)).collect::<Result<Vec<_>, _>>()?;
        let schedule = Schedule::closed(warmup.clone(), vec![None; warmup.len()]);
        tally(&drive(&server.addr, &schedule, &expected, (1, cpu), &mut wrong).0);
    }

    // One list, replayed: every pass does the same work, so the median
    // pass tracks the host, not the draw. On serve-cold the list's
    // working set is several times the LRU, so a cyclic replay still
    // misses on every request. A pass is timed as the server's CPU time
    // (see `cpu`) in reference seconds (see `calib`), sampled on the
    // server's CPU: the generator shares that CPU, so the pass's wall
    // time would also hold the generator's turns and the host's steal.
    let (closed_schedule, closed_expected) = inputs.phase(spec.closed, None)?;
    let clock = server.cpu_clock()?;
    let sampler = Sampler::start(clock, cpu)?;
    let (mut passes, mut cpus, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..spec.closed_passes {
        let (reference, cpu_s) = (sampler.reference_s()?, clock.read()?);
        let (closed, _) =
            drive(&server.addr, &closed_schedule, &closed_expected, generator, &mut wrong);
        passes.push(sampler.reference_s()? - reference);
        cpus.push(clock.read()? - cpu_s);
        tally(&closed);
        let first_sent = closed.iter().map(|j| j.sample.sent).fold(f64::INFINITY, f64::min);
        let last_done = closed.iter().map(|j| j.sample.done).fold(0.0, f64::max);
        walls.push(last_done - first_sent);
    }
    let samples = sampler.samples();
    drop(sampler);
    let study_s = stats::median(&passes);
    eprintln!(
        "perfbench: closed-loop pass median: reference {:.6} s, server CPU {:.6} s, wall {:.6} s; \
         {samples} speed samples",
        study_s,
        stats::median(&cpus),
        stats::median(&walls)
    );
    report.set("study_s", study_s);
    report.set("evals_per_s", spec.closed as f64 / study_s);

    let count = |rate: f64, share: f64| ((rate * seconds as f64 * share).round() as usize).max(50);
    let (reference_schedule, expected) =
        inputs.phase(count(spec.reference_rate, REFERENCE_SHARE), Some(spec.reference_rate))?;
    let before = server.metrics()?;
    let (reference, reference_connects) =
        drive(&server.addr, &reference_schedule, &expected, generator, &mut wrong);
    let deltas = Deltas::between(&before, &server.metrics()?);
    tally(&reference);
    let reference_step = Step::new(spec.reference_rate, &reference);

    let mut rates = vec![spec.reference_rate];
    rates.extend_from_slice(spec.ladder);
    let mut first = Some(reference_step.clone());
    let (steps, max_rate) = loadgen::ladder(&rates, spec.limit_ms, |rate| {
        if let Some(step) = first.take() {
            return Ok(step);
        }
        let (schedule, expected) = inputs.phase(count(rate, STEP_SHARE), Some(rate))?;
        let (judged, _) = drive(&server.addr, &schedule, &expected, generator, &mut wrong);
        tally(&judged);
        Ok::<_, String>(Step::new(rate, &judged))
    })?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;

    for step in &steps {
        eprintln!(
            "perfbench: step {:>6} req/s: p50 {:.3} ms, tail {:.3} ms, failed {}, backlog {}, lag p99 {:.3} ms",
            step.rate,
            step.p50_ms,
            step.tail.map_or(f64::NAN, |t| t.value),
            step.failed,
            if step.backlog_grows { "grows" } else { "steady" },
            step.lag_p99_ms
        );
    }
    let tail = reference_step.tail.ok_or("reference step too short for a tail percentile")?;
    report.attempted = attempted;
    report.failed = failed;
    report.correct = wrong == 0;
    report.set("latency_p50_ms", reference_step.p50_ms);
    report.set("latency_p99_ms", tail.value);
    report.set("max_rate_qps", max_rate);
    report.set("ok_share", 1.0 - failed as f64 / attempted as f64);
    report.set("peak_rss_mb", peak_rss_mb);
    if wrong > 0 {
        eprintln!("perfbench: {wrong} responses differ from the in-process answer");
    }
    if reference_step.lag_p99_ms > LAG_LIMIT_MS.max(0.25 * tail.value) {
        let note = format!(
            "perfbench: run invalid: generator lag p99 {:.3} ms exceeds max({LAG_LIMIT_MS} ms, tail / 4); \
             the figures measure the generator, not the server",
            reference_step.lag_p99_ms
        );
        eprintln!("{note}");
        println!("{note}");
    }
    stress_checks(spec, &reference, &deltas);

    if traced {
        traced_layers(
            &mut report,
            spec,
            &warmup,
            &reference_schedule.requests,
            &reference,
            &deltas,
        )?;
        report.set("bench.loadgen.lag_p99_ms", reference_step.lag_p99_ms);
        report.set("bench.loadgen.connects", reference_connects as f64);
        report.set("bench.latency.samples", tail.samples as f64);
        report.set("bench.latency.tail_percentile", tail.percentile);
    }
    Ok(report)
}

/// Prints whether the workload stressed what it claims to.
fn stress_checks(spec: &Spec, reference: &[Judged], deltas: &Deltas) {
    let tiered: Vec<Tier> =
        reference.iter().map(Judged::tier).filter(|t| *t != Tier::Untiered).collect();
    let share = |tier: Tier| {
        tiered.iter().filter(|t| **t == tier).count() as f64 / tiered.len().max(1) as f64
    };
    let verdict = |ok: bool| if ok { "ok" } else { "NOT MET" };
    if spec.hot {
        let answered = share(Tier::Memo) + share(Tier::Hit);
        eprintln!(
            "perfbench: check memo+hit answer >= 99% of tiered requests: {} ({:.4})",
            verdict(answered >= 0.99),
            answered
        );
        eprintln!(
            "perfbench: check pool jobs near zero: {} ({})",
            verdict(deltas.pool_jobs <= 1.0),
            deltas.pool_jobs
        );
    } else {
        eprintln!(
            "perfbench: check evictions > 0: {} ({})",
            verdict(deltas.cache_evictions > 0.0),
            deltas.cache_evictions
        );
        eprintln!(
            "perfbench: check coalesced > 0: {} ({})",
            verdict(deltas.coalesced > 0.0),
            deltas.coalesced
        );
        eprintln!(
            "perfbench: check every tiered answer is a miss: {} ({:.4})",
            verdict(share(Tier::Miss) == 1.0),
            share(Tier::Miss)
        );
        let invariants = deltas.cache_hits + deltas.cache_misses == reference.len() as f64
            && deltas.cache_insertions == deltas.pool_jobs
            && deltas.cache_misses == deltas.pool_jobs + deltas.coalesced
            && deltas.memo_hits == 0.0
            && deltas.pool_rejected == 0.0
            && deltas.pool_timeouts == 0.0;
        eprintln!(
            "perfbench: check counters agree (lookups = requests, insertions = jobs, misses = jobs + coalesced): {}",
            verdict(invariants)
        );
    }
}

/// The `(p50, p99)` split metrics of a route.
fn route_metrics(route: Route) -> (&'static str, &'static str) {
    match route {
        Route::Cr => ("serve.route.cr.p50_ms", "serve.route.cr.p99_ms"),
        Route::Scenario => ("serve.route.scenario.p50_ms", "serve.route.scenario.p99_ms"),
        Route::Supremum => ("serve.route.supremum.p50_ms", "serve.route.supremum.p99_ms"),
        Route::Optimize => ("serve.route.optimize.p50_ms", "serve.route.optimize.p99_ms"),
        Route::Table1 => ("serve.route.table1.p50_ms", "serve.route.table1.p99_ms"),
        Route::Healthz | Route::Metrics => {
            ("serve.route.healthz.p50_ms", "serve.route.healthz.p99_ms")
        }
    }
}

/// Median and tail of a group on the same windowed basis as the step
/// figures (the maximum when too small for a tail, 0 when empty).
fn p50_p99(group: &[Judged]) -> (f64, f64) {
    let step = Step::new(0.0, group);
    let max = group.iter().map(Judged::latency_ms).fold(0.0, f64::max);
    (step.p50_ms, step.tail.map_or(max, |t| t.value))
}

fn traced_layers(
    report: &mut Report,
    spec: &Spec,
    warmup: &[Request],
    requests: &[Request],
    reference: &[Judged],
    deltas: &Deltas,
) -> Result<(), String> {
    // Client-side splits at the reference rate.
    let tiered = reference.iter().filter(|j| j.tier() != Tier::Untiered).count().max(1) as f64;
    for tier in [Tier::Memo, Tier::Hit, Tier::Miss] {
        let group: Vec<Judged> = reference.iter().filter(|j| j.tier() == tier).copied().collect();
        let (p50, p99) = p50_p99(&group);
        let names = match tier {
            Tier::Memo => {
                ["serve.tier.memo.p50_ms", "serve.tier.memo.p99_ms", "serve.tier.memo.share"]
            }
            Tier::Hit => ["serve.tier.hit.p50_ms", "serve.tier.hit.p99_ms", "serve.tier.hit.share"],
            _ => ["serve.tier.miss.p50_ms", "serve.tier.miss.p99_ms", "serve.tier.miss.share"],
        };
        report.set(names[0], p50);
        report.set(names[1], p99);
        report.set(names[2], group.len() as f64 / tiered);
    }
    for route in [
        Route::Cr,
        Route::Scenario,
        Route::Supremum,
        Route::Optimize,
        Route::Table1,
        Route::Healthz,
    ] {
        let group: Vec<Judged> = reference.iter().filter(|j| j.route == route).copied().collect();
        let (p50, p99) = p50_p99(&group);
        let (p50_name, p99_name) = route_metrics(route);
        report.set(p50_name, p50);
        report.set(p99_name, p99);
    }

    // Server counters over the reference step.
    report.set("serve.memo.hits", deltas.memo_hits);
    report.set("serve.cache.hits", deltas.cache_hits);
    report.set("serve.cache.misses", deltas.cache_misses);
    report.set("serve.cache.insertions", deltas.cache_insertions);
    report.set("serve.cache.hit_ratio", deltas.hit_ratio());
    report.set("serve.cache.evictions", deltas.cache_evictions);
    report.set("serve.flight.coalesced", deltas.coalesced);
    report.set("serve.pool.jobs", deltas.pool_jobs);
    report.set("serve.pool.rejected", deltas.pool_rejected);
    report.set("serve.pool.timeouts", deltas.pool_timeouts);
    report.set("serve.server.connections", deltas.connections);
    report.set("serve.server.keepalive_reuses", deltas.keepalive_reuses);

    // In-process replay, untimed then timed: the work must repeat
    // exactly, and the wall-time ratio is the tracing overhead.
    let plain = replay(warmup, requests, &spec.flags, false)?;
    let timed = replay(warmup, requests, &spec.flags, true)?;
    if plain.work() != timed.work() {
        eprintln!("perfbench: replay work counts differ between two passes of one seed");
        report.correct = false;
    }
    let us = 1e6;
    report.set("serve.replay.requests", timed.requests as f64);
    report.set("serve.http.parse.us", timed.mean_s(Layer::Parse) * us);
    report.set("serve.router.route.us", timed.mean_s(Layer::Route) * us);
    report.set("serve.handlers.prepare.us", timed.mean_s(Layer::Prepare) * us);
    report.set("serve.memo.get.us", timed.mean_s(Layer::Memo) * us);
    report.set("serve.cache.get.us", timed.mean_s(Layer::CacheGet) * us);
    report.set("serve.cache.insert.us", timed.mean_s(Layer::CacheInsert) * us);
    report.set("serve.http.encode.us", timed.mean_s(Layer::Encode) * us);
    report.set("serve.compute.supremum.ms", timed.mean_s(Layer::Compute(Route::Supremum)) * 1e3);
    report.set("serve.compute.scenario.ms", timed.mean_s(Layer::Compute(Route::Scenario)) * 1e3);
    report.set("serve.compute.optimize.ms", timed.mean_s(Layer::Compute(Route::Optimize)) * 1e3);
    report.set("serve.compute.table1.ms", timed.mean_s(Layer::Compute(Route::Table1)) * 1e3);
    report.set("serve.http.bytes_out", timed.bytes_out as f64);
    let sum_us = timed.layered_s() / timed.requests as f64 * us;
    report.set("serve.replay.sum.us", sum_us);
    let answered: Vec<f64> =
        reference.iter().filter(|j| !j.failed).map(Judged::latency_ms).collect();
    let mean_ms = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
    report.set("serve.transport.us", mean_ms * 1e3 - sum_us);
    report.set("trace.wall.ms", timed.wall_s * 1e3);
    report.set("trace.residual.ms", (timed.wall_s - timed.layered_s()) * 1e3);
    report.set("bench.trace.overhead_share", timed.wall_s / plain.wall_s - 1.0);
    eprintln!(
        "perfbench: traced wall = the replay's timed layers + residual; mean end-to-end latency \
         minus the replay sum (serve.transport.us) is transport, event loop and queue wait"
    );

    // The kernel under supremum requests, and the two scenario runners.
    let mut tallies = [Tally::default(), Tally::default()];
    let (mut v1, mut legacy) = (Vec::new(), Vec::new());
    let mut measure_s = 0.0;
    for request in requests {
        let body = std::str::from_utf8(&request.wire)
            .ok()
            .and_then(|w| w.split_once("\r\n\r\n"))
            .map_or("", |(_, b)| b);
        match request.route {
            Route::Supremum => {
                let query: SupremumQuery = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let params = Params::new(query.n, query.f).map_err(|e| e.to_string())?;
                let strategy =
                    resolve_strategy(&query.strategy, query.beta).map_err(|e| e.to_string())?;
                let horizon =
                    strategy.horizon_hint(params, query.xmax * (1.0 + 2.0 * TURNING_POINT_EPS));
                for tally in &mut tallies {
                    kernel::scan_once(
                        tally,
                        || strategy.plans(params),
                        horizon,
                        params.required_visits(),
                        query.xmax,
                    )
                    .map_err(|e| e.to_string())?;
                    tally.evaluations += 1;
                }
                let t = Instant::now();
                std::hint::black_box(query.run().map_err(|e| e.to_string())?);
                measure_s += t.elapsed().as_secs_f64();
            }
            Route::Scenario if body.contains("\"version\"") => {
                let doc = ScenarioDoc::from_json(body).map_err(|e| e.to_string())?;
                let t = Instant::now();
                std::hint::black_box(doc.run().map_err(|e| e.to_string())?);
                v1.push(t.elapsed().as_secs_f64());
            }
            Route::Scenario if body.contains("\"targets\"") => {
                let scenario = Scenario::from_json(body).map_err(|e| e.to_string())?;
                let t = Instant::now();
                std::hint::black_box(scenario.run().map_err(|e| e.to_string())?);
                legacy.push(t.elapsed().as_secs_f64());
            }
            _ => {}
        }
    }
    if tallies[0].counts() != tallies[1].counts() {
        eprintln!("perfbench: kernel work counts differ between two passes of one seed");
        report.correct = false;
    }
    let tally = tallies[0];
    if tally.evaluations > 0 {
        let per = |s: f64| s / tally.evaluations as f64 * 1e3;
        report.set("core.plan.ms", per(tally.plan_s));
        report.set("core.exact.cover.ms", per(tally.cover_s));
        report.set("analysis.exact.scan.ms", per(tally.scan_s));
        report.set("analysis.supremum.profile.ms", per(measure_s));
        report.set(
            "analysis.supremum.self.ms",
            per(measure_s - tally.plan_s - tally.cover_s - tally.scan_s),
        );
    }
    tally.report_counts(report);
    let mean_ms =
        |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 * 1e3 };
    report.set("scenario.run.ms", mean_ms(&v1));
    report.set("analysis.scenario.run.ms", mean_ms(&legacy));
    Ok(())
}
