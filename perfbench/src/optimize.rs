//! The `optimize` workload: the Table-1 gap study at the `small`
//! budget `repro optimize` uses, closed loop, in this process.
//!
//! An operation is one optimizer run for one Table-1 pair — exactly
//! the body of `gap_study`, timed per pair. The traced run drives the
//! same runs through `init_state` / `advance_round` / `finish` and
//! re-evaluates every start's incumbent after every round through the
//! kernel layers, to split the study into plan, cover and scan time.

use std::time::Instant;

use faultline_analysis::table1::TABLE1_PAIRS;
use faultline_opt::{
    advance_round, finish, gap_study, init_state, run, Budget, OptimizeConfig, OptimizeReport,
};

use crate::calib::Sampler;
use crate::cpu;
use crate::kernel::{self, Tally};
use crate::report::Report;
use crate::requests::Rng;
use crate::server::peak_rss_mb;
use crate::stats;

/// Set-up repetitions per run; the median is reported. One takes about
/// a millisecond, so together they span several speed samples.
const SETUPS: usize = 200;

/// Seconds of measurement one gap study is budgeted at when sizing a
/// run: the study count is fixed by `--seconds`, not by how fast the
/// host is, so every run's latency sample has the same shape.
const STUDY_BUDGET_S: f64 = 6.0;

fn config(n: usize, f: usize, seed: u64) -> OptimizeConfig {
    let mut config = OptimizeConfig::new(n, f);
    config.budget = Budget::Small;
    config.seed = seed;
    config
}

fn is_two_group(n: usize, f: usize) -> bool {
    n >= 2 * f + 2
}

/// Appends the reproducible part of a report to a digest: the f64 bits
/// of every ratio plus the evaluation count.
fn digest(digest: &mut Vec<u64>, report: &OptimizeReport) {
    digest.extend([
        report.best_found_cr.to_bits(),
        report.baseline_measured.to_bits(),
        report.improvement.to_bits(),
        report.thm1_cr.to_bits(),
        report.evaluations,
    ]);
}

/// The output check: the certificate cross-check holds and the search
/// never reports worse than the `A(n, f)` baseline it started from.
fn report_ok(report: &OptimizeReport) -> bool {
    report.crosscheck.is_consistent() && report.best_found_cr <= report.baseline_measured
}

/// Set-up: objective construction and the start set of every pair,
/// i.e. everything before the first round, in reference seconds.
fn setup_once(seed: u64, sampler: &Sampler) -> Result<f64, String> {
    let start = sampler.reference_s()?;
    for &(n, f) in TABLE1_PAIRS {
        let config = config(n, f, seed);
        if is_two_group(n, f) {
            std::hint::black_box(config.objective().map_err(|e| e.to_string())?);
        } else {
            std::hint::black_box(init_state(&config).map_err(|e| e.to_string())?);
        }
    }
    Ok(sampler.reference_s()? - start)
}

/// One gap study. It runs on this thread alone (`FAULTLINE_THREADS=1`)
/// and waits for nothing but the CPU.
struct Study {
    /// Reference seconds (see `calib`).
    reference_s: f64,
    /// CPU seconds of this thread.
    cpu_s: f64,
    wall_s: f64,
    /// Reference milliseconds of each pair's run, in `TABLE1_PAIRS` order.
    pair_ms: Vec<f64>,
    evaluations: u64,
    digest: Vec<u64>,
    bad: u64,
}

/// Optimizer seeds of a run's studies, drawn from the bench seed: one
/// per study, so a run's medians span several search paths, except that
/// the last study repeats the first, whose report digests must match.
/// The search path sets the cost: one seed's (41, 20) run took 13% more
/// CPU than another's, which with one seed per run was most of the
/// spread between runs.
fn study_seeds(seed: u64, studies: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 4);
    let mut seeds: Vec<u64> = (1..studies).map(|_| rng.next_u64()).collect();
    seeds.push(seeds[0]);
    seeds
}

fn study(seed: u64, sampler: &Sampler) -> Result<Study, String> {
    let (start, cpu_start, wall) = (sampler.reference_s()?, cpu::thread_s(), Instant::now());
    let mut out = Study {
        reference_s: 0.0,
        cpu_s: 0.0,
        wall_s: 0.0,
        pair_ms: Vec::new(),
        evaluations: 0,
        digest: Vec::new(),
        bad: 0,
    };
    for &(n, f) in TABLE1_PAIRS {
        let t = sampler.reference_s()?;
        let report = run(&config(n, f, seed)).map_err(|e| e.to_string())?;
        out.pair_ms.push((sampler.reference_s()? - t) * 1e3);
        out.evaluations += report.evaluations;
        digest(&mut out.digest, &report);
        out.bad += u64::from(!report_ok(&report));
    }
    out.reference_s = sampler.reference_s()? - start;
    out.cpu_s = cpu::thread_s() - cpu_start;
    out.wall_s = wall.elapsed().as_secs_f64();
    Ok(out)
}

/// Runs the workload; `traced` selects the per-layer run.
///
/// # Errors
///
/// Optimizer failures (none are expected on the Table-1 pairs).
pub fn run_workload(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    if traced {
        return traced_run(seed);
    }
    // The last allowed CPU, as for the serve workloads: the first takes
    // the device interrupts, whose time the kernel charges to whatever
    // task they interrupt. The sampler shares it.
    let cpu = crate::pin::allowed_cpus().last().copied();
    if let Some(cpu) = cpu {
        crate::pin::pin_current_thread(cpu).map_err(|e| format!("cannot pin to CPU {cpu}: {e}"))?;
        eprintln!("perfbench: optimize and its sampler pinned to CPU {cpu}");
    }
    let sampler = Sampler::start(cpu::Clock::this_thread(), cpu)?;
    let mut report = Report::new();
    let setups: Vec<f64> =
        (0..SETUPS).map(|_| setup_once(seed, &sampler)).collect::<Result<_, _>>()?;
    report.set("setup_s", stats::median(&setups));

    let studies = ((seconds as f64 / STUDY_BUDGET_S).round() as usize).max(3);
    let seeds = study_seeds(seed, studies);
    let runs: Vec<Study> = seeds.iter().map(|&s| study(s, &sampler)).collect::<Result<_, _>>()?;
    let samples = sampler.samples();
    drop(sampler);
    for r in &runs {
        report.attempted += TABLE1_PAIRS.len() as u64;
        report.failed += r.bad;
    }
    let (first, repeat) = (&runs[0], &runs[runs.len() - 1]);
    if repeat.digest != first.digest || repeat.evaluations != first.evaluations {
        eprintln!("perfbench: optimize report digest differs between repeats of seed {}", seeds[0]);
        report.correct = false;
        report.failed += TABLE1_PAIRS.len() as u64;
    }
    report.correct &= report.failed == 0;
    let study_s = stats::median(&runs.iter().map(|r| r.reference_s).collect::<Vec<_>>());
    let evals_per_s = stats::median(
        &runs.iter().map(|r| r.evaluations as f64 / r.reference_s).collect::<Vec<_>>(),
    );
    let latencies = stats::sorted(&runs.iter().flat_map(|r| r.pair_ms.clone()).collect::<Vec<_>>());
    let tail = stats::tail(&latencies).expect("at least three studies of twelve pairs");
    // The latency of one run on the largest pair, (41, 20). The median
    // over all pairs would sit between two small pairs whose order and
    // cost change with the optimizer seed.
    let largest = (0..TABLE1_PAIRS.len()).max_by_key(|&i| TABLE1_PAIRS[i]).expect("twelve pairs");
    let largest_ms = stats::median(&runs.iter().map(|r| r.pair_ms[largest]).collect::<Vec<_>>());
    report.set("study_s", study_s);
    report.set("evals_per_s", evals_per_s);
    report.set("latency_p50_ms", largest_ms);
    report.set("max_rate_qps", TABLE1_PAIRS.len() as f64 / study_s);
    report.set("ok_share", 1.0 - report.failed as f64 / report.attempted as f64);
    report.set("peak_rss_mb", peak_rss_mb("/proc/self/status")?);
    let rounded =
        |v: &mut dyn Iterator<Item = f64>| v.map(|x| (x * 1e3).round() / 1e3).collect::<Vec<_>>();
    eprintln!(
        "perfbench: optimize {studies} studies, evaluations {:?}, pair latency tail p{:.1} of {}: {:.3} ms; \
         study reference {:?} s, CPU {:?} s, wall {:?} s; {samples} speed samples",
        runs.iter().map(|r| r.evaluations).collect::<Vec<_>>(),
        tail.percentile,
        tail.samples,
        tail.value,
        rounded(&mut runs.iter().map(|r| r.reference_s)),
        rounded(&mut runs.iter().map(|r| r.cpu_s)),
        rounded(&mut runs.iter().map(|r| r.wall_s)),
    );
    Ok(report)
}

/// Per-pair layer times of the traced study.
#[derive(Default)]
struct Layers {
    /// CPU seconds of init, rounds and finish (rounds may run starts
    /// in parallel, so this can exceed their wall time).
    opt_cpu_s: f64,
    init_s: f64,
    advance_s: f64,
    finish_s: f64,
    two_group_s: f64,
    decompose_s: f64,
}

fn traced_run(seed: u64) -> Result<Report, String> {
    let mut report = Report::new();
    // Untraced reference: the public gap study itself.
    let t = Instant::now();
    let rows = gap_study(Budget::Small, seed).map_err(|e| e.to_string())?;
    let untraced_s = t.elapsed().as_secs_f64();
    let mut reference = Vec::new();
    for row in &rows {
        digest(&mut reference, &row.report);
    }

    let wall = Instant::now();
    let mut layers = Layers::default();
    let mut total = Tally::default();
    let (mut evaluations, mut kernel_evaluations) = (0u64, 0u64);
    let mut traced_digest = Vec::new();
    let mut est = [0.0f64; 5]; // plan, cover, scan, profile self, profile
    let mut repeat_counts_equal = true;
    for &(n, f) in TABLE1_PAIRS {
        let config = config(n, f, seed);
        report.attempted += 1;
        if is_two_group(n, f) {
            let t = Instant::now();
            let pair = run(&config).map_err(|e| e.to_string())?;
            layers.two_group_s += t.elapsed().as_secs_f64();
            evaluations += pair.evaluations;
            digest(&mut traced_digest, &pair);
            report.failed += u64::from(!report_ok(&pair));
            continue;
        }
        let cpu_start = cpu::own_s();
        let t = Instant::now();
        let mut state = init_state(&config).map_err(|e| e.to_string())?;
        layers.init_s += t.elapsed().as_secs_f64();
        let mut incumbents: Vec<_> = state.starts.iter().map(|s| s.schedule.clone()).collect();
        for _ in 0..config.budget.knobs().rounds {
            let t = Instant::now();
            advance_round(&mut state).map_err(|e| e.to_string())?;
            layers.advance_s += t.elapsed().as_secs_f64();
            incumbents.extend(state.starts.iter().map(|s| s.schedule.clone()));
        }
        let t = Instant::now();
        let pair = finish(&state).map_err(|e| e.to_string())?;
        layers.finish_s += t.elapsed().as_secs_f64();
        // Only the incumbent snapshots ran between the CPU reads.
        layers.opt_cpu_s += cpu::own_s() - cpu_start;
        evaluations += pair.evaluations;
        kernel_evaluations += pair.evaluations;
        digest(&mut traced_digest, &pair);
        report.failed += u64::from(!report_ok(&pair));

        // Decompose this pair's incumbents, twice: the work counts of
        // one seed must repeat exactly.
        let t = Instant::now();
        let xmax = config.resolved_xmax().map_err(|e| e.to_string())?;
        let mut tallies = [Tally::default(), Tally::default()];
        for tally in &mut tallies {
            for schedule in &incumbents {
                kernel::free_schedule(tally, schedule, f, xmax).map_err(|e| e.to_string())?;
            }
        }
        repeat_counts_equal &= tallies[0].counts() == tallies[1].counts();
        layers.decompose_s += t.elapsed().as_secs_f64();
        let tally = tallies[0];
        // Scale this pair's per-evaluation means by its evaluations.
        let per_eval = pair.evaluations as f64 / tally.evaluations as f64;
        let self_s = tally.profile_s - tally.plan_s - tally.cover_s - tally.scan_s;
        for (slot, s) in
            est.iter_mut().zip([tally.plan_s, tally.cover_s, tally.scan_s, self_s, tally.profile_s])
        {
            *slot += s * per_eval;
        }
        total.add(&tally);
    }
    let wall_s = wall.elapsed().as_secs_f64();

    if traced_digest != reference {
        eprintln!("perfbench: traced optimizer reports differ from gap_study's");
        report.correct = false;
    }
    if !repeat_counts_equal {
        eprintln!("perfbench: kernel work counts differ between two passes of one seed");
        report.correct = false;
    }
    report.correct &= report.failed == 0;

    let ms = 1e3;
    let opt_s = layers.init_s + layers.advance_s + layers.finish_s;
    report.set("opt.init_state.ms", layers.init_s * ms);
    report.set("opt.advance_round.ms", layers.advance_s * ms);
    report.set("opt.finish.ms", layers.finish_s * ms);
    report.set("opt.two_group.ms", layers.two_group_s * ms);
    report.set("opt.evaluations", evaluations as f64);
    report.set("opt.cpu.ms", layers.opt_cpu_s * ms);
    report.set("opt.self.ms", (layers.opt_cpu_s - est[4]) * ms);
    let evals = kernel_evaluations as f64;
    report.set("core.plan.ms", est[0] / evals * ms);
    report.set("core.exact.cover.ms", est[1] / evals * ms);
    report.set("analysis.exact.scan.ms", est[2] / evals * ms);
    report.set("analysis.supremum.self.ms", est[3] / evals * ms);
    report.set("analysis.supremum.profile.ms", est[4] / evals * ms);
    total.report_counts(&mut report);
    report.set("est.core.plan.ms", est[0] * ms);
    report.set("est.core.exact.cover.ms", est[1] * ms);
    report.set("est.analysis.exact.scan.ms", est[2] * ms);
    report.set("est.analysis.supremum.self.ms", est[3] * ms);
    report.set("est.kernel_share", (est[0] + est[1] + est[2]) / layers.opt_cpu_s);
    report.set("trace.wall.ms", wall_s * ms);
    report
        .set("trace.residual.ms", (wall_s - opt_s - layers.two_group_s - layers.decompose_s) * ms);
    report.set("bench.trace.overhead_share", wall_s / untraced_s - 1.0);
    eprintln!(
        "perfbench: traced wall = init + rounds + finish + two-group + decomposition + residual; \
         opt.self.ms = optimizer CPU time - evaluations x profile mean (an estimate)"
    );
    Ok(report)
}
