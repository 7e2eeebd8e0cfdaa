//! The perf-baseline emitter: times the canonical workloads on the
//! work-stealing engine, compares it against the legacy contiguous
//! chunking on a skewed workload, and writes a machine-readable JSON
//! document (`BENCH_<date>.json`) so every future change can diff
//! against the recorded trajectory.
//!
//! Three canonical workloads are timed:
//!
//! 1. **Table-1 supremum scan** — the empirical `sup K(x)` measurement
//!    over the paper's `(n, f)` grid.
//! 2. **Exhaustive mask exploration** — every `C(n, f)` fault mask for
//!    the Table-1 pairs with `n <= 5` (PR 1's explorer).
//! 3. **Monte-Carlo sweep** — a 10k-sample random-fault sweep of
//!    `A(5, 2)` (1k in `--quick` mode).
//!
//! Three *path comparisons* time faster engines against their retained
//! baselines on the same measurements: the exact critical-point
//! supremum engine vs the adversarial grid (the optimizer inner loop
//! and the strategy supremum path), and the dominance-pruned
//! adversary-space explorer vs its exhaustive differential baseline.
//! Their `speedup` ratios are host-comparable and gated by
//! [`compare_baselines`] alongside the wall-clock timings.
//!
//! The engine comparison runs the same skewed workload through the
//! work-stealing scheduler and the legacy one-contiguous-chunk-per-core
//! scheduler with four worker threads. Two variants are recorded: a
//! CPU-bound one (meaningful on multi-core hosts) and a latency-bound
//! one built from sleeps, whose wall-clock win is observable on any
//! host because sleeping threads overlap even on a single core.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use faultline_analysis::{measure_strategy_cr, table1};
use faultline_core::{par_map_chunked, par_map_with, ParallelConfig, Params};
use faultline_sim::{
    explore_fault_space, run_sweep_ratios_seeded, BernoulliFaults, ExplorerConfig,
    MonteCarloConfig, RatioStats, Target,
};
use faultline_strategies::{PaperStrategy, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hardware and configuration context a timing is only meaningful
/// against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Logical cores reported by the OS.
    pub logical_cores: usize,
    /// Default worker-thread count the engine resolves on this host
    /// (after the `FAULTLINE_THREADS` override, if set).
    pub default_threads: usize,
    /// Operating system family.
    pub os: String,
    /// CPU architecture.
    pub arch: String,
}

/// Wall-clock timing of one canonical workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTiming {
    /// Stable workload identifier (diff key across baselines).
    pub name: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Human-readable description of what was run.
    pub detail: String,
}

/// Exact critical-point supremum engine vs the retained
/// adversarial-grid baseline on the same measurement workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathComparison {
    /// Stable comparison identifier.
    pub name: String,
    /// Wall-clock milliseconds for the adversarial-grid scan.
    pub grid_ms: f64,
    /// Wall-clock milliseconds for the exact critical-point engine.
    pub exact_ms: f64,
    /// `grid_ms / exact_ms` — above 1 means the exact engine wins.
    pub speedup: f64,
    /// Human-readable description of what was measured.
    pub detail: String,
}

/// Work-stealing vs legacy contiguous chunking on a skewed workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineComparison {
    /// Stable comparison identifier.
    pub name: String,
    /// Worker threads used by both schedulers.
    pub threads: usize,
    /// Number of items mapped.
    pub items: usize,
    /// Wall-clock milliseconds for the legacy contiguous chunking.
    pub chunked_ms: f64,
    /// Wall-clock milliseconds for the work-stealing engine.
    pub stealing_ms: f64,
    /// `chunked_ms / stealing_ms` — above 1 means work-stealing wins.
    pub speedup: f64,
}

/// The complete perf baseline written to `BENCH_<date>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Workspace version the baseline was recorded with.
    pub version: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Whether the reduced `--quick` workloads were used.
    pub quick: bool,
    /// Host context.
    pub host: HostInfo,
    /// Canonical workload timings.
    pub workloads: Vec<WorkloadTiming>,
    /// Engine comparisons on skewed workloads.
    pub engine: Vec<EngineComparison>,
    /// Exact-vs-grid supremum path comparisons. Defaults to empty so
    /// baselines recorded before the exact engine still deserialize.
    #[serde(default)]
    pub paths: Vec<PathComparison>,
}

/// Maximum tolerated relative wall-clock growth (and relative speedup
/// loss) against a recorded baseline before the perf gate fails.
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// Wall-clock floor below which a recorded timing is too small to
/// gate: a 25% swing on a sub-5ms workload is scheduler noise, not a
/// regression. Such entries are still printed, as informational.
pub const MIN_GATED_WALL_MS: f64 = 5.0;

/// Result of diffing a freshly measured baseline against a recorded
/// one: one human-readable line per entry, plus the subset that
/// regressed beyond [`REGRESSION_TOLERANCE`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// One line per compared (or skipped) entry.
    pub lines: Vec<String>,
    /// Entries that regressed beyond the tolerance.
    pub regressions: Vec<String>,
}

impl BaselineComparison {
    /// Whether the gate passes (no regression beyond tolerance).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares a fresh baseline against a recorded one.
///
/// Wall-clock workload timings are compared only when both runs used
/// the same `--quick` setting (the reduced workloads are not the same
/// experiments) *and* the same host fingerprint (absolute times on
/// different hardware are not comparable), and only gated when the
/// recorded timing is at least [`MIN_GATED_WALL_MS`]. Path-comparison
/// *speedups* are wall-clock ratios and therefore host-comparable:
/// the exact engine must not lose more than [`REGRESSION_TOLERANCE`]
/// of its recorded advantage on any host.
#[must_use]
pub fn compare_baselines(current: &BenchBaseline, recorded: &BenchBaseline) -> BaselineComparison {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    if current.quick == recorded.quick && current.host == recorded.host {
        for w in &current.workloads {
            let Some(r) = recorded.workloads.iter().find(|r| r.name == w.name) else {
                lines.push(format!("{}: not in the recorded baseline, skipped", w.name));
                continue;
            };
            let growth = w.wall_ms / r.wall_ms - 1.0;
            let mut line = format!(
                "{}: {:.1} ms vs recorded {:.1} ms ({:+.1}%)",
                w.name,
                w.wall_ms,
                r.wall_ms,
                growth * 100.0
            );
            if r.wall_ms < MIN_GATED_WALL_MS {
                line.push_str(" [below gating floor, informational]");
            } else if growth > REGRESSION_TOLERANCE {
                regressions.push(line.clone());
            }
            lines.push(line);
        }
    } else if current.quick != recorded.quick {
        lines.push(format!(
            "wall-clock comparison skipped: current quick = {}, recorded quick = {}",
            current.quick, recorded.quick
        ));
    } else {
        lines.push(
            "wall-clock comparison skipped: host fingerprint differs from the recorded baseline"
                .to_owned(),
        );
    }
    for p in &current.paths {
        let Some(r) = recorded.paths.iter().find(|r| r.name == p.name) else {
            lines.push(format!("{}: not in the recorded baseline, skipped", p.name));
            continue;
        };
        let line = format!(
            "{}: {:.1}x exact-path speedup vs recorded {:.1}x",
            p.name, p.speedup, r.speedup
        );
        if p.speedup < r.speedup * (1.0 - REGRESSION_TOLERANCE) {
            regressions.push(line.clone());
        }
        lines.push(line);
    }
    BaselineComparison { lines, regressions }
}

/// UTC date of `now`, without a calendar dependency (civil-from-days,
/// Howard Hinnant's algorithm).
#[must_use]
pub fn utc_date() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Best-of-five wall clock for the gated timings: the minimum is the
/// least noisy estimator of a workload's true cost on a loaded host,
/// which keeps the [`REGRESSION_TOLERANCE`] gate meaningful.
fn min_time_ms(mut f: impl FnMut()) -> f64 {
    (0..5).map(|_| time_ms(&mut f)).fold(f64::INFINITY, f64::min)
}

fn table1_scan(quick: bool) -> Result<WorkloadTiming, Box<dyn std::error::Error>> {
    let (wall_ms, detail) = if quick {
        let pairs: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 3)];
        let mut err = None;
        let wall = min_time_ms(|| {
            for &(n, f) in pairs {
                let result = Params::new(n, f)
                    .and_then(|p| measure_strategy_cr(&PaperStrategy::new(), p, 16.0));
                if let Err(e) = result {
                    err = Some(e);
                    return;
                }
            }
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        (wall, format!("supremum scan of {} small Table-1 rows (xmax 16, 32 grid)", pairs.len()))
    } else {
        let mut result = Ok(Vec::new());
        let wall = min_time_ms(|| result = table1::regenerate(true));
        result?;
        (wall, "full Table-1 regeneration with empirical supremum scans".to_owned())
    };
    Ok(WorkloadTiming { name: "table1_supremum_scan".to_owned(), wall_ms, detail })
}

fn mask_exploration(quick: bool) -> Result<WorkloadTiming, Box<dyn std::error::Error>> {
    let pairs: &[(usize, usize)] = if quick {
        &[(2, 1), (3, 1), (4, 2)]
    } else {
        &[(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
    };
    let targets = [1.5, -2.5, 7.0];
    let config = ExplorerConfig { seed: 0, ..ExplorerConfig::default() };
    let mut err: Option<Box<dyn std::error::Error>> = None;
    let wall_ms = min_time_ms(|| {
        for &(n, f) in pairs {
            let run = || -> Result<(), Box<dyn std::error::Error>> {
                let params = Params::new(n, f)?;
                let alg = faultline_core::Algorithm::design(params)?;
                let horizon = alg.required_horizon(15.0)?;
                let trajectories = alg
                    .plans()
                    .iter()
                    .map(|p| p.materialize(horizon))
                    .collect::<Result<Vec<_>, _>>()?;
                for x in targets {
                    explore_fault_space(&trajectories, Target::new(x)?, f, &config)?;
                }
                Ok(())
            };
            if let Err(e) = run() {
                err = Some(e);
                return;
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(WorkloadTiming {
        name: "mask_exploration".to_owned(),
        wall_ms,
        detail: format!(
            "exhaustive C(n, f) fault-mask exploration over {} pairs x {} targets",
            pairs.len(),
            targets.len()
        ),
    })
}

fn montecarlo_sweep(quick: bool) -> Result<WorkloadTiming, Box<dyn std::error::Error>> {
    let samples = if quick { 1_000 } else { 10_000 };
    let params = Params::new(5, 2)?;
    let strategy = PaperStrategy::new();
    let plans = strategy.plans(params)?;
    let horizon = strategy.horizon_hint(params, 101.0);
    let mut faults = BernoulliFaults::new(0.3, params.f(), StdRng::seed_from_u64(5))?;
    let config = MonteCarloConfig::new(samples, 100.0)?;
    let mut result = Ok(Vec::new());
    let wall_ms = min_time_ms(|| {
        result = run_sweep_ratios_seeded(&plans, &mut faults, config, horizon, 7);
    });
    let ratios = result?;
    RatioStats::from_ratios(&ratios)?;
    Ok(WorkloadTiming {
        name: "montecarlo_sweep".to_owned(),
        wall_ms,
        detail: format!("{samples}-sample random-fault Monte-Carlo sweep of A(5, 2)"),
    })
}

/// Times the exact and grid paths *interleaved* over five rounds and
/// returns each path's minimum: transient host-load bursts only ever
/// add time, so the per-path minimum over rounds spread across the
/// same wall-clock window is the most burst-resistant estimator of
/// the true cost ratio.
fn interleaved_min_rounds(mut exact: impl FnMut(), mut grid: impl FnMut()) -> (f64, f64) {
    let mut exact_ms = f64::INFINITY;
    let mut grid_ms = f64::INFINITY;
    for _ in 0..7 {
        exact_ms = exact_ms.min(time_ms(&mut exact));
        grid_ms = grid_ms.min(time_ms(&mut grid));
    }
    (exact_ms, grid_ms)
}

fn optimizer_inner_loop(quick: bool) -> Result<PathComparison, Box<dyn std::error::Error>> {
    use faultline_analysis::{measure_free_schedule_profile, measure_free_schedule_profile_grid};
    use faultline_core::{ratio, FreeSchedule, ProportionalSchedule};

    // The optimizer's hot path: profile the proportional seed of
    // A(5, 3) over its default window, exact critical-point engine vs
    // the retained adversarial-grid baseline at the optimizer's
    // default resolution.
    let params = Params::new(5, 3)?;
    let beta = ratio::optimal_beta(params)?;
    let schedule = FreeSchedule::from_proportional(&ProportionalSchedule::new(5, beta)?, 12)?;
    let (xmax, grid_points) = (25.0, 64);
    let reps = if quick { 100 } else { 500 };
    let mut exact_err = None;
    let mut grid_err = None;
    let (exact_ms, grid_ms) = interleaved_min_rounds(
        || {
            for _ in 0..reps {
                if let Err(e) = measure_free_schedule_profile(&schedule, 3, xmax, 0, &[]) {
                    exact_err = Some(e);
                    return;
                }
            }
        },
        || {
            for _ in 0..reps {
                if let Err(e) = measure_free_schedule_profile_grid(&schedule, 3, xmax, grid_points)
                {
                    grid_err = Some(e);
                    return;
                }
            }
        },
    );
    if let Some(e) = exact_err.or(grid_err) {
        return Err(e.into());
    }
    Ok(PathComparison {
        name: "optimizer_inner_loop".to_owned(),
        grid_ms,
        exact_ms,
        speedup: grid_ms / exact_ms,
        detail: format!(
            "{reps}x free-schedule profile of the A(5, 3) seed (xmax {xmax}, grid {grid_points})"
        ),
    })
}

fn strategy_supremum_paths(quick: bool) -> Result<PathComparison, Box<dyn std::error::Error>> {
    use faultline_analysis::{measure_strategy_cr, measure_strategy_cr_grid};

    // The `/v1/supremum` and Table-1 measurement path over the small
    // paper pairs, exact engine vs the grid baseline.
    let pairs: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 3)];
    let (xmax, grid_points) = (16.0, 48);
    let reps = if quick { 50 } else { 250 };
    let strategy = PaperStrategy::new();
    let mut exact_err = None;
    let mut grid_err = None;
    let (exact_ms, grid_ms) = interleaved_min_rounds(
        || {
            for _ in 0..reps {
                for &(n, f) in pairs {
                    let result =
                        Params::new(n, f).and_then(|p| measure_strategy_cr(&strategy, p, xmax));
                    if let Err(e) = result {
                        exact_err = Some(e);
                        return;
                    }
                }
            }
        },
        || {
            for _ in 0..reps {
                for &(n, f) in pairs {
                    let result = Params::new(n, f)
                        .and_then(|p| measure_strategy_cr_grid(&strategy, p, xmax, grid_points));
                    if let Err(e) = result {
                        grid_err = Some(e);
                        return;
                    }
                }
            }
        },
    );
    if let Some(e) = exact_err.or(grid_err) {
        return Err(e.into());
    }
    Ok(PathComparison {
        name: "strategy_supremum".to_owned(),
        grid_ms,
        exact_ms,
        speedup: grid_ms / exact_ms,
        detail: format!(
            "{reps}x paper-strategy supremum over {} pairs (xmax {xmax}, grid {grid_points})",
            pairs.len()
        ),
    })
}

fn explore_pruning_paths(quick: bool) -> Result<PathComparison, Box<dyn std::error::Error>> {
    use faultline_explore::{explore_pair, ExploreConfig};

    // The dominance-pruned adversary-space frontier vs its exhaustive
    // differential baseline on the largest Table-1 pairs with n <= 5;
    // `grid_ms` records the exhaustive (unpruned) path so the speedup
    // ratio reads the same way as the supremum comparisons.
    let pairs: &[(usize, usize)] =
        if quick { &[(4, 3), (5, 3)] } else { &[(4, 3), (5, 3), (5, 4)] };
    let xmax = 25.0;
    let reps = if quick { 3 } else { 10 };
    let pruned_config = ExploreConfig::default();
    let exhaustive_config = ExploreConfig { exhaustive: true, ..ExploreConfig::default() };
    let mut pruned_err = None;
    let mut exhaustive_err = None;
    let (pruned_ms, exhaustive_ms) = interleaved_min_rounds(
        || {
            for _ in 0..reps {
                for &(n, f) in pairs {
                    if let Err(e) = explore_pair(n, f, xmax, &pruned_config) {
                        pruned_err = Some(e);
                        return;
                    }
                }
            }
        },
        || {
            for _ in 0..reps {
                for &(n, f) in pairs {
                    if let Err(e) = explore_pair(n, f, xmax, &exhaustive_config) {
                        exhaustive_err = Some(e);
                        return;
                    }
                }
            }
        },
    );
    if let Some(e) = pruned_err.or(exhaustive_err) {
        return Err(e.into());
    }
    Ok(PathComparison {
        name: "explore_pruning".to_owned(),
        grid_ms: exhaustive_ms,
        exact_ms: pruned_ms,
        speedup: exhaustive_ms / pruned_ms,
        detail: format!(
            "{reps}x dominance-pruned vs exhaustive exploration over {} pairs (xmax {xmax})",
            pairs.len()
        ),
    })
}

/// Deterministic busy work proportional to `cost`, used by the skewed
/// CPU-bound engine comparison (shared with the criterion bench).
#[must_use]
pub fn skewed_work(cost: u64) -> u64 {
    let mut acc = cost ^ 0x9e37_79b9_7f4a_7c15;
    for i in 0..(cost * 24) {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

/// The tail-heavy item-cost vector of the CPU-bound comparison: linear
/// cost growth, so the last contiguous chunk holds most of the work —
/// the shape a supremum sweep over geometrically spaced targets has.
#[must_use]
pub fn skewed_cpu_items(items: usize) -> Vec<u64> {
    (0..items as u64).collect()
}

const COMPARISON_THREADS: usize = 4;

fn compare_engines_cpu(quick: bool) -> EngineComparison {
    let items = skewed_cpu_items(if quick { 1_024 } else { 2_048 });
    let config = ParallelConfig::with_threads(COMPARISON_THREADS);
    let stealing_ms = time_ms(|| {
        par_map_with(&items, &config, |&c| skewed_work(c));
    });
    let chunked_ms = time_ms(|| {
        par_map_chunked(&items, COMPARISON_THREADS, |&c| skewed_work(c));
    });
    EngineComparison {
        name: "skewed_cpu".to_owned(),
        threads: COMPARISON_THREADS,
        items: items.len(),
        chunked_ms,
        stealing_ms,
        speedup: chunked_ms / stealing_ms,
    }
}

fn compare_engines_latency() -> EngineComparison {
    // Sleeps overlap regardless of core count, so this comparison
    // demonstrates the scheduler property even on single-core CI.
    let sleeps: Vec<u64> = (0..32).map(|i| if i >= 28 { 40 } else { 1 }).collect();
    let config = ParallelConfig::with_threads(COMPARISON_THREADS).grain(1);
    let sleep = |&ms: &u64| std::thread::sleep(std::time::Duration::from_millis(ms));
    let stealing_ms = time_ms(|| {
        par_map_with(&sleeps, &config, sleep);
    });
    let chunked_ms = time_ms(|| {
        par_map_chunked(&sleeps, COMPARISON_THREADS, sleep);
    });
    EngineComparison {
        name: "skewed_latency".to_owned(),
        threads: COMPARISON_THREADS,
        items: sleeps.len(),
        chunked_ms,
        stealing_ms,
        speedup: chunked_ms / stealing_ms,
    }
}

/// Runs every workload and comparison and assembles the baseline.
///
/// # Errors
///
/// Propagates failures from the underlying experiments.
pub fn run_baseline(quick: bool) -> Result<BenchBaseline, Box<dyn std::error::Error>> {
    let host = HostInfo {
        logical_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        default_threads: ParallelConfig::default().resolved_threads(),
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
    };
    let workloads = vec![table1_scan(quick)?, mask_exploration(quick)?, montecarlo_sweep(quick)?];
    let engine = vec![compare_engines_cpu(quick), compare_engines_latency()];
    let paths = vec![
        optimizer_inner_loop(quick)?,
        strategy_supremum_paths(quick)?,
        explore_pruning_paths(quick)?,
    ];
    Ok(BenchBaseline {
        version: crate::VERSION.to_owned(),
        date: utc_date(),
        quick,
        host,
        workloads,
        engine,
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_date_is_well_formed() {
        let d = utc_date();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
        let year: i32 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let baseline = BenchBaseline {
            version: "0.1.0".to_owned(),
            date: "2026-08-06".to_owned(),
            quick: true,
            host: HostInfo {
                logical_cores: 4,
                default_threads: 4,
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
            },
            workloads: vec![WorkloadTiming {
                name: "table1_supremum_scan".to_owned(),
                wall_ms: 12.5,
                detail: "test".to_owned(),
            }],
            engine: vec![EngineComparison {
                name: "skewed_latency".to_owned(),
                threads: 4,
                items: 32,
                chunked_ms: 164.0,
                stealing_ms: 47.0,
                speedup: 164.0 / 47.0,
            }],
            paths: vec![PathComparison {
                name: "optimizer_inner_loop".to_owned(),
                grid_ms: 50.0,
                exact_ms: 5.0,
                speedup: 10.0,
                detail: "test".to_owned(),
            }],
        };
        let json = serde_json::to_string_pretty(&baseline).unwrap();
        let back: BenchBaseline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, baseline);
    }

    #[test]
    fn baselines_recorded_before_the_exact_engine_still_deserialize() {
        // `paths` was added with the exact supremum engine; committed
        // baselines from before then must keep loading (empty paths).
        let json = r#"{
            "version": "0.1.0", "date": "2026-08-06", "quick": false,
            "host": {"logical_cores": 1, "default_threads": 1,
                     "os": "linux", "arch": "x86_64"},
            "workloads": [], "engine": []
        }"#;
        let back: BenchBaseline = serde_json::from_str(json).unwrap();
        assert!(back.paths.is_empty());
    }

    #[test]
    fn comparison_gates_on_wall_clock_and_speedup_regressions() {
        let timing = |wall_ms: f64| WorkloadTiming {
            name: "table1_supremum_scan".to_owned(),
            wall_ms,
            detail: "test".to_owned(),
        };
        let path = |speedup: f64| PathComparison {
            name: "optimizer_inner_loop".to_owned(),
            grid_ms: speedup,
            exact_ms: 1.0,
            speedup,
            detail: "test".to_owned(),
        };
        let base = |wall_ms: f64, speedup: f64, quick: bool| BenchBaseline {
            version: "0.1.0".to_owned(),
            date: "2026-08-08".to_owned(),
            quick,
            host: HostInfo {
                logical_cores: 1,
                default_threads: 1,
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
            },
            workloads: vec![timing(wall_ms)],
            engine: Vec::new(),
            paths: vec![path(speedup)],
        };
        let recorded = base(100.0, 10.0, false);

        // Within tolerance on both axes: the gate passes.
        assert!(compare_baselines(&base(120.0, 9.0, false), &recorded).passed());
        // A recorded timing under the gating floor never fails the
        // gate, no matter how large the relative swing.
        let tiny = base(1.0, 10.0, false);
        let mut tiny_recorded = recorded.clone();
        tiny_recorded.workloads[0].wall_ms = 0.1;
        let floored = compare_baselines(&tiny, &tiny_recorded);
        assert!(floored.passed(), "{:?}", floored.regressions);
        assert!(floored.lines.iter().any(|l| l.contains("informational")));
        // Wall clock beyond +25%: regression.
        let slow = compare_baselines(&base(130.0, 10.0, false), &recorded);
        assert!(!slow.passed(), "{:?}", slow.regressions);
        // Exact-path speedup collapsed by more than 25%: regression,
        // even though the wall clock held.
        let lost = compare_baselines(&base(100.0, 7.0, false), &recorded);
        assert!(!lost.passed(), "{:?}", lost.regressions);
        // Mismatched --quick: wall clocks are skipped, but the
        // host-comparable speedup ratio is still gated.
        let mixed = compare_baselines(&base(1000.0, 10.0, true), &recorded);
        assert!(mixed.passed(), "{:?}", mixed.regressions);
        assert!(mixed.lines.iter().any(|l| l.contains("skipped")));
        let mixed_lost = compare_baselines(&base(1000.0, 6.0, true), &recorded);
        assert!(!mixed_lost.passed());
        // Different hardware: absolute times are not comparable, so
        // wall clocks are skipped — the speedup ratio still gates.
        let mut other_host = base(1000.0, 10.0, false);
        other_host.host.logical_cores = 64;
        let cross = compare_baselines(&other_host, &recorded);
        assert!(cross.passed(), "{:?}", cross.regressions);
        assert!(cross.lines.iter().any(|l| l.contains("host fingerprint")));
        let mut cross_lost = base(1000.0, 6.0, false);
        cross_lost.host.logical_cores = 64;
        assert!(!compare_baselines(&cross_lost, &recorded).passed());
    }

    #[test]
    fn latency_comparison_shows_the_stealing_win() {
        let cmp = compare_engines_latency();
        assert!(
            cmp.speedup > 2.0,
            "expected ≥ 2x on the sleep-skewed workload, got {:.2}x \
             (chunked {:.1} ms vs stealing {:.1} ms)",
            cmp.speedup,
            cmp.chunked_ms,
            cmp.stealing_ms
        );
    }
}
