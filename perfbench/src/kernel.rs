//! The compute layers under one supremum evaluation, timed from the
//! outside: plan materialization (`FreeSchedule::plans` or a
//! strategy's plans, then `Fleet::from_plans`), cover construction
//! (`first_visit_cover` on both sides, `mirrored` included) and the
//! critical-point scan (`exact_supremum` minus the covers it rebuilds),
//! with the kernel's exact work counts.

use std::time::Instant;

use faultline_analysis::exact::{exact_supremum, push_crossings, ExactScan};
use faultline_analysis::supremum::{measure_free_schedule_profile, TURNING_POINT_EPS};
use faultline_core::exact::{first_visit_cover, mirrored};
use faultline_core::{Fleet, FreeSchedule, Result, TrajectoryPlan};

use crate::report::Report;

/// Accumulated kernel time (seconds) and work counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Supremum evaluations decomposed (one per objective evaluation
    /// or supremum request).
    pub evaluations: u64,
    /// Plans plus materialization.
    pub plan_s: f64,
    /// Both sides' first-visit covers.
    pub cover_s: f64,
    /// `exact_supremum` minus the cover time of the same input.
    pub scan_s: f64,
    /// Whole `measure_free_schedule_profile` calls (free schedules).
    pub profile_s: f64,
    /// Waypoints of the materialized trajectories.
    pub waypoints: u64,
    /// Cover intervals, both sides.
    pub intervals: u64,
    /// Affine pieces over all intervals.
    pub affines: u64,
    /// Critical points the scans enumerated.
    pub critical_points: u64,
    /// Affine pairs tested for a crossing: `m(m-1)/2` over every
    /// in-window interval the scan evaluates.
    pub crossing_pairs: u64,
    /// Crossings that fell inside their interval.
    pub crossings_in_window: u64,
}

impl Tally {
    /// Work counts only, for exact comparison between repeats.
    #[must_use]
    pub fn counts(&self) -> [u64; 7] {
        [
            self.evaluations,
            self.waypoints,
            self.intervals,
            self.affines,
            self.critical_points,
            self.crossing_pairs,
            self.crossings_in_window,
        ]
    }

    /// Records the work counts and the crossing yield.
    pub fn report_counts(&self, report: &mut Report) {
        report.set("analysis.exact.scans", self.evaluations as f64);
        report.set("core.plan.waypoints", self.waypoints as f64);
        report.set("core.exact.cover.intervals", self.intervals as f64);
        report.set("core.exact.cover.affines", self.affines as f64);
        report.set("analysis.exact.critical_points", self.critical_points as f64);
        report.set("analysis.exact.crossing_pairs", self.crossing_pairs as f64);
        report.set("analysis.exact.crossings_in_window", self.crossings_in_window as f64);
        let pairs = self.crossing_pairs as f64;
        let yield_ = if pairs > 0.0 { self.crossings_in_window as f64 / pairs } else { 0.0 };
        report.set("analysis.exact.crossing_yield", yield_);
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.evaluations += other.evaluations;
        self.plan_s += other.plan_s;
        self.cover_s += other.cover_s;
        self.scan_s += other.scan_s;
        self.profile_s += other.profile_s;
        self.waypoints += other.waypoints;
        self.intervals += other.intervals;
        self.affines += other.affines;
        self.critical_points += other.critical_points;
        self.crossing_pairs += other.crossing_pairs;
        self.crossings_in_window += other.crossings_in_window;
    }
}

/// One plan → cover → scan pass at a fixed horizon.
///
/// # Errors
///
/// Propagates plan, materialization, cover and scan failures.
pub fn scan_once(
    tally: &mut Tally,
    make_plans: impl Fn() -> Result<Vec<Box<dyn TrajectoryPlan>>>,
    horizon: f64,
    k: usize,
    xmax: f64,
) -> Result<ExactScan> {
    let t0 = Instant::now();
    let plans = make_plans()?;
    let fleet = Fleet::from_plans(&plans, horizon)?;
    let t1 = Instant::now();
    let pos = first_visit_cover(fleet.trajectories(), 1.0, xmax)?;
    let neg = first_visit_cover(&mirrored(fleet.trajectories())?, 1.0, xmax)?;
    let t2 = Instant::now();
    let scan = exact_supremum(&fleet, k, xmax)?;
    let t3 = Instant::now();
    let cover = (t2 - t1).as_secs_f64();
    tally.plan_s += (t1 - t0).as_secs_f64();
    tally.cover_s += cover;
    tally.scan_s += (t3 - t2).as_secs_f64() - cover;
    tally.waypoints += fleet.trajectories().iter().map(|t| t.waypoints().len() as u64).sum::<u64>();
    tally.critical_points += scan.critical_points as u64;
    let mut crossings = Vec::new();
    for cover in [&pos, &neg] {
        tally.intervals += cover.intervals().len() as u64;
        for (i, affines) in cover.intervals().iter().enumerate() {
            let m = affines.len() as u64;
            tally.affines += m;
            if cover.is_beyond(i) || affines.len() < k {
                continue;
            }
            tally.crossing_pairs += m * m.saturating_sub(1) / 2;
            let (lo, hi) = cover.interval_bounds(i);
            crossings.clear();
            push_crossings(affines, lo, hi, &mut crossings);
            tally.crossings_in_window += crossings.len() as u64;
        }
    }
    Ok(scan)
}

/// Decomposes one objective evaluation of a free schedule: the layers
/// at the horizon `measure_free_schedule_profile` settles on (it
/// doubles the horizon while targets stay uncovered), plus the timed
/// profile call itself.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn free_schedule(
    tally: &mut Tally,
    schedule: &FreeSchedule,
    f: usize,
    xmax: f64,
) -> Result<()> {
    // The whole call is timed once before and once after the layers and
    // averaged, so neither side of the comparison always runs warm.
    let profile = || -> Result<f64> {
        let t = Instant::now();
        std::hint::black_box(measure_free_schedule_profile(schedule, f, xmax, 0, &[])?);
        Ok(t.elapsed().as_secs_f64())
    };
    let before = profile()?;
    let pad = 1.0 + 2.0 * TURNING_POINT_EPS;
    let mut horizon = schedule.horizon_hint(xmax * pad).max(4.0 * xmax);
    for attempt in 0..=8 {
        let scan = scan_once(tally, || Ok(schedule.plans()), horizon, f + 1, xmax)?;
        if scan.uncovered == 0 {
            break;
        }
        if attempt < 8 {
            horizon *= 2.0;
        }
    }
    tally.profile_s += (before + profile()?) / 2.0;
    tally.evaluations += 1;
    Ok(())
}
