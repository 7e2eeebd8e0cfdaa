//! Exact critical-point supremum evaluation — the grid-free engine
//! behind [`crate::supremum`]'s hot paths.
//!
//! [`faultline_core::exact`] reduces a fleet's visit times over a
//! window to per-interval affine sets. Here we turn those into the
//! exact supremum of `K(x) = T_k(x) / |x|`: on each open interval the
//! k-th order statistic of affines is piecewise affine with
//! breakpoints only at pairwise crossings, and between breakpoints
//! `K(x) = slope + intercept / x` is monotone — so the interval
//! supremum is a max over the interval endpoints plus the crossings,
//! each evaluated exactly. Evaluating an interval's affines *at* an
//! endpoint yields the one-sided limit there, which dominates the
//! pointwise value (the pointwise visit minimizes over a superset of
//! segments), so the scan provably dominates every grid evaluation of
//! the same fleet.
//!
//! The expected-cost variant applies the same candidate argument to
//! the p-faulty closed form of [`faultline_sim::expected_outcome`]:
//! with a fixed membership and ordering of in-horizon visit affines,
//! the expectation is affine in `x`, so extra candidates are needed
//! only where two visit affines cross or where one crosses the
//! horizon.

use std::sync::{Mutex, PoisonError};

use faultline_core::coverage::{prefer_argmax, Fleet};
use faultline_core::exact::{all_visit_cover, all_visit_cover_on, Affine, Side, WindowCover};
use faultline_core::{Error, Geometry, Interval, Result};

/// Exponent of the pressure's generalized mean: high enough that only
/// interval suprema within a fraction of a percent of the global
/// supremum contribute.
pub const PRESSURE_EXPONENT: i32 = 32;

/// The result of an exact critical-point supremum scan over
/// `[-xmax, -1] ∪ [1, xmax]` (plus the right-hand limits at `±xmax`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactScan {
    /// The supremum of the scanned ratio; infinite when any interval
    /// is uncovered.
    pub ratio: f64,
    /// The position attaining the supremum (deterministic under ties:
    /// smallest magnitude, then the positive side). For an uncovered
    /// scan, the lower endpoint of the uncovered interval closest to
    /// the origin.
    pub argmax: f64,
    /// Number of inter-critical-point intervals (both sides, window
    /// edges included) not covered by the required visit count.
    pub uncovered: usize,
    /// Total number of critical points enumerated across both sides —
    /// the exact analogue of the historical grid size.
    pub critical_points: usize,
    /// Power-[`PRESSURE_EXPONENT`] mean of `interval supremum /
    /// global supremum` over the covered intervals, in `(0, 1]`;
    /// `1.0` when the scan is uncovered or non-finite. Proportional
    /// schedules equalize every turning-point peak, so their pressure
    /// sits essentially at 1.
    pub pressure: f64,
}

/// One side's scan accumulator, in positive-window coordinates.
struct SideScan {
    best: Option<(f64, f64)>,
    uncovered: usize,
    uncovered_x: Option<f64>,
    interval_sups: Vec<f64>,
    critical_points: usize,
}

impl SideScan {
    /// The accumulator of a side without a window (the half-line's
    /// negative side): no candidates, no uncovered intervals and no
    /// critical points.
    fn empty() -> SideScan {
        SideScan {
            best: None,
            uncovered: 0,
            uncovered_x: None,
            interval_sups: Vec::new(),
            critical_points: 0,
        }
    }

    /// A fresh accumulator for `cover`. When no trajectory reaches past
    /// the window, the right-hand limit at its edge is unprobed, so the
    /// edge counts as uncovered.
    fn for_cover(cover: &WindowCover) -> SideScan {
        let mut side = SideScan {
            interval_sups: Vec::with_capacity(cover.intervals().len()),
            critical_points: cover.cuts().len(),
            ..SideScan::empty()
        };
        if cover.beyond().is_none() {
            side.mark_uncovered(cover.cuts()[cover.cuts().len() - 1]);
        }
        side
    }

    fn mark_uncovered(&mut self, x: f64) {
        self.uncovered += 1;
        if self.uncovered_x.is_none_or(|u| x < u) {
            self.uncovered_x = Some(x);
        }
    }

    /// Records one covered interval's supremum `(ratio, x)`.
    fn record(&mut self, best: (f64, f64)) {
        self.interval_sups.push(best.0);
        let replace = match self.best {
            None => true,
            Some((br, bx)) => best.0 > br || (best.0 == br && prefer_argmax(best.1, bx)),
        };
        if replace {
            self.best = Some(best);
        }
    }
}

/// The larger of the two sides' suprema, the negative one already in
/// signed coordinates (ties go to [`prefer_argmax`]); `(0, 0)` when
/// neither side has a covered interval.
fn pick_best(pos: Option<(f64, f64)>, neg: Option<(f64, f64)>) -> (f64, f64) {
    match (pos, neg) {
        (Some((pr, px)), Some((nr, nx))) => {
            if nr > pr || (nr == pr && prefer_argmax(nx, px)) {
                (nr, nx)
            } else {
                (pr, px)
            }
        }
        (Some(p), None) => p,
        (None, Some(n)) => n,
        (None, None) => (0.0, 0.0),
    }
}

fn merge_sides(pos: SideScan, neg: SideScan) -> ExactScan {
    let critical_points = pos.critical_points + neg.critical_points;
    let uncovered = pos.uncovered + neg.uncovered;
    // Fold the mirrored side back to signed coordinates.
    let neg_best = neg.best.map(|(r, x)| (r, -x));
    let neg_uncovered_x = neg.uncovered_x.map(|x| -x);
    if uncovered > 0 {
        let argmax = match (pos.uncovered_x, neg_uncovered_x) {
            (Some(p), Some(n)) => {
                if prefer_argmax(p, n) {
                    p
                } else {
                    n
                }
            }
            (Some(p), None) => p,
            (None, Some(n)) => n,
            (None, None) => unreachable!("uncovered > 0 implies an uncovered interval"),
        };
        return ExactScan {
            ratio: f64::INFINITY,
            argmax,
            uncovered,
            critical_points,
            pressure: 1.0,
        };
    }
    let (ratio, argmax) = pick_best(pos.best, neg_best);
    let pressure = if ratio.is_finite() && ratio > 0.0 {
        let sups = pos.interval_sups.iter().chain(&neg.interval_sups);
        let count = pos.interval_sups.len() + neg.interval_sups.len();
        let mass: f64 = sups.map(|&s| (s / ratio).powi(PRESSURE_EXPONENT)).sum();
        if count > 0 {
            mass / count as f64
        } else {
            1.0
        }
    } else {
        1.0
    };
    ExactScan { ratio, argmax, uncovered, critical_points, pressure }
}

/// Max of `value(x) / x` over the candidate positions, with the
/// deterministic tie-break (smaller `x` wins within a side).
fn best_over_candidates(
    candidates: &[f64],
    mut value_at: impl FnMut(f64) -> Option<f64>,
) -> Option<(f64, f64)> {
    let mut best: Option<(f64, f64)> = None;
    for &x in candidates {
        let v = value_at(x)?;
        let r = v / x;
        let replace = match best {
            None => true,
            Some((br, bx)) => r > br || (r == br && prefer_argmax(x, bx)),
        };
        if replace {
            best = Some((r, x));
        }
    }
    best
}

/// Slack factor `1 + c·ε` (`c = 4`) on the pruning threshold of
/// [`push_crossings`]; its soundness proof needs `c >= 2`.
const PRUNE_SLACK: f64 = 1.0 + 4.0 * f64::EPSILON;

/// The intercept gap above which a pair of slope difference at most
/// `width` cannot cross inside a window of reach `reach` (see
/// [`push_crossings`]).
fn prune_threshold(reach: f64, width: f64) -> f64 {
    (reach * width * PRUNE_SLACK).max(f64::MIN_POSITIVE)
}

/// Pushes the pairwise crossings of `affines` that fall strictly
/// inside `(lo, hi)` onto `candidates`, in pair order `(i, j)`,
/// `i < j` — the same values in the same order as testing every pair
/// with [`Affine::crossing`], without testing every pair.
///
/// **Pruning bound.** Let `R = max(|lo|, |hi|)`, `K = 1 + 4ε` (the
/// slack factor), and `T(W) = max(fl(fl(R·W)·K), MIN_POSITIVE)`. A
/// pair whose slopes differ by at most `W` in `f64` and whose intercept
/// gap `G = |fl(b_j − b_i)|` exceeds `T(W)` cannot cross inside
/// `(lo, hi)`. The crossing computes `fl(±G / ds)` with
/// `0 < |ds| = |fl(s_i − s_j)| <= W` (a zero `ds` yields no crossing).
/// With unit roundoff `u`, either `R·W < MIN_POSITIVE < G`, or
/// `T(W) >= R·W·K·(1−u)² >= R·W` because `ε = 2u`; both give
/// `G / |ds| >= G / W > R`, so the rounded quotient has magnitude
/// `>= R` (rounding is monotone and `R` is a double) and lies outside
/// `(lo, hi) ⊆ (−R, R)`.
///
/// **Sweep.** The affines form one slope class of width
/// `W = fl(s_max − s_min)`; with `W = 0` they are all parallel and
/// nothing crosses. They are sorted by intercept, and each is paired
/// only with the following ones up to a gap of `T(W)`; gaps only grow
/// along the sorted order. Within that band a pair is skipped when its gap
/// exceeds `T` of its own slope difference, and every other pair is
/// tested with the unchanged [`Affine::crossing`]. The crossings found
/// are emitted in pair order. For a unit-speed fleet's first visits
/// (slopes `1` up to a few ulps) the band is a few ulps of `R` wide and
/// nearly every interval tests no pair at all. With a non-finite bound
/// or coefficient no pair is skipped.
pub fn push_crossings(affines: &[Affine], lo: f64, hi: f64, candidates: &mut Vec<f64>) {
    if affines.len() < 2 || !(lo < hi) {
        return; // no x satisfies lo < x < hi
    }
    let reach = lo.abs().max(hi.abs());
    let (mut s_min, mut s_max, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, reach.is_finite());
    for a in affines {
        s_min = s_min.min(a.slope);
        s_max = s_max.max(a.slope);
        finite &= a.slope.is_finite() && a.intercept.is_finite();
    }
    let band = if finite { prune_threshold(reach, s_max - s_min) } else { f64::INFINITY };
    if finite && s_max == s_min {
        return; // all parallel
    }
    let mut order: Vec<(f64, u32)> =
        affines.iter().enumerate().map(|(i, a)| (a.intercept, i as u32)).collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut hits: Vec<(u32, u32, f64)> = Vec::new();
    for (p, &(base, first)) in order.iter().enumerate() {
        for &(intercept, second) in &order[p + 1..] {
            let gap = intercept - base;
            if gap > band {
                break;
            }
            let (i, j) = (first.min(second), first.max(second));
            let (a, b) = (&affines[i as usize], &affines[j as usize]);
            if finite && gap > prune_threshold(reach, (a.slope - b.slope).abs()) {
                continue;
            }
            if let Some(x) = a.crossing(b) {
                if x > lo && x < hi {
                    hits.push((i, j, x));
                }
            }
        }
    }
    hits.sort_unstable_by_key(|&(i, j, _)| (i, j));
    candidates.extend(hits.iter().map(|&(_, _, x)| x));
}

/// Scans one side: the supremum of `T_k(x) / x` over `[1, xmax]`
/// including the right-hand limit at `xmax` (the beyond-window
/// interval evaluated at its lower endpoint).
fn scan_side_worst_case(cover: &WindowCover, k: usize) -> SideScan {
    let mut side = SideScan::for_cover(cover);
    let mut candidates: Vec<f64> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for (i, affines) in cover.intervals().iter().enumerate() {
        let (lo, hi) = cover.interval_bounds(i);
        if affines.len() < k {
            side.mark_uncovered(lo);
            continue;
        }
        candidates.clear();
        candidates.push(lo);
        if !cover.is_beyond(i) {
            // Inside the window both limits and every crossing are
            // candidates; the beyond interval is only ever evaluated
            // at the window edge (the right-hand limit at xmax).
            candidates.push(hi);
            push_crossings(affines, lo, hi, &mut candidates);
        }
        let best = best_over_candidates(&candidates, |x| {
            times.clear();
            times.extend(affines.iter().map(|a| a.eval(x)));
            Some(kth_smallest(&mut times, k))
        })
        .expect("worst-case evaluation is total over covered intervals");
        side.record(best);
    }
    side
}

/// The k-th smallest value under [`f64::total_cmp`], by selection
/// rather than a full sort. Values equal under the total order have
/// identical bits, so this is bit-identical to `sorted[k - 1]`.
fn kth_smallest(values: &mut [f64], k: usize) -> f64 {
    *values.select_nth_unstable_by(k - 1, f64::total_cmp).1
}

fn check_worst_case_inputs(k: usize, xmax: f64) -> Result<()> {
    if k == 0 {
        return Err(Error::domain("exact supremum needs a visit count k >= 1"));
    }
    check_window(xmax)
}

fn check_window(xmax: f64) -> Result<()> {
    if !(xmax > 1.0) || !xmax.is_finite() {
        return Err(Error::domain(format!("xmax must be finite and > 1, got {xmax}")));
    }
    Ok(())
}

/// Spare cover pairs for the worst-case scans, rebuilt in place on
/// every call and handed back afterwards: the optimizer evaluates tens
/// of thousands of fleets, and the query service computes each request
/// on a fresh thread, so a process-wide free list (one pair per
/// concurrent scan) keeps their arrays from being allocated and freed
/// per call. Pairs past [`SPARE_COVER_ITEMS`] are not kept.
static SPARE_COVERS: Mutex<Vec<[WindowCover; 2]>> = Mutex::new(Vec::new());

/// The most affines a kept spare cover may hold (1 MiB of them).
const SPARE_COVER_ITEMS: usize = 1 << 16;

/// Runs `scan` on a spare cover pair (see [`SPARE_COVERS`]).
fn with_spare_covers<R>(scan: impl FnOnce(&mut [WindowCover; 2]) -> R) -> R {
    // Every update of the list is one whole push or pop, so a panic
    // elsewhere never leaves it invalid: a poisoned lock is still safe
    // to use.
    let spare = || SPARE_COVERS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut covers = spare().pop().unwrap_or_default();
    let result = scan(&mut covers);
    if covers.iter().all(|c| c.intervals().item_count() <= SPARE_COVER_ITEMS) {
        spare().push(covers);
    }
    result
}

/// The exact supremum of `K(x) = T_k(x) / |x|` over
/// `[-xmax, -1] ∪ [1, xmax]`, including the right-hand limits at
/// `±xmax` — the exact replacement for a grid scan over
/// [`faultline_core::coverage::adversarial_targets`].
///
/// # Errors
///
/// Rejects `k == 0`, a window bound `xmax <= 1` or non-finite, and
/// propagates enumeration failures.
pub fn exact_supremum(fleet: &Fleet, k: usize, xmax: f64) -> Result<ExactScan> {
    exact_supremum_geometry(fleet, k, xmax, Geometry::Line)
}

/// Geometry-parametric variant of [`exact_supremum`]: on
/// [`Geometry::HalfLine`] only the positive window `[1, xmax]` exists,
/// so the negative-side cover is skipped entirely and the scan's
/// critical-point count halves. [`Geometry::Line`] reproduces
/// [`exact_supremum`] bit for bit.
///
/// # Errors
///
/// As [`exact_supremum`].
pub fn exact_supremum_geometry(
    fleet: &Fleet,
    k: usize,
    xmax: f64,
    geometry: Geometry,
) -> Result<ExactScan> {
    check_worst_case_inputs(k, xmax)?;
    with_spare_covers(|[pos, neg]| {
        pos.refill_first_visit(fleet.trajectories(), Side::Positive, 1.0, xmax)?;
        let neg = if geometry.has_negative_side() {
            neg.refill_first_visit(fleet.trajectories(), Side::Negative, 1.0, xmax)?;
            scan_side_worst_case(neg, k)
        } else {
            SideScan::empty()
        };
        Ok(merge_sides(scan_side_worst_case(pos, k), neg))
    })
}

/// An [`ExactScan`] paired with a certified enclosure of its
/// supremum, produced by [`exact_supremum_enclosed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclosedScan {
    /// The plain critical-point scan, bit-identical to what
    /// [`exact_supremum`] returns for the same inputs.
    pub scan: ExactScan,
    /// Outward-rounded interval guaranteed to contain both the true
    /// (real-arithmetic) supremum and the `f64` scan value.
    pub enclosure: Interval,
}

/// The k-th order statistic of the per-affine visit-time enclosures
/// at `x`. Order statistics are monotone under pointwise ordering, so
/// the k-th smallest lower bound and the k-th smallest upper bound
/// bracket both the k-th smallest `f64` evaluation (what the scan
/// selects) and the k-th smallest real value.
fn kth_time_enclosure(
    affines: &[Affine],
    k: usize,
    x: f64,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
) -> Result<Interval> {
    los.clear();
    his.clear();
    for a in affines {
        let t = a.enclosure_at(x)?;
        los.push(t.lo());
        his.push(t.hi());
    }
    Interval::new(kth_smallest(los, k), kth_smallest(his, k))
}

/// Enclosure of `T_k(x) / x` at a point candidate, mirroring the scan
/// engine's operation order (select the k-th time, then one division)
/// so the result contains the engine's `f64` evaluation at the same
/// `x`.
fn kth_ratio_enclosure_at(
    affines: &[Affine],
    k: usize,
    x: f64,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
) -> Result<Interval> {
    kth_time_enclosure(affines, k, x, los, his)?.div(Interval::point(x)?)
}

/// Enclosure of `{ T_k(x) / x : x in xs }` over a zero-free range —
/// the k-th order statistic of the per-affine ratio range enclosures.
fn kth_ratio_enclosure_over(
    affines: &[Affine],
    k: usize,
    xs: Interval,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
) -> Result<Interval> {
    los.clear();
    his.clear();
    for a in affines {
        let g = a.ratio_enclosure_over(xs)?;
        los.push(g.lo());
        his.push(g.hi());
    }
    Interval::new(kth_smallest(los, k), kth_smallest(his, k))
}

/// One side's supremum enclosure: `lo` comes only from point
/// candidates (so it never exceeds the `f64` scan value), `hi`
/// additionally absorbs range enclosures over certified crossing
/// locations (so it covers the true supremum even when an `f64`
/// crossing candidate sits an ulp away from the real breakpoint).
fn scan_side_enclosure(cover: &WindowCover, k: usize) -> Result<(f64, f64)> {
    let uncovered = || Error::domain("cannot enclose an uncovered side: the supremum is unbounded");
    if cover.beyond().is_none() {
        return Err(uncovered());
    }
    let mut lo_acc = f64::NEG_INFINITY;
    let mut hi_acc = f64::NEG_INFINITY;
    let mut points: Vec<f64> = Vec::new();
    let mut los: Vec<f64> = Vec::new();
    let mut his: Vec<f64> = Vec::new();
    for (i, affines) in cover.intervals().iter().enumerate() {
        let (lo, hi) = cover.interval_bounds(i);
        if affines.len() < k {
            return Err(uncovered());
        }
        // Point candidates mirror scan_side_worst_case exactly.
        points.clear();
        points.push(lo);
        if !cover.is_beyond(i) {
            points.push(hi);
            push_crossings(affines, lo, hi, &mut points);
        }
        for &x in &points {
            let enc = kth_ratio_enclosure_at(affines, k, x, &mut los, &mut his)?;
            lo_acc = lo_acc.max(enc.lo());
            hi_acc = hi_acc.max(enc.hi());
        }
        if cover.is_beyond(i) {
            continue;
        }
        // The k-th order statistic is piecewise `s + i/x` with
        // breakpoints only at pairwise crossings, so the interval
        // supremum is attained at an endpoint or a true crossing.
        // Endpoints are exact; each true crossing lies inside its
        // certified enclosure, whose range enclosure widens `hi` only.
        for (ai, a) in affines.iter().enumerate() {
            for b in &affines[ai + 1..] {
                if a.crossing(b).is_none() {
                    continue;
                }
                let xs = match a.crossing_enclosure(b) {
                    Some(xs) if xs.is_positive() => xs,
                    // Degenerate slope-difference enclosure: the
                    // whole interval is always a sound fallback.
                    _ => Interval::new(lo, hi)?,
                };
                if !(xs.hi() > lo && xs.lo() < hi) {
                    continue;
                }
                let clipped = Interval::new(xs.lo().max(lo), xs.hi().min(hi))?;
                let range = kth_ratio_enclosure_over(affines, k, clipped, &mut los, &mut his)?;
                hi_acc = hi_acc.max(range.hi());
            }
        }
    }
    Ok((lo_acc, hi_acc))
}

/// The [`exact_supremum`] scan paired with an outward-rounded
/// interval `[lo, hi]` certified to contain the true supremum of
/// `K(x) = T_k(x) / |x|` over the window — and, because every lower
/// bound comes from a point candidate the scan itself evaluates, the
/// `f64` scan value satisfies `lo <= scan.ratio <= hi` as well.
///
/// # Errors
///
/// Beyond [`exact_supremum`]'s validation, errors when the scan is
/// uncovered: an unbounded supremum has no finite enclosure.
pub fn exact_supremum_enclosed(fleet: &Fleet, k: usize, xmax: f64) -> Result<EnclosedScan> {
    check_worst_case_inputs(k, xmax)?;
    // One pair of covers serves both the scan (bit-identical to
    // `exact_supremum`) and the enclosure.
    with_spare_covers(|[pos, neg]| {
        pos.refill_first_visit(fleet.trajectories(), Side::Positive, 1.0, xmax)?;
        neg.refill_first_visit(fleet.trajectories(), Side::Negative, 1.0, xmax)?;
        let scan = merge_sides(scan_side_worst_case(pos, k), scan_side_worst_case(neg, k));
        if scan.uncovered > 0 || !scan.ratio.is_finite() {
            return Err(Error::domain(
                "cannot enclose an uncovered supremum: the ratio is unbounded",
            ));
        }
        let (plo, phi) = scan_side_enclosure(pos, k)?;
        let (nlo, nhi) = scan_side_enclosure(neg, k)?;
        let enclosure = Interval::new(plo.max(nlo), phi.max(nhi))?;
        if !enclosure.contains(scan.ratio) {
            return Err(Error::numerical(format!(
                "supremum enclosure [{}, {}] lost the scan value {}",
                enclosure.lo(),
                enclosure.hi(),
                scan.ratio
            )));
        }
        Ok(EnclosedScan { scan, enclosure })
    })
}

/// Evaluates the p-faulty expected cost at position `x` from the
/// interval's visit affines: in-horizon visits in time order carry
/// geometric detection mass, the rest truncates at the horizon
/// (exactly [`faultline_sim::expected_outcome`]). Returns `None` when
/// no visit lands within the horizon — the uncovered case.
fn expected_value_at(
    affines: &[Affine],
    x: f64,
    p: f64,
    horizon: f64,
    times: &mut Vec<f64>,
) -> Option<f64> {
    times.clear();
    times.extend(affines.iter().map(|a| a.eval(x)).filter(|&t| t <= horizon));
    if times.is_empty() {
        return None;
    }
    times.sort_by(f64::total_cmp);
    let mut surviving = 1.0;
    let mut expected = 0.0;
    for &t in times.iter() {
        expected += t * p * surviving;
        surviving *= 1.0 - p;
    }
    Some(expected + horizon * surviving)
}

/// Scans one side of the expected-cost supremum: candidates are the
/// interval endpoints, pairwise crossings, and horizon crossings.
fn scan_side_expected(cover: &WindowCover, p: f64, horizon: f64) -> SideScan {
    let mut side = SideScan::for_cover(cover);
    let mut candidates: Vec<f64> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for (i, affines) in cover.intervals().iter().enumerate() {
        let (lo, hi) = cover.interval_bounds(i);
        if affines.is_empty() {
            side.mark_uncovered(lo);
            continue;
        }
        candidates.clear();
        candidates.push(lo);
        if !cover.is_beyond(i) {
            candidates.push(hi);
            push_crossings(affines, lo, hi, &mut candidates);
            for a in affines {
                if let Some(x) = a.position_of_time(horizon) {
                    if x > lo && x < hi {
                        candidates.push(x);
                    }
                }
            }
        }
        match best_over_candidates(&candidates, |x| {
            expected_value_at(affines, x, p, horizon, &mut times)
        }) {
            Some(best) => side.record(best),
            None => side.mark_uncovered(lo),
        }
    }
    side
}

/// The exact supremum of the p-faulty expected competitive ratio over
/// `[-xmax, -1] ∪ [1, xmax]`, with undetected mass truncated at the
/// fleet horizon — the grid-free counterpart of scanning
/// [`faultline_sim::expected_outcome`] over adversarial targets.
///
/// Unlike the worst-case scan, uncovered intervals leave the ratio
/// finite (the expectation truncates at the horizon); callers treat
/// `uncovered > 0` as an incomplete measurement and deepen the fleet.
///
/// # Errors
///
/// Rejects probabilities outside `[0, 1]` and invalid windows.
pub fn exact_expected_supremum(fleet: &Fleet, p: f64, xmax: f64) -> Result<ExactScan> {
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::domain(format!("detection probability must be in [0, 1], got {p}")));
    }
    check_window(xmax)?;
    let horizon = fleet.horizon();
    let pos = all_visit_cover(fleet.trajectories(), 1.0, xmax)?;
    let neg = all_visit_cover_on(fleet.trajectories(), Side::Negative, 1.0, xmax)?;
    let pos = scan_side_expected(&pos, p, horizon);
    let neg = scan_side_expected(&neg, p, horizon);
    let (pos_best, neg_best) = (pos.best, neg.best.map(|(r, x)| (r, -x)));
    let merged = merge_sides(pos, neg);
    if merged.uncovered > 0 {
        // Expected cost truncates at the horizon, so even an
        // incomplete measurement reports the finite supremum over the
        // covered intervals (0 when nothing is covered), matching the
        // historical grid semantics.
        let (ratio, argmax) = pick_best(pos_best, neg_best);
        return Ok(ExactScan { ratio, argmax, ..merged });
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::plan::{Direction, RayPlan, TrajectoryPlan};
    use faultline_core::{Algorithm, Params};

    fn paper_fleet(n: usize, f: usize, xmax: f64) -> Fleet {
        let params = Params::new(n, f).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(xmax * (1.0 + 1e-6)).unwrap();
        Fleet::from_plans(&alg.plans(), horizon).unwrap()
    }

    #[test]
    fn validates_inputs() {
        let fleet = paper_fleet(3, 1, 10.0);
        assert!(exact_supremum(&fleet, 0, 10.0).is_err());
        assert!(exact_supremum(&fleet, 2, 1.0).is_err());
        assert!(exact_supremum(&fleet, 2, f64::NAN).is_err());
        assert!(exact_expected_supremum(&fleet, 1.5, 10.0).is_err());
        assert!(exact_expected_supremum(&fleet, f64::NAN, 10.0).is_err());
        assert!(exact_expected_supremum(&fleet, 0.5, 0.5).is_err());
    }

    #[test]
    fn exact_supremum_attains_theorem_1_exactly() {
        // The proportional schedule equalizes every turning-point
        // right-hand limit at the Theorem 1 ratio, and the exact
        // engine evaluates those limits directly — agreement is at
        // float precision, far below any grid tolerance.
        for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 2), (5, 3)] {
            let params = Params::new(n, f).unwrap();
            let analytic = faultline_core::ratio::cr_upper(params);
            let fleet = paper_fleet(n, f, 25.0);
            let scan = exact_supremum(&fleet, f + 1, 25.0).unwrap();
            assert_eq!(scan.uncovered, 0, "(n = {n}, f = {f})");
            assert!(
                (scan.ratio - analytic).abs() <= 1e-9 * analytic,
                "(n = {n}, f = {f}): exact {} vs Theorem 1 {analytic}",
                scan.ratio
            );
            assert!(scan.critical_points > 4);
            assert!(scan.pressure > 0.0 && scan.pressure <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn line_geometry_reproduces_exact_supremum_bitwise() {
        let fleet = paper_fleet(4, 2, 18.0);
        let two_sided = exact_supremum(&fleet, 3, 18.0).unwrap();
        let explicit = exact_supremum_geometry(&fleet, 3, 18.0, Geometry::Line).unwrap();
        assert_eq!(two_sided, explicit);
    }

    #[test]
    fn half_line_scan_is_one_sided_and_dominated_by_the_line() {
        let fleet = paper_fleet(3, 1, 15.0);
        let line = exact_supremum_geometry(&fleet, 2, 15.0, Geometry::Line).unwrap();
        let half = exact_supremum_geometry(&fleet, 2, 15.0, Geometry::HalfLine).unwrap();
        assert_eq!(half.uncovered, 0);
        assert!(half.argmax > 0.0, "half-line argmax stays on the positive side");
        // Dropping the negative side can only shrink the supremum and
        // exactly halves the enumerated critical points for a
        // symmetric-cut fleet.
        assert!(half.ratio <= line.ratio + 1e-12 * line.ratio);
        assert!(half.critical_points < line.critical_points);
        // The one-sided exact scan still dominates a dense one-sided grid.
        for i in 0..2000 {
            let x = 1.0 + 14.0 * i as f64 / 1999.0;
            if let Some(r) = fleet.ratio_at(x, 2).unwrap() {
                assert!(
                    half.ratio >= r - 1e-12 * r,
                    "half-line grid point {x} beats the exact supremum: {r} > {}",
                    half.ratio
                );
            }
        }
    }

    #[test]
    fn half_line_scan_handles_non_unit_speeds() {
        use faultline_core::{PiecewiseTrajectory, SpaceTime};
        // A speed-2 sweeper and a half-speed sweeper, both positive-only:
        // the fast robot visits x at t = x/2, the slow one at t = 2x, so
        // T_2(x)/x = 2 everywhere on the half-line.
        let fast = PiecewiseTrajectory::with_speed_limit(
            vec![SpaceTime::origin(), SpaceTime::new(40.0, 20.0)],
            2.0,
        )
        .unwrap();
        let slow = PiecewiseTrajectory::new(vec![SpaceTime::origin(), SpaceTime::new(20.0, 40.0)])
            .unwrap();
        let fleet = Fleet::new(vec![fast, slow]).unwrap();
        let half = exact_supremum_geometry(&fleet, 2, 10.0, Geometry::HalfLine).unwrap();
        assert_eq!(half.uncovered, 0);
        assert!((half.ratio - 2.0).abs() < 1e-12, "got {}", half.ratio);
        // The same fleet never covers the negative side: the full-line
        // scan reports it uncovered instead of silently skipping it.
        let line = exact_supremum_geometry(&fleet, 2, 10.0, Geometry::Line).unwrap();
        assert!(line.uncovered > 0);
        assert!(line.ratio.is_infinite());
    }

    #[test]
    fn exact_supremum_dominates_dense_grids() {
        let fleet = paper_fleet(3, 2, 20.0);
        let scan = exact_supremum(&fleet, 3, 20.0).unwrap();
        assert_eq!(scan.uncovered, 0);
        for i in 0..2000 {
            let x = 1.0 + 19.0 * i as f64 / 1999.0;
            for sx in [x, -x] {
                if let Some(r) = fleet.ratio_at(sx, 3).unwrap() {
                    assert!(
                        scan.ratio >= r - 1e-12 * r,
                        "grid point {sx} beats the exact supremum: {r} > {}",
                        scan.ratio
                    );
                }
            }
        }
    }

    #[test]
    fn two_ray_fleet_measures_exactly_one() {
        let plans: Vec<Box<dyn TrajectoryPlan>> =
            vec![Box::new(RayPlan::new(Direction::Right)), Box::new(RayPlan::new(Direction::Left))];
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        let scan = exact_supremum(&fleet, 1, 30.0).unwrap();
        assert_eq!(scan.ratio, 1.0);
        assert_eq!(scan.uncovered, 0);
        assert_eq!(scan.argmax, 1.0, "ties resolve to the positive point nearest the origin");
        // K = 1 on every interval: the plateau has full pressure.
        assert!((scan.pressure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_interval_is_reported_with_its_position() {
        // One ray going right: the negative side is never covered.
        let plans: Vec<Box<dyn TrajectoryPlan>> = vec![Box::new(RayPlan::new(Direction::Right))];
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        let scan = exact_supremum(&fleet, 1, 30.0).unwrap();
        assert!(scan.ratio.is_infinite());
        assert!(scan.uncovered > 0);
        assert_eq!(scan.argmax, -1.0, "the uncovered window edge nearest the origin");
        assert_eq!(scan.pressure, 1.0);
    }

    #[test]
    fn truncated_window_counts_the_unprobed_edge_as_uncovered() {
        // A fleet whose excursions stop exactly at the window edge
        // leaves the right-hand limit at xmax unprobed.
        let plans: Vec<Box<dyn TrajectoryPlan>> =
            vec![Box::new(RayPlan::new(Direction::Right)), Box::new(RayPlan::new(Direction::Left))];
        let fleet = Fleet::from_plans(&plans, 30.0).unwrap();
        let scan = exact_supremum(&fleet, 1, 30.0).unwrap();
        assert!(scan.ratio.is_infinite());
        assert_eq!(scan.uncovered, 2, "both window edges unprobed");
    }

    #[test]
    fn enclosed_supremum_brackets_the_scan_tightly_on_table_1_fleets() {
        for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)] {
            let fleet = paper_fleet(n, f, 25.0);
            let plain = exact_supremum(&fleet, f + 1, 25.0).unwrap();
            let enclosed = exact_supremum_enclosed(&fleet, f + 1, 25.0).unwrap();
            assert_eq!(enclosed.scan, plain, "(n = {n}, f = {f}): scans must be bit-identical");
            assert!(
                enclosed.enclosure.contains(plain.ratio),
                "(n = {n}, f = {f}): [{}, {}] misses {}",
                enclosed.enclosure.lo(),
                enclosed.enclosure.hi(),
                plain.ratio
            );
            assert!(
                enclosed.enclosure.width() <= 1e-9 * plain.ratio,
                "(n = {n}, f = {f}): enclosure width {} is not tight",
                enclosed.enclosure.width()
            );
        }
    }

    #[test]
    fn enclosed_supremum_rejects_uncovered_scans() {
        let plans: Vec<Box<dyn TrajectoryPlan>> = vec![Box::new(RayPlan::new(Direction::Right))];
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        assert!(exact_supremum_enclosed(&fleet, 1, 30.0).is_err());
    }

    #[test]
    fn expected_supremum_at_p_one_matches_the_worst_case_with_f_zero() {
        let fleet = paper_fleet(3, 1, 15.0);
        let expected = exact_expected_supremum(&fleet, 1.0, 15.0).unwrap();
        let worst = exact_supremum(&fleet, 1, 15.0).unwrap();
        assert_eq!(expected.uncovered, 0);
        assert!(
            (expected.ratio - worst.ratio).abs() <= 1e-9 * worst.ratio,
            "p = 1 expectation {} vs first-visit worst case {}",
            expected.ratio,
            worst.ratio
        );
    }

    #[test]
    fn expected_supremum_is_monotone_in_p() {
        let fleet = paper_fleet(3, 1, 12.0);
        let mut prev = f64::INFINITY;
        for p in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let scan = exact_expected_supremum(&fleet, p, 12.0).unwrap();
            assert_eq!(scan.uncovered, 0, "p = {p}");
            assert!(
                scan.ratio <= prev + 1e-9,
                "expected supremum must not increase in p: E({p}) = {} > {prev}",
                scan.ratio
            );
            prev = scan.ratio;
        }
    }
}
