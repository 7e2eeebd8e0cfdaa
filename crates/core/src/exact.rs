//! Exact critical-point enumeration over a positive target window.
//!
//! Lemma 3 says `K(x) = T_(f+1)(x) / |x|` is piecewise smooth with
//! discontinuities only at turning-point images. This module makes that
//! structure computable: project every waypoint of every materialized
//! trajectory onto the x-axis, and between two consecutive projections
//! ("cuts") each robot's visit times are *affine* functions of the
//! target position — a segment's x-span has waypoint projections as
//! endpoints, so over an open inter-cut interval the segment either
//! covers the whole interval or misses it entirely. `T_k(x)` is then a
//! k-th order statistic of affines, and its supremum over the interval
//! is attained at the interval endpoints or at pairwise crossings — a
//! finite, exact candidate set that replaces dense grid scans.
//!
//! The window `[lo, hi]` is one-sided (positive positions); callers
//! handle the negative half-line with [`Side::Negative`] covers, which
//! read the trajectories reflected (`x -> -x`) as they go. Beyond
//! `hi`, one extra interval `(hi, beyond)` is tracked, where `beyond`
//! is the smallest waypoint projection strictly past `hi`: evaluating
//! its affines *at* `hi` yields the exact right-hand limit of the visit
//! times at the window edge — the quantity the historical grid scan
//! approximated with `xmax * (1 + eps)` probes.

use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::spacetime::{Segment, SpaceTime};
use crate::trajectory::PiecewiseTrajectory;

/// A visit-time function `t(x) = slope * x + intercept`, valid for
/// target positions `x` inside one open inter-cut interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// `dt/dx` along the covering segment; `|slope| >= 1` for moving
    /// unit-speed-bounded segments.
    pub slope: f64,
    /// Visit time extrapolated to `x = 0`.
    pub intercept: f64,
}

impl Affine {
    /// The visit time at position `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// The position where `self` and `other` predict the same visit
    /// time, or `None` for parallel lines.
    #[must_use]
    pub fn crossing(&self, other: &Affine) -> Option<f64> {
        let ds = self.slope - other.slope;
        if ds == 0.0 {
            return None;
        }
        Some((other.intercept - self.intercept) / ds)
    }

    /// The position where the visit time reaches `t`, or `None` for a
    /// constant (zero-slope) function.
    #[must_use]
    pub fn position_of_time(&self, t: f64) -> Option<f64> {
        if self.slope == 0.0 {
            return None;
        }
        Some((t - self.intercept) / self.slope)
    }

    /// Outward-rounded enclosure of the visit time at the exact point
    /// `x`, mirroring [`Affine::eval`]'s rounding order (`mul` then
    /// `add`): contains both the real-arithmetic value and the `f64`
    /// evaluation at the same `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for non-finite inputs.
    pub fn enclosure_at(&self, x: f64) -> Result<Interval> {
        Ok(Interval::around(self.slope * x)?.add_scalar(self.intercept))
    }

    /// Outward-rounded enclosure of `eval(x) / x` at the exact point
    /// `x` (see [`Interval::affine_ratio`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for `x == 0` or non-finite inputs.
    pub fn ratio_enclosure(&self, x: f64) -> Result<Interval> {
        Interval::affine_ratio(self.slope, self.intercept, x)
    }

    /// Outward-rounded enclosure of `eval(x) / x` over every `x` in the
    /// zero-free interval `xs` (see [`Interval::affine_ratio_over`]) —
    /// used to bracket a supremum across an imprecisely known crossing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `xs` contains zero.
    pub fn ratio_enclosure_over(&self, xs: Interval) -> Result<Interval> {
        Interval::affine_ratio_over(self.slope, self.intercept, xs)
    }

    /// An enclosure of the *true* crossing position of `self` and
    /// `other`: [`Affine::crossing`] rounds twice (`sub` then `div`),
    /// so the real crossing lies inside the outward-rounded quotient.
    /// `None` when the lines are parallel or the slope difference is so
    /// small that its enclosure straddles zero (the crossing position
    /// is then numerically unbounded and cannot be certified).
    #[must_use]
    pub fn crossing_enclosure(&self, other: &Affine) -> Option<Interval> {
        let ds = self.slope - other.slope;
        if ds == 0.0 {
            return None;
        }
        let num = Interval::around(other.intercept - self.intercept).ok()?;
        let den = Interval::around(ds).ok()?;
        num.div(den).ok()
    }

    fn from_segment(a: SpaceTime, b: SpaceTime) -> Affine {
        let slope = (b.t - a.t) / (b.x - a.x);
        Affine { slope, intercept: a.t - slope * a.x }
    }
}

/// Which half of the line a cover describes. Covers always work in
/// positive-window coordinates: [`Side::Negative`] reads every waypoint
/// position as `-x` while building. Negation is exact in `f64`, and the
/// slopes and intercepts then come from the same operations on the same
/// operands a [`mirrored`] fleet would give, so the negative-side cover
/// equals the positive cover of [`mirrored`] trajectories bit for bit —
/// without allocating or re-validating a mirrored fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The positive half-line, read as is.
    Positive,
    /// The negative half-line, reflected onto the positive one.
    Negative,
}

impl Side {
    fn read(self, w: SpaceTime) -> SpaceTime {
        match self {
            Side::Positive => w,
            Side::Negative => SpaceTime { x: -w.x, t: w.t },
        }
    }
}

/// Per-interval item sets in compressed-sparse-row form: one offset
/// array and one item array back every interval's set, so building a
/// cover allocates once per array instead of once per interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    /// `items[offsets[i]..offsets[i + 1]]` is row `i`.
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items over all rows.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.offsets.windows(2).map(|w| &self.items[w[0]..w[1]])
    }
}

impl<T> std::ops::Index<usize> for Csr<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// The exact piecewise-affine structure of a fleet's visit times over
/// a positive window `[lo, hi]`, with per-interval items `T`: bare
/// affines ([`WindowCover`]) or robot-tagged ones ([`AttributedCover`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Cover<T> {
    /// Sorted, deduplicated critical points within `[lo, hi]`,
    /// including both window endpoints, followed by the smallest
    /// waypoint projection strictly beyond `hi` when some robot's
    /// trajectory reaches past the window.
    boundaries: Vec<f64>,
    /// Whether `boundaries` ends with that beyond-window projection.
    has_beyond: bool,
    /// Row `i` holds the items valid on the open interval
    /// `(boundaries[i], boundaries[i+1])`; with a beyond-window
    /// projection the final row covers `(hi, beyond)`.
    intervals: Csr<T>,
}

/// A cover of bare affines, produced by [`first_visit_cover`] or
/// [`all_visit_cover`].
pub type WindowCover = Cover<Affine>;

/// A cover whose affines carry the index of the robot that contributes
/// them — the form the fault-space exploration engine needs to restrict
/// an interval's visit structure to a fault mask's reliable sub-fleet
/// without rebuilding covers per mask. Produced by
/// [`attributed_first_visit_cover`].
pub type AttributedCover = Cover<(u32, Affine)>;

impl<T> Cover<T> {
    /// The critical points within the window, endpoints included.
    #[must_use]
    pub fn cuts(&self) -> &[f64] {
        &self.boundaries[..self.boundaries.len() - usize::from(self.has_beyond)]
    }

    /// The first waypoint projection strictly beyond the window, if
    /// any trajectory reaches past `hi`.
    #[must_use]
    pub fn beyond(&self) -> Option<f64> {
        self.has_beyond.then(|| self.boundaries[self.boundaries.len() - 1])
    }

    /// Per-interval item sets (see the struct docs for the layout).
    #[must_use]
    pub fn intervals(&self) -> &Csr<T> {
        &self.intervals
    }

    /// Whether interval `i` is the beyond-window interval `(hi,
    /// beyond)`, whose affines should only be evaluated at `hi` (the
    /// right-hand limit at the window edge).
    #[must_use]
    pub fn is_beyond(&self, i: usize) -> bool {
        self.has_beyond && i + 1 == self.intervals.len()
    }

    /// The open bounds `(lo_i, hi_i)` of interval `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn interval_bounds(&self, i: usize) -> (f64, f64) {
        (self.boundaries[i], self.boundaries[i + 1])
    }
}

/// An empty cover (no boundaries, no intervals): the starting point
/// for [`WindowCover::refill_first_visit`].
impl<T> Default for Cover<T> {
    fn default() -> Self {
        Cover {
            boundaries: Vec::new(),
            has_beyond: false,
            intervals: Csr { offsets: vec![0], items: Vec::new() },
        }
    }
}

impl WindowCover {
    /// Rebuilds this cover in place into what [`first_visit_cover_on`]
    /// returns for the same arguments, reusing its arrays — for callers
    /// that build covers over and over, such as an optimizer's
    /// objective. On error the cover is left as it was.
    ///
    /// # Errors
    ///
    /// Same contract as [`first_visit_cover`].
    pub fn refill_first_visit(
        &mut self,
        trajectories: &[PiecewiseTrajectory],
        side: Side,
        lo: f64,
        hi: f64,
    ) -> Result<()> {
        fill_cover(self, trajectories, side, lo, hi, Visits::First, |_, affine| affine)
    }
}

/// Fills `boundaries` with the interval boundary list for a window:
/// waypoint projections inside `(lo, hi)` and the endpoints, sorted and
/// deduplicated, then the first projection strictly beyond `hi` if any.
/// Returns whether that beyond-window projection is present.
fn collect_boundaries(
    boundaries: &mut Vec<f64>,
    trajectories: &[PiecewiseTrajectory],
    side: Side,
    lo: f64,
    hi: f64,
) -> bool {
    boundaries.clear();
    boundaries.extend([lo, hi]);
    let mut beyond: Option<f64> = None;
    for traj in trajectories {
        for w in traj.waypoints() {
            let x = side.read(*w).x;
            if x > lo && x < hi {
                boundaries.push(x);
            } else if x > hi {
                beyond = Some(beyond.map_or(x, |b| b.min(x)));
            }
        }
    }
    // Every cut is positive (`lo > 0`), where the bit patterns order
    // exactly like `f64::total_cmp`; equal bits are equal values.
    boundaries.sort_unstable_by_key(|c| c.to_bits());
    boundaries.dedup();
    boundaries.extend(beyond);
    beyond.is_some()
}

fn validate_window(trajectories: &[PiecewiseTrajectory], lo: f64, hi: f64) -> Result<()> {
    if trajectories.is_empty() {
        return Err(Error::domain("critical-point enumeration needs at least one trajectory"));
    }
    if !(lo > 0.0) || !(hi > lo) || !hi.is_finite() {
        return Err(Error::domain(format!(
            "critical-point window needs 0 < lo < hi finite, got [{lo}, {hi}]"
        )));
    }
    Ok(())
}

/// Returns the interval-index range `[start, end)` fully covered by a
/// moving segment spanning `[s_lo, s_hi]`, against the sorted boundary
/// list. Span endpoints are waypoint projections, hence never strictly
/// inside any interval: coverage is all-or-nothing per interval.
fn covered_range(boundaries: &[f64], s_lo: f64, s_hi: f64) -> (usize, usize) {
    let start = boundaries.partition_point(|&c| c < s_lo);
    let end = boundaries.partition_point(|&c| c <= s_hi);
    // Intervals start .. end-1 satisfy boundaries[j] >= s_lo and
    // boundaries[j + 1] <= s_hi.
    (start, end.saturating_sub(1))
}

/// First-unfilled lookup with path compression over the per-robot
/// assignment pointers: `next[j]` points at the first interval index
/// `>= j` not yet assigned a first-visit affine.
fn find_unfilled(next: &mut [u32], j: usize) -> usize {
    let mut root = j;
    while next[root] as usize != root {
        root = next[root] as usize;
    }
    let mut cur = j;
    while next[cur] as usize != cur {
        let succ = next[cur] as usize;
        next[cur] = root as u32;
        cur = succ;
    }
    root
}

/// Which covering segments a cover keeps per robot and interval.
#[derive(Clone, Copy, PartialEq)]
enum Visits {
    /// Only the earliest (in time order) covering segment.
    First,
    /// Every covering segment, in time order.
    All,
}

/// The interval-index range `[start, end)` a segment covers, read on
/// `side` against the sorted boundary list; empty (`start >= end`) for
/// a stationary segment or one outside the boundaries.
fn segment_span(boundaries: &[f64], side: Side, seg: Segment) -> (usize, usize) {
    let (a, b) = (side.read(seg.a), side.read(seg.b));
    if a.x == b.x {
        return (0, 0); // stationary: never covers an open interval
    }
    let (s_lo, s_hi) = if a.x < b.x { (a.x, b.x) } else { (b.x, a.x) };
    if s_hi <= boundaries[0] || s_lo >= boundaries[boundaries.len() - 1] {
        return (0, 0);
    }
    covered_range(boundaries, s_lo, s_hi)
}

/// The shared cover builder, filling `cover` in place (its arrays are
/// reused) in two walks over every robot's segments (robot, then time
/// order). The first records each segment's covered interval range and
/// counts the items every interval receives — one per covering
/// segment, or under [`Visits::First`] one per robot that covers it at
/// all — which sizes the CSR rows exactly. The second fills the rows in
/// walk order, so every row lists its items in robot order, then time
/// order, exactly as per-interval pushes would.
fn fill_cover<T: Copy>(
    cover: &mut Cover<T>,
    trajectories: &[PiecewiseTrajectory],
    side: Side,
    lo: f64,
    hi: f64,
    visits: Visits,
    item: impl Fn(u32, Affine) -> T,
) -> Result<()> {
    validate_window(trajectories, lo, hi)?;
    cover.has_beyond = collect_boundaries(&mut cover.boundaries, trajectories, side, lo, hi);
    let boundaries = &cover.boundaries;
    let m = boundaries.len() - 1;
    // `depth` is a difference array of covering segments: one robot's
    // under `Visits::First` (cleared after each robot), all of them
    // under `Visits::All`. `offsets[j + 1]` first holds row j's length.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let offsets = &mut cover.intervals.offsets;
    offsets.clear();
    offsets.resize(m + 1, 0);
    let mut depth = vec![0i64; m + 1];
    for traj in trajectories {
        for seg in traj.segments() {
            let (start, end) = segment_span(boundaries, side, seg);
            spans.push((start, end));
            if start < end {
                depth[start] += 1;
                depth[end] -= 1;
            }
        }
        if visits == Visits::First {
            let mut running = 0;
            for j in 0..m {
                running += depth[j];
                depth[j] = 0;
                offsets[j + 1] += usize::from(running > 0);
            }
            depth[m] = 0;
        }
    }
    if visits == Visits::All {
        let mut running = 0;
        for j in 0..m {
            running += depth[j];
            offsets[j + 1] = running as usize;
        }
    }
    for j in 0..m {
        offsets[j + 1] += offsets[j];
    }
    let mut cursor = offsets[..m].to_vec();
    let items = &mut cover.intervals.items;
    items.clear();
    items.resize(offsets[m], item(0, Affine { slope: 0.0, intercept: 0.0 }));
    let mut spans = spans.into_iter();
    let mut next: Vec<u32> = Vec::with_capacity(m + 1);
    for (robot, traj) in trajectories.iter().enumerate() {
        next.clear();
        next.extend(0..=m as u32); // identity: everything unfilled
        for seg in traj.segments() {
            let (start, end) = spans.next().expect("one span per segment");
            if start >= end {
                continue;
            }
            let entry =
                item(robot as u32, Affine::from_segment(side.read(seg.a), side.read(seg.b)));
            let mut place = |j: usize| {
                items[cursor[j]] = entry;
                cursor[j] += 1;
            };
            match visits {
                Visits::All => (start..end).for_each(place),
                Visits::First => {
                    let mut j = find_unfilled(&mut next, start);
                    while j < end {
                        place(j);
                        next[j] = j as u32 + 1;
                        j = find_unfilled(&mut next, j + 1);
                    }
                }
            }
        }
    }
    debug_assert!(cursor[..] == offsets[1..], "the fill walk places exactly the counted items");
    Ok(())
}

/// [`fill_cover`] into a fresh cover.
fn build_cover<T: Copy>(
    trajectories: &[PiecewiseTrajectory],
    side: Side,
    lo: f64,
    hi: f64,
    visits: Visits,
    item: impl Fn(u32, Affine) -> T,
) -> Result<Cover<T>> {
    let mut cover = Cover::default();
    fill_cover(&mut cover, trajectories, side, lo, hi, visits, item)?;
    Ok(cover)
}

/// Enumerates the critical points of a fleet over `[lo, hi]` and the
/// *first-visit* affine of every robot on every inter-cut interval:
/// per robot, the earliest (in time order) segment covering the
/// interval. `T_k(x)` restricted to an interval is the k-th order
/// statistic of its affines, so an interval with fewer than `k`
/// affines is not `k`-covered anywhere in its interior.
///
/// # Errors
///
/// Returns [`Error::Domain`] for an empty fleet or a window violating
/// `0 < lo < hi < inf`.
pub fn first_visit_cover(
    trajectories: &[PiecewiseTrajectory],
    lo: f64,
    hi: f64,
) -> Result<WindowCover> {
    first_visit_cover_on(trajectories, Side::Positive, lo, hi)
}

/// [`first_visit_cover`] of one [`Side`]: on [`Side::Negative`] the
/// window `[lo, hi]` stands for `[-hi, -lo]`, and the result equals
/// `first_visit_cover(&mirrored(trajectories)?, lo, hi)` bit for bit.
///
/// # Errors
///
/// Same contract as [`first_visit_cover`].
pub fn first_visit_cover_on(
    trajectories: &[PiecewiseTrajectory],
    side: Side,
    lo: f64,
    hi: f64,
) -> Result<WindowCover> {
    build_cover(trajectories, side, lo, hi, Visits::First, |_, affine| affine)
}

/// [`first_visit_cover`] with robot attribution: identical cuts,
/// identical affine values in identical order, each tagged with the
/// index of the contributing trajectory. Restricting an interval's
/// affines to a subset of robots yields exactly the sub-fleet's visit
/// structure there (a robot's first-visit affine depends only on its
/// own trajectory).
///
/// # Errors
///
/// Same contract as [`first_visit_cover`].
pub fn attributed_first_visit_cover(
    trajectories: &[PiecewiseTrajectory],
    lo: f64,
    hi: f64,
) -> Result<AttributedCover> {
    attributed_first_visit_cover_on(trajectories, Side::Positive, lo, hi)
}

/// [`attributed_first_visit_cover`] of one [`Side`] (see
/// [`first_visit_cover_on`]).
///
/// # Errors
///
/// Same contract as [`first_visit_cover`].
pub fn attributed_first_visit_cover_on(
    trajectories: &[PiecewiseTrajectory],
    side: Side,
    lo: f64,
    hi: f64,
) -> Result<AttributedCover> {
    build_cover(trajectories, side, lo, hi, Visits::First, |robot, affine| (robot, affine))
}

/// Like [`first_visit_cover`], but collects *every* covering segment's
/// affine per interval (all robots, all passes) — the visit multiset
/// needed by expected-cost evaluation, where later revisits still
/// carry probability mass.
///
/// # Errors
///
/// Same contract as [`first_visit_cover`].
pub fn all_visit_cover(
    trajectories: &[PiecewiseTrajectory],
    lo: f64,
    hi: f64,
) -> Result<WindowCover> {
    all_visit_cover_on(trajectories, Side::Positive, lo, hi)
}

/// [`all_visit_cover`] of one [`Side`] (see [`first_visit_cover_on`]).
///
/// # Errors
///
/// Same contract as [`first_visit_cover`].
pub fn all_visit_cover_on(
    trajectories: &[PiecewiseTrajectory],
    side: Side,
    lo: f64,
    hi: f64,
) -> Result<WindowCover> {
    build_cover(trajectories, side, lo, hi, Visits::All, |_, affine| affine)
}

/// Reflects trajectories across the origin (`x -> -x`), so the
/// negative half-line can be analyzed with the positive-window
/// machinery above.
///
/// # Errors
///
/// Propagates trajectory re-validation failures (mirroring preserves
/// every structural invariant, so this only fires on corrupt input).
pub fn mirrored(trajectories: &[PiecewiseTrajectory]) -> Result<Vec<PiecewiseTrajectory>> {
    trajectories
        .iter()
        .map(|t| {
            // Reflection preserves segment speeds exactly, so carry the
            // source trajectory's own speed bound: heterogeneous-speed
            // fleets (speeds above 1) mirror as freely as unit fleets.
            let max_speed = t.segments().map(|s| s.speed()).fold(1.0f64, f64::max);
            PiecewiseTrajectory::with_speed_limit(
                t.waypoints().iter().map(|w| SpaceTime::new(-w.x, w.t)).collect(),
                max_speed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::TrajectoryBuilder;

    fn doubling_prefix() -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin()
            .sweep_to(1.0)
            .sweep_to(-2.0)
            .sweep_to(4.0)
            .sweep_to(-8.0)
            .finish()
            .unwrap()
    }

    #[test]
    fn affine_eval_and_crossing() {
        let a = Affine { slope: 1.0, intercept: 6.0 };
        let b = Affine { slope: -1.0, intercept: 14.0 };
        assert_eq!(a.eval(2.0), 8.0);
        assert_eq!(a.crossing(&b), Some(4.0));
        assert_eq!(b.crossing(&a), Some(4.0));
        assert_eq!(a.crossing(&a), None);
        assert_eq!(b.position_of_time(9.0), Some(5.0));
        assert_eq!(Affine { slope: 0.0, intercept: 3.0 }.position_of_time(9.0), None);
    }

    #[test]
    fn window_rejects_bad_input() {
        let t = doubling_prefix();
        assert!(first_visit_cover(&[], 1.0, 6.0).is_err());
        assert!(first_visit_cover(std::slice::from_ref(&t), 0.0, 6.0).is_err());
        assert!(first_visit_cover(std::slice::from_ref(&t), 2.0, 2.0).is_err());
        assert!(first_visit_cover(std::slice::from_ref(&t), 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn doubling_cover_matches_pointwise_first_visits() {
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 6.0).unwrap();
        // Waypoint projections inside (1, 6): only +4.
        assert_eq!(cover.cuts(), &[1.0, 4.0, 6.0]);
        assert_eq!(cover.beyond(), None, "no waypoint beyond +6");
        assert_eq!(cover.intervals().len(), 2);
        // (1, 4): first covered by the sweep -2 -> +4, t(x) = x + 6.
        let a = cover.intervals()[0][0];
        assert_eq!((a.slope, a.intercept), (1.0, 6.0));
        for x in [1.5, 2.0, 3.9] {
            let exact = cover.intervals()[0][0].eval(x);
            assert_eq!(Some(exact), t.first_visit(x), "x = {x}");
        }
        // (4, 6): the trajectory never exceeds +4, so the interval has
        // no covering affine — exactly how incomplete coverage shows.
        assert!(cover.intervals()[1].is_empty());
        assert_eq!(t.first_visit(5.0), None);
    }

    #[test]
    fn interval_endpoint_evaluation_is_the_one_sided_limit() {
        // At the turning cut x = 1 the pointwise first visit is t = 1,
        // while the right-hand interval's affine evaluated at 1 gives
        // the limit from above, t = 7 (the return sweep -2 -> +4) —
        // strictly later, which is exactly why the supremum probes
        // interval limits instead of pointwise values at cuts.
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 6.0).unwrap();
        assert_eq!(t.first_visit(1.0), Some(1.0));
        assert_eq!(cover.intervals()[0][0].eval(1.0), 7.0);
        // At x = 4 (a turning waypoint reached on the way up) the
        // left-hand limit coincides with the pointwise visit, t = 10.
        assert_eq!(t.first_visit(4.0), Some(10.0));
        assert_eq!(cover.intervals()[0][0].eval(4.0), 10.0);
    }

    #[test]
    fn beyond_interval_tracks_the_first_projection_past_the_window() {
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 3.0).unwrap();
        assert_eq!(cover.cuts(), &[1.0, 3.0]);
        assert_eq!(cover.beyond(), Some(4.0));
        assert_eq!(cover.intervals().len(), 2);
        assert!(cover.is_beyond(1));
        assert!(!cover.is_beyond(0));
        assert_eq!(cover.interval_bounds(1), (3.0, 4.0));
        // Evaluated at the window edge: the right-hand limit of the
        // first visit at 3 is on the sweep -2 -> +4 (t = x + 6 = 9).
        assert_eq!(cover.intervals()[1][0].eval(3.0), 9.0);
    }

    #[test]
    fn first_visit_cover_keeps_only_the_earliest_covering_segment() {
        // The sweep -2 -> +4 and the sweep +4 -> -8 both cover (1, 2);
        // first-visit keeps only the earlier one per robot.
        let t = doubling_prefix();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 2.0).unwrap();
        assert_eq!(cover.intervals()[0].len(), 1);
        assert_eq!(cover.intervals()[0][0].slope, 1.0);
    }

    #[test]
    fn all_visit_cover_collects_every_pass() {
        let t = doubling_prefix();
        let cover = all_visit_cover(std::slice::from_ref(&t), 1.0, 2.0).unwrap();
        // (1, 2) is crossed by -2 -> +4 and by +4 -> -8 (and by the
        // initial 0 -> 1 sweep? no: its span [0, 1] stops at the cut).
        assert_eq!(cover.intervals()[0].len(), 2);
        let times: Vec<f64> = cover.intervals()[0].iter().map(|a| a.eval(1.5)).collect();
        assert_eq!(times, t.visits(1.5));
    }

    #[test]
    fn multi_robot_cuts_partition_by_every_waypoint() {
        let a = doubling_prefix();
        let b = TrajectoryBuilder::from_origin().sweep_to(3.0).sweep_to(-5.0).finish().unwrap();
        let cover = first_visit_cover(&[a.clone(), b.clone()], 1.0, 6.0).unwrap();
        assert_eq!(cover.cuts(), &[1.0, 3.0, 4.0, 6.0]);
        // On (1, 3) both robots contribute a first-visit affine.
        assert_eq!(cover.intervals()[0].len(), 2);
        for x in [1.5, 2.5] {
            let mut exact: Vec<f64> = cover.intervals()[0].iter().map(|f| f.eval(x)).collect();
            exact.sort_by(f64::total_cmp);
            let mut pointwise = vec![a.first_visit(x).unwrap(), b.first_visit(x).unwrap()];
            pointwise.sort_by(f64::total_cmp);
            assert_eq!(exact, pointwise, "x = {x}");
        }
        // (3, 4) is reached only by the doubling robot's -2 -> +4
        // sweep; (4, 6) is beyond every excursion and stays empty.
        assert_eq!(cover.intervals()[1].len(), 1);
        assert_eq!((cover.intervals()[1][0].slope, cover.intervals()[1][0].intercept), (1.0, 6.0));
        assert!(cover.intervals()[2].is_empty());
    }

    #[test]
    fn mirrored_trajectories_swap_sides_losslessly() {
        let t = doubling_prefix();
        let m = mirrored(std::slice::from_ref(&t)).unwrap();
        assert_eq!(m.len(), 1);
        for x in [-1.5, 2.0, -4.0] {
            assert_eq!(m[0].first_visit(x), t.first_visit(-x), "x = {x}");
        }
        let back = mirrored(&m).unwrap();
        assert_eq!(back[0], t);
    }

    #[test]
    fn enclosures_bracket_evaluations_and_crossings() {
        let a = Affine { slope: 1.0, intercept: 6.0 };
        let b = Affine { slope: -1.0, intercept: 14.0 };
        for x in [1.0, 2.5, 3.75] {
            let t = a.enclosure_at(x).unwrap();
            assert!(t.contains(a.eval(x)), "x = {x}");
            let r = a.ratio_enclosure(x).unwrap();
            assert!(r.contains(a.eval(x) / x), "x = {x}");
        }
        // The crossing enclosure contains the f64 crossing (and the
        // real one: these coefficients are exact, so they coincide).
        let xc = a.crossing(&b).unwrap();
        let enc = a.crossing_enclosure(&b).unwrap();
        assert!(enc.contains(xc));
        assert!(enc.width() < 1e-12 * xc.abs());
        assert!(a.crossing_enclosure(&a).is_none(), "parallel lines have no crossing");
        // The range form covers every point of the span.
        let span = Interval::new(2.0, 3.0).unwrap();
        let over = a.ratio_enclosure_over(span).unwrap();
        for x in [2.0, 2.4, 3.0] {
            assert!(over.contains(a.slope + a.intercept / x), "x = {x}");
        }
    }

    #[test]
    fn attributed_cover_matches_the_bare_cover_with_robot_tags() {
        let a = doubling_prefix();
        let b = TrajectoryBuilder::from_origin().sweep_to(3.0).sweep_to(-5.0).finish().unwrap();
        let fleet = [a, b];
        let bare = first_visit_cover(&fleet, 1.0, 6.0).unwrap();
        let tagged = attributed_first_visit_cover(&fleet, 1.0, 6.0).unwrap();
        assert_eq!(tagged.cuts(), bare.cuts());
        assert_eq!(tagged.beyond(), bare.beyond());
        assert_eq!(tagged.intervals().len(), bare.intervals().len());
        for (i, (bare_affines, tagged_affines)) in
            bare.intervals().iter().zip(tagged.intervals().iter()).enumerate()
        {
            let stripped: Vec<Affine> = tagged_affines.iter().map(|&(_, f)| f).collect();
            assert_eq!(&stripped, bare_affines, "interval {i}");
            for &(robot, _) in tagged_affines {
                assert!((robot as usize) < fleet.len(), "interval {i}");
            }
            assert_eq!(tagged.is_beyond(i), bare.is_beyond(i));
            assert_eq!(tagged.interval_bounds(i), bare.interval_bounds(i));
        }
        // On (1, 3) robot 0's affine is the -2 -> +4 sweep and robot
        // 1's is the 0 -> +3 sweep: attribution is by index.
        let first = &tagged.intervals()[0];
        assert_eq!(first.iter().map(|&(r, _)| r).collect::<Vec<_>>(), vec![0, 1]);
    }

    fn mixed_fleet() -> Vec<PiecewiseTrajectory> {
        let fast = PiecewiseTrajectory::with_speed_limit(
            vec![
                SpaceTime::origin(),
                SpaceTime::new(-3.0, 1.5),
                SpaceTime::new(9.0, 7.5),
                SpaceTime::new(-20.0, 22.0),
            ],
            2.0,
        )
        .unwrap();
        let held = TrajectoryBuilder::from_origin()
            .sweep_to(-2.5)
            .hold_until(6.0)
            .sweep_to(7.0)
            .sweep_to(-11.0)
            .finish()
            .unwrap();
        vec![doubling_prefix(), fast, held]
    }

    #[test]
    fn negative_side_covers_equal_covers_of_the_mirrored_fleet() {
        let fleet = mixed_fleet();
        let reflected = mirrored(&fleet).unwrap();
        for (lo, hi) in [(1.0, 6.0), (1.0, 3.0), (0.5, 25.0), (2.0, 2.5)] {
            assert_eq!(
                first_visit_cover_on(&fleet, Side::Negative, lo, hi).unwrap(),
                first_visit_cover(&reflected, lo, hi).unwrap(),
                "[{lo}, {hi}]"
            );
            assert_eq!(
                attributed_first_visit_cover_on(&fleet, Side::Negative, lo, hi).unwrap(),
                attributed_first_visit_cover(&reflected, lo, hi).unwrap(),
                "[{lo}, {hi}]"
            );
            assert_eq!(
                all_visit_cover_on(&fleet, Side::Negative, lo, hi).unwrap(),
                all_visit_cover(&reflected, lo, hi).unwrap(),
                "[{lo}, {hi}]"
            );
            assert_eq!(
                first_visit_cover_on(&fleet, Side::Positive, lo, hi).unwrap(),
                first_visit_cover(&fleet, lo, hi).unwrap(),
                "[{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn csr_rows_list_items_in_robot_then_time_order() {
        let fleet = mixed_fleet();
        let cover = all_visit_cover(&fleet, 1.0, 6.0).unwrap();
        let tagged = attributed_first_visit_cover(&fleet, 1.0, 6.0).unwrap();
        assert_eq!(cover.intervals().len(), cover.intervals().iter().len());
        assert!(!cover.intervals().is_empty());
        for (i, row) in tagged.intervals().iter().enumerate() {
            let robots: Vec<u32> = row.iter().map(|&(r, _)| r).collect();
            assert!(robots.windows(2).all(|w| w[0] < w[1]), "interval {i}: {robots:?}");
            assert_eq!(&tagged.intervals()[i], row);
        }
        // All-visit rows hold every pass, ordered like the pointwise
        // visit list within each robot.
        let (lo, hi) = cover.interval_bounds(0);
        let x = 0.5 * (lo + hi);
        let mut times: Vec<f64> = cover.intervals()[0].iter().map(|a| a.eval(x)).collect();
        times.sort_by(f64::total_cmp);
        let mut pointwise: Vec<f64> = fleet.iter().flat_map(|t| t.visits(x)).collect();
        pointwise.sort_by(f64::total_cmp);
        assert_eq!(times.len(), pointwise.len());
        for (a, b) in times.iter().zip(&pointwise) {
            assert!((a - b).abs() <= 1e-12 * b.abs(), "{times:?} vs {pointwise:?}");
        }
    }

    #[test]
    fn stationary_segments_never_cover_an_interval() {
        let t = TrajectoryBuilder::from_origin()
            .sweep_to(2.0)
            .hold_until(10.0)
            .sweep_to(5.0)
            .finish()
            .unwrap();
        let cover = first_visit_cover(std::slice::from_ref(&t), 1.0, 4.0).unwrap();
        assert_eq!(cover.cuts(), &[1.0, 2.0, 4.0]);
        // (2, 4) is covered only by the final sweep, not by the hold.
        assert_eq!(cover.intervals()[1].len(), 1);
        assert_eq!(cover.intervals()[1][0].eval(3.0), 11.0);
    }
}
