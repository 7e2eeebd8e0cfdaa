//! Property-based tests for the core invariants of the paper.

use faultline_core::closed_form::ClosedForm;
use faultline_core::coverage::Fleet;
use faultline_core::exact::{
    all_visit_cover, all_visit_cover_on, attributed_first_visit_cover,
    attributed_first_visit_cover_on, first_visit_cover, first_visit_cover_on, mirrored, Side,
};
use faultline_core::lower_bound;
use faultline_core::plan::TrajectoryPlan;
use faultline_core::ratio;
use faultline_core::{
    Algorithm, BoundedAlgorithm, ClampedZigZagPlan, Cone, Params, PiecewiseTrajectory,
    ProportionalSchedule, SpaceTime, TurnCost, ZigZagPlan,
};
use proptest::prelude::*;

/// Strategy generating valid proportional-regime parameters
/// (`f < n < 2f + 2`, `f >= 1`).
fn proportional_params() -> impl Strategy<Value = Params> {
    (1usize..24).prop_flat_map(|f| {
        ((f + 1)..(2 * f + 2)).prop_map(move |n| Params::new(n, f).expect("valid by range"))
    })
}

/// Strategy generating arbitrary valid parameters (both regimes).
fn any_params() -> impl Strategy<Value = Params> {
    (1usize..40).prop_flat_map(|n| (0usize..n).prop_map(move |f| Params::new(n, f).unwrap()))
}

/// Strategy generating small fleets of arbitrary speed-2-bounded
/// trajectories from the origin: each robot is a list of steps, one
/// drawn `u64` each, moving at a velocity `v` in `(-1.9, 1.9)` for a
/// duration in `(0.05, 4)`, with slow steps turned into holds.
fn wandering_fleet() -> impl Strategy<Value = Vec<PiecewiseTrajectory>> {
    let unit = |bits: u64| (bits & 0xffff_ffff) as f64 / (1u64 << 32) as f64;
    let steps = prop::collection::vec(any::<u64>(), 1..10);
    prop::collection::vec(steps, 1..6).prop_map(move |robots| {
        robots
            .into_iter()
            .map(|steps| {
                let mut waypoints = vec![SpaceTime::origin()];
                for bits in steps {
                    let last = waypoints[waypoints.len() - 1];
                    let dt = 0.05 + 3.95 * unit(bits);
                    let v = -1.9 + 3.8 * unit(bits >> 32);
                    let v = if v.abs() < 0.2 { 0.0 } else { v };
                    waypoints.push(SpaceTime::new(last.x + v * dt, last.t + dt));
                }
                PiecewiseTrajectory::with_speed_limit(waypoints, 2.0).unwrap()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Negative-side covers, built by reading `-x` on the fly, equal
    /// the covers of the mirrored fleet bit for bit (cuts, beyond
    /// projection, every affine and its order, robot tags).
    #[test]
    fn negative_side_covers_equal_mirrored_fleet_covers(
        fleet in wandering_fleet(),
        lo in 0.1f64..3.0,
        span in 0.5f64..20.0,
    ) {
        let hi = lo + span;
        let reflected = mirrored(&fleet).unwrap();
        prop_assert_eq!(
            first_visit_cover_on(&fleet, Side::Negative, lo, hi).unwrap(),
            first_visit_cover(&reflected, lo, hi).unwrap()
        );
        prop_assert_eq!(
            attributed_first_visit_cover_on(&fleet, Side::Negative, lo, hi).unwrap(),
            attributed_first_visit_cover(&reflected, lo, hi).unwrap()
        );
        prop_assert_eq!(
            all_visit_cover_on(&fleet, Side::Negative, lo, hi).unwrap(),
            all_visit_cover(&reflected, lo, hi).unwrap()
        );
    }

    /// The cone reflection map and its inverse are mutually inverse, and
    /// consecutive turning points are joined by unit-speed segments.
    #[test]
    fn cone_reflections_are_consistent(
        beta in 1.01f64..20.0,
        x0 in prop_oneof![0.05f64..50.0, -50.0f64..-0.05],
    ) {
        let cone = Cone::new(beta).unwrap();
        let p = cone.boundary_point(x0);
        let q = cone.next_turning_point(p);
        let back = cone.previous_turning_point(q);
        prop_assert!((back.x - p.x).abs() <= 1e-9 * p.x.abs().max(1.0));
        let speed = p.speed_to(&q).unwrap();
        prop_assert!((speed - 1.0).abs() < 1e-9, "speed {speed}");
    }

    /// Materialized zig-zag trajectories never exceed unit speed and
    /// never leave the cone.
    #[test]
    fn zigzag_respects_speed_and_cone(
        beta in 1.05f64..10.0,
        seed in prop_oneof![0.1f64..5.0, -5.0f64..-0.1],
        horizon in 10.0f64..500.0,
    ) {
        let cone = Cone::new(beta).unwrap();
        let plan = ZigZagPlan::new(cone, seed).unwrap();
        let traj = plan.materialize(horizon).unwrap();
        prop_assert!((traj.horizon() - horizon).abs() < 1e-9);
        for seg in traj.segments() {
            prop_assert!(seg.speed() <= 1.0 + 1e-9);
        }
        for step in 0..200 {
            let t = horizon * step as f64 / 199.0;
            if let Some(x) = traj.position_at(t) {
                prop_assert!(cone.contains(SpaceTime::new(x, t + 1e-9)));
            }
        }
    }

    /// Lemma 2: the interleaved turning points of a proportional
    /// schedule form a geometric sequence in position, and the time
    /// recurrence `t_{i+1} = t_i + tau_i * beta * (r - 1)` holds.
    #[test]
    fn proportional_schedule_is_proportional(
        n in 1usize..12,
        beta in 1.05f64..8.0,
    ) {
        let s = ProportionalSchedule::new(n, beta).unwrap();
        let r = s.ratio();
        let pts = s.interleaved_turning_points(3 * n);
        for w in pts.windows(2) {
            let ratio = w[1].1.x / w[0].1.x;
            prop_assert!((ratio - r).abs() < 1e-9 * r);
            let dt_expect = w[0].1.x * beta * (r - 1.0);
            prop_assert!((w[1].1.t - w[0].1.t - dt_expect).abs() < 1e-9 * w[1].1.t.max(1.0));
        }
    }

    /// Theorem 1 + Lemma 5: for the designed algorithm A(n, f), the
    /// empirically measured ratio K(x) never exceeds the closed-form
    /// competitive ratio, for random targets on both sides.
    #[test]
    fn measured_ratio_below_analytic_cr(
        params in proportional_params(),
        xs in prop::collection::vec(1.0f64..30.0, 1..6),
        negate in prop::collection::vec(any::<bool>(), 6),
    ) {
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(31.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        let cr = alg.analytic_cr();
        for (i, &x) in xs.iter().enumerate() {
            let target = if negate[i % negate.len()] { -x } else { x };
            let t = fleet.visit_time(target, params.required_visits());
            prop_assert!(t.is_some(), "target {target} uncovered within horizon");
            let ratio = t.unwrap() / x;
            prop_assert!(
                ratio <= cr + 1e-6,
                "{params}: K({target}) = {ratio} > CR = {cr}"
            );
        }
    }

    /// The detection time is always at least the target distance
    /// (no algorithm is faster than distance / unit speed), and at
    /// least beta * |x| for cone-confined schedules.
    #[test]
    fn detection_time_at_least_distance(
        params in proportional_params(),
        x in 1.0f64..20.0,
    ) {
        let alg = Algorithm::design(params).unwrap();
        let beta = alg.schedule().unwrap().beta();
        let horizon = alg.required_horizon(21.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        let t = fleet.visit_time(x, params.required_visits()).unwrap();
        prop_assert!(t >= x);
        // Every visit by every robot happens inside the cone.
        let t1 = fleet.visit_time(x, 1).unwrap();
        prop_assert!(t1 >= beta * x - 1e-9);
    }

    /// Lower bound <= upper bound for every valid parameter pair, and
    /// the two-group regime achieves exactly 1.
    #[test]
    fn bounds_are_ordered(params in any_params()) {
        let lb = lower_bound::lower_bound(params).unwrap();
        let ub = ratio::cr_upper(params);
        prop_assert!(lb <= ub + 1e-9, "{params}: lb = {lb}, ub = {ub}");
        if params.regime() == faultline_core::Regime::TwoGroup {
            prop_assert!((ub - 1.0).abs() < 1e-12);
        } else {
            prop_assert!(ub >= 3.0, "{params}: proportional CR is always above 3");
        }
    }

    /// The closed-form optimal beta really is a minimum of cr_of_beta:
    /// perturbing beta in either direction cannot decrease the ratio.
    #[test]
    fn beta_star_is_locally_optimal(
        params in proportional_params(),
        delta in 0.001f64..0.5,
    ) {
        let beta_star = ratio::optimal_beta(params).unwrap();
        let at_star = ratio::cr_of_beta(params, beta_star).unwrap();
        let up = ratio::cr_of_beta(params, beta_star + delta).unwrap();
        prop_assert!(up >= at_star - 1e-12);
        if beta_star - delta > 1.0 {
            let down = ratio::cr_of_beta(params, beta_star - delta).unwrap();
            prop_assert!(down >= at_star - 1e-12);
        }
    }

    /// Lemma 6 holds on every materialized zig-zag trajectory: whenever
    /// both ±x are visited before 3x + 2, the trajectory is classifiable
    /// as positive or negative for x.
    #[test]
    fn lemma6_never_violated_by_zigzags(
        beta in 1.05f64..6.0,
        seed in prop_oneof![0.1f64..2.0, -2.0f64..-0.1],
        x in 1.01f64..10.0,
    ) {
        let plan = ZigZagPlan::new(Cone::new(beta).unwrap(), seed).unwrap();
        let traj = plan.materialize(40.0 * x).unwrap();
        prop_assert!(lower_bound::lemma6_holds(&traj, x).unwrap());
    }

    /// The exact closed form of T_(f+1)(x) agrees with the numeric
    /// coverage evaluation at random targets on both sides.
    #[test]
    fn closed_form_matches_coverage(
        params in proportional_params(),
        x in 1.0f64..25.0,
        negative in any::<bool>(),
    ) {
        let target = if negative { -x } else { x };
        let alg = Algorithm::design(params).unwrap();
        let schedule = alg.schedule().unwrap();
        let cf = ClosedForm::new(schedule);
        let horizon = alg.required_horizon(26.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        let exact = cf.visit_time(target, params.f()).unwrap();
        let numeric = fleet.visit_time(target, params.required_visits()).unwrap();
        prop_assert!(
            (exact - numeric).abs() <= 1e-9 * numeric.max(1.0),
            "{params}, x = {target}: closed {exact} vs fleet {numeric}"
        );
        // And it never exceeds the schedule's supremum.
        prop_assert!(exact / x <= cf.supremum(params.f()) + 1e-9);
    }

    /// Clamped zig-zag plans stay within their bound, respect unit
    /// speed, and coincide with the unclamped plan wherever the bound
    /// does not bite.
    #[test]
    fn clamped_zigzag_invariants(
        beta in 1.05f64..6.0,
        seed in prop_oneof![0.1f64..0.9, -0.9f64..-0.1],
        bound in 1.0f64..20.0,
        horizon in 10.0f64..300.0,
    ) {
        let plan = ZigZagPlan::new(Cone::new(beta).unwrap(), seed).unwrap();
        let clamped = ClampedZigZagPlan::new(plan, bound).unwrap();
        let traj = clamped.materialize(horizon).unwrap();
        prop_assert!((traj.horizon() - horizon).abs() < 1e-9);
        for seg in traj.segments() {
            prop_assert!(seg.speed() <= 1.0 + 1e-9);
        }
        prop_assert!(traj.max_excursion() <= bound * (1.0 + 1e-9));
        // If the free plan never leaves the bound, clamping is a no-op.
        let free = plan.materialize(horizon).unwrap();
        if free.max_excursion() <= bound {
            prop_assert_eq!(traj, free);
        }
    }

    /// The bounded algorithm is never worse than the unbounded one on
    /// its own domain.
    #[test]
    fn bounded_algorithm_never_worse(
        params in proportional_params(),
        bound in 1.2f64..10.0,
        x in 1.0f64..10.0,
    ) {
        prop_assume!(x <= bound);
        let bounded = BoundedAlgorithm::design(params, bound).unwrap();
        let horizon = bounded.required_horizon();
        let fleet = Fleet::from_plans(&bounded.plans().unwrap(), horizon).unwrap();
        let t = fleet.visit_time(x, params.required_visits());
        prop_assert!(t.is_some(), "{params}, D = {bound}: x = {x} unconfirmed");
        let cr = ratio::cr_upper(params);
        prop_assert!(
            t.unwrap() / x <= cr + 1e-6,
            "{params}, D = {bound}, x = {x}: bounded ratio above Theorem 1"
        );
    }

    /// Turn-cost detection costs are consistent: non-negative turn
    /// counts, cost = time + c * turns, monotone in c, and equal to the
    /// plain detection time at c = 0.
    #[test]
    fn turn_cost_consistency(
        params in proportional_params(),
        x in 1.0f64..15.0,
        c in 0.0f64..5.0,
    ) {
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(16.0).unwrap();
        let trajs: Vec<_> = alg
            .plans()
            .iter()
            .map(|p| p.materialize(horizon).unwrap())
            .collect();
        let k = params.required_visits();
        let free = TurnCost::free().detection_cost(&trajs, x, k).unwrap().unwrap();
        let priced = TurnCost::new(c).unwrap().detection_cost(&trajs, x, k).unwrap().unwrap();
        prop_assert_eq!(free.robot, priced.robot);
        prop_assert_eq!(free.turns, priced.turns);
        prop_assert!((priced.cost - (free.time + c * free.turns as f64)).abs() < 1e-9);
        prop_assert!(free.cost == free.time);
    }

    /// The adversary of Theorem 2 forces at least ratio alpha(n) on the
    /// fleet designed by A(n, f) — i.e. the lower bound is real — while
    /// the fleet stays below its upper bound.
    #[test]
    fn adversary_forces_at_least_alpha(params in proportional_params()) {
        prop_assume!(params.n() >= 2);
        let alg = Algorithm::design(params).unwrap();
        let alpha = lower_bound::alpha(params.n()).unwrap();
        let points = lower_bound::adversary_points(params.n(), alpha).unwrap();
        let xmax = points[0].max(2.0) * 1.1;
        let horizon = alg.required_horizon(xmax).unwrap();
        let plans = alg.plans();
        let trajs: Vec<_> = plans
            .iter()
            .map(|p| p.materialize(horizon).unwrap())
            .collect();
        let outcome = lower_bound::adversarial_ratio(
            &trajs,
            params.f(),
            params.n(),
            alpha,
        )
        .unwrap();
        prop_assert!(outcome.ratio.is_finite());
        prop_assert!(
            outcome.ratio >= alpha - 1e-6,
            "{params}: adversary only forced {} < alpha = {alpha}",
            outcome.ratio
        );
        prop_assert!(outcome.ratio <= alg.analytic_cr() + 1e-6);
    }
}
