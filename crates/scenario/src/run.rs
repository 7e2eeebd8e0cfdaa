//! Executing scenario documents.
//!
//! Plans are materialized in *plan time* and retimed into wall clock
//! per robot (`t ↦ delay + t / speed`); the resulting fleet goes
//! through the one per-target simulation fan-out,
//! [`faultline_analysis::Scenario::run_on`]. For the paper's fleet
//! (unit speeds, immediate activation, no onsets) every retiming is a
//! bitwise identity, so a legacy document upgraded to a
//! [`ScenarioDoc`] reproduces the legacy runner byte-for-byte.

use faultline_analysis::ScenarioResult;
use faultline_core::{Params, PiecewiseTrajectory, Result, SpaceTime};

use crate::document::{Activation, Document, ScenarioDoc};

/// Seed salt separating activation-delay coins from the simulator's
/// sensor-miss and Byzantine-lie streams: reusing a seed across the
/// three must never correlate their draws.
const ACTIVATION_STREAM: u64 = 0x6A09_E667_F3BC_C909;

/// Deterministic coin in `[0, 1)` for seeded activation delays, keyed
/// by `(seed, robot)` (splitmix64 finalizer over the xor-combined key,
/// the same construction as the simulator's fault coins but on its own
/// stream).
fn activation_coin(seed: u64, robot: usize) -> f64 {
    let mut z = seed ^ ACTIVATION_STREAM ^ (robot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Maps a unit-speed plan-time trajectory into wall clock: every
/// waypoint `(x, t)` becomes `(x, delay + t / speed)`, with a parked
/// origin waypoint prepended for a positive delay. The all-defaults
/// case returns the input unchanged (bitwise — byte-identity with the
/// legacy runner depends on it).
fn retime(t: PiecewiseTrajectory, speed: f64, delay: f64) -> Result<PiecewiseTrajectory> {
    if speed.to_bits() == 1.0f64.to_bits() && delay == 0.0 {
        return Ok(t);
    }
    let mut waypoints = Vec::with_capacity(t.waypoints().len() + 1);
    if delay > 0.0 {
        waypoints.push(SpaceTime { x: 0.0, t: 0.0 });
    }
    for w in t.waypoints() {
        waypoints.push(SpaceTime { x: w.x, t: delay + w.t / speed });
    }
    PiecewiseTrajectory::with_speed_limit(waypoints, speed.max(1.0))
}

impl ScenarioDoc {
    /// Resolved activation delay per robot. Seeded delays draw from
    /// the scenario seed (default 0) on the activation coin stream, so
    /// the same document always resolves to the same fleet.
    #[must_use]
    pub fn activation_delays(&self) -> Vec<f64> {
        let seed = self.seed.unwrap_or(0);
        self.robot_specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec.activation {
                Activation::Immediate => 0.0,
                Activation::DelayedStart(t) => t,
                Activation::Seeded { max_delay } => activation_coin(seed, i) * max_delay,
            })
            .collect()
    }

    /// Materializes the document's fleet in wall clock: plans are
    /// resolved, materialized to a horizon stretched per robot by its
    /// speed, and retimed by `(speed, delay)`. Returns the
    /// trajectories and the wall-clock horizon (plan horizon plus the
    /// largest activation delay).
    ///
    /// Slow robots genuinely cover less ground within that horizon —
    /// a target they alone could confirm may go undetected, and the
    /// result reports that honestly instead of stretching the clock.
    ///
    /// # Errors
    ///
    /// Propagates validation, strategy and trajectory failures.
    pub fn materialize_fleet(&self) -> Result<(Vec<PiecewiseTrajectory>, f64)> {
        self.validate()?;
        let params = Params::new(self.n, self.f)?;
        let xmax = self.targets.iter().map(|x| x.abs()).fold(1.0f64, f64::max);
        let (plans, base_horizon) = self.shared().plans_and_horizon(params, xmax)?;
        let specs = self.robot_specs();
        let delays = self.activation_delays();
        let wall_horizon = base_horizon + delays.iter().fold(0.0f64, |a, &b| a.max(b));
        let trajectories = plans
            .iter()
            .zip(&specs)
            .zip(&delays)
            .map(|((plan, spec), &delay)| {
                // A speed-s robot consumes plan time s times faster
                // than the wall clock, so its plan must extend that
                // much further to fill the shared horizon.
                let trajectory = plan.materialize(wall_horizon * spec.speed)?;
                retime(trajectory, spec.speed, delay)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok((trajectories, wall_horizon))
    }

    /// Runs the scenario: the wall-clock fleet of
    /// [`ScenarioDoc::materialize_fleet`] searches every target through
    /// [`faultline_analysis::Scenario::run_on`], with each robot's
    /// fault onset.
    ///
    /// # Errors
    ///
    /// Propagates validation, strategy, plan and simulation failures.
    pub fn run(&self) -> Result<Vec<ScenarioResult>> {
        let (trajectories, _) = self.materialize_fleet()?;
        let onsets: Vec<Option<f64>> = self.robot_specs().iter().map(|s| s.fault_onset).collect();
        self.shared().run_on(&trajectories, &onsets)
    }
}

impl Document {
    /// Runs the document: a scenario through [`ScenarioDoc::run`]; a
    /// trace is re-executed, checked bit-for-bit against its recorded
    /// outcome, and reported as one result.
    ///
    /// # Errors
    ///
    /// Propagates scenario failures; for a trace, returns
    /// [`faultline_core::Error::Domain`] when the replayed outcome
    /// diverges from the recorded one.
    pub fn run(&self) -> Result<Vec<ScenarioResult>> {
        match self {
            Document::Scenario(doc) => doc.run(),
            Document::Trace(trace) => {
                trace.verify()?;
                Ok(vec![ScenarioResult::from_outcome(trace.target, &trace.outcome)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_analysis::scenario::results_to_json;
    use faultline_analysis::Scenario;

    fn doc(json: &str) -> ScenarioDoc {
        ScenarioDoc::from_json(json).unwrap()
    }

    #[test]
    fn unit_speed_document_reproduces_legacy_bytes() {
        // The canonical Byzantine quorum regime, spelled as a v1
        // document and as the legacy form; outputs must be identical
        // bytes, not merely approximately equal.
        let v1 = doc(r#"{"version": 1, "n": 5, "f": 2, "targets": [2.0, -4.5],
            "fault_plan": ["Reliable", "Reliable", "Reliable",
                           {"Byzantine": {"lie_rate": 0.75}},
                           {"Byzantine": {"lie_rate": 0.75}}],
            "quorum": 3, "seed": 9}"#);
        let legacy = Scenario::from_json(
            r#"{"n": 5, "f": 2, "targets": [2.0, -4.5],
                "fault_plan": ["Reliable", "Reliable", "Reliable",
                               {"Byzantine": {"lie_rate": 0.75}},
                               {"Byzantine": {"lie_rate": 0.75}}],
                "quorum": 3, "seed": 9}"#,
        )
        .unwrap();
        assert_eq!(ScenarioDoc::from(legacy.clone()), v1, "the upgrade is the v1 spelling");
        let via_doc = results_to_json(&v1.run().unwrap()).unwrap();
        let via_legacy = results_to_json(&legacy.run().unwrap()).unwrap();
        assert_eq!(via_doc, via_legacy);
    }

    #[test]
    fn explicit_default_robots_match_the_implicit_fleet() {
        let implicit = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0, -7.5]}"#);
        let explicit = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0, -7.5],
            "robots": [{"speed": 1.0}, {}, {"activation": "Immediate"}]}"#);
        assert_eq!(explicit.run().unwrap(), implicit.run().unwrap());
    }

    #[test]
    fn document_upgrades_legacy_and_replays_traces() {
        use faultline_core::TrajectoryBuilder;
        use faultline_sim::engine::SimConfig;
        use faultline_sim::{FaultKind, FaultPlan, RunTrace, Target};

        // A legacy document upgrades to its v1 spelling.
        let legacy = Document::from_json(r#"{"n": 3, "f": 1, "targets": [2.0, -4.5]}"#).unwrap();
        let v1 = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0, -4.5]}"#);
        assert_eq!(legacy, Document::Scenario(v1));

        // The upgraded document is validated at parse time: a target
        // inside the unit window is rejected before anything runs.
        let err = Document::from_json(r#"{"n": 3, "f": 1, "targets": [0.5]}"#).unwrap_err();
        assert!(err.to_string().contains("neither a scenario nor a trace"), "got: {err}");
        assert!(err.to_string().contains("target 0.5"), "got: {err}");

        // A typo'd versioned document fails with the strict parser's
        // diagnostic instead of falling through to the legacy form.
        let err =
            Document::from_json(r#"{"version": 1, "n": 3, "f": 1, "tragets": [2.0]}"#).unwrap_err();
        assert!(err.to_string().contains("tragets"), "got: {err}");

        // A recorded trace replays bit-for-bit and reports one result.
        let straight = |to: f64| TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap();
        let trace = RunTrace::record(
            "document replay test",
            vec![straight(9.0), straight(9.0)],
            Target::new(2.0).unwrap(),
            &FaultPlan::new(vec![FaultKind::Sensor, FaultKind::Reliable]).unwrap(),
            0,
            SimConfig::default(),
            None,
        )
        .unwrap();
        assert!(trace.outcome.detected(), "robot 1 reaches and reports the target");
        let results = Document::from_json(&trace.to_json().unwrap()).unwrap().run().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].target, 2.0);
        assert_eq!(results[0].detection_time, trace.outcome.detection.as_ref().map(|d| d.time));

        // A diverging trace (tampered outcome) is rejected, not panicked.
        let mut tampered = trace.clone();
        tampered.outcome.detection = None;
        assert!(Document::from_json(&tampered.to_json().unwrap()).unwrap().run().is_err());

        // Garbage names both parsers' reasons.
        let err = Document::from_json("{ not json").unwrap_err();
        assert!(err.to_string().contains("malformed scenario"), "got: {err}");
        assert!(err.to_string().contains("trace parse failed"), "got: {err}");
    }

    #[test]
    fn half_line_document_runs_one_sided() {
        let v1 =
            doc(r#"{"version": 1, "n": 3, "f": 1, "geometry": "HalfLine", "targets": [2.0, 4.5]}"#);
        let results = v1.run().unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.detection_time.is_some(), "target {}", r.target);
            assert!(r.ratio.is_finite());
        }
    }

    #[test]
    fn fast_robots_detect_no_later() {
        let base = r#"{"version": 1, "n": 3, "f": 1, "targets": [6.0]}"#;
        let slowdoc = doc(base);
        let fastdoc = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [6.0],
                "robots": [{"speed": 2.0}, {"speed": 2.0}, {"speed": 2.0}]}"#);
        let slow = slowdoc.run().unwrap();
        let fast = fastdoc.run().unwrap();
        let (ts, tf) = (slow[0].detection_time.unwrap(), fast[0].detection_time.unwrap());
        assert!(
            tf <= ts / 2.0 + 1e-9,
            "doubling every speed halves the detection time: {tf} vs {ts}"
        );
    }

    #[test]
    fn uniform_delay_shifts_detection_by_exactly_that_delay() {
        let base = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [4.0]}"#);
        let delayed = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [4.0],
                "robots": [{"activation": {"DelayedStart": 2.5}},
                           {"activation": {"DelayedStart": 2.5}},
                           {"activation": {"DelayedStart": 2.5}}]}"#);
        let t0 = base.run().unwrap()[0].detection_time.unwrap();
        let t1 = delayed.run().unwrap()[0].detection_time.unwrap();
        assert!((t1 - (t0 + 2.5)).abs() <= 1e-9, "{t1} vs {t0} + 2.5");
    }

    #[test]
    fn seeded_activation_replays_and_varies_with_seed() {
        let with_seed = |seed: u64| {
            doc(&format!(
                r#"{{"version": 1, "n": 3, "f": 1, "targets": [4.0], "seed": {seed},
                    "robots": [{{"activation": {{"Seeded": {{"max_delay": 3.0}}}}}},
                               {{"activation": {{"Seeded": {{"max_delay": 3.0}}}}}},
                               {{"activation": {{"Seeded": {{"max_delay": 3.0}}}}}}]}}"#
            ))
        };
        let a = with_seed(1).run().unwrap();
        assert_eq!(with_seed(1).run().unwrap(), a, "same seed replays bit-for-bit");
        let delays_1 = with_seed(1).activation_delays();
        let delays_2 = with_seed(2).activation_delays();
        assert_ne!(delays_1, delays_2, "different seeds draw different delays");
        assert!(delays_1.iter().all(|&d| (0.0..3.0).contains(&d)));
        // Distinct robots draw distinct coins under one seed.
        assert_ne!(delays_1[0], delays_1[1]);
    }

    #[test]
    fn onset_documents_route_through_with_onsets() {
        // Onset 0 means faulty from the first instant: identical to
        // the always-on plan. An onset past the horizon means the
        // fault never engages: identical to an all-Reliable plan.
        // Both equalities are plan-geometry independent.
        let onset = |t: f64| {
            doc(&format!(
                r#"{{"version": 1, "n": 2, "f": 1, "targets": [2.0, -4.5],
                    "fault_plan": ["Sensor", "Reliable"],
                    "robots": [{{"fault_onset": {t:?}}}, {{}}]}}"#
            ))
        };
        let always = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [2.0, -4.5],
                "fault_plan": ["Sensor", "Reliable"]}"#);
        let healthy = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [2.0, -4.5],
                "fault_plan": ["Reliable", "Reliable"]}"#);
        assert_eq!(onset(0.0).run().unwrap(), always.run().unwrap(), "onset 0 = always faulty");
        assert_eq!(
            onset(1.0e5).run().unwrap(),
            healthy.run().unwrap(),
            "onset past the horizon = never faulty"
        );
        // And switching the fault on mid-run changes *something*
        // relative to at least one of the extremes.
        let mid = onset(3.0).run().unwrap();
        assert!(
            mid != always.run().unwrap() || mid != healthy.run().unwrap(),
            "a mid-run onset is one of the two regimes per target"
        );
    }

    #[test]
    fn speed_changes_the_competitive_picture_end_to_end() {
        // One fast, one slow robot on the half-line with an explicit
        // fault: results stay deterministic and meaningful.
        let v1 = doc(r#"{"version": 1, "n": 2, "f": 1, "geometry": "HalfLine",
                "targets": [3.0], "faulty": [1],
                "robots": [{"speed": 2.0}, {"speed": 0.5}]}"#);
        let results = v1.run().unwrap();
        assert_eq!(v1.run().unwrap(), results, "deterministic");
        assert!(results[0].detection_time.is_some());
        assert_ne!(results[0].detected_by, Some(1), "robot 1 is faulty");
    }

    #[test]
    fn materialize_fleet_exposes_the_wall_clock_fleet() {
        let v1 = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [4.0],
                "robots": [{"speed": 2.0}, {"activation": {"DelayedStart": 1.5}}]}"#);
        let (fleet, horizon) = v1.materialize_fleet().unwrap();
        assert_eq!(fleet.len(), 2);
        assert!(horizon > 1.5);
        // The delayed robot is parked at the origin until its start.
        assert_eq!(fleet[1].position_at(1.0), Some(0.0));
        // The fast robot runs the same plan at twice the clock rate:
        // its position at t is the unit fleet's position at 2t.
        let base = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [4.0]}"#);
        let (unit_fleet, _) = base.materialize_fleet().unwrap();
        for t in [0.5, 1.0, 2.0, 3.5] {
            let fast = fleet[0].position_at(t).unwrap();
            let unit = unit_fleet[0].position_at(2.0 * t).unwrap();
            assert!((fast - unit).abs() <= 1e-9, "t = {t}: {fast} vs {unit}");
        }
    }
}
