//! Golden bit-pin of the exact critical-point engine.
//!
//! Every f64 the exact scans report (`ratio`, `argmax`, `pressure`,
//! the enclosure bounds) is pinned by its bit pattern, together with
//! the `uncovered` and `critical_points` counts, across:
//!
//! * every Table-1 pair at `xmax ∈ {25, 1000}`, on the line and on the
//!   half-line;
//! * every fleet under `examples/scenarios/`, on both geometries;
//! * [`exact_expected_supremum`] and [`exact_supremum_enclosed`] on a
//!   subset (small Table-1 pairs at `xmax = 25`, covered scenarios);
//! * the uncovered paths, on small Table-1 fleets cut to an eighth of
//!   their required horizon.
//!
//! The kernel may get faster, never different: any change to a
//! candidate set, an evaluation order or a tie-break shows up here as
//! a changed bit. The test only compares: an *intended* output change
//! replaces the data file in the same change, where its diff is
//! reviewed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use faultline_analysis::exact::{EnclosedScan, ExactScan};
use faultline_analysis::table1::TABLE1_PAIRS;
use faultline_analysis::{
    exact_expected_supremum, exact_supremum_enclosed, exact_supremum_geometry,
};
use faultline_core::{Algorithm, Fleet, Geometry, Params};
use faultline_scenario::ScenarioDoc;

const GOLDEN: &str = "tests/data/exact_golden.txt";

fn table1_fleet(n: usize, f: usize, xmax: f64) -> Fleet {
    let alg = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
    let horizon = alg.required_horizon(xmax * (1.0 + 1e-6)).unwrap();
    Fleet::from_plans(&alg.plans(), horizon).unwrap()
}

fn scan_line(out: &mut String, label: &str, scan: &ExactScan) {
    writeln!(
        out,
        "{label} ratio={:016x} argmax={:016x} pressure={:016x} uncovered={} critical_points={}",
        scan.ratio.to_bits(),
        scan.argmax.to_bits(),
        scan.pressure.to_bits(),
        scan.uncovered,
        scan.critical_points
    )
    .unwrap();
}

fn enclosed_line(out: &mut String, label: &str, enclosed: &EnclosedScan) {
    scan_line(out, label, &enclosed.scan);
    writeln!(
        out,
        "{label} enclosure=[{:016x}, {:016x}]",
        enclosed.enclosure.lo().to_bits(),
        enclosed.enclosure.hi().to_bits()
    )
    .unwrap();
}

fn geometry_name(geometry: Geometry) -> &'static str {
    match geometry {
        Geometry::Line => "line",
        Geometry::HalfLine => "half-line",
    }
}

fn scenario_paths() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenario documents under {}", dir.display());
    paths
}

/// Renders every pinned measurement, one line each, in a fixed order.
fn render() -> String {
    let mut out = String::new();
    for &xmax in &[25.0, 1000.0] {
        for &(n, f) in TABLE1_PAIRS {
            let fleet = table1_fleet(n, f, xmax);
            for geometry in [Geometry::Line, Geometry::HalfLine] {
                let scan = exact_supremum_geometry(&fleet, f + 1, xmax, geometry).unwrap();
                let label = format!("table1 n={n} f={f} xmax={xmax} {}", geometry_name(geometry));
                scan_line(&mut out, &label, &scan);
            }
        }
    }
    for &(n, f) in TABLE1_PAIRS.iter().filter(|&&(n, _)| n <= 5) {
        let fleet = table1_fleet(n, f, 25.0);
        let enclosed = exact_supremum_enclosed(&fleet, f + 1, 25.0).unwrap();
        enclosed_line(&mut out, &format!("enclosed n={n} f={f} xmax=25"), &enclosed);
        for p in [0.3, 0.7, 1.0] {
            let scan = exact_expected_supremum(&fleet, p, 25.0).unwrap();
            scan_line(&mut out, &format!("expected n={n} f={f} xmax=25 p={p}"), &scan);
        }
        // A horizon an eighth of the required one leaves intervals
        // uncovered: pins the uncovered paths of both scans.
        let alg = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
        let short = alg.required_horizon(25.0).unwrap() / 8.0;
        let truncated = Fleet::from_plans(&alg.plans(), short).unwrap();
        let scan = exact_supremum_geometry(&truncated, f + 1, 25.0, Geometry::Line).unwrap();
        scan_line(&mut out, &format!("truncated n={n} f={f} xmax=25"), &scan);
        let scan = exact_expected_supremum(&truncated, 0.5, 25.0).unwrap();
        scan_line(&mut out, &format!("truncated n={n} f={f} xmax=25 expected p=0.5"), &scan);
    }
    for path in scenario_paths() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let doc = ScenarioDoc::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let (trajectories, _) = doc.materialize_fleet().unwrap();
        let fleet = Fleet::new(trajectories).unwrap();
        let xmax = doc.targets.iter().map(|x| x.abs()).fold(2.0f64, f64::max);
        for geometry in [Geometry::Line, Geometry::HalfLine] {
            let scan = exact_supremum_geometry(&fleet, doc.f + 1, xmax, geometry).unwrap();
            let label = format!("scenario {name} xmax={xmax} {}", geometry_name(geometry));
            scan_line(&mut out, &label, &scan);
        }
        match exact_supremum_enclosed(&fleet, doc.f + 1, xmax) {
            Ok(enclosed) => {
                enclosed_line(&mut out, &format!("scenario {name} enclosed"), &enclosed);
            }
            Err(_) => writeln!(out, "scenario {name} enclosed=uncovered").unwrap(),
        }
        let scan = exact_expected_supremum(&fleet, 0.5, xmax).unwrap();
        scan_line(&mut out, &format!("scenario {name} expected p=0.5"), &scan);
    }
    out
}

#[test]
fn exact_engine_outputs_match_the_golden_bits() {
    let actual = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let expected = std::fs::read_to_string(&path).unwrap();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} changed", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden line count changed");
}
