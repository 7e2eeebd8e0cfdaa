//! Golden bytes of the scenario runner.
//!
//! Every document below goes through the one front door
//! ([`Document::from_json`] then [`Document::run`]) and its
//! [`results_to_json`] output is compared byte for byte against
//! `tests/data/scenario_golden.txt`:
//!
//! * every `examples/scenarios/*.json` document;
//! * the legacy (unversioned) spelling of every full-line example
//!   without a `robots` array;
//! * a seeded corpus of legacy bodies in the three shapes the load
//!   generator sends (plain, `randomized-sweep` with a `seed`, explicit
//!   `faulty`), plus hand-written legacy bodies engaging `fault_plan`,
//!   `quorum`, `fixed-beta` and an incomplete strategy;
//! * the golden run trace under `tests/data/`.
//!
//! The pinned bytes were produced by the legacy scenario runner, so
//! upgrading a legacy body to a [`faultline_scenario::ScenarioDoc`]
//! may not move a single byte. The test only compares: an *intended*
//! output change replaces the data file in the same change, where its
//! diff is reviewed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use faultline_analysis::scenario::results_to_json;
use faultline_scenario::Document;

const GOLDEN: &str = "tests/data/scenario_golden.txt";

/// Number of generated legacy bodies.
const CORPUS: usize = 36;

/// Legacy bodies engaging the fields the generated shapes leave out.
const EXTRAS: &[&str] = &[
    r#"{"n": 5, "f": 2, "targets": [2.0, -4.5, 11.0], "fault_plan": ["Reliable", "Reliable", "Reliable", {"Byzantine": {"lie_rate": 0.75}}, {"Byzantine": {"lie_rate": 0.75}}], "quorum": 3, "seed": 9}"#,
    r#"{"n": 3, "f": 1, "targets": [3.0, -7.5], "fault_plan": [{"PFaulty": {"detect_probability": 0.5}}, "Reliable", "Reliable"], "seed": 4}"#,
    r#"{"n": 4, "f": 2, "targets": [2.5, -9.0], "fault_plan": ["Sensor", {"Intermittent": {"miss_probability": 0.3}}, "Reliable", "Reliable"], "seed": 21}"#,
    r#"{"n": 4, "f": 1, "targets": [1.5, -6.0, 20.0], "fault_plan": [{"Delayed": {"latency": 0.75}}, "Reliable", "Reliable", "Reliable"], "quorum": 2}"#,
    r#"{"n": 3, "f": 1, "targets": [5.0, -2.0], "fault_plan": ["Reliable", {"SpeedDegraded": {"factor": 0.5}}, "Reliable"]}"#,
    r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "beta": 2.5, "targets": [3.0, -8.0]}"#,
    r#"{"n": 3, "f": 1, "strategy": "pessimal-split", "targets": [-5.0, 4.0]}"#,
];

/// SplitMix64: a dependency-free, fully specified generator, so the
/// corpus is the same on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }
}

/// One legacy body: `n` in 2..=8, 1..=4 targets of magnitude in
/// [1.2, 60) with either sign, then plain, a seeded randomized sweep,
/// or `f` explicit faulty robots.
fn legacy_body(rng: &mut Rng) -> String {
    let n = 2 + rng.below(7);
    let f = 1 + rng.below(n - 1);
    let targets: Vec<String> = (0..1 + rng.below(4))
        .map(|_| {
            let m = rng.log_uniform(1.2, 60.0);
            format!("{:?}", if rng.below(2) == 0 { m } else { -m })
        })
        .collect();
    let mut body = format!("{{\"n\": {n}, \"f\": {f}, \"targets\": [{}]", targets.join(", "));
    match rng.below(3) {
        0 => {}
        1 => body.push_str(&format!(
            ", \"strategy\": \"randomized-sweep\", \"seed\": {}",
            rng.below(1 << 20)
        )),
        _ => {
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < f {
                let i = rng.below(n);
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            let picked: Vec<String> = picked.iter().map(usize::to_string).collect();
            body.push_str(&format!(", \"faulty\": [{}]", picked.join(", ")));
        }
    }
    body.push('}');
    body
}

fn example_paths() -> Vec<PathBuf> {
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

/// The legacy spelling of a v1 example: the same object without its
/// `version` field, or `None` when the example uses a v1-only field.
fn legacy_spelling(json: &str) -> Option<String> {
    let serde::Value::Object(fields) = serde_json::from_str(json).unwrap() else {
        panic!("example is not a JSON object")
    };
    if fields.iter().any(|(k, _)| k == "geometry" || k == "robots") {
        return None;
    }
    let fields = fields.into_iter().filter(|(k, _)| k != "version").collect();
    Some(serde_json::to_string(&serde::Value::Object(fields)).unwrap())
}

fn run(json: &str) -> String {
    let document = Document::from_json(json).unwrap_or_else(|e| panic!("{json}: {e}"));
    results_to_json(&document.run().unwrap_or_else(|e| panic!("{json}: {e}"))).unwrap()
}

fn case(out: &mut String, label: &str, input: Option<&str>, json: &str) {
    writeln!(out, "=== {label}").unwrap();
    if let Some(input) = input {
        writeln!(out, "input {input}").unwrap();
    }
    writeln!(out, "{}", run(json)).unwrap();
}

/// Renders every pinned result document, in a fixed order.
fn render() -> String {
    let mut out = String::new();
    let examples: Vec<(String, String)> = example_paths()
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).unwrap())
        })
        .collect();
    for (name, json) in &examples {
        case(&mut out, &format!("example {name}"), None, json);
    }
    for (name, json) in &examples {
        if let Some(legacy) = legacy_spelling(json) {
            case(&mut out, &format!("legacy {name}"), Some(&legacy), &legacy);
        }
    }
    let mut rng = Rng(0x5EED_0013);
    for i in 0..CORPUS {
        let body = legacy_body(&mut rng);
        case(&mut out, &format!("corpus {i}"), Some(&body), &body);
    }
    for (i, body) in EXTRAS.iter().enumerate() {
        case(&mut out, &format!("extra {i}"), Some(body), body);
    }
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden_trace.json");
    case(&mut out, "trace golden_trace.json", None, &std::fs::read_to_string(trace).unwrap());
    out
}

#[test]
fn scenario_outputs_match_the_golden_bytes() {
    let actual = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let expected = std::fs::read_to_string(&path).unwrap();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} changed", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden line count changed");
}
