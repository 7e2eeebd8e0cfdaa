//! # faultline-scenario
//!
//! A declarative, versioned scenario DSL generalizing the legacy
//! [`faultline_analysis::Scenario`] form along three axes:
//!
//! * **Heterogeneous fleets** — per-robot `speed`, `activation`
//!   (immediate, delayed, or seeded-random start) and `fault_onset`
//!   schedules over the existing fault taxonomy.
//! * **Geometry** — the paper's full line or the one-sided half-line
//!   (`[1, xmax]` only), threading [`faultline_core::Geometry`]
//!   through target validation and downstream analysis.
//! * **Versioning** — an explicit `version` field (this build reads
//!   [`SCENARIO_VERSION`]); future-versioned documents fail with a
//!   typed diagnostic, never a panic, and every `f64` round-trips
//!   bit-exactly through [`faultline_core::json_float`].
//!
//! The legacy form is a parse-time spelling of a v1 document:
//! [`Document::from_json`] — the one front door for scenario and trace
//! files — upgrades it to a [`ScenarioDoc`], and every scenario runs
//! through the one validator ([`faultline_analysis::Scenario::validate`]
//! plus the v1 additions) and the one simulation fan-out
//! ([`faultline_analysis::Scenario::run_on`]). The
//! `unit-speed-scenario-equivalence` conformance oracle pins documents
//! with the paper's fleet to the legacy runner byte-for-byte.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` deliberately rejects NaN where `x <= limit` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod document;
pub mod optimize;
pub mod run;

pub use document::{
    Activation, Document, RobotSpec, ScenarioDoc, MAX_DELAY, MAX_SPEED, SCENARIO_VERSION,
};
pub use optimize::FromScenario;
