//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every metric of its catalogue: the end-to-end one
//! untraced, the per-layer one traced. A layer the workload does not
//! touch reads 0 (no optimizer evaluations on `serve-hot`, no memo hits
//! on `optimize`).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("study_s", "s"),
    ("evals_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("max_rate_qps", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Optimizer (optimize).
    ("opt.init_state.ms", "ms"),
    ("opt.advance_round.ms", "ms"),
    ("opt.finish.ms", "ms"),
    ("opt.two_group.ms", "ms"),
    ("opt.evaluations", "count"),
    ("opt.cpu.ms", "ms"),
    ("opt.self.ms", "ms"),
    // Kernel, mean per supremum evaluation.
    ("core.plan.ms", "ms"),
    ("core.exact.cover.ms", "ms"),
    ("analysis.exact.scan.ms", "ms"),
    ("analysis.supremum.profile.ms", "ms"),
    ("analysis.supremum.self.ms", "ms"),
    // Kernel work counts over the decomposed evaluations.
    ("analysis.exact.scans", "count"),
    ("core.plan.waypoints", "count"),
    ("core.exact.cover.intervals", "count"),
    ("core.exact.cover.affines", "count"),
    ("analysis.exact.critical_points", "count"),
    ("analysis.exact.crossing_pairs", "count"),
    ("analysis.exact.crossings_in_window", "count"),
    ("analysis.exact.crossing_yield", "ratio"),
    // Estimates: per-evaluation means scaled by opt.evaluations.
    ("est.core.plan.ms", "ms"),
    ("est.core.exact.cover.ms", "ms"),
    ("est.analysis.exact.scan.ms", "ms"),
    ("est.analysis.supremum.self.ms", "ms"),
    ("est.kernel_share", "ratio"),
    // Trace accounting.
    ("trace.wall.ms", "ms"),
    ("trace.residual.ms", "ms"),
    ("bench.trace.overhead_share", "ratio"),
    // In-process replay of the serve request list, mean per call.
    ("serve.replay.requests", "count"),
    ("serve.http.parse.us", "us"),
    ("serve.router.route.us", "us"),
    ("serve.handlers.prepare.us", "us"),
    ("serve.memo.get.us", "us"),
    ("serve.cache.get.us", "us"),
    ("serve.cache.insert.us", "us"),
    ("serve.compute.supremum.ms", "ms"),
    ("serve.compute.scenario.ms", "ms"),
    ("serve.compute.optimize.ms", "ms"),
    ("serve.compute.table1.ms", "ms"),
    ("serve.http.encode.us", "us"),
    ("serve.http.bytes_out", "bytes"),
    ("serve.replay.sum.us", "us"),
    ("serve.transport.us", "us"),
    // Scenario runners, mean per document.
    ("scenario.run.ms", "ms"),
    ("analysis.scenario.run.ms", "ms"),
    // Client-side latency splits at the reference rate.
    ("serve.tier.memo.p50_ms", "ms"),
    ("serve.tier.memo.p99_ms", "ms"),
    ("serve.tier.memo.share", "ratio"),
    ("serve.tier.hit.p50_ms", "ms"),
    ("serve.tier.hit.p99_ms", "ms"),
    ("serve.tier.hit.share", "ratio"),
    ("serve.tier.miss.p50_ms", "ms"),
    ("serve.tier.miss.p99_ms", "ms"),
    ("serve.tier.miss.share", "ratio"),
    ("serve.route.cr.p50_ms", "ms"),
    ("serve.route.cr.p99_ms", "ms"),
    ("serve.route.scenario.p50_ms", "ms"),
    ("serve.route.scenario.p99_ms", "ms"),
    ("serve.route.supremum.p50_ms", "ms"),
    ("serve.route.supremum.p99_ms", "ms"),
    ("serve.route.optimize.p50_ms", "ms"),
    ("serve.route.optimize.p99_ms", "ms"),
    ("serve.route.table1.p50_ms", "ms"),
    ("serve.route.table1.p99_ms", "ms"),
    ("serve.route.healthz.p50_ms", "ms"),
    ("serve.route.healthz.p99_ms", "ms"),
    // Server counters: /metrics deltas over the reference step.
    ("serve.memo.hits", "count"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.insertions", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.flight.coalesced", "count"),
    ("serve.pool.jobs", "count"),
    ("serve.pool.rejected", "count"),
    ("serve.pool.timeouts", "count"),
    ("serve.server.connections", "count"),
    ("serve.server.keepalive_reuses", "count"),
    // The tail at the reference rate: too noisy on a small shared host
    // to carry a regression bound, so it is reported here.
    ("latency_p99_ms", "ms"),
    // The generator itself.
    ("bench.loadgen.lag_p99_ms", "ms"),
    ("bench.loadgen.connects", "count"),
    ("bench.latency.samples", "count"),
    ("bench.latency.tail_percentile", "percent"),
];

/// A run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (non-200, transport error, wrong output).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty, so far correct report.
    #[must_use]
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Records a metric; the name must be in a catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The result line: every metric of the traced or untraced
    /// catalogue, 0 where the workload has no such layer.
    #[must_use]
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit; non-finite values (a tail made of
/// failed requests) print as the largest finite double.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in &names {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_every_metric_of_its_catalogue() {
        let mut report = Report::new();
        report.set("setup_s", 0.25);
        report.attempted = 3;
        let line = report.to_json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        report.set("latency_p99_ms", f64::INFINITY);
        assert!(!report.to_json(true).contains("inf"));
        assert_eq!(Report::new().to_json(true).matches("\"unit\"").count(), PER_LAYER.len());
    }
}
