//! The metric catalogue and the result line.
//!
//! Every run prints the same metric names whatever the workload: the
//! end-to-end set without tracing, the per-layer set with it. A layer a
//! workload never reaches reads 0. `BENCHMARK.json` lists the same names
//! and units.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// End-to-end metrics every untraced run measures and prints as detail
/// lines, but that the result line leaves out: on a shared 2-vCPU host the
/// run-to-run spread of the serve tail and closed-loop throughput follows
/// the host's load (see `README.md`), past any usable bound.
pub const UNGATED: &[(&str, &str)] = &[("p90_ms", "ms"), ("throughput_per_s", "1/s")];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read_csv_ms", "ms"),
    ("io.write_csv_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.backend", "id"),
    ("index.leaf_size", "rows"),
    ("index.knn_us", "us"),
    ("index.nearest_het_us", "us"),
    ("index.range_us", "us"),
    ("distance.one_to_many_ns_per_row", "ns"),
    ("distance.flops_per_row", "flop"),
    ("distance.bytes_per_row", "B"),
    ("rdgbg.granulate_ms", "ms"),
    ("rdgbg.iterations", "count"),
    ("rdgbg.balls", "count"),
    ("rdgbg.orphan_balls", "count"),
    ("rdgbg.conflict_bounded_balls", "count"),
    ("rdgbg.noise_rows", "count"),
    ("borderline.detect_ms", "ms"),
    ("borderline.balls", "count"),
    ("borderline.kept_rows", "count"),
    ("borderline.sampling_ratio", "ratio"),
    ("cli.unattributed_ms", "ms"),
    ("server.total_us", "us"),
    ("batcher.queue_wait_us", "us"),
    ("batcher.assemble_us", "us"),
    ("gbknn.predict_us", "us"),
    ("registry.store_io_us", "us"),
    ("http.serialize_us", "us"),
    ("registry.ingest_us", "us"),
    ("http.unattributed_us", "us"),
    ("batcher.requests_per_flush", "count"),
    ("batcher.rows_per_flush", "count"),
    ("gbknn.build_ms", "ms"),
    ("gbknn.predict_row_us", "us"),
    ("incremental.append_ms", "ms"),
    ("ingest.reuse_ratio", "ratio"),
    ("ingest.rebuilt_balls", "count"),
    ("ingest.full_rebuilds", "count"),
    ("registry.ingest_other_us", "us"),
    ("store.bytes_per_appended_row", "B"),
    ("store.versions", "count"),
    ("writer.lag_ms", "ms"),
    ("obs.access_log_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (calls, requests, appends).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Metric values by name; names outside the printed set are ignored.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one operation and whether it passed its check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `catalogue`.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Prints one detail line (`# key value`) ahead of the result line.
pub fn note(key: &str, value: impl std::fmt::Display) {
    println!("# {key} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut o = Outcome::default();
        o.check(true);
        o.set("p50_ms", 1.5);
        let line = o.result_line(END_TO_END);
        let parsed: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let Some(serde::Value::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics object missing: {line}");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"p50_ms\": {\"value\": 1.5"), "{line}");
    }

    #[test]
    fn names_are_unique() {
        let all = || END_TO_END.iter().chain(UNGATED).chain(PER_LAYER);
        let mut names: Vec<&str> = all().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().count());
    }
}
