//! What one run prints: a human-readable table on the way, then one JSON
//! line with the correctness verdict and the metrics.
//!
//! With `--trace 0` the JSON metrics are exactly [`END_TO_END`]; with
//! `--trace 1` they are exactly [`PER_LAYER`]. Per-layer metrics of a layer
//! the workload does not load are reported as 0: that layer did no work.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
///
/// * `setup_s` — median of the run's set-ups: graph generation, plus engine
///   bootstrap and daemon start on serve-cc.
/// * `fixpoint_s` — failure-free convergence: a repetition's CC plus
///   PageRank job walls on the batch workloads; one insert commit (an
///   incremental CC fixpoint) on serve-cc. Median.
/// * `recovered_s` — convergence that re-derives lost state: the CC plus
///   PageRank jobs with one partition loss or worker kill; one delete
///   commit (the component is reset and re-propagated, the compensation
///   path) on serve-cc. Median.
/// * `peak_rss_mb` — peak memory of the benchmark process after its
///   reference runs; on cluster-batch, the peak of the benchmark process
///   plus its worker processes during a repetition's jobs, sampled, median
///   over repetitions.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("fixpoint_s", "s"), ("recovered_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.generate_s", "s"),
    ("graphs.live_build_ms", "ms"),
    ("dataflow.cc_superstep_ms", "ms"),
    ("dataflow.cc_tail_superstep_ms", "ms"),
    ("dataflow.pagerank_superstep_ms", "ms"),
    ("dataflow.cc_supersteps", "count"),
    ("dataflow.pagerank_supersteps", "count"),
    ("dataflow.cc_messages", "count"),
    ("dataflow.records_shuffled", "count"),
    ("dataflow.cc_useful_ratio", "ratio"),
    ("dataflow.codec_encode_mb_s", "MB/s"),
    ("dataflow.codec_decode_mb_s", "MB/s"),
    ("recovery.compensate_ms", "ms"),
    ("recovery.cc_redundant_supersteps", "count"),
    ("recovery.pagerank_redundant_supersteps", "count"),
    ("recovery.rollback_redundant_supersteps", "count"),
    ("recovery.checkpoint_bytes", "bytes"),
    ("recovery.checkpoint_ms", "ms"),
    ("recovery.rollback_ms", "ms"),
    ("recovery.detect_ms", "ms"),
    ("recovery.respawn_ms", "ms"),
    ("recovery.reshipped_bytes", "bytes"),
    ("cluster.startup_ms", "ms"),
    ("cluster.superstep_ms", "ms"),
    ("cluster.step_compute_ms", "ms"),
    ("cluster.frame_encode_mb_s", "MB/s"),
    ("cluster.frame_decode_mb_s", "MB/s"),
    ("cluster.inbox_ms", "ms"),
    ("cluster.peer_bytes", "bytes"),
    ("cluster.control_bytes", "bytes"),
    ("cluster.exchange_wait_ms", "ms"),
    ("cluster.workers_peak_rss_mb", "MB"),
    ("serve.insert_commit_ms", "ms"),
    ("serve.delete_commit_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.point_us", "us"),
    ("serve.top_us", "us"),
    ("serve.bootstrap_s", "s"),
    ("serve.seeded_per_insert", "count"),
    ("serve.supersteps_per_commit", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.generator_late_ms", "ms"),
];

/// Collects checks and metrics for one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Count one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Count `attempted` operations checked elsewhere, `failed` of which
    /// failed (reported once on stderr).
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Record a JSON metric; `name` must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// A recorded metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Print one timing row of the table: median, quartiles, sample count
    /// and the tail percentile when there are enough samples.
    pub fn row(&self, name: &str, unit: &str, samples: &[f64]) {
        match Summary::of(samples) {
            Some(s) => {
                let tail = s.tail.map_or_else(String::new, |(p, v)| format!("  p{p}={v:.4}"));
                println!(
                    "  {name:<28} {:>10.4} {unit:<5} [p25 {:.4}, p75 {:.4}, n={}]{tail}",
                    s.median, s.p25, s.p75, s.n
                );
            }
            None => println!("  {name:<28} {:>10} {unit:<5} [n=0]", "-"),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final JSON line: the end-to-end metrics, or with `trace` the
    /// per-layer ones (unset per-layer metrics read 0).
    pub fn json(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (section, list) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect("section present");
            let end = text[start..].find(']').map(|i| start + i).expect("section closes");
            let names: Vec<&str> = text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| &rest[..rest.find('"').expect("name closes")])
                .collect();
            let expected: Vec<&str> = list.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, expected, "{section} names");
            for (name, unit) in list.iter() {
                let entry = &text[text.find(&format!("\"name\": \"{name}\"")).unwrap()..];
                assert!(
                    entry[..entry.find('}').unwrap()].contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
    }

    #[test]
    fn json_line_has_every_listed_metric() {
        let mut report = Report::default();
        report.check(true, String::new);
        for (name, _) in END_TO_END {
            report.set(name, 1.25);
        }
        let line = report.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let traced = report.json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"cluster.peer_bytes\": {\"value\": 0.0, \"unit\": \"bytes\"}"));
        report.check(false, || "bad".into());
        assert!(report
            .json(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
