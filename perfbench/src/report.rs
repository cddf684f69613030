//! The metric names the benchmark declares, and the result line.
//!
//! End-to-end metrics are the same five on every workload; what a unit
//! of work is differs (a request, a batch of object calls, one
//! exploration) and is spelled out in `perfbench/README.md`. Every
//! traced run reports every per-layer metric.

use std::fmt::Write as _;

use crate::ops::Kind;

/// End-to-end metrics: name and unit. The three `_rel` figures are
/// ratios to the host baseline (see `baseline.rs`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rel", "ratio"),
    ("p50_rel", "ratio"),
    ("p99_rel", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the `core.<impl>.<op>_*` family, which
/// [`per_layer`] derives from [`Kind::core_name`].
const LAYER_FIXED: [(&str, &str); 46] = [
    ("client.first_request_p50_us", "us"),
    ("client.read_p50_us", "us"),
    ("client.read_p99_us", "us"),
    ("client.update_p50_us", "us"),
    ("client.update_p99_us", "us"),
    ("client.connects", "count"),
    ("client.retries", "count"),
    ("proto.request_codec_ns", "ns"),
    ("proto.response_codec_ns", "ns"),
    ("server.start_s", "s"),
    ("server.shutdown_s", "s"),
    ("server.served", "count"),
    ("server.admitted", "count"),
    ("server.dedup_hits", "count"),
    ("server.degraded_reads", "count"),
    ("server.deadline_misses", "count"),
    ("server.shed", "count"),
    ("server.queue_depth_peak", "count"),
    ("server.inflight_peak", "count"),
    ("server.log_ops", "count"),
    ("audit.s", "s"),
    ("audit.ops_per_s", "1/s"),
    ("metrics.gauge_bump_ns", "ns"),
    ("metrics.registry_snapshot_ns", "ns"),
    ("core.read_heavy_mops", "Mops/s"),
    ("core.update_heavy_mops", "Mops/s"),
    ("explore.schedules", "count"),
    ("explore.crash_branches", "count"),
    ("explore.pruned_branches", "count"),
    ("explore.executed_steps", "count"),
    ("explore.replay_steps_saved", "count"),
    ("explore.parallel_s", "s"),
    ("explore.serial_s", "s"),
    ("explore.parallel_speedup", "ratio"),
    ("traced.throughput_per_s", "1/s"),
    ("traced.p50_us", "us"),
    ("traced.p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("self.client_s", "s"),
    ("self.proto_s", "s"),
    ("self.server_s", "s"),
    ("self.audit_s", "s"),
    ("self.metrics_s", "s"),
    ("self.core_s", "s"),
    ("self.explore_s", "s"),
];

/// Layers whose self time is reported as `self.<layer>_s`.
pub const SELF_LAYERS: [&str; 7] = [
    "client", "proto", "server", "audit", "metrics", "core", "explore",
];

/// Every per-layer metric: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for kind in Kind::ALL {
        let name = kind.core_name();
        out.push((format!("{name}_ns"), "ns"));
        out.push((format!("{name}_steps"), "count"));
        out.push((format!("{name}_cas_ok_ratio"), "ratio"));
    }
    out
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "{name} = {value} is not a finite number");
        assert!(self.0.iter().all(|(n, _)| n != name), "{name} set twice");
        self.0.push((name.to_string(), value));
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// declared metric with its unit. Panics when the recorded names are
    /// not exactly the declared ones.
    pub fn result_line(
        &self,
        declared: &[(String, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut got: Vec<&str> = self.0.iter().map(|(n, _)| n.as_str()).collect();
        let mut want: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "measured metrics differ from the declared ones");
        let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self
                .0
                .iter()
                .find(|(n, _)| n == name)
                .expect("checked above")
                .1;
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruo_scenario::Json;

    fn declared_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert_eq!(per_layer().len(), LAYER_FIXED.len() + 24);
        for layer in SELF_LAYERS {
            assert!(names.contains(&format!("self.{layer}_s")));
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("core.farray.read_ns") && valid_name("9-a_b.c"));
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_measures() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(declared_in_benchmark_json("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(declared_in_benchmark_json("per_layer"), layers);
    }

    #[test]
    fn result_line_lists_every_declared_metric_with_its_unit() {
        let declared: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let mut m = Metrics::default();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            m.set(n, i as f64 + 0.5);
        }
        let line = m.result_line(&declared, true, 10, 0);
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        let p99 = doc
            .get("metrics")
            .and_then(|m| m.get("p99_rel"))
            .expect("p99_rel");
        assert_eq!(p99.get("value").and_then(Json::as_f64), Some(3.5));
        assert_eq!(p99.get("unit").and_then(Json::as_str), Some("ratio"));
    }

    #[test]
    #[should_panic(expected = "differ from the declared")]
    fn result_line_refuses_a_missing_metric() {
        let declared: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        Metrics::default().result_line(&declared, true, 1, 0);
    }
}
