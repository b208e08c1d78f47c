//! The benchmark's metric schema and its one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("results_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("fidelity_mean", "ratio"),
    ("rss_peak_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. Times and counts are
/// per completed result unless the name says otherwise; `serve.*`
/// counters are the service's totals at the end of the traced phase.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.plan.busy_ms", "ms"),
    ("core.plan.share", "ratio"),
    ("core.plan.programs", "count"),
    ("core.plan.dedup_ratio", "ratio"),
    ("core.plan.skipped_subsets", "count"),
    ("sim.trie.shared_gate_fraction", "ratio"),
    ("sim.trie.request_gates", "count"),
    ("sim.trie.unique_gates", "count"),
    ("sim.execute.busy_ms", "ms"),
    ("sim.execute.share", "ratio"),
    ("sim.execute.calls", "count"),
    ("sim.execute.jobs", "count"),
    ("sim.execute.ms_per_job", "ms"),
    ("sim.engine.density-matrix", "count"),
    ("core.session.busy_ms", "ms"),
    ("core.session.rounds", "count"),
    ("core.session.shots", "count"),
    ("core.scatter.busy_ms", "ms"),
    ("core.recombine.busy_ms", "ms"),
    ("core.recombine.share", "ratio"),
    ("serve.submit.busy_ms", "ms"),
    ("serve.submit.ms_p50", "ms"),
    ("serve.wait.busy_ms", "ms"),
    ("serve.wait.ms_p50", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_requests_mean", "count"),
    ("serve.jobs_distinct", "count"),
    ("serve.jobs_cache_hit", "count"),
    ("serve.jobs_executed", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.trie_shared_gate_fraction", "ratio"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("serve.deadline_expired", "count"),
    ("trace.results", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values of one run, keyed by schema name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// The `metrics` object for `schema`, in schema order. Every schema
    /// metric must be validly named, set and finite.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in schema.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_serve::Json;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn name_validity_rule() {
        assert!(valid_name("sim.engine.density-matrix"));
        assert!(valid_name("9lives_2.x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key, "benchmark")
                .and_then(|a| a.as_arr(key).map(<[Json]>::to_vec))
                .expect("metric list")
                .iter()
                .map(|m| {
                    let name = m.field("name", key).and_then(|n| n.as_str("name")).unwrap();
                    let unit = m.field("unit", key).and_then(|u| u.as_str("unit")).unwrap();
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let own = |schema: &[(&str, &str)]| -> Vec<(String, String)> {
            schema
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        m.set("results_per_s", 12.5);
        m.set("latency_ms_p50", 1.0 / 3.0);
        m.set("latency_ms_p90", 2.0);
        m.set("fidelity_mean", 0.9);
        m.set("rss_peak_mb", 10.0);
        m.set("setup_s", 1e-5);
        let line = result_line(true, 10, 0, &m.to_json(END_TO_END).unwrap());
        let doc = Json::parse(&line).unwrap();
        let v = doc
            .field("metrics", "line")
            .and_then(|m| m.field("latency_ms_p50", "metrics"))
            .and_then(|m| m.field("value", "metric"))
            .and_then(|v| v.as_f64("value"))
            .unwrap();
        assert_eq!(v, 1.0 / 3.0);
        m.set("setup_s", f64::NAN);
        assert!(m.to_json(END_TO_END).is_err());
        assert!(m.to_json(PER_LAYER).is_err());
    }
}
