//! The metric catalogue and the one-line JSON result.
//!
//! Every name here is listed in `BENCHMARK.json`; a test keeps the two in
//! step. A traced run reports every per-layer metric: a layer a workload
//! never reaches reports 0 (the metric → workload map is in README.md).

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Registry ids whose default run takes 10 ms or more on the reference
/// host, each reported as `experiment.<id>_s`; the rest are summed into
/// `experiment.rest_s`.
pub const TIMED_IDS: [&str; 11] = [
    "E2.10",
    "E2.10-abl",
    "E2.11",
    "E2.2a",
    "E2.2b",
    "E2.3",
    "E2.6",
    "E2.7",
    "E2.8",
    "E2.8-abl",
    "E2.9",
];

/// Layers a span can belong to, in report order.
pub const LAYERS: [&str; 11] = [
    "bench",
    "exec",
    "svc",
    "cache",
    "provenance",
    "trace",
    "attest",
    "experiment",
    "rl",
    "nn",
    "math",
];

/// Per-layer metrics with fixed names (the `experiment.<id>_s` and
/// `span.<layer>.*` families are added by [`per_layer`]).
const FIXED_PER_LAYER: &[(&str, &str)] = &[
    // run-registry
    ("exec.critical_path_s", "s"),
    ("exec.utilization", "ratio"),
    ("exec.imbalance", "ratio"),
    ("exec.busy_s", "s"),
    ("experiment.rest_s", "s"),
    ("experiment.E2.8.solo_s", "s"),
    ("rl.train_s", "s"),
    ("rl.env_steps", "count"),
    ("rl.q_values_us", "us"),
    ("rl.update_us", "us"),
    ("nn.dense_forward_us", "us"),
    ("math.matmul_1xk_ns", "ns"),
    ("math.plan_for_ns", "ns"),
    ("math.gemm_gflops", "GFLOP/s"),
    ("math.flops", "count"),
    // verify-sharded
    ("svc.bringup_s", "s"),
    ("svc.overhead_s", "s"),
    ("svc.spawned", "count"),
    ("svc.shards", "count"),
    ("svc.heartbeats", "count"),
    ("svc.requeues", "count"),
    ("svc.frame_roundtrip_us_per_kib", "us/KiB"),
    ("exec.verify_critical_path_s", "s"),
    ("trace.events", "count"),
    ("trace.content_hash_us", "us"),
    ("trace.write_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("attest.seal_ms", "ms"),
    ("attest.verify_chain_ms", "ms"),
    // replay-zipf
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.stores", "count"),
    ("cache.evictions", "count"),
    ("cache.lookup_hit_us", "us"),
    ("cache.lookup_miss_us", "us"),
    ("cache.store_us", "us"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("provenance.trail_parse_us", "us"),
    ("provenance.trail_render_us", "us"),
    ("provenance.fingerprint_us", "us"),
    ("experiment.miss_compute_s", "s"),
    ("exec.fanout_us", "us"),
    // every traced run
    ("span.count", "count"),
    ("span.wall_s", "s"),
    ("span.untraced_wall_s", "s"),
    ("span.overhead_s", "s"),
];

/// The full per-layer catalogue, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        FIXED_PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(TIMED_IDS.iter().map(|id| (format!("experiment.{id}_s"), "s")));
    for layer in LAYERS {
        out.push((format!("span.{layer}.self_s"), "s"));
        out.push((format!("span.{layer}.share"), "ratio"));
    }
    out
}

/// A metric name as the benchmark contract allows it.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// What one run measured and how many operations it checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts `n` operations, `bad` of which produced wrong output.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: the catalogue for this mode, in catalogue order.
    /// Per-layer metrics a workload does not reach read 0.
    ///
    /// # Panics
    ///
    /// If a value is missing from the end-to-end set, is not finite, or
    /// has a malformed or uncatalogued name — each a bug in the benchmark.
    pub fn render(&self, traced: bool) -> String {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        for name in self.values.keys() {
            assert!(valid_name(name), "metric name {name} breaks the naming rule");
            assert!(catalogue.iter().any(|(n, _)| n == name), "metric {name} is not catalogued");
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn all_names() -> Vec<String> {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        names
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names = all_names();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("cache lookups") && !valid_name(".x") && !valid_name("a/b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed: BTreeSet<String> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect();
        let mut ours: BTreeSet<String> = all_names().into_iter().collect();
        for w in ["run-registry", "verify-sharded", "replay-zipf"] {
            ours.insert(w.to_string());
        }
        assert_eq!(listed, ours);
    }

    #[test]
    fn failed_operations_make_the_run_incorrect() {
        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        o.check(21, 0);
        assert!(o
            .render(false)
            .starts_with("{\"correct\": true, \"attempted\": 21, \"failed\": 0"));
        o.check(1, 1);
        assert!(o
            .render(false)
            .starts_with("{\"correct\": false, \"attempted\": 22, \"failed\": 1"));
        let mut t = Outcome::default();
        t.check(1, 0);
        t.set("span.wall_s", 2.0);
        let traced = t.render(true);
        assert!(traced.contains("\"span.wall_s\": {\"value\": 2, \"unit\": \"s\"}"));
        assert!(traced.contains("\"span.math.share\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }
}
