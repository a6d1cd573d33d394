//! Metric names and units, and the result a run prints.
//!
//! The two tables are the benchmark's contract with `BENCHMARK.json`: a
//! run without tracing reports exactly [`END_TO_END`], a traced run
//! exactly [`PER_LAYER`], every metric for every workload. The unit test in
//! `main.rs` pins both tables against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, from the traced run. Each layer's probes run
/// on the inputs of the workload that exercises it (see README.md), so
/// every traced run reports every metric. Deterministic simulator results
/// that the end-to-end table cannot hold for every workload are here too,
/// in virtual time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("algos.merge_large_ns_per_elem", "ns"),
    ("algos.merge_small_ns_per_elem", "ns"),
    ("algos.seq_sort_ms", "ms"),
    ("algos.bytes_moved_gb", "GB"),
    ("core.pool_level_us_p50", "us"),
    ("core.pool_level_us_p99", "us"),
    ("core.pool_task_ns", "ns"),
    ("core.parallel_speedup_x", "x"),
    ("core.fine_levels_share", "ratio"),
    ("core.interpret_overhead_ratio", "x"),
    ("machine.sim_job_ms.sequential", "ms"),
    ("machine.sim_job_ms.basic", "ms"),
    ("machine.sim_job_ms.gpuonly", "ms"),
    ("machine.sim_job_ms.advanced", "ms"),
    ("machine.sim_ops_per_s", "1/s"),
    ("model.lower_ns", "ns"),
    ("model.pass.dead-level-prune_ns", "ns"),
    ("model.pass.transfer-elision_ns", "ns"),
    ("model.pass.segment-fusion_ns", "ns"),
    ("model.compile_us", "us"),
    ("model.cache_hit_ns", "ns"),
    ("model.cache_miss_us", "us"),
    ("model.plan_cost_us", "us"),
    ("model.advanced_solve_us", "us"),
    ("model.cache_hit_ratio.sim-node", "ratio"),
    ("model.cache_hits.sim-node", "count"),
    ("model.cache_misses.sim-node", "count"),
    ("model.cache_hit_ratio.sim-fleet", "ratio"),
    ("model.cache_hits.sim-fleet", "count"),
    ("model.cache_misses.sim-fleet", "count"),
    ("model.predicted_speedup_x", "x"),
    ("model.basic_speedup_x", "x"),
    ("model.speedup_error_ratio", "x"),
    ("serve.gpu_probe_ns", "ns"),
    ("serve.cpu_probe_ns", "ns"),
    ("serve.calendar_len", "count"),
    ("serve.step_us_p50", "us"),
    ("serve.step_us_p99", "us"),
    ("serve.events", "count"),
    ("serve.dispatch_order_us", "us"),
    ("serve.batch_share", "ratio"),
    ("serve.admission_wait_p50_us", "virtual_us"),
    ("serve.native_wait_p50_us", "us"),
    ("serve.native_service_p50_us", "us"),
    ("serve.native_service_p99_us", "us"),
    ("fleet.price_ns", "ns"),
    ("fleet.steals", "count"),
    ("fleet.migrations", "count"),
    ("fleet.jobs_recovered", "count"),
    ("fleet.jobs_restarted", "count"),
    ("fleet.replans", "count"),
    ("fleet.routing_quality", "ratio"),
    ("fleet.node_util_spread", "ratio"),
    ("obs.metrics_overhead_ratio", "x"),
    ("obs.observe_ns", "ns"),
    ("obs.trace_overhead_ratio", "x"),
    ("estimate.g_ms", "ms"),
    ("estimate.gamma_ms", "ms"),
    ("paper-sort.hybrid_speedup_x", "x"),
    ("sim-node.virtual_latency_p50_us", "virtual_us"),
    ("sim-node.virtual_latency_p99_us", "virtual_us"),
    ("sim-node.max_rate_at_slo", "load"),
    ("sim-fleet.virtual_latency_p50_us", "virtual_us"),
    ("sim-fleet.virtual_latency_p99_us", "virtual_us"),
    ("sim-fleet.mttr_us", "virtual_us"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    /// Jobs run in the reported rounds.
    pub attempted: u64,
    /// Jobs that did not complete or failed an output check.
    pub failed: u64,
    /// Every output check that failed, in words.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Checks the values against `table`: every metric present, none
    /// extra, every value finite. A gap is a failed check, not a panic.
    pub fn validate(&mut self, table: &[(&'static str, &'static str)]) {
        let mut missing = Vec::new();
        for (name, _) in table {
            match self.values.get(name) {
                None => missing.push(*name),
                Some(v) if !v.is_finite() => self.problems.push(format!("{name} is {v}")),
                Some(_) => {}
            }
        }
        if !missing.is_empty() {
            self.problems
                .push(format!("missing metrics: {}", missing.join(", ")));
        }
        let extra: Vec<&str> = self
            .values
            .keys()
            .filter(|k| !table.iter().any(|(name, _)| name == *k))
            .copied()
            .collect();
        if !extra.is_empty() {
            self.problems
                .push(format!("unlisted metrics: {}", extra.join(", ")));
        }
    }

    /// One `workload metric value unit` line per metric of `table`.
    pub fn lines(&self, workload: &str, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "{workload} {name} {v} {unit}");
            }
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, values with every digit Rust's shortest round-trip
    /// formatting gives.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for (name, unit) in table {
            let Some(v) = self.values.get(name).filter(|v| v.is_finite()) else {
                continue;
            };
            let _ = write!(
                out,
                "{}{}:{{\"value\":{v},\"unit\":{}}}",
                if first { "" } else { "," },
                json_str(name),
                json_str(unit)
            );
            first = false;
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_obs::json::Json;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.set("jobs_per_s", 12.5);
        o.attempted = 3;
        let line = o.json(END_TO_END);
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = &fields[3].1;
        assert_eq!(
            m.get("jobs_per_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("jobs/s")
        );
    }

    #[test]
    fn validation_flags_gaps_extras_and_non_finite_values() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.0);
        }
        o.validate(END_TO_END);
        assert!(o.correct(), "{:?}", o.problems);
        o.set("goodput", f64::NAN);
        o.set("core.pool_task_ns", 1.0);
        o.values.remove("setup_s");
        o.validate(END_TO_END);
        assert_eq!(o.problems.len(), 3, "{:?}", o.problems);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
