//! What one run produces, and how it is printed: a human-readable
//! block, then — as the last line of stdout — the JSON result.

use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics with their units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric {
                name: name.to_string(),
                unit,
                value,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (artifacts rendered, requests sent).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// The metrics the result line carries (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Further figures printed in the human-readable block only.
    pub notes: Metrics,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The end-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cpu_s", "s")];

/// The per-layer metrics every traced run reports: `(name, unit)`. A
/// layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.repeat_share", "fraction"),
    ("wire.overhead_ms", "ms"),
    ("wire.bytes_per_req", "bytes"),
    ("proto.parse_us", "us"),
    ("spec.digest_us", "us"),
    ("proto.encode_us", "us"),
    ("service.memo_hit_ratio", "fraction"),
    ("service.memo_evictions", "count"),
    ("service.recompute_ratio", "ratio"),
    ("service.refused", "count"),
    ("service.hit_total_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.busy_frac", "fraction"),
    ("engine.job_ms", "ms"),
    ("engine.miss_overhead_ms", "ms"),
    ("chip.power_budget_us", "us"),
    ("chip.thermal_closure_us", "us"),
    ("device.solve_vth.evals", "count"),
    ("grid.mg.level0_ms", "ms"),
    ("grid.mg.coarse_ms", "ms"),
    ("grid.mgcg.solve_ms", "ms"),
    ("grid.ns_per_node_update", "ns"),
    ("grid.mgcg.iterations", "count"),
    ("grid.mgcg.sweeps_equivalent", "count"),
    ("grid.pcg.iterations", "count"),
    ("grid.mesh_drop_ms.r33", "ms"),
    ("grid.mesh_drop_ms.r65", "ms"),
    ("grid.mesh_drop_ms.r129", "ms"),
    ("grid.mesh_drop_ms.r257", "ms"),
    ("circuit.generate_ms", "ms"),
    ("circuit.sta_ms", "ms"),
    ("circuit.power_ms", "ms"),
    ("circuit.sta.gates", "count"),
    ("opt.run_ms", "ms"),
    ("opt.round_ms", "ms"),
    ("opt.us_per_accepted", "us"),
    ("opt.accepted", "count"),
    ("opt.proposed", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// A finite JSON number (an infinite latency — a refused request —
/// is written as the largest finite double).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "0".into()
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// carrying every name in `catalogue` (0 where the run measured none).
pub fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let mut metrics = BTreeMap::new();
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        metrics.insert(
            *name,
            format!("{{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)),
        );
    }
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, _)| format!("\"{name}\": {}", metrics[name]))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// The human-readable block: every metric by name with its unit.
pub fn human(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!("== {workload} ==\n");
    for m in outcome.metrics.0.iter().chain(&outcome.notes.0) {
        out.push_str(&format!(
            "  {:<30} {:>16} {}\n",
            m.name,
            fmt(m.value),
            m.unit
        ));
    }
    out.push_str(&format!(
        "  {:<30} {:>16} fraction ({} failed of {} attempted)\n",
        "error_rate",
        fmt(outcome.error_rate()),
        outcome.failed,
        outcome.attempted
    ));
    for p in &outcome.problems {
        out.push_str(&format!("  FAILED: {p}\n"));
    }
    out
}

fn fmt(v: f64) -> String {
    if v.is_infinite() {
        "inf".into()
    } else if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = crate::json::parse(&text).expect("valid BENCHMARK.json");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(crate::json::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(crate::json::Json::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalogue, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", "s", 0.25);
        o.metrics.set("cpu_s", "s", f64::INFINITY);
        let line = result_line(&o, END_TO_END);
        let v = crate::json::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v
            .get("metrics")
            .and_then(crate::json::Json::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(
            setup.get("value").and_then(crate::json::Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            setup.get("unit").and_then(crate::json::Json::as_str),
            Some("s")
        );
        let infinite = metrics["cpu_s"]
            .get("value")
            .and_then(crate::json::Json::as_f64);
        assert_eq!(
            infinite,
            Some(f64::MAX),
            "an infinite value stays a finite number"
        );
    }
}
