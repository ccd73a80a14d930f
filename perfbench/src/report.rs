//! The metric tables and the JSON the benchmark prints.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! is the full report (host facts, phases, checks, layer accounting).
//! Both are written with the workspace's own JSON codec.

use std::collections::BTreeMap;

use hgp_serve::json::Value;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
///
/// The latency tail is in every report but not here: on a shared 2-core
/// host its run-to-run spread (up to 80% across seeds, from host
/// stalls of ~100 ms) is wider than any bound a regression gate can
/// hold it to.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_jobs_s", "1/s"),
    ("throughput_shots_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("wire.ack_ms", "ms"),
    ("wire.deliver_ms", "ms"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("json.request_bytes", "bytes"),
    ("json.result_bytes", "bytes"),
    ("daemon.admit_us", "us"),
    ("daemon.queue_ms", "ms"),
    ("daemon.deliver_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("compile.circuit_ms", "ms"),
    ("compile.hybrid_ms", "ms"),
    ("template.record_ms", "ms"),
    ("bind.exact_us", "us"),
    ("bind.replay_us", "us"),
    ("exec.exact_ms", "ms"),
    ("exec.statevector_us", "us"),
    ("exec.traj_ms_per_shot", "ms"),
    ("engine.diag_run_pct", "%"),
    ("engine.dense_1q_pct", "%"),
    ("engine.dense_2q_pct", "%"),
    ("engine.mixed_channel_pct", "%"),
    ("engine.general_channel_pct", "%"),
    ("engine.renorm_pct", "%"),
    ("engine.shots_per_block", "count"),
    ("train.evals", "count"),
    ("train.build_ms", "ms"),
    ("train.walk_ms", "ms"),
    ("train.sample_ms", "ms"),
    ("train.cost_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("loadgen.lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("accounting.residual_pct", "%"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// A named check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Evidence, shown either way.
    pub detail: String,
}

impl Check {
    /// A check from a condition.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON number, or `null` when the value is not finite.
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::from_f64(v)
    } else {
        Value::Null
    }
}

/// A JSON string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// The `metrics` object for `table`, in table order.
///
/// # Errors
///
/// Errors naming the first metric of `table` that `values` lacks or
/// holds as a non-finite number.
pub fn metrics_object(table: &[(&str, &str)], values: &Values) -> Result<Value, String> {
    let mut members = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        members.push((
            name,
            obj(vec![
                ("value", Value::from_f64(value)),
                ("unit", text(unit)),
            ]),
        ));
    }
    Ok(obj(members))
}

/// The result line. An incorrect run reports no numbers.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Option<Value>) -> String {
    let metrics = match (correct, metrics) {
        (true, Some(metrics)) => metrics,
        _ => Value::Obj(Vec::new()),
    };
    obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from_u64(attempted)),
        ("failed", Value::from_u64(failed)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// The checks as a JSON array.
pub fn checks_value(checks: &[Check]) -> Value {
    Value::Arr(
        checks
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", text(c.name.clone())),
                    ("passed", Value::Bool(c.passed)),
                    ("detail", text(c.detail.clone())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(table: &[(&'static str, &str)]) -> Values {
        table
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| (name, 0.5 + i as f64 / 3.0))
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metrics = metrics_object(&END_TO_END, &values(&END_TO_END)).unwrap();
        let line = result_line(true, 12, 0, Some(metrics));
        let parsed = Value::parse(&line).unwrap();
        let Value::Obj(members) = &parsed else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(parsed.get("correct").unwrap().as_bool().unwrap());
        assert_eq!(parsed.get("attempted").unwrap().as_u64().unwrap(), 12);
        let metrics = parsed.get("metrics").unwrap();
        for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").unwrap().as_str().unwrap(), unit);
            // Every digit survives the round trip.
            assert_eq!(
                m.get("value").unwrap().as_f64().unwrap(),
                0.5 + i as f64 / 3.0
            );
        }
    }

    #[test]
    fn an_incorrect_run_reports_no_numbers() {
        let metrics = metrics_object(&END_TO_END, &values(&END_TO_END)).unwrap();
        let line = result_line(false, 5, 1, Some(metrics));
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":5,"failed":1,"metrics":{}}"#
        );
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors() {
        let mut v = values(&END_TO_END);
        v.remove("setup_s");
        assert!(metrics_object(&END_TO_END, &v)
            .unwrap_err()
            .contains("setup_s"));
        let mut v = values(&END_TO_END);
        v.insert("latency_p50_ms", f64::NAN);
        assert!(metrics_object(&END_TO_END, &v)
            .unwrap_err()
            .contains("latency_p50_ms"));
    }

    #[test]
    fn tables_match_the_benchmark_spec() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = Value::parse(&spec).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
