//! Reading `BENCHMARK.json` (the one place units, directions and bounds are
//! written down) and printing results: a table for people, then one JSON
//! line for the driver.

use serde_json::Value;
use std::fmt::Write as _;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Pinned measuring time of one run.
    pub run_seconds: f64,
    /// End-to-end metric declarations.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metric declarations.
    pub per_layer: Vec<MetricDef>,
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn metric_defs(root: &[(String, Value)], key: &str) -> Result<Vec<MetricDef>, String> {
    let Some(Value::Seq(items)) = field(root, key) else {
        return Err(format!("BENCHMARK.json: `{key}` is not a list"));
    };
    items
        .iter()
        .map(|item| {
            let Value::Map(m) = item else {
                return Err(format!("BENCHMARK.json: a `{key}` item is not an object"));
            };
            let text = |k: &str| match field(m, k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: a `{key}` item lacks `{k}`")),
            };
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound: field(m, "bound").and_then(number),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let Value::Map(root) = serde_json::from_str::<Value>(text).map_err(|e| e.to_string())?
        else {
            return Err("BENCHMARK.json: not an object".into());
        };
        Ok(Spec {
            run_seconds: field(&root, "run_seconds")
                .and_then(number)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            end_to_end: metric_defs(&root, "end_to_end")?,
            per_layer: metric_defs(&root, "per_layer")?,
        })
    }
}

/// One measured value, with the spread of the per-pass values it was
/// estimated from (first quartile, median, third quartile) where there is
/// one.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name, as declared.
    pub name: &'static str,
    /// The estimate.
    pub value: f64,
    /// Quartiles over passes of the same statistic computed per pass.
    pub passes: Option<[f64; 3]>,
}

impl Measured {
    /// A value with no per-pass spread (counts, sizes).
    pub fn exact(name: &'static str, value: f64) -> Measured {
        Measured {
            name,
            value,
            passes: None,
        }
    }
}

/// Checks that `measured` is exactly the declared metric set, in any order.
pub fn check_names(defs: &[MetricDef], measured: &[Measured]) -> Result<(), String> {
    for d in defs {
        if measured.iter().filter(|m| m.name == d.name).count() != 1 {
            return Err(format!(
                "metric `{}` is declared but not measured exactly once",
                d.name
            ));
        }
    }
    for m in measured {
        if !defs.iter().any(|d| d.name == m.name) {
            return Err(format!("metric `{}` is measured but not declared", m.name));
        }
    }
    Ok(())
}

/// The table for people: every metric by name with value, unit, direction,
/// bound and per-pass spread.
pub fn table(workload: &str, defs: &[MetricDef], measured: &[Measured]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>16} {:<10} {:<7} {:>6}  per-pass q1 / median / q3",
        format!("[{workload}] metric"),
        "value",
        "unit",
        "better",
        "bound"
    );
    for d in defs {
        let Some(m) = measured.iter().find(|m| m.name == d.name) else {
            continue;
        };
        let bound = d
            .bound
            .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
        let spread = m.passes.map_or(String::new(), |[a, b, c]| {
            format!("{a:.4e} / {b:.4e} / {c:.4e}")
        });
        let _ = writeln!(
            out,
            "{:<36} {:>16.6e} {:<10} {:<7} {:>6}  {}",
            d.name, m.value, d.unit, d.better, bound, spread
        );
    }
    out
}

fn metrics_value(defs: &[MetricDef], measured: &[Measured]) -> Value {
    Value::Map(
        defs.iter()
            .filter_map(|d| {
                let m = measured.iter().find(|m| m.name == d.name)?;
                Some((
                    d.name.clone(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::F64(m.value)),
                        ("unit".to_owned(), Value::Str(d.unit.clone())),
                    ]),
                ))
            })
            .collect(),
    )
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    defs: &[MetricDef],
    measured: &[Measured],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let v = Value::Map(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(attempted)),
        ("failed".to_owned(), Value::U64(failed)),
        ("metrics".to_owned(), metrics_value(defs, measured)),
    ]);
    serde_json::to_string(&v).expect("a Value tree serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 21,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "dit.load_s", "unit": "s", "better": "lower"}]
    }"#;

    #[test]
    fn spec_parses_and_result_line_has_exactly_the_contract_keys() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.run_seconds, 21.0);
        assert_eq!(spec.end_to_end[0].bound, Some(0.2));
        assert_eq!(spec.per_layer[0].bound, None);
        let measured = vec![Measured::exact("setup_s", 0.8127)];
        check_names(&spec.end_to_end, &measured).unwrap();
        assert!(check_names(&spec.per_layer, &measured).is_err());
        let line = result_line(&spec.end_to_end, &measured, true, 1000, 0);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        assert!(table("a", &spec.end_to_end, &measured).contains("setup_s"));
    }
}
