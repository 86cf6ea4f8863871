//! `run.sh --selfcheck`: two full sets of runs of one build must agree.
//! Every end-to-end metric must agree within its own bound, and every
//! exact metric — anything not derived from a clock — bit for bit.

use cedar_experiments::Json;
use std::collections::BTreeMap;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

/// Units of values read off a clock or the memory high-water mark;
/// every other unit marks a count that must repeat exactly.
pub fn is_measured(unit: &str) -> bool {
    matches!(
        unit,
        "s" | "ms" | "us" | "ns" | "1/s" | "lines/s" | "MB" | "time-share" | "time-ratio"
    )
}

fn metric_specs(v: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: no `{key}` array"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(String::from)
                    .ok_or(format!("{key}: no `{f}`"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Read `BENCHMARK.json`.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let v = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = v
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no `workloads` array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or("workload without a name")
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metric_specs(&v, "end_to_end")?,
        per_layer: metric_specs(&v, "per_layer")?,
    })
}

/// Values of one set of runs, by (workload, metric).
pub type Results = BTreeMap<(String, String), f64>;

/// Read one set of runs: a line per run, `WORKLOAD TRACE RESULT-JSON`,
/// as `run.sh` records them. Every declared metric of every declared
/// workload must be there, and every run correct.
pub fn parse_results(spec: &Spec, text: &str) -> Result<Results, String> {
    let mut out = Results::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.splitn(3, ' ');
        let (Some(workload), Some(trace), Some(json)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("not `WORKLOAD TRACE JSON`: {line}"));
        };
        let v = Json::parse(json).map_err(|e| format!("{workload} trace {trace}: {e}"))?;
        if v.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{workload} trace {trace}: the run was not correct"));
        }
        let specs = if trace == "1" {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for m in specs {
            let value = v
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|mv| mv.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{workload} trace {trace}: no metric {}", m.name))?;
            out.insert((workload.to_string(), m.name.clone()), value);
        }
    }
    let expected = spec.workloads.len() * (spec.end_to_end.len() + spec.per_layer.len());
    if out.len() != expected {
        return Err(format!("{} values, expected {expected}", out.len()));
    }
    Ok(out)
}

/// Compare two sets; returns the report and the number of failures.
pub fn compare(spec: &Spec, a: &Results, b: &Results) -> (String, usize) {
    let mut report = String::new();
    let mut failures = 0;
    for workload in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (x, y) = (a[&key], b[&key]);
            let spread = (x - y).abs() / x.abs().min(y.abs());
            let verdict = if !is_measured(&m.unit) {
                if x.to_bits() == y.to_bits() {
                    "exact".to_string()
                } else {
                    failures += 1;
                    "FAILED: must repeat exactly".to_string()
                }
            } else {
                match m.bound {
                    Some(bound) if spread > bound => {
                        failures += 1;
                        format!("FAILED: spread {spread:.4} over bound {bound}")
                    }
                    Some(bound) => format!("spread {spread:.4} within bound {bound}"),
                    None => format!("spread {spread:.4} (no bound)"),
                }
            };
            report.push_str(&format!(
                "{workload:<15} {:<34} {x:>16.6} {y:>16.6} {:<10} {verdict}\n",
                m.name, m.unit
            ));
        }
    }
    (report, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "iter_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "ok_share", "unit": "share", "better": "higher", "bound": 1e-9}],
        "per_layer": [{"name": "sim.scalar_ops", "unit": "count", "better": "lower"},
                      {"name": "sim.compile_s", "unit": "s", "better": "lower"}]}"#;

    fn set(iter_s: f64, ok: f64, ops: f64, compile_s: f64) -> String {
        format!(
            "w 0 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\
             \"iter_s\": {{\"value\": {iter_s}, \"unit\": \"s\"}}, \
             \"ok_share\": {{\"value\": {ok}, \"unit\": \"share\"}}}}}}\n\
             w 1 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\
             \"sim.scalar_ops\": {{\"value\": {ops}, \"unit\": \"count\"}}, \
             \"sim.compile_s\": {{\"value\": {compile_s}, \"unit\": \"s\"}}}}}}\n"
        )
    }

    #[test]
    fn agreeing_sets_pass_and_each_rule_can_fail() {
        let spec = parse_spec(SPEC).unwrap();
        let a = parse_results(&spec, &set(1.0, 1.0, 500.0, 0.01)).unwrap();
        let same = parse_results(&spec, &set(1.05, 1.0, 500.0, 0.03)).unwrap();
        assert_eq!(
            compare(&spec, &a, &same).1,
            0,
            "within bound; unbounded timing may move"
        );
        let slow = parse_results(&spec, &set(1.2, 1.0, 500.0, 0.01)).unwrap();
        assert_eq!(compare(&spec, &a, &slow).1, 1);
        let miscounted = parse_results(&spec, &set(1.0, 1.0, 501.0, 0.01)).unwrap();
        assert_eq!(compare(&spec, &a, &miscounted).1, 1);
        let failing = parse_results(&spec, &set(1.0, 0.999, 500.0, 0.01)).unwrap();
        assert_eq!(compare(&spec, &a, &failing).1, 1);
    }

    #[test]
    fn incomplete_or_incorrect_sets_are_refused() {
        let spec = parse_spec(SPEC).unwrap();
        let full = set(1.0, 1.0, 500.0, 0.01);
        let first_line = full.lines().next().unwrap();
        assert!(parse_results(&spec, first_line).is_err());
        assert!(parse_results(
            &spec,
            &full.replace("\"correct\": true", "\"correct\": false")
        )
        .is_err());
        assert!(parse_results(&spec, "w 0").is_err());
    }
}
