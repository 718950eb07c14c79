//! What a run prints and saves, and `perf compare` over saved runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::metrics::{Metric, END_TO_END};
use crate::stats::{self, Summary};

/// One reported metric: the median of its samples, with their spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub metric: Metric,
    pub summary: Summary,
}

/// One finished run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Reported>,
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("every reported number is finite")
}

impl RunReport {
    /// The table a person reads: every metric by name with its unit, the
    /// median first, then how its samples spread.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:<12} {:<7} {:>14} {:>14} {:>14} {:>14} {:>4} {:>7}",
            "metric", "median", "unit", "better", "min", "q1", "q3", "max", "n", "iqr/med"
        );
        for m in &self.metrics {
            let s = &m.summary;
            let _ = writeln!(
                out,
                "{:<44} {:>16.4} {:<12} {:<7} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>4} {:>6.1}%",
                m.metric.name,
                s.median,
                m.metric.unit,
                m.metric.better.name(),
                s.min,
                s.q1,
                s.q3,
                s.max,
                s.n,
                s.spread() * 100.0
            );
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        out
    }

    /// Every metric as `name: {value, unit}`, with its samples' spread
    /// beside the value when `with_spread`.
    fn metrics_object(&self, with_spread: bool) -> Value {
        let entries = self.metrics.iter().map(|m| {
            let s = &m.summary;
            let mut entry = vec![
                ("value", Value::Float(s.median)),
                ("unit", Value::Str(m.metric.unit.to_string())),
            ];
            if with_spread {
                entry.extend([
                    ("min", Value::Float(s.min)),
                    ("q1", Value::Float(s.q1)),
                    ("q3", Value::Float(s.q3)),
                    ("max", Value::Float(s.max)),
                    ("n", Value::Int(s.n as i64)),
                ]);
            }
            (m.metric.name.to_string(), object(entry))
        });
        Value::Object(entries.collect())
    }

    /// The contract's fields: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn result_fields(&self, with_spread: bool) -> Vec<(&'static str, Value)> {
        vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", self.metrics_object(with_spread)),
        ]
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        render(&object(self.result_fields(false)))
    }

    /// One line of a results file: the run's arguments, then the result
    /// line's fields with every metric's spread.
    pub fn saved_line(&self) -> String {
        let mut fields = vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Int(self.seed as i64)),
            ("seconds", Value::Int(self.seconds as i64)),
            ("trace", Value::Bool(self.trace)),
        ];
        fields.extend(self.result_fields(true));
        render(&object(fields))
    }
}

/// The untraced runs of one results file, folded per workload: each
/// metric's median over the file's runs, and the failure share.
#[derive(Debug, Default, PartialEq)]
pub struct Folded {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub runs: usize,
}

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Parses a results file (one saved line per run) into per-workload
/// folds; traced runs carry no end-to-end metric and are skipped.
pub fn fold_results(text: &str) -> Result<BTreeMap<String, Folded>, String> {
    let mut samples: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut folded: BTreeMap<String, Folded> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let run: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        if get(&run, "trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(Value::Str(workload)) = get(&run, "workload") else {
            return Err(bad("no workload"));
        };
        let count = |key: &str| -> Result<u64, String> {
            get(&run, key)
                .and_then(number)
                .map(|n| n as u64)
                .ok_or_else(|| bad(&format!("no {key}")))
        };
        let fold = folded.entry(workload.clone()).or_default();
        fold.attempted += count("attempted")?;
        fold.failed += count("failed")?;
        fold.runs += 1;
        let Some(Value::Object(metrics)) = get(&run, "metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, entry) in metrics {
            let value = get(entry, "value")
                .and_then(number)
                .ok_or_else(|| bad(&format!("metric {name} has no value")))?;
            samples
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    for (workload, metrics) in samples {
        let fold = folded.entry(workload).or_default();
        for (name, values) in metrics {
            fold.metrics.insert(name, stats::median(&values));
        }
    }
    Ok(folded)
}

/// Compares baseline `a` with candidate `b`: one row per (workload,
/// end-to-end metric), and whether every pair stayed within its bound and
/// no workload's failure share rose.
pub fn compare(a: &BTreeMap<String, Folded>, b: &BTreeMap<String, Folded>) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<16} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound"
    );
    for (workload, base) in a {
        let Some(cand) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<16} missing from b");
            ok = false;
            continue;
        };
        for gated in &END_TO_END {
            let (Some(&va), Some(&vb)) = (
                base.metrics.get(gated.metric.name),
                cand.metrics.get(gated.metric.name),
            ) else {
                let _ = writeln!(out, "{workload:<16} {:<24} missing", gated.metric.name);
                ok = false;
                continue;
            };
            let worse = gated.metric.better.worsening(va, vb);
            let within = worse <= gated.bound;
            ok &= within;
            let _ = writeln!(
                out,
                "{workload:<16} {:<24} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>6.1}%  {}",
                gated.metric.name,
                (vb - va) / va * 100.0,
                gated.bound * 100.0,
                match (within, worse < -gated.bound) {
                    (false, _) => "WORSE",
                    (true, true) => "better",
                    (true, false) => "same",
                }
            );
        }
        let share = |f: &Folded| f.failed as f64 / f.attempted.max(1) as f64;
        let rose = share(cand) > share(base);
        ok &= !rose;
        let _ = writeln!(
            out,
            "{workload:<16} {:<24} {:>16} {:>16} {:>9} {:>7}  {}",
            "failed/attempted",
            format!("{}/{}", base.failed, base.attempted),
            format!("{}/{}", cand.failed, cand.attempted),
            "",
            "",
            if rose { "ROSE" } else { "same" }
        );
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, qps: f64, failed: u64) -> RunReport {
        let metrics = END_TO_END
            .iter()
            .map(|m| Reported {
                metric: m.metric,
                summary: stats::summarize(&[if m.metric.name == "query_per_s" {
                    qps
                } else {
                    2.5
                }]),
            })
            .collect();
        RunReport {
            workload: workload.to_string(),
            seed: 1,
            seconds: 10,
            trace: false,
            attempted: 100,
            failed,
            correct: failed == 0,
            metrics,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let line = report("query-window", 100.0, 0).result_line();
        let Value::Object(fields) = serde_json::from_str::<Value>(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"query_per_s\":{\"value\":100.0,\"unit\":\"1/s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn compare_passes_equal_runs_and_fails_a_regression() {
        let file = |qps: f64, failed: u64| {
            let text = format!(
                "{}\n{}\n",
                report("query-window", qps, failed).saved_line(),
                report("query-window", qps * 1.02, failed).saved_line()
            );
            fold_results(&text).unwrap()
        };
        let base = file(100.0, 0);
        assert_eq!(base["query-window"].runs, 2);
        assert!((base["query-window"].metrics["query_per_s"] - 101.0).abs() < 1e-9);
        assert!(compare(&base, &file(100.0, 0)).1);
        assert!(compare(&base, &file(90.0, 0)).1, "within the bound");
        let (table, ok) = compare(&base, &file(70.0, 0));
        assert!(!ok && table.contains("WORSE"), "{table}");
        let (table, ok) = compare(&base, &file(100.0, 1));
        assert!(!ok && table.contains("ROSE"), "{table}");
        assert!(compare(&base, &file(140.0, 0)).0.contains("better"));
        assert!(
            !compare(&base, &BTreeMap::new()).1,
            "a missing workload fails"
        );
    }

    #[test]
    fn traced_runs_and_blank_lines_are_skipped() {
        let mut traced = report("ingest-ooo", 1.0, 0);
        traced.trace = true;
        let text = format!("\n{}\n", traced.saved_line());
        assert!(fold_results(&text).unwrap().is_empty());
        assert!(fold_results("{not json").is_err());
    }
}
