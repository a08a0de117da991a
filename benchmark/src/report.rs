//! Turning what a workload observed into the three things a run leaves
//! behind: a table on stdout with every metric by name and unit, a result
//! file with the run header, and — last line of stdout — the contract's
//! result object.

use std::path::{Path, PathBuf};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::harness::{Ctx, Measured, Value};
use crate::host::RunHeader;
use crate::json::Json;

/// Directory the run's files go to: `out/` beside the crate's sources,
/// inside the checkout and ignored by git.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `(name, unit)` of every metric the contract wants from this pass.
fn contract_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn value_json(value: &Value, unit: &str) -> Json {
    let mut pairs = vec![("value", Json::Num(value.value)), ("unit", Json::str(unit))];
    if let Some((q1, q3)) = value.spread {
        pairs.push(("q1", Json::Num(q1)));
        pairs.push(("q3", Json::Num(q3)));
    }
    Json::obj(pairs)
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Every contract metric present and finite, every check green.
    pub correct: bool,
    /// The contract's result object (one line).
    pub line: String,
    /// The result file's content.
    pub file: Json,
    /// The human-readable table.
    pub table: String,
}

/// Builds the report of one run.
#[must_use]
pub fn build(workload: &str, ctx: &Ctx, measured: &Measured, header: &RunHeader) -> Report {
    let wanted = contract_metrics(ctx.trace);
    let mut problems = measured.problems.clone();
    let mut metrics = Vec::new();
    let mut table = String::new();
    for &(name, unit) in &wanted {
        // A layer metric the workload cannot observe reads 0; an
        // end-to-end metric must have been measured.
        let value = match measured.values.get(name) {
            Some(v) => *v,
            None if ctx.trace => Value {
                value: 0.0,
                spread: None,
            },
            None => {
                problems.push(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        if !value.value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
            continue;
        }
        table.push_str(&format!("{name:<44} {:>18.6} {unit}\n", value.value));
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value.value)), ("unit", Json::str(unit))]),
        ));
    }
    let correct = problems.is_empty() && measured.failed == 0 && metrics.len() == wanted.len();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.attempted.max(1) as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render();

    // The file keeps everything observed — the contract's metrics with
    // their rep quartiles, and whatever else the pass saw for free.
    let (in_contract, extra): (Vec<_>, Vec<_>) = measured
        .values
        .iter()
        .partition(|(name, _)| wanted.iter().any(|(n, _)| n == name));
    let group = |values: Vec<(&String, &Value)>| {
        Json::obj(
            values
                .into_iter()
                .map(|(name, value)| (name.clone(), value_json(value, unit_of(name)))),
        )
    };
    let mut head = header.finish().members().to_vec();
    head.push(("seed".into(), Json::Num(ctx.seed as f64)));
    head.push(("seconds".into(), Json::Num(ctx.seconds)));
    for (kind, count) in &measured.counts {
        head.push(((*kind).into(), Json::Num(*count as f64)));
    }
    let file = Json::obj([
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(ctx.trace)),
        ("smoke", Json::Bool(ctx.smoke)),
        ("header", Json::Obj(head)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
        (
            "exact",
            Json::Arr(measured.exact.iter().map(Json::str).collect()),
        ),
        ("metrics", group(in_contract)),
        ("extra", group(extra)),
        (
            "series",
            Json::obj(measured.series.iter().map(|(name, samples)| {
                (
                    *name,
                    Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect()),
                )
            })),
        ),
    ]);
    Report {
        correct,
        line,
        file,
        table,
    }
}

/// Where the result file of a run goes.
#[must_use]
pub fn result_path(workload: &str, trace: bool) -> PathBuf {
    let pass = if trace { "layers" } else { "e2e" };
    out_dir().join(format!("{workload}.{pass}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: bool) -> Ctx {
        Ctx {
            seed: 11,
            seconds: 12.0,
            trace,
            smoke: false,
        }
    }

    fn complete() -> Measured {
        let mut m = Measured::default();
        for (i, metric) in END_TO_END.iter().enumerate() {
            m.set_from(metric.name, 1.5 + i as f64, &[1.0, 2.0, 3.0, 4.0]);
        }
        m.set("sim.events", 123.0);
        m.check(None);
        m
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let report = build("elect-small", &ctx(false), &complete(), &RunHeader::start());
        assert!(report.correct);
        let line = Json::parse(&report.line).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().members();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let wanted: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, wanted);
        for (_, metric) in metrics {
            let keys: Vec<&str> = metric.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn layer_pass_emits_every_ledger_metric_and_zero_for_the_unobserved() {
        let report = build("elect-small", &ctx(true), &complete(), &RunHeader::start());
        let line = Json::parse(&report.line).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), PER_LAYER.len());
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("sim.events"), Some(123.0));
        assert_eq!(value("runtime.start_ms"), Some(0.0));
    }

    #[test]
    fn a_missing_or_failed_measurement_makes_the_run_incorrect() {
        let mut missing = complete();
        missing.values.remove("latency_ticks");
        assert!(!build("x", &ctx(false), &missing, &RunHeader::start()).correct);
        let mut failed = complete();
        failed.check(Some("rep 1: no leader".into()));
        let report = build("x", &ctx(false), &failed, &RunHeader::start());
        assert!(!report.correct);
        let problems = report.file.get("problems").unwrap().render();
        assert!(problems.contains("no leader"), "{problems}");
    }

    #[test]
    fn result_file_carries_the_header_quartiles_and_extras() {
        let report = build("elect-small", &ctx(false), &complete(), &RunHeader::start());
        let header = report.file.get("header").unwrap();
        for key in [
            "commit",
            "rustc",
            "nproc",
            "cpu_model",
            "seed",
            "loadavg_start",
        ] {
            assert!(header.get(key).is_some(), "{key}");
        }
        let wall = report
            .file
            .get("metrics")
            .unwrap()
            .get("run_wall_ms")
            .unwrap();
        assert!(wall.get("q1").is_some() && wall.get("q3").is_some());
        assert!(report
            .file
            .get("extra")
            .unwrap()
            .get("sim.events")
            .is_some());
        assert_eq!(
            report.file.get("smoke").and_then(Json::as_bool),
            Some(false)
        );
    }
}
