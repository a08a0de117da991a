//! `compare A B`: the benchmark's own bounds applied to two result files
//! (or two directories of them, paired by file name), one row per
//! (workload, metric). Exits non-zero only on a resolved regression.

use std::path::{Path, PathBuf};

use crate::catalog::{bound_of, Better, Bound, END_TO_END};
use crate::json::Json;

/// One side of a pair: the reported value and its rep quartiles, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// `(q1, q3)` over reps; `None` for exact values.
    pub spread: Option<(f64, f64)>,
}

impl Side {
    fn interval(&self) -> (f64, f64) {
        self.spread.unwrap_or((self.value, self.value))
    }
}

/// What a pair shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound, rep spreads apart.
    Better,
    /// Differs by more than the bound, but the sides' rep spreads overlap
    /// by more than the bound: noise, not a finding.
    Unresolved,
    /// Worse by more than the bound, rep spreads apart.
    Regression,
}

/// Judges `b` against baseline `a`.
#[must_use]
pub fn judge(better: Better, bound: Bound, a: Side, b: Side) -> Verdict {
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let limit = match bound {
        Bound::Relative(share) => share * a.value.abs(),
        Bound::Absolute(amount) => amount,
    };
    let ((a1, a3), (b1, b3)) = (a.interval(), b.interval());
    let overlap = a3.min(b3) - a1.max(b1);
    let resolved = overlap <= limit;
    if worse_by > limit {
        if resolved {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse_by < -limit {
        if resolved {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else {
        Verdict::Ok
    }
}

/// The guarded metrics of one result file: `(name, side)`. End-to-end
/// metrics count only where they are the pass's contract (tracing off):
/// the layer pass measures them on a third of the reps, beside its spans.
fn guarded_metrics(doc: &Json) -> Vec<(String, Side)> {
    let mut out = Vec::new();
    for group in ["metrics", "extra"] {
        for (name, metric) in doc.get(group).map_or(&[][..], Json::members) {
            let end_to_end = END_TO_END.iter().any(|m| m.name == name);
            let (false, Some(_), Some(value)) = (
                group == "extra" && end_to_end,
                bound_of(name),
                metric.get("value").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let quartile = |key| metric.get(key).and_then(Json::as_f64);
            out.push((
                name.clone(),
                Side {
                    value,
                    spread: quartile("q1").zip(quartile("q3")),
                },
            ));
        }
    }
    out
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{}: a smoke run (or not a result file); its numbers are not for comparing",
            path.display()
        ));
    }
    Ok(doc)
}

/// Compares two result files; returns the rows and whether any is a
/// resolved regression.
pub fn compare_files(a: &Path, b: &Path) -> Result<(Vec<String>, bool), String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    let field = |doc: &Json, key: &str| doc.get(key).map(Json::render).unwrap_or_default();
    for key in ["workload", "trace"] {
        if field(&doc_a, key) != field(&doc_b, key) {
            return Err(format!(
                "{} and {} differ in {key}: {} vs {}",
                a.display(),
                b.display(),
                field(&doc_a, key),
                field(&doc_b, key)
            ));
        }
    }
    let workload = doc_a
        .get("workload")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let pass = match doc_a.get("trace").and_then(Json::as_bool) {
        Some(true) => "layers",
        _ => "e2e",
    };
    let is_exact = |doc: &Json, name: &str| match doc.get("exact") {
        Some(Json::Arr(names)) => names.iter().any(|n| n.as_str() == Some(name)),
        _ => false,
    };
    let side_b = guarded_metrics(&doc_b);
    let mut rows = Vec::new();
    let mut regressed = false;
    for (name, a_side) in guarded_metrics(&doc_a) {
        let Some((_, b_side)) = side_b.iter().find(|(n, _)| *n == name) else {
            rows.push(format!(
                "{workload:<15} {pass:<6} {name:<34} missing on the second side"
            ));
            continue;
        };
        let (better, bound) = bound_of(&name).expect("guarded_metrics only yields guarded names");
        let verdict = judge(better, bound, a_side, *b_side);
        regressed |= verdict == Verdict::Regression;
        let change = if a_side.value == 0.0 {
            0.0
        } else {
            (b_side.value - a_side.value) / a_side.value * 100.0
        };
        let bound_text = match bound {
            Bound::Relative(share) => format!("{:.0}%", share * 100.0),
            Bound::Absolute(amount) => format!("+{amount}"),
        };
        // Simulated metrics are exact per seed: say whether the two sets
        // agree to the bit.
        let exact = if !(is_exact(&doc_a, &name) && is_exact(&doc_b, &name)) {
            ""
        } else if a_side.value.to_bits() == b_side.value.to_bits() {
            " identical"
        } else {
            " differs"
        };
        rows.push(format!(
            "{workload:<15} {pass:<6} {name:<34} {:>14.4} {:>14.4} {change:>+8.2}% (bound {bound_text:>7}) {verdict:?}{exact}",
            a_side.value, b_side.value
        ));
    }
    Ok((rows, regressed))
}

/// Result files under `dir`, by name.
fn result_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    Ok(files)
}

/// Runs `compare A B`; returns the process exit code.
pub fn main(a: &Path, b: &Path) -> i32 {
    let pairs: Result<Vec<(PathBuf, PathBuf)>, String> = if a.is_dir() && b.is_dir() {
        result_files(a).map(|files| {
            files
                .into_iter()
                .filter_map(|file| {
                    let twin = b.join(file.file_name()?);
                    twin.exists().then_some((file, twin))
                })
                .collect()
        })
    } else {
        Ok(vec![(a.to_path_buf(), b.to_path_buf())])
    };
    let pairs = match pairs {
        Ok(pairs) if !pairs.is_empty() => pairs,
        Ok(_) => {
            eprintln!(
                "compare: no result file of {} has a twin in {}",
                a.display(),
                b.display()
            );
            return 2;
        }
        Err(err) => {
            eprintln!("compare: {err}");
            return 2;
        }
    };
    println!(
        "{:<15} {:<6} {:<34} {:>14} {:>14} {:>9}",
        "workload", "pass", "metric", "first", "second", "change"
    );
    let mut regressed = false;
    for (file_a, file_b) in pairs {
        match compare_files(&file_a, &file_b) {
            Ok((rows, bad)) => {
                rows.iter().for_each(|row| println!("{row}"));
                regressed |= bad;
            }
            Err(err) => {
                eprintln!("compare: {err}");
                return 2;
            }
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        Side {
            value,
            spread: None,
        }
    }

    fn timed(value: f64, q1: f64, q3: f64) -> Side {
        Side {
            value,
            spread: Some((q1, q3)),
        }
    }

    #[test]
    fn exact_metrics_regress_past_the_bound_in_their_own_direction() {
        let bound = Bound::Relative(0.10);
        assert_eq!(
            judge(Better::Lower, bound, exact(100.0), exact(109.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, bound, exact(100.0), exact(111.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Better::Lower, bound, exact(100.0), exact(80.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, bound, exact(100.0), exact(80.0)),
            Verdict::Regression
        );
        // "Any drop": an absolute bound of zero on a higher-is-better rate.
        let any = Bound::Absolute(0.0);
        assert_eq!(
            judge(Better::Higher, any, exact(15.0), exact(15.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, any, exact(15.0), exact(14.9)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Better::Higher, any, exact(15.0), exact(20.0)),
            Verdict::Better
        );
    }

    #[test]
    fn overlapping_rep_spreads_leave_a_difference_unresolved() {
        let bound = Bound::Relative(0.10);
        // 20 % slower, but the reps of both sides share [110, 125]: noise.
        let a = timed(100.0, 95.0, 125.0);
        let b = timed(120.0, 110.0, 140.0);
        assert_eq!(judge(Better::Lower, bound, a, b), Verdict::Unresolved);
        // Same medians with tight reps: a finding.
        let a = timed(100.0, 99.0, 102.0);
        let b = timed(120.0, 118.0, 123.0);
        assert_eq!(judge(Better::Lower, bound, a, b), Verdict::Regression);
        assert_eq!(judge(Better::Lower, bound, b, a), Verdict::Better);
        // Inside the bound is fine however wide the reps are.
        assert_eq!(
            judge(
                Better::Lower,
                bound,
                timed(100.0, 60.0, 160.0),
                timed(105.0, 60.0, 160.0)
            ),
            Verdict::Ok
        );
    }

    fn write_result(dir: &Path, name: &str, smoke: bool, wall: f64) -> PathBuf {
        let doc = Json::obj([
            ("workload", Json::str("elect-small")),
            ("trace", Json::Bool(false)),
            ("smoke", Json::Bool(smoke)),
            ("exact", Json::Arr(vec![Json::str("shared_writes")])),
            (
                "metrics",
                Json::obj([
                    (
                        "run_wall_ms",
                        Json::obj([
                            ("value", Json::Num(wall)),
                            ("unit", Json::str("ms")),
                            ("q1", Json::Num(wall * 0.99)),
                            ("q3", Json::Num(wall * 1.02)),
                        ]),
                    ),
                    (
                        "shared_writes",
                        Json::obj([
                            ("value", Json::Num(590_378.0)),
                            ("unit", Json::str("count")),
                        ]),
                    ),
                ]),
            ),
            (
                "extra",
                Json::obj([(
                    "sim.events",
                    Json::obj([("value", Json::Num(1.0)), ("unit", Json::str("count"))]),
                )]),
            ),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.render()).unwrap();
        path
    }

    #[test]
    fn files_compare_row_by_row_and_smoke_runs_are_refused() {
        let dir = crate::report::out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = write_result(&dir, "a.json", false, 250.0);
        let same = write_result(&dir, "b.json", false, 252.0);
        let slow = write_result(&dir, "c.json", false, 330.0);
        let smoke = write_result(&dir, "d.json", true, 250.0);

        let (rows, regressed) = compare_files(&base, &same).unwrap();
        assert!(!regressed);
        assert_eq!(rows.len(), 2, "guarded metrics only: {rows:?}");
        assert!(rows[1].contains("shared_writes") && rows[1].contains("identical"));

        let (rows, regressed) = compare_files(&base, &slow).unwrap();
        assert!(regressed, "{rows:?}");
        assert!(rows[0].contains("Regression"));

        let refused = compare_files(&base, &smoke).unwrap_err();
        assert!(refused.contains("smoke"), "{refused}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
