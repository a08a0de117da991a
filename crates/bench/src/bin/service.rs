//! Service-suite benchmark: the leader-gated replicated KV under open-loop
//! client load, reporting failover unavailability as the headline SLO.
//!
//! Modes and flags mirror the `scenarios` bin:
//!
//! * **Record** (default) — runs every registry service scenario on the
//!   chosen backend, prints the outcome table, and writes
//!   `BENCH_service.json` (sim) or `BENCH_service.<driver>.json`
//!   (wall-clock), honoring `$BENCH_OUT`.
//! * **Check** (`--check <baseline.json>`) — diffs against the committed
//!   baseline. On the simulator every gated field is deterministic, so
//!   the gate fails on: a committed-count drop beyond 5 % + 5 requests, a
//!   failed-request (rejected + stalled) growth beyond 25 % + 5, an
//!   unavailability growth beyond 25 % + 500 ticks, or a total-write
//!   growth beyond 15 %. Wall-clock backends gate on timing only
//!   (advisory unless `--strict-timing`), exactly like the scenarios bin.
//! * **`--driver sim|coop|threads`** — picks the backend (default `sim`).
//!   The cooperative backend multiplexes the service loops and the
//!   workload pump on the same deadline wheel as the election's task
//!   loops; `threads` gives every replica loop its own OS thread.
//! * **`--only <substring>`** — restricts the run; a filtered run never
//!   overwrites the committed full-suite baseline.
//! * **`--list`** — prints the service registry and exits.

use std::fmt::Write as _;

use omega_bench::table::Table;
use omega_scenario::Backend;
use omega_service::{
    registry, ServiceCoopDriver, ServiceOutcome, ServiceSimDriver, ServiceThreadDriver,
};

/// Committed requests may drop by at most this fraction (plus
/// [`COUNT_SLACK`]) before the gate fails.
const MAX_COMMIT_DROP: f64 = 0.05;
/// Failed requests (rejected + stalled) may grow by at most this fraction
/// (plus [`COUNT_SLACK`]) before the gate fails.
const MAX_FAILED_GROWTH: f64 = 0.25;
/// Absolute slack on the request-count gates: tiny baselines should not
/// flake on ±a-handful-of-requests drift when scenarios are retuned.
const COUNT_SLACK: u64 = 5;
/// Total unavailability may grow by at most this fraction plus
/// [`UNAVAIL_SLACK_TICKS`] before the gate fails.
const MAX_UNAVAIL_GROWTH: f64 = 0.25;
/// Absolute slack on the unavailability gate, in ticks.
const UNAVAIL_SLACK_TICKS: u64 = 500;
/// Allowed relative growth of `total_writes` before the gate fails.
const MAX_WRITE_REGRESSION: f64 = 0.15;
/// Wall-clock delta beyond which a timing warning is collected (failures
/// only under `--strict-timing`).
const TIMING_REPORT_THRESHOLD: f64 = 0.50;

/// `--driver` names this suite accepts: every backend but the SAN (there
/// is no disk substrate for the KV).
fn parse_driver(name: &str) -> Option<Backend> {
    Backend::parse(name).filter(|&backend| backend != Backend::San)
}

fn run(
    backend: Backend,
    scenario: &omega_service::ServiceScenario,
    workers: usize,
) -> ServiceOutcome {
    match backend {
        Backend::Sim => ServiceSimDriver.run(scenario),
        Backend::Coop => ServiceCoopDriver {
            workers,
            ..ServiceCoopDriver::default()
        }
        .run(scenario),
        Backend::Threads => ServiceThreadDriver::default().run(scenario),
        Backend::San => unreachable!("parse_driver admits no SAN"),
    }
}

/// Only the simulator's records are deterministic enough to gate on
/// request counts and unavailability ticks.
fn gates_model_counters(backend: Backend) -> bool {
    backend == Backend::Sim
}

/// The baseline fields the service gate compares. Unknown JSON fields are
/// ignored; optional fields parse to `None` (same growth rules as the
/// scenarios bin's parser).
#[derive(Debug, Clone, PartialEq)]
struct BaselineRecord {
    scenario: String,
    backend: Option<String>,
    requests: u64,
    committed: u64,
    rejected: u64,
    stalled: u64,
    unavail_ticks: u64,
    total_writes: u64,
    /// Requests that outlived the workload's fail-fast stall bound;
    /// `None` for baselines predating the drain SLO. The gate holds the
    /// *current* run at zero regardless — a breach is never a trend.
    stall_bound_breaches: Option<u64>,
    wall_ms: Option<f64>,
}

fn raw_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = object.find(&needle)? + needle.len();
    let rest = &object[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn string_field(object: &str, key: &str) -> Option<String> {
    let raw = raw_field(object, key)?;
    let raw = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(raw.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// Parses the artifact this bin writes: one flat record per line. A line
/// that looks like a record but does not parse is a hard error — silently
/// dropping it would exempt its scenario from the gate.
fn parse_baseline(json: &str) -> Result<Vec<BaselineRecord>, String> {
    json.lines()
        .map(str::trim)
        .filter(|line| line.starts_with('{'))
        .map(|line| {
            let parsed = (|| {
                Some(BaselineRecord {
                    scenario: string_field(line, "scenario")?,
                    backend: string_field(line, "backend"),
                    requests: raw_field(line, "requests")?.parse().ok()?,
                    committed: raw_field(line, "committed")?.parse().ok()?,
                    rejected: raw_field(line, "rejected")?.parse().ok()?,
                    stalled: raw_field(line, "stalled")?.parse().ok()?,
                    unavail_ticks: raw_field(line, "unavail_ticks")?.parse().ok()?,
                    total_writes: raw_field(line, "total_writes")?.parse().ok()?,
                    stall_bound_breaches: raw_field(line, "stall_bound_breaches")
                        .and_then(|raw| raw.parse().ok()),
                    wall_ms: raw_field(line, "wall_ms").and_then(|raw| raw.parse().ok()),
                })
            })();
            parsed.ok_or_else(|| format!("unparseable baseline record: {line}"))
        })
        .collect()
}

/// Loads and validates a `--check` baseline. A missing file, an
/// unparseable record, or an empty baseline all mean the gate cannot
/// defend anything — each is reported as one summary line so CI logs
/// show the cause directly instead of a panic backtrace.
fn load_baseline(path: &str) -> Result<Vec<BaselineRecord>, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("baseline {path} unreadable: {e}"))?;
    let baseline = parse_baseline(&json).map_err(|e| format!("baseline {path}: {e}"))?;
    if baseline.is_empty() {
        return Err(format!("baseline {path} holds no records"));
    }
    Ok(baseline)
}

/// `current` exceeding `baseline` by more than `rel · baseline + abs`.
fn exceeds(baseline: u64, current: u64, rel: f64, abs: u64) -> bool {
    current as f64 > baseline as f64 * (1.0 + rel) + abs as f64
}

/// `current` falling short of `baseline` by more than `rel · baseline + abs`.
fn falls_short(baseline: u64, current: u64, rel: f64, abs: u64) -> bool {
    (current as f64) < baseline as f64 * (1.0 - rel) - abs as f64
}

#[derive(Debug, Clone, Copy)]
struct CheckPolicy {
    gate_model: bool,
    strict_timing: bool,
}

fn check_against_baseline(
    baseline: &[BaselineRecord],
    outcomes: &[ServiceOutcome],
    only: Option<&str>,
    policy: CheckPolicy,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut timing_warnings = Vec::new();
    let mut compared = 0usize;
    for outcome in outcomes {
        let Some(base) = baseline.iter().find(|b| b.scenario == outcome.scenario) else {
            println!("  new scenario (no trend yet): {}", outcome.scenario);
            continue;
        };
        if let Some(recorded) = base.backend.as_deref() {
            if recorded != outcome.backend {
                violations.push(format!(
                    "{}: baseline was recorded by the {recorded} backend, this run used {} \
                     — diff against the matching BENCH_service artifact",
                    outcome.scenario, outcome.backend
                ));
                continue;
            }
        }
        compared += 1;
        let failed = outcome.rejected + outcome.stalled;
        println!(
            "  {}: committed {} -> {}, failed {} -> {}, unavail {} -> {} ticks",
            outcome.scenario,
            base.committed,
            outcome.committed,
            base.rejected + base.stalled,
            failed,
            base.unavail_ticks,
            outcome.unavail_ticks(),
        );
        if let (Some(before), now) = (base.wall_ms, outcome.elapsed_ms) {
            if before > 0.0 && now > 0.0 {
                let delta = now / before - 1.0;
                if delta.abs() > TIMING_REPORT_THRESHOLD {
                    let direction = if delta > 0.0 { "slower" } else { "faster" };
                    timing_warnings.push(format!(
                        "{}: {before:.1} ms -> {now:.1} ms ({:+.0}%, {direction})",
                        outcome.scenario,
                        delta * 100.0
                    ));
                }
            }
        }
        if !policy.gate_model {
            continue;
        }
        if outcome.requests != base.requests {
            violations.push(format!(
                "{}: request schedule changed {} -> {} (the workload is seed-deterministic; \
                 regenerate the baseline if the spec changed intentionally)",
                outcome.scenario, base.requests, outcome.requests
            ));
        }
        if falls_short(
            base.committed,
            outcome.committed,
            MAX_COMMIT_DROP,
            COUNT_SLACK,
        ) {
            violations.push(format!(
                "{}: committed dropped {} -> {} (limit {:.0}% + {COUNT_SLACK})",
                outcome.scenario,
                base.committed,
                outcome.committed,
                MAX_COMMIT_DROP * 100.0
            ));
        }
        let base_failed = base.rejected + base.stalled;
        if exceeds(base_failed, failed, MAX_FAILED_GROWTH, COUNT_SLACK) {
            violations.push(format!(
                "{}: failed requests grew {base_failed} -> {failed} (limit {:.0}% + {COUNT_SLACK})",
                outcome.scenario,
                MAX_FAILED_GROWTH * 100.0
            ));
        }
        if exceeds(
            base.unavail_ticks,
            outcome.unavail_ticks(),
            MAX_UNAVAIL_GROWTH,
            UNAVAIL_SLACK_TICKS,
        ) {
            violations.push(format!(
                "{}: unavailability grew {} -> {} ticks (limit {:.0}% + {UNAVAIL_SLACK_TICKS})",
                outcome.scenario,
                base.unavail_ticks,
                outcome.unavail_ticks(),
                MAX_UNAVAIL_GROWTH * 100.0
            ));
        }
        if exceeds(
            base.total_writes,
            outcome.total_writes,
            MAX_WRITE_REGRESSION,
            0,
        ) {
            violations.push(format!(
                "{}: total writes regressed {} -> {} (limit {:.0}%)",
                outcome.scenario,
                base.total_writes,
                outcome.total_writes,
                MAX_WRITE_REGRESSION * 100.0
            ));
        }
        // The drain SLO is absolute, not a trend: with a fail-fast bound
        // configured every request must terminate by `arrival + bound`,
        // so any breach fails the gate even if the baseline carried one.
        if outcome.stall_bound_breaches > 0 {
            violations.push(format!(
                "{}: {} request(s) outlived the stall bound (the ledger must drain to zero)",
                outcome.scenario, outcome.stall_bound_breaches
            ));
        }
    }
    if timing_warnings.is_empty() {
        println!(
            "  timing: all {compared} compared scenario(s) within ±{:.0}%",
            TIMING_REPORT_THRESHOLD * 100.0
        );
    } else {
        println!(
            "  timing: {} of {compared} compared scenario(s) beyond ±{:.0}%{}:",
            timing_warnings.len(),
            TIMING_REPORT_THRESHOLD * 100.0,
            if policy.strict_timing {
                " (strict: failing)"
            } else {
                " (warning; --strict-timing fails the run)"
            }
        );
        for warning in &timing_warnings {
            println!("    {warning}");
        }
        if policy.strict_timing {
            violations.extend(
                timing_warnings
                    .into_iter()
                    .map(|w| format!("timing (strict): {w}")),
            );
        }
    }
    for base in baseline {
        let filtered_out = only.is_some_and(|f| !base.scenario.contains(f));
        if !filtered_out && !outcomes.iter().any(|o| o.scenario == base.scenario) {
            println!("  baseline scenario no longer in suite: {}", base.scenario);
        }
    }
    violations
}

fn admits_filter(only: Option<&str>, name: &str) -> bool {
    only.is_none_or(|f| name.contains(f))
}

fn should_write_artifact(checking: bool, filtered: bool, explicit_out: bool) -> bool {
    explicit_out || (!checking && !filtered)
}

fn run_suite(backend: Backend, only: Option<&str>, workers: usize) -> (Table, Vec<ServiceOutcome>) {
    let mut table = Table::new(&[
        "scenario",
        "variant",
        "requests",
        "committed",
        "rejected",
        "stalled",
        "p50",
        "p99",
        "crashes",
        "unavail",
        "failed-in-window",
        "in-part-rej",
        "bound-breach",
        "stable",
    ]);
    let mut outcomes = Vec::new();
    for scenario in registry::all() {
        if !admits_filter(only, &scenario.name) {
            continue;
        }
        if let Some(why) = scenario.election.refusal(backend, workers) {
            println!("skipping {} on {} ({why})", scenario.name, backend.name());
            continue;
        }
        let outcome = run(backend, &scenario, workers);
        table.row(&[
            outcome.scenario.clone(),
            outcome.variant.name().to_string(),
            outcome.requests.to_string(),
            outcome.committed.to_string(),
            outcome.rejected.to_string(),
            outcome.stalled.to_string(),
            outcome.commit_p50.to_string(),
            outcome.commit_p99.to_string(),
            outcome.windows.len().to_string(),
            outcome.unavail_ticks().to_string(),
            (outcome.unavail_rejected() + outcome.unavail_stalled()).to_string(),
            outcome.in_partition_rejected.to_string(),
            outcome.stall_bound_breaches.to_string(),
            outcome.stabilized.to_string(),
        ]);
        outcomes.push(outcome);
    }
    (table, outcomes)
}

fn usage() -> ! {
    eprintln!(
        "usage: service [--driver sim|coop|threads] [--workers N] [--check BASELINE.json] [--strict-timing] [--only SUBSTRING] [--list]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut check_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut backend = Backend::Sim;
    let mut workers = 1usize;
    let mut strict_timing = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => usage(),
            },
            "--only" => match args.next() {
                Some(filter) => only = Some(filter),
                None => usage(),
            },
            "--driver" => match args.next().as_deref().and_then(parse_driver) {
                Some(parsed) => backend = parsed,
                None => usage(),
            },
            "--workers" => match args.next().and_then(|raw| raw.parse::<usize>().ok()) {
                Some(parsed) if parsed > 0 => workers = parsed,
                _ => usage(),
            },
            "--strict-timing" => strict_timing = true,
            "--list" => {
                let scenarios = registry::all();
                let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
                for scenario in &scenarios {
                    let eligible = scenario.election.eligible_drivers();
                    let mut drivers = vec!["sim"];
                    if eligible.coop {
                        drivers.push("coop");
                    }
                    if eligible.threads {
                        drivers.push("threads");
                    }
                    println!(
                        "{:width$}  [{}]  {} clients, {} crash(es)",
                        scenario.name,
                        drivers.join(" "),
                        scenario.workload.clients,
                        scenario.election.crashes.len(),
                    );
                }
                return;
            }
            _ => usage(),
        }
    }
    if check_path.is_some() && !gates_model_counters(backend) {
        println!(
            "note: {} outcomes are schedule-dependent — counters are reported only, the gate compares timing{}",
            backend.name(),
            if strict_timing {
                ""
            } else {
                " (and only warns without --strict-timing)"
            }
        );
    }

    if workers > 1 && backend != Backend::Coop {
        println!(
            "note: --workers only affects the coop backend; {} ignores it",
            backend.name()
        );
    }

    let (table, outcomes) = run_suite(backend, only.as_deref(), workers);
    if outcomes.is_empty() {
        eprintln!(
            "no service scenario matches --only {:?} on the {} backend; see --list",
            only.unwrap_or_default(),
            backend.name()
        );
        std::process::exit(2);
    }
    println!(
        "== service suite ({} scenarios, {} backend) ==",
        outcomes.len(),
        backend.name()
    );
    println!("{table}");

    let mut failover = String::new();
    for outcome in &outcomes {
        for window in &outcome.windows {
            let _ = writeln!(
                failover,
                "  {}: crash @{} -> healed {} ({} ticks; {} rejected, {} stalled inside)",
                outcome.scenario,
                window.crash_at,
                window
                    .healed_at
                    .map_or("never".to_string(), |t| format!("@{t}")),
                window.duration(outcome.horizon),
                window.rejected,
                window.stalled,
            );
        }
    }
    if !failover.is_empty() {
        println!("== failover unavailability ==");
        print!("{failover}");
    }

    let out_path = std::env::var("BENCH_OUT").ok();
    if should_write_artifact(check_path.is_some(), only.is_some(), out_path.is_some()) {
        let records: Vec<String> = outcomes.iter().map(ServiceOutcome::json_record).collect();
        let json = format!("[\n  {}\n]\n", records.join(",\n  "));
        let path = out_path.unwrap_or_else(|| match backend {
            Backend::Sim => "BENCH_service.json".into(),
            other => format!("BENCH_service.{}.json", other.name()),
        });
        std::fs::write(&path, &json).expect("write service outcomes JSON");
        println!("wrote {} records to {path}", records.len());
    } else if only.is_some() && check_path.is_none() {
        println!("partial run (--only): baseline not written; set BENCH_OUT to export");
    }

    if let Some(path) = check_path {
        let baseline = load_baseline(&path).unwrap_or_else(|summary| {
            eprintln!("gate FAILED: {summary}");
            std::process::exit(1);
        });
        println!(
            "== regression gate vs {path} ({} records) ==",
            baseline.len()
        );
        let policy = CheckPolicy {
            gate_model: gates_model_counters(backend),
            strict_timing,
        };
        let violations = check_against_baseline(&baseline, &outcomes, only.as_deref(), policy);
        if violations.is_empty() {
            if policy.gate_model {
                println!(
                    "gate PASSED: committed within -{:.0}%, failed within +{:.0}%, unavailability within +{:.0}% + {UNAVAIL_SLACK_TICKS} ticks, writes within +{:.0}%",
                    MAX_COMMIT_DROP * 100.0,
                    MAX_FAILED_GROWTH * 100.0,
                    MAX_UNAVAIL_GROWTH * 100.0,
                    MAX_WRITE_REGRESSION * 100.0,
                );
            } else {
                println!(
                    "gate PASSED: {} timing within ±{:.0}% of baseline{}",
                    backend.name(),
                    TIMING_REPORT_THRESHOLD * 100.0,
                    if policy.strict_timing {
                        ""
                    } else {
                        " (advisory without --strict-timing)"
                    }
                );
            }
            return;
        }
        eprintln!("gate FAILED:");
        for violation in &violations {
            eprintln!("  {violation}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"scenario":"failover/alg1","backend":"sim","variant":"alg1-fig2","n":5,"requests":3200,"committed":3000,"rejected":120,"stalled":80,"inflight":0,"commit_p50":40,"commit_p95":90,"commit_p99":400,"commit_max":5000,"crashes":1,"unavail_ticks":2600,"unavail_rejected":100,"unavail_stalled":80,"stabilized":true,"total_writes":60000,"log_slots":300,"wall_ms":15.250}
]
"#;

    fn base() -> BaselineRecord {
        parse_baseline(SAMPLE).unwrap().remove(0)
    }

    fn outcome_like(base: &BaselineRecord) -> ServiceOutcome {
        let scenario = registry::by_name(&base.scenario).unwrap();
        let ledger = omega_service::Ledger::new(Vec::new(), scenario.election.n);
        let mut outcome = ServiceOutcome::assemble(
            "sim",
            &scenario,
            &ledger,
            &[],
            true,
            base.total_writes,
            0,
            1.0,
        );
        outcome.requests = base.requests;
        outcome.committed = base.committed;
        outcome.rejected = base.rejected;
        outcome.stalled = base.stalled;
        outcome
    }

    #[test]
    fn parses_own_format() {
        let record = base();
        assert_eq!(record.scenario, "failover/alg1");
        assert_eq!(record.backend.as_deref(), Some("sim"));
        assert_eq!(record.requests, 3200);
        assert_eq!(record.committed, 3000);
        assert_eq!(record.unavail_ticks, 2600);
        assert_eq!(record.wall_ms, Some(15.25));
    }

    #[test]
    fn load_baseline_reports_each_failure_as_one_summary_line() {
        let missing = load_baseline("/nonexistent/BENCH_service.json").unwrap_err();
        assert!(missing.contains("unreadable"), "got: {missing}");
        assert!(!missing.contains('\n'), "one line, got: {missing}");

        let dir = std::env::temp_dir().join(format!("omega-svc-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let broken = dir.join("broken.json");
        std::fs::write(&broken, "[\n  {\"scenario\":\"a\"}\n]\n").unwrap();
        let err = load_baseline(broken.to_str().unwrap()).unwrap_err();
        assert!(err.contains("unparseable"), "got: {err}");

        let empty = dir.join("empty.json");
        std::fs::write(&empty, "[\n]\n").unwrap();
        let err = load_baseline(empty.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no records"), "got: {err}");

        let good = dir.join("good.json");
        std::fs::write(&good, SAMPLE).unwrap();
        assert_eq!(load_baseline(good.to_str().unwrap()).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_records_round_trip() {
        let scenario = registry::by_name("steady/alg1").unwrap();
        let outcome = ServiceSimDriver.run(&scenario);
        let parsed = parse_baseline(&format!("[\n  {}\n]\n", outcome.json_record())).unwrap();
        assert_eq!(parsed[0].scenario, "steady/alg1");
        assert_eq!(parsed[0].requests, outcome.requests);
        assert_eq!(parsed[0].committed, outcome.committed);
        assert_eq!(parsed[0].total_writes, outcome.total_writes);
        assert_eq!(parsed[0].stall_bound_breaches, Some(0));
        assert!(parsed[0].wall_ms.is_some());
    }

    #[test]
    fn unchanged_run_passes_the_gate() {
        let record = base();
        let outcome = outcome_like(&record);
        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let violations = check_against_baseline(&[record], &[outcome], None, policy);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn committed_drop_and_unavail_growth_fail_the_gate() {
        let record = base();
        let mut outcome = outcome_like(&record);
        outcome.committed = 2500; // > 5% + 5 drop
        outcome.windows = vec![omega_service::UnavailWindow {
            crash_at: 20_000,
            healed_at: Some(26_000), // 6 000 ticks > 2 600 × 1.25 + 500
            rejected: 0,
            stalled: 0,
        }];
        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let violations = check_against_baseline(&[record], &[outcome], None, policy);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations[0].contains("committed dropped"),
            "{violations:?}"
        );
        assert!(
            violations[1].contains("unavailability grew"),
            "{violations:?}"
        );
    }

    #[test]
    fn a_stall_bound_breach_fails_the_gate_absolutely() {
        // Pre-bound baselines carry no breach field, and it would not
        // matter if they did: the drain SLO is zero, not a trend.
        let record = base();
        assert_eq!(record.stall_bound_breaches, None);
        let mut outcome = outcome_like(&record);
        outcome.stall_bound_breaches = 3;
        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let violations = check_against_baseline(&[record], &[outcome], None, policy);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("outlived the stall bound"),
            "{violations:?}"
        );
    }

    #[test]
    fn request_schedule_change_is_flagged() {
        let record = base();
        let mut outcome = outcome_like(&record);
        outcome.requests += 1;
        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let violations = check_against_baseline(&[record], &[outcome], None, policy);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("request schedule changed"));
    }

    #[test]
    fn wall_clock_checks_gate_timing_only() {
        let record = base();
        let mut outcome = outcome_like(&record);
        outcome.committed = 0; // would fail every model gate
        outcome.elapsed_ms = record.wall_ms.unwrap() * 10.0;
        let advisory = CheckPolicy {
            gate_model: false,
            strict_timing: false,
        };
        assert!(
            check_against_baseline(
                std::slice::from_ref(&record),
                std::slice::from_ref(&outcome),
                None,
                advisory
            )
            .is_empty(),
            "wall-clock checks are advisory without --strict-timing"
        );
        let strict = CheckPolicy {
            gate_model: false,
            strict_timing: true,
        };
        let violations = check_against_baseline(&[record], &[outcome], None, strict);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("timing (strict)"), "{violations:?}");
    }

    #[test]
    fn backend_mismatch_is_a_violation() {
        let mut record = base();
        record.backend = Some("coop".into());
        let outcome = outcome_like(&base());
        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let violations = check_against_baseline(&[record], &[outcome], None, policy);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("recorded by the coop backend"));
    }

    #[test]
    fn malformed_record_is_a_hard_error() {
        let broken = "[\n  {\"scenario\":\"a\",\"committed\":oops}\n]\n";
        assert!(parse_baseline(broken).unwrap_err().contains("unparseable"));
    }

    #[test]
    fn slack_helpers_cover_both_directions() {
        assert!(!exceeds(100, 125, 0.25, 0));
        assert!(exceeds(100, 126, 0.25, 0));
        assert!(!exceeds(100, 130, 0.25, 5));
        assert!(!falls_short(100, 95, 0.05, 0));
        assert!(falls_short(100, 94, 0.05, 0));
        assert!(!falls_short(100, 90, 0.05, 5));
        assert!(!exceeds(0, 5, 0.25, 5), "zero baselines keep the slack");
    }

    #[test]
    fn artifact_write_policy_matches_the_scenarios_bin() {
        assert!(should_write_artifact(false, false, false));
        assert!(!should_write_artifact(false, true, false));
        assert!(!should_write_artifact(true, false, false));
        assert!(should_write_artifact(true, false, true));
        assert!(should_write_artifact(false, true, true));
    }

    #[test]
    fn every_backend_name_parses_back() {
        for backend in [Backend::Sim, Backend::Coop, Backend::Threads] {
            assert_eq!(parse_driver(backend.name()), Some(backend));
        }
        assert_eq!(parse_driver("san"), None, "no disk substrate for the KV");
    }

    #[test]
    fn registry_scenarios_all_admit_sim_and_coop() {
        for scenario in registry::all() {
            for backend in [Backend::Sim, Backend::Coop, Backend::Threads] {
                let refusal = scenario.election.refusal(backend, 1);
                assert_eq!(refusal, None, "{} on {}", scenario.name, backend.name());
            }
        }
    }
}
