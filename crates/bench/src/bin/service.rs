//! Service-suite benchmark: the leader-gated replicated KV under open-loop
//! client load, reporting failover unavailability as the headline SLO
//! (`BENCH_service.json` on the simulator). Modes, flags, the artifact
//! rule and the `--check` gate are the suite harness's
//! ([`omega_bench::suite`]); `--driver` takes `sim`, `threads` or `coop`
//! (there is no disk substrate for the KV).
//!
//! * **Thresholds.** On the simulator every gated field is deterministic,
//!   so the gate fails on: a changed request schedule, a committed-count
//!   drop beyond 5 % + 5 requests, a failed-request (rejected + stalled)
//!   growth beyond 25 % + 5, an unavailability growth beyond 25 % + 500
//!   ticks, a total-write growth beyond 15 %, and any request that
//!   outlived the workload's stall bound (the drain SLO is zero, never a
//!   trend).
//! * **Tables.** The outcome table, then one line per failover window:
//!   crash tick, heal tick, and the requests refused or stalled inside.

use std::fmt::Write as _;

use omega_bench::suite::{Gate, Options, Rule, Suite};
use omega_bench::table::Table;
use omega_scenario::Backend;
use omega_service::{
    registry, ServiceOutcome, ServiceScenario, ServiceSimDriver, ServiceWallDriver,
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

const SUITE: Suite = Suite {
    name: "service",
    drivers: &[Backend::Sim, Backend::Threads, Backend::Coop],
    required: &[
        "requests",
        "committed",
        "rejected+stalled",
        "unavail_ticks",
        "total_writes",
    ],
    gates: &[
        Gate("requests", Rule::Exact),
        Gate("committed", Rule::Drop(MAX_COMMIT_DROP, COUNT_SLACK)),
        Gate(
            "rejected+stalled",
            Rule::Growth(MAX_FAILED_GROWTH, COUNT_SLACK),
        ),
        Gate(
            "unavail_ticks",
            Rule::Growth(MAX_UNAVAIL_GROWTH, UNAVAIL_SLACK_TICKS),
        ),
        Gate("total_writes", Rule::Growth(MAX_WRITE_REGRESSION, 0)),
        Gate("stall_bound_breaches", Rule::ZeroNow),
    ],
    timing: "wall_ms",
};

fn run(backend: Backend, scenario: &ServiceScenario, workers: usize) -> ServiceOutcome {
    match backend {
        Backend::Sim => ServiceSimDriver.run(scenario),
        wall => ServiceWallDriver::new(wall, workers).run(scenario),
    }
}

fn run_suite(o: &Options) -> (Table, Vec<ServiceOutcome>) {
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
        if !o.takes(&scenario.name, &scenario.election, o.workers) {
            continue;
        }
        let outcome = run(o.backend, &scenario, o.workers);
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

fn list() {
    let scenarios = registry::all();
    let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for scenario in &scenarios {
        let drivers: Vec<&str> = (SUITE.drivers.iter())
            .filter(|&&backend| scenario.election.refusal(backend, 1).is_none())
            .map(|backend| backend.name())
            .collect();
        println!(
            "{:width$}  [{}]  {} clients, {} crash(es)",
            scenario.name,
            drivers.join(" "),
            scenario.workload.clients,
            scenario.election.crashes.len(),
        );
    }
}

fn main() {
    let opts = SUITE.options_from_env();
    if opts.list {
        return list();
    }
    let (table, outcomes) = run_suite(&opts);
    SUITE.announce(&opts, outcomes.len());
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

    let records: Vec<String> = outcomes.iter().map(ServiceOutcome::json_record).collect();
    SUITE.finish(&opts, &records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_bench::suite::should_write_artifact;
    use omega_scenario::record::{self, Record};

    const SAMPLE: &str = r#"[
  {"scenario":"failover/alg1","backend":"sim","variant":"alg1-fig2","n":5,"requests":3200,"committed":3000,"rejected":120,"stalled":80,"inflight":0,"commit_p50":40,"commit_p95":90,"commit_p99":400,"commit_max":5000,"crashes":1,"unavail_ticks":2600,"unavail_rejected":100,"unavail_stalled":80,"stabilized":true,"total_writes":60000,"log_slots":300,"wall_ms":15.250}
]
"#;

    /// The options of a suite run with these flags.
    fn opts(flags: &[&str]) -> Options {
        SUITE.options(flags.iter().map(|f| f.to_string())).unwrap()
    }

    fn base() -> Record {
        SUITE.parse_baseline(SAMPLE).unwrap().remove(0)
    }

    /// The record of `outcome`, read back the way the gate reads it.
    fn rec(outcome: &ServiceOutcome) -> Record {
        record::parse(&outcome.json_record()).unwrap()
    }

    fn outcome_like(base: &Record) -> ServiceOutcome {
        let count = |key| base.u64(key).unwrap();
        let scenario = registry::by_name(base.str("scenario").unwrap()).unwrap();
        let ledger = omega_service::Ledger::new(Vec::new(), scenario.election.n);
        let mut outcome = ServiceOutcome::assemble(
            "sim",
            &scenario,
            &ledger,
            &[],
            true,
            count("total_writes"),
            0,
            1.0,
        );
        outcome.requests = count("requests");
        outcome.committed = count("committed");
        outcome.rejected = count("rejected");
        outcome.stalled = count("stalled");
        outcome
    }

    #[test]
    fn parses_own_format() {
        let record = base();
        assert_eq!(record.str("scenario"), Some("failover/alg1"));
        assert_eq!(record.str("backend"), Some("sim"));
        assert_eq!(record.u64("requests"), Some(3200));
        assert_eq!(record.u64("committed"), Some(3000));
        assert_eq!(record.u64("unavail_ticks"), Some(2600));
        assert_eq!(record.f64("wall_ms"), Some(15.25));
    }

    #[test]
    fn load_baseline_reports_each_failure_as_one_summary_line() {
        let missing = SUITE
            .load_baseline("/nonexistent/BENCH_service.json")
            .unwrap_err();
        assert!(missing.contains("unreadable"), "got: {missing}");
        assert!(!missing.contains('\n'), "one line, got: {missing}");

        let dir = std::env::temp_dir().join(format!("omega-svc-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let broken = dir.join("broken.json");
        std::fs::write(&broken, "[\n  {\"scenario\":\"a\"}\n]\n").unwrap();
        let err = SUITE.load_baseline(broken.to_str().unwrap()).unwrap_err();
        assert!(err.contains("unparseable"), "got: {err}");
        assert!(err.contains("line 2: "), "names the line, got: {err}");

        let empty = dir.join("empty.json");
        std::fs::write(&empty, "[\n]\n").unwrap();
        let err = SUITE.load_baseline(empty.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no records"), "got: {err}");

        let good = dir.join("good.json");
        std::fs::write(&good, SAMPLE).unwrap();
        assert_eq!(
            SUITE.load_baseline(good.to_str().unwrap()).unwrap().len(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_records_round_trip() {
        let scenario = registry::by_name("steady/alg1").unwrap();
        let outcome = ServiceSimDriver.run(&scenario);
        let line = format!("[\n  {}\n]\n", outcome.json_record());
        let parsed = SUITE.parse_baseline(&line).unwrap();
        assert_eq!(parsed[0].str("scenario"), Some("steady/alg1"));
        assert_eq!(parsed[0].u64("requests"), Some(outcome.requests));
        assert_eq!(parsed[0].u64("committed"), Some(outcome.committed));
        assert_eq!(parsed[0].u64("total_writes"), Some(outcome.total_writes));
        assert_eq!(parsed[0].u64("stall_bound_breaches"), Some(0));
        assert!(parsed[0].f64("wall_ms").is_some());
        assert!(SUITE.gate(&parsed, &[rec(&outcome)], &opts(&[])).is_empty());
    }

    #[test]
    fn unchanged_run_passes_the_gate() {
        let record = base();
        let outcome = outcome_like(&record);
        let violations = SUITE.gate(&[record], &[rec(&outcome)], &opts(&[]));
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
        let violations = SUITE.gate(&[record], &[rec(&outcome)], &opts(&[]));
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations[0].contains("committed dropped 3000 -> 2500, not within -5% - 5"),
            "{violations:?}"
        );
        assert!(
            violations[1].contains("unavail_ticks grew 2600 -> 6000"),
            "{violations:?}"
        );
    }

    #[test]
    fn a_stall_bound_breach_fails_the_gate_absolutely() {
        // Pre-bound baselines carry no breach field, and it would not
        // matter if they did: the drain SLO is zero, not a trend.
        let record = base();
        assert_eq!(record.u64("stall_bound_breaches"), None);
        let mut outcome = outcome_like(&record);
        outcome.stall_bound_breaches = 3;
        let violations = SUITE.gate(&[record], &[rec(&outcome)], &opts(&[]));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("stall_bound_breaches read 3, must be zero"),
            "{violations:?}"
        );
    }

    #[test]
    fn request_schedule_change_is_flagged() {
        let record = base();
        let mut outcome = outcome_like(&record);
        outcome.requests += 1;
        let violations = SUITE.gate(&[record], &[rec(&outcome)], &opts(&[]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("requests changed 3200 -> 3201"));
    }

    #[test]
    fn wall_clock_checks_gate_timing_only() {
        let record = base();
        let mut outcome = outcome_like(&record);
        outcome.committed = 0; // would fail every model gate
        outcome.elapsed_ms = record.f64("wall_ms").unwrap() * 10.0;
        let (record, now) = ([record], [rec(&outcome)]);
        let advisory = opts(&["--driver", "coop"]);
        assert!(
            SUITE.gate(&record, &now, &advisory).is_empty(),
            "wall-clock checks are advisory without --strict-timing"
        );
        let strict = opts(&["--driver", "coop", "--strict-timing"]);
        let violations = SUITE.gate(&record, &now, &strict);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("timing (strict)"), "{violations:?}");
    }

    #[test]
    fn backend_mismatch_is_a_violation() {
        let record = base();
        let mut outcome = outcome_like(&record);
        outcome.backend = "coop";
        let violations = SUITE.gate(&[record], &[rec(&outcome)], &opts(&[]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("recorded by the sim backend, this run used coop"));
        assert!(violations[0].contains("BENCH_service artifact"));
    }

    #[test]
    fn malformed_record_is_a_hard_error() {
        let broken = "[\n  {\"scenario\":\"a\",\"committed\":oops}\n]\n";
        let err = SUITE.parse_baseline(broken).unwrap_err();
        assert!(
            err.contains("unparseable") && err.starts_with("line 2: "),
            "{err}"
        );
    }

    #[test]
    fn slack_helpers_cover_both_directions() {
        let grows = |rel, abs, base, now| Rule::Growth(rel, abs).violation(Some(base), Some(now));
        let drops = |rel, abs, base, now| Rule::Drop(rel, abs).violation(Some(base), Some(now));
        assert!(grows(0.25, 0, 100, 125).is_none());
        assert!(grows(0.25, 0, 100, 126).is_some());
        assert!(grows(0.25, 5, 100, 130).is_none());
        assert!(drops(0.05, 0, 100, 95).is_none());
        assert!(drops(0.05, 0, 100, 94).is_some());
        assert!(drops(0.05, 5, 100, 90).is_none());
        assert!(
            grows(0.25, 5, 0, 5).is_none(),
            "zero baselines keep the slack"
        );
        assert!(grows(0.25, 5, 0, 6).is_some(), "…and only the slack");
    }

    #[test]
    fn names_from_any_alphabet_round_trip_and_gate_clean() {
        // The service twin of the scenarios bin's test: any name comes back
        // unchanged, passes against its own record, and is compared.
        let alphabet = [
            ',', '}', '{', ':', '"', '\\', '\t', '\n', ' ', 'é', '€', '🦀',
        ];
        let mut names: Vec<String> = alphabet
            .iter()
            .flat_map(|a| alphabet.iter().map(move |b| format!("{a}x{b}")))
            .collect();
        names.extend(["a,b", "x}y", "tab\there", "\"committed\":1,"].map(String::from));
        names.push(alphabet.iter().collect());
        let template = outcome_like(&base());
        for name in names {
            let mut outcome = template.clone();
            outcome.scenario = name.clone();
            let line = format!("[\n  {}\n]\n", outcome.json_record());
            let baseline = SUITE.parse_baseline(&line).unwrap();
            assert_eq!(baseline[0].str("scenario"), Some(name.as_str()));
            assert!(
                SUITE
                    .gate(&baseline, &[rec(&outcome)], &opts(&[]))
                    .is_empty(),
                "{name:?}"
            );
            outcome.committed = 0;
            let violations = SUITE.gate(&baseline, &[rec(&outcome)], &opts(&[]));
            assert_eq!(violations.len(), 1, "{name:?}: {violations:?}");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_the_committed_baseline_is_read_or_refused() {
        let committed = include_str!("../../../../BENCH_service.json");
        assert!(SUITE.parse_baseline(committed).unwrap().len() >= 9);
        for (i, line) in committed.lines().enumerate() {
            let read_or_refused = |text: &str| {
                let numbered = format!("{}{text}", "\n".repeat(i));
                let result = SUITE.parse_baseline(&numbered);
                if let Err(e) = &result {
                    let named = [i + 1, i + 2]
                        .iter()
                        .any(|n| e.starts_with(&format!("line {n}: ")));
                    assert!(named && !e.contains('\n'), "{e}");
                }
                result.is_ok()
            };
            let body = line.trim().trim_end_matches(',');
            for cut in (0..line.len()).filter(|&k| line.is_char_boundary(k)) {
                let prefix = &line[..cut];
                let proper = !prefix.trim().is_empty() && prefix.trim().len() < body.len();
                assert!(!(read_or_refused(prefix) && proper), "accepted {prefix:?}");
            }
            let mut bytes = line.as_bytes().to_vec();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    if let Ok(text) = std::str::from_utf8(&bytes) {
                        read_or_refused(text);
                    }
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn artifact_write_policy_matches_the_scenarios_bin() {
        assert!(should_write_artifact(false, false, false));
        assert!(!should_write_artifact(false, true, false));
        assert!(!should_write_artifact(true, false, false));
        assert!(should_write_artifact(true, false, true));
        assert!(should_write_artifact(false, true, true));
        assert_eq!(SUITE.artifact_path(Backend::Sim), "BENCH_service.json");
        assert_eq!(
            SUITE.artifact_path(Backend::Coop),
            "BENCH_service.coop.json"
        );
    }

    #[test]
    fn every_backend_name_parses_back() {
        let driver = |name: &str| {
            SUITE
                .options(["--driver", name].map(String::from))
                .map(|o| o.backend)
        };
        for &backend in SUITE.drivers {
            assert_eq!(driver(backend.name()), Some(backend));
        }
        assert_eq!(driver("san"), None, "no disk substrate for the KV");
    }

    #[test]
    fn registry_scenarios_all_admit_sim_and_coop() {
        for scenario in registry::all() {
            for &backend in SUITE.drivers {
                let refusal = scenario.election.refusal(backend, 1);
                assert_eq!(refusal, None, "{} on {}", scenario.name, backend.name());
            }
        }
    }
}
