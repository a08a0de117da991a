//! Scenario-suite benchmark: every election registry scenario on a chosen
//! backend, with a machine-readable JSON artifact for perf trajectories
//! (`BENCH_scenarios.json` on the simulator). Modes, flags, the artifact
//! rule and the `--check` gate are the suite harness's
//! ([`omega_bench::suite`]); this bin adds what is its own.
//!
//! * **Thresholds.** The sim gate fails on a stabilization-tick growth
//!   above 25 %, on a run that stabilized in the baseline and no longer
//!   does, on a total-write growth above 15 %, and on the non-election
//!   witness of every `expect = false` record: any false-stable tick, or
//!   demotions / max streak that differ from the committed record.
//! * **Tables.** Besides the outcome table (with the SAN block footprint),
//!   a throughput table: elapsed ms, events/s and reads/s per scenario.
//! * **The coop worker sweep.** Every full coop run (record or check)
//!   appends `n-scaling-128` re-run at pool sizes 1, 2, 4, 8 under the
//!   names `coop/workers=<w>`, so the committed coop baseline shows where
//!   the scaling knee sits. `--list` names the pool that would admit a
//!   scenario the single-worker default refuses.

use omega_bench::suite::{Gate, Options, Rule, Suite};
use omega_bench::table::Table;
use omega_scenario::{
    registry, Backend, Driver, Outcome, Scenario, SimDriver, WallDriver, COOP_NODES_PER_WORKER,
};

/// Allowed relative growth of `stabilization_ticks` before the gate fails.
const MAX_STABILIZATION_REGRESSION: f64 = 0.25;
/// Allowed relative growth of `total_writes` before the gate fails.
const MAX_WRITE_REGRESSION: f64 = 0.15;

const SUITE: Suite = Suite {
    name: "scenarios",
    drivers: &Backend::ALL,
    required: &["stabilization_ticks", "total_writes", "total_reads"],
    gates: &[
        Gate(
            "stabilization_ticks",
            Rule::Growth(MAX_STABILIZATION_REGRESSION, 0),
        ),
        Gate("stabilization_ticks", Rule::Lost),
        Gate("total_writes", Rule::Growth(MAX_WRITE_REGRESSION, 0)),
        Gate("witness_false_stable_ticks", Rule::ZeroNow),
        Gate("witness_demotions", Rule::Exact),
        Gate("witness_max_stable_streak_ticks", Rule::Exact),
    ],
    timing: "elapsed_ms",
};

fn run(backend: Backend, scenario: &Scenario, workers: usize) -> Outcome {
    match backend {
        Backend::Sim => SimDriver.run(scenario),
        wall => WallDriver::new(wall, workers).run(scenario),
    }
}

/// The pool sizes of the `coop/workers=` sweep: `n-scaling-128` once per
/// size, recorded under the sweep's own scenario names so the committed
/// coop baseline shows the scaling knee.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn run_suite(o: &Options) -> (Table, Vec<Outcome>) {
    let mut table = Table::new(&[
        "scenario",
        "variant",
        "n",
        "expects",
        "stabilized",
        "stab tick",
        "writes",
        "reads",
        "skipped",
        "hwm bits",
        "blk acc",
        "disk ms",
    ]);
    let mut outcomes = Vec::new();
    let mut suite = registry::all();
    // The worker sweep rides along on every full coop run (record *and*
    // check, so the nightly gate diffs it too): the same n = 128 probe at
    // each pool size, under the sweep's own scenario names. A `--only`
    // run skips it — the sweep is a suite-level artifact, not a scenario.
    if o.backend == Backend::Coop && o.only.is_none() {
        suite.extend(WORKER_SWEEP.iter().map(|&w| {
            registry::n_scaling(&[128])
                .pop()
                .expect("n-scaling family builds")
                .named(format!("coop/workers={w}"))
        }));
    }
    for scenario in suite {
        let sweep = scenario.name.strip_prefix("coop/workers=");
        let workers = sweep.and_then(|w| w.parse().ok()).unwrap_or(o.workers);
        if !o.takes(&scenario.name, &scenario, workers) {
            continue;
        }
        let outcome = run(o.backend, &scenario, workers);
        if scenario.expect_stabilization {
            outcome.assert_election();
        } else {
            // A final-sample coincidence may masquerade as agreement; the
            // necessity claim is that no *durable* stabilization exists.
            assert!(
                !outcome.stabilized_for(0.34),
                "{}: AWB-violating scenario stabilized anyway",
                scenario.name
            );
        }
        table.row(&[
            scenario.name.clone(),
            outcome.variant.name().to_string(),
            outcome.n.to_string(),
            scenario.expect_stabilization.to_string(),
            outcome.stabilized.to_string(),
            outcome
                .stabilization_ticks
                .map_or("-".into(), |t| t.to_string()),
            outcome.total_writes().to_string(),
            outcome.total_reads().to_string(),
            outcome.reads_skipped.to_string(),
            outcome.hwm_bits.to_string(),
            outcome
                .san
                .map_or("-".into(), |s| s.block_accesses.to_string()),
            outcome
                .san
                .map_or("-".into(), |s| format!("{:.1}", s.service_time_ms)),
        ]);
        outcomes.push(outcome);
    }
    (table, outcomes)
}

/// The wall-clock view of a suite run: how long each scenario took and how
/// fast the engine retired events — the numbers the tentpole optimizations
/// are judged by.
fn throughput_table(outcomes: &[Outcome]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "n",
        "workers",
        "elapsed ms",
        "events/sec",
        "reads/sec",
    ]);
    for outcome in outcomes {
        let secs = outcome.elapsed_ms / 1e3;
        let reads_per_sec = if secs > 0.0 {
            outcome.total_reads() as f64 / secs
        } else {
            0.0
        };
        table.row(&[
            outcome.scenario.clone(),
            outcome.n.to_string(),
            outcome.workers.map_or("-".into(), |w| w.to_string()),
            format!("{:.1}", outcome.elapsed_ms),
            format!("{:.0}", outcome.events_per_sec),
            format!("{reads_per_sec:.0}"),
        ]);
    }
    table
}

/// Name + expected outcome + the drivers that admit the scenario, so both
/// the expectation axis (elect / no-elect) and the driver-axis table are
/// discoverable from the CLI. Coop's cap is worker-dependent: a scenario
/// refused at the single-worker default but admitted by a larger pool is
/// listed with the pool that admits it.
fn list() {
    let scenarios = registry::all();
    let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for scenario in &scenarios {
        let admits = |backend, workers| scenario.refusal(backend, workers).is_none();
        let mut names: Vec<String> = (Backend::ALL.into_iter())
            .filter(|&backend| admits(backend, 1))
            .map(|backend| backend.name().to_string())
            .collect();
        let needed = scenario.n.div_ceil(COOP_NODES_PER_WORKER);
        if !admits(Backend::Coop, 1) && admits(Backend::Coop, needed) {
            names.push(format!("coop(--workers {needed})"));
        }
        let expect = if scenario.expect_stabilization {
            "elect"
        } else {
            "no-elect"
        };
        println!(
            "{:width$}  {expect:8}  [{}]",
            scenario.name,
            names.join(" ")
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
    println!("== throughput ==");
    println!("{}", throughput_table(&outcomes));
    let records: Vec<String> = outcomes.iter().map(Outcome::json_record).collect();
    SUITE.finish(&opts, &records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_bench::suite::{admits, should_write_artifact, timing_delta};
    use omega_scenario::record::{self, Record};

    const SAMPLE: &str = r#"[
  {"scenario":"a","backend":"sim","stabilization_ticks":1000,"total_writes":500,"total_reads":9000,"elapsed_ms":125.50},
  {"scenario":"no-stab","backend":"sim","stabilization_ticks":null,"total_writes":100,"total_reads":50}
]
"#;

    /// The options of a suite run with these flags.
    fn opts(flags: &[&str]) -> Options {
        SUITE.options(flags.iter().map(|f| f.to_string())).unwrap()
    }

    /// The record of `outcome`, read back the way the gate reads it.
    fn rec(outcome: &Outcome) -> Record {
        record::parse(&outcome.json_record()).unwrap()
    }

    /// `records` as a baseline file.
    fn baseline_of(records: &[String]) -> Vec<Record> {
        SUITE
            .parse_baseline(&format!("[\n  {}\n]\n", records.join(",\n  ")))
            .unwrap()
    }

    #[test]
    fn parses_own_format() {
        let records = SUITE.parse_baseline(SAMPLE).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].str("scenario"), Some("a"));
        assert_eq!(records[0].u64("stabilization_ticks"), Some(1000));
        assert_eq!(records[0].u64("total_writes"), Some(500));
        assert_eq!(records[0].f64("elapsed_ms"), Some(125.5));
        assert_eq!(records[1].u64("stabilization_ticks"), None);
        assert_eq!(
            records[1].f64("elapsed_ms"),
            None,
            "pre-timing records parse with no timing trend"
        );
    }

    #[test]
    fn load_baseline_reports_each_failure_as_one_summary_line() {
        let missing = SUITE
            .load_baseline("/nonexistent/BENCH_scenarios.json")
            .unwrap_err();
        assert!(missing.contains("unreadable"), "got: {missing}");
        assert!(!missing.contains('\n'), "one line, got: {missing}");

        let dir = std::env::temp_dir().join(format!("omega-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let broken = dir.join("broken.json");
        std::fs::write(&broken, "[\n  {\"scenario\":\"a\"}\n]\n").unwrap();
        let err = SUITE.load_baseline(broken.to_str().unwrap()).unwrap_err();
        assert!(err.contains("unparseable"), "got: {err}");
        assert!(err.contains("line 2: "), "names the line, got: {err}");
        assert!(
            err.contains("`stabilization_ticks`"),
            "names the field: {err}"
        );
        assert!(!err.contains('\n'), "one line, got: {err}");

        let empty = dir.join("empty.json");
        std::fs::write(&empty, "[\n]\n").unwrap();
        let err = SUITE.load_baseline(empty.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no records"), "got: {err}");

        let good = dir.join("good.json");
        std::fs::write(&good, SAMPLE).unwrap();
        assert_eq!(
            SUITE.load_baseline(good.to_str().unwrap()).unwrap().len(),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tolerates_json_fields_the_struct_does_not_know() {
        // Forward compatibility: a *newer* tool may write fields this
        // binary has never heard of; they must be skipped, not rejected.
        let futuristic = "[\n  {\"scenario\":\"a\",\"stabilization_ticks\":10,\"total_writes\":5,\"total_reads\":7,\"cache_misses\":12345,\"elapsed_ms\":3.25,\"p99_us\":17,\"tags\":\"x,y\"}\n]\n";
        let records = SUITE.parse_baseline(futuristic).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].u64("total_writes"), Some(5));
        assert_eq!(records[0].f64("elapsed_ms"), Some(3.25));
    }

    #[test]
    fn tolerates_struct_fields_the_json_lacks() {
        // Backward compatibility: an *older* baseline lacks the optional
        // timing and witness fields entirely; everything required still
        // parses, the timing comparison reports no trend, and the witness
        // has nothing to be exact against.
        let legacy = "[\n  {\"scenario\":\"a\",\"stabilization_ticks\":10,\"total_writes\":5,\"total_reads\":7}\n]\n";
        let records = SUITE.parse_baseline(legacy).unwrap();
        assert_eq!(records[0].f64("elapsed_ms"), None);
        assert_eq!(timing_delta(records[0].f64("elapsed_ms"), Some(3.0)), None);
        let mut now = sample_outcome();
        now.scenario = "a".into();
        now.stabilization_ticks = Some(10);
        now.writes = vec![5, 0];
        now.witness = Some(omega_scenario::NonElectionWitness {
            window_from: 0,
            window_until: 10,
            demotions: 3,
            max_stable_streak_ticks: 1,
            false_stable_ticks: 0,
        });
        assert!(SUITE.gate(&records, &[rec(&now)], &opts(&[])).is_empty());
    }

    #[test]
    fn san_block_footprint_fields_round_trip() {
        // A record written from a SAN outcome must parse its block
        // footprint back; sim records (no `san_*` fields) must keep
        // parsing with no SAN trend. Exercised against a real record from
        // each backend below.
        let san_line = "[\n  {\"scenario\":\"s\",\"stabilization_ticks\":10,\"total_writes\":5,\"total_reads\":7,\"san_blocks_mapped\":24,\"san_blocks_touched\":20,\"san_block_accesses\":991,\"san_service_ms\":12.50}\n]\n";
        let records = SUITE.parse_baseline(san_line).unwrap();
        assert_eq!(records[0].u64("san_block_accesses"), Some(991));
        assert_eq!(records[0].u64("san_blocks_touched"), Some(20));
    }

    #[test]
    fn json_record_carries_san_fields_exactly_for_the_san_backend() {
        let scenario = Scenario::fault_free(omega_core::OmegaVariant::Alg1, 2)
            .named("san-sample")
            .horizon(40_000);
        let outcome = WallDriver::new(Backend::San, 1).run(&scenario);
        let san = outcome.san.expect("san backend reports block footprint");
        let record = outcome.json_record();
        assert!(record.contains("\"san_blocks_mapped\":"), "{record}");
        let parsed = baseline_of(&[record]);
        assert_eq!(
            parsed[0].u64("san_block_accesses"),
            Some(san.block_accesses)
        );
        assert_eq!(
            parsed[0].u64("san_blocks_touched"),
            Some(san.blocks_touched)
        );

        // And a sim outcome of the same scenario writes none of them.
        let sim_record = sample_outcome().json_record();
        assert!(!sim_record.contains("san_"), "{sim_record}");
        let sim_parsed = baseline_of(&[sim_record]);
        assert_eq!(sim_parsed[0].u64("san_block_accesses"), None);
    }

    #[test]
    fn chaos_records_round_trip_through_the_baseline_parser() {
        // A campaign outcome writes the per-phase chaos counters; the
        // baseline parser (which gates none of them yet) must keep parsing
        // the record's gated fields around them.
        let scenario = registry::named("chaos/partition-heal").unwrap();
        let outcome = SimDriver.run(&scenario);
        let record = outcome.json_record();
        assert!(record.contains("\"partitions\":1"), "{record}");
        assert!(record.contains("\"partition_ticks\":"), "{record}");
        assert!(record.contains("\"heal_to_stable_ticks\":"), "{record}");
        let parsed = baseline_of(&[record]);
        assert_eq!(parsed[0].str("scenario"), Some("chaos/partition-heal"));
        assert_eq!(parsed[0].u64("total_writes"), Some(outcome.total_writes()));
        assert_eq!(
            parsed[0].u64("stabilization_ticks"),
            outcome.stabilization_ticks
        );
    }

    #[test]
    fn witness_records_round_trip_and_the_gate_holds_them_exact() {
        // A non-electing hostile record carries its witness; the baseline
        // parser reads the counters back, and the gate (a) rejects any
        // false-stable ticks outright and (b) pins demotions / max streak
        // to the committed values — sim replay is exact, so drift means
        // the hostile environment changed.
        let scenario = registry::named("hostile/flap").expect("hostile suite member");
        let outcome = SimDriver.run(&scenario);
        let w = *outcome.witness.as_ref().expect("non-electing runs witness");
        assert_eq!(w.false_stable_ticks, 0, "the committed record is clean");
        let record = outcome.json_record();
        assert!(
            record.contains("\"witness_false_stable_ticks\":0"),
            "{record}"
        );
        let parsed = baseline_of(&[record]);
        assert_eq!(parsed[0].u64("witness_demotions"), Some(w.demotions));
        assert_eq!(
            parsed[0].u64("witness_max_stable_streak_ticks"),
            Some(w.max_stable_streak_ticks)
        );
        assert_eq!(parsed[0].u64("witness_false_stable_ticks"), Some(0));

        let now = [rec(&outcome)];
        assert!(
            SUITE.gate(&parsed, &now, &opts(&[])).is_empty(),
            "an unchanged run matches its own record"
        );
        let mut drifted = outcome.clone();
        drifted.witness.as_mut().unwrap().demotions += 1;
        let violations = SUITE.gate(&[rec(&drifted)], &now, &opts(&[]));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("witness_demotions changed"),
            "{violations:?}"
        );

        // A witness holding a reign fails even against its own record.
        let mut reigning = outcome;
        reigning.witness.as_mut().unwrap().false_stable_ticks = 10;
        let reigning = [rec(&reigning)];
        let violations = SUITE.gate(&reigning, &reigning, &opts(&[]));
        assert!(
            violations
                .iter()
                .any(|v| v.contains("witness_false_stable_ticks read 10, must be zero")),
            "{violations:?}"
        );
    }

    #[test]
    fn coop_records_round_trip_through_the_baseline_parser() {
        let scenario = Scenario::fault_free(omega_core::OmegaVariant::Alg1, 2)
            .named("coop-sample")
            .horizon(60_000);
        let outcome = WallDriver::new(Backend::Coop, 1).run(&scenario);
        assert_eq!(outcome.backend, "coop");
        assert_eq!(outcome.workers, Some(1), "coop outcomes report the pool");
        let record = outcome.json_record();
        assert!(
            record.contains("\"workers\":1,"),
            "every coop record carries the workers field: {record}"
        );
        let parsed = baseline_of(&[record]);
        assert_eq!(parsed[0].str("backend"), Some("coop"));
        assert_eq!(parsed[0].str("scenario"), Some("coop-sample"));
        assert_eq!(parsed[0].u64("total_writes"), Some(outcome.total_writes()));
        assert!(
            parsed[0].f64("elapsed_ms").is_some(),
            "coop records carry timing"
        );
        assert_eq!(parsed[0].u64("san_block_accesses"), None, "no disk on coop");

        // Sim records never grow a workers field — the committed sim
        // baseline must stay byte-identical across this refactor.
        let sim_record = sample_outcome().json_record();
        assert!(!sim_record.contains("\"workers\""), "{sim_record}");
    }

    #[test]
    fn worker_sweep_names_encode_their_pool_size() {
        // The suite loop recovers each sweep member's pool from its name;
        // pin the convention the committed coop baseline is keyed by.
        for w in WORKER_SWEEP {
            let name = format!("coop/workers={w}");
            let parsed: Option<usize> = name
                .strip_prefix("coop/workers=")
                .and_then(|v| v.parse().ok());
            assert_eq!(parsed, Some(w));
        }
        assert!(
            WORKER_SWEEP.windows(2).all(|p| p[0] < p[1]),
            "sweep records stay in ascending pool order"
        );
    }

    #[test]
    fn strict_timing_promotes_warnings_to_violations() {
        let mut base = sample_outcome();
        base.elapsed_ms = 100.0;
        let mut now = base.clone();
        now.elapsed_ms = 300.0; // 3× the baseline: far past ±50%
        let (base, now) = ([rec(&base)], [rec(&now)]);
        assert!(
            SUITE.gate(&base, &now, &opts(&[])).is_empty(),
            "without --strict-timing a timing delta is a warning, not a failure"
        );
        let violations = SUITE.gate(&base, &now, &opts(&["--strict-timing"]));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("timing (strict)"), "{violations:?}");
    }

    #[test]
    fn wall_clock_checks_gate_timing_not_model_counters() {
        let mut now = sample_outcome();
        now.elapsed_ms = 100.0;
        // A write-total regression that would fail the sim gate…
        let mut base = now.clone();
        base.stabilization_ticks = Some(1);
        base.writes = vec![1];
        let (base, now) = ([rec(&base)], [rec(&now)]);
        assert!(
            !SUITE.gate(&base, &now, &opts(&[])).is_empty(),
            "the sim gate must catch the counter regression"
        );
        // …is reported but not gated on a wall-clock backend, where the
        // counters depend on the host's scheduling.
        let wall = opts(&["--driver", "coop", "--strict-timing"]);
        assert!(
            SUITE.gate(&base, &now, &wall).is_empty(),
            "wall-clock checks compare timing only"
        );
    }

    #[test]
    fn backend_mismatch_is_a_gate_violation() {
        let outcome = sample_outcome(); // backend "sim"
        let mut base = outcome.clone();
        base.backend = "coop";
        let violations = SUITE.gate(&[rec(&base)], &[rec(&outcome)], &opts(&[]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("recorded by the coop backend"));
        assert!(violations[0].contains("BENCH_scenarios artifact"));
    }

    #[test]
    fn malformed_record_is_a_hard_error_not_a_silent_drop() {
        // A record the parser cannot read must fail the whole check run:
        // dropping it would reclassify its scenario as "new" and exempt
        // it from the gate. So must a line that is no record at all.
        let broken = "[\n  {\"scenario\":\"a\",\"total_writes\":oops}\n]\n";
        let err = SUITE.parse_baseline(broken).unwrap_err();
        assert!(err.contains("unparseable"), "{err}");
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.ends_with("at column 34"), "the file's column: {err}");
        let garbled = SAMPLE.replacen("{\"scenario\":\"no-stab\"", "|\"scenario\":\"no-stab\"", 1);
        let err = SUITE.parse_baseline(&garbled).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
        let mistyped = SAMPLE.replace("\"total_writes\":100", "\"total_writes\":\"100\"");
        let err = SUITE.parse_baseline(&mistyped).unwrap_err();
        assert!(err.contains("`total_writes` is not a count"), "{err}");
    }

    #[test]
    fn growth_is_zero_for_improvements() {
        let stab = Rule::Growth(MAX_STABILIZATION_REGRESSION, 0);
        assert_eq!(stab.violation(Some(100), Some(80)), None);
        assert_eq!(stab.violation(Some(100), Some(100)), None);
        assert_eq!(stab.violation(Some(100), Some(125)), None, "at the limit");
        let why = stab.violation(Some(100), Some(130)).unwrap();
        assert_eq!(why, "grew 100 -> 130, not within +25%");
        assert_eq!(
            stab.violation(Some(0), Some(50)),
            None,
            "no trend from a zero baseline"
        );
        assert_eq!(stab.violation(None, Some(50)), None, "no trend from null");
        assert!(Rule::Lost.violation(Some(100), None).is_some());
        assert_eq!(
            Rule::Lost.violation(None, Some(100)),
            None,
            "an improvement"
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut outcome = sample_outcome();
        outcome.scenario = "weird\"name\\with".into();
        let parsed = baseline_of(&[outcome.json_record()]);
        assert_eq!(parsed[0].str("scenario"), Some("weird\"name\\with"));
    }

    #[test]
    fn names_from_any_alphabet_round_trip_and_gate_clean() {
        // A name may hold anything a record must escape or a naive field
        // scanner would split on. Each must come back unchanged, pass the
        // gate against its own record, and be *compared* — a regression
        // under that name still fails, so it was not waved through as new.
        let alphabet = [
            ',', '}', '{', ':', '"', '\\', '\t', '\n', ' ', 'é', '€', '🦀',
        ];
        let mut names: Vec<String> = alphabet
            .iter()
            .flat_map(|a| alphabet.iter().map(move |b| format!("{a}x{b}")))
            .collect();
        names.extend(["a,b", "x}y", "tab\there", "\"total_writes\":1,"].map(String::from));
        names.push(alphabet.iter().collect());
        let template = sample_outcome();
        for name in names {
            let mut outcome = template.clone();
            outcome.scenario = name.clone();
            let baseline = baseline_of(&[outcome.json_record()]);
            assert_eq!(baseline[0].str("scenario"), Some(name.as_str()));
            assert!(
                SUITE
                    .gate(&baseline, &[rec(&outcome)], &opts(&[]))
                    .is_empty(),
                "{name:?}"
            );
            outcome.writes.iter_mut().for_each(|w| *w *= 2);
            let violations = SUITE.gate(&baseline, &[rec(&outcome)], &opts(&[]));
            assert_eq!(violations.len(), 1, "{name:?}: {violations:?}");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_the_committed_baseline_is_read_or_refused() {
        // Robustness of the parser on the committed artifact: every prefix
        // of every line, and every single-bit flip of every byte, either
        // parses or is refused with an error naming that line — never a
        // panic — and no truncated record is ever accepted.
        let committed = include_str!("../../../../BENCH_scenarios.json");
        assert!(SUITE.parse_baseline(committed).unwrap().len() >= 30);
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
    fn partial_or_gate_runs_never_touch_the_default_baseline() {
        // Full record run: writes.
        assert!(should_write_artifact(false, false, false));
        // `--only` subset without an explicit destination: must NOT
        // overwrite the committed full-suite baseline with a partial one.
        assert!(!should_write_artifact(false, true, false));
        // Check runs only publish when asked.
        assert!(!should_write_artifact(true, false, false));
        assert!(should_write_artifact(true, false, true));
        // Explicit $BENCH_OUT always wins.
        assert!(should_write_artifact(false, true, true));
        assert!(should_write_artifact(true, true, true));
        // Non-sim backends never name the committed sim baseline.
        assert_eq!(SUITE.artifact_path(Backend::Sim), "BENCH_scenarios.json");
        assert_eq!(
            SUITE.artifact_path(Backend::San),
            "BENCH_scenarios.san.json"
        );
    }

    #[test]
    fn the_six_flags_parse_and_nothing_else() {
        let parse = |args: &[&str]| SUITE.options(args.iter().map(|a| a.to_string()));
        let o = parse(&[
            "--driver",
            "coop",
            "--workers",
            "4",
            "--check",
            "B.json",
            "--strict-timing",
            "--only",
            "n-scaling",
        ])
        .unwrap();
        assert_eq!(o.backend, Backend::Coop);
        assert_eq!(o.workers, 4);
        assert_eq!(o.check.as_deref(), Some("B.json"));
        assert!(o.strict_timing && !o.list);
        assert_eq!(o.only.as_deref(), Some("n-scaling"));
        assert!(
            parse(&["--list", "--anything"]).unwrap().list,
            "--list ends the run"
        );
        for bad in [
            &["--workers", "0"][..],
            &["--driver", "tokio"],
            &["--check"],
            &["--verbose"],
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn only_filter_is_substring_match() {
        assert!(admits(None, "n-scaling-256"));
        assert!(admits(Some("n-scaling"), "n-scaling-256"));
        assert!(admits(Some("256"), "n-scaling-256"));
        assert!(!admits(Some("n-scaling-2560"), "n-scaling-256"));
        assert!(!admits(Some("fault"), "n-scaling-256"));
    }

    #[test]
    fn timing_delta_needs_both_sides() {
        assert_eq!(timing_delta(None, Some(150.0)), None);
        assert_eq!(timing_delta(Some(0.0), Some(150.0)), None);
        let delta = timing_delta(Some(100.0), Some(150.0)).unwrap();
        assert!((delta - 0.5).abs() < 1e-9, "{delta}");
        assert_eq!(timing_delta(Some(100.0), Some(0.0)), None);
        assert_eq!(timing_delta(Some(100.0), None), None);
    }

    #[test]
    fn json_record_carries_timing_fields() {
        let mut outcome = sample_outcome();
        outcome.elapsed_ms = 12.345;
        outcome.events_per_sec = 987_654.3;
        let record = outcome.json_record();
        assert!(record.contains("\"elapsed_ms\":12.35"), "{record}");
        assert!(record.contains("\"events_per_sec\":987654"), "{record}");
        // And the record round-trips through the baseline parser.
        let parsed = baseline_of(&[record]);
        assert_eq!(parsed[0].f64("elapsed_ms"), Some(12.35));
    }

    /// A minimal real outcome for JSON/timing unit tests (tiny horizon so
    /// the suite's own tests stay fast).
    fn sample_outcome() -> Outcome {
        let scenario = Scenario::fault_free(omega_core::OmegaVariant::Alg1, 2)
            .named("sample")
            .horizon(500);
        SimDriver.run(&scenario)
    }
}
