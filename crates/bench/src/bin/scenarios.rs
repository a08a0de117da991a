//! Scenario-suite benchmark: every registry scenario on a chosen backend,
//! with a machine-readable JSON artifact for perf trajectories.
//!
//! Modes and flags:
//!
//! * **Record** (default) — prints the human table and the throughput
//!   table, and writes `BENCH_scenarios.json` (same directory, or
//!   `$BENCH_OUT` if set) with per-scenario stabilization ticks,
//!   read/write totals, scan savings, footprint, and wall-clock timing
//!   (`elapsed_ms`, `events_per_sec`) — the numbers a CI run can diff
//!   against history.
//! * **Check** (`--check <baseline.json>`) — runs the same suite, diffs
//!   every outcome against the committed baseline, and exits non-zero on a
//!   stabilization-tick regression above 25% or a total-write regression
//!   above 15%. Wall-clock deltas beyond ±50% are collected into a
//!   warning summary but do not fail the gate by default (timing is
//!   machine-dependent; the trajectory matters, not one noisy run); pass
//!   `--strict-timing` to promote those warnings to gate failures once a
//!   machine's numbers are stable enough to defend. Scenarios present
//!   only on one side are reported but never fail the gate (they have no
//!   trend yet). This is the CI regression gate named in ROADMAP's
//!   "Outcome diffing" item. The model-counter gates are defined on the
//!   simulator's deterministic counters; on the wall-clock drivers
//!   (`threads`/`san`/`coop`) a `--check` run compares **timing only**
//!   (counters there depend on the host's scheduling and would flake),
//!   so a wall-clock baseline becomes gateable exactly when
//!   `--strict-timing` is supplied.
//! * **`--driver sim|threads|san|coop`** — picks the backend (default
//!   `sim`). `threads` runs two OS threads per node over in-memory
//!   registers; `san` the same over disk-block registers (instant disk
//!   latency, so CI can exercise the backend without inflating
//!   wall-clock; `san-latency/…` sweep scenarios pin their own latency
//!   and pay real simulated service time); `coop` multiplexes all node
//!   loops on the cooperative deadline-wheel runtime, sharded over a
//!   `--workers`-sized pool. Every wall-clock backend skips scenarios
//!   that need a literal adversary (`expect_stabilization = false`); the
//!   per-node-thread backends additionally skip `n > 16` (OS threads at
//!   `n ≥ 32` thrash instead of measuring), while `coop` runs up to its
//!   worker-dependent cap `coop_max_n(workers)` — 128 single-worker,
//!   `n-scaling-256` at `--workers 4`, 512/1024 at 8/16. The sim itself
//!   runs up to `n-scaling-512` (`SIM_MAX_N`) and skips `n-scaling-1024`.
//!   A full non-sim record run writes `BENCH_scenarios.<driver>.json`,
//!   never the committed sim baseline.
//! * **`--workers N`** — sizes the coop worker pool (default 1; the
//!   other backends ignore it). Every coop record carries a `workers`
//!   field, and a full (unfiltered) coop run additionally records the
//!   `coop/workers=1,2,4,8` sweep — `n-scaling-128` at each pool size,
//!   named by the convention `coop/workers=<w>` — so the committed coop
//!   baseline shows where the scaling knee sits.
//! * **`--only <substring>`** — restricts the run (and the gate) to the
//!   scenarios whose name contains the substring, so one scenario, e.g.
//!   `n-scaling-256`, can be run and timed in isolation. A filtered run
//!   never overwrites the default `BENCH_scenarios.json` (it would
//!   replace the committed full-suite baseline with a partial one); set
//!   `$BENCH_OUT` to export its records somewhere explicit.
//! * **`--list`** — prints the registry names and exits.
//!
//! The baseline parser is forward- and backward-compatible: fields in the
//! JSON that this binary does not know are ignored, and fields this binary
//! tracks that an older baseline lacks (e.g. `elapsed_ms`, the SAN block
//! footprint) simply have no trend yet — both directions are unit-tested,
//! so adding a field never invalidates committed baselines.

use std::fmt::Write as _;

use omega_bench::table::Table;
use omega_scenario::{
    registry, Backend, CoopDriver, Driver, Outcome, SanDriver, Scenario, SimDriver, ThreadDriver,
};

/// Allowed relative growth of `stabilization_ticks` before the gate fails.
const MAX_STABILIZATION_REGRESSION: f64 = 0.25;
/// Allowed relative growth of `total_writes` before the gate fails.
const MAX_WRITE_REGRESSION: f64 = 0.15;
/// Wall-clock delta (either direction) beyond which the gate collects a
/// timing warning. Advisory by default (timing is machine-dependent);
/// `--strict-timing` promotes these warnings to gate failures.
const TIMING_REPORT_THRESHOLD: f64 = 0.50;

fn run(backend: Backend, scenario: &Scenario, workers: usize) -> Outcome {
    match backend {
        Backend::Sim => SimDriver.run(scenario),
        Backend::Threads => ThreadDriver::default().run(scenario),
        Backend::San => SanDriver::instant().run(scenario),
        Backend::Coop => CoopDriver {
            workers,
            ..CoopDriver::default()
        }
        .run(scenario),
    }
}

/// Whether the backend's gate compares the deterministic model counters
/// (stabilization ticks, write totals). Only the simulator's counters are
/// reproducible; wall-clock backends gate on timing only.
fn gates_model_counters(backend: Backend) -> bool {
    backend == Backend::Sim
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_record(outcome: &Outcome) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"scenario\":{},\"backend\":{},\"variant\":{},\"n\":{},\"stabilized\":{},",
        json_str(&outcome.scenario),
        json_str(outcome.backend),
        json_str(outcome.variant.name()),
        outcome.n,
        outcome.stabilized,
    );
    if let Some(workers) = outcome.workers {
        let _ = write!(o, "\"workers\":{workers},");
    }
    let _ = match outcome.stabilization_ticks {
        Some(t) => write!(o, "\"stabilization_ticks\":{t},"),
        None => write!(o, "\"stabilization_ticks\":null,"),
    };
    let _ = write!(
        o,
        "\"horizon_ticks\":{},\"crashed\":{},\"total_writes\":{},\"total_reads\":{},\"reads_skipped\":{},\"shard_passes\":{},\"hwm_bits\":{},\"register_count\":{},\"elapsed_ms\":{:.2},\"events_per_sec\":{:.0},",
        outcome.horizon_ticks,
        outcome.crashed.len(),
        outcome.total_writes(),
        outcome.total_reads(),
        outcome.reads_skipped,
        outcome.shard_passes,
        outcome.hwm_bits,
        outcome.register_count,
        outcome.elapsed_ms,
        outcome.events_per_sec,
    );
    if let Some(san) = &outcome.san {
        let _ = write!(
            o,
            "\"san_blocks_mapped\":{},\"san_blocks_touched\":{},\"san_block_accesses\":{},\"san_service_ms\":{:.2},",
            san.blocks_mapped, san.blocks_touched, san.block_accesses, san.service_time_ms,
        );
    }
    if let Some(chaos) = &outcome.chaos {
        let _ = write!(
            o,
            "\"partitions\":{},\"partition_ticks\":{},\"storm_ticks\":{},\"wave_crashes\":{},\"wave_recoveries\":{},",
            chaos.partitions,
            chaos.partition_ticks,
            chaos.storm_ticks,
            chaos.wave_crashes,
            chaos.wave_recoveries,
        );
        let _ = match chaos.heal_to_stable_ticks {
            Some(t) => write!(o, "\"heal_to_stable_ticks\":{t},"),
            None => write!(o, "\"heal_to_stable_ticks\":null,"),
        };
    }
    if let Some(w) = &outcome.witness {
        let _ = write!(
            o,
            "\"witness_window_from\":{},\"witness_window_until\":{},\"witness_demotions\":{},\"witness_max_stable_streak_ticks\":{},\"witness_false_stable_ticks\":{},",
            w.window_from,
            w.window_until,
            w.demotions,
            w.max_stable_streak_ticks,
            w.false_stable_ticks,
        );
    }
    let _ = match &outcome.tail {
        Some(tail) => write!(
            o,
            "\"tail_writers\":{},\"tail_writes_per_1k\":{:.2}}}",
            tail.writers.len(),
            tail.writes_per_1k
        ),
        None => write!(o, "\"tail_writers\":null,\"tail_writes_per_1k\":null}}"),
    };
    o
}

/// The baseline fields the regression gate compares against.
///
/// Every field except `scenario` is *optional at parse time* in one of two
/// ways: the model counters are required (a record without them is
/// malformed — see [`parse_baseline`]), while `elapsed_ms` is `None` when
/// the baseline predates timing capture. Unknown fields in the JSON are
/// ignored entirely, so the format can grow without breaking old binaries.
#[derive(Debug, Clone, PartialEq)]
struct BaselineRecord {
    scenario: String,
    /// Which driver recorded the baseline (`"sim"` / `"threads"` /
    /// `"san"` / `"coop"`); `None` for baselines predating the field.
    /// Lets a check run refuse a baseline recorded by a different
    /// backend — a coop baseline diffed against a sim run would compare
    /// apples to schedulers.
    backend: Option<String>,
    stabilization_ticks: Option<u64>,
    total_writes: u64,
    total_reads: u64,
    /// Wall-clock of the baseline run; `None` for pre-timing baselines.
    elapsed_ms: Option<f64>,
    /// SAN block accesses; `None` for in-memory backends and baselines
    /// that predate the block-footprint fields.
    san_block_accesses: Option<u64>,
    /// Distinct SAN blocks touched; `None` as above.
    san_blocks_touched: Option<u64>,
    /// Non-election witness counters; `None` for electing scenarios and
    /// baselines predating the hostile suite. On the simulator these are
    /// exact functions of the spec, so the gate holds them byte-stable.
    witness_demotions: Option<u64>,
    /// Longest self-leading streak inside the hostile window; `None` as
    /// above.
    witness_max_stable_streak_ticks: Option<u64>,
    /// Self-leadership held beyond the witness allowance; must be zero
    /// for every committed non-electing record.
    witness_false_stable_ticks: Option<u64>,
}

/// Extracts the value of `"key":` from one flat JSON object, as a raw
/// token (up to the next `,` or `}` — sufficient for the numeric, null and
/// boolean fields this tool writes; string fields are not parsed here).
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
    // The only escapes this tool emits are \" and \\ (names are ASCII).
    Some(raw.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// Parses the baseline JSON written by this tool: an array of flat
/// objects, one per line. Tolerates reformatting as long as each record
/// stays on its own line.
///
/// A line that looks like a record but does not parse is a **hard
/// error**: silently dropping it would let the gate treat its scenario
/// as "new — no trend yet" and wave a real regression through.
fn parse_baseline(json: &str) -> Result<Vec<BaselineRecord>, String> {
    json.lines()
        .map(str::trim)
        .filter(|line| line.starts_with('{'))
        .map(|line| {
            let parsed = (|| {
                Some(BaselineRecord {
                    scenario: string_field(line, "scenario")?,
                    // Absent in pre-backend baselines: unknown, not an error.
                    backend: string_field(line, "backend"),
                    stabilization_ticks: match raw_field(line, "stabilization_ticks")? {
                        "null" => None,
                        raw => Some(raw.parse().ok()?),
                    },
                    total_writes: raw_field(line, "total_writes")?.parse().ok()?,
                    total_reads: raw_field(line, "total_reads")?.parse().ok()?,
                    // Absent in pre-timing baselines: no trend, not an error.
                    elapsed_ms: raw_field(line, "elapsed_ms").and_then(|raw| raw.parse().ok()),
                    // Absent for in-memory backends and pre-SAN baselines.
                    san_block_accesses: raw_field(line, "san_block_accesses")
                        .and_then(|raw| raw.parse().ok()),
                    san_blocks_touched: raw_field(line, "san_blocks_touched")
                        .and_then(|raw| raw.parse().ok()),
                    // Absent for electing scenarios and pre-hostile baselines.
                    witness_demotions: raw_field(line, "witness_demotions")
                        .and_then(|raw| raw.parse().ok()),
                    witness_max_stable_streak_ticks: raw_field(
                        line,
                        "witness_max_stable_streak_ticks",
                    )
                    .and_then(|raw| raw.parse().ok()),
                    witness_false_stable_ticks: raw_field(line, "witness_false_stable_ticks")
                        .and_then(|raw| raw.parse().ok()),
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

/// Relative growth of `current` over `baseline` (0.0 when not a growth).
fn growth(baseline: u64, current: u64) -> f64 {
    if current <= baseline || baseline == 0 {
        return 0.0;
    }
    (current - baseline) as f64 / baseline as f64
}

/// Relative wall-clock change `current / baseline − 1` when the baseline
/// carries timing and both sides are measurable; `None` otherwise.
fn timing_delta(base: &BaselineRecord, outcome: &Outcome) -> Option<f64> {
    let before = base.elapsed_ms?;
    if before <= 0.0 || outcome.elapsed_ms <= 0.0 {
        return None;
    }
    Some(outcome.elapsed_ms / before - 1.0)
}

/// How a check run gates: which comparisons are defended, and whether
/// timing drift fails the run.
#[derive(Debug, Clone, Copy)]
struct CheckPolicy {
    /// Compare the deterministic model counters (simulator only).
    gate_model: bool,
    /// Promote timing warnings beyond [`TIMING_REPORT_THRESHOLD`] from a
    /// summary line to gate failures (`--strict-timing`).
    strict_timing: bool,
}

/// Diffs current outcomes against the baseline; returns human-readable
/// gate violations (empty = gate passes). Wall-clock changes beyond
/// [`TIMING_REPORT_THRESHOLD`] are collected into a warning summary and
/// only fail the gate under `--strict-timing`.
fn check_against_baseline(
    baseline: &[BaselineRecord],
    outcomes: &[Outcome],
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
                     — diff against the matching BENCH_scenarios artifact",
                    outcome.scenario, outcome.backend
                ));
                continue;
            }
        }
        compared += 1;
        println!(
            "  {}: stab {:?} -> {:?}, writes {} -> {}, reads {} -> {}",
            outcome.scenario,
            base.stabilization_ticks,
            outcome.stabilization_ticks,
            base.total_writes,
            outcome.total_writes(),
            base.total_reads,
            outcome.total_reads(),
        );
        if let Some(delta) = timing_delta(base, outcome) {
            if delta.abs() > TIMING_REPORT_THRESHOLD {
                let direction = if delta > 0.0 { "slower" } else { "faster" };
                timing_warnings.push(format!(
                    "{}: {:.1} ms -> {:.1} ms ({:+.0}%, {direction})",
                    outcome.scenario,
                    base.elapsed_ms.unwrap_or(0.0),
                    outcome.elapsed_ms,
                    delta * 100.0
                ));
            }
        }
        if !policy.gate_model {
            // Wall-clock backends: stabilization ticks and write totals
            // depend on the host's scheduling — report them above, gate
            // only the timing trend.
            continue;
        }
        match (base.stabilization_ticks, outcome.stabilization_ticks) {
            (Some(before), Some(now)) => {
                let g = growth(before, now);
                if g > MAX_STABILIZATION_REGRESSION {
                    violations.push(format!(
                        "{}: stabilization regressed {before} -> {now} ticks (+{:.0}%, limit {:.0}%)",
                        outcome.scenario,
                        g * 100.0,
                        MAX_STABILIZATION_REGRESSION * 100.0
                    ));
                }
            }
            (Some(before), None) => violations.push(format!(
                "{}: stabilized at tick {before} in the baseline, did not stabilize now",
                outcome.scenario
            )),
            // Baseline never stabilized: stabilizing now is an improvement.
            (None, _) => {}
        }
        let g = growth(base.total_writes, outcome.total_writes());
        if g > MAX_WRITE_REGRESSION {
            violations.push(format!(
                "{}: total writes regressed {} -> {} (+{:.0}%, limit {:.0}%)",
                outcome.scenario,
                base.total_writes,
                outcome.total_writes(),
                g * 100.0,
                MAX_WRITE_REGRESSION * 100.0
            ));
        }
        // Non-election witness: the certificate behind every
        // expect = false record. Any stable reign fails the gate
        // outright, and because the simulator replays exactly, the
        // witness counters must match the committed record byte-for-byte
        // — drift means the hostile environment changed, not noise.
        if let Some(w) = &outcome.witness {
            if w.false_stable_ticks > 0 {
                violations.push(format!(
                    "{}: witness shows a stable reign under hostile chaos: \
                     {} false-stable ticks (max streak {} over {}..{})",
                    outcome.scenario,
                    w.false_stable_ticks,
                    w.max_stable_streak_ticks,
                    w.window_from,
                    w.window_until,
                ));
            }
            if let (Some(demotions), Some(streak)) =
                (base.witness_demotions, base.witness_max_stable_streak_ticks)
            {
                if demotions != w.demotions || streak != w.max_stable_streak_ticks {
                    violations.push(format!(
                        "{}: witness drifted from the committed record: demotions \
                         {demotions} -> {}, max streak {streak} -> {} (sim replay is exact)",
                        outcome.scenario, w.demotions, w.max_stable_streak_ticks,
                    ));
                }
            }
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

/// Whether `--only <filter>` admits the scenario (no filter admits all).
fn admits(only: Option<&str>, name: &str) -> bool {
    only.is_none_or(|f| name.contains(f))
}

/// Whether this run writes the outcomes JSON. An explicit `$BENCH_OUT`
/// always does; otherwise only a full (unfiltered) record run may touch
/// the default `BENCH_scenarios.json` — a `--only` subset or a gate run
/// must never overwrite the committed full-suite baseline.
fn should_write_artifact(checking: bool, filtered: bool, explicit_out: bool) -> bool {
    explicit_out || (!checking && !filtered)
}

/// The pool sizes of the `coop/workers=` sweep: `n-scaling-128` once per
/// size, recorded under the sweep's own scenario names so the committed
/// coop baseline shows the scaling knee.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn run_suite(backend: Backend, only: Option<&str>, workers: usize) -> (Table, Vec<Outcome>) {
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
    if backend == Backend::Coop && only.is_none() {
        suite.extend(WORKER_SWEEP.iter().map(|&w| {
            registry::n_scaling(&[128])
                .pop()
                .expect("n-scaling family builds")
                .named(format!("coop/workers={w}"))
        }));
    }
    for scenario in suite {
        let sweep_workers = scenario
            .name
            .strip_prefix("coop/workers=")
            .and_then(|w| w.parse().ok());
        let workers = sweep_workers.unwrap_or(workers);
        if !admits(only, &scenario.name) {
            continue;
        }
        if let Some(why) = scenario.refusal(backend, workers) {
            println!("skipping {} on {} ({why})", scenario.name, backend.name());
            continue;
        }
        let outcome = run(backend, &scenario, workers);
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

fn usage() -> ! {
    eprintln!(
        "usage: scenarios [--driver sim|threads|san|coop] [--workers N] [--check BASELINE.json] [--strict-timing] [--only SUBSTRING] [--list]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut check_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut backend = Backend::Sim;
    let mut strict_timing = false;
    let mut workers = 1usize;
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
            "--driver" => match args.next().as_deref().and_then(Backend::parse) {
                Some(parsed) => backend = parsed,
                None => usage(),
            },
            "--workers" => match args.next().and_then(|w| w.parse().ok()) {
                Some(parsed) if parsed > 0 => workers = parsed,
                _ => usage(),
            },
            "--strict-timing" => strict_timing = true,
            "--list" => {
                // Name + expected outcome + the drivers that admit the
                // scenario, so both the expectation axis (elect /
                // no-elect) and the driver-axis table are discoverable
                // from the CLI. Coop's cap is worker-dependent: a
                // scenario refused at the single-worker default but
                // admitted by a larger pool is listed with the pool that
                // admits it.
                let scenarios = registry::all();
                let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
                for scenario in &scenarios {
                    let mut names: Vec<String> = scenario
                        .eligible_drivers()
                        .names()
                        .into_iter()
                        .map(String::from)
                        .collect();
                    if !scenario.eligible_drivers().coop {
                        let needed = scenario.n.div_ceil(omega_scenario::COOP_NODES_PER_WORKER);
                        if scenario.eligible_drivers_at(needed).coop {
                            names.push(format!("coop(--workers {needed})"));
                        }
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
                return;
            }
            _ => usage(),
        }
    }
    if workers > 1 && backend != Backend::Coop {
        println!(
            "note: --workers sizes the coop pool; the {} backend ignores it",
            backend.name()
        );
    }
    if check_path.is_some() && !gates_model_counters(backend) {
        println!(
            "note: {} outcomes are schedule-dependent — model counters are reported only, the gate compares timing{}",
            backend.name(),
            if strict_timing { "" } else { " (and only warns without --strict-timing)" }
        );
    }

    let (table, outcomes) = run_suite(backend, only.as_deref(), workers);
    if outcomes.is_empty() {
        eprintln!(
            "no scenario matches --only {:?} on the {} backend; see --list",
            only.unwrap_or_default(),
            backend.name()
        );
        std::process::exit(2);
    }
    println!(
        "== scenario suite ({} scenarios, {} backend) ==",
        outcomes.len(),
        backend.name()
    );
    println!("{table}");
    println!("== throughput ==");
    println!("{}", throughput_table(&outcomes));

    // Full record runs always write the artifact; check runs and
    // `--only`-filtered runs only when `$BENCH_OUT` names an explicit
    // destination (a CI gate run publishes its outcomes without a second
    // suite run; a filtered run must never clobber the committed
    // full-suite baseline with a partial one). Non-sim backends get their
    // own per-driver artifact for the same reason.
    let out_path = std::env::var("BENCH_OUT").ok();
    if should_write_artifact(check_path.is_some(), only.is_some(), out_path.is_some()) {
        let records: Vec<String> = outcomes.iter().map(json_record).collect();
        let json = format!("[\n  {}\n]\n", records.join(",\n  "));
        let path = out_path.unwrap_or_else(|| match backend {
            Backend::Sim => "BENCH_scenarios.json".into(),
            other => format!("BENCH_scenarios.{}.json", other.name()),
        });
        std::fs::write(&path, &json).expect("write scenario outcomes JSON");
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
            match (policy.gate_model, policy.strict_timing) {
                (true, false) => println!(
                    "gate PASSED: no stabilization regression > {:.0}%, no write regression > {:.0}%",
                    MAX_STABILIZATION_REGRESSION * 100.0,
                    MAX_WRITE_REGRESSION * 100.0
                ),
                (true, true) => println!(
                    "gate PASSED: model counters within limits, timing within ±{:.0}%",
                    TIMING_REPORT_THRESHOLD * 100.0
                ),
                (false, _) => println!(
                    "gate PASSED: {} timing within ±{:.0}% of baseline{}",
                    backend.name(),
                    TIMING_REPORT_THRESHOLD * 100.0,
                    if policy.strict_timing {
                        ""
                    } else {
                        " (advisory without --strict-timing)"
                    }
                ),
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
  {"scenario":"a","backend":"sim","stabilization_ticks":1000,"total_writes":500,"total_reads":9000,"elapsed_ms":125.50},
  {"scenario":"no-stab","backend":"sim","stabilization_ticks":null,"total_writes":100,"total_reads":50}
]
"#;

    #[test]
    fn parses_own_format() {
        let records = parse_baseline(SAMPLE).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].scenario, "a");
        assert_eq!(records[0].stabilization_ticks, Some(1000));
        assert_eq!(records[0].total_writes, 500);
        assert_eq!(records[0].elapsed_ms, Some(125.5));
        assert_eq!(records[1].stabilization_ticks, None);
        assert_eq!(
            records[1].elapsed_ms, None,
            "pre-timing records parse with no timing trend"
        );
    }

    #[test]
    fn load_baseline_reports_each_failure_as_one_summary_line() {
        let missing = load_baseline("/nonexistent/BENCH_scenarios.json").unwrap_err();
        assert!(missing.contains("unreadable"), "got: {missing}");
        assert!(!missing.contains('\n'), "one line, got: {missing}");

        let dir = std::env::temp_dir().join(format!("omega-check-{}", std::process::id()));
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
        assert_eq!(load_baseline(good.to_str().unwrap()).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tolerates_json_fields_the_struct_does_not_know() {
        // Forward compatibility: a *newer* tool may write fields this
        // binary has never heard of; they must be skipped, not rejected.
        let futuristic = "[\n  {\"scenario\":\"a\",\"stabilization_ticks\":10,\"total_writes\":5,\"total_reads\":7,\"cache_misses\":12345,\"elapsed_ms\":3.25,\"p99_us\":17}\n]\n";
        let records = parse_baseline(futuristic).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].total_writes, 5);
        assert_eq!(records[0].elapsed_ms, Some(3.25));
    }

    #[test]
    fn tolerates_struct_fields_the_json_lacks() {
        // Backward compatibility: an *older* baseline lacks the optional
        // timing fields entirely; everything required still parses and the
        // timing comparison simply reports no trend.
        let legacy = "[\n  {\"scenario\":\"a\",\"stabilization_ticks\":10,\"total_writes\":5,\"total_reads\":7}\n]\n";
        let records = parse_baseline(legacy).unwrap();
        assert_eq!(records[0].elapsed_ms, None);
        let outcome_less = BaselineRecord {
            scenario: "a".into(),
            backend: None,
            stabilization_ticks: Some(10),
            total_writes: 5,
            total_reads: 7,
            elapsed_ms: None,
            san_block_accesses: None,
            san_blocks_touched: None,
            witness_demotions: None,
            witness_max_stable_streak_ticks: None,
            witness_false_stable_ticks: None,
        };
        assert_eq!(records[0], outcome_less);
    }

    #[test]
    fn san_block_footprint_fields_round_trip() {
        // A record written from a SAN outcome must parse its block
        // footprint back; sim records (no `san_*` fields) must keep
        // parsing with no SAN trend. Exercised against a real record from
        // each backend below.
        let san_line = "[\n  {\"scenario\":\"s\",\"stabilization_ticks\":10,\"total_writes\":5,\"total_reads\":7,\"san_blocks_mapped\":24,\"san_blocks_touched\":20,\"san_block_accesses\":991,\"san_service_ms\":12.50}\n]\n";
        let records = parse_baseline(san_line).unwrap();
        assert_eq!(records[0].san_block_accesses, Some(991));
        assert_eq!(records[0].san_blocks_touched, Some(20));
    }

    #[test]
    fn json_record_carries_san_fields_exactly_for_the_san_backend() {
        let scenario = omega_scenario::Scenario::fault_free(omega_core::OmegaVariant::Alg1, 2)
            .named("san-sample")
            .horizon(40_000);
        let outcome = omega_scenario::SanDriver::instant().run(&scenario);
        let san = outcome.san.expect("san backend reports block footprint");
        let record = json_record(&outcome);
        assert!(record.contains("\"san_blocks_mapped\":"), "{record}");
        let parsed = parse_baseline(&format!("[\n  {record}\n]\n")).unwrap();
        assert_eq!(parsed[0].san_block_accesses, Some(san.block_accesses));
        assert_eq!(parsed[0].san_blocks_touched, Some(san.blocks_touched));

        // And a sim outcome of the same scenario writes none of them.
        let sim_record = json_record(&sample_outcome());
        assert!(!sim_record.contains("san_"), "{sim_record}");
        let sim_parsed = parse_baseline(&format!("[\n  {sim_record}\n]\n")).unwrap();
        assert_eq!(sim_parsed[0].san_block_accesses, None);
    }

    #[test]
    fn chaos_records_round_trip_through_the_baseline_parser() {
        // A campaign outcome writes the per-phase chaos counters; the
        // baseline parser (which gates none of them yet) must keep parsing
        // the record's gated fields around them.
        let scenario = omega_scenario::registry::all()
            .into_iter()
            .find(|s| s.name == "chaos/partition-heal")
            .unwrap();
        let outcome = SimDriver.run(&scenario);
        let record = json_record(&outcome);
        assert!(record.contains("\"partitions\":1"), "{record}");
        assert!(record.contains("\"partition_ticks\":"), "{record}");
        assert!(record.contains("\"heal_to_stable_ticks\":"), "{record}");
        let parsed = parse_baseline(&format!("[\n  {record}\n]\n")).unwrap();
        assert_eq!(parsed[0].scenario, "chaos/partition-heal");
        assert_eq!(parsed[0].total_writes, outcome.total_writes());
        assert_eq!(parsed[0].stabilization_ticks, outcome.stabilization_ticks);
    }

    #[test]
    fn witness_records_round_trip_and_the_gate_holds_them_exact() {
        // A non-electing hostile record carries its witness; the baseline
        // parser reads the counters back, and the gate (a) rejects any
        // false-stable ticks outright and (b) pins demotions / max streak
        // to the committed values — sim replay is exact, so drift means
        // the hostile environment changed.
        let scenario = omega_scenario::registry::all()
            .into_iter()
            .find(|s| s.name == "hostile/flap")
            .expect("hostile suite member");
        let outcome = SimDriver.run(&scenario);
        let w = *outcome.witness.as_ref().expect("non-electing runs witness");
        assert_eq!(w.false_stable_ticks, 0, "the committed record is clean");
        let record = json_record(&outcome);
        assert!(
            record.contains("\"witness_false_stable_ticks\":0"),
            "{record}"
        );
        let parsed = parse_baseline(&format!("[\n  {record}\n]\n")).unwrap();
        assert_eq!(parsed[0].witness_demotions, Some(w.demotions));
        assert_eq!(
            parsed[0].witness_max_stable_streak_ticks,
            Some(w.max_stable_streak_ticks)
        );
        assert_eq!(parsed[0].witness_false_stable_ticks, Some(0));

        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let outcomes = vec![outcome];
        assert!(
            check_against_baseline(&parsed, &outcomes, None, policy).is_empty(),
            "an unchanged run matches its own record"
        );
        let mut drifted = parsed.clone();
        drifted[0].witness_demotions = Some(w.demotions + 1);
        let violations = check_against_baseline(&drifted, &outcomes, None, policy);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("witness drifted"), "{violations:?}");

        // A witness holding a reign fails even against its own record.
        let mut reigning = outcomes;
        reigning[0].witness.as_mut().unwrap().false_stable_ticks = 10;
        let mut base = parsed;
        base[0].witness_false_stable_ticks = Some(10);
        let violations = check_against_baseline(&base, &reigning, None, policy);
        assert!(
            violations.iter().any(|v| v.contains("stable reign")),
            "{violations:?}"
        );
    }

    #[test]
    fn coop_records_round_trip_through_the_baseline_parser() {
        let scenario = omega_scenario::Scenario::fault_free(omega_core::OmegaVariant::Alg1, 2)
            .named("coop-sample")
            .horizon(60_000);
        let outcome = omega_scenario::CoopDriver::default().run(&scenario);
        assert_eq!(outcome.backend, "coop");
        assert_eq!(outcome.workers, Some(1), "coop outcomes report the pool");
        let record = json_record(&outcome);
        assert!(
            record.contains("\"workers\":1,"),
            "every coop record carries the workers field: {record}"
        );
        let parsed = parse_baseline(&format!("[\n  {record}\n]\n")).unwrap();
        assert_eq!(parsed[0].backend.as_deref(), Some("coop"));
        assert_eq!(parsed[0].scenario, "coop-sample");
        assert_eq!(parsed[0].total_writes, outcome.total_writes());
        assert!(parsed[0].elapsed_ms.is_some(), "coop records carry timing");
        assert_eq!(parsed[0].san_block_accesses, None, "no disk on coop");

        // Sim records never grow a workers field — the committed sim
        // baseline must stay byte-identical across this refactor.
        let sim_record = json_record(&sample_outcome());
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
        let mut outcome = sample_outcome();
        outcome.elapsed_ms = 300.0; // 3× the baseline: far past ±50%
        let base = BaselineRecord {
            scenario: outcome.scenario.clone(),
            backend: Some(outcome.backend.to_string()),
            stabilization_ticks: outcome.stabilization_ticks,
            total_writes: outcome.total_writes(),
            total_reads: outcome.total_reads(),
            elapsed_ms: Some(100.0),
            san_block_accesses: None,
            san_blocks_touched: None,
            witness_demotions: None,
            witness_max_stable_streak_ticks: None,
            witness_false_stable_ticks: None,
        };
        let outcomes = vec![outcome];
        let lenient = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        assert!(
            check_against_baseline(std::slice::from_ref(&base), &outcomes, None, lenient)
                .is_empty(),
            "without --strict-timing a timing delta is a warning, not a failure"
        );
        let strict = CheckPolicy {
            gate_model: true,
            strict_timing: true,
        };
        let violations = check_against_baseline(&[base], &outcomes, None, strict);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("timing (strict)"), "{violations:?}");
    }

    #[test]
    fn wall_clock_checks_gate_timing_not_model_counters() {
        let mut outcome = sample_outcome();
        outcome.elapsed_ms = 100.0;
        // A write-total regression that would fail the sim gate…
        let base = BaselineRecord {
            scenario: outcome.scenario.clone(),
            backend: None,
            stabilization_ticks: Some(1),
            total_writes: 1,
            total_reads: 1,
            elapsed_ms: Some(100.0),
            san_block_accesses: None,
            san_blocks_touched: None,
            witness_demotions: None,
            witness_max_stable_streak_ticks: None,
            witness_false_stable_ticks: None,
        };
        let outcomes = vec![outcome];
        let sim_policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        assert!(
            !check_against_baseline(std::slice::from_ref(&base), &outcomes, None, sim_policy)
                .is_empty(),
            "the sim gate must catch the counter regression"
        );
        // …is reported but not gated on a wall-clock backend, where the
        // counters depend on the host's scheduling.
        let wall_policy = CheckPolicy {
            gate_model: false,
            strict_timing: true,
        };
        assert!(
            check_against_baseline(&[base], &outcomes, None, wall_policy).is_empty(),
            "wall-clock checks compare timing only"
        );
    }

    #[test]
    fn backend_mismatch_is_a_gate_violation() {
        let outcome = sample_outcome(); // backend "sim"
        let base = BaselineRecord {
            scenario: outcome.scenario.clone(),
            backend: Some("coop".into()),
            stabilization_ticks: outcome.stabilization_ticks,
            total_writes: outcome.total_writes(),
            total_reads: outcome.total_reads(),
            elapsed_ms: None,
            san_block_accesses: None,
            san_blocks_touched: None,
            witness_demotions: None,
            witness_max_stable_streak_ticks: None,
            witness_false_stable_ticks: None,
        };
        let policy = CheckPolicy {
            gate_model: true,
            strict_timing: false,
        };
        let violations = check_against_baseline(&[base], &[outcome], None, policy);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("recorded by the coop backend"));
    }

    #[test]
    fn malformed_record_is_a_hard_error_not_a_silent_drop() {
        // A record the parser cannot read must fail the whole check run:
        // dropping it would reclassify its scenario as "new" and exempt
        // it from the gate.
        let broken = "[\n  {\"scenario\":\"a\",\"total_writes\":oops}\n]\n";
        let err = parse_baseline(broken).unwrap_err();
        assert!(err.contains("unparseable"), "{err}");
    }

    #[test]
    fn growth_is_zero_for_improvements() {
        assert_eq!(growth(100, 80), 0.0);
        assert_eq!(growth(100, 100), 0.0);
        assert!((growth(100, 130) - 0.3).abs() < 1e-9);
        assert_eq!(growth(0, 50), 0.0, "no trend from a zero baseline");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let name = "weird\"name\\with";
        let encoded = format!("{{\"scenario\":{}}}", json_str(name));
        assert_eq!(string_field(&encoded, "scenario").unwrap(), name);
    }

    #[test]
    fn partial_or_gate_runs_never_touch_the_default_baseline() {
        // Full record run: writes.
        assert!(should_write_artifact(false, false, false));
        // `--only` subset without an explicit destination: must NOT
        // overwrite the committed 15-record baseline with a partial one.
        assert!(!should_write_artifact(false, true, false));
        // Check runs only publish when asked.
        assert!(!should_write_artifact(true, false, false));
        assert!(should_write_artifact(true, false, true));
        // Explicit $BENCH_OUT always wins.
        assert!(should_write_artifact(false, true, true));
        assert!(should_write_artifact(true, true, true));
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
        let base = |elapsed_ms| BaselineRecord {
            scenario: "a".into(),
            backend: None,
            stabilization_ticks: None,
            total_writes: 0,
            total_reads: 0,
            elapsed_ms,
            san_block_accesses: None,
            san_blocks_touched: None,
            witness_demotions: None,
            witness_max_stable_streak_ticks: None,
            witness_false_stable_ticks: None,
        };
        let mut outcome = sample_outcome();
        outcome.elapsed_ms = 150.0;
        assert_eq!(timing_delta(&base(None), &outcome), None);
        assert_eq!(timing_delta(&base(Some(0.0)), &outcome), None);
        let delta = timing_delta(&base(Some(100.0)), &outcome).unwrap();
        assert!((delta - 0.5).abs() < 1e-9, "{delta}");
        outcome.elapsed_ms = 0.0;
        assert_eq!(timing_delta(&base(Some(100.0)), &outcome), None);
    }

    #[test]
    fn json_record_carries_timing_fields() {
        let mut outcome = sample_outcome();
        outcome.elapsed_ms = 12.345;
        outcome.events_per_sec = 987_654.3;
        let record = json_record(&outcome);
        assert!(record.contains("\"elapsed_ms\":12.35"), "{record}");
        assert!(record.contains("\"events_per_sec\":987654"), "{record}");
        // And the record round-trips through the baseline parser.
        let parsed = parse_baseline(&format!("[\n  {record}\n]\n")).unwrap();
        assert_eq!(parsed[0].elapsed_ms, Some(12.35));
    }

    /// A minimal real outcome for JSON/timing unit tests (tiny horizon so
    /// the suite's own tests stay fast).
    fn sample_outcome() -> Outcome {
        let scenario = omega_scenario::Scenario::fault_free(omega_core::OmegaVariant::Alg1, 2)
            .named("sample")
            .horizon(500);
        SimDriver.run(&scenario)
    }
}
