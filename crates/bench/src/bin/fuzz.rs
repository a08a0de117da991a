//! Randomized scenario fuzzer over the election invariants, with trace
//! capture and greedy shrinking to minimal reproducers.
//!
//! Modes and flags:
//!
//! * **Campaign** (default) — generates `--budget` random [`Scenario`]
//!   specs from `--seed` (random `n`, crash scripts, adversaries, timer
//!   models, σ/jitter), runs each on the deterministic simulator, and
//!   checks two oracles: *safety* (never two simultaneously stable,
//!   active leaders) and *liveness* (specs the
//!   [`fuzz::liveness_checkable`] envelope vouches for must stabilize).
//!   On a violation the spec is shrunk ([`fuzz::shrink`]) to a fixpoint
//!   — halve `n`, drop crashes, reset fields to defaults, greedily
//!   re-testing — and the minimal reproducer is written into `--out`
//!   (default `fuzz-regression/`) as `<hash>.spec` (the spec text, a
//!   registry-loadable scenario named `fuzz-regression/<hash>`) plus
//!   `<hash>.trace` (its full binary event trace). The run exits
//!   non-zero when any violation was found. `--max-secs` bounds the
//!   wall clock (for nightly CI: a fixed per-night seed and a time
//!   budget instead of an iteration count).
//! * **`--replay <file.trace>`** — decodes a trace file, parses the
//!   embedded spec text, replays the recorded event sequence, and
//!   proves it byte-identical to a fresh live run of the same spec
//!   (equal [`omega_scenario::Outcome::fingerprint`]s and equal
//!   re-encoded trace
//!   bytes). Exits non-zero on any divergence.
//! * **`--minimize <file.spec>`** — re-runs a spec-text file's scenario;
//!   if it still violates an oracle, shrinks it and writes the minimal
//!   reproducer (exit 1, a violation exists); if it no longer
//!   reproduces, says so (exit 0).
//! * **`--record <scenario-name>`** — runs one registry scenario with
//!   trace capture and writes `<out>/<name>.trace` (a self-contained
//!   replay file); for seeding the corpus with known-good traces.
//! * **`--corpus <dir>`** — re-checks every stored `*.spec` reproducer
//!   in a directory against the current code: an entry that *still*
//!   violates is an unfixed regression (exit 1); a corpus of fixed bugs
//!   must come back clean.

use std::path::{Path, PathBuf};
use std::time::Instant;

use omega_scenario::{fuzz, registry, spec_text, Backend, Scenario, SimDriver};
use omega_sim::rng::SmallRng;
use omega_sim::Trace;

/// Parsed command line. One of the `Option` modes, or the default
/// campaign driven by `budget`/`seed`/`max_secs`.
#[derive(Debug, Clone, PartialEq)]
struct Config {
    budget: u64,
    hostile_budget: u64,
    seed: u64,
    max_secs: Option<u64>,
    out: PathBuf,
    replay: Option<PathBuf>,
    minimize: Option<PathBuf>,
    record: Option<String>,
    corpus: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            budget: 1000,
            hostile_budget: 0,
            seed: 42,
            max_secs: None,
            out: PathBuf::from("fuzz-regression"),
            replay: None,
            minimize: None,
            record: None,
            corpus: None,
        }
    }
}

impl Config {
    /// Parses the argument list (without the program name). Errors name
    /// the offending flag so `usage()` can echo them.
    fn parse(args: impl Iterator<Item = String>) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut args = args.peekable();
        let next_value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--budget" => {
                    cfg.budget = next_value("--budget", &mut args)?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?;
                }
                "--hostile-budget" => {
                    cfg.hostile_budget = next_value("--hostile-budget", &mut args)?
                        .parse()
                        .map_err(|e| format!("--hostile-budget: {e}"))?;
                }
                "--seed" => {
                    cfg.seed = next_value("--seed", &mut args)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--max-secs" => {
                    cfg.max_secs = Some(
                        next_value("--max-secs", &mut args)?
                            .parse()
                            .map_err(|e| format!("--max-secs: {e}"))?,
                    );
                }
                "--out" => cfg.out = PathBuf::from(next_value("--out", &mut args)?),
                "--replay" => cfg.replay = Some(PathBuf::from(next_value("--replay", &mut args)?)),
                "--minimize" => {
                    cfg.minimize = Some(PathBuf::from(next_value("--minimize", &mut args)?));
                }
                "--record" => cfg.record = Some(next_value("--record", &mut args)?),
                "--corpus" => cfg.corpus = Some(PathBuf::from(next_value("--corpus", &mut args)?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cfg)
    }
}

fn usage(error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: fuzz [--budget N] [--hostile-budget N] [--seed S] [--max-secs T] [--out DIR]\n\
         \x20      | --replay FILE.trace | --minimize FILE.spec\n\
         \x20      | --record SCENARIO-NAME [--out DIR] | --corpus DIR"
    );
    std::process::exit(2);
}

/// The `<hash>` part of a reproducer's registry name — its file stem.
fn file_stem(reproducer_name: &str) -> &str {
    reproducer_name
        .rsplit('/')
        .next()
        .unwrap_or(reproducer_name)
}

/// Writes the minimal reproducer's `<hash>.spec` and `<hash>.trace` into
/// `out`, returning the two paths.
fn write_reproducer(out: &Path, minimal: &Scenario) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(out)?;
    let name = fuzz::reproducer_name(minimal);
    let named = minimal.clone().named(&name);
    let stem = file_stem(&name).to_string();
    let spec_path = out.join(format!("{stem}.spec"));
    std::fs::write(&spec_path, spec_text::to_spec_text(&named))?;
    let (_, trace) = SimDriver.run_traced(&named);
    let trace_path = out.join(format!("{stem}.trace"));
    std::fs::write(&trace_path, trace.encode())?;
    Ok((spec_path, trace_path))
}

/// Shrinks a violating spec against the real oracle and reports the
/// before/after sizes plus where the reproducer landed.
fn shrink_and_emit(out: &Path, spec: &Scenario, violation: &fuzz::Violation) -> String {
    let minimal = fuzz::shrink(spec, &mut fuzz::run_and_check);
    let final_violation =
        fuzz::run_and_check(&minimal).expect("shrink only returns specs that still violate");
    let name = fuzz::reproducer_name(&minimal);
    match write_reproducer(out, &minimal) {
        Ok((spec_path, trace_path)) => format!(
            "{violation}\n  shrunk {} -> {} spec lines (n {} -> {}), still {}\n  reproducer: {} + {}",
            fuzz::spec_lines(spec),
            fuzz::spec_lines(&minimal),
            spec.n,
            minimal.n,
            final_violation.kind(),
            spec_path.display(),
            trace_path.display(),
        ),
        Err(e) => format!("{violation}\n  shrunk to {name} but writing it failed: {e}"),
    }
}

/// The default mode: `budget` random specs plus `hostile_budget` draws
/// taken straight from the hostile pool (or until the wall budget runs
/// out), every violation shrunk and written. Returns the failure count.
fn campaign(cfg: &Config) -> usize {
    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut ran = 0u64;
    let mut checkable = 0u64;
    let mut hostile_certified = 0u64;
    let mut reports: Vec<String> = Vec::new();
    let mut seen_reproducers: Vec<String> = Vec::new();
    // The dedicated hostile slice runs first: it is small and must not
    // be starved when --max-secs (not --budget) is the effective limit,
    // as in the nightly. One RNG stream across both pools, so
    // (seed, budget, hostile-budget) fully determines every spec drawn.
    type Pool = (&'static str, u64, fn(&mut SmallRng) -> Scenario);
    let pools: [Pool; 2] = [
        ("hostile", cfg.hostile_budget, fuzz::generate_hostile),
        ("mixed", cfg.budget, fuzz::generate),
    ];
    'pools: for (pool, budget, draw) in pools {
        for i in 0..budget {
            if let Some(max) = cfg.max_secs {
                if started.elapsed().as_secs() >= max {
                    println!("wall budget of {max}s exhausted after {i} of {budget} {pool} specs");
                    break 'pools;
                }
            }
            let spec = draw(&mut rng);
            ran += 1;
            if fuzz::liveness_checkable(&spec) {
                checkable += 1;
            }
            if fuzz::provably_hostile(&spec).is_some() {
                hostile_certified += 1;
            }
            if let Some(violation) = fuzz::run_and_check(&spec) {
                let report = shrink_and_emit(&cfg.out, &spec, &violation);
                // One minimal reproducer per distinct hash: the same root
                // cause found twice must not spam the registry directory.
                let minimal_name = report.lines().last().unwrap_or_default().to_string();
                if !seen_reproducers.contains(&minimal_name) {
                    seen_reproducers.push(minimal_name);
                    reports.push(report);
                }
            }
            if (i + 1) % 250 == 0 {
                println!(
                    "  … {} of {budget} {pool} specs in {:.1}s ({} liveness-checkable, {} non-election-certified, {} violation(s))",
                    i + 1,
                    started.elapsed().as_secs_f64(),
                    checkable,
                    hostile_certified,
                    reports.len()
                );
            }
        }
    }
    println!(
        "fuzz campaign: {ran} specs from seed {} in {:.1}s — {checkable} liveness-checkable, {hostile_certified} non-election-certified, {} violation(s)",
        cfg.seed,
        started.elapsed().as_secs_f64(),
        reports.len()
    );
    for report in &reports {
        eprintln!("VIOLATION: {report}");
    }
    reports.len()
}

/// The admission rule every bin applies to a spec ([`Scenario::refusal`]
/// on the simulator), for a spec read from `source`: a refused spec is
/// refused here too, in the refusal's own words, before anything is built.
fn admit(source: &Path, spec: &Scenario) -> Result<(), String> {
    match spec.refusal(Backend::Sim, 1) {
        None => Ok(()),
        Some(why) => Err(format!(
            "{}: `{}` at n = {} is refused on sim: {why}",
            source.display(),
            spec.name,
            spec.n
        )),
    }
}

/// `--replay`: proves a trace file reproduces its recorded run
/// byte-identically. Returns an error string on any divergence, and
/// refuses a trace whose header disagrees with its spec text.
fn replay(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let trace = Trace::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenario = spec_text::from_spec_text(&trace.meta)
        .map_err(|e| format!("{}: embedded spec text: {e}", path.display()))?;
    admit(path, &scenario)?;
    if (trace.n, trace.horizon) != (scenario.n, scenario.horizon) {
        return Err(format!(
            "{}: the trace header records n = {} and horizon {}, its spec text n = {} and horizon {}",
            path.display(),
            trace.n,
            trace.horizon,
            scenario.n,
            scenario.horizon
        ));
    }
    let replayed = SimDriver.run_replay(&scenario, &trace);
    let (live, mut live_trace) = SimDriver.run_traced(&scenario);
    if replayed.fingerprint() != live.fingerprint() {
        return Err(format!(
            "replay diverged from a live run of `{}`:\n  replayed: {}\n  live    : {}",
            scenario.name,
            replayed.fingerprint(),
            live.fingerprint()
        ));
    }
    // Byte identity of the event stream itself: re-recording the run must
    // reproduce the file's encoding exactly (under the file's own meta —
    // a hand-annotated spec text would differ harmlessly).
    live_trace.meta = trace.meta.clone();
    if live_trace.encode() != trace.encode() {
        return Err(format!(
            "re-recorded event stream differs from {} ({} vs {} events)",
            path.display(),
            live_trace.len(),
            trace.len()
        ));
    }
    Ok(format!(
        "replay of {} ({} events, n={}) is byte-identical to a live run\n{}",
        path.display(),
        trace.len(),
        trace.n,
        live.summary()
    ))
}

/// `--minimize`: shrink a stored spec if it still violates. `Ok(msg)`
/// means no violation remains; `Err(report)` carries the reproducer, or
/// why the spec could not be run.
fn minimize(out: &Path, path: &Path) -> Result<String, String> {
    let failed = |e: String| format!("minimize FAILED: {e}");
    let text = std::fs::read_to_string(path)
        .map_err(|e| failed(format!("read {}: {e}", path.display())))?;
    let spec =
        spec_text::from_spec_text(&text).map_err(|e| failed(format!("{}: {e}", path.display())))?;
    admit(path, &spec).map_err(failed)?;
    match fuzz::run_and_check(&spec) {
        None => Ok(format!(
            "{}: `{}` no longer violates any oracle (fixed, or machine-dependent)",
            path.display(),
            spec.name
        )),
        Some(violation) => Err(format!(
            "VIOLATION: {}",
            shrink_and_emit(out, &spec, &violation)
        )),
    }
}

/// `--record`: capture one registry scenario's trace into `out`.
fn record(out: &Path, name: &str) -> Result<String, String> {
    let scenario =
        registry::named(name).ok_or_else(|| format!("no registry scenario named `{name}`"))?;
    let (outcome, trace) = SimDriver.run_traced(&scenario);
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("{}.trace", name.replace('/', "_")));
    std::fs::write(&path, trace.encode()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(format!(
        "recorded {} events of `{name}` into {}\n{}",
        trace.len(),
        path.display(),
        outcome.summary()
    ))
}

/// `--corpus`: re-check every stored reproducer. Returns the list of
/// entries that still violate (a fixed-bug corpus must return empty).
fn check_corpus(dir: &Path) -> Result<Vec<String>, String> {
    let entries = registry::load_dir(dir)?;
    if entries.is_empty() {
        return Err(format!(
            "corpus {} holds no *.spec reproducers",
            dir.display()
        ));
    }
    for spec in &entries {
        admit(dir, spec)?;
    }
    let mut still_violating = Vec::new();
    for spec in &entries {
        match fuzz::run_and_check(spec) {
            None => println!("  {}: clean", spec.name),
            Some(v) => {
                println!("  {}: STILL VIOLATING ({})", spec.name, v.kind());
                still_violating.push(format!("{}: {v}", spec.name));
            }
        }
    }
    println!(
        "corpus {}: {} reproducer(s), {} still violating",
        dir.display(),
        entries.len(),
        still_violating.len()
    );
    Ok(still_violating)
}

fn main() {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => usage(&e),
    };
    let modes = [
        cfg.replay.is_some(),
        cfg.minimize.is_some(),
        cfg.record.is_some(),
        cfg.corpus.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() > 1 {
        usage("--replay/--minimize/--record/--corpus are mutually exclusive");
    }
    if let Some(path) = &cfg.replay {
        match replay(path) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("replay FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(path) = &cfg.minimize {
        match minimize(&cfg.out, path) {
            Ok(msg) => println!("{msg}"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(name) = &cfg.record {
        match record(&cfg.out, name) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("record FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(dir) = &cfg.corpus {
        match check_corpus(dir) {
            Ok(still) if still.is_empty() => return,
            Ok(still) => {
                for entry in &still {
                    eprintln!("corpus regression: {entry}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("corpus FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if campaign(&cfg) > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, String> {
        Config::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg, Config::default());
        let cfg = parse(&[
            "--budget",
            "50",
            "--hostile-budget",
            "12",
            "--seed",
            "7",
            "--max-secs",
            "300",
            "--out",
            "x",
        ])
        .unwrap();
        assert_eq!(cfg.budget, 50);
        assert_eq!(cfg.hostile_budget, 12);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.max_secs, Some(300));
        assert_eq!(cfg.out, PathBuf::from("x"));
        assert!(parse(&["--hostile-budget", "some"])
            .unwrap_err()
            .contains("--hostile-budget"));
    }

    #[test]
    fn mode_flags_parse_and_bad_flags_error() {
        let cfg = parse(&["--replay", "a.trace"]).unwrap();
        assert_eq!(cfg.replay, Some(PathBuf::from("a.trace")));
        let cfg = parse(&["--corpus", "dir", "--record", "fault-free"]).unwrap();
        assert!(cfg.corpus.is_some() && cfg.record.is_some());
        assert!(parse(&["--budget"]).unwrap_err().contains("--budget"));
        assert!(parse(&["--budget", "many"]).is_err());
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn reproducer_file_stem_strips_the_registry_prefix() {
        assert_eq!(file_stem("fuzz-regression/abc123def456"), "abc123def456");
        assert_eq!(file_stem("bare"), "bare");
    }

    #[test]
    fn record_replay_round_trip_through_a_real_file() {
        let dir = std::env::temp_dir().join(format!("omega-fuzz-test-{}", std::process::id()));
        let msg = record(&dir, "fault-free").unwrap();
        assert!(msg.contains("recorded"));
        let trace_path = dir.join("fault-free.trace");
        let msg = replay(&trace_path).unwrap();
        assert!(msg.contains("byte-identical"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_refuses_a_header_that_disagrees_with_its_spec_text() {
        let dir = std::env::temp_dir().join(format!("omega-fuzz-header-{}", std::process::id()));
        record(&dir, "fault-free").unwrap();
        let path = dir.join("fault-free.trace");
        let mut trace = Trace::decode(&std::fs::read(&path).unwrap()).unwrap();
        let recorded = trace.n;
        trace.n += 1;
        std::fs::write(&path, trace.encode()).unwrap();
        let refusal = replay(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!refusal.contains('\n'), "one line: {refusal}");
        let header = format!("n = {} and horizon {}", recorded + 1, trace.horizon);
        let spec = format!("n = {recorded} and horizon {}", trace.horizon);
        assert!(
            refusal.contains(&header) && refusal.contains(&spec),
            "{refusal}"
        );
    }

    #[test]
    fn file_inputs_are_admitted_like_every_registry_spec() {
        let dir = std::env::temp_dir().join(format!("omega-fuzz-admit-{}", std::process::id()));
        let out = dir.join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let text = "scenario too-wide\nvariant alg1-fig2\nn 513\n";
        let spec = spec_text::from_spec_text(text).unwrap();
        let why = spec
            .refusal(Backend::Sim, 1)
            .expect("n = 513 is beyond the sim");
        let spec_path = dir.join("too-wide.spec");
        std::fs::write(&spec_path, text).unwrap();
        let mut trace = Trace::new(spec.n, spec.horizon);
        trace.meta = text.to_string();
        let trace_path = dir.join("too-wide.trace");
        std::fs::write(&trace_path, trace.encode()).unwrap();
        let refusals = [
            minimize(&out, &spec_path).unwrap_err(),
            check_corpus(&dir).unwrap_err(),
            replay(&trace_path).unwrap_err(),
        ];
        let _ = std::fs::remove_dir_all(&dir);
        for refusal in refusals {
            assert!(refusal.contains(&why), "{refusal}");
        }
        assert!(!out.exists(), "nothing was shrunk or written");
    }

    #[test]
    fn tiny_campaign_finds_no_violations() {
        let dir = std::env::temp_dir().join(format!("omega-fuzz-camp-{}", std::process::id()));
        let cfg = Config {
            budget: 15,
            seed: 2026,
            out: dir.clone(),
            ..Config::default()
        };
        assert_eq!(campaign(&cfg), 0, "seed 2026 must fuzz clean");
        assert!(!dir.exists(), "no violations -> no reproducer directory");
    }

    #[test]
    fn hostile_slice_runs_the_non_election_oracle_clean() {
        let dir = std::env::temp_dir().join(format!("omega-fuzz-hostile-{}", std::process::id()));
        let cfg = Config {
            budget: 0,
            hostile_budget: 4,
            seed: 7,
            out: dir.clone(),
            ..Config::default()
        };
        assert_eq!(campaign(&cfg), 0, "the hostile pool must fuzz clean");
        assert!(!dir.exists(), "no violations -> no reproducer directory");
    }
}
