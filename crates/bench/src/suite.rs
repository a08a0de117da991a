//! One harness for the two suite bins, `scenarios` (elections) and
//! `service` (the replicated KV): the command line, the JSON artifact and
//! the `--check` regression gate. A bin supplies its registry, its run
//! dispatch, its tables and a [`Suite`] — the fields its records must carry
//! and the [`Gate`]s that defend them.
//!
//! Modes and flags (both bins):
//!
//! * **Record** (default) — runs every registry scenario the chosen backend
//!   admits, prints the bin's tables, and writes one flat JSON record per
//!   scenario ([`omega_scenario::record`]) to `BENCH_<suite>.json` on the
//!   simulator or `BENCH_<suite>.<driver>.json` on a wall-clock backend —
//!   never over the committed sim baseline — or to `$BENCH_OUT` if set.
//! * **Check** (`--check <baseline.json>`) — runs the same suite and gates
//!   every record against the baseline's record of the same scenario. On
//!   the simulator, whose counters are a pure function of the spec, each
//!   [`Gate`] of the bin is enforced. On the wall-clock backends the
//!   counters depend on the host's scheduling, so they are printed and not
//!   gated: the gate compares timing only. Wall-clock deltas beyond
//!   ±[`TIMING_REPORT_THRESHOLD`] are collected into a warning summary;
//!   `--strict-timing` turns them into failures. A baseline recorded by
//!   another backend fails the gate; scenarios present on one side only are
//!   reported and never fail it (they have no trend yet). A check run writes
//!   its records only to `$BENCH_OUT`.
//! * **`--driver <backend>`** — `sim` (default), `san` (the election
//!   suite only) or `coop`. A backend skips, with the reason
//!   [`Scenario::refusal`] gives, every scenario it cannot honor.
//! * **`--workers N`** — sizes the coop worker pool (default 1; the other
//!   backends ignore it, and the coop admission cap grows with it). A pool
//!   with a worker for every task — `2n` for an election, `3n + 1` for a
//!   service run — gives each task an operating-system thread of its own.
//! * **`--only <substring>`** — runs (and gates) only the scenarios whose
//!   name contains the substring. A filtered run never overwrites the
//!   default artifact; set `$BENCH_OUT` to export its records.
//! * **`--list`** — prints the registry with the backends that admit each
//!   scenario, and exits.
//! * **`--diff OLD NEW`** — runs nothing: prints what moved from one
//!   artifact of the suite to another ([`diff`]), and exits. CI's
//!   byte-identity check prints it when its `diff` fails.
//!
//! The baseline parser reads the records back through the one parser that
//! reads the current run's own records, so a name survives any characters.
//! Fields it does not gate are ignored, and gated fields an older baseline
//! lacks have no trend yet, so adding a field never invalidates a committed
//! baseline. A record it cannot read, or one missing a required field, is a
//! hard error naming its line: dropping it would let its scenario pass as
//! "new" and wave a regression through.

use std::fmt::Write as _;

use omega_scenario::record::{self, Record, Value};
use omega_scenario::{Backend, Scenario};

/// Wall-clock delta (either direction) beyond which the gate collects a
/// timing warning. Advisory by default (timing is machine-dependent);
/// `--strict-timing` promotes the warnings to gate failures.
pub const TIMING_REPORT_THRESHOLD: f64 = 0.50;

/// How a count may move against the baseline. Counts are read with
/// [`Record::u64`]: `null` and absent are `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// `Growth(rel, abs)` fails when `now > base · (1 + rel) + abs`. A zero
    /// baseline without absolute slack sets no trend.
    Growth(f64, u64),
    /// `Drop(rel, abs)` fails when `now < base · (1 − rel) − abs`.
    Drop(f64, u64),
    /// Fails when both sides carry the field and differ: sim replay is
    /// exact, so drift means the spec changed, not noise.
    Exact,
    /// Fails when the current run is non-zero, whatever the baseline says:
    /// a bound that is never a trend.
    ZeroNow,
    /// Fails when the baseline has a value and the current run has none —
    /// a scenario that stabilized no longer does.
    Lost,
}

impl Rule {
    /// Why `base → now` breaks the rule, or `None` when it holds.
    #[must_use]
    pub fn violation(self, base: Option<u64>, now: Option<u64>) -> Option<String> {
        let (b, c) = (base.unwrap_or(0), now.unwrap_or(0));
        let both = base.is_some() && now.is_some();
        let (bf, cf) = (b as f64, c as f64);
        let broken = match self {
            Rule::Growth(rel, abs) => {
                both && (b > 0 || abs > 0) && cf > bf * (1.0 + rel) + abs as f64
            }
            Rule::Drop(rel, abs) => both && cf < bf * (1.0 - rel) - abs as f64,
            Rule::Exact => both && b != c,
            Rule::ZeroNow => c > 0,
            Rule::Lost => base.is_some() && now.is_none(),
        };
        let why = match self {
            Rule::Growth(..) => format!("grew {b} -> {c}, not {}", self.bound()),
            Rule::Drop(..) => format!("dropped {b} -> {c}, not {}", self.bound()),
            Rule::Exact => format!("changed {b} -> {c} (sim replay is exact)"),
            Rule::ZeroNow => format!("read {c}, must be zero"),
            Rule::Lost => format!("was {b} in the baseline, none now"),
        };
        broken.then_some(why)
    }

    /// The rule as the pass line states it.
    fn bound(self) -> String {
        match self {
            Rule::Growth(rel, 0) => format!("within +{:.0}%", rel * 100.0),
            Rule::Growth(rel, abs) => format!("within +{:.0}% + {abs}", rel * 100.0),
            Rule::Drop(rel, 0) => format!("within -{:.0}%", rel * 100.0),
            Rule::Drop(rel, abs) => format!("within -{:.0}% - {abs}", rel * 100.0),
            Rule::Exact => "exact".into(),
            Rule::ZeroNow => "zero".into(),
            Rule::Lost => "kept".into(),
        }
    }
}

/// One model-counter rule of a suite: a record field and how it may move.
/// The field `a+b` reads the sum of `a` and `b`.
#[derive(Debug, Clone, Copy)]
pub struct Gate(pub &'static str, pub Rule);

/// What one bin's records are and how its gate defends them.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The bin, and the artifact stem: `BENCH_<name>.json`.
    pub name: &'static str,
    /// The backends `--driver` accepts, in canonical order.
    pub drivers: &'static [Backend],
    /// Fields every baseline record must carry (`a+b` as in [`Gate`]);
    /// each compared scenario prints them.
    pub required: &'static [&'static str],
    /// The model-counter rules, enforced on the simulator only.
    pub gates: &'static [Gate],
    /// The wall-clock field the timing comparison reads.
    pub timing: &'static str,
}

/// The seven flags of a suite bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// `--driver`.
    pub backend: Backend,
    /// `--workers`.
    pub workers: usize,
    /// `--check`: the baseline to gate against.
    pub check: Option<String>,
    /// `--strict-timing`.
    pub strict_timing: bool,
    /// `--only`.
    pub only: Option<String>,
    /// `--list`.
    pub list: bool,
    /// `--diff`: the old and the new artifact.
    pub diff: Option<(String, String)>,
}

impl Options {
    /// Whether this run takes the scenario `name`: it passes `--only`, and
    /// the backend admits `election` at `workers` (a refusal prints the
    /// skip line).
    #[must_use]
    pub fn takes(&self, name: &str, election: &Scenario, workers: usize) -> bool {
        if !admits(self.only.as_deref(), name) {
            return false;
        }
        let refusal = election.refusal(self.backend, workers);
        if let Some(why) = &refusal {
            println!("skipping {name} on {} ({why})", self.backend.name());
        }
        refusal.is_none()
    }
}

/// Whether `--only <filter>` admits the scenario (no filter admits all).
#[must_use]
pub fn admits(only: Option<&str>, name: &str) -> bool {
    only.is_none_or(|f| name.contains(f))
}

/// Whether a run writes its artifact. An explicit `$BENCH_OUT` always
/// does; otherwise only a full record run may touch the default file — a
/// `--only` subset or a gate run must never overwrite the committed
/// full-suite baseline.
#[must_use]
pub fn should_write_artifact(checking: bool, filtered: bool, explicit_out: bool) -> bool {
    explicit_out || (!checking && !filtered)
}

/// Relative wall-clock change `now / before − 1` when both sides are
/// measurable.
#[must_use]
pub fn timing_delta(before: Option<f64>, now: Option<f64>) -> Option<f64> {
    match (before, now) {
        (Some(before), Some(now)) if before > 0.0 && now > 0.0 => Some(now / before - 1.0),
        _ => None,
    }
}

/// The record fields that read the host's wall clock: what the
/// byte-identity check strips, and what [`diff`] lists apart from the
/// model's fields.
pub const WALL_CLOCK_FIELDS: [&str; 3] = ["elapsed_ms", "events_per_sec", "wall_ms"];

/// What moved from the records `old` to the records `new`, one line each:
/// a field added, removed or changed (`field old -> new`, `none` on the
/// side without it), or a record on one side only. Records are grouped by
/// family, the name before its `/`, with a blank line between families;
/// the wall-clock fields follow under a `wall clock:` line of their own.
/// "no record moved" when nothing did.
#[must_use]
pub fn diff(old: &[Record], new: &[Record]) -> String {
    fn name(r: &Record) -> &str {
        r.str("scenario").unwrap_or_default()
    }
    fn family(name: &str) -> &str {
        name.split('/').next().unwrap_or(name)
    }
    fn find<'a>(records: &'a [Record], n: &str) -> Option<&'a Record> {
        records.iter().find(|r| name(r) == n)
    }
    fn shown(value: Option<&Value>) -> String {
        match value {
            None => "none".into(),
            Some(Value::Str(s)) => format!("{s:?}"),
            Some(Value::Literal(l)) => l.clone(),
        }
    }
    let mut names: Vec<&str> = Vec::new();
    for n in new.iter().chain(old).map(name) {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    let mut families: Vec<&str> = Vec::new();
    for f in names.iter().map(|n| family(n)) {
        if !families.contains(&f) {
            families.push(f);
        }
    }
    let (mut model, mut wall) = (Vec::new(), Vec::new());
    for f in families {
        let mut lines = Vec::new();
        for &n in names.iter().filter(|n| family(n) == f) {
            let (before, after) = match (find(old, n), find(new, n)) {
                (Some(before), Some(after)) => (before, after),
                (None, _) => {
                    lines.push(format!("{n}: record added"));
                    continue;
                }
                (_, None) => {
                    lines.push(format!("{n}: record dropped"));
                    continue;
                }
            };
            let only_before = before.fields().filter(|(k, _)| after.get(k).is_none());
            for (field, _) in after.fields().chain(only_before) {
                let (was, is) = (before.get(field), after.get(field));
                if was == is {
                    continue;
                }
                let line = format!("{n}: {field} {} -> {}", shown(was), shown(is));
                match WALL_CLOCK_FIELDS.contains(&field) {
                    true => wall.push(line),
                    false => lines.push(line),
                }
            }
        }
        if !lines.is_empty() && !model.is_empty() {
            model.push(String::new());
        }
        model.extend(lines);
    }
    let mut out = match (model.is_empty(), wall.is_empty()) {
        (true, true) => return "no record moved\n".into(),
        (true, false) => "no model field moved\n".to_string(),
        (false, _) => model.iter().map(|l| format!("{l}\n")).collect(),
    };
    if !wall.is_empty() {
        out.push_str("\nwall clock:\n");
        for line in wall {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

/// The count `field` (`a+b` sums) of a record.
fn read(record: &Record, field: &str) -> Option<u64> {
    field.split('+').map(|key| record.u64(key)).sum()
}

impl Suite {
    /// Parses the flags; `None` on anything but the seven. `--list` and
    /// `--diff` end the parse, as they end the run.
    #[must_use]
    pub fn options(&self, args: impl IntoIterator<Item = String>) -> Option<Options> {
        let mut args = args.into_iter();
        let mut o = Options {
            workers: 1,
            ..Options::default()
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" => o.check = Some(args.next()?),
                "--only" => o.only = Some(args.next()?),
                "--driver" => {
                    let backend = Backend::parse(&args.next()?)?;
                    o.backend = *self.drivers.iter().find(|&&b| b == backend)?;
                }
                "--workers" => o.workers = args.next()?.parse().ok().filter(|&w| w > 0)?,
                "--strict-timing" => o.strict_timing = true,
                "--list" => {
                    o.list = true;
                    break;
                }
                "--diff" => {
                    o.diff = Some((args.next()?, args.next()?));
                    break;
                }
                _ => return None,
            }
        }
        Some(o)
    }

    /// [`options`](Self::options) of the process's arguments: a usage line
    /// and exit 2 on a bad flag, and a note when a flag will not do what it
    /// says on this backend.
    #[must_use]
    pub fn options_from_env(&self) -> Options {
        let Some(o) = self.options(std::env::args().skip(1)) else {
            let drivers: Vec<&str> = self.drivers.iter().map(|b| b.name()).collect();
            eprintln!(
                "usage: {} [--driver {}] [--workers N] [--check BASELINE.json] [--strict-timing] [--only SUBSTRING] [--list] [--diff OLD.json NEW.json]",
                self.name,
                drivers.join("|")
            );
            std::process::exit(2);
        };
        let backend = o.backend.name();
        if !o.list && o.workers > 1 && o.backend != Backend::Coop {
            println!("note: --workers sizes the coop pool; the {backend} backend ignores it");
        }
        if !o.list && o.check.is_some() && o.backend != Backend::Sim {
            println!("note: {backend} outcomes are schedule-dependent — model counters are reported only, the gate compares timing");
        }
        o
    }

    /// The run's header line; exit 2 when no scenario ran.
    pub fn announce(&self, o: &Options, ran: usize) {
        let (name, backend) = (self.name, o.backend.name());
        if ran == 0 {
            let only = o.only.as_deref().unwrap_or_default();
            eprintln!(
                "no scenario of the {name} suite matches --only {only:?} on the {backend} backend; see --list"
            );
            std::process::exit(2);
        }
        println!("== {name} suite ({ran} scenarios, {backend} backend) ==");
    }

    /// The default artifact of a run on `backend`.
    #[must_use]
    pub fn artifact_path(&self, backend: Backend) -> String {
        match backend {
            Backend::Sim => format!("BENCH_{}.json", self.name),
            other => format!("BENCH_{}.{}.json", self.name, other.name()),
        }
    }

    /// Reads a baseline artifact: every record line, each with the fields
    /// this suite requires and every count it reads well-typed.
    ///
    /// # Errors
    ///
    /// The first line that is not `[`, `]`, blank, or such a record (with
    /// an optional trailing comma), by its 1-based number and why.
    pub fn parse_baseline(&self, json: &str) -> Result<Vec<Record>, String> {
        let mut records = Vec::new();
        for (i, line) in json.lines().enumerate() {
            // Untrimmed at the front, so a column is the file's column.
            let line = line.trim_end();
            let line = line.strip_suffix(',').unwrap_or(line);
            if matches!(line.trim_start(), "" | "[" | "]") {
                continue;
            }
            let parsed = record::parse(line).and_then(|r| self.validate(r));
            let line = i + 1;
            records.push(
                parsed.map_err(|e| format!("line {line}: unparseable baseline record: {e}"))?,
            );
        }
        Ok(records)
    }

    fn validate(&self, record: Record) -> Result<Record, String> {
        if record.str("scenario").is_none() {
            return Err("no string field `scenario`".into());
        }
        let gated = self.gates.iter().map(|gate| gate.0);
        for field in self.required.iter().copied().chain(gated) {
            for key in field.split('+') {
                if record.get(key).is_none() && self.required.contains(&field) {
                    return Err(format!("missing field `{key}`"));
                }
                if record.get(key).is_some() && !record.is_null(key) && record.u64(key).is_none() {
                    return Err(format!("field `{key}` is not a count"));
                }
            }
        }
        Ok(record)
    }

    /// Loads a `--check` baseline. A missing file, an unreadable record, or
    /// an empty baseline all mean the gate cannot defend anything; each is
    /// one summary line, so a CI log shows the cause instead of a panic.
    ///
    /// # Errors
    ///
    /// That summary line.
    pub fn load_baseline(&self, path: &str) -> Result<Vec<Record>, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("baseline {path} unreadable: {e}"))?;
        let baseline = self
            .parse_baseline(&json)
            .map_err(|e| format!("baseline {path} {e}"))?;
        if baseline.is_empty() {
            return Err(format!("baseline {path} holds no records"));
        }
        Ok(baseline)
    }

    /// `--diff`: prints [`diff`] of the artifacts at `old` and `new`, or
    /// exits 2 on one it cannot read.
    pub fn print_diff(&self, old: &str, new: &str) {
        let load = |path: &str| {
            self.load_baseline(path).unwrap_or_else(|e| {
                eprintln!("diff FAILED: {e}");
                std::process::exit(2);
            })
        };
        let (before, after) = (load(old), load(new));
        println!("== {} records: {old} -> {new} ==", self.name);
        print!("{}", diff(&before, &after));
    }

    /// Diffs the current run's records against the baseline's and returns
    /// the gate violations (empty: the gate passes), printing one line per
    /// compared scenario and the timing summary on the way. The suite's
    /// [`Gate`]s apply on the simulator only.
    #[must_use]
    pub fn gate(&self, baseline: &[Record], current: &[Record], o: &Options) -> Vec<String> {
        let mut violations = Vec::new();
        let mut timing_warnings = Vec::new();
        let mut compared = 0usize;
        for now in current {
            let name = now.str("scenario").unwrap_or_default();
            let Some(base) = baseline.iter().find(|b| b.str("scenario") == Some(name)) else {
                println!("  new scenario (no trend yet): {name}");
                continue;
            };
            let used = now.str("backend").unwrap_or_default();
            if let Some(recorded) = base.str("backend").filter(|&r| r != used) {
                violations.push(format!(
                    "{name}: baseline was recorded by the {recorded} backend, this run used \
                     {used} — diff against the matching BENCH_{} artifact",
                    self.name
                ));
                continue;
            }
            compared += 1;
            let show = |r: &Record, f: &str| read(r, f).map_or("null".into(), |v| v.to_string());
            let fields: Vec<String> = (self.required.iter())
                .map(|f| format!("{f} {} -> {}", show(base, f), show(now, f)))
                .collect();
            println!("  {name}: {}", fields.join(", "));
            let (before, after) = (base.f64(self.timing), now.f64(self.timing));
            let delta = timing_delta(before, after).filter(|d| d.abs() > TIMING_REPORT_THRESHOLD);
            if let Some(delta) = delta {
                let direction = if delta > 0.0 { "slower" } else { "faster" };
                let (before, after) = (before.unwrap_or(0.0), after.unwrap_or(0.0));
                let change = delta * 100.0;
                timing_warnings.push(format!(
                    "{name}: {before:.1} ms -> {after:.1} ms ({change:+.0}%, {direction})"
                ));
            }
            if o.backend != Backend::Sim {
                continue;
            }
            for &Gate(field, rule) in self.gates {
                if let Some(why) = rule.violation(read(base, field), read(now, field)) {
                    violations.push(format!("{name}: {field} {why}"));
                }
            }
        }
        let verdict = match (timing_warnings.len(), o.strict_timing) {
            (0, _) => "",
            (_, true) => " (strict: failing)",
            (_, false) => " (warning; --strict-timing fails the run)",
        };
        println!(
            "  timing: {} of {compared} compared scenario(s) beyond ±{:.0}%{verdict}",
            timing_warnings.len(),
            TIMING_REPORT_THRESHOLD * 100.0
        );
        for warning in &timing_warnings {
            println!("    {warning}");
            if o.strict_timing {
                violations.push(format!("timing (strict): {warning}"));
            }
        }
        for base in baseline {
            let name = base.str("scenario").unwrap_or_default();
            let ran = current.iter().any(|r| r.str("scenario") == Some(name));
            if admits(o.only.as_deref(), name) && !ran {
                println!("  baseline scenario no longer in suite: {name}");
            }
        }
        violations
    }

    /// Everything after the run: writes the artifact (see
    /// [`should_write_artifact`]) and, under `--check`, gates the records
    /// and exits 1 on any violation.
    ///
    /// # Panics
    ///
    /// Panics if the artifact cannot be written.
    pub fn finish(&self, o: &Options, records: &[String]) {
        let explicit_out = std::env::var("BENCH_OUT").ok();
        if should_write_artifact(o.check.is_some(), o.only.is_some(), explicit_out.is_some()) {
            let path = explicit_out.unwrap_or_else(|| self.artifact_path(o.backend));
            let json = format!("[\n  {}\n]\n", records.join(",\n  "));
            std::fs::write(&path, json).expect("write the suite's JSON artifact");
            println!("wrote {} records to {path}", records.len());
        } else if o.only.is_some() && o.check.is_none() {
            println!("partial run (--only): baseline not written; set BENCH_OUT to export");
        }
        let Some(path) = &o.check else {
            return;
        };
        let fail = |summary: String| -> ! {
            eprintln!("gate FAILED: {summary}");
            std::process::exit(1);
        };
        let baseline = self.load_baseline(path).unwrap_or_else(|e| fail(e));
        let count = baseline.len();
        println!("== regression gate vs {path} ({count} records) ==");
        let current: Vec<Record> = (records.iter().map(|r| record::parse(r)))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| fail(format!("this run wrote an unreadable record: {e}")));
        let violations = self.gate(&baseline, &current, o);
        if violations.is_empty() {
            let sim = o.backend == Backend::Sim;
            let gates = self.gates.iter().filter(|_| sim);
            let mut held: Vec<String> = gates
                .map(|Gate(f, rule)| format!("{f} {}", rule.bound()))
                .collect();
            held.push(match o.strict_timing {
                true => format!("timing within ±{:.0}%", TIMING_REPORT_THRESHOLD * 100.0),
                false => "timing advisory".into(),
            });
            println!("gate PASSED on {}: {}", o.backend.name(), held.join(", "));
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

    const OLD: &str = r#"[
  {"scenario":"fault-free/alg1","backend":"sim","total_writes":500,"elapsed_ms":1.5},
  {"scenario":"fault-free/alg2","backend":"sim","total_writes":70,"elapsed_ms":2.0},
  {"scenario":"chaos/storm","backend":"sim","total_writes":9,"elapsed_ms":3.0}
]
"#;

    fn records(json: &str) -> Vec<Record> {
        let suite = Suite {
            name: "test",
            drivers: &[Backend::Sim],
            required: &["total_writes"],
            gates: &[],
            timing: "elapsed_ms",
        };
        suite.parse_baseline(json).unwrap()
    }

    /// [`diff`] of [`OLD`] against `OLD` with `from` replaced by `to`.
    fn moved(from: &str, to: &str) -> String {
        assert!(OLD.contains(from));
        diff(&records(OLD), &records(&OLD.replace(from, to)))
    }

    #[test]
    fn a_file_against_itself_moves_nothing() {
        assert_eq!(diff(&records(OLD), &records(OLD)), "no record moved\n");
        assert_eq!(diff(&[], &[]), "no record moved\n");
    }

    #[test]
    fn each_move_prints_its_own_line() {
        assert_eq!(
            moved(r#""total_writes":70"#, r#""total_writes":71"#),
            "fault-free/alg2: total_writes 70 -> 71\n"
        );
        assert_eq!(
            moved(
                r#""total_writes":9,"#,
                r#""total_writes":9,"shard_passes":4,"#
            ),
            "chaos/storm: shard_passes none -> 4\n"
        );
        assert_eq!(
            moved(r#""backend":"sim","total_writes":9"#, r#""total_writes":9"#),
            "chaos/storm: backend \"sim\" -> none\n"
        );
        let dropped = OLD.replace(
            "  {\"scenario\":\"fault-free/alg2\",\"backend\":\"sim\",\"total_writes\":70,\"elapsed_ms\":2.0},\n",
            "",
        );
        assert_eq!(
            diff(&records(OLD), &records(&dropped)),
            "fault-free/alg2: record dropped\n"
        );
        assert_eq!(
            diff(&records(&dropped), &records(OLD)),
            "fault-free/alg2: record added\n"
        );
    }

    #[test]
    fn families_group_and_wall_clock_stands_apart() {
        let new = OLD
            .replace(r#""total_writes":500"#, r#""total_writes":501"#)
            .replace(r#""total_writes":9"#, r#""total_writes":8"#)
            .replace(r#""total_writes":70"#, r#""total_writes":72"#)
            .replace(r#""elapsed_ms":3.0"#, r#""elapsed_ms":3.5"#);
        assert_eq!(
            diff(&records(OLD), &records(&new)),
            "fault-free/alg1: total_writes 500 -> 501\n\
             fault-free/alg2: total_writes 70 -> 72\n\
             \n\
             chaos/storm: total_writes 9 -> 8\n\
             \n\
             wall clock:\n  chaos/storm: elapsed_ms 3.0 -> 3.5\n"
        );
        assert_eq!(
            moved(r#""elapsed_ms":1.5"#, r#""elapsed_ms":1.25"#),
            "no model field moved\n\nwall clock:\n  fault-free/alg1: elapsed_ms 1.5 -> 1.25\n"
        );
    }

    #[test]
    fn diff_takes_two_artifacts_and_ends_the_parse() {
        let suite = Suite {
            name: "test",
            drivers: &[Backend::Sim],
            required: &[],
            gates: &[],
            timing: "elapsed_ms",
        };
        let parse = |args: &[&str]| suite.options(args.iter().map(|a| a.to_string()));
        let o = parse(&["--diff", "A.json", "B.json", "--anything"]).unwrap();
        assert_eq!(o.diff, Some(("A.json".into(), "B.json".into())));
        assert_eq!(parse(&["--diff", "A.json"]), None);
    }
}
