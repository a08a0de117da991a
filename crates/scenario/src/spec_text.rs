//! A line-oriented text serialization of [`Scenario`] — the on-disk form
//! of fuzz reproducers and the `meta` payload of recorded traces.
//!
//! The format is deliberately diff- and human-friendly: one `key value…`
//! line per field, `#` comments, and **default omission** — a line is only
//! emitted when the field differs from the [`Scenario::fault_free`]
//! baseline for the spec's variant and size. A freshly shrunk reproducer
//! is therefore a handful of lines, each one a fact the violation needs:
//!
//! ```text
//! scenario fuzz-regression/4fd1a2b3c4d5
//! variant alg1-fig2
//! n 4
//! crash at 9000 1
//! ```
//!
//! Round-trip: [`from_spec_text`]`(`[`to_spec_text`]`(s))` reproduces every
//! field of `s` (scenario equality is asserted field-by-field in the
//! tests, and the fuzz corpus is stored exclusively in this format).

use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_runtime::san::SanLatency;
use omega_sim::chaos::{Campaign, ChaosPhase};

use crate::{AdversarySpec, AwbSpec, CrashSpec, Scenario, TimerSpec};

/// A malformed spec text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec parse error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

impl SpecError {
    /// Prefixes the message with the 1-based line the error came from.
    fn at(self, line: usize) -> SpecError {
        SpecError(format!("line {line}: {}", self.0))
    }
}

/// Serializes a scenario, omitting every field equal to its
/// [`Scenario::fault_free`] default.
#[must_use]
pub fn to_spec_text(s: &Scenario) -> String {
    use std::fmt::Write as _;
    let base = Scenario::fault_free(s.variant, s.n);
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", s.name);
    let _ = writeln!(out, "variant {}", s.variant.name());
    let _ = writeln!(out, "n {}", s.n);
    if s.adversary != base.adversary {
        let _ = writeln!(out, "adversary {}", adversary_text(&s.adversary));
    }
    if s.awb != base.awb {
        match s.awb {
            Some(AwbSpec {
                timely,
                tau1,
                sigma,
            }) => {
                let _ = writeln!(out, "awb {} {tau1} {sigma}", timely.index());
            }
            None => {
                let _ = writeln!(out, "awb none");
            }
        }
    }
    if s.timers != base.timers {
        let _ = writeln!(out, "timers {}", timer_text(&s.timers));
    }
    for crash in &s.crashes {
        match *crash {
            CrashSpec::At { tick, pid } => {
                let _ = writeln!(out, "crash at {tick} {}", pid.index());
            }
            CrashSpec::LeaderAt { tick } => {
                let _ = writeln!(out, "crash leader {tick}");
            }
        }
    }
    if let Some(campaign) = &s.campaign {
        for phase in &campaign.phases {
            match phase {
                ChaosPhase::Partition {
                    groups,
                    from,
                    until,
                } => {
                    let _ = writeln!(
                        out,
                        "campaign partition {} {from} {until}",
                        groups_text(groups)
                    );
                }
                ChaosPhase::Storm {
                    factor,
                    jitter,
                    from,
                    until,
                } => {
                    let _ = writeln!(out, "campaign storm {factor} {jitter} {from} {until}");
                }
                ChaosPhase::Wave { crash, recover, at } => {
                    let _ = writeln!(
                        out,
                        "campaign wave {} {} {at}",
                        pids_text(crash),
                        pids_text(recover)
                    );
                }
                ChaosPhase::Heal { at } => {
                    let _ = writeln!(out, "campaign heal {at}");
                }
                ChaosPhase::Cut {
                    blinded,
                    hidden,
                    from,
                    until,
                } => {
                    let _ = writeln!(
                        out,
                        "campaign cut {}>{} {from} {until}",
                        pids_text(blinded),
                        pids_text(hidden)
                    );
                }
                ChaosPhase::Flap {
                    groups,
                    period,
                    from,
                    until,
                } => {
                    let _ = writeln!(
                        out,
                        "campaign flap {} {period} {from} {until}",
                        groups_text(groups)
                    );
                }
            }
        }
    }
    if s.horizon != base.horizon {
        let _ = writeln!(out, "horizon {}", s.horizon);
    }
    if s.sample_every != base.sample_every {
        let _ = writeln!(out, "sample-every {}", s.sample_every);
    }
    if s.stats_checkpoints != base.stats_checkpoints {
        let _ = writeln!(out, "checkpoints {}", s.stats_checkpoints);
    }
    if s.seed != base.seed {
        let _ = writeln!(out, "seed {}", s.seed);
    }
    // `expect` defaults to "AWB present": only a spec that overrides that
    // derivation (e.g. keeps AWB₁ but breaks AWB₂ via timers) gets a line.
    if s.expect_stabilization != s.awb.is_some() {
        let _ = writeln!(out, "expect {}", s.expect_stabilization);
    }
    if let Some(latency) = s.san_latency {
        let _ = writeln!(
            out,
            "san-latency {} {}",
            latency.base.as_micros(),
            latency.jitter.as_micros()
        );
    }
    out
}

fn adversary_text(spec: &AdversarySpec) -> String {
    match *spec {
        AdversarySpec::Synchronous { period } => format!("sync {period}"),
        AdversarySpec::RoundRobin { slot } => format!("roundrobin {slot}"),
        AdversarySpec::Random { min, max } => format!("random {min} {max}"),
        AdversarySpec::Bursty {
            fast,
            stall,
            burst_len,
        } => format!("bursty {fast} {stall} {burst_len}"),
        AdversarySpec::PartitionedPhases {
            phase_len,
            fast,
            stall,
        } => format!("phases {phase_len} {fast} {stall}"),
        AdversarySpec::GrowingBursts {
            victim,
            fast,
            burst_len,
            initial_stall,
            factor,
        } => format!(
            "growing {} {fast} {burst_len} {initial_stall} {factor}",
            victim.index()
        ),
        AdversarySpec::LeaderStaller { base, stall } => format!("staller {base} {stall}"),
    }
}

fn timer_text(spec: &TimerSpec) -> String {
    match *spec {
        TimerSpec::Exact => "exact".to_string(),
        TimerSpec::Affine { scale, offset } => format!("affine {scale} {offset}"),
        TimerSpec::Jittered { jitter } => format!("jittered {jitter}"),
        TimerSpec::ChaoticThenExact {
            chaos_until,
            chaos_max,
        } => format!("chaotic {chaos_until} {chaos_max}"),
        TimerSpec::JitterAffineMix {
            jitter,
            scale,
            offset,
        } => format!("mix {jitter} {scale} {offset}"),
        TimerSpec::StuckLow { cap } => format!("stucklow {cap}"),
    }
}

/// Parses a spec text back into a [`Scenario`].
///
/// `variant` and `n` are required; everything else falls back to the
/// [`Scenario::fault_free`] defaults exactly as [`to_spec_text`] omits
/// them. Blank lines and `#` comments are ignored.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the offending line (by number and
/// content) on any unknown key, malformed value, or missing required
/// field.
pub fn from_spec_text(text: &str) -> Result<Scenario, SpecError> {
    // Pass 1: the base scenario needs `variant` and `n` up front (the
    // defaults every other line is resolved against depend on them).
    let mut variant = None;
    let mut n = None;
    for (lineno, line) in lines(text) {
        let (key, rest) = split_key(line);
        match key {
            "variant" => variant = Some(parse_variant(rest).map_err(|e| e.at(lineno))?),
            "n" => n = Some(parse_num::<usize>(rest, "n").map_err(|e| e.at(lineno))?),
            _ => {}
        }
    }
    let variant = variant.ok_or_else(|| err("missing required `variant` line"))?;
    let n = n.ok_or_else(|| err("missing required `n` line"))?;
    if n == 0 {
        return Err(err("n must be positive"));
    }
    let mut s = Scenario::fault_free(variant, n);
    s.crashes.clear();

    // Pass 2: apply the overrides.
    let mut explicit_expect = None;
    for (lineno, line) in lines(text) {
        apply_line(&mut s, &mut explicit_expect, line).map_err(|e| e.at(lineno))?;
    }
    s.expect_stabilization = explicit_expect.unwrap_or(s.awb.is_some());
    if let Some(campaign) = &s.campaign {
        campaign.validate(n).map_err(err)?;
    }
    Ok(s)
}

fn apply_line(
    s: &mut Scenario,
    explicit_expect: &mut Option<bool>,
    line: &str,
) -> Result<(), SpecError> {
    let (key, rest) = split_key(line);
    match key {
        "variant" | "n" => {}
        "scenario" => s.name = rest.trim().to_string(),
        "adversary" => {
            let adversary = parse_adversary(rest)?;
            adversary.validate(s.n).map_err(err)?;
            s.adversary = adversary;
        }
        "awb" => {
            if rest.trim() == "none" {
                s.awb = None;
            } else {
                let f = fields(rest, 3, "awb")?;
                let awb = AwbSpec {
                    timely: parse_pid(f[0])?,
                    tau1: parse_num(f[1], "awb tau1")?,
                    sigma: parse_num(f[2], "awb sigma")?,
                };
                awb.validate(s.n).map_err(err)?;
                s.awb = Some(awb);
            }
        }
        "timers" => {
            let timers = parse_timers(rest)?;
            timers.validate().map_err(err)?;
            s.timers = timers;
        }
        "crash" => {
            let crash = parse_crash(rest)?;
            if let CrashSpec::At { pid, .. } = crash {
                if pid.index() >= s.n {
                    return Err(err(format!(
                        "crash target {pid} out of range for n = {}",
                        s.n
                    )));
                }
            }
            s.crashes.push(crash);
        }
        "campaign" => {
            let phase = parse_campaign_phase(rest)?;
            s.campaign
                .get_or_insert_with(Campaign::new)
                .phases
                .push(phase);
        }
        "horizon" => s.horizon = parse_num(rest, "horizon")?,
        "sample-every" => {
            s.sample_every = parse_num(rest, "sample-every")?;
            if s.sample_every == 0 {
                return Err(err("sample-every must be positive"));
            }
        }
        "checkpoints" => s.stats_checkpoints = parse_num(rest, "checkpoints")?,
        "seed" => s.seed = parse_num(rest, "seed")?,
        "expect" => {
            *explicit_expect = Some(match rest.trim() {
                "true" => true,
                "false" => false,
                other => return Err(err(format!("expect must be true/false, got `{other}`"))),
            });
        }
        "san-latency" => {
            let f = fields(rest, 2, "san-latency")?;
            s.san_latency = Some(SanLatency {
                base: std::time::Duration::from_micros(parse_num(f[0], "san base")?),
                jitter: std::time::Duration::from_micros(parse_num(f[1], "san jitter")?),
            });
        }
        other => return Err(err(format!("unknown spec key `{other}`"))),
    }
    Ok(())
}

fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

fn split_key(line: &str) -> (&str, &str) {
    match line.split_once(char::is_whitespace) {
        Some((key, rest)) => (key, rest.trim()),
        None => (line, ""),
    }
}

fn fields<'a>(rest: &'a str, want: usize, what: &str) -> Result<Vec<&'a str>, SpecError> {
    let f: Vec<&str> = rest.split_whitespace().collect();
    if f.len() != want {
        return Err(err(format!(
            "`{what}` needs {want} fields, got {} in `{rest}`",
            f.len()
        )));
    }
    Ok(f)
}

fn parse_num<T: std::str::FromStr>(field: &str, what: &str) -> Result<T, SpecError> {
    field
        .trim()
        .parse()
        .map_err(|_| err(format!("bad {what} value `{field}`")))
}

fn parse_pid(field: &str) -> Result<ProcessId, SpecError> {
    Ok(ProcessId::new(parse_num::<usize>(field, "process id")?))
}

fn parse_variant(rest: &str) -> Result<OmegaVariant, SpecError> {
    OmegaVariant::all()
        .into_iter()
        .find(|v| v.name() == rest.trim())
        .ok_or_else(|| err(format!("unknown variant `{}`", rest.trim())))
}

fn parse_adversary(rest: &str) -> Result<AdversarySpec, SpecError> {
    let (kind, rest) = split_key(rest);
    Ok(match kind {
        "sync" => AdversarySpec::Synchronous {
            period: parse_num(rest, "sync period")?,
        },
        "roundrobin" => AdversarySpec::RoundRobin {
            slot: parse_num(rest, "roundrobin slot")?,
        },
        "random" => {
            let f = fields(rest, 2, "adversary random")?;
            AdversarySpec::Random {
                min: parse_num(f[0], "random min")?,
                max: parse_num(f[1], "random max")?,
            }
        }
        "bursty" => {
            let f = fields(rest, 3, "adversary bursty")?;
            AdversarySpec::Bursty {
                fast: parse_num(f[0], "bursty fast")?,
                stall: parse_num(f[1], "bursty stall")?,
                burst_len: parse_num(f[2], "bursty burst_len")?,
            }
        }
        "phases" => {
            let f = fields(rest, 3, "adversary phases")?;
            AdversarySpec::PartitionedPhases {
                phase_len: parse_num(f[0], "phases phase_len")?,
                fast: parse_num(f[1], "phases fast")?,
                stall: parse_num(f[2], "phases stall")?,
            }
        }
        "growing" => {
            let f = fields(rest, 5, "adversary growing")?;
            AdversarySpec::GrowingBursts {
                victim: parse_pid(f[0])?,
                fast: parse_num(f[1], "growing fast")?,
                burst_len: parse_num(f[2], "growing burst_len")?,
                initial_stall: parse_num(f[3], "growing initial_stall")?,
                factor: parse_num(f[4], "growing factor")?,
            }
        }
        "staller" => {
            let f = fields(rest, 2, "adversary staller")?;
            AdversarySpec::LeaderStaller {
                base: parse_num(f[0], "staller base")?,
                stall: parse_num(f[1], "staller stall")?,
            }
        }
        other => return Err(err(format!("unknown adversary `{other}`"))),
    })
}

fn parse_timers(rest: &str) -> Result<TimerSpec, SpecError> {
    let (kind, rest) = split_key(rest);
    Ok(match kind {
        "exact" => TimerSpec::Exact,
        "affine" => {
            let f = fields(rest, 2, "timers affine")?;
            TimerSpec::Affine {
                scale: parse_num(f[0], "affine scale")?,
                offset: parse_num(f[1], "affine offset")?,
            }
        }
        "jittered" => TimerSpec::Jittered {
            jitter: parse_num(rest, "jittered jitter")?,
        },
        "chaotic" => {
            let f = fields(rest, 2, "timers chaotic")?;
            TimerSpec::ChaoticThenExact {
                chaos_until: parse_num(f[0], "chaotic until")?,
                chaos_max: parse_num(f[1], "chaotic max")?,
            }
        }
        "mix" => {
            let f = fields(rest, 3, "timers mix")?;
            TimerSpec::JitterAffineMix {
                jitter: parse_num(f[0], "mix jitter")?,
                scale: parse_num(f[1], "mix scale")?,
                offset: parse_num(f[2], "mix offset")?,
            }
        }
        "stucklow" => TimerSpec::StuckLow {
            cap: parse_num(rest, "stucklow cap")?,
        },
        other => return Err(err(format!("unknown timer model `{other}`"))),
    })
}

fn pids_text(pids: &[ProcessId]) -> String {
    if pids.is_empty() {
        "-".to_string()
    } else {
        pids.iter()
            .map(|p| p.index().to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn groups_text(groups: &[Vec<ProcessId>]) -> String {
    if groups.is_empty() {
        "-".to_string()
    } else {
        groups
            .iter()
            .map(|g| pids_text(g))
            .collect::<Vec<_>>()
            .join("|")
    }
}

fn parse_pid_list(field: &str) -> Result<Vec<ProcessId>, SpecError> {
    if field == "-" {
        return Ok(Vec::new());
    }
    field.split(',').map(parse_pid).collect()
}

fn parse_groups(field: &str) -> Result<Vec<Vec<ProcessId>>, SpecError> {
    if field == "-" {
        return Ok(Vec::new());
    }
    field.split('|').map(parse_pid_list).collect()
}

fn parse_campaign_phase(rest: &str) -> Result<ChaosPhase, SpecError> {
    let (kind, rest) = split_key(rest);
    Ok(match kind {
        "partition" => {
            let f = fields(rest, 3, "campaign partition")?;
            ChaosPhase::Partition {
                groups: parse_groups(f[0])?,
                from: parse_num(f[1], "partition from")?,
                until: parse_num(f[2], "partition until")?,
            }
        }
        "storm" => {
            let f = fields(rest, 4, "campaign storm")?;
            ChaosPhase::Storm {
                factor: parse_num(f[0], "storm factor")?,
                jitter: parse_num(f[1], "storm jitter")?,
                from: parse_num(f[2], "storm from")?,
                until: parse_num(f[3], "storm until")?,
            }
        }
        "wave" => {
            let f = fields(rest, 3, "campaign wave")?;
            ChaosPhase::Wave {
                crash: parse_pid_list(f[0])?,
                recover: parse_pid_list(f[1])?,
                at: parse_num(f[2], "wave at")?,
            }
        }
        "heal" => ChaosPhase::Heal {
            at: parse_num(rest, "heal at")?,
        },
        "cut" => {
            let f = fields(rest, 3, "campaign cut")?;
            let (blinded, hidden) = f[0]
                .split_once('>')
                .ok_or_else(|| err("cut sides must be `blinded>hidden`".to_string()))?;
            ChaosPhase::Cut {
                blinded: parse_pid_list(blinded)?,
                hidden: parse_pid_list(hidden)?,
                from: parse_num(f[1], "cut from")?,
                until: parse_num(f[2], "cut until")?,
            }
        }
        "flap" => {
            let f = fields(rest, 4, "campaign flap")?;
            ChaosPhase::Flap {
                groups: parse_groups(f[0])?,
                period: parse_num(f[1], "flap period")?,
                from: parse_num(f[2], "flap from")?,
                until: parse_num(f[3], "flap until")?,
            }
        }
        other => return Err(err(format!("unknown campaign phase `{other}`"))),
    })
}

fn parse_crash(rest: &str) -> Result<CrashSpec, SpecError> {
    let (kind, rest) = split_key(rest);
    Ok(match kind {
        "at" => {
            let f = fields(rest, 2, "crash at")?;
            CrashSpec::At {
                tick: parse_num(f[0], "crash tick")?,
                pid: parse_pid(f[1])?,
            }
        }
        "leader" => CrashSpec::LeaderAt {
            tick: parse_num(rest, "crash tick")?,
        },
        other => return Err(err(format!("unknown crash kind `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn assert_same(a: &Scenario, b: &Scenario) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.n, b.n);
        assert_eq!(a.adversary, b.adversary);
        assert_eq!(a.awb, b.awb);
        assert_eq!(a.timers, b.timers);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.horizon, b.horizon);
        assert_eq!(a.sample_every, b.sample_every);
        assert_eq!(a.stats_checkpoints, b.stats_checkpoints);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.expect_stabilization, b.expect_stabilization);
        assert_eq!(a.san_latency, b.san_latency);
        assert_eq!(a.campaign, b.campaign);
    }

    #[test]
    fn every_registry_scenario_round_trips() {
        for scenario in registry::all() {
            let text = to_spec_text(&scenario);
            let parsed = from_spec_text(&text).unwrap_or_else(|e| {
                panic!("{}: {e}\n{text}", scenario.name);
            });
            assert_same(&scenario, &parsed);
            // Serialization is a fixpoint.
            assert_eq!(to_spec_text(&parsed), text);
        }
    }

    #[test]
    fn fault_free_default_is_three_lines() {
        let s = Scenario::fault_free(OmegaVariant::Alg1, 4);
        let text = to_spec_text(&s);
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("variant alg1-fig2"));
        assert!(text.contains("n 4"));
    }

    #[test]
    fn stepclock_default_adversary_is_omitted() {
        // The fault-free default adversary depends on the variant; the
        // serializer must compare against the right baseline.
        let s = Scenario::fault_free(OmegaVariant::StepClock, 3);
        let text = to_spec_text(&s);
        assert!(!text.contains("adversary"), "{text}");
        let parsed = from_spec_text(&text).unwrap();
        assert_eq!(parsed.adversary, AdversarySpec::Random { min: 2, max: 6 });
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a reproducer\n\nscenario x\nvariant alg2-fig5-bounded\n\nn 3\n# done\n";
        let s = from_spec_text(text).unwrap();
        assert_eq!(s.name, "x");
        assert_eq!(s.variant, OmegaVariant::Alg2);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn awb_none_clears_expectation() {
        let s = from_spec_text("variant alg1-fig2\nn 3\nawb none\n").unwrap();
        assert!(s.awb.is_none());
        assert!(!s.expect_stabilization);
        // ... unless overridden explicitly.
        let s = from_spec_text("variant alg1-fig2\nn 3\nawb none\nexpect true\n").unwrap();
        assert!(s.expect_stabilization);
    }

    #[test]
    fn every_campaign_stanza_round_trips() {
        let p = ProcessId::new;
        let campaign = Campaign::new()
            .phase(ChaosPhase::Partition {
                groups: vec![vec![p(0), p(1)], vec![p(2), p(3), p(4)]],
                from: 1_000,
                until: 4_000,
            })
            .phase(ChaosPhase::Storm {
                factor: 5,
                jitter: 3,
                from: 4_500,
                until: 6_000,
            })
            .phase(ChaosPhase::Wave {
                crash: vec![p(1)],
                recover: vec![],
                at: 6_500,
            })
            .phase(ChaosPhase::Wave {
                crash: vec![],
                recover: vec![p(1)],
                at: 7_000,
            })
            .phase(ChaosPhase::Heal { at: 7_500 })
            .phase(ChaosPhase::Cut {
                blinded: vec![p(0), p(1)],
                hidden: vec![p(2), p(3)],
                from: 8_000,
                until: 9_000,
            })
            .phase(ChaosPhase::Flap {
                groups: vec![vec![p(0), p(1)], vec![p(2), p(3), p(4)]],
                period: 400,
                from: 10_000,
                until: 14_000,
            });
        let s = Scenario::fault_free(OmegaVariant::Alg1, 5)
            .campaign(campaign)
            .horizon(20_000);
        let text = to_spec_text(&s);
        assert!(
            text.contains("campaign partition 0,1|2,3,4 1000 4000"),
            "{text}"
        );
        assert!(text.contains("campaign storm 5 3 4500 6000"), "{text}");
        assert!(text.contains("campaign wave 1 - 6500"), "{text}");
        assert!(text.contains("campaign wave - 1 7000"), "{text}");
        assert!(text.contains("campaign heal 7500"), "{text}");
        assert!(text.contains("campaign cut 0,1>2,3 8000 9000"), "{text}");
        assert!(
            text.contains("campaign flap 0,1|2,3,4 400 10000 14000"),
            "{text}"
        );
        let parsed = from_spec_text(&text).unwrap();
        assert_same(&s, &parsed);
        assert_eq!(to_spec_text(&parsed), text);
    }

    #[test]
    fn parse_errors_name_the_offending_line() {
        let text = "scenario x\nvariant alg1-fig2\nn 3\n\n# comment\ncrash at x 0\n";
        let e = from_spec_text(text).unwrap_err().to_string();
        assert!(e.contains("line 6"), "{e}");
        assert!(e.contains("bad crash tick"), "{e}");
        // An invalid campaign (pid out of range) is caught at parse time.
        let oob = "variant alg1-fig2\nn 3\ncampaign wave 7 - 100\n";
        let e = from_spec_text(oob).unwrap_err().to_string();
        assert!(e.contains("out of range"), "{e}");
        // Hostile stanzas carry line numbers like every other key.
        let cut = "variant alg1-fig2\nn 3\n# hostile\ncampaign cut 0,1 100 900\n";
        let e = from_spec_text(cut).unwrap_err().to_string();
        assert!(e.contains("line 4"), "{e}");
        assert!(e.contains("blinded>hidden"), "{e}");
        let flap = "variant alg1-fig2\nn 3\n\ncampaign flap 0|1 x 100 900\n";
        let e = from_spec_text(flap).unwrap_err().to_string();
        assert!(e.contains("line 4"), "{e}");
        assert!(e.contains("bad flap period"), "{e}");
    }

    #[test]
    fn malformed_texts_are_rejected_with_context() {
        for (text, needle) in [
            ("n 3\n", "variant"),
            ("variant alg1-fig2\n", "`n`"),
            ("variant nope\nn 3\n", "unknown variant"),
            ("variant alg1-fig2\nn 0\n", "positive"),
            ("variant alg1-fig2\nn 3\nfrobnicate 7\n", "unknown spec key"),
            ("variant alg1-fig2\nn 3\nadversary random 1\n", "2 fields"),
            ("variant alg1-fig2\nn 3\ntimers warp 4\n", "unknown timer"),
            ("variant alg1-fig2\nn 3\ncrash at x 0\n", "bad crash tick"),
            ("variant alg1-fig2\nn 3\nexpect maybe\n", "true/false"),
            (
                "variant alg1-fig2\nn 3\ncampaign quake 5\n",
                "unknown campaign phase",
            ),
            ("variant alg1-fig2\nn 3\ncampaign storm 2 1 5\n", "4 fields"),
            (
                "variant alg1-fig2\nn 3\ncampaign partition 0|0 5 9\n",
                "two groups",
            ),
            (
                "variant alg1-fig2\nn 3\ncampaign cut 0>0 5 9\n",
                "both sides",
            ),
            ("variant alg1-fig2\nn 3\ncampaign cut 0>1 5\n", "3 fields"),
            (
                "variant alg1-fig2\nn 3\ncampaign flap 0|1 0 5 9\n",
                "period",
            ),
            (
                "variant alg1-fig2\nn 3\ncampaign flap 0|7 4 5 9\n",
                "out of range",
            ),
        ] {
            let e = from_spec_text(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "`{text}` should fail mentioning `{needle}`, got: {e}"
            );
        }
    }

    #[test]
    fn clauses_the_simulator_cannot_build_are_refused_at_their_line() {
        // Each clause breaks a condition a simulator constructor asserts
        // (or names a process outside the system); its neighbour sits just
        // inside the same condition, parses, and runs.
        use crate::{Driver, SimDriver};
        for (refused, admitted, needle) in [
            (
                "sample-every 0",
                "sample-every 1",
                "sample-every must be positive",
            ),
            (
                "crash at 100 9",
                "crash at 100 3",
                "crash target p9 out of range",
            ),
            (
                "adversary random 5 2",
                "adversary random 2 2",
                "0 < min <= max",
            ),
            (
                "adversary random 0 0",
                "adversary random 1 1",
                "0 < min <= max",
            ),
            (
                "adversary sync 0",
                "adversary sync 1",
                "period must be positive",
            ),
            (
                "adversary roundrobin 0",
                "adversary roundrobin 1",
                "slot must be positive",
            ),
            (
                "adversary bursty 0 0 0",
                "adversary bursty 1 1 1",
                "must be positive",
            ),
            (
                "adversary phases 10 5 5",
                "adversary phases 10 5 6",
                "0 < fast < stall",
            ),
            (
                "adversary growing 9 1 1 1 1",
                "adversary growing 3 1 1 1 2",
                "victim p9 out of range",
            ),
            (
                "adversary growing 3 1 1 1 1",
                "adversary growing 3 1 1 1 2",
                "factor >= 2",
            ),
            (
                "adversary staller 0 0",
                "adversary staller 1 2",
                "0 < base < stall",
            ),
            (
                "awb 9 1000 4",
                "awb 3 1000 4",
                "timely process p9 out of range",
            ),
            ("awb 3 1000 0", "awb 3 1000 1", "sigma must be positive"),
            (
                "timers affine 0 1",
                "timers affine 1 1",
                "scale must be positive",
            ),
            (
                "timers mix 2 0 1",
                "timers mix 2 1 1",
                "scale must be positive",
            ),
            (
                "timers chaotic 10 0",
                "timers chaotic 10 1",
                "chaotic max must be positive",
            ),
            (
                "timers stucklow 0",
                "timers stucklow 1",
                "stucklow cap must be positive",
            ),
        ] {
            let spec =
                |clause: &str| format!("variant alg1-fig2\nn 4\n# probe\n{clause}\nhorizon 500\n");
            let e = from_spec_text(&spec(refused)).unwrap_err().to_string();
            assert!(
                e.contains("line 4") && e.contains(needle),
                "`{refused}` should be refused at line 4 with `{needle}`, got: {e}"
            );
            let s = from_spec_text(&spec(admitted))
                .unwrap_or_else(|e| panic!("`{admitted}` should parse: {e}"));
            let _ = SimDriver.run(&s);
        }
    }
}
