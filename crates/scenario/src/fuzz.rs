//! Randomized scenario generation, election invariants, and greedy
//! spec shrinking — the library half of the `omega-bench` `fuzz` binary.
//!
//! The hand-written registry stays on the friendly side of AWB; this
//! module generates specs the hand suite never reaches (wild adversaries,
//! broken timers, crash scripts aimed at the timely process) and checks
//! every run against two oracles:
//!
//! * **Safety** — never two simultaneously *stable* leaders. A claimant
//!   counts only while it is actively stepping ([`split_brain`]): an
//!   adversary that freezes a stale self-estimate (a stalled former
//!   leader) is churn, not split-brain.
//! * **Liveness** — when [`liveness_checkable`] proves the spec sits
//!   firmly inside the paper's AWB envelope, the run must stabilize.
//!   The predicate is deliberately conservative: it mirrors the bounds
//!   the generator draws from, and doubles as the shrinking guard (a
//!   shrink step that leaves the envelope stops reproducing a liveness
//!   violation and is rejected by re-testing).
//!
//! On a violation, [`shrink`] greedily simplifies the spec — halve `n`,
//! drop crash-script entries, reset adversary/timer/AWB/seed to the
//! [`Scenario::fault_free`] defaults — re-testing each candidate, until no
//! move preserves the violation. Because the spec text omits defaults, the
//! fixpoint is a minimal reproducer a few lines long, named
//! `fuzz-regression/<hash>` by [`reproducer_name`].

use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_sim::chaos::{Campaign, ChaosPhase};
use omega_sim::metrics::Samples;
use omega_sim::rng::SmallRng;
use omega_sim::RunReport;

use crate::spec_text::to_spec_text;
use crate::{AdversarySpec, AwbSpec, CrashSpec, Scenario, TimerSpec};

/// An invariant violation found by the oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two processes were simultaneously stable, active leaders.
    Safety {
        /// What was observed, for the report.
        detail: String,
    },
    /// The spec promised stabilization and the run never settled.
    Liveness {
        /// What was observed, for the report.
        detail: String,
    },
    /// The spec provably prevents stable self-leadership
    /// ([`provably_hostile`]) and a process reigned past the witness
    /// allowance anyway — the dual of `Liveness`.
    FalseStable {
        /// What was observed, for the report.
        detail: String,
    },
}

impl Violation {
    /// `"safety"`, `"liveness"`, or `"false-stable"`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Safety { .. } => "safety",
            Violation::Liveness { .. } => "liveness",
            Violation::FalseStable { .. } => "false-stable",
        }
    }

    /// The human-readable observation.
    #[must_use]
    pub fn detail(&self) -> &str {
        match self {
            Violation::Safety { detail }
            | Violation::Liveness { detail }
            | Violation::FalseStable { detail } => detail,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// Consecutive samples over which both claimants must hold their own
/// leadership for the safety oracle to call split-brain.
pub const SAFETY_WINDOW: usize = 25;

/// Minimum steps a claimant must take *inside* the window to count as
/// active (a frozen process cannot be a stable leader, only a stale one).
pub const MIN_WINDOW_STEPS: u64 = 10;

/// Minimum sample intervals of the window in which a claimant must take at
/// least one step. Total steps alone are not simultaneity: under a bursty
/// adversary two processes can *alternate* bursts inside one window, each
/// keeping a stale self-estimate while frozen — churn, not split-brain.
/// Requiring activity in a *strict majority* of the window's
/// `SAFETY_WINDOW - 1` intervals means two claimants must have stepped in
/// at least one common interval — simultaneity by pigeonhole, not luck.
pub const MIN_ACTIVE_INTERVALS: usize = (SAFETY_WINDOW - 1) / 2 + 1;

/// The safety oracle: scans for a window of [`SAFETY_WINDOW`] consecutive
/// samples in which two distinct processes each believe **themselves**
/// leader throughout while both step *throughout* the window (at least
/// [`MIN_WINDOW_STEPS`] steps in total, spread over at least
/// [`MIN_ACTIVE_INTERVALS`] of the window's sample intervals).
///
/// Samples without step counts (hand-built timelines) never produce a
/// claimant — activity cannot be proven.
#[must_use]
pub fn split_brain(samples: Samples<'_>) -> Option<String> {
    for start in 0..(samples.len() + 1).saturating_sub(SAFETY_WINDOW) {
        let window = samples.slice(start..start + SAFETY_WINDOW);
        let (first, last) = (window.first()?, window.last()?);
        if first.steps.is_empty() || last.steps.is_empty() {
            continue;
        }
        let claimants: Vec<usize> = (0..first.steps.len())
            .filter(|&p| {
                window
                    .iter()
                    .all(|s| s.leaders.get(p).copied().flatten() == Some(ProcessId::new(p)))
                    && last.steps[p].saturating_sub(first.steps[p]) >= MIN_WINDOW_STEPS
                    && window
                        .iter()
                        .zip(window.iter().skip(1))
                        .filter(|(before, after)| {
                            after.steps.get(p).copied().unwrap_or(0)
                                > before.steps.get(p).copied().unwrap_or(0)
                        })
                        .count()
                        >= MIN_ACTIVE_INTERVALS
            })
            .collect();
        if claimants.len() >= 2 {
            return Some(format!(
                "processes {:?} each held self-leadership over [{}, {}] while actively stepping",
                claimants,
                first.time.ticks(),
                last.time.ticks()
            ));
        }
    }
    None
}

/// Whether the environment (schedule + timers) stays inside the regime
/// the paper's guarantees are stated over: bounded stalls and honest,
/// eventually-accurate timers.
///
/// This gates **both** oracles. Outside this envelope Ω promises nothing
/// — under stuck-low timers every process perpetually suspects every
/// other and two active self-leaders are *correct* behavior, and
/// convergence time grows roughly quadratically with the largest
/// scheduling gap (each false suspicion widens the adaptive timeout by a
/// constant), so multi-thousand-tick stalls legitimately outlast any
/// horizon this fuzzer can afford.
#[must_use]
pub fn environment_tame(s: &Scenario) -> bool {
    let adversary_ok = match s.adversary {
        AdversarySpec::Synchronous { period } => period <= 16,
        AdversarySpec::RoundRobin { slot } => slot <= 16,
        AdversarySpec::Random { min, max } => min >= 1 && min <= max && max <= 64,
        AdversarySpec::Bursty {
            fast,
            stall,
            burst_len,
        } => (1..=16).contains(&fast) && stall <= 128 && burst_len >= 1,
        AdversarySpec::PartitionedPhases {
            phase_len,
            fast,
            stall,
        } => fast >= 1 && phase_len <= 2_000 && stall <= 32,
        // Growing stalls starve their victim's estimate forever; the
        // staller is the AWB-violating schedule by construction.
        AdversarySpec::GrowingBursts { .. } | AdversarySpec::LeaderStaller { .. } => false,
    };
    if !adversary_ok {
        return false;
    }
    match s.timers {
        TimerSpec::Exact => true,
        TimerSpec::Affine { scale, offset } => (1..=4).contains(&scale) && offset <= 64,
        TimerSpec::Jittered { jitter } => jitter <= 64,
        TimerSpec::JitterAffineMix {
            jitter,
            scale,
            offset,
        } => jitter <= 64 && (1..=4).contains(&scale) && offset <= 64,
        // A chaotic timer fires arbitrarily *early*: during the chaos
        // phase every process suspects every other on no evidence, and a
        // storm of simultaneously active self-leaders is correct behavior
        // — the same reason stuck-low timers are out.
        TimerSpec::ChaoticThenExact { .. } | TimerSpec::StuckLow { .. } => false,
    }
}

/// Whether the spec sits firmly enough inside the AWB envelope that the
/// paper's theorems promise stabilization *within the horizon* — the gate
/// in front of the liveness oracle.
///
/// Deliberately conservative (a `false` only skips the liveness check, a
/// wrong `true` is a false alarm), and calibrated to the regimes this
/// repository's own registry demonstrates convergence in: *uniform*
/// schedules only (synchronous / round-robin / bounded-random — bursty
/// and partitioned-phase schedules are structured starvation, under which
/// stepping gaps legitimately outpace the adaptive timeouts and the
/// estimate keeps rotating), near-honest timers (jitter within the
/// registry's σ scale), a *strongly* timely process (`sigma <= 8`, the
/// registry ships 4), an early-settling AWB₁ promise, crashes early
/// enough to re-elect and re-settle, no crash touching the timely
/// process, and no step-clock variant (its liveness bound is a step-rate
/// ratio the envelope does not constrain).
#[must_use]
pub fn liveness_checkable(s: &Scenario) -> bool {
    let Some(AwbSpec {
        timely,
        tau1,
        sigma,
    }) = s.awb
    else {
        return false;
    };
    if s.variant == OmegaVariant::StepClock {
        return false;
    }
    if s.horizon < 20_000 || tau1 > 1_000 || sigma > 8 || s.sample_every > 200 {
        return false;
    }
    let adversary_ok = match s.adversary {
        AdversarySpec::Synchronous { period } => period <= 16,
        AdversarySpec::RoundRobin { slot } => slot <= 16,
        AdversarySpec::Random { min, max } => min >= 1 && min <= max && max <= 64,
        AdversarySpec::Bursty { .. }
        | AdversarySpec::PartitionedPhases { .. }
        | AdversarySpec::GrowingBursts { .. }
        | AdversarySpec::LeaderStaller { .. } => false,
    };
    if !adversary_ok {
        return false;
    }
    let timers_ok = match s.timers {
        TimerSpec::Exact => true,
        TimerSpec::Affine { scale, offset } => (1..=4).contains(&scale) && offset <= 64,
        TimerSpec::Jittered { jitter } => jitter <= 8,
        TimerSpec::JitterAffineMix {
            jitter,
            scale,
            offset,
        } => jitter <= 8 && (1..=4).contains(&scale) && offset <= 64,
        TimerSpec::ChaoticThenExact { .. } | TimerSpec::StuckLow { .. } => false,
    };
    if !timers_ok {
        return false;
    }
    if s.crashes.len() >= s.n {
        return false;
    }
    // Campaigns: a partition legitimately delays stabilization until well
    // past the heal (both sides' suspicions must re-expire), so its
    // convergence bound is outside this conservative envelope — skip
    // liveness, the safety oracle still watches the unmasked timeline.
    // Storms and waves are checkable when they clear early (the crash
    // rule's shape) and no wave kills the timely process.
    if let Some(campaign) = &s.campaign {
        if !campaign.is_empty() && s.horizon < 40_000 {
            return false;
        }
        let ok = campaign.phases.iter().all(|phase| {
            let done_by = phase.end().unwrap_or_else(|| phase.start());
            if phase.start() > s.horizon / 4 || done_by > s.horizon / 4 {
                return false;
            }
            match phase {
                // Cuts and flaps pump suspicions like partitions do; their
                // convergence bound is likewise outside this envelope.
                ChaosPhase::Partition { .. } | ChaosPhase::Cut { .. } | ChaosPhase::Flap { .. } => {
                    false
                }
                ChaosPhase::Wave { crash, .. } => crash.iter().all(|&p| p != timely),
                ChaosPhase::Storm { factor, jitter, .. } => *factor <= 4 && *jitter <= 64,
                ChaosPhase::Heal { .. } => true,
            }
        });
        if !ok {
            return false;
        }
    }
    // A crash resets convergence: there must be room to detect it (the
    // grown timeouts have to expire once more) and re-settle.
    if !s.crashes.is_empty() && s.horizon < 40_000 {
        return false;
    }
    s.crashes.iter().all(|crash| match *crash {
        CrashSpec::At { tick, pid } => pid != timely && tick <= s.horizon / 4,
        // A leader-relative crash may hit the timely process itself.
        CrashSpec::LeaderAt { .. } => false,
    })
}

/// Ticks after a partition window opens during which split leader
/// estimates remain *correct* Ω behavior even past the heal: the two
/// sides' pumped suspicions and grown timeouts must re-expire before
/// estimates can merge again. The safety oracle masks each partition's
/// `[from, until + grace)` out of the timeline.
pub const HEAL_GRACE_TICKS: u64 = 5_000;

/// Runs the safety oracle with campaign partitions masked out: inside a
/// register-space partition (and for [`HEAL_GRACE_TICKS`] after it) the
/// minority legitimately elects its own leader, so split estimates there
/// are the *spec's* doing, not split-brain. Each unmasked contiguous
/// segment of the timeline is scanned independently.
#[must_use]
pub fn split_brain_outside_partitions(s: &Scenario, samples: Samples<'_>) -> Option<String> {
    let masks: Vec<(u64, u64)> = s
        .campaign
        .iter()
        .flat_map(|c| c.phases.iter())
        .filter_map(|phase| match phase {
            // A flap's healed half-cycles stay masked too: the grace after
            // each cut overlaps the next install, so the whole window is
            // one contiguous regime of spec-sanctioned disagreement.
            ChaosPhase::Partition { from, until, .. }
            | ChaosPhase::Cut { from, until, .. }
            | ChaosPhase::Flap { from, until, .. } => {
                Some((*from, until.saturating_add(HEAL_GRACE_TICKS)))
            }
            _ => None,
        })
        .collect();
    if masks.is_empty() {
        return split_brain(samples);
    }
    let mut segment_start = 0;
    for (i, sample) in samples.iter().enumerate() {
        let t = sample.time.ticks();
        if masks.iter().any(|&(from, end)| t >= from && t < end) {
            if let Some(detail) = split_brain(samples.slice(segment_start..i)) {
                return Some(detail);
            }
            segment_start = i + 1;
        }
    }
    split_brain(samples.slice(segment_start..samples.len()))
}

/// Whether the spec provably prevents any stable self-leading reign, and
/// over which window — the gate in front of the non-election oracle, dual
/// to [`liveness_checkable`].
///
/// Deliberately conservative (a `false` only skips the check; a wrong
/// `true` files a false regression), and calibrated to the recipe the
/// registry's `hostile/` members prove out: no AWB envelope, stuck-low
/// timers, and the leader-stalling schedule, whose plurality target
/// rotates every effective stall. Every spec-sanctioned reign must sit far
/// below the witness allowance (a third of the window): continuous
/// partition/cut spans and flap periods bounded by `window/6`, the
/// (storm-stretched) stall cadence by `window/8`. Crashes and waves void
/// the certificate — a lone survivor reigns legitimately — and the
/// step-clock variant has no timers for `StuckLow` to break.
#[must_use]
pub fn provably_hostile(s: &Scenario) -> Option<(u64, u64)> {
    if s.awb.is_some() || s.variant == OmegaVariant::StepClock || !s.crashes.is_empty() {
        return None;
    }
    let TimerSpec::StuckLow { cap } = s.timers else {
        return None;
    };
    if !(1..=16).contains(&cap) {
        return None;
    }
    let AdversarySpec::LeaderStaller { base, stall } = s.adversary else {
        return None;
    };
    if !(1..=4).contains(&base) {
        return None;
    }
    let campaign = s.campaign.as_ref()?;
    let (from, until) = campaign.disruption_window(s.horizon)?;
    let window = until.saturating_sub(from);
    let mut storm_factor = 1;
    for phase in &campaign.phases {
        match phase {
            ChaosPhase::Wave { .. } => return None,
            ChaosPhase::Heal { .. } => {}
            ChaosPhase::Storm { factor, .. } => storm_factor = storm_factor.max(*factor),
            // A cut sanctions a per-side reign for its whole continuous
            // span; only spans the heal cadence keeps short are certified.
            ChaosPhase::Partition { from, until, .. } | ChaosPhase::Cut { from, until, .. } => {
                if until.saturating_sub(*from).saturating_mul(6) > window {
                    return None;
                }
            }
            ChaosPhase::Flap { period, .. } => {
                if period.saturating_mul(6) > window {
                    return None;
                }
            }
        }
    }
    // Stalls must dwarf the stuck timers (so every reigning leader is
    // actually suspected) and the stretched rotation cadence must still
    // fit many times into the window.
    let effective = stall.saturating_mul(storm_factor);
    if effective <= cap.saturating_mul(4) || effective.saturating_mul(8) > window {
        return None;
    }
    Some((from, until))
}

/// Runs the scenario's variant on the simulator and applies the oracles.
#[must_use]
pub fn run_and_check(s: &Scenario) -> Option<Violation> {
    let sys = s.variant.build(s.n);
    let space = sys.space.clone();
    let report = s.sim_builder(sys.actors).memory(space).run();
    check_report(s, &report)
}

/// Applies the safety and (when checkable) liveness and non-election
/// oracles to a report.
#[must_use]
pub fn check_report(s: &Scenario, report: &RunReport) -> Option<Violation> {
    if environment_tame(s) {
        if let Some(detail) = split_brain_outside_partitions(s, report.timeline.samples()) {
            return Some(Violation::Safety { detail });
        }
    }
    if liveness_checkable(s) && report.stabilization().is_none() {
        let last = report.timeline.samples().last();
        return Some(Violation::Liveness {
            detail: format!(
                "AWB spec never stabilized over horizon {}; final estimates {:?}",
                s.horizon,
                last.map(|sample| sample.leaders)
            ),
        });
    }
    if let Some((from, until)) = provably_hostile(s) {
        let witness =
            crate::NonElectionWitness::from_timeline(from, until, report.timeline.samples());
        if witness.false_stable_ticks > 0 {
            return Some(Violation::FalseStable {
                detail: format!(
                    "provably-hostile spec held a stable reign: {} false-stable ticks \
                     (max streak {} over window {from}..{until}, allowance {})",
                    witness.false_stable_ticks,
                    witness.max_stable_streak_ticks,
                    witness.allowance()
                ),
            });
        }
    }
    None
}

/// Draws a random scenario. `~85%` of draws keep an AWB envelope (most of
/// those from the tame pools so the liveness oracle applies); the rest
/// drop it and range over the wild adversaries and broken timers, where
/// only safety is checked.
#[must_use]
pub fn generate(rng: &mut SmallRng) -> Scenario {
    // One draw in five comes from the hostile pool: specs built to
    // *prevent* stable self-leadership, where the non-election oracle
    // ([`provably_hostile`]) takes over from the liveness oracle.
    if rng.gen_range(0..=99) < 20 {
        return generate_hostile(rng);
    }
    let variant = OmegaVariant::all()[rng.gen_range(0..=3) as usize];
    let n = rng.gen_range(2..=10) as usize;
    let horizon = [20_000, 40_000, 60_000][rng.gen_range(0..=2) as usize];
    let mut s = Scenario::fault_free(variant, n)
        .horizon(horizon)
        .seed(rng.gen_range(0..=999_983))
        .sample_every([50, 100, 200][rng.gen_range(0..=2) as usize])
        .stats_checkpoints(4);
    // The hostile pool above already covers the no-envelope corner, so
    // the normal pool leans tamer than it used to: with AWB, mostly stay
    // inside the envelope so liveness gets checked; sometimes (and always
    // without AWB) go wild for safety-only coverage.
    let awb = rng.gen_range(0..=99) < 95;
    let tame = awb && rng.gen_range(0..=99) < 90;
    if awb {
        let timely = ProcessId::new(rng.gen_range(0..=(n as u64 - 1)) as usize);
        let (tau1, sigma) = if tame {
            (rng.gen_range(0..=1_000), rng.gen_range(2..=8))
        } else {
            (rng.gen_range(0..=horizon / 4), rng.gen_range(2..=32))
        };
        s = s.awb(timely, tau1, sigma);
    } else {
        s = s.without_awb();
    }
    s.adversary = random_adversary(rng, n, variant, tame);
    s.timers = random_timers(rng, horizon, tame);
    let timely = s.awb.map(|a| a.timely);
    let crashes = rng.gen_range(0..=3).min(n as u64 - 1);
    for _ in 0..crashes {
        let spec = if tame {
            // Keep the violation-free side honest: spare the timely
            // process and crash early enough to re-elect.
            let mut pid = ProcessId::new(rng.gen_range(0..=(n as u64 - 1)) as usize);
            if Some(pid) == timely {
                pid = ProcessId::new((pid.index() + 1) % n);
            }
            CrashSpec::At {
                tick: rng.gen_range(0..=horizon / 4),
                pid,
            }
        } else if rng.gen_range(0..=1) == 0 {
            CrashSpec::LeaderAt {
                tick: rng.gen_range(0..=horizon),
            }
        } else {
            CrashSpec::At {
                tick: rng.gen_range(0..=horizon),
                pid: ProcessId::new(rng.gen_range(0..=(n as u64 - 1)) as usize),
            }
        };
        s.crashes.push(spec);
    }
    // A quarter of all draws carry a small chaos campaign. Phases stay
    // inside the tame envelope (early, short, bounded storms, waves that
    // spare the timely process) so the oracles keep their teeth: storms
    // and waves stay liveness-checked, partitions are safety-checked
    // outside their masked windows.
    if rng.gen_range(0..=99) < 25 {
        s = s.campaign(random_campaign(rng, n, horizon, timely));
    }
    s
}

/// Draws from the hostile pool: no AWB envelope, stuck-low timers, the
/// leader-stalling schedule, and a flap or storm covering most of the run
/// — exactly the shape [`provably_hostile`] certifies, so (nearly) every
/// draw gets the non-election oracle applied. Public so the fuzz bin's
/// `--hostile-budget` slice can concentrate a run on this pool.
#[must_use]
pub fn generate_hostile(rng: &mut SmallRng) -> Scenario {
    // The step-clock variant has no timers for `StuckLow` to break.
    let variant =
        [OmegaVariant::Alg1, OmegaVariant::Alg2, OmegaVariant::Mwmr][rng.gen_range(0..=2) as usize];
    let n = rng.gen_range(3..=8) as usize;
    let horizon = [60_000, 80_000, 100_000][rng.gen_range(0..=2) as usize];
    let cap = rng.gen_range(4..=12);
    let mut s = Scenario::fault_free(variant, n)
        .horizon(horizon)
        .seed(rng.gen_range(0..=999_983))
        .sample_every([50, 100][rng.gen_range(0..=1) as usize])
        .stats_checkpoints(4)
        .without_awb()
        .timers(TimerSpec::StuckLow { cap });
    let from = rng.gen_range(5_000..=10_000);
    let until = horizon - rng.gen_range(10_000..=20_000);
    let window = until - from;
    let split = rng.gen_range(1..=(n as u64 - 1)) as usize;
    let side = |range: std::ops::Range<usize>| range.map(ProcessId::new).collect::<Vec<_>>();
    let storm = rng.gen_range(0..=1) == 1;
    let mut campaign = Campaign::new();
    let storm_factor = if storm {
        let factor = rng.gen_range(2..=16);
        campaign = campaign.phase(ChaosPhase::Storm {
            factor,
            jitter: rng.gen_range(0..=8),
            from,
            until,
        });
        // Sometimes a short directed cut rides inside the storm window.
        if rng.gen_range(0..=2) == 0 {
            let span = window / 8;
            let cut_from = from + rng.gen_range(0..=(window - span));
            campaign = campaign.phase(ChaosPhase::Cut {
                blinded: side(0..split),
                hidden: side(split..n),
                from: cut_from,
                until: cut_from + span,
            });
        }
        factor
    } else {
        campaign = campaign.phase(ChaosPhase::Flap {
            groups: vec![side(0..split), side(split..n)],
            period: rng.gen_range(500..=window / 8),
            from,
            until,
        });
        1
    };
    // Quote the stall pre-stretch so the *effective* rotation cadence
    // lands inside the certified band regardless of the storm factor.
    let stall = (rng.gen_range(2_000..=window / 8) / storm_factor).max(cap * 4 + 1);
    s.adversary = AdversarySpec::LeaderStaller {
        base: rng.gen_range(1..=3),
        stall,
    };
    s.campaign(campaign)
}

fn random_campaign(
    rng: &mut SmallRng,
    n: usize,
    horizon: u64,
    timely: Option<ProcessId>,
) -> Campaign {
    let mut campaign = Campaign::new();
    for _ in 0..rng.gen_range(1..=2) {
        let from = rng.gen_range(1_000..=horizon / 8);
        let until = from + rng.gen_range(500..=horizon / 8);
        match rng.gen_range(0..=2) {
            0 => {
                // A two-way split at a random cut point.
                let cut = rng.gen_range(1..=(n as u64 - 1)) as usize;
                campaign = campaign.phase(ChaosPhase::Partition {
                    groups: vec![
                        (0..cut).map(ProcessId::new).collect(),
                        (cut..n).map(ProcessId::new).collect(),
                    ],
                    from,
                    until,
                });
            }
            1 => {
                campaign = campaign.phase(ChaosPhase::Storm {
                    factor: rng.gen_range(2..=4),
                    jitter: rng.gen_range(0..=8),
                    from,
                    until,
                });
            }
            _ => {
                let mut pid = ProcessId::new(rng.gen_range(0..=(n as u64 - 1)) as usize);
                if Some(pid) == timely {
                    pid = ProcessId::new((pid.index() + 1) % n);
                }
                campaign = campaign.phase(ChaosPhase::Wave {
                    crash: vec![pid],
                    recover: vec![],
                    at: from,
                });
                if rng.gen_range(0..=1) == 0 {
                    campaign = campaign.phase(ChaosPhase::Wave {
                        crash: vec![],
                        recover: vec![pid],
                        at: until,
                    });
                }
            }
        }
    }
    campaign
}

fn random_adversary(
    rng: &mut SmallRng,
    n: usize,
    variant: OmegaVariant,
    tame: bool,
) -> AdversarySpec {
    let min_delay = if variant == OmegaVariant::StepClock {
        2
    } else {
        1
    };
    // Tame draws stay inside the liveness envelope's uniform-schedule
    // pool; wild draws add the structured-starvation shapes (safety-only
    // coverage, and only within `environment_tame`'s bounds at that).
    let kinds = if tame { 3 } else { 7 };
    match rng.gen_range(0..=(kinds - 1)) {
        0 => AdversarySpec::Synchronous {
            period: rng.gen_range(1..=8).max(min_delay),
        },
        1 => AdversarySpec::RoundRobin {
            slot: rng.gen_range(1..=8).max(min_delay),
        },
        2 => {
            let min = rng.gen_range(min_delay..=4);
            let cap = if tame { 32 } else { 400 };
            AdversarySpec::Random {
                min,
                max: rng.gen_range(min..=cap),
            }
        }
        // Half the structured-starvation draws stay inside
        // `environment_tame`'s bounds so the safety oracle keeps watching
        // the bursty/phased shapes; the rest roam free (trace-determinism
        // coverage only).
        3 => AdversarySpec::Bursty {
            fast: rng.gen_range(min_delay..=4),
            stall: if rng.gen_range(0..=1) == 0 {
                rng.gen_range(16..=128)
            } else {
                rng.gen_range(129..=10_000)
            },
            burst_len: rng.gen_range(2..=16),
        },
        4 => AdversarySpec::PartitionedPhases {
            phase_len: rng.gen_range(100..=2_000),
            fast: rng.gen_range(min_delay..=4),
            stall: if rng.gen_range(0..=1) == 0 {
                rng.gen_range(8..=32)
            } else {
                rng.gen_range(33..=1_000)
            },
        },
        5 => AdversarySpec::GrowingBursts {
            victim: ProcessId::new(rng.gen_range(0..=(n as u64 - 1)) as usize),
            fast: rng.gen_range(min_delay..=4),
            burst_len: rng.gen_range(2..=8),
            initial_stall: rng.gen_range(100..=2_000),
            factor: rng.gen_range(2..=4),
        },
        _ => AdversarySpec::LeaderStaller {
            base: rng.gen_range(min_delay..=4),
            stall: rng.gen_range(500..=8_000),
        },
    }
}

fn random_timers(rng: &mut SmallRng, horizon: u64, tame: bool) -> TimerSpec {
    let kinds = if tame { 4 } else { 6 };
    match rng.gen_range(0..=(kinds - 1)) {
        0 | 1 => TimerSpec::Exact,
        2 => TimerSpec::Affine {
            scale: rng.gen_range(1..=4),
            offset: rng.gen_range(0..=64),
        },
        3 => TimerSpec::Jittered {
            jitter: rng.gen_range(0..=if tame { 8 } else { 64 }),
        },
        4 => TimerSpec::ChaoticThenExact {
            chaos_until: rng.gen_range(0..=horizon),
            chaos_max: rng.gen_range(1..=256),
        },
        _ => TimerSpec::StuckLow {
            cap: rng.gen_range(1..=16),
        },
    }
}

/// Greedily shrinks a violating spec: tries each simplification, keeps it
/// if `oracle` still reports a violation, and repeats until no move
/// survives. The oracle is a parameter so tests can shrink against
/// planted bugs; the fuzz binary passes [`run_and_check`].
pub fn shrink(
    original: &Scenario,
    oracle: &mut dyn FnMut(&Scenario) -> Option<Violation>,
) -> Scenario {
    let mut best = original.clone();
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&best) {
            if oracle(&candidate).is_some() {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Strictly simpler variants of `s`, most aggressive first. Every move
/// either reduces `n`, removes a crash, or resets a field to its default
/// (which the spec text then omits), so shrinking terminates.
fn shrink_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Chaos first: whole campaign, then whole phases. A campaign is the
    // most structured (and least likely load-bearing) part of a generated
    // spec, and dropping a phase never invalidates the rest.
    if let Some(campaign) = &s.campaign {
        let mut t = s.clone();
        t.campaign = None;
        out.push(t);
        for i in 0..campaign.phases.len() {
            let mut t = s.clone();
            let phases = &mut t.campaign.as_mut().expect("cloned Some").phases;
            phases.remove(i);
            if phases.is_empty() {
                t.campaign = None;
            }
            out.push(t);
        }
        // Then structure-preserving trims, for when a whole phase is
        // load-bearing but its extent is not: halve the active span, drop
        // a member from the largest group or side.
        for i in 0..campaign.phases.len() {
            let mut t = s.clone();
            if shrink_phase_span(&mut t.campaign.as_mut().expect("cloned Some").phases[i]) {
                out.push(t);
            }
            let mut t = s.clone();
            if shrink_phase_groups(&mut t.campaign.as_mut().expect("cloned Some").phases[i]) {
                out.push(t);
            }
        }
    }
    for target in [s.n / 2, s.n - 1] {
        if target >= 1 && target < s.n {
            out.push(with_n(s, target));
        }
    }
    for i in 0..s.crashes.len() {
        let mut t = s.clone();
        t.crashes.remove(i);
        out.push(t);
    }
    let base = Scenario::fault_free(s.variant, s.n);
    if s.awb != base.awb {
        let mut t = s.clone();
        t.awb = base.awb;
        t.expect_stabilization = true;
        out.push(t);
    }
    if s.adversary != base.adversary {
        let mut t = s.clone();
        t.adversary = base.adversary.clone();
        out.push(t);
    }
    if s.timers != base.timers {
        let mut t = s.clone();
        t.timers = base.timers;
        out.push(t);
    }
    if s.horizon != base.horizon {
        let mut t = s.clone();
        t.horizon = base.horizon;
        out.push(t);
    }
    if s.sample_every != base.sample_every {
        let mut t = s.clone();
        t.sample_every = base.sample_every;
        out.push(t);
    }
    if s.stats_checkpoints != base.stats_checkpoints {
        let mut t = s.clone();
        t.stats_checkpoints = base.stats_checkpoints;
        out.push(t);
    }
    if s.seed != base.seed {
        let mut t = s.clone();
        t.seed = base.seed;
        out.push(t);
    }
    if s.expect_stabilization != s.awb.is_some() {
        let mut t = s.clone();
        t.expect_stabilization = t.awb.is_some();
        out.push(t);
    }
    if s.san_latency.is_some() {
        let mut t = s.clone();
        t.san_latency = None;
        out.push(t);
    }
    out
}

/// Halves the phase's active span (and clamps a flap's period into the
/// shrunk window so it still oscillates). Returns whether anything
/// changed; spans shrink strictly, so the move terminates.
fn shrink_phase_span(phase: &mut ChaosPhase) -> bool {
    match phase {
        ChaosPhase::Partition { from, until, .. }
        | ChaosPhase::Cut { from, until, .. }
        | ChaosPhase::Storm { from, until, .. } => {
            let half = *from + until.saturating_sub(*from) / 2;
            if half <= *from {
                return false;
            }
            *until = half;
            true
        }
        ChaosPhase::Flap {
            from,
            until,
            period,
            ..
        } => {
            let half = *from + until.saturating_sub(*from) / 2;
            if half <= *from {
                return false;
            }
            *until = half;
            *period = (*period).min(half - *from).max(1);
            true
        }
        ChaosPhase::Wave { .. } | ChaosPhase::Heal { .. } => false,
    }
}

/// Drops the last member of the phase's largest group or cut side, keeping
/// every group nonempty. Returns whether anything changed.
fn shrink_phase_groups(phase: &mut ChaosPhase) -> bool {
    match phase {
        ChaosPhase::Partition { groups, .. } | ChaosPhase::Flap { groups, .. } => {
            match groups
                .iter_mut()
                .filter(|g| g.len() > 1)
                .max_by_key(|g| g.len())
            {
                Some(group) => {
                    group.pop();
                    true
                }
                None => false,
            }
        }
        ChaosPhase::Cut {
            blinded, hidden, ..
        } => {
            let side = if blinded.len() >= hidden.len() {
                blinded
            } else {
                hidden
            };
            if side.len() <= 1 {
                return false;
            }
            side.pop();
            true
        }
        ChaosPhase::Storm { .. } | ChaosPhase::Wave { .. } | ChaosPhase::Heal { .. } => false,
    }
}

/// `s` at a smaller system size, with out-of-range process references
/// dropped (crash targets) or clamped to `p0` (AWB witness, stall victim).
fn with_n(s: &Scenario, m: usize) -> Scenario {
    let mut t = s.clone();
    t.n = m;
    t.crashes.retain(|c| match c {
        CrashSpec::At { pid, .. } => pid.index() < m,
        CrashSpec::LeaderAt { .. } => true,
    });
    if let Some(awb) = &mut t.awb {
        if awb.timely.index() >= m {
            awb.timely = ProcessId::new(0);
        }
    }
    if let AdversarySpec::GrowingBursts { victim, .. } = &mut t.adversary {
        if victim.index() >= m {
            *victim = ProcessId::new(0);
        }
    }
    if let Some(campaign) = &mut t.campaign {
        for phase in &mut campaign.phases {
            match phase {
                ChaosPhase::Partition { groups, .. } | ChaosPhase::Flap { groups, .. } => {
                    for group in groups.iter_mut() {
                        group.retain(|p| p.index() < m);
                    }
                }
                ChaosPhase::Wave { crash, recover, .. } => {
                    crash.retain(|p| p.index() < m);
                    recover.retain(|p| p.index() < m);
                }
                ChaosPhase::Cut {
                    blinded, hidden, ..
                } => {
                    blinded.retain(|p| p.index() < m);
                    hidden.retain(|p| p.index() < m);
                }
                ChaosPhase::Storm { .. } | ChaosPhase::Heal { .. } => {}
            }
        }
        // A cut that lost a whole side to the clamp no longer validates.
        campaign.phases.retain(|phase| {
            !matches!(phase, ChaosPhase::Cut { blinded, hidden, .. }
                if blinded.is_empty() || hidden.is_empty())
        });
    }
    t
}

/// Number of lines in the spec text — the minimality measure reports use.
#[must_use]
pub fn spec_lines(s: &Scenario) -> usize {
    to_spec_text(s).lines().count()
}

/// FNV-1a 64 of `text`, truncated to 12 hex characters.
#[must_use]
pub fn spec_hash(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")[..12].to_string()
}

/// The registry name of a reproducer: `fuzz-regression/<hash>`, hashed
/// over the spec text *minus* its `scenario` line (the name cannot depend
/// on itself).
#[must_use]
pub fn reproducer_name(s: &Scenario) -> String {
    let text = to_spec_text(s);
    let canonical: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("scenario "))
        .collect();
    format!("fuzz-regression/{}", spec_hash(&canonical.join("\n")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec_text::from_spec_text;
    use omega_sim::metrics::LeaderTimeline;
    use omega_sim::SimTime;

    /// One hand-built sample: time, estimates, cumulative steps.
    type Row = (u64, Vec<Option<usize>>, Vec<u64>);

    fn sample(time: u64, leaders: Vec<Option<usize>>, steps: Vec<u64>) -> Row {
        (time, leaders, steps)
    }

    fn timeline(rows: &[Row]) -> LeaderTimeline {
        let mut timeline = LeaderTimeline::new();
        for (time, leaders, steps) in rows {
            let time = SimTime::from_ticks(*time);
            let leaders: Vec<_> = leaders.iter().map(|l| l.map(ProcessId::new)).collect();
            if steps.is_empty() {
                timeline.push(time, &leaders);
            } else {
                timeline.push_with_steps(time, &leaders, steps);
            }
        }
        timeline
    }

    #[test]
    fn split_brain_detects_two_active_self_leaders() {
        let samples: Vec<Row> = (0..40)
            .map(|i| {
                sample(
                    i * 100,
                    vec![Some(0), Some(1), Some(0)],
                    vec![i * 20, i * 20, i * 20],
                )
            })
            .collect();
        let hit = split_brain(timeline(&samples).samples())
            .expect("p0 and p1 both self-stable and active");
        assert!(hit.contains("[0, 1]"), "{hit}");
    }

    #[test]
    fn split_brain_ignores_frozen_claimants() {
        // p1 claims itself but never steps — a stale estimate, not a
        // second leader.
        let samples: Vec<Row> = (0..40)
            .map(|i| {
                sample(
                    i * 100,
                    vec![Some(0), Some(1), Some(0)],
                    vec![i * 20, 7, i * 20],
                )
            })
            .collect();
        assert!(split_brain(timeline(&samples).samples()).is_none());
        // And hand-built samples without step counts can never claim.
        let blind: Vec<Row> = (0..40)
            .map(|i| sample(i * 100, vec![Some(0), Some(1)], Vec::new()))
            .collect();
        assert!(split_brain(timeline(&blind).samples()).is_none());
    }

    #[test]
    fn split_brain_ignores_alternating_bursts() {
        // p0 and p1 each hold a self-estimate across the window, but they
        // step in *alternating* bursts (p0 in even ten-sample blocks, p1
        // in odd ones): their active spans never overlap, so nobody was
        // simultaneously a stable leader. This is the bursty-adversary
        // shape that must read as churn, not split-brain.
        let in_even_block = |k: u64| (k / 10).is_multiple_of(2);
        let samples: Vec<Row> = (0..60u64)
            .map(|i| {
                let p0 = (0..=i).filter(|&k| in_even_block(k)).count() as u64 * 2;
                let p1 = (0..=i).filter(|&k| !in_even_block(k)).count() as u64 * 2;
                sample(i * 100, vec![Some(0), Some(1)], vec![p0, p1])
            })
            .collect();
        assert!(
            split_brain(timeline(&samples).samples()).is_none(),
            "alternation is not split-brain"
        );
    }

    #[test]
    fn registry_scenarios_pass_both_oracles() {
        for name in [
            "fault-free",
            "leader-crash-failover",
            "no-awb-staller",
            "hostile/flap",
            "hostile/storm",
        ] {
            let scenario = registry::named(name).unwrap();
            assert_eq!(run_and_check(&scenario), None, "{name}");
        }
    }

    #[test]
    fn provably_hostile_classification() {
        // The calibrated registry recipes are certified, window and all.
        let named = |n: &str| registry::named(n).unwrap();
        assert_eq!(
            provably_hostile(&named("hostile/flap")),
            Some((10_000, 82_000))
        );
        assert_eq!(
            provably_hostile(&named("hostile/storm")),
            Some((10_000, 90_000))
        );
        // A whole-window cut sanctions a per-side reign for its full span
        // — conservatively out (the registry's own gate still covers it).
        assert_eq!(provably_hostile(&named("hostile/asym-cut")), None);
        // The positive control keeps its AWB envelope.
        assert_eq!(provably_hostile(&named("hostile/asym-core")), None);
        assert_eq!(provably_hostile(&registry::fault_free()), None);
        // No campaign means no hostile window: the plain necessity
        // experiment stays under the old "did not stabilize" check only.
        assert_eq!(provably_hostile(&registry::no_awb_staller()), None);
        // Crashes void the certificate: a lone survivor may reign.
        let crashed = named("hostile/flap").crash_at(5_000, ProcessId::new(2));
        assert_eq!(provably_hostile(&crashed), None);
    }

    #[test]
    fn hostile_pool_draws_pass_the_non_election_oracle() {
        // The oracle must be sound over its own pool: a false alarm here
        // would be committed as a regression by the nightly fuzz run.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut checked = 0;
        let mut draws = 0;
        while checked < 3 && draws < 200 {
            draws += 1;
            let s = generate(&mut rng);
            let Some((from, until)) = provably_hostile(&s) else {
                continue;
            };
            assert!(from < until);
            assert!(!s.expect_stabilization, "hostile draws expect no-elect");
            assert_eq!(run_and_check(&s), None, "{}", to_spec_text(&s));
            checked += 1;
        }
        assert_eq!(checked, 3, "the pool must actually produce hostile draws");
    }

    #[test]
    fn liveness_gate_classification() {
        let good = Scenario::fault_free(OmegaVariant::Alg1, 4);
        assert!(liveness_checkable(&good));
        assert!(!liveness_checkable(&good.clone().without_awb()));
        assert!(!liveness_checkable(
            &good.clone().timers(TimerSpec::StuckLow { cap: 8 })
        ));
        assert!(!liveness_checkable(&good.clone().adversary(
            AdversarySpec::LeaderStaller {
                base: 2,
                stall: 4_000
            }
        )));
        // Crashing the timely process voids the promise.
        assert!(!liveness_checkable(
            &good.clone().crash_at(5_000, ProcessId::new(0))
        ));
        assert!(liveness_checkable(
            &good.clone().crash_at(5_000, ProcessId::new(1))
        ));
        // A leader-relative crash may hit the timely process.
        assert!(!liveness_checkable(&good.clone().crash_leader_at(5_000)));
        // The step-clock variant's liveness is outside the envelope.
        assert!(!liveness_checkable(&Scenario::fault_free(
            OmegaVariant::StepClock,
            4
        )));
    }

    #[test]
    fn generated_specs_round_trip_and_are_bounded() {
        let mut rng = SmallRng::seed_from_u64(2026);
        let mut checkable = 0;
        let mut campaigns = 0;
        let mut hostile = 0;
        for _ in 0..200 {
            let s = generate(&mut rng);
            assert!((2..=10).contains(&s.n));
            assert!(s.crashes.len() < s.n);
            if let Some(campaign) = &s.campaign {
                campaigns += 1;
                campaign
                    .validate(s.n)
                    .expect("generated campaigns are valid");
                assert!(campaign.phases.len() <= 4, "campaigns stay small");
            }
            let text = to_spec_text(&s);
            let parsed = from_spec_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(to_spec_text(&parsed), text);
            if liveness_checkable(&s) {
                checkable += 1;
            }
            if provably_hostile(&s).is_some() {
                hostile += 1;
            }
        }
        assert!(
            checkable >= 60,
            "liveness must actually be exercised ({checkable}/200 checkable)"
        );
        assert!(
            campaigns >= 20,
            "campaigns must actually be generated ({campaigns}/200)"
        );
        assert!(
            hostile >= 20,
            "the hostile pool must actually be certified ({hostile}/200)"
        );
    }

    #[test]
    fn safety_oracle_masks_partition_windows() {
        // Split self-leadership across the whole run (ticks 0..10_000):
        // without a campaign this is split-brain; with a partition whose
        // cut + heal grace covers the run it is the spec's own doing.
        let samples: Vec<Row> = (0..100)
            .map(|i| {
                sample(
                    i * 100,
                    vec![Some(0), Some(1), Some(0)],
                    vec![i * 20, i * 20, i * 20],
                )
            })
            .collect();
        let plain = Scenario::fault_free(OmegaVariant::Alg1, 3);
        assert!(split_brain_outside_partitions(&plain, timeline(&samples).samples()).is_some());
        let cut = plain
            .clone()
            .campaign(Campaign::new().phase(ChaosPhase::Partition {
                groups: vec![
                    vec![ProcessId::new(0)],
                    vec![ProcessId::new(1), ProcessId::new(2)],
                ],
                from: 0,
                until: 5_000,
            }));
        assert!(
            split_brain_outside_partitions(&cut, timeline(&samples).samples()).is_none(),
            "the split sits inside the cut + grace window"
        );
        // A short early cut leaves the post-grace split exposed.
        let early = plain.campaign(Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![
                vec![ProcessId::new(0)],
                vec![ProcessId::new(1), ProcessId::new(2)],
            ],
            from: 0,
            until: 500,
        }));
        assert!(split_brain_outside_partitions(&early, timeline(&samples).samples()).is_some());
    }

    #[test]
    fn liveness_gate_classifies_campaigns() {
        let good = Scenario::fault_free(OmegaVariant::Alg1, 4).horizon(60_000);
        assert!(liveness_checkable(&good));
        // An early, short storm keeps the promise checkable.
        let stormy = good
            .clone()
            .campaign(Campaign::new().phase(ChaosPhase::Storm {
                factor: 3,
                jitter: 2,
                from: 2_000,
                until: 9_000,
            }));
        assert!(liveness_checkable(&stormy));
        // Partitions are outside the conservative convergence envelope.
        let cut = good
            .clone()
            .campaign(Campaign::new().phase(ChaosPhase::Partition {
                groups: vec![vec![ProcessId::new(0)], vec![ProcessId::new(1)]],
                from: 2_000,
                until: 9_000,
            }));
        assert!(!liveness_checkable(&cut));
        // A wave that kills the timely process voids the promise.
        let timely = good.awb.unwrap().timely;
        let fatal = good
            .clone()
            .campaign(Campaign::new().phase(ChaosPhase::Wave {
                crash: vec![timely],
                recover: vec![],
                at: 2_000,
            }));
        assert!(!liveness_checkable(&fatal));
        // A late phase leaves no room to re-settle.
        let late = good.campaign(Campaign::new().phase(ChaosPhase::Storm {
            factor: 2,
            jitter: 0,
            from: 40_000,
            until: 50_000,
        }));
        assert!(!liveness_checkable(&late));
    }

    #[test]
    fn shrinker_drops_campaign_phases_first() {
        // Plant a bug that needs only the storm phase: the partition, the
        // wave, and everything else must be stripped — and phase moves are
        // offered before structural ones, so the campaign shrinks to the
        // single load-bearing phase instead of being pinned by n-shrinks.
        let messy = Scenario::fault_free(OmegaVariant::Alg1, 6)
            .named("fuzz/chaos-planted")
            .campaign(
                Campaign::new()
                    .phase(ChaosPhase::Partition {
                        groups: vec![vec![ProcessId::new(0)], vec![ProcessId::new(1)]],
                        from: 1_000,
                        until: 3_000,
                    })
                    .phase(ChaosPhase::Storm {
                        factor: 4,
                        jitter: 1,
                        from: 4_000,
                        until: 8_000,
                    })
                    .phase(ChaosPhase::Wave {
                        crash: vec![ProcessId::new(2)],
                        recover: vec![],
                        at: 9_000,
                    }),
            )
            .crash_at(5_000, ProcessId::new(3))
            .horizon(40_000)
            .seed(99);
        let mut oracle = |c: &Scenario| {
            let has_storm = c.campaign.as_ref().is_some_and(Campaign::has_storm);
            has_storm.then(|| Violation::Safety {
                detail: "planted".into(),
            })
        };
        let minimal = shrink(&messy, &mut oracle);
        let campaign = minimal.campaign.as_ref().expect("storm phase kept");
        assert_eq!(campaign.phases.len(), 1, "{:?}", campaign.phases);
        assert!(matches!(campaign.phases[0], ChaosPhase::Storm { .. }));
        assert!(minimal.crashes.is_empty(), "crash script stripped");
        assert_eq!(minimal.n, 1, "n shrinks all the way once pids are gone");
        assert!(
            spec_lines(&minimal) <= 5,
            "reproducer stays readable:\n{}",
            to_spec_text(&minimal)
        );
    }

    #[test]
    fn shrinker_trims_phase_spans_and_groups() {
        let p = ProcessId::new;
        // Plant a bug that needs a flap with both sides populated: the
        // duration and the group sizes are not load-bearing, so the
        // shrinker must halve the span down to its 1-tick floor and trim
        // both groups to singletons.
        let wide = Scenario::fault_free(OmegaVariant::Alg1, 6)
            .named("fuzz/wide-flap")
            .campaign(Campaign::new().phase(ChaosPhase::Flap {
                groups: vec![vec![p(0), p(1), p(2)], vec![p(3), p(4), p(5)]],
                period: 2_000,
                from: 4_000,
                until: 36_000,
            }))
            .horizon(60_000);
        let mut oracle = |c: &Scenario| {
            let live_flap = c.campaign.as_ref().is_some_and(|c| {
                c.phases.iter().any(|phase| {
                    matches!(phase, ChaosPhase::Flap { groups, .. }
                        if groups.iter().all(|g| !g.is_empty()))
                })
            });
            live_flap.then(|| Violation::Safety {
                detail: "planted".into(),
            })
        };
        let minimal = shrink(&wide, &mut oracle);
        let campaign = minimal.campaign.as_ref().expect("flap kept");
        let ChaosPhase::Flap {
            groups,
            period,
            from,
            until,
        } = &campaign.phases[0]
        else {
            panic!("flap phase survives: {:?}", campaign.phases);
        };
        assert!(groups.iter().all(|g| g.len() == 1), "{groups:?}");
        assert_eq!(until - from, 1, "span halves to the 1-tick floor");
        assert_eq!(*period, 1, "period follows the span down");
    }

    #[test]
    fn shrinker_minimizes_planted_violation() {
        // Plant a bug that needs exactly "n >= 4 and at least one scripted
        // crash": everything else the generator dressed the spec in must
        // be stripped by the shrinker.
        let mut messy = Scenario::fault_free(OmegaVariant::Alg1, 9)
            .named("fuzz/planted")
            .adversary(AdversarySpec::Bursty {
                fast: 2,
                stall: 700,
                burst_len: 5,
            })
            .timers(TimerSpec::Jittered { jitter: 17 })
            .awb(ProcessId::new(3), 4_000, 13)
            .crash_at(9_000, ProcessId::new(5))
            .crash_leader_at(12_000)
            .crash_at(21_000, ProcessId::new(1))
            .horizon(40_000)
            .sample_every(50)
            .seed(777);
        messy.stats_checkpoints = 4;
        let mut oracle = |c: &Scenario| {
            let planted = c.n >= 4
                && c.crashes
                    .iter()
                    .any(|cr| matches!(cr, CrashSpec::At { .. }));
            planted.then(|| Violation::Safety {
                detail: "planted".into(),
            })
        };
        assert!(
            oracle(&messy).is_some(),
            "the plant must trigger pre-shrink"
        );
        let minimal = shrink(&messy, &mut oracle);
        assert_eq!(minimal.n, 4, "9 → halve → 4, and 3 loses the violation");
        assert_eq!(minimal.crashes.len(), 1);
        assert!(matches!(minimal.crashes[0], CrashSpec::At { .. }));
        assert!(
            spec_lines(&minimal) <= 5,
            "minimal reproducer must serialize in ≤ 5 lines:\n{}",
            to_spec_text(&minimal)
        );
        // And it is a fixpoint: shrinking again changes nothing.
        let again = shrink(&minimal, &mut oracle);
        assert_eq!(to_spec_text(&again), to_spec_text(&minimal));
    }

    #[test]
    fn reproducer_names_are_stable_and_name_independent() {
        let a = Scenario::fault_free(OmegaVariant::Alg1, 4).named("x");
        let b = Scenario::fault_free(OmegaVariant::Alg1, 4).named("totally-different");
        assert_eq!(reproducer_name(&a), reproducer_name(&b));
        assert!(reproducer_name(&a).starts_with("fuzz-regression/"));
        let c = Scenario::fault_free(OmegaVariant::Alg1, 5).named("x");
        assert_ne!(reproducer_name(&a), reproducer_name(&c));
        let hash = reproducer_name(&a);
        let hash = hash.strip_prefix("fuzz-regression/").unwrap();
        assert_eq!(hash.len(), 12);
        assert!(hash.chars().all(|ch| ch.is_ascii_hexdigit()));
    }
}
