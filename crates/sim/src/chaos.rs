//! Chaos campaigns: declarative, deterministic fault schedules.
//!
//! A [`Campaign`] is an ordered list of [`ChaosPhase`]s — register-space
//! partitions, directed cuts, flaps, latency storms, crash/recovery waves,
//! and heals — pinned to virtual ticks. This module is the only place that
//! knows how a campaign becomes timed actions, so every backend injects the
//! same thing at the same tick:
//!
//! * [`Campaign::schedule`] flattens the phases into [`Scheduled`]
//!   [`ChaosAction`]s — flaps expanded through [`flap_spans`], sorted by
//!   `(tick, declaration order)`, boundaries past the horizon dropped
//!   (`tick <= horizon` fires, as the simulator's event loop retires
//!   events).
//! * [`ChaosTally`] is the one accounting of what fired: it owns the open
//!   cut / open storm, the last heal, the installed intervals and the
//!   close-at-the-horizon rule. [`Campaign::planned_stats`] and
//!   [`Campaign::installed_intervals`] are that tally folded over the
//!   schedule; the simulator books its live events through the same type.
//!
//! The simulator realizes each action *literally*: partitions sever
//! cross-group reads via the memory space's visibility mask, storms
//! stretch simulated step service time, waves reuse the crash machinery
//! (and undo it, for recovery). Boundaries are ordinary simulator events
//! ([`EventKind::ChaosStart`] / [`EventKind::ChaosEnd`], carried by each
//! [`Scheduled`] entry), so they land in recorded traces and campaigns
//! replay byte-identically. Wall-clock drivers fire the same schedule off
//! the wall clock (the scenario crate's `Script`) and refuse the clauses
//! their substrate cannot honor; the phase predicates here —
//! [`Campaign::has_storm`], [`Campaign::has_recovery`] — are what those
//! admission decisions are made from.

use omega_registers::ProcessId;

use crate::event::EventKind;

/// One phase of a chaos campaign, pinned to virtual ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosPhase {
    /// Sever cross-group register visibility over `[from, until)`.
    ///
    /// Processes in different groups read each other's rows as frozen at
    /// `from`; processes in no group stay connected to everyone. The cut
    /// heals at `until` (or at an earlier explicit [`ChaosPhase::Heal`]).
    Partition {
        /// Disjoint groups of processes; ids absent from every group are
        /// unaffected.
        groups: Vec<Vec<ProcessId>>,
        /// First tick of the cut.
        from: u64,
        /// Tick the cut heals (exclusive).
        until: u64,
    },
    /// Stretch simulated step service time over `[from, until)`.
    ///
    /// Every live-scheduled step delay is multiplied by `factor` and
    /// smeared by a deterministic jitter in `0..=jitter` ticks — a latency
    /// storm on the shared medium.
    Storm {
        /// Multiplier applied to step delays (≥ 1).
        factor: u64,
        /// Bound of the deterministic per-step jitter, in ticks.
        jitter: u64,
        /// First tick of the storm.
        from: u64,
        /// Tick the storm clears (exclusive).
        until: u64,
    },
    /// Crash `crash` and/or resurrect `recover` at tick `at`.
    ///
    /// Recovery un-crashes a process: it resumes taking steps with its
    /// register state as it last left it (a stopped node rejoining).
    Wave {
        /// Processes that crash at `at`.
        crash: Vec<ProcessId>,
        /// Processes that recover at `at`.
        recover: Vec<ProcessId>,
        /// The tick the wave fires.
        at: u64,
    },
    /// Heal any active partition at tick `at`.
    Heal {
        /// The tick the heal fires.
        at: u64,
    },
    /// Sever register visibility **one way** over `[from, until)`: the
    /// `blinded` processes read the `hidden` processes' rows frozen at
    /// `from`, while the hidden side (and everyone else) keeps reading
    /// live in every direction.
    ///
    /// This is the asymmetric-fabric regime of the López–Rajsbaum–Raynal
    /// weak-connectivity results: election survives a directed cut exactly
    /// when a strongly-connected timely core stays visible to everyone.
    Cut {
        /// Processes whose reads of `hidden` are severed.
        blinded: Vec<ProcessId>,
        /// Processes the blinded side stops seeing (their own view stays
        /// live).
        hidden: Vec<ProcessId>,
        /// First tick of the cut.
        from: u64,
        /// Tick the cut heals (exclusive).
        until: u64,
    },
    /// Oscillate a partition over `[from, until)`: installed for `period`
    /// ticks, healed for `period` ticks, and so on — always healed by
    /// `until`.
    ///
    /// A flap whose period outpaces the AWB timeout growth keeps every
    /// cross-group suspicion alive for the whole window: the membrane
    /// never stays quiet long enough for timeouts to catch up.
    Flap {
        /// Disjoint groups of processes; ids absent from every group are
        /// unaffected.
        groups: Vec<Vec<ProcessId>>,
        /// Ticks per half-cycle: partitioned for `period`, healed for
        /// `period`.
        period: u64,
        /// First tick of the first cut.
        from: u64,
        /// Tick the oscillation stops, healed (exclusive).
        until: u64,
    },
}

/// The `(install, heal)` tick pairs a flap phase with the given `period`
/// over `[from, until)` produces: partitioned during even half-cycles,
/// healed during odd ones, with the final cut clamped to heal at `until`.
///
/// [`Campaign::schedule`] is its only caller in the drivers' path: every
/// backend sees a flap as these install/heal pairs and nothing else.
#[must_use]
pub fn flap_spans(period: u64, from: u64, until: u64) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    if period == 0 {
        return spans;
    }
    let mut install = from;
    while install < until {
        spans.push((install, (install + period).min(until)));
        install += 2 * period;
    }
    spans
}

impl ChaosPhase {
    /// The tick this phase begins to act.
    #[must_use]
    pub fn start(&self) -> u64 {
        match *self {
            ChaosPhase::Partition { from, .. }
            | ChaosPhase::Storm { from, .. }
            | ChaosPhase::Cut { from, .. }
            | ChaosPhase::Flap { from, .. } => from,
            ChaosPhase::Wave { at, .. } | ChaosPhase::Heal { at } => at,
        }
    }

    /// The tick this phase stops acting on its own (`None` for
    /// instantaneous phases).
    #[must_use]
    pub fn end(&self) -> Option<u64> {
        match *self {
            ChaosPhase::Partition { until, .. }
            | ChaosPhase::Storm { until, .. }
            | ChaosPhase::Cut { until, .. }
            | ChaosPhase::Flap { until, .. } => Some(until),
            ChaosPhase::Wave { .. } | ChaosPhase::Heal { .. } => None,
        }
    }

    /// What happens when the phase begins to act (for a flap: at every
    /// install).
    fn on_start(&self) -> ChaosAction<'_> {
        match self {
            ChaosPhase::Partition { groups, .. } | ChaosPhase::Flap { groups, .. } => {
                ChaosAction::InstallPartition(groups)
            }
            ChaosPhase::Cut {
                blinded, hidden, ..
            } => ChaosAction::InstallCut { blinded, hidden },
            ChaosPhase::Storm { factor, jitter, .. } => ChaosAction::StormOn {
                factor: *factor,
                jitter: *jitter,
            },
            ChaosPhase::Wave { crash, recover, .. } => ChaosAction::Wave { crash, recover },
            ChaosPhase::Heal { .. } => ChaosAction::Heal,
        }
    }

    /// What happens when the phase stops acting on its own (`None` for
    /// instantaneous phases).
    fn on_end(&self) -> Option<ChaosAction<'_>> {
        match self {
            ChaosPhase::Partition { .. } | ChaosPhase::Cut { .. } | ChaosPhase::Flap { .. } => {
                Some(ChaosAction::Heal)
            }
            ChaosPhase::Storm { .. } => Some(ChaosAction::StormOff),
            ChaosPhase::Wave { .. } | ChaosPhase::Heal { .. } => None,
        }
    }
}

/// What a driver does at one campaign boundary — the whole vocabulary
/// every backend realizes, borrowed from the phase that declared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction<'a> {
    /// Sever cross-group register visibility between these groups.
    InstallPartition(&'a [Vec<ProcessId>]),
    /// Sever the `blinded` processes' reads of the `hidden` ones, one way.
    InstallCut {
        /// Processes whose reads are severed.
        blinded: &'a [ProcessId],
        /// Processes they stop seeing.
        hidden: &'a [ProcessId],
    },
    /// Heal whatever cut is installed (nothing to do when none is).
    Heal,
    /// Start stretching service time by `factor`, smeared by `0..=jitter`.
    StormOn {
        /// Multiplier applied to service time (≥ 1).
        factor: u64,
        /// Bound of the deterministic per-step jitter, in ticks.
        jitter: u64,
    },
    /// Stop stretching service time.
    StormOff,
    /// Crash `crash` and resurrect `recover`.
    Wave {
        /// Processes that crash.
        crash: &'a [ProcessId],
        /// Processes that recover.
        recover: &'a [ProcessId],
    },
}

/// One entry of a campaign's flattened [`schedule`](Campaign::schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<'a> {
    /// The tick the action is due.
    pub tick: u64,
    /// The simulator event that carries it: `ChaosStart(i)` /
    /// `ChaosEnd(i)` of the declaring phase `i` (what traces record).
    pub event: EventKind,
    /// What to do.
    pub action: ChaosAction<'a>,
}

/// A declarative fault schedule: ordered phases over virtual ticks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Campaign {
    /// The phases, in declaration order.
    pub phases: Vec<ChaosPhase>,
}

impl Campaign {
    /// A campaign with no phases.
    #[must_use]
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Appends a phase.
    #[must_use]
    pub fn phase(mut self, phase: ChaosPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Whether the campaign has no phases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Whether any phase is a latency storm (only sim and the SAN backend
    /// can stretch service time).
    #[must_use]
    pub fn has_storm(&self) -> bool {
        self.phases
            .iter()
            .any(|p| matches!(p, ChaosPhase::Storm { .. }))
    }

    /// Whether any wave resurrects a process (only the simulator can
    /// un-crash: wall-clock clusters park crashed nodes for good).
    #[must_use]
    pub fn has_recovery(&self) -> bool {
        self.phases
            .iter()
            .any(|p| matches!(p, ChaosPhase::Wave { recover, .. } if !recover.is_empty()))
    }

    /// Whether any phase is a directed cut (every driver realizes it via
    /// the memory space's directed mask).
    #[must_use]
    pub fn has_cut(&self) -> bool {
        self.phases
            .iter()
            .any(|p| matches!(p, ChaosPhase::Cut { .. }))
    }

    /// Whether any phase is a flap (realized everywhere as a schedule of
    /// install/heal pairs from [`flap_spans`]).
    #[must_use]
    pub fn has_flap(&self) -> bool {
        self.phases
            .iter()
            .any(|p| matches!(p, ChaosPhase::Flap { .. }))
    }

    /// The tick window the campaign disrupts, clamped to `horizon`:
    /// earliest phase start to latest phase end (instantaneous phases
    /// count their firing tick; unhealed phases extend to the horizon).
    /// `None` for an empty campaign.
    #[must_use]
    pub fn disruption_window(&self, horizon: u64) -> Option<(u64, u64)> {
        let mut window: Option<(u64, u64)> = None;
        for phase in &self.phases {
            let start = phase.start().min(horizon);
            let end = phase.end().unwrap_or(phase.start()).min(horizon);
            window = Some(match window {
                None => (start, end),
                Some((from, until)) => (from.min(start), until.max(end)),
            });
        }
        window
    }

    /// The campaign as timed actions on a run of `horizon` ticks: every
    /// phase boundary (a flap contributes one install/heal pair per
    /// [`flap_spans`] entry) sorted by `(tick, declaration order)`.
    ///
    /// One horizon convention for every backend — the simulator's: a
    /// boundary fires iff `tick <= horizon`, so an `until` past the
    /// horizon yields no heal and the phase stays active to the end.
    #[must_use]
    pub fn schedule(&self, horizon: u64) -> Vec<Scheduled<'_>> {
        let mut schedule = Vec::new();
        for (i, phase) in self.phases.iter().enumerate() {
            let i = u32::try_from(i).expect("phase count fits u32");
            let spans = match *phase {
                ChaosPhase::Flap {
                    period,
                    from,
                    until,
                    ..
                } => flap_spans(period, from, until)
                    .into_iter()
                    .map(|(install, heal)| (install, Some(heal)))
                    .collect(),
                _ => vec![(phase.start(), phase.end())],
            };
            for (start, end) in spans {
                schedule.push(Scheduled {
                    tick: start,
                    event: EventKind::ChaosStart(i),
                    action: phase.on_start(),
                });
                if let (Some(end), Some(action)) = (end, phase.on_end()) {
                    schedule.push(Scheduled {
                        tick: end,
                        event: EventKind::ChaosEnd(i),
                        action,
                    });
                }
            }
        }
        schedule.retain(|s| s.tick <= horizon);
        // Stable: simultaneous boundaries keep declaration order.
        schedule.sort_by_key(|s| s.tick);
        schedule
    }

    /// The action a recorded boundary event stands for (`None` for
    /// non-campaign events) — the inverse of [`Scheduled::event`], which
    /// is how a replayed trace finds its actions again.
    ///
    /// # Panics
    ///
    /// Panics if the event names a phase this campaign does not have.
    #[must_use]
    pub fn action_of(&self, event: EventKind) -> Option<ChaosAction<'_>> {
        match event {
            EventKind::ChaosStart(i) => Some(self.phases[i as usize].on_start()),
            EventKind::ChaosEnd(i) => self.phases[i as usize].on_end(),
            _ => None,
        }
    }

    /// The [`ChaosTally`] of the whole schedule, closed at `horizon`.
    fn planned(&self, horizon: u64) -> ChaosTally {
        let mut tally = ChaosTally::default();
        for s in self.schedule(horizon) {
            tally.book(s.tick, s.action);
        }
        tally.close(horizon);
        tally
    }

    /// The stats this schedule yields by construction on a run of `horizon`
    /// ticks (waves count every listed process; the simulator counts the
    /// ones a wave actually flipped).
    ///
    /// Wall-clock drivers inject phases on the wall clock and cannot
    /// measure ticks, so they report this planned view instead.
    #[must_use]
    pub fn planned_stats(&self, horizon: u64) -> ChaosStats {
        self.planned(horizon).stats
    }

    /// The `[from, until)` tick intervals during which some cut is
    /// installed on a run of `horizon` ticks: opened by a partition, cut
    /// or flap install, closed by whichever heal comes first (the phase's
    /// own `until`, an explicit [`ChaosPhase::Heal`], or the horizon).
    #[must_use]
    pub fn installed_intervals(&self, horizon: u64) -> Vec<(u64, u64)> {
        self.planned(horizon).installed
    }

    /// Checks the campaign is well-formed for an `n`-process system.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation: an out-of-range
    /// process id, overlapping partition groups, an empty interval, or a
    /// zero storm factor.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for (i, phase) in self.phases.iter().enumerate() {
            let ctx = |msg: String| format!("campaign phase {i}: {msg}");
            let check_pid = |pid: ProcessId| {
                if pid.index() >= n {
                    Err(ctx(format!("process {pid} out of range for n={n}")))
                } else {
                    Ok(())
                }
            };
            match phase {
                ChaosPhase::Partition {
                    groups,
                    from,
                    until,
                } => {
                    if until <= from {
                        return Err(ctx(format!("empty interval {from}..{until}")));
                    }
                    let mut seen = vec![false; n];
                    for group in groups {
                        for &pid in group {
                            check_pid(pid)?;
                            if std::mem::replace(&mut seen[pid.index()], true) {
                                return Err(ctx(format!("process {pid} in two groups")));
                            }
                        }
                    }
                }
                ChaosPhase::Storm {
                    factor,
                    from,
                    until,
                    ..
                } => {
                    if until <= from {
                        return Err(ctx(format!("empty interval {from}..{until}")));
                    }
                    if *factor == 0 {
                        return Err(ctx("storm factor must be >= 1".to_string()));
                    }
                }
                ChaosPhase::Wave { crash, recover, .. } => {
                    for &pid in crash.iter().chain(recover) {
                        check_pid(pid)?;
                    }
                }
                ChaosPhase::Heal { .. } => {}
                ChaosPhase::Cut {
                    blinded,
                    hidden,
                    from,
                    until,
                } => {
                    if until <= from {
                        return Err(ctx(format!("empty interval {from}..{until}")));
                    }
                    if blinded.is_empty() || hidden.is_empty() {
                        return Err(ctx("cut needs both a blinded and a hidden side".to_string()));
                    }
                    let mut seen = vec![false; n];
                    for &pid in blinded.iter().chain(hidden) {
                        check_pid(pid)?;
                        if std::mem::replace(&mut seen[pid.index()], true) {
                            return Err(ctx(format!("process {pid} on both sides of the cut")));
                        }
                    }
                }
                ChaosPhase::Flap {
                    groups,
                    period,
                    from,
                    until,
                } => {
                    if until <= from {
                        return Err(ctx(format!("empty interval {from}..{until}")));
                    }
                    if *period == 0 {
                        return Err(ctx("flap period must be >= 1".to_string()));
                    }
                    let mut seen = vec![false; n];
                    for group in groups {
                        for &pid in group {
                            check_pid(pid)?;
                            if std::mem::replace(&mut seen[pid.index()], true) {
                                return Err(ctx(format!("process {pid} in two groups")));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// What a campaign did to one run — the counters that make chaos outcomes
/// comparable (and, via the fingerprint, replay-witnessed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Partitions installed.
    pub partitions: u32,
    /// Total ticks some partition was active.
    pub partition_ticks: u64,
    /// Total ticks some storm was active.
    pub storm_ticks: u64,
    /// Processes crashed by waves.
    pub wave_crashes: u32,
    /// Processes resurrected by waves.
    pub wave_recoveries: u32,
    /// Tick of the last partition heal, if any partition healed.
    pub last_heal_at: Option<u64>,
}

impl ChaosStats {
    /// Whether the run saw any chaos at all.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != ChaosStats::default()
    }
}

/// The one accounting of campaign actions as they fire: fold
/// [`book`](Self::book) over actions in firing order, then
/// [`close`](Self::close) at the horizon.
#[derive(Debug, Clone, Default)]
pub struct ChaosTally {
    /// The counters so far.
    pub stats: ChaosStats,
    /// The `[from, until)` intervals during which a cut was installed.
    pub installed: Vec<(u64, u64)>,
    partition_since: Option<u64>,
    storm_since: Option<u64>,
}

impl ChaosTally {
    /// Whether a cut is installed right now — a heal only acts (and only
    /// counts) when one is.
    #[must_use]
    pub fn cut_installed(&self) -> bool {
        self.partition_since.is_some()
    }

    /// Books `action` firing at tick `now`. A wave books every process it
    /// lists; a caller that knows how many it actually flipped books those
    /// through [`book_wave`](Self::book_wave) instead.
    pub fn book(&mut self, now: u64, action: ChaosAction<'_>) {
        match action {
            ChaosAction::InstallPartition(_) | ChaosAction::InstallCut { .. } => {
                self.stats.partitions += 1;
                self.partition_since = Some(now);
            }
            ChaosAction::Heal => {
                if let Some(since) = self.partition_since.take() {
                    self.stats.partition_ticks += now - since;
                    self.stats.last_heal_at = Some(now);
                    self.installed.push((since, now));
                }
            }
            ChaosAction::StormOn { .. } => self.storm_since = Some(now),
            ChaosAction::StormOff => {
                if let Some(since) = self.storm_since.take() {
                    self.stats.storm_ticks += now - since;
                }
            }
            ChaosAction::Wave { crash, recover } => {
                self.book_wave(crash.len() as u32, recover.len() as u32);
            }
        }
    }

    /// Books a wave that crashed `crashes` and resurrected `recoveries`
    /// processes.
    pub fn book_wave(&mut self, crashes: u32, recoveries: u32) {
        self.stats.wave_crashes += crashes;
        self.stats.wave_recoveries += recoveries;
    }

    /// Closes the accounting of whatever is still active at `horizon`: its
    /// ticks count up to there, but it never healed.
    pub fn close(&mut self, horizon: u64) {
        if let Some(since) = self.partition_since.take() {
            self.stats.partition_ticks += horizon - since;
            self.installed.push((since, horizon));
        }
        if let Some(since) = self.storm_since.take() {
            self.stats.storm_ticks += horizon - since;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn predicates_see_storms_and_recoveries() {
        let quiet = Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![vec![p(0)], vec![p(1)]],
            from: 10,
            until: 20,
        });
        assert!(!quiet.has_storm());
        assert!(!quiet.has_recovery());
        let stormy = quiet.clone().phase(ChaosPhase::Storm {
            factor: 4,
            jitter: 2,
            from: 5,
            until: 9,
        });
        assert!(stormy.has_storm());
        let wavy = quiet.phase(ChaosPhase::Wave {
            crash: vec![p(0)],
            recover: vec![p(1)],
            at: 30,
        });
        assert!(wavy.has_recovery());
        let crash_only = Campaign::new().phase(ChaosPhase::Wave {
            crash: vec![p(0)],
            recover: vec![],
            at: 30,
        });
        assert!(!crash_only.has_recovery());
    }

    #[test]
    fn validate_catches_malformed_phases() {
        let n = 3;
        assert!(Campaign::new().validate(n).is_ok());
        let oob = Campaign::new().phase(ChaosPhase::Wave {
            crash: vec![p(7)],
            recover: vec![],
            at: 1,
        });
        assert!(oob.validate(n).unwrap_err().contains("out of range"));
        let overlap = Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![vec![p(0)], vec![p(0)]],
            from: 1,
            until: 2,
        });
        assert!(overlap.validate(n).unwrap_err().contains("two groups"));
        let empty = Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![],
            from: 5,
            until: 5,
        });
        assert!(empty.validate(n).unwrap_err().contains("empty interval"));
        let dead_storm = Campaign::new().phase(ChaosPhase::Storm {
            factor: 0,
            jitter: 0,
            from: 1,
            until: 2,
        });
        assert!(dead_storm.validate(n).unwrap_err().contains("factor"));
    }

    #[test]
    fn phase_extents() {
        let part = ChaosPhase::Partition {
            groups: vec![],
            from: 3,
            until: 9,
        };
        assert_eq!((part.start(), part.end()), (3, Some(9)));
        let heal = ChaosPhase::Heal { at: 7 };
        assert_eq!((heal.start(), heal.end()), (7, None));
    }

    #[test]
    fn planned_stats_mirror_the_schedule() {
        let campaign = Campaign::new()
            .phase(ChaosPhase::Partition {
                groups: vec![vec![p(0)], vec![p(1)]],
                from: 100,
                until: 700,
            })
            .phase(ChaosPhase::Storm {
                factor: 3,
                jitter: 0,
                from: 1_000,
                until: 4_000,
            })
            .phase(ChaosPhase::Wave {
                crash: vec![p(0)],
                recover: vec![p(0)],
                at: 5_000,
            });
        let stats = campaign.planned_stats(10_000);
        assert_eq!(stats.partitions, 1);
        assert_eq!(stats.partition_ticks, 600);
        assert_eq!(stats.storm_ticks, 3_000);
        assert_eq!(stats.wave_crashes, 1);
        assert_eq!(stats.wave_recoveries, 1);
        assert_eq!(stats.last_heal_at, Some(700));
        // Phases still active at the horizon close there, unhealed; later
        // phases never fire.
        let cut_short = campaign.planned_stats(2_000);
        assert_eq!(cut_short.partition_ticks, 600);
        assert_eq!(cut_short.storm_ticks, 1_000);
        assert_eq!(cut_short.wave_crashes, 0);

        // The schedule those stats are folded over: every boundary, by
        // tick, carrying the simulator event of its declaring phase.
        let boundaries = |c: &Campaign, horizon| -> Vec<(u64, EventKind)> {
            c.schedule(horizon)
                .iter()
                .map(|s| (s.tick, s.event))
                .collect()
        };
        assert_eq!(
            boundaries(&campaign, 10_000),
            [
                (100, EventKind::ChaosStart(0)),
                (700, EventKind::ChaosEnd(0)),
                (1_000, EventKind::ChaosStart(1)),
                (4_000, EventKind::ChaosEnd(1)),
                (5_000, EventKind::ChaosStart(2)),
            ]
        );
        assert_eq!(
            campaign.schedule(10_000)[3].action,
            ChaosAction::StormOff,
            "a storm's end clears the storm, not the cut"
        );
        // An `until` past the horizon yields no boundary at all; one
        // exactly at the horizon still fires, as the simulator retires it.
        assert_eq!(boundaries(&campaign, 2_000).len(), 3);
        assert_eq!(boundaries(&campaign, 4_000).len(), 4);
        assert_eq!(campaign.installed_intervals(10_000), [(100, 700)]);
        assert_eq!(campaign.installed_intervals(500), [(100, 500)]);

        // Equal ticks fire in declaration order: a heal declared before an
        // install at its tick finds nothing to heal; declared after, it
        // heals that install on the spot.
        let install = ChaosPhase::Partition {
            groups: vec![vec![p(0)], vec![p(1)]],
            from: 700,
            until: 900,
        };
        let heal = ChaosPhase::Heal { at: 700 };
        let heal_first = Campaign::new().phase(heal.clone()).phase(install.clone());
        assert_eq!(heal_first.installed_intervals(10_000), [(700, 900)]);
        assert_eq!(heal_first.planned_stats(10_000).last_heal_at, Some(900));
        let install_first = Campaign::new().phase(install).phase(heal);
        assert_eq!(
            boundaries(&install_first, 10_000),
            [
                (700, EventKind::ChaosStart(0)),
                (700, EventKind::ChaosStart(1)),
                (900, EventKind::ChaosEnd(0)),
            ]
        );
        assert_eq!(install_first.installed_intervals(10_000), [(700, 700)]);
        assert_eq!(install_first.planned_stats(10_000).partition_ticks, 0);

        // An explicit heal ends the installed interval early; the phase's
        // own `until` then has nothing left to heal.
        let healed_early = Campaign::new()
            .phase(ChaosPhase::Partition {
                groups: vec![vec![p(0)], vec![p(1)]],
                from: 2_000,
                until: 9_000,
            })
            .phase(ChaosPhase::Heal { at: 4_000 });
        assert_eq!(healed_early.installed_intervals(60_000), [(2_000, 4_000)]);
        let stats = healed_early.planned_stats(60_000);
        assert_eq!(stats.partition_ticks, 2_000);
        assert_eq!(stats.last_heal_at, Some(4_000));
    }

    #[test]
    fn flap_spans_cover_the_window_and_clamp_the_tail() {
        // 100..700 with period 150: cut 100..250, healed 250..400,
        // cut 400..550, healed 550..700.
        assert_eq!(flap_spans(150, 100, 700), vec![(100, 250), (400, 550)]);
        // The final cut clamps to heal at `until`.
        assert_eq!(flap_spans(300, 0, 500), vec![(0, 300)]);
        assert_eq!(flap_spans(200, 0, 700), vec![(0, 200), (400, 600)]);
        assert!(flap_spans(0, 0, 100).is_empty(), "degenerate period");
        assert!(flap_spans(10, 50, 50).is_empty(), "empty window");
    }

    #[test]
    fn validate_rejects_zero_period_and_overlapping_flap_groups() {
        let zero_period = Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![vec![p(0)], vec![p(1)]],
            period: 0,
            from: 10,
            until: 100,
        });
        assert!(zero_period.validate(3).unwrap_err().contains("period"));
        let overlap = Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![vec![p(0), p(1)], vec![p(1)]],
            period: 10,
            from: 10,
            until: 100,
        });
        assert!(overlap.validate(3).unwrap_err().contains("two groups"));
        let ok = Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![vec![p(0)], vec![p(1), p(2)]],
            period: 10,
            from: 10,
            until: 100,
        });
        assert!(ok.validate(3).is_ok());
    }

    #[test]
    fn validate_rejects_malformed_cuts() {
        let both_sides = Campaign::new().phase(ChaosPhase::Cut {
            blinded: vec![p(0)],
            hidden: vec![p(0)],
            from: 1,
            until: 9,
        });
        assert!(both_sides.validate(2).unwrap_err().contains("both sides"));
        let one_sided = Campaign::new().phase(ChaosPhase::Cut {
            blinded: vec![p(0)],
            hidden: vec![],
            from: 1,
            until: 9,
        });
        assert!(one_sided.validate(2).unwrap_err().contains("hidden"));
        let empty = Campaign::new().phase(ChaosPhase::Cut {
            blinded: vec![p(0)],
            hidden: vec![p(1)],
            from: 9,
            until: 9,
        });
        assert!(empty.validate(2).unwrap_err().contains("empty interval"));
    }

    #[test]
    fn flap_planned_stats_count_every_half_cycle() {
        let campaign = Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![vec![p(0)], vec![p(1)]],
            period: 150,
            from: 100,
            until: 700,
        });
        let stats = campaign.planned_stats(10_000);
        assert_eq!(stats.partitions, 2, "one install per cut half-cycle");
        assert_eq!(stats.partition_ticks, 300);
        assert_eq!(stats.last_heal_at, Some(550));
        // A horizon inside a cut half-cycle leaves it open, unhealed.
        let cut_short = campaign.planned_stats(450);
        assert_eq!(cut_short.partitions, 2);
        assert_eq!(cut_short.partition_ticks, 150 + 50);
        assert_eq!(cut_short.last_heal_at, Some(250));
        // The expansion is `flap_spans`, pair for pair: one phase's
        // start/end events alternating, and the same installed intervals.
        let spans = flap_spans(150, 100, 700);
        let schedule = campaign.schedule(10_000);
        assert_eq!(schedule.len(), 2 * spans.len());
        for (pair, &(install, heal)) in schedule.chunks(2).zip(&spans) {
            assert_eq!(
                (pair[0].tick, pair[0].event),
                (install, EventKind::ChaosStart(0))
            );
            assert_eq!(
                (pair[1].tick, pair[1].event),
                (heal, EventKind::ChaosEnd(0))
            );
            assert_eq!(pair[1].action, ChaosAction::Heal);
        }
        assert_eq!(campaign.installed_intervals(10_000), spans);
        assert_eq!(campaign.installed_intervals(450), [(100, 250), (400, 450)]);
    }

    #[test]
    fn cut_predicates_and_window() {
        let campaign = Campaign::new()
            .phase(ChaosPhase::Cut {
                blinded: vec![p(0)],
                hidden: vec![p(1)],
                from: 2_000,
                until: 8_000,
            })
            .phase(ChaosPhase::Flap {
                groups: vec![vec![p(0)], vec![p(1)]],
                period: 500,
                from: 9_000,
                until: 12_000,
            });
        assert!(campaign.has_cut());
        assert!(campaign.has_flap());
        assert!(!campaign.has_storm());
        assert_eq!(campaign.disruption_window(60_000), Some((2_000, 12_000)));
        assert_eq!(campaign.disruption_window(10_000), Some((2_000, 10_000)));
        assert_eq!(Campaign::new().disruption_window(10_000), None);
    }

    #[test]
    fn stats_any_detects_activity() {
        assert!(!ChaosStats::default().any());
        let active = ChaosStats {
            partitions: 1,
            ..ChaosStats::default()
        };
        assert!(active.any());
    }
}
