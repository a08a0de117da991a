//! The simulation harness: wires actors, adversary, timers and crashes
//! together and runs the event loop to a horizon.

use omega_registers::{plurality, FootprintReport, MemorySpace, ProcessId, ProcessSet};

use crate::adversary::{Adversary, RunView, Synchronous};
use crate::chaos::{Campaign, ChaosAction, ChaosStats, ChaosTally};
use crate::crash::{CrashDirective, CrashPlan};
use crate::event::{EventKind, EventQueue};
use crate::metrics::{LeaderTimeline, StabilizationReport, WindowedStats};
use crate::process::{Actor, StepCtx};
use crate::time::SimTime;
use crate::timers::{ExactTimer, TimerModel};
use crate::trace::{EventTrace, Trace};

/// Configures and builds a [`Simulation`].
///
/// # Examples
///
/// ```
/// use omega_sim::{Simulation, SimTime, StepCtx};
/// use omega_sim::adversary::SeededRandom;
/// use omega_registers::ProcessId;
///
/// struct Idle;
/// impl omega_sim::Actor for Idle {
///     fn on_step(&mut self, _ctx: StepCtx) {}
///     fn on_timer(&mut self, _ctx: StepCtx) -> u64 { 10 }
///     fn current_leader(&self) -> Option<ProcessId> { Some(ProcessId::new(0)) }
/// }
///
/// let actors: Vec<Box<dyn omega_sim::Actor>> = vec![Box::new(Idle), Box::new(Idle)];
/// let report = Simulation::builder(actors)
///     .adversary(SeededRandom::new(1, 1, 4))
///     .horizon(1_000)
///     .run();
/// assert!(report.events_processed > 0);
/// ```
pub struct SimulationBuilder {
    actors: Vec<Box<dyn Actor>>,
    adversary: Box<dyn Adversary>,
    timers: Vec<Box<dyn TimerModel>>,
    crash_plan: CrashPlan,
    horizon: SimTime,
    sample_every: u64,
    stats_checkpoints: usize,
    memory: Option<MemorySpace>,
    trace_capacity: usize,
    record_trace: bool,
    campaign: Option<Campaign>,
}

impl SimulationBuilder {
    fn new(actors: Vec<Box<dyn Actor>>) -> Self {
        let n = actors.len();
        SimulationBuilder {
            actors,
            adversary: Box::new(Synchronous::new(1)),
            timers: (0..n)
                .map(|_| Box::new(ExactTimer) as Box<dyn TimerModel>)
                .collect(),
            crash_plan: CrashPlan::none(),
            horizon: SimTime::from_ticks(10_000),
            sample_every: 50,
            stats_checkpoints: 16,
            memory: None,
            trace_capacity: 0,
            record_trace: false,
            campaign: None,
        }
    }

    /// Sets the adversarial scheduler (default: [`Synchronous`] with period 1).
    #[must_use]
    pub fn adversary(mut self, adversary: impl Adversary + 'static) -> Self {
        self.adversary = Box::new(adversary);
        self
    }

    /// Sets every process's timer model from a per-process constructor
    /// (default: [`ExactTimer`] everywhere).
    #[must_use]
    pub fn timers_from(mut self, mut f: impl FnMut(ProcessId) -> Box<dyn TimerModel>) -> Self {
        self.timers = ProcessId::all(self.actors.len()).map(&mut f).collect();
        self
    }

    /// Sets the crash plan (default: fault-free).
    #[must_use]
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Sets the run horizon in ticks (default: 10 000).
    #[must_use]
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = SimTime::from_ticks(ticks);
        self
    }

    /// Sets the sampling cadence in ticks (default: 50).
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0`.
    #[must_use]
    pub fn sample_every(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "sampling cadence must be positive");
        self.sample_every = ticks;
        self
    }

    /// Number of cumulative statistics/footprint checkpoints spread over the
    /// run (default: 16). Requires [`memory`](Self::memory).
    #[must_use]
    pub fn stats_checkpoints(mut self, count: usize) -> Self {
        self.stats_checkpoints = count;
        self
    }

    /// Attaches the memory space so access statistics and footprints are
    /// checkpointed during the run.
    #[must_use]
    pub fn memory(mut self, space: MemorySpace) -> Self {
        self.memory = Some(space);
        self
    }

    /// Enables event tracing, retaining the most recent `capacity` events
    /// in [`RunReport::trace`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn trace(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace_capacity = capacity;
        self
    }

    /// Attaches a chaos [`Campaign`]: its phases fire as ordinary simulator
    /// events at their scheduled ticks (and are therefore recorded in
    /// traces and replayed byte-identically). Partition and heal phases
    /// require an attached [`memory`](Self::memory).
    ///
    /// # Panics
    ///
    /// Panics if the campaign fails [`Campaign::validate`] for the actor
    /// count.
    #[must_use]
    pub fn campaign(mut self, campaign: Campaign) -> Self {
        if let Err(msg) = campaign.validate(self.actors.len()) {
            panic!("{msg}");
        }
        self.campaign = Some(campaign);
        self
    }

    /// Records the **complete** event sequence of the run into
    /// [`RunReport::recording`] as a [`Trace`] — the record half of
    /// record/replay (see [`run_replay`](Self::run_replay)).
    #[must_use]
    pub fn record_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Runs the simulation to the horizon and returns the report.
    #[must_use]
    pub fn run(self) -> RunReport {
        Simulation::from_builder(self).run_to_horizon()
    }

    /// Replays a recorded [`Trace`] against this configuration instead of
    /// running the live event loop: events fire in exactly the recorded
    /// order and the adversary/timer models are never consulted, so the
    /// replayed run is byte-identical to the live one that produced the
    /// trace (same actors, same crash plan, same checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if the trace's process count does not match the actor count.
    #[must_use]
    pub fn run_replay(self, trace: &Trace) -> RunReport {
        Simulation::from_builder(self).replay_events(trace)
    }
}

/// Wall-clock timing of one simulated run: how long the event loop took and
/// how many events it retired per second. This is the throughput metric the
/// perf regression trail (`BENCH_scenarios.json`) tracks alongside the
/// model-level read/write counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock {
    /// Wall-clock duration of the event loop (excludes actor construction).
    pub elapsed: std::time::Duration,
}

impl WallClock {
    /// Elapsed wall-clock milliseconds (fractional).
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }

    /// Events per wall-clock second, given the number of events retired
    /// (0.0 when the elapsed time is too small to measure).
    #[must_use]
    pub fn events_per_sec(&self, events: u64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        }
    }
}

/// A configured simulation ready to run.
pub struct Simulation {
    actors: Vec<Box<dyn Actor>>,
    adversary: Box<dyn Adversary>,
    timers: Vec<Box<dyn TimerModel>>,
    crash_plan: CrashPlan,
    horizon: SimTime,
    sample_every: u64,
    stats_checkpoints: usize,
    memory: Option<MemorySpace>,
    trace: Option<EventTrace>,
    recording: Option<Trace>,

    queue: EventQueue,
    crashed: ProcessSet,
    timer_epochs: Vec<u64>,
    pending_leader_crashes: Vec<SimTime>,
    campaign: Option<Campaign>,
    /// Active storm envelope `(factor, jitter)`; stretches live-scheduled
    /// step delays.
    storm: Option<(u64, u64)>,
    /// Accounting of the campaign actions applied so far.
    chaos: ChaosTally,
    report: RunReport,
}

impl Simulation {
    /// Starts configuring a simulation over the given actors; actor `i`
    /// plays process `p_i`.
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty.
    #[must_use]
    pub fn builder(actors: Vec<Box<dyn Actor>>) -> SimulationBuilder {
        assert!(!actors.is_empty(), "a simulation needs at least one actor");
        SimulationBuilder::new(actors)
    }

    fn from_builder(b: SimulationBuilder) -> Self {
        let n = b.actors.len();
        assert_eq!(
            b.timers.len(),
            n,
            "need exactly one timer model per process"
        );
        let pending_leader_crashes = b
            .crash_plan
            .directives()
            .iter()
            .filter_map(|d| match *d {
                CrashDirective::LeaderAt { time } => Some(time),
                CrashDirective::At { .. } => None,
            })
            .collect();
        Simulation {
            queue: EventQueue::new(),
            crashed: ProcessSet::new(n),
            timer_epochs: vec![0; n],
            pending_leader_crashes,
            campaign: b.campaign,
            storm: None,
            chaos: ChaosTally::default(),
            report: RunReport::new(n, b.horizon),
            actors: b.actors,
            adversary: b.adversary,
            timers: b.timers,
            crash_plan: b.crash_plan,
            horizon: b.horizon,
            sample_every: b.sample_every,
            stats_checkpoints: b.stats_checkpoints,
            memory: b.memory,
            trace: if b.trace_capacity > 0 {
                Some(EventTrace::new(b.trace_capacity))
            } else {
                None
            },
            recording: if b.record_trace {
                Some(Trace::new(n, b.horizon.ticks()))
            } else {
                None
            },
        }
    }

    fn n(&self) -> usize {
        self.actors.len()
    }

    fn leaders(&self) -> Vec<Option<ProcessId>> {
        (0..self.n())
            .map(|i| {
                if self.crashed.contains(ProcessId::new(i)) {
                    None
                } else {
                    self.actors[i].current_leader()
                }
            })
            .collect()
    }

    fn crash(&mut self, pid: ProcessId) {
        self.crashed.insert(pid);
    }

    fn sample(&mut self, now: SimTime) {
        // Resolve due leader-relative crash directives.
        let leaders = self.leaders();
        let mut resolved = Vec::new();
        for (i, &when) in self.pending_leader_crashes.iter().enumerate() {
            if now >= when {
                if let Some(target) = plurality(leaders.iter().copied()) {
                    resolved.push((i, target));
                }
            }
        }
        for &(i, target) in resolved.iter().rev() {
            self.pending_leader_crashes.remove(i);
            self.crash(target);
        }
        let leaders = self.leaders();
        self.adversary.observe(&RunView {
            now,
            leaders: &leaders,
            crashed: &self.crashed,
        });
        self.report
            .timeline
            .push_with_steps(now, leaders, self.report.steps_taken.clone());
    }

    /// Takes a statistics and footprint checkpoint.
    fn checkpoint(&mut self, now: SimTime) {
        if let Some(space) = &self.memory {
            self.report.windowed.push(now, space.stats());
            self.report.footprints.push((now, space.footprint()));
        }
    }

    /// The event loop, live and replayed: applies the events `next` yields,
    /// in order, and takes the windowed checkpoints on the way — one at
    /// tick zero, ahead of the first event, then one before the first event
    /// at or past each multiple of `horizon / stats_checkpoints`.
    /// ([`finish`](Self::finish) adds the one at the horizon.)
    fn apply_all(
        &mut self,
        live: bool,
        mut next: impl FnMut(&mut Self) -> Option<(SimTime, EventKind)>,
    ) {
        let checkpoint_every = if self.stats_checkpoints > 0 {
            (self.horizon.ticks() / self.stats_checkpoints as u64).max(1)
        } else {
            0
        };
        self.checkpoint(SimTime::ZERO);
        let mut next_checkpoint = checkpoint_every;
        while let Some((now, kind)) = next(self) {
            if checkpoint_every > 0 && now.ticks() >= next_checkpoint {
                self.checkpoint(now);
                next_checkpoint += checkpoint_every;
            }
            self.apply_event(now, kind, live);
        }
    }

    fn run_to_horizon(mut self) -> RunReport {
        let started = std::time::Instant::now();
        let n = self.n();
        // Schedule initial steps and timers.
        for pid in ProcessId::all(n) {
            let delay = self.adversary.next_step_delay(pid, SimTime::ZERO).max(1);
            self.queue
                .schedule(SimTime::ZERO + delay, EventKind::Step(pid));
            let x = self.actors[pid.index()].initial_timeout();
            let d = self.timers[pid.index()].duration(SimTime::ZERO, x).max(1);
            self.queue
                .schedule(SimTime::ZERO + d, EventKind::TimerExpire(pid, 0));
        }
        // Scripted crashes.
        for (time, pid) in self.crash_plan.fixed_crashes() {
            self.queue.schedule(time, EventKind::Crash(pid));
        }
        // Chaos-campaign boundaries, in schedule order: the queue breaks
        // equal-tick ties by insertion, so they fire after scripted crashes,
        // before samples, and among themselves by declaration.
        if let Some(campaign) = &self.campaign {
            for s in campaign.schedule(self.horizon.ticks()) {
                self.queue.schedule(SimTime::from_ticks(s.tick), s.event);
            }
        }
        // Sampling cadence. The timeline is sized for it up front: grown by
        // doubling, its buffer — the run's largest — is reallocated mid-run
        // wherever the heap has room by then, and peak RSS follows the heap
        // layout instead of the run.
        let mut t = SimTime::ZERO;
        let mut samples = 0;
        while t <= self.horizon {
            self.queue.schedule(t, EventKind::Sample);
            t += self.sample_every;
            samples += 1;
        }
        self.report.timeline.reserve(samples);

        self.apply_all(true, |sim| {
            let event = sim.queue.pop().filter(|e| e.time <= sim.horizon)?;
            Some((event.time, event.kind))
        });
        self.finish(started)
    }

    /// Re-executes a recorded event sequence. No events are generated: the
    /// trace drives the run, the filters (crash set, timer epochs) evolve
    /// exactly as they did live, and the adversary/timer models are never
    /// consulted for delays.
    fn replay_events(mut self, trace: &Trace) -> RunReport {
        let started = std::time::Instant::now();
        assert_eq!(
            trace.n,
            self.n(),
            "trace records {} processes but the simulation has {}",
            trace.n,
            self.n()
        );
        assert_eq!(
            trace.horizon,
            self.horizon.ticks(),
            "trace horizon {} does not match the configured horizon {}",
            trace.horizon,
            self.horizon.ticks()
        );
        let mut recorded = trace.events().iter();
        self.apply_all(false, |_| recorded.next().map(|e| (e.time, e.kind)));
        self.finish(started)
    }

    /// Applies one popped event: counting, tracing, the stale/crashed
    /// filters, and the actor callbacks. `live` additionally schedules the
    /// follow-up event (next step / re-armed timer); replay passes `false`
    /// because the recorded sequence already contains every follow-up.
    fn apply_event(&mut self, now: SimTime, kind: EventKind, live: bool) {
        self.report.events_processed += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(now, kind);
        }
        if let Some(rec) = &mut self.recording {
            rec.record(now, kind);
        }
        match kind {
            EventKind::Step(pid) => {
                if self.crashed.contains(pid) {
                    return;
                }
                let ctx = StepCtx { pid, now };
                self.actors[pid.index()].on_step(ctx);
                self.report.steps_taken[pid.index()] += 1;
                if live {
                    let mut delay = self.adversary.next_step_delay(pid, now).max(1);
                    if let Some((factor, jitter)) = self.storm {
                        // Deterministic stretch: the storm multiplies the
                        // adversary's delay and smears it with a jitter
                        // derived from the event count, so storms replay
                        // exactly (replays take times from the trace).
                        delay = delay.saturating_mul(factor.max(1));
                        if jitter > 0 {
                            delay += self.report.events_processed % (jitter + 1);
                        }
                    }
                    self.queue.schedule(now + delay, EventKind::Step(pid));
                }
            }
            EventKind::TimerExpire(pid, epoch) => {
                if self.crashed.contains(pid) || self.timer_epochs[pid.index()] != epoch {
                    return;
                }
                let ctx = StepCtx { pid, now };
                let x = self.actors[pid.index()].on_timer(ctx);
                self.report.timer_fires[pid.index()] += 1;
                let epoch = epoch + 1;
                self.timer_epochs[pid.index()] = epoch;
                if live {
                    let d = self.timers[pid.index()].duration(now, x).max(1);
                    self.queue
                        .schedule(now + d, EventKind::TimerExpire(pid, epoch));
                }
            }
            EventKind::Crash(pid) => {
                self.crash(pid);
            }
            EventKind::Sample => {
                self.sample(now);
            }
            EventKind::ChaosStart(_) | EventKind::ChaosEnd(_) => {
                self.chaos_event(kind, now, live);
            }
        }
    }

    fn chaos_memory(&self) -> &MemorySpace {
        self.memory
            .as_ref()
            .expect("campaign partitions require an attached memory space")
    }

    /// Realizes the campaign action a boundary event stands for and books
    /// it. Mutates simulator state the same way live and on replay; only
    /// the *scheduling* of a recovered process's next step/timer is
    /// live-only (replay already carries those events in the trace).
    /// Out of line: a run retires a few dozen of these among millions of
    /// steps, and `apply_event` is the loop body.
    #[cold]
    fn chaos_event(&mut self, kind: EventKind, now: SimTime, live: bool) {
        let campaign = self
            .campaign
            .take()
            .expect("chaos event without a campaign");
        if let Some(action) = campaign.action_of(kind) {
            self.apply_chaos(action, now, live);
        }
        self.campaign = Some(campaign);
    }

    fn apply_chaos(&mut self, action: ChaosAction<'_>, now: SimTime, live: bool) {
        match action {
            ChaosAction::InstallPartition(groups) => {
                self.chaos_memory().install_partition(groups);
            }
            ChaosAction::InstallCut { blinded, hidden } => {
                self.chaos_memory().install_cut(blinded, hidden);
            }
            ChaosAction::Heal => {
                if self.chaos.cut_installed() {
                    self.chaos_memory().heal_partition();
                }
            }
            ChaosAction::StormOn { factor, jitter } => self.storm = Some((factor, jitter)),
            ChaosAction::StormOff => self.storm = None,
            ChaosAction::Wave { crash, recover } => {
                // Only processes the wave actually flips are booked.
                let (mut crashes, mut recoveries) = (0, 0);
                for &pid in crash {
                    if !self.crashed.contains(pid) {
                        self.crash(pid);
                        crashes += 1;
                    }
                }
                for &pid in recover {
                    if !self.crashed.contains(pid) {
                        continue;
                    }
                    self.crashed.remove(pid);
                    // Invalidate any stale pre-crash timer still in flight.
                    let epoch = self.timer_epochs[pid.index()] + 1;
                    self.timer_epochs[pid.index()] = epoch;
                    recoveries += 1;
                    if live {
                        let delay = self.adversary.next_step_delay(pid, now).max(1);
                        self.queue.schedule(now + delay, EventKind::Step(pid));
                        let x = self.actors[pid.index()].initial_timeout();
                        let d = self.timers[pid.index()].duration(now, x).max(1);
                        self.queue
                            .schedule(now + d, EventKind::TimerExpire(pid, epoch));
                    }
                }
                self.chaos.book_wave(crashes, recoveries);
                return;
            }
        }
        self.chaos.book(now.ticks(), action);
    }

    fn finish(mut self, started: std::time::Instant) -> RunReport {
        let n = self.n();
        // Phases still active at the horizon close there (the partition
        // itself stays installed: the run is over).
        self.chaos.close(self.horizon.ticks());
        self.report.chaos = self.chaos.stats;
        self.checkpoint(self.horizon);
        self.report.wall.elapsed = started.elapsed();
        self.report.trace = self.trace.take();
        self.report.recording = self.recording.take();
        self.report.crashed = self.crashed.clone();
        let mut correct = ProcessSet::full(n);
        for pid in self.crashed.iter() {
            correct.remove(pid);
        }
        self.report.correct = correct;
        self.report
    }
}

/// Everything measured during one simulated run.
#[derive(Debug)]
pub struct RunReport {
    /// Configured horizon of the run.
    pub horizon: SimTime,
    /// Sampled leader estimates.
    pub timeline: LeaderTimeline,
    /// Cumulative statistics checkpoints (empty without an attached memory).
    pub windowed: WindowedStats,
    /// Footprint checkpoints (empty without an attached memory).
    pub footprints: Vec<(SimTime, FootprintReport)>,
    /// Event trace (only with [`SimulationBuilder::trace`] enabled).
    pub trace: Option<EventTrace>,
    /// Complete binary-encodable event recording (only with
    /// [`SimulationBuilder::record_trace`] enabled).
    pub recording: Option<Trace>,
    /// Processes that crashed during the run.
    pub crashed: ProcessSet,
    /// Processes that survived the whole run.
    pub correct: ProcessSet,
    /// Total events processed.
    pub events_processed: u64,
    /// Wall-clock timing of the event loop.
    pub wall: WallClock,
    /// Main-task steps executed, per process.
    pub steps_taken: Vec<u64>,
    /// Timer expirations handled, per process.
    pub timer_fires: Vec<u64>,
    /// What the chaos campaign did (all-zero without a campaign).
    pub chaos: ChaosStats,
}

impl RunReport {
    fn new(n: usize, horizon: SimTime) -> Self {
        RunReport {
            horizon,
            timeline: LeaderTimeline::new(),
            windowed: WindowedStats::new(),
            footprints: Vec::new(),
            trace: None,
            recording: None,
            crashed: ProcessSet::new(n),
            correct: ProcessSet::full(n),
            events_processed: 0,
            wall: WallClock::default(),
            steps_taken: vec![0; n],
            timer_fires: vec![0; n],
            chaos: ChaosStats::default(),
        }
    }

    /// Stabilization report over the correct processes, if the run settled.
    #[must_use]
    pub fn stabilization(&self) -> Option<StabilizationReport> {
        self.timeline.stabilization(&self.correct)
    }

    /// The leader the run stabilized on, if any.
    #[must_use]
    pub fn elected_leader(&self) -> Option<ProcessId> {
        self.stabilization().map(|r| r.leader)
    }

    /// Whether the run stabilized and stayed stable for at least
    /// `min_fraction` of the horizon.
    #[must_use]
    pub fn stabilized_for(&self, min_fraction: f64) -> bool {
        self.stabilization().is_some_and(|r| {
            let stable_ticks = self.horizon.since(r.stable_from);
            (stable_ticks as f64) >= min_fraction * self.horizon.ticks() as f64
        })
    }

    /// Events retired per wall-clock second of the event loop.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.wall.events_per_sec(self.events_processed)
    }

    /// A one-screen human-readable summary of the run.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "horizon          : {} ticks", self.horizon.ticks());
        let _ = writeln!(out, "events processed : {}", self.events_processed);
        let _ = writeln!(
            out,
            "wall clock       : {:.1} ms ({:.0} events/sec)",
            self.wall.elapsed_ms(),
            self.events_per_sec()
        );
        let _ = writeln!(
            out,
            "crashed          : {:?}  (correct: {:?})",
            self.crashed, self.correct
        );
        if self.chaos.any() {
            let _ = writeln!(out, "chaos            : {:?}", self.chaos);
        }
        match self.stabilization() {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "stabilized       : leader {} from {} ({} samples)",
                    s.leader,
                    s.stable_from.ticks(),
                    s.stable_samples
                );
            }
            None => {
                let _ = writeln!(out, "stabilized       : NO");
            }
        }
        for pid in ProcessId::all(self.steps_taken.len()) {
            let _ = writeln!(
                out,
                "  {pid}: {} steps, {} timer fires, {} estimate changes",
                self.steps_taken[pid.index()],
                self.timer_fires[pid.index()],
                self.timeline.changes_of(pid)
            );
        }
        if let Some(tail) = self.windowed.tail(0.25) {
            let writers: Vec<String> = tail.writer_set().iter().map(|p| p.to_string()).collect();
            let _ = writeln!(
                out,
                "tail (last 25%)  : writers [{}], {} writes, {} reads",
                writers.join(","),
                tail.stats.total_writes(),
                tail.stats.total_reads()
            );
        }
        if let Some((_, last)) = self.windowed.snapshots().last() {
            let scan = last.scan();
            if scan.reads_skipped > 0 || scan.shard_passes > 0 {
                let _ = writeln!(
                    out,
                    "scan savings     : {} reads skipped ({} rows), {} shard passes",
                    scan.reads_skipped, scan.rows_skipped, scan.shard_passes
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SeededRandom;
    use crate::chaos::ChaosPhase;
    use crate::timers::AffineTimer;

    /// Actor that elects the smallest non-crashed id it has "heard from";
    /// purely local, used to exercise the harness plumbing.
    struct FixedLeader {
        leader: ProcessId,
        steps: u64,
    }

    impl Actor for FixedLeader {
        fn on_step(&mut self, _ctx: StepCtx) {
            self.steps += 1;
        }

        fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
            5
        }

        fn current_leader(&self) -> Option<ProcessId> {
            Some(self.leader)
        }
    }

    fn fixed_actors(n: usize, leader: usize) -> Vec<Box<dyn Actor>> {
        (0..n)
            .map(|_| {
                Box::new(FixedLeader {
                    leader: ProcessId::new(leader),
                    steps: 0,
                }) as Box<dyn Actor>
            })
            .collect()
    }

    #[test]
    fn runs_to_horizon_and_reports() {
        let report = Simulation::builder(fixed_actors(3, 1))
            .horizon(500)
            .sample_every(10)
            .run();
        assert!(report.events_processed > 0);
        assert!(report.steps_taken.iter().all(|&s| s > 0));
        assert!(report.timer_fires.iter().all(|&f| f > 0));
        assert_eq!(report.correct.len(), 3);
        let stab = report.stabilization().unwrap();
        assert_eq!(stab.leader, ProcessId::new(1));
        assert!(report.stabilized_for(0.9));
        assert_eq!(report.elected_leader(), Some(ProcessId::new(1)));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            Simulation::builder(fixed_actors(4, 0))
                .adversary(SeededRandom::new(seed, 1, 7))
                .timers_from(|_| Box::new(AffineTimer::new(2, 1)))
                .horizon(2_000)
                .run()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.steps_taken, b.steps_taken);
        assert_eq!(a.timer_fires, b.timer_fires);
        // A different seed almost surely changes the counts.
        assert_ne!(a.steps_taken, c.steps_taken);
    }

    #[test]
    fn fixed_crash_stops_a_process() {
        let report = Simulation::builder(fixed_actors(3, 0))
            .crash_plan(
                CrashPlan::none().with_crash_at(SimTime::from_ticks(100), ProcessId::new(2)),
            )
            .horizon(1_000)
            .run();
        assert!(report.crashed.contains(ProcessId::new(2)));
        assert_eq!(report.correct.len(), 2);
        // p2 stepped only before the crash: far fewer steps than p0.
        assert!(report.steps_taken[2] < report.steps_taken[0] / 2);
    }

    #[test]
    fn leader_crash_directive_kills_plurality_leader() {
        let report = Simulation::builder(fixed_actors(3, 1))
            .crash_plan(CrashPlan::none().with_leader_crash_at(SimTime::from_ticks(200)))
            .horizon(1_000)
            .sample_every(10)
            .run();
        assert!(report.crashed.contains(ProcessId::new(1)));
        // The fixed actors keep trusting p1 though it crashed: no valid
        // stabilization over the correct set.
        assert!(report.stabilization().is_none());
    }

    #[test]
    fn checkpoints_collected_with_memory() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let _reg = space.nat_register("R", ProcessId::new(0), 0);
        let report = Simulation::builder(fixed_actors(2, 0))
            .memory(space)
            .stats_checkpoints(4)
            .horizon(400)
            .run();
        assert!(report.windowed.snapshots().len() >= 4);
        assert_eq!(report.windowed.snapshots().len(), report.footprints.len());
    }

    #[test]
    #[should_panic(expected = "at least one actor")]
    fn empty_actor_set_rejected() {
        let _ = Simulation::builder(Vec::new());
    }

    #[test]
    fn summary_renders_key_facts() {
        let report = Simulation::builder(fixed_actors(2, 1))
            .horizon(300)
            .sample_every(10)
            .run();
        let out = report.summary();
        assert!(out.contains("horizon          : 300"));
        assert!(out.contains("stabilized       : leader p1"));
        assert!(out.contains("p0:"));
        let no_stab = Simulation::builder(fixed_actors(1, 0))
            .crash_plan(CrashPlan::none().with_crash_at(SimTime::from_ticks(1), ProcessId::new(0)))
            .horizon(100)
            .run();
        assert!(no_stab.summary().contains("stabilized       : NO"));
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let config = || {
            Simulation::builder(fixed_actors(4, 2))
                .adversary(SeededRandom::new(7, 1, 5))
                .timers_from(|_| Box::new(AffineTimer::new(3, 2)))
                .crash_plan(
                    CrashPlan::none().with_crash_at(SimTime::from_ticks(900), ProcessId::new(3)),
                )
                .horizon(2_000)
                .sample_every(25)
                .record_trace()
        };
        let live = config().run();
        let trace = live.recording.as_ref().expect("recording enabled");
        assert_eq!(trace.n, 4);
        assert_eq!(trace.horizon, 2_000);
        assert_eq!(trace.len(), live.events_processed as usize);

        // Round-trip the trace through the binary format, then replay it.
        let decoded = Trace::decode(&trace.encode()).unwrap();
        let replayed = config().run_replay(&decoded);

        assert_eq!(replayed.events_processed, live.events_processed);
        assert_eq!(replayed.steps_taken, live.steps_taken);
        assert_eq!(replayed.timer_fires, live.timer_fires);
        assert_eq!(
            replayed.timeline.samples(),
            live.timeline.samples(),
            "replayed timeline must match the live run sample-for-sample"
        );
        assert_eq!(replayed.crashed, live.crashed);
        assert_eq!(replayed.correct, live.correct);
        // Re-recording during replay reproduces the trace byte-for-byte.
        let re_recorded = replayed.recording.expect("recording enabled on replay");
        assert_eq!(re_recorded.encode(), decoded.encode());
    }

    #[test]
    fn replay_handles_leader_relative_crashes() {
        let config = || {
            Simulation::builder(fixed_actors(3, 1))
                .crash_plan(CrashPlan::none().with_leader_crash_at(SimTime::from_ticks(200)))
                .horizon(1_000)
                .sample_every(10)
                .record_trace()
        };
        let live = config().run();
        assert!(live.crashed.contains(ProcessId::new(1)));
        let trace = live.recording.clone().unwrap();
        let replayed = config().run_replay(&trace);
        // The leader-relative crash resolves to the same victim because the
        // actor states evolve identically up to the resolving sample.
        assert!(replayed.crashed.contains(ProcessId::new(1)));
        assert_eq!(replayed.steps_taken, live.steps_taken);
        assert_eq!(replayed.timeline.samples(), live.timeline.samples());
    }

    #[test]
    #[should_panic(expected = "trace records 2 processes")]
    fn replay_rejects_mismatched_process_count() {
        let trace = Trace::new(2, 1_000);
        let _ = Simulation::builder(fixed_actors(3, 0))
            .horizon(1_000)
            .run_replay(&trace);
    }

    #[test]
    fn storm_stretches_step_service_time() {
        let run = |campaign: Option<Campaign>| {
            let mut b = Simulation::builder(fixed_actors(3, 0)).horizon(4_000);
            if let Some(c) = campaign {
                b = b.campaign(c);
            }
            b.run()
        };
        let calm = run(None);
        let stormy = run(Some(Campaign::new().phase(ChaosPhase::Storm {
            factor: 8,
            jitter: 3,
            from: 500,
            until: 3_500,
        })));
        assert!(
            stormy.steps_taken[0] < calm.steps_taken[0] / 2,
            "storm must slow steps: {} vs {}",
            stormy.steps_taken[0],
            calm.steps_taken[0]
        );
        assert_eq!(stormy.chaos.storm_ticks, 3_000);
        assert!(!calm.chaos.any());
    }

    #[test]
    fn partition_phase_installs_and_heals_the_memory() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(3);
        let _reg = space.nat_register("R", ProcessId::new(0), 0);
        let campaign = Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![
                vec![ProcessId::new(0)],
                vec![ProcessId::new(1), ProcessId::new(2)],
            ],
            from: 100,
            until: 700,
        });
        let report = Simulation::builder(fixed_actors(3, 0))
            .memory(space.clone())
            .campaign(campaign)
            .horizon(1_000)
            .run();
        assert_eq!(report.chaos.partitions, 1);
        assert_eq!(report.chaos.partition_ticks, 600);
        assert_eq!(report.chaos.last_heal_at, Some(700));
        assert!(!space.partition_active(), "healed by the end");
    }

    #[test]
    fn unhealed_partition_accounts_to_the_horizon() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let campaign = Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![vec![ProcessId::new(0)], vec![ProcessId::new(1)]],
            from: 400,
            until: 5_000, // beyond the horizon: never heals
        });
        let report = Simulation::builder(fixed_actors(2, 0))
            .memory(space.clone())
            .campaign(campaign)
            .horizon(1_000)
            .run();
        assert_eq!(report.chaos.partition_ticks, 600);
        assert_eq!(report.chaos.last_heal_at, None);
        assert!(space.partition_active(), "still cut at the horizon");
    }

    #[test]
    fn flap_phase_oscillates_and_matches_planned_stats() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let campaign = Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![vec![ProcessId::new(0)], vec![ProcessId::new(1)]],
            period: 150,
            from: 100,
            until: 700,
        });
        let report = Simulation::builder(fixed_actors(2, 0))
            .memory(space.clone())
            .campaign(campaign.clone())
            .horizon(1_000)
            .run();
        assert_eq!(report.chaos.partitions, 2, "one install per half-cycle");
        assert_eq!(report.chaos.partition_ticks, 300);
        assert_eq!(report.chaos.last_heal_at, Some(550));
        assert!(!space.partition_active(), "flaps end healed");
        assert_eq!(
            report.chaos,
            campaign.planned_stats(1_000),
            "sim accounting and the planned mirror agree"
        );
    }

    #[test]
    fn cut_phase_blinds_one_side_and_heals() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let campaign = Campaign::new().phase(ChaosPhase::Cut {
            blinded: vec![ProcessId::new(0)],
            hidden: vec![ProcessId::new(1)],
            from: 100,
            until: 700,
        });
        let report = Simulation::builder(fixed_actors(2, 0))
            .memory(space.clone())
            .campaign(campaign.clone())
            .horizon(1_000)
            .run();
        assert_eq!(report.chaos.partitions, 1);
        assert_eq!(report.chaos.partition_ticks, 600);
        assert_eq!(report.chaos.last_heal_at, Some(700));
        assert!(!space.partition_active(), "healed by the end");
        assert_eq!(report.chaos, campaign.planned_stats(1_000));
    }

    #[test]
    fn hostile_campaign_run_replays_identically() {
        use omega_registers::MemorySpace;
        let campaign = Campaign::new()
            .phase(ChaosPhase::Cut {
                blinded: vec![ProcessId::new(0), ProcessId::new(1)],
                hidden: vec![ProcessId::new(2), ProcessId::new(3)],
                from: 200,
                until: 800,
            })
            .phase(ChaosPhase::Flap {
                groups: vec![
                    vec![ProcessId::new(0), ProcessId::new(2)],
                    vec![ProcessId::new(1), ProcessId::new(3)],
                ],
                period: 250,
                from: 1_000,
                until: 2_300,
            });
        let config = |space: &MemorySpace| {
            Simulation::builder(fixed_actors(4, 1))
                .adversary(SeededRandom::new(13, 1, 6))
                .memory(space.clone())
                .campaign(campaign.clone())
                .horizon(2_500)
                .sample_every(25)
                .record_trace()
        };
        let live_space = MemorySpace::new(4);
        let live = config(&live_space).run();
        assert_eq!(live.chaos, campaign.planned_stats(2_500));
        let trace = Trace::decode(&live.recording.as_ref().unwrap().encode()).unwrap();

        let replay_space = MemorySpace::new(4);
        let replayed = config(&replay_space).run_replay(&trace);
        assert_eq!(replayed.steps_taken, live.steps_taken);
        assert_eq!(replayed.timeline.samples(), live.timeline.samples());
        assert_eq!(replayed.chaos, live.chaos, "chaos counters replay too");
        let re_recorded = replayed.recording.expect("recording enabled on replay");
        assert_eq!(re_recorded.encode(), trace.encode());
    }

    #[test]
    fn wave_recovery_resumes_a_crashed_process() {
        let campaign = Campaign::new()
            .phase(ChaosPhase::Wave {
                crash: vec![ProcessId::new(2)],
                recover: vec![],
                at: 200,
            })
            .phase(ChaosPhase::Wave {
                crash: vec![],
                recover: vec![ProcessId::new(2)],
                at: 600,
            });
        let report = Simulation::builder(fixed_actors(3, 0))
            .campaign(campaign)
            .horizon(1_000)
            .run();
        assert_eq!(report.chaos.wave_crashes, 1);
        assert_eq!(report.chaos.wave_recoveries, 1);
        assert!(!report.crashed.contains(ProcessId::new(2)), "recovered");
        assert_eq!(report.correct.len(), 3);
        // It missed the middle of the run but stepped before and after.
        assert!(report.steps_taken[2] > 0);
        assert!(report.steps_taken[2] < report.steps_taken[0]);
    }

    #[test]
    fn campaign_run_replays_identically() {
        use omega_registers::MemorySpace;
        let campaign = Campaign::new()
            .phase(ChaosPhase::Partition {
                groups: vec![
                    vec![ProcessId::new(0), ProcessId::new(1)],
                    vec![ProcessId::new(2), ProcessId::new(3)],
                ],
                from: 300,
                until: 1_200,
            })
            .phase(ChaosPhase::Storm {
                factor: 3,
                jitter: 2,
                from: 1_300,
                until: 1_700,
            })
            .phase(ChaosPhase::Wave {
                crash: vec![ProcessId::new(3)],
                recover: vec![],
                at: 1_400,
            })
            .phase(ChaosPhase::Wave {
                crash: vec![],
                recover: vec![ProcessId::new(3)],
                at: 1_800,
            });
        let config = |space: &MemorySpace| {
            Simulation::builder(fixed_actors(4, 1))
                .adversary(SeededRandom::new(11, 1, 6))
                .memory(space.clone())
                .campaign(campaign.clone())
                .horizon(2_500)
                .sample_every(25)
                .record_trace()
        };
        let live_space = MemorySpace::new(4);
        let _ = live_space.nat_register("R", ProcessId::new(0), 0);
        let live = config(&live_space).run();
        assert!(live.chaos.any());
        let trace = Trace::decode(&live.recording.as_ref().unwrap().encode()).unwrap();

        let replay_space = MemorySpace::new(4);
        let _ = replay_space.nat_register("R", ProcessId::new(0), 0);
        let replayed = config(&replay_space).run_replay(&trace);
        assert_eq!(replayed.steps_taken, live.steps_taken);
        assert_eq!(replayed.timer_fires, live.timer_fires);
        assert_eq!(replayed.timeline.samples(), live.timeline.samples());
        assert_eq!(replayed.chaos, live.chaos, "chaos counters replay too");
        let re_recorded = replayed.recording.expect("recording enabled on replay");
        assert_eq!(re_recorded.encode(), trace.encode());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn campaign_validation_happens_at_build() {
        let campaign = Campaign::new().phase(ChaosPhase::Wave {
            crash: vec![ProcessId::new(9)],
            recover: vec![],
            at: 1,
        });
        let _ = Simulation::builder(fixed_actors(2, 0)).campaign(campaign);
    }

    #[test]
    fn timeline_samples_carry_cumulative_steps() {
        let report = Simulation::builder(fixed_actors(2, 0))
            .horizon(500)
            .sample_every(50)
            .run();
        let samples = report.timeline.samples();
        assert!(samples.iter().all(|s| s.steps.len() == 2));
        // Cumulative counts are non-decreasing and end at the totals.
        for w in samples.windows(2) {
            assert!(w[0].steps.iter().zip(&w[1].steps).all(|(a, b)| a <= b));
        }
        let last = samples.last().unwrap();
        assert!(last
            .steps
            .iter()
            .zip(&report.steps_taken)
            .all(|(s, total)| s <= total));
    }
}
