//! The two service workloads: `ServiceSimDriver` under an open-loop put
//! ladder (`serve-writes`) and under leader crashes with a read-heavy mix
//! (`serve-failover`).
//!
//! Open loop: 2 000 independent clients send on their own schedule
//! whatever the service does, and every request is timed from its
//! scheduled arrival tick, so a stall's queue shows in the latencies of
//! the requests behind it.

use std::sync::Arc;

use omega_consensus::{KvCommand, LogShared};
use omega_core::{OmegaProcess, OmegaVariant};
use omega_registers::{Instrumentation, MemorySpace, ProcessId};
use omega_scenario::{CrashSpec, Scenario};
use omega_service::{
    Ledger, RequestKind, RequestState, ServiceNode, ServiceOutcome, ServiceScenario,
    ServiceSimDriver, WorkloadSpec,
};
use omega_sim::{Actor, RunReport, StepCtx};

use crate::catalog::LADDER;
use crate::harness::{
    busy_ms, end_section, record_outside_loop, record_rep_clocks, Ctx, Measured, RepClock, Setup,
};
use crate::spans::Recorder;
use crate::stats;
use crate::unit_costs;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 90 % puts, fault-free, ladder of [`LADDER`] requests per 1 000 ticks.
    Writes,
    /// 5 % puts at 200 requests per 1 000 ticks, two leader crashes.
    Failover,
}

/// The rung whose exact counts are reported (`shared_writes`, commit
/// percentiles — its p99 is `latency_ticks` — and failed share) and at or
/// below which the SLO must hold. Higher rungs make poor references:
/// across ten seeds the mean p99 reads 269–789 ticks at rung 15 and
/// 1 900–3 600 at rung 20, the knee moving with the input.
const REFERENCE_RATE: u64 = 10;
/// The top rung: overload goodput and the put path's slot ceiling.
const TOP_RATE: u64 = LADDER[LADDER.len() - 1];
/// The SLO a rung must meet: at most 0.1 % failed …
const SLO_FAILED_SHARE: f64 = 0.001;
/// … and commit p99 within 600 ticks.
const SLO_P99_TICKS: u64 = 600;
/// Request rate of `serve-failover`, per 1 000 ticks.
const FAILOVER_RATE: u64 = 200;
const CLIENTS: u64 = 2_000;
/// Client patience in ticks (not shrunk in smoke mode: commits take what
/// they take).
const DEADLINE: u64 = 6_000;
/// First arrival tick: past the AWB envelope's τ₁ = 1 000, so the first
/// election has settled and no request meets a leaderless service.
const ARRIVALS_START: u64 = 2_000;

impl Kind {
    /// `(reps in a 15 s section, floor)`: ladder passes, or failover reps.
    fn reps(self) -> (usize, usize) {
        match self {
            Kind::Writes => (6, 4),
            Kind::Failover => (40, 10),
        }
    }

    /// The rate of the run whose counts are the workload's reference.
    fn reference_rate(self) -> u64 {
        match self {
            Kind::Writes => REFERENCE_RATE,
            Kind::Failover => FAILOVER_RATE,
        }
    }
}

/// The workload's input for rep `rep` at `rate` requests per 1 000 ticks.
#[must_use]
pub fn scenario(kind: Kind, ctx: &Ctx, rep: usize, rate: u64) -> ServiceScenario {
    let mut election = Scenario::fault_free(OmegaVariant::Alg1, 5)
        .horizon(ctx.ticks(400_000))
        .seed(ctx.sub_seed(rep));
    let (name, put_pct) = match kind {
        Kind::Writes => (format!("serve-writes/rate{rate}"), 90),
        Kind::Failover => {
            election = election
                .crash_leader_at(ctx.ticks(130_000))
                .crash_leader_at(ctx.ticks(260_000));
            ("serve-failover".to_string(), 5)
        }
    };
    let workload = WorkloadSpec {
        clients: CLIENTS,
        // Each client sends once per `mean_interarrival` ticks, so the
        // population offers `rate` requests per 1 000 ticks.
        mean_interarrival: CLIENTS * 1_000 / rate,
        put_pct,
        key_space: 64,
        deadline: DEADLINE,
        stall_bound: None,
        start: ARRIVALS_START,
        stop: arrivals_stop(ctx),
    };
    ServiceScenario::new(&name, election, workload)
}

/// Arrivals stop early enough for every deadline to fall inside the
/// horizon, so nothing is left in flight: tick 390 000 at full size.
fn arrivals_stop(ctx: &Ctx) -> u64 {
    ctx.ticks(400_000) - DEADLINE - ctx.ticks(4_000)
}

/// Thousands of ticks in the arrival window: the base of every per-kt rate.
fn window_kt(ctx: &Ctx) -> f64 {
    (arrivals_stop(ctx) - ARRIVALS_START) as f64 / 1e3
}

fn failed_share(o: &ServiceOutcome) -> f64 {
    (o.rejected + o.stalled) as f64 / o.requests.max(1) as f64
}

/// The record with its wall field zeroed: what must be byte-equal between
/// two runs of one input.
fn stable_record(o: &ServiceOutcome) -> String {
    let mut o = o.clone();
    o.elapsed_ms = 0.0;
    o.json_record()
}

/// Ledger and election checks of one run; `must_meet_slo` adds the rule
/// for rungs at or below the reference: failures within the SLO's share.
/// (Not zero: about one input in ten stalls a single put at 10 requests
/// per 1 000 ticks, fault-free — see README, "Findings".)
fn check_outcome(o: &ServiceOutcome, label: &str, must_meet_slo: bool) -> Option<String> {
    let accounted = o.committed + o.rejected + o.stalled + o.inflight;
    if accounted != o.requests {
        Some(format!(
            "{label}: ledger accounts for {accounted} of {} requests",
            o.requests
        ))
    } else if o.inflight != 0 {
        Some(format!(
            "{label}: {} requests still in flight at the horizon",
            o.inflight
        ))
    } else if !o.stabilized {
        Some(format!("{label}: the election did not stabilize"))
    } else if must_meet_slo && failed_share(o) > SLO_FAILED_SHARE {
        Some(format!(
            "{label}: {} rejected + {} stalled of {} at or below the reference rung",
            o.rejected, o.stalled, o.requests
        ))
    } else {
        None
    }
}

/// One rung of a ladder pass, as the SLO sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered requests per 1 000 ticks.
    pub rate: u64,
    /// `(rejected + stalled) / requests`.
    pub failed_share: f64,
    /// Commit p99 in ticks.
    pub commit_p99: u64,
}

/// The highest rate that meets the SLO with every lower rung meeting it
/// too (a rung past the knee that happens to pass does not count: its
/// backlog is already growing). 0 when the first rung misses.
#[must_use]
pub fn slo_rate(rungs: &[Rung]) -> u64 {
    rungs
        .iter()
        .take_while(|r| r.failed_share <= SLO_FAILED_SHARE && r.commit_p99 <= SLO_P99_TICKS)
        .last()
        .map_or(0, |r| r.rate)
}

/// The whole driver call plus the drop of its outcome, on the wall and CPU
/// clocks, timed from outside; the returned copy (a few hundred bytes) is
/// made between the two.
fn plain_run(sc: &ServiceScenario) -> ((f64, f64), ServiceOutcome) {
    let clock = RepClock::start();
    let outcome = ServiceSimDriver.run(sc);
    let run = clock.stop();
    let copy = outcome.clone();
    let clock = RepClock::start();
    drop(outcome);
    let dropped = clock.stop();
    ((run.0 + dropped.0, run.1 + dropped.1), copy)
}

/// The reference runs of a workload (rung 10 / the failover run): their
/// clocks and outcomes, one per rep.
#[derive(Debug, Default)]
struct Reference {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    outcomes: Vec<ServiceOutcome>,
}

impl Reference {
    fn push(&mut self, (wall_ms, cpu_ms): (f64, f64), o: &ServiceOutcome) {
        self.wall_ms.push(wall_ms);
        self.cpu_ms.push(cpu_ms);
        self.outcomes.push(o.clone());
    }

    /// One number per reference run.
    fn column(&self, pick: fn(&ServiceOutcome) -> f64) -> Vec<f64> {
        self.outcomes.iter().map(pick).collect()
    }

    fn record(&self, m: &mut Measured) {
        m.set_exact("shared_writes", &self.column(|o| o.total_writes as f64));
        m.set_best("sim.loop_ms", &self.column(|o| o.elapsed_ms));
        m.set_exact("consensus.log_slots", &self.column(|o| o.log_slots as f64));
        m.set_exact(
            "consensus.writes_per_commit",
            &self.column(|o| o.total_writes as f64 / o.committed.max(1) as f64),
        );
        m.set_exact(
            "service.commit_p50_ticks",
            &self.column(|o| o.commit_p50 as f64),
        );
        m.set_exact(
            "service.commit_p95_ticks",
            &self.column(|o| o.commit_p95 as f64),
        );
        m.set_exact(
            "service.commit_p99_ticks",
            &self.column(|o| o.commit_p99 as f64),
        );
        m.set_exact("service.failed_share", &self.column(failed_share));
        m.set_exact(
            "service.unavail_ticks",
            &self.column(|o| o.unavail_ticks() as f64),
        );
        m.set_exact(
            "service.unavail_failed",
            &self.column(|o| (o.unavail_rejected() + o.unavail_stalled()) as f64),
        );
        let requests = self.column(|o| o.requests as f64);
        let per_request: Vec<f64> = self
            .wall_ms
            .iter()
            .zip(&requests)
            .map(|(wall, requests)| wall * 1e6 / requests.max(1.0))
            .collect();
        m.set_best("service.wall_ns_per_request", &per_request);
        m.set_exact("service.requests", &requests);
        m.set_best("harness.reference_wall_ms", &self.wall_ms);
        record_outside_loop(m, &self.wall_ms, &self.column(|o| o.elapsed_ms));
    }
}

/// Per-pass samples of the ladder.
#[derive(Debug)]
struct Ladder {
    /// `rung_wall_ms[rung][pass]`: wall of that run.
    rung_wall_ms: Vec<Vec<f64>>,
    /// `rung_cpu_ms[rung][pass]`: process CPU of that run.
    rung_cpu_ms: Vec<Vec<f64>>,
    slo_rate: Vec<f64>,
    overload_goodput: Vec<f64>,
    top_slots_per_kt: Vec<f64>,
    top_useful_slots: Vec<f64>,
    rung_failed: Vec<Vec<f64>>,
    rung_p99: Vec<Vec<f64>>,
}

impl Ladder {
    fn new() -> Ladder {
        Ladder {
            rung_wall_ms: vec![Vec::new(); LADDER.len()],
            rung_cpu_ms: vec![Vec::new(); LADDER.len()],
            slo_rate: Vec::new(),
            overload_goodput: Vec::new(),
            top_slots_per_kt: Vec::new(),
            top_useful_slots: Vec::new(),
            rung_failed: vec![Vec::new(); LADDER.len()],
            rung_p99: vec![Vec::new(); LADDER.len()],
        }
    }

    /// One pass over every rung for input `rep`: one checked operation.
    /// The reference rung's run also lands in `reference`.
    fn pass(&mut self, ctx: &Ctx, rep: usize, m: &mut Measured, reference: &mut Reference) {
        let mut rungs = Vec::new();
        let mut problem = None;
        for (i, &rate) in LADDER.iter().enumerate() {
            let sc = scenario(Kind::Writes, ctx, rep, rate);
            let (clocks, o) = plain_run(&sc);
            self.rung_wall_ms[i].push(clocks.0);
            self.rung_cpu_ms[i].push(clocks.1);
            rungs.push(Rung {
                rate,
                failed_share: failed_share(&o),
                commit_p99: o.commit_p99,
            });
            self.rung_failed[i].push(failed_share(&o));
            self.rung_p99[i].push(o.commit_p99 as f64);
            if problem.is_none() {
                let label = format!("pass {rep} rung {rate}");
                problem = check_outcome(&o, &label, rate <= REFERENCE_RATE);
            }
            if rate == REFERENCE_RATE {
                reference.push(clocks, &o);
            }
            if rate == TOP_RATE {
                let gets = sc
                    .requests()
                    .iter()
                    .filter(|r| matches!(r.kind, RequestKind::Get { .. }))
                    .count() as u64;
                self.overload_goodput
                    .push(o.committed as f64 / window_kt(ctx));
                self.top_slots_per_kt
                    .push(o.log_slots as f64 / window_kt(ctx));
                // Fault-free, every get is served leader-locally, so what
                // committed beyond the gets are puts.
                self.top_useful_slots
                    .push(o.committed.saturating_sub(gets) as f64 / o.log_slots.max(1) as f64);
            }
        }
        self.slo_rate.push(slo_rate(&rungs) as f64);
        m.check(problem);
    }

    fn record(&self, m: &mut Measured) {
        // Whole passes, for the rep series and its spread …
        let passes = self.slo_rate.len();
        let pass_sums = |rungs: &[Vec<f64>]| -> Vec<f64> {
            (0..passes)
                .map(|pass| rungs.iter().map(|rung| rung[pass]).sum())
                .collect()
        };
        record_rep_clocks(
            m,
            stats::best,
            &pass_sums(&self.rung_wall_ms),
            &pass_sums(&self.rung_cpu_ms),
        );
        // … but a pass is 2 s long and there are only a handful, so one
        // noisy rung spoils it: the reported pass is the best run of each
        // rung, summed. The rungs' inputs differ by pass; their work does
        // not (same rate, same horizon).
        let best_rungs =
            |rungs: &[Vec<f64>]| -> f64 { rungs.iter().map(|rung| stats::best(rung)).sum() };
        let (walls, cpus) = (pass_sums(&self.rung_wall_ms), pass_sums(&self.rung_cpu_ms));
        m.set_from("run_wall_ms", best_rungs(&self.rung_wall_ms), &walls);
        m.set_from("rep_cpu_ms", best_rungs(&self.rung_cpu_ms), &cpus);
        m.set_exact("service.slo_rate_per_kt", &self.slo_rate);
        m.set_exact("service.overload_goodput_per_kt", &self.overload_goodput);
        m.set_exact("consensus.slots_per_kt", &self.top_slots_per_kt);
        m.set_exact("consensus.useful_slot_ratio", &self.top_useful_slots);
        for (i, rate) in LADDER.iter().enumerate() {
            m.set_exact(
                &format!("service.rung{rate}.failed_share"),
                &self.rung_failed[i],
            );
            m.set_exact(
                &format!("service.rung{rate}.commit_p99_ticks"),
                &self.rung_p99[i],
            );
        }
    }
}

/// Runs the workload.
pub fn run(kind: Kind, ctx: &Ctx, recorder: &mut Recorder) -> Measured {
    let mut m = Measured::default();
    let reference_rate = kind.reference_rate();
    let mut setup = Setup::start(|| {
        let sc = scenario(kind, ctx, 0, reference_rate);
        drop(std::hint::black_box(construct(&sc)));
    });

    let (nominal, floor) = kind.reps();
    // The traced pass spends two thirds of its section on expansion pairs.
    let plain = if ctx.trace {
        ctx.traced_pairs(nominal, floor)
    } else {
        ctx.reps(nominal, floor)
    };
    m.counts.push(("reps", plain));
    let mut reference = Reference::default();
    let mut ladder = Ladder::new();
    let section = RepClock::start();
    for rep in 0..plain {
        setup.sample();
        match kind {
            Kind::Writes => ladder.pass(ctx, rep, &mut m, &mut reference),
            Kind::Failover => {
                let sc = scenario(kind, ctx, rep, reference_rate);
                let (clocks, o) = plain_run(&sc);
                m.check(check_outcome(&o, &format!("rep {rep}"), false));
                reference.push(clocks, &o);
            }
        }
    }
    if ctx.trace {
        traced(kind, ctx, recorder, &mut m, &mut reference);
    }
    end_section(&mut m, &section);
    setup.finish(&mut m);

    reference.record(&mut m);
    match kind {
        Kind::Writes => {
            ladder.record(&mut m);
            m.set_exact("latency_ticks", &reference.column(|o| o.commit_p99 as f64));
        }
        Kind::Failover => {
            record_rep_clocks(&mut m, stats::best, &reference.wall_ms, &reference.cpu_ms);
            // Mean unavailability window per scripted crash.
            let per_crash =
                |o: &ServiceOutcome| o.unavail_ticks() as f64 / o.windows.len().max(1) as f64;
            m.set_exact("latency_ticks", &reference.column(per_crash));
            m.set(
                "consensus.slots_per_kt",
                m.get("consensus.log_slots") / window_kt(ctx),
            );
        }
    }
    if ctx.trace {
        let sc = scenario(kind, ctx, 0, reference_rate);
        for (name, cost) in unit_costs::measure(sc.election.n, ctx.seed, &sc.election) {
            m.set(name, cost);
        }
        attribute(&mut m);
    }

    // Determinism: the first input again must give the byte-equal record.
    let again = ServiceSimDriver.run(&scenario(kind, ctx, 0, reference_rate));
    if reference.outcomes.first().map(stable_record) != Some(stable_record(&again)) {
        m.problem("two runs of rep 0's input gave different records".into());
    }
    m
}

/// What [`construct`] builds.
type Built = (
    MemorySpace,
    Vec<Box<dyn OmegaProcess>>,
    Arc<LogShared<KvCommand>>,
    Arc<Ledger>,
);

/// Everything `ServiceSimDriver::run` builds before its event loop, from
/// public pieces: registers and Ω processes, the shared log, and the
/// ledger over the generated request schedule.
fn construct(sc: &ServiceScenario) -> Built {
    let n = sc.election.n;
    let space = MemorySpace::with_instrumentation(n, Instrumentation::Deferred);
    let omegas = sc.election.variant.build_processes_in(&space);
    let shared = LogShared::<KvCommand>::new(space.clone());
    let ledger = Ledger::new(sc.requests(), n);
    (space, omegas, shared, ledger)
}

/// A timeout the workload actor's timer never reaches inside a horizon.
const NEVER: u64 = 1 << 40;

/// An Ω process and its replica stepped as one actor — the public-API
/// twin of the driver's private node actor.
struct NodeActor {
    omega: Box<dyn OmegaProcess>,
    node: ServiceNode,
}

impl Actor for NodeActor {
    fn on_step(&mut self, ctx: StepCtx) {
        self.omega.t2_step();
        self.node.poll(self.omega.cached_leader(), ctx.now.ticks());
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        self.omega.on_timer_expire()
    }

    fn initial_timeout(&self) -> u64 {
        self.omega.initial_timeout()
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.omega.cached_leader()
    }
}

/// The client population — the twin of the driver's workload actor.
struct ClientsActor {
    ledger: Arc<Ledger>,
    next: usize,
}

impl Actor for ClientsActor {
    fn on_step(&mut self, ctx: StepCtx) {
        let now = ctx.now.ticks();
        while self.next < self.ledger.requests() && self.ledger.meta()[self.next].arrival <= now {
            self.ledger.issue(self.next, now);
            self.next += 1;
        }
        self.ledger.sweep(now);
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        NEVER
    }

    fn initial_timeout(&self) -> u64 {
        NEVER
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.ledger.route_target()
    }
}

/// `ServiceSimDriver::run` rebuilt from public pieces with a span around
/// each call: construction → `Simulation::run` → final sweep →
/// `ServiceOutcome::assemble`. Returns the outcome, the simulator's own
/// report and the ledger, which the driver keeps to itself.
fn expanded_run(
    sc: &ServiceScenario,
    rec: &mut Recorder,
    rep: usize,
) -> (ServiceOutcome, RunReport, Arc<Ledger>) {
    let election = &sc.election;
    let n = election.n;
    let (space, omegas, shared, ledger) = rec.span("service", "construct", rep, |_| construct(sc));
    let mut actors: Vec<Box<dyn Actor>> = omegas
        .into_iter()
        .map(|omega| {
            let node = ServiceNode::new(omega.pid(), Arc::clone(&ledger), Arc::clone(&shared));
            Box::new(NodeActor { omega, node }) as Box<dyn Actor>
        })
        .collect();
    actors.push(Box::new(ClientsActor {
        ledger: Arc::clone(&ledger),
        next: 0,
    }));
    let mut env = election.clone();
    env.n = n + 1;
    let report = rec.span("sim", "Simulation::run", rep, |_| {
        env.sim_builder(actors).memory(space.clone()).run()
    });
    let outcome = rec.span("service", "ServiceOutcome::assemble", rep, |_| {
        ledger.sweep(election.horizon);
        let crash_ticks: Vec<u64> = election
            .crashes
            .iter()
            .map(|c| match *c {
                CrashSpec::At { tick, .. } | CrashSpec::LeaderAt { tick } => tick,
            })
            .collect();
        ServiceOutcome::assemble(
            "sim",
            sc,
            &ledger,
            &crash_ticks,
            report.stabilization().is_some(),
            space.stats().total_writes(),
            shared.allocated_slots() as u64,
            report.wall.elapsed_ms(),
        )
    });
    rec.span("harness", "drop", rep, |_| drop((space, shared)));
    (outcome, report, ledger)
}

/// The per-layer pass: each input's reference run once plainly and once
/// through [`expanded_run`]; the records must be byte-equal.
fn traced(kind: Kind, ctx: &Ctx, rec: &mut Recorder, m: &mut Measured, reference: &mut Reference) {
    let (nominal, floor) = kind.reps();
    let pairs = match kind {
        // A pair is one rung, a sixth of a pass.
        Kind::Writes => 3 * ctx.traced_pairs(nominal, floor),
        Kind::Failover => ctx.traced_pairs(nominal, floor),
    };
    m.counts.push(("traced_pairs", pairs));
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut steps, mut client_steps, mut fires, mut events, mut samples) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut useful_slots = Vec::new();
    for rep in 0..pairs {
        let sc = scenario(kind, ctx, rep, kind.reference_rate());
        let (clocks, plain) = plain_run(&sc);
        plain_walls.push(clocks.0);
        reference.push(clocks, &plain);

        let before = rec.spans().len();
        let (outcome, report, ledger) = rec.span("harness", "traced rep", rep, |rec| {
            expanded_run(&sc, rec, rep)
        });
        let wall_ns = rec.spans()[before].duration_ns();
        traced_walls.push(wall_ns as f64 / 1e6);
        if stable_record(&outcome) != stable_record(&plain) {
            m.problem(format!("rep {rep}: the traced expansion's record differs"));
        }
        let n = sc.election.n;
        steps.push(report.steps_taken[..n].iter().sum::<u64>() as f64);
        client_steps.push(report.steps_taken[n] as f64);
        fires.push(report.timer_fires[..n].iter().sum::<u64>() as f64);
        events.push(report.events_processed as f64);
        samples.push(report.timeline.samples().len() as f64);
        let committed_puts = ledger
            .meta()
            .iter()
            .zip(ledger.states())
            .filter(|(meta, state)| {
                matches!(meta.kind, RequestKind::Put { .. })
                    && matches!(state, RequestState::Committed { .. })
            })
            .count();
        useful_slots.push(committed_puts as f64 / outcome.log_slots.max(1) as f64);
    }
    m.set_exact("core.steps", &steps);
    m.set_exact("service.client_steps", &client_steps);
    m.set_exact("core.timer_fires", &fires);
    m.set_exact("sim.events", &events);
    m.set_exact("sim.samples", &samples);
    if kind == Kind::Failover {
        m.set_exact("consensus.useful_slot_ratio", &useful_slots);
    }
    let loop_ms = stats::best(&rec.durations_ms("Simulation::run"));
    if loop_ms > 0.0 {
        m.set("sim.events_per_s", stats::mean(&events) / (loop_ms / 1e3));
    }
    let (plain, traced) = (stats::best(&plain_walls), stats::best(&traced_walls));
    m.set("harness.trace_overhead_share", (traced - plain) / plain);
    m.set_best("core.build_ms", &rec.durations_ms("construct"));
}

/// Layer busy time = count × isolated unit cost, as in the election
/// workloads; the remainder is unattributed.
fn attribute(m: &mut Measured) {
    let ms = busy_ms;
    let service = ms(
        m.get("service.requests"),
        m.get("service.ledger_issue_ns")
            + m.get("service.ledger_drain_complete_ns")
            + m.get("service.histogram_record_ns"),
    ) + ms(
        m.get("service.client_steps"),
        m.get("service.ledger_sweep_ns") + m.get("service.ledger_route_ns"),
    );
    m.set("service.busy_ms", service);
    let consensus = ms(m.get("consensus.log_slots"), m.get("consensus.decide_ns"));
    m.set("consensus.busy_ms", consensus);
    let writes = m.get("shared_writes");
    m.set(
        "registers.busy_ms",
        ms(writes, m.get("registers.nat_write_deferred_ns")),
    );
    let core = ms(m.get("core.steps"), m.get("core.leader_quiescent_ns"))
        + ms(
            m.get("core.timer_fires"),
            m.get("core.t3_scan_quiescent_ns"),
        );
    m.set("core.busy_ms", core);
    let sim = ms(m.get("sim.events"), m.get("sim.event_queue_ns"));
    m.set("sim.busy_ms", sim);
    let wall = m.get("harness.reference_wall_ms");
    if wall > 0.0 {
        let explained = service + consensus + core + sim + m.get("scenario.outside_loop_ms");
        m.set("harness.unattributed_share", 1.0 - explained / wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: u64, failed_share: f64, commit_p99: u64) -> Rung {
        Rung {
            rate,
            failed_share,
            commit_p99,
        }
    }

    #[test]
    fn slo_rate_is_the_last_rung_before_the_first_miss() {
        // The measured baseline ladder.
        let baseline = [
            rung(5, 0.0, 103),
            rung(10, 0.0, 175),
            rung(15, 0.0, 239),
            rung(20, 0.0, 2_559),
            rung(25, 0.088, 5_375),
            rung(30, 0.83, 5_631),
        ];
        assert_eq!(slo_rate(&baseline), 15);
    }

    #[test]
    fn slo_rate_applies_both_limits_and_stops_at_the_first_miss() {
        assert_eq!(slo_rate(&[rung(5, 0.0, 601)]), 0, "latency limit");
        assert_eq!(slo_rate(&[rung(5, 0.0011, 10)]), 0, "failure limit");
        assert_eq!(slo_rate(&[rung(5, 0.001, 600)]), 5, "limits are inclusive");
        // A rung past the knee that happens to pass does not count.
        let lucky = [rung(5, 0.0, 50), rung(10, 0.2, 50), rung(15, 0.0, 50)];
        assert_eq!(slo_rate(&lucky), 5);
        assert_eq!(slo_rate(&[]), 0);
    }

    #[test]
    fn offered_rate_is_the_nominal_rung_plus_ramp_in() {
        let ctx = Ctx {
            seed: 11,
            seconds: 12.0,
            trace: false,
            smoke: false,
        };
        // Rungs are nominal: every client also sends one ramp-in request,
        // which adds up to 2 000 / 388 kt ≈ 1.5 per 1 000 ticks.
        for rate in LADDER {
            let sc = scenario(Kind::Writes, &ctx, 0, rate);
            let offered = sc.requests().len() as f64 / window_kt(&ctx);
            assert!(
                (rate as f64..rate as f64 + 2.0).contains(&offered),
                "rate {rate}: offered {offered:.2}/kt"
            );
        }
        let sc = scenario(Kind::Failover, &ctx, 0, FAILOVER_RATE);
        assert_eq!(sc.election.crashes.len(), 2);
        assert_eq!(sc.workload.put_pct, 5);
    }

    #[test]
    fn smoke_failover_balances_its_ledger_and_the_expansion_matches_the_driver() {
        let ctx = Ctx {
            seed: 11,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        let mut rec = Recorder::default();
        let m = run(Kind::Failover, &ctx, &mut rec);
        assert_eq!(m.failed, 0, "{:?}", m.problems);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert!(m.get("core.steps") > 0.0);
        assert!(rec.spans().iter().any(|s| s.name == "Simulation::run"));
    }
}
