//! The three election workloads: `SimDriver` on Alg1 at the two ends of
//! the events/s slide (`elect-small`, `elect-wide`) and on the dirty path
//! of the same scan code (`elect-churn`).

use omega_core::{OmegaVariant, T3_SHARD_SIZE};
use omega_registers::ProcessId;
use omega_scenario::{spec_text, Driver, Outcome, Scenario, SimDriver};
use omega_sim::chaos::{flap_spans, Campaign, ChaosPhase};

use crate::harness::{
    busy_ms, end_section, record_outside_loop, record_rep_clocks, record_skip_ratio, Ctx, Measured,
    RepClock, Setup,
};
use crate::spans::Recorder;
use crate::stats;
use crate::unit_costs;

/// Which election workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// n = 5, horizon 2 000 000, leader crashes at 400 000 and 1 000 000.
    Small,
    /// n = 128, horizon 12 000, 4 stats checkpoints.
    Wide,
    /// n = 48, horizon 60 000, flapping {0..23}|{24..47} partition.
    Churn,
}

impl Kind {
    /// `(reps in a 15 s section, floor)` — ISSUE 11's rep counts.
    fn reps(self) -> (usize, usize) {
        match self {
            Kind::Small => (40, 10),
            Kind::Wide => (14, 10),
            Kind::Churn => (16, 10),
        }
    }

    /// The tick of the last scripted disturbance: `latency_ticks` is the
    /// stable suffix's start minus this.
    fn last_disturbance(self, ctx: &Ctx) -> u64 {
        match self {
            Kind::Small => ctx.ticks(1_000_000),
            Kind::Wide => 0,
            // The heal that ends the flap's last cut.
            Kind::Churn => {
                let (period, from, until) = churn_flap(ctx);
                flap_spans(period, from, until)
                    .last()
                    .map_or(until, |&(_, heal)| heal)
            }
        }
    }
}

/// `(period, from, until)` of the churn workload's flap.
fn churn_flap(ctx: &Ctx) -> (u64, u64, u64) {
    (ctx.ticks(500), ctx.ticks(1_000), ctx.ticks(48_000))
}

/// The workload's input for rep `rep`.
#[must_use]
pub fn scenario(kind: Kind, ctx: &Ctx, rep: usize) -> Scenario {
    let seed = ctx.sub_seed(rep);
    match kind {
        Kind::Small => Scenario::fault_free(OmegaVariant::Alg1, 5)
            .named("elect-small")
            .horizon(ctx.ticks(2_000_000))
            .crash_leader_at(ctx.ticks(400_000))
            .crash_leader_at(ctx.ticks(1_000_000))
            .seed(seed),
        Kind::Wide => Scenario::fault_free(OmegaVariant::Alg1, 128)
            .named("elect-wide")
            .horizon(ctx.ticks(12_000))
            .stats_checkpoints(4)
            .seed(seed),
        Kind::Churn => {
            let side = |ids: std::ops::Range<usize>| ids.map(ProcessId::new).collect::<Vec<_>>();
            let (period, from, until) = churn_flap(ctx);
            Scenario::fault_free(OmegaVariant::Alg1, 48)
                .named("elect-churn")
                .horizon(ctx.ticks(60_000))
                .campaign(Campaign::new().phase(ChaosPhase::Flap {
                    groups: vec![side(0..24), side(24..48)],
                    period,
                    from,
                    until,
                }))
                .seed(seed)
        }
    }
}

/// What one rep's `Outcome` said, reduced to numbers.
#[derive(Debug)]
struct Seen {
    loop_ms: f64,
    events: f64,
    writes: f64,
    reads: f64,
    skipped: f64,
    shard_passes: f64,
    steps: f64,
    hwm_bits: f64,
    /// `(stable suffix start, ticks since the last disturbance)`, when the
    /// election check passed.
    stable: Option<(f64, f64)>,
    /// The election check's complaint, when it failed.
    problem: Option<String>,
}

impl Seen {
    fn of(kind: Kind, ctx: &Ctx, rep: usize, o: &Outcome) -> Seen {
        let disturbed = kind.last_disturbance(ctx);
        // `assert_election`, as a count instead of a panic.
        let (stable, problem) = match o.stabilization_ticks {
            Some(from) if o.stabilized && o.leader_is_correct() && from >= disturbed => {
                (Some((from as f64, (from - disturbed) as f64)), None)
            }
            from => (
                None,
                Some(format!(
                    "rep {rep}: no stable correct leader after tick {disturbed} \
                     (stabilized={}, elected={:?}, stable from {from:?})",
                    o.stabilized, o.elected
                )),
            ),
        };
        Seen {
            loop_ms: o.elapsed_ms,
            events: (o.events_per_sec * o.elapsed_ms / 1e3).round(),
            writes: o.total_writes() as f64,
            reads: o.total_reads() as f64,
            skipped: o.reads_skipped as f64,
            shard_passes: o.shard_passes as f64,
            steps: o.steps.iter().sum::<u64>() as f64,
            hwm_bits: o.hwm_bits as f64,
            stable,
            problem,
        }
    }
}

/// Per-rep samples of a run.
#[derive(Debug, Default)]
struct Reps {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    seen: Vec<Seen>,
}

impl Reps {
    /// Books one rep and counts its election check.
    fn push(&mut self, m: &mut Measured, (wall_ms, cpu_ms): (f64, f64), mut seen: Seen) {
        self.wall_ms.push(wall_ms);
        self.cpu_ms.push(cpu_ms);
        m.check(seen.problem.take());
        self.seen.push(seen);
    }

    fn record(&self, m: &mut Measured) {
        let column = |pick: fn(&Seen) -> f64| self.seen.iter().map(pick).collect::<Vec<f64>>();
        let stable = |pick: fn((f64, f64)) -> f64| -> Vec<f64> {
            self.seen
                .iter()
                .filter_map(|s| s.stable.map(pick))
                .collect()
        };
        record_rep_clocks(m, stats::best, &self.wall_ms, &self.cpu_ms);
        m.set_exact("shared_writes", &column(|s| s.writes));
        m.set_exact("latency_ticks", &stable(|(_, latency)| latency));
        m.set_exact("scenario.stabilization_ticks", &stable(|(from, _)| from));
        m.set_best("sim.loop_ms", &column(|s| s.loop_ms));
        m.set_exact("sim.events", &column(|s| s.events));
        let loop_ms = m.get("sim.loop_ms");
        if loop_ms > 0.0 {
            m.set("sim.events_per_s", m.get("sim.events") / (loop_ms / 1e3));
        }
        m.set_exact("registers.shared_reads", &column(|s| s.reads));
        m.set_exact("registers.reads_skipped", &column(|s| s.skipped));
        record_skip_ratio(m);
        m.set_exact("registers.shard_passes", &column(|s| s.shard_passes));
        m.set_exact("registers.hwm_bits", &column(|s| s.hwm_bits));
        m.set_exact("core.steps", &column(|s| s.steps));
        record_outside_loop(m, &self.wall_ms, &column(|s| s.loop_ms));
    }
}

/// One untraced rep: the whole driver call plus the drop of its outcome,
/// on the wall and CPU clocks, timed from outside. `inspect` runs between
/// the two and is not timed.
fn plain_rep<T>(sc: &Scenario, inspect: impl FnOnce(&Outcome) -> T) -> ((f64, f64), T) {
    let clock = RepClock::start();
    let outcome = SimDriver.run(sc);
    let run = clock.stop();
    let seen = inspect(&outcome);
    let clock = RepClock::start();
    drop(outcome);
    let dropped = clock.stop();
    ((run.0 + dropped.0, run.1 + dropped.1), seen)
}

/// `run` ≡ `run_traced` ≡ `run_replay` (from the trace's own spec text):
/// the determinism check every run ends with.
fn verify_replay(m: &mut Measured, sc: &Scenario, expected: &str) {
    let (live, trace) = SimDriver.run_traced(sc);
    if live.fingerprint() != expected {
        m.problem("run_traced fingerprint differs from the plain run's".into());
    }
    match spec_text::from_spec_text(&trace.meta) {
        Ok(parsed) => {
            if SimDriver.run_replay(&parsed, &trace).fingerprint() != expected {
                m.problem("run_replay fingerprint differs from the plain run's".into());
            }
        }
        Err(err) => m.problem(format!("trace meta does not parse back: {err:?}")),
    }
}

/// Runs the workload.
pub fn run(kind: Kind, ctx: &Ctx, recorder: &mut Recorder) -> Measured {
    let mut m = Measured::default();
    let mut setup = Setup::start(|| {
        let sc = scenario(kind, ctx, 0);
        drop(std::hint::black_box(sc.variant.build(sc.n)));
    });
    let mut reps = Reps::default();
    let first_fingerprint = if ctx.trace {
        traced(kind, ctx, recorder, &mut m, &mut reps, &mut || {
            setup.sample()
        })
    } else {
        let (nominal, floor) = kind.reps();
        let count = ctx.reps(nominal, floor);
        m.counts.push(("reps", count));
        let mut first_fingerprint = String::new();
        let section = RepClock::start();
        for rep in 0..count {
            setup.sample();
            let sc = scenario(kind, ctx, rep);
            let (clocks, (seen, fingerprint)) = plain_rep(&sc, |o| {
                (
                    Seen::of(kind, ctx, rep, o),
                    (rep == 0).then(|| o.fingerprint()),
                )
            });
            reps.push(&mut m, clocks, seen);
            if let Some(fingerprint) = fingerprint {
                first_fingerprint = fingerprint;
            }
        }
        end_section(&mut m, &section);
        first_fingerprint
    };
    setup.finish(&mut m);
    reps.record(&mut m);
    if ctx.trace {
        attribute(&mut m, scenario(kind, ctx, 0).n);
    }
    verify_replay(&mut m, &scenario(kind, ctx, 0), &first_fingerprint);
    m
}

/// The per-layer pass: each input runs once plainly and once through the
/// public expansion of `SimDriver::run` — `OmegaVariant::build` →
/// `SimDriver::run_actors` → drop — with a span around every call.
/// Returns rep 0's fingerprint.
fn traced(
    kind: Kind,
    ctx: &Ctx,
    rec: &mut Recorder,
    m: &mut Measured,
    reps: &mut Reps,
    sample_setup: &mut dyn FnMut(),
) -> String {
    let (nominal, floor) = kind.reps();
    let pairs = ctx.traced_pairs(nominal, floor);
    m.counts.push(("traced_pairs", pairs));
    let mut traced_walls = Vec::new();
    let mut first_fingerprint = String::new();
    let section = RepClock::start();
    for rep in 0..pairs {
        sample_setup();
        let sc = scenario(kind, ctx, rep);
        let (clocks, (seen, plain)) =
            plain_rep(&sc, |o| (Seen::of(kind, ctx, rep, o), o.fingerprint()));
        reps.push(m, clocks, seen);

        let before = rec.spans().len();
        let fingerprint = rec.span("harness", "traced rep", rep, |rec| {
            let sys = rec.span("core", "OmegaVariant::build", rep, |_| {
                sc.variant.build(sc.n)
            });
            let space = sys.space.clone();
            let outcome = rec.span("scenario", "SimDriver::run_actors", rep, |_| {
                SimDriver.run_actors(&sc, sys.actors, &space)
            });
            let fingerprint = rec.span("scenario", "Outcome::fingerprint", rep, |_| {
                outcome.fingerprint()
            });
            rec.span("harness", "drop", rep, |_| drop((outcome, space)));
            fingerprint
        });
        // What the plain rep times: build + run + drop.
        let wall_ns: u64 = rec.spans()[before..]
            .iter()
            .filter(|s| {
                matches!(
                    s.name,
                    "OmegaVariant::build" | "SimDriver::run_actors" | "drop"
                )
            })
            .map(crate::spans::Span::duration_ns)
            .sum();
        traced_walls.push(wall_ns as f64 / 1e6);
        if fingerprint != plain {
            m.problem(format!(
                "rep {rep}: the traced expansion's fingerprint differs"
            ));
        }
        if rep == 0 {
            first_fingerprint = plain;
        }
    }
    end_section(m, &section);

    // One counting rep through the simulator's own report, for the counts
    // an `Outcome` does not carry; then the registry walk of stats() at n.
    let sc = scenario(kind, ctx, 0);
    let sys = sc.variant.build(sc.n);
    let space = sys.space.clone();
    let report = sc.sim_builder(sys.actors).memory(space.clone()).run();
    for _ in 0..3 {
        rec.span("registers", "MemorySpace::stats", 0, |_| {
            std::hint::black_box(space.stats());
        });
    }
    m.set(
        "core.timer_fires",
        report.timer_fires.iter().sum::<u64>() as f64,
    );
    m.set("sim.samples", report.timeline.samples().len() as f64);
    drop((report, space));

    let (plain, traced) = (stats::best(&reps.wall_ms), stats::best(&traced_walls));
    m.set("harness.trace_overhead_share", (traced - plain) / plain);
    m.set_best("core.build_ms", &rec.durations_ms("OmegaVariant::build"));
    m.set_best(
        "registers.stats_flush_ms",
        &rec.durations_ms("MemorySpace::stats"),
    );
    let fingerprint_ms = rec.durations_ms("Outcome::fingerprint");
    m.set(
        "scenario.fingerprint_us",
        stats::median(&fingerprint_ms) * 1e3,
    );
    for (name, cost) in unit_costs::measure(sc.n, ctx.seed, &sc) {
        m.set(name, cost);
    }
    first_fingerprint
}

/// Layer busy time = count × isolated unit cost (ISSUE 11); what the
/// estimates and the measured outside-loop time leave over is reported as
/// unattributed, not as anybody's self time.
fn attribute(m: &mut Measured, n: usize) {
    let ms = busy_ms;
    let (reads, writes) = (m.get("registers.shared_reads"), m.get("shared_writes"));
    m.set(
        "registers.busy_ms",
        ms(reads, m.get("registers.nat_read_deferred_ns"))
            + ms(writes, m.get("registers.nat_write_deferred_ns")),
    );
    // A T3 rotation reads STOP and PROGRESS of the n − 1 others; shared
    // reads beyond that are dirty rows re-read by leader(), n per row.
    let passes = m.get("registers.shard_passes");
    let passes_per_rotation = n.div_ceil(T3_SHARD_SIZE.min(n)) as f64;
    let scan_reads = 2.0 * (n as f64 - 1.0) * passes / passes_per_rotation;
    let dirty_rows = (reads - scan_reads).max(0.0) / n as f64;
    let per_dirty_row = m.get("core.leader_dirty_ns") / (n as f64 - 1.0).max(1.0);
    let core = ms(m.get("core.steps"), m.get("core.leader_quiescent_ns"))
        + ms(writes, m.get("registers.nat_write_deferred_ns"))
        + ms(passes, m.get("core.t3_scan_quiescent_ns"))
        + ms(dirty_rows, per_dirty_row);
    m.set("core.busy_ms", core);
    let sim = ms(m.get("sim.events"), m.get("sim.event_queue_ns"));
    m.set("sim.busy_ms", sim);
    let wall = m.get("run_wall_ms");
    if wall > 0.0 {
        let explained = core + sim + m.get("scenario.outside_loop_ms");
        m.set("harness.unattributed_share", 1.0 - explained / wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Ctx {
        Ctx {
            seed: 11,
            seconds: 1.0,
            trace: false,
            smoke: true,
        }
    }

    #[test]
    fn last_disturbance_is_the_final_flap_heal() {
        let full = Ctx {
            smoke: false,
            ..smoke()
        };
        // Installs at 1 000, 2 000, …, 47 000; the last heals at 47 500.
        assert_eq!(Kind::Churn.last_disturbance(&full), 47_500);
        assert_eq!(Kind::Small.last_disturbance(&full), 1_000_000);
        assert_eq!(Kind::Wide.last_disturbance(&full), 0);
    }

    #[test]
    fn inputs_are_a_function_of_seed_and_rep() {
        let ctx = smoke();
        for kind in [Kind::Small, Kind::Wide, Kind::Churn] {
            let a = spec_text::to_spec_text(&scenario(kind, &ctx, 1));
            assert_eq!(a, spec_text::to_spec_text(&scenario(kind, &ctx, 1)));
            assert_ne!(a, spec_text::to_spec_text(&scenario(kind, &ctx, 2)));
        }
    }

    #[test]
    fn smoke_run_of_the_small_workload_passes_its_checks() {
        let m = run(Kind::Small, &smoke(), &mut Recorder::default());
        assert_eq!((m.attempted, m.failed), (2, 0), "{:?}", m.problems);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        for name in [
            "setup_s",
            "run_wall_ms",
            "peak_rss_mb",
            "shared_writes",
            "latency_ticks",
        ] {
            assert!(m.get(name) > 0.0, "{name}");
        }
    }
}
