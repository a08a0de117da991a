//! The deterministic-simulator backend.

use std::borrow::Cow;

use omega_registers::MemorySpace;
use omega_sim::{Actor, RunReport, Trace};

use crate::{ChaosOutcome, Driver, NonElectionWitness, Outcome, Scenario, TailActivity};

/// Realizes a [`Scenario`] on the deterministic discrete-event simulator
/// (`omega_sim`): ticks are virtual time, the adversary/timer specs are
/// enforced literally, and the whole run is reproducible from the scenario
/// seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimDriver;

impl SimDriver {
    /// Runs a scenario over externally built actors sharing `space`.
    ///
    /// The escape hatch for experiments that need custom actors (corrupted
    /// memories, co-located consensus proposers) while keeping the
    /// environment — schedule, timers, crashes, horizon — declarative.
    ///
    /// # Panics
    ///
    /// Panics if `actors.len() != scenario.n`.
    #[must_use]
    pub fn run_actors(
        &self,
        scenario: &Scenario,
        actors: Vec<Box<dyn Actor>>,
        space: &MemorySpace,
    ) -> Outcome {
        let report = scenario.sim_builder(actors).memory(space.clone()).run();
        outcome_of(scenario, &report, space)
    }

    /// Runs a scenario while recording its complete event sequence.
    ///
    /// The returned [`Trace`] carries the scenario's spec text as `meta`,
    /// so writing `trace.encode()` to a file yields a self-contained
    /// reproducer: [`run_replay`](Self::run_replay) on the decoded trace
    /// (against a scenario parsed back from `meta`) reproduces the run
    /// byte-identically — compare via [`Outcome::fingerprint`].
    #[must_use]
    pub fn run_traced(&self, scenario: &Scenario) -> (Outcome, Trace) {
        let sys = scenario.variant.build(scenario.n);
        let space = sys.space.clone();
        let report = scenario
            .sim_builder(sys.actors)
            .memory(space.clone())
            .record_trace()
            .run();
        let mut trace = report.recording.clone().expect("record_trace was enabled");
        trace.meta = crate::spec_text::to_spec_text(scenario);
        (outcome_of(scenario, &report, &space), trace)
    }

    /// Replays a recorded trace under the scenario that produced it: the
    /// event sequence comes from the trace, everything else (actors,
    /// memory, sampling) is rebuilt from the spec.
    ///
    /// # Panics
    ///
    /// Panics if the trace's process count or horizon do not match the
    /// scenario's.
    #[must_use]
    pub fn run_replay(&self, scenario: &Scenario, trace: &Trace) -> Outcome {
        let sys = scenario.variant.build(scenario.n);
        let space = sys.space.clone();
        let report = scenario
            .sim_builder(sys.actors)
            .memory(space.clone())
            .run_replay(trace);
        outcome_of(scenario, &report, &space)
    }
}

impl Driver for SimDriver {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        let sys = scenario.variant.build(scenario.n);
        let space = sys.space.clone();
        self.run_actors(scenario, sys.actors, &space)
    }
}

fn outcome_of(scenario: &Scenario, report: &RunReport, space: &MemorySpace) -> Outcome {
    let stabilization = report.stabilization();
    // `Simulation::finish` checkpointed both at the horizon, unless the
    // spec asked for no checkpoint: then the space is asked once, here.
    let (stats, footprint) = match report.windowed.last() {
        Some((_, stats, footprint)) => (Cow::Borrowed(stats), Cow::Borrowed(footprint)),
        None => (Cow::Owned(space.stats()), Cow::Owned(space.footprint())),
    };
    let totals = stats.per_process_totals();
    let n = scenario.n;
    let chaos = scenario
        .campaign
        .as_ref()
        .map(|_| ChaosOutcome::new(report.chaos, stabilization.map(|s| s.stable_from.ticks())));
    let tail = report.windowed.tail(0.25).map(|w| TailActivity {
        writers: w.stats.writer_set(),
        readers: w.stats.reader_set(),
        written_registers: w.stats.written_registers().len(),
        writes_per_1k: w.stats.total_writes() as f64 * 1000.0 / (w.end - w.start).max(1) as f64,
        span_ticks: w.end - w.start,
    });
    // The non-election witness: only meaningful (and only gated) when the
    // spec runs a campaign it expects NOT to stabilize under — the hostile
    // window is the campaign's disruption span.
    let witness = if scenario.expect_stabilization {
        None
    } else {
        scenario
            .campaign
            .as_ref()
            .and_then(|c| c.disruption_window(scenario.horizon))
            .map(|(from, until)| {
                NonElectionWitness::from_timeline(from, until, report.timeline.samples())
            })
    };
    let grown_in_tail = match report.windowed.len() {
        0 | 1 => Vec::new(),
        len => {
            let mid = report.windowed.footprint_at(len * 3 / 4).expect("taken");
            (footprint.grown_since(&mid).into_iter())
                .map(String::from)
                .collect()
        }
    };
    Outcome {
        backend: "sim",
        scenario: scenario.name.clone(),
        variant: scenario.variant,
        n,
        elected: stabilization.map(|s| s.leader),
        stabilized: stabilization.is_some(),
        stabilization_ticks: stabilization.map(|s| s.stable_from.ticks()),
        horizon_ticks: scenario.horizon,
        crashed: report.crashed.clone(),
        correct: report.correct.clone(),
        steps: report.steps_taken.clone(),
        estimate_changes: omega_registers::ProcessId::all(n)
            .map(|p| report.timeline.changes_of(p))
            .collect(),
        reads: totals.reads,
        writes: totals.writes,
        reads_skipped: stats.scan().reads_skipped,
        shard_passes: stats.scan().shard_passes,
        elapsed_ms: report.wall.elapsed_ms(),
        events_per_sec: report.events_per_sec(),
        register_count: space.register_count(),
        hwm_bits: footprint.total_hwm_bits(),
        grown_in_tail,
        tail,
        san: None,
        chaos,
        witness,
        workers: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::OmegaVariant;
    use omega_registers::ProcessId;

    #[test]
    fn fault_free_scenario_elects_and_measures() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4).horizon(30_000);
        let outcome = SimDriver.run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.backend, "sim");
        assert_eq!(outcome.n, 4);
        assert_eq!(outcome.register_count, 4 + 4 + 16);
        assert!(outcome.steps.iter().all(|&s| s > 0));
        assert!(outcome.total_writes() > 0);
        assert!(outcome.total_reads() > 0);
        // Theorem 3 shape: single tail writer into a single register.
        let tail = outcome.tail.as_ref().expect("stats checkpointed");
        assert_eq!(tail.writers.len(), 1);
        assert_eq!(tail.written_registers, 1);
        assert!(outcome.summary().contains("stable from"));
    }

    #[test]
    fn zero_checkpoints_count_the_same_and_have_no_tail() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
            .crash_leader_at(15_000)
            .horizon(40_000)
            .stats_checkpoints(0);
        let text = crate::spec_text::to_spec_text(&scenario);
        assert!(text.contains("checkpoints 0"), "{text}");
        let parsed = crate::spec_text::from_spec_text(&text).unwrap();
        assert_eq!(parsed.stats_checkpoints, 0);
        assert_eq!(crate::spec_text::to_spec_text(&parsed), text);

        let bare = SimDriver.run(&parsed);
        let windowed = SimDriver.run(&scenario.clone().stats_checkpoints(16));
        assert_eq!(bare.reads, windowed.reads);
        assert_eq!(bare.writes, windowed.writes);
        assert_eq!(bare.hwm_bits, windowed.hwm_bits);
        assert_eq!(bare.register_count, windowed.register_count);
        assert!(windowed.tail.is_some());
        assert!(bare.tail.is_none(), "no checkpoint, no tail window");
        assert!(bare.grown_in_tail.is_empty());
    }

    /// The two windows of a record disagree (ROADMAP 28 (a)): the tail
    /// starts at checkpoint ⌊0.75·(len − 1)⌋ and `grown_in_tail` at
    /// `len * 3 / 4`. At k = 4 that is checkpoint 3 against checkpoint 4,
    /// the in-loop horizon checkpoint, which `finish()` takes again at the
    /// same tick: `grown_in_tail` compares the horizon with itself, and
    /// misses the leader's `PROGRESS` entry that grew in the tail. This
    /// test states today's windows, so that the fix flips it on purpose.
    #[test]
    fn the_grown_window_starts_one_checkpoint_after_the_tail() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
            .horizon(16_000)
            .stats_checkpoints(4);
        let sys = scenario.variant.build(scenario.n);
        let space = sys.space.clone();
        let report = scenario.sim_builder(sys.actors).memory(space.clone()).run();
        let outcome = outcome_of(&scenario, &report, &space);
        let series = &report.windowed;
        let times: Vec<u64> = (0..series.len())
            .map(|index| series.time_at(index).unwrap().ticks())
            .collect();
        assert_eq!(times, [0, 4_000, 8_000, 12_000, 16_000, 16_000]);
        let tail = outcome.tail.as_ref().expect("checkpointed");
        assert_eq!(tail.span_ticks, 4_000, "the tail is [12 000, 16 000]");
        let (.., last) = series.last().unwrap();
        let grown_since = |from| -> Vec<String> {
            let earlier = series.footprint_at(from).unwrap();
            (last.grown_since(&earlier).into_iter())
                .map(String::from)
                .collect()
        };
        assert_eq!(grown_since(3), ["PROGRESS[0]"], "grown in the tail");
        assert!(
            outcome.grown_in_tail.is_empty() && grown_since(4).is_empty(),
            "grown_in_tail is [16 000, 16 000]"
        );
    }

    #[test]
    fn leader_crash_is_applied_and_reported() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
            .crash_leader_at(15_000)
            .horizon(60_000);
        let outcome = SimDriver.run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.crashed.len(), 1);
        assert!(outcome.stabilization_ticks.unwrap() > 15_000);
        assert!(!outcome.crashed.contains(outcome.elected.unwrap()));
    }

    #[test]
    fn same_scenario_same_outcome() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg2, 3).horizon(20_000);
        let a = SimDriver.run(&scenario);
        let b = SimDriver.run(&scenario);
        assert_eq!(a.elected, b.elected);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.stabilization_ticks, b.stabilization_ticks);
    }

    #[test]
    fn awb_violating_scenario_does_not_stabilize() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
            .without_awb()
            .adversary(crate::AdversarySpec::LeaderStaller {
                base: 2,
                stall: 4_000,
            })
            .timers(crate::TimerSpec::StuckLow { cap: 8 })
            .horizon(80_000);
        let outcome = SimDriver.run(&scenario);
        assert!(
            !outcome.stabilized_for(0.34),
            "staller must keep demoting leaders"
        );
        assert!(!scenario.expect_stabilization);
    }

    #[test]
    fn traced_run_replays_to_identical_fingerprint() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
            .crash_leader_at(15_000)
            .horizon(40_000);
        let (live, trace) = SimDriver.run_traced(&scenario);
        assert!(!trace.is_empty());
        assert!(trace.meta.contains("variant alg1-fig2"));
        // The trace is self-contained: parse the scenario back out of it.
        let parsed = crate::spec_text::from_spec_text(&trace.meta).unwrap();
        let replayed = SimDriver.run_replay(&parsed, &trace);
        assert_eq!(replayed.fingerprint(), live.fingerprint());
        // A traced run is also identical to an untraced one.
        let plain = SimDriver.run(&scenario);
        assert_eq!(plain.fingerprint(), live.fingerprint());
    }

    #[test]
    fn partition_heal_scenario_recovers_after_heal() {
        use omega_sim::chaos::{Campaign, ChaosPhase};
        let p = ProcessId::new;
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 5)
            .awb(p(4), 1_000, 4)
            .campaign(Campaign::new().phase(ChaosPhase::Partition {
                groups: vec![vec![p(0), p(1)], vec![p(2), p(3), p(4)]],
                from: 20_000,
                until: 45_000,
            }))
            .horizon(100_000);
        let outcome = SimDriver.run(&scenario);
        outcome.assert_election();
        let chaos = outcome.chaos.expect("campaign ran");
        assert_eq!(chaos.partitions, 1);
        assert_eq!(chaos.partition_ticks, 25_000);
        // The two sides cannot agree mid-cut, so the stable suffix starts
        // after the heal — and within a bounded re-election window.
        assert!(
            outcome.stabilization_ticks.unwrap() > 45_000,
            "no stable leader across the cut: {:?}",
            outcome.stabilization_ticks
        );
        let window = chaos.heal_to_stable_ticks.expect("healed, then stabilized");
        assert!(
            window > 0 && window < 40_000,
            "re-election took {window} ticks"
        );
        assert!(outcome.fingerprint().contains("|chaos:"));
    }

    /// Whether every wave of `s` flips every process it lists — crashes
    /// only live ones, recovers only crashed ones — so that the planned
    /// (listed) and the simulated (effective) wave counts must agree.
    /// Conservative: beside a wave, a leader-relative crash (whose victim
    /// is not known in advance) disqualifies the spec.
    fn waves_flip_every_listed_pid(s: &Scenario) -> bool {
        use omega_sim::chaos::ChaosAction;
        let campaign = s.campaign.as_ref().expect("campaign-carrying");
        let mut pending: Vec<(u64, ProcessId)> = Vec::new();
        let mut leader_relative = false;
        for c in &s.crashes {
            match *c {
                crate::CrashSpec::At { tick, pid } => pending.push((tick, pid)),
                crate::CrashSpec::LeaderAt { .. } => leader_relative = true,
            }
        }
        let mut crashed = vec![false; s.n];
        for due in campaign.schedule(s.horizon) {
            let ChaosAction::Wave { crash, recover } = due.action else {
                continue;
            };
            if leader_relative {
                return false;
            }
            // Scripted crashes due by now have fired (a tie goes to them).
            pending.retain(|&(tick, pid)| {
                let fired = tick <= due.tick;
                crashed[pid.index()] |= fired;
                !fired
            });
            for &pid in crash {
                if std::mem::replace(&mut crashed[pid.index()], true) {
                    return false;
                }
            }
            for &pid in recover {
                if !std::mem::replace(&mut crashed[pid.index()], false) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn sim_chaos_accounting_equals_the_planned_fold() {
        // The simulator books its live campaign events through the same
        // tally `planned_stats` folds over the schedule, so the two agree
        // wherever waves flip everyone they list: on every campaign in the
        // registry and on 200 fuzzed ones.
        let check = |s: &Scenario, actors: Vec<Box<dyn Actor>>, space: MemorySpace| {
            let report = s.sim_builder(actors).memory(space).run();
            let campaign = s.campaign.as_ref().expect("campaign-carrying");
            assert_eq!(
                report.chaos,
                campaign.planned_stats(s.horizon),
                "{}\n{}",
                s.name,
                crate::spec_text::to_spec_text(s)
            );
        };
        let mut registry_campaigns = 0;
        for s in crate::registry::all() {
            if s.campaign.is_some() {
                assert!(waves_flip_every_listed_pid(&s), "{}", s.name);
                let sys = s.variant.build(s.n);
                check(&s, sys.actors, sys.space);
                registry_campaigns += 1;
            }
        }
        assert_eq!(registry_campaigns, 7, "the chaos/ and hostile/ families");

        // The accounting never looks at what the actors do, so the fuzzed
        // environments (schedule, crash script, campaign, horizon) run over
        // idle actors — two orders of magnitude cheaper than an election.
        struct Idle;
        impl Actor for Idle {
            fn on_step(&mut self, _ctx: omega_sim::StepCtx) {}
            fn on_timer(&mut self, _ctx: omega_sim::StepCtx) -> u64 {
                1_000
            }
            fn current_leader(&self) -> Option<ProcessId> {
                Some(ProcessId::new(0))
            }
        }
        let mut rng = omega_sim::rng::SmallRng::seed_from_u64(20);
        let mut fuzzed = 0;
        while fuzzed < 200 {
            let s = if fuzzed % 4 == 3 {
                crate::fuzz::generate_hostile(&mut rng)
            } else {
                crate::fuzz::generate(&mut rng)
            };
            if s.campaign.is_some() && waves_flip_every_listed_pid(&s) {
                let actors = (0..s.n).map(|_| Box::new(Idle) as Box<dyn Actor>).collect();
                check(&s, actors, MemorySpace::new(s.n));
                fuzzed += 1;
            }
        }
    }

    #[test]
    fn run_actors_hatch_preserves_environment() {
        use omega_core::{boxed_actors, Alg1Memory, Alg1Process};
        use std::sync::Arc;
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3).horizon(30_000);
        let space = MemorySpace::new(3);
        let mem = Alg1Memory::new(&space);
        mem.corrupt(0xdead);
        let procs: Vec<Alg1Process> = ProcessId::all(3)
            .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
            .collect();
        let outcome = SimDriver.run_actors(&scenario, boxed_actors(procs), &space);
        outcome.assert_election();
    }
}
