//! Simulated-election integration tests for the Ω algorithms.
//!
//! Each test runs one or more full simulations and checks the paper's
//! *properties* — eventual leadership (Theorem 1), boundedness (Theorems 2
//! and 6), and the post-stabilization write pattern (Theorems 3 and 7).

use std::sync::Arc;

use omega_core::{boxed_actors, Alg1Memory, Alg1Process, Alg2Memory, Alg2Process, OmegaVariant};
use omega_registers::{MemorySpace, ProcessId};
use omega_sim::crash::CrashPlan;
use omega_sim::prelude::*;
use omega_sim::Simulation;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// AWB envelope matching the defaults used across these tests.
fn awb<A: Adversary>(inner: A, timely: ProcessId) -> AwbEnvelope<A> {
    AwbEnvelope::new(inner, timely, SimTime::from_ticks(1_000), 4)
}

#[test]
fn every_variant_elects_under_random_awb_schedule() {
    for variant in OmegaVariant::all() {
        for n in [2usize, 3, 5, 8] {
            let sys = variant.build(n);
            // The step-clock variant measures its timeouts in *own steps*
            // (§3.5); when step durations can be as short as one tick, a
            // burst of fast steps shrinks the scan window below the
            // leader's write gap, producing spurious suspicions at
            // rare-event timescales (stabilization still happens, but only
            // after ~1e5+ ticks). Bounding the step-rate variance (min
            // delay 2, as `Scenario::fault_free` does for this variant and
            // the `table_comparison` bin runs it) restores fast
            // convergence.
            let min_delay = match variant {
                OmegaVariant::StepClock => 2,
                _ => 1,
            };
            let report = Simulation::builder(sys.actors)
                .adversary(awb(SeededRandom::new(11, min_delay, 8), p(0)))
                .horizon(40_000)
                .sample_every(100)
                .run();
            let stab = report
                .stabilization()
                .unwrap_or_else(|| panic!("{variant} with n={n} failed to stabilize"));
            assert!(
                report.correct.contains(stab.leader),
                "{variant} n={n}: elected a crashed process"
            );
            assert!(
                report.stabilized_for(0.25),
                "{variant} n={n}: stabilized too late ({:?})",
                stab
            );
        }
    }
}

#[test]
fn election_survives_chaotic_timers() {
    // AWB₂ only requires asymptotic domination: timers are completely
    // arbitrary for the first quarter of the run.
    let sys = OmegaVariant::Alg1.build(4);
    let report = Simulation::builder(sys.actors)
        .adversary(awb(SeededRandom::new(5, 1, 6), p(2)))
        .timers_from(|pid| {
            Box::new(ChaoticThen::new(
                SimTime::from_ticks(10_000),
                50,
                pid.index() as u64 + 1,
                JitteredTimer::new(pid.index() as u64, 3),
            ))
        })
        .horizon(60_000)
        .sample_every(100)
        .run();
    let stab = report
        .stabilization()
        .expect("chaotic prefix must not prevent election");
    assert!(report.correct.contains(stab.leader));
}

#[test]
fn election_survives_bursty_schedules() {
    let sys = OmegaVariant::Alg1.build(5);
    let report = Simulation::builder(sys.actors)
        .adversary(awb(Bursty::new(5, 9, 2, 300, 10), p(0)))
        .horizon(80_000)
        .sample_every(200)
        .run();
    assert!(
        report.stabilization().is_some(),
        "bursty followers may stall arbitrarily"
    );
}

#[test]
fn leader_crash_triggers_reelection() {
    let sys = OmegaVariant::Alg1.build(4);
    let report = Simulation::builder(sys.actors)
        .adversary(AwbEnvelope::new(
            Synchronous::new(3),
            p(1), // after the crash of p0... timely process must survive; pick p1
            SimTime::from_ticks(0),
            4,
        ))
        .crash_plan(CrashPlan::none().with_crash_at(SimTime::from_ticks(15_000), p(0)))
        .horizon(60_000)
        .sample_every(100)
        .run();
    let stab = report
        .stabilization()
        .expect("re-election after leader crash");
    assert_ne!(stab.leader, p(0), "crashed process cannot stay leader");
    assert!(report.correct.contains(stab.leader));
    assert!(
        stab.stable_from > SimTime::from_ticks(15_000),
        "stabilization must postdate the crash"
    );
}

#[test]
fn cascading_crashes_leave_last_process_leading() {
    // Crash p0, then p1, then p2 — p3 must end up the leader.
    let sys = OmegaVariant::Alg1.build(4);
    let report = Simulation::builder(sys.actors)
        .adversary(AwbEnvelope::new(
            Synchronous::new(3),
            p(3),
            SimTime::ZERO,
            4,
        ))
        .crash_plan(
            CrashPlan::none()
                .with_crash_at(SimTime::from_ticks(10_000), p(0))
                .with_crash_at(SimTime::from_ticks(25_000), p(1))
                .with_crash_at(SimTime::from_ticks(40_000), p(2)),
        )
        .horizon(90_000)
        .sample_every(100)
        .run();
    let stab = report.stabilization().expect("failover chain");
    assert_eq!(stab.leader, p(3));
}

#[test]
fn alg1_self_stabilizes_from_corrupted_registers() {
    let space = MemorySpace::new(4);
    let memory = Alg1Memory::new(&space);
    memory.corrupt(0xdead_beef);
    let processes: Vec<Alg1Process> = ProcessId::all(4)
        .map(|pid| Alg1Process::new(Arc::clone(&memory), pid))
        .collect();
    let report = Simulation::builder(boxed_actors(processes))
        .adversary(awb(SeededRandom::new(3, 1, 6), p(0)))
        .horizon(60_000)
        .sample_every(100)
        .run();
    let stab = report
        .stabilization()
        .expect("footnote 7: arbitrary initial values");
    assert!(report.correct.contains(stab.leader));
}

#[test]
fn alg2_self_stabilizes_from_corrupted_registers() {
    let space = MemorySpace::new(3);
    let memory = Alg2Memory::new(&space);
    memory.corrupt(0xfeed_f00d);
    let processes: Vec<Alg2Process> = ProcessId::all(3)
        .map(|pid| Alg2Process::new(Arc::clone(&memory), pid))
        .collect();
    let report = Simulation::builder(boxed_actors(processes))
        .adversary(awb(SeededRandom::new(4, 1, 6), p(1)))
        .horizon(60_000)
        .sample_every(100)
        .run();
    assert!(report.stabilization().is_some());
}

#[test]
fn alg1_eventually_single_writer_single_register() {
    // Theorem 3: after stabilization, only the leader writes, and it always
    // writes the same register (its PROGRESS entry).
    let sys = OmegaVariant::Alg1.build(5);
    let space = sys.space.clone();
    let report = Simulation::builder(sys.actors)
        .adversary(awb(SeededRandom::new(21, 1, 6), p(0)))
        .memory(space)
        .horizon(60_000)
        .stats_checkpoints(24)
        .sample_every(100)
        .run();
    let leader = report.elected_leader().expect("stabilizes");
    let tail = report.windowed.tail(0.25).expect("stats recorded");
    let writers: Vec<ProcessId> = tail.writer_set().iter().collect();
    assert_eq!(
        writers,
        vec![leader],
        "only the leader writes after stabilization"
    );
    let written = tail.stats.written_registers();
    assert_eq!(
        written,
        vec![format!("PROGRESS[{}]", leader.index())],
        "and only its PROGRESS register"
    );
}

#[test]
fn alg1_everyone_keeps_reading() {
    // Lemma 6: every correct process must read forever — in the final
    // quarter of the run every process still performs reads.
    let sys = OmegaVariant::Alg1.build(4);
    let space = sys.space.clone();
    let report = Simulation::builder(sys.actors)
        .adversary(awb(SeededRandom::new(2, 1, 6), p(0)))
        .memory(space)
        .horizon(40_000)
        .stats_checkpoints(16)
        .sample_every(100)
        .run();
    let tail = report.windowed.tail(0.25).unwrap();
    for pid in ProcessId::all(4) {
        assert!(
            tail.stats.reads_of(pid) > 0,
            "{pid} stopped reading — would violate Lemma 6's necessity"
        );
    }
}

#[test]
fn alg1_bounds_everything_but_leader_progress() {
    // Theorem 2: every register except PROGRESS[leader] stops growing.
    let sys = OmegaVariant::Alg1.build(4);
    let space = sys.space.clone();
    let report = Simulation::builder(sys.actors)
        .adversary(awb(SeededRandom::new(13, 1, 6), p(0)))
        .memory(space)
        .horizon(60_000)
        .stats_checkpoints(12)
        .sample_every(100)
        .run();
    let leader = report.elected_leader().expect("stabilizes");
    // Compare the footprint of the 3/4 point against the end of the run.
    let checkpoints = &report.windowed;
    assert!(checkpoints.len() >= 4);
    let mid = checkpoints.footprint_at(checkpoints.len() * 3 / 4).unwrap();
    let (.., last) = checkpoints.last().unwrap();
    let grown = last.grown_since(&mid);
    let allowed = format!("PROGRESS[{}]", leader.index());
    for name in grown {
        assert_eq!(name, allowed, "only the leader's PROGRESS entry may grow");
    }
}

#[test]
fn alg2_all_registers_bounded_and_everyone_writes() {
    // Theorems 6 + 7 + Corollary 1.
    let sys = OmegaVariant::Alg2.build(4);
    let space = sys.space.clone();
    let report = Simulation::builder(sys.actors)
        .adversary(awb(SeededRandom::new(31, 1, 6), p(0)))
        .memory(space)
        .horizon(60_000)
        .stats_checkpoints(12)
        .sample_every(100)
        .run();
    let leader = report.elected_leader().expect("stabilizes");

    // Boundedness: nothing grows in the last quarter.
    let checkpoints = &report.windowed;
    let mid = checkpoints.footprint_at(checkpoints.len() * 3 / 4).unwrap();
    let (.., last) = checkpoints.last().unwrap();
    assert!(
        last.grown_since(&mid).is_empty(),
        "Algorithm 2 must keep every register bounded, grew: {:?}",
        last.grown_since(&mid)
    );

    // Everyone writes forever (Corollary 1): every correct process wrote in
    // the final quarter.
    let tail = report.windowed.tail(0.25).unwrap();
    for pid in ProcessId::all(4) {
        assert!(
            tail.stats.writes_of(pid) > 0,
            "{pid} stopped writing — impossible for a bounded-memory Ω"
        );
    }

    // Theorem 7: the written registers are exactly the leader's signal row
    // and its acknowledgement column (plus nothing else).
    for name in tail.stats.written_registers() {
        let signal = name.starts_with(&format!("HPROGRESS[{}][", leader.index()));
        let ack = name.starts_with(&format!("LAST[{}][", leader.index()));
        assert!(
            signal || ack,
            "unexpected post-stabilization write target: {name}"
        );
    }
}

#[test]
fn no_awb_allows_perpetual_instability() {
    // Necessity, experiment E13: with no AWB₁ clamp, a leader-stalling
    // adversary keeps starving whoever gets elected; the run must not reach
    // a stable suffix covering the final third of the horizon.
    let sys = OmegaVariant::Alg1.build(3);
    let report = Simulation::builder(sys.actors)
        .adversary(LeaderStaller::new(2, 4_000))
        .timers_from(|_| Box::new(StuckLowTimer::new(8)))
        .horizon(120_000)
        .sample_every(100)
        .run();
    assert!(
        !report.stabilized_for(0.34),
        "leader-staller without AWB should keep demoting leaders; got {:?}",
        report.stabilization()
    );
}

#[test]
fn deterministic_replay_across_runs() {
    let run = || {
        let sys = OmegaVariant::Alg1.build(4);
        let space = sys.space.clone();
        Simulation::builder(sys.actors)
            .adversary(awb(SeededRandom::new(77, 1, 9), p(0)))
            .memory(space)
            .horizon(20_000)
            .sample_every(100)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.steps_taken, b.steps_taken);
    assert_eq!(a.elected_leader(), b.elected_leader());
    assert_eq!(
        a.windowed.last().unwrap().1.total_writes(),
        b.windowed.last().unwrap().1.total_writes()
    );
}
