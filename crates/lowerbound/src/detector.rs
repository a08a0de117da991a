//! Executable proofs: the run constructions behind the lower bounds.
//!
//! Each function here replays, in the deterministic simulator, the
//! adversarial run construction used by one of the paper's lower-bound
//! proofs, and returns the observable *evidence* that the corresponding
//! broken algorithm violates Eventual Leadership:
//!
//! * [`lemma5_evidence`] — the twin-run argument: a leader that stops
//!   writing is indistinguishable from a crashed one, so in the twin run
//!   the followers elect a corpse forever.
//! * [`lemma6_evidence`] — a follower that stops reading keeps returning a
//!   crashed leader while everyone else moves on.
//! * [`theorem5_evidence`] — with bounded shared memory and only the
//!   leader writing, a state-aliasing schedule starves the election;
//!   Algorithm 2 survives the very same schedule because its handshake
//!   forces followers to write.
//!
//! Each evidence function has a *control* counterpart showing the real
//! algorithms do **not** violate the property under the same construction.

use omega_core::{boxed_actors, Alg1Memory, Alg1Process, OmegaVariant};
use omega_registers::{MemorySpace, ProcessId};
use omega_sim::adversary::Synchronous;
use omega_sim::crash::CrashPlan;
use omega_sim::metrics::Samples;
use omega_sim::{Actor, RunReport, SimTime, Simulation};
use std::sync::Arc;

use crate::deaf::DeafFollower;
use crate::frugal::{FrugalMemory, FrugalOmega};
use crate::naive::{NaiveMemory, NaiveOmega};

/// Outcome of a Lemma-5 twin-run experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinRunEvidence {
    /// Leader elected in the live run `R` (no crash).
    pub elected_in_live_run: Option<ProcessId>,
    /// Whether the followers' sampled estimates in the crash run `R'` are
    /// identical, sample by sample, to the live run — the
    /// indistinguishability at the heart of the proof.
    pub followers_views_identical: bool,
    /// Whether, at the end of `R'`, every follower still reports the
    /// crashed process as its leader.
    pub followers_follow_corpse: bool,
}

impl TwinRunEvidence {
    /// Whether the experiment demonstrated an Eventual Leadership
    /// violation: indistinguishable views *and* a permanently-elected
    /// corpse.
    #[must_use]
    pub fn violation_demonstrated(&self) -> bool {
        self.followers_views_identical && self.followers_follow_corpse
    }
}

fn run_synchronous(
    actors: Vec<Box<dyn Actor>>,
    crash: Option<(SimTime, ProcessId)>,
    horizon: u64,
) -> RunReport {
    let mut builder = Simulation::builder(actors)
        .adversary(Synchronous::new(3))
        .horizon(horizon)
        .sample_every(50);
    if let Some((time, pid)) = crash {
        builder = builder.crash_plan(CrashPlan::none().with_crash_at(time, pid));
    }
    builder.run()
}

/// Whether every follower's estimate matches between two sample sets.
fn followers_match(a: Samples<'_>, b: Samples<'_>, leader: ProcessId) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(sa, sb)| {
            sa.leaders
                .iter()
                .zip(sb.leaders)
                .enumerate()
                .filter(|(i, _)| *i != leader.index())
                .all(|(_, (ea, eb))| ea == eb)
        })
}

/// Whether the final sample shows every process except `leader` trusting
/// `leader`.
fn followers_trust(report: &RunReport, leader: ProcessId) -> bool {
    report.timeline.samples().last().is_some_and(|s| {
        s.leaders
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != leader.index())
            .all(|(_, e)| *e == Some(leader))
    })
}

/// Lemma 5 made executable, against the broken [`NaiveOmega`]: run the
/// crash-free run `R`, identify the elected (and then silent) leader,
/// re-run with that leader crashed right after its last write, and compare
/// what the followers could observe.
#[must_use]
pub fn lemma5_evidence(
    n: usize,
    write_budget: u64,
    crash_at: u64,
    horizon: u64,
) -> TwinRunEvidence {
    let build = || {
        let space = MemorySpace::new(n);
        let mem = NaiveMemory::new(&space);
        boxed_actors(
            ProcessId::all(n)
                .map(|pid| NaiveOmega::new(Arc::clone(&mem), pid, write_budget))
                .collect(),
        )
    };
    let live = run_synchronous(build(), None, horizon);
    let Some(stab) = live.stabilization() else {
        return TwinRunEvidence {
            elected_in_live_run: None,
            followers_views_identical: false,
            followers_follow_corpse: false,
        };
    };
    let leader = stab.leader;
    let crashed = run_synchronous(
        build(),
        Some((SimTime::from_ticks(crash_at), leader)),
        horizon,
    );
    TwinRunEvidence {
        elected_in_live_run: Some(leader),
        followers_views_identical: followers_match(
            live.timeline.samples(),
            crashed.timeline.samples(),
            leader,
        ),
        followers_follow_corpse: followers_trust(&crashed, leader),
    }
}

/// The Lemma-5 control: the same twin-run construction against the real
/// Algorithm 1. Its leader never stops writing, so the runs *are*
/// distinguishable and the followers abandon the corpse.
#[must_use]
pub fn lemma5_control(n: usize, crash_at: u64, horizon: u64) -> TwinRunEvidence {
    let build = || OmegaVariant::Alg1.build(n).actors;
    let live = run_synchronous(build(), None, horizon);
    let Some(stab) = live.stabilization() else {
        return TwinRunEvidence {
            elected_in_live_run: None,
            followers_views_identical: false,
            followers_follow_corpse: false,
        };
    };
    let leader = stab.leader;
    let crashed = run_synchronous(
        build(),
        Some((SimTime::from_ticks(crash_at), leader)),
        horizon,
    );
    TwinRunEvidence {
        elected_in_live_run: Some(leader),
        followers_views_identical: followers_match(
            live.timeline.samples(),
            crashed.timeline.samples(),
            leader,
        ),
        followers_follow_corpse: followers_trust(&crashed, leader),
    }
}

/// Outcome of a Lemma-6 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeafEvidence {
    /// The leader that crashed.
    pub crashed_leader: Option<ProcessId>,
    /// The process that stopped reading.
    pub deaf_process: ProcessId,
    /// Its final (frozen) leader estimate.
    pub deaf_final_estimate: Option<ProcessId>,
    /// Whether the processes that kept reading re-elected a correct leader.
    pub readers_reelected: bool,
}

impl DeafEvidence {
    /// Whether the experiment demonstrated the violation: the deaf process
    /// is stuck on the corpse while the readers have moved on — no common
    /// leader is ever reached.
    #[must_use]
    pub fn violation_demonstrated(&self) -> bool {
        self.readers_reelected
            && self.crashed_leader.is_some()
            && self.deaf_final_estimate == self.crashed_leader
    }
}

/// Lemma 6 made executable: in an Algorithm-1 system, the highest-identity
/// process stops reading after `deaf_steps` steps; the elected leader is
/// crashed afterwards. Readers re-elect; the deaf process cannot.
#[must_use]
pub fn lemma6_evidence(n: usize, deaf_steps: u64, crash_at: u64, horizon: u64) -> DeafEvidence {
    assert!(n >= 3, "need a leader, a reader, and a deaf process");
    let deaf_pid = ProcessId::new(n - 1);
    let space = MemorySpace::new(n);
    let mem = Alg1Memory::new(&space);
    let actors: Vec<Box<dyn Actor>> = ProcessId::all(n)
        .map(|pid| {
            let inner = Alg1Process::new(Arc::clone(&mem), pid);
            if pid == deaf_pid {
                boxed_actors(vec![DeafFollower::new(inner, deaf_steps)]).remove(0)
            } else {
                boxed_actors(vec![inner]).remove(0)
            }
        })
        .collect();
    let report = Simulation::builder(actors)
        .adversary(Synchronous::new(3))
        .crash_plan(CrashPlan::none().with_leader_crash_at(SimTime::from_ticks(crash_at)))
        .horizon(horizon)
        .sample_every(50)
        .run();

    let crashed_leader = report.crashed.iter().next();
    let deaf_final = report.timeline.last_estimate_of(deaf_pid);
    // Did every correct process that kept reading settle on a common
    // correct leader?
    let readers_reelected = report.timeline.samples().last().is_some_and(|s| {
        let mut readers = report
            .correct
            .iter()
            .filter(|&p| p != deaf_pid)
            .map(|p| s.leaders[p.index()]);
        match readers.next().flatten() {
            Some(q) => report.correct.contains(q) && readers.all(|e| e == Some(q)),
            None => false,
        }
    });
    DeafEvidence {
        crashed_leader,
        deaf_process: deaf_pid,
        deaf_final_estimate: deaf_final,
        readers_reelected,
    }
}

/// Outcome of a Theorem-5 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedMemoryEvidence {
    /// Total shared-memory footprint of the frugal algorithm (bits) — the
    /// point is that it is tiny and bounded.
    pub frugal_hwm_bits: u64,
    /// Whether the frugal algorithm reached a stable correct leader under
    /// the aliasing schedule (expected: `false`).
    pub frugal_stabilized: bool,
    /// Whether the frugal run ended in split brain (two processes each
    /// trusting themselves).
    pub frugal_split_brain: bool,
    /// Whether Algorithm 2 stabilized under the *same* schedule
    /// (expected: `true`).
    pub alg2_stabilized: bool,
}

impl BoundedMemoryEvidence {
    /// Whether the experiment demonstrated the bound: the
    /// fewer-than-`t+1`-writers bounded algorithm failed on a run that the
    /// all-writers bounded algorithm survives.
    #[must_use]
    pub fn bound_demonstrated(&self) -> bool {
        !self.frugal_stabilized && self.alg2_stabilized
    }
}

/// Theorem 5 made executable: the leader of [`FrugalOmega`] toggles its
/// single-bit heartbeat with period `2s` under a synchronous schedule with
/// step period `s = 4`; follower scans land every 8 ticks, i.e. exactly two
/// toggles apart, so every scan reads the same recurring memory state —
/// the aliasing at the heart of the proof's Figure-4 construction.
/// Algorithm 2 runs under the identical schedule as the control.
#[must_use]
pub fn theorem5_evidence(n: usize, horizon: u64) -> BoundedMemoryEvidence {
    // The frugal, bounded, single-writer algorithm under the aliasing
    // schedule.
    let space = MemorySpace::new(n);
    let mem = FrugalMemory::new(&space);
    let actors = boxed_actors(
        ProcessId::all(n)
            .map(|pid| FrugalOmega::new(Arc::clone(&mem), pid, 8))
            .collect::<Vec<_>>(),
    );
    let frugal_space = space.clone();
    let frugal = Simulation::builder(actors)
        .adversary(Synchronous::new(4))
        .memory(frugal_space)
        .horizon(horizon)
        .sample_every(50)
        .run();
    let frugal_stabilized = frugal.stabilized_for(0.3);
    let frugal_split_brain = frugal.timeline.samples().last().is_some_and(|s| {
        let distinct: std::collections::HashSet<_> = s.leaders.iter().flatten().collect();
        distinct.len() > 1
    });
    let frugal_hwm_bits = frugal
        .windowed
        .last()
        .map_or(0, |(.., fp)| fp.total_hwm_bits());

    // Control: Algorithm 2 under the same schedule.
    let sys = OmegaVariant::Alg2.build(n);
    let alg2 = Simulation::builder(sys.actors)
        .adversary(Synchronous::new(4))
        .horizon(horizon)
        .sample_every(50)
        .run();
    BoundedMemoryEvidence {
        frugal_hwm_bits,
        frugal_stabilized,
        frugal_split_brain,
        alg2_stabilized: alg2.stabilized_for(0.3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma5_violation_demonstrated_for_naive_omega() {
        let evidence = lemma5_evidence(3, 5, 2_000, 20_000);
        assert_eq!(evidence.elected_in_live_run, Some(ProcessId::new(0)));
        assert!(
            evidence.followers_views_identical,
            "silent leader must be indistinguishable from a crashed one"
        );
        assert!(evidence.followers_follow_corpse);
        assert!(evidence.violation_demonstrated());
    }

    #[test]
    fn lemma5_no_violation_for_real_alg1() {
        let evidence = lemma5_control(3, 10_000, 40_000);
        assert!(evidence.elected_in_live_run.is_some());
        assert!(
            !evidence.followers_views_identical,
            "Algorithm 1's ever-writing leader makes the runs distinguishable"
        );
        assert!(!evidence.followers_follow_corpse, "followers re-elect");
        assert!(!evidence.violation_demonstrated());
    }

    #[test]
    fn lemma6_violation_demonstrated_for_deaf_follower() {
        let evidence = lemma6_evidence(3, 200, 10_000, 60_000);
        assert!(evidence.crashed_leader.is_some());
        assert!(evidence.readers_reelected, "reading processes move on");
        assert_eq!(
            evidence.deaf_final_estimate, evidence.crashed_leader,
            "the deaf process is stuck on the corpse"
        );
        assert!(evidence.violation_demonstrated());
    }

    #[test]
    fn theorem5_bound_demonstrated() {
        let evidence = theorem5_evidence(2, 30_000);
        assert!(evidence.frugal_hwm_bits <= 4, "frugal memory is a few bits");
        assert!(!evidence.frugal_stabilized, "aliasing starves the election");
        assert!(
            evidence.frugal_split_brain,
            "both processes trust themselves"
        );
        assert!(
            evidence.alg2_stabilized,
            "Algorithm 2 survives the same schedule"
        );
        assert!(evidence.bound_demonstrated());
    }
}
