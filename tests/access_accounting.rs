//! Access accounting: the one-pass per-process totals must agree with the
//! per-process queries on every kind of system the repo builds.
//!
//! A snapshot stores writes owner-compact (one cell per 1WnR register, n
//! per nWnR register), so the totals are assembled from two row shapes.
//! Alg1 and Alg2 are all-1WnR; Mwmr mixes nWnR suspicion counters with
//! 1WnR arrays; the consensus log creates registers *while* it runs, so
//! its later snapshots extend the layout of its earlier ones.

use std::sync::Arc;

use omega_shm::consensus::{LogHandle, LogShared};
use omega_shm::omega::OmegaVariant;
use omega_shm::registers::{MemorySpace, ProcessId, StatsSnapshot};
use omega_shm::scenario::{Driver, Scenario, SimDriver};

fn assert_totals_match(label: &str, snap: &StatsSnapshot) {
    let totals = snap.per_process_totals();
    assert_eq!(totals.reads.len(), snap.n_processes(), "{label}");
    assert_eq!(totals.writes.len(), snap.n_processes(), "{label}");
    for pid in ProcessId::all(snap.n_processes()) {
        assert_eq!(
            totals.reads[pid.index()],
            snap.reads_of(pid),
            "{label}: reads of {pid}"
        );
        assert_eq!(
            totals.writes[pid.index()],
            snap.writes_of(pid),
            "{label}: writes of {pid}"
        );
    }
    assert_eq!(
        totals.reads.iter().sum::<u64>(),
        snap.total_reads(),
        "{label}"
    );
    assert_eq!(
        totals.writes.iter().sum::<u64>(),
        snap.total_writes(),
        "{label}"
    );
}

#[test]
fn totals_match_queries_after_a_sim_run_of_each_variant() {
    for variant in [OmegaVariant::Alg1, OmegaVariant::Alg2, OmegaVariant::Mwmr] {
        let n = 6;
        let scenario = Scenario::fault_free(variant, n)
            .crash_leader_at(8_000)
            .horizon(30_000);
        let sys = variant.build(n);
        let space = sys.space.clone();
        let report = scenario.sim_builder(sys.actors).memory(space.clone()).run();

        let checkpoints = report.windowed.snapshots();
        assert!(checkpoints.len() >= 2, "{variant}: scenario checkpoints");
        for (at, snap) in checkpoints {
            assert_totals_match(&format!("{variant} @ {at}"), snap);
        }
        let tail = report.windowed.tail(0.25).expect("checkpoints exist");
        assert_totals_match(&format!("{variant} tail"), &tail.stats);
        let last = space.stats();
        assert!(last.total_writes() > 0 && last.total_reads() > 0);
        assert_totals_match(&format!("{variant} final"), &last);

        // What the driver reports per process is these totals.
        let outcome = SimDriver.run(&scenario);
        let totals = last.per_process_totals();
        assert_eq!(outcome.reads, totals.reads, "{variant}");
        assert_eq!(outcome.writes, totals.writes, "{variant}");
    }
}

#[test]
fn mwmr_suspicion_counters_keep_a_write_cell_per_process() {
    let n = 4;
    let sys = OmegaVariant::Mwmr.build(n);
    let snap = sys.space.stats();
    let shared = snap.rows().filter(|row| row.owner.is_none()).count();
    assert_eq!(shared, n, "one nWnR suspicion counter per process");
    assert!(snap.rows().len() > shared, "beside 1WnR arrays");
}

#[test]
fn totals_match_queries_as_the_consensus_log_grows() {
    let n = 3;
    let space = MemorySpace::new(n);
    let shared = LogShared::<u64>::new(space.clone());
    let leader = ProcessId::new(1);
    let mut handles: Vec<LogHandle<u64>> = ProcessId::all(n)
        .map(|pid| LogHandle::new(Arc::clone(&shared), pid))
        .collect();

    let mut earlier = space.stats();
    for round in 0..4_u64 {
        handles[leader.index()].submit(100 + round);
        let target = round as usize + 1;
        // The leader decides the slot; the followers then learn it.
        assert!(handles[leader.index()].step_until_committed(leader, target, 200));
        for handle in &mut handles {
            assert!(handle.step_until_committed(leader, target, 200));
        }
        let later = space.stats();
        assert!(
            later.register_count() > earlier.register_count(),
            "each slot allocates its own registers"
        );
        assert_totals_match(&format!("log after slot {round}"), &later);
        let delta = later.delta_since(&earlier);
        assert!(delta.total_writes() > 0);
        assert_totals_match(&format!("log delta over slot {round}"), &delta);
        earlier = later;
    }
}
