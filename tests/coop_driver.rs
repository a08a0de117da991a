//! The cooperative backend beyond the thread wall.
//!
//! Four-way parity at n ≤ 16 lives in `tests/san_driver.rs`; this file
//! covers what is *new* about the coop substrate — the sizes and sweeps no
//! other real-time backend can attempt, the worker-pool variant, and the
//! interactive `launch` surface.

use std::time::Duration;

use omega_shm::scenario::{registry, Backend, Driver, Scenario, SimDriver, WallDriver};

fn coop(workers: usize) -> WallDriver {
    WallDriver::new(Backend::Coop, workers)
}

#[test]
fn coop_runs_a_contention_sweep_member_no_thread_backend_can() {
    // contention/32x4: 32 contending suspicion writers. Two OS threads per
    // node would be 64 kernel threads — the size class the thread and SAN
    // drivers refuse — while the coop driver multiplexes it on one worker.
    let scenario = registry::named("contention/32x4").expect("registry member");
    assert_eq!(scenario.n, 32);
    let outcome = coop(1).run(&scenario);
    outcome.assert_election();
    assert_eq!(outcome.backend, "coop");
    assert!(
        outcome.steps.iter().all(|&s| s > 0),
        "all 32 multiplexed nodes stepped"
    );
    // And the simulator agrees the scenario stabilizes, so the sweep's
    // records are comparable across the two backends that realize it.
    SimDriver.run(&scenario).assert_election();
}

#[test]
fn coop_contention_sweep_spans_the_sigma_axis() {
    // Both σ points at the small size elect; the sweep's axes are real.
    for name in ["contention/4x4", "contention/4x32"] {
        let scenario = registry::named(name).expect("registry member");
        let outcome = coop(1).run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.n, 4);
    }
}

#[test]
fn coop_survives_a_directed_cut_with_a_timely_core() {
    // hostile/asym-core: a directed cut blinds the majority {2,3,4} to the
    // core {0,1}, but everyone still reads the core live and the core holds
    // the timely process — the election must hold straight through the cut
    // on the cooperative backend, not just on the simulator.
    let scenario = registry::named("hostile/asym-core").expect("registry member");
    assert!(
        scenario.refusal(Backend::Coop, 1).is_none(),
        "a directed cut acts through the visibility mask"
    );
    let outcome = coop(1).run(&scenario);
    outcome.assert_election();
    assert_eq!(outcome.chaos.expect("campaign ran").partitions, 1);
}

#[test]
fn a_small_worker_pool_still_elects() {
    // workers = 2: the pool variant exercises the cross-worker dispatch
    // path (tasks mid-execution while a sibling sleeps on the condvar).
    let driver = coop(2);
    let scenario = Scenario::fault_free(omega_shm::omega::OmegaVariant::Alg1, 5).horizon(100_000);
    let outcome = driver.run(&scenario);
    outcome.assert_election();
    assert!(outcome.steps.iter().all(|&s| s > 0));
    assert_eq!(outcome.workers, Some(2));
}

#[test]
fn coop_launch_serves_interactive_queries() {
    let scenario = Scenario::fault_free(omega_shm::omega::OmegaVariant::Alg2, 3).horizon(100_000);
    let (cluster, _) = coop(1).launch(&scenario, |_, _| Vec::new());
    let leader = cluster
        .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
        .expect("interactive coop cluster elects");
    assert_eq!(cluster.node(leader).leader(), Some(leader));
    cluster.shutdown();
}

#[test]
fn every_variant_elects_on_coop() {
    for variant in omega_shm::omega::OmegaVariant::all() {
        let scenario = Scenario::fault_free(variant, 3)
            .named(format!("coop/{}/n3", variant.name()))
            .horizon(150_000);
        let outcome = coop(1).run(&scenario);
        assert!(outcome.stabilized, "{variant}: no election on coop");
        assert!(outcome.leader_is_correct(), "{variant}");
    }
}
