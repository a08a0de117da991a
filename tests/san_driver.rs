//! Four-way backend parity and SAN-substrate coverage.
//!
//! The SAN substrate is the paper's motivating deployment (Section 1:
//! registers as network-attached disk blocks) and the coop substrate is
//! the cooperative deadline-wheel runtime — both realized by the one
//! `WallDriver`. These tests pin the backend matrix from three sides:
//!
//! * **Outcome parity** — every n ≤ 16 registry scenario that promises
//!   stabilization must stabilize on the simulator, on coop with a worker
//!   thread per task, on the SAN, *and* on a single coop worker, with
//!   identical experiment metadata, a correct elected leader, and the
//!   crash script honored identically. (The elected *identity* is only deterministic
//!   on the simulator: on wall-clock backends the schedule — kernel
//!   preemption or the deadline wheel — decides which correct process
//!   ends up least suspected, exactly the freedom the Ω contract grants.)
//!   The first eligible scenario of each parity test also runs at coop
//!   pools of 2 and 4; the pooled path is otherwise covered by
//!   `tests/coop_driver.rs::a_small_worker_pool_still_elects`, CI's
//!   `--workers 4 n-scaling-256` smoke and the nightly `coop/workers=`
//!   sweep.
//! * **Block accounting** — one block per register, accesses mirrored
//!   between the register instrumentation and the disk.
//! * **Disk registers** — registers of a `SanDisk::memory_space`, the
//!   path the `san` backend runs: ownership enforcement, zero-on-fresh-block
//!   reads, and the cross-machine read path.

use omega_shm::registers::ProcessId;
use omega_shm::runtime::san::{SanDisk, SanLatency};
use omega_shm::scenario::{registry, Backend, Driver, Outcome, Scenario, SimDriver, WallDriver};

/// The registry scenarios every wall-clock backend can realize:
/// stabilization promised (no literal adversary needed) at
/// thread-friendly system sizes, and admitted by the whole backend matrix
/// — chaos campaigns with storms or recovery waves are refused by some
/// wall backends and parity over a refused realization is meaningless.
/// (Coop alone also runs n > 16; that headroom is covered in
/// `tests/coop_driver.rs`.)
fn eligible(scenario: &Scenario) -> bool {
    scenario.expect_stabilization
        && scenario.n <= 16
        && Backend::ALL
            .into_iter()
            .all(|backend| scenario.refusal(backend, 1).is_none())
}

fn assert_four_way(
    scenario: &Scenario,
    sim: &Outcome,
    per_task: &Outcome,
    san: &Outcome,
    coop: &Outcome,
) {
    assert_eq!(sim.backend, "sim");
    assert_eq!(per_task.backend, "coop");
    assert_eq!(per_task.workers, Some(2 * scenario.n), "a worker per task");
    assert_eq!(san.backend, "san");
    assert_eq!(coop.backend, "coop");
    for outcome in [sim, per_task, san, coop] {
        // Identical experiment metadata: all four realized the same spec.
        assert_eq!(outcome.scenario, scenario.name);
        assert_eq!(outcome.variant, scenario.variant);
        assert_eq!(outcome.n, scenario.n);
        assert_eq!(outcome.horizon_ticks, scenario.horizon);
        assert_eq!(
            outcome.register_count, sim.register_count,
            "{} [{}]: register layout must not depend on the backend",
            scenario.name, outcome.backend
        );
        // The stabilization outcome matches: elected, correct, not crashed.
        outcome.assert_election();
        assert_eq!(
            outcome.crashed.len(),
            sim.crashed.len(),
            "{} [{}]: crash script honored identically",
            scenario.name,
            outcome.backend
        );
        assert!(
            outcome.steps.iter().all(|&s| s > 0),
            "{} [{}]: every process stepped",
            scenario.name,
            outcome.backend
        );
    }
    // Only the SAN backend reports a block footprint, and its layout is
    // one block per register.
    assert!(sim.san.is_none() && per_task.san.is_none() && coop.san.is_none());
    let footprint = san.san.expect("SAN backend reports block footprint");
    assert_eq!(footprint.blocks_mapped, san.register_count as u64);
    assert!(footprint.blocks_touched <= footprint.blocks_mapped);
    if scenario.campaign.is_none() {
        assert!(
            footprint.block_accesses >= san.total_reads() + san.total_writes(),
            "{}: disk cannot serve fewer accesses than the registers counted",
            scenario.name
        );
    } else {
        // A severed read is served from the frozen snapshot without a disk
        // round trip (the far side of a split fabric sees its stale view,
        // not the medium), so mid-partition the register counters run
        // ahead of the disk's.
        assert!(footprint.block_accesses > 0, "{}: disk saw no traffic", {
            &scenario.name
        });
    }
}

/// `scenario` on the simulator, on coop with a worker per task (one for
/// each of the `2n` node loops), on the SAN and on one coop worker, in
/// [`assert_four_way`]'s order.
fn four_ways(scenario: &Scenario) -> [Outcome; 4] {
    let wall = |backend, workers| WallDriver::new(backend, workers).run(scenario);
    [
        SimDriver.run(scenario),
        wall(Backend::Coop, 2 * scenario.n),
        wall(Backend::San, 1),
        wall(Backend::Coop, 1),
    ]
}

fn run_four_way(filter: impl Fn(&Scenario) -> bool) {
    let scenarios = registry::all().into_iter().filter(eligible).filter(filter);
    for (i, scenario) in scenarios.enumerate() {
        let [sim, per_task, san, coop] = four_ways(&scenario);
        assert_four_way(&scenario, &sim, &per_task, &san, &coop);
        assert_eq!(coop.workers, Some(1));
        if i > 0 {
            continue;
        }
        // Sharding the deadline wheel is an implementation detail of the
        // coop backend: growing the worker pool must not change what the
        // scenario observes.
        for workers in [2, 4] {
            let pooled = WallDriver::new(Backend::Coop, workers).run(&scenario);
            assert_eq!(pooled.workers, Some(workers));
            assert_four_way(&scenario, &sim, &per_task, &san, &pooled);
            assert_eq!(
                pooled.stabilized, coop.stabilized,
                "{} [coop x{}]: pool size changed the stabilization verdict",
                scenario.name, workers
            );
        }
    }
}

#[test]
fn four_way_parity_on_fault_free_registry_scenarios() {
    run_four_way(|s| s.crashes.is_empty() && s.san_latency.is_none());
}

#[test]
fn four_way_parity_on_crash_script_registry_scenarios() {
    run_four_way(|s| !s.crashes.is_empty());
}

#[test]
fn four_way_parity_on_the_san_latency_sweep() {
    // The sweep members pin a real (nonzero) disk latency: the SAN
    // substrate pays simulated service time per access and still elects;
    // the other wall-clock substrates ignore the pin and run them as plain
    // scenarios.
    let mut saw_service_time = false;
    for scenario in registry::all()
        .into_iter()
        .filter(|s| s.san_latency.is_some() && s.crashes.is_empty())
    {
        let [sim, per_task, san, coop] = four_ways(&scenario);
        assert_four_way(&scenario, &sim, &per_task, &san, &coop);
        if san.san.unwrap().service_time_ms > 0.0 {
            saw_service_time = true;
        }
    }
    assert!(
        saw_service_time,
        "pinned latency must surface as simulated service time"
    );
}

#[test]
fn disk_registers_enforce_ownership_and_zero_fresh_blocks() {
    let disk = SanDisk::new(SanLatency::instant(), 9);
    let space = disk.memory_space(2);
    let owner = ProcessId::new(1);
    let other = ProcessId::new(0);
    let nat = space.nat_register("NAT", owner, 0);
    let flag = space.flag_register("FLAG", owner, false);
    let map = space.block_map().expect("disk-backed space");
    let blocks = [map.addr_of("NAT").unwrap(), map.addr_of("FLAG").unwrap()];
    assert_ne!(blocks[0], blocks[1], "one block per register");

    // Zero-on-fresh-block: unwritten registers read as 0 / false from any
    // machine, and their blocks hold zero.
    assert_eq!(nat.read(owner), 0);
    assert_eq!(nat.read(other), 0);
    assert!(!flag.read(other));
    assert!(blocks.iter().all(|&addr| disk.peek_block(addr) == 0));

    // Cross-machine read path: a non-owner observes the owner's write
    // through the shared disk.
    nat.write(owner, 77);
    flag.write(owner, true);
    assert_eq!(nat.read(other), 77, "non-owner reads the owner's write");
    assert!(flag.read(other));
    assert_eq!(nat.owner(), owner);
    assert_eq!(
        disk.peek_block(blocks[0]),
        77,
        "the value lives on the disk"
    );

    // Ownership enforcement: a foreign write is refused and never lands.
    let refused = nat.try_write(other, 1).expect_err("foreign writer");
    assert!(refused.to_string().contains("NAT"), "{refused}");
    assert_eq!(nat.read(other), 77, "rejected write must not land");
    assert!(flag.try_write(other, false).is_err());
    assert!(flag.read(owner), "rejected flag write must not land");
}

#[test]
fn san_module_doc_flow_runs_end_to_end() {
    // The executable version of the `omega_runtime::san` module-doc
    // example (which is `ignore`d there because the scenario crate sits
    // above the runtime in the workspace).
    let outcome = WallDriver::new(Backend::San, 1).run(&registry::fault_free());
    outcome.assert_election();
    let san = outcome.san.expect("SAN backends report block footprints");
    assert_eq!(san.blocks_mapped, outcome.register_count as u64);
}
