//! Scaling probes for the sharded suspicion scan (PR 2 acceptance).
//!
//! The quadratic full-matrix rescan put ~93 M shared reads into the old
//! `n-scaling-32` run; the epoch-gated `leader()` cache plus the sharded
//! `T3` scan must hold `n-scaling-64` under 4× that figure (the quadratic
//! trend would be ~16×) while still electing a leader — and the same
//! scenario must elect on real threads.

use omega_shm::scenario::{registry, Backend, Driver, SimDriver, WallDriver, WallPacing};
use std::time::Duration;

/// The `n-scaling-32` total-read figure measured before the sharded scan
/// (see ROADMAP "Scale past n≈32" and the PR 2 issue).
const QUADRATIC_N32_BASELINE_READS: u64 = 93_001_953;

#[test]
fn n_scaling_64_stabilizes_cheaply_on_sim_and_elects_on_threads() {
    // Sim: the registry scenario exactly as the benchmark runs it.
    let scenario = registry::named("n-scaling-64").expect("registry scenario");
    let sim = SimDriver.run(&scenario);
    sim.assert_election();
    assert!(
        sim.total_reads() < 4 * QUADRATIC_N32_BASELINE_READS,
        "n=64 must cost < 4x the old n=32 scan ({} reads measured)",
        sim.total_reads()
    );
    assert!(
        sim.reads_skipped > sim.total_reads(),
        "the epoch cache must be doing the bulk of the scanning work \
         ({} skipped vs {} performed)",
        sim.reads_skipped,
        sim.total_reads()
    );
    assert!(sim.shard_passes > 0, "T3 must be running in sharded passes");

    // Threads: same spec, gentle pacing — 128 task threads may share one
    // core, so give T2 loops a 1 ms cadence and a 30 s wall budget
    // (horizon × tick); the driver returns at stabilization, normally
    // well under a second.
    let scenario = scenario.horizon(150_000);
    let driver = WallDriver {
        pacing: WallPacing {
            tick: Duration::from_micros(200),
            step_interval: Duration::from_millis(1),
            window: Duration::from_millis(60),
        },
        tail_sample: Duration::from_millis(100),
        ..WallDriver::new(Backend::Threads, 1)
    };
    let native = driver.run(&scenario);
    native.assert_election();
    assert_eq!(
        sim.register_count, native.register_count,
        "both backends build the same 64-process register layout"
    );
    assert!(
        native.steps.iter().all(|&s| s > 0),
        "[threads] every process stepped"
    );
    assert!(
        native.correct.contains(native.elected.unwrap()),
        "[threads] elected leader must be correct"
    );
}
