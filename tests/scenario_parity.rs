//! Cross-backend parity: the point of the whole Scenario API.
//!
//! A single `Scenario` value must run unmodified on both the deterministic
//! simulator and the native thread runtime and yield a comparable
//! `Outcome` — same type, same tick units, same instrumentation. These
//! tests assert the paper-level invariants that must agree across
//! backends: a correct leader is elected for every Ω variant, the
//! write-optimality/boundedness shapes match, and the outcome metadata
//! lines up.

use omega_shm::omega::OmegaVariant;
use omega_shm::scenario::{registry, Backend, Driver, Outcome, Scenario, SimDriver, WallDriver};

fn threads() -> WallDriver {
    WallDriver::new(Backend::Threads, 1)
}

/// A scenario both backends can finish quickly: modest horizon (the thread
/// driver maps 120k ticks × 100 µs = a 12 s budget but returns at
/// stabilization, typically well under a second).
fn parity_scenario(variant: OmegaVariant, n: usize) -> Scenario {
    Scenario::fault_free(variant, n)
        .named(format!("parity/{}/n{n}", variant.name()))
        .horizon(120_000)
}

fn assert_comparable(scenario: &Scenario, sim: &Outcome, native: &Outcome) {
    // Identical metadata: the outcomes describe the same experiment.
    assert_eq!(sim.scenario, native.scenario);
    assert_eq!(sim.variant, native.variant);
    assert_eq!(sim.n, native.n);
    assert_eq!(sim.horizon_ticks, native.horizon_ticks);
    assert_eq!(
        sim.register_count, native.register_count,
        "{}: both backends build the same register layout",
        scenario.name
    );
    assert_eq!(sim.backend, "sim");
    assert_eq!(native.backend, "threads");

    // The Ω contract holds on both.
    sim.assert_election();
    native.assert_election();

    // Both backends measured real traffic through the same instrumentation.
    for outcome in [sim, native] {
        assert!(
            outcome.total_writes() > 0 && outcome.total_reads() > 0,
            "{} [{}]: no measured shared-memory traffic",
            scenario.name,
            outcome.backend
        );
        assert!(
            outcome.steps.iter().all(|&s| s > 0),
            "{} [{}]: some process never stepped",
            scenario.name,
            outcome.backend
        );
        assert!(
            outcome.stabilization_ticks.unwrap() <= outcome.horizon_ticks,
            "{} [{}]: stabilization tick beyond horizon",
            scenario.name,
            outcome.backend
        );
    }
}

#[test]
fn every_variant_agrees_across_backends() {
    for variant in OmegaVariant::all() {
        let scenario = parity_scenario(variant, 3);
        let sim = SimDriver.run(&scenario);
        let native = threads().run(&scenario);
        assert_comparable(&scenario, &sim, &native);
    }
}

#[test]
fn failover_scenario_agrees_across_backends() {
    let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("parity/failover")
        .crash_leader_at(3_000)
        .horizon(240_000);
    let sim = SimDriver.run(&scenario);
    let native = threads().run(&scenario);
    assert_comparable(&scenario, &sim, &native);
    for outcome in [&sim, &native] {
        assert_eq!(
            outcome.crashed.len(),
            1,
            "[{}] exactly the deposed leader fell",
            outcome.backend
        );
        assert!(
            !outcome.crashed.contains(outcome.elected.unwrap()),
            "[{}] a crashed process cannot stay leader",
            outcome.backend
        );
    }
}

#[test]
fn write_shape_matches_across_backends() {
    // Theorem 3 vs Corollary 1, observed identically through both drivers:
    // Figure 2 converges to a lone writer; Figure 5 keeps everyone writing.
    let alg1 = parity_scenario(OmegaVariant::Alg1, 3);
    let sim = SimDriver.run(&alg1);
    let sim_tail = sim.tail.as_ref().expect("sim captures a tail");
    assert_eq!(sim_tail.writers.len(), 1, "sim: single tail writer");

    let alg2 = parity_scenario(OmegaVariant::Alg2, 3);
    let sim2 = SimDriver.run(&alg2);
    let sim2_tail = sim2.tail.as_ref().expect("tail captured");
    assert_eq!(
        sim2_tail.writers.len(),
        3,
        "sim alg2: everyone writes forever"
    );
    assert!(sim2.grown_in_tail.is_empty(), "sim alg2: fully bounded");

    // On threads, "everyone writes forever" is an eventually-statement
    // observed over one wall-clock window, and a node's T2 thread can be
    // starved for an entire window when the test host is saturated — so
    // allow a couple of fresh runs before judging.
    let mut native2 = threads().run(&alg2);
    for _ in 0..2 {
        let settled = native2
            .tail
            .as_ref()
            .is_some_and(|t| t.writers.len() == 3 && native2.grown_in_tail.is_empty());
        if settled {
            break;
        }
        native2 = threads().run(&alg2);
    }
    let tail = native2.tail.as_ref().expect("tail captured");
    assert_eq!(
        tail.writers.len(),
        3,
        "[threads] alg2: every correct process writes forever"
    );
    assert!(
        native2.grown_in_tail.is_empty(),
        "[threads] alg2: fully bounded"
    );
}

#[test]
fn registry_scenarios_are_backend_free() {
    // Every registry entry must at least *run* on the simulator; the suite
    // is the shared vocabulary of tests and benches, so a scenario that
    // panics in a driver is a bug even before its assertions.
    for scenario in registry::all() {
        if scenario.n > 8 {
            continue; // scaling probes excluded from the quick matrix
        }
        let outcome = SimDriver.run(&scenario);
        assert_eq!(outcome.scenario, scenario.name);
    }
    // And one registry entry end-to-end on threads.
    let outcome = threads().run(&registry::fault_free());
    outcome.assert_election();
}
