//! Cross-crate integration: the full (variant × adversary × timer) matrix.
//!
//! Every Ω variant must elect a correct eventual leader under every
//! AWB-compatible combination in the suite — this is Theorem 1 quantified
//! over the whole adversary library, expressed as a grid of scenarios run
//! through the facade crate.

use omega_shm::omega::OmegaVariant;
use omega_shm::registers::ProcessId;
use omega_shm::scenario::{AdversarySpec, Driver, Scenario, SimDriver, TimerSpec};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn min_delay_for(variant: OmegaVariant) -> u64 {
    // §3.5 step-clock: timeouts are counted in own steps, so a burst of
    // one-tick steps shrinks its scan window below the leader's write gap
    // and breeds spurious suspicions; bound the step-rate variance, as
    // `Scenario::fault_free` does for this variant.
    if variant == OmegaVariant::StepClock {
        2
    } else {
        1
    }
}

#[test]
fn matrix_variants_x_adversaries_x_timers() {
    let timer_suites: [(&str, TimerSpec); 5] = [
        ("exact", TimerSpec::Exact),
        (
            "affine",
            TimerSpec::Affine {
                scale: 2,
                offset: 2,
            },
        ),
        ("jittered", TimerSpec::Jittered { jitter: 4 }),
        (
            "chaotic-then-exact",
            TimerSpec::ChaoticThenExact {
                chaos_until: 8_000,
                chaos_max: 40,
            },
        ),
        // Heterogeneous cell: different processes run *different* timer
        // functions, catching regressions that assume a uniform T_R.
        (
            "jitter-affine-mix",
            TimerSpec::JitterAffineMix {
                jitter: 4,
                scale: 2,
                offset: 2,
            },
        ),
    ];

    for variant in OmegaVariant::all() {
        let lo = min_delay_for(variant);
        for (adv_name, seed) in [("random-a", 101u64), ("random-b", 202)] {
            for (timer_name, timers) in timer_suites {
                let scenario = Scenario::fault_free(variant, 4)
                    .named(format!("matrix/{variant}/{adv_name}/{timer_name}"))
                    .adversary(AdversarySpec::Random { min: lo, max: 7 })
                    .awb(p(0), 1_500, 4)
                    .timers(timers)
                    .seed(seed)
                    .horizon(60_000)
                    .sample_every(100);
                let outcome = SimDriver.run(&scenario);
                assert!(
                    outcome.stabilized,
                    "{variant} / {adv_name} / {timer_name}: no stabilization"
                );
                assert!(
                    outcome.leader_is_correct(),
                    "{variant} / {adv_name} / {timer_name}: crashed leader elected"
                );
            }
        }
    }
}

#[test]
fn matrix_failover_chains() {
    for variant in [OmegaVariant::Alg1, OmegaVariant::Alg2] {
        let scenario = Scenario::fault_free(variant, 5)
            .named(format!("failover-chain/{variant}"))
            .adversary(AdversarySpec::Random { min: 1, max: 6 })
            .awb(p(4), 0, 4)
            .seed(7)
            .crash_leader_at(20_000)
            .crash_leader_at(50_000)
            .horizon(110_000)
            .sample_every(100);
        let outcome = SimDriver.run(&scenario);
        assert_eq!(outcome.crashed.len(), 2, "{variant}: two leaders crashed");
        assert!(
            outcome.stabilized,
            "{variant}: no re-election after double failover"
        );
        assert!(outcome.leader_is_correct(), "{variant}");
        assert!(
            outcome.stabilization_ticks.unwrap() > 50_000,
            "{variant}: final stabilization must postdate the second crash"
        );
    }
}

#[test]
fn matrix_self_stabilization_from_corruption() {
    use omega_shm::omega::{boxed_actors, Alg1Memory, Alg1Process, Alg2Memory, Alg2Process};
    use omega_shm::registers::MemorySpace;
    use std::sync::Arc;

    for corruption_seed in [1u64, 0xdead, 0xffff_ffff] {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
            .named("self-stabilization")
            .seed(3)
            .horizon(80_000)
            .sample_every(100);

        // Algorithm 1.
        let space = MemorySpace::new(4);
        let mem = Alg1Memory::new(&space);
        mem.corrupt(corruption_seed);
        let procs: Vec<Alg1Process> = ProcessId::all(4)
            .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
            .collect();
        let outcome = SimDriver.run_actors(&scenario, boxed_actors(procs), &space);
        assert!(
            outcome.stabilized,
            "alg1 seed={corruption_seed:#x}: must converge from arbitrary state"
        );

        // Algorithm 2.
        let space = MemorySpace::new(4);
        let mem = Alg2Memory::new(&space);
        mem.corrupt(corruption_seed);
        let procs: Vec<Alg2Process> = ProcessId::all(4)
            .map(|pid| Alg2Process::new(Arc::clone(&mem), pid))
            .collect();
        let outcome = SimDriver.run_actors(&scenario, boxed_actors(procs), &space);
        assert!(
            outcome.stabilized,
            "alg2 seed={corruption_seed:#x}: must converge from arbitrary state"
        );
    }
}

#[test]
fn heavy_crash_load_any_minority_survives() {
    // t = n − 1 is allowed: crash all but one process; the survivor must
    // end up electing itself.
    let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("all-but-one")
        .adversary(AdversarySpec::Random { min: 1, max: 5 })
        .awb(p(3), 0, 4)
        .seed(9)
        .crash_at(5_000, p(0))
        .crash_at(10_000, p(1))
        .crash_at(15_000, p(2))
        .horizon(60_000)
        .sample_every(100);
    let outcome = SimDriver.run(&scenario);
    assert_eq!(outcome.elected, Some(p(3)), "lone survivor elects");
    assert_eq!(outcome.correct.len(), 1);
}

#[test]
fn whole_registry_behaves_as_classified() {
    for scenario in omega_shm::scenario::registry::all() {
        // The scaling probes get their own workout elsewhere; keep the
        // matrix fast by skipping n > 8 here.
        if scenario.n > 8 {
            continue;
        }
        let outcome = SimDriver.run(&scenario);
        if scenario.expect_stabilization {
            outcome.assert_election();
        } else {
            assert!(
                !outcome.stabilized_for(0.34),
                "{}: AWB-violating scenario stabilized anyway",
                scenario.name
            );
        }
    }
}
