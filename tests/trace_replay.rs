//! Trace record/replay and the fuzz shrinker, end to end through the
//! facade.
//!
//! The tentpole claim of the fuzzing subsystem is that a recorded run is
//! *exactly* reproducible from its trace file: same `Outcome` fingerprint,
//! same bytes when re-encoded. These tests prove it over real registry
//! scenarios (one fault-free, one with a crash script) and pin the
//! shrinker's contract — a planted violation minimizes to a spec small
//! enough to read in a bug report.

use omega_shm::omega::OmegaVariant;
use omega_shm::registers::ProcessId;
use omega_shm::scenario::fuzz::{self, Violation};
use omega_shm::scenario::spec_text::{from_spec_text, to_spec_text};
use omega_shm::scenario::{registry, CrashSpec, Scenario, SimDriver};
use omega_shm::sim::chaos::{Campaign, ChaosPhase};
use omega_shm::sim::rng::SmallRng;
use omega_shm::sim::Trace;

/// Records a scenario, round-trips the trace through its binary codec,
/// replays from the decoded file image, and demands byte identity.
fn assert_replay_is_byte_identical(name: &str) {
    let scenario = registry::named(name).expect("registry scenario");
    let (live, trace) = SimDriver.run_traced(&scenario);

    // The file image survives encode → decode unchanged.
    let bytes = trace.encode();
    let decoded = Trace::decode(&bytes).expect("trace decodes");
    assert_eq!(
        decoded.encode(),
        bytes,
        "{name}: codec round-trip is not byte-stable"
    );

    // The spec embedded in the trace reconstructs the scenario, so a
    // trace file is self-describing: no side channel needed to replay.
    let reparsed = from_spec_text(&decoded.meta).expect("trace meta parses");
    assert_eq!(to_spec_text(&reparsed), to_spec_text(&scenario));

    // And the replayed run is indistinguishable from the live one on
    // every deterministic field.
    let replayed = SimDriver.run_replay(&reparsed, &decoded);
    assert_eq!(
        replayed.fingerprint(),
        live.fingerprint(),
        "{name}: replay diverged from the live run"
    );
}

#[test]
fn fault_free_trace_replays_byte_identically() {
    assert_replay_is_byte_identical("fault-free");
}

#[test]
fn crash_failover_trace_replays_byte_identically() {
    // The crash script exercises the trace's crash events, not just steps
    // and timer expirations.
    assert_replay_is_byte_identical("leader-crash-failover");
}

#[test]
fn partition_heal_trace_replays_byte_identically() {
    // A chaos campaign in the spec: the trace carries the phase-boundary
    // events and the campaign stanzas in its meta, and the replayed
    // ChaosOutcome (in the fingerprint) must match the live one.
    assert_replay_is_byte_identical("chaos/partition-heal");
}

/// FNV-1a, 64 bits: a stable digest of a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every boundary on a sample tick: the fixed crash, the partition's cut
/// and heal, and the storm's onset and end all fall on multiples of the
/// cadence, so the trace pins where a sample sorts among the events of
/// its own tick.
fn boundaries_on_sample_ticks() -> Scenario {
    let p = ProcessId::new;
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("golden/sample-tick-ties")
        .sample_every(50)
        .crash_at(1_500, p(3))
        .crash_leader_at(9_000)
        .campaign(
            Campaign::new()
                .phase(ChaosPhase::Partition {
                    groups: vec![vec![p(0), p(1)], vec![p(2), p(3), p(4)]],
                    from: 3_000,
                    until: 5_000,
                })
                .phase(ChaosPhase::Storm {
                    factor: 3,
                    jitter: 2,
                    from: 6_000,
                    until: 7_500,
                }),
        )
        .horizon(12_000)
}

/// FNV-64 of `Trace::encode()` and of `Outcome::fingerprint()`, taken
/// while every sample was a pre-scheduled event. They pin the tie order
/// of the sampling cadence: a sample fires after the initial steps and
/// timers, fixed crashes and campaign boundaries of its tick, and before
/// every event scheduled while the run is live.
const GOLDEN: [(&str, u64, u64); 5] = [
    ("fault-free", 0x7186_2c6d_6906_6d3c, 0xa59d_76bf_ef47_877c),
    (
        "leader-crash-failover",
        0xad64_abef_b642_5f86,
        0xc7bc_67e3_e036_af84,
    ),
    (
        "chaos/partition-heal",
        0x594b_87d5_ab76_d33d,
        0xcfa8_29ad_afe2_afb4,
    ),
    ("hostile/flap", 0x52fc_7d16_2fd4_6622, 0x74b2_6896_358d_45b6),
    (
        "golden/sample-tick-ties",
        0x893a_ffbe_930d_fb65,
        0xa43b_5b9b_9aaa_d7c4,
    ),
];

#[test]
fn traces_and_fingerprints_match_the_golden_pins() {
    let mut seen = Vec::new();
    for &(name, trace_hash, fingerprint_hash) in &GOLDEN {
        let scenario = match registry::named(name) {
            Some(s) => s,
            None => boundaries_on_sample_ticks(),
        };
        assert_eq!(scenario.name, name);
        let (live, trace) = SimDriver.run_traced(&scenario);
        let got = (fnv64(&trace.encode()), fnv64(live.fingerprint().as_bytes()));
        println!("(\"{name}\", {:#018x}, {:#018x}),", got.0, got.1);
        seen.push((name, got, (trace_hash, fingerprint_hash)));
    }
    for (name, got, want) in seen {
        assert_eq!(got, want, "{name}: (trace, fingerprint) digests moved");
    }
}

/// One Mwmr and one Alg2 system under each partition transition: a
/// partition (installed, healed at its end), an explicit heal (a long
/// partition cut short by a `Heal`) and a flap. Which epoch tables a
/// transition bumps decides which caches re-read after it, so these pin
/// that rule for the two layouts the five pins above do not run.
fn transitions() -> Vec<Scenario> {
    let p = ProcessId::new;
    let groups = || vec![vec![p(0), p(1)], vec![p(2), p(3), p(4)]];
    let phases = [
        (
            "partition",
            vec![ChaosPhase::Partition {
                groups: groups(),
                from: 3_000,
                until: 9_000,
            }],
        ),
        (
            "heal",
            vec![
                ChaosPhase::Partition {
                    groups: groups(),
                    from: 3_000,
                    until: 25_000,
                },
                ChaosPhase::Heal { at: 8_000 },
            ],
        ),
        (
            "flap",
            vec![ChaosPhase::Flap {
                groups: groups(),
                period: 1_500,
                from: 3_000,
                until: 15_000,
            }],
        ),
    ];
    let mut specs = Vec::new();
    for (variant, label) in [(OmegaVariant::Mwmr, "mwmr"), (OmegaVariant::Alg2, "alg2")] {
        for (transition, phases) in &phases {
            let campaign = (phases.iter().cloned()).fold(Campaign::new(), Campaign::phase);
            specs.push(
                Scenario::fault_free(variant, 5)
                    .named(format!("golden/{label}-{transition}"))
                    .campaign(campaign)
                    .horizon(30_000),
            );
        }
    }
    specs
}

/// FNV-64 of `Trace::encode()` and `Outcome::fingerprint()` for what the
/// five pins above skip — the other variants' registry runs and
/// [`transitions`] — taken while the `SUSPICIONS` epochs still lived
/// apart from the register banks.
const GOLDEN_VARIANTS: [(&str, u64, u64); 9] = [
    ("mwmr-lean", 0x554f_defd_6b6f_ae87, 0x1a46_881e_8f16_072e),
    (
        "bounded-memory",
        0x3f00_d916_20c9_0fc9,
        0x74cc_b347_5bbd_9b18,
    ),
    ("stepclock", 0xd959_9c82_869b_15bf, 0xbd8d_1d47_05c2_07a3),
    (
        "golden/mwmr-partition",
        0x126e_af5d_36de_705d,
        0xa0b3_8868_a099_4678,
    ),
    (
        "golden/mwmr-heal",
        0x626a_ae7e_df0a_2d3b,
        0x38a8_4a74_c399_c3f0,
    ),
    (
        "golden/mwmr-flap",
        0xb97a_32e1_3aa1_a690,
        0x0a9e_0a9a_6f57_e76a,
    ),
    (
        "golden/alg2-partition",
        0x53ce_30a9_019d_b40e,
        0x4c4c_fd65_1da7_dd75,
    ),
    (
        "golden/alg2-heal",
        0x3a10_858f_0127_8b92,
        0xda83_8f30_c056_b409,
    ),
    (
        "golden/alg2-flap",
        0x8f8e_810b_9d2d_8c76,
        0x8080_089e_7b56_38d1,
    ),
];

/// One FNV-64 folding the trace and fingerprint digests of the first 128
/// `fuzz::generate` draws at seed 42, taken with [`GOLDEN_VARIANTS`]. The
/// draws are a function of the generator, so a change to the generator
/// moves this pin by itself: re-take it on the generator change's parent,
/// never across a change that also touches a run.
const GOLDEN_FUZZ: u64 = 0x07a6_2753_23c0_81d9;

#[test]
fn the_other_variants_and_partition_transitions_match_their_golden_pins() {
    let mut specs = transitions();
    let mut seen = Vec::new();
    for &(name, trace_hash, fingerprint_hash) in &GOLDEN_VARIANTS {
        let scenario = match registry::named(name) {
            Some(s) => s,
            None => specs.remove(0),
        };
        assert_eq!(scenario.name, name);
        let (live, trace) = SimDriver.run_traced(&scenario);
        let got = (fnv64(&trace.encode()), fnv64(live.fingerprint().as_bytes()));
        println!("(\"{name}\", {:#018x}, {:#018x}),", got.0, got.1);
        seen.push((name, got, (trace_hash, fingerprint_hash)));
    }
    for (name, got, want) in seen {
        assert_eq!(got, want, "{name}: (trace, fingerprint) digests moved");
    }
}

#[test]
fn a_fuzz_sweep_matches_its_golden_pin() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut digest = Vec::new();
    let (mut variants, mut campaigns) = (Vec::new(), 0);
    for _ in 0..128 {
        let scenario = fuzz::generate(&mut rng);
        if !variants.contains(&scenario.variant) {
            variants.push(scenario.variant);
        }
        campaigns += usize::from(scenario.campaign.is_some());
        let (live, trace) = SimDriver.run_traced(&scenario);
        digest.extend(fnv64(&trace.encode()).to_le_bytes());
        digest.extend(fnv64(live.fingerprint().as_bytes()).to_le_bytes());
    }
    assert_eq!(variants.len(), OmegaVariant::all().len(), "every variant");
    assert!(campaigns >= 128 / 4, "{campaigns} of 128 carry a campaign");
    let got = fnv64(&digest);
    println!("GOLDEN_FUZZ = {got:#018x}");
    assert_eq!(got, GOLDEN_FUZZ, "the fuzz sweep's digest moved");
}

#[test]
fn planted_violation_shrinks_to_a_minimal_spec() {
    // A deliberately baroque starting point: six processes, a five-crash
    // storm, a non-default AWB envelope and horizon.
    let original = registry::named("crash-storm").expect("registry scenario");
    assert_eq!(original.n, 6);
    assert_eq!(original.crashes.len(), 5);
    assert!(fuzz::spec_lines(&original) > 5, "start is non-minimal");

    // The planted "bug" fires whenever n >= 4 and any absolute-tick crash
    // remains — so the shrinker can halve n once and drop all but one
    // crash, but no further. Seeded, deterministic, no simulator runs.
    let mut oracle = |s: &omega_shm::scenario::Scenario| {
        let has_at = s.crashes.iter().any(|c| matches!(c, CrashSpec::At { .. }));
        (s.n >= 4 && has_at).then(|| Violation::Safety {
            detail: "planted".into(),
        })
    };

    let minimal = fuzz::shrink(&original, &mut oracle);
    assert!(oracle(&minimal).is_some(), "shrinking preserved the bug");
    assert_eq!(minimal.n, 4, "n halved to the oracle's floor");
    assert_eq!(minimal.crashes.len(), 1, "all but one crash dropped");
    assert!(
        fuzz::spec_lines(&minimal) <= 5,
        "minimal reproducer must fit a 5-line spec, got {} lines:\n{}",
        fuzz::spec_lines(&minimal),
        to_spec_text(&minimal)
    );

    // The reproducer's registry name is stable across renames: it hashes
    // the spec text minus the `scenario` line.
    let name = fuzz::reproducer_name(&minimal);
    assert!(name.starts_with("fuzz-regression/"), "got {name}");
    assert_eq!(name, fuzz::reproducer_name(&minimal.clone().named("x")));
}
