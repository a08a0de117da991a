//! The named scenario registry: one curated suite usable from tests,
//! benches, and examples alike.
//!
//! Each entry is a complete, backend-free [`Scenario`]; run any of them on
//! any [`Driver`](crate::Driver). `expect_stabilization` records which side
//! of the AWB assumption the spec falls on, so suites can assert both the
//! positive theorems and the necessity experiments.

use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_runtime::san::SanLatency;
use omega_sim::chaos::{Campaign, ChaosPhase};

use crate::{AdversarySpec, Scenario, TimerSpec};

/// The curated scenario suite, in presentation order.
#[must_use]
pub fn all() -> Vec<Scenario> {
    let mut suite = vec![
        fault_free(),
        fault_free_large(),
        leader_crash_failover(),
        double_failover(),
        crash_storm(),
        sigma_stress(),
        slow_timer_edge(),
        bounded_memory(),
        mwmr_lean(),
        stepclock(),
    ];
    suite.extend(n_scaling(&[32, 64, 128, 256, 512, 1024]));
    suite.extend(contention_sweep(&[(4, 4), (4, 32), (32, 4), (32, 32)]));
    suite.extend(san_latency_sweep(&[(100, 100), (500, 500), (2_000, 1_000)]));
    suite.extend(chaos_suite());
    suite.extend(hostile_suite());
    suite.push(no_awb_staller());
    suite
}

/// The chaos campaigns: partitions, latency storms, and crash/recovery
/// waves as first-class scenarios. Members deliberately span the admission
/// matrix — `partition-heal` runs everywhere, `latency-storm` only where
/// service time is simulated (sim, SAN), `wave-recover` only where a
/// process can be un-crashed (sim).
#[must_use]
pub fn chaos_suite() -> Vec<Scenario> {
    vec![
        chaos_partition_heal(),
        chaos_latency_storm(),
        chaos_wave_recover(),
    ]
}

/// The headline chaos story: a minority/majority register-space partition
/// mid-run. Inside the cut the minority `{0,1}` elects locally while the
/// majority side (holding the timely `p4`) elects its own leader; no
/// global stable leader can exist until the heal, after which re-election
/// must land within a bounded window (asserted via
/// [`ChaosOutcome::heal_to_stable_ticks`](crate::ChaosOutcome)).
#[must_use]
pub fn chaos_partition_heal() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("chaos/partition-heal")
        .awb(ProcessId::new(4), 1_000, 4)
        .campaign(Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![
                vec![ProcessId::new(0), ProcessId::new(1)],
                vec![ProcessId::new(2), ProcessId::new(3), ProcessId::new(4)],
            ],
            from: 20_000,
            until: 45_000,
        }))
        .horizon(100_000)
}

/// A latency storm on the shared medium: step service time stretched 4×
/// (±2 ticks of jitter) for a 20 000-tick window. The election must hold
/// its leader through the storm — slow is not crashed.
#[must_use]
pub fn chaos_latency_storm() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("chaos/latency-storm")
        .campaign(Campaign::new().phase(ChaosPhase::Storm {
            factor: 4,
            jitter: 2,
            from: 15_000,
            until: 35_000,
        }))
        .horizon(80_000)
}

/// A crash wave that later recedes: `{0,1}` stop at 15 000 and resume at
/// 40 000 with their register state intact (stopped nodes rejoining). Only
/// the simulator can un-crash a process, so this member is sim-only.
#[must_use]
pub fn chaos_wave_recover() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("chaos/wave-recover")
        .awb(ProcessId::new(4), 1_000, 4)
        .campaign(
            Campaign::new()
                .phase(ChaosPhase::Wave {
                    crash: vec![ProcessId::new(0), ProcessId::new(1)],
                    recover: vec![],
                    at: 15_000,
                })
                .phase(ChaosPhase::Wave {
                    crash: vec![],
                    recover: vec![ProcessId::new(0), ProcessId::new(1)],
                    at: 40_000,
                }),
        )
        .horizon(100_000)
}

/// The hostile campaigns: chaos *outside* the tame envelope, with
/// non-election as the verified outcome. The expect-false members upgrade
/// the necessity experiment from "did not stabilize" to a checked
/// [`NonElectionWitness`](crate::NonElectionWitness): inside the
/// disruption window no process may ever accumulate a stable self-leading
/// reign (`false_stable_ticks == 0`). Each pairs its chaos clause with the
/// AWB₂-violating regime the clause exploits — timers stuck below the
/// disruption cadence can never outrun it, and the leader-stalling
/// schedule keeps rotating whichever process the counter argmin would
/// otherwise settle on (with the id tie-break, symmetric counter growth
/// alone would let `p0` reign through any symmetric cut). `asym-core` is
/// the positive control: a *directed* cut is survivable when the side
/// everyone still reads live is a strongly-connected timely core.
#[must_use]
pub fn hostile_suite() -> Vec<Scenario> {
    vec![
        hostile_flap(),
        hostile_asym_cut(),
        hostile_storm(),
        hostile_asym_core(),
    ]
}

/// A symmetric flapping partition at a cadence the stuck-low timers can
/// never outrun: the register space splits and heals every 3 000 ticks for
/// most of the run. With no AWB envelope and the staller demoting every
/// would-be argmin, the witness must show zero false-stable ticks across
/// the whole flap window.
#[must_use]
pub fn hostile_flap() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("hostile/flap")
        .without_awb()
        .adversary(AdversarySpec::LeaderStaller {
            base: 2,
            stall: 4_000,
        })
        .timers(TimerSpec::StuckLow { cap: 8 })
        .campaign(Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![
                vec![ProcessId::new(0), ProcessId::new(1)],
                vec![ProcessId::new(2), ProcessId::new(3)],
            ],
            period: 3_000,
            from: 10_000,
            until: 82_000,
        }))
        .horizon(100_000)
}

/// An asymmetric majority cut: `{0,1,2}` read `{3,4}` frozen for most of
/// the run while `{3,4}` still read everyone live. Under the stalling
/// schedule and stuck timers, the blinded majority's counters pump
/// one-way — no stable reign may form anywhere inside the cut window.
#[must_use]
pub fn hostile_asym_cut() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("hostile/asym-cut")
        .without_awb()
        .adversary(AdversarySpec::LeaderStaller {
            base: 2,
            stall: 4_000,
        })
        .timers(TimerSpec::StuckLow { cap: 8 })
        .campaign(Campaign::new().phase(ChaosPhase::Cut {
            blinded: vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)],
            hidden: vec![ProcessId::new(3), ProcessId::new(4)],
            from: 15_000,
            until: 90_000,
        }))
        .horizon(110_000)
}

/// An envelope-violating latency storm: step service time stretched 16×
/// while every timer stays stuck at 8 ticks — far below the stretched
/// inter-write gap, so mutual suspicion never stops and the staller keeps
/// the argmin rotating for the storm's whole span. The stall is quoted
/// pre-stretch: the storm multiplies it to the same ~4 000-tick rotation
/// cadence the other hostile members run at.
#[must_use]
pub fn hostile_storm() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("hostile/storm")
        .without_awb()
        .adversary(AdversarySpec::LeaderStaller {
            base: 2,
            stall: 250,
        })
        .timers(TimerSpec::StuckLow { cap: 8 })
        .campaign(Campaign::new().phase(ChaosPhase::Storm {
            factor: 16,
            jitter: 8,
            from: 10_000,
            until: 90_000,
        }))
        .horizon(110_000)
}

/// The positive control (López–Rajsbaum–Raynal's connectivity condition):
/// a directed cut blinds the majority `{2,3,4}` to the core `{0,1}` — but
/// the core stays strongly connected, holds the timely `p0`, and is read
/// live by *everyone*. The hidden side's counters pump unboundedly while
/// the core's stay flat, so all five processes agree on `p0` straight
/// through the cut: a hostile asymmetric topology that still elects, on
/// the simulator and on every wall backend.
#[must_use]
pub fn hostile_asym_core() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("hostile/asym-core")
        .awb(ProcessId::new(0), 1_000, 4)
        .campaign(Campaign::new().phase(ChaosPhase::Cut {
            blinded: vec![ProcessId::new(0), ProcessId::new(1)],
            hidden: vec![ProcessId::new(2), ProcessId::new(3), ProcessId::new(4)],
            from: 15_000,
            until: 90_000,
        }))
        .horizon(120_000)
}

/// Loads the fuzz-regression corpus from a directory of `*.spec` files
/// (the format of [`spec_text`](crate::spec_text), one scenario each).
///
/// Each scenario is named `fuzz-regression/<file-stem>` from its file name
/// — the canonical corpus layout the fuzz binary emits — regardless of any
/// `scenario` line inside, so names and files cannot drift apart. Files
/// are loaded in sorted order; a missing directory is an empty corpus.
///
/// # Errors
///
/// Returns a message naming the offending file when one cannot be read or
/// parsed — a corrupt reproducer must fail loudly, not shrink the suite.
pub fn load_dir(dir: &std::path::Path) -> Result<Vec<Scenario>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "spec"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read corpus spec {}: {e}", path.display()))?;
        let scenario = crate::spec_text::from_spec_text(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("non-UTF-8 corpus file name {}", path.display()))?;
        out.push(scenario.named(format!("fuzz-regression/{stem}")));
    }
    Ok(out)
}

/// Looks a scenario up by its registry name.
#[must_use]
pub fn named(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// All registry names, in presentation order.
#[must_use]
pub fn names() -> Vec<String> {
    all().into_iter().map(|s| s.name).collect()
}

/// Baseline: Figure 2, four processes, random AWB schedule, no faults.
#[must_use]
pub fn fault_free() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4).named("fault-free")
}

/// The same baseline at n = 16: register layout and suspicion traffic grow
/// quadratically while the election must still settle.
#[must_use]
pub fn fault_free_large() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 16)
        .named("fault-free-large")
        .horizon(80_000)
}

/// The headline failover story: elect, crash the leader a third of the way
/// in, re-elect among the survivors.
#[must_use]
pub fn leader_crash_failover() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("leader-crash-failover")
        .awb(ProcessId::new(4), 1_000, 4)
        .crash_leader_at(20_000)
        .horizon(80_000)
}

/// Two successive leader crashes: every reign must end in a clean handover.
#[must_use]
pub fn double_failover() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("double-failover")
        .awb(ProcessId::new(4), 0, 4)
        .crash_leader_at(20_000)
        .crash_leader_at(50_000)
        .horizon(110_000)
}

/// `t = n − 1` faults: five of six processes crash in a staggered storm;
/// the lone survivor (the timely `p5`) must end up electing itself.
#[must_use]
pub fn crash_storm() -> Scenario {
    let mut scenario = Scenario::fault_free(OmegaVariant::Alg1, 6)
        .named("crash-storm")
        .awb(ProcessId::new(5), 0, 4)
        .horizon(80_000);
    for i in 0..5 {
        scenario = scenario.crash_at(4_000 + i * 4_000, ProcessId::new(i as usize));
    }
    scenario
}

/// A slack AWB₁ bound: the timely process is only clamped to σ = 32 while
/// followers race at delays in `[1, 12]` — stabilization must survive any
/// finite σ (Lemma 2's geometry).
#[must_use]
pub fn sigma_stress() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("sigma-stress")
        .adversary(AdversarySpec::Random { min: 1, max: 12 })
        .awb(ProcessId::new(0), 2_000, 32)
        .horizon(80_000)
}

/// The AWB₂ asymptotic edge: every timer is arbitrary garbage for the
/// first 20 000 ticks and only then behaves — stabilization is only
/// promised *after* the chaos, and arrives.
#[must_use]
pub fn slow_timer_edge() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("slow-timer-edge")
        .adversary(AdversarySpec::Random { min: 1, max: 9 })
        .awb(ProcessId::new(0), 2_000, 4)
        .timers(TimerSpec::ChaoticThenExact {
            chaos_until: 20_000,
            chaos_max: 60,
        })
        .horizon(100_000)
}

/// Figure 5: the fully bounded variant, everyone writing forever.
#[must_use]
pub fn bounded_memory() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg2, 4).named("bounded-memory")
}

/// Section 3.5(a): suspicion columns collapsed into nWnR registers — a
/// linear register count instead of quadratic.
#[must_use]
pub fn mwmr_lean() -> Scenario {
    Scenario::fault_free(OmegaVariant::Mwmr, 5).named("mwmr-lean")
}

/// Section 3.5(b): timers replaced by counted own-steps.
#[must_use]
pub fn stepclock() -> Scenario {
    Scenario::fault_free(OmegaVariant::StepClock, 4).named("stepclock")
}

/// Scale probes: the standard AWB workload at growing system sizes —
/// `n-scaling-32` is the historical baseline; 64/128/256 exercise the
/// sharded `T3` scan and the epoch-gated `leader()` cache, whose savings
/// the outcome's `reads_skipped`/`shard_passes` counters make visible;
/// 512/1024 exist for the sharded coop worker pool (admitted at
/// `workers ≥ 8` / `≥ 16` — see `coop_max_n`). The sim runs 512 too —
/// its record is the deterministic twin the `--check` gate compares
/// against — and refuses 1024 (`SIM_MAX_N`: its peak memory is above
/// the sim gate's ceiling); the SAN refuses both.
///
/// Statistics checkpoints shrink with `n`: the trend line needs totals,
/// not fine windows, and the newest cumulative snapshot is `O(n²)`
/// counters. The cadence is part of every record's tail window, so it
/// stays although an earlier checkpoint now costs only what moved. The
/// giant probes also shorten the horizon: stabilization lands within the
/// first few hundred ticks, and a wall run's deadline budget scales with
/// the horizon — a 100 000-tick allowance at `n ≥ 512` buys nothing but a
/// slower failure when a pool doesn't elect.
#[must_use]
pub fn n_scaling(sizes: &[usize]) -> Vec<Scenario> {
    family("n-scaling-", sizes, |n| {
        Scenario::fault_free(OmegaVariant::Alg1, n)
            .horizon(match n {
                n if n >= 1024 => 10_000,
                n if n >= 512 => 20_000,
                _ => 100_000,
            })
            .stats_checkpoints(match n {
                n if n >= 512 => 2,
                n if n >= 128 => 4,
                _ => 16,
            })
    })
}

/// One `(writers, sigma)` point of the contention sweep, displayed as
/// `<writers>x<sigma>` so family members get stable registry names.
#[derive(Clone, Copy)]
struct ContentionPoint {
    writers: usize,
    sigma: u64,
}

impl std::fmt::Display for ContentionPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.writers, self.sigma)
    }
}

/// The write-contention sweep à la Alistarh–Gelashvili (PAPERS.md): the
/// standard AWB workload with the number of *contending writers* and the
/// timing slack σ as the two axes. Pre-stabilization, every process is a
/// suspicion writer, so `writers` (the system size) is literally the
/// write-contention bound `κ` of the lower-bound literature; larger σ
/// stretches the churn phase, holding the contention window open longer
/// before the single-writer regime takes over.
///
/// Members above `n = 16` exist precisely for the cooperative backend: the
/// simulator and the coop backend run them, the SAN skips them — a sweep
/// that is *only* meaningful now that a wall-clock backend scales.
#[must_use]
pub fn contention_sweep(points: &[(usize, u64)]) -> Vec<Scenario> {
    let points: Vec<ContentionPoint> = points
        .iter()
        .map(|&(writers, sigma)| ContentionPoint { writers, sigma })
        .collect();
    family("contention/", &points, |p| {
        Scenario::fault_free(OmegaVariant::Alg1, p.writers)
            .awb(ProcessId::new(0), 1_000, p.sigma)
            .horizon(80_000)
            .stats_checkpoints(if p.writers > 16 { 4 } else { 16 })
    })
}

/// One `(base, jitter)` point of the SAN latency sweep, displayed as
/// `<base>x<jitter>` (µs) so family members get stable registry names.
#[derive(Clone, Copy)]
struct SanPoint {
    base_us: u64,
    jitter_us: u64,
}

impl std::fmt::Display for SanPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.base_us, self.jitter_us)
    }
}

/// The SAN latency sweep: the standard fault-free workload with the disk's
/// `(base, jitter)` access latency pinned per member (µs pairs, e.g.
/// `san-latency/500x500` is the commodity-iSCSI point). On the SAN backend
/// each member pays its own simulated service time per register access and
/// stretches its pacing to match; other backends run the member as a plain
/// fault-free scenario — the latency pin is SAN-only, exactly as the
/// adversary spec is simulator-only.
///
/// Horizons are short: elections on a slow disk are latency-dominated, and
/// the family exists to chart stabilization time and block traffic against
/// access latency, not to soak.
#[must_use]
pub fn san_latency_sweep(points_us: &[(u64, u64)]) -> Vec<Scenario> {
    let points: Vec<SanPoint> = points_us
        .iter()
        .map(|&(base_us, jitter_us)| SanPoint { base_us, jitter_us })
        .collect();
    family("san-latency/", &points, |p| {
        Scenario::fault_free(OmegaVariant::Alg1, 3)
            .san_latency(SanLatency {
                base: std::time::Duration::from_micros(p.base_us),
                jitter: std::time::Duration::from_micros(p.jitter_us),
            })
            .horizon(20_000)
    })
}

/// The necessity experiment (E13): no AWB envelope, a leader-stalling
/// schedule, and AWB₂-violating timers — the election must *not* settle.
#[must_use]
pub fn no_awb_staller() -> Scenario {
    Scenario::fault_free(OmegaVariant::Alg1, 4)
        .named("no-awb-staller")
        .without_awb()
        .adversary(AdversarySpec::LeaderStaller {
            base: 2,
            stall: 4_000,
        })
        .timers(TimerSpec::StuckLow { cap: 8 })
        .horizon(120_000)
}

/// Builds a parameterized scenario family: one scenario per parameter,
/// built by `build` and named `{name}{param}` (callers include the
/// separator — `"sigma-sweep/"`, `"n-scaling-"` — in `name`, so family
/// members keep their historical registry names).
///
/// This is the pattern behind [`sigma_sweep`] and [`n_scaling`]; sweeps
/// for new dimensions (contention, horizon, timer jitter) should go
/// through it rather than hand-rolling the map-and-name loop.
#[must_use]
pub fn family<P: Copy + std::fmt::Display>(
    name: &str,
    params: &[P],
    mut build: impl FnMut(P) -> Scenario,
) -> Vec<Scenario> {
    params
        .iter()
        .map(|&p| build(p).named(format!("{name}{p}")))
        .collect()
}

/// The σ sweep of experiment E5: one scenario per σ, identical otherwise.
#[must_use]
pub fn sigma_sweep(sigmas: &[u64]) -> Vec<Scenario> {
    family("sigma-sweep/", sigmas, |sigma| {
        Scenario::fault_free(OmegaVariant::Alg1, 4)
            .adversary(AdversarySpec::Random { min: 1, max: 12 })
            .awb(ProcessId::new(0), 2_000, sigma)
            .seed(11)
            .horizon(80_000)
            .stats_checkpoints(32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::admitted;
    use crate::Backend;

    #[test]
    fn load_dir_round_trips_a_corpus() {
        let dir = std::env::temp_dir().join(format!("omega-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = crash_storm();
        std::fs::write(
            dir.join("abc123.spec"),
            crate::spec_text::to_spec_text(&spec),
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "fuzz-regression/abc123");
        assert_eq!(loaded[0].n, spec.n);
        assert_eq!(loaded[0].crashes, spec.crashes);
        // A corrupt spec fails loudly.
        std::fs::write(dir.join("bad.spec"), "variant nope\nn 3\n").unwrap();
        let e = load_dir(&dir).unwrap_err();
        assert!(e.contains("bad.spec"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
        // A missing directory is an empty corpus, not an error.
        assert!(load_dir(&dir).unwrap().is_empty());
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = names();
        assert!(names.len() >= 10, "the suite promises ~10 scenarios");
        let mut seen = std::collections::HashSet::new();
        for name in &names {
            assert!(seen.insert(name.clone()), "duplicate scenario {name}");
            let scenario = named(name).expect("resolvable");
            assert_eq!(&scenario.name, name);
            assert!(scenario.n > 0);
        }
        assert!(named("no-such-scenario").is_none());
    }

    #[test]
    fn chaos_suite_spans_the_admission_matrix() {
        let eligible = |name: &str| admitted(&named(name).unwrap(), 1);
        assert_eq!(
            eligible("chaos/partition-heal"),
            vec!["sim", "san", "coop"],
            "partitions and heals are realizable on every backend"
        );
        assert_eq!(
            eligible("chaos/latency-storm"),
            vec!["sim", "san"],
            "only simulated service time can be stormed"
        );
        assert_eq!(
            eligible("chaos/wave-recover"),
            vec!["sim"],
            "only the simulator can un-crash a process"
        );
    }

    #[test]
    fn awb_classification_is_recorded() {
        assert!(fault_free().expect_stabilization);
        assert!(crash_storm().expect_stabilization);
        assert!(!no_awb_staller().expect_stabilization);
    }

    #[test]
    fn hostile_suite_spans_expectations_and_admission() {
        let suite = hostile_suite();
        assert_eq!(suite.len(), 4);
        // The expect-false members are sim-only: a wall backend cannot
        // assert non-election, so admission strips every wall driver.
        for member in ["hostile/flap", "hostile/asym-cut", "hostile/storm"] {
            let scenario = named(member).unwrap();
            assert!(
                !scenario.expect_stabilization,
                "{member} must expect no-elect"
            );
            assert_eq!(
                admitted(&scenario, 1),
                vec!["sim"],
                "{member} is a non-election experiment"
            );
        }
        // The positive control elects, and its directed cut acts through
        // the visibility mask — admitted everywhere.
        let core = named("hostile/asym-core").unwrap();
        assert!(core.expect_stabilization);
        assert_eq!(
            admitted(&core, 1),
            vec!["sim", "san", "coop"],
            "a survivable directed cut runs on every backend"
        );
    }

    #[test]
    fn hostile_members_verify_non_election_on_sim() {
        use crate::Driver as _;
        for scenario in hostile_suite() {
            let outcome = crate::SimDriver.run(&scenario);
            if scenario.expect_stabilization {
                // The asym-core control: the cut must not even delay the
                // election past the core's initial settling.
                outcome.assert_election();
                assert!(
                    outcome.witness.is_none(),
                    "witness is only computed for non-election specs"
                );
            } else {
                assert!(
                    !outcome.stabilized_for(0.34),
                    "{} must not hold a leader: {:?}",
                    scenario.name,
                    outcome.stabilization_ticks
                );
                let witness = outcome
                    .witness
                    .as_ref()
                    .expect("expect-false campaign computes a witness");
                assert_eq!(
                    witness.false_stable_ticks, 0,
                    "{}: a reign exceeded the allowance: {witness:?}",
                    scenario.name
                );
                assert!(
                    witness.demotions > 0,
                    "{}: the window must show observed churn: {witness:?}",
                    scenario.name
                );
            }
        }
    }

    #[test]
    fn crash_storm_spares_the_timely_process() {
        let scenario = crash_storm();
        let timely = scenario.awb.unwrap().timely;
        for crash in &scenario.crashes {
            if let crate::CrashSpec::At { pid, .. } = crash {
                assert_ne!(*pid, timely, "the storm must not kill the AWB witness");
            }
        }
        assert_eq!(scenario.crashes.len(), 5);
    }

    #[test]
    fn sigma_sweep_parameterizes_only_sigma() {
        let sweep = sigma_sweep(&[2, 8, 32]);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].name, "sigma-sweep/2");
        assert_eq!(sweep[0].awb.unwrap().sigma, 2);
        assert_eq!(sweep[2].awb.unwrap().sigma, 32);
        assert_eq!(sweep[0].seed, sweep[2].seed);
        assert_eq!(sweep[0].horizon, sweep[2].horizon);
    }

    #[test]
    fn family_names_members_with_caller_separator() {
        let members = family("probe/", &[1u64, 9], |p| {
            Scenario::fault_free(OmegaVariant::Alg1, 3).seed(p)
        });
        assert_eq!(members[0].name, "probe/1");
        assert_eq!(members[1].name, "probe/9");
        assert_eq!(members[1].seed, 9);
    }

    #[test]
    fn contention_sweep_parameterizes_writers_and_sigma() {
        let sweep = contention_sweep(&[(4, 4), (32, 32)]);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].name, "contention/4x4");
        assert_eq!(sweep[0].n, 4);
        assert_eq!(sweep[0].awb.unwrap().sigma, 4);
        assert_eq!(sweep[1].name, "contention/32x32");
        assert_eq!(sweep[1].n, 32);
        assert_eq!(sweep[1].awb.unwrap().sigma, 32);
        assert!(sweep.iter().all(|s| s.expect_stabilization));
        // Large members checkpoint coarsely, small ones keep the standard
        // cadence.
        assert_eq!(sweep[0].stats_checkpoints, 16);
        assert_eq!(sweep[1].stats_checkpoints, 4);
        // The default registry carries the four-point sweep.
        for name in [
            "contention/4x4",
            "contention/4x32",
            "contention/32x4",
            "contention/32x32",
        ] {
            assert!(named(name).is_some(), "{name} must be in the registry");
        }
    }

    #[test]
    fn san_latency_sweep_pins_latency_per_member() {
        let sweep = san_latency_sweep(&[(100, 100), (2_000, 1_000)]);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].name, "san-latency/100x100");
        assert_eq!(sweep[1].name, "san-latency/2000x1000");
        let pinned = sweep[1].san_latency.expect("sweep members pin latency");
        assert_eq!(pinned.base, std::time::Duration::from_micros(2_000));
        assert_eq!(pinned.jitter, std::time::Duration::from_micros(1_000));
        assert!(sweep.iter().all(|s| s.expect_stabilization));
        // And the commodity point is in the default registry.
        assert!(named("san-latency/500x500").is_some());
    }

    #[test]
    fn n_scaling_family_keeps_historical_name_and_scales_checkpoints() {
        let probes = n_scaling(&[32, 64, 128, 256, 512, 1024]);
        assert_eq!(probes[0].name, "n-scaling-32");
        assert_eq!(probes[3].name, "n-scaling-256");
        assert_eq!(probes[3].n, 256);
        assert!(probes.iter().all(|s| s.expect_stabilization));
        assert_eq!(probes[1].stats_checkpoints, 16);
        assert_eq!(
            probes[2].stats_checkpoints, 4,
            "large probes checkpoint coarsely"
        );
        assert_eq!(probes[4].stats_checkpoints, 2);
        assert_eq!(
            (probes[4].horizon, probes[5].horizon),
            (20_000, 10_000),
            "giant probes shorten the horizon: stabilization is early"
        );
        // On a wall clock the giant probes are the sharded coop pool's
        // territory: no single-worker backend admits them, a big enough
        // pool does. The sim runs n = 512 and stops there (`SIM_MAX_N`).
        let admits = |probe: &Scenario, backend, workers| probe.refusal(backend, workers).is_none();
        assert!(!admits(&probes[4], Backend::Coop, 1));
        assert!(admits(&probes[4], Backend::Coop, 8));
        assert!(admits(&probes[5], Backend::Coop, 16));
        assert!(admits(&probes[3], Backend::Sim, 1));
        assert!(admits(&probes[4], Backend::Sim, 1));
        assert!(!admits(&probes[5], Backend::Sim, 1));
        for name in [
            "n-scaling-32",
            "n-scaling-64",
            "n-scaling-128",
            "n-scaling-256",
            "n-scaling-512",
            "n-scaling-1024",
        ] {
            assert!(named(name).is_some(), "{name} must be in the registry");
        }
    }
}
