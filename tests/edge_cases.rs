//! Edge cases across the facade: degenerate system sizes and less-used
//! schedulers, all expressed as scenarios.

use omega_shm::omega::OmegaVariant;
use omega_shm::registers::ProcessId;
use omega_shm::scenario::{AdversarySpec, Driver, Scenario, SimDriver};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn single_process_systems_elect_themselves() {
    // n = 1: the only process is trivially the eventual leader in every
    // variant (candidates = {self}, no one to suspect).
    for variant in OmegaVariant::all() {
        let scenario = Scenario::fault_free(variant, 1)
            .adversary(AdversarySpec::Random { min: 1, max: 5 })
            .without_awb()
            .expect_stabilization(true)
            .seed(3)
            .horizon(5_000)
            .sample_every(50);
        let outcome = SimDriver.run(&scenario);
        assert_eq!(
            outcome.elected,
            Some(p(0)),
            "{variant}: singleton must stabilize"
        );
        assert!(outcome.stabilized_for(0.5), "{variant}: and quickly");
    }
}

#[test]
fn two_processes_one_crash_leaves_survivor() {
    for variant in [OmegaVariant::Alg1, OmegaVariant::Alg2] {
        let scenario = Scenario::fault_free(variant, 2)
            .adversary(AdversarySpec::Random { min: 1, max: 4 })
            .awb(p(1), 0, 3)
            .seed(9)
            .crash_at(3_000, p(0))
            .horizon(30_000)
            .sample_every(50);
        let outcome = SimDriver.run(&scenario);
        assert_eq!(outcome.elected, Some(p(1)), "{variant}: the survivor leads");
    }
}

#[test]
fn round_robin_schedule_elects() {
    // The RoundRobin adversary is the strictest fair rotation; everyone is
    // timely, so AWB holds trivially and all variants elect.
    for variant in OmegaVariant::all() {
        let scenario = Scenario::fault_free(variant, 4)
            .adversary(AdversarySpec::RoundRobin { slot: 2 })
            .without_awb()
            .expect_stabilization(true)
            .horizon(40_000)
            .sample_every(100);
        let outcome = SimDriver.run(&scenario);
        assert!(outcome.stabilized, "{variant}: round-robin must elect");
        assert!(outcome.leader_is_correct(), "{variant}");
    }
}

#[test]
fn immediate_crash_of_everyone_but_one() {
    // All crashes land before the first sample: the survivor must still
    // come to lead, starting from a world of corpses.
    let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
        .adversary(AdversarySpec::Synchronous { period: 2 })
        .without_awb()
        .expect_stabilization(true)
        .crash_at(1, p(0))
        .crash_at(1, p(1))
        .crash_at(1, p(3))
        .horizon(20_000)
        .sample_every(50);
    let outcome = SimDriver.run(&scenario);
    assert_eq!(outcome.elected, Some(p(2)), "survivor elects");
    assert_eq!(outcome.correct.len(), 1);
}

#[test]
fn zero_tick_tau1_is_awb_from_the_start() {
    let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
        .adversary(AdversarySpec::Random { min: 1, max: 30 })
        .awb(p(0), 0, 2)
        .seed(5)
        .horizon(30_000)
        .sample_every(50);
    SimDriver.run(&scenario).assert_election();
}

/// The `spec_text` decoder on damaged input: every truncation and every
/// single-bit flip of every registry spec's text is parsed or refused,
/// never a panic, and every mutant that parses and that the simulator
/// admits builds and runs on it. Runs are clamped to a short horizon (a
/// budget of ticks × processes, so the n = 512 mutants run a few ticks:
/// building them is the part that can fail), mutants that are the same
/// spec up to their name run once (nothing in a run reads the name), and
/// the runs are spread over a few threads.
#[test]
fn damaged_spec_texts_are_parsed_or_refused_and_admitted_ones_run() {
    use omega_shm::scenario::spec_text::{from_spec_text, to_spec_text};
    use omega_shm::scenario::{registry, Backend};
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const TICK_BUDGET: u64 = 8_000;
    let (mut inputs, mut parsed) = (0, 0);
    let mut admitted = BTreeSet::new();
    let mut panics = Vec::new();
    for scenario in registry::all() {
        let text = to_spec_text(&scenario).into_bytes();
        let truncations = (0..=text.len()).map(|cut| text[..cut].to_vec());
        let flips = (0..8 * text.len()).map(|bit| {
            let mut flipped = text.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        for mutant in truncations.chain(flips) {
            inputs += 1;
            let mutant = String::from_utf8_lossy(&mutant).into_owned();
            match catch_unwind(|| from_spec_text(&mutant)) {
                Err(_) => panics.push(format!("the parser panicked on\n{mutant}")),
                Ok(Err(_)) => {}
                Ok(Ok(s)) => {
                    parsed += 1;
                    if s.refusal(Backend::Sim, 1).is_none() {
                        let horizon = s.horizon.min(TICK_BUDGET / s.n as u64);
                        admitted.insert((s.n, to_spec_text(&s.horizon(horizon).named("mutant"))));
                    }
                }
            }
        }
    }
    // Largest systems first, dealt round-robin: the threads finish together.
    let admitted: Vec<String> = admitted.into_iter().rev().map(|(_, spec)| spec).collect();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let crashed: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|k| {
                let admitted = &admitted;
                scope.spawn(move || {
                    admitted
                        .iter()
                        .skip(k)
                        .step_by(threads)
                        .filter(|spec| {
                            let s = from_spec_text(spec).expect("a mutant's own text parses");
                            catch_unwind(AssertUnwindSafe(|| SimDriver.run(&s))).is_err()
                        })
                        .map(|spec| format!("the simulator panicked on\n{spec}"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a worker catches its panics"))
            .collect()
    });
    panics.extend(crashed);
    println!(
        "{inputs} damaged spec texts: {parsed} parsed, {} distinct admitted specs ran",
        admitted.len()
    );
    assert!(inputs > 20_000, "{inputs} inputs");
    assert!(panics.is_empty(), "{}", panics.join("\n---\n"));
}
