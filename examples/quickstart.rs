//! Quickstart: one scenario, two backends.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the paper's headline result as a running program, stated the
//! way the paper states it: the *same* system description — Algorithm 1,
//! five processes, a leader crash partway through — checked against an
//! adversarial schedule in the deterministic simulator, then executed on
//! real OS threads. One declarative `Scenario`, two `Driver`s, two
//! directly comparable `Outcome`s.

use omega_shm::scenario::{registry, Backend, Driver, SimDriver, WallDriver};

fn main() {
    let scenario = registry::named("leader-crash-failover").expect("registry scenario");
    println!("scenario: {scenario}");
    println!();

    println!("-- backend 1: deterministic simulator (adversarial schedule) --");
    let simulated = SimDriver.run(&scenario);
    print!("{}", simulated.summary());
    println!();

    println!("-- backend 2: OS threads (wall-clock, same spec) --");
    // A coop pool with a worker for each of the 2n node loops: every loop
    // runs on an OS thread of its own, and the kernel schedules them.
    let native = WallDriver::new(Backend::Coop, 2 * scenario.n).run(&scenario);
    print!("{}", native.summary());
    println!();

    // The paper's claims, asserted identically against both backends.
    for outcome in [&simulated, &native] {
        outcome.assert_election(); // Theorem 1: a correct leader emerges…
        assert_eq!(outcome.crashed.len(), 1); // …again, after the crash.
        assert!(
            !outcome.crashed.contains(outcome.elected.unwrap()),
            "a crashed process cannot stay leader"
        );
        assert!(outcome.total_writes() > 0 && outcome.total_reads() > 0);
    }
    println!(
        "both backends elected a correct leader across the crash (sim: {}, threads: {}).",
        simulated.elected.unwrap(),
        native.elected.unwrap(),
    );
    println!("write traffic, step counts, and stabilization ticks above are unit-compatible —");
    println!("that comparability is what the Scenario API buys.");
}
