//! Leadership as a service: subscribe to Ω instead of polling it.
//!
//! ```text
//! cargo run --release --example leader_watch
//! ```
//!
//! A downstream system (a primary-backup store, a job scheduler, a lock
//! service) doesn't poll `leader()` — it reacts to *changes*. This example
//! runs an election cluster, subscribes to leadership events, and walks a
//! chain of crashes.
//!
//! One deliberate lesson: Ω's agreement may **flap** while an election is
//! settling, so a queued promotion event can already be stale by the time
//! you act on it. Fencing decisions must therefore be based on the watch's
//! *current* state ([`LeaderWatch::current`]); the event stream is perfect
//! for narration, auditing, and cache invalidation — not for choosing whom
//! to fence.
//!
//! [`LeaderWatch::current`]: omega_shm::runtime::LeaderWatch::current

use std::sync::Arc;
use std::time::Duration;

use omega_shm::omega::OmegaVariant;
use omega_shm::runtime::LeaderWatch;
use omega_shm::scenario::{Backend, Scenario, WallDriver};

fn main() {
    let n = 5;
    println!("starting {n}-process cluster + leadership watch…");
    let scenario = Scenario::fault_free(OmegaVariant::Alg1, n).named("leader-watch");
    let (cluster, _) = WallDriver::new(Backend::Threads, 1).launch(&scenario, |_, _| Vec::new());
    let cluster = Arc::new(cluster);
    let mut watch = LeaderWatch::start(Arc::clone(&cluster), Duration::from_millis(1));
    let events = watch.subscribe();

    let deadline = Duration::from_secs(10);
    let mut history = Vec::new();

    for round in 1..=3 {
        // Authoritative state, not a (possibly stale) event:
        let leader = watch.await_leader(deadline).expect("agreed leader");
        println!("  reign #{round}: {leader}");
        history.push(leader);

        println!("  crash!    {leader} is gone");
        cluster.crash(leader);

        // Wait until the authoritative view moves off the corpse.
        let deadline_at = std::time::Instant::now() + deadline;
        loop {
            match watch.current() {
                Some(current) if current != leader => break,
                _ if std::time::Instant::now() > deadline_at => {
                    panic!("no re-election observed within {deadline:?}")
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
    let last = watch.await_leader(deadline).expect("final leader");
    history.push(last);

    // Narrate the audit trail the subscription captured.
    let audit = events.drain();
    println!();
    println!("audit trail ({} events):", audit.len());
    for e in &audit {
        let prev = e.previous.map_or("∅".to_string(), |p| p.to_string());
        let cur = e
            .current
            .map_or("∅ (no agreement)".to_string(), |p| p.to_string());
        println!("    {prev} → {cur}");
    }

    // Sanity: each reign's leader was distinct, last leader is alive.
    for w in history.windows(2) {
        assert_ne!(w[0], w[1], "a crashed leader cannot reign twice in a row");
    }
    assert!(cluster.correct().contains(last));
    println!();
    println!(
        "reign history: {}  — survivors {:?}",
        history
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" → "),
        cluster.correct()
    );

    watch.shutdown();
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}
