//! A replicated key-value store: Ω put to work — as a *service*.
//!
//! ```text
//! cargo run --release --example consensus_kv
//! ```
//!
//! Ω matters because it is the weakest failure detector for shared-memory
//! consensus. Earlier revisions of this example drove the replicated log
//! by hand; the service layer (`omega_shm::service`) now provides the real
//! client path — routing, leader gating, per-request outcomes — so the
//! example exercises it twice:
//!
//! 1. **A hand-held mini-cluster** — three replicas polled step by step,
//!    client requests routed through the ledger to the believed leader,
//!    puts sequenced through the Ω-gated log, state machines verified
//!    identical on every replica.
//! 2. **The headline experiment** — the registry's `failover/alg1`
//!    scenario: thousands of open-loop clients, a scripted leader crash,
//!    and the user-visible unavailability window it causes.

use std::sync::Arc;

use omega_shm::consensus::{KvCommand, LogShared};
use omega_shm::registers::{MemorySpace, ProcessId};
use omega_shm::scenario::CrashSpec;
use omega_shm::service::{
    registry, Ledger, RequestKind, RequestMeta, RequestState, Schedule, ServiceNode,
    ServiceSimDriver, WorkloadSpec,
};

/// Part 1: a three-replica service driven by hand, so every moving part is
/// visible — the router, the leader gate, the log, the replicas.
fn mini_cluster() {
    let n = 3;
    println!("— mini-cluster: {n} replicas, requests routed through the service ledger —");

    // Five client requests: four puts and a get, all with generous
    // deadlines. A put's committed value is its request id, so the last
    // put to a key must win.
    let kinds = [
        RequestKind::Put { key: 3 },
        RequestKind::Put { key: 7 },
        RequestKind::Put { key: 5 },
        RequestKind::Get { key: 3 },
        RequestKind::Put { key: 3 },
    ];
    let requests = kinds
        .iter()
        .enumerate()
        .map(|(id, &kind)| RequestMeta {
            arrival: id as u64,
            client: id as u32,
            kind,
        })
        .collect();
    let meta = Schedule::new(requests, 10_000, None);

    let space = MemorySpace::new(n);
    let shared = LogShared::<KvCommand>::new(space);
    let ledger = Ledger::new(meta, n);
    let mut nodes: Vec<ServiceNode> = ProcessId::all(n)
        .map(|pid| ServiceNode::new(pid, Arc::clone(&ledger), Arc::clone(&shared)))
        .collect();

    // Elect replica 1 by fiat (part 2 lets Ω do this for real): every
    // replica publishes the same estimate, so the router targets it.
    let leader = ProcessId::new(1);
    for pid in ProcessId::all(n) {
        ledger.publish(pid, Some(leader));
    }
    for id in 0..ledger.requests() {
        ledger.issue(id, id as u64);
    }
    // Poll until everything resolves and every replica has caught up.
    for now in 0..2_000u64 {
        for node in &mut nodes {
            node.poll(Some(leader), now);
        }
    }

    for (id, state) in ledger.states().iter().enumerate() {
        assert!(
            matches!(state, RequestState::Committed { .. }),
            "request {id} should commit, got {state:?}"
        );
    }
    println!(
        "  all {} requests committed via the leader",
        ledger.requests()
    );
    let reference: Vec<(String, u64)> = nodes[0]
        .store()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for node in &nodes {
        assert_eq!(node.committed_slots(), 4, "four puts → four log slots");
        let replica: Vec<(String, u64)> = node
            .store()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(replica, reference, "replicated state must be identical");
    }
    println!("  replicated state, identical on every replica:");
    for (key, value) in &reference {
        println!("    {key} = {value} (value = id of the winning put)");
    }
    let key = WorkloadSpec::key_name(3);
    assert_eq!(nodes[2].store().get(&key), Some(4), "last put (id 4) wins");
}

/// Part 2: the same machinery under open-loop load with Ω actually
/// electing — and losing — the leader.
fn failover_headline() {
    println!("— headline: failover/alg1 under open-loop client load —");
    let scenario = registry::by_name("failover/alg1").expect("registry scenario");
    let crash_tick = match &scenario.election.crashes[0] {
        CrashSpec::LeaderAt { tick } | CrashSpec::At { tick, .. } => *tick,
    };
    println!(
        "  {} clients, leader crash scripted at tick {crash_tick}",
        scenario.workload.clients
    );
    let outcome = ServiceSimDriver.run(&scenario);
    println!(
        "  {} requests: {} committed, {} rejected, {} stalled (p50 {} / p99 {} ticks)",
        outcome.requests,
        outcome.committed,
        outcome.rejected,
        outcome.stalled,
        outcome.commit_p50,
        outcome.commit_p99,
    );
    for window in &outcome.windows {
        println!(
            "  unavailability: crash @{} healed {} — {} ticks, {} requests failed inside",
            window.crash_at,
            window
                .healed_at
                .map_or("never".to_string(), |t| format!("@{t}")),
            window.duration(outcome.horizon),
            window.rejected + window.stalled,
        );
    }
    assert!(outcome.stabilized, "Ω must re-elect after the crash");
    assert!(
        outcome.windows[0].healed_at.is_some(),
        "the service must heal inside the horizon"
    );
    println!("  replication held across the failover.");
}

fn main() {
    mini_cluster();
    println!();
    failover_headline();
}
