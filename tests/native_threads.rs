//! Cross-crate integration on real threads: elections, failover, and
//! replication, driven by scenarios through the coop backend with a worker
//! thread per task.

use std::sync::Arc;
use std::time::Duration;

use omega_shm::consensus::{KvCommand, LogHandle, LogShared};
use omega_shm::omega::OmegaVariant;
use omega_shm::registers::ProcessId;
use omega_shm::scenario::{Backend, Driver, Scenario, WallDriver};

const WINDOW: Duration = Duration::from_millis(40);
const DEADLINE: Duration = Duration::from_secs(15);

/// A coop pool with a worker for each of the `2n` node loops of
/// `scenario`: every loop runs on an operating-system thread of its own.
fn threads(scenario: &Scenario) -> WallDriver {
    WallDriver::new(Backend::Coop, 2 * scenario.n)
}

/// 150k ticks × 100 µs/tick = a 15 s wall-clock budget; the driver returns
/// as soon as the election settles.
fn scenario_for(variant: OmegaVariant, n: usize) -> Scenario {
    Scenario::fault_free(variant, n)
        .named(format!("native/{}/n{n}", variant.name()))
        .horizon(150_000)
}

#[test]
fn every_variant_elects_on_threads() {
    for variant in OmegaVariant::all() {
        let scenario = scenario_for(variant, 3);
        let outcome = threads(&scenario).run(&scenario);
        assert!(outcome.stabilized, "{variant}: no election on threads");
        assert!(outcome.leader_is_correct(), "{variant}");
        assert!(
            outcome.steps.iter().all(|&s| s > 0),
            "{variant}: every node stepped"
        );
    }
}

#[test]
fn write_optimality_holds_on_threads() {
    let scenario = scenario_for(OmegaVariant::Alg1, 4);
    let (cluster, _) = threads(&scenario).launch(&scenario, |_, _| Vec::new());
    let leader = cluster
        .await_stable_leader(WINDOW, DEADLINE)
        .expect("elects");
    // Theorem 3 is an *eventually* statement: sample successive real-time
    // windows until one shows the single-writer pattern (trailing STOP
    // writes from followers that flapped during the election can pollute
    // the first windows).
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        let before = cluster.space().stats();
        std::thread::sleep(Duration::from_millis(120));
        let delta = cluster.space().stats().delta_since(&before);
        let writers: Vec<ProcessId> = delta.writer_set().iter().collect();
        if writers == vec![leader] {
            for pid in ProcessId::all(4) {
                assert!(
                    delta.reads_of(pid) > 0,
                    "Lemma 6 on real threads: {pid} reads"
                );
            }
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "single-writer window never observed; last writers: {writers:?}"
        );
    }
    cluster.shutdown();
}

#[test]
fn alg2_everyone_writes_on_threads() {
    let scenario = scenario_for(OmegaVariant::Alg2, 3);
    let outcome = threads(&scenario).run(&scenario);
    outcome.assert_election();
    let tail = outcome.tail.as_ref().expect("tail captured");
    assert_eq!(
        tail.writers.len(),
        3,
        "Corollary 1 on real threads: every correct process writes"
    );
}

#[test]
fn replicated_kv_on_threads_with_failover() {
    // Ω runs inside the cluster; replication runs on separate app threads,
    // feeding each replica the co-located node's live leader estimate.
    let n = 3;
    let scenario = scenario_for(OmegaVariant::Alg1, n);
    let (cluster, _) = threads(&scenario).launch(&scenario, |_, _| Vec::new());
    let cluster = Arc::new(cluster);
    let _ = cluster
        .await_stable_leader(WINDOW, DEADLINE)
        .expect("elects");

    let shared = LogShared::<KvCommand>::new(cluster.space().clone());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut apps = Vec::new();
    for pid in ProcessId::all(n) {
        let shared = Arc::clone(&shared);
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        apps.push(std::thread::spawn(move || {
            let mut handle = LogHandle::new(shared, pid);
            handle.submit(KvCommand::Put(
                format!("key-{}", pid.index()).into(),
                pid.index() as u64,
            ));
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                if let Some(leader) = cluster.node(pid).cached_leader() {
                    handle.step(leader);
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            handle.committed().to_vec()
        }));
    }

    // Let some commands commit, then crash the leader and keep going.
    std::thread::sleep(Duration::from_millis(150));
    let crashed = cluster.crash_current_leader().expect("has a leader");
    let _ = cluster
        .await_stable_leader(WINDOW, DEADLINE)
        .expect("re-elects");
    // Liveness is *eventual*: poll the shared log until every survivor's
    // command has a decided slot (bounded by DEADLINE) rather than hoping a
    // fixed sleep suffices under CPU contention.
    let wanted: Vec<KvCommand> = ProcessId::all(n)
        .filter(|&q| q != crashed)
        .map(|pid| KvCommand::Put(format!("key-{}", pid.index()).into(), pid.index() as u64))
        .collect();
    let poll_deadline = std::time::Instant::now() + DEADLINE;
    loop {
        let decided: Vec<KvCommand> = (0..shared.allocated_slots())
            .filter_map(|k| shared.instance(k).peek_decision())
            .collect();
        if wanted.iter().all(|cmd| decided.contains(cmd)) {
            break;
        }
        assert!(
            std::time::Instant::now() < poll_deadline,
            "survivors' commands never committed; decided so far: {decided:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Give the app threads a moment to fold the decided slots into their
    // own committed lists before stopping them.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Release);

    let logs: Vec<Vec<KvCommand>> = apps.into_iter().map(|h| h.join().unwrap()).collect();
    // Prefix consistency across replicas.
    for a in 0..n {
        for b in (a + 1)..n {
            let (short, long) = if logs[a].len() <= logs[b].len() {
                (&logs[a], &logs[b])
            } else {
                (&logs[b], &logs[a])
            };
            assert_eq!(&short[..], &long[..short.len()], "replica logs diverged");
        }
    }
    // The longest log contains at least the survivors' commands. Note the
    // *node* crashed but the app thread keeps stepping — its queued command
    // may or may not commit; survivors' must.
    let longest = logs.iter().max_by_key(|l| l.len()).unwrap();
    for pid in ProcessId::all(n).filter(|&q| q != crashed) {
        let cmd = KvCommand::Put(format!("key-{}", pid.index()).into(), pid.index() as u64);
        assert!(
            longest.contains(&cmd),
            "surviving {pid}'s command missing from the log"
        );
    }
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}
