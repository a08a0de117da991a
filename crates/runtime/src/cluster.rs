//! A full election cluster on the wall clock.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_core::OmegaVariant;
use omega_registers::{plurality, MemorySpace, ProcessId, ProcessSet};

use crate::coop::{CoopConfig, CoopRuntime, CoopTask};
use crate::node::{LeaderProbe, Node, NodeConfig, NodeCore};

/// An `n`-process shared-memory system running one of the Ω variants on the
/// [`coop`](crate::coop) runtime — a worker thread per task, or a shared
/// pool — optionally hosting application tasks beside the node loops.
///
/// # Examples
///
/// ```no_run
/// use omega_runtime::{Cluster, NodeConfig};
/// use omega_core::OmegaVariant;
/// use std::time::Duration;
///
/// let cluster = Cluster::start(OmegaVariant::Alg1, 4, NodeConfig::default());
/// let leader = cluster
///     .await_stable_leader(Duration::from_millis(50), Duration::from_secs(5))
///     .expect("election settles");
/// println!("elected {leader}");
/// cluster.shutdown();
/// ```
pub struct Cluster {
    space: MemorySpace,
    nodes: Vec<Node>,
    variant: OmegaVariant,
    /// The one engine: every node's two task loops and every application
    /// task, on the runtime's sharded deadline wheel.
    runtime: CoopRuntime,
}

impl Cluster {
    /// Builds the shared memory for `variant` and starts `n` nodes, each of
    /// their `2n` task loops on a worker thread of its own.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn start(variant: OmegaVariant, n: usize, config: NodeConfig) -> Self {
        Self::start_in(variant, &MemorySpace::new(n), config, None, |_, _| {
            Vec::new()
        })
    }

    /// Builds the shared memory for `variant` and multiplexes the `2n` task
    /// loops of its `n` nodes over a pool of `config.workers` threads
    /// instead of one per loop, each worker owning one deadline-wheel shard
    /// (node `i`'s two loops live on shard `i % workers`) with overdue-task
    /// stealing between them. Everything else — queries, crash injection,
    /// statistics, [`await_stable_leader`](Self::await_stable_leader) —
    /// behaves identically, which is what makes per-task and pooled
    /// outcomes comparable.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `config.workers == 0`.
    #[must_use]
    pub fn start_coop(variant: OmegaVariant, n: usize, config: CoopConfig) -> Self {
        Self::start_coop_with(variant, n, config, |_, _| Vec::new())
    }

    /// [`start_coop`](Self::start_coop), plus application tasks on the
    /// same wheel (see [`start_in`](Self::start_in)): a replicated
    /// service's work loops and its client workload pump compete with
    /// election steps for the same workers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `config.workers == 0`.
    #[must_use]
    pub fn start_coop_with(
        variant: OmegaVariant,
        n: usize,
        config: CoopConfig,
        tasks: impl FnOnce(&MemorySpace, &[LeaderProbe]) -> Vec<Box<dyn CoopTask>>,
    ) -> Self {
        let space = MemorySpace::new(n);
        Self::start_in(variant, &space, config.node, Some(config.workers), tasks)
    }

    /// Hosts `variant` over an existing memory space — the one hosting
    /// path every constructor takes, and the entry point for alternative
    /// substrates, e.g. a disk-backed space from
    /// [`SanDisk::memory_space`](crate::san::SanDisk::memory_space) whose
    /// registers live on SAN blocks. The system size is the space's
    /// process count.
    ///
    /// `tasks` is called once with the space and one [`LeaderProbe`] per
    /// node (identity order); the application [`CoopTask`]s it returns run
    /// beside the node loops until they retire or
    /// [`shutdown`](Self::shutdown) stops and joins them. `workers` sizes
    /// the runtime: `None` gives every task — each node's step and timer
    /// loops, each application task — a worker thread of its own (nothing
    /// is stolen: the kernel preempts between them), `Some(w)` shares a
    /// pool of `w` (see [`start_coop`](Self::start_coop)).
    ///
    /// # Panics
    ///
    /// Panics if `workers == Some(0)`.
    #[must_use]
    pub fn start_in(
        variant: OmegaVariant,
        space: &MemorySpace,
        config: NodeConfig,
        workers: Option<usize>,
        tasks: impl FnOnce(&MemorySpace, &[LeaderProbe]) -> Vec<Box<dyn CoopTask>>,
    ) -> Self {
        let cores: Vec<_> = variant
            .build_processes_in(space)
            .into_iter()
            .map(NodeCore::new)
            .collect();
        let probes: Vec<LeaderProbe> = cores
            .iter()
            .map(|core| LeaderProbe::new(Arc::clone(core)))
            .collect();
        let tasks = tasks(space, &probes);
        let config = CoopConfig {
            node: config,
            workers: workers.unwrap_or(2 * cores.len() + tasks.len()),
        };
        let runtime = CoopRuntime::start(&cores, config, tasks);
        Cluster {
            space: space.clone(),
            nodes: cores.into_iter().map(Node::new).collect(),
            variant,
            runtime,
        }
    }

    /// The runtime's worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.runtime.workers()
    }

    /// The variant this cluster runs.
    #[must_use]
    pub fn variant(&self) -> OmegaVariant {
        self.variant
    }

    /// The memory space backing the cluster (for statistics and footprint
    /// inspection).
    #[must_use]
    pub fn space(&self) -> &MemorySpace {
        &self.space
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The node hosting `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn node(&self, pid: ProcessId) -> &Node {
        &self.nodes[pid.index()]
    }

    /// Every live node's current leader estimate (`None` for crashed nodes).
    #[must_use]
    pub fn leaders(&self) -> Vec<Option<ProcessId>> {
        self.nodes.iter().map(Node::cached_leader).collect()
    }

    /// The set of processes that have not crashed.
    #[must_use]
    pub fn correct(&self) -> ProcessSet {
        let mut set = ProcessSet::new(self.n());
        for node in &self.nodes {
            if !node.is_crashed() {
                set.insert(node.pid());
            }
        }
        set
    }

    /// Per-process `T2` step counts, in identity order (the wall-clock
    /// analogue of the simulator's `steps_taken`).
    #[must_use]
    pub fn steps(&self) -> Vec<u64> {
        self.nodes.iter().map(Node::steps).collect()
    }

    /// Per-process `T3` timer-expiry counts, in identity order.
    #[must_use]
    pub fn timer_fires(&self) -> Vec<u64> {
        self.nodes.iter().map(Node::timer_fires).collect()
    }

    /// Total events executed so far across all nodes (`T2` steps plus `T3`
    /// timer expirations) — the wall-clock analogue of the simulator's
    /// `events_processed`, used for throughput reporting.
    #[must_use]
    pub fn events_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.steps() + n.timer_fires()).sum()
    }

    /// Space-wide scan-saving counters: shared reads avoided by the
    /// epoch-validated suspicion caches and sharded `T3` passes executed
    /// (cheap — does not walk the register registry).
    #[must_use]
    pub fn scan_stats(&self) -> omega_registers::ScanStats {
        self.space.scan_counters().snapshot()
    }

    /// The leader in the Ω contract's sense: the identity every correct
    /// node currently reports, if they agree on one and it is correct.
    #[must_use]
    pub fn agreed_leader(&self) -> Option<ProcessId> {
        let correct = self.correct();
        let mut estimates = correct.iter().map(|pid| self.node(pid).cached_leader());
        let first = estimates.next().flatten()?;
        (correct.contains(first) && estimates.all(|e| e == Some(first))).then_some(first)
    }

    /// Crash-stops `pid`.
    pub fn crash(&self, pid: ProcessId) {
        self.nodes[pid.index()].crash();
    }

    /// Crashes the process the (plurality of) live nodes currently trust,
    /// returning its identity, or `None` when no estimate exists yet.
    pub fn crash_current_leader(&self) -> Option<ProcessId> {
        let target = plurality(self.nodes.iter().map(Node::cached_leader))?;
        self.crash(target);
        Some(target)
    }

    /// Polls until every correct node has reported the same correct leader
    /// continuously for `window`, or `timeout` real time has elapsed.
    ///
    /// Returns the agreed leader, or `None` on timeout. Uses the cached
    /// estimates, so polling does not add shared-memory traffic.
    #[must_use]
    pub fn await_stable_leader(&self, window: Duration, timeout: Duration) -> Option<ProcessId> {
        self.await_stable_leader_observing(window, timeout, |_| {})
    }

    /// Like [`await_stable_leader`](Self::await_stable_leader), but invokes
    /// `observe` with every node's current estimate on each poll (~2 ms
    /// cadence) — the hook drivers use to count estimate changes or inject
    /// scripted faults while waiting, without duplicating the agreement
    /// state machine.
    #[must_use]
    pub fn await_stable_leader_observing(
        &self,
        window: Duration,
        timeout: Duration,
        mut observe: impl FnMut(&[Option<ProcessId>]),
    ) -> Option<ProcessId> {
        let start = Instant::now();
        let poll = Duration::from_millis(2);
        let mut agreed_since: Option<(ProcessId, Instant)> = None;
        while start.elapsed() < timeout {
            observe(&self.leaders());
            match (self.agreed_leader(), agreed_since) {
                (Some(leader), Some((prev, since))) if leader == prev => {
                    if since.elapsed() >= window {
                        return Some(leader);
                    }
                }
                (Some(leader), _) => agreed_since = Some((leader, Instant::now())),
                (None, _) => agreed_since = None,
            }
            std::thread::sleep(poll);
        }
        None
    }

    /// Stops every node loop and application task and joins the workers
    /// hosting them.
    pub fn shutdown(mut self) {
        self.runtime.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("variant", &self.variant)
            .field("n", &self.n())
            .field("correct", &self.correct())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fast() -> NodeConfig {
        NodeConfig {
            step_interval: Duration::from_micros(200),
            tick: Duration::from_micros(300),
        }
    }

    #[test]
    fn cluster_elects_a_leader_on_threads() {
        let cluster = Cluster::start(OmegaVariant::Alg1, 4, fast());
        let leader = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("threads must elect a leader");
        assert!(cluster.correct().contains(leader));
        assert_eq!(cluster.n(), 4);
        assert_eq!(cluster.variant(), OmegaVariant::Alg1);
        cluster.shutdown();
    }

    #[test]
    fn alg2_cluster_elects_on_threads() {
        let cluster = Cluster::start(OmegaVariant::Alg2, 3, fast());
        let leader = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("bounded-memory variant elects too");
        assert!(cluster.correct().contains(leader));
        cluster.shutdown();
    }

    #[test]
    fn failover_after_leader_crash() {
        let cluster = Cluster::start(OmegaVariant::Alg1, 3, fast());
        let first = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("initial election");
        let crashed = cluster.crash_current_leader().expect("has a leader");
        assert_eq!(crashed, first);
        let second = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("re-election after crash");
        assert_ne!(second, first, "a crashed process cannot stay leader");
        assert!(cluster.correct().contains(second));
        cluster.shutdown();
    }

    #[test]
    fn the_agreed_leader_is_none_without_a_correct_node_or_agreement() {
        // `await_stable_leader` polls `agreed_leader` until it holds one
        // identity for the whole window.
        let cluster = Cluster::start(OmegaVariant::Alg1, 3, fast());
        let first = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("initial election");
        // The survivors may still report the crashed leader; it is not
        // correct, so it is never the agreed one.
        cluster.crash(first);
        assert_ne!(cluster.agreed_leader(), Some(first));
        let second = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("re-election after the crash");
        assert_ne!(second, first);
        // Leaderless: no correct node is left to report anyone.
        for pid in ProcessId::all(3) {
            cluster.crash(pid);
        }
        assert_eq!(cluster.agreed_leader(), None);
        cluster.shutdown();
    }

    #[test]
    fn cluster_elects_over_a_disk_backed_space() {
        use crate::san::{SanDisk, SanLatency};
        let disk = SanDisk::new(SanLatency::instant(), 5);
        let space = disk.memory_space(3);
        let cluster =
            Cluster::start_in(OmegaVariant::Alg1, &space, fast(), None, |_, _| Vec::new());
        let leader = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("the election works over disk blocks");
        assert!(cluster.correct().contains(leader));
        assert_eq!(space.block_map().unwrap().blocks(), 3 + 3 + 9);
        cluster.shutdown();
        // Every shared register access really went to the disk. Compared
        // only after shutdown: with the workers joined, both counters are
        // quiescent and must agree exactly.
        let stats = space.stats();
        assert_eq!(
            disk.accesses(),
            stats.total_reads() + stats.total_writes(),
            "register and block accounting must agree"
        );
    }

    #[test]
    fn cluster_elects_a_leader_on_the_coop_substrate() {
        let cluster = Cluster::start_coop(OmegaVariant::Alg1, 4, CoopConfig::with_node(fast()));
        let leader = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("the cooperative scheduler must elect a leader");
        assert!(cluster.correct().contains(leader));
        assert!(cluster.events_total() > 0, "tasks retired events");
        cluster.shutdown();
    }

    #[test]
    fn coop_failover_after_leader_crash() {
        let cluster = Cluster::start_coop(OmegaVariant::Alg1, 3, CoopConfig::with_node(fast()));
        let first = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("initial election");
        let crashed = cluster.crash_current_leader().expect("has a leader");
        assert_eq!(crashed, first);
        let second = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("re-election after crash on coop");
        assert_ne!(second, first, "a crashed process cannot stay leader");
        cluster.shutdown();
    }

    #[test]
    fn coop_scales_past_the_dedicated_thread_limit() {
        // n = 24 would mean 48 worker threads with one per task — the size
        // class the per-task backends refuse. On a pool it is one worker
        // thread, and the election still settles.
        let n = 24;
        let cluster = Cluster::start_coop(OmegaVariant::Alg1, n, CoopConfig::with_node(fast()));
        let leader = cluster
            .await_stable_leader(Duration::from_millis(60), Duration::from_secs(30))
            .expect("coop elects beyond the thread wall");
        assert!(cluster.correct().contains(leader));
        assert_eq!(cluster.n(), n);
        assert!(
            cluster.steps().iter().all(|&s| s > 0),
            "every multiplexed node stepped"
        );
        cluster.shutdown();
    }

    #[test]
    fn coop_worker_pool_shards_the_cluster_and_still_elects() {
        // Same size class, but on a four-worker pool: the 48 task loops
        // shard twelve-per-wheel, and the election must settle exactly as
        // it does single-worker — sharding is a scheduling change, not an
        // algorithm change.
        let n = 24;
        let config = CoopConfig {
            node: fast(),
            workers: 4,
        };
        let cluster = Cluster::start_coop(OmegaVariant::Alg1, n, config);
        let leader = cluster
            .await_stable_leader(Duration::from_millis(60), Duration::from_secs(30))
            .expect("coop elects on a sharded worker pool");
        assert!(cluster.correct().contains(leader));
        assert!(
            cluster.steps().iter().all(|&s| s > 0),
            "every node stepped on its shard"
        );
        cluster.shutdown();
    }

    #[test]
    fn coop_cluster_elects_over_a_disk_backed_space() {
        use crate::san::{SanDisk, SanLatency};
        let disk = SanDisk::new(SanLatency::instant(), 5);
        let space = disk.memory_space(3);
        let cluster = Cluster::start_in(OmegaVariant::Alg1, &space, fast(), Some(1), |_, _| {
            Vec::new()
        });
        let leader = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("coop over disk blocks elects");
        assert!(cluster.correct().contains(leader));
        cluster.shutdown();
        let stats = space.stats();
        assert_eq!(
            disk.accesses(),
            stats.total_reads() + stats.total_writes(),
            "register and block accounting must agree on coop too"
        );
    }

    #[test]
    fn without_a_pool_every_task_runs_on_a_worker_of_its_own() {
        // A node's step and timer loops each get a worker, as the dedicated
        // threads they replace had, and nothing is stolen — not even on a
        // 1–2 ms disk, where a step holds the node's lock across accesses
        // and a stolen loop would only block on it. A pool of exactly 2n
        // is the same topology: the runtime picks it from the pool size.
        use crate::san::{SanDisk, SanLatency};
        let latency = SanLatency {
            base: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
        };
        for workers in [None, Some(2 * 3)] {
            let disk = SanDisk::new(latency, 5);
            let space = disk.memory_space(3);
            let config = NodeConfig::san_paced(latency);
            let cluster = Cluster::start_in(OmegaVariant::Alg1, &space, config, workers, |_, _| {
                Vec::new()
            });
            assert_eq!(cluster.workers(), 2 * 3, "{workers:?}");
            std::thread::sleep(Duration::from_millis(300));
            let stats = cluster.runtime.shard_stats();
            cluster.shutdown();
            assert!(
                stats.iter().all(|s| s.polls > 0 && s.steals == 0),
                "{workers:?}: every loop polled on its own worker only: {stats:?}"
            );
        }
    }

    /// An application task that counts its polls and retires after
    /// `retire_after` of them (never, with `None`).
    struct Counted {
        polls: Arc<AtomicU64>,
        retire_after: Option<u64>,
        cadence: Duration,
    }

    impl CoopTask for Counted {
        fn poll(&mut self) -> Option<Instant> {
            let polled = self.polls.fetch_add(1, Ordering::Relaxed) + 1;
            (self.retire_after != Some(polled)).then(|| Instant::now() + self.cadence)
        }
    }

    /// Waits up to 10 s for `done`.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_pool_beyond_the_task_count_runs_a_worker_per_task() {
        // n = 2 is four tasks; 36 more workers would own empty shards.
        let config = CoopConfig {
            node: fast(),
            workers: 40,
        };
        let cluster = Cluster::start_coop(OmegaVariant::Alg1, 2, config);
        assert_eq!(cluster.workers(), 2 * 2, "one worker per task");
        let polled = || cluster.runtime.shard_stats().iter().all(|s| s.polls > 0);
        eventually("every shard is polled", polled);
        assert_eq!(cluster.runtime.shard_stats().len(), 2 * 2);
        cluster.shutdown();
    }

    #[test]
    fn application_tasks_under_threads_are_polled_retire_and_are_joined() {
        let (brief, parked) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let cluster = Cluster::start_in(
            OmegaVariant::Alg1,
            &MemorySpace::new(2),
            fast(),
            None,
            |space, probes| {
                assert_eq!((space.n_processes(), probes.len()), (2, 2));
                vec![
                    Box::new(Counted {
                        polls: Arc::clone(&brief),
                        retire_after: Some(5),
                        cadence: Duration::from_millis(1),
                    }),
                    Box::new(Counted {
                        polls: Arc::clone(&parked),
                        retire_after: None,
                        cadence: Duration::from_secs(3_600),
                    }),
                ]
            },
        );
        assert_eq!(cluster.workers(), 2 * 2 + 2, "a worker per task");
        // A task that returns `None` retires: its host drops it.
        eventually("the brief task retires", || Arc::strong_count(&brief) == 1);
        assert_eq!(brief.load(Ordering::Relaxed), 5, "polled until it retired");
        // The other parks an hour out after its first poll.
        eventually("the parked task is polled", || {
            parked.load(Ordering::Relaxed) == 1
        });
        assert_eq!(Arc::strong_count(&parked), 2, "still hosted");
        let start = Instant::now();
        cluster.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown wakes a parked task instead of sleeping it out"
        );
        assert_eq!(
            Arc::strong_count(&parked),
            1,
            "joined: no worker is left holding its task"
        );
        assert_eq!(parked.load(Ordering::Relaxed), 1, "never polled again");
    }

    #[test]
    fn leaders_view_reports_crashed_nodes_as_none() {
        let cluster = Cluster::start(OmegaVariant::Alg1, 3, fast());
        cluster.crash(ProcessId::new(2));
        std::thread::sleep(Duration::from_millis(10));
        let leaders = cluster.leaders();
        assert_eq!(leaders[2], None);
        assert_eq!(cluster.correct().len(), 2);
        let dbg = format!("{cluster:?}");
        assert!(dbg.contains("Alg1"));
        cluster.shutdown();
    }
}
