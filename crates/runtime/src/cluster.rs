//! A full election cluster on real threads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_core::OmegaVariant;
use omega_registers::{plurality, MemorySpace, ProcessId, ProcessSet};

use crate::coop::{CoopConfig, CoopRuntime, CoopTask};
use crate::node::{LeaderProbe, Node, NodeConfig, NodeCore};

/// An `n`-process shared-memory system running one of the Ω variants on
/// operating-system threads or on the cooperative scheduler, optionally
/// hosting application tasks beside the node loops.
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
    /// Present when the nodes are hosted on the cooperative scheduler
    /// instead of dedicated threads; shut down after the nodes halt.
    coop: Option<CoopRuntime>,
    /// The application tasks' own wheel, one worker per task, when the
    /// nodes run on dedicated threads (on the cooperative scheduler the
    /// tasks share the nodes' wheel).
    apps: Option<CoopRuntime>,
}

impl Cluster {
    /// Builds the shared memory for `variant` and spawns `n` nodes.
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

    /// Builds the shared memory for `variant` and hosts `n` nodes on the
    /// cooperative scheduler ([`coop`](crate::coop)): all `2n` task loops
    /// multiplexed over `config.workers` threads instead of `2n` dedicated
    /// ones, each worker owning one deadline-wheel shard (node `i`'s two
    /// loops live on shard `i % workers`) with overdue-task stealing
    /// between them. Everything else — queries, crash injection,
    /// statistics, [`await_stable_leader`](Self::await_stable_leader) —
    /// behaves identically, which is what makes thread-vs-coop outcomes
    /// comparable.
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
    /// `workers` picks the substrate: `None` gives every node its two
    /// dedicated OS threads, `Some(w)` multiplexes the node loops over a
    /// cooperative pool of `w` workers (see [`start_coop`](Self::start_coop)).
    /// `tasks` is called once with the space and one [`LeaderProbe`] per
    /// node (identity order); the application [`CoopTask`]s it returns run
    /// beside the node loops — on the pool's wheel, or without a pool on a
    /// wheel of their own with one worker thread per task — until they
    /// retire or [`shutdown`](Self::shutdown) stops and joins them.
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
        let (nodes, coop, apps) = match workers {
            Some(workers) => {
                let config = CoopConfig {
                    node: config,
                    workers,
                };
                let runtime = CoopRuntime::start(&cores, config, tasks);
                let nodes = cores.into_iter().map(Node::hosted).collect();
                (nodes, Some(runtime), None)
            }
            None => {
                let nodes = cores
                    .into_iter()
                    .map(|core| Node::threaded(core, config))
                    .collect();
                // A wheel with one worker per task: every task on a thread
                // of its own, parked until its deadline.
                let workers = tasks.len();
                let apps = (workers > 0).then(|| {
                    CoopRuntime::start(
                        &[],
                        CoopConfig {
                            node: config,
                            workers,
                        },
                        tasks,
                    )
                });
                (nodes, None, apps)
            }
        };
        Cluster {
            space: space.clone(),
            nodes,
            variant,
            coop,
            apps,
        }
    }

    /// The cooperative pool's worker count, or `None` when every node runs
    /// on threads of its own.
    #[must_use]
    pub fn workers(&self) -> Option<usize> {
        self.coop.as_ref().map(CoopRuntime::workers)
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

    /// Per-process `T2` step counts, in identity order (the thread-runtime
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
    /// timer expirations) — the thread-runtime analogue of the simulator's
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
            let estimates = self.leaders();
            observe(&estimates);
            let correct = self.correct();
            let mut live = correct.iter().map(|p| estimates[p.index()]);
            let agreed = match live.next().flatten() {
                Some(leader) if correct.contains(leader) && live.all(|e| e == Some(leader)) => {
                    Some(leader)
                }
                _ => None,
            };
            match (agreed, agreed_since) {
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

    /// Stops every node and application task and joins their threads
    /// (dedicated, or the cooperative workers hosting them).
    pub fn shutdown(mut self) {
        for node in &mut self.nodes {
            node.shutdown();
        }
        for mut runtime in [self.apps.take(), self.coop.take()].into_iter().flatten() {
            runtime.shutdown();
        }
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
        // only after shutdown: with node threads joined, both counters are
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
        // n = 24 would mean 48 OS threads on the thread substrate — the
        // size class the wall-clock backends used to refuse. On coop it is
        // one worker thread, and the election still settles.
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
        assert_eq!(cluster.workers(), None, "threads, not a pool");
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
