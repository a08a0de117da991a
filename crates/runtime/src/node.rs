//! One Ω process running on real operating-system threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omega_core::OmegaProcess;
use omega_registers::sync::Mutex;
use omega_registers::ProcessId;

use crate::san::SanLatency;

/// Real-time pacing of a node's two background tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Pause between consecutive `T2` iterations. This is the node's
    /// heartbeat cadence; the OS scheduler's fairness plays the role of the
    /// AWB₁ assumption.
    pub step_interval: Duration,
    /// Real-time length of one abstract timeout unit: a timeout value `x`
    /// from the algorithm sleeps `x × tick`. A faithful (hence trivially
    /// asymptotically well-behaved) timer.
    pub tick: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            step_interval: Duration::from_micros(300),
            tick: Duration::from_micros(500),
        }
    }
}

impl NodeConfig {
    /// Pacing that mimics registers on a storage-area network: accesses are
    /// orders of magnitude slower than local memory, so both the heartbeat
    /// cadence and the timeout unit stretch accordingly.
    ///
    /// This is the **canonical** SAN pacing profile (the scenario crate's
    /// `WallDriver` stretches a scenario's pinned disk latency from it),
    /// and it is exactly [`san_paced`](Self::san_paced) at
    /// [`SanLatency::commodity`] — the anchor the stretch is calibrated on.
    #[must_use]
    pub fn san_like() -> Self {
        NodeConfig {
            step_interval: Duration::from_millis(3),
            tick: Duration::from_millis(5),
        }
    }

    /// Pacing stretched to a specific disk latency model: heartbeat
    /// cadence and timeout unit scale linearly with the model's expected
    /// access time, anchored so that [`SanLatency::commodity`] yields
    /// exactly [`san_like`](Self::san_like), and floored at
    /// [`NodeConfig::default`] so fast disks (or
    /// [`SanLatency::instant`], the test profile) never pace *tighter*
    /// than local memory.
    ///
    /// Stretching both knobs by the same factor is what keeps the
    /// election correct on slow media: the algorithms' assumptions (AWB)
    /// only relate step cadence to timeout units, never to absolute time.
    #[must_use]
    pub fn san_paced(latency: SanLatency) -> Self {
        let anchor = SanLatency::commodity().expected();
        let ratio = latency.expected().as_secs_f64() / anchor.as_secs_f64();
        let stretched = NodeConfig::san_like();
        let floor = NodeConfig::default();
        NodeConfig {
            step_interval: stretched
                .step_interval
                .mul_f64(ratio)
                .max(floor.step_interval),
            tick: stretched.tick.mul_f64(ratio).max(floor.tick),
        }
    }

    /// Wall-clock length of an abstract timeout value: `timeout × tick`,
    /// saturating. Saturation matters for the step-clock variant, which
    /// arms its real timer once with `NEVER_TIMEOUT` — that must clamp to
    /// a far-future deadline, not truncate to a near one.
    #[must_use]
    pub fn timer_span(&self, timeout: u64) -> Duration {
        self.tick
            .saturating_mul(u32::try_from(timeout).unwrap_or(u32::MAX))
    }
}

/// The substrate-independent half of a node: the Ω process behind a lock,
/// the crash/stop flags, the task counters, and a parker for timed waits.
///
/// Both hosting substrates drive the paper's tasks through the same two
/// re-entrant entry points — [`poll_step`](NodeCore::poll_step) (one `T2`
/// iteration) and [`poll_scan`](NodeCore::poll_scan) (one `T3` expiry) — so
/// the dedicated-thread host ([`Node::spawn`]) and the cooperative
/// scheduler ([`coop`](crate::coop)) execute byte-identical task bodies and
/// differ only in *when* they call them.
pub(crate) struct NodeCore {
    pid: ProcessId,
    process: Mutex<Box<dyn OmegaProcess>>,
    crashed: AtomicBool,
    stop: AtomicBool,
    steps: AtomicU64,
    timer_fires: AtomicU64,
    /// Parker for the `T3` thread's timed wait: `crash`/`halt` notify it so
    /// a node with a long-armed timer reacts immediately instead of at the
    /// next slice of a busy-sleep.
    wake_lock: std::sync::Mutex<()>,
    wake_cv: std::sync::Condvar,
}

impl NodeCore {
    pub(crate) fn new(process: Box<dyn OmegaProcess>) -> Arc<Self> {
        Arc::new(NodeCore {
            pid: process.pid(),
            process: Mutex::new(process),
            crashed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            steps: AtomicU64::new(0),
            timer_fires: AtomicU64::new(0),
            wake_lock: std::sync::Mutex::new(()),
            wake_cv: std::sync::Condvar::new(),
        })
    }

    pub(crate) fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Whether the node must take no further steps (crash-stopped or shut
    /// down).
    pub(crate) fn halted(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.crashed.load(Ordering::Acquire)
    }

    /// One `T2` heartbeat iteration. Returns `false` — without stepping —
    /// once the node has halted; the host then retires the task.
    pub(crate) fn poll_step(&self) -> bool {
        if self.halted() {
            return false;
        }
        self.process.lock().t2_step();
        self.steps.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One `T3` timer expiry. Returns the next timeout value (in abstract
    /// units, at least 1) to re-arm with, or `None` once the node has
    /// halted.
    pub(crate) fn poll_scan(&self) -> Option<u64> {
        if self.halted() {
            return None;
        }
        let next = self.process.lock().on_timer_expire().max(1);
        self.timer_fires.fetch_add(1, Ordering::Relaxed);
        Some(next)
    }

    /// Timeout value for the first arming of the timer.
    pub(crate) fn initial_timeout(&self) -> u64 {
        self.process.lock().initial_timeout().max(1)
    }

    pub(crate) fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    pub(crate) fn timer_fires(&self) -> u64 {
        self.timer_fires.load(Ordering::Relaxed)
    }

    pub(crate) fn leader(&self) -> ProcessId {
        self.process.lock().leader()
    }

    pub(crate) fn cached_leader(&self) -> Option<ProcessId> {
        self.process.lock().cached_leader()
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    pub(crate) fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        self.wake();
    }

    pub(crate) fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake();
    }

    fn wake(&self) {
        // Taking the lock orders the flag store before any waiter's next
        // check: a T3 thread between its `halted()` test and its
        // `wait_timeout` holds the lock, so the notification cannot slip
        // into that gap unseen.
        drop(
            self.wake_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.wake_cv.notify_all();
    }

    /// Parks the calling thread until `deadline` or a wakeup. Returns
    /// `true` when the node halted during (or before) the wait — the
    /// caller must then exit instead of firing its timer.
    pub(crate) fn park_until(&self, deadline: Instant) -> bool {
        let mut guard = self
            .wake_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if self.halted() {
                return true;
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|r| !r.is_zero())
            else {
                return false;
            };
            let (g, _) = self
                .wake_cv
                .wait_timeout(guard, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = g;
        }
    }
}

/// A cheap, clonable, thread-safe view of one node's leader estimate and
/// crash status — what a co-located application (a replicated service's
/// per-node work loop, a client router) consults to gate its actions on Ω
/// without owning the [`Node`] itself.
///
/// Obtained from [`Node::probe`]; remains valid after the node crashes
/// (reporting the crash) and across either hosting substrate.
#[derive(Clone)]
pub struct LeaderProbe {
    core: Arc<NodeCore>,
}

impl LeaderProbe {
    pub(crate) fn new(core: Arc<NodeCore>) -> Self {
        LeaderProbe { core }
    }

    /// The probed node's identity.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.core.pid()
    }

    /// The estimate cached by the node's last `T2` iteration, or `None`
    /// once the node has crashed. No shared-memory reads.
    #[must_use]
    pub fn leader(&self) -> Option<ProcessId> {
        if self.core.is_crashed() {
            return None;
        }
        self.core.cached_leader()
    }

    /// Whether the probed node has crash-stopped.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed()
    }
}

impl std::fmt::Debug for LeaderProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderProbe")
            .field("pid", &self.pid())
            .field("crashed", &self.is_crashed())
            .finish()
    }
}

/// A process of the election algorithm hosted on dedicated threads: one for
/// the `T2` heartbeat loop, one for the `T3` timer loop.
///
/// The Ω query [`leader`](Node::leader) can be called from any thread at
/// any time — it is the client-facing primitive. Crashing a node
/// ([`crash`](Node::crash)) halts both task threads permanently, exactly
/// the paper's crash-stop fault model.
///
/// The loop bodies themselves live on the substrate-independent core, so a
/// node can alternatively be hosted on the cooperative scheduler (see
/// [`coop`](crate::coop) and `Cluster::start_coop`) with no thread of its
/// own; such a node answers queries and crash-stops exactly the same way.
pub struct Node {
    core: Arc<NodeCore>,
    threads: Vec<JoinHandle<()>>,
}

impl Node {
    /// Spawns the task threads for `process`.
    #[must_use]
    pub fn spawn(process: Box<dyn OmegaProcess>, config: NodeConfig) -> Self {
        Self::threaded(NodeCore::new(process), config)
    }

    /// Spawns the task threads for an existing core.
    pub(crate) fn threaded(core: Arc<NodeCore>, config: NodeConfig) -> Self {
        let pid = core.pid();

        // Task T2: heartbeat loop.
        let t2 = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("{pid}-t2"))
                .spawn(move || {
                    while core.poll_step() {
                        std::thread::sleep(config.step_interval);
                    }
                })
                .expect("spawn T2 thread")
        };

        // Task T3: timer loop. The wait parks on the node's condvar, so a
        // quiescent node burns no cycles between expirations and still
        // honors crash/stop immediately (the flags notify the parker).
        let t3 = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("{pid}-t3"))
                .spawn(move || {
                    let mut timeout = core.initial_timeout();
                    loop {
                        let deadline = Instant::now() + config.timer_span(timeout);
                        if core.park_until(deadline) {
                            return;
                        }
                        match core.poll_scan() {
                            Some(next) => timeout = next,
                            None => return,
                        }
                    }
                })
                .expect("spawn T3 thread")
        };

        Node {
            core,
            threads: vec![t2, t3],
        }
    }

    /// Wraps an externally hosted core (no threads of its own): the
    /// cooperative runtime drives the task bodies, this handle serves the
    /// queries.
    pub(crate) fn hosted(core: Arc<NodeCore>) -> Self {
        Node {
            core,
            threads: Vec::new(),
        }
    }

    /// This node's process identity.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.core.pid()
    }

    /// A clonable [`LeaderProbe`] onto this node, for application layers
    /// that gate work on the node's Ω output.
    #[must_use]
    pub fn probe(&self) -> LeaderProbe {
        LeaderProbe::new(Arc::clone(&self.core))
    }

    /// The Ω query (task `T1`): the node's current leader estimate.
    ///
    /// Returns `None` if the node has crashed — a crashed process answers
    /// nothing.
    #[must_use]
    pub fn leader(&self) -> Option<ProcessId> {
        if self.is_crashed() {
            return None;
        }
        Some(self.core.leader())
    }

    /// The estimate cached by the last `T2` iteration (cheap; no shared
    /// memory reads).
    #[must_use]
    pub fn cached_leader(&self) -> Option<ProcessId> {
        if self.is_crashed() {
            return None;
        }
        self.core.cached_leader()
    }

    /// Number of `T2` heartbeat iterations executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.core.steps()
    }

    /// Number of `T3` timer expirations handled so far.
    #[must_use]
    pub fn timer_fires(&self) -> u64 {
        self.core.timer_fires()
    }

    /// Crash-stops the node: both tasks halt permanently.
    pub fn crash(&self) {
        self.core.crash();
    }

    /// Whether the node has crashed.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed()
    }

    /// Stops the tasks and waits for any dedicated threads to exit.
    pub fn shutdown(&mut self) {
        self.core.halt();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("pid", &self.pid())
            .field("crashed", &self.is_crashed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::{Alg1Memory, Alg1Process};
    use omega_registers::MemorySpace;

    fn single_node() -> (MemorySpace, Node) {
        let space = MemorySpace::new(1);
        let mem = Alg1Memory::new(&space);
        let process = Box::new(Alg1Process::new(mem, ProcessId::new(0)));
        let node = Node::spawn(process, NodeConfig::default());
        (space, node)
    }

    #[test]
    fn san_pacing_factors_are_pinned() {
        // The canonical profile: 3 ms heartbeat, 5 ms timeout unit. The
        // scenario crate's SAN pacing is stretched from it; there must be
        // exactly one definition of these numbers.
        let like = NodeConfig::san_like();
        assert_eq!(like.step_interval, Duration::from_millis(3));
        assert_eq!(like.tick, Duration::from_millis(5));

        // The stretch is anchored at the commodity profile...
        assert_eq!(NodeConfig::san_paced(SanLatency::commodity()), like);
        // ...scales linearly with expected access time...
        let double = SanLatency {
            base: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
        };
        assert_eq!(
            NodeConfig::san_paced(double),
            NodeConfig {
                step_interval: Duration::from_millis(6),
                tick: Duration::from_millis(10),
            }
        );
        // ...and floors at the default pacing for instant disks.
        assert_eq!(
            NodeConfig::san_paced(SanLatency::instant()),
            NodeConfig::default()
        );
    }

    #[test]
    fn node_runs_and_answers_queries() {
        let (space, mut node) = single_node();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(node.leader(), Some(ProcessId::new(0)));
        assert_eq!(node.pid(), ProcessId::new(0));
        node.shutdown();
        // The single process heartbeated: its PROGRESS register was written.
        assert!(space.stats().total_writes() > 0);
    }

    #[test]
    fn crash_halts_progress() {
        let (space, node) = single_node();
        std::thread::sleep(Duration::from_millis(20));
        node.crash();
        assert!(node.is_crashed());
        assert_eq!(node.leader(), None, "crashed nodes answer nothing");
        // Give threads a moment to observe the flag, then measure quiescence.
        std::thread::sleep(Duration::from_millis(20));
        let before = space.stats().total_writes();
        std::thread::sleep(Duration::from_millis(40));
        let after = space.stats().total_writes();
        assert_eq!(before, after, "a crashed process takes no more steps");
    }

    #[test]
    fn parked_timer_thread_honors_crash_and_shutdown_immediately() {
        // A huge tick arms the first timer deadline hours away. The old
        // loop busy-sliced 5 ms sleeps to stay responsive; the parked wait
        // must instead be *notified* out of the full-length sleep — a join
        // that returns quickly is the proof.
        let space = MemorySpace::new(1);
        let mem = Alg1Memory::new(&space);
        let process = Box::new(Alg1Process::new(mem, ProcessId::new(0)));
        let config = NodeConfig {
            step_interval: Duration::from_micros(300),
            tick: Duration::from_secs(3_600),
        };
        let mut node = Node::spawn(process, config);
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        node.crash();
        node.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "T3 must wake from its parked deadline on crash/stop, not sleep it out"
        );
    }

    #[test]
    fn park_until_sleeps_to_deadline_without_spinning() {
        let space = MemorySpace::new(1);
        let mem = Alg1Memory::new(&space);
        let core = NodeCore::new(Box::new(Alg1Process::new(mem, ProcessId::new(0))));
        let start = Instant::now();
        let halted = core.park_until(start + Duration::from_millis(30));
        assert!(!halted, "no halt was requested");
        assert!(start.elapsed() >= Duration::from_millis(30));
        core.halt();
        assert!(core.park_until(start + Duration::from_secs(3_600)));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let (_space, mut node) = single_node();
        node.shutdown();
        node.shutdown();
        drop(node);
    }

    #[test]
    fn debug_shows_state() {
        let (_space, node) = single_node();
        let out = format!("{node:?}");
        assert!(out.contains("p0"));
    }
}
