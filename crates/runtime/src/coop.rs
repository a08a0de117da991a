//! Cooperative task runtime: every node loop as a polled task on a
//! sharded deadline wheel — the one engine every wall-clock substrate runs
//! on.
//!
//! A node's two tasks (`T2` heartbeat, `T3` timer) are the node core's
//! `poll_step`/`poll_scan` entry points; each is re-armed with a wall-clock
//! deadline after every poll, and a timer wheel — the simulator's generic
//! [`TimerWheel`], the engine behind its `EventQueue`, here keyed by
//! microseconds instead of virtual ticks — hands a worker the next due
//! task in O(1). The substrates differ only in pool size:
//!
//! * **one worker per task** — [`Cluster::start`](crate::Cluster::start),
//!   the scenario crate's `san` backend, and its `coop` backend whenever
//!   `--workers` covers the task set: a node's step loop, its timer loop
//!   and every application task each park on a worker thread of their
//!   own, and nothing is stolen, so the kernel's preemption is the
//!   schedule and that substrate stays the preemptive one. `2n` workers is
//!   also why the SAN stops at small `n`. (Not one worker per node: a
//!   worker that carries both of a node's loops is woken later by the
//!   kernel than one that only heartbeats, and on a 2-core host the
//!   `fault-free` and `fault-free-large` per-task records then stabilized
//!   at a median of 370 and 872 ticks over 20 runs, where a worker per
//!   loop read 92 and 154 in the same runs.)
//! * **a small pool** — [`Cluster::start_coop`](crate::Cluster::start_coop),
//!   the `coop` backend below the task count: all `2n` loops multiplexed
//!   over a few workers, so real-time elections scale to hundreds of
//!   nodes.
//!
//! # Sharding
//!
//! One shared wheel caps the runtime at `n = 128`: every pop and re-arm
//! crosses one global lock, and one worker cannot retire 512 task polls
//! per 100 µs tick — exactly the shared-structure contention the
//! write-contention lower bounds (Alistarh–Gelashvili, PAPERS.md) point
//! at. So the queue is **sharded per worker**: worker `w` owns a private
//! [`DeadlineQueue`] holding the tasks affine to it (node `i`'s step and
//! timer loops both live on shard `i mod workers`, so a node's two loops
//! never cross shards), pops it under a lock no other thread touches in
//! the common case, and parks on a **per-shard condvar** that only its
//! own re-arms (and targeted help requests, below) ever notify — a
//! sibling arming a far timer cannot busy-wake an idle worker.
//!
//! Fairness, the property the AWB assumption actually needs, still comes
//! from pop order: each shard serves exact `(deadline, arming order)`
//! sequence, and two mechanisms keep that discipline *global* under
//! overload instead of per-shard:
//!
//! * **Overdue-task stealing** — a worker with nothing due locally scans
//!   sibling shards for tasks at least `STEAL_LAG_SLOTS` slots overdue
//!   and runs the earliest one on the victim's behalf (the task re-arms
//!   back into its home shard, so affinity is stable). A worker that pops
//!   a task and still sees an overdue backlog behind it nudges exactly
//!   one sibling's condvar to come help, so idle capacity drains hot
//!   shards without a thundering herd.
//! * **Adaptive tick** — under sustained overload (dispatch lag beyond
//!   `STRETCH_LAG_SLOTS` slots, poll after poll) the effective slot
//!   width stretches by powers of two up to `STRETCH_MAX_SHIFT`:
//!   re-arm deadlines quantize to coarser slot multiples, which batches
//!   wakeups into bigger same-key FIFO runs — the wheel degrades into
//!   explicit round-robin over the overdue set rather than silently
//!   falling further behind. Keys stay in `SLOT_US` units throughout,
//!   so stretched and unstretched deadlines remain globally comparable,
//!   and rounding still only ever moves a deadline *later*. The stretch
//!   decays once dispatch runs on time again — on time for the stretched
//!   slot, since the batch a wide slot gathers cannot all pop in its
//!   first 64 µs.
//!
//! Under overload the pool therefore degrades into round-robin over the
//! overdue tasks instead of starving anyone — a *different* fairness
//! regime from the OS scheduler's, which is exactly what makes pooled
//! outcomes worth comparing against one worker per task.
//!
//! The scenario crate's `WallDriver` wires both pool shapes into the
//! declarative scenario suite.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omega_sim::wheel::TimerWheel;

use crate::node::{NodeConfig, NodeCore};

/// Wheel granularity: deadlines are quantized up to 64 µs slots. Coarser
/// than the simulator's 1-tick slots because wall-clock deadlines are
/// real-valued; 64 µs is well under every pacing profile's step interval,
/// so quantization never reorders two meaningfully different deadlines.
const SLOT_US: u64 = 64;

/// A sibling shard's head becomes stealable once it is at least this many
/// slots overdue. The owner keeps first claim on just-due work (preserving
/// its exact local order); only work that is demonstrably backing up
/// migrates, so steals reorder the global sequence by at most this window
/// plus the dispatch lag.
const STEAL_LAG_SLOTS: u64 = 2;

/// Dispatch lag (slots between a task's deadline and the moment a worker
/// actually popped it) beyond which a poll counts as overloaded for the
/// adaptive tick.
const STRETCH_LAG_SLOTS: u64 = 8;

/// Maximum slot stretch: the effective slot width grows by powers of two
/// up to `SLOT_US << STRETCH_MAX_SHIFT` (1 ms) under sustained overload.
const STRETCH_MAX_SHIFT: u32 = 4;

/// Consecutive overloaded dispatches before the slot stretches one notch.
const STRETCH_UP_STREAK: u32 = 64;

/// Consecutive on-time dispatches before the slot relaxes one notch —
/// deliberately slower than the stretch so a marginal load does not
/// oscillate.
const STRETCH_DOWN_STREAK: u32 = 256;

/// Park bound while the head deadline is unrepresentably far (astronomic
/// timeouts like the step-clock variant's `NEVER_TIMEOUT`): stay
/// notifiable, re-check as a backstop.
const FAR_PARK: Duration = Duration::from_secs(3_600);

/// A timer wheel of wall-clock deadlines: one shard of the cooperative
/// runtime's ready queue (and, with a single worker, all of it).
///
/// This is the runtime's instantiation of the simulator's generic
/// [`TimerWheel`] (one shared implementation of the bucket wheel, the
/// far/overdue heap fallback, and the exact `(key, seq)` pop order), keyed
/// by quantized microseconds-since-start and carrying a task id instead of
/// a simulation event. Pop order is **exactly** the order a reference
/// `(key, seq)` heap would produce; a seeded property test in this module
/// pins that equivalence on this instantiation too, and a second one pins
/// the k-shard + stealing composition against the single-wheel reference.
///
/// # Examples
///
/// ```
/// use omega_runtime::coop::DeadlineQueue;
///
/// let mut q = DeadlineQueue::new();
/// q.push(50, 0); // task 0 due at key 50
/// q.push(20, 1); // task 1 due earlier
/// assert_eq!(q.pop(), Some((20, 1)));
/// assert_eq!(q.pop(), Some((50, 0)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct DeadlineQueue {
    wheel: TimerWheel<usize>,
}

impl DeadlineQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        DeadlineQueue {
            wheel: TimerWheel::new(),
        }
    }

    /// Schedules `task` to wake at `key`. Entries pushed earlier sort
    /// first among equal keys.
    pub fn push(&mut self, key: u64, task: usize) {
        self.wheel.push(key, task);
    }

    /// Removes and returns the earliest `(key, task)`.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.wheel.pop().map(|(key, _seq, task)| (key, task))
    }

    /// The key of the earliest pending wakeup.
    #[must_use]
    pub fn peek_key(&self) -> Option<u64> {
        self.wheel.peek_key()
    }

    /// Number of pending wakeups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no wakeups are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

/// An application task hosted *alongside* the node loops — e.g. a
/// replicated service's per-node work loop or a client workload pump.
///
/// The contract mirrors the node tasks': each [`poll`](CoopTask::poll) does
/// one bounded chunk of work and returns the wall-clock deadline it wants
/// to run next at, or `None` to retire permanently. Polls are serialized
/// per task (the scheduler takes the task out of its slot while it runs),
/// so `&mut self` state needs no further synchronization. Deadlines share
/// the exact `(deadline, arming order)` fairness of the node loops: on a
/// pool, client work competes with election work for the same workers, as
/// it would on a real box; without one
/// ([`Cluster::start_in`](crate::Cluster::start_in) with `workers: None`)
/// each task gets a worker of its own, parked until its deadline.
pub trait CoopTask: Send {
    /// Runs one chunk; returns the next deadline or `None` to retire.
    fn poll(&mut self) -> Option<Instant>;
}

/// One multiplexed task: a node loop, or an external application task.
enum Task {
    /// The `T2` heartbeat loop: poll, re-arm `step_interval` later.
    Step(Arc<NodeCore>),
    /// The `T3` timer loop: poll at the armed deadline, re-arm `timeout ×
    /// tick` later.
    Timer(Arc<NodeCore>),
    /// An application task with self-chosen deadlines.
    External(Box<dyn CoopTask>),
}

impl Task {
    /// Executes one poll; returns the next wall-clock deadline, or `None`
    /// when the task retires (node halted, or external task done).
    fn run(&mut self, config: &NodeConfig) -> Option<Instant> {
        match self {
            Task::Step(core) => core
                .poll_step()
                .then(|| Instant::now() + config.step_interval),
            Task::Timer(core) => core
                .poll_scan()
                .map(|timeout| Instant::now() + config.timer_span(timeout)),
            Task::External(task) => task.poll(),
        }
    }
}

/// Pacing and sizing of a cooperative runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoopConfig {
    /// Per-node pacing.
    pub node: NodeConfig,
    /// Worker threads multiplexing the task set, one wheel shard each.
    /// One worker (the default) makes the whole cluster single-threaded
    /// and maximally fair; a pool shards the queue and adds parallelism
    /// without a thread per task.
    pub workers: usize,
}

impl Default for CoopConfig {
    fn default() -> Self {
        CoopConfig {
            node: NodeConfig::default(),
            workers: 1,
        }
    }
}

impl CoopConfig {
    /// A single-worker runtime at the given node pacing.
    #[must_use]
    pub fn with_node(node: NodeConfig) -> Self {
        CoopConfig { node, workers: 1 }
    }
}

/// Observability counters for one shard's worker, snapshotted by
/// [`CoopRuntime::shard_stats`]. The per-shard parking regression test
/// pins the wakeup discipline on these; benches may report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Tasks the owning worker dispatched from its local shard.
    pub polls: u64,
    /// Overdue tasks this worker ran on a sibling shard's behalf.
    pub steals: u64,
    /// Times the owner's park returned (notify or timeout). An idle
    /// worker next to a busy sibling should accrue none of these.
    pub wakes: u64,
}

/// Adaptive slot stretch shared by all shards: sustained dispatch lag
/// widens the effective slot, on-time dispatch narrows it back. Keys stay
/// in [`SLOT_US`] units at every stretch level, so entries armed under
/// different stretches remain comparable on the same wheel.
struct TickStretch {
    shift: AtomicU32,
    overdue_streak: AtomicU32,
    ontime_streak: AtomicU32,
}

impl TickStretch {
    fn new() -> Self {
        TickStretch {
            shift: AtomicU32::new(0),
            overdue_streak: AtomicU32::new(0),
            ontime_streak: AtomicU32::new(0),
        }
    }

    fn shift(&self) -> u32 {
        self.shift.load(Ordering::Relaxed)
    }

    /// Records the dispatch lag of one pop (slots between deadline and
    /// dispatch) and adapts the stretch. A pop is on time when it comes
    /// within the *effective* slot its key was rounded up to: under stretch
    /// `2^shift` base slots share one key, so all of such a batch but its
    /// head is late in base slots by construction. Asking for zero of those
    /// would let the batching starve its own decay: one transient (the
    /// cold-start burst, a descheduled worker) would latch the wheel at the
    /// widest slot for the rest of the runtime's life. Lag beyond that but
    /// within [`STRETCH_LAG_SLOTS`] is scheduling jitter and moves neither
    /// streak.
    fn observe(&self, lag_slots: u64) {
        if lag_slots > STRETCH_LAG_SLOTS {
            self.ontime_streak.store(0, Ordering::Relaxed);
            if self.overdue_streak.fetch_add(1, Ordering::Relaxed) + 1 >= STRETCH_UP_STREAK {
                self.overdue_streak.store(0, Ordering::Relaxed);
                let _ = self
                    .shift
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                        (s < STRETCH_MAX_SHIFT).then_some(s + 1)
                    });
            }
        } else if lag_slots >> self.shift() == 0 {
            self.overdue_streak.store(0, Ordering::Relaxed);
            if self.ontime_streak.fetch_add(1, Ordering::Relaxed) + 1 >= STRETCH_DOWN_STREAK {
                self.ontime_streak.store(0, Ordering::Relaxed);
                let _ = self
                    .shift
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                        (s > 0).then(|| s - 1)
                    });
            }
        }
    }
}

#[derive(Default)]
struct ShardCounters {
    polls: AtomicU64,
    steals: AtomicU64,
    wakes: AtomicU64,
}

struct ShardState {
    /// Deadline wheel over this shard's tasks, keyed in [`SLOT_US`]
    /// slots, carrying indices into `tasks`.
    queue: DeadlineQueue,
    /// Task slab, shard-local ids; `None` while a task executes on some
    /// worker or after it retired.
    tasks: Vec<Option<Task>>,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Parker for the owning worker only — re-arms notify it exactly when
    /// the shard's head moved earlier, and overloaded siblings nudge it
    /// to come steal; nothing else ever wakes it.
    cv: Condvar,
    counters: ShardCounters,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_lock(&self) -> Option<MutexGuard<'_, ShardState>> {
        match self.state.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

struct Inner {
    /// Origin of the deadline keys: key `k` means `start + k × SLOT_US µs`.
    start: Instant,
    config: NodeConfig,
    shards: Vec<Shard>,
    /// Tasks not yet retired, pool-wide (executing tasks count as live).
    live: AtomicUsize,
    stop: AtomicBool,
    /// Whether idle workers steal overdue siblings' heads: only a pool
    /// smaller than its task set. With a worker per task there is no
    /// backlog to balance, only a descheduled worker, and the kernel's
    /// preemption is the schedule that substrate exists to keep.
    steals: bool,
    stretch: TickStretch,
    /// Round-robin cursor spreading help requests across siblings.
    help_cursor: AtomicUsize,
}

/// Quantizes a wall-clock deadline to a wheel key (slots of [`SLOT_US`]
/// past `start`), rounding up so a wakeup never fires before its deadline.
/// Under stretch the deadline rounds up to the next multiple of
/// `SLOT_US << stretch_shift`; the key is still expressed in plain
/// [`SLOT_US`] slots, so keys armed under different stretches compare.
fn key_for(start: Instant, deadline: Instant, stretch_shift: u32) -> u64 {
    let micros = u64::try_from(
        deadline
            .saturating_duration_since(start)
            .as_micros()
            .min(u128::from(u64::MAX)),
    )
    .expect("clamped to u64::MAX");
    micros.div_ceil(SLOT_US << stretch_shift) << stretch_shift
}

/// The wall-clock instant a key stands for; `None` when it lies beyond
/// what `Instant` arithmetic can represent (astronomic timeouts like the
/// step-clock variant's `NEVER_TIMEOUT`).
fn wake_time(start: Instant, key: u64) -> Option<Instant> {
    let micros = key.checked_mul(SLOT_US)?;
    start.checked_add(Duration::from_micros(micros))
}

impl Inner {
    fn key_of(&self, deadline: Instant) -> u64 {
        key_for(self.start, deadline, self.stretch.shift())
    }

    /// The current wall clock in whole elapsed slots (rounded down: a key
    /// equal to `now_key` is due).
    fn now_key(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros().min(u128::from(u64::MAX)))
            .expect("clamped to u64::MAX")
            / SLOT_US
    }

    fn wake_time(&self, key: u64) -> Option<Instant> {
        wake_time(self.start, key)
    }

    fn notify_all(&self) {
        for shard in &self.shards {
            shard.cv.notify_all();
        }
    }

    /// Nudges one sibling of `me` to come steal: called when `me`'s owner
    /// popped a task and still saw an overdue backlog behind it. Exactly
    /// one targeted notify (round-robin over siblings) — idle workers next
    /// to a healthy pool stay parked.
    fn ask_for_help(&self, me: usize) {
        if !self.steals {
            return;
        }
        let k = self.shards.len();
        let mut target = self.help_cursor.fetch_add(1, Ordering::Relaxed) % k;
        if target == me {
            target = (target + 1) % k;
        }
        self.shards[target].cv.notify_one();
    }

    /// Runs at most one overdue task from a sibling of `me` on its behalf.
    /// Returns whether a task was run. Siblings are inspected with
    /// `try_lock` — a contended shard is being served by its own worker,
    /// which is not the starvation stealing exists to fix.
    fn try_steal(&self, me: usize) -> bool {
        if !self.steals {
            return false;
        }
        let k = self.shards.len();
        let now_key = self.now_key();
        for offset in 1..k {
            let victim = (me + offset) % k;
            let Some(mut state) = self.shards[victim].try_lock() else {
                continue;
            };
            let Some(key) = state.queue.peek_key() else {
                continue;
            };
            if key.saturating_add(STEAL_LAG_SLOTS) > now_key {
                continue; // the owner keeps first claim on just-due work
            }
            let (key, id) = state.queue.pop().expect("peeked a key");
            let Some(mut task) = state.tasks[id].take() else {
                continue; // stale entry for a retired slot
            };
            drop(state);
            self.shards[me]
                .counters
                .steals
                .fetch_add(1, Ordering::Relaxed);
            self.stretch.observe(now_key - key);
            let rearm = task.run(&self.config);
            self.finish(victim, id, task, rearm);
            return true;
        }
        false
    }

    /// Returns a just-run task to its home shard (re-arm) or retires it.
    /// The re-arm notifies the home shard's owner exactly when the pushed
    /// deadline became the shard's new head — a worker parked toward a
    /// later deadline must re-aim, anyone else needs nothing.
    fn finish(&self, home: usize, id: usize, task: Task, rearm: Option<Instant>) {
        match rearm {
            Some(deadline) => {
                let key = self.key_of(deadline);
                let shard = &self.shards[home];
                let mut state = shard.lock();
                state.tasks[id] = Some(task);
                state.queue.push(key, id);
                let new_head = state.queue.peek_key() == Some(key);
                drop(state);
                if new_head {
                    shard.cv.notify_one();
                }
            }
            None => {
                drop(task);
                if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Every task retired (all nodes crashed or stopped):
                    // wake the whole pool so it drains.
                    self.notify_all();
                }
            }
        }
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    let shard = &inner.shards[me];
    let mut state = shard.lock();
    loop {
        if inner.stop.load(Ordering::Acquire) || inner.live.load(Ordering::Acquire) == 0 {
            drop(state);
            // Propagate the drain: siblings may be parked with no tasks
            // left to notify them.
            inner.notify_all();
            return;
        }
        // Dispatch the local head if it is due.
        let head = state.queue.peek_key();
        if let Some(key) = head {
            let due_now = match inner.wake_time(key) {
                Some(due) => due.saturating_duration_since(Instant::now()).is_zero(),
                None => false,
            };
            if due_now {
                let (key, id) = state.queue.pop().expect("peeked a key");
                let Some(mut task) = state.tasks[id].take() else {
                    continue; // stale entry for a retired slot
                };
                let now_key = inner.now_key();
                // Backlog behind the popped task: overdue work this worker
                // cannot reach before finishing the poll — recruit help.
                let backlog = state
                    .queue
                    .peek_key()
                    .is_some_and(|k| k.saturating_add(STEAL_LAG_SLOTS) <= now_key);
                // Poll outside the shard lock: the task body takes the
                // node's process lock and touches shared registers, and
                // stealers must be able to inspect the shard meanwhile.
                drop(state);
                shard.counters.polls.fetch_add(1, Ordering::Relaxed);
                inner.stretch.observe(now_key.saturating_sub(key));
                if backlog {
                    inner.ask_for_help(me);
                }
                let rearm = task.run(&inner.config);
                inner.finish(me, id, task, rearm);
                state = shard.lock();
                continue;
            }
        }
        // Nothing due locally: lend a hand to an overloaded sibling.
        drop(state);
        let stole = inner.try_steal(me);
        state = shard.lock();
        if stole || state.queue.peek_key() != head {
            // Re-evaluate: a re-arm landed while the lock was released
            // (its notify had no parked waiter to catch).
            continue;
        }
        // Park toward the local head (or indefinitely on an empty shard —
        // only a re-arm, a help request, a retire-to-zero, or shutdown is
        // worth waking for). The head re-check above happened under the
        // lock held into the wait, so no wakeup can slip between them.
        let wait = match head {
            Some(key) => match inner.wake_time(key) {
                Some(due) => {
                    let until = due.saturating_duration_since(Instant::now());
                    if until.is_zero() {
                        continue; // became due while stealing
                    }
                    Some(until)
                }
                None => Some(FAR_PARK),
            },
            None => None,
        };
        state = match wait {
            Some(wait) => {
                shard
                    .cv
                    .wait_timeout(state, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shard.cv.wait(state).unwrap_or_else(PoisonError::into_inner),
        };
        shard.counters.wakes.fetch_add(1, Ordering::Relaxed);
    }
}

/// A pool of worker threads cooperatively scheduling all node loops of a
/// cluster, one [`DeadlineQueue`] shard per worker with overdue-task
/// stealing between them when the pool is smaller than its task set.
///
/// Built by every [`Cluster`](crate::Cluster) constructor; owns nothing
/// algorithm-visible — crash injection, leader queries, and statistics all
/// go through the [`Node`](crate::Node)/cluster surface.
pub struct CoopRuntime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl CoopRuntime {
    /// Starts the runtime hosting one step task and one timer task per
    /// core, plus `extras` — application tasks ([`CoopTask`]) on the same
    /// sharded wheel. A timer task's first deadline is
    /// `initial_timeout × tick` from now; step tasks and extras are due
    /// immediately. Node `i`'s two tasks land on shard `i mod workers`, the
    /// extras round-robin over the shards after them — unless the pool has
    /// a worker for every task, which then gives each task a shard of its
    /// own: the step and timer loops of node `i` on shards `2i` and
    /// `2i + 1`, extra `j` on shard `2n + j`. A pool larger than the task
    /// set runs one worker per task: a worker beyond that would own an
    /// empty shard and only park.
    pub(crate) fn start(
        cores: &[Arc<NodeCore>],
        config: CoopConfig,
        extras: Vec<Box<dyn CoopTask>>,
    ) -> Self {
        assert!(config.workers > 0, "a runtime needs at least one worker");
        let start = Instant::now();
        let live = cores.len() * 2 + extras.len();
        let workers = config.workers.min(live.max(1));
        let per_task = workers >= live;
        let mut states: Vec<ShardState> = (0..workers)
            .map(|_| ShardState {
                queue: DeadlineQueue::new(),
                tasks: Vec::new(),
            })
            .collect();
        {
            let mut seed = |home: usize, task: Task, key: u64| {
                let state = &mut states[home];
                let id = state.tasks.len();
                state.tasks.push(Some(task));
                state.queue.push(key, id);
            };
            for (i, core) in cores.iter().enumerate() {
                let (step, timer) = if per_task {
                    (2 * i, 2 * i + 1)
                } else {
                    (i % workers, i % workers)
                };
                seed(step, Task::Step(Arc::clone(core)), 0);
                let first = Instant::now() + config.node.timer_span(core.initial_timeout());
                seed(
                    timer,
                    Task::Timer(Arc::clone(core)),
                    key_for(start, first, 0),
                );
            }
            for (j, task) in extras.into_iter().enumerate() {
                let home = if per_task {
                    2 * cores.len() + j
                } else {
                    (cores.len() + j) % workers
                };
                seed(home, Task::External(task), 0);
            }
        }

        let inner = Arc::new(Inner {
            start,
            config: config.node,
            shards: states
                .into_iter()
                .map(|state| Shard {
                    state: Mutex::new(state),
                    cv: Condvar::new(),
                    counters: ShardCounters::default(),
                })
                .collect(),
            live: AtomicUsize::new(live),
            stop: AtomicBool::new(false),
            steals: workers > 1 && !per_task,
            stretch: TickStretch::new(),
            help_cursor: AtomicUsize::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("coop-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn coop worker")
            })
            .collect();
        CoopRuntime { inner, workers }
    }

    /// Number of worker threads (= wheel shards).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Per-shard dispatch/steal/wake counters, in worker order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .map(|shard| ShardStats {
                polls: shard.counters.polls.load(Ordering::Relaxed),
                steals: shard.counters.steals.load(Ordering::Relaxed),
                wakes: shard.counters.wakes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The adaptive tick's current stretch shift: effective slot width is
    /// `64 µs << shift`. Zero when dispatch keeps up.
    #[must_use]
    pub fn stretch_shift(&self) -> u32 {
        self.inner.stretch.shift()
    }

    /// Stops the workers and joins them. Node state is untouched; tasks
    /// still queued are dropped with the runtime.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            // Taking each lock orders the store before that worker's next
            // check; notifying under it cannot race the worker into a
            // park that misses the stop.
            drop(shard.lock());
            shard.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CoopRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for CoopRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queued: usize = self.inner.shards.iter().map(|s| s.lock().queue.len()).sum();
        f.debug_struct("CoopRuntime")
            .field("workers", &self.workers.len())
            .field("live_tasks", &self.inner.live.load(Ordering::Relaxed))
            .field("queued", &queued)
            .field("stretch_shift", &self.stretch_shift())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_sim::wheel::WHEEL_SLOTS;
    use std::cmp::Ordering as CmpOrdering;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_key_order_with_fifo_ties() {
        let mut q = DeadlineQueue::new();
        q.push(10, 0);
        q.push(1, 1);
        q.push(10, 2);
        q.push(5, 3);
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 1), (5, 3), (10, 0), (10, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_and_overdue_keys_route_through_the_heap() {
        let mut q = DeadlineQueue::new();
        let far = WHEEL_SLOTS as u64 * 7 + 3;
        q.push(far, 0);
        q.push(2, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_key(), Some(2));
        assert_eq!(q.pop(), Some((2, 1)));
        // Cursor advanced; pushing behind it is overdue and pops first.
        q.push(0, 2);
        assert_eq!(q.pop(), Some((0, 2)));
        assert_eq!(q.pop(), Some((far, 0)));
    }

    #[test]
    fn astronomically_far_keys_do_not_wedge_the_queue() {
        let mut q = DeadlineQueue::new();
        q.push(u64::MAX / SLOT_US, 0);
        q.push(7, 1);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.peek_key(), Some(u64::MAX / SLOT_US));
    }

    /// The single-wheel property test: a seeded interleaving of pushes and
    /// pops must pop in exactly the order of a reference `(key, seq)`
    /// binary heap — near keys, far keys, overdue keys, and ties alike.
    #[test]
    fn seeded_wake_order_matches_reference_deadline_heap() {
        #[derive(PartialEq, Eq)]
        struct RefEntry {
            key: u64,
            seq: u64,
            task: usize,
        }
        impl Ord for RefEntry {
            fn cmp(&self, other: &Self) -> CmpOrdering {
                (other.key, other.seq).cmp(&(self.key, self.seq))
            }
        }
        impl PartialOrd for RefEntry {
            fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
                Some(self.cmp(other))
            }
        }

        for seed in 1u64..=20 {
            let mut rng = seed;
            let mut next = move || {
                // xorshift64*: deterministic, dependency-free.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut queue = DeadlineQueue::new();
            let mut reference: BinaryHeap<RefEntry> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut last_popped = 0u64;
            for op in 0..2_000 {
                if next() % 3 != 0 || queue.is_empty() {
                    // Push: mostly near keys, sometimes far, sometimes
                    // overdue relative to what was already popped.
                    let key = match next() % 10 {
                        0 => last_popped.saturating_sub(next() % 50), // overdue
                        1..=2 => last_popped + next() % (WHEEL_SLOTS as u64 * 20), // far
                        _ => last_popped + next() % 500,              // near
                    };
                    let task = (op % 97) as usize;
                    queue.push(key, task);
                    reference.push(RefEntry { key, seq, task });
                    seq += 1;
                } else {
                    let got = queue.pop();
                    let want = reference.pop().map(|e| (e.key, e.task));
                    assert_eq!(got, want, "seed {seed}, op {op}");
                    if let Some((k, _)) = got {
                        last_popped = k;
                    }
                }
            }
            while let Some(want) = reference.pop() {
                assert_eq!(
                    queue.pop(),
                    Some((want.key, want.task)),
                    "seed {seed} drain"
                );
            }
            assert!(queue.is_empty());
        }
    }

    /// The sharded property test: k shards with overdue stealing versus
    /// the single-wheel reference. No task may be lost or double-polled,
    /// each shard's projected pop order must match the reference exactly,
    /// and the merged global order may deviate from `(deadline, seq)`
    /// only within the steal-window slack.
    #[test]
    fn sharded_pops_with_stealing_match_single_wheel_up_to_steal_slack() {
        // `now` advances in bounded increments and every due task drains
        // before the next advance, so any inversion the interleaving (or
        // a steal) produces is confined to one drain window.
        const MAX_ADVANCE: u64 = 64;
        const SLACK: u64 = MAX_ADVANCE + STEAL_LAG_SLOTS;

        let mut total_steals = 0u64;
        for seed in 1u64..=12 {
            for k in [2usize, 3, 4] {
                let mut rng = seed.wrapping_mul(k as u64).wrapping_add(0x9e37);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                // Identical push schedule into both structures: task t is
                // affine to shard t % k.
                let tasks = 120usize;
                let mut shards: Vec<DeadlineQueue> = (0..k).map(|_| DeadlineQueue::new()).collect();
                let mut reference = DeadlineQueue::new();
                for t in 0..tasks {
                    let key = next() % 400;
                    shards[t % k].push(key, t);
                    reference.push(key, t);
                }

                // Reference order: one wheel, exact (key, seq).
                let mut ref_order = Vec::with_capacity(tasks);
                while let Some(entry) = reference.pop() {
                    ref_order.push(entry);
                }

                // Sharded schedule: each round, `now` advances a bounded
                // step, then workers drain everything due — popping their
                // own shard in order, or stealing a sibling's sufficiently
                // overdue head when locally idle. A randomly "slow" worker
                // sits rounds out, forcing real backlogs to steal from.
                let mut now = 0u64;
                let mut popped: Vec<(u64, usize)> = Vec::with_capacity(tasks);
                let mut steals = 0u64;
                while popped.len() < tasks {
                    now += next() % MAX_ADVANCE + 1;
                    loop {
                        let mut progressed = false;
                        for w in 0..k {
                            if next() % 3 == 0 {
                                continue; // this worker is slow this pass
                            }
                            let due_local = shards[w].peek_key().is_some_and(|key| key <= now);
                            if due_local {
                                popped.push(shards[w].pop().expect("peeked"));
                                progressed = true;
                                continue;
                            }
                            // Locally idle: steal an overdue sibling head.
                            for offset in 1..k {
                                let victim = (w + offset) % k;
                                let stealable = shards[victim]
                                    .peek_key()
                                    .is_some_and(|key| key + STEAL_LAG_SLOTS <= now);
                                if stealable {
                                    popped.push(shards[victim].pop().expect("peeked"));
                                    steals += 1;
                                    progressed = true;
                                    break;
                                }
                            }
                        }
                        let any_due =
                            (0..k).any(|w| shards[w].peek_key().is_some_and(|key| key <= now));
                        if !any_due {
                            break;
                        }
                        // A fully slow pass must not count as drained.
                        let _ = progressed;
                    }
                }
                total_steals += steals;

                // No task lost or double-polled.
                let mut seen = vec![false; tasks];
                for &(_, t) in &popped {
                    assert!(!seen[t], "seed {seed} k {k}: task {t} double-polled");
                    seen[t] = true;
                }
                assert!(seen.iter().all(|&s| s), "seed {seed} k {k}: task lost");

                // Per-shard projection is exactly the reference projection:
                // stealing takes a shard's head, so shard-local (key, seq)
                // order survives any interleaving.
                for shard in 0..k {
                    let got: Vec<_> = popped.iter().filter(|&&(_, t)| t % k == shard).collect();
                    let want: Vec<_> = ref_order.iter().filter(|&&(_, t)| t % k == shard).collect();
                    assert_eq!(got, want, "seed {seed} k {k}: shard {shard} order");
                }

                // Global order holds up to the steal-window slack.
                for i in 0..popped.len() {
                    for j in i + 1..popped.len() {
                        assert!(
                            popped[i].0 <= popped[j].0 + SLACK,
                            "seed {seed} k {k}: inversion beyond slack: \
                             {:?} before {:?}",
                            popped[i],
                            popped[j],
                        );
                    }
                }
            }
        }
        assert!(total_steals > 0, "the schedule must exercise stealing");
    }

    #[test]
    fn key_quantization_rounds_up_and_wake_time_inverts() {
        let start = Instant::now();
        let deadline = start + Duration::from_micros(SLOT_US * 3 + 1);
        let key = key_for(start, deadline, 0);
        assert_eq!(key, 4, "keys round up so wakeups are never early");
        assert!(wake_time(start, key).unwrap() >= deadline);
        // Unrepresentable futures collapse to None instead of panicking.
        assert_eq!(wake_time(start, u64::MAX), None);
    }

    #[test]
    fn stretched_keys_stay_in_plain_slots_and_never_fire_early() {
        let start = Instant::now();
        let deadline = start + Duration::from_micros(SLOT_US * 3 + 1);
        // Stretch shift 2: slots quantize to multiples of 4 × 64 µs.
        let key = key_for(start, deadline, 2);
        assert_eq!(key, 4, "rounded up to the next stretched slot boundary");
        assert!(key.is_multiple_of(4));
        assert!(wake_time(start, key).unwrap() >= deadline);
        let later = start + Duration::from_micros(SLOT_US * 5);
        assert_eq!(key_for(start, later, 2), 8);
        // A stretched key and an unstretched key remain comparable on the
        // same wheel: both count plain SLOT_US slots.
        assert!(key_for(start, later, 0) <= key_for(start, later, 2));
    }

    #[test]
    fn tick_stretch_widens_under_sustained_overload_and_decays() {
        let stretch = TickStretch::new();
        assert_eq!(stretch.shift(), 0);
        // Mild jitter moves nothing.
        for _ in 0..10 * STRETCH_UP_STREAK {
            stretch.observe(STRETCH_LAG_SLOTS);
        }
        assert_eq!(stretch.shift(), 0, "jitter within the lag budget");
        // Sustained overload stretches, one notch per streak, capped.
        for _ in 0..STRETCH_UP_STREAK {
            stretch.observe(STRETCH_LAG_SLOTS + 1);
        }
        assert_eq!(stretch.shift(), 1);
        for _ in 0..10 * STRETCH_UP_STREAK {
            stretch.observe(1_000);
        }
        assert_eq!(stretch.shift(), STRETCH_MAX_SHIFT, "stretch is capped");
        // An interrupted on-time run does not relax the slot…
        for _ in 0..STRETCH_DOWN_STREAK - 1 {
            stretch.observe(0);
        }
        stretch.observe(STRETCH_LAG_SLOTS + 1);
        for _ in 0..STRETCH_DOWN_STREAK - 1 {
            stretch.observe(0);
        }
        assert_eq!(stretch.shift(), STRETCH_MAX_SHIFT);
        // …but a full one does, one notch per streak.
        stretch.observe(0);
        assert_eq!(stretch.shift(), STRETCH_MAX_SHIFT - 1);
        for _ in 0..STRETCH_MAX_SHIFT as usize * STRETCH_DOWN_STREAK as usize {
            stretch.observe(0);
        }
        assert_eq!(stretch.shift(), 0, "full decay back to the base slot");
    }

    /// The latch behind `coop-failover`'s two modes: at shift 4 every task
    /// re-arms onto a 1 ms boundary, the batch pops a few base slots late
    /// by construction, and a decay that wanted `lag == 0` never came.
    #[test]
    fn tick_stretch_decays_when_batches_pop_within_their_stretched_slot() {
        let stretch = TickStretch::new();
        for _ in 0..STRETCH_MAX_SHIFT * STRETCH_UP_STREAK {
            stretch.observe(STRETCH_LAG_SLOTS + 1);
        }
        assert_eq!(stretch.shift(), STRETCH_MAX_SHIFT);
        // The widest slot spans more base slots than the lag budget: every
        // pop the budget admits is inside it.
        for _ in 0..STRETCH_DOWN_STREAK {
            stretch.observe(STRETCH_LAG_SLOTS);
        }
        assert_eq!(stretch.shift(), STRETCH_MAX_SHIFT - 1);
        // Below that, a pop is on time up to the last base slot of the
        // stretched one; the next slot over is jitter and moves nothing.
        while stretch.shift() > 0 {
            let (shift, width) = (stretch.shift(), 1u64 << stretch.shift());
            for _ in 0..10 * STRETCH_DOWN_STREAK {
                stretch.observe(width);
            }
            assert_eq!(stretch.shift(), shift, "lag {width} at shift {shift}");
            for _ in 0..STRETCH_DOWN_STREAK {
                stretch.observe(width - 1);
            }
            assert_eq!(
                stretch.shift(),
                shift - 1,
                "lag {} at shift {shift}",
                width - 1
            );
        }
    }

    /// A counting external task: polls bump a shared counter, re-arming at
    /// a fixed cadence (or retiring after `polls_before_retire`).
    struct Beat {
        count: Arc<AtomicU64>,
        cadence: Duration,
    }

    impl CoopTask for Beat {
        fn poll(&mut self) -> Option<Instant> {
            self.count.fetch_add(1, Ordering::Relaxed);
            Some(Instant::now() + self.cadence)
        }
    }

    /// The per-shard parking regression test: a far timer armed on one
    /// shard must not busy-wake the sibling worker while the other shard
    /// keeps re-arming. Under the old single-condvar pool, every re-arm's
    /// notify could land on whichever worker was parked — including the
    /// one sleeping toward the far deadline — so its wake count grew with
    /// its sibling's poll rate.
    #[test]
    fn far_timer_on_one_shard_does_not_busy_wake_the_sibling() {
        let fast = Arc::new(AtomicU64::new(0));
        let far = Arc::new(AtomicU64::new(0));
        let extras: Vec<Box<dyn CoopTask>> = vec![
            // Extra 0 → shard 0: re-arms steadily, well inside the steal
            // window so nothing it does is stealable.
            Box::new(Beat {
                count: Arc::clone(&fast),
                cadence: Duration::from_millis(20),
            }),
            // Extra 1 → shard 1: one poll, then a deadline hours out.
            Box::new(Beat {
                count: Arc::clone(&far),
                cadence: Duration::from_secs(3_600),
            }),
        ];
        let mut runtime = CoopRuntime::start(
            &[],
            CoopConfig {
                node: NodeConfig::default(),
                workers: 2,
            },
            extras,
        );
        std::thread::sleep(Duration::from_millis(300));
        let stats = runtime.shard_stats();
        runtime.shutdown();
        assert!(
            fast.load(Ordering::Relaxed) >= 5,
            "the fast shard kept polling: {stats:?}"
        );
        assert_eq!(
            far.load(Ordering::Relaxed),
            1,
            "the far timer fired exactly its initial poll"
        );
        assert!(
            stats[1].wakes <= 3,
            "sibling re-arms must not wake the far shard's worker: {stats:?}"
        );
    }

    #[test]
    fn worker_pool_drains_and_steals_keep_every_task_running() {
        // Four shards, eight short-cadence tasks: the pool must keep all
        // of them polling (stealing covers any shard whose owner lags on
        // this 1-CPU-friendly schedule), then drain cleanly on shutdown.
        let counts: Vec<Arc<AtomicU64>> = (0..8).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let extras: Vec<Box<dyn CoopTask>> = counts
            .iter()
            .map(|count| {
                Box::new(Beat {
                    count: Arc::clone(count),
                    cadence: Duration::from_micros(500),
                }) as Box<dyn CoopTask>
            })
            .collect();
        let mut runtime = CoopRuntime::start(
            &[],
            CoopConfig {
                node: NodeConfig::default(),
                workers: 4,
            },
            extras,
        );
        assert_eq!(runtime.workers(), 4);
        std::thread::sleep(Duration::from_millis(200));
        runtime.shutdown();
        for (i, count) in counts.iter().enumerate() {
            assert!(
                count.load(Ordering::Relaxed) > 10,
                "task {i} starved under the sharded pool"
            );
        }
    }
}
