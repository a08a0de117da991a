//! A replicated log: one consensus instance per slot.
//!
//! The standard way to turn single-shot consensus into a service (state
//! machine replication, as in Paxos \[16\]): slot `k` of the log is decided
//! by consensus instance `k`; every replica applies the decided prefix in
//! order. Ω drives liveness exactly as for single-shot consensus — the
//! stable leader commits its queue of commands slot by slot.
//!
//! Instances are allocated lazily, by whichever replica first looks at a
//! slot, in the [`LogShared`] table; a [`LogHandle`] looks once per slot —
//! it holds the instance of its first undecided slot from the poll that
//! fetched it until the slot is absorbed — so a poll that learns nothing
//! (nearly all of them: a replica polls far more often than slots decide)
//! is one `DEC` scan of an instance already in hand, with no table lock
//! and no allocation. Only the catch-up slot is ever allocated ahead of
//! the decided prefix.

use std::collections::VecDeque;
use std::sync::Arc;

use omega_registers::sync::RwLock;
use omega_registers::{MemorySpace, ProcessId, RegisterValue};

use crate::instance::ConsensusInstance;
use crate::proposer::{ConsensusProcess, ProposerStatus};

/// The shared side of a replicated log: lazily-created consensus instances
/// over one memory space.
#[derive(Debug)]
pub struct LogShared<V: RegisterValue> {
    space: MemorySpace,
    instances: RwLock<Vec<Arc<ConsensusInstance<V>>>>,
}

impl<V: RegisterValue> LogShared<V> {
    /// Creates an empty log over `space`.
    #[must_use]
    pub fn new(space: MemorySpace) -> Arc<Self> {
        Arc::new(LogShared {
            space,
            instances: RwLock::new(Vec::new()),
        })
    }

    /// The consensus instance deciding slot `slot`, creating it (and all
    /// earlier slots) on first use.
    #[must_use]
    pub fn instance(&self, slot: usize) -> Arc<ConsensusInstance<V>> {
        {
            let instances = self.instances.read();
            if let Some(inst) = instances.get(slot) {
                return Arc::clone(inst);
            }
        }
        let mut instances = self.instances.write();
        while instances.len() <= slot {
            let name = format!("LOG[{}]", instances.len());
            instances.push(ConsensusInstance::new(&self.space, &name));
        }
        Arc::clone(&instances[slot])
    }

    /// Number of slots allocated so far.
    #[must_use]
    pub fn allocated_slots(&self) -> usize {
        self.instances.read().len()
    }
}

/// One replication event a client-facing layer can react to — the commit
/// and reject hooks of the log.
///
/// Events are recorded only after [`LogHandle::enable_events`]; a service
/// built on the log drains them with [`LogHandle::take_events`] to
/// acknowledge committed requests (matching the slot's value against its
/// in-flight set) and to count lost proposal rounds as per-request
/// operation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEvent {
    /// Slot `slot` was absorbed into this replica's decided prefix;
    /// `ours` is whether the decided value retired this replica's own
    /// front pending command.
    Committed {
        /// The absorbed slot index.
        slot: usize,
        /// Whether the decided value was this replica's own submission.
        ours: bool,
    },
    /// This replica proposed its front pending command for `slot` but the
    /// slot decided someone else's value; the command stays queued and is
    /// retried at the next free slot.
    Superseded {
        /// The contested slot index.
        slot: usize,
    },
}

/// One replica's handle on the replicated log.
///
/// Drive it with [`step`](LogHandle::step) (passing the replica's current Ω
/// output); queue commands with [`submit`](LogHandle::submit); read the
/// decided prefix with [`committed`](LogHandle::committed).
#[derive(Debug)]
pub struct LogHandle<V: RegisterValue> {
    pid: ProcessId,
    shared: Arc<LogShared<V>>,
    committed: Vec<V>,
    pending: VecDeque<V>,
    /// The instance of slot `committed.len()`, once fetched: held from
    /// the first poll of the slot until [`absorb`](Self::absorb) moves past
    /// it, so the shared table is consulted once per slot, not per poll.
    current: Option<Arc<ConsensusInstance<V>>>,
    /// Proposer for the slot `committed.len()`, if one is running.
    active: Option<ConsensusProcess<V>>,
    /// Buffer of the learner's `DEC` scan, kept between polls.
    scan: Vec<Option<V>>,
    /// Commit/reject events since the last drain; only recorded once a
    /// consumer opted in (otherwise absorbing would leak per slot).
    events: Vec<LogEvent>,
    record_events: bool,
}

impl<V: RegisterValue + PartialEq> LogHandle<V> {
    /// Creates replica `pid`'s handle.
    #[must_use]
    pub fn new(shared: Arc<LogShared<V>>, pid: ProcessId) -> Self {
        LogHandle {
            pid,
            shared,
            committed: Vec::new(),
            pending: VecDeque::new(),
            current: None,
            active: None,
            scan: Vec::new(),
            events: Vec::new(),
            record_events: false,
        }
    }

    /// Starts recording [`LogEvent`]s; call [`take_events`](Self::take_events)
    /// regularly afterwards or the buffer grows with the log.
    pub fn enable_events(&mut self) {
        self.record_events = true;
    }

    /// Drains the commit/reject events recorded since the last drain (empty
    /// unless [`enable_events`](Self::enable_events) was called).
    pub fn take_events(&mut self) -> Vec<LogEvent> {
        std::mem::take(&mut self.events)
    }

    /// This replica's identity.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Queues `command` for replication.
    pub fn submit(&mut self, command: V) {
        self.pending.push_back(command);
    }

    /// Commands queued but not yet known committed.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The decided prefix of the log, in slot order.
    #[must_use]
    pub fn committed(&self) -> &[V] {
        &self.committed
    }

    /// Absorbs a decided slot: appends it and retires the matching pending
    /// command if it was ours.
    fn absorb(&mut self, value: V) {
        let ours = self.pending.front() == Some(&value);
        if ours {
            self.pending.pop_front();
        }
        if self.record_events {
            let slot = self.committed.len();
            if !ours && self.active.is_some() {
                // We were proposing our own front command for this slot but
                // someone else's value won the instance.
                self.events.push(LogEvent::Superseded { slot });
            }
            self.events.push(LogEvent::Committed { slot, ours });
        }
        self.committed.push(value);
        self.current = None;
        self.active = None;
    }

    /// Performs one chunk of work: learn decided slots, and — while this
    /// replica is the leader — drive a proposer for the next free slot.
    pub fn step(&mut self, leader: ProcessId) {
        // Catch up on slots decided by others (reads, not peeks: learning
        // is part of the protocol).
        while self.active.is_none() {
            // Fetched (and allocated, if this replica is first there) on
            // the first poll after each absorbed slot.
            let inst =
                (self.current).get_or_insert_with(|| self.shared.instance(self.committed.len()));
            match inst.read_decision(self.pid, &mut self.scan) {
                Some(v) => self.absorb(v),
                None => break,
            }
        }

        // Drive (or start) a proposer for the next slot.
        if let Some(proposer) = &mut self.active {
            if let ProposerStatus::Decided(v) = proposer.step(leader) {
                self.absorb(v);
            }
            return;
        }
        if leader == self.pid {
            if let Some(command) = self.pending.front().cloned() {
                let inst = (self.current.clone())
                    .expect("the catch-up loop above holds the free slot's instance");
                let mut proposer = ConsensusProcess::new(inst, self.pid, command);
                if let ProposerStatus::Decided(v) = proposer.step(leader) {
                    self.absorb(v);
                } else {
                    self.active = Some(proposer);
                }
            }
        }
    }

    /// Steps with a fixed leader until `target` commands are committed or
    /// `max_steps` exhausted; returns whether the target was reached.
    pub fn step_until_committed(
        &mut self,
        leader: ProcessId,
        target: usize,
        max_steps: usize,
    ) -> bool {
        for _ in 0..max_steps {
            if self.committed.len() >= target {
                return true;
            }
            self.step(leader);
        }
        self.committed.len() >= target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn setup(n: usize) -> (Arc<LogShared<u64>>, Vec<LogHandle<u64>>) {
        let space = MemorySpace::new(n);
        let shared = LogShared::<u64>::new(space);
        let handles = ProcessId::all(n)
            .map(|pid| LogHandle::new(Arc::clone(&shared), pid))
            .collect();
        (shared, handles)
    }

    #[test]
    fn instances_are_created_once_and_shared() {
        let (shared, _h) = setup(2);
        let a = shared.instance(3);
        let b = shared.instance(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(shared.allocated_slots(), 4, "slots 0..=3 allocated");
    }

    #[test]
    fn each_slot_registers_two_banks_of_n() {
        let n = 3;
        let space = MemorySpace::new(n);
        let shared = LogShared::<u64>::new(space.clone());
        for k in 1..=4 {
            let _ = shared.instance(k - 1);
            assert_eq!(space.register_count(), 2 * n * k, "after {k} slots");
        }
        let _ = shared.instance(1);
        assert_eq!(
            space.register_count(),
            2 * n * 4,
            "a lookup allocates nothing"
        );
    }

    #[test]
    fn statistics_rows_of_a_two_slot_log_are_where_they_always_were() {
        let space = MemorySpace::new(2);
        let shared = LogShared::<u64>::new(space.clone());
        let _ = shared.instance(1);
        let golden = [
            ("LOG[0].RR[0]", 0),
            ("LOG[0].RR[1]", 1),
            ("LOG[0].DEC[0]", 0),
            ("LOG[0].DEC[1]", 1),
            ("LOG[1].RR[0]", 0),
            ("LOG[1].RR[1]", 1),
            ("LOG[1].DEC[0]", 0),
            ("LOG[1].DEC[1]", 1),
        ]
        .map(|(name, owner)| (name.to_string(), Some(p(owner))));
        let stats = space.stats();
        let stats_rows: Vec<_> = (stats.rows())
            .map(|row| (row.name.to_string(), row.owner))
            .collect();
        assert_eq!(stats_rows, golden);
        let footprint = space.footprint();
        let footprint_rows: Vec<_> = (footprint.rows())
            .map(|row| (row.name.to_string(), row.owner))
            .collect();
        assert_eq!(footprint_rows, golden);
    }

    #[test]
    fn held_instance_is_dropped_when_a_slot_is_absorbed() {
        let (shared, mut handles) = setup(2);
        let holds = |h: &LogHandle<u64>, slot| {
            let held = h.current.as_ref().expect("an instance is held");
            Arc::ptr_eq(held, &shared.instance(slot))
        };
        // The decide path: p0 commits two commands, moving on each time.
        handles[0].submit(7);
        handles[0].submit(8);
        assert!(handles[0].step_until_committed(p(0), 2, 500));
        assert_eq!(handles[0].committed(), &[7, 8]);
        assert!(handles[0].current.is_none(), "slot 1's instance was let go");
        assert_eq!(shared.allocated_slots(), 2, "nobody has looked at slot 2");
        // The learn path: one poll takes p1 through both decided slots and
        // leaves it holding the first undecided one.
        handles[1].step(p(0));
        assert_eq!(handles[1].committed(), &[7, 8]);
        assert_eq!(shared.allocated_slots(), 3);
        assert!(holds(&handles[1], 2));
        // p0's next poll fetches that same instance, and keeps it.
        handles[0].step(p(0));
        handles[0].step(p(0));
        assert!(holds(&handles[0], 2));
        assert_eq!(shared.allocated_slots(), 3);
    }

    #[test]
    fn sole_leader_commits_in_submission_order() {
        let (_shared, mut handles) = setup(3);
        for v in [10u64, 20, 30] {
            handles[0].submit(v);
        }
        assert!(handles[0].step_until_committed(p(0), 3, 500));
        assert_eq!(handles[0].committed(), &[10, 20, 30]);
        assert_eq!(handles[0].pending_len(), 0);
    }

    #[test]
    fn followers_replicate_the_prefix() {
        let (_shared, mut handles) = setup(2);
        handles[0].submit(7);
        handles[0].submit(8);
        assert!(handles[0].step_until_committed(p(0), 2, 500));
        assert!(handles[1].step_until_committed(p(0), 2, 500));
        assert_eq!(handles[1].committed(), &[7, 8]);
    }

    #[test]
    fn competing_submissions_all_commit_without_duplication() {
        let (_shared, mut handles) = setup(2);
        handles[0].submit(100);
        handles[1].submit(200);
        // Leadership alternates; both commands must eventually commit, in
        // the same order everywhere, each exactly once.
        for round in 0..3_000 {
            let leader = p((round / 10) % 2);
            for h in handles.iter_mut() {
                h.step(leader);
            }
            if handles.iter().all(|h| h.committed().len() >= 2) {
                break;
            }
        }
        assert_eq!(handles[0].committed().len(), 2, "both commands commit");
        assert_eq!(handles[0].committed(), handles[1].committed());
        let mut sorted = handles[0].committed().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100, 200], "no loss, no duplication");
    }

    #[test]
    fn losing_proposal_is_retried_at_next_slot() {
        let (_shared, mut handles) = setup(2);
        handles[0].submit(1);
        handles[1].submit(2);
        // p1 commits its command at slot 0 first.
        assert!(handles[1].step_until_committed(p(1), 1, 500));
        // p0 then leads: learns slot 0 = 2, retries its own at slot 1.
        assert!(handles[0].step_until_committed(p(0), 2, 500));
        assert_eq!(handles[0].committed(), &[2, 1]);
    }

    #[test]
    fn events_report_commits_and_superseded_proposals() {
        let (_shared, mut handles) = setup(2);
        handles[0].enable_events();
        handles[0].submit(1);
        handles[1].submit(2);
        // p1 decides slot 0 first; p0's proposal for slot 0 is superseded
        // and retried at slot 1.
        assert!(handles[1].step_until_committed(p(1), 1, 500));
        assert!(handles[0].step_until_committed(p(0), 2, 500));
        let events = handles[0].take_events();
        assert!(events.contains(&LogEvent::Committed {
            slot: 0,
            ours: false
        }));
        assert!(events.contains(&LogEvent::Committed {
            slot: 1,
            ours: true
        }));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, LogEvent::Committed { .. }))
                .count(),
            2
        );
        assert!(
            handles[0].take_events().is_empty(),
            "drain empties the buffer"
        );
        // p1 never opted in: no events despite committing.
        assert!(handles[1].take_events().is_empty());
    }

    #[test]
    fn non_leader_makes_no_proposals() {
        let (shared, mut handles) = setup(2);
        handles[1].submit(9);
        for _ in 0..50 {
            handles[1].step(p(0));
        }
        assert_eq!(handles[1].committed().len(), 0);
        assert_eq!(shared.allocated_slots(), 1, "only the catch-up slot exists");
        assert_eq!(shared.space.register_count(), 4, "and its 2n registers");
    }
}
