//! The deterministic event queue driving a simulation.
//!
//! [`EventQueue`] is the simulator's instantiation of the generic
//! [`TimerWheel`] (near-horizon bucket wheel, far/overdue heap fallback):
//! keys are virtual ticks, payloads are [`EventKind`]s. The overwhelming
//! majority of simulator events are scheduled a handful of ticks ahead
//! (step delays, timer re-arms), and those enjoy O(1) push and pop; events
//! beyond the wheel's window — far-future crash scripts, campaign
//! boundaries, long stalls — fall back to the heap and migrate in as
//! virtual time approaches them. (The sampling cadence is not queued at
//! all: the harness merges it into the pop stream.) Pop order is
//! **exactly** the `(time, seq)` order of the original heap-only queue,
//! so traces are tick-identical; the seeded property tests in
//! `harness_properties.rs` pit the wheel against a reference heap to hold
//! that line.

use std::cmp::Ordering;

use omega_registers::ProcessId;

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The process performs one step of its main task (task T2 of the
    /// paper's algorithms).
    Step(ProcessId),
    /// The process's local timer expires (task T3). The epoch guards
    /// against stale expirations after the timer was re-armed.
    TimerExpire(ProcessId, u64),
    /// The process crashes (stops executing steps forever).
    Crash(ProcessId),
    /// The harness samples leader estimates and statistics.
    Sample,
    /// Chaos-campaign phase `i` begins to act (partition cut, storm onset,
    /// wave, heal).
    ChaosStart(u32),
    /// Chaos-campaign phase `i` stops acting (partition heals, storm
    /// clears).
    ChaosEnd(u32),
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break sequence number; assigned by the queue in scheduling order
    /// so that runs are fully deterministic.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of events ordered by `(time, seq)`.
///
/// # Examples
///
/// ```
/// use omega_sim::event::{EventKind, EventQueue};
/// use omega_sim::SimTime;
/// use omega_registers::ProcessId;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(5), EventKind::Sample);
/// q.schedule(SimTime::from_ticks(2), EventKind::Step(ProcessId::new(0)));
/// let first = q.pop().unwrap();
/// assert_eq!(first.time, SimTime::from_ticks(2));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    wheel: TimerWheel<EventKind>,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
        }
    }

    /// Schedules `kind` to fire at `time`. Events scheduled earlier sort
    /// first among equal times, making runs deterministic.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.wheel.push(time.ticks(), kind);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.wheel.pop().map(|(ticks, seq, kind)| Event {
            time: SimTime::from_ticks(ticks),
            seq,
            kind,
        })
    }

    /// Number of events scheduled so far: the `seq` the next one gets.
    #[must_use]
    pub fn scheduled(&self) -> u64 {
        self.wheel.pushed()
    }

    /// The time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_key().map(SimTime::from_ticks)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::WHEEL_SLOTS;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), EventKind::Sample);
        q.schedule(SimTime::from_ticks(1), EventKind::Step(p(0)));
        q.schedule(SimTime::from_ticks(5), EventKind::Crash(p(1)));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ticks())
            .collect();
        assert_eq!(times, vec![1, 5, 10]);
    }

    #[test]
    fn equal_times_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(3);
        q.schedule(t, EventKind::Step(p(0)));
        q.schedule(t, EventKind::Step(p(1)));
        q.schedule(t, EventKind::Step(p(2)));
        let pids: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Step(pid) => pid.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pids, vec![0, 1, 2]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ticks(9), EventKind::Sample);
        q.schedule(SimTime::from_ticks(4), EventKind::Sample);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(4)));
    }

    #[test]
    fn timer_event_carries_epoch() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(1), EventKind::TimerExpire(p(0), 42));
        match q.pop().unwrap().kind {
            EventKind::TimerExpire(pid, epoch) => {
                assert_eq!(pid, p(0));
                assert_eq!(epoch, 42);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn far_events_take_the_heap_and_come_back_in_order() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(SimTime::from_ticks(far), EventKind::Sample);
        q.schedule(SimTime::from_ticks(far), EventKind::Step(p(1)));
        q.schedule(SimTime::from_ticks(2), EventKind::Step(p(0)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().time.ticks(), 2);
        // Same far tick: FIFO by scheduling order, across the migration.
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time.ticks(), a.kind), (far, EventKind::Sample));
        assert_eq!((b.time.ticks(), b.kind), (far, EventKind::Step(p(1))));
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_order_survives_migration_plus_direct_push() {
        // A far event and a later direct push to the same tick must pop in
        // scheduling order even though they travelled different paths.
        let mut q = EventQueue::new();
        let t = WHEEL_SLOTS as u64 + 5;
        q.schedule(SimTime::from_ticks(t), EventKind::Step(p(0))); // far
        q.schedule(SimTime::from_ticks(1), EventKind::Sample);
        assert_eq!(q.pop().unwrap().kind, EventKind::Sample);
        // Cursor advanced past 1; t is now inside the window: direct push.
        q.schedule(SimTime::from_ticks(t), EventKind::Step(p(1)));
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert_eq!(first.kind, EventKind::Step(p(0)), "far push came first");
        assert_eq!(second.kind, EventKind::Step(p(1)));
    }

    #[test]
    fn overdue_schedule_pops_before_everything_near() {
        // The heap-only queue allowed scheduling behind the current pop
        // front; the wheel must honor that too.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(50), EventKind::Sample);
        assert_eq!(q.pop().unwrap().time.ticks(), 50);
        q.schedule(SimTime::from_ticks(60), EventKind::Step(p(1)));
        q.schedule(SimTime::from_ticks(3), EventKind::Step(p(0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(3)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Step(p(0)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Step(p(1)));
    }

    #[test]
    fn window_boundary_routes_to_heap_and_still_sorts() {
        let mut q = EventQueue::new();
        let edge = WHEEL_SLOTS as u64; // first time outside the window
        q.schedule(SimTime::from_ticks(edge), EventKind::Sample);
        q.schedule(SimTime::from_ticks(edge - 1), EventKind::Step(p(0)));
        assert_eq!(q.pop().unwrap().time.ticks(), edge - 1);
        assert_eq!(q.pop().unwrap().time.ticks(), edge);
        assert!(q.pop().is_none());
    }

    #[test]
    fn empty_wheel_jumps_to_far_events_without_scanning() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 1000;
        q.schedule(SimTime::from_ticks(far), EventKind::Sample);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(far)));
        assert_eq!(q.pop().unwrap().time.ticks(), far);
    }
}
