//! The request ledger: every request's lifecycle, the per-node inboxes,
//! and the client-side routing view.
//!
//! One `Ledger` is shared by the workload pump (which issues requests and
//! sweeps deadlines) and every service node (which drains its inbox and
//! resolves requests). It is the *client side* of the system: routing
//! consults only the leader estimates the nodes publish — exactly what a
//! client library could observe — so a crashed believed-leader keeps
//! attracting requests until the estimates flip, and those requests stall
//! past their deadline. That stall is the failover SLO this subsystem
//! exists to measure, not an accounting artifact.
//!
//! The schedule it is built over holds each request's arrival, client and
//! operation, and the workload's deadline and stall bound once, on the
//! [`Schedule`]: a request's deadline and fail-fast tick are its arrival
//! plus those offsets. The offsets are constant per workload, so both
//! tick sequences are as sorted as the arrivals and each sweep is a
//! single cursor. Each request's state is one packed word.
//!
//! All mutation goes through interior mutability (a mutex over the states,
//! one mutex per inbox, atomics for the estimates), so the same type works
//! single-threaded under the simulator and concurrently under the
//! wall-clock runtimes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use omega_registers::sync::Mutex;
use omega_registers::{plurality, ProcessId};

use crate::workload::{RequestMeta, Schedule};

/// Where a request is in its lifecycle. Terminal states carry the tick at
/// which the client learned the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Not yet resolved: queued at the router, in an inbox, or in the
    /// replication pipeline.
    Pending,
    /// Acknowledged: a get served by the leader, or a put whose log slot
    /// committed.
    Committed {
        /// Acknowledgment tick.
        at: u64,
    },
    /// Actively refused: routed to a node that did not consider itself
    /// leader (or unroutable because no estimate existed).
    Rejected {
        /// Refusal tick.
        at: u64,
    },
    /// The client's deadline passed with the request unresolved — the
    /// user-visible face of an unavailability window.
    Stalled {
        /// The request's deadline (when the client gave up).
        at: u64,
    },
}

/// Bits of a [`Packed`] state that name its variant.
const TAG_BITS: u32 = 2;

/// The largest tick a request state records: what is left of a word
/// beside the variant tag.
pub(crate) const MAX_TICK: u64 = u64::MAX >> TAG_BITS;

/// A [`RequestState`] in one word: the tick above a two-bit variant tag
/// (0 pending, 1 committed, 2 rejected, 3 stalled). Pending is all zero.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed(u64);

impl Packed {
    const PENDING: Packed = Packed(0);

    /// Packs `state`.
    ///
    /// # Panics
    ///
    /// If its tick exceeds [`MAX_TICK`].
    fn new(state: RequestState) -> Self {
        let (tag, at) = match state {
            RequestState::Pending => return Packed::PENDING,
            RequestState::Committed { at } => (1, at),
            RequestState::Rejected { at } => (2, at),
            RequestState::Stalled { at } => (3, at),
        };
        assert!(
            at <= MAX_TICK,
            "tick {at} exceeds the largest recordable tick {MAX_TICK}"
        );
        Packed(at << TAG_BITS | tag)
    }

    fn is_pending(self) -> bool {
        self == Packed::PENDING
    }

    /// The state this word packs.
    pub(crate) fn get(self) -> RequestState {
        let at = self.0 >> TAG_BITS;
        match self.0 & ((1 << TAG_BITS) - 1) {
            0 => RequestState::Pending,
            1 => RequestState::Committed { at },
            2 => RequestState::Rejected { at },
            _ => RequestState::Stalled { at },
        }
    }
}

struct LedgerInner {
    states: Vec<Packed>,
    /// First request whose deadline has not been swept yet. Requests are
    /// deadline-sorted (constant deadline offset over a time-sorted
    /// schedule), so the sweep is amortized O(1) per request.
    sweep_cursor: usize,
    /// First request whose fail-fast bound has not been swept yet; the
    /// same constant-offset argument keeps bound ticks sorted.
    bound_cursor: usize,
}

/// Shared request state: metadata, lifecycle states, per-node inboxes,
/// and published leader estimates.
pub struct Ledger {
    meta: Schedule,
    inner: Mutex<LedgerInner>,
    inboxes: Vec<Mutex<VecDeque<usize>>>,
    /// Last estimate each node published; `-1` encodes "none yet".
    estimates: Vec<AtomicI64>,
}

impl Ledger {
    /// A fresh ledger over a generated request schedule, for an `n`-node
    /// service.
    #[must_use]
    pub fn new(meta: Schedule, n: usize) -> Arc<Self> {
        let states = vec![Packed::PENDING; meta.len()];
        Arc::new(Ledger {
            meta,
            inner: Mutex::new(LedgerInner {
                states,
                sweep_cursor: 0,
                bound_cursor: 0,
            }),
            inboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            estimates: (0..n).map(|_| AtomicI64::new(-1)).collect(),
        })
    }

    /// The immutable request schedule.
    #[must_use]
    pub fn meta(&self) -> &[RequestMeta] {
        &self.meta
    }

    /// Total number of requests in the schedule.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.meta.len()
    }

    /// Publishes `node`'s current leader estimate for the router to read.
    pub fn publish(&self, node: ProcessId, estimate: Option<ProcessId>) {
        let encoded = estimate.map_or(-1, |p| p.index() as i64);
        self.estimates[node.index()].store(encoded, Ordering::Relaxed);
    }

    /// The node the router currently sends requests to: the plurality of
    /// published estimates (ties break toward the smaller pid, matching
    /// the cluster's crash targeting), or `None` when no node has
    /// published an estimate yet.
    ///
    /// Stale estimates from crashed nodes are *not* filtered: the router
    /// plays a client, and clients cannot see crashes — only the surviving
    /// nodes' flipped estimates eventually outvote the stale slot.
    #[must_use]
    pub fn route_target(&self) -> Option<ProcessId> {
        plurality(self.estimates.iter().map(|slot| {
            let estimate = slot.load(Ordering::Relaxed);
            (estimate >= 0).then(|| ProcessId::new(estimate as usize))
        }))
    }

    /// Issues request `id`: routes it to the believed leader's inbox, or
    /// rejects it immediately when no estimate exists. No-op if the
    /// request already resolved (e.g. swept as stalled before a lagging
    /// pump issued it).
    pub fn issue(&self, id: usize, now: u64) {
        let target = self.route_target();
        if !self.inner.lock().states[id].is_pending() {
            return;
        }
        match target {
            Some(node) => self.inboxes[node.index()].lock().push_back(id),
            None => self.resolve(id, RequestState::Rejected { at: now }),
        }
    }

    /// Takes everything queued at `node`'s inbox, in arrival order.
    #[must_use]
    pub fn drain(&self, node: ProcessId) -> Vec<usize> {
        self.inboxes[node.index()].lock().drain(..).collect()
    }

    /// Marks `id` acknowledged at `now` (first terminal state wins).
    pub fn complete(&self, id: usize, now: u64) {
        self.resolve(id, RequestState::Committed { at: now });
    }

    /// Marks `id` refused at `now` (first terminal state wins).
    pub fn reject(&self, id: usize, now: u64) {
        self.resolve(id, RequestState::Rejected { at: now });
    }

    fn resolve(&self, id: usize, state: RequestState) {
        let packed = Packed::new(state);
        let mut inner = self.inner.lock();
        if inner.states[id].is_pending() {
            inner.states[id] = packed;
        }
    }

    /// Stalls every still-pending request whose deadline is at or before
    /// `now`, and fail-fast-rejects every still-pending request whose
    /// stall bound passed first. The ticks recorded are the request's own
    /// *deadline* / *bound* (the moment the client gave up, or the router
    /// gave up on its behalf), not the sweep time, so outcomes are
    /// independent of sweep cadence.
    pub fn sweep(&self, now: u64) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let meta = &self.meta;
        // Fail-fast pass first: when one sweep covers both ticks, the
        // rejection wins wherever the bound is at or under the client's
        // patience. A bound looser than the deadline is moot for every
        // request — the stall sweep owns them all — and so is no bound.
        if let Some(bound) = meta.stall_bound.filter(|&bound| bound <= meta.deadline) {
            while let Some(request) = meta.get(inner.bound_cursor) {
                let at = request.arrival + bound;
                if at > now {
                    break;
                }
                let state = &mut inner.states[inner.bound_cursor];
                if state.is_pending() {
                    *state = Packed::new(RequestState::Rejected { at });
                }
                inner.bound_cursor += 1;
            }
        }
        while let Some(request) = meta.get(inner.sweep_cursor) {
            let at = meta.deadline_at(request);
            if at > now {
                break;
            }
            let state = &mut inner.states[inner.sweep_cursor];
            if state.is_pending() {
                *state = Packed::new(RequestState::Stalled { at });
            }
            inner.sweep_cursor += 1;
        }
    }

    /// A snapshot of every request's state, index-aligned with
    /// [`meta`](Self::meta).
    #[must_use]
    pub fn states(&self) -> Vec<RequestState> {
        self.inner.lock().states.iter().map(|s| s.get()).collect()
    }

    /// Hands `read` the schedule and every request's state, index-aligned,
    /// under the ledger's lock: a read of the whole run that copies
    /// nothing.
    pub(crate) fn read<R>(&self, read: impl FnOnce(&Schedule, &[Packed]) -> R) -> R {
        read(&self.meta, &self.inner.lock().states)
    }
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("requests", &self.meta.len())
            .field("nodes", &self.inboxes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RequestKind;

    fn requests(arrivals: &[u64]) -> Vec<RequestMeta> {
        arrivals
            .iter()
            .map(|&arrival| RequestMeta {
                arrival,
                client: 0,
                kind: RequestKind::Get { key: 0 },
            })
            .collect()
    }

    fn meta(arrivals: &[u64], deadline: u64) -> Schedule {
        Schedule::new(requests(arrivals), deadline, None)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn routing_follows_the_plurality_of_estimates() {
        let ledger = Ledger::new(meta(&[10, 20], 100), 3);
        assert_eq!(ledger.route_target(), None, "no estimates yet");
        ledger.publish(p(0), Some(p(2)));
        ledger.publish(p(1), Some(p(2)));
        ledger.publish(p(2), Some(p(1)));
        assert_eq!(ledger.route_target(), Some(p(2)));
        // Ties break toward the smaller pid.
        ledger.publish(p(0), Some(p(1)));
        ledger.publish(p(2), None);
        assert_eq!(ledger.route_target(), Some(p(1)));
    }

    #[test]
    fn issue_routes_or_rejects_and_drain_empties() {
        let ledger = Ledger::new(meta(&[10, 20], 100), 2);
        ledger.issue(0, 10);
        assert_eq!(
            ledger.states()[0],
            RequestState::Rejected { at: 10 },
            "unroutable requests are refused on the spot"
        );
        ledger.publish(p(1), Some(p(1)));
        ledger.issue(1, 20);
        assert_eq!(ledger.drain(p(1)), vec![1]);
        assert!(ledger.drain(p(1)).is_empty());
        assert_eq!(ledger.states()[1], RequestState::Pending);
    }

    #[test]
    fn first_terminal_state_wins() {
        let ledger = Ledger::new(meta(&[0], 50), 1);
        ledger.sweep(50);
        assert_eq!(ledger.states()[0], RequestState::Stalled { at: 50 });
        ledger.complete(0, 60);
        assert_eq!(
            ledger.states()[0],
            RequestState::Stalled { at: 50 },
            "a commit after the client gave up does not rewrite history"
        );
    }

    #[test]
    fn sweep_stalls_by_deadline_not_sweep_time() {
        let ledger = Ledger::new(meta(&[0, 100, 200], 50), 1);
        ledger.complete(1, 120);
        ledger.sweep(1_000);
        let states = ledger.states();
        assert_eq!(states[0], RequestState::Stalled { at: 50 });
        assert_eq!(states[1], RequestState::Committed { at: 120 });
        assert_eq!(states[2], RequestState::Stalled { at: 250 });
    }

    #[test]
    fn fail_fast_rejects_at_the_bound_not_the_sweep() {
        let ledger = Ledger::new(Schedule::new(requests(&[0, 100, 200]), 1_000, Some(300)), 1);
        ledger.complete(1, 150);
        ledger.sweep(5_000);
        let states = ledger.states();
        assert_eq!(states[0], RequestState::Rejected { at: 300 });
        assert_eq!(states[1], RequestState::Committed { at: 150 });
        assert_eq!(states[2], RequestState::Rejected { at: 500 });
    }

    #[test]
    fn a_bound_looser_than_the_deadline_is_moot() {
        let ledger = Ledger::new(Schedule::new(requests(&[0]), 50, Some(200)), 1);
        ledger.sweep(1_000);
        assert_eq!(
            ledger.states()[0],
            RequestState::Stalled { at: 50 },
            "the client's patience ran out before the router's"
        );
    }

    #[test]
    fn a_ledger_without_a_useful_bound_skips_the_fail_fast_pass() {
        for bound in [None, Some(200)] {
            let ledger = Ledger::new(Schedule::new(requests(&[0, 10, 20]), 50, bound), 1);
            ledger.sweep(1_000);
            let inner = ledger.inner.lock();
            assert_eq!(inner.bound_cursor, 0, "bound {bound:?}");
            assert_eq!(inner.sweep_cursor, 3, "bound {bound:?}");
        }
    }

    #[test]
    fn every_state_round_trips_through_one_word() {
        assert_eq!(std::mem::size_of::<Packed>(), 8);
        assert_eq!(Packed::PENDING.get(), RequestState::Pending);
        for at in [0, MAX_TICK] {
            for state in [
                RequestState::Pending,
                RequestState::Committed { at },
                RequestState::Rejected { at },
                RequestState::Stalled { at },
            ] {
                assert_eq!(Packed::new(state).get(), state);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the largest recordable tick")]
    fn a_tick_past_the_word_is_refused() {
        let _ = Packed::new(RequestState::Committed { at: MAX_TICK + 1 });
    }

    #[test]
    fn sweep_cursor_never_stalls_future_deadlines() {
        let ledger = Ledger::new(meta(&[0, 100], 50), 1);
        ledger.sweep(60);
        let states = ledger.states();
        assert_eq!(states[0], RequestState::Stalled { at: 50 });
        assert_eq!(states[1], RequestState::Pending);
    }
}
