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
//! All mutation goes through interior mutability (a mutex over the states,
//! one mutex per inbox, atomics for the estimates), so the same type works
//! single-threaded under the simulator and concurrently under the
//! wall-clock runtimes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use omega_registers::sync::Mutex;
use omega_registers::{plurality, ProcessId};

use crate::workload::RequestMeta;

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

struct LedgerInner {
    states: Vec<RequestState>,
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
    meta: Vec<RequestMeta>,
    inner: Mutex<LedgerInner>,
    inboxes: Vec<Mutex<VecDeque<usize>>>,
    /// Last estimate each node published; `-1` encodes "none yet".
    estimates: Vec<AtomicI64>,
}

impl Ledger {
    /// A fresh ledger over a generated request schedule, for an `n`-node
    /// service.
    #[must_use]
    pub fn new(meta: Vec<RequestMeta>, n: usize) -> Arc<Self> {
        let states = vec![RequestState::Pending; meta.len()];
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
        {
            let inner = self.inner.lock();
            if inner.states[id] != RequestState::Pending {
                return;
            }
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
        let mut inner = self.inner.lock();
        if inner.states[id] == RequestState::Pending {
            inner.states[id] = state;
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
        // Fail-fast pass first: when one sweep covers both ticks, the
        // rejection wins wherever the bound is at or under the client's
        // patience. A bound looser than the deadline is moot for that
        // request — the stall sweep owns it.
        while inner.bound_cursor < self.meta.len() {
            let id = inner.bound_cursor;
            match self.meta[id].fail_fast {
                Some(at) if at <= now => {
                    if inner.states[id] == RequestState::Pending && at <= self.meta[id].deadline {
                        inner.states[id] = RequestState::Rejected { at };
                    }
                    inner.bound_cursor += 1;
                }
                Some(_) => break,
                None => inner.bound_cursor += 1,
            }
        }
        while inner.sweep_cursor < self.meta.len() {
            let id = inner.sweep_cursor;
            let deadline = self.meta[id].deadline;
            if deadline > now {
                break;
            }
            if inner.states[id] == RequestState::Pending {
                inner.states[id] = RequestState::Stalled { at: deadline };
            }
            inner.sweep_cursor += 1;
        }
    }

    /// A snapshot of every request's state, index-aligned with
    /// [`meta`](Self::meta).
    #[must_use]
    pub fn states(&self) -> Vec<RequestState> {
        self.inner.lock().states.clone()
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

    fn meta(arrivals: &[u64], deadline: u64) -> Vec<RequestMeta> {
        arrivals
            .iter()
            .map(|&arrival| RequestMeta {
                arrival,
                deadline: arrival + deadline,
                fail_fast: None,
                client: 0,
                kind: RequestKind::Get { key: 0 },
            })
            .collect()
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
        let mut meta = meta(&[0, 100, 200], 1_000);
        for m in &mut meta {
            m.fail_fast = Some(m.arrival + 300);
        }
        let ledger = Ledger::new(meta, 1);
        ledger.complete(1, 150);
        ledger.sweep(5_000);
        let states = ledger.states();
        assert_eq!(states[0], RequestState::Rejected { at: 300 });
        assert_eq!(states[1], RequestState::Committed { at: 150 });
        assert_eq!(states[2], RequestState::Rejected { at: 500 });
    }

    #[test]
    fn a_bound_looser_than_the_deadline_is_moot() {
        let mut meta = meta(&[0], 50);
        meta[0].fail_fast = Some(200);
        let ledger = Ledger::new(meta, 1);
        ledger.sweep(1_000);
        assert_eq!(
            ledger.states()[0],
            RequestState::Stalled { at: 50 },
            "the client's patience ran out before the router's"
        );
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
