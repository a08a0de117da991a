//! One service node: the leader-gated replica loop.
//!
//! A node couples three things its host (simulator actor or wall-clock
//! task) drives through one [`poll`](ServiceNode::poll) entry
//! point: the Ω estimate it is handed, its replica of the replicated log,
//! and its deterministic KV state machine. The gating rule is the whole
//! protocol: a node *serves* only while its own Ω output names itself —
//! gets are answered from the local replica immediately, puts are
//! submitted to the log — and everything drained while not leader is
//! refused. Liveness of the service is therefore exactly the liveness Ω
//! provides, which is what makes failover cost attributable to the
//! election.

use std::collections::VecDeque;
use std::sync::Arc;

use omega_consensus::{KvCommand, KvStore, LogEvent, LogHandle, LogShared};
use omega_registers::ProcessId;

use crate::ledger::Ledger;
use crate::workload::{RequestKind, WorkloadSpec};

/// One replica of the leader-gated KV service.
pub struct ServiceNode {
    pid: ProcessId,
    ledger: Arc<Ledger>,
    log: LogHandle<KvCommand>,
    store: KvStore,
    /// Request ids behind the log's pending queue, in submission order —
    /// an `ours` commit event retires exactly the front entry.
    submitted: VecDeque<usize>,
    /// Proposal rounds lost to another proposer (operation-cost metric).
    superseded: u64,
    /// The log's commit events of this poll; kept, so that draining them
    /// allocates nothing once it has grown to a poll's worth.
    events: Vec<LogEvent>,
    /// `keys[k]` names key index `k`, built on first use: every command
    /// and lookup for the key shares it.
    keys: Vec<Arc<str>>,
}

impl ServiceNode {
    /// A fresh replica `pid` over the shared log and the shared ledger.
    #[must_use]
    pub fn new(pid: ProcessId, ledger: Arc<Ledger>, shared: Arc<LogShared<KvCommand>>) -> Self {
        let mut log = LogHandle::new(shared, pid);
        log.enable_events();
        ServiceNode {
            pid,
            ledger,
            log,
            store: KvStore::new(),
            submitted: VecDeque::new(),
            superseded: 0,
            events: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// This replica's identity.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// One chunk of service work, given the node's current Ω estimate and
    /// the current tick: publish the estimate, drain the inbox (serve or
    /// refuse), advance the log, acknowledge commits, and apply the
    /// decided prefix to the local store.
    pub fn poll(&mut self, estimate: Option<ProcessId>, now: u64) {
        self.ledger.publish(self.pid, estimate);

        let is_leader = estimate == Some(self.pid);
        for id in self.ledger.drain(self.pid) {
            if !is_leader {
                self.ledger.reject(id, now);
                continue;
            }
            match self.ledger.meta()[id].kind {
                RequestKind::Get { key } => {
                    // Leader-local read: served from the replica, no slot.
                    let key = self.key(key);
                    let _ = self.store.get(&key);
                    self.ledger.complete(id, now);
                }
                RequestKind::Put { key } => {
                    let command = KvCommand::Put(self.key(key), id as u64);
                    self.log.submit(command);
                    self.submitted.push_back(id);
                }
            }
        }

        // The log needs a leader hint to make progress; with no estimate
        // there is nothing sound to do this poll.
        if let Some(leader) = estimate {
            self.log.step(leader);
        }

        self.log.drain_events(&mut self.events);
        for event in self.events.drain(..) {
            match event {
                LogEvent::Committed { ours: true, .. } => {
                    if let Some(id) = self.submitted.pop_front() {
                        self.ledger.complete(id, now);
                    }
                }
                LogEvent::Committed { ours: false, .. } => {}
                LogEvent::Superseded { .. } => self.superseded += 1,
            }
        }
        self.store.apply_committed(self.log.committed());
    }

    /// The shared name of key index `key` (see [`WorkloadSpec::key_name`]).
    fn key(&mut self, key: u32) -> Arc<str> {
        let index = usize::try_from(key).expect("key index fits usize");
        while self.keys.len() <= index {
            let next = WorkloadSpec::key_name(self.keys.len() as u64);
            self.keys.push(next.into());
        }
        Arc::clone(&self.keys[index])
    }

    /// The replica's current state machine.
    #[must_use]
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Slots this replica has learned committed.
    #[must_use]
    pub fn committed_slots(&self) -> usize {
        self.log.committed().len()
    }

    /// Proposal rounds this replica lost to a competing proposer.
    #[must_use]
    pub fn superseded_rounds(&self) -> u64 {
        self.superseded
    }
}

impl std::fmt::Debug for ServiceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceNode")
            .field("pid", &self.pid)
            .field("committed_slots", &self.committed_slots())
            .field("inflight", &self.submitted.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RequestMeta, Schedule};
    use omega_registers::MemorySpace;

    fn setup(n: usize, meta: Vec<RequestMeta>) -> (Arc<Ledger>, Vec<ServiceNode>) {
        let space = MemorySpace::new(n);
        let shared = LogShared::<KvCommand>::new(space);
        let ledger = Ledger::new(Schedule::new(meta, 10_000, None), n);
        let nodes = ProcessId::all(n)
            .map(|pid| ServiceNode::new(pid, Arc::clone(&ledger), Arc::clone(&shared)))
            .collect();
        (ledger, nodes)
    }

    fn put(arrival: u64, key: u32) -> RequestMeta {
        RequestMeta {
            arrival,
            client: 0,
            kind: RequestKind::Put { key },
        }
    }

    fn get(arrival: u64, key: u32) -> RequestMeta {
        RequestMeta {
            arrival,
            client: 0,
            kind: RequestKind::Get { key },
        }
    }

    #[test]
    fn leader_serves_gets_and_replicates_puts() {
        let (ledger, mut nodes) = setup(2, vec![put(0, 1), get(1, 1)]);
        let leader = ProcessId::new(0);
        ledger.publish(leader, Some(leader));
        ledger.issue(0, 0);
        ledger.issue(1, 1);
        for now in 0..500 {
            nodes[0].poll(Some(leader), now);
        }
        let states = ledger.states();
        assert!(matches!(
            states[0],
            crate::ledger::RequestState::Committed { .. }
        ));
        assert!(matches!(
            states[1],
            crate::ledger::RequestState::Committed { at: 0..=2 }
        ));
        assert_eq!(nodes[0].store().get("k001"), Some(0), "value = request id");
        // The follower catches up by stepping with any leader hint.
        for now in 0..500 {
            nodes[1].poll(Some(leader), now);
        }
        assert_eq!(nodes[1].committed_slots(), 1);
        assert_eq!(nodes[1].store().get("k001"), Some(0));
    }

    #[test]
    fn non_leader_refuses_drained_requests() {
        let (ledger, mut nodes) = setup(2, vec![get(0, 3)]);
        // Route to node 1, which believes node 0 leads.
        ledger.publish(ProcessId::new(0), Some(ProcessId::new(1)));
        ledger.publish(ProcessId::new(1), Some(ProcessId::new(1)));
        ledger.issue(0, 0);
        nodes[1].poll(Some(ProcessId::new(0)), 5);
        assert_eq!(
            ledger.states()[0],
            crate::ledger::RequestState::Rejected { at: 5 }
        );
    }
}
