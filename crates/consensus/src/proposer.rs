//! The round-based proposer: safety from registers, liveness from Ω.
//!
//! The algorithm is the shared-memory form of round-based ("alpha")
//! consensus: a proposer running round `r` first *promises* `r` in its own
//! round register, then reads everyone; if nobody has promised a higher
//! round it *accepts* the value adopted from the highest earlier accept
//! (or its own proposal), writes it, re-reads everyone, and decides if its
//! round still tops every promise. Rounds owned by distinct processes are
//! disjoint (`r ≡ pid (mod n)`), so every round has a unique owner.
//!
//! **Safety holds unconditionally** — under any interleaving and any number
//! of crashed proposers, at most one value is ever decided (the Disk-Paxos
//! argument with a single reliable memory). **Liveness needs Ω**: a
//! proposer starts attempts only while `leader() = self`, so once Ω
//! stabilizes a single correct proposer runs unopposed, its rounds
//! eventually top every promise, and it decides; everyone else learns the
//! decision through the `DEC` registers.
//!
//! [`ConsensusProcess::step`] performs **at most one shared-register
//! operation per call** (plus the decision scan while idle), so a driver —
//! simulator or thread loop — interleaves proposers at the same granularity
//! the safety proof quantifies over.

use std::sync::Arc;

use omega_registers::{ProcessId, RegisterValue};

use crate::instance::ConsensusInstance;

/// What a call to [`ConsensusProcess::step`] concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposerStatus<V> {
    /// No decision yet; keep stepping.
    Deciding,
    /// The instance decided this value.
    Decided(V),
}

/// Where a proposer is inside its current round attempt.
#[derive(Debug, Clone)]
enum Phase<V> {
    /// Not attempting: scanning for decisions, waiting for leadership.
    Idle,
    /// Promise written; reading round registers one by one.
    Reading {
        r: u64,
        index: usize,
        highest_promise: u64,
        best: (u64, Option<V>),
    },
    /// Accept written; verifying promises one by one.
    Verifying { r: u64, value: V, index: usize },
}

/// A single process's handle on one consensus instance.
///
/// Drive it by calling [`step`](ConsensusProcess::step) with the process's
/// current Ω output.
#[derive(Debug)]
pub struct ConsensusProcess<V: RegisterValue> {
    pid: ProcessId,
    inst: Arc<ConsensusInstance<V>>,
    proposal: V,
    /// Mirror of the owned round register (owner-side copy).
    my_entry: (u64, u64, Option<V>),
    /// Highest round this proposer will not reuse.
    round_floor: u64,
    phase: Phase<V>,
    decided: Option<V>,
    attempts: u64,
    /// Buffer of the idle phase's `DEC` scan.
    scan: Vec<Option<V>>,
}

impl<V: RegisterValue + PartialEq> ConsensusProcess<V> {
    /// Creates a proposer for `pid` proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for the instance.
    #[must_use]
    pub fn new(inst: Arc<ConsensusInstance<V>>, pid: ProcessId, proposal: V) -> Self {
        assert!(pid.index() < inst.n(), "{pid} out of range");
        let my_entry = inst.round_reg(pid).peek();
        ConsensusProcess {
            pid,
            proposal,
            my_entry,
            round_floor: 0,
            phase: Phase::Idle,
            decided: None,
            attempts: 0,
            scan: Vec::new(),
            inst,
        }
    }

    /// This proposer's identity.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The decided value, if this process has learned it.
    #[must_use]
    pub fn decided(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// Number of round attempts started so far.
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// The smallest round owned by `pid` strictly greater than `floor`.
    fn next_owned_round(&self, floor: u64) -> u64 {
        let n = self.inst.n() as u64;
        let id = self.pid.index() as u64;
        let mut r = (floor / n) * n + id + 1;
        while r <= floor {
            r += n;
        }
        r
    }

    fn learn(&mut self, value: V) -> ProposerStatus<V> {
        self.inst
            .decision_reg(self.pid)
            .write(self.pid, Some(value.clone()));
        self.decided = Some(value.clone());
        self.phase = Phase::Idle;
        ProposerStatus::Decided(value)
    }

    /// Performs one small chunk of work — at most one round-register
    /// operation, so drivers control the interleaving at the granularity
    /// the safety argument cares about.
    pub fn step(&mut self, leader: ProcessId) -> ProposerStatus<V> {
        if let Some(v) = &self.decided {
            return ProposerStatus::Decided(v.clone());
        }
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {
                // Learn decisions published by others.
                if let Some(v) = self.inst.read_decision(self.pid, &mut self.scan) {
                    return self.learn(v);
                }
                if leader != self.pid {
                    return ProposerStatus::Deciding;
                }
                // Phase 1: promise a fresh owned round.
                self.attempts += 1;
                let r = self.next_owned_round(self.round_floor);
                self.round_floor = r;
                let (_, bal, inp) = self.my_entry.clone();
                self.my_entry = (r, bal, inp.clone());
                self.inst
                    .round_reg(self.pid)
                    .write(self.pid, self.my_entry.clone());
                self.phase = Phase::Reading {
                    r,
                    index: 0,
                    highest_promise: r,
                    best: (bal, inp),
                };
                ProposerStatus::Deciding
            }
            Phase::Reading {
                r,
                index,
                mut highest_promise,
                mut best,
            } => {
                if index < self.inst.n() {
                    let j = ProcessId::new(index);
                    if j != self.pid {
                        let (mbal_j, bal_j, inp_j) = self.inst.round_reg(j).read(self.pid);
                        highest_promise = highest_promise.max(mbal_j);
                        if bal_j > best.0 {
                            best = (bal_j, inp_j);
                        }
                    }
                    self.phase = Phase::Reading {
                        r,
                        index: index + 1,
                        highest_promise,
                        best,
                    };
                    return ProposerStatus::Deciding;
                }
                if highest_promise > r {
                    // A higher round is in flight: abort past it.
                    self.round_floor = highest_promise;
                    self.phase = Phase::Idle;
                    return ProposerStatus::Deciding;
                }
                // Phase 2: accept the constrained value.
                let value = best.1.unwrap_or_else(|| self.proposal.clone());
                self.my_entry = (r, r, Some(value.clone()));
                self.inst
                    .round_reg(self.pid)
                    .write(self.pid, self.my_entry.clone());
                self.phase = Phase::Verifying { r, value, index: 0 };
                ProposerStatus::Deciding
            }
            Phase::Verifying { r, value, index } => {
                if index < self.inst.n() {
                    let j = ProcessId::new(index);
                    if j != self.pid {
                        let (mbal_j, _, _) = self.inst.round_reg(j).read(self.pid);
                        if mbal_j > r {
                            self.round_floor = mbal_j;
                            self.phase = Phase::Idle;
                            return ProposerStatus::Deciding;
                        }
                    }
                    self.phase = Phase::Verifying {
                        r,
                        value,
                        index: index + 1,
                    };
                    return ProposerStatus::Deciding;
                }
                // Round survived: decide and publish.
                self.learn(value)
            }
        }
    }

    /// Convenience driver: steps with a fixed leader until decided or
    /// `max_steps` exhausted.
    pub fn step_until_decided(&mut self, leader: ProcessId, max_steps: usize) -> Option<V> {
        for _ in 0..max_steps {
            if let ProposerStatus::Decided(v) = self.step(leader) {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_registers::MemorySpace;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn setup(
        n: usize,
    ) -> (
        MemorySpace,
        Arc<ConsensusInstance<u64>>,
        Vec<ConsensusProcess<u64>>,
    ) {
        let space = MemorySpace::new(n);
        let inst = ConsensusInstance::new(&space, "C");
        let procs = ProcessId::all(n)
            .map(|pid| ConsensusProcess::new(Arc::clone(&inst), pid, 100 + pid.index() as u64))
            .collect();
        (space, inst, procs)
    }

    #[test]
    fn sole_leader_decides_its_own_proposal() {
        let (_s, inst, mut procs) = setup(3);
        let v = procs[0]
            .step_until_decided(p(0), 50)
            .expect("sole leader decides");
        assert_eq!(v, 100);
        assert_eq!(inst.peek_decision(), Some(100));
        assert_eq!(procs[0].attempts(), 1);
    }

    #[test]
    fn followers_learn_the_decision() {
        let (_s, _inst, mut procs) = setup(3);
        let _ = procs[0].step_until_decided(p(0), 50);
        let v = procs[1]
            .step_until_decided(p(0), 5)
            .expect("follower learns via DEC");
        assert_eq!(v, 100);
        assert_eq!(procs[1].attempts(), 0, "followers never attempt rounds");
    }

    #[test]
    fn non_leader_does_nothing() {
        let (_s, inst, mut procs) = setup(2);
        assert_eq!(procs[1].step_until_decided(p(0), 20), None);
        assert_eq!(inst.peek_decision(), None);
        assert_eq!(procs[1].attempts(), 0);
    }

    #[test]
    fn round_numbering_is_disjoint_per_process() {
        let (_s, _inst, procs) = setup(3);
        assert_eq!(procs[0].next_owned_round(0), 1);
        assert_eq!(procs[1].next_owned_round(0), 2);
        assert_eq!(procs[2].next_owned_round(0), 3);
        assert_eq!(procs[0].next_owned_round(1), 4);
        assert_eq!(procs[0].next_owned_round(5), 7);
        assert_eq!(procs[2].next_owned_round(3), 6);
    }

    #[test]
    fn interleaved_contention_preserves_agreement() {
        // Phase 1: every process believes it is the leader; steps interleave
        // round-robin at single-operation granularity. Symmetric contention
        // may livelock (this is the FLP scenario Ω exists to break), but any
        // decisions that do happen must agree and be valid.
        let (_s, _inst, mut procs) = setup(3);
        let mut decisions: Vec<Option<u64>> = vec![None; 3];
        for _ in 0..500 {
            for (i, proc) in procs.iter_mut().enumerate() {
                if decisions[i].is_none() {
                    if let ProposerStatus::Decided(v) = proc.step(p(i)) {
                        decisions[i] = Some(v);
                    }
                }
            }
        }
        let contenders: Vec<u64> = decisions.iter().copied().flatten().collect();
        assert!(
            contenders.windows(2).all(|w| w[0] == w[1]),
            "agreement under contention: {contenders:?}"
        );

        // Phase 2: Ω "stabilizes" on p0 — now everyone must terminate.
        for _ in 0..500 {
            for (i, proc) in procs.iter_mut().enumerate() {
                if decisions[i].is_none() {
                    if let ProposerStatus::Decided(v) = proc.step(p(0)) {
                        decisions[i] = Some(v);
                    }
                }
            }
            if decisions.iter().all(Option::is_some) {
                break;
            }
        }
        let got: Vec<u64> = decisions
            .iter()
            .map(|d| d.expect("all decide once Ω settles"))
            .collect();
        assert!(got.windows(2).all(|w| w[0] == w[1]), "agreement: {got:?}");
        assert!((100..103).contains(&got[0]), "validity");
    }

    #[test]
    fn adopted_value_survives_leader_change() {
        let (_s, _inst, mut procs) = setup(2);
        let v1 = procs[1].step_until_decided(p(1), 50).unwrap();
        assert_eq!(v1, 101);
        let v0 = procs[0].step_until_decided(p(0), 50).unwrap();
        assert_eq!(v0, 101, "later leader must learn/adopt the decided value");
    }

    #[test]
    fn phase1_abort_jumps_past_contending_round() {
        let (_s, inst, mut procs) = setup(2);
        inst.round_reg(p(1)).poke((41, 0, None));
        let v = procs[0]
            .step_until_decided(p(0), 50)
            .expect("eventually decides");
        assert_eq!(v, 100);
        let (mbal, bal, _) = inst.round_reg(p(0)).peek();
        assert!(mbal > 41, "second attempt jumped past the promise: {mbal}");
        assert_eq!(mbal, bal);
        assert!(procs[0].attempts() >= 2, "first attempt must have aborted");
    }

    #[test]
    fn value_constrained_by_highest_accept() {
        let (_s, inst, mut procs) = setup(3);
        // p2 accepted 777 at round 3 (possibly decided) before crashing.
        inst.round_reg(p(2)).poke((3, 3, Some(777)));
        let v = procs[0].step_until_decided(p(0), 100).unwrap();
        assert_eq!(v, 777, "must adopt the possibly-decided value");
    }

    #[test]
    fn mid_attempt_leadership_loss_is_safe() {
        let (_s, _inst, mut procs) = setup(2);
        // p0 starts an attempt as leader...
        let _ = procs[0].step(p(0)); // promise write
        let _ = procs[0].step(p(0)); // read RR[0]
                                     // ...then leadership flips to p1, which decides.
        let v1 = procs[1].step_until_decided(p(1), 50).unwrap();
        // p0 finishes stepping (no longer leader): must converge to v1.
        let v0 = procs[0].step_until_decided(p(1), 50).unwrap();
        assert_eq!(v0, v1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pid_out_of_range_rejected() {
        let space = MemorySpace::new(1);
        let inst = ConsensusInstance::<u64>::new(&space, "C");
        let _ = ConsensusProcess::new(inst, p(3), 0);
    }
}
