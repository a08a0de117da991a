//! Adopt-commit: the one-shot agreement safety primitive.
//!
//! An *adopt-commit* object (Gafni 1998; Yang–Anderson) is the classic
//! wait-free building block between registers and consensus: every process
//! proposes once and gets back `Commit(v)` or `Adopt(v)` such that
//!
//! * **Validity** — the returned value was proposed by someone;
//! * **Coherence** — if any process gets `Commit(v)`, every process gets
//!   `Commit(v)` or `Adopt(v)` with that same `v`;
//! * **Convergence** — if every proposal is `v`, everyone gets `Commit(v)`.
//!
//! It is the "safety half" of round-based consensus (what a round of the
//! proposer's phase-1/phase-2 effectively computes), implementable
//! wait-free from 1WnR registers — no Ω needed. Combining one adopt-commit
//! per round with Ω for round leadership is the textbook route to
//! consensus; the crate's [`ConsensusProcess`](crate::ConsensusProcess)
//! fuses the two for efficiency, and this standalone object is provided
//! (and independently tested) as part of the substrate library.

use std::sync::Arc;

use omega_registers::{MemorySpace, ProcessId, RegisterValue, SwmrArray};

/// The outcome of an adopt-commit proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdoptCommitOutcome<V> {
    /// Everyone is guaranteed to leave with this value: safe to decide.
    Commit(V),
    /// Carry this value into the next round; someone may have committed it.
    Adopt(V),
}

impl<V> AdoptCommitOutcome<V> {
    /// The carried value, regardless of commit status.
    pub fn value(&self) -> &V {
        match self {
            AdoptCommitOutcome::Commit(v) | AdoptCommitOutcome::Adopt(v) => v,
        }
    }

    /// Whether the outcome is a commit.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        matches!(self, AdoptCommitOutcome::Commit(_))
    }
}

/// A single-use adopt-commit object over 1WnR registers.
///
/// Each process calls [`propose`](AdoptCommit::propose) at most once.
///
/// # Examples
///
/// ```
/// use omega_consensus::{AdoptCommit, AdoptCommitOutcome};
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// let object = AdoptCommit::<u64>::new(&space, "AC");
/// let p0 = ProcessId::new(0);
/// // A solo proposer always commits its own value.
/// assert_eq!(object.propose(p0, 9), AdoptCommitOutcome::Commit(9));
/// ```
#[derive(Debug)]
pub struct AdoptCommit<V: RegisterValue> {
    /// Phase-1 proposals: `A[i]`.
    proposals: SwmrArray<Option<V>>,
    /// Phase-2 reports: `B[i] = (value, saw_single)`.
    reports: SwmrArray<Option<(V, bool)>>,
}

impl<V: RegisterValue + PartialEq> AdoptCommit<V> {
    /// Allocates the object's registers in `space` under `name`.
    #[must_use]
    pub fn new(space: &MemorySpace, name: &str) -> Arc<Self> {
        Arc::new(AdoptCommit {
            proposals: space.swmr_array(&format!("{name}.A"), |_| None),
            reports: space.swmr_array(&format!("{name}.B"), |_| None),
        })
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.proposals.len()
    }

    /// Proposes `value` on behalf of `pid` (call at most once per process).
    pub fn propose(&self, pid: ProcessId, value: V) -> AdoptCommitOutcome<V> {
        // Phase 1: publish, then scan proposals.
        self.proposals.get(pid).write(pid, Some(value.clone()));
        let mut saw_other = false;
        for (_, proposal) in self.proposals.iter() {
            if let Some(v) = proposal.read(pid) {
                if v != value {
                    saw_other = true;
                }
            }
        }
        let single = !saw_other;
        self.reports
            .get(pid)
            .write(pid, Some((value.clone(), single)));

        // Phase 2: scan reports.
        let mut all_single = true;
        let mut any_single: Option<V> = None;
        let mut saw_any = false;
        for (_, report) in self.reports.iter() {
            if let Some((v, s)) = report.read(pid) {
                saw_any = true;
                if s {
                    any_single = Some(v);
                } else {
                    all_single = false;
                }
            }
        }
        debug_assert!(saw_any, "own report always visible");
        match (all_single, any_single) {
            (true, Some(v)) => AdoptCommitOutcome::Commit(v),
            (false, Some(v)) => AdoptCommitOutcome::Adopt(v),
            // No single report seen at all: keep the own value.
            (_, None) => AdoptCommitOutcome::Adopt(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn solo_proposer_commits() {
        let space = MemorySpace::new(3);
        let ac = AdoptCommit::<u64>::new(&space, "AC");
        assert_eq!(ac.propose(p(1), 5), AdoptCommitOutcome::Commit(5));
        assert_eq!(ac.n(), 3);
    }

    #[test]
    fn unanimous_proposals_all_commit() {
        let space = MemorySpace::new(3);
        let ac = AdoptCommit::<u64>::new(&space, "AC");
        for i in 0..3 {
            assert_eq!(
                ac.propose(p(i), 7),
                AdoptCommitOutcome::Commit(7),
                "proposer {i}"
            );
        }
    }

    #[test]
    fn sequential_conflict_preserves_coherence() {
        let space = MemorySpace::new(2);
        let ac = AdoptCommit::<u64>::new(&space, "AC");
        let first = ac.propose(p(0), 1);
        assert!(first.is_commit(), "first, uncontended proposal commits");
        let second = ac.propose(p(1), 2);
        // Coherence: since p0 committed 1, p1 must carry 1.
        assert_eq!(*second.value(), 1);
        assert!(!second.is_commit() || *second.value() == 1);
    }

    #[test]
    fn outcome_accessors() {
        let c: AdoptCommitOutcome<u64> = AdoptCommitOutcome::Commit(3);
        let a: AdoptCommitOutcome<u64> = AdoptCommitOutcome::Adopt(4);
        assert!(c.is_commit());
        assert!(!a.is_commit());
        assert_eq!(*c.value(), 3);
        assert_eq!(*a.value(), 4);
    }

    #[test]
    fn concurrent_threads_preserve_coherence() {
        // True parallelism over the lock-backed registers: whatever the
        // interleaving, commits force everyone onto one value.
        for round in 0..20u64 {
            let space = MemorySpace::new(4);
            let ac = AdoptCommit::<u64>::new(&space, "AC");
            let outcomes: Vec<AdoptCommitOutcome<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|i| {
                        let ac = Arc::clone(&ac);
                        s.spawn(move || ac.propose(p(i), (round % 2) * 10 + i as u64 % 2))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let committed: Vec<&u64> = outcomes
                .iter()
                .filter(|o| o.is_commit())
                .map(AdoptCommitOutcome::value)
                .collect();
            if let Some(&&v) = committed.first() {
                for o in &outcomes {
                    assert_eq!(
                        *o.value(),
                        v,
                        "coherence violated in round {round}: {outcomes:?}"
                    );
                }
            }
        }
    }
}
