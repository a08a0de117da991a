//! The shared-register layout of one consensus instance.
//!
//! An instance is two register banks — `RR[0..n]` then `DEC[0..n]`, slot
//! `i` of each owned by `p_i` — allocated together, so that a log slot
//! costs the registry two entries whatever n is, and so that the scan
//! every replica performs on every poll, "has anyone published a
//! decision?", is one range read of adjacent cells
//! ([`ConsensusInstance::read_decision`]). The `DEC` bank is stored in
//! [`OptionCell`]s: until the instance decides, that scan is n flag loads
//! and takes no lock. Names (`<name>.RR[i]`, `<name>.DEC[i]`), ids and
//! owners are those of 2n registers allocated one by one in that order;
//! statistics and footprint rows cannot tell the difference.

use std::sync::Arc;

use omega_registers::cell::OptionCell;
use omega_registers::{MemorySpace, ProcessId, RegisterValue, SwmrArray, SwmrRegister};

/// Contents of a proposer's round register `RR[i]`:
/// `(mbal, bal, inp)` — the highest round promised, the round of the last
/// accepted value, and that value.
pub type RoundEntry<V> = (u64, u64, Option<V>);

/// The 1WnR registers of a single-shot consensus instance.
///
/// Each process owns one *round register* `RR[i]` (its Disk-Paxos-style
/// block) and one *decision register* `DEC[i]`; everyone reads all of them.
/// Consensus over such registers is exactly what the paper motivates Ω
/// with: Ω is the weakest failure detector that makes this terminate
/// (\[19\]; Disk Paxos \[9\]).
#[derive(Debug)]
pub struct ConsensusInstance<V: RegisterValue> {
    rounds: SwmrArray<RoundEntry<V>>,
    decisions: SwmrArray<Option<V>, OptionCell<V>>,
}

impl<V: RegisterValue> ConsensusInstance<V> {
    /// Allocates the instance's registers in `space`, prefixed with `name`
    /// so multiple instances (log slots) can share one space.
    #[must_use]
    pub fn new(space: &MemorySpace, name: &str) -> Arc<Self> {
        Arc::new(ConsensusInstance {
            rounds: space.swmr_array(&format!("{name}.RR"), |_| (0, 0, None)),
            decisions: space.swmr_array_cell(&format!("{name}.DEC"), |_| None),
        })
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.rounds.len()
    }

    /// The round register owned by `pid`.
    #[must_use]
    pub fn round_reg(&self, pid: ProcessId) -> &SwmrRegister<RoundEntry<V>> {
        self.rounds.get(pid)
    }

    /// The decision register owned by `pid`.
    #[must_use]
    pub fn decision_reg(&self, pid: ProcessId) -> &SwmrRegister<Option<V>, OptionCell<V>> {
        self.decisions.get(pid)
    }

    /// Scans `DEC[0..n]` on behalf of `reader` and returns the first
    /// decision found, if any: one attributed read of every decision
    /// register, in identity order, issued as a single range read (the
    /// partition mask is resolved once and the reader's tally of the bank
    /// is bumped once, by n). `scratch` receives the n values; a caller that polls
    /// keeps it between calls so the scan allocates nothing.
    pub fn read_decision(&self, reader: ProcessId, scratch: &mut Vec<Option<V>>) -> Option<V> {
        scratch.resize(self.n(), None);
        self.decisions.snapshot_into(reader, scratch);
        scratch.iter_mut().find_map(Option::take)
    }

    /// Unattributed view of any decision present in the instance (harness
    /// use only).
    #[must_use]
    pub fn peek_decision(&self) -> Option<V> {
        self.decisions.iter().find_map(|(_, reg)| reg.peek())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_names_and_owners() {
        let space = MemorySpace::new(3);
        let inst = ConsensusInstance::<u64>::new(&space, "C0");
        assert_eq!(inst.n(), 3);
        for pid in ProcessId::all(3) {
            assert_eq!(inst.round_reg(pid).owner(), pid);
            assert_eq!(inst.decision_reg(pid).owner(), pid);
            assert_eq!(
                inst.round_reg(pid).name(),
                format!("C0.RR[{}]", pid.index())
            );
            assert_eq!(
                inst.decision_reg(pid).name(),
                format!("C0.DEC[{}]", pid.index())
            );
        }
        assert_eq!(space.register_count(), 6);
    }

    #[test]
    fn ids_are_consecutive_rounds_then_decisions() {
        let space = MemorySpace::new(3);
        // Something allocated before, so the instance does not start at 0.
        let _before = space.swmr::<u64>("X", ProcessId::new(0), 0);
        let inst = ConsensusInstance::<u64>::new(&space, "C0");
        let ids: Vec<usize> = ProcessId::all(3)
            .map(|pid| inst.round_reg(pid).id().index())
            .chain(ProcessId::all(3).map(|pid| inst.decision_reg(pid).id().index()))
            .collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 6], "RR[0..n] then DEC[0..n]");
        assert_eq!(space.register_count(), 7, "exactly 2n registers");
    }

    #[test]
    fn peek_decision_scans_all() {
        let space = MemorySpace::new(2);
        let inst = ConsensusInstance::<u64>::new(&space, "C0");
        assert_eq!(inst.peek_decision(), None);
        let p1 = ProcessId::new(1);
        inst.decision_reg(p1).write(p1, Some(9));
        assert_eq!(inst.peek_decision(), Some(9));
    }

    #[test]
    fn initial_round_entries_are_empty() {
        let space = MemorySpace::new(2);
        let inst = ConsensusInstance::<u64>::new(&space, "X");
        let p0 = ProcessId::new(0);
        assert_eq!(inst.round_reg(p0).peek(), (0, 0, None));
    }
}
