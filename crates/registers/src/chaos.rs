//! The partition visibility mask behind register-space chaos campaigns.
//!
//! A *partition* severs the read visibility between groups of processes:
//! while it is installed, a read of a register **owned** by a process in a
//! different group returns the value frozen at the cut instead of the live
//! one — exactly what a process on the far side of a split storage fabric
//! would observe. Writes are untouched (an owner always reaches its own
//! row), ownerless nWnR registers are untouched (they model a medium both
//! sides still reach), and the access counters are untouched (a partitioned
//! read is still a read), so non-chaos accounting is byte-identical with
//! and without the mask compiled in the hot path.
//!
//! The mask is lock-free. While inactive it costs one atomic load per read
//! (or per *range* read — a scan resolves the mask once, not once per
//! slot); mid-partition a read adds relaxed loads of the two group cells.
//! The group table is sized at space creation and published before the
//! state word (release/acquire), so a reader that sees the mask active
//! sees the table that install wrote. Re-installing over an active mask
//! (a flap half-cycle) rewrites the table in place: a wall-clock reader
//! racing the flip may compare one old and one new group for that one
//! read, which is the same outcome as performing the read just before or
//! just after the flip would have had for one of the two processes.
//!
//! Beyond symmetric splits, the mask also supports a **directed cut**: a
//! *blinded* side reads the *hidden* side frozen while the hidden side
//! still reads the blinded side live. Directed cuts model asymmetric
//! fabric failures (one switch drops inbound traffic only) and are the
//! substrate for the López–Rajsbaum–Raynal weak-connectivity scenarios:
//! election must survive exactly when a strongly-connected timely core
//! remains visible to everyone.

use std::sync::atomic::{AtomicI32, AtomicU8, Ordering};

use crate::ProcessId;

/// Group index of the blinded side of a directed cut (its reads of the
/// hidden side are severed).
pub(crate) const CUT_BLINDED: i32 = 0;
/// Group index of the hidden side of a directed cut (it reads everyone
/// live, but the blinded side reads it frozen).
pub(crate) const CUT_HIDDEN: i32 = 1;

const INACTIVE: u8 = 0;
const SYMMETRIC: u8 = 1;
/// Only reads by group [`CUT_BLINDED`] of registers owned by group
/// [`CUT_HIDDEN`] are severed; every other pairing stays live.
const DIRECTED: u8 = 2;

/// Space-wide partition state shared by every register bank of a
/// [`MemorySpace`](crate::MemorySpace).
pub(crate) struct PartitionMask {
    state: AtomicU8,
    /// Group index per process id; `-1` marks a process outside every
    /// group (it sees, and is seen by, everyone). Ids beyond the table —
    /// e.g. a harness-side actor beyond the election's `n` — are outside
    /// every group too.
    group_of: Box<[AtomicI32]>,
}

/// One reader's side of the installed mask, resolved once per (range)
/// read: only handed out when the reader can be severed from *someone*.
pub(crate) struct ReaderView<'a> {
    group_of: &'a [AtomicI32],
    group: i32,
    directed: bool,
}

/// Group of process number `process`: `-1` when it is in no group or
/// beyond the table.
#[inline]
fn group(group_of: &[AtomicI32], process: usize) -> i32 {
    group_of
        .get(process)
        .map_or(-1, |g| g.load(Ordering::Relaxed))
}

impl ReaderView<'_> {
    /// Whether this reader's view of a register owned by process number
    /// `owner` is severed.
    #[inline]
    pub(crate) fn severs(&self, owner: usize) -> bool {
        let theirs = group(self.group_of, owner);
        if self.directed {
            theirs == CUT_HIDDEN
        } else {
            theirs >= 0 && theirs != self.group
        }
    }
}

impl PartitionMask {
    /// An inactive mask for a system of `n_processes`.
    pub(crate) fn new(n_processes: usize) -> Self {
        PartitionMask {
            state: AtomicU8::new(INACTIVE),
            group_of: (0..n_processes).map(|_| AtomicI32::new(-1)).collect(),
        }
    }

    /// `reader`'s side of the installed mask — `None` while no mask is
    /// installed, or when nothing is severed from `reader` (it is outside
    /// every group, or not on the blinded side of a directed cut).
    #[inline]
    pub(crate) fn view_of(&self, reader: ProcessId) -> Option<ReaderView<'_>> {
        let state = self.state.load(Ordering::Acquire);
        if state == INACTIVE {
            return None;
        }
        let group = group(&self.group_of, reader.index());
        let directed = state == DIRECTED;
        let blind = if directed {
            group == CUT_BLINDED
        } else {
            group >= 0
        };
        blind.then_some(ReaderView {
            group_of: &self.group_of,
            group,
            directed,
        })
    }

    /// Whether `reader`'s view of a register owned by `owner` is severed
    /// by the installed partition.
    #[cfg(test)]
    pub(crate) fn severed(&self, reader: ProcessId, owner: ProcessId) -> bool {
        self.view_of(reader)
            .is_some_and(|view| view.severs(owner.index()))
    }

    fn publish(&self, group_of: &[i32], state: u8) {
        assert_eq!(group_of.len(), self.group_of.len(), "one group per process");
        for (cell, &group) in self.group_of.iter().zip(group_of) {
            cell.store(group, Ordering::Relaxed);
        }
        self.state.store(state, Ordering::Release);
    }

    /// Activates the mask with the given per-process group table.
    pub(crate) fn install(&self, group_of: &[i32]) {
        self.publish(group_of, SYMMETRIC);
    }

    /// Activates the mask as a directed cut: the table must map the
    /// blinded side to [`CUT_BLINDED`] and the hidden side to
    /// [`CUT_HIDDEN`]; everyone else (`-1`) stays fully connected.
    pub(crate) fn install_directed(&self, group_of: &[i32]) {
        self.publish(group_of, DIRECTED);
    }

    /// Deactivates the mask: every read sees live values again.
    pub(crate) fn heal(&self) {
        self.state.store(INACTIVE, Ordering::Release);
    }

    pub(crate) fn is_active(&self) -> bool {
        self.state.load(Ordering::Acquire) != INACTIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn inactive_mask_severs_nothing() {
        let mask = PartitionMask::new(2);
        assert!(!mask.severed(p(0), p(1)));
        assert!(!mask.is_active());
    }

    #[test]
    fn severs_across_groups_only() {
        let mask = PartitionMask::new(5);
        mask.install(&[0, 0, 1, 1, -1]);
        assert!(mask.is_active());
        assert!(mask.severed(p(0), p(2)), "across the cut");
        assert!(mask.severed(p(3), p(1)), "both directions");
        assert!(!mask.severed(p(0), p(1)), "same side");
        assert!(!mask.severed(p(2), p(3)), "same side");
        // Unlisted processes (group -1) see and are seen by everyone.
        assert!(!mask.severed(p(4), p(0)));
        assert!(!mask.severed(p(0), p(4)));
        // Out-of-table processes are unlisted too.
        assert!(!mask.severed(p(9), p(0)));
        mask.heal();
        assert!(!mask.severed(p(0), p(2)), "healed");
    }

    #[test]
    fn directed_cut_severs_one_direction_only() {
        let mask = PartitionMask::new(5);
        // Blinded {0, 1} read hidden {2, 3} frozen; everyone else live.
        mask.install_directed(&[CUT_BLINDED, CUT_BLINDED, CUT_HIDDEN, CUT_HIDDEN, -1]);
        assert!(mask.is_active());
        assert!(mask.severed(p(0), p(2)), "blinded reading hidden");
        assert!(mask.severed(p(1), p(3)), "blinded reading hidden");
        assert!(!mask.severed(p(2), p(0)), "hidden reads blinded live");
        assert!(!mask.severed(p(3), p(1)), "hidden reads blinded live");
        assert!(!mask.severed(p(0), p(1)), "within the blinded side");
        assert!(!mask.severed(p(2), p(3)), "within the hidden side");
        assert!(!mask.severed(p(4), p(2)), "ungrouped sees everyone");
        assert!(!mask.severed(p(0), p(4)), "ungrouped is seen by everyone");
        mask.heal();
        assert!(!mask.severed(p(0), p(2)), "healed");
    }

    #[test]
    fn symmetric_install_clears_directedness() {
        let mask = PartitionMask::new(2);
        mask.install_directed(&[CUT_BLINDED, CUT_HIDDEN]);
        assert!(mask.severed(p(0), p(1)));
        assert!(!mask.severed(p(1), p(0)));
        // Re-installing symmetrically must drop the directed flag.
        mask.install(&[0, 1]);
        assert!(mask.severed(p(0), p(1)));
        assert!(mask.severed(p(1), p(0)), "symmetric again");
    }
}
