//! Per-bank metadata and access counters (internal).
//!
//! Every register created through a [`MemorySpace`](crate::MemorySpace)
//! is a slot of a *bank* (see [`crate::swmr`]), and every bank carries one
//! [`Counters`] block recording how many reads each process performed on
//! the bank, how many writes each slot received (and from whom, where
//! that is not implied), and the high-water mark of each slot's bit
//! footprint. The election algorithms never see these counters; the
//! experiment harness reads them to verify the paper's optimality claims
//! (Theorems 3, 4, 7 and Lemmas 5, 6).
//!
//! # Instrumentation modes
//!
//! Counting has a cost, and it is paid on *every* shared access — at
//! n = 256 a single simulated run performs close to a billion attributed
//! reads. Both modes update the *same* counter block (each count is stored
//! once); they differ only in how a cell is bumped:
//!
//! * [`Instrumentation::Eager`] (default) — every access does an atomic
//!   read-modify-write. Safe under arbitrary concurrency; this is what the
//!   thread runtime uses.
//! * [`Instrumentation::Deferred`] — every access does a plain load, add
//!   and store (no lock prefix, no fences). Built
//!   for the single-threaded simulation driver, where that sequence is
//!   exact, so [`MemorySpace::stats`](crate::MemorySpace::stats) is exact
//!   at any instant with no flush step. If deferred registers are
//!   (mis)used from several threads concurrently, increments may be lost —
//!   counters under-report — but there is no undefined behavior and no
//!   torn value: every cell is still an `AtomicU64`.
//!
//! # Layout
//!
//! One allocation per bank of `len` slots in an `n`-process system, in
//! three runs:
//!
//! * `reads[reader]` — `n` cells: one **tally per reader** of every slot
//!   it read in the bank;
//! * `hwm_bits[slot]` — `len` cells;
//! * `writes` — `len` cells on a 1WnR bank (a 1WnR register rejects every
//!   writer but its owner *before* the write is counted, so one cell per
//!   slot suffices), `len · n` slot-major cells (`writes[slot · n +
//!   writer]`) on an nWnR bank.
//!
//! Reads are kept at bank grain because nothing asks for finer: every read
//! count the experiments use is a per-process total (Lemma 6: every
//! correct process reads forever) or the space's total, while writes — the
//! measure of Theorems 3, 4 and 7 and of the contention lower bounds —
//! stay per register. A read cell per (reader, register) would make the
//! election layouts' `n² + 2n` registers cost `n³` cells; a tally per
//! (reader, bank) costs `n` per bank, `O(n²)` for every layout in the
//! tree. A scan by one reader over a range of slots — the `T3` pass, a
//! `SUSPICIONS` row snapshot — adds the range's length to one cell.
//! Under eager instrumentation up to eight readers' tallies share a cache
//! line. They are not padded apart: a range read is one atomic add where
//! it was one per slot, and on the cooperative backend (eager, two
//! workers, n = 64) that made a failover round cheaper in CPU, not dearer.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ProcessId;

/// Stable identity of a register within its memory space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(pub(crate) usize);

impl RegisterId {
    /// Index of this register in its space's creation order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// How a [`MemorySpace`](crate::MemorySpace) counts register accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Instrumentation {
    /// Atomic read-modify-write per access: correct under any concurrency
    /// (the thread-runtime mode).
    #[default]
    Eager,
    /// Unsynchronized load/add/store per access: exact for single-threaded
    /// drivers (the simulator), lossy-but-sound if misused concurrently.
    Deferred,
}

impl Instrumentation {
    /// Adds `delta` to `cell`, storing with `order`: an atomic
    /// read-modify-write under [`Eager`](Self::Eager), a plain load, add
    /// and store under [`Deferred`](Self::Deferred) — the one bump behind
    /// every counter and epoch of a space.
    #[inline]
    pub(crate) fn add(self, cell: &AtomicU64, delta: u64, order: Ordering) {
        match self {
            Instrumentation::Eager => {
                cell.fetch_add(delta, order);
            }
            // Single-threaded read-add-write; deliberately NOT fetch_add.
            Instrumentation::Deferred => cell.store(cell.load(Ordering::Relaxed) + delta, order),
        }
    }
}

/// Cumulative access counters for one bank of registers.
///
/// The block does not keep the bank's length: a bank stores it once, in
/// its live cells, and passes it as `len` to every method that needs it.
#[derive(Debug)]
pub(crate) struct Counters {
    /// One allocation: the `n_processes` read tallies, then `len`
    /// high-water marks, then the write cells (module docs).
    cells: Box<[AtomicU64]>,
    /// A `u32`, like [`ProcessId`]: a scalar's bank should not outweigh
    /// the register it replaced.
    n_processes: u32,
    owned: bool,
    mode: Instrumentation,
}

impl Counters {
    /// Counters for a bank of `len` registers of an `n_processes` system;
    /// `owned` is whether they are 1WnR (ownership is enforced by the
    /// register, before [`note_write`](Self::note_write) is reached).
    pub(crate) fn new(len: usize, n_processes: usize, owned: bool, mode: Instrumentation) -> Self {
        let write_cells = if owned { len } else { len * n_processes };
        Counters {
            cells: (0..n_processes + len + write_cells)
                .map(|_| AtomicU64::new(0))
                .collect(),
            n_processes: u32::try_from(n_processes).expect("process count fits u32"),
            owned,
            mode,
        }
    }

    #[inline]
    fn n(&self) -> usize {
        self.n_processes as usize
    }

    #[inline]
    fn reads(&self) -> &[AtomicU64] {
        &self.cells[..self.n()]
    }

    #[inline]
    fn hwm(&self, len: usize) -> &[AtomicU64] {
        &self.cells[self.n()..][..len]
    }

    #[inline]
    fn writes(&self, len: usize) -> &[AtomicU64] {
        &self.cells[self.n() + len..]
    }

    /// Counts one read by `reader` of every slot in `slots`: adds the
    /// range's length to `reader`'s tally.
    ///
    /// # Panics
    ///
    /// Panics if `reader` is not a process of the system or `slots` leaves
    /// the bank.
    #[inline]
    pub(crate) fn note_reads(&self, reader: ProcessId, slots: Range<usize>, len: usize) {
        // Checked here, not left to the read that follows: a slot past the
        // bank must not have been counted.
        assert!(
            reader.index() < self.n() && slots.start <= slots.end && slots.end <= len,
            "attributed read out of range: no such process, or slots past the bank"
        );
        let tally = &self.reads()[reader.index()];
        self.mode.add(tally, slots.len() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_write(&self, slot: usize, writer: ProcessId, bits: u64, len: usize) {
        let cell = if self.owned {
            slot
        } else {
            slot * self.n() + writer.index()
        };
        self.mode.add(&self.writes(len)[cell], 1, Ordering::Relaxed);
        let hwm = &self.hwm(len)[slot];
        if self.mode == Instrumentation::Deferred {
            if bits > hwm.load(Ordering::Relaxed) {
                hwm.store(bits, Ordering::Relaxed);
            }
        } else {
            hwm.fetch_max(bits, Ordering::Relaxed);
        }
    }

    /// Records the footprint of a slot's initial value without counting a
    /// write.
    pub(crate) fn note_initial(&self, slot: usize, bits: u64, len: usize) {
        self.hwm(len)[slot].fetch_max(bits, Ordering::Relaxed);
    }

    /// The read tallies, indexed by process: a snapshot's cells for the
    /// bank's reads.
    pub(crate) fn read_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.reads().iter().map(|cell| cell.load(Ordering::Relaxed))
    }

    /// Each register's write cells (one if owned, else one per process),
    /// in slot order: a snapshot's cells for the bank's writes.
    pub(crate) fn write_counts(&self, len: usize) -> impl Iterator<Item = u64> + '_ {
        self.writes(len)
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    pub(crate) fn hwm_bits(&self, slot: usize, len: usize) -> u64 {
        self.hwm(len)[slot].load(Ordering::Relaxed)
    }
}

/// Type-erased view of a bank used by the registry for reporting.
pub(crate) trait BankMeta: Send + Sync {
    fn len(&self) -> usize;
    fn names(&self) -> &crate::names::BankNames;
    fn owners(&self) -> crate::swmr::Owners;
    fn counters(&self) -> &Counters;
    /// Footprint of the value currently stored in `slot`.
    fn current_bits(&self, slot: usize) -> u64;
    /// Snapshots every slot's current value into its frozen cell — the
    /// value severed readers observe while a partition is installed —
    /// allocating the frozen run if this is the bank's first cut.
    fn freeze(&self);
    /// Bumps every entry of the bank's epoch table it covers, if it keeps
    /// one: a partition transition (see [`crate::shard`]).
    fn bump_epochs(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Instrumentation; 2] = [Instrumentation::Eager, Instrumentation::Deferred];

    /// The counts of `c`, the block of a bank of `len` slots.
    fn copied(c: &Counters, len: usize) -> (Vec<u64>, Vec<u64>) {
        (c.read_counts().collect(), c.write_counts(len).collect())
    }

    #[test]
    fn counters_accumulate_per_process() {
        for mode in MODES {
            let c = Counters::new(1, 3, false, mode);
            let p0 = ProcessId::new(0);
            let p2 = ProcessId::new(2);
            c.note_reads(p0, 0..1, 1);
            c.note_reads(p0, 0..1, 1);
            c.note_write(0, p2, 5, 1);
            c.note_write(0, p2, 3, 1);
            assert_eq!(copied(&c, 1), (vec![2, 0, 0], vec![0, 0, 2]), "{mode:?}");
            assert_eq!(
                c.hwm_bits(0, 1),
                5,
                "high-water mark keeps the max footprint"
            );
        }
    }

    #[test]
    fn owned_register_keeps_one_write_cell() {
        for mode in MODES {
            let c = Counters::new(2, 3, true, mode);
            c.note_write(1, ProcessId::new(2), 1, 2);
            c.note_write(1, ProcessId::new(2), 1, 2);
            c.note_reads(ProcessId::new(1), 1..2, 2);
            assert_eq!(copied(&c, 2), (vec![0, 1, 0], vec![0, 2]), "{mode:?}");
        }
    }

    #[test]
    fn initial_footprint_counts_no_write() {
        let c = Counters::new(1, 1, true, Instrumentation::Eager);
        c.note_initial(0, 17, 1);
        assert_eq!(c.hwm_bits(0, 1), 17);
        assert_eq!(copied(&c, 1).1, vec![0]);
    }

    #[test]
    fn deferred_counters_are_exact_with_no_flush_step() {
        let c = Counters::new(1, 2, false, Instrumentation::Deferred);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        c.note_initial(0, 4, 1);
        c.note_reads(p0, 0..1, 1);
        c.note_reads(p0, 0..1, 1);
        c.note_write(0, p1, 9, 1);
        assert_eq!(
            copied(&c, 1),
            (vec![2, 0], vec![0, 1]),
            "visible immediately"
        );
        assert_eq!(c.hwm_bits(0, 1), 9);
        c.note_write(0, p1, 3, 1);
        assert_eq!(
            copied(&c, 1).1,
            vec![0, 2],
            "reading the counters drains nothing"
        );
        assert_eq!(c.hwm_bits(0, 1), 9, "hwm keeps the max");
    }

    #[test]
    fn counts_match_indexed_reads() {
        // Three slots, two processes, nWnR: reads come out one tally per
        // reader, writes slot-major.
        for mode in MODES {
            let c = Counters::new(3, 2, false, mode);
            let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
            c.note_reads(p1, 0..3, 3);
            c.note_reads(p0, 2..3, 3);
            c.note_reads(p1, 1..2, 3);
            c.note_write(2, p1, 1, 3);
            c.note_write(0, p0, 6, 3);
            let (reads, writes) = copied(&c, 3);
            assert_eq!(reads, [1, 4], "{mode:?}: [process]");
            assert_eq!(writes, [1, 0, 0, 0, 0, 1], "{mode:?}: [slot][writer]");
            assert_eq!(
                (c.hwm_bits(0, 3), c.hwm_bits(1, 3), c.hwm_bits(2, 3)),
                (6, 0, 1)
            );
        }
    }

    #[test]
    fn a_range_read_adds_its_length_to_the_readers_tally_only() {
        for mode in MODES {
            let c = Counters::new(5, 3, true, mode);
            let mut expected = vec![0; 3];
            for (reader, slots) in [(1, 0..5), (1, 2..2), (0, 4..5), (2, 1..4), (1, 3..5)] {
                expected[reader] += slots.len() as u64;
                c.note_reads(ProcessId::new(reader), slots, 5);
                assert_eq!(copied(&c, 5).0, expected, "{mode:?}");
            }
            // A reader past the system, a range past the bank, a reversed
            // range: refused, and nothing counted.
            for (reader, slots) in [(3, 0..1), (0, 4..6), (0, Range { start: 3, end: 2 })] {
                let refused = std::panic::catch_unwind(|| {
                    c.note_reads(ProcessId::new(reader), slots.clone(), 5);
                });
                assert!(refused.is_err(), "{mode:?}: p{reader} reading {slots:?}");
            }
            assert_eq!(copied(&c, 5), (expected, vec![0; 5]), "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_range_past_the_bank_is_rejected_not_misattributed() {
        let c = Counters::new(2, 2, true, Instrumentation::Eager);
        c.note_reads(ProcessId::new(0), 1..3, 2);
    }

    #[test]
    fn register_id_index() {
        assert_eq!(RegisterId(4).index(), 4);
    }
}
