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
//!   and store (no lock prefix, no fences), the same trick as
//!   [`ScanCounters::new_unsync`](crate::ScanCounters::new_unsync). Built
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

/// Cumulative access counters for one bank of registers.
#[derive(Debug)]
pub(crate) struct Counters {
    /// One allocation: the `n_processes` read tallies, then `len`
    /// high-water marks, then the write cells (module docs).
    cells: Box<[AtomicU64]>,
    /// Slots and processes as `u32`, like [`ProcessId`]: a scalar's bank
    /// should not outweigh the register it replaced.
    len: u32,
    n_processes: u32,
    owned: bool,
    unsync: bool,
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
            len: u32::try_from(len).expect("bank length fits u32"),
            n_processes: u32::try_from(n_processes).expect("process count fits u32"),
            owned,
            unsync: mode == Instrumentation::Deferred,
        }
    }

    #[inline]
    fn add(&self, cell: &AtomicU64, count: u64) {
        if self.unsync {
            // Single-threaded read-add-write; deliberately NOT fetch_add.
            cell.store(cell.load(Ordering::Relaxed) + count, Ordering::Relaxed);
        } else {
            cell.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Number of registers (slots) in the bank.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
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
    fn hwm(&self) -> &[AtomicU64] {
        &self.cells[self.n()..][..self.len()]
    }

    #[inline]
    fn writes(&self) -> &[AtomicU64] {
        &self.cells[self.n() + self.len()..]
    }

    /// Counts one read by `reader` of every slot in `slots`: adds the
    /// range's length to `reader`'s tally.
    ///
    /// # Panics
    ///
    /// Panics if `reader` is not a process of the system or `slots` leaves
    /// the bank.
    #[inline]
    pub(crate) fn note_reads(&self, reader: ProcessId, slots: Range<usize>) {
        // Checked here, not left to the read that follows: a slot past the
        // bank must not have been counted.
        assert!(
            reader.index() < self.n() && slots.start <= slots.end && slots.end <= self.len(),
            "attributed read out of range: no such process, or slots past the bank"
        );
        self.add(&self.reads()[reader.index()], slots.len() as u64);
    }

    #[inline]
    pub(crate) fn note_write(&self, slot: usize, writer: ProcessId, bits: u64) {
        let cell = if self.owned {
            slot
        } else {
            slot * self.n() + writer.index()
        };
        self.add(&self.writes()[cell], 1);
        let hwm = &self.hwm()[slot];
        if self.unsync {
            if bits > hwm.load(Ordering::Relaxed) {
                hwm.store(bits, Ordering::Relaxed);
            }
        } else {
            hwm.fetch_max(bits, Ordering::Relaxed);
        }
    }

    /// Records the footprint of a slot's initial value without counting a
    /// write.
    pub(crate) fn note_initial(&self, slot: usize, bits: u64) {
        self.hwm()[slot].fetch_max(bits, Ordering::Relaxed);
    }

    /// Copies the counts into a snapshot: the read tallies, indexed by
    /// process, into `reads`, and each register's write cells (one if
    /// owned, else one per process), in slot order, into `writes`.
    ///
    /// # Panics
    ///
    /// Panics if `reads` is not `n_processes` cells or `writes` is not
    /// [`write_cells`](Self::write_cells) long.
    pub(crate) fn copy_into(&self, reads: &mut [u64], writes: &mut [u64]) {
        for (out, cells) in [(reads, self.reads()), (writes, self.writes())] {
            assert_eq!(out.len(), cells.len(), "one snapshot cell per counter");
            for (out, cell) in out.iter_mut().zip(cells) {
                *out = cell.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of write cells [`copy_into`](Self::copy_into) fills.
    pub(crate) fn write_cells(&self) -> usize {
        self.writes().len()
    }

    pub(crate) fn hwm_bits(&self, slot: usize) -> u64 {
        self.hwm()[slot].load(Ordering::Relaxed)
    }
}

/// Type-erased view of a bank used by the registry for reporting.
pub(crate) trait BankMeta: Send + Sync {
    fn name(&self, slot: usize) -> &std::sync::Arc<str>;
    fn owner(&self, slot: usize) -> Option<ProcessId>;
    fn counters(&self) -> &Counters;
    /// Footprint of the value currently stored in `slot`.
    fn current_bits(&self, slot: usize) -> u64;
    /// Snapshots every slot's current value into its frozen cell — the
    /// value severed readers observe while a partition is installed.
    fn freeze(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Instrumentation; 2] = [Instrumentation::Eager, Instrumentation::Deferred];

    fn copied(c: &Counters) -> (Vec<u64>, Vec<u64>) {
        let mut reads = vec![7; c.n()];
        let mut writes = vec![7; c.write_cells()];
        c.copy_into(&mut reads, &mut writes);
        (reads, writes)
    }

    #[test]
    fn counters_accumulate_per_process() {
        for mode in MODES {
            let c = Counters::new(1, 3, false, mode);
            let p0 = ProcessId::new(0);
            let p2 = ProcessId::new(2);
            c.note_reads(p0, 0..1);
            c.note_reads(p0, 0..1);
            c.note_write(0, p2, 5);
            c.note_write(0, p2, 3);
            assert_eq!(copied(&c), (vec![2, 0, 0], vec![0, 0, 2]), "{mode:?}");
            assert_eq!(c.hwm_bits(0), 5, "high-water mark keeps the max footprint");
        }
    }

    #[test]
    fn owned_register_keeps_one_write_cell() {
        for mode in MODES {
            let c = Counters::new(2, 3, true, mode);
            c.note_write(1, ProcessId::new(2), 1);
            c.note_write(1, ProcessId::new(2), 1);
            c.note_reads(ProcessId::new(1), 1..2);
            assert_eq!(copied(&c), (vec![0, 1, 0], vec![0, 2]), "{mode:?}");
        }
    }

    #[test]
    fn initial_footprint_counts_no_write() {
        let c = Counters::new(1, 1, true, Instrumentation::Eager);
        c.note_initial(0, 17);
        assert_eq!(c.hwm_bits(0), 17);
        assert_eq!(copied(&c).1, vec![0]);
    }

    #[test]
    fn deferred_counters_are_exact_with_no_flush_step() {
        let c = Counters::new(1, 2, false, Instrumentation::Deferred);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        c.note_initial(0, 4);
        c.note_reads(p0, 0..1);
        c.note_reads(p0, 0..1);
        c.note_write(0, p1, 9);
        assert_eq!(copied(&c), (vec![2, 0], vec![0, 1]), "visible immediately");
        assert_eq!(c.hwm_bits(0), 9);
        c.note_write(0, p1, 3);
        assert_eq!(
            copied(&c).1,
            vec![0, 2],
            "reading the counters drains nothing"
        );
        assert_eq!(c.hwm_bits(0), 9, "hwm keeps the max");
    }

    #[test]
    fn copy_into_matches_indexed_reads() {
        // Three slots, two processes, nWnR: reads come out one tally per
        // reader, writes slot-major.
        for mode in MODES {
            let c = Counters::new(3, 2, false, mode);
            let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
            c.note_reads(p1, 0..3);
            c.note_reads(p0, 2..3);
            c.note_reads(p1, 1..2);
            c.note_write(2, p1, 1);
            c.note_write(0, p0, 6);
            let (reads, writes) = copied(&c);
            assert_eq!(reads, [1, 4], "{mode:?}: [process]");
            assert_eq!(writes, [1, 0, 0, 0, 0, 1], "{mode:?}: [slot][writer]");
            assert_eq!((c.hwm_bits(0), c.hwm_bits(1), c.hwm_bits(2)), (6, 0, 1));
        }
    }

    #[test]
    fn a_range_read_adds_its_length_to_the_readers_tally_only() {
        for mode in MODES {
            let c = Counters::new(5, 3, true, mode);
            let mut expected = vec![0; 3];
            for (reader, slots) in [(1, 0..5), (1, 2..2), (0, 4..5), (2, 1..4), (1, 3..5)] {
                expected[reader] += slots.len() as u64;
                c.note_reads(ProcessId::new(reader), slots);
                assert_eq!(copied(&c).0, expected, "{mode:?}");
            }
            // A reader past the system, a range past the bank, a reversed
            // range: refused, and nothing counted.
            for (reader, slots) in [(3, 0..1), (0, 4..6), (0, Range { start: 3, end: 2 })] {
                let refused = std::panic::catch_unwind(|| {
                    c.note_reads(ProcessId::new(reader), slots.clone());
                });
                assert!(refused.is_err(), "{mode:?}: p{reader} reading {slots:?}");
            }
            assert_eq!(copied(&c), (expected, vec![0; 5]), "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_range_past_the_bank_is_rejected_not_misattributed() {
        let c = Counters::new(2, 2, true, Instrumentation::Eager);
        c.note_reads(ProcessId::new(0), 1..3);
    }

    #[test]
    fn register_id_index() {
        assert_eq!(RegisterId(4).index(), 4);
    }
}
