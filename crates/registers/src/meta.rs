//! Per-bank metadata and access counters (internal).
//!
//! Every register created through a [`MemorySpace`](crate::MemorySpace)
//! is a slot of a *bank* (see [`crate::swmr`]), and every bank carries one
//! [`Counters`] block recording, per process and slot, how many reads and
//! writes were performed, plus the high-water mark of each slot's bit
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
//! * `reads[reader · len + slot]` — `n · len` cells, **reader-major**;
//! * `hwm_bits[slot]` — `len` cells;
//! * `writes` — `len` cells on a 1WnR bank (a 1WnR register rejects every
//!   writer but its owner *before* the write is counted, so one cell per
//!   slot suffices), `len · n` slot-major cells (`writes[slot · n +
//!   writer]`) on an nWnR bank.
//!
//! The cell count per register is what a register-at-a-time layout would
//! need (n read cells + 1 or n write cells + the high-water mark); what
//! the bank changes is *where* they sit. A scan by one reader over a range
//! of slots — the `T3` pass, a `SUSPICIONS` row snapshot — bumps one
//! contiguous slice (16 slots = two cache lines) instead of one cell in
//! each of 16 separately allocated blocks. On a bank of a cache line of
//! slots or more (eight), two concurrent readers also bump different
//! lines, where a register-major `reads[slot][reader]` block makes sharing
//! one the common case (under eager instrumentation every follower bumps
//! its cell of the leader's `PROGRESS` line).
//! [`MemorySpace::stats_into`](crate::MemorySpace::stats_into) transposes
//! each bank's `n × len` block back into a register-major tile of the
//! [`StatsSnapshot`](crate::StatsSnapshot), a cache line of slots at a
//! time ([`Counters::copy_reads_into`]) — but only the banks some process
//! read since the previous snapshot ([`Counters::read_sum`]).

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
    /// One allocation: the `n_processes × len` reader-major read cells,
    /// then `len` high-water marks, then the write cells (module docs).
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
            cells: (0..n_processes * len + len + write_cells)
                .map(|_| AtomicU64::new(0))
                .collect(),
            len: u32::try_from(len).expect("bank length fits u32"),
            n_processes: u32::try_from(n_processes).expect("process count fits u32"),
            owned,
            unsync: mode == Instrumentation::Deferred,
        }
    }

    #[inline]
    fn bump(&self, cell: &AtomicU64) {
        if self.unsync {
            // Single-threaded read-add-write; deliberately NOT fetch_add.
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        } else {
            cell.fetch_add(1, Ordering::Relaxed);
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
        &self.cells[..self.n() * self.len()]
    }

    #[inline]
    fn hwm(&self) -> &[AtomicU64] {
        &self.cells[self.n() * self.len()..][..self.len()]
    }

    #[inline]
    fn writes(&self) -> &[AtomicU64] {
        &self.cells[(self.n() + 1) * self.len()..]
    }

    /// Counts one read by `reader` of every slot in `slots` — one
    /// contiguous run of `reader`'s row of the read block.
    ///
    /// # Panics
    ///
    /// Panics if `reader` is not a process of the system or `slots` leaves
    /// the bank.
    #[inline]
    pub(crate) fn note_reads(&self, reader: ProcessId, slots: Range<usize>) {
        let (len, reader) = (self.len(), reader.index());
        // Checked here, not left to the slicing below: a reader or slot
        // past its bound would land in another row, not past the block.
        assert!(
            reader < self.n() && slots.end <= len,
            "attributed read out of range: no such process, or slots past the bank"
        );
        for cell in &self.reads()[reader * len..][slots] {
            self.bump(cell);
        }
    }

    #[inline]
    pub(crate) fn note_write(&self, slot: usize, writer: ProcessId, bits: u64) {
        let cell = if self.owned {
            slot
        } else {
            slot * self.n() + writer.index()
        };
        self.bump(&self.writes()[cell]);
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

    /// Sum of every read cell. Counts only grow, so the sum moved if and
    /// only if some process read some slot since it was last taken — the
    /// snapshot's test for "this bank's tile is still good".
    pub(crate) fn read_sum(&self) -> u64 {
        (self.reads().iter())
            .map(|cell| cell.load(Ordering::Relaxed))
            .sum()
    }

    /// Copies the read counters into a snapshot tile: `reads` receives the
    /// bank's registers in slot order, each with its read cells indexed by
    /// process (the transpose of the reader-major block).
    ///
    /// # Panics
    ///
    /// Panics if `reads` is not `len × n_processes` cells.
    pub(crate) fn copy_reads_into(&self, reads: &mut [u64]) {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let (len, n) = (self.len(), self.n());
        let block = self.reads();
        assert_eq!(
            reads.len(),
            block.len(),
            "one read cell per slot and process"
        );
        if len == 1 {
            // A scalar's row is already indexed by process — and spaces
            // that create registers as they run hold little else.
            for (out, cell) in reads.iter_mut().zip(block) {
                *out = load(cell);
            }
        } else {
            // Transpose in strips of one cache line of slots: a strip reads
            // each reader's line of those slots whole, and fills the strip's
            // `LINE` snapshot rows left to right — sequential streams on
            // the side that is freshly allocated memory on a first snapshot.
            const LINE: usize = 8;
            for (strip, rows) in reads.chunks_mut(LINE * n).enumerate() {
                let width = rows.len() / n;
                for reader in 0..n {
                    let cells = &block[reader * len + strip * LINE..][..width];
                    for (slot, cell) in cells.iter().enumerate() {
                        rows[slot * n + reader] = load(cell);
                    }
                }
            }
        }
    }

    /// Copies each register's write cells (one if owned, else one per
    /// process), in slot order, into a snapshot's flat write buffer.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is not [`write_cells`](Self::write_cells) long.
    pub(crate) fn copy_writes_into(&self, writes: &mut [u64]) {
        assert_eq!(
            writes.len(),
            self.write_cells(),
            "owner-compact write cells"
        );
        for (out, cell) in writes.iter_mut().zip(self.writes()) {
            *out = cell.load(Ordering::Relaxed);
        }
    }

    /// Number of write cells [`copy_writes_into`](Self::copy_writes_into)
    /// fills.
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
        let mut reads = vec![7; c.reads().len()];
        let mut writes = vec![7; c.write_cells()];
        c.copy_reads_into(&mut reads);
        c.copy_writes_into(&mut writes);
        assert_eq!(c.read_sum(), reads.iter().sum::<u64>());
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
            assert_eq!(copied(&c), (vec![0, 0, 0, 0, 1, 0], vec![0, 2]), "{mode:?}");
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
        // Three slots, two processes, nWnR: the reader-major block comes
        // out register-major, writes slot-major.
        for mode in MODES {
            let c = Counters::new(3, 2, false, mode);
            let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
            c.note_reads(p1, 0..3);
            c.note_reads(p0, 2..3);
            c.note_reads(p1, 1..2);
            c.note_write(2, p1, 1);
            c.note_write(0, p0, 6);
            let (reads, writes) = copied(&c);
            assert_eq!(reads, [0, 1, 0, 2, 1, 1], "{mode:?}: [slot][process]");
            assert_eq!(writes, [1, 0, 0, 0, 0, 1], "{mode:?}: [slot][writer]");
            assert_eq!((c.hwm_bits(0), c.hwm_bits(1), c.hwm_bits(2)), (6, 0, 1));
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
