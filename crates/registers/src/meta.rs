//! Per-register metadata and access counters (internal).
//!
//! Every register created through a [`MemorySpace`](crate::MemorySpace)
//! carries a [`Counters`] block recording, per process, how many reads and
//! writes it has performed, plus the high-water mark of the register's bit
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
//! # Width
//!
//! Reads are counted per process (n cells). Writes need n cells only on
//! nWnR registers: a 1WnR register rejects every writer but its owner
//! *before* the write is counted, so it keeps a single write cell.

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

/// Cumulative access counters for one register.
#[derive(Debug)]
pub(crate) struct Counters {
    /// One allocation: `n_processes` read cells, then the write cells —
    /// one when `owned`, `n_processes` otherwise.
    cells: Box<[AtomicU64]>,
    n_processes: usize,
    owned: bool,
    unsync: bool,
    hwm_bits: AtomicU64,
}

impl Counters {
    /// Counters for a register of an `n_processes` system; `owned` is
    /// whether it is 1WnR (ownership is enforced by the register, before
    /// [`note_write`](Self::note_write) is reached).
    pub(crate) fn new(n_processes: usize, owned: bool, mode: Instrumentation) -> Self {
        let write_cells = if owned { 1 } else { n_processes };
        Counters {
            cells: (0..n_processes + write_cells)
                .map(|_| AtomicU64::new(0))
                .collect(),
            n_processes,
            owned,
            unsync: mode == Instrumentation::Deferred,
            hwm_bits: AtomicU64::new(0),
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

    fn reads(&self) -> &[AtomicU64] {
        &self.cells[..self.n_processes]
    }

    fn writes(&self) -> &[AtomicU64] {
        &self.cells[self.n_processes..]
    }

    pub(crate) fn note_read(&self, reader: ProcessId) {
        self.bump(&self.reads()[reader.index()]);
    }

    pub(crate) fn note_write(&self, writer: ProcessId, bits: u64) {
        let slot = if self.owned { 0 } else { writer.index() };
        self.bump(&self.writes()[slot]);
        if self.unsync {
            if bits > self.hwm_bits.load(Ordering::Relaxed) {
                self.hwm_bits.store(bits, Ordering::Relaxed);
            }
        } else {
            self.hwm_bits.fetch_max(bits, Ordering::Relaxed);
        }
    }

    /// Records the footprint of the initial value without counting a write.
    pub(crate) fn note_initial(&self, bits: u64) {
        self.hwm_bits.fetch_max(bits, Ordering::Relaxed);
    }

    /// Copies the counters onto the end of a snapshot's flat buffers: the
    /// read cells (one per process) onto `reads`, the write cells (one if
    /// owned, else one per process) onto `writes`.
    pub(crate) fn copy_into(&self, reads: &mut Vec<u64>, writes: &mut Vec<u64>) {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        reads.extend(self.reads().iter().map(load));
        writes.extend(self.writes().iter().map(load));
    }

    pub(crate) fn hwm_bits(&self) -> u64 {
        self.hwm_bits.load(Ordering::Relaxed)
    }
}

/// Type-erased view of a register used by the registry for reporting.
pub(crate) trait RegisterMeta: Send + Sync {
    fn name(&self) -> &std::sync::Arc<str>;
    fn owner(&self) -> Option<ProcessId>;
    fn counters(&self) -> &Counters;
    /// Footprint of the value currently stored.
    fn current_bits(&self) -> u64;
    /// Snapshots the current value into the register's frozen cell — the
    /// value severed readers observe while a partition is installed.
    fn freeze(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Instrumentation; 2] = [Instrumentation::Eager, Instrumentation::Deferred];

    fn copied(c: &Counters) -> (Vec<u64>, Vec<u64>) {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        c.copy_into(&mut reads, &mut writes);
        (reads, writes)
    }

    #[test]
    fn counters_accumulate_per_process() {
        for mode in MODES {
            let c = Counters::new(3, false, mode);
            let p0 = ProcessId::new(0);
            let p2 = ProcessId::new(2);
            c.note_read(p0);
            c.note_read(p0);
            c.note_write(p2, 5);
            c.note_write(p2, 3);
            assert_eq!(copied(&c), (vec![2, 0, 0], vec![0, 0, 2]), "{mode:?}");
            assert_eq!(c.hwm_bits(), 5, "high-water mark keeps the max footprint");
        }
    }

    #[test]
    fn owned_register_keeps_one_write_cell() {
        for mode in MODES {
            let c = Counters::new(3, true, mode);
            c.note_write(ProcessId::new(2), 1);
            c.note_write(ProcessId::new(2), 1);
            c.note_read(ProcessId::new(1));
            assert_eq!(copied(&c), (vec![0, 1, 0], vec![2]), "{mode:?}");
        }
    }

    #[test]
    fn initial_footprint_counts_no_write() {
        let c = Counters::new(1, true, Instrumentation::Eager);
        c.note_initial(17);
        assert_eq!(c.hwm_bits(), 17);
        assert_eq!(copied(&c).1, vec![0]);
    }

    #[test]
    fn deferred_counters_are_exact_with_no_flush_step() {
        let c = Counters::new(2, false, Instrumentation::Deferred);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        c.note_initial(4);
        c.note_read(p0);
        c.note_read(p0);
        c.note_write(p1, 9);
        assert_eq!(copied(&c), (vec![2, 0], vec![0, 1]), "visible immediately");
        assert_eq!(c.hwm_bits(), 9);
        c.note_write(p1, 3);
        assert_eq!(
            copied(&c).1,
            vec![0, 2],
            "reading the counters drains nothing"
        );
        assert_eq!(c.hwm_bits(), 9, "hwm keeps the max");
    }

    #[test]
    fn copy_into_matches_indexed_reads() {
        let c = Counters::new(3, false, Instrumentation::Eager);
        c.note_read(ProcessId::new(1));
        c.note_write(ProcessId::new(2), 1);
        let (mut reads, mut writes) = (vec![7], vec![7]);
        c.copy_into(&mut reads, &mut writes);
        assert_eq!(reads, [7, 0, 1, 0], "appended after what was there");
        assert_eq!(writes, [7, 0, 0, 1]);
    }

    #[test]
    fn register_id_index() {
        assert_eq!(RegisterId(4).index(), 4);
    }
}
