//! Write versions for scan-heavy register layouts, and the accounting of
//! the shared reads they spare.
//!
//! The Figure-2 `SUSPICIONS` matrix is `n²` registers, and both the `T1`
//! election (`leader()`) and the `T3` scan walk it. At `n = 32` the
//! baseline run already performs ~93 M attributed reads, almost all of
//! them re-reading rows that have not changed since the previous scan —
//! exactly the contention regime the leader-election lower bounds (see
//! PAPERS.md) say dominates at scale.
//!
//! # One mechanism
//!
//! A bank (see [`crate::swmr`]) may keep its write versions in an
//! [`Epochs`] table: a version per entry, plus a global version that moves
//! with each of them. The bank holds the table and a base entry, and bumps
//! entry `base + slot / grain` itself, after the value is stored, on every
//! write and every poke — so no path, whether a process, a clone of a view
//! or a corrupting harness, moves a value without moving its version. On
//! a deferred-mode space a bump is a plain load and store. Three layouts
//! keep one, each made by its `epoched_*` constructor of
//! [`MemorySpace`](crate::MemorySpace):
//!
//! * `PROGRESS` — one table of ⌈n/16⌉ entries, grain 16: an entry is one
//!   default `T3` shard, and
//!   [`SwmrArray::range_version`](crate::SwmrArray::range_version) sums
//!   the entries a range overlaps.
//! * `SUSPICIONS` — one table of `n` entries shared by the `n` row banks,
//!   row `r`'s bank entry `r`:
//!   [`OwnedMatrix::row_version`](crate::OwnedMatrix::row_version). The
//!   table's global is [`OwnedMatrix::version`](crate::OwnedMatrix::version),
//!   so "no row moved" is one load — the O(1) check of a quiescent
//!   `leader()`.
//! * the §3.5(a) nWnR suspicion counters — one entry per slot:
//!   [`MwmrArray::slot_version`](crate::MwmrArray::slot_version) and
//!   [`MwmrArray::version`](crate::MwmrArray::version).
//!
//! A partition install or heal changes what a read returns without moving
//! any value, so it bumps every entry of every bank a cut can sever — every
//! owned bank that keeps a table (nWnR banks are never severed). A reader
//! that validated a cache against a version from before the transition
//! then re-reads once instead of serving a frozen snapshot as current
//! forever (the registers may go quiescent right after a heal).
//!
//! [`ScanCounters`] account for what the versions save (reads skipped,
//! rows skipped, snapshot batches, `T3` shard passes), surfaced through
//! [`StatsSnapshot`](crate::StatsSnapshot) so every driver can report them
//! in its outcome.
//!
//! A version is harness-level metadata, not a shared register: checking it
//! models a modification-detecting read (a dirty bit), which is strictly
//! weaker than reading the register's value. Skipping a clean row can at
//! worst return a value that was current at the previous scan — the same
//! staleness any asynchronous reader already tolerates — and the next
//! version check observes the missed write, so the Ω eventual-agreement
//! argument is unaffected.
//!
//! # Skipped reads and booked reads
//!
//! An epoch can stand in for a read in two ways, and they are counted
//! differently:
//!
//! * **Skipped** — `leader()`'s suspicion cache does not read a clean
//!   row. Caching the rows is this implementation's choice, not the
//!   paper's: Figure 2's `T1` reads every row on every query. The reads
//!   it avoids are counted apart, in [`ScanStats::reads_skipped`], and not
//!   as reads of any process.
//! * **Booked** — a `T3` pass whose shard no one wrote and which holds no
//!   candidate would change nothing, yet Lemma 6 says every correct
//!   non-leader reads forever, and those reads are what the experiments
//!   count. So the pass is *booked*:
//!   [`book_unchanged_range`](crate::SwmrArray::book_unchanged_range) adds
//!   to the reader's tallies exactly what the range reads of `PROGRESS`
//!   and `STOP` would have added, without loading anything, and refuses
//!   unless the `PROGRESS` range's version still matches. For `PROGRESS`
//!   the register layer, not the caller, vouches that each booked read
//!   would have returned the value the reader holds. For `STOP` the
//!   caller vouches that it would discard every value (a shard with no
//!   candidate leaves no `STOP` to act on); its reads are booked only
//!   together with a checked `PROGRESS` booking, never on their own.
//!   A booked pass is indistinguishable in every counter from a read one.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::meta::Instrumentation;

/// Space-wide counters of the shared reads that versions avoided.
///
/// One instance is shared by every reader of a
/// [`MemorySpace`](crate::MemorySpace)'s versions
/// ([`MemorySpace::scan_counters`](crate::MemorySpace::scan_counters));
/// snapshots of it ride along in [`StatsSnapshot`](crate::StatsSnapshot)
/// as [`ScanStats`].
///
/// These are bookkeeping counters on hot scan paths (every `T3` pass and
/// every quiescent `leader()` query posts to them), bumped per the space's
/// [`Instrumentation`] like every other counter of the space: exact for
/// the single-threaded simulator in deferred mode, and lossy-but-sound
/// (never torn, never UB) if that mode is misused concurrently.
#[derive(Debug, Default)]
pub struct ScanCounters {
    reads_skipped: AtomicU64,
    rows_skipped: AtomicU64,
    snapshot_batches: AtomicU64,
    shard_passes: AtomicU64,
    mode: Instrumentation,
}

impl ScanCounters {
    /// Creates zeroed counters, bumped per `mode`.
    #[must_use]
    pub fn new(mode: Instrumentation) -> Self {
        ScanCounters {
            mode,
            ..ScanCounters::default()
        }
    }

    #[inline]
    fn add(&self, cell: &AtomicU64, delta: u64) {
        self.mode.add(cell, delta, Ordering::Relaxed);
    }

    /// Records that a clean row/slot spared `reads` shared reads.
    #[inline]
    pub fn note_skipped(&self, rows: u64, reads: u64) {
        self.add(&self.rows_skipped, rows);
        self.add(&self.reads_skipped, reads);
    }

    /// Records one batched row/array snapshot.
    #[inline]
    pub fn note_snapshot(&self) {
        self.add(&self.snapshot_batches, 1);
    }

    /// Records one sharded `T3` scan pass.
    #[inline]
    pub fn note_shard_pass(&self) {
        self.add(&self.shard_passes, 1);
    }

    /// Current counter values.
    #[must_use]
    pub fn snapshot(&self) -> ScanStats {
        ScanStats {
            reads_skipped: self.reads_skipped.load(Ordering::Relaxed),
            rows_skipped: self.rows_skipped.load(Ordering::Relaxed),
            snapshot_batches: self.snapshot_batches.load(Ordering::Relaxed),
            shard_passes: self.shard_passes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of [`ScanCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Shared reads avoided by epoch-validated caches.
    pub reads_skipped: u64,
    /// Rows/slots found clean and skipped.
    pub rows_skipped: u64,
    /// Batched snapshot reads performed.
    pub snapshot_batches: u64,
    /// Sharded `T3` scan passes executed.
    pub shard_passes: u64,
}

impl ScanStats {
    /// Field-wise difference `self − earlier` (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &ScanStats) -> ScanStats {
        ScanStats {
            reads_skipped: self.reads_skipped.saturating_sub(earlier.reads_skipped),
            rows_skipped: self.rows_skipped.saturating_sub(earlier.rows_skipped),
            snapshot_batches: self
                .snapshot_batches
                .saturating_sub(earlier.snapshot_batches),
            shard_passes: self.shard_passes.saturating_sub(earlier.shard_passes),
        }
    }
}

/// Where a bank's write versions live in an epoch table (module docs): a
/// version per entry, plus a global version that moves with each of them.
///
/// A table is one allocation, the global first ([`table`](Self::table));
/// a bank holds it beside this place: its base entry and its grain. A
/// reader that observes an unchanged global knows every entry is unchanged
/// too. Only the banks holding a table bump it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Epochs {
    /// The table index of the bank's base entry (the global is index 0).
    first: u16,
    /// A bank's slot `i` is entry `base + (i >> grain)`: the grain's log.
    grain: u8,
    mode: Instrumentation,
}

impl Epochs {
    /// A table of `entries` versions and the global, all 0.
    pub(crate) fn table(entries: usize) -> Arc<[AtomicU64]> {
        (0..=entries).map(|_| AtomicU64::new(0)).collect()
    }

    /// The place of a bank whose slots are versioned from entry `base` of
    /// a table on, `grain` slots to an entry.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is not a power of two, or if `base` is past the
    /// 65 534 entries a place can address.
    pub(crate) fn new(base: usize, grain: usize, mode: Instrumentation) -> Self {
        assert!(grain.is_power_of_two(), "a grain of {grain} slots");
        Epochs {
            first: u16::try_from(1 + base).expect("a base entry below 2^16 - 1"),
            grain: grain.trailing_zeros() as u8,
            mode,
        }
    }

    /// The table index of the entry of the bank's slot `slot`.
    #[inline]
    fn entry(self, slot: usize) -> usize {
        usize::from(self.first) + (slot >> self.grain)
    }

    /// Bumps the entry of the bank's `slot` in `table`, and the global.
    /// Release: a reader that loads the new version then reads the value
    /// stored before the bump.
    #[inline]
    pub(crate) fn bump(self, table: &[AtomicU64], slot: usize) {
        let entry = &table[self.entry(slot)];
        self.mode.add(entry, 1, Ordering::Release);
        self.mode.add(&table[0], 1, Ordering::Release);
    }

    /// Bumps once each entry that the bank's slots `0..len` cover: the
    /// partition install/heal hook.
    pub(crate) fn bump_bank(self, table: &[AtomicU64], len: usize) {
        for slot in (0..len).step_by(1 << self.grain) {
            self.bump(table, slot);
        }
    }

    /// The sum of the entries that the bank's `slots` overlap: it moves
    /// whenever one of them does, and every entry only grows.
    #[inline]
    pub(crate) fn version(self, table: &[AtomicU64], slots: Range<usize>) -> u64 {
        if slots.is_empty() {
            return 0;
        }
        let entries = self.entry(slots.start)..=self.entry(slots.end - 1);
        (table[entries].iter())
            .map(|version| version.load(Ordering::Acquire))
            .sum()
    }

    /// The global version of `table`.
    #[inline]
    pub(crate) fn global(table: &[AtomicU64]) -> u64 {
        table[0].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySpace, ProcessId};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Every write path — `get(..).write`, `get(..).poke`, the same
    /// through a clone of the view — moves the version of what it wrote
    /// and the global, and no other entry's version.
    #[test]
    fn every_write_path_moves_its_version_and_no_other() {
        for mode in [Instrumentation::Eager, Instrumentation::Deferred] {
            let s = MemorySpace::with_instrumentation(40, mode);
            let m = s.epoched_nat_row_matrix("S", |_, _| 0);
            let rows = |m: &crate::NatMatrix| -> Vec<_> {
                (0..40).map(|r| m.row_version(p(r)).unwrap()).collect()
            };
            let clone = m.clone();
            for (row, write) in [(1, 0), (7, 1), (39, 2), (0, 3)] {
                let (before, global) = (rows(&m), m.version().unwrap());
                match write {
                    0 => m.get(p(row), p(2)).write(p(row), 5),
                    1 => m.get(p(row), p(3)).poke(6),
                    2 => clone.get(p(row), p(4)).write(p(row), 7),
                    _ => clone.get(p(row), p(5)).poke(8),
                }
                let after = rows(&m);
                for r in 0..40 {
                    assert_eq!(after[r] != before[r], r == row, "{mode:?}: row {r}");
                }
                assert_ne!(m.version().unwrap(), global, "{mode:?}: the global");
                assert_eq!(clone.version(), m.version(), "one table");
            }

            let a = s.epoched_nat_mwmr_array("C", 5, |_| 0);
            let slots = |a: &crate::MwmrNatArray| -> Vec<_> {
                (0..5).map(|k| a.slot_version(k).unwrap()).collect()
            };
            let clone = a.clone();
            for (slot, write) in [(2, 0), (0, 1), (4, 2), (2, 3)] {
                let (before, global) = (slots(&a), a.version().unwrap());
                match write {
                    0 => a.get(slot).write(p(1), 5),
                    1 => a.get(slot).poke(6),
                    2 => clone.get(slot).write(p(3), 7),
                    _ => clone.get(slot).poke(8),
                }
                let after = slots(&a);
                for k in 0..5 {
                    assert_eq!(after[k] != before[k], k == slot, "{mode:?}: slot {k}");
                }
                assert_ne!(a.version().unwrap(), global, "{mode:?}: the global");
            }

            let progress = s.epoched_nat_array("PROGRESS", |_| 0);
            let chunks = |a: &crate::NatArray| -> Vec<_> {
                [0..16, 16..32, 32..40]
                    .map(|range| a.range_version(range).unwrap())
                    .to_vec()
            };
            let clone = progress.clone();
            for (pid, write) in [(20, 0), (3, 1), (39, 2), (16, 3)] {
                let (before, chunk) = (chunks(&progress), pid / 16);
                match write {
                    0 => progress.get(p(pid)).write(p(pid), 5),
                    1 => progress.get(p(pid)).poke(6),
                    2 => clone.get(p(pid)).write(p(pid), 7),
                    _ => clone.get(p(pid)).poke(8),
                }
                let after = chunks(&progress);
                for c in 0..3 {
                    assert_eq!(after[c] != before[c], c == chunk, "{mode:?}: chunk {c}");
                }
            }
        }
    }

    #[test]
    fn matrix_write_bumps_only_its_row() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        assert_eq!(m.row_version(p(0)), Some(0));
        m.get(p(1), p(2)).write(p(1), 5);
        assert_eq!(m.row_version(p(0)), Some(0));
        assert_eq!(m.row_version(p(1)), Some(1));
        assert_eq!(m.get(p(1), p(2)).peek(), 5);
        assert_eq!(m.n(), 3);
        assert_eq!(s.nat_row_matrix("PLAIN", |_, _| 0).row_version(p(0)), None);
    }

    #[test]
    fn snapshot_reads_whole_row_attributed() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |r, c| (10 * r + c) as u64);
        let mut buf = vec![0; 3];
        m.read_row_into(p(1), p(2), &mut buf);
        assert_eq!(buf, vec![10, 11, 12]);
        assert_eq!(m.row_version(p(1)), Some(0), "a read moves nothing");
        assert_eq!(s.stats().reads_of(p(2)), 3, "snapshot reads are attributed");
    }

    #[test]
    #[should_panic(expected = "full row")]
    fn snapshot_rejects_short_buffer() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        let mut buf = vec![0; 2];
        m.read_row_into(p(0), p(1), &mut buf);
    }

    #[test]
    #[should_panic(expected = "attempted to write")]
    fn matrix_write_still_enforces_ownership() {
        let s = MemorySpace::new(2);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        m.get(p(0), p(1)).write(p(1), 3);
    }

    #[test]
    fn skip_accounting_reaches_space_stats() {
        let s = MemorySpace::new(4);
        let scan = s.scan_counters();
        scan.note_skipped(2, 8);
        scan.note_snapshot();
        scan.note_shard_pass();
        let stats = s.stats().scan();
        assert_eq!((stats.rows_skipped, stats.reads_skipped), (2, 8));
        assert_eq!((stats.snapshot_batches, stats.shard_passes), (1, 1));
    }

    #[test]
    fn array_slot_versions_and_reads() {
        let s = MemorySpace::new(2);
        let a = s.epoched_nat_mwmr_array("S", 3, |i| i as u64);
        assert_eq!((a.len(), a.slot_version(2)), (3, Some(0)));
        a.get(2).write(p(1), 9);
        assert_eq!((a.slot_version(2), a.slot_version(0)), (Some(1), Some(0)));
        assert_eq!(a.get(2).read(p(0)), 9);
        assert_eq!(s.nat_mwmr_array("PLAIN", 2, |_| 0).slot_version(1), None);
    }

    #[test]
    fn global_version_moves_with_every_write_and_poke() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        let v0 = m.version();
        m.get(p(0), p(1)).write(p(0), 1);
        let v1 = m.version();
        assert_ne!(v0, v1);
        m.get(p(2), p(0)).poke(9);
        assert_ne!(m.version(), v1);

        let a = s.epoched_nat_mwmr_array("C", 3, |_| 0);
        let v0 = a.version();
        a.get(1).write(p(0), 5);
        assert_ne!(a.version(), v0);
        let v1 = a.version();
        a.get(2).poke(7);
        assert_ne!(a.version(), v1);
        assert_eq!(s.nat_row_matrix("PLAIN", |_, _| 0).version(), None);
    }

    #[test]
    fn clones_share_epochs() {
        let s = MemorySpace::new(2);
        let a = s.epoched_nat_row_matrix("S", |_, _| 0);
        let b = a.clone();
        a.get(p(0), p(1)).write(p(0), 1);
        assert_eq!(b.row_version(p(0)), Some(1));
        b.get(p(1), p(0)).poke(2);
        assert_eq!((a.row_version(p(1)), a.version()), (Some(1), Some(2)));
    }

    #[test]
    fn tables_bump_per_grain_and_sum_the_entries_a_range_overlaps() {
        let table = Epochs::table(5);
        let mode = Instrumentation::Deferred;
        let (whole, bank) = (Epochs::new(0, 16, mode), Epochs::new(1, 16, mode));
        bank.bump(&table, 20);
        assert_eq!(bank.version(&table, 0..16), 0, "base 1: slot 20 is entry 2");
        assert_eq!(
            (bank.version(&table, 16..32), bank.version(&table, 10..17)),
            (1, 1)
        );
        assert_eq!(
            (whole.version(&table, 0..80), bank.version(&table, 5..5)),
            (1, 0)
        );
        bank.bump_bank(&table, 40);
        assert_eq!(
            (
                whole.version(&table, 0..16),
                whole.version(&table, 0..80),
                Epochs::global(&table)
            ),
            (0, 4, 4),
            "entries 1, 2 and 3 once each, the global with them"
        );
    }

    #[test]
    #[should_panic(expected = "grain")]
    fn a_grain_is_a_power_of_two() {
        let _ = Epochs::new(0, 3, Instrumentation::Eager);
    }

    #[test]
    fn scan_stats_delta() {
        let a = ScanStats {
            reads_skipped: 10,
            rows_skipped: 2,
            snapshot_batches: 3,
            shard_passes: 4,
        };
        let b = ScanStats {
            reads_skipped: 4,
            rows_skipped: 1,
            snapshot_batches: 1,
            shard_passes: 1,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.reads_skipped, 6);
        assert_eq!(d.rows_skipped, 1);
        assert_eq!(d.snapshot_batches, 2);
        assert_eq!(d.shard_passes, 3);
    }
}
