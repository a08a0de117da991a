//! Epoch/dirty-row tracking for scan-heavy register layouts.
//!
//! The Figure-2 `SUSPICIONS` matrix is `n²` registers, and both the `T1`
//! election (`leader()`) and the `T3` scan walk it. At `n = 32` the
//! baseline run already performs ~93 M attributed reads, almost all of
//! them re-reading rows that have not changed since the previous scan —
//! exactly the contention regime the leader-election lower bounds (see
//! PAPERS.md) say dominates at scale.
//!
//! This module adds the tracking layer that lets readers *skip* untouched
//! rows without weakening the register model:
//!
//! * [`EpochedMatrix`] — an [`OwnedMatrix`] whose writes (through the
//!   matrix-level [`write`](EpochedMatrix::write)) bump a per-row epoch.
//!   A reader remembers the epoch it last snapshotted a row at and
//!   re-reads the row only when the epoch moved; each skipped row is a
//!   row's worth of shared reads avoided.
//! * [`EpochedArray`] — the same idea per slot, for the §3.5(a) nWnR
//!   suspicion counters.
//! * **Chunk epochs** — a bank made by
//!   [`MemorySpace::epoched_nat_array`](crate::MemorySpace::epoched_nat_array)
//!   (`PROGRESS`) keeps one epoch per chunk of 16 slots, bumped by every
//!   write and poke of the bank itself, so no path can miss one;
//!   [`SwmrArray::range_version`](crate::SwmrArray::range_version) sums
//!   the chunks a range overlaps.
//! * [`ScanCounters`] — space-wide accounting of the savings
//!   (reads skipped, rows skipped, snapshot batches, `T3` shard passes),
//!   surfaced through [`StatsSnapshot`](crate::StatsSnapshot) so every
//!   driver can report them in its outcome.
//!
//! The epoch is harness-level metadata, not a shared register: checking it
//! models a modification-detecting read (a dirty bit), which is strictly
//! weaker than reading the register's value. Skipping a clean row can at
//! worst return a value that was current at the previous scan — the same
//! staleness any asynchronous reader already tolerates — and the next
//! epoch check observes the missed write, so the Ω eventual-agreement
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

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::array::MwmrArray;
use crate::cell::SharedCell;
use crate::matrix::OwnedMatrix;
use crate::value::RegisterValue;
use crate::ProcessId;

/// Space-wide counters of the shared reads that epoch tracking avoided.
///
/// One instance is shared by every epoched structure of a
/// [`MemorySpace`](crate::MemorySpace); snapshots of it ride along in
/// [`StatsSnapshot`](crate::StatsSnapshot) as [`ScanStats`].
///
/// These are bookkeeping counters on hot scan paths (every `T3` pass and
/// every quiescent `leader()` query posts to them), so a space in deferred
/// instrumentation mode creates them *unsynchronized*: updates are plain
/// load/store pairs rather than atomic read-modify-writes, exact for the
/// single-threaded simulator and lossy-but-sound (never torn, never UB)
/// if misused concurrently.
#[derive(Debug, Default)]
pub struct ScanCounters {
    reads_skipped: AtomicU64,
    rows_skipped: AtomicU64,
    snapshot_batches: AtomicU64,
    shard_passes: AtomicU64,
    /// Use plain load/store instead of `fetch_add` (deferred-mode spaces).
    unsync: bool,
}

impl ScanCounters {
    /// Creates zeroed counters (synchronized updates).
    #[must_use]
    pub fn new() -> Self {
        ScanCounters::default()
    }

    /// Creates zeroed counters with unsynchronized (single-threaded-exact)
    /// updates.
    #[must_use]
    pub fn new_unsync() -> Self {
        ScanCounters {
            unsync: true,
            ..ScanCounters::default()
        }
    }

    #[inline]
    fn add(&self, cell: &AtomicU64, delta: u64) {
        if self.unsync {
            cell.store(cell.load(Ordering::Relaxed) + delta, Ordering::Relaxed);
        } else {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
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

/// Per-row (or per-slot) modification epochs, plus a structure-global
/// epoch that moves on *every* write.
///
/// The global epoch lets a reader validate "nothing anywhere changed" with
/// one load instead of `n` — the O(1) fast path of a quiescent scan cache.
/// A reader that observes an unchanged global epoch knows every per-row
/// epoch is unchanged too (the global moves with each of them).
#[derive(Debug)]
pub(crate) struct Epochs {
    versions: Box<[AtomicU64]>,
    global: AtomicU64,
}

impl Epochs {
    fn new(len: usize) -> Self {
        Epochs {
            versions: (0..len).map(|_| AtomicU64::new(0)).collect(),
            global: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bump(&self, index: usize) {
        self.versions[index].fetch_add(1, Ordering::Release);
        self.global.fetch_add(1, Ordering::Release);
    }

    /// Moves every per-row epoch (and the global epoch with them): nothing
    /// a reader cached against an older epoch validates afterwards. This
    /// is the partition install/heal hook — a visibility cut is a
    /// modification *of what a read returns* even though no value moved,
    /// so epoch-validated caches must be forced to re-read once per
    /// transition or they would serve frozen snapshots as current forever
    /// (the matrix may go quiescent right after a heal).
    pub(crate) fn bump_all(&self) {
        for version in &self.versions {
            version.fetch_add(1, Ordering::Release);
        }
        self.global
            .fetch_add(self.versions.len() as u64, Ordering::Release);
    }

    #[inline]
    fn load(&self, index: usize) -> u64 {
        self.versions[index].load(Ordering::Acquire)
    }

    #[inline]
    fn load_global(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }
}

/// An owned register matrix with per-row modification epochs.
///
/// Reads and ownership checks are exactly those of the wrapped
/// [`OwnedMatrix`]; the only new obligation is that writers go through
/// [`write`](EpochedMatrix::write) (or bump explicitly) so the row epoch
/// tracks modifications.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(3);
/// let susp = space.epoched_nat_row_matrix("SUSPICIONS", |_, _| 0);
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
///
/// let before = susp.row_version(p0);
/// susp.write(p0, p1, p0, 7);
/// assert_ne!(susp.row_version(p0), before, "write moved the row epoch");
///
/// let mut row = vec![0; 3];
/// let seen = susp.snapshot_row_into(p0, p1, &mut row);
/// assert_eq!(row, vec![0, 7, 0]);
/// assert_eq!(seen, susp.row_version(p0), "clean row: epoch unchanged");
/// ```
pub struct EpochedMatrix<T: RegisterValue, C: SharedCell<T>> {
    matrix: OwnedMatrix<T, C>,
    epochs: Arc<Epochs>,
    counters: Arc<ScanCounters>,
}

impl<T: RegisterValue, C: SharedCell<T>> EpochedMatrix<T, C> {
    pub(crate) fn new(matrix: OwnedMatrix<T, C>, counters: Arc<ScanCounters>) -> Self {
        let n = matrix.n();
        EpochedMatrix {
            matrix,
            epochs: Arc::new(Epochs::new(n)),
            counters,
        }
    }

    /// The wrapped matrix (plain register access; reads don't need epochs).
    #[must_use]
    pub fn matrix(&self) -> &OwnedMatrix<T, C> {
        &self.matrix
    }

    /// Matrix dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.matrix.n()
    }

    /// The register at `[row][col]` (passthrough).
    #[must_use]
    pub fn get(&self, row: ProcessId, col: ProcessId) -> crate::SwmrRef<'_, T, C> {
        self.matrix.get(row, col)
    }

    /// Writes `[row][col]` on behalf of `writer` and bumps the row epoch.
    ///
    /// The epoch moves *after* the value is stored, so a reader that
    /// observes the new epoch is guaranteed to observe the new value on
    /// its re-read.
    ///
    /// # Panics
    ///
    /// Panics if `writer` does not own the register.
    pub fn write(&self, row: ProcessId, col: ProcessId, writer: ProcessId, value: T) {
        self.matrix.get(row, col).write(writer, value);
        self.epochs.bump(row.index());
    }

    /// Current modification epoch of `row`.
    #[must_use]
    pub fn row_version(&self, row: ProcessId) -> u64 {
        self.epochs.load(row.index())
    }

    /// Matrix-global modification epoch: moves on every write (and poke)
    /// to any row. An unchanged value proves every row epoch is unchanged
    /// — the one-load validation behind O(1) quiescent scans.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.epochs.load_global()
    }

    /// Unattributed overwrite of `[row][col]` that still bumps the row
    /// epoch — the harness-side corruption hook. Poking through
    /// [`get`](Self::get) instead would leave caches epoch-clean and
    /// blind to the new value.
    pub fn poke(&self, row: ProcessId, col: ProcessId, value: T) {
        self.matrix.get(row, col).poke(value);
        self.epochs.bump(row.index());
    }

    /// Batch-reads the whole `row` into `out` on behalf of `reader`,
    /// returning the row epoch observed *before* the reads (so a write
    /// racing the snapshot leaves the caller's cached epoch stale and the
    /// next validation re-reads).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n`.
    pub fn snapshot_row_into(&self, row: ProcessId, reader: ProcessId, out: &mut [T]) -> u64 {
        let version = self.row_version(row);
        self.matrix.read_row_into(row, reader, out);
        self.counters.note_snapshot();
        version
    }

    /// Records that a clean row was skipped (crediting one row's worth of
    /// shared reads to the savings counters).
    pub fn note_row_skipped(&self) {
        self.note_rows_skipped(1);
    }

    /// Records `rows` clean rows skipped in one batch — one pair of counter
    /// updates however many rows a scan found clean. Equivalent to calling
    /// [`note_row_skipped`](Self::note_row_skipped) `rows` times.
    pub fn note_rows_skipped(&self, rows: u64) {
        self.counters.note_skipped(rows, rows * self.n() as u64);
    }

    /// The space-wide scan counters this matrix reports into.
    #[must_use]
    pub fn counters(&self) -> &Arc<ScanCounters> {
        &self.counters
    }

    /// The epoch table, for the space's partition hooks (install/heal
    /// invalidate every epoch-validated cache via
    /// [`Epochs::bump_all`]).
    pub(crate) fn epochs(&self) -> &Arc<Epochs> {
        &self.epochs
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for EpochedMatrix<T, C> {
    fn clone(&self) -> Self {
        EpochedMatrix {
            matrix: self.matrix.clone(),
            epochs: Arc::clone(&self.epochs),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for EpochedMatrix<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Epoched{:?}", self.matrix)
    }
}

/// An nWnR register array with per-slot modification epochs — the
/// [`EpochedMatrix`] treatment for the §3.5(a) collapsed suspicion
/// counters.
pub struct EpochedArray<T: RegisterValue, C: SharedCell<T>> {
    array: MwmrArray<T, C>,
    epochs: Arc<Epochs>,
    counters: Arc<ScanCounters>,
}

impl<T: RegisterValue, C: SharedCell<T>> EpochedArray<T, C> {
    pub(crate) fn new(array: MwmrArray<T, C>, counters: Arc<ScanCounters>) -> Self {
        let len = array.len();
        EpochedArray {
            array,
            epochs: Arc::new(Epochs::new(len)),
            counters,
        }
    }

    /// The wrapped array (plain register access).
    #[must_use]
    pub fn array(&self) -> &MwmrArray<T, C> {
        &self.array
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the array has zero slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// The register at `index` (passthrough).
    #[must_use]
    pub fn get(&self, index: usize) -> crate::MwmrRef<'_, T, C> {
        self.array.get(index)
    }

    /// Writes slot `index` on behalf of `writer` and bumps the slot epoch.
    pub fn write(&self, index: usize, writer: ProcessId, value: T) {
        self.array.get(index).write(writer, value);
        self.epochs.bump(index);
    }

    /// Current modification epoch of slot `index`.
    #[must_use]
    pub fn slot_version(&self, index: usize) -> u64 {
        self.epochs.load(index)
    }

    /// Array-global modification epoch (see [`EpochedMatrix::version`]).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.epochs.load_global()
    }

    /// Unattributed overwrite of slot `index` that still bumps the slot
    /// epoch (see [`EpochedMatrix::poke`]).
    pub fn poke(&self, index: usize, value: T) {
        self.array.get(index).poke(value);
        self.epochs.bump(index);
    }

    /// Reads slot `index` on behalf of `reader`, returning the slot epoch
    /// observed before the read alongside the value.
    pub fn read_versioned(&self, index: usize, reader: ProcessId) -> (u64, T) {
        let version = self.slot_version(index);
        (version, self.array.get(index).read(reader))
    }

    /// Records `slots` clean slots skipped (one shared read avoided each).
    pub fn note_slots_skipped(&self, slots: u64) {
        self.counters.note_skipped(slots, slots);
    }

    /// The space-wide scan counters this array reports into.
    #[must_use]
    pub fn counters(&self) -> &Arc<ScanCounters> {
        &self.counters
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for EpochedArray<T, C> {
    fn clone(&self) -> Self {
        EpochedArray {
            array: self.array.clone(),
            epochs: Arc::clone(&self.epochs),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for EpochedArray<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Epoched{:?}", self.array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn matrix_write_bumps_only_its_row() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        assert_eq!(m.row_version(p(0)), 0);
        m.write(p(1), p(2), p(1), 5);
        assert_eq!(m.row_version(p(0)), 0);
        assert_eq!(m.row_version(p(1)), 1);
        assert_eq!(m.get(p(1), p(2)).peek(), 5);
        assert_eq!(m.n(), 3);
    }

    #[test]
    fn snapshot_reads_whole_row_attributed() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |r, c| (10 * r + c) as u64);
        let mut buf = vec![0; 3];
        let v = m.snapshot_row_into(p(1), p(2), &mut buf);
        assert_eq!(buf, vec![10, 11, 12]);
        assert_eq!(v, 0);
        let stats = s.stats();
        assert_eq!(stats.reads_of(p(2)), 3, "snapshot reads are attributed");
        assert_eq!(stats.scan().snapshot_batches, 1);
    }

    #[test]
    #[should_panic(expected = "full row")]
    fn snapshot_rejects_short_buffer() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        let mut buf = vec![0; 2];
        let _ = m.snapshot_row_into(p(0), p(1), &mut buf);
    }

    #[test]
    #[should_panic(expected = "attempted to write")]
    fn matrix_write_still_enforces_ownership() {
        let s = MemorySpace::new(2);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        m.write(p(0), p(1), p(1), 3);
    }

    #[test]
    fn skip_accounting_reaches_space_stats() {
        let s = MemorySpace::new(4);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        m.note_row_skipped();
        m.note_row_skipped();
        m.counters().note_shard_pass();
        let scan = s.stats().scan();
        assert_eq!(scan.rows_skipped, 2);
        assert_eq!(scan.reads_skipped, 8);
        assert_eq!(scan.shard_passes, 1);
    }

    #[test]
    fn array_slot_versions_and_reads() {
        let s = MemorySpace::new(2);
        let a = s.epoched_nat_mwmr_array("S", 3, |i| i as u64);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        let (v, val) = a.read_versioned(2, p(0));
        assert_eq!((v, val), (0, 2));
        a.write(2, p(1), 9);
        assert_eq!(a.slot_version(2), 1);
        assert_eq!(a.slot_version(0), 0);
        let (v, val) = a.read_versioned(2, p(0));
        assert_eq!((v, val), (1, 9));
        a.note_slots_skipped(5);
        assert_eq!(s.stats().scan().reads_skipped, 5);
    }

    #[test]
    fn global_version_moves_with_every_write_and_poke() {
        let s = MemorySpace::new(3);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        let v0 = m.version();
        m.write(p(0), p(1), p(0), 1);
        let v1 = m.version();
        assert_ne!(v0, v1);
        m.poke(p(2), p(0), 9);
        assert_ne!(m.version(), v1);

        let a = s.epoched_nat_mwmr_array("C", 3, |_| 0);
        let v0 = a.version();
        a.write(1, p(0), 5);
        assert_ne!(a.version(), v0);
        let v1 = a.version();
        a.poke(2, 7);
        assert_ne!(a.version(), v1);
    }

    #[test]
    fn clones_share_epochs() {
        let s = MemorySpace::new(2);
        let a = s.epoched_nat_row_matrix("S", |_, _| 0);
        let b = a.clone();
        a.write(p(0), p(1), p(0), 1);
        assert_eq!(b.row_version(p(0)), 1);
        assert!(format!("{b:?}").contains("Epoched"));
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
