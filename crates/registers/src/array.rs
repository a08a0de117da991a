//! Register arrays: one register per process, one bank per array.
//!
//! An array is a single [bank](crate::swmr) — contiguous value cells, one
//! block of names, one read tally per reader — and nothing else: it keeps
//! no handle per slot. [`SwmrArray::get`] lends slot `i` as a
//! [`SwmrRef`], the bank reference and the index, by value. Scans should
//! not walk the slots: [`SwmrArray::read_range_into`] performs the same
//! attributed reads (same values, same per-(reader, bank) counts, on SAN
//! the same `read_block` per slot in slot order) as calling
//! [`read`](SwmrRef::read) on each slot of the range, but resolves the
//! partition mask once and walks adjacent memory. A scan that must not
//! read its own slot splits the range around it — a range read counts
//! every slot it covers.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::cell::{LockCell, SharedCell};
use crate::swmr::{Bank, MwmrRef, SwmrRef};
use crate::value::RegisterValue;
use crate::ProcessId;

/// An array of 1WnR registers, slot `i` owned by process `p_i`.
///
/// This is the layout of the paper's `PROGRESS[1..n]` and `STOP[1..n]`
/// arrays: every process owns exactly its own entry and may read all of
/// them.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(3);
/// let stop = space.swmr_array::<bool>("STOP", |_| true);
/// let p1 = ProcessId::new(1);
/// stop.get(p1).write(p1, false);
/// assert!(!stop.get(p1).read(ProcessId::new(0)));
/// assert!(stop.get(ProcessId::new(2)).read(p1));
/// ```
pub struct SwmrArray<T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    bank: Arc<Bank<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> SwmrArray<T, C> {
    /// Views every slot of a 1WnR `bank`. Also the row type of
    /// [`OwnedMatrix`](crate::OwnedMatrix), where who owns slot `i` is the
    /// bank's business, not necessarily `p_i`.
    pub(crate) fn over(bank: Arc<Bank<T, C>>) -> Self {
        SwmrArray { bank }
    }

    /// The bank this array views.
    pub(crate) fn bank(&self) -> &Bank<T, C> {
        &self.bank
    }

    /// The register owned by process `pid`, borrowed from the array.
    ///
    /// # Panics
    ///
    /// Panics if `pid.index() >= len()`.
    #[must_use]
    #[inline]
    pub fn get(&self, pid: ProcessId) -> SwmrRef<'_, T, C> {
        SwmrRef::new(&self.bank, pid.index())
    }

    /// Number of slots (= number of processes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// Whether the array has zero slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(owner, register)` pairs in identity order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, SwmrRef<'_, T, C>)> {
        ProcessId::all(self.len()).map(|pid| (pid, self.get(pid)))
    }

    /// Batch-reads the slots in `range` into `out` on behalf of `reader` —
    /// one attributed read per slot, in identity order, exactly as if
    /// [`read`](SwmrRef::read) were called on each (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `range` leaves the array or `out.len() != range.len()`.
    #[inline]
    pub fn read_range_into(&self, reader: ProcessId, range: Range<usize>, out: &mut [T]) {
        self.bank.read_range_into(reader, range, out);
    }

    /// Batch-reads every slot into `out` on behalf of `reader` — the
    /// full-array [`read_range_into`](Self::read_range_into).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != len()`.
    pub fn snapshot_into(&self, reader: ProcessId, out: &mut [T]) {
        assert_eq!(
            out.len(),
            self.len(),
            "snapshot buffer must hold every slot"
        );
        self.read_range_into(reader, 0..self.len(), out);
    }

    /// The write version of the slots in `range`, or `None` if the array
    /// keeps no epoch table (one not made by
    /// [`MemorySpace::epoched_nat_array`](crate::MemorySpace::epoched_nat_array))
    /// or lives on a disk-backed space, whose device must serve every
    /// read. It moves with every write and poke of a slot in the 16-slot
    /// entries the range overlaps, whichever view made it, and with every
    /// partition install and heal; it never moves otherwise. Read it
    /// *before* reading the range: a write racing the reads then leaves
    /// the version the caller keeps behind.
    ///
    /// # Panics
    ///
    /// Panics if `range` leaves the array.
    #[must_use]
    #[inline]
    pub fn range_version(&self, range: Range<usize>) -> Option<u64> {
        self.bank.range_version(range)
    }

    /// Books one read by `reader` of every slot of `range` but `except`,
    /// here and in `alongside` — the same per-(reader, bank) tallies a
    /// [`read_range_into`](Self::read_range_into) of those slots of each
    /// adds — without loading a value, if `*seen` is still the range's
    /// [`range_version`](Self::range_version). A caller that read the
    /// range at that version thus holds what each booked read of this
    /// array would return: the array guarantees it, by refusing once
    /// anything moved the version. For `alongside` the caller vouches
    /// instead that, this range being unchanged, it would discard every
    /// value read there (`T3` does so with `STOP`); its reads are booked
    /// only with a checked booking of this array's. A refusal counts
    /// nothing, returns `false` and sets `*seen` to the current version
    /// (`None` if the array keeps none, or if `alongside` is on a
    /// disk-backed space, whose device must serve every read counted),
    /// taken before any read the caller goes on to make — the version to
    /// keep for those reads.
    ///
    /// # Panics
    ///
    /// Panics if `range` leaves either array or `reader` is not a process
    /// of the system.
    #[inline]
    pub fn book_unchanged_range<U: RegisterValue, D: SharedCell<U>>(
        &self,
        reader: ProcessId,
        range: Range<usize>,
        except: Option<usize>,
        seen: &mut Option<u64>,
        alongside: &SwmrArray<U, D>,
    ) -> bool {
        (self.bank).book_unchanged_range(reader, range, except, seen, &alongside.bank)
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for SwmrArray<T, C> {
    fn clone(&self) -> Self {
        SwmrArray::over(Arc::clone(&self.bank))
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for SwmrArray<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(_, reg)| reg))
            .finish()
    }
}

/// An array of nWnR registers indexed by position.
///
/// Used by the Section 3.5 variant where each `SUSPICIONS[·][k]` column
/// becomes a single multi-writer register `SUSPICIONS[k]`.
pub struct MwmrArray<T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    bank: Arc<Bank<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> MwmrArray<T, C> {
    /// Views every slot of an nWnR `bank`.
    pub(crate) fn over(bank: Arc<Bank<T, C>>) -> Self {
        MwmrArray { bank }
    }

    /// The register at position `index`, borrowed from the array.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    #[inline]
    pub fn get(&self, index: usize) -> MwmrRef<'_, T, C> {
        MwmrRef::new(&self.bank, index)
    }

    /// Number of registers in the array.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// Whether the array has zero registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The write version of slot `index`, or `None` if the array keeps no
    /// epoch table (one not made by
    /// [`MemorySpace::epoched_nat_mwmr_array`](crate::MemorySpace::epoched_nat_mwmr_array)).
    /// It moves with every write and poke of the slot, and never
    /// otherwise: an nWnR register is never severed, so a partition
    /// transition leaves it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    #[inline]
    pub fn slot_version(&self, index: usize) -> Option<u64> {
        self.bank.version(index..index + 1)
    }

    /// The array-global write version, or `None` without a table: it
    /// moves with every slot's version, so an unchanged value proves every
    /// slot unchanged.
    #[must_use]
    #[inline]
    pub fn version(&self) -> Option<u64> {
        self.bank.global_version()
    }

    /// Iterates over the registers in index order.
    pub fn iter(&self) -> impl Iterator<Item = MwmrRef<'_, T, C>> {
        (0..self.len()).map(|index| self.get(index))
    }

    /// Batch-reads the registers in `range` into `out` on behalf of
    /// `reader` (see [`SwmrArray::read_range_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `range` leaves the array or `out.len() != range.len()`.
    #[inline]
    pub fn read_range_into(&self, reader: ProcessId, range: Range<usize>, out: &mut [T]) {
        self.bank.read_range_into(reader, range, out);
    }

    /// Batch-reads every register into `out` on behalf of `reader`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != len()`.
    pub fn snapshot_into(&self, reader: ProcessId, out: &mut [T]) {
        assert_eq!(
            out.len(),
            self.len(),
            "snapshot buffer must hold every slot"
        );
        self.read_range_into(reader, 0..self.len(), out);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for MwmrArray<T, C> {
    fn clone(&self) -> Self {
        MwmrArray::over(Arc::clone(&self.bank))
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for MwmrArray<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    #[test]
    fn swmr_array_slot_ownership() {
        let s = MemorySpace::new(3);
        let arr = s.swmr_array::<u64>("PROGRESS", |pid| pid.index() as u64);
        assert_eq!(arr.len(), 3);
        assert!(!arr.is_empty());
        for (pid, reg) in arr.iter() {
            assert_eq!(reg.owner(), pid);
            assert_eq!(reg.read(pid), pid.index() as u64);
            assert_eq!(reg.name(), format!("PROGRESS[{}]", pid.index()));
        }
    }

    #[test]
    #[should_panic(expected = "attempted to write")]
    fn swmr_array_enforces_slot_owner() {
        let s = MemorySpace::new(2);
        let arr = s.swmr_array::<u64>("A", |_| 0);
        arr.get(ProcessId::new(1)).write(ProcessId::new(0), 1);
    }

    #[test]
    fn swmr_array_clone_shares() {
        let s = MemorySpace::new(2);
        let a = s.swmr_array::<u64>("A", |_| 0);
        let b = a.clone();
        let p0 = ProcessId::new(0);
        a.get(p0).write(p0, 9);
        assert_eq!(b.get(p0).read(p0), 9);
    }

    #[test]
    fn mwmr_array_is_position_indexed() {
        let s = MemorySpace::new(2);
        let arr = s.mwmr_array::<u64>("S", 4, |i| i as u64);
        assert_eq!(arr.len(), 4);
        assert_eq!(arr.get(3).peek(), 3);
        arr.get(3).write(ProcessId::new(1), 10);
        assert_eq!(arr.get(3).read(ProcessId::new(0)), 10);
        assert_eq!(arr.iter().count(), 4);
    }

    #[test]
    fn swmr_snapshot_reads_every_slot_attributed() {
        let s = MemorySpace::new(3);
        let arr = s.swmr_array::<u64>("HB", |pid| 10 + pid.index() as u64);
        let mut buf = vec![0; 3];
        arr.snapshot_into(ProcessId::new(1), &mut buf);
        assert_eq!(buf, vec![10, 11, 12]);
        assert_eq!(s.stats().reads_of(ProcessId::new(1)), 3);
    }

    #[test]
    #[should_panic(expected = "every slot")]
    fn swmr_snapshot_rejects_short_buffer() {
        let s = MemorySpace::new(2);
        let arr = s.swmr_array::<u64>("HB", |_| 0);
        arr.snapshot_into(ProcessId::new(0), &mut [0]);
    }

    #[test]
    fn mwmr_snapshot_reads_every_register() {
        let s = MemorySpace::new(2);
        let arr = s.mwmr_array::<u64>("S", 4, |i| i as u64);
        let mut buf = vec![0; 4];
        arr.snapshot_into(ProcessId::new(0), &mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(s.stats().reads_of(ProcessId::new(0)), 4);
    }

    #[test]
    fn range_versions_move_with_writes_pokes_and_partition_transitions() {
        let s = MemorySpace::new(40);
        let arr = s.epoched_nat_array("PROGRESS", |_| 0);
        let (p1, p20, p33) = (ProcessId::new(1), ProcessId::new(20), ProcessId::new(33));
        let version = |range| arr.range_version(range).expect("epoched");
        let (low, mid, high, wide) = (
            version(0..16),
            version(16..32),
            version(32..40),
            version(0..40),
        );
        arr.get(p20).write(p20, 1);
        assert_eq!(version(0..16), low, "another chunk's write");
        assert_ne!(version(16..32), mid, "a write in the chunk");
        assert_ne!(version(0..40), wide, "a range over the chunk");
        assert_ne!(version(10..17), low, "a range overlapping the chunk");
        let mid = version(16..32);
        arr.get(p33).poke(7);
        assert_eq!(version(16..32), mid);
        assert_ne!(version(32..40), high, "a poke in the chunk");
        for transition in [true, false] {
            let before = version(0..40);
            if transition {
                s.install_cut(&[p1], &[p20]);
            } else {
                s.heal_partition();
            }
            assert_ne!(version(0..40), before, "install: {transition}");
        }
        assert_eq!(s.nat_array("PLAIN", |_| 0).range_version(0..4), None);
    }

    #[test]
    fn booking_counts_the_reads_a_range_read_counts_and_refuses_a_moved_range() {
        let s = MemorySpace::new(20);
        let arr = s.epoched_nat_array("PROGRESS", |_| 0);
        let flags = s.flag_array("STOP", |_| true);
        let (p3, p5) = (ProcessId::new(3), ProcessId::new(5));
        let mut seen = None;
        assert!(
            !arr.book_unchanged_range(p3, 0..16, Some(3), &mut seen, &flags),
            "never read"
        );
        assert_eq!(seen, arr.range_version(0..16), "refused: the version now");
        assert!(arr.book_unchanged_range(p3, 0..16, Some(3), &mut seen, &flags));
        assert!(arr.book_unchanged_range(p5, 0..16, None, &mut seen, &flags));
        arr.get(p5).write(p5, 1);
        let before = seen;
        assert!(
            !arr.book_unchanged_range(p3, 0..16, Some(3), &mut seen, &flags),
            "moved"
        );
        assert_ne!(seen, before, "refused: the version now");
        let stats = s.stats();
        let reads: Vec<(u64, u64)> = (stats.banks())
            .map(|bank| (bank.reads[3], bank.reads[5]))
            .collect();
        assert_eq!(reads, [(15, 16), (15, 16)], "[PROGRESS, STOP] by p3, p5");
    }

    #[test]
    fn debug_formats() {
        let s = MemorySpace::new(1);
        let a = s.swmr_array::<bool>("F", |_| true);
        assert!(format!("{a:?}").contains("true"));
        let m = s.mwmr_array::<u64>("M", 1, |_| 2);
        assert!(format!("{m:?}").contains('2'));
    }
}
