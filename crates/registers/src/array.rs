//! Register arrays: one register per process, one bank per array.
//!
//! An array is a single [bank](crate::swmr) — contiguous value cells,
//! one read tally per reader — plus one `(bank, slot)` handle per slot
//! for register-at-a-time access ([`SwmrArray::get`]). Scans should not
//! walk the handles: [`SwmrArray::read_range_into`] performs the same
//! attributed reads (same values, same per-(reader, bank) counts, on
//! SAN the same `read_block` per slot in slot order) as calling
//! [`read`](SwmrRegister::read) on each slot of the range, but resolves
//! the partition mask once and walks adjacent memory. A scan that must
//! not read its own slot splits the range around it — a range read counts
//! every slot it covers.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::cell::{LockCell, SharedCell};
use crate::meta::BankMeta;
use crate::swmr::{Bank, MwmrRegister, SwmrRegister};
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
    regs: Vec<SwmrRegister<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> SwmrArray<T, C> {
    /// Views every slot of a 1WnR `bank`. Also the row type of
    /// [`OwnedMatrix`](crate::OwnedMatrix), where who owns slot `i` is the
    /// bank's business, not necessarily `p_i`.
    pub(crate) fn over(bank: Arc<Bank<T, C>>) -> Self {
        let regs = (0..bank.counters().len())
            .map(|slot| SwmrRegister::view(&bank, slot))
            .collect();
        SwmrArray { bank, regs }
    }

    /// The register owned by process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid.index() >= len()`.
    #[must_use]
    pub fn get(&self, pid: ProcessId) -> &SwmrRegister<T, C> {
        &self.regs[pid.index()]
    }

    /// Number of slots (= number of processes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the array has zero slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Iterates over `(owner, register)` pairs in identity order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &SwmrRegister<T, C>)> {
        self.regs
            .iter()
            .enumerate()
            .map(|(i, r)| (ProcessId::new(i), r))
    }

    /// Batch-reads the slots in `range` into `out` on behalf of `reader` —
    /// one attributed read per slot, in identity order, exactly as if
    /// [`read`](SwmrRegister::read) were called on each (module docs).
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
            self.regs.len(),
            "snapshot buffer must hold every slot"
        );
        self.read_range_into(reader, 0..self.regs.len(), out);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for SwmrArray<T, C> {
    fn clone(&self) -> Self {
        SwmrArray {
            bank: Arc::clone(&self.bank),
            regs: self.regs.clone(),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for SwmrArray<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.regs.iter()).finish()
    }
}

/// An array of nWnR registers indexed by position.
///
/// Used by the Section 3.5 variant where each `SUSPICIONS[·][k]` column
/// becomes a single multi-writer register `SUSPICIONS[k]`.
pub struct MwmrArray<T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    bank: Arc<Bank<T, C>>,
    regs: Vec<MwmrRegister<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> MwmrArray<T, C> {
    /// Views every slot of an nWnR `bank`.
    pub(crate) fn over(bank: Arc<Bank<T, C>>) -> Self {
        let regs = (0..bank.counters().len())
            .map(|slot| MwmrRegister::view(&bank, slot))
            .collect();
        MwmrArray { bank, regs }
    }

    /// The register at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> &MwmrRegister<T, C> {
        &self.regs[index]
    }

    /// Number of registers in the array.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the array has zero registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Iterates over the registers in index order.
    pub fn iter(&self) -> impl Iterator<Item = &MwmrRegister<T, C>> {
        self.regs.iter()
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
            self.regs.len(),
            "snapshot buffer must hold every slot"
        );
        self.read_range_into(reader, 0..self.regs.len(), out);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for MwmrArray<T, C> {
    fn clone(&self) -> Self {
        MwmrArray {
            bank: Arc::clone(&self.bank),
            regs: self.regs.clone(),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for MwmrArray<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.regs.iter()).finish()
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
    fn debug_formats() {
        let s = MemorySpace::new(1);
        let a = s.swmr_array::<bool>("F", |_| true);
        assert!(format!("{a:?}").contains("true"));
        let m = s.mwmr_array::<u64>("M", 1, |_| 2);
        assert!(format!("{m:?}").contains('2'));
    }
}
