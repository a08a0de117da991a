//! One-writer/multi-reader and multi-writer/multi-reader atomic registers.

use std::fmt;
use std::sync::Arc;

use crate::block::BlockDevice;
use crate::cell::{LockCell, SharedCell};
use crate::chaos::PartitionMask;
use crate::error::OwnershipError;
use crate::meta::{Counters, RegisterId, RegisterMeta};
use crate::value::RegisterValue;
use crate::ProcessId;

/// Where a disk-backed register lives: which device, which block.
pub(crate) struct BlockSlot {
    pub(crate) device: Arc<dyn BlockDevice>,
    pub(crate) addr: u64,
}

/// Shared core of a register handle: cell + metadata + counters.
///
/// The name is interned (`Arc<str>`) so statistics and footprint snapshots
/// share it instead of cloning a `String` per register per checkpoint.
///
/// When `block` is bound (disk-backed spaces) the device serves the
/// authoritative value and the local cell is unused; everything else —
/// ownership, attribution, footprint accounting — is identical, which is
/// what makes SAN outcomes directly comparable to in-memory ones.
pub(crate) struct RegCore<T, C> {
    cell: C,
    block: Option<BlockSlot>,
    /// Snapshot served to severed readers while a partition is installed;
    /// refreshed by [`RegisterMeta::freeze`] at each cut. A second typed
    /// cell (not encoded bits) because not every `T` is block-encodable.
    frozen: C,
    mask: Arc<PartitionMask>,
    name: Arc<str>,
    id: RegisterId,
    owner: Option<ProcessId>,
    counters: Counters,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: RegisterValue, C: SharedCell<T>> RegCore<T, C> {
    // One argument per construction-time fact; only `MemorySpace::build`
    // calls this, so a builder would be ceremony without a second caller.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        id: RegisterId,
        owner: Option<ProcessId>,
        n_processes: usize,
        mode: crate::Instrumentation,
        initial: T,
        block: Option<BlockSlot>,
        mask: Arc<PartitionMask>,
    ) -> Arc<Self> {
        let counters = Counters::new(n_processes, owner.is_some(), mode);
        counters.note_initial(initial.footprint_bits());
        if let Some(slot) = &block {
            // Fresh blocks read as zero; only a non-zero initial value needs
            // seeding, and seeding is harness-side (no latency, no counts).
            let encoded = initial.to_block();
            if encoded != 0 {
                slot.device.poke_block(slot.addr, encoded);
            }
        }
        Arc::new(RegCore {
            cell: C::with_value(initial.clone()),
            block,
            frozen: C::with_value(initial),
            mask,
            name: name.into(),
            id,
            owner,
            counters,
            _marker: std::marker::PhantomData,
        })
    }

    fn read(&self, reader: ProcessId) -> T {
        self.counters.note_read(reader);
        // A severed read still counts (the process performed it) but sees
        // the owner's row as it was at the cut, not the live value.
        if let Some(owner) = self.owner {
            if owner != reader && self.mask.severed(reader, owner) {
                return self.frozen.load();
            }
        }
        match &self.block {
            Some(slot) => T::from_block(slot.device.read_block(slot.addr)),
            None => self.cell.load(),
        }
    }

    fn write_unchecked(&self, writer: ProcessId, value: T) {
        let bits = value.footprint_bits();
        match &self.block {
            Some(slot) => slot.device.write_block(slot.addr, value.to_block()),
            None => self.cell.store(value),
        }
        self.counters.note_write(writer, bits);
    }

    fn peek(&self) -> T {
        match &self.block {
            Some(slot) => T::from_block(slot.device.peek_block(slot.addr)),
            None => self.cell.load(),
        }
    }

    /// Replaces the stored value without attributing the write to any
    /// process or updating high-water marks. Used by test harnesses to model
    /// arbitrary initial register contents (the paper's footnote 7).
    fn poke(&self, value: T) {
        match &self.block {
            Some(slot) => slot.device.poke_block(slot.addr, value.to_block()),
            None => self.cell.store(value),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> RegisterMeta for RegCore<T, C> {
    fn name(&self) -> &Arc<str> {
        &self.name
    }

    fn owner(&self) -> Option<ProcessId> {
        self.owner
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn current_bits(&self) -> u64 {
        self.peek().footprint_bits()
    }

    fn freeze(&self) {
        self.frozen.store(self.peek());
    }
}

/// A one-writer/multi-reader (1WnR) atomic register.
///
/// This is the communication primitive of the paper's model `AS_n[∅]`: a
/// single *owner* process may write it, every process may read it, and each
/// operation is linearizable. Handles are cheap to clone and share the same
/// underlying cell.
///
/// Reads and writes are *attributed*: callers pass the identity of the
/// acting process, which feeds the instrumentation used to verify the
/// paper's write-optimality and read-necessity results.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(3);
/// let owner = ProcessId::new(1);
/// let reg = space.swmr::<u64>("PROGRESS[1]", owner, 0);
/// reg.write(owner, 42);
/// assert_eq!(reg.read(ProcessId::new(0)), 42);
/// ```
pub struct SwmrRegister<T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    core: Arc<RegCore<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> SwmrRegister<T, C> {
    pub(crate) fn from_core(core: Arc<RegCore<T, C>>) -> Self {
        debug_assert!(core.owner.is_some(), "SWMR register requires an owner");
        SwmrRegister { core }
    }

    /// The only process allowed to write this register.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.core.owner.expect("SWMR register always has an owner")
    }

    /// Name of the register within its memory space (e.g. `STOP\[2\]`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Identity of the register within its memory space.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        self.core.id
    }

    /// Atomically reads the register on behalf of `reader`.
    pub fn read(&self, reader: ProcessId) -> T {
        self.core.read(reader)
    }

    /// Atomically writes `value` on behalf of `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `writer` is not the owner — writing someone else's 1WnR
    /// register is a model violation and therefore a programming error.
    pub fn write(&self, writer: ProcessId, value: T) {
        if let Err(e) = self.try_write(writer, value) {
            panic!("{e}");
        }
    }

    /// Atomically writes `value` on behalf of `writer`, reporting ownership
    /// violations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`OwnershipError`] if `writer` does not own the register; the
    /// register is left unchanged.
    pub fn try_write(&self, writer: ProcessId, value: T) -> Result<(), OwnershipError> {
        let owner = self.owner();
        if writer != owner {
            return Err(OwnershipError::new(
                self.core.name.to_string(),
                owner,
                writer,
            ));
        }
        self.core.write_unchecked(writer, value);
        Ok(())
    }

    /// Reads the register without attributing the access to any process.
    ///
    /// Harness- and metrics-side inspection must use `peek` so that it does
    /// not pollute the per-process read counters that experiments E4/E10
    /// rely on.
    #[must_use]
    pub fn peek(&self) -> T {
        self.core.peek()
    }

    /// Overwrites the register without attribution or footprint tracking.
    ///
    /// Models the paper's "initial values can be arbitrary" footnote: test
    /// harnesses use this to corrupt state before a run to exercise
    /// self-stabilization. Not for algorithm use.
    pub fn poke(&self, value: T) {
        self.core.poke(value);
    }

    pub(crate) fn meta(&self) -> Arc<dyn RegisterMeta> {
        Arc::clone(&self.core) as Arc<dyn RegisterMeta>
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for SwmrRegister<T, C> {
    fn clone(&self) -> Self {
        SwmrRegister {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for SwmrRegister<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrRegister")
            .field("name", &self.core.name)
            .field("owner", &self.core.owner)
            .field("value", &self.core.peek())
            .finish()
    }
}

/// A multi-writer/multi-reader (nWnR) atomic register.
///
/// Section 3.5 of the paper notes that with nWnR registers each
/// `SUSPICIONS[·][k]` column collapses into a single register. This type
/// supports that variant; writes are attributed but unrestricted.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// let reg = space.mwmr::<u64>("SUSPICIONS[0]", 0);
/// reg.write(ProcessId::new(0), 1);
/// reg.write(ProcessId::new(1), 2);
/// assert_eq!(reg.read(ProcessId::new(0)), 2);
/// ```
pub struct MwmrRegister<T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    core: Arc<RegCore<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> MwmrRegister<T, C> {
    pub(crate) fn from_core(core: Arc<RegCore<T, C>>) -> Self {
        MwmrRegister { core }
    }

    /// Name of the register within its memory space.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Identity of the register within its memory space.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        self.core.id
    }

    /// Atomically reads the register on behalf of `reader`.
    pub fn read(&self, reader: ProcessId) -> T {
        self.core.read(reader)
    }

    /// Atomically writes `value` on behalf of `writer`.
    pub fn write(&self, writer: ProcessId, value: T) {
        self.core.write_unchecked(writer, value);
    }

    /// Unattributed read for harness-side inspection.
    #[must_use]
    pub fn peek(&self) -> T {
        self.core.peek()
    }

    /// Unattributed overwrite for state-corruption harnesses.
    pub fn poke(&self, value: T) {
        self.core.poke(value);
    }

    pub(crate) fn meta(&self) -> Arc<dyn RegisterMeta> {
        Arc::clone(&self.core) as Arc<dyn RegisterMeta>
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for MwmrRegister<T, C> {
    fn clone(&self) -> Self {
        MwmrRegister {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for MwmrRegister<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwmrRegister")
            .field("name", &self.core.name)
            .field("value", &self.core.peek())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    fn space() -> MemorySpace {
        MemorySpace::new(4)
    }

    #[test]
    fn swmr_read_your_write() {
        let s = space();
        let owner = ProcessId::new(2);
        let r = s.swmr::<u64>("X", owner, 5);
        assert_eq!(r.read(owner), 5);
        r.write(owner, 9);
        assert_eq!(r.read(ProcessId::new(0)), 9);
    }

    #[test]
    #[should_panic(expected = "attempted to write")]
    fn swmr_write_by_non_owner_panics() {
        let s = space();
        let r = s.swmr::<u64>("X", ProcessId::new(1), 0);
        r.write(ProcessId::new(0), 1);
    }

    #[test]
    fn swmr_try_write_reports_violation() {
        let s = space();
        let r = s.swmr::<bool>("STOP[1]", ProcessId::new(1), true);
        let err = r.try_write(ProcessId::new(3), false).unwrap_err();
        assert_eq!(err.owner(), ProcessId::new(1));
        assert_eq!(err.writer(), ProcessId::new(3));
        assert!(
            r.read(ProcessId::new(0)),
            "failed write must not change value"
        );
    }

    #[test]
    fn rejected_write_counts_nothing_in_either_mode() {
        use crate::Instrumentation::{Deferred, Eager};
        for mode in [Eager, Deferred] {
            let s = MemorySpace::with_instrumentation(3, mode);
            let r = s.nat_register("X", ProcessId::new(1), 4);
            assert!(r.try_write(ProcessId::new(0), 1 << 40).is_err());
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.write(ProcessId::new(2), 1 << 40);
            }));
            assert!(panicked.is_err(), "{mode:?}: foreign write must panic");
            let snap = s.stats();
            assert_eq!(snap.total_writes(), 0, "{mode:?}");
            assert_eq!(snap.per_process_totals().writes, [0, 0, 0], "{mode:?}");
            assert!(snap.writer_set().is_empty(), "{mode:?}");
            assert_eq!(s.footprint().total_hwm_bits(), 3, "{mode:?}: initial only");
            assert_eq!(r.peek(), 4, "{mode:?}: value untouched");
        }
    }

    #[test]
    fn swmr_clone_shares_state() {
        let s = space();
        let owner = ProcessId::new(0);
        let a = s.swmr::<u64>("X", owner, 0);
        let b = a.clone();
        a.write(owner, 77);
        assert_eq!(b.read(owner), 77);
        assert_eq!(b.name(), "X");
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn peek_and_poke_do_not_count() {
        let s = space();
        let owner = ProcessId::new(0);
        let r = s.swmr::<u64>("X", owner, 0);
        r.poke(123);
        assert_eq!(r.peek(), 123);
        let snap = s.stats();
        assert_eq!(snap.total_reads(), 0);
        assert_eq!(snap.total_writes(), 0);
    }

    #[test]
    fn mwmr_any_writer() {
        let s = space();
        let r = s.mwmr::<u64>("M", 0);
        for pid in ProcessId::all(4) {
            r.write(pid, pid.index() as u64);
        }
        assert_eq!(r.read(ProcessId::new(0)), 3);
        assert_eq!(r.name(), "M");
    }

    #[test]
    fn debug_output_shows_value() {
        let s = space();
        let r = s.swmr::<u64>("X", ProcessId::new(0), 3);
        let dbg = format!("{r:?}");
        assert!(dbg.contains("X") && dbg.contains('3'));
        let m = s.mwmr::<u64>("M", 1);
        assert!(format!("{m:?}").contains('1'));
    }

    #[test]
    fn attributed_accesses_show_up_in_stats() {
        let s = space();
        let owner = ProcessId::new(1);
        let r = s.swmr::<u64>("X", owner, 0);
        r.write(owner, 1);
        r.read(ProcessId::new(3));
        r.read(ProcessId::new(3));
        let snap = s.stats();
        assert_eq!(snap.writes_of(owner), 1);
        assert_eq!(snap.reads_of(ProcessId::new(3)), 2);
        assert!(snap.writer_set().contains(owner));
        assert_eq!(snap.writer_set().len(), 1);
    }
}
