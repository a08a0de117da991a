//! One-writer/multi-reader and multi-writer/multi-reader atomic registers,
//! and the *banks* that store them.
//!
//! # Banks
//!
//! Registers are not allocated one at a time. A [`Bank`] is the storage of
//! one array (`PROGRESS`, `STOP`, an nWnR array) or one matrix row: `len`
//! slots whose live value cells are contiguous, whose frozen cells are
//! contiguous, and whose counters are one block holding a read tally per
//! reader (see [`crate::meta`]). A scalar register is the length-1
//! bank (stored inline, so it costs no allocation a lone register would
//! not). [`SwmrRegister`] and [`MwmrRegister`] are `(bank, slot)` views:
//! cloning one clones an `Arc`, and every view of a slot shares its cell.
//!
//! The layout is chosen for the access pattern Lemma 6 makes permanent:
//! every correct non-leader reads shared memory forever, and what it reads
//! is a *range* of one array per pass (`STOP[shard]`, `PROGRESS[shard]`, a
//! `SUSPICIONS` row). With one allocation per register such a pass chases
//! a pointer per slot — handle, cell, counter block, mask — and touches
//! on the order of a hundred scattered cache lines for 16 slots; over a
//! bank it touches the 16 adjacent value cells and the reader's one read
//! tally.
//!
//! # One read routine
//!
//! Every attributed read — a single [`SwmrRegister::read`], an array
//! range, a matrix row snapshot — is [`Bank::read_range`]; a single read
//! is the length-1 range. The routine adds the range's length to the
//! reader's tally, resolves the partition mask **once** (the reader's
//! group; per-slot owner-group compares only while a mask is installed),
//! then loads the values in slot order, in runs of slots that agree on
//! being severed — one run, outside a chaos phase. On a block-backed
//! (SAN) bank each slot is still one `read_block`, issued in slot order,
//! so device accounting cannot tell a range read from the same reads
//! issued singly.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::block::BlockDevice;
use crate::cell::{LockCell, SharedCell};
use crate::chaos::PartitionMask;
use crate::error::OwnershipError;
use crate::meta::{BankMeta, Counters, RegisterId};
use crate::value::RegisterValue;
use crate::{Instrumentation, ProcessId};

/// Where a disk-backed bank lives: which device, which block per slot.
pub(crate) struct BlockSlots {
    pub(crate) device: Arc<dyn BlockDevice>,
    pub(crate) addrs: Box<[u64]>,
}

/// Who may write each slot of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Owners {
    /// nWnR: anyone writes, no reader is ever severed.
    Shared,
    /// Every slot is owned by one process — a row of a row-owned matrix,
    /// or a scalar 1WnR register.
    Uniform(ProcessId),
    /// Slot `i` is owned by `p_i` — `PROGRESS`/`STOP`-style arrays and the
    /// rows of a column-owned matrix.
    Identity,
}

impl Owners {
    #[inline]
    pub(crate) fn of(self, slot: usize) -> Option<ProcessId> {
        match self {
            Owners::Shared => None,
            Owners::Uniform(owner) => Some(owner),
            Owners::Identity => Some(ProcessId::new(slot)),
        }
    }
}

/// Per-slot storage of a bank: inline for the length-1 bank, so a scalar
/// register pays for no allocation (and no byte) beyond what a lone
/// register needs — Ω's scalars and every `MemorySpace::swmr` caller are
/// such banks — and one boxed run per kind of cell otherwise.
enum Slots<C> {
    One {
        live: C,
        frozen: C,
        name: Arc<str>,
    },
    Many {
        live: Box<[C]>,
        frozen: Box<[C]>,
        names: Box<[Arc<str>]>,
    },
}

impl<C> Slots<C> {
    fn new<T: Clone>(initial: &[T], names: &[impl AsRef<str>]) -> Self
    where
        C: SharedCell<T>,
    {
        let cell = |value: &T| C::with_value(value.clone());
        let name = |name: &_| Arc::from(AsRef::as_ref(name));
        match (initial, names) {
            ([value], [only]) => Slots::One {
                live: cell(value),
                frozen: cell(value),
                name: name(only),
            },
            _ => Slots::Many {
                live: initial.iter().map(cell).collect(),
                frozen: initial.iter().map(cell).collect(),
                names: names.iter().map(name).collect(),
            },
        }
    }

    /// The live value cells, adjacent, in slot order.
    #[inline]
    fn live(&self) -> &[C] {
        match self {
            Slots::One { live, .. } => std::slice::from_ref(live),
            Slots::Many { live, .. } => live,
        }
    }

    /// The snapshots served to severed readers while a partition is
    /// installed; refreshed by [`BankMeta::freeze`] at each cut. A second
    /// run of typed cells (not encoded bits) because not every value type
    /// is block-encodable.
    #[inline]
    fn frozen(&self) -> &[C] {
        match self {
            Slots::One { frozen, .. } => std::slice::from_ref(frozen),
            Slots::Many { frozen, .. } => frozen,
        }
    }

    /// Names are interned (`Arc<str>`) so statistics and footprint
    /// snapshots share them instead of cloning a `String` per register per
    /// checkpoint.
    fn names(&self) -> &[Arc<str>] {
        match self {
            Slots::One { name, .. } => std::slice::from_ref(name),
            Slots::Many { names, .. } => names,
        }
    }
}

/// Storage of `len` registers created together: cells + metadata +
/// counters (module docs).
///
/// When `block` is bound (disk-backed spaces) the device serves the
/// authoritative values and the live cells are unused; everything else —
/// ownership, attribution, footprint accounting — is identical, which is
/// what makes SAN outcomes directly comparable to in-memory ones.
pub(crate) struct Bank<T, C> {
    slots: Slots<C>,
    /// Boxed: one word on the in-memory banks that never bind one.
    block: Option<Box<BlockSlots>>,
    mask: Arc<PartitionMask>,
    /// Slot `i` is register `first_id + i` of its space.
    first_id: usize,
    owners: Owners,
    counters: Counters,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// The construction-time facts of a bank that do not depend on its value
/// type; only `MemorySpace` builds one.
pub(crate) struct BankSpec {
    pub(crate) first_id: usize,
    pub(crate) owners: Owners,
    pub(crate) n_processes: usize,
    pub(crate) mode: Instrumentation,
    pub(crate) block: Option<BlockSlots>,
    pub(crate) mask: Arc<PartitionMask>,
}

impl<T: RegisterValue, C: SharedCell<T>> Bank<T, C> {
    /// A bank of `initial.len()` registers, slot `i` named `names[i]` and
    /// holding `initial[i]`.
    pub(crate) fn new(spec: BankSpec, names: &[impl AsRef<str>], initial: &[T]) -> Arc<Self> {
        let len = initial.len();
        assert_eq!(names.len(), len, "one name per slot");
        let owned = spec.owners != Owners::Shared;
        let counters = Counters::new(len, spec.n_processes, owned, spec.mode);
        for (slot, value) in initial.iter().enumerate() {
            counters.note_initial(slot, value.footprint_bits());
            if let Some(block) = &spec.block {
                // Fresh blocks read as zero; only a non-zero initial value
                // needs seeding, and seeding is harness-side (no latency,
                // no counts).
                let encoded = value.to_block();
                if encoded != 0 {
                    block.device.poke_block(block.addrs[slot], encoded);
                }
            }
        }
        Arc::new(Bank {
            slots: Slots::new(initial, names),
            block: spec.block.map(Box::new),
            mask: spec.mask,
            first_id: spec.first_id,
            owners: spec.owners,
            counters,
            _marker: std::marker::PhantomData,
        })
    }

    /// The one attributed read path: counts one read of every slot in
    /// `slots` for `reader`, then hands each slot's value to `sink` in
    /// slot order — the frozen value where the installed partition severs
    /// `reader` from the slot's owner (a severed read still counts: the
    /// process performed it), the live one otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `slots` leaves the bank or `reader` is not a process of
    /// the system.
    #[inline]
    pub(crate) fn read_range(
        &self,
        reader: ProcessId,
        slots: Range<usize>,
        mut sink: impl FnMut(T),
    ) {
        self.counters.note_reads(reader, slots.clone());
        let Some(view) = self.mask.view_of(reader) else {
            // No mask, or none that concerns this reader: one live run.
            return self.read_run(slots, false, &mut sink);
        };
        let severed = |slot| match self.owners {
            Owners::Shared => false,
            Owners::Uniform(owner) => view.severs(owner.index()),
            Owners::Identity => view.severs(slot),
        };
        // Serve the range in runs of slots that agree on being severed —
        // one run when the bank has one owner, and rarely more than two
        // otherwise (groups are mostly contiguous) — so that each run is a
        // loop over adjacent cells and nothing else.
        let mut run = slots.start;
        while run < slots.end {
            let cut = severed(run);
            let end = (run + 1..slots.end)
                .find(|&slot| severed(slot) != cut)
                .unwrap_or(slots.end);
            self.read_run(run..end, cut, &mut sink);
            run = end;
        }
    }

    /// Hands `sink` the values of `run`, every slot of which is severed
    /// from the reader (`cut`: the frozen cells) or none is (the device's
    /// blocks, one `read_block` each, or the live cells).
    #[inline]
    fn read_run(&self, run: Range<usize>, cut: bool, sink: &mut impl FnMut(T)) {
        if cut {
            (self.slots.frozen()[run].iter()).for_each(|cell| sink(cell.load()));
        } else if let Some(block) = &self.block {
            (block.addrs[run].iter())
                .for_each(|&addr| sink(T::from_block(block.device.read_block(addr))));
        } else {
            (self.slots.live()[run].iter()).for_each(|cell| sink(cell.load()));
        }
    }

    /// [`read_range`](Self::read_range) into a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != slots.len()`, besides the above.
    #[inline]
    pub(crate) fn read_range_into(&self, reader: ProcessId, slots: Range<usize>, out: &mut [T]) {
        assert_eq!(out.len(), slots.len(), "buffer must hold the range");
        let mut out = out.iter_mut();
        self.read_range(reader, slots, |value| {
            *out.next().expect("one value per slot of the range") = value;
        });
    }

    #[inline]
    fn read(&self, reader: ProcessId, slot: usize) -> T {
        let mut read = None;
        self.read_range(reader, slot..slot + 1, |value| read = Some(value));
        read.expect("a one-slot range yields one value")
    }

    fn write_unchecked(&self, slot: usize, writer: ProcessId, value: T) {
        let bits = value.footprint_bits();
        match &self.block {
            Some(block) => block
                .device
                .write_block(block.addrs[slot], value.to_block()),
            None => self.slots.live()[slot].store(value),
        }
        self.counters.note_write(slot, writer, bits);
    }

    fn peek(&self, slot: usize) -> T {
        match &self.block {
            Some(block) => T::from_block(block.device.peek_block(block.addrs[slot])),
            None => self.slots.live()[slot].load(),
        }
    }

    /// Replaces the stored value without attributing the write to any
    /// process or updating high-water marks. Used by test harnesses to model
    /// arbitrary initial register contents (the paper's footnote 7).
    fn poke(&self, slot: usize, value: T) {
        match &self.block {
            Some(block) => block.device.poke_block(block.addrs[slot], value.to_block()),
            None => self.slots.live()[slot].store(value),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> BankMeta for Bank<T, C> {
    fn name(&self, slot: usize) -> &Arc<str> {
        &self.slots.names()[slot]
    }

    fn owner(&self, slot: usize) -> Option<ProcessId> {
        self.owners.of(slot)
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn current_bits(&self, slot: usize) -> u64 {
        self.peek(slot).footprint_bits()
    }

    fn freeze(&self) {
        for (slot, frozen) in self.slots.frozen().iter().enumerate() {
            frozen.store(self.peek(slot));
        }
    }
}

/// A one-writer/multi-reader (1WnR) atomic register.
///
/// This is the communication primitive of the paper's model `AS_n[∅]`: a
/// single *owner* process may write it, every process may read it, and each
/// operation is linearizable. A handle is a `(bank, slot)` view (module
/// docs): cheap to clone, and every clone shares the same underlying cell.
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
    bank: Arc<Bank<T, C>>,
    slot: usize,
}

impl<T: RegisterValue, C: SharedCell<T>> SwmrRegister<T, C> {
    pub(crate) fn view(bank: &Arc<Bank<T, C>>, slot: usize) -> Self {
        debug_assert!(slot < bank.counters.len(), "slot within the bank");
        debug_assert!(
            bank.owners != Owners::Shared,
            "1WnR register requires an owner"
        );
        SwmrRegister {
            bank: Arc::clone(bank),
            slot,
        }
    }

    /// The only process allowed to write this register.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        (self.bank.owners.of(self.slot)).expect("SWMR register always has an owner")
    }

    /// Name of the register within its memory space (e.g. `STOP\[2\]`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.bank.slots.names()[self.slot]
    }

    /// Identity of the register within its memory space.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        RegisterId(self.bank.first_id + self.slot)
    }

    /// Atomically reads the register on behalf of `reader`.
    pub fn read(&self, reader: ProcessId) -> T {
        self.bank.read(reader, self.slot)
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
            return Err(OwnershipError::new(self.name().to_string(), owner, writer));
        }
        self.bank.write_unchecked(self.slot, writer, value);
        Ok(())
    }

    /// Reads the register without attributing the access to any process.
    ///
    /// Harness- and metrics-side inspection must use `peek` so that it does
    /// not pollute the per-process read counters that experiments E4/E10
    /// rely on.
    #[must_use]
    pub fn peek(&self) -> T {
        self.bank.peek(self.slot)
    }

    /// Overwrites the register without attribution or footprint tracking.
    ///
    /// Models the paper's "initial values can be arbitrary" footnote: test
    /// harnesses use this to corrupt state before a run to exercise
    /// self-stabilization. Not for algorithm use.
    pub fn poke(&self, value: T) {
        self.bank.poke(self.slot, value);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for SwmrRegister<T, C> {
    fn clone(&self) -> Self {
        SwmrRegister::view(&self.bank, self.slot)
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for SwmrRegister<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrRegister")
            .field("name", &self.name())
            .field("owner", &self.owner())
            .field("value", &self.bank.peek(self.slot))
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
    bank: Arc<Bank<T, C>>,
    slot: usize,
}

impl<T: RegisterValue, C: SharedCell<T>> MwmrRegister<T, C> {
    pub(crate) fn view(bank: &Arc<Bank<T, C>>, slot: usize) -> Self {
        debug_assert!(slot < bank.counters.len(), "slot within the bank");
        MwmrRegister {
            bank: Arc::clone(bank),
            slot,
        }
    }

    /// Name of the register within its memory space.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.bank.slots.names()[self.slot]
    }

    /// Identity of the register within its memory space.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        RegisterId(self.bank.first_id + self.slot)
    }

    /// Atomically reads the register on behalf of `reader`.
    pub fn read(&self, reader: ProcessId) -> T {
        self.bank.read(reader, self.slot)
    }

    /// Atomically writes `value` on behalf of `writer`.
    pub fn write(&self, writer: ProcessId, value: T) {
        self.bank.write_unchecked(self.slot, writer, value);
    }

    /// Unattributed read for harness-side inspection.
    #[must_use]
    pub fn peek(&self) -> T {
        self.bank.peek(self.slot)
    }

    /// Unattributed overwrite for state-corruption harnesses.
    pub fn poke(&self, value: T) {
        self.bank.poke(self.slot, value);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for MwmrRegister<T, C> {
    fn clone(&self) -> Self {
        MwmrRegister::view(&self.bank, self.slot)
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for MwmrRegister<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwmrRegister")
            .field("name", &self.name())
            .field("value", &self.bank.peek(self.slot))
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
