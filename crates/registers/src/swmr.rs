//! One-writer/multi-reader and multi-writer/multi-reader atomic registers,
//! and the *banks* that store them.
//!
//! # Banks
//!
//! Registers are not allocated one at a time. A [`Bank`] is the storage of
//! one array (`PROGRESS`, `STOP`, an nWnR array) or one matrix row: `len`
//! slots whose live value cells are contiguous, whose names are one
//! [`BankNames`] block, and whose counters are one block holding a read
//! tally per reader (see [`crate::meta`]). A scalar register is the
//! length-1 bank. A bank of `len` registers is four allocations — live
//! cells, names, counters and the bank itself — whatever `len` is.
//!
//! A register is a `(bank, slot)` pair. A scalar's [`SwmrRegister`] or
//! [`MwmrRegister`] owns a share of its one-slot bank (cloning one clones
//! an `Arc`); an array or a matrix lends its slots as [`SwmrRef`] and
//! [`MwmrRef`], a bank reference and a slot index passed by value, so it
//! keeps no handle per slot. Every view of a slot shares its cell.
//!
//! # The frozen run
//!
//! A severed reader (see [`crate::chaos`]) reads a second run of cells
//! that holds each slot's value at the cut. Most banks never live through
//! a cut — a consensus log slot is created, decided and left — so the run
//! is allocated on demand: by the first install that freezes the bank, or
//! at creation when a cut is already installed (then it holds the initial
//! values). [`MemorySpace`](crate::MemorySpace) freezes and activates a
//! cut under its registry lock, so no bank can be created between the two
//! and miss both.
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
//!
//! # Write versions
//!
//! A bank can hold an epoch table and a base entry in it (`PROGRESS`, the
//! `SUSPICIONS` rows and the §3.5 counters do; see [`crate::shard`]). The
//! bank bumps its entry itself, after the value is stored, on every write
//! and every poke, so neither a process nor a corrupting harness can move
//! a value without moving its version. A bank that keeps none pays one
//! word for the empty table reference. A block-backed bank keeps its
//! versions too, but never books a read: its device must serve every read
//! counted.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use crate::block::BlockDevice;
use crate::cell::{LockCell, SharedCell};
use crate::chaos::PartitionMask;
use crate::error::OwnershipError;
use crate::meta::{BankMeta, Counters, RegisterId};
use crate::names::BankNames;
use crate::shard::Epochs;
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

/// Storage of `len` registers created together: cells + names +
/// counters (module docs).
///
/// When `block` is bound (disk-backed spaces) the device serves the
/// authoritative values and the live cells are unused; everything else —
/// ownership, attribution, footprint accounting — is identical, which is
/// what makes SAN outcomes directly comparable to in-memory ones.
pub(crate) struct Bank<T, C> {
    /// The live value cells, adjacent, in slot order.
    live: Box<[C]>,
    /// The values served to severed readers while a partition is
    /// installed: allocated by the first [`BankMeta::freeze`] — at the
    /// first cut this bank lives through — and refreshed by every later
    /// one. A bank created while a cut is installed gets them at creation,
    /// holding its initial values. A second run of typed cells (not
    /// encoded bits) because not every value type is block-encodable.
    frozen: OnceLock<Box<[C]>>,
    names: BankNames,
    /// Boxed: one word on the in-memory banks that never bind one.
    block: Option<Box<BlockSlots>>,
    mask: Arc<PartitionMask>,
    /// The table this bank's writes are versioned in, if any, at `epoch`.
    epochs: Option<Arc<[AtomicU64]>>,
    /// Where in `epochs` slot `i` moves a version (see [`Epochs`]).
    epoch: Epochs,
    /// Slot `i` is register `first_id + i` of its space.
    first_id: u32,
    owners: Owners,
    counters: Counters,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// The construction-time facts of a bank that do not depend on its value
/// type; only `MemorySpace` builds one, under its registry lock.
pub(crate) struct BankSpec {
    pub(crate) names: BankNames,
    pub(crate) first_id: usize,
    pub(crate) owners: Owners,
    pub(crate) n_processes: usize,
    pub(crate) mode: Instrumentation,
    pub(crate) block: Option<BlockSlots>,
    pub(crate) mask: Arc<PartitionMask>,
    /// The epoch table and the bank's place in it, if it keeps one.
    pub(crate) table: Option<(Arc<[AtomicU64]>, Epochs)>,
}

impl<T: RegisterValue, C: SharedCell<T>> Bank<T, C> {
    /// A bank of one register per name of `spec`, slot `i` holding the
    /// value in `live[i]`. Called under the registry lock, which an install
    /// holds from its first freeze to the mask's activation: so either the
    /// install froze every bank before this one existed, or the mask is
    /// active now and the bank freezes its initial values itself.
    pub(crate) fn new(spec: BankSpec, live: Box<[C]>) -> Arc<Self> {
        let len = live.len();
        assert_eq!(spec.names.len(), len, "one name per slot");
        let owned = spec.owners != Owners::Shared;
        let counters = Counters::new(len, spec.n_processes, owned, spec.mode);
        for (slot, cell) in live.iter().enumerate() {
            let value = cell.load();
            counters.note_initial(slot, value.footprint_bits(), len);
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
        let frozen = OnceLock::new();
        if spec.mask.is_active() {
            let initial = live.iter().map(|cell| C::with_value(cell.load()));
            let _ = frozen.set(initial.collect());
        }
        let (epochs, epoch) = spec.table.unzip();
        Arc::new(Bank {
            live,
            frozen,
            names: spec.names,
            block: spec.block.map(Box::new),
            mask: spec.mask,
            epochs,
            epoch: epoch.unwrap_or_default(),
            first_id: u32::try_from(spec.first_id).expect("register count fits u32"),
            owners: spec.owners,
            counters,
            _marker: std::marker::PhantomData,
        })
    }

    /// Number of slots: the one place a bank keeps it.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live.len()
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
        self.counters.note_reads(reader, slots.clone(), self.len());
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
            let frozen =
                (self.frozen.get()).expect("a cut freezes every bank before it severs a read");
            (frozen[run].iter()).for_each(|cell| sink(cell.load()));
        } else if let Some(block) = &self.block {
            (block.addrs[run].iter())
                .for_each(|&addr| sink(T::from_block(block.device.read_block(addr))));
        } else {
            (self.live[run].iter()).for_each(|cell| sink(cell.load()));
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

    /// The version of `slots`, if the bank keeps a table: the sum of the
    /// entries the range overlaps.
    ///
    /// # Panics
    ///
    /// Panics if `slots` leaves the bank.
    #[inline]
    pub(crate) fn version(&self, slots: Range<usize>) -> Option<u64> {
        assert!(slots.end <= self.len(), "slots past the bank");
        (self.epochs.as_ref()).map(|table| self.epoch.version(table, slots))
    }

    /// The global version of the bank's table, if it keeps one.
    #[inline]
    pub(crate) fn global_version(&self) -> Option<u64> {
        self.epochs.as_deref().map(Epochs::global)
    }

    /// The [`version`](Self::version) a booking checks: `None` on a
    /// block-backed bank, whose device must serve every read counted.
    #[inline]
    pub(crate) fn range_version(&self, slots: Range<usize>) -> Option<u64> {
        self.version(slots).filter(|_| self.block.is_none())
    }

    /// Moves the version of `slot`, after its value was stored: a reader
    /// that sees the new version reads the new value.
    #[inline]
    fn bump(&self, slot: usize) {
        if let Some(table) = &self.epochs {
            self.epoch.bump(table, slot);
        }
    }

    /// Counts one read by `reader` of every slot of `slots` but `except`
    /// — the tallies [`read_range`](Self::read_range) would add for those
    /// slots — without loading anything.
    #[inline]
    fn book(&self, reader: ProcessId, slots: Range<usize>, except: Option<usize>) {
        match except.filter(|slot| slots.contains(slot)) {
            Some(own) => {
                self.counters
                    .note_reads(reader, slots.start..own, self.len());
                self.counters
                    .note_reads(reader, own + 1..slots.end, self.len());
            }
            None => self.counters.note_reads(reader, slots, self.len()),
        }
    }

    /// [`book`](Self::book)s the reads of `slots` (but `except`) here and
    /// in `alongside` if `*seen` is still their
    /// [`range_version`](Self::range_version): then no write or poke
    /// reached the range since the caller read it at that version, nor did
    /// a partition transition, so every booked read of this bank would
    /// return what that read returned. Otherwise counts nothing and sets
    /// `*seen` to the current version — `None` when this bank keeps no
    /// table or either bank is block-backed, whose device must serve
    /// every read counted.
    ///
    /// # Panics
    ///
    /// Panics if `slots` leaves either bank.
    #[inline]
    pub(crate) fn book_unchanged_range<U: RegisterValue, D: SharedCell<U>>(
        &self,
        reader: ProcessId,
        slots: Range<usize>,
        except: Option<usize>,
        seen: &mut Option<u64>,
        alongside: &Bank<U, D>,
    ) -> bool {
        assert!(slots.end <= alongside.len(), "slots past the bank");
        let now = (self.range_version(slots.clone())).filter(|_| alongside.block.is_none());
        if now.is_none() || now != *seen {
            *seen = now;
            return false;
        }
        self.book(reader, slots.clone(), except);
        alongside.book(reader, slots, except);
        true
    }

    fn write_unchecked(&self, slot: usize, writer: ProcessId, value: T) {
        let bits = value.footprint_bits();
        match &self.block {
            Some(block) => block
                .device
                .write_block(block.addrs[slot], value.to_block()),
            None => self.live[slot].store(value),
        }
        self.bump(slot);
        self.counters.note_write(slot, writer, bits, self.len());
    }

    fn peek(&self, slot: usize) -> T {
        match &self.block {
            Some(block) => T::from_block(block.device.peek_block(block.addrs[slot])),
            None => self.live[slot].load(),
        }
    }

    /// Replaces the stored value without attributing the write to any
    /// process or updating high-water marks. Used by test harnesses to model
    /// arbitrary initial register contents (the paper's footnote 7).
    fn poke(&self, slot: usize, value: T) {
        match &self.block {
            Some(block) => block.device.poke_block(block.addrs[slot], value.to_block()),
            None => self.live[slot].store(value),
        }
        self.bump(slot);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> BankMeta for Bank<T, C> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn names(&self) -> &BankNames {
        &self.names
    }

    fn owners(&self) -> Owners {
        self.owners
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn current_bits(&self, slot: usize) -> u64 {
        self.peek(slot).footprint_bits()
    }

    fn bump_epochs(&self) {
        if let Some(table) = &self.epochs {
            self.epoch.bump_bank(table, self.len());
        }
    }

    fn freeze(&self) {
        let now = (0..self.len()).map(|slot| self.peek(slot));
        match self.frozen.get() {
            Some(frozen) => (frozen.iter().zip(now)).for_each(|(cell, value)| cell.store(value)),
            None => {
                // Two installs racing here both snapshot the live values;
                // either run is a cut's.
                let _ = self.frozen.set(now.map(C::with_value).collect());
            }
        }
    }
}

/// A 1WnR register borrowed from its bank: slot `slot` of an array or a
/// matrix row, as [`SwmrArray::get`](crate::SwmrArray::get) and
/// [`OwnedMatrix::get`](crate::OwnedMatrix::get) hand it out — by value,
/// two words, no reference count touched. It reads, writes and counts
/// exactly like the owned [`SwmrRegister`] of the same slot.
pub struct SwmrRef<'a, T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    bank: &'a Bank<T, C>,
    slot: usize,
}

impl<'a, T: RegisterValue, C: SharedCell<T>> SwmrRef<'a, T, C> {
    /// # Panics
    ///
    /// Panics if `slot` is past the bank.
    #[inline]
    pub(crate) fn new(bank: &'a Bank<T, C>, slot: usize) -> Self {
        assert!(slot < bank.len(), "slot {slot} of a bank of {}", bank.len());
        debug_assert!(
            bank.owners != Owners::Shared,
            "1WnR register requires an owner"
        );
        SwmrRef { bank, slot }
    }

    /// See [`SwmrRegister::owner`].
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        (self.bank.owners.of(self.slot)).expect("SWMR register always has an owner")
    }

    /// See [`SwmrRegister::name`].
    #[must_use]
    pub fn name(&self) -> &'a str {
        &self.bank.names[self.slot]
    }

    /// See [`SwmrRegister::id`].
    #[must_use]
    pub fn id(&self) -> RegisterId {
        RegisterId(self.bank.first_id as usize + self.slot)
    }

    /// See [`SwmrRegister::read`].
    #[inline]
    pub fn read(&self, reader: ProcessId) -> T {
        self.bank.read(reader, self.slot)
    }

    /// See [`SwmrRegister::write`].
    ///
    /// # Panics
    ///
    /// Panics if `writer` is not the owner.
    pub fn write(&self, writer: ProcessId, value: T) {
        if let Err(e) = self.try_write(writer, value) {
            panic!("{e}");
        }
    }

    /// See [`SwmrRegister::try_write`].
    ///
    /// # Errors
    ///
    /// Returns [`OwnershipError`] if `writer` does not own the register.
    pub fn try_write(&self, writer: ProcessId, value: T) -> Result<(), OwnershipError> {
        let owner = self.owner();
        if writer != owner {
            return Err(OwnershipError::new(self.name().to_string(), owner, writer));
        }
        self.bank.write_unchecked(self.slot, writer, value);
        Ok(())
    }

    /// See [`SwmrRegister::peek`].
    #[must_use]
    pub fn peek(&self) -> T {
        self.bank.peek(self.slot)
    }

    /// See [`SwmrRegister::poke`].
    pub fn poke(&self, value: T) {
        self.bank.poke(self.slot, value);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for SwmrRef<'_, T, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Copy for SwmrRef<'_, T, C> {}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for SwmrRef<'_, T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrRegister")
            .field("name", &self.name())
            .field("owner", &self.owner())
            .field("value", &self.peek())
            .finish()
    }
}

/// A one-writer/multi-reader (1WnR) atomic register.
///
/// This is the communication primitive of the paper's model `AS_n[∅]`: a
/// single *owner* process may write it, every process may read it, and each
/// operation is linearizable. A handle owns a share of its one-slot bank:
/// cheap to clone, and every clone shares the same underlying cell.
/// (Arrays and matrices lend their slots as [`SwmrRef`]s instead.)
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
    /// A bank of one slot, owned.
    bank: Arc<Bank<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> SwmrRegister<T, C> {
    /// The register of a one-slot `bank`.
    pub(crate) fn new(bank: Arc<Bank<T, C>>) -> Self {
        debug_assert_eq!(bank.len(), 1, "a scalar is a bank of one");
        SwmrRegister { bank }
    }

    #[inline]
    fn at(&self) -> SwmrRef<'_, T, C> {
        SwmrRef::new(&self.bank, 0)
    }

    /// The only process allowed to write this register.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.at().owner()
    }

    /// Name of the register within its memory space (e.g. `STOP\[2\]`).
    #[must_use]
    pub fn name(&self) -> &str {
        self.at().name()
    }

    /// Identity of the register within its memory space.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        self.at().id()
    }

    /// Atomically reads the register on behalf of `reader`.
    #[inline]
    pub fn read(&self, reader: ProcessId) -> T {
        self.at().read(reader)
    }

    /// Atomically writes `value` on behalf of `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `writer` is not the owner — writing someone else's 1WnR
    /// register is a model violation and therefore a programming error.
    pub fn write(&self, writer: ProcessId, value: T) {
        self.at().write(writer, value);
    }

    /// Atomically writes `value` on behalf of `writer`, reporting ownership
    /// violations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`OwnershipError`] if `writer` does not own the register; the
    /// register is left unchanged.
    pub fn try_write(&self, writer: ProcessId, value: T) -> Result<(), OwnershipError> {
        self.at().try_write(writer, value)
    }

    /// Reads the register without attributing the access to any process.
    ///
    /// Harness- and metrics-side inspection must use `peek` so that it does
    /// not pollute the per-process read counters that experiments E4/E10
    /// rely on.
    #[must_use]
    pub fn peek(&self) -> T {
        self.at().peek()
    }

    /// Overwrites the register without attribution or footprint tracking.
    ///
    /// Models the paper's "initial values can be arbitrary" footnote: test
    /// harnesses use this to corrupt state before a run to exercise
    /// self-stabilization. Not for algorithm use.
    pub fn poke(&self, value: T) {
        self.at().poke(value);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for SwmrRegister<T, C> {
    fn clone(&self) -> Self {
        SwmrRegister::new(Arc::clone(&self.bank))
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for SwmrRegister<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.at().fmt(f)
    }
}

/// An nWnR register borrowed from its bank, as
/// [`MwmrArray::get`](crate::MwmrArray::get) hands it out (see
/// [`SwmrRef`]).
pub struct MwmrRef<'a, T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    bank: &'a Bank<T, C>,
    slot: usize,
}

impl<'a, T: RegisterValue, C: SharedCell<T>> MwmrRef<'a, T, C> {
    /// # Panics
    ///
    /// Panics if `slot` is past the bank.
    #[inline]
    pub(crate) fn new(bank: &'a Bank<T, C>, slot: usize) -> Self {
        assert!(slot < bank.len(), "slot {slot} of a bank of {}", bank.len());
        MwmrRef { bank, slot }
    }

    /// See [`MwmrRegister::name`].
    #[must_use]
    pub fn name(&self) -> &'a str {
        &self.bank.names[self.slot]
    }

    /// See [`MwmrRegister::id`].
    #[must_use]
    pub fn id(&self) -> RegisterId {
        RegisterId(self.bank.first_id as usize + self.slot)
    }

    /// See [`MwmrRegister::read`].
    #[inline]
    pub fn read(&self, reader: ProcessId) -> T {
        self.bank.read(reader, self.slot)
    }

    /// See [`MwmrRegister::write`].
    pub fn write(&self, writer: ProcessId, value: T) {
        self.bank.write_unchecked(self.slot, writer, value);
    }

    /// See [`MwmrRegister::peek`].
    #[must_use]
    pub fn peek(&self) -> T {
        self.bank.peek(self.slot)
    }

    /// See [`MwmrRegister::poke`].
    pub fn poke(&self, value: T) {
        self.bank.poke(self.slot, value);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for MwmrRef<'_, T, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Copy for MwmrRef<'_, T, C> {}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for MwmrRef<'_, T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwmrRegister")
            .field("name", &self.name())
            .field("value", &self.peek())
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
    /// A bank of one slot, owned.
    bank: Arc<Bank<T, C>>,
}

impl<T: RegisterValue, C: SharedCell<T>> MwmrRegister<T, C> {
    /// The register of a one-slot `bank`.
    pub(crate) fn new(bank: Arc<Bank<T, C>>) -> Self {
        debug_assert_eq!(bank.len(), 1, "a scalar is a bank of one");
        MwmrRegister { bank }
    }

    #[inline]
    fn at(&self) -> MwmrRef<'_, T, C> {
        MwmrRef::new(&self.bank, 0)
    }

    /// Name of the register within its memory space.
    #[must_use]
    pub fn name(&self) -> &str {
        self.at().name()
    }

    /// Identity of the register within its memory space.
    #[must_use]
    pub fn id(&self) -> RegisterId {
        self.at().id()
    }

    /// Atomically reads the register on behalf of `reader`.
    #[inline]
    pub fn read(&self, reader: ProcessId) -> T {
        self.at().read(reader)
    }

    /// Atomically writes `value` on behalf of `writer`.
    pub fn write(&self, writer: ProcessId, value: T) {
        self.at().write(writer, value);
    }

    /// Unattributed read for harness-side inspection.
    #[must_use]
    pub fn peek(&self) -> T {
        self.at().peek()
    }

    /// Unattributed overwrite for state-corruption harnesses.
    pub fn poke(&self, value: T) {
        self.at().poke(value);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for MwmrRegister<T, C> {
    fn clone(&self) -> Self {
        MwmrRegister::new(Arc::clone(&self.bank))
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for MwmrRegister<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.at().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    fn space() -> MemorySpace {
        MemorySpace::new(4)
    }

    /// A bank keeps its length once, in its live cells, and its counters
    /// none: 24 B of counters, 136 B an in-memory bank of naturals.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_bank_and_its_counters_keep_their_size() {
        use crate::cell::AtomicNatCell;
        assert_eq!(std::mem::size_of::<Counters>(), 24);
        assert_eq!(std::mem::size_of::<Bank<u64, AtomicNatCell>>(), 136);
    }

    /// Whether the bank behind `reg` has allocated its frozen run.
    fn frozen<T: RegisterValue, C: SharedCell<T>>(reg: SwmrRef<'_, T, C>) -> bool {
        reg.bank.frozen.get().is_some()
    }

    #[test]
    fn a_severed_reader_sees_the_value_at_the_cut_whenever_the_bank_was_made() {
        let s = MemorySpace::new(2);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let cut = || s.install_partition(&[vec![p0], vec![p1]]);
        let before = s.nat_array("BEFORE", |_| 1);
        before.get(p1).write(p1, 2);
        assert!(!frozen(before.get(p1)), "no cut yet: no frozen run");
        cut();
        assert!(frozen(before.get(p1)), "the cut froze it");
        before.get(p1).write(p1, 3);
        let during = s.nat_array("DURING", |_| 10);
        assert!(frozen(during.get(p1)), "made mid-cut: frozen at creation");
        during.get(p1).write(p1, 11);
        assert_eq!(
            before.get(p1).read(p0),
            2,
            "made before: the value at the cut"
        );
        assert_eq!(
            during.get(p1).read(p0),
            10,
            "made mid-cut: its initial value"
        );
        s.heal_partition();
        let after = s.nat_array("AFTER", |_| 20);
        assert!(!frozen(after.get(p1)), "made after the heal: none yet");
        after.get(p1).write(p1, 21);
        assert_eq!(after.get(p1).read(p0), 21, "healed: live");
        cut();
        after.get(p1).write(p1, 22);
        assert_eq!(
            after.get(p1).read(p0),
            21,
            "made after: the value at the next cut"
        );
        assert_eq!(
            before.get(p1).read(p0),
            3,
            "every bank re-frozen at the next cut"
        );
        assert_eq!(during.get(p1).read(p0), 11);
        assert_eq!(
            after.get(p1).read(p1),
            22,
            "the owner reads live throughout"
        );
    }

    #[test]
    fn a_space_that_never_cuts_allocates_no_frozen_run() {
        let s = space();
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let scalar = s.nat_register("X", p1, 0);
        let array = s.flag_array("STOP", |_| true);
        let matrix = s.nat_row_matrix("SUSPICIONS", |_, _| 0);
        let shared = s.nat_mwmr_array("S", 3, |_| 0);
        scalar.write(p1, 4);
        array.get(p1).write(p1, false);
        matrix.get(p1, p0).write(p1, 7);
        shared.get(2).write(p0, 9);
        let _ = (
            scalar.read(p0),
            array.get(p1).read(p0),
            shared.get(2).read(p1),
        );
        matrix.read_row_into(p1, p0, &mut [0; 4]);
        let _ = (s.stats(), s.footprint());
        s.heal_partition();
        assert!(!frozen(scalar.at()));
        assert!((array.iter()).all(|(_, reg)| !frozen(reg)));
        assert!((matrix.iter()).all(|(_, _, reg)| !frozen(reg)));
        assert!((shared.iter()).all(|reg| reg.bank.frozen.get().is_none()));
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
