//! The shared memory space: register factory, registry, and reporting root.

use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::sync::RwLock;

use crate::array::{MwmrArray, SwmrArray};
use crate::block::{BlockDevice, BlockMap};
use crate::cell::{AtomicFlagCell, AtomicNatCell, LockCell, SharedCell};
use crate::chaos::PartitionMask;
use crate::checkpoint::Overwritten;
use crate::footprint::FootprintReport;
use crate::matrix::OwnedMatrix;
use crate::meta::{BankMeta, Instrumentation};
use crate::names::BankNames;
use crate::shard::{Epochs, ScanCounters};
use crate::stats::{SnapshotLayout, StatsSnapshot};
use crate::swmr::{Bank, BankSpec, BlockSlots, MwmrRegister, Owners, SwmrRegister};
use crate::value::RegisterValue;
use crate::ProcessId;

/// 1WnR natural-number register backed by a lock-free `AtomicU64`.
pub type NatRegister = SwmrRegister<u64, AtomicNatCell>;
/// 1WnR boolean register backed by a lock-free `AtomicBool`.
pub type FlagRegister = SwmrRegister<bool, AtomicFlagCell>;
/// Array of lock-free natural-number registers, slot `i` owned by `p_i`.
pub type NatArray = SwmrArray<u64, AtomicNatCell>;
/// Array of lock-free boolean registers, slot `i` owned by `p_i`.
pub type FlagArray = SwmrArray<bool, AtomicFlagCell>;
/// Matrix of lock-free natural-number registers.
pub type NatMatrix = OwnedMatrix<u64, AtomicNatCell>;
/// Matrix of lock-free boolean registers.
pub type FlagMatrix = OwnedMatrix<bool, AtomicFlagCell>;
/// nWnR array of lock-free natural-number registers.
pub type MwmrNatArray = MwmrArray<u64, AtomicNatCell>;

/// Slots per `PROGRESS` version entry: the default `T3` shard width, so
/// one default shard is one entry.
const SHARD_GRAIN: usize = 16;

/// Every bank created so far, in creation order — which is register order
/// too: a bank's slots are consecutive registers.
#[derive(Default)]
struct Registry {
    banks: Vec<Arc<dyn BankMeta>>,
    /// Registers in `banks` (the next bank's first [`RegisterId`](crate::RegisterId)).
    registers: usize,
    /// Positions in `banks` of the owned banks that keep an epoch table:
    /// the banks a cut can sever, whose versions a partition transition
    /// must move.
    epoched: Vec<usize>,
    /// Where an array's names are written before they are copied into the
    /// one allocation that keeps them.
    scratch: String,
}

/// How the registers of a new bank are named.
#[derive(Clone, Copy)]
enum Naming<'a> {
    /// One register, named this.
    Scalar(&'a str),
    /// `len` registers named `prefix[0]` … `prefix[len − 1]`.
    Indexed(&'a str, usize),
}

struct SpaceInner {
    n_processes: usize,
    mode: Instrumentation,
    registry: RwLock<Registry>,
    /// Each bank's names and owners, shared by every snapshot and
    /// footprint report; rebuilt (append-only) when registers were created
    /// since the last one.
    layout: RwLock<Arc<SnapshotLayout>>,
    scan: Arc<ScanCounters>,
    /// When set, registers live on disk blocks of this device instead of
    /// local cells, laid out by `block_map`.
    backing: Option<Arc<dyn BlockDevice>>,
    block_map: Arc<BlockMap>,
    /// The chaos-campaign partition mask shared by every bank.
    chaos: Arc<PartitionMask>,
}

/// A shared memory made of atomic registers, with built-in instrumentation.
///
/// All registers of one algorithm instance are created through a single
/// `MemorySpace`, which assigns them stable identities and names and keeps
/// the per-process access counters and footprint high-water marks that the
/// experiment harness queries through [`stats`](MemorySpace::stats) and
/// [`footprint`](MemorySpace::footprint).
///
/// Handles are cheap to clone; every clone views the same memory.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// let progress = space.nat_array("PROGRESS", |_| 0);
/// let p0 = ProcessId::new(0);
/// progress.get(p0).write(p0, 1);
///
/// let stats = space.stats();
/// assert_eq!(stats.total_writes(), 1);
/// assert_eq!(stats.writer_set().len(), 1);
/// ```
#[derive(Clone)]
pub struct MemorySpace {
    inner: Arc<SpaceInner>,
}

impl MemorySpace {
    /// Creates an empty memory space for a system of `n_processes`, with
    /// eager (always-atomic) instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if `n_processes == 0`.
    #[must_use]
    pub fn new(n_processes: usize) -> Self {
        MemorySpace::with_instrumentation(n_processes, Instrumentation::Eager)
    }

    /// Creates an empty memory space with an explicit [`Instrumentation`]
    /// mode. [`Instrumentation::Deferred`] is for single-threaded drivers
    /// (the simulator): counters are bumped with unsynchronized
    /// load/add/store instead of atomic read-modify-writes — see the mode's
    /// documentation for the exact contract.
    ///
    /// # Panics
    ///
    /// Panics if `n_processes == 0`.
    #[must_use]
    pub fn with_instrumentation(n_processes: usize, mode: Instrumentation) -> Self {
        MemorySpace::build(n_processes, mode, None)
    }

    /// Creates a memory space whose registers live on blocks of `device`
    /// (one block per register, assigned in creation order by the space's
    /// [`BlockMap`]) — the SAN deployment of the paper's Section 1. Uses
    /// eager instrumentation, since disk-backed spaces serve concurrent
    /// machines.
    ///
    /// Only block-encodable value types (`u64`-family integers and `bool`,
    /// i.e. everything the election algorithms use) may be created in such
    /// a space; others panic at creation.
    ///
    /// # Panics
    ///
    /// Panics if `n_processes == 0`.
    #[must_use]
    pub fn with_block_device(n_processes: usize, device: Arc<dyn BlockDevice>) -> Self {
        MemorySpace::build(n_processes, Instrumentation::Eager, Some(device))
    }

    fn build(
        n_processes: usize,
        mode: Instrumentation,
        backing: Option<Arc<dyn BlockDevice>>,
    ) -> Self {
        assert!(n_processes > 0, "a system needs at least one process");
        MemorySpace {
            inner: Arc::new(SpaceInner {
                n_processes,
                mode,
                registry: RwLock::new(Registry::default()),
                layout: RwLock::new(Arc::new(SnapshotLayout::default())),
                scan: Arc::new(ScanCounters::new(mode)),
                backing,
                block_map: Arc::new(BlockMap::new()),
                chaos: Arc::new(PartitionMask::new(n_processes)),
            }),
        }
    }

    /// The block layout of a disk-backed space (`None` for in-memory
    /// spaces) — which register occupies which block of the device.
    #[must_use]
    pub fn block_map(&self) -> Option<Arc<BlockMap>> {
        self.inner
            .backing
            .as_ref()
            .map(|_| Arc::clone(&self.inner.block_map))
    }

    /// Binds the next blocks, one per name in order, on the backing
    /// device, if this space is disk-backed.
    ///
    /// # Panics
    ///
    /// Panics if the space is disk-backed and `T` cannot be block-encoded:
    /// silently keeping such a register in memory would corrupt the disk
    /// accounting the SAN experiments measure.
    fn bind_blocks<T: RegisterValue>(
        &self,
        names: &BankNames,
        owners: Owners,
    ) -> Option<BlockSlots> {
        let device = self.inner.backing.as_ref()?;
        assert!(
            T::BLOCK_ENCODABLE,
            "register {}: value type {} cannot live on a disk block",
            names.iter().next().unwrap_or(""),
            std::any::type_name::<T>()
        );
        let bind = |(slot, name)| (self.inner.block_map).bind(name, owners.of(slot));
        Some(BlockSlots {
            device: Arc::clone(device),
            addrs: names.iter().enumerate().map(bind).collect(),
        })
    }

    /// Creates and registers the bank named per `naming`, slot `i` holding
    /// `init(i)` and owned per `owners`: four allocations (see
    /// [`crate::swmr`]), versioned at the given place of `table`, if one
    /// is given.
    fn bank<T, C>(
        &self,
        naming: Naming<'_>,
        owners: Owners,
        table: Option<(Arc<[AtomicU64]>, Epochs)>,
        init: impl FnMut(usize) -> T,
    ) -> Arc<Bank<T, C>>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        let n = self.inner.n_processes;
        let len = match naming {
            Naming::Scalar(_) => 1,
            Naming::Indexed(_, len) => len,
        };
        // The caller's code runs before the lock is taken: an initializer
        // that creates registers of its own must not deadlock.
        let live: Box<[C]> = (0..len).map(init).map(C::with_value).collect();
        let severable = table.is_some() && owners != Owners::Shared;
        // Under the registry lock from id to push, so that ids are registry
        // positions whatever other threads create meanwhile, and so that no
        // cut is frozen and activated in between (see `Bank::new`).
        let mut registry = self.inner.registry.write();
        let names = match naming {
            Naming::Scalar(name) => BankNames::scalar(name),
            Naming::Indexed(prefix, len) => BankNames::indexed(prefix, len, &mut registry.scratch),
        };
        match owners {
            Owners::Shared => {}
            Owners::Uniform(owner) => {
                assert!(owner.index() < n, "owner {owner} out of range for n={n}")
            }
            Owners::Identity => assert!(names.len() <= n, "a slot per process, at most"),
        }
        let bank = Bank::<T, C>::new(
            BankSpec {
                first_id: registry.registers,
                owners,
                n_processes: n,
                mode: self.inner.mode,
                block: self.bind_blocks::<T>(&names, owners),
                mask: Arc::clone(&self.inner.chaos),
                names,
                table,
            },
            live,
        );
        registry.registers += len;
        if severable {
            let position = registry.banks.len();
            registry.epoched.push(position);
        }
        registry.banks.push(bank.clone());
        bank
    }

    /// Number of processes `n` of the system this memory serves.
    #[must_use]
    pub fn n_processes(&self) -> usize {
        self.inner.n_processes
    }

    /// The instrumentation mode this space's registers count with.
    #[must_use]
    pub fn instrumentation(&self) -> Instrumentation {
        self.inner.mode
    }

    /// Number of registers created so far.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.inner.registry.read().registers
    }

    /// Creates a 1WnR register with an explicit storage cell type.
    pub fn swmr_cell<T, C>(&self, name: &str, owner: ProcessId, initial: T) -> SwmrRegister<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        let bank = self.bank(Naming::Scalar(name), Owners::Uniform(owner), None, |_| {
            initial.clone()
        });
        SwmrRegister::new(bank)
    }

    /// Creates a 1WnR register owned by `owner` (lock-backed storage).
    pub fn swmr<T: RegisterValue>(
        &self,
        name: &str,
        owner: ProcessId,
        initial: T,
    ) -> SwmrRegister<T> {
        self.swmr_cell::<T, LockCell<T>>(name, owner, initial)
    }

    /// Creates an nWnR register with an explicit storage cell type.
    pub fn mwmr_cell<T, C>(&self, name: &str, initial: T) -> MwmrRegister<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        let bank = self.bank(Naming::Scalar(name), Owners::Shared, None, |_| {
            initial.clone()
        });
        MwmrRegister::new(bank)
    }

    /// Creates an nWnR register (lock-backed storage).
    pub fn mwmr<T: RegisterValue>(&self, name: &str, initial: T) -> MwmrRegister<T> {
        self.mwmr_cell::<T, LockCell<T>>(name, initial)
    }

    /// Creates an array `NAME[0..n]` of 1WnR registers, slot `i` owned by
    /// `p_i` and initialized to `init(p_i)` — one bank.
    pub fn swmr_array_cell<T, C>(
        &self,
        name: &str,
        mut init: impl FnMut(ProcessId) -> T,
    ) -> SwmrArray<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        let naming = Naming::Indexed(name, self.inner.n_processes);
        SwmrArray::over(self.bank(naming, Owners::Identity, None, |i| init(ProcessId::new(i))))
    }

    /// Lock-backed convenience form of [`swmr_array_cell`](Self::swmr_array_cell).
    pub fn swmr_array<T: RegisterValue>(
        &self,
        name: &str,
        init: impl FnMut(ProcessId) -> T,
    ) -> SwmrArray<T> {
        self.swmr_array_cell::<T, LockCell<T>>(name, init)
    }

    /// Creates an nWnR array `NAME[0..len]` initialized to `init(i)` —
    /// one bank.
    pub fn mwmr_array_cell<T, C>(
        &self,
        name: &str,
        len: usize,
        init: impl FnMut(usize) -> T,
    ) -> MwmrArray<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        MwmrArray::over(self.bank(Naming::Indexed(name, len), Owners::Shared, None, init))
    }

    /// Lock-backed convenience form of [`mwmr_array_cell`](Self::mwmr_array_cell).
    pub fn mwmr_array<T: RegisterValue>(
        &self,
        name: &str,
        len: usize,
        init: impl FnMut(usize) -> T,
    ) -> MwmrArray<T> {
        self.mwmr_array_cell::<T, LockCell<T>>(name, len, init)
    }

    /// Creates the `n × n` matrix `NAME[r][c]`, one bank per row, row `r`
    /// owned per `owners(r)` and versioned at entry `r` of `table`, if one
    /// is given.
    fn matrix_cell<T, C>(
        &self,
        name: &str,
        owners: impl Fn(usize) -> Owners,
        table: Option<&Arc<[AtomicU64]>>,
        mut init: impl FnMut(usize, usize) -> T,
    ) -> OwnedMatrix<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        let n = self.inner.n_processes;
        let mut rows = Vec::with_capacity(n);
        // One buffer for every row's prefix, not an allocation per row.
        let mut prefix = String::new();
        for r in 0..n {
            prefix.clear();
            write!(prefix, "{name}[{r}]").expect("writing to a String");
            let grain = n.next_power_of_two();
            let table =
                table.map(|table| (Arc::clone(table), Epochs::new(r, grain, self.inner.mode)));
            let naming = Naming::Indexed(&prefix, n);
            rows.push(SwmrArray::over(
                self.bank(naming, owners(r), table, |c| init(r, c)),
            ));
        }
        OwnedMatrix::from_rows(rows)
    }

    /// Creates an `n × n` matrix `NAME[r][c]` where entry `[r][c]` is owned
    /// by the **row** process `p_r` (the `SUSPICIONS` layout).
    pub fn row_matrix_cell<T, C>(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> T,
    ) -> OwnedMatrix<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        self.matrix_cell(name, |r| Owners::Uniform(ProcessId::new(r)), None, init)
    }

    /// Lock-backed convenience form of [`row_matrix_cell`](Self::row_matrix_cell).
    pub fn row_matrix<T: RegisterValue>(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> T,
    ) -> OwnedMatrix<T> {
        self.row_matrix_cell::<T, LockCell<T>>(name, init)
    }

    /// Creates an `n × n` matrix `NAME[r][c]` where entry `[r][c]` is owned
    /// by the **column** process `p_c` (the `LAST` handshake layout of
    /// Figure 5, written by the reader side).
    pub fn column_matrix_cell<T, C>(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> T,
    ) -> OwnedMatrix<T, C>
    where
        T: RegisterValue,
        C: SharedCell<T>,
    {
        self.matrix_cell(name, |_| Owners::Identity, None, init)
    }

    /// Lock-backed convenience form of [`column_matrix_cell`](Self::column_matrix_cell).
    pub fn column_matrix<T: RegisterValue>(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> T,
    ) -> OwnedMatrix<T> {
        self.column_matrix_cell::<T, LockCell<T>>(name, init)
    }

    // ------------------------------------------------------------------
    // Lock-free convenience constructors for the layouts the algorithms use.
    // ------------------------------------------------------------------

    /// Lock-free `u64` 1WnR register.
    pub fn nat_register(&self, name: &str, owner: ProcessId, initial: u64) -> NatRegister {
        self.swmr_cell::<u64, AtomicNatCell>(name, owner, initial)
    }

    /// Lock-free `bool` 1WnR register.
    pub fn flag_register(&self, name: &str, owner: ProcessId, initial: bool) -> FlagRegister {
        self.swmr_cell::<bool, AtomicFlagCell>(name, owner, initial)
    }

    /// Lock-free `u64` array, slot `i` owned by `p_i` (`PROGRESS` layout).
    pub fn nat_array(&self, name: &str, init: impl FnMut(ProcessId) -> u64) -> NatArray {
        self.swmr_array_cell::<u64, AtomicNatCell>(name, init)
    }

    /// Lock-free `bool` array, slot `i` owned by `p_i` (`STOP` layout).
    pub fn flag_array(&self, name: &str, init: impl FnMut(ProcessId) -> bool) -> FlagArray {
        self.swmr_array_cell::<bool, AtomicFlagCell>(name, init)
    }

    /// Lock-free `u64` array, slot `i` owned by `p_i`, whose bank keeps
    /// an epoch table of one entry per 16 slots (the `PROGRESS` layout of
    /// the `T3` memo): every write and poke moves
    /// [`range_version`](SwmrArray::range_version), which is `None` on a
    /// disk-backed space all the same.
    pub fn epoched_nat_array(
        &self,
        name: &str,
        mut init: impl FnMut(ProcessId) -> u64,
    ) -> NatArray {
        let n = self.inner.n_processes;
        let table = Epochs::table(n.div_ceil(SHARD_GRAIN));
        let at = Epochs::new(0, SHARD_GRAIN, self.inner.mode);
        let naming = Naming::Indexed(name, n);
        SwmrArray::over(self.bank(naming, Owners::Identity, Some((table, at)), |i| {
            init(ProcessId::new(i))
        }))
    }

    /// Lock-free `u64` row-owned matrix (`SUSPICIONS` layout).
    pub fn nat_row_matrix(&self, name: &str, init: impl FnMut(usize, usize) -> u64) -> NatMatrix {
        self.row_matrix_cell::<u64, AtomicNatCell>(name, init)
    }

    /// Lock-free `bool` row-owned matrix (Figure 5 `PROGRESS` layout).
    pub fn flag_row_matrix(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> bool,
    ) -> FlagMatrix {
        self.row_matrix_cell::<bool, AtomicFlagCell>(name, init)
    }

    /// Lock-free `bool` column-owned matrix (Figure 5 `LAST` layout).
    pub fn flag_column_matrix(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> bool,
    ) -> FlagMatrix {
        self.column_matrix_cell::<bool, AtomicFlagCell>(name, init)
    }

    /// Lock-free `u64` nWnR array (§3.5 collapsed `SUSPICIONS` layout).
    pub fn nat_mwmr_array(
        &self,
        name: &str,
        len: usize,
        init: impl FnMut(usize) -> u64,
    ) -> MwmrNatArray {
        self.mwmr_array_cell::<u64, AtomicNatCell>(name, len, init)
    }

    /// Lock-free `u64` row-owned matrix whose rows share one epoch table,
    /// an entry per row (the `SUSPICIONS` layout of the `leader()` cache):
    /// every write and poke of a row moves its
    /// [`row_version`](OwnedMatrix::row_version) and the matrix-global
    /// [`version`](OwnedMatrix::version).
    pub fn epoched_nat_row_matrix(
        &self,
        name: &str,
        init: impl FnMut(usize, usize) -> u64,
    ) -> NatMatrix {
        let n = self.inner.n_processes;
        let table = Epochs::table(n);
        let owners = |r| Owners::Uniform(ProcessId::new(r));
        self.matrix_cell(name, owners, Some(&table), init)
    }

    /// Lock-free `u64` nWnR array whose bank keeps an epoch table of one
    /// entry per slot (the §3.5 suspicion counters): every write and poke
    /// moves its [`slot_version`](MwmrArray::slot_version) and the
    /// array-global [`version`](MwmrArray::version).
    pub fn epoched_nat_mwmr_array(
        &self,
        name: &str,
        len: usize,
        init: impl FnMut(usize) -> u64,
    ) -> MwmrNatArray {
        let table = (Epochs::table(len), Epochs::new(0, 1, self.inner.mode));
        MwmrArray::over(self.bank(
            Naming::Indexed(name, len),
            Owners::Shared,
            Some(table),
            init,
        ))
    }

    /// The space-wide scan-saving counters, for every reader of the
    /// versions of this space's banks.
    #[must_use]
    pub fn scan_counters(&self) -> Arc<ScanCounters> {
        Arc::clone(&self.inner.scan)
    }

    // ------------------------------------------------------------------
    // Chaos campaigns.
    // ------------------------------------------------------------------

    /// Installs a register-space partition: processes in different `groups`
    /// stop seeing each other's 1WnR rows and instead read the value each
    /// register held at the cut (its *frozen* snapshot). Processes absent
    /// from every group — including ids beyond the table, such as
    /// harness-side actors — stay connected to everyone. Ownerless nWnR
    /// registers are never severed. Writes always land (an owner reaches
    /// its own row), so the live state keeps advancing invisibly until
    /// [`heal_partition`](Self::heal_partition) reveals it.
    ///
    /// Installing over an active partition re-freezes every register and
    /// replaces the group table; only one partition is active at a time.
    ///
    /// # Panics
    ///
    /// Panics if a process id is out of range or appears in two groups.
    pub fn install_partition(&self, groups: &[Vec<ProcessId>]) {
        let n = self.inner.n_processes;
        let mut table = vec![-1_i32; n];
        for (g, members) in groups.iter().enumerate() {
            for &pid in members {
                assert!(
                    pid.index() < n,
                    "partition member {pid} out of range for n={n}"
                );
                assert_eq!(
                    table[pid.index()],
                    -1,
                    "process {pid} appears in two partition groups"
                );
                table[pid.index()] = i32::try_from(g).expect("group count fits i32");
            }
        }
        self.freeze_and_activate(|mask| mask.install(&table));
    }

    /// Installs a **directed** cut: processes in `blinded` read the 1WnR
    /// rows of processes in `hidden` frozen at the cut, while `hidden`
    /// (and everyone else) keeps reading live values in every direction.
    /// This is the asymmetric-fabric analogue of
    /// [`install_partition`](Self::install_partition): one side's inbound
    /// visibility fails while its own rows stay observable, the regime in
    /// which the López–Rajsbaum–Raynal weak-connectivity results decide
    /// whether election is still possible.
    ///
    /// Installing over an active partition or cut re-freezes every
    /// register and replaces the mask; only one mask is active at a time.
    /// [`heal_partition`](Self::heal_partition) clears cuts and
    /// partitions alike.
    ///
    /// # Panics
    ///
    /// Panics if a process id is out of range or appears on both sides.
    pub fn install_cut(&self, blinded: &[ProcessId], hidden: &[ProcessId]) {
        let n = self.inner.n_processes;
        let mut table = vec![-1_i32; n];
        for (side, members) in [
            (crate::chaos::CUT_BLINDED, blinded),
            (crate::chaos::CUT_HIDDEN, hidden),
        ] {
            for &pid in members {
                assert!(pid.index() < n, "cut member {pid} out of range for n={n}");
                assert_eq!(
                    table[pid.index()],
                    -1,
                    "process {pid} appears on both sides of the cut"
                );
                table[pid.index()] = side;
            }
        }
        self.freeze_and_activate(|mask| mask.install_directed(&table));
    }

    /// Freezes every bank, then activates the mask. Freezing first means
    /// severed readers observe a snapshot no older than the cut; holding
    /// the registry lock across both means no bank is created in between,
    /// so every bank a read can find severed has its frozen run — one
    /// created before was frozen here, one created after sees the mask
    /// active and freezes its initial values itself.
    fn freeze_and_activate(&self, activate: impl FnOnce(&PartitionMask)) {
        let registry = self.inner.registry.read();
        for bank in &registry.banks {
            bank.freeze();
        }
        activate(&self.inner.chaos);
        drop(registry);
        self.invalidate_epoch_caches();
    }

    /// Heals the installed partition: every read sees live values again.
    /// A no-op when no partition is active.
    pub fn heal_partition(&self) {
        self.inner.chaos.heal();
        self.invalidate_epoch_caches();
    }

    /// Bumps the versions of every bank a cut can sever. A partition
    /// transition changes what reads return without moving any value, so
    /// any cache validated against pre-transition versions would keep
    /// serving its (now frozen, or now stale-frozen) snapshot as current —
    /// forever, if the registers go quiescent right after a heal. Forcing
    /// one re-read per transition restores coherence.
    fn invalidate_epoch_caches(&self) {
        let registry = self.inner.registry.read();
        for &position in &registry.epoched {
            registry.banks[position].bump_epochs();
        }
    }

    /// Whether a partition is currently installed.
    #[must_use]
    pub fn partition_active(&self) -> bool {
        self.inner.chaos.is_active()
    }

    // ------------------------------------------------------------------
    // Reporting.
    // ------------------------------------------------------------------

    /// The shared layout (each bank's names and owners) covering the
    /// registers of `registry`, rebuilding the cached one if registers were
    /// created since. Call with the registry lock held.
    fn layout_for(&self, registry: &Registry) -> Arc<SnapshotLayout> {
        {
            let cached = self.inner.layout.read();
            if cached.register_count() == registry.registers {
                return Arc::clone(&cached);
            }
        }
        let banks = (registry.banks.iter()).map(|bank| (bank.names().clone(), bank.owners()));
        let rebuilt = Arc::new(SnapshotLayout::new(self.inner.n_processes, banks));
        *self.inner.layout.write() = Arc::clone(&rebuilt);
        rebuilt
    }

    /// Takes a snapshot of all cumulative access counters. Exact at any
    /// instant in both [`Instrumentation`] modes (under the single-threaded
    /// use [`Instrumentation::Deferred`] is for): each count is stored
    /// once, so there is nothing to flush first.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        self.stats_into(&mut snap);
        snap
    }

    /// Like [`stats`](Self::stats), but writing into `snap` — an earlier
    /// snapshot, or any snapshot to be used as a buffer — whose allocations
    /// are reused where they are large enough.
    pub fn stats_into(&self, snap: &mut StatsSnapshot) {
        fn fill(buffer: &mut Vec<u64>, len: usize, counts: impl Iterator<Item = u64>) {
            buffer.clear();
            buffer.reserve_exact(len);
            buffer.extend(counts);
        }
        let registry = self.inner.registry.read();
        let n = self.inner.n_processes;
        let layout = self.layout_for(&registry);
        let banks = &registry.banks;
        fill(&mut snap.reads, banks.len() * n, read_counts(banks));
        fill(&mut snap.writes, layout.write_cells(), write_counts(banks));
        snap.n_processes = n;
        snap.layout = layout;
        snap.scan = self.inner.scan.snapshot();
    }

    /// Every write counted so far, summed over the banks under the
    /// registry's read lock: [`stats`](Self::stats)`().total_writes()`
    /// without the snapshot. It allocates nothing — no counter copy and no
    /// layout — so a run that needs only this total does not copy a
    /// registry that may hold millions of registers.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        write_counts(&self.inner.registry.read().banks).sum()
    }

    /// Reports the bit-footprint of every register: current size and
    /// high-water mark since creation.
    #[must_use]
    pub fn footprint(&self) -> FootprintReport {
        let registry = self.inner.registry.read();
        let mut bits = Vec::with_capacity(registry.registers);
        bits.extend(footprint_bits(&registry.banks));
        FootprintReport::new(self.layout_for(&registry), bits)
    }

    /// Refreshes `stats` and `footprint` in place — the newest checkpoint
    /// of a series over this space, as [`stats`](Self::stats) and
    /// [`footprint`](Self::footprint) took it or an earlier call left it —
    /// and returns the cells they held where this overwrote them, from
    /// which [`Overwritten::restore_stats`] and
    /// [`Overwritten::restore_footprint`] rebuild them. Afterwards both
    /// equal fresh copies; no fresh copy is taken to compare against.
    ///
    /// # Panics
    ///
    /// Panics if `stats` or `footprint` was taken from another space.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega_registers::{MemorySpace, ProcessId};
    ///
    /// let space = MemorySpace::new(2);
    /// let arr = space.nat_array("A", |_| 0);
    /// let p1 = ProcessId::new(1);
    ///
    /// let (mut stats, mut footprint) = (space.stats(), space.footprint());
    /// let first = stats.clone();
    /// arr.get(p1).write(p1, 9);
    /// let overwritten = space.checkpoint(&mut stats, &mut footprint);
    /// assert_eq!(stats, space.stats());
    /// overwritten.restore_stats(&mut stats);
    /// assert_eq!(stats, first);
    /// ```
    pub fn checkpoint(
        &self,
        stats: &mut StatsSnapshot,
        footprint: &mut FootprintReport,
    ) -> Overwritten {
        let registry = self.inner.registry.read();
        let banks = &registry.banks;
        Overwritten::refresh(
            stats,
            footprint,
            self.layout_for(&registry),
            self.inner.scan.snapshot(),
            || read_counts(banks),
            || write_counts(banks),
            || footprint_bits(banks),
        )
    }
}

/// Every bank's read tallies, indexed by process, in creation order.
fn read_counts(banks: &[Arc<dyn BankMeta>]) -> impl Iterator<Item = u64> + '_ {
    banks.iter().flat_map(|bank| bank.counters().read_counts())
}

/// Every register's write cells (one if owned, else one per process), in
/// creation order.
fn write_counts(banks: &[Arc<dyn BankMeta>]) -> impl Iterator<Item = u64> + '_ {
    (banks.iter()).flat_map(|bank| bank.counters().write_counts(bank.len()))
}

/// Every register's `(hwm_bits, current_bits)`, in creation order.
fn footprint_bits(banks: &[Arc<dyn BankMeta>]) -> impl Iterator<Item = (u64, u64)> + '_ {
    banks.iter().flat_map(|bank| {
        let (counters, len) = (bank.counters(), bank.len());
        (0..len).map(move |slot| (counters.hwm_bits(slot, len), bank.current_bits(slot)))
    })
}

impl std::fmt::Debug for MemorySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySpace")
            .field("n_processes", &self.inner.n_processes)
            .field("registers", &self.register_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = MemorySpace::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_rejected() {
        let s = MemorySpace::new(2);
        let _ = s.swmr::<u64>("X", ProcessId::new(2), 0);
    }

    #[test]
    fn register_ids_are_sequential() {
        let s = MemorySpace::new(2);
        let a = s.swmr::<u64>("A", ProcessId::new(0), 0);
        let b = s.mwmr::<u64>("B", 0);
        assert_eq!(a.id().index(), 0);
        assert_eq!(b.id().index(), 1);
        assert_eq!(s.register_count(), 2);
    }

    #[test]
    fn clone_views_same_registry() {
        let s = MemorySpace::new(2);
        let s2 = s.clone();
        let _ = s.swmr::<u64>("A", ProcessId::new(0), 0);
        assert_eq!(s2.register_count(), 1);
    }

    #[test]
    fn lock_free_constructors_wire_names_and_owners() {
        let s = MemorySpace::new(2);
        let p = s.nat_register("P", ProcessId::new(1), 3);
        assert_eq!(p.owner(), ProcessId::new(1));
        assert_eq!(p.peek(), 3);
        let f = s.flag_register("F", ProcessId::new(0), true);
        assert!(f.peek());
        let arr = s.nat_array("PROGRESS", |_| 0);
        assert_eq!(arr.len(), 2);
        let flags = s.flag_array("STOP", |_| true);
        assert!(flags.get(ProcessId::new(1)).peek());
        let m = s.nat_row_matrix("SUSPICIONS", |_, _| 0);
        assert_eq!(m.n(), 2);
        let pm = s.flag_row_matrix("HPROGRESS", |_, _| false);
        assert_eq!(
            pm.get(ProcessId::new(0), ProcessId::new(1)).owner(),
            ProcessId::new(0)
        );
        let lm = s.flag_column_matrix("LAST", |_, _| false);
        assert_eq!(
            lm.get(ProcessId::new(0), ProcessId::new(1)).owner(),
            ProcessId::new(1)
        );
        let mw = s.nat_mwmr_array("S", 2, |_| 0);
        assert_eq!(mw.len(), 2);
    }

    #[test]
    fn stats_snapshot_shapes() {
        let s = MemorySpace::new(3);
        let arr = s.nat_array("A", |_| 0);
        let p1 = ProcessId::new(1);
        arr.get(p1).write(p1, 7);
        arr.get(p1).read(ProcessId::new(0));
        let snap = s.stats();
        assert_eq!(snap.n_processes(), 3);
        assert_eq!(snap.rows().len(), 3);
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 1);
    }

    #[test]
    fn total_writes_is_the_snapshot_total_without_the_snapshot() {
        for mode in [Instrumentation::Eager, Instrumentation::Deferred] {
            let s = MemorySpace::with_instrumentation(3, mode);
            let p = ProcessId::new;
            let agree = |at: &str| {
                assert_eq!(s.total_writes(), s.stats().total_writes(), "{mode:?}, {at}");
            };
            let scalar = s.nat_register("X", p(1), 0);
            let progress = s.epoched_nat_array("PROGRESS", |_| 0);
            let shared = s.nat_mwmr_array("S", 2, |_| 0);
            let suspicions = s.epoched_nat_row_matrix("SUSPICIONS", |_, _| 0);
            let last = s.flag_column_matrix("LAST", |_, _| false);
            scalar.write(p(1), 4);
            progress.get(p(2)).write(p(2), 1);
            progress.get(p(2)).write(p(2), 2);
            // One write cell per (register, writer) in an nWnR bank.
            shared.get(1).write(p(0), 3);
            shared.get(1).write(p(2), 3);
            shared.get(0).write(p(1), 1);
            suspicions.get(p(0), p(2)).write(p(0), 1);
            last.get(p(1), p(2)).write(p(2), true);
            assert_eq!(s.total_writes(), 8, "{mode:?}");
            assert_eq!(
                s.inner.layout.read().register_count(),
                0,
                "{mode:?}: the fold builds no layout"
            );
            agree("SWMR, nWnR and matrix banks");

            s.install_partition(&[vec![p(0)], vec![p(1), p(2)]]);
            progress.get(p(0)).write(p(0), 5);
            shared.get(0).write(p(2), 6);
            let late = s.nat_array("LATE", |_| 0);
            late.get(p(1)).write(p(1), 7);
            agree("a partition installed and a bank created mid-cut");

            s.heal_partition();
            late.get(p(2)).write(p(2), 8);
            suspicions.get(p(1), p(0)).write(p(1), 1);
            agree("healed");
            assert_eq!(s.total_writes(), 13, "{mode:?}");
        }
    }

    #[test]
    fn footprint_tracks_hwm_and_current() {
        let s = MemorySpace::new(1);
        let p0 = ProcessId::new(0);
        let r = s.nat_register("X", p0, 0);
        r.write(p0, 1 << 20);
        r.write(p0, 1);
        let fp = s.footprint();
        let row = fp.rows().next().unwrap();
        assert_eq!(row.hwm_bits, 21);
        assert_eq!(row.current_bits, 1);
    }

    #[test]
    fn partition_freezes_cross_group_reads_until_heal() {
        let s = MemorySpace::new(4);
        let arr = s.nat_array("PROGRESS", |_| 0);
        let (p0, p2) = (ProcessId::new(0), ProcessId::new(2));
        arr.get(p2).write(p2, 7);
        s.install_partition(&[vec![p0, ProcessId::new(1)], vec![p2, ProcessId::new(3)]]);
        assert!(s.partition_active());
        arr.get(p2).write(p2, 9);
        assert_eq!(arr.get(p2).read(p0), 7, "severed read sees the cut value");
        assert_eq!(arr.get(p2).read(ProcessId::new(3)), 9, "same side is live");
        assert_eq!(arr.get(p2).read(p2), 9, "owner always sees own row");
        s.heal_partition();
        assert!(!s.partition_active());
        assert_eq!(arr.get(p2).read(p0), 9, "heal reveals the live value");
    }

    #[test]
    fn partition_ignores_mwmr_and_unlisted_processes() {
        let s = MemorySpace::new(4);
        let m = s.mwmr::<u64>("M", 0);
        let r = s.swmr::<u64>("X", ProcessId::new(3), 1);
        let (p0, p3) = (ProcessId::new(0), ProcessId::new(3));
        s.install_partition(&[vec![p0], vec![p3]]);
        m.write(p3, 5);
        assert_eq!(m.read(p0), 5, "ownerless registers are never severed");
        r.write(p3, 2);
        assert_eq!(r.read(ProcessId::new(1)), 2, "unlisted readers stay live");
    }

    #[test]
    fn directed_cut_blinds_one_side_only() {
        let s = MemorySpace::new(4);
        let arr = s.nat_array("PROGRESS", |_| 0);
        let (p0, p1, p2, p3) = (
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
            ProcessId::new(3),
        );
        arr.get(p2).write(p2, 7);
        arr.get(p0).write(p0, 3);
        s.install_cut(&[p0, p1], &[p2, p3]);
        assert!(s.partition_active());
        arr.get(p2).write(p2, 9);
        arr.get(p0).write(p0, 4);
        assert_eq!(arr.get(p2).read(p0), 7, "blinded reads hidden frozen");
        assert_eq!(arr.get(p0).read(p2), 4, "hidden reads blinded live");
        assert_eq!(arr.get(p2).read(p3), 9, "within the hidden side");
        assert_eq!(arr.get(p0).read(p1), 4, "within the blinded side");
        s.heal_partition();
        assert!(!s.partition_active());
        assert_eq!(arr.get(p2).read(p0), 9, "heal reveals the live value");
    }

    #[test]
    #[should_panic(expected = "both sides of the cut")]
    fn cut_side_overlap_rejected() {
        let s = MemorySpace::new(2);
        let p0 = ProcessId::new(0);
        s.install_cut(&[p0], &[p0]);
    }

    #[test]
    fn reinstall_refreezes_at_the_new_cut() {
        let s = MemorySpace::new(2);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let r = s.swmr::<u64>("X", p1, 0);
        s.install_partition(&[vec![p0], vec![p1]]);
        r.write(p1, 1);
        assert_eq!(r.read(p0), 0);
        s.install_partition(&[vec![p0], vec![p1]]);
        assert_eq!(r.read(p0), 1, "second cut froze the newer value");
    }

    #[test]
    #[should_panic(expected = "two partition groups")]
    fn overlapping_partition_groups_rejected() {
        let s = MemorySpace::new(2);
        let p0 = ProcessId::new(0);
        s.install_partition(&[vec![p0], vec![p0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_member_out_of_range_rejected() {
        let s = MemorySpace::new(2);
        s.install_partition(&[vec![ProcessId::new(5)]]);
    }

    #[test]
    fn partition_transitions_move_epoched_matrix_versions() {
        // The epoch tables are NOT severed by the mask, so a severed
        // snapshot records frozen values against a live version. If the
        // matrix then goes quiescent, a version-validated cache would serve
        // that frozen snapshot as current forever — install and heal must
        // therefore bump every owned bank's versions so caches re-read once
        // per transition. nWnR banks are never severed and keep theirs.
        let s = MemorySpace::new(2);
        let m = s.epoched_nat_row_matrix("S", |_, _| 0);
        let counters = s.epoched_nat_mwmr_array("C", 2, |_| 0);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        s.install_partition(&[vec![p0], vec![p1]]);
        m.get(p0, p1).write(p0, 7); // live row advances invisibly
        let mut buf = vec![0; 2];
        let seen = m.row_version(p0);
        m.read_row_into(p0, p1, &mut buf);
        assert_eq!(buf, vec![0, 0], "severed snapshot is the frozen row");
        let (global, shared) = (m.version(), counters.version());
        s.heal_partition();
        assert_ne!(m.row_version(p0), seen, "heal invalidates row versions");
        assert_ne!(m.version(), global, "heal moves the global version too");
        assert_eq!(counters.version(), shared, "nWnR versions stay");
        let reread = m.row_version(p0);
        m.read_row_into(p0, p1, &mut buf);
        assert_eq!(buf, vec![0, 7], "forced re-read observes the live row");
        assert_eq!(reread, m.row_version(p0), "coherent again after heal");
    }

    #[test]
    fn partitioned_reads_still_count() {
        let s = MemorySpace::new(2);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let r = s.swmr::<u64>("X", p1, 0);
        s.install_partition(&[vec![p0], vec![p1]]);
        let _ = r.read(p0);
        assert_eq!(s.stats().reads_of(p0), 1);
    }

    #[test]
    fn debug_shows_counts() {
        let s = MemorySpace::new(4);
        let _ = s.nat_array("A", |_| 0);
        let out = format!("{s:?}");
        assert!(out.contains("n_processes: 4"));
        assert!(out.contains("registers: 4"));
    }
}
