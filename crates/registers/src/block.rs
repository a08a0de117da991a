//! Registers backed by shared disk blocks.
//!
//! The paper's Section 1 motivates the register model with networks of
//! attached disks (Disk Paxos, Petal, NASD): a disk block written by one
//! machine and read by all *is* a 1WnR atomic register. This module is the
//! substrate half of that story — a [`BlockDevice`] abstraction over any
//! shared block medium, and a [`BlockMap`] that lays registers out on it
//! one block per 1WnR register (the Disk-Paxos layout).
//!
//! A [`MemorySpace`](crate::MemorySpace) created through
//! [`with_block_device`](crate::MemorySpace::with_block_device) routes every
//! attributed register access through the device instead of a local atomic
//! cell, so the *same algorithm code* (and the same instrumentation) runs
//! unchanged over the disk: the device decides latency and serves the
//! authoritative value, the register layer keeps enforcing ownership and
//! counting accesses. The concrete simulated disk lives in
//! `omega_runtime::san`; this crate only sees the trait.

use std::sync::Arc;

use crate::sync::Mutex;
use crate::ProcessId;

/// A shared block device: addressable 8-byte blocks, linearizable per-block
/// reads and writes.
///
/// The two attributed operations ([`read_block`](Self::read_block) /
/// [`write_block`](Self::write_block)) are the medium's real access path —
/// implementations may sleep to model access latency and must count the
/// access in whatever footprint accounting they keep. The unattributed pair
/// ([`peek_block`](Self::peek_block) / [`poke_block`](Self::poke_block))
/// exists for harness-side inspection (footprint reports, `peek`/`poke`)
/// and must be instant and invisible to the accounting, mirroring the
/// register layer's own peek/poke contract.
pub trait BlockDevice: Send + Sync + std::fmt::Debug {
    /// Reads block `addr` (zero if never written), paying the medium's
    /// access cost.
    fn read_block(&self, addr: u64) -> u64;

    /// Writes block `addr`, paying the medium's access cost.
    fn write_block(&self, addr: u64, value: u64);

    /// Reads block `addr` without latency or accounting (harness-side).
    fn peek_block(&self, addr: u64) -> u64;

    /// Writes block `addr` without latency or accounting (harness-side).
    fn poke_block(&self, addr: u64, value: u64);
}

/// One register's place on the device: which block, owned by whom.
#[derive(Debug, Clone)]
pub struct BlockBinding {
    /// Interned register name (e.g. `SUSPICIONS[2][0]`).
    pub name: Arc<str>,
    /// Block address the register occupies.
    pub addr: u64,
    /// Owning machine for 1WnR registers; `None` for nWnR blocks.
    pub owner: Option<ProcessId>,
}

/// The block-layout mapper: assigns each register created in a disk-backed
/// [`MemorySpace`](crate::MemorySpace) its own block, in creation order,
/// and remembers the layout for introspection.
///
/// One block per 1WnR register is exactly the SAN realization the paper
/// cites (one block — or one disk sector per writer — per register); nWnR
/// registers also get a dedicated block (the device serializes writers).
///
/// # Examples
///
/// ```
/// use omega_registers::BlockMap;
/// use omega_registers::ProcessId;
///
/// let map = BlockMap::new();
/// let a = map.bind("PROGRESS[0]", Some(ProcessId::new(0)));
/// let b = map.bind("PROGRESS[1]", Some(ProcessId::new(1)));
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(map.blocks(), 2);
/// assert_eq!(map.addr_of("PROGRESS[1]"), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct BlockMap {
    bindings: Mutex<Vec<BlockBinding>>,
}

impl BlockMap {
    /// An empty layout.
    #[must_use]
    pub fn new() -> Self {
        BlockMap::default()
    }

    /// Assigns the next free block to a register, returning its address.
    pub fn bind(&self, name: &str, owner: Option<ProcessId>) -> u64 {
        let mut bindings = self.bindings.lock();
        let addr = bindings.len() as u64;
        bindings.push(BlockBinding {
            name: name.into(),
            addr,
            owner,
        });
        addr
    }

    /// Number of blocks the layout occupies so far.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.bindings.lock().len()
    }

    /// The block a register was laid out on, if it exists.
    #[must_use]
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.bindings
            .lock()
            .iter()
            .find(|b| &*b.name == name)
            .map(|b| b.addr)
    }

    /// A snapshot of every binding, in block order.
    #[must_use]
    pub fn bindings(&self) -> Vec<BlockBinding> {
        self.bindings.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySpace, ProcessId};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An instant in-memory device that counts attributed accesses.
    #[derive(Debug, Default)]
    struct TestDevice {
        blocks: Mutex<HashMap<u64, u64>>,
        accesses: AtomicU64,
    }

    impl BlockDevice for TestDevice {
        fn read_block(&self, addr: u64) -> u64 {
            self.accesses.fetch_add(1, Ordering::Relaxed);
            self.peek_block(addr)
        }

        fn write_block(&self, addr: u64, value: u64) {
            self.accesses.fetch_add(1, Ordering::Relaxed);
            self.poke_block(addr, value);
        }

        fn peek_block(&self, addr: u64) -> u64 {
            *self.blocks.lock().get(&addr).unwrap_or(&0)
        }

        fn poke_block(&self, addr: u64, value: u64) {
            self.blocks.lock().insert(addr, value);
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn disk_backed_banks_keep_no_version_and_book_nothing() {
        let device = Arc::new(TestDevice::default());
        let s = MemorySpace::with_block_device(4, device);
        let arr = s.epoched_nat_array("PROGRESS", |_| 0);
        let flags = s.flag_array("STOP", |_| true);
        assert_eq!(arr.range_version(0..4), None);
        let mut seen = Some(0);
        assert!(!arr.book_unchanged_range(p(0), 0..4, None, &mut seen, &flags));
        assert_eq!(seen, None);
        // In memory, but booked alongside a disk-backed array: refused.
        let memory = MemorySpace::new(4);
        let progress = memory.epoched_nat_array("PROGRESS", |_| 0);
        let mut seen = progress.range_version(0..4);
        assert!(!progress.book_unchanged_range(p(0), 0..4, None, &mut seen, &flags));
        assert_eq!(seen, None);
        assert_eq!(s.stats().total_reads(), 0);
        assert_eq!(memory.stats().total_reads(), 0);
    }

    #[test]
    fn block_map_assigns_sequential_addresses() {
        let map = BlockMap::new();
        assert_eq!(map.bind("A", Some(p(0))), 0);
        assert_eq!(map.bind("B", None), 1);
        assert_eq!(map.blocks(), 2);
        assert_eq!(map.addr_of("A"), Some(0));
        assert_eq!(map.addr_of("missing"), None);
        let bindings = map.bindings();
        assert_eq!(bindings[1].owner, None);
        assert_eq!(&*bindings[0].name, "A");
    }

    #[test]
    fn disk_backed_space_routes_values_through_the_device() {
        let device = Arc::new(TestDevice::default());
        let space = MemorySpace::with_block_device(2, Arc::clone(&device) as _);
        let reg = space.nat_register("X", p(0), 0);
        let flag = space.flag_register("F", p(1), false);

        reg.write(p(0), 99);
        flag.write(p(1), true);
        assert_eq!(reg.read(p(1)), 99);
        assert!(flag.read(p(0)));

        // The values really live in the device's blocks.
        let map = space.block_map().expect("disk-backed space has a layout");
        assert_eq!(device.peek_block(map.addr_of("X").unwrap()), 99);
        assert_eq!(device.peek_block(map.addr_of("F").unwrap()), 1);
        // 2 writes + 2 reads were attributed to the device.
        assert_eq!(device.accesses.load(Ordering::Relaxed), 4);
        // ... and to the register instrumentation, identically.
        assert_eq!(space.stats().total_writes(), 2);
        assert_eq!(space.stats().total_reads(), 2);
    }

    #[test]
    fn nonzero_initial_values_are_seeded_without_accounting() {
        let device = Arc::new(TestDevice::default());
        let space = MemorySpace::with_block_device(1, Arc::clone(&device) as _);
        let reg = space.nat_register("INIT", p(0), 7);
        assert_eq!(device.accesses.load(Ordering::Relaxed), 0);
        assert_eq!(reg.read(p(0)), 7);
        assert_eq!(space.stats().total_writes(), 0);
    }

    #[test]
    fn peek_and_poke_bypass_the_access_path() {
        let device = Arc::new(TestDevice::default());
        let space = MemorySpace::with_block_device(1, Arc::clone(&device) as _);
        let reg = space.nat_register("X", p(0), 0);
        reg.poke(5);
        assert_eq!(reg.peek(), 5);
        assert_eq!(device.accesses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn whole_figure2_layout_gets_one_block_per_register() {
        let device = Arc::new(TestDevice::default());
        let space = MemorySpace::with_block_device(3, Arc::clone(&device) as _);
        let _progress = space.nat_array("PROGRESS", |_| 0);
        let _stop = space.flag_array("STOP", |_| false);
        let _suspicions = space.nat_row_matrix("SUSPICIONS", |_, _| 0);
        let map = space.block_map().unwrap();
        assert_eq!(map.blocks(), 3 + 3 + 9);
        assert_eq!(map.blocks(), space.register_count());
        assert_eq!(map.addr_of("SUSPICIONS[2][1]"), Some(3 + 3 + 2 * 3 + 1));
    }

    #[test]
    #[should_panic(expected = "cannot live on a disk block")]
    fn non_encodable_register_types_fail_loudly() {
        let device = Arc::new(TestDevice::default());
        let space = MemorySpace::with_block_device(1, device as _);
        let _ = space.swmr::<String>("S", p(0), String::new());
    }
}
