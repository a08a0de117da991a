//! Storage cells backing atomic registers.
//!
//! A [`SharedCell`] is the physical storage of one register: a thing that can
//! be loaded and stored atomically from many threads. Three families are
//! provided:
//!
//! * [`LockCell`] — a [`RwLock`] around any cloneable value.
//!   Loads and stores are serialized by the lock, which makes the cell
//!   trivially linearizable for arbitrary `T`.
//! * [`OptionCell`] — a [`LockCell`]-style cell for `Option<T>` whose load
//!   of `None` is one atomic flag load and no lock: the cell for registers
//!   that are scanned far more often than they hold anything (a consensus
//!   instance's decision registers).
//! * [`AtomicNatCell`] / [`AtomicFlagCell`] — lock-free cells over
//!   `AtomicU64` / `AtomicBool` with sequentially consistent ordering, the
//!   `Arc<AtomicX>` registers the paper's model maps to most directly.
//!
//! The linearizability of every family is *checked*, not assumed: see
//! [`crate::lincheck`] and the crate's property tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::sync::RwLock;

/// Atomic single-value storage shared between threads.
///
/// Implementations must make `load` and `store` individually atomic
/// (linearizable): every operation appears to take effect at one instant
/// between its invocation and response.
pub trait SharedCell<T>: Send + Sync + 'static {
    /// Creates a cell holding `initial`.
    fn with_value(initial: T) -> Self;

    /// Atomically reads the current value.
    fn load(&self) -> T;

    /// Atomically replaces the current value.
    fn store(&self, value: T);
}

/// Lock-based cell for arbitrary cloneable values.
///
/// # Examples
///
/// ```
/// use omega_registers::cell::{LockCell, SharedCell};
///
/// let cell: LockCell<String> = LockCell::with_value("init".into());
/// cell.store("next".into());
/// assert_eq!(cell.load(), "next");
/// ```
#[derive(Debug)]
pub struct LockCell<T>(RwLock<T>);

impl<T: Clone + Send + Sync + 'static> SharedCell<T> for LockCell<T> {
    fn with_value(initial: T) -> Self {
        LockCell(RwLock::new(initial))
    }

    #[inline]
    fn load(&self) -> T {
        self.0.read().clone()
    }

    fn store(&self, value: T) {
        *self.0.write() = value;
    }
}

/// Cell for optional values whose load of `None` takes no lock.
///
/// An ordinary linearizable cell — any sequence of `Some` / `None` stores
/// from any number of writers is legal — laid out for the case where most
/// loads find nothing: `present` mirrors `value.is_some()` and is flipped
/// *inside* the write-locked section, so a store takes effect at that
/// flip, a load that sees `present == false` takes effect at its flag
/// load, and a load that sees `true` takes effect when it acquires the
/// read lock (by then every finished store has set both the value and the
/// flag, so the value it clones — `None` again, possibly — is the latest).
///
/// # Examples
///
/// ```
/// use omega_registers::cell::{OptionCell, SharedCell};
///
/// let cell: OptionCell<String> = OptionCell::with_value(None);
/// assert_eq!(cell.load(), None);
/// cell.store(Some("decided".into()));
/// assert_eq!(cell.load().as_deref(), Some("decided"));
/// ```
#[derive(Debug)]
pub struct OptionCell<T> {
    present: AtomicBool,
    value: RwLock<Option<T>>,
}

impl<T: Clone + Send + Sync + 'static> SharedCell<Option<T>> for OptionCell<T> {
    fn with_value(initial: Option<T>) -> Self {
        OptionCell {
            present: AtomicBool::new(initial.is_some()),
            value: RwLock::new(initial),
        }
    }

    #[inline]
    fn load(&self) -> Option<T> {
        if !self.present.load(Ordering::SeqCst) {
            return None;
        }
        self.value.read().clone()
    }

    fn store(&self, value: Option<T>) {
        let mut slot = self.value.write();
        *slot = value;
        self.present.store(slot.is_some(), Ordering::SeqCst);
    }
}

/// Lock-free cell for natural-number registers (`PROGRESS`, `SUSPICIONS`).
#[derive(Debug)]
pub struct AtomicNatCell(AtomicU64);

impl SharedCell<u64> for AtomicNatCell {
    fn with_value(initial: u64) -> Self {
        AtomicNatCell(AtomicU64::new(initial))
    }

    #[inline]
    fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    #[inline]
    fn store(&self, value: u64) {
        self.0.store(value, Ordering::SeqCst);
    }
}

/// Lock-free cell for boolean flag registers (`STOP`, handshake bits).
#[derive(Debug)]
pub struct AtomicFlagCell(AtomicBool);

impl SharedCell<bool> for AtomicFlagCell {
    fn with_value(initial: bool) -> Self {
        AtomicFlagCell(AtomicBool::new(initial))
    }

    #[inline]
    fn load(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    #[inline]
    fn store(&self, value: bool) {
        self.0.store(value, Ordering::SeqCst);
    }
}

/// A deliberately *non-atomic* cell that stores a `u64` as two halves.
///
/// A reader that interleaves with a writer can observe a torn value that was
/// never written. This exists purely so the linearizability checker has a
/// known-bad implementation to reject; it must never be used by algorithms.
#[derive(Debug)]
#[doc(hidden)]
pub struct TornCell {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl SharedCell<u64> for TornCell {
    fn with_value(initial: u64) -> Self {
        TornCell {
            lo: AtomicU64::new(initial & 0xffff_ffff),
            hi: AtomicU64::new(initial >> 32),
        }
    }

    fn load(&self) -> u64 {
        let lo = self.lo.load(Ordering::SeqCst);
        // A writer sneaking in between the two loads produces a torn read.
        std::thread::yield_now();
        let hi = self.hi.load(Ordering::SeqCst);
        (hi << 32) | lo
    }

    fn store(&self, value: u64) {
        self.lo.store(value & 0xffff_ffff, Ordering::SeqCst);
        std::thread::yield_now();
        self.hi.store(value >> 32, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_cell_roundtrip() {
        let c: LockCell<Vec<u8>> = LockCell::with_value(vec![1, 2]);
        assert_eq!(c.load(), vec![1, 2]);
        c.store(vec![9]);
        assert_eq!(c.load(), vec![9]);
    }

    #[test]
    fn option_cell_starts_with_its_initial_value() {
        let c: OptionCell<String> = OptionCell::with_value(Some("x".into()));
        assert_eq!(c.load().as_deref(), Some("x"));
        let c: OptionCell<String> = OptionCell::with_value(None);
        assert_eq!(c.load(), None);
    }

    #[test]
    fn option_cell_is_not_write_once() {
        let c: OptionCell<u64> = OptionCell::with_value(None);
        c.store(Some(1));
        assert_eq!(c.load(), Some(1));
        c.store(None);
        assert_eq!(c.load(), None);
        c.store(Some(2));
        assert_eq!(c.load(), Some(2));
    }

    #[test]
    fn option_cell_freezes_and_peeks_through_a_bank() {
        // A bank keeps a second run of cells for severed readers and
        // refreshes it with `store(peek())` at each cut: both directions
        // (`None → Some`, `Some → None`) must come through.
        use crate::{MemorySpace, ProcessId};
        let space = MemorySpace::new(2);
        let arr = space.swmr_array_cell::<Option<u64>, OptionCell<u64>>("DEC", |_| None);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        arr.get(p0).write(p0, Some(7));
        assert_eq!(arr.get(p0).peek(), Some(7));
        space.install_partition(&[vec![p0], vec![p1]]);
        arr.get(p0).write(p0, None);
        arr.get(p1).poke(Some(9));
        assert_eq!(arr.get(p0).read(p1), Some(7), "frozen at the cut");
        assert_eq!(arr.get(p0).read(p0), None, "live on the owner's side");
        assert_eq!(arr.get(p1).read(p0), None, "frozen before the poke");
        space.heal_partition();
        assert_eq!(arr.get(p0).read(p1), None);
        assert_eq!(arr.get(p1).read(p0), Some(9));
    }

    #[test]
    fn atomic_nat_roundtrip() {
        let c = AtomicNatCell::with_value(7);
        assert_eq!(c.load(), 7);
        c.store(u64::MAX);
        assert_eq!(c.load(), u64::MAX);
    }

    #[test]
    fn atomic_flag_roundtrip() {
        let c = AtomicFlagCell::with_value(true);
        assert!(c.load());
        c.store(false);
        assert!(!c.load());
    }

    #[test]
    fn cells_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LockCell<u64>>();
        assert_send_sync::<OptionCell<u64>>();
        assert_send_sync::<AtomicNatCell>();
        assert_send_sync::<AtomicFlagCell>();
    }

    #[test]
    fn atomic_nat_concurrent_last_write_wins_some_value() {
        // Sanity under real threads: a reader only ever observes values that
        // were actually written.
        let c = Arc::new(AtomicNatCell::with_value(0));
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for v in 1..=1000u64 {
                    c.store(v);
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..1000 {
                    let v = c.load();
                    assert!(v <= 1000);
                    assert!(
                        v >= last || v == 0,
                        "reads of a monotone writer regress only never"
                    );
                    last = v;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }
}
