//! What a wide simulated run keeps on the heap (ROADMAP open item 3).
//!
//! The election layouts were cubic in n while they counted reads per
//! (register, process), and the simulator once multiplied that by every
//! statistics checkpoint it retained, parked a ring buffer in each of the
//! event wheel's 4096 slots on top, and gave every process a private copy
//! of every suspicion row. Reads are now tallied per (process, bank), and
//! nothing left is more than quadratic in n. This binary holds that line:
//! it owns the process's allocator, so it is a test binary of its own with
//! a single test — a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use omega_shm::omega::OmegaVariant;
use omega_shm::scenario::{Driver, Scenario, SimDriver};

/// The system allocator, counting the bytes live right now and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            Counting::grew(layout.size());
        }
        block
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        let block = unsafe { System.alloc_zeroed(layout) };
        if !block.is_null() {
            Counting::grew(layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(block, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.realloc`'s.
        let moved = unsafe { System.realloc(block, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Counting::grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MB: usize = 1 << 20;

/// The benchmark's `elect-wide` input: Alg1 at n = 128, 99 % quiescent,
/// four windowed checkpoints (six snapshots with tick zero and the
/// horizon). It peaks at 7.1 MB of live heap, every part of it quadratic
/// in n: the 16 640 registers' values, names, handles and write and
/// high-water cells, the 130 banks' read tallies, the shared layout
/// (names, owners, offsets), six snapshots of ≈ 266 KB each and six
/// footprint reports of 16 B a register, and the processes' shared views
/// of the suspicion matrix. The budget is that reading + 25 %: a read
/// cell per (process, register) does not fit (17.2 MB), nor the 17 MB of
/// private per-process mirrors, nor the 32 MB the per-slot ring buffers
/// grew to.
///
/// Then Alg1 at n = 512, the sim's ceiling (`SIM_MAX_N`), built and
/// dropped: its construction peaks at 42.7 MB (1 068.6 MB with a read
/// cell per (process, register)), and its budget is that + 25 % — which
/// pins that no cubic term comes back at construction.
#[test]
fn a_wide_run_keeps_one_copy_of_what_did_not_move() {
    let scenario = Scenario::fault_free(OmegaVariant::Alg1, 128)
        .named("elect-wide")
        .horizon(12_000)
        .stats_checkpoints(4)
        .seed(11);
    let before = LIVE.load(Ordering::Relaxed);
    let outcome = SimDriver.run(&scenario);
    let (peak, after) = (PEAK.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    outcome.assert_election();
    println!(
        "live heap: {:.1} MB before, {:.1} MB at the peak, {:.1} MB with the outcome in hand",
        before as f64 / MB as f64,
        peak as f64 / MB as f64,
        after as f64 / MB as f64
    );
    assert!(before < MB, "the harness itself holds {before} bytes");
    assert!(
        peak < 9 * MB,
        "SimDriver.run of elect-wide peaked at {:.1} MB of live heap",
        peak as f64 / MB as f64
    );
    assert!(
        after < MB,
        "an Outcome is per-process totals, not counters: {after} bytes"
    );

    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    drop(OmegaVariant::Alg1.build(512));
    let built = PEAK.load(Ordering::Relaxed) - after;
    println!(
        "OmegaVariant::Alg1.build(512): {:.1} MB of live heap at the peak",
        built as f64 / MB as f64
    );
    assert!(
        built < 54 * MB,
        "Alg1 at n = 512 peaked at {:.1} MB of live heap to build",
        built as f64 / MB as f64
    );
}
