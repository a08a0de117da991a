//! What a wide simulated run keeps on the heap (ROADMAP open item 3),
//! what one slot of the service's consensus log costs (open items 1 (f)
//! and 13), what the service keeps per request, and what a service run
//! keeps.
//!
//! The election layouts were cubic in n while they counted reads per
//! (register, process), and the simulator once multiplied that by every
//! statistics checkpoint it retained, parked a ring buffer in each of the
//! event wheel's 4096 slots on top, and gave every process a private copy
//! of every suspicion row. Reads are now tallied per (process, bank), and
//! nothing left is more than quadratic in n. The service's log never
//! retires a slot, so what a slot costs is what a long run keeps, and its
//! request ledger grows with the workload beside it. This binary holds
//! every line: it owns the process's allocator, so it is a
//! test binary of its own with a single test — a second test running
//! beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use omega_shm::consensus::{KvCommand, LogShared};
use omega_shm::omega::OmegaVariant;
use omega_shm::registers::MemorySpace;
use omega_shm::scenario::{Driver, Scenario, SimDriver};
use omega_shm::service::{Ledger, ServiceScenario, ServiceSimDriver, WorkloadSpec};

/// The system allocator, counting the bytes live right now, their peak,
/// and the calls that asked for memory (allocations and reallocations).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
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
/// `ServiceSimDriver.run` of `serve-failover`: its 8.5 MB reading + 10 %.
const FAILOVER_BUDGET: usize = 47 * MB / 5;
/// `ServiceSimDriver.run` of `serve-writes` at rung 30: its 16.7 MB
/// reading + 10 %.
const WRITES_BUDGET: usize = 92 * MB / 5;

/// The allocator calls of `variant.build(n)` at n = 5 and n = 128: what
/// the benchmark's `setup_s` times on its election workloads. One call
/// fewer per epoch table (two for Alg1, Mwmr and StepClock, one for Alg2)
/// than while a table was an `Arc` and a `Box`: 110 and 1 970, 139 and
/// 2 737, 71 and 1 059, 110 and 1 970.
const BUILD_CALLS: [(OmegaVariant, [usize; 2]); 4] = [
    (OmegaVariant::Alg1, [108, 1_968]),
    (OmegaVariant::Alg2, [138, 2_736]),
    (OmegaVariant::Mwmr, [69, 1_057]),
    (OmegaVariant::StepClock, [108, 1_968]),
];

/// Live bytes and allocator calls so far.
fn reading() -> (usize, usize) {
    (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

/// The benchmark's `elect-wide` input: Alg1 at n = 128, 99 % quiescent,
/// four windowed checkpoints (six with tick zero and the horizon). It
/// peaks at 2.64 MB of live heap, every part of it quadratic in n: the
/// 16 640 registers' values and write and high-water cells, the 130 banks'
/// names (one block each) and read tallies, the shared layout (an entry
/// per bank), the processes' shared views of the suspicion matrix, and the
/// checkpoints — the newest a dense ≈ 266 KB snapshot and a 16 B a
/// register footprint, each earlier one the cells the next one overwrote
/// (the first window's whole read tallies, a few hundred cells after
/// that). It read 2.76 MB while the leader timeline kept a dense row of
/// estimates a sample; the budget is that reading + 25 %, rounded up:
/// six dense checkpoints do not fit (5.1 MB), nor a read cell per (process,
/// register) (17.2 MB), nor the 17 MB of private per-process mirrors, nor
/// the 32 MB the per-slot ring buffers grew to, nor the 7.1 MB of a name
/// and a handle per register and frozen cells in every bank. The same run
/// at 16 checkpoints peaks within 256 KB of it at 4 (2.68 against
/// 2.63 MB, each measured from its own start): a checkpoint of a quiescent
/// window costs what moved, where twelve more dense ones cost 6.1 MB
/// (5.14 against 11.24 MB).
///
/// Then the election's steady state (ROADMAP open item 1 (f)): the same
/// `elect-wide` run makes as many allocator calls over 24 000 ticks as
/// over 12 000 — the one buffer a run grows with its length (the leader
/// timeline's step counts) is sized once, up front, the timeline's
/// estimate rows and cadence runs grow where an estimate changes or the
/// cadence breaks, not with the run, and the sampling cadence is no
/// queue of events; a checkpoint's entries are one allocation an array
/// whatever moved. It reads 2 039 calls at both (2 037 while the
/// timeline reserved three dense columns, 2 041 while every checkpoint
/// was two fresh dense copies, 2 043 while an epoch table took two
/// allocations, 2 290 while a matrix formatted each row's name prefix
/// into an allocation of its own); while each sample kept two heap rows
/// and sat pre-scheduled in the event wheel, every sample added 3. And
/// the benchmark's `elect-small` input (n = 5, 2 000 000 ticks, 20 001
/// samples, two leader crashes) peaks at 0.83 MB of live heap, against a
/// budget of that + 25 %, 1.04 MB: a sample is its five step counts,
/// 40 B, and its estimates and its time are kept only where they change.
/// The same spec at 1 000 000 ticks peaks at 0.45 MB, and the pin holds
/// the 10 000 samples between them to `8·n + 8` = 48 B each. It read
/// 1.74 MB (0.90 MB at 1 000 000 ticks: 87 B a sample) while every sample
/// kept its time and a dense row of estimates beside its step counts,
/// 88 B, and 3.7 MB while every sample made three allocator calls and
/// kept two heap rows.
///
/// Then Alg1 at n = 512, the sim's ceiling (`SIM_MAX_N`), built and
/// dropped: its construction peaks at 27.5 MB (42.7 MB with a name and a
/// handle per register and frozen cells up front, 1 068.6 MB with a read
/// cell per (process, register)), and its budget is that + 25 %, rounded
/// up — which pins that no cubic term comes back at construction. Then
/// the allocator calls of building each variant at n = 5 and 128, pinned
/// exactly ([`BUILD_CALLS`]): they repeat from run to run.
///
/// Last, the service's log at its n = 5: 10 000 slots of
/// `LogShared::<KvCommand>::instance` after 1 000 to warm up. A slot is two
/// banks of n registers, `RR` then `DEC`; it reads 1 430 B live, against
/// a budget of that + 10 % (1 446 B while a bank kept its length in its
/// counters too, beside the slice pointer of its epoch table; the budget
/// was 1 430 B + 25 % then), and 9 allocator calls, against a budget of
/// that + 10 %: 11 while each slot formatted its name and spelled its
/// banks' names in a
/// second string, 52 (and 2 658 B) while every bank allocated frozen cells
/// up front, a name per register and a handle per slot. Then the fold a
/// service run reads its `total_writes` by, over those 110 000 registers:
/// it makes no allocator call.
///
/// Then the service's request ledger over the benchmark's `serve-failover`
/// shape (2 000 clients, 200 requests per 1 000 ticks, 400 000 ticks,
/// seed 11; 77 773 requests): a request's arrival, client and operation
/// are 24 B and its state one 8 B word, and the schedule holds the
/// workload's deadline and stall bound once. It reads 32.7 B live a request
/// (the schedule's reserve is 2.7 % over its length), against a budget of
/// 40 B, 24 + 8 plus 25 %; it read 72 B while each request carried a
/// `u64` client, its own deadline and fail-fast ticks, and a 16 B state.
/// Then `ServiceSimDriver.run` of that scenario with its two leader
/// crashes: its live heap peaks at 8.5 MB, the log and the ledger held to
/// the end and the outcome folded over the ledger in place. It peaked at
/// 10.0 MB while the run copied the registry at the horizon (a dense
/// statistics snapshot, its layout and a footprint report) to read one
/// total, and at 14.2 MB while each request kept 72 B and the outcome
/// copied every state and sorted every ack tick at the end. Last, the
/// benchmark's `serve-writes` at its top rung (90 % puts, 30 requests per
/// 1 000 ticks, seed 11; 10 188 log slots): 16.7 MB, where the horizon
/// copy made it 20.6. Both budgets are 10 % over the readings of 8.5 and
/// 16.7 MB, not 25 %: the copy is 1.5 and 3.9 MB of them, and a looser
/// budget would let it come back unseen. (They read 8.57 and 16.85 MB
/// while every bank kept its length in its counters too, 16 B a log
/// slot.)
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
        "live heap: {:.1} MB before, {:.2} MB at the peak, {:.1} MB with the outcome in hand",
        before as f64 / MB as f64,
        peak as f64 / MB as f64,
        after as f64 / MB as f64
    );
    assert!(before < MB, "the harness itself holds {before} bytes");
    assert!(
        peak < 7 * MB / 2,
        "SimDriver.run of elect-wide peaked at {:.2} MB of live heap",
        peak as f64 / MB as f64
    );
    assert!(
        after < MB,
        "an Outcome is per-process totals, not counters: {after} bytes"
    );

    let peak_at = |checkpoints| {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        drop(SimDriver.run(&scenario.clone().stats_checkpoints(checkpoints)));
        PEAK.load(Ordering::Relaxed) - before
    };
    let (four, sixteen) = (peak_at(4), peak_at(16));
    println!(
        "live heap of elect-wide at 4 and 16 checkpoints: {:.2} and {:.2} MB at the peak",
        four as f64 / MB as f64,
        sixteen as f64 / MB as f64
    );
    assert!(
        sixteen <= four + 256 * 1024,
        "twelve more checkpoints of a quiescent run cost {:.2} MB",
        (sixteen as f64 - four as f64) / MB as f64
    );

    let calls_over = |horizon| {
        let (_, calls) = reading();
        drop(SimDriver.run(&scenario.clone().horizon(horizon)));
        reading().1 - calls
    };
    let (short, long) = (calls_over(12_000), calls_over(24_000));
    println!(
        "SimDriver.run of elect-wide: {short} allocator calls over 12 000 ticks, \
         {long} over 24 000"
    );
    assert_eq!(short, long, "the election's steady state allocates");

    let small = Scenario::fault_free(OmegaVariant::Alg1, 5)
        .named("elect-small")
        .horizon(2_000_000)
        .crash_leader_at(400_000)
        .crash_leader_at(1_000_000)
        .seed(11);
    let peak_of = |scenario: &Scenario| {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let outcome = SimDriver.run(scenario);
        (PEAK.load(Ordering::Relaxed) - before, outcome)
    };
    let (peak, outcome) = peak_of(&small);
    outcome.assert_election();
    drop(outcome);
    // Its second leader crash falls on this horizon: no election to show.
    let (half, _) = peak_of(&small.clone().horizon(1_000_000));
    println!(
        "live heap of elect-small: {:.2} MB at the peak, {:.2} MB over half its horizon",
        peak as f64 / MB as f64,
        half as f64 / MB as f64
    );
    assert!(
        peak <= 26 * MB / 25,
        "SimDriver.run of elect-small peaked at {:.2} MB of live heap",
        peak as f64 / MB as f64
    );
    let per_sample = 8 * 5 + 8;
    assert!(
        peak <= half + per_sample * 10_000,
        "the 10 000 samples of elect-small's second half cost {} B each",
        (peak - half.min(peak)) / 10_000
    );

    let after = LIVE.load(Ordering::Relaxed);
    PEAK.store(after, Ordering::Relaxed);
    drop(OmegaVariant::Alg1.build(512));
    let built = PEAK.load(Ordering::Relaxed) - after;
    println!(
        "OmegaVariant::Alg1.build(512): {:.1} MB of live heap at the peak",
        built as f64 / MB as f64
    );
    assert!(
        built < 35 * MB,
        "Alg1 at n = 512 peaked at {:.1} MB of live heap to build",
        built as f64 / MB as f64
    );

    for (variant, pinned) in BUILD_CALLS {
        for (n, pinned) in [5, 128].into_iter().zip(pinned) {
            let (_, before) = reading();
            drop(variant.build(n));
            let calls = reading().1 - before;
            println!("OmegaVariant::{variant:?}.build({n}): {calls} allocator calls");
            assert_eq!(calls, pinned, "OmegaVariant::{variant:?}.build({n})");
        }
    }

    let space = MemorySpace::new(5);
    let log = LogShared::<KvCommand>::new(space.clone());
    let _ = log.instance(999);
    let (slots, (live, calls)) = (10_000, reading());
    let _ = log.instance(1_000 + slots - 1);
    let (live_after, calls_after) = reading();
    let bytes = (live_after - live) as f64 / slots as f64;
    let calls = (calls_after - calls) as f64 / slots as f64;
    println!("a log slot at n = 5: {bytes:.0} B live, {calls:.2} allocator calls");
    assert!(bytes <= 1_430.0 * 1.1, "a log slot keeps {bytes:.0} B");
    assert!(
        calls <= 9.0 * 1.1,
        "a log slot makes {calls:.2} allocator calls"
    );

    let (_, before) = reading();
    let total = space.total_writes();
    let folded = reading().1 - before;
    println!(
        "MemorySpace::total_writes over {} registers: {folded} allocator calls",
        space.register_count()
    );
    assert_eq!(total, 0);
    assert_eq!(folded, 0, "the write-count fold copies the registry");

    drop(log);
    drop(space);

    let workload = WorkloadSpec {
        clients: 2_000,
        mean_interarrival: 10_000,
        put_pct: 5,
        key_space: 64,
        deadline: 6_000,
        stall_bound: None,
        start: 2_000,
        stop: 390_000,
    };
    let (live, _) = reading();
    let ledger = Ledger::new(workload.generate(11), 5);
    let per_request = (reading().0 - live) as f64 / ledger.requests() as f64;
    println!(
        "the service ledger: {per_request:.1} B live a request over {} requests",
        ledger.requests()
    );
    assert!(per_request <= 40.0, "a request keeps {per_request:.1} B");
    drop(ledger);

    let failover = Scenario::fault_free(OmegaVariant::Alg1, 5)
        .horizon(400_000)
        .crash_leader_at(130_000)
        .crash_leader_at(260_000)
        .seed(11);
    let failover = ServiceScenario::new("serve-failover", failover, workload);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = ServiceSimDriver.run(&failover);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.windows.len(), 2);
    assert_eq!(outcome.inflight, 0);
    println!(
        "ServiceSimDriver.run of serve-failover: {:.2} MB of live heap at the peak",
        peak as f64 / MB as f64
    );
    assert!(
        peak <= FAILOVER_BUDGET,
        "ServiceSimDriver.run of serve-failover peaked at {:.2} MB of live heap",
        peak as f64 / MB as f64
    );

    let writes = Scenario::fault_free(OmegaVariant::Alg1, 5)
        .horizon(400_000)
        .seed(11);
    let workload = WorkloadSpec {
        mean_interarrival: 2_000 * 1_000 / 30,
        put_pct: 90,
        ..workload
    };
    let writes = ServiceScenario::new("serve-writes/rate30", writes, workload);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = ServiceSimDriver.run(&writes);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.inflight, 0);
    println!(
        "ServiceSimDriver.run of serve-writes at rung 30: {:.2} MB of live heap at the peak \
         ({} log slots)",
        peak as f64 / MB as f64,
        outcome.log_slots
    );
    assert!(
        peak <= WRITES_BUDGET,
        "ServiceSimDriver.run of serve-writes at rung 30 peaked at {:.2} MB of live heap",
        peak as f64 / MB as f64
    );
}
