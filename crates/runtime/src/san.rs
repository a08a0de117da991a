//! A simulated storage-area-network (SAN) disk, and atomic registers on it.
//!
//! The paper motivates shared-memory Ω with systems where "computers
//! communicate through a network of attached disks" (Section 1, citing
//! Disk Paxos \[9\], Petal \[18\], NASD \[10\]): each disk block behaves as an
//! atomic register, written by one machine and read by all. This module
//! reproduces that substrate in miniature:
//!
//! * [`SanDisk`] — a block device with configurable, seeded access latency
//!   (network round-trip + seek), shared by all client machines, keeping
//!   block-level footprint accounting ([`SanDisk::stats`]: accesses,
//!   distinct blocks touched, simulated service time);
//! * [`SanDisk::memory_space`] — an instrumented
//!   [`MemorySpace`] whose registers live on
//!   this disk, one block per 1WnR register, so the *unmodified* election
//!   algorithms run over the SAN (this is what the scenario crate's
//!   `WallDriver` builds its `san` substrate on);
//! * [`DiskNatRegister`] / [`DiskFlagRegister`] — hand-laid 1WnR atomic
//!   registers mapped onto explicit blocks, ownership-enforced exactly
//!   like their in-memory counterparts (the minimal Disk-Paxos picture,
//!   kept for exposition and tests).
//!
//! Reads and writes take real time (the latency model sleeps), which is why
//! the `omega-runtime` cluster exposes [`NodeConfig::san_like`] /
//! [`NodeConfig::san_paced`] pacing: on a SAN, heartbeat cadence and
//! timeout units stretch with the disk's access time, and the election
//! algorithms are unaffected — their assumptions only speak about
//! *eventual* timeliness.
//!
//! # Running a registry scenario on the SAN
//!
//! The scenario crate's `WallDriver` on its `san` substrate packages the
//! pieces below — disk, disk-backed space, SAN-paced cluster — behind the
//! standard `Driver` trait, so any registry scenario runs over disk blocks
//! unchanged:
//!
//! ```ignore
//! use omega_runtime::san::SanLatency;
//! use omega_scenario::{registry, Backend, Driver, WallDriver};
//!
//! // Elect over simulated disk blocks, instant latency (CI profile).
//! let san = WallDriver::new(Backend::San, 1);
//! let outcome = san.run(&registry::fault_free());
//! outcome.assert_election();
//! let footprint = outcome.san.expect("SAN backends report block footprints");
//! assert_eq!(footprint.blocks_mapped, outcome.register_count as u64);
//!
//! // Or pin commodity-iSCSI latency on the scenario: same election,
//! // clocks stretched with the disk.
//! let pinned = registry::fault_free().san_latency(SanLatency::commodity());
//! assert!(san.run(&pinned).san.unwrap().service_time_ms > 0.0);
//! ```
//!
//! (The example is `ignore`d here because `omega-scenario` sits above this
//! crate in the workspace; the same flow is executed as a real test in the
//! scenario crate and the root test suite.)
//!
//! [`NodeConfig::san_like`]: crate::NodeConfig::san_like
//! [`NodeConfig::san_paced`]: crate::NodeConfig::san_paced

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use omega_registers::sync::Mutex;
use omega_registers::{BlockDevice, MemorySpace, ProcessId};

/// Latency model of one disk: fixed base plus deterministic pseudo-random
/// jitter.
///
/// # Jitter distribution
///
/// Each access adds a jitter drawn **uniformly from `[0, jitter]`
/// inclusive**: one xorshift64 step per access produces a 64-bit word `s`,
/// and the draw is the fixed-point widening multiply
/// `(s × (jitter_ns + 1)) >> 64` — bias-free up to the 2⁻⁶⁴ rounding of
/// the multiply (unlike a modulo, which over-weights small residues and
/// can never produce the configured maximum). The sequence is a pure
/// function of the disk seed and the access count, so runs are
/// reproducible in value space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanLatency {
    /// Minimum time for any block access.
    pub base: Duration,
    /// Maximum extra jitter added per access (inclusive).
    pub jitter: Duration,
}

impl SanLatency {
    /// Zero-latency model (for tests).
    #[must_use]
    pub fn instant() -> Self {
        SanLatency {
            base: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// A commodity-iSCSI-like profile: ~0.5 ms ± 0.5 ms per access.
    #[must_use]
    pub fn commodity() -> Self {
        SanLatency {
            base: Duration::from_micros(500),
            jitter: Duration::from_micros(500),
        }
    }

    /// The expected (mean) duration of one block access under this model.
    #[must_use]
    pub fn expected(&self) -> Duration {
        self.base + self.jitter / 2
    }
}

/// One xorshift64 step.
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Maps a 64-bit random word to `[0, max_ns]` **inclusive**, bias-free:
/// widening multiply instead of modulo (see [`SanLatency`]).
fn jitter_ns(word: u64, max_ns: u64) -> u64 {
    ((u128::from(word) * (u128::from(max_ns) + 1)) >> 64) as u64
}

/// Cumulative footprint of one disk: the block-level accounting the SAN
/// scenario driver reports alongside the register-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanDiskStats {
    /// Total block accesses served (reads + writes).
    pub accesses: u64,
    /// Distinct blocks ever read or written through the access path.
    pub blocks_touched: u64,
    /// Total simulated service time slept across all accesses.
    pub service_time: Duration,
}

/// A shared block device: the network-attached disk.
///
/// Blocks are 8-byte values addressed by `u64`. Every access sleeps
/// according to the latency model; the block map itself is protected by a
/// lock, so individual block reads/writes are trivially linearizable —
/// exactly the atomic-register abstraction a SAN controller provides.
#[derive(Debug)]
pub struct SanDisk {
    state: Mutex<DiskState>,
    latency: SanLatency,
    rng_state: AtomicU64,
    accesses: AtomicU64,
    service_ns: AtomicU64,
    /// Service-time multiplier (1 = calm). Chaos latency storms raise it
    /// for a window and drop it back; see [`SanDisk::set_storm_factor`].
    storm_factor: AtomicU64,
}

#[derive(Debug, Default)]
struct DiskState {
    blocks: HashMap<u64, u64>,
    /// Every address that went through the attributed access path.
    touched: HashSet<u64>,
}

impl SanDisk {
    /// Creates a disk with the given latency model; `seed` drives the
    /// jitter sequence.
    #[must_use]
    pub fn new(latency: SanLatency, seed: u64) -> Arc<Self> {
        Arc::new(SanDisk {
            state: Mutex::new(DiskState::default()),
            latency,
            rng_state: AtomicU64::new(seed | 1),
            accesses: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
            storm_factor: AtomicU64::new(1),
        })
    }

    /// This disk's latency model.
    #[must_use]
    pub fn latency(&self) -> SanLatency {
        self.latency
    }

    /// Sets the latency-storm multiplier applied to every access's
    /// simulated service time (clamped to ≥ 1; 1 restores calm). This is
    /// how chaos campaigns realize a `storm` phase on the SAN: the disk
    /// itself slows, the election algorithms above are untouched.
    pub fn set_storm_factor(&self, factor: u64) {
        self.storm_factor.store(factor.max(1), Ordering::Relaxed);
    }

    /// The current storm multiplier (1 = calm).
    #[must_use]
    pub fn storm_factor(&self) -> u64 {
        self.storm_factor.load(Ordering::Relaxed)
    }

    fn simulate_latency(&self) {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        if self.latency.base.is_zero() && self.latency.jitter.is_zero() {
            return;
        }
        let jitter = if self.latency.jitter.is_zero() {
            Duration::ZERO
        } else {
            let s = self.advance_jitter_rng();
            Duration::from_nanos(jitter_ns(s, self.latency.jitter.as_nanos() as u64))
        };
        let factor = self.storm_factor.load(Ordering::Relaxed);
        let service =
            (self.latency.base + jitter).saturating_mul(u32::try_from(factor).unwrap_or(u32::MAX));
        self.service_ns
            .fetch_add(service.as_nanos() as u64, Ordering::Relaxed);
        if !service.is_zero() {
            std::thread::sleep(service);
        }
    }

    /// Claims the next step of the shared jitter sequence, atomically.
    ///
    /// Concurrent accessors must each observe a *distinct* step: a plain
    /// load/store pair here loses updates under contention and hands
    /// racing accessors identical jitter, which is exactly the bug the
    /// CAS loop (`fetch_update`) closes — after any interleaving, the
    /// state equals a single-threaded replay of one xorshift step per
    /// jittered access.
    fn advance_jitter_rng(&self) -> u64 {
        self.rng_state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(xorshift(s)))
            .map(xorshift)
            .expect("xorshift update always succeeds")
    }

    /// Reads block `addr` (zero if never written).
    #[must_use]
    pub fn read_block(&self, addr: u64) -> u64 {
        self.simulate_latency();
        let mut state = self.state.lock();
        state.touched.insert(addr);
        *state.blocks.get(&addr).unwrap_or(&0)
    }

    /// Writes block `addr`.
    pub fn write_block(&self, addr: u64, value: u64) {
        self.simulate_latency();
        let mut state = self.state.lock();
        state.touched.insert(addr);
        state.blocks.insert(addr, value);
    }

    /// Reads block `addr` without latency or accounting (harness-side, the
    /// analogue of a register `peek`).
    #[must_use]
    pub fn peek_block(&self, addr: u64) -> u64 {
        *self.state.lock().blocks.get(&addr).unwrap_or(&0)
    }

    /// Writes block `addr` without latency or accounting (harness-side, the
    /// analogue of a register `poke`; also how initial values are seeded).
    pub fn poke_block(&self, addr: u64, value: u64) {
        self.state.lock().blocks.insert(addr, value);
    }

    /// Total block accesses served (reads + writes).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// The jitter RNG state after the accesses served so far — a pure
    /// function of the seed and the access count, which the regression
    /// tests replay single-threadedly to prove no RNG step was lost.
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng_state.load(Ordering::Relaxed)
    }

    /// Cumulative block-level footprint: accesses, distinct blocks
    /// touched, and total simulated service time.
    #[must_use]
    pub fn stats(&self) -> SanDiskStats {
        SanDiskStats {
            accesses: self.accesses(),
            blocks_touched: self.state.lock().touched.len() as u64,
            service_time: Duration::from_nanos(self.service_ns.load(Ordering::Relaxed)),
        }
    }

    /// A shared-memory space whose registers live on this disk, one block
    /// per register (see [`MemorySpace::with_block_device`]) — the layout
    /// the scenario crate's `WallDriver` realizes SAN elections over.
    #[must_use]
    pub fn memory_space(self: &Arc<Self>, n_processes: usize) -> MemorySpace {
        MemorySpace::with_block_device(n_processes, Arc::clone(self) as Arc<dyn BlockDevice>)
    }
}

impl BlockDevice for SanDisk {
    fn read_block(&self, addr: u64) -> u64 {
        SanDisk::read_block(self, addr)
    }

    fn write_block(&self, addr: u64, value: u64) {
        SanDisk::write_block(self, addr, value);
    }

    fn peek_block(&self, addr: u64) -> u64 {
        SanDisk::peek_block(self, addr)
    }

    fn poke_block(&self, addr: u64, value: u64) {
        SanDisk::poke_block(self, addr, value);
    }
}

/// A 1WnR natural-number register stored in a disk block.
///
/// The owner machine writes the block; everyone reads it. This is the
/// standard SAN realization of the paper's register model (one block — or
/// one disk sector per writer — per register).
///
/// # Examples
///
/// ```
/// use omega_runtime::san::{DiskNatRegister, SanDisk, SanLatency};
/// use omega_registers::ProcessId;
///
/// let disk = SanDisk::new(SanLatency::instant(), 7);
/// let owner = ProcessId::new(0);
/// let reg = DiskNatRegister::new(disk, 0x10, owner);
/// reg.write(owner, 42);
/// assert_eq!(reg.read(ProcessId::new(1)), 42);
/// ```
#[derive(Debug, Clone)]
pub struct DiskNatRegister {
    disk: Arc<SanDisk>,
    addr: u64,
    owner: ProcessId,
}

impl DiskNatRegister {
    /// Maps a register onto block `addr`, owned by `owner`.
    #[must_use]
    pub fn new(disk: Arc<SanDisk>, addr: u64, owner: ProcessId) -> Self {
        DiskNatRegister { disk, addr, owner }
    }

    /// The owning machine.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Reads the register on behalf of any machine.
    #[must_use]
    pub fn read(&self, _reader: ProcessId) -> u64 {
        self.disk.read_block(self.addr)
    }

    /// Writes the register.
    ///
    /// # Panics
    ///
    /// Panics if `writer` is not the owner.
    pub fn write(&self, writer: ProcessId, value: u64) {
        assert_eq!(
            writer, self.owner,
            "machine {writer} attempted to write a disk register owned by {}",
            self.owner
        );
        self.disk.write_block(self.addr, value);
    }
}

/// A 1WnR boolean register stored in a disk block.
#[derive(Debug, Clone)]
pub struct DiskFlagRegister {
    inner: DiskNatRegister,
}

impl DiskFlagRegister {
    /// Maps a flag register onto block `addr`, owned by `owner`.
    #[must_use]
    pub fn new(disk: Arc<SanDisk>, addr: u64, owner: ProcessId) -> Self {
        DiskFlagRegister {
            inner: DiskNatRegister::new(disk, addr, owner),
        }
    }

    /// Reads the flag on behalf of any machine.
    #[must_use]
    pub fn read(&self, reader: ProcessId) -> bool {
        self.inner.read(reader) != 0
    }

    /// Writes the flag.
    ///
    /// # Panics
    ///
    /// Panics if `writer` is not the owner.
    pub fn write(&self, writer: ProcessId, value: bool) {
        self.inner.write(writer, u64::from(value));
    }
}

/// The Figure-2 register layout mapped onto one shared disk: `PROGRESS[i]`
/// at block `i`, `STOP[i]` at block `n + i`, `SUSPICIONS[i][k]` at block
/// `2n + i·n + k`.
#[derive(Debug)]
pub struct DiskRegisterLayout {
    n: usize,
    /// `PROGRESS[i]`, owned by machine `i`.
    pub progress: Vec<DiskNatRegister>,
    /// `STOP[i]`, owned by machine `i`.
    pub stop: Vec<DiskFlagRegister>,
    /// `SUSPICIONS[i][k]`, row-owned.
    pub suspicions: Vec<Vec<DiskNatRegister>>,
}

impl DiskRegisterLayout {
    /// Lays out the Figure-2 registers for `n` machines on `disk`.
    #[must_use]
    pub fn new(disk: &Arc<SanDisk>, n: usize) -> Self {
        let progress = (0..n)
            .map(|i| DiskNatRegister::new(Arc::clone(disk), i as u64, ProcessId::new(i)))
            .collect();
        let stop = (0..n)
            .map(|i| DiskFlagRegister::new(Arc::clone(disk), (n + i) as u64, ProcessId::new(i)))
            .collect();
        let suspicions = (0..n)
            .map(|i| {
                (0..n)
                    .map(|k| {
                        DiskNatRegister::new(
                            Arc::clone(disk),
                            (2 * n + i * n + k) as u64,
                            ProcessId::new(i),
                        )
                    })
                    .collect()
            })
            .collect();
        DiskRegisterLayout {
            n,
            progress,
            stop,
            suspicions,
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total disk blocks the layout occupies.
    #[must_use]
    pub fn blocks(&self) -> usize {
        2 * self.n + self.n * self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_registers::lincheck::{is_linearizable, HistoryRecorder};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn blocks_default_to_zero() {
        let disk = SanDisk::new(SanLatency::instant(), 1);
        assert_eq!(disk.read_block(99), 0);
    }

    #[test]
    fn block_roundtrip_and_access_count() {
        let disk = SanDisk::new(SanLatency::instant(), 1);
        disk.write_block(4, 123);
        assert_eq!(disk.read_block(4), 123);
        assert_eq!(disk.accesses(), 2);
    }

    #[test]
    fn disk_register_enforces_ownership() {
        let disk = SanDisk::new(SanLatency::instant(), 1);
        let reg = DiskNatRegister::new(disk, 0, p(1));
        assert_eq!(reg.owner(), p(1));
        reg.write(p(1), 9);
        assert_eq!(reg.read(p(0)), 9);
    }

    #[test]
    #[should_panic(expected = "attempted to write a disk register")]
    fn disk_register_rejects_foreign_writer() {
        let disk = SanDisk::new(SanLatency::instant(), 1);
        let reg = DiskNatRegister::new(disk, 0, p(1));
        reg.write(p(0), 9);
    }

    #[test]
    fn flag_register_roundtrip() {
        let disk = SanDisk::new(SanLatency::instant(), 1);
        let flag = DiskFlagRegister::new(disk, 7, p(0));
        assert!(!flag.read(p(1)), "unwritten flag reads false");
        flag.write(p(0), true);
        assert!(flag.read(p(1)));
        flag.write(p(0), false);
        assert!(!flag.read(p(1)));
    }

    #[test]
    fn layout_assigns_distinct_blocks_and_owners() {
        let disk = SanDisk::new(SanLatency::instant(), 1);
        let layout = DiskRegisterLayout::new(&disk, 3);
        assert_eq!(layout.n(), 3);
        assert_eq!(layout.blocks(), 6 + 9);
        // Write through every register; each must land in its own block.
        for i in 0..3 {
            layout.progress[i].write(p(i), 100 + i as u64);
            layout.stop[i].write(p(i), true);
            for k in 0..3 {
                layout.suspicions[i][k].write(p(i), (10 * i + k) as u64);
            }
        }
        for i in 0..3 {
            assert_eq!(layout.progress[i].read(p(0)), 100 + i as u64);
            for k in 0..3 {
                assert_eq!(layout.suspicions[i][k].read(p(0)), (10 * i + k) as u64);
            }
        }
    }

    #[test]
    fn concurrent_jitter_rng_loses_no_steps() {
        // The headline regression: the xorshift state must advance by
        // exactly one distinct step per jittered access even under heavy
        // thread contention. The old load/store pair lost updates (two
        // racing accessors read the same state, slept identical jitter,
        // and left the sequence short). Hammer the advance primitive from
        // many threads in a tight loop — the contention profile where the
        // torn pair reliably loses steps even on a single-core host — and
        // assert the post-run state equals a single-threaded replay of
        // exactly one step per access.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 1_000_000;
        let seed = 0x00DE_C0DE;
        let disk = SanDisk::new(SanLatency::commodity(), seed);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let disk = Arc::clone(&disk);
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        std::hint::black_box(disk.advance_jitter_rng());
                    }
                });
            }
        });
        let mut replay = seed | 1;
        for _ in 0..THREADS as u64 * PER_THREAD {
            replay = super::xorshift(replay);
        }
        assert_eq!(
            disk.rng_state(),
            replay,
            "jitter RNG lost steps under contention"
        );
    }

    #[test]
    fn concurrent_accesses_replay_as_a_single_thread() {
        // End-to-end version of the regression above, through the public
        // block API: after a many-thread run with jittered latency, the
        // RNG state must equal a single-threaded replay of `accesses()`
        // steps (every access drew jitter exactly once, none were lost or
        // duplicated).
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 2_000;
        let seed = 77;
        let disk = SanDisk::new(
            SanLatency {
                base: Duration::ZERO,
                // 1 ns keeps the RNG hot while sleeping ~nothing.
                jitter: Duration::from_nanos(1),
            },
            seed,
        );
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let disk = Arc::clone(&disk);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        if (i + t as u64).is_multiple_of(2) {
                            let _ = disk.read_block(i % 64);
                        } else {
                            disk.write_block(i % 64, i);
                        }
                    }
                });
            }
        });
        let accesses = disk.accesses();
        assert_eq!(accesses, THREADS as u64 * PER_THREAD);
        let mut replay = seed | 1;
        for _ in 0..accesses {
            replay = super::xorshift(replay);
        }
        assert_eq!(disk.rng_state(), replay);
    }

    #[test]
    fn jitter_is_inclusive_and_unbiased() {
        // Drive the pure jitter map over a long xorshift sequence: every
        // value in [0, max] must be reachable — including the maximum,
        // which the old `s % max` could never produce — with no gross bias
        // towards small residues.
        let max = 3u64;
        let mut s = 1u64;
        let mut counts = [0u64; 4];
        for _ in 0..40_000 {
            s = super::xorshift(s);
            counts[super::jitter_ns(s, max) as usize] += 1;
        }
        for (value, &count) in counts.iter().enumerate() {
            let expected = 40_000 / counts.len() as u64;
            assert!(
                count > expected * 8 / 10 && count < expected * 12 / 10,
                "jitter value {value} drawn {count} times (expected ~{expected})"
            );
        }
        // Degenerate cases.
        assert_eq!(super::jitter_ns(u64::MAX, 0), 0);
        assert_eq!(super::jitter_ns(u64::MAX, 7), 7, "max must be reachable");
        assert_eq!(super::jitter_ns(0, 7), 0);
    }

    #[test]
    fn disk_stats_track_blocks_and_service_time() {
        let disk = SanDisk::new(SanLatency::instant(), 3);
        disk.write_block(0, 1);
        disk.write_block(0, 2);
        let _ = disk.read_block(1);
        let _ = disk.peek_block(9); // harness-side: invisible
        disk.poke_block(9, 5); // harness-side: invisible
        let stats = disk.stats();
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.blocks_touched, 2, "blocks 0 and 1");
        assert_eq!(stats.service_time, Duration::ZERO);

        let jittery = SanDisk::new(
            SanLatency {
                base: Duration::from_nanos(100),
                jitter: Duration::ZERO,
            },
            3,
        );
        let _ = jittery.read_block(0);
        assert!(jittery.stats().service_time >= Duration::from_nanos(100));
    }

    #[test]
    fn storm_factor_multiplies_service_time() {
        let disk = SanDisk::new(
            SanLatency {
                base: Duration::from_nanos(100),
                jitter: Duration::ZERO,
            },
            3,
        );
        assert_eq!(disk.storm_factor(), 1);
        let _ = disk.read_block(0);
        let calm = disk.stats().service_time;
        assert_eq!(calm, Duration::from_nanos(100));
        disk.set_storm_factor(5);
        let _ = disk.read_block(0);
        assert_eq!(
            disk.stats().service_time - calm,
            Duration::from_nanos(500),
            "stormed access pays factor x the calm service time"
        );
        // Clamped to >= 1: a zero factor cannot make the disk free.
        disk.set_storm_factor(0);
        assert_eq!(disk.storm_factor(), 1);
    }

    #[test]
    fn disk_backed_memory_space_runs_registers_over_blocks() {
        let disk = SanDisk::new(SanLatency::instant(), 11);
        let space = disk.memory_space(2);
        let progress = space.nat_array("PROGRESS", |_| 0);
        progress.get(p(0)).write(p(0), 42);
        assert_eq!(progress.get(p(0)).read(p(1)), 42);
        // Register-level and block-level accounting agree.
        assert_eq!(space.stats().total_writes(), 1);
        assert_eq!(space.stats().total_reads(), 1);
        assert_eq!(disk.accesses(), 2);
        // The value physically lives in the block the layout mapper chose.
        let map = space.block_map().expect("disk-backed space");
        assert_eq!(disk.peek_block(map.addr_of("PROGRESS[0]").unwrap()), 42);
    }

    #[test]
    fn latency_model_is_deterministic_in_value_space() {
        // Same seed → same jitter sequence → identical data outcomes.
        let run = |seed| {
            let disk = SanDisk::new(SanLatency::instant(), seed);
            disk.write_block(0, 5);
            disk.read_block(0)
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn concurrent_disk_register_accesses_linearize() {
        let disk = SanDisk::new(
            SanLatency {
                base: Duration::from_micros(10),
                jitter: Duration::from_micros(20),
            },
            42,
        );
        let reg = DiskNatRegister::new(disk, 0, p(0));
        let rec = Arc::new(HistoryRecorder::new());
        std::thread::scope(|s| {
            {
                let reg = reg.clone();
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for v in 1..=15u64 {
                        rec.write(p(0), v, || reg.write(p(0), v));
                    }
                });
            }
            for r in 1..3 {
                let reg = reg.clone();
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for _ in 0..15 {
                        rec.read(p(r), || reg.read(p(r)));
                    }
                });
            }
        });
        let history = Arc::into_inner(rec).unwrap().finish();
        assert!(
            is_linearizable(&history, 0),
            "disk registers must be atomic"
        );
    }
}
