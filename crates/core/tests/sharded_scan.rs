//! The sharded/epoch-cached scan must be invisible to the election.
//!
//! `leader()` now answers from an epoch-validated local cache of the
//! `SUSPICIONS` matrix, and `T3` scans round-robin shards instead of the
//! whole system. Neither layer may change *what is elected*: at every
//! observable point, `leader()` must equal the Figure-2 reference — the
//! least-suspected member of the process's candidate set, computed from a
//! direct (unattributed) read of the whole shared matrix.
//!
//! Seeded-loop property tests (the repo's no-dependency stand-in for
//! proptest): randomized initial matrices, randomized schedules, every
//! seed asserted, failures reproducible from the seed.

use std::sync::Arc;

use omega_core::{
    elect_least_suspected, Alg1Memory, Alg1Process, Alg2Memory, Alg2Process, CandidateInit,
    MwmrMemory, MwmrProcess, OmegaProcess,
};
use omega_registers::{MemorySpace, ProcessId};

/// xorshift64* — deterministic pseudo-randomness from a seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// The Figure-2 reference election for `proc`: least-suspected candidate
/// by *global* suspicion totals, read directly off the shared memory.
fn reference_leader_alg1(mem: &Alg1Memory, proc: &Alg1Process) -> ProcessId {
    elect_least_suspected(proc.candidates(), |k| mem.peek_total_suspicions(k))
        .expect("candidates always contain self")
}

#[test]
fn sharded_leader_matches_full_scan_reference_on_random_matrices() {
    for seed in 0..40 {
        let mut rng = Rng::new(seed);
        let n = 3 + (rng.below(10) as usize); // 3..=12
        let space = MemorySpace::new(n);
        let mem = Alg1Memory::new(&space);
        // Arbitrary initial shared state (footnote 7).
        mem.corrupt(rng.next());
        // Processes created after corruption, with narrow shards so that
        // n > shard exercises the round-robin slicing.
        let mut procs: Vec<Alg1Process> = ProcessId::all(n)
            .map(|pid| {
                Alg1Process::new(Arc::clone(&mem), pid).with_scan_shard(1 + (rng.below(4) as usize))
            })
            .collect();
        // Random schedule of T2 steps and T3 passes; after every event the
        // stepped process's election must match the reference.
        for _ in 0..200 {
            let i = rng.below(n as u64) as usize;
            if rng.below(2) == 0 {
                procs[i].t2_step();
            } else {
                let _ = procs[i].on_timer_expire();
            }
            let observed = procs[i].leader();
            let expected = reference_leader_alg1(&mem, &procs[i]);
            assert_eq!(
                observed, expected,
                "seed {seed}: p{i} diverged from the full-scan reference"
            );
        }
        // And every process agrees with its own reference at the end.
        for proc in &procs {
            assert_eq!(proc.leader(), reference_leader_alg1(&mem, proc));
        }
    }
}

#[test]
fn alg2_sharded_leader_matches_reference() {
    for seed in 0..25 {
        let mut rng = Rng::new(0xa162 ^ seed);
        let n = 3 + (rng.below(8) as usize);
        let space = MemorySpace::new(n);
        let mem = Alg2Memory::new(&space);
        mem.corrupt(rng.next());
        let mut procs: Vec<Alg2Process> = ProcessId::all(n)
            .map(|pid| {
                Alg2Process::with_candidates(Arc::clone(&mem), pid, CandidateInit::Full)
                    .with_scan_shard(1 + (rng.below(3) as usize))
            })
            .collect();
        for _ in 0..150 {
            let i = rng.below(n as u64) as usize;
            if rng.below(2) == 0 {
                procs[i].t2_step();
            } else {
                let _ = procs[i].on_timer_expire();
            }
            let proc = &procs[i];
            let expected = elect_least_suspected(proc.candidates(), |k| {
                ProcessId::all(n)
                    .map(|j| mem.peek_suspicions(j, k))
                    .sum::<u64>()
            })
            .unwrap();
            assert_eq!(proc.leader(), expected, "seed {seed}: p{i} diverged");
        }
    }
}

/// `proc`'s `leader()` against the least-suspected of its candidates by
/// the shared counters, read directly.
fn assert_mwmr_leader(mem: &MwmrMemory, proc: &MwmrProcess, context: &str) {
    let expected = elect_least_suspected(proc.candidates(), |k| mem.peek_suspicions(k)).unwrap();
    assert_eq!(
        proc.leader(),
        expected,
        "{context}: {} diverged",
        proc.pid()
    );
}

#[test]
fn mwmr_cached_leader_matches_shared_counters() {
    for seed in 0..25 {
        let mut rng = Rng::new(0x3575 ^ seed);
        let n = 3 + (rng.below(8) as usize);
        let space = MemorySpace::new(n);
        let mem = MwmrMemory::new(&space);
        let mut procs: Vec<MwmrProcess> = ProcessId::all(n)
            .map(|pid| MwmrProcess::new(Arc::clone(&mem), pid))
            .collect();
        for _ in 0..150 {
            let i = rng.below(n as u64) as usize;
            if rng.below(2) == 0 {
                procs[i].t2_step();
            } else {
                let _ = procs[i].on_timer_expire();
            }
            assert_mwmr_leader(&mem, &procs[i], &format!("seed {seed}"));
        }
    }
    // Several shards a rotation, at widths set through `with_scan_shard`,
    // so that passes over shards nobody wrote are booked. The counters are
    // bumped behind the processes' backs by a rogue process of the last
    // identity, which nobody elects from: two passes in a row suspect every
    // candidate of its own with `STOP` low (the counters are nWnR, anyone
    // may write them, and no public call pokes them).
    for n in [17, 40] {
        for width in [4, 16] {
            for seed in 0..4 {
                let mut rng = Rng::new(0x3575 ^ (n * 1_000 + width * 10 + seed) as u64);
                let space = MemorySpace::new(n);
                let mem = MwmrMemory::new(&space);
                let mut procs: Vec<MwmrProcess> = ProcessId::all(n)
                    .map(|pid| MwmrProcess::new(Arc::clone(&mem), pid).with_scan_shard(width))
                    .collect();
                let mut rogue =
                    MwmrProcess::new(Arc::clone(&mem), ProcessId::new(n - 1)).with_scan_shard(n);
                // Storms of random operations, each followed by calm
                // rounds of a step and a pass by every process in turn, in
                // which the run settles and passes get booked.
                for period in 0..3 {
                    for op in 0..n {
                        let i = rng.below(n as u64) as usize;
                        match rng.below(100) {
                            0..=44 => procs[i].t2_step(),
                            45..=94 => {
                                let _ = procs[i].on_timer_expire();
                            }
                            _ => {
                                let _ = rogue.on_timer_expire();
                                let _ = rogue.on_timer_expire();
                            }
                        }
                        let context =
                            format!("n {n}, width {width}, seed {seed}, storm {period}.{op}");
                        assert_mwmr_leader(&mem, &procs[i], &context);
                    }
                    for round in 0..2 * n.div_ceil(width) + 2 {
                        for (i, proc) in procs.iter_mut().enumerate() {
                            let context = format!(
                                "n {n}, width {width}, seed {seed}, calm {period}.{round}.{i}"
                            );
                            proc.t2_step();
                            assert_mwmr_leader(&mem, proc, &context);
                            let _ = proc.on_timer_expire();
                            assert_mwmr_leader(&mem, proc, &context);
                        }
                    }
                }
                for proc in &procs {
                    assert_mwmr_leader(&mem, proc, &format!("n {n}, width {width}, seed {seed}"));
                }
            }
        }
    }
}

#[test]
fn quiescent_leader_queries_cost_no_shared_reads() {
    // After a run settles, repeated leader() calls must be read-free: the
    // whole point of the epoch layer.
    let n = 8;
    let space = MemorySpace::new(n);
    let mem = Alg1Memory::new(&space);
    let mut procs: Vec<Alg1Process> = ProcessId::all(n)
        .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
        .collect();
    for _ in 0..30 {
        for proc in procs.iter_mut() {
            proc.t2_step();
            let _ = proc.on_timer_expire();
        }
    }
    let before = space.stats();
    let skipped_before = before.scan().reads_skipped;
    for proc in &procs {
        let _ = proc.leader();
    }
    let after = space.stats();
    assert_eq!(
        after.total_reads(),
        before.total_reads(),
        "quiescent leader() must not touch shared memory"
    );
    assert!(
        after.scan().reads_skipped > skipped_before,
        "the skips must be accounted"
    );
}

#[test]
fn shard_passes_are_counted() {
    let n = 40; // > T3_SHARD_SIZE: multiple passes per full rotation
    assert!(n > omega_core::T3_SHARD_SIZE);
    let space = MemorySpace::new(n);
    let mem = Alg1Memory::new(&space);
    let mut proc = Alg1Process::new(mem, ProcessId::new(0));
    let rotations = n.div_ceil(omega_core::T3_SHARD_SIZE);
    for _ in 0..rotations {
        let _ = proc.on_timer_expire();
    }
    assert_eq!(space.stats().scan().shard_passes, rotations as u64);
}
