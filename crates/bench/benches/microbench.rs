//! Micro-benchmarks: the cost of the building blocks.
//!
//! These complement the figure/table binaries (which regenerate the paper's
//! shapes) with raw operation costs: register access, the `leader()` query
//! (task `T1`) as a function of `n`, one `T2`/`T3` step of each algorithm,
//! a full single-leader consensus decision, and the two things the
//! replicated log does per slot and per poll (allocate an instance; step a
//! follower over an undecided slot).
//!
//! Dependency-free harness (`harness = false`): each benchmark is run in
//! batches until ~50 ms of samples accumulate, then the per-iteration
//! median batch cost is reported in nanoseconds (and the best batch beside
//! it, which is what to compare on a host with noisy neighbours). Run with
//! `cargo bench -p omega-bench`; a trailing argument keeps only the rows
//! whose `group/name` contains it (`cargo bench -p omega-bench -- in_situ`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_consensus::{ConsensusInstance, ConsensusProcess, KvCommand, LogHandle, LogShared};
use omega_core::{
    elect_least_suspected, Alg1Memory, Alg1Process, Alg2Memory, Alg2Process, CandidateInit,
    OmegaProcess,
};
use omega_registers::{MemorySpace, ProcessId, ProcessSet};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Alg1 at `n` over deferred counters (as the simulator builds it), run to
/// the stable state: p0 leads and heartbeats, everyone else has resigned,
/// so a `T3` pass is reads and compares only — and every process has read
/// every register at least once on the way there.
fn stabilized_alg1(n: usize) -> (MemorySpace, Vec<Alg1Process>) {
    let space = MemorySpace::with_instrumentation(n, omega_registers::Instrumentation::Deferred);
    let mem = Alg1Memory::new(&space);
    let mut procs: Vec<Alg1Process> = ProcessId::all(n)
        .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
        .collect();
    for _ in 0..2 * n {
        procs.iter_mut().for_each(|q| q.t2_step());
        procs.iter_mut().for_each(|q| {
            std::hint::black_box(q.on_timer_expire());
        });
    }
    (space, procs)
}

/// Runs `op` in growing batches until ~50 ms of samples exist; reports the
/// median per-iteration cost.
fn bench(group: &str, name: &str, op: impl FnMut()) {
    bench_per(group, name, 1, op);
}

/// [`bench`] for an `op` that performs `per` units of the work being
/// priced: reports the median cost of one unit.
fn bench_per(group: &str, name: &str, per: usize, mut op: impl FnMut()) {
    let wanted = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if wanted.is_some_and(|wanted| !format!("{group}/{name}").contains(&wanted)) {
        return;
    }
    // Warm-up.
    for _ in 0..16 {
        op();
    }
    // Calibrate a batch that takes roughly 1 ms.
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        if start.elapsed() >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let mut per_iter: Vec<f64> = Vec::new();
    let budget = Instant::now();
    while budget.elapsed() < Duration::from_millis(50) {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let (median, best) = (per_iter[per_iter.len() / 2], per_iter[0]);
    println!(
        "{group}/{name:<28} {:>12.1} ns/iter  (best {:.1}; {} samples x {batch})",
        median / per as f64,
        best / per as f64,
        per_iter.len()
    );
}

fn bench_registers() {
    let space = MemorySpace::new(4);
    let nat = space.nat_register("R", p(0), 0);
    let flag = space.flag_register("F", p(0), false);
    let lock = space.swmr::<u64>("L", p(0), 0);

    let mut v = 0u64;
    bench("registers", "nat_write", || {
        v = v.wrapping_add(1);
        nat.write(p(0), v);
    });
    bench("registers", "nat_read", || {
        let _ = nat.read(p(1));
    });
    bench("registers", "flag_write", || flag.write(p(0), true));
    bench("registers", "lock_cell_write", || lock.write(p(0), 7));
    bench("registers", "lock_cell_read", || {
        let _ = lock.read(p(2));
    });

    // What the simulator's actors pay: unsynchronized counters.
    let space = MemorySpace::with_instrumentation(4, omega_registers::Instrumentation::Deferred);
    let nat = space.nat_register("R", p(0), 0);
    bench("registers", "nat_write_deferred", || {
        v = v.wrapping_add(1);
        nat.write(p(0), v);
    });
    bench("registers", "nat_read_deferred", || {
        std::hint::black_box(nat.read(p(1)));
    });
}

fn bench_leader_query() {
    for n in [2usize, 4, 8, 16, 32, 64] {
        let space = MemorySpace::new(n);
        let mem = Alg1Memory::new(&space);
        let proc0 = Alg1Process::new(Arc::clone(&mem), p(0));
        bench("leader_query", &format!("alg1_t1/{n}"), || {
            let _ = proc0.leader();
        });
    }
}

fn bench_steps() {
    for n in [4usize, 16] {
        let space = MemorySpace::new(n);
        let mem = Alg1Memory::new(&space);
        let mut proc0 = Alg1Process::new(Arc::clone(&mem), p(0));
        bench("steps", &format!("alg1_t2_step/{n}"), || proc0.t2_step());
        let mut proc1 = Alg1Process::new(Arc::clone(&mem), p(1));
        bench("steps", &format!("alg1_t3_scan/{n}"), || {
            let _ = proc1.on_timer_expire();
        });

        let space2 = MemorySpace::new(n);
        let mem2 = Alg2Memory::new(&space2);
        let mut q0 = Alg2Process::new(Arc::clone(&mem2), p(0));
        bench("steps", &format!("alg2_t2_step/{n}"), || q0.t2_step());
        let mut q1 = Alg2Process::new(Arc::clone(&mem2), p(1));
        bench("steps", &format!("alg2_t3_scan/{n}"), || {
            let _ = q1.on_timer_expire();
        });
    }
}

/// The hot-cache rows above time one process scanning alone, its registers
/// resident in L1. In a run every process takes its turn, so each pass
/// finds the lines it needs evicted by the n − 1 passes before it. These
/// rows take the turns: one call is one `T3` pass (or one refresh) by each
/// of the n processes in order, as the simulator schedules them, and the
/// figure is per pass.
///
/// In `alg1_t3_round` and `alg1_t3_round_partitioned` the leader never
/// steps, so no shard is ever written: once each process has suspected
/// the silent leader, every pass is a booked one (the `T3` memo). `alg1_t3_round_heartbeat` prices the mix a
/// stabilized run sees: p0 heartbeats once a round, so the passes over
/// its shard read and the others are booked.
fn bench_in_situ() {
    use omega_registers::Instrumentation;
    use std::hint::black_box;

    for n in [48usize, 128] {
        for (row, partitioned, heartbeat) in [
            ("alg1_t3_round", false, false),
            ("alg1_t3_round_partitioned", true, false),
            ("alg1_t3_round_heartbeat", false, true),
        ] {
            let (space, mut procs) = stabilized_alg1(n);
            if partitioned {
                let (left, right) = (ProcessId::all(n / 2), (n / 2..n).map(p));
                space.install_partition(&[left.collect(), right.collect()]);
            }
            bench_per("in_situ", &format!("{row}/{n}"), n, || {
                if heartbeat {
                    procs[0].t2_step();
                }
                for q in &mut procs {
                    black_box(q.on_timer_expire());
                }
            });
        }
    }

    let n = 16;
    let space = MemorySpace::with_instrumentation(n, Instrumentation::Deferred);
    let progress = space.nat_array("PROGRESS", |_| 0);
    let mut buf = vec![0; n];
    bench("in_situ", "array_read_range/16", || {
        progress.read_range_into(p(1), 0..n, &mut buf);
        black_box(&buf);
    });
    bench("in_situ", "array_read_x16/16", || {
        for (k, out) in buf.iter_mut().enumerate() {
            *out = progress.get(p(k)).read(p(1));
        }
        black_box(&buf);
    });

    for n in [48usize, 128] {
        // What `leader()` does when one suspicion landed in a row: every
        // other process re-reads that row, the first into a fresh shared
        // copy, the rest adopting it. The suspicion is a real one: p1 scans
        // everyone each pass and suspects p_{n−1}, which trusts only itself
        // and so heartbeats with its flag low, a candidate again on p1's
        // next pass. A round is that heartbeat, p1's two passes (4n reads
        // against the n(n − 1) priced) and the n − 1 `leader()` calls.
        let space = MemorySpace::with_instrumentation(n, Instrumentation::Deferred);
        let mem = Alg1Memory::new(&space);
        let mut suspecter = Alg1Process::new(Arc::clone(&mem), p(1)).with_scan_shard(n);
        let mut readers: Vec<Alg1Process> = (0..n)
            .filter(|&i| i != 1)
            .map(|i| {
                let init = if i == n - 1 {
                    CandidateInit::SelfOnly
                } else {
                    CandidateInit::Full
                };
                Alg1Process::with_candidates(Arc::clone(&mem), p(i), init)
            })
            .collect();
        let mut rounds = 0;
        bench_per("in_situ", &format!("refresh_dirty_row/{n}"), n - 1, || {
            readers.last_mut().expect("n > 2").t2_step();
            black_box(suspecter.on_timer_expire());
            black_box(suspecter.on_timer_expire());
            for q in &readers {
                black_box(q.leader());
            }
            rounds += 1;
        });
        assert_eq!(
            mem.peek_suspicions(p(1), p(n - 1)),
            rounds,
            "one suspicion a round"
        );
    }
}

fn bench_election_rule() {
    for n in [8usize, 64, 256] {
        let candidates = ProcessSet::full(n);
        let counts: Vec<u64> = (0..n).map(|i| (i as u64 * 7919) % 1000).collect();
        bench("lexmin", &format!("elect_least_suspected/{n}"), || {
            let _ = elect_least_suspected(&candidates, |q| counts[q.index()]);
        });
    }
}

fn bench_simulator_throughput() {
    use omega_scenario::{Driver, Scenario, SimDriver};

    for n in [4usize, 16] {
        let scenario = Scenario::fault_free(omega_core::OmegaVariant::Alg1, n)
            .horizon(10_000)
            .sample_every(100)
            .seed(9);
        bench("simulator", &format!("alg1_full_run_10k_ticks/{n}"), || {
            let _ = SimDriver.run(&scenario);
        });
    }
}

fn bench_consensus() {
    for n in [3usize, 8] {
        bench("consensus", &format!("sole_leader_decide/{n}"), || {
            let space = MemorySpace::new(n);
            let inst = ConsensusInstance::<u64>::new(&space, "C");
            let mut proposer = ConsensusProcess::new(inst, p(0), 42);
            proposer
                .step_until_decided(p(0), 10 * n + 10)
                .expect("sole leader decides");
        });
    }

    // The service's shape: n = 5, `KvCommand` values.
    let n = 5;
    // What a follower does on all but a few percent of its polls (590 k
    // times in one rung of `serve-writes`): scan the held slot's `DEC`
    // bank, find nothing, and — not being the leader — stop.
    let shared = LogShared::<KvCommand>::new(MemorySpace::new(n));
    let mut follower = LogHandle::new(shared, p(1));
    bench("consensus", "log_step_idle", || follower.step(p(0)));

    // A rung's registry holds some 10 k slots; start a fresh space before
    // this one outgrows that (its drop is part of a slot's cost too).
    let mut space = MemorySpace::new(n);
    let mut slots = 0;
    bench("consensus", "instance_new", || {
        if slots == 10_000 {
            space = MemorySpace::new(n);
            slots = 0;
        }
        slots += 1;
        std::hint::black_box(ConsensusInstance::<KvCommand>::new(&space, "LOG[0]"));
    });
}

/// What a sim run does *around* its event loop, at the `elect-wide` size:
/// build the system, checkpoint the counters, diff two checkpoints, and
/// assemble the per-process and footprint parts of an `Outcome`.
fn bench_accounting() {
    use std::hint::black_box;

    // The run's `setup_s`: registers, counters and processes.
    for n in [128usize, 256] {
        bench("accounting", &format!("variant_build_and_drop/{n}"), || {
            black_box(omega_core::OmegaVariant::Alg1.build(n));
        });
    }

    let n = 128;
    // A stabilized space: every counter block is non-zero, as by a run's
    // second checkpoint.
    let (space, mut procs) = stabilized_alg1(n);
    let mut t3_round = move || {
        for q in &mut procs {
            black_box(q.on_timer_expire());
        }
    };
    bench("accounting", &format!("space_stats/{n}"), || {
        black_box(space.stats());
    });
    // A checkpoint of a quiescent run: a `T3` round (n ×
    // `in_situ/alg1_t3_round`) moves the counters, then the newest
    // checkpoint is refreshed in place, keeping the cells it overwrote.
    let (mut newest, mut newest_fp) = (space.stats(), space.footprint());
    bench("accounting", &format!("checkpoint_quiescent/{n}"), || {
        t3_round();
        black_box(space.checkpoint(&mut newest, &mut newest_fp));
    });
    let earlier = space.stats();
    t3_round();
    let later = space.stats();
    let (earlier_fp, later_fp) = (space.footprint(), space.footprint());
    bench("accounting", &format!("snapshot_delta_since/{n}"), || {
        black_box(later.delta_since(&earlier));
    });
    bench("accounting", &format!("per_process_totals/{n}"), || {
        black_box(later.per_process_totals());
    });
    bench("accounting", &format!("footprint_grown_since/{n}"), || {
        black_box(later_fp.grown_since(&earlier_fp));
    });
}

/// The event wheel as a wide run drives it: 2n entries in flight (a step
/// and a timer per process), each popped and pushed back a few keys ahead,
/// so the cursor sweeps all 4096 slots and every pop finds its slot cold —
/// the case a push-then-pop at one key never sees.
fn bench_wheel() {
    use omega_sim::rng::SmallRng;
    use omega_sim::wheel::TimerWheel;

    for n in [5usize, 128] {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..2 * n {
            wheel.push(rng.gen_range(1..=6), i as u32);
        }
        bench("sim", &format!("wheel_cycle/{n}"), || {
            let (key, _, payload) = wheel.pop().expect("the depth is constant");
            wheel.push(key + rng.gen_range(1..=6), payload);
        });
    }
}

fn main() {
    bench_registers();
    bench_leader_query();
    bench_steps();
    bench_in_situ();
    bench_election_rule();
    bench_simulator_throughput();
    bench_consensus();
    bench_accounting();
    bench_wheel();
}
