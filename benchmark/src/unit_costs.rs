//! Isolated unit costs of each layer's public operations, measured at the
//! workload's own `n` by batch-timed loops (the `microbench.rs` method,
//! but recorded). The traced pass multiplies them by the run's counts to
//! estimate a layer's busy time until spans exist inside the program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_consensus::{ConsensusInstance, ConsensusProcess};
use omega_core::{
    Alg1Memory, Alg1Process, Alg2Memory, Alg2Process, OmegaProcess, OmegaVariant, T3_SHARD_SIZE,
};
use omega_registers::{Instrumentation, MemorySpace, ProcessId};
use omega_runtime::coop::DeadlineQueue;
use omega_scenario::{spec_text, Scenario, SimDriver};
use omega_service::{Histogram, Ledger, WorkloadSpec};
use omega_sim::arrivals::OpenLoop;
use omega_sim::event::{EventKind, EventQueue};
use omega_sim::rng::SmallRng;
use omega_sim::wheel::TimerWheel;
use omega_sim::{SimTime, Trace};

use crate::stats;

/// Sampling budget of one batch-timed cost.
const BUDGET: Duration = Duration::from_millis(25);

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Median nanoseconds per call of `op`: batches calibrated to ~0.5 ms,
/// sampled until [`BUDGET`] is spent (at least five batches).
pub fn batch_ns(mut op: impl FnMut()) -> f64 {
    for _ in 0..16 {
        op();
    }
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        if start.elapsed() >= Duration::from_micros(500) || batch >= 1 << 22 {
            break;
        }
        batch *= 4;
    }
    let mut per_call = Vec::new();
    let budget = Instant::now();
    while budget.elapsed() < BUDGET || per_call.len() < 5 {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per_call)
}

/// Median nanoseconds of `op` when every call needs fresh state from
/// `prepare` (not timed): each call is timed on its own and the cost of
/// reading the clock is subtracted.
pub fn each_ns<S>(mut prepare: impl FnMut(u64) -> S, mut op: impl FnMut(S)) -> f64 {
    let clock = {
        let samples: Vec<f64> = (0..64)
            .map(|_| {
                let t = Instant::now();
                black_box(());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        stats::median(&samples)
    };
    let mut samples = Vec::new();
    let budget = Instant::now();
    let mut round = 0u64;
    while (budget.elapsed() < BUDGET * 2 || samples.len() < 5) && samples.len() < 4_096 {
        let state = prepare(round);
        round += 1;
        let t = Instant::now();
        op(state);
        samples.push((t.elapsed().as_nanos() as f64 - clock).max(0.0));
    }
    stats::median(&samples)
}

fn registers(n: usize, out: &mut Vec<(&'static str, f64)>) {
    let reader = p(1 % n);
    for (mode, read_name, write_name) in [
        (
            Instrumentation::Eager,
            "registers.nat_read_ns",
            "registers.nat_write_ns",
        ),
        (
            Instrumentation::Deferred,
            "registers.nat_read_deferred_ns",
            "registers.nat_write_deferred_ns",
        ),
    ] {
        let space = MemorySpace::with_instrumentation(n, mode);
        let nat = space.nat_register("R", p(0), 0);
        out.push((
            read_name,
            batch_ns(|| {
                black_box(nat.read(reader));
            }),
        ));
        let mut v = 0u64;
        out.push((
            write_name,
            batch_ns(|| {
                v = v.wrapping_add(1);
                nat.write(p(0), v);
            }),
        ));
    }
}

fn core(n: usize, out: &mut Vec<(&'static str, f64)>) {
    let space = MemorySpace::with_instrumentation(n, Instrumentation::Deferred);
    let mem = Alg1Memory::new(&space);
    let mut leader = Alg1Process::new(Arc::clone(&mem), p(0));
    black_box(leader.leader());
    out.push((
        "core.leader_quiescent_ns",
        batch_ns(|| {
            black_box(leader.leader());
        }),
    ));
    out.push(("core.t2_step_ns", batch_ns(|| leader.t2_step())));
    // A follower next to a silent system: after two rotations everyone but
    // itself has left its candidate set, so further passes only read.
    let mut follower = Alg1Process::new(Arc::clone(&mem), p(1 % n));
    let passes_per_rotation = n.div_ceil(T3_SHARD_SIZE.min(n));
    for _ in 0..2 * passes_per_rotation {
        black_box(follower.on_timer_expire());
    }
    out.push((
        "core.t3_scan_quiescent_ns",
        batch_ns(|| {
            black_box(follower.on_timer_expire());
        }),
    ));
    // Dirty leader(): `corrupt` rewrites every SUSPICIONS entry with an
    // epoch bump, so the next query re-reads all n − 1 foreign rows.
    out.push((
        "core.leader_dirty_ns",
        each_ns(
            |round| mem.corrupt(round + 1),
            |()| {
                black_box(leader.leader());
            },
        ),
    ));
    // Dirty T3: a fresh process over corrupted memory records progress on
    // its first rotation and, nothing having moved, suspects every
    // non-resigned candidate on the second. One pass of that rotation.
    out.push((
        "core.t3_scan_dirty_ns",
        each_ns(
            |round| {
                mem.corrupt(round + 1);
                let mut fresh = Alg1Process::new(Arc::clone(&mem), p(1 % n));
                for _ in 0..passes_per_rotation {
                    black_box(fresh.on_timer_expire());
                }
                fresh
            },
            |mut fresh| {
                black_box(fresh.on_timer_expire());
            },
        ),
    ));

    let space2 = MemorySpace::with_instrumentation(5, Instrumentation::Deferred);
    let mem2 = Alg2Memory::new(&space2);
    let mut q0 = Alg2Process::new(Arc::clone(&mem2), p(0));
    out.push(("core.alg2_t2_step_ns", batch_ns(|| q0.t2_step())));
    let mut q1 = Alg2Process::new(mem2, p(1));
    out.push((
        "core.alg2_t3_scan_ns",
        batch_ns(|| {
            black_box(q1.on_timer_expire());
        }),
    ));
}

fn sim(n: usize, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    // Steady state of the event loop: 2n pending events (a step and a
    // timer per process); each iteration pops one and schedules its
    // successor a few ticks later.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    for i in 0..2 * n {
        let at = SimTime::from_ticks(rng.gen_range(1..=6));
        queue.schedule(at, EventKind::Step(p(i % n)));
    }
    out.push((
        "sim.event_queue_ns",
        batch_ns(|| {
            let event = queue.pop().expect("queue stays full");
            let next = SimTime::from_ticks(event.time.ticks() + rng.gen_range(1..=6));
            queue.schedule(next, event.kind);
        }),
    ));
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    for i in 0..2 * n {
        wheel.push(rng.gen_range(1..=6), i as u32);
    }
    out.push((
        "sim.wheel_ns",
        batch_ns(|| {
            let (key, _, payload) = wheel.pop().expect("wheel stays full");
            wheel.push(key + rng.gen_range(1..=6), payload);
        }),
    ));

    let open = OpenLoop {
        clients: 2_000,
        mean_interarrival: 10_000,
        start: 0,
        stop: 100_000,
    };
    let arrivals = each_ns(
        |round| seed.wrapping_add(round),
        |s| {
            black_box(open.generate(s, |client, _| client));
        },
    );
    let count = open.generate(seed, |client, _| client).len().max(1);
    out.push(("sim.arrivals_ns_per_request", arrivals / count as f64));

    // Trace codec on a recorded n = 5 run (~100k events); per-event cost
    // does not depend on the system size.
    let small = Scenario::fault_free(OmegaVariant::Alg1, 5)
        .horizon(50_000)
        .seed(seed);
    let (_, trace) = SimDriver.run_traced(&small);
    let events = trace.len().max(1) as f64;
    let encode = each_ns(
        |_| (),
        |()| {
            black_box(trace.encode());
        },
    );
    let bytes = trace.encode();
    let decode = each_ns(
        |_| (),
        |()| {
            black_box(Trace::decode(&bytes).expect("own encoding decodes"));
        },
    );
    out.push(("sim.trace_encode_ns_per_event", encode / events));
    out.push(("sim.trace_decode_ns_per_event", decode / events));
}

fn consensus(out: &mut Vec<(&'static str, f64)>) {
    let n = 5;
    out.push((
        "consensus.decide_ns",
        batch_ns(|| {
            let space = MemorySpace::new(n);
            let inst = ConsensusInstance::<u64>::new(&space, "C");
            let mut proposer = ConsensusProcess::new(inst, p(0), 42);
            proposer
                .step_until_decided(p(0), 10 * n + 10)
                .expect("a sole leader decides");
        }),
    ));
}

fn service(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let n = 5;
    let spec = WorkloadSpec {
        clients: 2_000,
        mean_interarrival: 10_000,
        put_pct: 50,
        key_space: 64,
        deadline: 6_000,
        stall_bound: None,
        start: 1_000,
        stop: 101_000,
    };
    let generate = each_ns(
        |round| seed.wrapping_add(round),
        |s| {
            black_box(spec.generate(s));
        },
    );
    let meta = spec.generate(seed);
    let requests = meta.len().max(1);
    out.push((
        "service.workload_generate_ns_per_request",
        generate / requests as f64,
    ));

    // One pass of every request through issue → drain → complete, the
    // path a committed request takes through the ledger.
    let mut issue = Vec::new();
    let mut drain_complete = Vec::new();
    let mut ledger = Ledger::new(meta.clone(), n);
    for _ in 0..5 {
        ledger = Ledger::new(meta.clone(), n);
        for node in 0..n {
            ledger.publish(p(node), Some(p(0)));
        }
        let t = Instant::now();
        for id in 0..requests {
            ledger.issue(id, 0);
        }
        issue.push(t.elapsed().as_nanos() as f64 / requests as f64);
        let t = Instant::now();
        for id in ledger.drain(p(0)) {
            ledger.complete(id, 1);
        }
        drain_complete.push(t.elapsed().as_nanos() as f64 / requests as f64);
    }
    out.push(("service.ledger_issue_ns", stats::median(&issue)));
    out.push((
        "service.ledger_drain_complete_ns",
        stats::median(&drain_complete),
    ));
    out.push((
        "service.ledger_route_ns",
        batch_ns(|| {
            black_box(ledger.route_target());
        }),
    ));
    // With every request resolved and no deadline due, a sweep is the two
    // cursor checks the workload actor pays on each of its steps.
    ledger.sweep(0);
    out.push(("service.ledger_sweep_ns", batch_ns(|| ledger.sweep(0))));

    let mut histogram = Histogram::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    out.push((
        "service.histogram_record_ns",
        batch_ns(|| histogram.record(rng.gen_range(1..=6_000))),
    ));
}

fn runtime(n: usize, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queue = DeadlineQueue::new();
    for task in 0..2 * n {
        queue.push(rng.gen_range(1..=8), task);
    }
    out.push((
        "runtime.deadline_queue_ns",
        batch_ns(|| {
            let (key, task) = queue.pop().expect("queue stays full");
            queue.push(key + rng.gen_range(1..=8), task);
        }),
    ));
}

/// Every isolated unit cost, at system size `n`; `spec` is the workload's
/// own election spec (for the `spec_text` round trip).
#[must_use]
pub fn measure(n: usize, seed: u64, spec: &Scenario) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    registers(n, &mut out);
    core(n, &mut out);
    sim(n, seed, &mut out);
    consensus(&mut out);
    service(seed, &mut out);
    runtime(n, seed, &mut out);
    out.push((
        "scenario.spec_parse_us",
        batch_ns(|| {
            let text = spec_text::to_spec_text(spec);
            black_box(spec_text::from_spec_text(&text).expect("own spec text parses"));
        }) / 1e3,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_timing_grows_with_the_work_timed() {
        let spin = |iters: u64| {
            batch_ns(move || {
                let mut x = 1u64;
                for i in 0..iters {
                    x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
                }
                black_box(x);
            })
        };
        let (short, long) = (spin(50), spin(5_000));
        assert!(long > 10.0 * short, "short {short} ns, long {long} ns");
    }

    #[test]
    fn every_unit_cost_is_measured_and_positive_at_small_n() {
        let spec = Scenario::fault_free(OmegaVariant::Alg1, 5);
        let costs = measure(5, 11, &spec);
        let mut names: Vec<&str> = costs.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), costs.len(), "each cost reported once");
        for (name, ns) in &costs {
            assert!(ns.is_finite() && *ns > 0.0, "{name} = {ns}");
            assert!(
                crate::catalog::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is in the ledger"
            );
        }
    }
}
