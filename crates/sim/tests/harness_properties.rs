//! Integration and property tests for the simulation harness itself:
//! the machine that checks the paper must itself be checked. Randomized
//! properties are driven by the crate's own seeded generator, 64 cases
//! each, reproducible from the case number.

use omega_registers::ProcessId;
use omega_sim::adversary::{Adversary, AwbEnvelope, PartitionedPhases, SeededRandom};
use omega_sim::event::{EventKind, EventQueue};
use omega_sim::rng::SmallRng;
use omega_sim::{Actor, SimTime, Simulation, StepCtx, Trace};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A minimal actor: counts invocations, reports a fixed leader.
struct Counter {
    steps: u64,
}

impl Actor for Counter {
    fn on_step(&mut self, _ctx: StepCtx) {
        self.steps += 1;
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        7
    }

    fn current_leader(&self) -> Option<ProcessId> {
        Some(p(0))
    }
}

fn counters(n: usize) -> Vec<Box<dyn Actor>> {
    (0..n)
        .map(|_| Box::new(Counter { steps: 0 }) as Box<dyn Actor>)
        .collect()
}

/// The ticks at which `pid`'s main task stepped, in `trace` order.
fn steps_of(trace: &Trace, pid: ProcessId) -> Vec<SimTime> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Step(pid))
        .map(|e| e.time)
        .collect()
}

#[test]
fn trace_confirms_awb_envelope_bounds_step_gaps() {
    // The trace is evidence that AWB₁ actually holds in simulated runs:
    // after τ₁ the timely process's step gaps never exceed σ.
    let tau1 = 2_000u64;
    let sigma = 5u64;
    let report = Simulation::builder(counters(3))
        .adversary(AwbEnvelope::new(
            SeededRandom::new(3, 1, 40),
            p(1),
            SimTime::from_ticks(tau1),
            sigma,
        ))
        .horizon(12_000)
        .record_trace()
        .run();
    let trace = report.recording.expect("recording enabled");
    assert_eq!(
        trace.len() as u64,
        report.events_processed,
        "the recording keeps every event"
    );

    let steps: Vec<SimTime> = steps_of(&trace, p(1))
        .into_iter()
        .filter(|t| t.ticks() > tau1 + 40) // skip the last pre-clamp delay
        .collect();
    assert!(steps.len() > 100);
    for w in steps.windows(2) {
        assert!(
            w[1] - w[0] <= sigma,
            "AWB violated in-trace: gap {} > sigma {sigma}",
            w[1] - w[0]
        );
    }
    // An unclamped process, by contrast, must show gaps beyond sigma.
    let free = steps_of(&trace, p(0));
    assert!(
        free.windows(2).any(|w| w[1] - w[0] > sigma),
        "the wrapped adversary should exceed sigma for non-timely processes"
    );
}

#[test]
fn trace_records_crashes_and_timer_fires() {
    use omega_sim::crash::CrashPlan;
    let report = Simulation::builder(counters(2))
        .crash_plan(CrashPlan::none().with_crash_at(SimTime::from_ticks(500), p(1)))
        .horizon(2_000)
        .record_trace()
        .run();
    let trace = report.recording.unwrap();
    let crashes: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash(_)))
        .collect();
    assert_eq!(crashes.len(), 1);
    assert_eq!(crashes[0].time, SimTime::from_ticks(500));
    let p0_fires = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TimerExpire(q, _) if q == p(0)))
        .count();
    assert!(p0_fires > 10);
    // p1 stops stepping after the crash.
    assert!(steps_of(&trace, p(1))
        .iter()
        .all(|&t| t <= SimTime::from_ticks(500)));
}

#[test]
fn partitioned_phases_still_elects_inside_awb() {
    use omega_core::OmegaVariant;
    let n = 4;
    let sys = OmegaVariant::Alg1.build(n);
    let report = Simulation::builder(sys.actors)
        .adversary(AwbEnvelope::new(
            PartitionedPhases::new(n, 2_000, 2, 500),
            p(0),
            SimTime::from_ticks(1_000),
            4,
        ))
        .horizon(80_000)
        .sample_every(100)
        .run();
    let stab = report
        .stabilization()
        .expect("alternating partitions inside AWB still elect");
    assert!(report.correct.contains(stab.leader));
}

/// The event queue is a stable priority queue: pops are sorted by time,
/// and FIFO among equal times.
#[test]
fn event_queue_pops_sorted_and_stable() {
    let mut g = SmallRng::seed_from_u64(0xE0E0);
    for case in 0..64 {
        let times: Vec<u64> = (0..g.gen_range(0..=200))
            .map(|_| g.gen_range(0..=999))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ticks(t), EventKind::Step(p(i % 7)));
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time, e.seq));
        }
        assert_eq!(popped.len(), times.len(), "case {case}");
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO among equal times");
            }
        }
    }
}

/// Reference queue semantics: the exact `(time, seq)` heap the timer
/// wheel replaced. The wheel must be observationally identical to this.
struct ReferenceQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, time: SimTime) {
        self.heap.push(std::cmp::Reverse((time, self.next_seq)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|r| r.0)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|r| r.0 .0)
    }
}

/// The timer wheel pops in exactly the `(time, seq)` order of the old
/// `BinaryHeap` queue, across random interleavings of pushes and pops —
/// including same-tick bursts, far-future events (beyond the wheel window,
/// so they exercise the heap fallback and migration), and pushes behind
/// the cursor after pops have advanced it.
#[test]
fn event_queue_matches_reference_heap_under_interleaving() {
    let mut g = SmallRng::seed_from_u64(0x77EE1);
    for case in 0..64 {
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        // A moving "now" so later pushes land near, before, or far beyond
        // the times already popped.
        let mut now = 0u64;
        for op in 0..g.gen_range(50..=400) {
            let push = q.is_empty() || g.gen_range(0..=99) < 60;
            if push {
                let time = match g.gen_range(0..=9) {
                    // Same-tick burst: several events on one time.
                    0..=2 => now + g.gen_range(0..=3),
                    // Near horizon: the wheel's fast path.
                    3..=6 => now + g.gen_range(0..=2_000),
                    // Behind the cursor (the heap-only queue allowed it).
                    7 => now.saturating_sub(g.gen_range(0..=500)),
                    // Far future: heap fallback + later migration.
                    _ => now + g.gen_range(5_000..=1_000_000),
                };
                let t = SimTime::from_ticks(time);
                q.schedule(t, EventKind::Step(p(op as usize % 5)));
                reference.schedule(t);
            } else {
                assert_eq!(
                    q.peek_time(),
                    reference.peek_time(),
                    "case {case} op {op}: peek diverged"
                );
                let got = q.pop().expect("non-empty");
                let want = reference.pop().expect("reference in sync");
                assert_eq!(
                    (got.time, got.seq),
                    want,
                    "case {case} op {op}: pop order diverged"
                );
                now = now.max(got.time.ticks());
            }
            assert_eq!(q.len(), reference.heap.len(), "case {case} op {op}");
        }
        // Drain: the tails must agree too.
        while let Some(want) = reference.pop() {
            let got = q.pop().expect("same length");
            assert_eq!((got.time, got.seq), want, "case {case}: drain diverged");
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}

/// The AWB envelope never *increases* a delay, and always clamps the
/// timely process after τ₁.
#[test]
fn awb_envelope_clamp_invariants() {
    let mut g = SmallRng::seed_from_u64(0xAB1);
    for case in 0..64 {
        let seed = g.next_u64();
        let hi = g.gen_range(2..=99);
        let sigma = g.gen_range(1..=19);
        let tau1 = g.gen_range(0..=9_999);
        let mut inner = SeededRandom::new(seed, 1, hi);
        let mut wrapped = AwbEnvelope::new(
            SeededRandom::new(seed, 1, hi),
            p(2),
            SimTime::from_ticks(tau1),
            sigma,
        );
        for _ in 0..g.gen_range(1..=99) {
            let pid = p(g.gen_range(0..=3) as usize);
            let now = SimTime::from_ticks(g.gen_range(0..=19_999));
            let raw = inner.next_step_delay(pid, now);
            let clamped = wrapped.next_step_delay(pid, now);
            assert!(
                clamped <= raw,
                "case {case}: envelope may only shorten delays"
            );
            if pid == p(2) && now >= SimTime::from_ticks(tau1) {
                assert!(
                    clamped <= sigma,
                    "case {case}: timely process clamped after tau1"
                );
            } else {
                assert_eq!(clamped, raw, "case {case}: everyone else untouched");
            }
        }
    }
}

/// Simulated runs are a pure function of their configuration: same seeds,
/// same report counters.
#[test]
fn runs_are_deterministic() {
    let mut g = SmallRng::seed_from_u64(0xDE7);
    for _ in 0..64 {
        let seed = g.next_u64();
        let horizon = g.gen_range(500..=4_999);
        let run = || {
            Simulation::builder(counters(3))
                .adversary(SeededRandom::new(seed, 1, 9))
                .horizon(horizon)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.steps_taken, b.steps_taken);
        assert_eq!(a.timer_fires, b.timer_fires);
    }
}

/// Every process keeps taking steps (no starvation) under any seeded
/// random adversary: delays are finite, so the paper's "correct processes
/// execute infinitely many steps" holds in the harness.
#[test]
fn no_starvation() {
    let mut g = SmallRng::seed_from_u64(0x57A);
    for case in 0..64 {
        let seed = g.next_u64();
        let hi = g.gen_range(1..=49);
        let report = Simulation::builder(counters(4))
            .adversary(SeededRandom::new(seed, 1, hi))
            .horizon(20_000)
            .run();
        for (i, &steps) in report.steps_taken.iter().enumerate() {
            assert!(
                steps >= 20_000 / (hi + 1) / 2,
                "case {case}: process {i} starved: {steps} steps"
            );
        }
    }
}
