//! Adversarial schedulers: who steps when.
//!
//! The paper's base model `AS_n[∅]` places *no* bound on the time between
//! two steps of a process; an adversary chooses the interleaving. The AWB₁
//! assumption then carves out one exception: after an unknown time `τ₁`, a
//! designated correct process `p_ℓ` completes consecutive accesses to its
//! critical registers within an unknown bound `σ`.
//!
//! Each [`Adversary`] implementation is one family of interleavings. The
//! [`AwbEnvelope`] wrapper imposes the AWB₁ clamp on any underlying
//! adversary, which is exactly how the experiments separate "runs where the
//! assumption holds" from "runs where it does not" (experiment E13).

use crate::rng::SmallRng;
use omega_registers::{plurality, ProcessId, ProcessSet};

use crate::time::SimTime;

/// What an adversary may observe about the run so far.
///
/// The lower-bound constructions of the paper (Figure 4) let the adversary
/// react to the protocol's visible behavior — in particular to which leader
/// the processes currently trust. [`Adversary::observe`] delivers this view
/// at every sampling point.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Leader estimate of each process (`None` for actors without one, and
    /// for crashed processes).
    pub leaders: &'a [Option<ProcessId>],
    /// Processes that have crashed so far.
    pub crashed: &'a ProcessSet,
}

/// Decides the delay until each process's next main-task step.
pub trait Adversary: Send {
    /// Delay (in ticks, ≥ 1 enforced by the harness) before `pid`'s next
    /// step, chosen when the previous step completed at `now`.
    fn next_step_delay(&mut self, pid: ProcessId, now: SimTime) -> u64;

    /// Receives a view of the run at each sampling point. Default: ignore.
    fn observe(&mut self, _view: &RunView<'_>) {}
}

impl Adversary for Box<dyn Adversary> {
    fn next_step_delay(&mut self, pid: ProcessId, now: SimTime) -> u64 {
        (**self).next_step_delay(pid, now)
    }

    fn observe(&mut self, view: &RunView<'_>) {
        (**self).observe(view);
    }
}

/// Every process steps once per `period` ticks — the fully synchronous run.
#[derive(Debug, Clone)]
pub struct Synchronous {
    period: u64,
}

impl Synchronous {
    /// Creates a synchronous schedule with the given step period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        Synchronous { period }
    }
}

impl Adversary for Synchronous {
    fn next_step_delay(&mut self, _pid: ProcessId, _now: SimTime) -> u64 {
        self.period
    }
}

/// Processes step in a fixed rotation, one slot apart.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    slot: u64,
    started: ProcessSet,
}

impl RoundRobin {
    /// Creates a rotation over `n` processes with `slot` ticks per turn.
    ///
    /// # Panics
    ///
    /// Panics if `slot == 0` or `n == 0`.
    #[must_use]
    pub fn new(n: usize, slot: u64) -> Self {
        assert!(slot > 0 && n > 0);
        RoundRobin {
            n,
            slot,
            started: ProcessSet::new(n),
        }
    }
}

impl Adversary for RoundRobin {
    fn next_step_delay(&mut self, pid: ProcessId, _now: SimTime) -> u64 {
        if self.started.insert(pid) {
            // First step: offset into the rotation.
            pid.index() as u64 * self.slot + 1
        } else {
            self.n as u64 * self.slot
        }
    }
}

/// Independent uniform random delays in `[min, max]`, seeded.
#[derive(Debug, Clone)]
pub struct SeededRandom {
    rng: SmallRng,
    min: u64,
    max: u64,
}

impl SeededRandom {
    /// Creates a random schedule drawing delays uniformly from `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    #[must_use]
    pub fn new(seed: u64, min: u64, max: u64) -> Self {
        assert!(min > 0 && min <= max);
        SeededRandom {
            rng: SmallRng::seed_from_u64(seed),
            min,
            max,
        }
    }
}

impl Adversary for SeededRandom {
    fn next_step_delay(&mut self, _pid: ProcessId, _now: SimTime) -> u64 {
        self.rng.gen_range(self.min..=self.max)
    }
}

/// Alternates per-process bursts of fast steps with long stalls.
///
/// Models the "arbitrarily long but finite periods of arbitrary behavior"
/// the paper allows every process except `p_ℓ`.
#[derive(Debug, Clone)]
pub struct Bursty {
    rng: SmallRng,
    fast_delay: u64,
    stall_delay: u64,
    burst_len: u64,
    counters: Vec<u64>,
}

impl Bursty {
    /// Creates a bursty schedule: `burst_len` steps of `fast_delay` ticks,
    /// then one stall of `stall_delay` ticks, per process, with ±25% jitter.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(n: usize, seed: u64, fast_delay: u64, stall_delay: u64, burst_len: u64) -> Self {
        assert!(fast_delay > 0 && stall_delay > 0 && burst_len > 0);
        Bursty {
            rng: SmallRng::seed_from_u64(seed),
            fast_delay,
            stall_delay,
            burst_len,
            counters: vec![0; n],
        }
    }

    fn jitter(&mut self, base: u64) -> u64 {
        let spread = (base / 4).max(1);
        self.rng
            .gen_range(base.saturating_sub(spread)..=base + spread)
            .max(1)
    }
}

impl Adversary for Bursty {
    fn next_step_delay(&mut self, pid: ProcessId, _now: SimTime) -> u64 {
        let c = &mut self.counters[pid.index()];
        *c += 1;
        if (*c).is_multiple_of(self.burst_len + 1) {
            let d = self.stall_delay;
            self.jitter(d)
        } else {
            let d = self.fast_delay;
            self.jitter(d)
        }
    }
}

/// Imposes the AWB₁ assumption on top of any adversary: after `tau1`, the
/// designated `timely` process's step delay is clamped to at most `sigma`.
///
/// Everything else — including the timely process before `tau1` — behaves
/// exactly as the wrapped adversary dictates.
#[derive(Debug, Clone)]
pub struct AwbEnvelope<A> {
    inner: A,
    timely: ProcessId,
    tau1: SimTime,
    sigma: u64,
}

impl<A: Adversary> AwbEnvelope<A> {
    /// Wraps `inner`, making `timely` satisfy AWB₁ with bound `sigma` after
    /// time `tau1`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0`.
    #[must_use]
    pub fn new(inner: A, timely: ProcessId, tau1: SimTime, sigma: u64) -> Self {
        assert!(sigma > 0, "sigma must be positive");
        AwbEnvelope {
            inner,
            timely,
            tau1,
            sigma,
        }
    }

    /// The process constrained by AWB₁.
    #[must_use]
    pub fn timely(&self) -> ProcessId {
        self.timely
    }

    /// The bound `σ` applied after `τ₁`.
    #[must_use]
    pub fn sigma(&self) -> u64 {
        self.sigma
    }
}

impl<A: Adversary> Adversary for AwbEnvelope<A> {
    fn next_step_delay(&mut self, pid: ProcessId, now: SimTime) -> u64 {
        let d = self.inner.next_step_delay(pid, now);
        if pid == self.timely && now >= self.tau1 {
            d.min(self.sigma)
        } else {
            d
        }
    }

    fn observe(&mut self, view: &RunView<'_>) {
        self.inner.observe(view);
    }
}

/// Alternating partition phases: in even phases the lower half of the
/// processes runs fast while the upper half is stalled; odd phases swap.
///
/// Models the "arbitrarily long but finite" degraded periods the paper
/// allows: every process is stalled infinitely often, but also runs fast
/// infinitely often, so combined with an [`AwbEnvelope`] the run still
/// satisfies AWB.
#[derive(Debug, Clone)]
pub struct PartitionedPhases {
    n: usize,
    phase_len: u64,
    fast_delay: u64,
    stall_delay: u64,
}

impl PartitionedPhases {
    /// Creates alternating-partition scheduling over `n` processes with
    /// phases of `phase_len` ticks.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `stall_delay <= fast_delay`.
    #[must_use]
    pub fn new(n: usize, phase_len: u64, fast_delay: u64, stall_delay: u64) -> Self {
        assert!(n > 0 && phase_len > 0 && fast_delay > 0);
        assert!(stall_delay > fast_delay);
        PartitionedPhases {
            n,
            phase_len,
            fast_delay,
            stall_delay,
        }
    }

    fn stalled(&self, pid: ProcessId, now: SimTime) -> bool {
        let phase = now.ticks() / self.phase_len;
        let upper_half = pid.index() >= self.n / 2;
        phase.is_multiple_of(2) == upper_half
    }
}

impl Adversary for PartitionedPhases {
    fn next_step_delay(&mut self, pid: ProcessId, now: SimTime) -> u64 {
        if self.stalled(pid, now) {
            // Don't overshoot the phase boundary by too much: stall either
            // the configured delay or until shortly after the phase flips.
            let into_phase = now.ticks() % self.phase_len;
            let to_boundary = self.phase_len - into_phase + 1;
            self.stall_delay.min(to_boundary.max(self.fast_delay))
        } else {
            self.fast_delay
        }
    }
}

/// One designated process suffers stalls whose lengths grow geometrically;
/// everyone else steps at a constant fast cadence.
///
/// The victim is **correct** — every stall is finite — but it is *not*
/// eventually synchronous: its step delays are unbounded over the run.
/// This is the separating schedule between the AWB assumption of this
/// paper and the eventually-synchronous model of prior work (\[13\] in the
/// paper): AWB tolerates such a process (it merely accumulates suspicions
/// and loses the election), while timeout-adaptive min-id algorithms flap
/// forever — every doubled timeout is eventually beaten by a longer stall.
#[derive(Debug, Clone)]
pub struct GrowingBursts {
    victim: ProcessId,
    fast_delay: u64,
    /// Steps of fast running between stalls.
    burst_len: u64,
    /// Length of the next stall; multiplied by `factor` each time.
    next_stall: u64,
    factor: u64,
    step_count: u64,
}

impl GrowingBursts {
    /// Creates the schedule: `victim` runs `burst_len` fast steps
    /// (`fast_delay` ticks apart), then stalls; the first stall lasts
    /// `initial_stall` ticks, each later one `factor` times longer.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `factor < 2`.
    #[must_use]
    pub fn new(
        victim: ProcessId,
        fast_delay: u64,
        burst_len: u64,
        initial_stall: u64,
        factor: u64,
    ) -> Self {
        assert!(fast_delay > 0 && burst_len > 0 && initial_stall > 0);
        assert!(factor >= 2, "stalls must grow");
        GrowingBursts {
            victim,
            fast_delay,
            burst_len,
            next_stall: initial_stall,
            factor,
            step_count: 0,
        }
    }
}

impl Adversary for GrowingBursts {
    fn next_step_delay(&mut self, pid: ProcessId, _now: SimTime) -> u64 {
        if pid != self.victim {
            return self.fast_delay;
        }
        self.step_count += 1;
        if self.step_count.is_multiple_of(self.burst_len) {
            let stall = self.next_stall;
            self.next_stall = self.next_stall.saturating_mul(self.factor);
            stall
        } else {
            self.fast_delay
        }
    }
}

/// Stalls whichever process the (plurality of) correct processes currently
/// trust as leader, forever.
///
/// Against a pure asynchronous system (no [`AwbEnvelope`]), this adversary
/// realizes the impossibility folklore: every emerging leader is starved
/// until it is suspected, so no election ever stabilizes. It is the engine
/// of experiment E13 and of the Figure-4 style constructions.
#[derive(Debug, Clone)]
pub struct LeaderStaller {
    base_delay: u64,
    stall_delay: u64,
    target: Option<ProcessId>,
}

impl LeaderStaller {
    /// Creates a staller: non-targets step every `base_delay` ticks, the
    /// current plurality leader steps only every `stall_delay` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `base_delay == 0` or `stall_delay <= base_delay`.
    #[must_use]
    pub fn new(base_delay: u64, stall_delay: u64) -> Self {
        assert!(base_delay > 0 && stall_delay > base_delay);
        LeaderStaller {
            base_delay,
            stall_delay,
            target: None,
        }
    }

    /// The process currently being starved, if any.
    #[must_use]
    pub fn target(&self) -> Option<ProcessId> {
        self.target
    }
}

impl Adversary for LeaderStaller {
    fn next_step_delay(&mut self, pid: ProcessId, _now: SimTime) -> u64 {
        if Some(pid) == self.target {
            self.stall_delay
        } else {
            self.base_delay
        }
    }

    fn observe(&mut self, view: &RunView<'_>) {
        self.target = plurality(view.leaders.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn synchronous_is_constant() {
        let mut a = Synchronous::new(3);
        for _ in 0..5 {
            assert_eq!(a.next_step_delay(p(0), SimTime::ZERO), 3);
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn synchronous_rejects_zero() {
        let _ = Synchronous::new(0);
    }

    #[test]
    fn round_robin_offsets_then_rotates() {
        let mut a = RoundRobin::new(3, 2);
        assert_eq!(a.next_step_delay(p(0), SimTime::ZERO), 1);
        assert_eq!(a.next_step_delay(p(1), SimTime::ZERO), 3);
        assert_eq!(a.next_step_delay(p(2), SimTime::ZERO), 5);
        // Subsequent turns: full rotation.
        assert_eq!(a.next_step_delay(p(0), SimTime::ZERO), 6);
        assert_eq!(a.next_step_delay(p(1), SimTime::ZERO), 6);
    }

    #[test]
    fn seeded_random_is_deterministic_and_in_range() {
        let mut a = SeededRandom::new(7, 2, 9);
        let mut b = SeededRandom::new(7, 2, 9);
        for _ in 0..100 {
            let da = a.next_step_delay(p(0), SimTime::ZERO);
            let db = b.next_step_delay(p(0), SimTime::ZERO);
            assert_eq!(da, db);
            assert!((2..=9).contains(&da));
        }
    }

    #[test]
    fn bursty_inserts_stalls() {
        let mut a = Bursty::new(1, 3, 2, 100, 4);
        let delays: Vec<u64> = (0..10)
            .map(|_| a.next_step_delay(p(0), SimTime::ZERO))
            .collect();
        assert!(
            delays.iter().any(|&d| d >= 75),
            "must contain a stall: {delays:?}"
        );
        assert!(
            delays.iter().any(|&d| d <= 3),
            "must contain fast steps: {delays:?}"
        );
    }

    #[test]
    fn awb_envelope_clamps_only_timely_after_tau1() {
        let inner = Synchronous::new(50);
        let mut a = AwbEnvelope::new(inner, p(1), SimTime::from_ticks(100), 5);
        assert_eq!(a.timely(), p(1));
        assert_eq!(a.sigma(), 5);
        // Before tau1: unclamped.
        assert_eq!(a.next_step_delay(p(1), SimTime::from_ticks(10)), 50);
        // After tau1: clamped for the timely process only.
        assert_eq!(a.next_step_delay(p(1), SimTime::from_ticks(100)), 5);
        assert_eq!(a.next_step_delay(p(0), SimTime::from_ticks(100)), 50);
    }

    #[test]
    fn growing_bursts_escalate_only_for_victim() {
        let mut a = GrowingBursts::new(p(0), 2, 3, 10, 3);
        // Non-victims: constant.
        assert_eq!(a.next_step_delay(p(1), SimTime::ZERO), 2);
        // Victim: two fast steps, then a stall, escalating ×3.
        let delays: Vec<u64> = (0..9)
            .map(|_| a.next_step_delay(p(0), SimTime::ZERO))
            .collect();
        assert_eq!(delays, vec![2, 2, 10, 2, 2, 30, 2, 2, 90]);
    }

    #[test]
    fn partitioned_phases_alternate() {
        let mut a = PartitionedPhases::new(4, 100, 2, 50);
        // Phase 0: upper half (p2, p3) stalled.
        assert_eq!(a.next_step_delay(p(0), SimTime::from_ticks(10)), 2);
        assert!(a.next_step_delay(p(3), SimTime::from_ticks(10)) > 2);
        // Phase 1: lower half stalled.
        assert!(a.next_step_delay(p(0), SimTime::from_ticks(150)) > 2);
        assert_eq!(a.next_step_delay(p(3), SimTime::from_ticks(150)), 2);
    }

    #[test]
    fn partitioned_stall_does_not_overshoot_phase() {
        let mut a = PartitionedPhases::new(2, 100, 2, 10_000);
        // p1 stalled in phase 0 at t=90: the stall must end near t=191 at
        // the latest, not t=10_090.
        let d = a.next_step_delay(p(1), SimTime::from_ticks(90));
        assert!(d <= 11 + 2, "stall clipped to the phase boundary, got {d}");
    }

    #[test]
    fn leader_staller_tracks_plurality() {
        let mut a = LeaderStaller::new(2, 1000);
        assert_eq!(a.target(), None);
        assert_eq!(a.next_step_delay(p(0), SimTime::ZERO), 2);
        let crashed = ProcessSet::new(3);
        let leaders = [Some(p(2)), Some(p(2)), Some(p(0))];
        a.observe(&RunView {
            now: SimTime::ZERO,
            leaders: &leaders,
            crashed: &crashed,
        });
        assert_eq!(a.target(), Some(p(2)));
        assert_eq!(a.next_step_delay(p(2), SimTime::ZERO), 1000);
        assert_eq!(a.next_step_delay(p(1), SimTime::ZERO), 2);
    }

    #[test]
    fn leader_staller_ignores_none_estimates() {
        let mut a = LeaderStaller::new(1, 10);
        let crashed = ProcessSet::new(2);
        a.observe(&RunView {
            now: SimTime::ZERO,
            leaders: &[None, None],
            crashed: &crashed,
        });
        assert_eq!(a.target(), None);
    }
}
