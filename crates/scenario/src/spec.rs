//! The declarative scenario specification — backend-free — and the one
//! admission rule that says which [`Backend`] can honor it
//! ([`Scenario::refusal`]).

use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_runtime::san::SanLatency;
use omega_sim::adversary::{
    Adversary, AwbEnvelope, Bursty, GrowingBursts, LeaderStaller, PartitionedPhases, RoundRobin,
    SeededRandom, Synchronous,
};
use omega_sim::chaos::Campaign;
use omega_sim::crash::CrashPlan;
use omega_sim::timers::{
    AffineTimer, ChaoticThen, ExactTimer, JitteredTimer, StuckLowTimer, TimerModel,
};
use omega_sim::{Actor, SimTime, Simulation, SimulationBuilder};

/// The scheduling regime of a scenario.
///
/// The simulator realizes these literally; the thread runtime cannot impose
/// an interleaving on the OS scheduler, so there the spec serves as
/// documentation of the regime the simulated twin ran under (the OS itself
/// plays the fair scheduler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// Every process steps once per `period` ticks.
    Synchronous {
        /// Step period in ticks.
        period: u64,
    },
    /// Fixed rotation, `slot` ticks per turn.
    RoundRobin {
        /// Ticks per rotation slot.
        slot: u64,
    },
    /// Independent uniform random delays in `[min, max]`.
    Random {
        /// Minimum step delay (ticks, ≥ 1).
        min: u64,
        /// Maximum step delay (ticks).
        max: u64,
    },
    /// Bursts of fast steps separated by long stalls, per process.
    Bursty {
        /// Delay between steps inside a burst.
        fast: u64,
        /// Length of the stall between bursts.
        stall: u64,
        /// Steps per burst.
        burst_len: u64,
    },
    /// Alternating partition phases: half the processes stalled at a time.
    PartitionedPhases {
        /// Phase length in ticks.
        phase_len: u64,
        /// Step delay for the running half.
        fast: u64,
        /// Step delay for the stalled half.
        stall: u64,
    },
    /// One designated victim suffers geometrically growing stalls — correct
    /// but never eventually synchronous (the AWB-vs-ES separating schedule).
    GrowingBursts {
        /// The process whose stalls grow.
        victim: ProcessId,
        /// Delay between its fast steps.
        fast: u64,
        /// Fast steps between stalls.
        burst_len: u64,
        /// First stall length; multiplied by `factor` each time.
        initial_stall: u64,
        /// Stall growth factor (≥ 2).
        factor: u64,
    },
    /// Stalls whichever process currently leads, forever (AWB-violating).
    LeaderStaller {
        /// Step delay for everyone else.
        base: u64,
        /// Step delay for the current leader.
        stall: u64,
    },
}

impl AdversarySpec {
    /// Checks that the simulator can build this schedule over `n`
    /// processes: the conditions its constructor asserts, and a victim
    /// inside the system.
    ///
    /// # Errors
    ///
    /// Returns the first condition the spec breaks.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let broken = match *self {
            AdversarySpec::Synchronous { period } => {
                (period == 0).then_some("period must be positive")
            }
            AdversarySpec::RoundRobin { slot } => (slot == 0).then_some("slot must be positive"),
            AdversarySpec::Random { min, max } => {
                (min == 0 || min > max).then_some("random delays need 0 < min <= max")
            }
            AdversarySpec::Bursty {
                fast,
                stall,
                burst_len,
            } => (fast == 0 || stall == 0 || burst_len == 0)
                .then_some("bursty delays and burst length must be positive"),
            AdversarySpec::PartitionedPhases {
                phase_len,
                fast,
                stall,
            } => (phase_len == 0 || fast == 0 || stall <= fast)
                .then_some("phases need a positive phase length and 0 < fast < stall"),
            AdversarySpec::GrowingBursts {
                victim,
                fast,
                burst_len,
                initial_stall,
                factor,
            } => {
                if victim.index() >= n {
                    return Err(format!("growing victim {victim} out of range for n = {n}"));
                }
                (fast == 0 || burst_len == 0 || initial_stall == 0 || factor < 2)
                    .then_some("growing bursts need positive delays and burst length, factor >= 2")
            }
            AdversarySpec::LeaderStaller { base, stall } => {
                (base == 0 || stall <= base).then_some("staller needs 0 < base < stall")
            }
        };
        broken.map_or(Ok(()), |why| Err(why.to_string()))
    }
}

/// The AWB₁ envelope: after `tau1` the designated process's step delay is
/// clamped to `sigma`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwbSpec {
    /// The eventually timely process `p_ℓ`.
    pub timely: ProcessId,
    /// Time `τ₁` after which the clamp applies (ticks).
    pub tau1: u64,
    /// The clamp `σ` (ticks).
    pub sigma: u64,
}

impl AwbSpec {
    /// Checks that the envelope can be built over `n` processes: a timely
    /// process inside the system and a positive clamp.
    ///
    /// # Errors
    ///
    /// Returns the first condition the spec breaks.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if self.timely.index() >= n {
            return Err(format!(
                "awb timely process {} out of range for n = {n}",
                self.timely
            ));
        }
        if self.sigma == 0 {
            return Err("awb sigma must be positive".into());
        }
        Ok(())
    }
}

/// The timer model every process runs (AWB₂ and its violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerSpec {
    /// `T(τ, x) = x` — the faithful timer.
    Exact,
    /// `T(τ, x) = scale·x + offset`.
    Affine {
        /// Rate multiplier (≥ 1 keeps AWB₂).
        scale: u64,
        /// Constant overhead.
        offset: u64,
    },
    /// `T(τ, x) = x + U[0, jitter]`, seeded per process.
    Jittered {
        /// Maximum extra delay.
        jitter: u64,
    },
    /// Arbitrary in `[1, chaos_max]` before `chaos_until`, exact afterwards
    /// — the asymptotic edge of AWB₂ (`τ_f = chaos_until`).
    ChaoticThenExact {
        /// End of the chaotic prefix (ticks).
        chaos_until: u64,
        /// Maximum chaotic duration.
        chaos_max: u64,
    },
    /// Even identities jittered, odd identities affine — a heterogeneous
    /// AWB₂-satisfying mix.
    JitterAffineMix {
        /// Jitter bound for even identities.
        jitter: u64,
        /// Affine scale for odd identities.
        scale: u64,
        /// Affine offset for odd identities.
        offset: u64,
    },
    /// `T(τ, x) = min(x, cap)` — **violates** AWB₂.
    StuckLow {
        /// The cap that breaks domination.
        cap: u64,
    },
}

impl TimerSpec {
    /// Checks the conditions the timer models' constructors assert.
    ///
    /// # Errors
    ///
    /// Returns the first condition the spec breaks.
    pub fn validate(&self) -> Result<(), String> {
        let broken = match *self {
            TimerSpec::Exact | TimerSpec::Jittered { .. } => None,
            TimerSpec::Affine { scale, .. } | TimerSpec::JitterAffineMix { scale, .. } => {
                (scale == 0).then_some("timer scale must be positive")
            }
            TimerSpec::ChaoticThenExact { chaos_max, .. } => {
                (chaos_max == 0).then_some("chaotic max must be positive")
            }
            TimerSpec::StuckLow { cap } => (cap == 0).then_some("stucklow cap must be positive"),
        };
        broken.map_or(Ok(()), |why| Err(why.to_string()))
    }
}

/// One scripted failure, in scenario (tick) time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSpec {
    /// Crash a specific process at a specific tick.
    At {
        /// When (ticks).
        tick: u64,
        /// Whom.
        pid: ProcessId,
    },
    /// Crash whichever process the plurality then trusts as leader.
    LeaderAt {
        /// When (ticks).
        tick: u64,
    },
}

impl CrashSpec {
    /// The tick the directive is due.
    #[must_use]
    pub fn tick(&self) -> u64 {
        match *self {
            CrashSpec::At { tick, .. } | CrashSpec::LeaderAt { tick } => tick,
        }
    }
}

/// Largest system the SAN backend admits: it gives each of the `2n` node
/// loops a worker thread of its own, and that many threads thrash the
/// scheduler past this, so larger scenarios belong on the cooperative
/// pool.
pub const THREAD_MAX_N: usize = 16;

/// Largest system the deterministic simulator admits. No structure of the
/// literal realization is memory-cubic in n: reads are tallied per
/// (process, bank) and writes per register, a run's statistics and
/// footprint checkpoints keep the newest dense copy of those and each
/// earlier one as the cells the next one overwrote, and the processes
/// share their views of the suspicion matrix — all `O(n²)`. Nor is the
/// cap time any more: a `T3` pass over a shard nothing wrote is a version
/// check, and `n-scaling-1024` runs in ≈ 4–5 s. What the cap stands on is
/// memory and the record: `n-scaling-1024` peaks at ≈ 155 MB of RSS, 111
/// of them the registers' construction, above the ceiling CI's sim gate
/// sets on peak RSS (twice the ≈ 42 MB of its `n-scaling-512` peak), and
/// its horizon leaves no post-stable tail to record (ROADMAP open items
/// 3 (d) and 28). Larger systems are exactly what the sharded cooperative
/// pool exists for, so the sim refuses them loudly.
pub const SIM_MAX_N: usize = 512;

/// Largest system the cooperative wall-clock backend records *on a small
/// pool*: up to two workers the wall comes from the wall-clock budget a
/// 100 µs tick leaves the multiplexing cores, not from thread thrash.
/// Larger pools raise the cap — see [`coop_max_n`].
pub const COOP_MAX_N: usize = 128;

/// How many nodes each additional coop worker is budgeted to carry once
/// the pool shards the deadline wheel: a worker owns `2 ×` this many task
/// loops, and the budget is deliberately half a lone worker's 128-node
/// ceiling because pooled workers also pay for stealing and cross-shard
/// re-arm traffic.
pub const COOP_NODES_PER_WORKER: usize = 64;

/// The coop admission cap as a function of pool size: a small pool keeps
/// the historical [`COOP_MAX_N`] = 128 ceiling, and past that every worker
/// adds [`COOP_NODES_PER_WORKER`] nodes — 4 workers admit n = 256, 8 admit
/// n = 512, 16 admit n = 1024.
#[must_use]
pub fn coop_max_n(workers: usize) -> usize {
    COOP_MAX_N.max(COOP_NODES_PER_WORKER * workers)
}

/// The backend axis of the suite: the simulator and the wall-clock
/// substrates of [`WallDriver`](crate::WallDriver) (see the driver-axis
/// table in ROADMAP.md). Which backend admits which scenario is
/// [`Scenario::refusal`]. The simulator is the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic simulator (`SimDriver`).
    #[default]
    Sim,
    /// One worker thread per task over SAN block registers.
    San,
    /// A pool of worker threads over in-memory registers: shared when
    /// smaller than the task set, one worker per task otherwise.
    Coop,
}

impl Backend {
    /// Every backend, in the suite's canonical order.
    pub const ALL: [Backend; 3] = [Backend::Sim, Backend::San, Backend::Coop];

    /// The backend called `name` on the command line and in JSON records.
    #[must_use]
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The backend's name (`"sim"`, `"san"`, `"coop"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::San => "san",
            Backend::Coop => "coop",
        }
    }
}

/// A `Scenario` is the single source of truth a [`Driver`](crate::Driver)
/// consumes: which Ω variant, how many processes, the scheduling and timer
/// regime, the crash script, and the horizon — everything expressed in
/// abstract ticks. [`SimDriver`](crate::SimDriver) realizes ticks as
/// virtual time; [`WallDriver`](crate::WallDriver) maps them to
/// wall-clock durations.
///
/// # Examples
///
/// ```
/// use omega_core::OmegaVariant;
/// use omega_scenario::{Driver, Scenario, SimDriver};
///
/// let scenario = Scenario::fault_free(OmegaVariant::Alg1, 4)
///     .crash_leader_at(20_000)
///     .horizon(60_000);
/// let outcome = SimDriver::default().run(&scenario);
/// assert!(outcome.stabilized);
/// assert_eq!(outcome.crashed.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (used in tables and JSON output).
    pub name: String,
    /// Which Ω implementation runs.
    pub variant: OmegaVariant,
    /// Number of processes.
    pub n: usize,
    /// The scheduling regime (simulator-enforced).
    pub adversary: AdversarySpec,
    /// The AWB₁ envelope, if the scenario guarantees it.
    pub awb: Option<AwbSpec>,
    /// The timer model (AWB₂ side of the assumption).
    pub timers: TimerSpec,
    /// Scripted failures.
    pub crashes: Vec<CrashSpec>,
    /// Run horizon in ticks (the wall driver maps this to its deadline).
    pub horizon: u64,
    /// Leader-estimate sampling cadence in ticks.
    pub sample_every: u64,
    /// Number of statistics/footprint checkpoints across the run (0: none,
    /// and no tail; see [`Scenario::stats_checkpoints`]).
    pub stats_checkpoints: usize,
    /// Seed for every random choice (adversary delays, timer jitter).
    pub seed: u64,
    /// Whether the spec satisfies AWB, i.e. whether the paper's theorems
    /// promise stabilization for it. Registry scenarios set this so tests
    /// can assert both directions.
    pub expect_stabilization: bool,
    /// Disk latency model pinned by the scenario, for SAN-backed drivers
    /// (the `san-latency/…` sweep family sets this; other backends ignore
    /// it, exactly as the thread backend ignores the adversary spec).
    pub san_latency: Option<SanLatency>,
    /// The chaos campaign, if any: a declarative fault schedule of
    /// register-space partitions, latency storms, crash/recovery waves and
    /// heals. The simulator realizes it literally; wall-clock drivers
    /// realize partitions, crash waves and heals best-effort at wall due
    /// times and *refuse* clauses they cannot honor (storms everywhere but
    /// SAN, recovery everywhere but sim) — see [`refusal`](Self::refusal).
    pub campaign: Option<Campaign>,
}

impl Scenario {
    /// A fault-free baseline: seeded-random scheduling inside an AWB
    /// envelope (`p0` timely, `τ₁ = 1000`, `σ = 4`), exact timers, horizon
    /// 60 000 ticks.
    ///
    /// The step-clock variant gets a minimum step delay of 2 — its timeouts
    /// are counted in own steps, so the step-rate variance must be bounded.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn fault_free(variant: OmegaVariant, n: usize) -> Self {
        assert!(n > 0, "a scenario needs at least one process");
        let min = if variant == OmegaVariant::StepClock {
            2
        } else {
            1
        };
        Scenario {
            name: format!("fault-free/{}/n{n}", variant.name()),
            variant,
            n,
            adversary: AdversarySpec::Random { min, max: 6 },
            awb: Some(AwbSpec {
                timely: ProcessId::new(0),
                tau1: 1_000,
                sigma: 4,
            }),
            timers: TimerSpec::Exact,
            crashes: Vec::new(),
            horizon: 60_000,
            sample_every: 100,
            stats_checkpoints: 16,
            seed: 42,
            expect_stabilization: true,
            san_latency: None,
            campaign: None,
        }
    }

    /// Why `backend` (with a coop pool of `workers` threads) cannot honor
    /// this scenario — the first clause it fails, worded for the suite's
    /// skip line — or `None` when it admits it. The single admission rule:
    /// `--driver` dispatch, `--list` and the tests all read it as
    /// `refusal(..).is_none()`.
    ///
    /// The simulator runs every *regime* (it is the only backend that can
    /// violate AWB on purpose) but refuses `n >` [`SIM_MAX_N`] — a larger
    /// run's peak memory is above its gate's ceiling. A wall clock cannot
    /// defend a negative (real time *is* the fair schedule, and a cluster
    /// detects stability, not its absence), so the wall backends refuse
    /// non-electing scenarios. Campaign clauses are refused by name rather
    /// than silently dropped: recovery waves everywhere but sim (a retired
    /// task is gone for good), latency storms everywhere but sim and the
    /// SAN (whose block device serves a literal slowdown) — partitions,
    /// directed cuts, flaps, crash waves and heals act through the register
    /// space and the crash machinery and run everywhere. Last comes size:
    /// `n >` [`THREAD_MAX_N`] on the SAN, `n >`
    /// [`coop_max_n`]`(workers)` on coop — the only backend that reaches
    /// past the sim's cap, and the only one the pool size moves.
    #[must_use]
    pub fn refusal(&self, backend: Backend, workers: usize) -> Option<String> {
        if backend == Backend::Sim {
            return (self.n > SIM_MAX_N).then(|| {
                format!(
                    "a larger simulated run peaks above the sim gate's memory ceiling, so \
                     the simulator runs n <= {SIM_MAX_N}; larger systems belong on the \
                     sharded coop pool"
                )
            });
        }
        if !self.expect_stabilization {
            return Some(
                "non-electing scenarios are certified by the simulator's literal adversary \
                 and witness; a wall clock cannot defend the negative"
                    .into(),
            );
        }
        if let Some(campaign) = &self.campaign {
            if campaign.has_recovery() {
                return Some(
                    "campaign recovery waves are sim-only: a retired wall-clock task cannot \
                     be resurrected"
                        .into(),
                );
            }
            if campaign.has_storm() && backend != Backend::San {
                return Some(
                    "campaign latency storms need a simulated medium (sim, or the SAN block \
                     device)"
                        .into(),
                );
            }
        }
        if backend == Backend::Coop {
            let cap = coop_max_n(workers);
            (self.n > cap).then(|| {
                format!(
                    "coop at {workers} worker(s) runs stabilizing scenarios at n <= {cap}; \
                     --workers {} would admit n = {}",
                    self.n.div_ceil(COOP_NODES_PER_WORKER),
                    self.n,
                )
            })
        } else {
            (self.n > THREAD_MAX_N)
                .then(|| format!("the SAN runs stabilizing scenarios at n <= {THREAD_MAX_N}"))
        }
    }

    /// Renames the scenario.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the scheduling regime.
    #[must_use]
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = spec;
        self
    }

    /// Imposes the AWB₁ envelope.
    #[must_use]
    pub fn awb(mut self, timely: ProcessId, tau1: u64, sigma: u64) -> Self {
        self.awb = Some(AwbSpec {
            timely,
            tau1,
            sigma,
        });
        self
    }

    /// Drops the AWB₁ envelope (and the stabilization expectation).
    #[must_use]
    pub fn without_awb(mut self) -> Self {
        self.awb = None;
        self.expect_stabilization = false;
        self
    }

    /// Sets the timer model.
    #[must_use]
    pub fn timers(mut self, spec: TimerSpec) -> Self {
        self.timers = spec;
        self
    }

    /// Adds a crash of `pid` at `tick`.
    #[must_use]
    pub fn crash_at(mut self, tick: u64, pid: ProcessId) -> Self {
        self.crashes.push(CrashSpec::At { tick, pid });
        self
    }

    /// Adds a crash of the then-current plurality leader at `tick`.
    #[must_use]
    pub fn crash_leader_at(mut self, tick: u64) -> Self {
        self.crashes.push(CrashSpec::LeaderAt { tick });
        self
    }

    /// Sets the horizon in ticks.
    #[must_use]
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks;
        self
    }

    /// Sets the sampling cadence in ticks.
    #[must_use]
    pub fn sample_every(mut self, ticks: u64) -> Self {
        self.sample_every = ticks;
        self
    }

    /// Sets the number of statistics checkpoints. A positive count also
    /// checkpoints at tick zero and at the horizon. 0 (`checkpoints 0` in
    /// spec text) takes none: the simulator's outcome then reads its
    /// totals and footprint off the space at the end, and has no tail —
    /// [`Outcome::tail`](crate::Outcome::tail) is `None` and
    /// [`Outcome::grown_in_tail`](crate::Outcome::grown_in_tail) empty.
    #[must_use]
    pub fn stats_checkpoints(mut self, count: usize) -> Self {
        self.stats_checkpoints = count;
        self
    }

    /// Sets the seed for all randomized choices.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the stabilization expectation (e.g. a scenario that keeps
    /// AWB₁ but breaks AWB₂ through its timers).
    #[must_use]
    pub fn expect_stabilization(mut self, expect: bool) -> Self {
        self.expect_stabilization = expect;
        self
    }

    /// Pins the disk latency model SAN-backed drivers must realize this
    /// scenario under (they also re-derive their pacing from it). Ignored
    /// by the simulator and the plain thread backend.
    #[must_use]
    pub fn san_latency(mut self, latency: SanLatency) -> Self {
        self.san_latency = Some(latency);
        self
    }

    /// Attaches a chaos [`Campaign`].
    ///
    /// # Panics
    ///
    /// Panics if the campaign fails [`Campaign::validate`] for this
    /// scenario's `n`.
    #[must_use]
    pub fn campaign(mut self, campaign: Campaign) -> Self {
        if let Err(msg) = campaign.validate(self.n) {
            panic!("scenario {}: {msg}", self.name);
        }
        self.campaign = Some(campaign);
        self
    }

    /// The crash plan in simulator terms.
    #[must_use]
    pub fn crash_plan(&self) -> CrashPlan {
        let mut plan = CrashPlan::none();
        for &crash in &self.crashes {
            plan = match crash {
                CrashSpec::At { tick, pid } => plan.with_crash_at(SimTime::from_ticks(tick), pid),
                CrashSpec::LeaderAt { tick } => {
                    plan.with_leader_crash_at(SimTime::from_ticks(tick))
                }
            };
        }
        plan
    }

    /// Instantiates the scheduling regime (with the AWB envelope applied,
    /// if any) as a simulator adversary.
    #[must_use]
    pub fn build_adversary(&self) -> Box<dyn Adversary> {
        let inner: Box<dyn Adversary> = match self.adversary {
            AdversarySpec::Synchronous { period } => Box::new(Synchronous::new(period)),
            AdversarySpec::RoundRobin { slot } => Box::new(RoundRobin::new(self.n, slot)),
            AdversarySpec::Random { min, max } => Box::new(SeededRandom::new(self.seed, min, max)),
            AdversarySpec::Bursty {
                fast,
                stall,
                burst_len,
            } => Box::new(Bursty::new(self.n, self.seed, fast, stall, burst_len)),
            AdversarySpec::PartitionedPhases {
                phase_len,
                fast,
                stall,
            } => Box::new(PartitionedPhases::new(self.n, phase_len, fast, stall)),
            AdversarySpec::GrowingBursts {
                victim,
                fast,
                burst_len,
                initial_stall,
                factor,
            } => Box::new(GrowingBursts::new(
                victim,
                fast,
                burst_len,
                initial_stall,
                factor,
            )),
            AdversarySpec::LeaderStaller { base, stall } => {
                Box::new(LeaderStaller::new(base, stall))
            }
        };
        match self.awb {
            Some(AwbSpec {
                timely,
                tau1,
                sigma,
            }) => Box::new(AwbEnvelope::new(
                inner,
                timely,
                SimTime::from_ticks(tau1),
                sigma,
            )),
            None => inner,
        }
    }

    /// Instantiates the timer model for process `pid` (jitter and chaos
    /// streams are derived from the scenario seed and the identity, so runs
    /// stay deterministic per spec).
    #[must_use]
    pub fn build_timer(&self, pid: ProcessId) -> Box<dyn TimerModel> {
        let per_process_seed = self
            .seed
            .wrapping_mul(0x0100_0000_01b3)
            .wrapping_add(pid.index() as u64 + 1);
        match self.timers {
            TimerSpec::Exact => Box::new(ExactTimer),
            TimerSpec::Affine { scale, offset } => Box::new(AffineTimer::new(scale, offset)),
            TimerSpec::Jittered { jitter } => {
                Box::new(JitteredTimer::new(per_process_seed, jitter))
            }
            TimerSpec::ChaoticThenExact {
                chaos_until,
                chaos_max,
            } => Box::new(ChaoticThen::new(
                SimTime::from_ticks(chaos_until),
                chaos_max,
                per_process_seed,
                ExactTimer,
            )),
            TimerSpec::JitterAffineMix {
                jitter,
                scale,
                offset,
            } => {
                if pid.index().is_multiple_of(2) {
                    Box::new(JitteredTimer::new(per_process_seed, jitter))
                } else {
                    Box::new(AffineTimer::new(scale, offset))
                }
            }
            TimerSpec::StuckLow { cap } => Box::new(StuckLowTimer::new(cap)),
        }
    }

    /// Applies the whole spec to a simulation over externally built actors.
    ///
    /// This is the escape hatch for experiments whose actors carry extra
    /// machinery (corrupted memories, consensus proposers, replicated
    /// logs): the scenario still owns scheduling, timers, crashes, horizon,
    /// and sampling, so the run's *environment* remains declarative.
    ///
    /// # Panics
    ///
    /// Panics if `actors.len() != self.n`.
    #[must_use]
    pub fn sim_builder(&self, actors: Vec<Box<dyn Actor>>) -> SimulationBuilder {
        assert_eq!(
            actors.len(),
            self.n,
            "scenario is specified for n = {}",
            self.n
        );
        let mut builder = Simulation::builder(actors)
            .adversary(self.build_adversary())
            .timers_from(|pid| self.build_timer(pid))
            .crash_plan(self.crash_plan())
            .horizon(self.horizon)
            .sample_every(self.sample_every)
            .stats_checkpoints(self.stats_checkpoints);
        if let Some(campaign) = &self.campaign {
            builder = builder.campaign(campaign.clone());
        }
        builder
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} n={} horizon={}]",
            self.name, self.variant, self.n, self.horizon
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The backends that admit `scenario` at a coop pool of `workers`, in
    /// canonical order — the `scenarios --list` column.
    pub(crate) fn admitted(scenario: &Scenario, workers: usize) -> Vec<&'static str> {
        Backend::ALL
            .into_iter()
            .filter(|&backend| scenario.refusal(backend, workers).is_none())
            .map(Backend::name)
            .collect()
    }

    #[test]
    fn builder_accumulates() {
        let s = Scenario::fault_free(OmegaVariant::Alg2, 5)
            .named("x")
            .adversary(AdversarySpec::Synchronous { period: 3 })
            .awb(ProcessId::new(2), 500, 8)
            .timers(TimerSpec::Jittered { jitter: 4 })
            .crash_at(10, ProcessId::new(1))
            .crash_leader_at(20)
            .horizon(1_000)
            .sample_every(10)
            .stats_checkpoints(4)
            .seed(7);
        assert_eq!(s.name, "x");
        assert_eq!(s.crashes.len(), 2);
        assert_eq!(s.crash_plan().directives().len(), 2);
        assert_eq!(s.awb.unwrap().sigma, 8);
        assert!(s.to_string().contains("alg2"));
    }

    #[test]
    fn stepclock_gets_bounded_step_variance() {
        let s = Scenario::fault_free(OmegaVariant::StepClock, 3);
        assert_eq!(s.adversary, AdversarySpec::Random { min: 2, max: 6 });
        let s = Scenario::fault_free(OmegaVariant::Alg1, 3);
        assert_eq!(s.adversary, AdversarySpec::Random { min: 1, max: 6 });
    }

    #[test]
    fn without_awb_clears_expectation() {
        let s = Scenario::fault_free(OmegaVariant::Alg1, 3).without_awb();
        assert!(s.awb.is_none());
        assert!(!s.expect_stabilization);
    }

    #[test]
    fn campaign_gates_driver_eligibility() {
        use omega_sim::chaos::ChaosPhase;
        let partition = Campaign::new().phase(ChaosPhase::Partition {
            groups: vec![vec![ProcessId::new(0)], vec![ProcessId::new(1)]],
            from: 1_000,
            until: 2_000,
        });
        let base = Scenario::fault_free(OmegaVariant::Alg1, 5);
        assert_eq!(admitted(&base, 1), vec!["sim", "san", "coop"]);
        // Partitions + crash waves + heals: every driver realizes them.
        let cut = base.clone().campaign(
            partition
                .clone()
                .phase(ChaosPhase::Wave {
                    crash: vec![ProcessId::new(4)],
                    recover: vec![],
                    at: 2_500,
                })
                .phase(ChaosPhase::Heal { at: 3_000 }),
        );
        assert_eq!(admitted(&cut, 1), vec!["sim", "san", "coop"]);
        // Storms need a stretchable medium: only sim and the SAN device.
        let stormy = base
            .clone()
            .campaign(partition.clone().phase(ChaosPhase::Storm {
                factor: 4,
                jitter: 2,
                from: 100,
                until: 900,
            }));
        assert_eq!(admitted(&stormy, 1), vec!["sim", "san"]);
        // Recovery is sim-only: wall clusters cannot resurrect a node.
        let lazarus = base.clone().campaign(partition.phase(ChaosPhase::Wave {
            crash: vec![],
            recover: vec![ProcessId::new(2)],
            at: 2_500,
        }));
        assert_eq!(admitted(&lazarus, 1), vec!["sim"]);
        // Directed cuts and flaps act through the space's visibility mask:
        // every driver realizes them (the positive-control hostile
        // scenario must still elect on wall backends).
        let directed = base
            .clone()
            .campaign(Campaign::new().phase(ChaosPhase::Cut {
                blinded: vec![ProcessId::new(3), ProcessId::new(4)],
                hidden: vec![ProcessId::new(0), ProcessId::new(1)],
                from: 1_000,
                until: 40_000,
            }));
        assert_eq!(admitted(&directed, 1), vec!["sim", "san", "coop"]);
        let flappy = base.campaign(Campaign::new().phase(ChaosPhase::Flap {
            groups: vec![vec![ProcessId::new(0)], vec![ProcessId::new(1)]],
            period: 2_000,
            from: 1_000,
            until: 9_000,
        }));
        assert_eq!(admitted(&flappy, 1), vec!["sim", "san", "coop"]);
        // A non-electing expectation strips every wall driver regardless
        // of the campaign's clauses.
        let hostile = flappy.expect_stabilization(false);
        assert_eq!(admitted(&hostile, 1), vec!["sim"]);
    }

    #[test]
    fn coop_admission_cap_scales_with_the_worker_pool() {
        assert_eq!(coop_max_n(1), 128);
        assert_eq!(coop_max_n(2), 128, "a small pool keeps the old ceiling");
        assert_eq!(coop_max_n(4), 256);
        assert_eq!(coop_max_n(8), 512);
        assert_eq!(coop_max_n(16), 1024);

        let big = Scenario::fault_free(OmegaVariant::Alg1, 256);
        assert!(
            !admits(Backend::Coop, &big, 1),
            "n = 256 stays refused at the single-worker default"
        );
        assert!(
            !admits(Backend::Coop, &big, 2),
            "two workers do not reach the n = 256 budget"
        );
        assert!(admits(Backend::Coop, &big, 4), "four workers admit n = 256");
        assert!(
            !admits(Backend::San, &big, 4),
            "the SAN ignores the pool size"
        );
        let huge = Scenario::fault_free(OmegaVariant::Alg1, 1024);
        assert!(!admits(Backend::Coop, &huge, 8));
        assert!(admits(Backend::Coop, &huge, 16));
        // Past SIM_MAX_N the coop pool is the *only* backend left: a
        // larger sim run peaks above its gate's memory ceiling.
        assert!(admits(Backend::Sim, &big, 1));
        assert!(
            admits(
                Backend::Sim,
                &Scenario::fault_free(OmegaVariant::Alg1, 512),
                1
            ),
            "n = 512 is the sim's ceiling"
        );
        assert!(
            !admits(Backend::Sim, &huge, 16),
            "the sim cap does not scale with the coop pool"
        );
    }

    fn admits(backend: Backend, scenario: &Scenario, workers: usize) -> bool {
        scenario.refusal(backend, workers).is_none()
    }

    fn refusal_of(backend: Backend, scenario: &Scenario, workers: usize) -> String {
        scenario
            .refusal(backend, workers)
            .unwrap_or_else(|| panic!("{} admits {}", backend.name(), scenario.name))
    }

    #[test]
    fn backend_parsing_and_admission() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Sim));
        assert_eq!(Backend::parse("threads"), None, "a per-task pool is coop's");
        assert_eq!(Backend::parse("san"), Some(Backend::San));
        assert_eq!(Backend::parse("coop"), Some(Backend::Coop));
        assert_eq!(Backend::parse("tokio"), None);

        let small = crate::registry::fault_free();
        let big = crate::registry::n_scaling(&[32]).pop().unwrap();
        let staller = crate::registry::no_awb_staller();
        assert!(admits(Backend::San, &small, 1));
        assert!(!admits(Backend::San, &big, 1), "n > 16 stays off the SAN");
        assert!(
            !admits(Backend::San, &big, 16),
            "the pool size only moves the coop column"
        );
        assert!(
            !admits(Backend::San, &staller, 1),
            "no literal adversary on a wall clock"
        );
        assert!(admits(Backend::Sim, &big, 1) && admits(Backend::Sim, &staller, 1));

        // The cooperative backend is the whole point of the scaling
        // probes on a wall clock: it admits everything up to the
        // worker-dependent cap coop_max_n(workers).
        assert!(admits(Backend::Coop, &small, 1));
        assert!(admits(Backend::Coop, &big, 1), "coop runs n = 32 for real");
        let n64 = crate::registry::n_scaling(&[64]).pop().unwrap();
        let n128 = crate::registry::n_scaling(&[128]).pop().unwrap();
        let n256 = crate::registry::n_scaling(&[256]).pop().unwrap();
        assert!(admits(Backend::Coop, &n64, 1) && admits(Backend::Coop, &n128, 1));
        assert!(
            !admits(Backend::Coop, &n256, 1),
            "n = 256 needs a sharded pool: one worker cannot retire its load inside a 100 µs-tick horizon"
        );
        assert!(
            admits(Backend::Coop, &n256, 4),
            "four sharded workers admit n = 256"
        );
        let refusal = refusal_of(Backend::Coop, &n256, 1);
        assert!(
            refusal.contains("1 worker(s)") && refusal.contains("n <= 128"),
            "the skip line states the worker-dependent cap: {refusal}"
        );
        assert!(
            refusal.contains("--workers 4"),
            "…and the pool that would lift it: {refusal}"
        );
        let n512 = crate::registry::n_scaling(&[512]).pop().unwrap();
        let n1024 = crate::registry::n_scaling(&[1024]).pop().unwrap();
        assert!(!admits(Backend::Coop, &n512, 4) && admits(Backend::Coop, &n512, 8));
        assert!(!admits(Backend::Coop, &n1024, 8) && admits(Backend::Coop, &n1024, 16));
        // Past SIM_MAX_N the coop pool is the only backend: a larger sim
        // run peaks above its gate's memory ceiling and it refuses loudly.
        assert!(admits(Backend::Sim, &n256, 1) && admits(Backend::Sim, &n512, 1));
        assert!(!admits(Backend::Sim, &n1024, 1) && !admits(Backend::Sim, &n1024, 16));
        let sim_refusal = refusal_of(Backend::Sim, &n1024, 1);
        assert!(
            sim_refusal.contains("n <= 512") && sim_refusal.contains("coop"),
            "the sim skip line names its cap and the backend that scales: {sim_refusal}"
        );
        assert!(
            !admits(Backend::Coop, &staller, 16),
            "coop is still a wall clock at any pool size"
        );
        let contended = crate::registry::contention_sweep(&[(32, 4)]).pop().unwrap();
        assert!(
            admits(Backend::Coop, &contended, 1) && !admits(Backend::San, &contended, 1),
            "the contention sweep's large members are coop-only among wall clocks"
        );
    }

    #[test]
    fn chaos_admission_matrix_matches_list_output() {
        // The `--list` column for each chaos registry scenario is the
        // backends whose `Scenario::refusal` is `None`; the suite dispatch
        // reads the same rule. Pin both views per clause. First the whole
        // matrix: for every registry scenario, backend and pool size, "no
        // refusal" is the name in the `--list` column, and a refusal names
        // a clause.
        for scenario in crate::registry::all() {
            for workers in [1, 4, 8, 16] {
                let listed = admitted(&scenario, workers);
                for backend in Backend::ALL {
                    let refusal = scenario.refusal(backend, workers);
                    let context = format!("{} on {} at {workers}", scenario.name, backend.name());
                    assert_eq!(
                        listed.contains(&backend.name()),
                        refusal.is_none(),
                        "{context}"
                    );
                    let clauses = ["non-electing", "recovery", "storm", "n <= "];
                    assert!(
                        refusal.is_none_or(|why| clauses.iter().any(|c| why.contains(c))),
                        "{context}"
                    );
                }
            }
        }

        let by_name = |name: &str| {
            crate::registry::all()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("registry scenario {name} missing"))
        };

        // Partitions, crash waves and heals: realizable on every backend.
        let partition = by_name("chaos/partition-heal");
        assert_eq!(admitted(&partition, 1), ["sim", "san", "coop"]);
        for backend in Backend::ALL {
            assert!(admits(backend, &partition, 1));
        }

        // Latency storms: only media with a stretchable clock — the
        // simulator, and the SAN's simulated block device.
        let storm = by_name("chaos/latency-storm");
        assert_eq!(admitted(&storm, 1), ["sim", "san"]);
        assert!(admits(Backend::San, &storm, 1));
        assert!(!admits(Backend::Coop, &storm, 1));
        assert!(
            refusal_of(Backend::Coop, &storm, 1).contains("storm"),
            "the refusal must name the clause"
        );

        // Recovery waves: sim-only.
        let wave = by_name("chaos/wave-recover");
        assert_eq!(admitted(&wave, 1), ["sim"]);
        for backend in [Backend::San, Backend::Coop] {
            assert!(!admits(backend, &wave, 1));
            assert!(
                refusal_of(backend, &wave, 1).contains("recovery"),
                "the refusal must name the clause"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn campaign_builder_validates_against_n() {
        use omega_sim::chaos::ChaosPhase;
        let _ = Scenario::fault_free(OmegaVariant::Alg1, 3).campaign(Campaign::new().phase(
            ChaosPhase::Wave {
                crash: vec![ProcessId::new(7)],
                recover: vec![],
                at: 1,
            },
        ));
    }

    #[test]
    fn every_adversary_spec_builds() {
        let specs = [
            AdversarySpec::Synchronous { period: 2 },
            AdversarySpec::RoundRobin { slot: 2 },
            AdversarySpec::Random { min: 1, max: 5 },
            AdversarySpec::Bursty {
                fast: 2,
                stall: 100,
                burst_len: 4,
            },
            AdversarySpec::PartitionedPhases {
                phase_len: 100,
                fast: 2,
                stall: 50,
            },
            AdversarySpec::GrowingBursts {
                victim: ProcessId::new(0),
                fast: 2,
                burst_len: 3,
                initial_stall: 10,
                factor: 2,
            },
            AdversarySpec::LeaderStaller {
                base: 2,
                stall: 100,
            },
        ];
        for spec in specs {
            let s = Scenario::fault_free(OmegaVariant::Alg1, 4).adversary(spec.clone());
            let mut adversary = s.build_adversary();
            let d = adversary.next_step_delay(ProcessId::new(1), SimTime::ZERO);
            assert!(d >= 1, "{spec:?} produced zero delay");
        }
    }

    #[test]
    fn every_timer_spec_builds() {
        let specs = [
            TimerSpec::Exact,
            TimerSpec::Affine {
                scale: 2,
                offset: 1,
            },
            TimerSpec::Jittered { jitter: 5 },
            TimerSpec::ChaoticThenExact {
                chaos_until: 100,
                chaos_max: 9,
            },
            TimerSpec::JitterAffineMix {
                jitter: 5,
                scale: 2,
                offset: 3,
            },
            TimerSpec::StuckLow { cap: 4 },
        ];
        for spec in specs {
            let s = Scenario::fault_free(OmegaVariant::Alg1, 4).timers(spec);
            for i in 0..4 {
                let mut timer = s.build_timer(ProcessId::new(i));
                assert!(timer.duration(SimTime::from_ticks(1_000), 10) >= 1);
            }
        }
    }
}
