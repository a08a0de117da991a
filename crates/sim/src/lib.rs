//! Deterministic discrete-event simulation of asynchronous shared-memory
//! systems, with adversarial schedulers and AWB timer models.
//!
//! The paper proves its algorithms correct against *every* run in which the
//! behavioral assumption AWB holds; this crate makes those runs executable:
//!
//! * [`adversary`] — step-interleaving policies, from fully synchronous to
//!   seeded-random, bursty, and actively leader-stalling schedules, plus the
//!   [`AwbEnvelope`](adversary::AwbEnvelope) wrapper that imposes AWB₁
//!   (an eventually timely writer) on any of them.
//! * [`timers`] — `T_R(τ, x)` families realizing the asymptotically
//!   well-behaved timer definition of AWB₂ (and violations of it), plus the
//!   Figure-1 domination checker.
//! * [`crash`] — scripted crash-stop failures, including "crash whoever is
//!   leader at time t".
//! * [`Simulation`] — the deterministic event loop driving [`Actor`]s on
//!   virtual time, sampling leader estimates and shared-memory statistics.
//!
//! Determinism: all randomness is seeded and the event queue breaks ties by
//! scheduling order, so every run is exactly reproducible.
//!
//! # Performance: the event loop and the two instrumentation modes
//!
//! The simulator is measured in wall-clock events per second
//! ([`RunReport::events_per_sec`]) as well as in model-level reads and
//! writes, and two design choices keep the former high without touching
//! the latter:
//!
//! * **Timer-wheel event queue** — [`event::EventQueue`] buckets
//!   near-horizon events (step delays, timer re-arms — the overwhelming
//!   majority) into O(1) slots and falls back to a binary heap for
//!   far-future events, while popping in exactly the `(time, seq)` order
//!   of a plain heap. Traces are tick-identical either way.
//! * **Instrumentation modes** — a
//!   [`MemorySpace`](omega_registers::MemorySpace) counts register
//!   accesses either *eagerly* (an atomic read-modify-write per access;
//!   correct under any concurrency, used by the OS-thread runtime) or
//!   *deferred* (`omega_registers::Instrumentation::Deferred`: a plain
//!   unsynchronized load/add/store on the same counters, so there is
//!   nothing to flush before a `stats()`/`footprint()` snapshot). The
//!   simulation loop is single-threaded, so the deferred mode is exact
//!   here — checkpointed snapshots are equal tick-for-tick to eager ones
//!   (asserted by the `deferred_instrumentation` parity tests) — and
//!   `OmegaVariant::build` therefore defaults to it for simulator actors,
//!   while `build_processes` (the thread-runtime path) stays eager.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod arrivals;
pub mod chaos;
pub mod crash;
pub mod event;
pub mod metrics;
pub mod rng;
pub mod timers;
pub mod trace;
pub mod wheel;

mod harness;
mod process;
mod time;

pub use chaos::{Campaign, ChaosPhase, ChaosStats};
pub use harness::{RunReport, Simulation, SimulationBuilder, WallClock};
pub use process::{Actor, StepCtx};
pub use time::SimTime;
pub use trace::{Trace, TraceError};

/// Commonly used items for downstream crates and examples.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, AwbEnvelope, Bursty, GrowingBursts, LeaderStaller, PartitionedPhases,
        RoundRobin, SeededRandom, Synchronous,
    };
    pub use crate::crash::CrashPlan;
    pub use crate::metrics::StabilizationReport;
    pub use crate::timers::{
        AffineTimer, ChaoticThen, ExactTimer, JitteredTimer, StuckLowTimer, TimerModel,
    };
    pub use crate::{Actor, RunReport, SimTime, Simulation, StepCtx};
}
