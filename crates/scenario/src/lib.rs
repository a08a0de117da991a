//! One declarative scenario spec, every backend.
//!
//! The paper's central claim is that the *same* Ω algorithms behave
//! correctly both against adversarial schedules (checked in a simulator)
//! and on real hardware (run on threads). This crate makes that claim a
//! first-class API: a [`Scenario`] describes an election experiment once —
//! variant, system size, scheduling regime, AWB envelope, timer model,
//! crash script, horizon, seed — with no reference to any backend, and a
//! [`Driver`] realizes it:
//!
//! * [`SimDriver`] — the deterministic discrete-event simulator: virtual
//!   time, literally enforced adversaries and timer models, reproducible
//!   from the seed.
//! * [`WallDriver`] — wall-clock time on one of two real-time
//!   substrates, with scenario ticks mapped to real durations and the
//!   crash script and campaign replayed on the wall clock (one
//!   [`launch`](WallDriver::launch), one election loop). Both run the
//!   node loops as deadline-wheel tasks on the one cooperative runtime
//!   and differ in the pool and the memory:
//!   - `coop` — in-memory registers on a pool of `--workers` threads. A
//!     pool smaller than the task set multiplexes the node loops, the
//!     real-time substrate that scales past `n = 16` and realizes
//!     fairness through queue discipline instead of kernel preemption; a
//!     pool with a worker for every task (`2n` for an election) gives
//!     each loop an operating-system thread of its own, and the kernel
//!     scheduler is the schedule;
//!   - `san` — the paper's motivating deployment: one worker per task,
//!     and every 1WnR register is a block of a simulated
//!     storage-area-network disk (one block per register, with injected
//!     access latency and block-level footprint accounting in
//!     [`Outcome::san`]); it runs `n <=` [`THREAD_MAX_N`].
//!
//! All return the same [`Outcome`] type, measured through the same
//! instrumented registers and expressed in the same tick units, so results
//! are directly comparable across backends. The [`registry`] ships a
//! curated suite of named scenarios (fault-free, failover chains, crash
//! storms, σ stress, AWB edge cases, scaling probes) shared by the tests
//! and the benchmark binaries; parameterized families
//! ([`registry::sigma_sweep`], [`registry::n_scaling`],
//! [`registry::san_latency_sweep`], [`registry::contention_sweep`]) are
//! built through the [`registry::family`] helper.
//!
//! # The outcome-diff regression gate
//!
//! Outcomes are not just observed — they are *defended*. The
//! `omega-bench` `scenarios` binary records the whole suite into
//! `BENCH_scenarios.json` (stabilization tick, read/write totals, scan
//! savings, footprint per scenario), and the same binary re-runs the
//! suite and diffs it against that committed baseline:
//!
//! ```text
//! # record a new baseline (after an intentional perf change)
//! cargo run --release -p omega-bench --bin scenarios
//!
//! # gate: exits non-zero on a stabilization-tick regression > 25%
//! # or a total-write regression > 15% against the committed file
//! cargo run --release -p omega-bench --bin scenarios -- --check BENCH_scenarios.json
//! ```
//!
//! CI runs the `--check` form on every push, so a change that silently
//! slows stabilization or inflates write traffic fails the build; new
//! scenarios (no trend yet) are reported but never fail the gate. Set
//! `BENCH_OUT=<path>` to also publish the current outcomes from a check
//! run. The [`Outcome::reads_skipped`] / [`Outcome::shard_passes`]
//! counters in each record make the sharded-scan savings part of the
//! defended trend line. Every record is written by
//! [`Outcome::json_record`] and read back by the gate through the one
//! flat-record codec, [`record`].
//!
//! # One spec, two backends
//!
//! ```no_run
//! use omega_scenario::{registry, Backend, Driver, SimDriver, WallDriver};
//!
//! let scenario = registry::named("leader-crash-failover").unwrap();
//! let simulated = SimDriver.run(&scenario);
//! // A worker per task: 2n for an n-process election.
//! let native = WallDriver::new(Backend::Coop, 2 * scenario.n).run(&scenario);
//! for outcome in [&simulated, &native] {
//!     outcome.assert_election();          // Theorem 1, on both backends
//!     assert_eq!(outcome.crashed.len(), 1);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod record;
pub mod registry;
pub mod spec_text;

mod driver;
mod outcome;
mod sim_driver;
mod spec;
mod wall;

pub use driver::Driver;
pub use outcome::{ChaosOutcome, NonElectionWitness, Outcome, SanFootprint, TailActivity};
pub use sim_driver::SimDriver;
pub use spec::{
    coop_max_n, AdversarySpec, AwbSpec, Backend, CrashSpec, Scenario, TimerSpec, COOP_MAX_N,
    COOP_NODES_PER_WORKER, SIM_MAX_N, THREAD_MAX_N,
};
pub use wall::{Script, WallDriver, WallPacing};
