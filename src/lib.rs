//! # omega-shm — electing an eventual leader in asynchronous shared memory
//!
//! A production-quality Rust reproduction of *“Electing an Eventual Leader
//! in an Asynchronous Shared Memory System”* (A. Fernández, E. Jiménez,
//! M. Raynal — DSN 2007 / IRISA PI-1821): the Ω eventual-leader oracle
//! built from one-writer/multi-reader atomic registers under the weak
//! **AWB** assumption, together with everything needed to *check* the
//! paper's claims — an instrumented register substrate, a deterministic
//! adversarial simulator, a native thread runtime, an Ω-driven consensus
//! layer, and executable versions of the lower-bound proofs.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here as a module.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`registers`] | `omega-registers` | 1WnR/nWnR atomic registers, instrumentation, linearizability checking |
//! | [`sim`] | `omega-sim` | deterministic event loop, adversaries, AWB timer models, crash plans |
//! | [`omega`] | `omega-core` | Algorithm 1 (Fig. 2), Algorithm 2 (Fig. 5), §3.5 variants |
//! | [`runtime`] | `omega-runtime` | wall-clock clusters on one cooperative task engine, SAN-style disk registers |
//! | [`scenario`] | `omega-scenario` | **the front door**: declarative scenarios, backend drivers, comparable outcomes |
//! | [`consensus`] | `omega-consensus` | round-based consensus, replicated log, KV demo |
//! | [`service`] | `omega-service` | leader-gated replicated KV under open-loop load, failover-unavailability SLO |
//! | [`lowerbound`] | `omega-lowerbound` | broken variants + executable lower-bound proofs |
//!
//! # Five-minute tour
//!
//! Describe the experiment once — variant, system size, schedule, AWB
//! envelope, crash script, horizon — and run the *same spec* on any
//! backend. [`scenario::SimDriver`] checks it against an adversarial
//! schedule in deterministic virtual time:
//!
//! ```
//! use omega_shm::omega::OmegaVariant;
//! use omega_shm::scenario::{Driver, Scenario, SimDriver};
//!
//! // A 5-process Figure-2 system under a seeded random schedule inside an
//! // AWB envelope, with the elected leader crashing at tick 20 000.
//! let scenario = Scenario::fault_free(OmegaVariant::Alg1, 5)
//!     .crash_leader_at(20_000)
//!     .horizon(60_000);
//!
//! let outcome = SimDriver.run(&scenario);
//!
//! // Theorem 1: a correct leader is eventually agreed by everyone — again,
//! // after the crash.
//! outcome.assert_election();
//! assert_eq!(outcome.crashed.len(), 1);
//!
//! // Theorem 3: after stabilization only the leader writes shared memory.
//! let tail = outcome.tail.as_ref().unwrap();
//! assert_eq!(tail.writers.iter().collect::<Vec<_>>(), vec![outcome.elected.unwrap()]);
//! ```
//!
//! [`scenario::WallDriver`] runs the identical value against wall-clock
//! timers — on a coop worker pool, shared or one worker per task, or one
//! worker per task over SAN disk blocks — returning the same
//! [`scenario::Outcome`] type in the same tick units:
//!
//! ```no_run
//! use omega_shm::scenario::{registry, Backend, Driver, SimDriver, WallDriver};
//!
//! let scenario = registry::named("leader-crash-failover").unwrap();
//! let simulated = SimDriver.run(&scenario);
//! // A worker per task: 2n for an n-process election.
//! let native = WallDriver::new(Backend::Coop, 2 * scenario.n).run(&scenario);
//! assert!(simulated.stabilized && native.stabilized);
//! ```
//!
//! The [`scenario::registry`] ships the curated suite — fault-free
//! baselines, failover chains, crash storms, σ stress, AWB edge cases,
//! scaling probes — used by the integration tests and the `omega-bench`
//! binaries alike.
//!
//! See `ROADMAP.md` for the architecture (its driver-axis table) and the
//! open work, `CHANGES.md` for what each change measured, and
//! `benchmark/README.md` for the end-to-end benchmark.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use omega_consensus as consensus;
pub use omega_core as omega;
pub use omega_lowerbound as lowerbound;
pub use omega_registers as registers;
pub use omega_runtime as runtime;
pub use omega_scenario as scenario;
pub use omega_service as service;
pub use omega_sim as sim;
