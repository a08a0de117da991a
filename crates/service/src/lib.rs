//! A leader-gated replicated KV service over Ω, measured under open-loop
//! client load.
//!
//! The election crates answer "how fast does Ω stabilize?" in protocol
//! time. This crate asks the question a user of the service would ask:
//! **when the leader dies, how many requests fail, and for how long?**
//! It assembles the existing pieces — an Ω variant ([`omega_core`]), the
//! leader-gated replicated log ([`omega_consensus`]), the declarative
//! election environment ([`omega_scenario`]) — into a small replicated KV
//! service, puts an open-loop client population in front of it
//! (`omega_sim::arrivals`), and reports per-request outcomes:
//!
//! * **committed** — acknowledged (a leader-local get, or a put whose log
//!   slot decided),
//! * **rejected** — actively refused because the contacted node did not
//!   consider itself leader,
//! * **stalled** — unresolved past the client's deadline, the silent
//!   failure mode of a crashed believed-leader.
//!
//! The headline metric is the [`UnavailWindow`]: from each scripted crash
//! to the first post-crash acknowledgment, with the requests rejected or
//! stalled inside it. Latencies go into an HDR-style [`Histogram`]
//! (constant ≤ 6.25 % relative error over the full `u64` range).
//!
//! A [`ServiceScenario`] pairs an election [`Scenario`]
//! (adversary, AWB envelope, timers, crash script, horizon, seed) with a
//! [`WorkloadSpec`]; two drivers realize it:
//!
//! | driver | substrate | determinism |
//! |---|---|---|
//! | [`ServiceSimDriver`] | discrete-event simulator | byte-identical per seed |
//! | [`ServiceWallDriver`] | the election's wall-clock substrates: `coop` (replicas and pump on the deadline wheel) or `threads` (one OS thread each) | wall-clock, advisory |
//!
//! The committed suite lives in [`registry`]; the `service` bench binary
//! runs it and gates `BENCH_service.json` on the sim records.
//!
//! [`Scenario`]: omega_scenario::Scenario

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod histogram;
pub mod ledger;
pub mod node;
pub mod outcome;
pub mod registry;
pub mod sim_driver;
pub mod spec;
pub mod wall;
pub mod workload;

pub use histogram::Histogram;
pub use ledger::{Ledger, RequestState};
pub use node::ServiceNode;
pub use outcome::{ServiceOutcome, UnavailWindow};
pub use sim_driver::ServiceSimDriver;
pub use spec::ServiceScenario;
pub use wall::ServiceWallDriver;
pub use workload::{RequestKind, RequestMeta, WorkloadSpec};
