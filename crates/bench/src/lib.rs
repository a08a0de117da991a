//! Shared infrastructure for the experiment harness.
//!
//! Every figure and theorem of the paper has a binary in `src/bin/` that
//! regenerates its observable shape (see `EXPERIMENTS.md` at the workspace
//! root for the index). This library holds what those binaries share: plain
//! text table rendering, the standard election-run summary, and the
//! harness of the two suite bins (`scenarios`, `service`) — their flags,
//! artifacts and `--check` gate ([`suite`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod suite;
pub mod table;

mod summary;

pub use summary::{run_election, run_scenario, AwbParams, ElectionSummary};
