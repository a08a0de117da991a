//! Shared infrastructure for the experiment harness.
//!
//! Every figure and theorem of the paper has a binary in `src/bin/` that
//! regenerates its observable shape and asserts it; each binary's module
//! doc names the experiments (E1–E13) it reproduces. This library holds
//! what those binaries share: plain text table rendering, and the harness
//! of the two suite bins (`scenarios`, `service`) — their flags, artifacts
//! and `--check` gate ([`suite`]). The figure bins build their scenarios
//! from `Scenario::fault_free` and read the simulator's `Outcome`
//! directly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod suite;
pub mod table;
