//! Native multi-threaded runtime for the Ω election algorithms.
//!
//! The simulator (`omega-sim`) checks the algorithms against adversarial
//! schedules on virtual time; this crate runs the *same process code* on
//! real operating-system threads and wall-clock timers — the deployment a
//! downstream user would actually run:
//!
//! * [`Node`] — one election process: a `T2` heartbeat thread, a `T3` timer
//!   thread, and the thread-safe `leader()` query.
//! * [`Cluster`] — `n` nodes over one shared memory, with crash injection
//!   and stable-leader polling; it hosts application tasks ([`CoopTask`])
//!   beside the node loops on either substrate ([`Cluster::start_in`]).
//! * [`coop`] — the cooperative substrate: the same task bodies multiplexed
//!   onto one worker (or a small pool) over a wall-clock deadline wheel,
//!   so real-time elections scale past the `2n`-OS-threads wall
//!   ([`Cluster::start_coop`]).
//! * [`san`] — a simulated storage-area-network disk with atomic block
//!   registers, the deployment substrate the paper's introduction motivates
//!   (network-attached disks as shared memory).
//!
//! Real time plays the role of the AWB assumption here: OS schedulers are
//! (almost always) fair enough that the current leader's heartbeat cadence
//! is eventually bounded (AWB₁), and `thread::sleep(x · tick)` is a timer
//! that trivially dominates `f(τ, x) = x · tick` (AWB₂). Unlike the
//! simulator, none of this is adversarial — which is exactly why both
//! drivers exist.
//!
//! ```no_run
//! use omega_core::OmegaVariant;
//! use omega_runtime::{Cluster, NodeConfig};
//! use std::time::Duration;
//!
//! let cluster = Cluster::start(OmegaVariant::Alg2, 5, NodeConfig::default());
//! let leader = cluster
//!     .await_stable_leader(Duration::from_millis(50), Duration::from_secs(5))
//!     .expect("stable leader");
//! cluster.crash(leader);
//! let next = cluster
//!     .await_stable_leader(Duration::from_millis(50), Duration::from_secs(5))
//!     .expect("failover");
//! assert_ne!(next, leader);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coop;
pub mod san;

mod cluster;
mod node;
mod watch;

pub use cluster::Cluster;
pub use coop::{CoopConfig, CoopRuntime, CoopTask};
pub use node::{LeaderProbe, Node, NodeConfig};
pub use watch::{LeaderEvent, LeaderEvents, LeaderWatch};
