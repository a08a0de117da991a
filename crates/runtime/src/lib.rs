//! Native multi-threaded runtime for the Ω election algorithms.
//!
//! The simulator (`omega-sim`) checks the algorithms against adversarial
//! schedules on virtual time; this crate runs the *same process code* on
//! real operating-system threads and wall-clock timers — the deployment a
//! downstream user would actually run:
//!
//! * [`Node`] — one election process: its `T2` heartbeat and `T3` timer
//!   tasks, and the thread-safe `leader()` query.
//! * [`Cluster`] — `n` nodes over one shared memory, with crash injection
//!   and stable-leader polling; it hosts application tasks ([`CoopTask`])
//!   beside the node loops ([`Cluster::start_in`]).
//! * [`coop`] — the one task engine under every cluster: the task bodies as
//!   polled tasks on a wall-clock deadline wheel, run by one worker per
//!   task whenever the pool has one for each ([`Cluster::start`], or a
//!   pool of at least `2n` plus the application tasks) or multiplexed onto
//!   a small pool so real-time elections scale to hundreds of nodes
//!   ([`Cluster::start_coop`]).
//! * [`san`] — a simulated storage-area-network disk and a memory space
//!   whose registers live on its blocks
//!   ([`SanDisk::memory_space`](san::SanDisk::memory_space)), the
//!   deployment substrate the paper's introduction motivates
//!   (network-attached disks as shared memory).
//!
//! Real time plays the role of the AWB assumption here: schedulers are
//! (almost always) fair enough that the current leader's heartbeat cadence
//! is eventually bounded (AWB₁), and a deadline `x · tick` away is a timer
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
