//! Eventual leader oracles (Ω) for asynchronous shared memory.
//!
//! This crate implements the algorithms of *“Electing an Eventual Leader in
//! an Asynchronous Shared Memory System”* (Fernández, Jiménez & Raynal,
//! DSN 2007):
//!
//! * [`Alg1Process`] — Figure 2: the write-efficient Ω. After
//!   stabilization only the elected leader writes shared memory (a single
//!   register), and every shared variable except the leader's `PROGRESS`
//!   entry is bounded.
//! * [`Alg2Process`] — Figure 5: Ω with *fully bounded* shared memory via a
//!   two-flag handshake per process pair; in exchange, every correct
//!   process writes forever (provably unavoidable, Theorem 5).
//! * [`MwmrProcess`] — Section 3.5(a): Figure 2 with each suspicion column
//!   collapsed into one nWnR register. It and [`Alg1Process`] are one
//!   heartbeat process type over two suspicion stores, and [`MwmrMemory`]
//!   and [`Alg1Memory`] one memory type.
//! * [`StepClockProcess`] — Section 3.5(b): timers replaced by counted
//!   steps.
//!
//! All variants provide the Ω interface through [`OmegaProcess`]:
//! `leader()` (task `T1`), one `T2` heartbeat-loop iteration at a time, and
//! the `T3` timer-expiry body. [`OmegaActor`] adapts any of them to the
//! [`omega_sim`] scheduler; the `omega-runtime` crate runs the same
//! processes on real threads.
//!
//! # The Ω contract
//!
//! In every run where the AWB assumption holds (one eventually-timely
//! writer + asymptotically well-behaved timers elsewhere):
//!
//! * **Validity** — `leader()` returns a process identity.
//! * **Eventual Leadership** — there is a finite time after which every
//!   invocation at every correct process returns the same correct identity.
//! * **Termination** — `leader()` always returns.
//!
//! # Electing a leader in simulation
//!
//! ```
//! use omega_core::{boxed_actors, Alg1Memory, Alg1Process};
//! use omega_registers::{MemorySpace, ProcessId};
//! use omega_sim::prelude::*;
//! use std::sync::Arc;
//!
//! let space = MemorySpace::new(3);
//! let memory = Alg1Memory::new(&space);
//! let processes: Vec<Alg1Process> = ProcessId::all(3)
//!     .map(|pid| Alg1Process::new(Arc::clone(&memory), pid))
//!     .collect();
//!
//! let report = Simulation::builder(boxed_actors(processes))
//!     .adversary(AwbEnvelope::new(
//!         SeededRandom::new(7, 1, 8),
//!         ProcessId::new(0),         // the AWB₁ timely process
//!         SimTime::from_ticks(500),  // τ₁
//!         4,                         // σ
//!     ))
//!     .memory(space)
//!     .horizon(20_000)
//!     .run();
//!
//! let elected = report.elected_leader().expect("an AWB run stabilizes");
//! assert!(report.correct.contains(elected));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alg1;
mod alg2;
mod baseline;
mod candidates;
mod fig2;
mod heartbeat;
mod mwmr;
mod stepclock;
mod variant;

pub use alg1::{Alg1Memory, Alg1Process};
pub use alg2::{Alg2Memory, Alg2Process};
pub use baseline::{EsMemory, EsOmega};
pub use candidates::{elect_least_suspected, CandidateInit};
pub use heartbeat::{HeartbeatMemory, HeartbeatProcess, T3_SHARD_SIZE};
pub use mwmr::{MwmrMemory, MwmrProcess};
pub use stepclock::{StepClockProcess, NEVER_TIMEOUT};
pub use variant::{BuiltSystem, OmegaVariant};

use omega_registers::ProcessId;
use omega_sim::{Actor, StepCtx};

/// A process of an eventual-leader algorithm, exposed task by task.
///
/// The paper structures every algorithm as three tasks; this trait mirrors
/// that decomposition so drivers (simulator, thread runtime) own all
/// scheduling:
///
/// * [`leader`](OmegaProcess::leader) — task `T1`, the Ω query. Reads shared
///   memory; may be invoked at any time, by any driver.
/// * [`t2_step`](OmegaProcess::t2_step) — one iteration of the `T2`
///   heartbeat loop.
/// * [`on_timer_expire`](OmegaProcess::on_timer_expire) — the `T3` body;
///   returns the next timeout value (Figure 2, line 27).
pub trait OmegaProcess: Send {
    /// This process's identity.
    fn pid(&self) -> ProcessId;

    /// Number of processes in the system.
    fn n(&self) -> usize;

    /// Task `T1`: the Ω `leader()` primitive (reads shared memory).
    fn leader(&self) -> ProcessId;

    /// One iteration of the task `T2` loop.
    fn t2_step(&mut self);

    /// The task `T3` body; returns the next timeout value to arm the local
    /// timer with.
    fn on_timer_expire(&mut self) -> u64;

    /// Timeout value for the first arming of the timer.
    fn initial_timeout(&self) -> u64;

    /// Leader estimate cached by the most recent `t2_step` (pure accessor;
    /// `None` before the first step).
    fn cached_leader(&self) -> Option<ProcessId>;
}

/// Adapts an [`OmegaProcess`] to the simulator's [`Actor`] interface.
#[derive(Debug)]
pub struct OmegaActor<P>(P);

impl<P: OmegaProcess> OmegaActor<P> {
    /// Wraps `process` for simulation.
    #[must_use]
    pub fn new(process: P) -> Self {
        OmegaActor(process)
    }

    /// Shared view of the wrapped process.
    #[must_use]
    pub fn process(&self) -> &P {
        &self.0
    }

    /// Unwraps the process.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.0
    }
}

impl<P: OmegaProcess> Actor for OmegaActor<P> {
    fn on_step(&mut self, _ctx: StepCtx) {
        self.0.t2_step();
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        self.0.on_timer_expire()
    }

    fn initial_timeout(&self) -> u64 {
        self.0.initial_timeout()
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.0.cached_leader()
    }
}

impl OmegaProcess for Box<dyn OmegaProcess> {
    fn pid(&self) -> ProcessId {
        (**self).pid()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn leader(&self) -> ProcessId {
        (**self).leader()
    }

    fn t2_step(&mut self) {
        (**self).t2_step();
    }

    fn on_timer_expire(&mut self) -> u64 {
        (**self).on_timer_expire()
    }

    fn initial_timeout(&self) -> u64 {
        (**self).initial_timeout()
    }

    fn cached_leader(&self) -> Option<ProcessId> {
        (**self).cached_leader()
    }
}

/// Boxes a vector of Ω processes into simulator actors, preserving order.
#[must_use]
pub fn boxed_actors<P: OmegaProcess + 'static>(processes: Vec<P>) -> Vec<Box<dyn Actor>> {
    processes
        .into_iter()
        .map(|p| Box::new(OmegaActor::new(p)) as Box<dyn Actor>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn omega_actor_delegates() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let mem = Alg1Memory::new(&space);
        let mut actor = OmegaActor::new(Alg1Process::new(Arc::clone(&mem), ProcessId::new(0)));
        let ctx = StepCtx {
            pid: ProcessId::new(0),
            now: omega_sim::SimTime::ZERO,
        };
        assert_eq!(actor.current_leader(), None);
        actor.on_step(ctx);
        assert_eq!(actor.current_leader(), Some(ProcessId::new(0)));
        assert_eq!(actor.initial_timeout(), 1);
        let timeout = actor.on_timer(ctx);
        assert!(timeout >= 1);
        assert_eq!(actor.process().pid(), ProcessId::new(0));
        let proc = actor.into_inner();
        assert_eq!(proc.n(), 2);
    }

    #[test]
    fn boxed_actors_preserve_order() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(3);
        let mem = Alg1Memory::new(&space);
        let procs: Vec<Alg1Process> = ProcessId::all(3)
            .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
            .collect();
        let actors = boxed_actors(procs);
        assert_eq!(actors.len(), 3);
    }
}
