//! Instrumented atomic-register shared memory.
//!
//! This crate is the substrate of the `omega-shm` reproduction of
//! *“Electing an Eventual Leader in an Asynchronous Shared Memory System”*
//! (Fernández, Jiménez & Raynal, DSN 2007): a shared memory built from
//! **one-writer/multi-reader (1WnR)** and **multi-writer (nWnR)** atomic
//! registers, exactly the communication model `AS_n[∅]` of the paper.
//!
//! Three things distinguish it from a plain `Arc<AtomicU64>`:
//!
//! 1. **Ownership enforcement** — a 1WnR register knows its owner and
//!    rejects writes by anyone else, so algorithm bugs that violate the
//!    model fail loudly ([`SwmrRegister`]).
//! 2. **Instrumentation** — every read and write is attributed to a process;
//!    [`MemorySpace::stats`] answers “who wrote what in this window?”, which
//!    is how the paper's write-optimality results (Theorems 3, 4, 7;
//!    Lemmas 5, 6) become measurable, and [`MemorySpace::footprint`] tracks
//!    value domains for the boundedness results (Theorems 2, 6).
//! 3. **Checked atomicity** — [`lincheck`] records concurrent histories and
//!    verifies linearizability, the property the paper assumes of its
//!    registers.
//!
//! # Quick start
//!
//! ```
//! use omega_registers::{MemorySpace, ProcessId};
//!
//! // A 3-process system with the Figure-2 register layout.
//! let space = MemorySpace::new(3);
//! let progress = space.nat_array("PROGRESS", |_| 0);
//! let stop = space.flag_array("STOP", |_| true);
//! let suspicions = space.nat_row_matrix("SUSPICIONS", |_, _| 0);
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! progress.get(p0).write(p0, 1);                 // p0 heartbeats
//! suspicions.get(p1, p0).write(p1, 1);           // p1 suspects p0 once
//! assert_eq!(suspicions.get(p1, p0).read(p0), 1);
//! assert!(stop.get(p1).read(p0));
//!
//! // Instrumentation: exactly p0 and p1 wrote so far.
//! assert_eq!(space.stats().writer_set().len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell;
pub mod lincheck;
pub mod sync;

mod array;
mod block;
mod chaos;
mod checkpoint;
mod error;
mod footprint;
mod matrix;
mod meta;
mod names;
mod pid;
mod shard;
mod space;
mod stats;
mod swmr;
mod value;

pub use array::{MwmrArray, SwmrArray};
pub use block::{BlockBinding, BlockDevice, BlockMap};
pub use checkpoint::Overwritten;
pub use error::OwnershipError;
pub use footprint::{FootprintReport, FootprintRow};
pub use matrix::{OwnedMatrix, OwnerAxis};
pub use meta::{Instrumentation, RegisterId};
pub use names::BankNames;
pub use pid::{plurality, ProcessId, ProcessSet};
pub use shard::{ScanCounters, ScanStats};
pub use space::{
    FlagArray, FlagMatrix, FlagRegister, MemorySpace, MwmrNatArray, NatArray, NatMatrix,
    NatRegister,
};
pub use stats::{BankRow, ProcessTotals, RegisterRow, StatsSnapshot};
pub use swmr::{MwmrRef, MwmrRegister, SwmrRef, SwmrRegister};
pub use value::RegisterValue;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::{
        FlagArray, FlagMatrix, FlagRegister, MemorySpace, MwmrNatArray, NatArray, NatMatrix,
        NatRegister, ProcessId, ProcessSet,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::MemorySpace>();
        assert_send_sync::<crate::NatRegister>();
        assert_send_sync::<crate::FlagRegister>();
        assert_send_sync::<crate::NatArray>();
        assert_send_sync::<crate::NatMatrix>();
        assert_send_sync::<crate::StatsSnapshot>();
    }
}
