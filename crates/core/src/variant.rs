//! Uniform factory over all Ω implementations, for comparison experiments.

use std::sync::Arc;

use omega_registers::{Instrumentation, MemorySpace, ProcessId};
use omega_sim::Actor;

use crate::alg1::{Alg1Memory, Alg1Process};
use crate::alg2::{Alg2Memory, Alg2Process};
use crate::boxed_actors;
use crate::mwmr::{MwmrMemory, MwmrProcess};
use crate::stepclock::StepClockProcess;

/// The Ω implementations this crate provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmegaVariant {
    /// Figure 2 — write-efficient, one unbounded register.
    Alg1,
    /// Figure 5 — bounded memory, everyone writes forever.
    Alg2,
    /// Section 3.5(a) — Figure 2 over nWnR suspicion counters.
    Mwmr,
    /// Section 3.5(b) — Figure 2 with the timer replaced by a step counter.
    StepClock,
}

impl OmegaVariant {
    /// All variants, in presentation order.
    #[must_use]
    pub fn all() -> [OmegaVariant; 4] {
        [
            OmegaVariant::Alg1,
            OmegaVariant::Alg2,
            OmegaVariant::Mwmr,
            OmegaVariant::StepClock,
        ]
    }

    /// Short human-readable name used in experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            OmegaVariant::Alg1 => "alg1-fig2",
            OmegaVariant::Alg2 => "alg2-fig5-bounded",
            OmegaVariant::Mwmr => "alg1-mwmr",
            OmegaVariant::StepClock => "alg1-stepclock",
        }
    }

    /// Name prefix of the registers this variant is *allowed* to grow
    /// without bound (`None` when every register must stay bounded).
    #[must_use]
    pub fn unbounded_prefix(&self) -> Option<&'static str> {
        match self {
            OmegaVariant::Alg1 | OmegaVariant::Mwmr | OmegaVariant::StepClock => Some("PROGRESS["),
            OmegaVariant::Alg2 => None,
        }
    }

    /// Builds an `n`-process system of this variant as boxed
    /// [`OmegaProcess`](crate::OmegaProcess) objects (for the thread
    /// runtime or custom drivers), along with the backing memory space.
    ///
    /// The space uses eager (always-atomic) instrumentation — the safe
    /// choice for the thread runtime, where every node counts concurrently.
    #[must_use]
    pub fn build_processes(&self, n: usize) -> (MemorySpace, Vec<Box<dyn crate::OmegaProcess>>) {
        let space = MemorySpace::new(n);
        let procs = self.build_processes_in(&space);
        (space, procs)
    }

    /// Builds this variant's processes over an existing `space` (whose
    /// instrumentation mode the caller has already chosen); the system
    /// size is the space's process count.
    #[must_use]
    pub fn build_processes_in(&self, space: &MemorySpace) -> Vec<Box<dyn crate::OmegaProcess>> {
        fn each<P: crate::OmegaProcess + 'static>(
            space: &MemorySpace,
            process: impl Fn(ProcessId) -> P,
        ) -> Vec<Box<dyn crate::OmegaProcess>> {
            let boxed = |pid| Box::new(process(pid)) as Box<dyn crate::OmegaProcess>;
            ProcessId::all(space.n_processes()).map(boxed).collect()
        }
        match self {
            OmegaVariant::Alg1 => {
                let mem = Alg1Memory::new(space);
                each(space, |pid| Alg1Process::new(Arc::clone(&mem), pid))
            }
            OmegaVariant::Alg2 => {
                let mem = Alg2Memory::new(space);
                each(space, |pid| Alg2Process::new(Arc::clone(&mem), pid))
            }
            OmegaVariant::Mwmr => {
                let mem = MwmrMemory::new(space);
                each(space, |pid| MwmrProcess::new(Arc::clone(&mem), pid))
            }
            OmegaVariant::StepClock => {
                let mem = Alg1Memory::new(space);
                each(space, |pid| {
                    StepClockProcess::new(Alg1Process::new(Arc::clone(&mem), pid))
                })
            }
        }
    }

    /// Builds an `n`-process system of this variant: a fresh memory space
    /// and one boxed simulator actor per process.
    ///
    /// Because simulator actors run on one thread, the space uses
    /// [`Instrumentation::Deferred`] — access counters are bumped with a
    /// plain load/add/store instead of an atomic read-modify-write, which
    /// on one thread is exact, so `stats()`/`footprint()` snapshots are
    /// too. Use [`build_with`](Self::build_with) to override.
    #[must_use]
    pub fn build(&self, n: usize) -> BuiltSystem {
        self.build_with(n, Instrumentation::Deferred)
    }

    /// [`build`](Self::build) with an explicit instrumentation mode — for
    /// drivers that move simulator-style actors across threads, and for
    /// the eager-vs-deferred parity tests.
    #[must_use]
    pub fn build_with(&self, n: usize, mode: Instrumentation) -> BuiltSystem {
        let space = MemorySpace::with_instrumentation(n, mode);
        let procs = self.build_processes_in(&space);
        BuiltSystem {
            variant: *self,
            space,
            actors: boxed_actors(procs),
        }
    }
}

impl std::fmt::Display for OmegaVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A ready-to-simulate system of one Ω variant.
pub struct BuiltSystem {
    /// Which variant was built.
    pub variant: OmegaVariant,
    /// The memory space holding all shared registers (attach it to the
    /// simulation for statistics and footprint checkpoints).
    pub space: MemorySpace,
    /// One actor per process, in identity order.
    pub actors: Vec<Box<dyn Actor>>,
}

impl std::fmt::Debug for BuiltSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltSystem")
            .field("variant", &self.variant)
            .field("n", &self.actors.len())
            .field("registers", &self.space.register_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_build() {
        for variant in OmegaVariant::all() {
            let sys = variant.build(4);
            assert_eq!(sys.actors.len(), 4);
            assert!(sys.space.register_count() > 0);
            assert!(!variant.name().is_empty());
            let dbg = format!("{sys:?}");
            assert!(dbg.contains(&format!("{variant:?}")));
        }
    }

    #[test]
    fn register_counts_match_layouts() {
        // Figure 2: n PROGRESS + n STOP + n² SUSPICIONS.
        assert_eq!(
            OmegaVariant::Alg1.build(5).space.register_count(),
            5 + 5 + 25
        );
        // Figure 5: n² HPROGRESS + n² LAST + n STOP + n² SUSPICIONS.
        assert_eq!(
            OmegaVariant::Alg2.build(5).space.register_count(),
            25 + 25 + 5 + 25
        );
        // nWnR: n PROGRESS + n STOP + n SUSPICIONS.
        assert_eq!(OmegaVariant::Mwmr.build(5).space.register_count(), 15);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(OmegaVariant::Alg2.to_string(), "alg2-fig5-bounded");
    }

    #[test]
    fn unbounded_prefixes() {
        assert_eq!(OmegaVariant::Alg1.unbounded_prefix(), Some("PROGRESS["));
        assert_eq!(OmegaVariant::Alg2.unbounded_prefix(), None);
    }
}
