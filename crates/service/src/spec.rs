//! A service scenario: an election scenario plus the workload that rides
//! on it.
//!
//! The election half reuses the scenario crate's declarative [`Scenario`]
//! wholesale — adversary, AWB envelope, timers, crash script, horizon,
//! seed — so a service experiment is environment-compatible with the
//! election experiments it extends. The workload half adds the open-loop
//! client population. Both are pure data; drivers realize them.
//!
//! One field of the election half is not inherited: a service scenario
//! asks for no windowed register statistics (`stats_checkpoints = 0`).
//! No service record, driver or gate reads them, and on a service run the
//! register registry grows with the log — 2n registers a slot — so each
//! checkpoint is a dense walk of O(slots) registers and each one taken is
//! retained to the end of the run. The simulator's tick-0 and horizon
//! snapshots are still taken; `total_writes` is read off the latter.

use omega_scenario::Scenario;

use crate::workload::WorkloadSpec;

/// A complete, backend-free description of one service experiment.
#[derive(Debug, Clone)]
pub struct ServiceScenario {
    /// Name used in tables, JSON records, and `--only` filters.
    pub name: String,
    /// The election environment the service runs in. Its `seed` also
    /// seeds the workload, and its crash script is the failure schedule
    /// the unavailability windows are measured against.
    pub election: Scenario,
    /// The open-loop client population.
    pub workload: WorkloadSpec,
}

impl ServiceScenario {
    /// Builds a service scenario, stamping `name` onto the election spec
    /// too (so election-level reports stay attributable) and clearing its
    /// windowed-statistics checkpoints (module docs).
    #[must_use]
    pub fn new(name: &str, election: Scenario, workload: WorkloadSpec) -> Self {
        let election = election.named(name).stats_checkpoints(0);
        ServiceScenario {
            name: name.to_string(),
            election,
            workload,
        }
    }

    /// The generated request schedule for this scenario (pure function of
    /// the spec: workload shaped by `workload`, seeded by the election
    /// seed).
    #[must_use]
    pub fn requests(&self) -> Vec<crate::workload::RequestMeta> {
        self.workload.generate(self.election.seed)
    }
}

impl std::fmt::Display for ServiceScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} n={} clients={} crashes={}]",
            self.name,
            self.election.variant,
            self.election.n,
            self.workload.clients,
            self.election.crashes.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::OmegaVariant;

    fn workload() -> WorkloadSpec {
        WorkloadSpec {
            clients: 10,
            mean_interarrival: 1_000,
            put_pct: 10,
            key_space: 4,
            deadline: 500,
            stall_bound: None,
            start: 100,
            stop: 5_000,
        }
    }

    #[test]
    fn name_is_stamped_onto_the_election_spec() {
        let election = Scenario::fault_free(OmegaVariant::Alg1, 3);
        let sc = ServiceScenario::new("svc/x", election, workload());
        assert_eq!(sc.name, "svc/x");
        assert_eq!(sc.election.name, "svc/x");
        assert_eq!(sc.requests(), sc.requests(), "schedule is deterministic");
    }

    #[test]
    fn windowed_statistics_are_cleared_whatever_the_caller_passed() {
        for asked in [0, 16, 32] {
            let election = Scenario::fault_free(OmegaVariant::Alg1, 3).stats_checkpoints(asked);
            let sc = ServiceScenario::new("svc/x", election, workload());
            assert_eq!(sc.election.stats_checkpoints, 0, "asked for {asked}");
        }
    }
}
