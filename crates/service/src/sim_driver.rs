//! The deterministic-simulator backend for service scenarios.
//!
//! The election environment is realized exactly as the election suite
//! realizes it — the same adversary, AWB envelope, timer models, crash
//! plan, and horizon, all built by [`omega_scenario::Scenario::sim_builder`]
//! — with two kinds of actors on top:
//!
//! * `n` **service-node actors**, each coupling an Ω process with its
//!   [`ServiceNode`] replica loop: every adversary-scheduled step runs one
//!   Ω step and then one service poll fed by that step's fresh estimate.
//! * one **workload actor** at pid `n`, playing the client population: it
//!   issues every due arrival to the router and sweeps client deadlines.
//!   Its `current_leader` reports the *router's* current target, so the
//!   harness's plurality bookkeeping (leader-crash targeting, timeline
//!   stabilization) sees the client-visible view converge alongside the
//!   nodes' own.
//!
//! Everything is a pure function of the scenario: same spec, same seed →
//! byte-identical record (modulo wall-clock, which is reported but never
//! part of the record's gated fields).

use std::sync::Arc;

use omega_consensus::{KvCommand, LogShared};
use omega_core::OmegaProcess;
use omega_registers::{Instrumentation, MemorySpace, ProcessId};
use omega_scenario::CrashSpec;
use omega_sim::{Actor, RunReport, StepCtx};

use crate::ledger::Ledger;
use crate::node::ServiceNode;
use crate::outcome::ServiceOutcome;
use crate::spec::ServiceScenario;

/// A timeout so large the workload actor's timer never refires inside any
/// realistic horizon (it does all its work in `on_step`).
const NEVER: u64 = 1 << 40;

/// An Ω process and its service replica, stepped as one simulator actor.
struct ServiceNodeActor {
    omega: Box<dyn OmegaProcess>,
    node: ServiceNode,
}

impl Actor for ServiceNodeActor {
    fn on_step(&mut self, ctx: StepCtx) {
        self.omega.t2_step();
        self.node.poll(self.omega.cached_leader(), ctx.now.ticks());
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        self.omega.on_timer_expire()
    }

    fn initial_timeout(&self) -> u64 {
        self.omega.initial_timeout()
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.omega.cached_leader()
    }
}

/// The client population: issues due arrivals and sweeps deadlines.
struct WorkloadActor {
    ledger: Arc<Ledger>,
    /// Index of the next request (the schedule is time-sorted).
    next: usize,
}

impl Actor for WorkloadActor {
    fn on_step(&mut self, ctx: StepCtx) {
        let now = ctx.now.ticks();
        while self.next < self.ledger.requests() {
            let meta = self.ledger.meta()[self.next];
            if meta.arrival > now {
                break;
            }
            self.ledger.issue(self.next, now);
            self.next += 1;
        }
        self.ledger.sweep(now);
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        NEVER
    }

    fn initial_timeout(&self) -> u64 {
        NEVER
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.ledger.route_target()
    }
}

/// Realizes a [`ServiceScenario`] on the deterministic simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceSimDriver;

impl ServiceSimDriver {
    /// Runs the scenario to its horizon and assembles the outcome.
    #[must_use]
    pub fn run(&self, scenario: &ServiceScenario) -> ServiceOutcome {
        let (_space, outcome, _report) = simulate(scenario);
        outcome
    }
}

/// [`ServiceSimDriver::run`], also handing back the memory space and the
/// simulator's report, which the driver keeps to itself.
fn simulate(scenario: &ServiceScenario) -> (MemorySpace, ServiceOutcome, RunReport) {
    let election = &scenario.election;
    let n = election.n;

    // Deferred instrumentation is exact single-threaded — the
    // simulator's mode.
    let space = MemorySpace::with_instrumentation(n, Instrumentation::Deferred);
    let omegas = election.variant.build_processes_in(&space);
    let shared = LogShared::<KvCommand>::new(space.clone());
    let ledger = Ledger::new(scenario.requests(), n);

    let mut actors: Vec<Box<dyn Actor>> = omegas
        .into_iter()
        .map(|omega| {
            let pid = omega.pid();
            Box::new(ServiceNodeActor {
                omega,
                node: ServiceNode::new(pid, Arc::clone(&ledger), Arc::clone(&shared)),
            }) as Box<dyn Actor>
        })
        .collect();
    actors.push(Box::new(WorkloadActor {
        ledger: Arc::clone(&ledger),
        next: 0,
    }));

    // The environment spec is the election's, widened by one process
    // slot for the workload actor (which touches no shared registers,
    // so the election's schedule semantics are unchanged).
    let mut env = election.clone();
    env.n = n + 1;
    let report = env.sim_builder(actors).memory(space.clone()).run();

    // Final deadline sweep: anything still unresolved whose deadline
    // fell inside the horizon is a stall the pump may not have seen.
    ledger.sweep(election.horizon);

    let crash_ticks: Vec<u64> = election.crashes.iter().map(CrashSpec::tick).collect();

    // The simulator snapshots the registers at the horizon and nothing
    // writes one afterwards (the sweep above touches the ledger only), so
    // that snapshot's total is the run's: no second walk of a registry
    // that holds 2n registers per log slot.
    let (_, at_horizon) = (report.windowed.snapshots().last())
        .expect("a run with a memory space attached ends on a checkpoint");

    let outcome = ServiceOutcome::assemble(
        "sim",
        scenario,
        &ledger,
        &crash_ticks,
        report.stabilization().is_some(),
        at_horizon.total_writes(),
        shared.allocated_slots() as u64,
        report.wall.elapsed_ms(),
    );
    (space, outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn steady_scenario_serves_nearly_everything() {
        let sc = registry::by_name("steady/alg1").unwrap();
        let outcome = ServiceSimDriver.run(&sc);
        assert!(outcome.stabilized);
        assert_eq!(outcome.inflight, 0, "all deadlines resolve in-horizon");
        assert_eq!(outcome.windows.len(), 0);
        assert!(
            outcome.committed as f64 >= outcome.requests as f64 * 0.90,
            "steady state should commit the vast majority: {} of {}",
            outcome.committed,
            outcome.requests
        );
        assert!(outcome.log_slots > 0, "puts must replicate through the log");
        assert!(outcome.commit_p50 <= outcome.commit_p95);
        assert!(outcome.commit_p95 <= outcome.commit_max);
    }

    #[test]
    fn total_writes_is_read_off_the_horizon_checkpoint() {
        let sc = registry::by_name("steady/alg1").unwrap();
        let (space, outcome, report) = simulate(&sc);
        let snapshots = report.windowed.snapshots();
        assert_eq!(
            snapshots.iter().map(|(t, _)| t.ticks()).collect::<Vec<_>>(),
            [0, sc.election.horizon],
            "a service run checkpoints at tick 0 and at the horizon only"
        );
        assert_eq!(report.footprints.len(), 2);
        assert!(outcome.total_writes > 0);
        assert_eq!(
            outcome.total_writes,
            space.stats().total_writes(),
            "nothing writes a register after the horizon checkpoint"
        );
    }

    #[test]
    fn dropping_the_checkpoints_changes_no_record() {
        for sc in registry::all() {
            assert_eq!(sc.election.stats_checkpoints, 0, "{}", sc.name);
            let mut windowed = sc.clone();
            windowed.election.stats_checkpoints = 16;
            let (_, mut with, report) = simulate(&windowed);
            assert!(report.windowed.snapshots().len() >= 16, "{}", sc.name);
            let mut without = ServiceSimDriver.run(&sc);
            with.elapsed_ms = 0.0;
            without.elapsed_ms = 0.0;
            assert_eq!(with.json_record(), without.json_record(), "{}", sc.name);
        }
    }

    #[test]
    fn partition_campaign_attributes_in_partition_rejections() {
        // Every node stays alive, yet the cut splits leader estimates:
        // requests misrouted across it are refused, and the SLO must book
        // those refusals against the partition, not a crash window.
        let sc = registry::by_name("chaos/partition-heal").unwrap();
        let outcome = ServiceSimDriver.run(&sc);
        assert!(outcome.stabilized, "re-election lands after the heal");
        assert_eq!(outcome.windows.len(), 0, "no crashes, no crash windows");
        assert!(
            outcome.in_partition_rejected > 0,
            "a 25k-tick split must misroute some requests: {outcome:?}"
        );
        assert!(
            outcome.in_partition_rejected <= outcome.rejected,
            "attribution is a subset of all rejections"
        );
        assert!(
            outcome.committed > 0,
            "the connected majority keeps serving through the cut"
        );
        assert!(outcome.json_record().contains("\"in_partition_rejected\":"));
    }

    #[test]
    fn registry_campaigns_account_as_planned() {
        // The service registry's half of the scenario crate's
        // `sim_chaos_accounting_equals_the_planned_fold`: each campaign's
        // election environment, run on the simulator, books exactly the
        // stats its schedule plans (no service scenario carries a wave).
        let mut campaigns = 0;
        for sc in registry::all() {
            let Some(campaign) = &sc.election.campaign else {
                continue;
            };
            let sys = sc.election.variant.build(sc.election.n);
            let report = sc.election.sim_builder(sys.actors).memory(sys.space).run();
            assert_eq!(
                report.chaos,
                campaign.planned_stats(sc.election.horizon),
                "{}",
                sc.name
            );
            campaigns += 1;
        }
        assert_eq!(
            campaigns, 2,
            "chaos/partition-heal and hostile/flap-service"
        );
    }

    #[test]
    fn flap_service_drains_under_the_stall_bound() {
        // hostile/flap-service: four install/heal cycles churn the
        // routing view, but the workload's fail-fast bound terminates
        // every would-be stall as a prompt rejection — the ledger ends
        // the run drained, with the drain SLO's counter at zero.
        let sc = registry::by_name("hostile/flap-service").unwrap();
        assert_eq!(sc.workload.stall_bound, Some(3_000));
        let outcome = ServiceSimDriver.run(&sc);
        assert!(outcome.stabilized, "the last heal leaves time to re-elect");
        assert_eq!(outcome.stalled, 0, "every would-be stall fails fast");
        assert_eq!(outcome.inflight, 0, "deadlines resolve inside the horizon");
        assert_eq!(
            outcome.stall_bound_breaches, 0,
            "nothing outlives arrival + bound: {outcome:?}"
        );
        assert!(
            outcome.committed > 0 && outcome.rejected > 0,
            "the flap misroutes some requests while the heals keep serving"
        );
        assert!(
            outcome.in_partition_rejected > 0,
            "install-window rejections are attributed to the flap"
        );
        assert!(outcome.json_record().contains("\"stall_bound_breaches\":0"));
    }

    #[test]
    fn identical_runs_yield_identical_records() {
        let sc = registry::by_name("failover/alg2").unwrap();
        let mut a = ServiceSimDriver.run(&sc);
        let mut b = ServiceSimDriver.run(&sc);
        a.elapsed_ms = 0.0;
        b.elapsed_ms = 0.0;
        assert_eq!(a.json_record(), b.json_record());
    }
}
