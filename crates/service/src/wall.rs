//! The wall-clock backend for service scenarios, on every substrate the
//! election's [`WallDriver`] starts.
//!
//! It maps scenario ticks onto real time exactly as the election driver
//! does — the same [`WallPacing`]: one tick is `tick` of wall clock, nodes
//! poll every `step_interval` — starts its cluster through the same
//! [`launch`](WallDriver::launch), and fires the same [`Script`] (crash
//! directives plus the campaign's schedule) off the wall clock; only the
//! loop around it differs, because a service run lasts to the horizon
//! whatever the election does. The replica loops and the workload pump are
//! application tasks of the cluster: on the cooperative substrate they
//! share the deadline wheel with the election's `2n` task loops, so
//! service work competes with election steps for the same workers; under
//! threads each gets an OS thread of its own next to the nodes' two.
//! Wall-clock outcomes are inherently timing-dependent: their records are
//! written for reference and compared only advisorily, never byte-gated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_consensus::{KvCommand, LogShared};
use omega_runtime::{CoopTask, LeaderProbe};
use omega_scenario::{Backend, Script, WallDriver, WallPacing};

use crate::ledger::Ledger;
use crate::node::ServiceNode;
use crate::outcome::ServiceOutcome;
use crate::spec::ServiceScenario;

/// One service replica's loop.
struct ServiceNodeTask {
    node: ServiceNode,
    probe: LeaderProbe,
    epoch: Instant,
    pacing: WallPacing,
}

impl CoopTask for ServiceNodeTask {
    fn poll(&mut self) -> Option<Instant> {
        if self.probe.is_crashed() {
            // Retire. A crashed node stops publishing, so its stale
            // estimate keeps attracting traffic until the survivors'
            // estimates outvote it — same client-visible failure mode as
            // the simulator.
            return None;
        }
        let now = self.pacing.ticks_since(self.epoch);
        self.node.poll(self.probe.leader(), now);
        Some(Instant::now() + self.pacing.step_interval)
    }
}

/// The client population's loop: issue due arrivals, sweep deadlines.
struct PumpTask {
    ledger: Arc<Ledger>,
    next: usize,
    epoch: Instant,
    pacing: WallPacing,
}

/// How often the workload pump runs.
const PUMP_CADENCE: Duration = Duration::from_micros(500);

impl CoopTask for PumpTask {
    fn poll(&mut self) -> Option<Instant> {
        let now = self.pacing.ticks_since(self.epoch);
        while self.next < self.ledger.requests() {
            if self.ledger.meta()[self.next].arrival > now {
                break;
            }
            self.ledger.issue(self.next, now);
            self.next += 1;
        }
        self.ledger.sweep(now);
        Some(Instant::now() + PUMP_CADENCE)
    }
}

/// Realizes a [`ServiceScenario`] against the wall clock: the cluster comes
/// from the election driver's [`launch`](WallDriver::launch) with one
/// replica task per node and the workload pump beside the node loops — on
/// the cooperative substrate multiplexed over the same deadline wheel
/// (sharded per worker when `workers > 1`, the service tasks distributed
/// round-robin across the shards after the node loops and stolen like any
/// other task when their shard backs up), under threads one OS thread each.
#[derive(Debug, Clone, Copy)]
pub struct ServiceWallDriver {
    /// Substrate, pool size and pacing (a service run observes no
    /// post-stabilization tail, so `tail_sample` goes unused).
    pub wall: WallDriver,
}

impl ServiceWallDriver {
    /// `backend` at the default pacing; `workers` sizes the coop pool.
    #[must_use]
    pub fn new(backend: Backend, workers: usize) -> Self {
        ServiceWallDriver {
            wall: WallDriver::new(backend, workers),
        }
    }

    /// Runs the scenario to its horizon and assembles the outcome.
    #[must_use]
    pub fn run(&self, scenario: &ServiceScenario) -> ServiceOutcome {
        let started = Instant::now();
        let election = &scenario.election;
        let pacing = self.wall.pacing;
        let ledger = Ledger::new(scenario.requests(), election.n);
        // One clock for the whole run: the replica tasks, the pump (so the
        // ledger) and the script all count ticks from this epoch.
        let epoch = Instant::now();
        let mut log = None;
        let (cluster, disk) = self.wall.launch(election, |space, probes| {
            let shared = LogShared::<KvCommand>::new(space.clone());
            let mut tasks: Vec<Box<dyn CoopTask>> = probes
                .iter()
                .map(|probe| {
                    let node =
                        ServiceNode::new(probe.pid(), Arc::clone(&ledger), Arc::clone(&shared));
                    Box::new(ServiceNodeTask {
                        node,
                        probe: probe.clone(),
                        epoch,
                        pacing,
                    }) as Box<dyn CoopTask>
                })
                .collect();
            tasks.push(Box::new(PumpTask {
                ledger: Arc::clone(&ledger),
                next: 0,
                epoch,
                pacing,
            }));
            log = Some(shared);
            tasks
        });
        let log = log.expect("launch built the tasks");

        let mut script = Script::new(election, disk.as_deref());
        let mut crash_ticks = Vec::new();
        loop {
            let now = pacing.ticks_since(epoch);
            crash_ticks.extend(script.fire_due(&cluster, now));
            if now >= election.horizon {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let stabilized = cluster
            .await_stable_leader(pacing.window, Duration::from_secs(5))
            .is_some();
        let total_writes = cluster.space().stats().total_writes();
        let workers = cluster.workers();
        cluster.shutdown();
        ledger.sweep(election.horizon);

        let mut outcome = ServiceOutcome::assemble(
            self.wall.backend.name(),
            scenario,
            &ledger,
            &crash_ticks,
            stabilized,
            total_writes,
            log.allocated_slots() as u64,
            started.elapsed().as_secs_f64() * 1_000.0,
        );
        outcome.workers = workers;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::ServiceScenario;
    use crate::workload::WorkloadSpec;
    use omega_core::OmegaVariant;
    use omega_scenario::Scenario;
    use omega_sim::chaos::ChaosPhase;

    /// A scenario small and short enough for a unit test: ~1 s of wall
    /// clock, one leader crash halfway.
    fn tiny() -> ServiceScenario {
        ServiceScenario::new(
            "test/coop-tiny",
            Scenario::fault_free(OmegaVariant::Alg1, 3)
                .crash_leader_at(4_000)
                .horizon(10_000),
            WorkloadSpec {
                clients: 50,
                mean_interarrival: 2_000,
                put_pct: 20,
                key_space: 8,
                deadline: 2_000,
                stall_bound: None,
                start: 500,
                stop: 7_500,
            },
        )
    }

    /// Runs `scenario` on each substrate the service suite admits besides
    /// the simulator, checking what every wall record must carry: the
    /// backend and pool tags and the ledger identity.
    fn on_both_substrates(scenario: &ServiceScenario) -> Vec<ServiceOutcome> {
        [(Backend::Coop, Some(1)), (Backend::Threads, None)]
            .into_iter()
            .map(|(backend, workers)| {
                let outcome = ServiceWallDriver::new(backend, 1).run(scenario);
                assert_eq!(outcome.backend, backend.name());
                assert_eq!(outcome.workers, workers, "workers on coop only");
                assert_eq!(
                    outcome.requests,
                    outcome.committed + outcome.rejected + outcome.stalled + outcome.inflight,
                    "{backend:?}: {outcome:?}"
                );
                outcome
            })
            .collect()
    }

    #[test]
    fn coop_backend_serves_and_survives_failover() {
        for outcome in on_both_substrates(&tiny()) {
            assert_eq!(outcome.windows.len(), 1, "{outcome:?}");
            assert!(
                outcome.committed > 0,
                "a real-time run must acknowledge some requests: {outcome:?}"
            );
        }
    }

    #[test]
    fn coop_backend_realizes_partition_campaigns() {
        // A tiny partition-heal campaign on the wall clock: the run must
        // survive the cut, and the outcome still carries the attribution
        // field (possibly zero — wall timing decides how many requests
        // land mid-partition).
        let sc = ServiceScenario::new(
            "test/coop-partition",
            Scenario::fault_free(OmegaVariant::Alg1, 3)
                .campaign(
                    omega_sim::chaos::Campaign::new().phase(ChaosPhase::Partition {
                        groups: vec![
                            vec![omega_registers::ProcessId::new(0)],
                            vec![
                                omega_registers::ProcessId::new(1),
                                omega_registers::ProcessId::new(2),
                            ],
                        ],
                        from: 3_000,
                        until: 6_000,
                    }),
                )
                .horizon(12_000),
            WorkloadSpec {
                clients: 50,
                mean_interarrival: 2_000,
                put_pct: 20,
                key_space: 8,
                deadline: 2_000,
                stall_bound: None,
                start: 500,
                stop: 9_000,
            },
        );
        for outcome in on_both_substrates(&sc) {
            assert_eq!(outcome.windows.len(), 0, "partitions are not crashes");
            assert!(outcome.committed > 0, "service kept serving: {outcome:?}");
        }
    }

    #[test]
    fn registry_scenarios_admit_the_coop_backend() {
        for sc in registry::all() {
            for backend in [Backend::Sim, Backend::Coop] {
                let refusal = sc.election.refusal(backend, 1);
                assert!(refusal.is_none(), "{} must run on sim and coop", sc.name);
            }
        }
    }
}
