//! Wall-clock backends for service scenarios: cooperative and
//! per-node-thread.
//!
//! Both map scenario ticks onto real time exactly as the election drivers
//! do — the same [`WallPacing`]: one tick is `tick` of wall clock, nodes
//! poll every `step_interval` — and fire the same [`Script`] (crash
//! directives plus the campaign's schedule) off the wall clock; only the
//! loop around it differs, because a service run lasts to the horizon
//! whatever the election does. The
//! cooperative backend multiplexes the service loops and the workload
//! pump onto the *same* deadline wheel as the election's `2n` task loops,
//! so service work competes with election steps for the same workers;
//! the thread backend gives each service loop its own OS thread next to
//! the node's two. Wall-clock outcomes are inherently timing-dependent:
//! their records are written for reference and compared only advisorily,
//! never byte-gated.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_consensus::{KvCommand, LogShared};
use omega_registers::ProcessId;
use omega_runtime::{Cluster, CoopConfig, CoopTask, LeaderProbe};
use omega_scenario::{Script, WallPacing};

use crate::ledger::Ledger;
use crate::node::ServiceNode;
use crate::outcome::ServiceOutcome;
use crate::spec::ServiceScenario;

/// One service replica's cooperative loop.
struct ServiceNodeTask {
    node: ServiceNode,
    probe: LeaderProbe,
    epoch: Instant,
    pacing: WallPacing,
    stop: Arc<AtomicBool>,
}

impl CoopTask for ServiceNodeTask {
    fn poll(&mut self) -> Option<Instant> {
        if self.stop.load(Ordering::Relaxed) || self.probe.is_crashed() {
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

/// The client population's cooperative loop: issue due arrivals, sweep
/// deadlines.
struct PumpTask {
    ledger: Arc<Ledger>,
    next: usize,
    epoch: Instant,
    pacing: WallPacing,
    cadence: Duration,
    stop: Arc<AtomicBool>,
}

impl PumpTask {
    fn pump(&mut self, now: u64) {
        while self.next < self.ledger.requests() {
            if self.ledger.meta()[self.next].arrival > now {
                break;
            }
            self.ledger.issue(self.next, now);
            self.next += 1;
        }
        self.ledger.sweep(now);
    }
}

impl CoopTask for PumpTask {
    fn poll(&mut self) -> Option<Instant> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let now = self.pacing.ticks_since(self.epoch);
        self.pump(now);
        Some(Instant::now() + self.cadence)
    }
}

/// Default workload-pump cadence of both wall drivers.
const PUMP_CADENCE: Duration = Duration::from_micros(500);

/// Fires the scenario's [`Script`] off the wall clock until the horizon.
/// Returns the ticks at which scripted crashes fired and whether a stable
/// leader emerged.
fn run_script(
    cluster: &Cluster,
    scenario: &ServiceScenario,
    pacing: &WallPacing,
) -> (Vec<u64>, bool) {
    let epoch = Instant::now();
    let mut script = Script::new(&scenario.election);
    let mut crash_ticks = Vec::new();
    loop {
        let now = pacing.ticks_since(epoch);
        crash_ticks.extend(script.fire_due(cluster, now));
        if now >= scenario.election.horizon {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let stabilized = cluster
        .await_stable_leader(pacing.window, Duration::from_secs(5))
        .is_some();
    (crash_ticks, stabilized)
}

/// Realizes a [`ServiceScenario`] on the cooperative runtime: election
/// loops, service loops, and the workload pump all multiplexed over the
/// same deadline wheel — sharded per worker when `workers > 1`, with the
/// service tasks distributed round-robin across the shards after the node
/// loops and stolen like any other task when their shard backs up.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCoopDriver {
    /// Tick/step/window pacing.
    pub pacing: WallPacing,
    /// Workload-pump cadence.
    pub pump_cadence: Duration,
    /// Worker threads multiplexing the whole task set.
    pub workers: usize,
}

impl Default for ServiceCoopDriver {
    fn default() -> Self {
        ServiceCoopDriver {
            pacing: WallPacing::default(),
            pump_cadence: PUMP_CADENCE,
            workers: 1,
        }
    }
}

impl ServiceCoopDriver {
    /// Runs the scenario to its horizon and assembles the outcome.
    #[must_use]
    pub fn run(&self, scenario: &ServiceScenario) -> ServiceOutcome {
        let started = Instant::now();
        let election = &scenario.election;
        let n = election.n;
        let pacing = self.pacing;
        let ledger = Ledger::new(scenario.requests(), n);
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();

        let mut shared_slot: Option<Arc<LogShared<KvCommand>>> = None;
        let config = CoopConfig {
            node: pacing.node_config(),
            workers: self.workers,
        };
        let cluster = Cluster::start_coop_with(election.variant, n, config, |space, probes| {
            let shared = LogShared::<KvCommand>::new(space.clone());
            shared_slot = Some(Arc::clone(&shared));
            let mut tasks: Vec<Box<dyn CoopTask>> = probes
                .iter()
                .map(|probe| {
                    Box::new(ServiceNodeTask {
                        node: ServiceNode::new(
                            probe.pid(),
                            Arc::clone(&ledger),
                            Arc::clone(&shared),
                        ),
                        probe: probe.clone(),
                        epoch,
                        pacing,
                        stop: Arc::clone(&stop),
                    }) as Box<dyn CoopTask>
                })
                .collect();
            tasks.push(Box::new(PumpTask {
                ledger: Arc::clone(&ledger),
                next: 0,
                epoch,
                pacing,
                cadence: self.pump_cadence,
                stop: Arc::clone(&stop),
            }));
            tasks
        });
        let shared = shared_slot.expect("task factory ran");

        let (crash_ticks, stabilized) = run_script(&cluster, scenario, &pacing);
        stop.store(true, Ordering::Relaxed);
        let total_writes = cluster.space().stats().total_writes();
        cluster.shutdown();
        ledger.sweep(election.horizon);

        ServiceOutcome::assemble(
            "coop",
            scenario,
            &ledger,
            &crash_ticks,
            stabilized,
            total_writes,
            shared.allocated_slots() as u64,
            started.elapsed().as_secs_f64() * 1_000.0,
        )
        .with_workers(self.workers)
    }
}

/// Realizes a [`ServiceScenario`] with dedicated OS threads: each node's
/// two election loops plus one service loop, and one pump thread.
#[derive(Debug, Clone, Copy)]
pub struct ServiceThreadDriver {
    /// Tick/step/window pacing.
    pub pacing: WallPacing,
    /// Workload-pump cadence.
    pub pump_cadence: Duration,
}

impl Default for ServiceThreadDriver {
    fn default() -> Self {
        ServiceThreadDriver {
            pacing: WallPacing::default(),
            pump_cadence: PUMP_CADENCE,
        }
    }
}

impl ServiceThreadDriver {
    /// Runs the scenario to its horizon and assembles the outcome.
    #[must_use]
    pub fn run(&self, scenario: &ServiceScenario) -> ServiceOutcome {
        let started = Instant::now();
        let election = &scenario.election;
        let n = election.n;
        let pacing = self.pacing;
        let ledger = Ledger::new(scenario.requests(), n);
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();

        let cluster = Cluster::start(election.variant, n, pacing.node_config());
        let shared = LogShared::<KvCommand>::new(cluster.space().clone());

        let mut workers = Vec::with_capacity(n + 1);
        for pid in ProcessId::all(n) {
            let probe = cluster.node(pid).probe();
            let mut node = ServiceNode::new(pid, Arc::clone(&ledger), Arc::clone(&shared));
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) && !probe.is_crashed() {
                    node.poll(probe.leader(), pacing.ticks_since(epoch));
                    std::thread::sleep(pacing.step_interval);
                }
            }));
        }
        {
            let ledger = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            let cadence = self.pump_cadence;
            workers.push(std::thread::spawn(move || {
                let mut pump = PumpTask {
                    ledger,
                    next: 0,
                    epoch,
                    pacing,
                    cadence,
                    stop,
                };
                while pump.poll().is_some() {
                    std::thread::sleep(cadence);
                }
            }));
        }

        let (crash_ticks, stabilized) = run_script(&cluster, scenario, &pacing);
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            let _ = worker.join();
        }
        let total_writes = cluster.space().stats().total_writes();
        cluster.shutdown();
        ledger.sweep(election.horizon);

        ServiceOutcome::assemble(
            "threads",
            scenario,
            &ledger,
            &crash_ticks,
            stabilized,
            total_writes,
            shared.allocated_slots() as u64,
            started.elapsed().as_secs_f64() * 1_000.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::ServiceScenario;
    use crate::workload::WorkloadSpec;
    use omega_core::OmegaVariant;
    use omega_scenario::{Backend, Scenario};
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

    #[test]
    fn coop_backend_serves_and_survives_failover() {
        let outcome = ServiceCoopDriver::default().run(&tiny());
        assert_eq!(outcome.backend, "coop");
        assert_eq!(outcome.windows.len(), 1);
        assert!(
            outcome.committed > 0,
            "a real-time run must acknowledge some requests: {outcome:?}"
        );
        assert_eq!(
            outcome.requests,
            outcome.committed + outcome.rejected + outcome.stalled + outcome.inflight
        );
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
        let outcome = ServiceCoopDriver::default().run(&sc);
        assert_eq!(outcome.backend, "coop");
        assert_eq!(outcome.windows.len(), 0, "partitions are not crashes");
        assert!(outcome.committed > 0, "service kept serving: {outcome:?}");
        assert_eq!(
            outcome.requests,
            outcome.committed + outcome.rejected + outcome.stalled + outcome.inflight
        );
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
