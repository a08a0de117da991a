//! The wall-clock half of every real-time backend: one pacing, one
//! script, one driver with one election loop.
//!
//! [`WallDriver`] realizes a [`Scenario`] on each real-time substrate —
//! a worker pool over in-memory registers, and one worker thread per
//! task over disk-block registers, both on the one cooperative runtime —
//! and the service crate's wall driver starts its
//! clusters through the same [`launch`](WallDriver::launch). What they
//! share lives here once — a second copy would drift, and outcome
//! comparability across backends is the whole point of the Scenario API:
//!
//! * [`WallPacing`] — how scenario ticks map to real time (and back).
//! * [`Script`] — the scenario's crash directives and its campaign's
//!   [`schedule`](omega_sim::chaos::Campaign::schedule) as one cursor a
//!   polling loop fires from: the same actions, at the same ticks, under
//!   the same horizon convention (`tick <= horizon`) as the simulator.
//! * [`WallDriver::launch`] — the one place a substrate is chosen.
//! * the election loop ([`WallDriver`]'s [`Driver::run`]) — fire the
//!   script, wait for a stable leader inside the horizon budget, observe
//!   the post-stabilization tail, and assemble an [`Outcome`] in scenario
//!   ticks. The service loop has a different shape (it runs to the horizon
//!   whatever the election does) and lives with the service driver; it
//!   fires the same [`Script`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_registers::{MemorySpace, ProcessId};
use omega_runtime::san::{SanDisk, SanLatency};
use omega_runtime::{Cluster, CoopTask, LeaderProbe, NodeConfig};
use omega_sim::chaos::{ChaosAction, Scheduled};

use crate::{
    Backend, ChaosOutcome, CrashSpec, Driver, Outcome, SanFootprint, Scenario, TailActivity,
};

/// Pacing of one wall-clock realization: how scenario ticks map to real
/// time, how fast nodes step, and how long agreement must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallPacing {
    /// Wall-clock length of one scenario tick (also the timer unit).
    pub tick: Duration,
    /// Pause between a node's consecutive `T2` iterations.
    pub step_interval: Duration,
    /// How long every correct node must agree before the election counts
    /// as stable.
    pub window: Duration,
}

impl Default for WallPacing {
    /// The wall driver's pacing on every substrate (the SAN's unless the
    /// scenario pins a disk latency) and the service driver's:
    /// thread-vs-coop rows compare substrates only while these stay one
    /// set of numbers.
    fn default() -> Self {
        WallPacing {
            tick: Duration::from_micros(100),
            step_interval: Duration::from_micros(150),
            window: Duration::from_millis(40),
        }
    }
}

impl WallPacing {
    /// Wall-clock length of `ticks` scenario ticks (saturating).
    #[must_use]
    pub fn wall(&self, ticks: u64) -> Duration {
        let nanos = self.tick.as_nanos().saturating_mul(u128::from(ticks));
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    /// Whole scenario ticks in `wall`.
    #[must_use]
    pub fn ticks_of(&self, wall: Duration) -> u64 {
        let tick = self.tick.as_nanos().max(1);
        u64::try_from(wall.as_nanos() / tick).unwrap_or(u64::MAX)
    }

    /// Scenario ticks elapsed since `epoch`.
    #[must_use]
    pub fn ticks_since(&self, epoch: Instant) -> u64 {
        self.ticks_of(epoch.elapsed())
    }

    /// The node pacing a cluster under this realization starts with.
    #[must_use]
    pub fn node_config(&self) -> NodeConfig {
        NodeConfig {
            step_interval: self.step_interval,
            tick: self.tick,
        }
    }
}

/// A scenario's fault script on the wall clock: its crash directives
/// (sorted by tick) and its campaign's schedule, each behind a cursor.
///
/// A polling loop calls [`fire_due`](Self::fire_due) with the current tick;
/// everything due fires against the cluster (and the run's disk), in
/// order. Directives and boundaries past the horizon are dropped at
/// construction — the simulator retires events at `tick <= horizon`, so
/// that is what fires here.
#[derive(Debug)]
pub struct Script<'a> {
    crashes: Vec<CrashSpec>,
    next_crash: usize,
    actions: Vec<Scheduled<'a>>,
    next_action: usize,
    disk: Option<&'a SanDisk>,
}

impl<'a> Script<'a> {
    /// The script of `scenario`; `disk` is the run's SAN disk when its
    /// substrate has one — the medium latency storms act on.
    #[must_use]
    pub fn new(scenario: &'a Scenario, disk: Option<&'a SanDisk>) -> Self {
        let mut crashes = scenario.crashes.clone();
        crashes.retain(|c| c.tick() <= scenario.horizon);
        crashes.sort_by_key(CrashSpec::tick);
        Script {
            crashes,
            next_crash: 0,
            actions: scenario
                .campaign
                .as_ref()
                .map_or_else(Vec::new, |c| c.schedule(scenario.horizon)),
            next_action: 0,
            disk,
        }
    }

    /// Fires everything due at tick `now` against `cluster` and returns
    /// the ticks (`now`, once per directive) of the scripted crashes that
    /// actually fired.
    ///
    /// A [`CrashSpec::LeaderAt`] that finds no estimate to aim at stays
    /// pending — and holds back the directives after it — until a later
    /// poll sees one. Storm boundaries set the disk's
    /// [`storm factor`](SanDisk::set_storm_factor) (back to 1 at the
    /// storm's end) and pass without a disk: admission refuses storms on
    /// every other wall substrate, as it refuses recovery on all of them.
    pub fn fire_due(&mut self, cluster: &Cluster, now: u64) -> Vec<u64> {
        let mut fired = Vec::new();
        while let Some(&crash) = self.crashes.get(self.next_crash) {
            if crash.tick() > now {
                break;
            }
            match crash {
                CrashSpec::At { pid, .. } => cluster.crash(pid),
                CrashSpec::LeaderAt { .. } => {
                    if cluster.crash_current_leader().is_none() {
                        break;
                    }
                }
            }
            fired.push(now);
            self.next_crash += 1;
        }
        while let Some(due) = self.actions.get(self.next_action) {
            if due.tick > now {
                break;
            }
            match due.action {
                ChaosAction::InstallPartition(groups) => cluster.space().install_partition(groups),
                ChaosAction::InstallCut { blinded, hidden } => {
                    cluster.space().install_cut(blinded, hidden);
                }
                ChaosAction::Heal => cluster.space().heal_partition(),
                ChaosAction::Wave { crash, .. } => crash.iter().for_each(|&pid| cluster.crash(pid)),
                ChaosAction::StormOn { factor, .. } => self.storm(factor),
                ChaosAction::StormOff => self.storm(1),
            }
            self.next_action += 1;
        }
        fired
    }

    fn storm(&self, factor: u64) {
        if let Some(disk) = self.disk {
            disk.set_storm_factor(factor);
        }
    }

    /// Whether every directive and boundary has fired.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.next_crash == self.crashes.len() && self.next_action == self.actions.len()
    }
}

/// Realizes a [`Scenario`] against the wall clock on one real-time
/// substrate, the [`backend`](Self::backend). Both run the cluster on the
/// runtime's deadline wheel ([`omega_runtime::coop`]) and differ in the
/// pool and the memory:
///
/// * **coop** — the `2n` node loops over a pool of
///   [`workers`](Self::workers) threads and in-memory registers. A pool
///   smaller than the task set multiplexes them, the real-time substrate
///   that scales past `n = 16` ([`coop_max_n`](crate::coop_max_n)); under
///   overload the wheel degrades into round-robin over the overdue tasks,
///   so fairness comes from queue discipline rather than kernel
///   preemption. A pool with a worker for every task gives each loop a
///   thread of its own and steals nothing: the kernel scheduler,
///   preempting between them, *is* the schedule.
/// * **san** — one worker thread per task over a [`SanDisk`], the paper's
///   motivating deployment (Section 1 — Disk Paxos, Petal, NASD): one disk
///   block per 1WnR register, and every access pays the disk's simulated
///   service time. The disk takes the scenario's pinned
///   [`san_latency`](Scenario::san_latency), with pacing, window and tail
///   stretched from it ([`NodeConfig::san_paced`]), and is instant
///   otherwise. [`Outcome::san`] carries its block footprint, and the
///   campaign's latency storms act on it.
///
/// Two of the scenario's knobs are simulator-only on every substrate: the
/// adversary spec (the substrate *is* the schedule) and the timer spec (a
/// deadline `x · tick` away is a faithful timer, trivially AWB₂). The
/// rest — variant, `n`, the crash script, the campaign, the horizon — is
/// honored literally on the wall clock, and time in the returned
/// [`Outcome`] is in scenario ticks, so outcomes line up with the
/// simulator's.
///
/// # Examples
///
/// ```
/// use omega_scenario::{registry, Backend, Driver, WallDriver};
///
/// let outcome = WallDriver::new(Backend::San, 1).run(&registry::fault_free());
/// outcome.assert_election();
/// let san = outcome.san.expect("SAN backend reports block footprints");
/// assert_eq!(san.blocks_mapped, outcome.register_count as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallDriver {
    /// Tick, step and agreement-window pacing.
    pub pacing: WallPacing,
    /// How long to observe post-stabilization traffic for the tail report.
    pub tail_sample: Duration,
    /// The substrate. [`Backend::Sim`] has no wall clock and is refused.
    pub backend: Backend,
    /// The coop pool's worker count (the SAN runs one worker per task).
    pub workers: usize,
}

impl WallDriver {
    /// `backend` at [`WallPacing::default`] with a 120 ms tail
    /// observation; `workers` sizes the coop pool.
    #[must_use]
    pub fn new(backend: Backend, workers: usize) -> Self {
        WallDriver {
            pacing: WallPacing::default(),
            tail_sample: Duration::from_millis(120),
            backend,
            workers,
        }
    }

    /// Starts a cluster for `scenario` on this driver's substrate without
    /// running the script or waiting for stabilization — the one place a
    /// substrate is chosen, for the election loop, the service driver and
    /// interactive use (watches, application traffic) alike. `tasks`
    /// builds the application tasks hosted beside the node loops (see
    /// [`Cluster::start_in`]); `|_, _| Vec::new()` hosts none. Returns the
    /// cluster and, on the SAN, the disk under it.
    ///
    /// # Panics
    ///
    /// Panics on [`Backend::Sim`], which has no wall clock.
    pub fn launch(
        &self,
        scenario: &Scenario,
        tasks: impl FnOnce(&MemorySpace, &[LeaderProbe]) -> Vec<Box<dyn CoopTask>>,
    ) -> (Cluster, Option<Arc<SanDisk>>) {
        let n = scenario.n;
        let (space, disk, pacing) = match self.backend {
            Backend::Coop => (MemorySpace::new(n), None, self.pacing),
            Backend::San => {
                let latency = scenario.san_latency.unwrap_or_else(SanLatency::instant);
                let disk = SanDisk::new(latency, scenario.seed);
                let pacing = self.on_disk(scenario).pacing;
                (disk.memory_space(n), Some(disk), pacing)
            }
            Backend::Sim => panic!("the simulator has no wall clock: run it with SimDriver"),
        };
        let node = pacing.node_config();
        let cluster = Cluster::start_in(scenario.variant, &space, node, self.pool(), tasks);
        (cluster, disk)
    }

    /// The worker pool the nodes share: coop's [`workers`](Self::workers),
    /// or `None` on the SAN, which gives every task — node loop or
    /// application task — a worker of its own. Records carry it as their
    /// `workers` field.
    #[must_use]
    pub fn pool(&self) -> Option<usize> {
        (self.backend == Backend::Coop).then_some(self.workers)
    }

    /// This driver over the disk of `scenario`: a pinned latency stretches
    /// pacing, window and tail with the disk's expected access time
    /// (anchored at the commodity profile's 300 ms / 500 ms, floored at
    /// 40 ms / 120 ms); without a pin the disk is instant and nothing
    /// changes.
    fn on_disk(&self, scenario: &Scenario) -> Self {
        let Some(latency) = scenario.san_latency else {
            return *self;
        };
        let node = NodeConfig::san_paced(latency);
        let ratio =
            latency.expected().as_secs_f64() / SanLatency::commodity().expected().as_secs_f64();
        let stretch = |anchor_ms, floor_ms| {
            Duration::from_millis(anchor_ms)
                .mul_f64(ratio)
                .max(Duration::from_millis(floor_ms))
        };
        WallDriver {
            pacing: WallPacing {
                tick: node.tick,
                step_interval: node.step_interval,
                window: stretch(300, 40),
            },
            tail_sample: stretch(500, 120),
            ..*self
        }
    }

    /// The election loop: runs `scenario` on an already-started `cluster`
    /// (over `disk`, when the substrate has one) and returns the
    /// backend-tagged outcome, with no SAN footprint — the disk's is read
    /// once the cluster has shut down.
    fn elect(&self, scenario: &Scenario, cluster: &Cluster, disk: Option<&SanDisk>) -> Outcome {
        let pacing = self.pacing;
        let start = Instant::now();
        let mut script = Script::new(scenario, disk);
        let deadline = start + pacing.wall(scenario.horizon);

        // Estimate flips are counted from t = 0, across the whole run — the
        // wall-clock analogue of the simulator's sampled leader timeline.
        // Two differing Options can't both be None, so a bare inequality
        // counts every transition, including the initial None→Some.
        let n = scenario.n;
        let mut estimate_changes = vec![0usize; n];
        let mut last_estimates: Vec<Option<ProcessId>> = vec![None; n];
        let mut count_flips = |estimates: &[Option<ProcessId>]| {
            for pid in ProcessId::all(n) {
                let current = estimates[pid.index()];
                if last_estimates[pid.index()] != current {
                    estimate_changes[pid.index()] += 1;
                    last_estimates[pid.index()] = current;
                }
            }
        };

        // The cluster's agreement/window state machine decides stability
        // while the observer replays the crash script at its wall-clock due
        // times. A `Some` returned while directives are still pending is the
        // pre-crash reign masquerading as the final one — loop and keep
        // waiting (the observer keeps firing crashes) until the script is
        // exhausted or the horizon budget runs out. Forward detection needs
        // a full agreement window after the last directive, so a crash
        // scheduled within `window / tick` ticks of the horizon cannot be
        // confirmed stable here even when the simulator's retrospective
        // view says it is; leave room after the script (the registry does).
        let elected = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break None;
            }
            let agreed =
                cluster.await_stable_leader_observing(pacing.window, remaining, |estimates| {
                    script.fire_due(cluster, pacing.ticks_since(start));
                    count_flips(estimates);
                });
            match agreed {
                Some(leader) if script.exhausted() => break Some(leader),
                Some(_) => {} // stable, but the script is still pending
                None => break None,
            }
        };
        // Agreement held continuously for `window` before the loop broke,
        // so the stable suffix began a window ago.
        let stabilization_ticks =
            elected.map(|_| pacing.ticks_of(start.elapsed().saturating_sub(pacing.window)));

        // Throughput over the run loop proper — the tail observation below
        // is fixed-length sleeping, not engine work, so it is excluded.
        let run_elapsed = start.elapsed();
        let events_at_deadline = cluster.events_total();
        let elapsed_ms = run_elapsed.as_secs_f64() * 1e3;
        let events_per_sec = if run_elapsed.as_secs_f64() > 0.0 {
            events_at_deadline as f64 / run_elapsed.as_secs_f64()
        } else {
            0.0
        };

        // Post-stabilization tail: observe traffic over a fixed wall window.
        // The paper's tail claims (single writer, bounded footprints) are
        // *eventually* statements, and convergence straggles for a few
        // windows after agreement — trailing STOP writes, last suspicion
        // bumps — so take up to four windows and keep the first settled one
        // (no footprint growth), falling back to the last observed.
        let tail = elected.map(|_| {
            let span_ticks = pacing.ticks_of(self.tail_sample).max(1);
            let mut observed = None;
            // One reusable snapshot buffer across the observation windows
            // (each window discards its `before` view immediately).
            let mut before = omega_registers::StatsSnapshot::default();
            for _ in 0..4 {
                let fp_before = cluster.space().footprint();
                cluster.space().stats_into(&mut before);
                std::thread::sleep(self.tail_sample);
                let delta = cluster.space().stats().delta_since(&before);
                let grown: Vec<String> = cluster
                    .space()
                    .footprint()
                    .grown_since(&fp_before)
                    .into_iter()
                    .map(String::from)
                    .collect();
                // A settled observation shows real traffic and no footprint
                // growth; an empty window (thread starvation under load) is
                // not evidence of anything.
                let settled = grown.is_empty() && delta.total_writes() > 0;
                observed = Some((
                    TailActivity {
                        writers: delta.writer_set(),
                        readers: delta.reader_set(),
                        written_registers: delta.written_registers().len(),
                        writes_per_1k: delta.total_writes() as f64 * 1000.0 / span_ticks as f64,
                        span_ticks,
                    },
                    grown,
                ));
                if settled {
                    break;
                }
            }
            observed.expect("at least one tail window observed")
        });
        let (tail, grown_in_tail) = match tail {
            Some((t, g)) => (Some(t), g),
            None => (None, Vec::new()),
        };

        let totals = cluster.space().stats().per_process_totals();
        // One snapshot for both fields, so they describe the same instant.
        let scan = cluster.scan_stats();
        // Injection here is wall-timed, so tick accounting is the planned
        // schedule, not a measurement; only the heal→stable window mixes in
        // something observed.
        let chaos = scenario.campaign.as_ref().map(|campaign| {
            ChaosOutcome::new(
                campaign.planned_stats(scenario.horizon),
                stabilization_ticks,
            )
        });
        Outcome {
            backend: self.backend.name(),
            scenario: scenario.name.clone(),
            variant: scenario.variant,
            n,
            elected,
            stabilized: elected.is_some(),
            stabilization_ticks,
            horizon_ticks: scenario.horizon,
            crashed: {
                let mut crashed = omega_registers::ProcessSet::new(n);
                for pid in ProcessId::all(n) {
                    if !cluster.correct().contains(pid) {
                        crashed.insert(pid);
                    }
                }
                crashed
            },
            correct: cluster.correct(),
            steps: cluster.steps(),
            estimate_changes,
            reads: totals.reads,
            writes: totals.writes,
            reads_skipped: scan.reads_skipped,
            shard_passes: scan.shard_passes,
            elapsed_ms,
            events_per_sec,
            register_count: cluster.space().register_count(),
            hwm_bits: cluster.space().footprint().total_hwm_bits(),
            grown_in_tail,
            tail,
            san: None,
            chaos,
            // Wall drivers never admit non-electing scenarios, so there is
            // no hostile window to witness.
            witness: None,
            workers: self.pool(),
        }
    }
}

impl Driver for WallDriver {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        let (cluster, disk) = self.launch(scenario, |_, _| Vec::new());
        let driver = if disk.is_some() {
            self.on_disk(scenario)
        } else {
            *self
        };
        let mut outcome = driver.elect(scenario, &cluster, disk.as_deref());
        let blocks_mapped = cluster.space().block_map().map_or(0, |m| m.blocks()) as u64;
        if let Some(disk) = &disk {
            // A horizon that ends mid-storm still leaves the disk calm
            // before its footprint is read.
            disk.set_storm_factor(1);
        }
        cluster.shutdown();
        outcome.san = disk.map(|disk| {
            let stats = disk.stats();
            SanFootprint {
                blocks_mapped,
                blocks_touched: stats.blocks_touched,
                block_accesses: stats.accesses,
                service_time_ms: stats.service_time.as_secs_f64() * 1e3,
            }
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::OmegaVariant;
    use omega_sim::chaos::{Campaign, ChaosPhase};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn driver(backend: Backend) -> WallDriver {
        WallDriver::new(backend, 1)
    }

    /// A cluster in which no node holds an estimate: all crash-stopped.
    fn leaderless(n: usize) -> Cluster {
        let cluster = Cluster::start(OmegaVariant::Alg1, n, WallPacing::default().node_config());
        ProcessId::all(n).for_each(|pid| cluster.crash(pid));
        assert_eq!(cluster.leaders(), vec![None; n]);
        cluster
    }

    #[test]
    fn leader_crash_waits_for_an_estimate_and_fires_once() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
            .crash_at(200, p(2))
            .crash_leader_at(100)
            .horizon(10_000);
        let mut script = Script::new(&scenario, None);

        let nobody = leaderless(3);
        assert!(script.fire_due(&nobody, 50).is_empty(), "nothing due yet");
        assert!(
            script.fire_due(&nobody, 150).is_empty(),
            "a leader crash with no estimate to aim at records no tick"
        );
        assert!(
            script.fire_due(&nobody, 250).is_empty(),
            "…and stays pending, holding back the directives behind it"
        );
        assert!(!script.exhausted());
        nobody.shutdown();

        let cluster = Cluster::start(OmegaVariant::Alg1, 3, WallPacing::default().node_config());
        let leader = cluster
            .await_stable_leader(Duration::from_millis(40), Duration::from_secs(10))
            .expect("a fault-free cluster elects");
        assert_eq!(
            script.fire_due(&cluster, 300),
            [300, 300],
            "the next poll that sees an estimate fires both, stamped with its own tick"
        );
        assert!(script.exhausted());
        assert!(!cluster.correct().contains(leader), "the leader fell");
        assert!(!cluster.correct().contains(p(2)));
        let survivors = cluster.correct().len();
        assert!(script.fire_due(&cluster, 400).is_empty(), "exactly once");
        assert_eq!(cluster.correct().len(), survivors);
        cluster.shutdown();
    }

    #[test]
    fn script_fires_what_the_simulator_would_retire() {
        // Boundaries at `tick == horizon` fire, later ones are dropped —
        // the simulator's convention — and an explicit heal ends a
        // partition before its own `until`.
        let groups = vec![vec![p(0)], vec![p(1)]];
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 2)
            .crash_at(1_000, p(1))
            .crash_at(1_001, p(0))
            .campaign(
                Campaign::new()
                    .phase(ChaosPhase::Partition {
                        groups: groups.clone(),
                        from: 100,
                        until: 900,
                    })
                    .phase(ChaosPhase::Heal { at: 400 })
                    .phase(ChaosPhase::Partition {
                        groups,
                        from: 950,
                        until: 2_000,
                    }),
            )
            .horizon(1_000);
        let mut script = Script::new(&scenario, None);
        let cluster = leaderless(2);
        let _ = script.fire_due(&cluster, 100);
        assert!(cluster.space().partition_active());
        let _ = script.fire_due(&cluster, 400);
        assert!(!cluster.space().partition_active(), "healed early");
        assert_eq!(script.fire_due(&cluster, 999), [] as [u64; 0]);
        assert!(cluster.space().partition_active(), "second install");
        assert_eq!(script.fire_due(&cluster, 1_000), [1_000]);
        assert!(
            script.exhausted(),
            "the crash at 1 001 and the heal at 2 000 are past the horizon"
        );
        assert!(cluster.space().partition_active(), "never healed");
        cluster.shutdown();
    }

    #[test]
    fn script_storms_the_disk_between_the_storm_boundaries() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 2)
            .campaign(Campaign::new().phase(ChaosPhase::Storm {
                factor: 8,
                jitter: 3,
                from: 100,
                until: 300,
            }))
            .horizon(1_000);
        let disk = SanDisk::new(SanLatency::instant(), 1);
        let mut script = Script::new(&scenario, Some(&disk));
        let cluster = leaderless(2);
        let _ = script.fire_due(&cluster, 99);
        assert_eq!(disk.storm_factor(), 1, "calm before the storm");
        let _ = script.fire_due(&cluster, 100);
        assert_eq!(disk.storm_factor(), 8);
        let _ = script.fire_due(&cluster, 300);
        assert_eq!(disk.storm_factor(), 1, "calm again at its end");
        assert!(script.exhausted());
        // Without a disk the same boundaries pass as no-ops.
        let mut diskless = Script::new(&scenario, None);
        let _ = diskless.fire_due(&cluster, 1_000);
        assert!(diskless.exhausted());
        cluster.shutdown();
    }

    /// A fault-free run on `wall`: elected, every node stepped, and the
    /// tail shows traffic from live processes only.
    fn fault_free_elects(wall: WallDriver) -> Outcome {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3).horizon(100_000);
        let outcome = wall.run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.backend, wall.backend.name());
        assert!(outcome.steps.iter().all(|&s| s > 0), "every node stepped");
        assert!(outcome.total_writes() > 0);
        assert!(outcome.san.is_none(), "in-memory backend: no block stats");
        let tail = outcome.tail.as_ref().expect("tail observed");
        // The tail shows real traffic from correct processes. (Stronger
        // shapes — exactly-one-writer, writer == elected — hold eventually
        // but not reliably in one observation window: under CPU contention
        // the OS's fairness can lapse and leadership can migrate right
        // after detection, which the AWB model explicitly allows.)
        assert!(!tail.writers.is_empty(), "tail shows traffic");
        for writer in tail.writers.iter() {
            assert!(
                outcome.correct.contains(writer),
                "only live processes write"
            );
        }
        outcome
    }

    #[test]
    fn fault_free_scenario_elects_on_threads() {
        // A worker per task: the 2n node loops each run on a thread of
        // their own.
        let outcome = fault_free_elects(WallDriver::new(Backend::Coop, 6));
        assert_eq!(outcome.workers, Some(6), "the pool the run was given");
    }

    #[test]
    fn fault_free_scenario_elects_on_coop() {
        let outcome = fault_free_elects(driver(Backend::Coop));
        assert_eq!(outcome.workers, Some(1), "coop outcomes report the pool");
    }

    #[test]
    fn fault_free_scenario_elects_over_disk_blocks() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3).horizon(100_000);
        let outcome = driver(Backend::San).run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.backend, "san");
        let san = outcome.san.expect("SAN backend reports block footprints");
        // One block per register, and every block eventually accessed.
        assert_eq!(san.blocks_mapped, outcome.register_count as u64);
        assert!(san.blocks_touched > 0 && san.blocks_touched <= san.blocks_mapped);
        // Block accesses are the register accesses on the same medium. The
        // outcome's register counters are snapshotted while nodes still
        // run, the disk's after shutdown, so the disk may have served a
        // few straggler accesses beyond the snapshot — never fewer.
        let snapshotted = outcome.total_reads() + outcome.total_writes();
        assert!(
            san.block_accesses >= snapshotted,
            "disk served {} accesses but registers counted {snapshotted}",
            san.block_accesses
        );
        assert_eq!(san.service_time_ms, 0.0, "instant profile never sleeps");
    }

    /// A leader crash at tick 2 000 on `wall`: exactly the old leader
    /// falls, and a survivor is elected.
    fn leader_crash_fails_over(wall: WallDriver) {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
            .crash_leader_at(2_000)
            .horizon(200_000);
        let outcome = wall.run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.crashed.len(), 1, "exactly the old leader fell");
        assert!(!outcome.crashed.contains(outcome.elected.unwrap()));
    }

    #[test]
    fn leader_crash_script_fails_over_on_threads() {
        leader_crash_fails_over(WallDriver::new(Backend::Coop, 6));
    }

    #[test]
    fn leader_crash_script_fails_over_on_coop() {
        leader_crash_fails_over(driver(Backend::Coop));
    }

    #[test]
    fn leader_crash_fails_over_on_the_san() {
        leader_crash_fails_over(driver(Backend::San));
    }

    #[test]
    fn partition_heal_campaign_runs_on_coop() {
        // The acceptance scenario on a wall-clock backend: the observer
        // severs {0,1} from {2,3,4} at the partition's wall-timed start,
        // heals it, and the election must still stabilize inside the
        // horizon. Tick accounting is the planned schedule (advisory on
        // wall backends); stability is genuinely observed.
        let scenario = crate::registry::named("chaos/partition-heal").expect("registry scenario");
        assert!(
            scenario.refusal(Backend::Coop, 1).is_none(),
            "partition+heal campaigns admit coop"
        );
        let outcome = driver(Backend::Coop).run(&scenario);
        outcome.assert_election();
        let chaos = outcome.chaos.expect("campaign scenarios report chaos");
        assert_eq!(chaos.partitions, 1);
        assert_eq!(chaos.partition_ticks, 25_000);
        assert_eq!(chaos.wave_crashes, 0);
        assert!(outcome.crashed.is_empty(), "partitions are not crashes");
    }

    #[test]
    fn scenario_pinned_latency_overrides_the_driver() {
        // A sweep scenario pins its own latency: the driver must honor it
        // (observable as nonzero simulated service time where the disk is
        // otherwise instant) and re-derive pacing from it.
        let latency = SanLatency {
            base: Duration::from_micros(30),
            jitter: Duration::from_micros(10),
        };
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 2)
            .san_latency(latency)
            .horizon(100_000);
        let outcome = driver(Backend::San).run(&scenario);
        outcome.assert_election();
        let san = outcome.san.unwrap();
        assert!(
            san.service_time_ms > 0.0,
            "pinned latency must reach the disk"
        );
    }

    #[test]
    fn latency_storm_scenario_survives_on_the_san() {
        // The SAN is the only wall backend admitted with storms: the
        // script stretches the disk's service time over the storm window,
        // the election rides it out, and the outcome carries the
        // (advisory, planned-schedule) chaos accounting.
        let scenario = crate::registry::named("chaos/latency-storm").expect("registry scenario");
        assert!(
            scenario.refusal(Backend::San, 1).is_none(),
            "storms admit the SAN"
        );
        let outcome = driver(Backend::San).run(&scenario);
        outcome.assert_election();
        let chaos = outcome.chaos.expect("campaign scenarios report chaos");
        assert_eq!(chaos.storm_ticks, 20_000);
        assert_eq!(chaos.partitions, 0);
        assert_eq!(chaos.heal_to_stable_ticks, None, "storms never heal-gate");
    }

    #[test]
    fn pacing_stretches_with_latency() {
        let san = driver(Backend::San);
        let plain = Scenario::fault_free(OmegaVariant::Alg1, 3);
        assert_eq!(san.on_disk(&plain), san, "an instant disk keeps the pacing");

        let commodity = san.on_disk(&plain.clone().san_latency(SanLatency::commodity()));
        assert_eq!(commodity.pacing.node_config(), NodeConfig::san_like());
        assert_eq!(commodity.pacing.window, Duration::from_millis(300));
        assert_eq!(commodity.tail_sample, Duration::from_millis(500));
        assert!(san.pacing.tick < commodity.pacing.tick);

        let double = san.on_disk(&plain.san_latency(SanLatency {
            base: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
        }));
        assert_eq!(double.pacing.tick, Duration::from_millis(10));
        assert_eq!(double.pacing.window, Duration::from_millis(600));
    }
}
