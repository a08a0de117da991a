//! The wall-clock half of every real-time backend: one pacing, one
//! script, one election loop.
//!
//! [`ThreadDriver`](crate::ThreadDriver) (in-memory registers),
//! [`SanDriver`](crate::SanDriver) (disk-block registers),
//! [`CoopDriver`](crate::CoopDriver) (the cooperative deadline-wheel
//! runtime) and the service crate's wall drivers all run a [`Cluster`]
//! against the wall clock. What they share lives here once — a second copy
//! would drift, and outcome comparability across backends is the whole
//! point of the Scenario API:
//!
//! * [`WallPacing`] — how scenario ticks map to real time (and back).
//! * [`Script`] — the scenario's crash directives and its campaign's
//!   [`schedule`](omega_sim::chaos::Campaign::schedule) as one cursor a
//!   polling loop fires from: the same actions, at the same ticks, under
//!   the same horizon convention (`tick <= horizon`) as the simulator.
//! * the election loop ([`WallPacing::run`]) — fire the script, wait for a
//!   stable leader inside the horizon budget, observe the
//!   post-stabilization tail, and assemble an [`Outcome`] in scenario
//!   ticks. The service loop has a different shape (it runs to the horizon
//!   whatever the election does) and lives with the service drivers; it
//!   fires the same [`Script`].

use std::time::{Duration, Instant};

use omega_registers::ProcessId;
use omega_runtime::{Cluster, NodeConfig};
use omega_sim::chaos::{ChaosAction, Scheduled};

use crate::{ChaosOutcome, CrashSpec, Outcome, Scenario, TailActivity};

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
    /// The in-memory wall drivers' pacing (thread, coop, instant SAN, and
    /// the service drivers): thread-vs-coop rows compare substrates only
    /// while these stay one set of numbers.
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
/// everything due fires against the cluster, in order. Directives and
/// boundaries past the horizon are dropped at construction — the simulator
/// retires events at `tick <= horizon`, so that is what fires here.
#[derive(Debug)]
pub struct Script<'a> {
    crashes: Vec<CrashSpec>,
    next_crash: usize,
    actions: Vec<Scheduled<'a>>,
    next_action: usize,
}

impl<'a> Script<'a> {
    /// The script of `scenario`.
    #[must_use]
    pub fn new(scenario: &'a Scenario) -> Self {
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
        }
    }

    /// Fires everything due at tick `now` against `cluster` and returns
    /// the ticks (`now`, once per directive) of the scripted crashes that
    /// actually fired.
    ///
    /// A [`CrashSpec::LeaderAt`] that finds no estimate to aim at stays
    /// pending — and holds back the directives after it — until a later
    /// poll sees one. Storm boundaries are skipped: they act on the
    /// medium, not the cluster (the SAN driver's controller fires them),
    /// and recovery is refused at admission.
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
                ChaosAction::StormOn { .. } | ChaosAction::StormOff => {}
            }
            self.next_action += 1;
        }
        fired
    }

    /// Whether every directive and boundary has fired.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.next_crash == self.crashes.len() && self.next_action == self.actions.len()
    }
}

impl WallPacing {
    /// Runs `scenario` to completion on an already-started `cluster`,
    /// returning the backend-tagged outcome (with no SAN footprint — the
    /// caller attaches one if its substrate keeps block accounting).
    /// `tail_sample` is how long to observe post-stabilization traffic for
    /// the tail report; `workers` is the coop pool size, `None` for
    /// per-node-thread substrates. The caller owns the cluster and must
    /// shut it down afterwards.
    pub(crate) fn run(
        &self,
        scenario: &Scenario,
        cluster: &Cluster,
        tail_sample: Duration,
        backend: &'static str,
        workers: Option<usize>,
    ) -> Outcome {
        let start = Instant::now();
        let mut script = Script::new(scenario);
        let deadline = start + self.wall(scenario.horizon);

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
                cluster.await_stable_leader_observing(self.window, remaining, |estimates| {
                    script.fire_due(cluster, self.ticks_since(start));
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
            elected.map(|_| self.ticks_of(start.elapsed().saturating_sub(self.window)));

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
            let span_ticks = self.ticks_of(tail_sample).max(1);
            let mut observed = None;
            // One reusable snapshot buffer across the observation windows
            // (each window discards its `before` view immediately).
            let mut before = omega_registers::StatsSnapshot::default();
            for _ in 0..4 {
                let fp_before = cluster.space().footprint();
                cluster.space().stats_into(&mut before);
                std::thread::sleep(tail_sample);
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
            backend,
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
            workers,
        }
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
        let mut script = Script::new(&scenario);

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
        let mut script = Script::new(&scenario);
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
}
