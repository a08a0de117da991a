//! The shared wall-clock election loop behind every real-time backend.
//!
//! [`ThreadDriver`](crate::ThreadDriver) (in-memory registers),
//! [`SanDriver`](crate::SanDriver) (disk-block registers) and
//! [`CoopDriver`](crate::CoopDriver) (the cooperative deadline-wheel
//! runtime) run the same experiment shape: spawn a [`Cluster`], replay the
//! crash script at its wall-clock due times, wait for a stable leader
//! inside the horizon budget, observe the post-stabilization tail, and
//! assemble an [`Outcome`] in scenario ticks. Only the cluster substrate
//! and the pacing differ, so that loop lives here once — a second copy
//! would inevitably drift, and outcome comparability across backends is
//! the whole point of the Scenario API.

use std::time::{Duration, Instant};

use omega_registers::ProcessId;
use omega_runtime::Cluster;
use omega_sim::chaos::ChaosPhase;

use crate::{ChaosOutcome, CrashSpec, Outcome, Scenario, TailActivity};

/// One wall-timed campaign injection. Storms are absent: the only wall
/// backend admitted with a storm is the SAN, whose disk substrate realizes
/// it (see `SanDriver`); partitions, heals, and wave crashes act through
/// the cluster like scripted crashes do.
enum ChaosAction {
    Partition(Vec<Vec<ProcessId>>),
    Cut(Vec<ProcessId>, Vec<ProcessId>),
    Heal,
    Crash(ProcessId),
}

/// Pacing of one wall-clock realization: how scenario ticks map to real
/// time, and how stability and the tail are observed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallPacing {
    /// Wall-clock length of one scenario tick (also the timer unit).
    pub tick: Duration,
    /// How long every correct node must agree before the election counts
    /// as stable.
    pub window: Duration,
    /// How long to observe post-stabilization traffic for the tail report.
    pub tail_sample: Duration,
}

impl WallPacing {
    pub(crate) fn wall(&self, ticks: u64) -> Duration {
        let nanos = self.tick.as_nanos().saturating_mul(u128::from(ticks));
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    pub(crate) fn ticks_of(&self, wall: Duration) -> u64 {
        let tick = self.tick.as_nanos().max(1);
        u64::try_from(wall.as_nanos() / tick).unwrap_or(u64::MAX)
    }

    /// Runs `scenario` to completion on an already-started `cluster`,
    /// returning the backend-tagged outcome (with no SAN footprint — the
    /// caller attaches one if its substrate keeps block accounting).
    /// `workers` is the coop pool size, `None` for per-node-thread
    /// substrates. The caller owns the cluster and must shut it down
    /// afterwards.
    pub(crate) fn run(
        &self,
        scenario: &Scenario,
        cluster: &Cluster,
        backend: &'static str,
        workers: Option<usize>,
    ) -> Outcome {
        let start = Instant::now();

        // Directives at or beyond the horizon never fire in the simulator
        // (its event loop stops at the horizon), so drop them here too —
        // otherwise the script would pend forever and block stability.
        let mut crashes = scenario.crashes.clone();
        crashes.retain(|c| match *c {
            CrashSpec::At { tick, .. } | CrashSpec::LeaderAt { tick } => tick < scenario.horizon,
        });
        crashes.sort_by_key(|c| match *c {
            CrashSpec::At { tick, .. } | CrashSpec::LeaderAt { tick } => tick,
        });
        // Campaign phases, flattened to wall-timed actions under the same
        // convention (at-or-beyond-horizon never fires; an unhealed
        // partition stays installed to the end, as in the simulator).
        let mut chaos_actions: Vec<(u64, ChaosAction)> = Vec::new();
        if let Some(campaign) = &scenario.campaign {
            for phase in &campaign.phases {
                match phase {
                    ChaosPhase::Partition {
                        groups,
                        from,
                        until,
                    } => {
                        chaos_actions.push((*from, ChaosAction::Partition(groups.clone())));
                        chaos_actions.push((*until, ChaosAction::Heal));
                    }
                    ChaosPhase::Wave { crash, at, .. } => {
                        chaos_actions
                            .extend(crash.iter().map(|&pid| (*at, ChaosAction::Crash(pid))));
                    }
                    ChaosPhase::Heal { at } => chaos_actions.push((*at, ChaosAction::Heal)),
                    ChaosPhase::Storm { .. } => {}
                    ChaosPhase::Cut {
                        blinded,
                        hidden,
                        from,
                        until,
                    } => {
                        chaos_actions
                            .push((*from, ChaosAction::Cut(blinded.clone(), hidden.clone())));
                        chaos_actions.push((*until, ChaosAction::Heal));
                    }
                    ChaosPhase::Flap {
                        groups,
                        period,
                        from,
                        until,
                    } => {
                        // Same install/heal boundaries as the simulator.
                        for (install, heal) in omega_sim::chaos::flap_spans(*period, *from, *until)
                        {
                            chaos_actions.push((install, ChaosAction::Partition(groups.clone())));
                            chaos_actions.push((heal, ChaosAction::Heal));
                        }
                    }
                }
            }
            chaos_actions.retain(|(tick, _)| *tick < scenario.horizon);
            // Stable sort: simultaneous actions keep declaration order.
            chaos_actions.sort_by_key(|&(tick, _)| tick);
        }
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
        let mut next_crash = 0;
        let mut next_action = 0;
        let elected = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break None;
            }
            let agreed =
                cluster.await_stable_leader_observing(self.window, remaining, |estimates| {
                    while next_crash < crashes.len() {
                        let crash = crashes[next_crash];
                        let tick = match crash {
                            CrashSpec::At { tick, .. } | CrashSpec::LeaderAt { tick } => tick,
                        };
                        if start.elapsed() < self.wall(tick) {
                            break;
                        }
                        match crash {
                            CrashSpec::At { pid, .. } => cluster.crash(pid),
                            CrashSpec::LeaderAt { .. } => {
                                // No estimate to aim at yet: retry next poll.
                                if cluster.crash_current_leader().is_none() {
                                    break;
                                }
                            }
                        }
                        next_crash += 1;
                    }
                    while next_action < chaos_actions.len() {
                        let (tick, action) = &chaos_actions[next_action];
                        if start.elapsed() < self.wall(*tick) {
                            break;
                        }
                        match action {
                            ChaosAction::Partition(groups) => {
                                cluster.space().install_partition(groups);
                            }
                            ChaosAction::Cut(blinded, hidden) => {
                                cluster.space().install_cut(blinded, hidden);
                            }
                            ChaosAction::Heal => cluster.space().heal_partition(),
                            ChaosAction::Crash(pid) => cluster.crash(*pid),
                        }
                        next_action += 1;
                    }
                    count_flips(estimates);
                });
            match agreed {
                Some(leader)
                    if next_crash >= crashes.len() && next_action >= chaos_actions.len() =>
                {
                    break Some(leader)
                }
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
            let span_ticks = self.ticks_of(self.tail_sample).max(1);
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
            let planned = campaign.planned_stats(scenario.horizon);
            ChaosOutcome {
                partitions: planned.partitions,
                partition_ticks: planned.partition_ticks,
                storm_ticks: planned.storm_ticks,
                wave_crashes: planned.wave_crashes,
                wave_recoveries: planned.wave_recoveries,
                heal_to_stable_ticks: match (planned.last_heal_at, stabilization_ticks) {
                    (Some(heal), Some(stable)) if stable >= heal => Some(stable - heal),
                    _ => None,
                },
            }
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
