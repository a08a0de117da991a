//! The SAN-disk backend: elections over disk-block registers.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use omega_runtime::san::{SanDisk, SanLatency};
use omega_runtime::{Cluster, NodeConfig};
use omega_sim::chaos::ChaosAction;

use crate::wall::WallPacing;
use crate::{Driver, Outcome, SanFootprint, Scenario};

/// Realizes a [`Scenario`] over a simulated storage-area-network disk: the
/// paper's motivating deployment (Section 1 — Disk Paxos, Petal, NASD),
/// where every 1WnR register is one shared disk block.
///
/// The driver builds a [`SanDisk`] seeded from the scenario, lays the
/// variant's full register layout out on it (one block per register, via
/// the space's [`BlockMap`](omega_registers::BlockMap)), and spawns the
/// *unmodified* election processes on OS threads against that disk-backed
/// memory. Every shared-memory access pays the disk's simulated service
/// time, and the run loop itself is the same wall-clock loop the
/// [`ThreadDriver`](crate::ThreadDriver) uses, so outcomes are directly
/// comparable across all three backends.
///
/// Two things are SAN-specific in the returned [`Outcome`]:
///
/// * **Pacing** — heartbeat cadence and the timeout unit stretch with the
///   disk's expected access time via [`NodeConfig::san_paced`], anchored
///   at the canonical [`NodeConfig::san_like`] profile. The algorithms are
///   untouched: AWB only relates step cadence to timeout units.
/// * **Block footprint** — [`Outcome::san`] carries the disk's block-level
///   accounting (blocks mapped and touched, accesses, simulated service
///   time) alongside the ordinary register statistics.
///
/// A scenario may pin its own latency model via
/// [`Scenario::san_latency`](crate::Scenario::san_latency) (the
/// `san-latency/…` registry family sweeps base/jitter this way); it then
/// overrides the driver's model *and* re-derives the pacing, so one driver
/// value can run the whole sweep.
///
/// # Examples
///
/// ```
/// use omega_scenario::{registry, Driver, SanDriver};
///
/// let outcome = SanDriver::instant().run(&registry::fault_free());
/// outcome.assert_election();
/// let san = outcome.san.expect("SAN backend reports block footprints");
/// assert_eq!(san.blocks_mapped, outcome.register_count as u64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SanDriver {
    /// Latency model of the disk (unless the scenario pins its own).
    pub latency: SanLatency,
    /// Node pacing used when the scenario does not pin a latency model.
    pub config: NodeConfig,
    /// How long every correct node must agree before the election counts
    /// as stable.
    pub window: Duration,
    /// How long to observe post-stabilization traffic for the tail report.
    pub tail_sample: Duration,
}

impl SanDriver {
    /// A driver for the given latency model: pacing, stability window and
    /// tail sampling all stretch with the model's expected access time.
    #[must_use]
    pub fn new(latency: SanLatency) -> Self {
        let (window, tail_sample) = observation_windows(latency);
        SanDriver {
            latency,
            config: NodeConfig::san_paced(latency),
            window,
            tail_sample,
        }
    }

    /// The zero-latency profile (tests, CI): disk semantics — block
    /// layout, footprint accounting, shared-medium linearization — at
    /// in-memory speed, paced exactly like
    /// [`ThreadDriver::default`](crate::ThreadDriver) (the fields are
    /// taken from it, not copied) so parity suites run all three backends
    /// in comparable wall time.
    #[must_use]
    pub fn instant() -> Self {
        let twin = crate::ThreadDriver::default();
        SanDriver {
            latency: SanLatency::instant(),
            config: NodeConfig {
                step_interval: twin.step_interval,
                tick: twin.tick,
            },
            window: twin.window,
            tail_sample: twin.tail_sample,
        }
    }

    /// The latency model, pacing and tail sample a specific scenario runs
    /// under: the scenario's pinned model (with re-derived pacing) when
    /// present, this driver's defaults otherwise.
    fn plan(&self, scenario: &Scenario) -> (SanLatency, WallPacing, Duration) {
        let (latency, config, (window, tail_sample)) = match scenario.san_latency {
            Some(latency) => (
                latency,
                NodeConfig::san_paced(latency),
                observation_windows(latency),
            ),
            None => (self.latency, self.config, (self.window, self.tail_sample)),
        };
        let pacing = WallPacing {
            tick: config.tick,
            step_interval: config.step_interval,
            window,
        };
        (latency, pacing, tail_sample)
    }
}

/// Wall-timed realization of a campaign's latency storms: a controller
/// thread flips the disk's [`storm factor`](SanDisk::set_storm_factor) at
/// the storm boundaries of the campaign's
/// [`schedule`](omega_sim::chaos::Campaign::schedule) — the entries the
/// cluster-side [`Script`](crate::Script) skips. The SAN is the only wall
/// backend admitted with storms precisely because its substrate has this
/// knob — the election processes stay untouched, every disk access just
/// pays the stretched service time while a storm is active.
struct StormController {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<()>,
}

impl StormController {
    /// Spawns a controller for the scenario's storm boundaries, or `None`
    /// when the campaign has none.
    fn spawn(disk: &Arc<SanDisk>, scenario: &Scenario, pacing: &WallPacing) -> Option<Self> {
        let events: Vec<(Duration, u64)> = scenario
            .campaign
            .iter()
            .flat_map(|campaign| campaign.schedule(scenario.horizon))
            .filter_map(|due| match due.action {
                ChaosAction::StormOn { factor, .. } => Some((pacing.wall(due.tick), factor)),
                ChaosAction::StormOff => Some((pacing.wall(due.tick), 1)),
                _ => None,
            })
            .collect();
        if events.is_empty() {
            return None;
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let disk = Arc::clone(disk);
        let handle = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let (lock, cvar) = &*shared;
            for (due, factor) in events {
                let mut stopped = lock.lock().expect("storm controller lock");
                loop {
                    if *stopped {
                        return;
                    }
                    let elapsed = start.elapsed();
                    if elapsed >= due {
                        break;
                    }
                    stopped = cvar
                        .wait_timeout(stopped, due - elapsed)
                        .expect("storm controller wait")
                        .0;
                }
                disk.set_storm_factor(factor);
            }
        });
        Some(StormController { stop, handle })
    }

    /// Stops the controller and calms the disk: once the run loop is done,
    /// no pending boundary may fire and the factor resets to 1 so the
    /// post-run footprint snapshot is taken on a quiet medium.
    fn finish(self, disk: &SanDisk) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("storm controller lock") = true;
        cvar.notify_all();
        let _ = self.handle.join();
        disk.set_storm_factor(1);
    }
}

impl Default for SanDriver {
    /// The commodity-iSCSI profile ([`SanLatency::commodity`]).
    fn default() -> Self {
        SanDriver::new(SanLatency::commodity())
    }
}

/// Stability window and tail sample stretched to a latency model, anchored
/// at the historical SAN profile (300 ms / 500 ms at commodity latency)
/// and floored at the thread driver's defaults (40 ms / 120 ms).
fn observation_windows(latency: SanLatency) -> (Duration, Duration) {
    let anchor = SanLatency::commodity().expected();
    let ratio = latency.expected().as_secs_f64() / anchor.as_secs_f64();
    (
        Duration::from_millis(300)
            .mul_f64(ratio)
            .max(Duration::from_millis(40)),
        Duration::from_millis(500)
            .mul_f64(ratio)
            .max(Duration::from_millis(120)),
    )
}

impl Driver for SanDriver {
    fn name(&self) -> &'static str {
        "san"
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        let (latency, pacing, tail_sample) = self.plan(scenario);
        let disk = SanDisk::new(latency, scenario.seed);
        let space = disk.memory_space(scenario.n);
        let cluster = Cluster::start_in(scenario.variant, &space, pacing.node_config());
        let storm = StormController::spawn(&disk, scenario, &pacing);
        let mut outcome = pacing.run(scenario, &cluster, tail_sample, "san", None);
        if let Some(storm) = storm {
            storm.finish(&disk);
        }
        cluster.shutdown();
        let stats = disk.stats();
        outcome.san = Some(SanFootprint {
            blocks_mapped: space.block_map().map_or(0, |m| m.blocks()) as u64,
            blocks_touched: stats.blocks_touched,
            block_accesses: stats.accesses,
            service_time_ms: stats.service_time.as_secs_f64() * 1e3,
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::OmegaVariant;

    #[test]
    fn fault_free_scenario_elects_over_disk_blocks() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3).horizon(100_000);
        let outcome = SanDriver::instant().run(&scenario);
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

    #[test]
    fn leader_crash_fails_over_on_the_san() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
            .crash_leader_at(2_000)
            .horizon(200_000);
        let outcome = SanDriver::instant().run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.crashed.len(), 1);
        assert!(!outcome.crashed.contains(outcome.elected.unwrap()));
    }

    #[test]
    fn scenario_pinned_latency_overrides_the_driver() {
        // A sweep scenario pins its own latency: the driver must honor it
        // (observable as nonzero simulated service time even on the
        // instant driver) and re-derive pacing from it.
        let latency = SanLatency {
            base: Duration::from_micros(30),
            jitter: Duration::from_micros(10),
        };
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 2)
            .san_latency(latency)
            .horizon(100_000);
        let outcome = SanDriver::instant().run(&scenario);
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
        // controller thread stretches the disk's service time over the
        // storm window, the election rides it out, and the outcome carries
        // the (advisory, planned-schedule) chaos accounting.
        let scenario = crate::registry::named("chaos/latency-storm").expect("registry scenario");
        assert!(
            scenario.refusal(crate::Backend::San, 1).is_none(),
            "storms admit the SAN"
        );
        let outcome = SanDriver::instant().run(&scenario);
        outcome.assert_election();
        let chaos = outcome.chaos.expect("campaign scenarios report chaos");
        assert_eq!(chaos.storm_ticks, 20_000);
        assert_eq!(chaos.partitions, 0);
        assert_eq!(chaos.heal_to_stable_ticks, None, "storms never heal-gate");
    }

    #[test]
    fn pacing_stretches_with_latency() {
        let commodity = SanDriver::default();
        assert_eq!(commodity.config, NodeConfig::san_like());
        assert_eq!(commodity.window, Duration::from_millis(300));
        assert_eq!(commodity.tail_sample, Duration::from_millis(500));

        let instant = SanDriver::instant();
        assert!(instant.config.tick < commodity.config.tick);

        let double = SanDriver::new(SanLatency {
            base: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
        });
        assert_eq!(double.config.tick, Duration::from_millis(10));
        assert_eq!(double.window, Duration::from_millis(600));
    }
}
