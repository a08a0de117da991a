//! The native-thread backend.

use std::time::Duration;

use omega_runtime::{Cluster, NodeConfig};

use crate::wall::WallPacing;
use crate::{Driver, Outcome, Scenario};

/// Realizes a [`Scenario`] on operating-system threads
/// (`omega_runtime::Cluster`), mapping scenario ticks to wall-clock time.
///
/// Two of the scenario's knobs are simulator-only: the adversary spec (no
/// user-space code can dictate the OS scheduler's interleaving — the OS
/// *is* the schedule, and its fairness is what realizes AWB₁ here) and the
/// timer spec (`thread::sleep(x · tick)` is a faithful timer, trivially
/// AWB₂). Everything else — variant, `n`, the crash script, the horizon —
/// is honored literally: crash directives fire at `tick × tick_duration`
/// on the wall clock, and the horizon bounds the run the same way.
///
/// Time in the returned [`Outcome`] is expressed in scenario ticks
/// (wall-clock elapsed divided by `tick`), so outcomes line up with the
/// simulator's. The run loop itself is shared with the SAN backend (see
/// [`SanDriver`](crate::SanDriver)); this driver contributes only the
/// in-memory cluster and its pacing.
#[derive(Debug, Clone, Copy)]
pub struct ThreadDriver {
    /// Wall-clock length of one scenario tick (also the timer unit).
    pub tick: Duration,
    /// Pause between consecutive `T2` iterations of each node.
    pub step_interval: Duration,
    /// How long every correct node must agree before the election counts
    /// as stable.
    pub window: Duration,
    /// How long to observe post-stabilization traffic for the tail report.
    pub tail_sample: Duration,
}

impl Default for ThreadDriver {
    /// [`WallPacing::default`] plus a 120 ms tail observation.
    fn default() -> Self {
        let pacing = WallPacing::default();
        ThreadDriver {
            tick: pacing.tick,
            step_interval: pacing.step_interval,
            window: pacing.window,
            tail_sample: Duration::from_millis(120),
        }
    }
}

impl ThreadDriver {
    /// Pacing that mimics registers on a storage-area network: everything
    /// is orders of magnitude slower, and nothing about the algorithms
    /// changes.
    ///
    /// The heartbeat/timeout numbers come from the canonical
    /// [`NodeConfig::san_like`] profile (one definition, owned by
    /// `omega-runtime`); this driver only adds the observation windows.
    /// For elections over *actual* disk-block registers, use
    /// [`SanDriver`](crate::SanDriver) — this profile merely paces
    /// in-memory registers like a SAN.
    #[must_use]
    pub fn san_like() -> Self {
        let config = NodeConfig::san_like();
        ThreadDriver {
            tick: config.tick,
            step_interval: config.step_interval,
            window: Duration::from_millis(300),
            tail_sample: Duration::from_millis(500),
        }
    }

    fn pacing(&self) -> WallPacing {
        WallPacing {
            tick: self.tick,
            step_interval: self.step_interval,
            window: self.window,
        }
    }

    /// Starts a cluster configured for `scenario` without running the crash
    /// script or waiting for stabilization — for interactive use (watches,
    /// application traffic) on a scenario-described system.
    #[must_use]
    pub fn launch(&self, scenario: &Scenario) -> Cluster {
        Cluster::start(scenario.variant, scenario.n, self.pacing().node_config())
    }
}

impl Driver for ThreadDriver {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        let cluster = self.launch(scenario);
        let outcome = self
            .pacing()
            .run(scenario, &cluster, self.tail_sample, "threads", None);
        cluster.shutdown();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::OmegaVariant;

    #[test]
    fn fault_free_scenario_elects_on_threads() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3).horizon(100_000);
        let outcome = ThreadDriver::default().run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.backend, "threads");
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
    }

    #[test]
    fn leader_crash_script_fails_over_on_threads() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
            .crash_leader_at(2_000)
            .horizon(200_000);
        let outcome = ThreadDriver::default().run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.crashed.len(), 1, "exactly the old leader fell");
        assert!(!outcome.crashed.contains(outcome.elected.unwrap()));
    }

    #[test]
    fn san_like_pacing_comes_from_the_canonical_profile() {
        // The satellite dedup: these numbers must be NodeConfig::san_like's,
        // not a drifting local copy.
        let driver = ThreadDriver::san_like();
        let canonical = NodeConfig::san_like();
        assert_eq!(driver.tick, canonical.tick);
        assert_eq!(driver.step_interval, canonical.step_interval);
    }
}
