//! The cooperative-scheduler backend: wall-clock elections past the
//! OS-thread wall.

use std::time::Duration;

use omega_runtime::{Cluster, CoopConfig};

use crate::wall::WallPacing;
use crate::{Driver, Outcome, Scenario};

/// Realizes a [`Scenario`] on the cooperative task runtime
/// (`omega_runtime::coop`): all `2n` node loops multiplexed as
/// deadline-ordered tasks over one worker thread (or a small pool),
/// instead of two dedicated OS threads per node.
///
/// This is the fourth backend, and the first *real-time* one that scales:
/// the thread and SAN drivers refuse every `n > 16` scenario because `2n`
/// kernel threads thrash a small host, while one coop worker runs
/// `n-scaling-64` and `n-scaling-128` to stable elections, and a sharded
/// pool ([`workers`](Self::workers) ≥ 4) runs `n-scaling-256` and beyond —
/// the admission cap is `omega_scenario::coop_max_n(workers)`. The
/// scheduling regime also differs qualitatively from the OS scheduler's:
/// under overload the deadline wheel degrades into round-robin over the
/// overdue tasks (per-shard exactly, globally up to the steal window), so
/// fairness (the operational face of AWB₁) comes from the queue discipline
/// rather than kernel preemption — a genuinely different realization of
/// the assumption to validate the algorithms against.
///
/// Like the thread driver, the adversary spec and timer spec are
/// simulator-only (the wheel *is* the schedule; `deadline = x · tick` is a
/// faithful timer), the crash script fires at `tick × tick_duration` on
/// the wall clock, and a pinned SAN latency is ignored. The run loop is
/// the shared wall-clock loop (`wall.rs`), so outcomes line up with every
/// other backend's.
#[derive(Debug, Clone, Copy)]
pub struct CoopDriver {
    /// Wall-clock length of one scenario tick (also the timer unit).
    pub tick: Duration,
    /// Pause between consecutive `T2` polls of each node.
    pub step_interval: Duration,
    /// How long every correct node must agree before the election counts
    /// as stable.
    pub window: Duration,
    /// How long to observe post-stabilization traffic for the tail report.
    pub tail_sample: Duration,
    /// Worker threads multiplexing the task set (1 = fully cooperative).
    pub workers: usize,
}

impl Default for CoopDriver {
    /// The thread driver's pacing numbers on a single worker, so
    /// thread-vs-coop comparisons at equal `n` measure the substrate, not
    /// the configuration.
    fn default() -> Self {
        let twin = crate::ThreadDriver::default();
        CoopDriver {
            tick: twin.tick,
            step_interval: twin.step_interval,
            window: twin.window,
            tail_sample: twin.tail_sample,
            workers: 1,
        }
    }
}

impl CoopDriver {
    fn pacing(&self) -> WallPacing {
        WallPacing {
            tick: self.tick,
            step_interval: self.step_interval,
            window: self.window,
        }
    }

    /// Starts a coop-hosted cluster configured for `scenario` without
    /// running the crash script or waiting for stabilization — for
    /// interactive use on a scenario-described system, mirroring
    /// [`ThreadDriver::launch`](crate::ThreadDriver::launch).
    #[must_use]
    pub fn launch(&self, scenario: &Scenario) -> Cluster {
        let config = CoopConfig {
            node: self.pacing().node_config(),
            workers: self.workers,
        };
        Cluster::start_coop(scenario.variant, scenario.n, config)
    }
}

impl Driver for CoopDriver {
    fn name(&self) -> &'static str {
        "coop"
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        let cluster = self.launch(scenario);
        let outcome = self.pacing().run(
            scenario,
            &cluster,
            self.tail_sample,
            "coop",
            Some(self.workers),
        );
        cluster.shutdown();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::OmegaVariant;

    #[test]
    fn fault_free_scenario_elects_on_coop() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3).horizon(100_000);
        let outcome = CoopDriver::default().run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.backend, "coop");
        assert!(outcome.steps.iter().all(|&s| s > 0), "every node stepped");
        assert!(outcome.total_writes() > 0);
        assert!(outcome.san.is_none(), "in-memory backend: no block stats");
        let tail = outcome.tail.as_ref().expect("tail observed");
        assert!(!tail.writers.is_empty(), "tail shows traffic");
        for writer in tail.writers.iter() {
            assert!(
                outcome.correct.contains(writer),
                "only live processes write"
            );
        }
    }

    #[test]
    fn leader_crash_script_fails_over_on_coop() {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 3)
            .crash_leader_at(2_000)
            .horizon(200_000);
        let outcome = CoopDriver::default().run(&scenario);
        outcome.assert_election();
        assert_eq!(outcome.crashed.len(), 1, "exactly the old leader fell");
        assert!(!outcome.crashed.contains(outcome.elected.unwrap()));
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
            scenario.refusal(crate::Backend::Coop, 1).is_none(),
            "partition+heal campaigns admit coop"
        );
        let outcome = CoopDriver::default().run(&scenario);
        outcome.assert_election();
        let chaos = outcome.chaos.expect("campaign scenarios report chaos");
        assert_eq!(chaos.partitions, 1);
        assert_eq!(chaos.partition_ticks, 25_000);
        assert_eq!(chaos.wave_crashes, 0);
        assert!(outcome.crashed.is_empty(), "partitions are not crashes");
    }

    #[test]
    fn default_pacing_twins_the_thread_driver() {
        // Thread-vs-coop throughput rows compare substrates only when the
        // pacing is identical; pin that coupling.
        let coop = CoopDriver::default();
        let threads = crate::ThreadDriver::default();
        assert_eq!(coop.tick, threads.tick);
        assert_eq!(coop.step_interval, threads.step_interval);
        assert_eq!(coop.window, threads.window);
        assert_eq!(coop.workers, 1, "fully cooperative by default");
    }
}
