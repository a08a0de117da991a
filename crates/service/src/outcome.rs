//! What one service run measured, and its one-line JSON record.
//!
//! The headline is the **unavailability window**: for every scripted
//! crash, the span from the crash tick until the service next
//! acknowledged *any* request, together with the requests refused or
//! stalled while it lasted. That is the user-facing denominator the
//! election benchmarks lacked — "stabilization ticks" priced in protocol
//! time, windows price it in failed requests.

use omega_core::OmegaVariant;
use omega_scenario::record::Writer;

use crate::histogram::Histogram;
use crate::ledger::{Ledger, RequestState};
use crate::spec::ServiceScenario;

/// One failover's user-visible cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnavailWindow {
    /// Tick of the scripted crash.
    pub crash_at: u64,
    /// Tick of the first acknowledgment after the crash, or `None` if the
    /// service never recovered inside the horizon.
    pub healed_at: Option<u64>,
    /// Requests refused whose lifetime overlapped the window.
    pub rejected: u64,
    /// Requests stalled past deadline whose lifetime overlapped the window.
    pub stalled: u64,
}

impl UnavailWindow {
    /// The window's length in ticks (up to `horizon` when it never healed).
    #[must_use]
    pub fn duration(&self, horizon: u64) -> u64 {
        self.healed_at
            .unwrap_or(horizon)
            .saturating_sub(self.crash_at)
    }
}

/// Everything one service-scenario run measured on one backend.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Which backend produced it (`"sim"`, `"coop"`).
    pub backend: &'static str,
    /// Service-scenario name.
    pub scenario: String,
    /// The Ω variant underneath.
    pub variant: OmegaVariant,
    /// Number of service nodes.
    pub n: usize,
    /// Run horizon in ticks.
    pub horizon: u64,
    /// Requests in the generated schedule.
    pub requests: u64,
    /// Requests acknowledged.
    pub committed: u64,
    /// Requests actively refused (routed to a non-leader, or unroutable).
    pub rejected: u64,
    /// Requests the client gave up on at its deadline.
    pub stalled: u64,
    /// Requests still unresolved at the horizon with a live deadline
    /// (excluded from the SLO).
    pub inflight: u64,
    /// Acknowledgment-latency quantiles in ticks (HDR-style, ≤ 6.25 %
    /// relative error; the max is exact).
    pub commit_p50: u64,
    /// 95th percentile acknowledgment latency (ticks).
    pub commit_p95: u64,
    /// 99th percentile acknowledgment latency (ticks).
    pub commit_p99: u64,
    /// Largest acknowledgment latency (ticks, exact).
    pub commit_max: u64,
    /// One window per scripted crash, in crash order.
    pub windows: Vec<UnavailWindow>,
    /// Requests refused while a campaign split was installed — their
    /// rejection tick fell inside one of the campaign's
    /// [`installed_intervals`](omega_sim::chaos::Campaign::installed_intervals)
    /// — the service-layer attribution of chaos-induced unavailability.
    /// Zero when the scenario has no campaign.
    pub in_partition_rejected: u64,
    /// Requests that outlived the workload's fail-fast stall bound: ended
    /// `Stalled`, or resolved after `arrival + stall_bound`. Always zero
    /// when the workload sets no bound; gating this at zero in
    /// `BENCH_service.json` is the drain SLO — under hostile chaos the
    /// ledger must terminate every request promptly, not park it.
    pub stall_bound_breaches: u64,
    /// Whether the election (re-)stabilized by the end of the run.
    pub stabilized: bool,
    /// Space-wide shared-register writes (election + replication).
    pub total_writes: u64,
    /// Log slots decided across the run.
    pub log_slots: u64,
    /// Wall-clock run time in milliseconds (advisory; never gated on sim).
    pub elapsed_ms: f64,
    /// Worker-pool size of the cooperative backend's sharded wheel
    /// (`None` on sim, which has no pool to size).
    pub workers: Option<usize>,
}

impl ServiceOutcome {
    /// Builds the outcome from a finished run's raw parts: the ledger's
    /// final states, the ticks at which scripted crashes fired, and the
    /// backend's counters. It reads the ledger in place, under its lock:
    /// one pass folds the counts, the latencies and each window's heal
    /// tick, a second attributes the failed requests to the healed
    /// windows.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn assemble(
        backend: &'static str,
        scenario: &ServiceScenario,
        ledger: &Ledger,
        crashes: &[u64],
        stabilized: bool,
        total_writes: u64,
        log_slots: u64,
        elapsed_ms: f64,
    ) -> Self {
        let horizon = scenario.election.horizon;

        let mut crash_ticks: Vec<u64> = crashes.to_vec();
        crash_ticks.sort_unstable();
        let mut windows: Vec<UnavailWindow> = crash_ticks
            .into_iter()
            .map(|crash_at| UnavailWindow {
                crash_at,
                healed_at: None,
                rejected: 0,
                stalled: 0,
            })
            .collect();

        // Campaign attribution: a rejection whose tick fell while a split
        // was installed is chaos-induced, not crash-induced — split leader
        // estimates across the cut misroute requests even though every
        // node is alive. "Installed" is the schedule's word: from a
        // partition, cut or flap install to whichever heal ends it (the
        // healed half-cycles of a flap are the service's to recover in).
        let partition_spans = scenario
            .election
            .campaign
            .as_ref()
            .map_or_else(Vec::new, |c| c.installed_intervals(horizon));

        let mut committed = 0u64;
        let mut rejected = 0u64;
        let mut stalled = 0u64;
        let mut inflight = 0u64;
        let mut in_partition_rejected = 0u64;
        let mut stall_bound_breaches = 0u64;
        let mut latencies = Histogram::new();
        let requests = ledger.read(|schedule, states| {
            for (m, state) in schedule.iter().zip(states) {
                let state = state.get();
                match state {
                    RequestState::Pending => inflight += 1,
                    RequestState::Committed { at } => {
                        committed += 1;
                        latencies.record(at.saturating_sub(m.arrival));
                        // A window heals at the least ack after its crash.
                        for w in &mut windows {
                            if at > w.crash_at && w.healed_at.is_none_or(|h| at < h) {
                                w.healed_at = Some(at);
                            }
                        }
                    }
                    RequestState::Rejected { at } => {
                        rejected += 1;
                        if partition_spans
                            .iter()
                            .any(|&(from, until)| at >= from && at < until)
                        {
                            in_partition_rejected += 1;
                        }
                    }
                    RequestState::Stalled { .. } => stalled += 1,
                }
                // Drain accounting: with a fail-fast bound configured,
                // every request must terminate by `arrival + stall_bound`
                // — a stall, or any resolution after the bound tick, is a
                // breach. Pending requests are excluded like the rest of
                // the SLO (their bound may sit beyond the horizon).
                if let Some(bound_at) = schedule.fail_fast_at(m) {
                    let breach = match state {
                        RequestState::Pending => false,
                        RequestState::Stalled { .. } => true,
                        RequestState::Committed { at } | RequestState::Rejected { at } => {
                            at > bound_at
                        }
                    };
                    stall_bound_breaches += u64::from(breach);
                }
            }
            // Attribute each failed request to the first window its
            // lifetime [arrival, resolved] overlaps.
            for (m, state) in schedule.iter().zip(states) {
                let (at, is_reject) = match state.get() {
                    RequestState::Rejected { at } => (at, true),
                    RequestState::Stalled { at } => (at, false),
                    _ => continue,
                };
                if let Some(w) = windows
                    .iter_mut()
                    .find(|w| m.arrival <= w.healed_at.unwrap_or(horizon) && at >= w.crash_at)
                {
                    if is_reject {
                        w.rejected += 1;
                    } else {
                        w.stalled += 1;
                    }
                }
            }
            schedule.len() as u64
        });

        ServiceOutcome {
            backend,
            scenario: scenario.name.clone(),
            variant: scenario.election.variant,
            n: scenario.election.n,
            horizon,
            requests,
            committed,
            rejected,
            stalled,
            inflight,
            commit_p50: latencies.value_at_quantile(0.50),
            commit_p95: latencies.value_at_quantile(0.95),
            commit_p99: latencies.value_at_quantile(0.99),
            commit_max: latencies.max(),
            windows,
            in_partition_rejected,
            stall_bound_breaches,
            stabilized,
            total_writes,
            log_slots,
            elapsed_ms,
            workers: None,
        }
    }

    /// Total unavailability across all windows, in ticks.
    #[must_use]
    pub fn unavail_ticks(&self) -> u64 {
        self.windows.iter().map(|w| w.duration(self.horizon)).sum()
    }

    /// Requests refused inside unavailability windows.
    #[must_use]
    pub fn unavail_rejected(&self) -> u64 {
        self.windows.iter().map(|w| w.rejected).sum()
    }

    /// Requests stalled inside unavailability windows.
    #[must_use]
    pub fn unavail_stalled(&self) -> u64 {
        self.windows.iter().map(|w| w.stalled).sum()
    }

    /// The flat one-line JSON record the `service` bench bin emits (see
    /// [`omega_scenario::record`]) — defined here so the determinism test
    /// and the bin serialize through one code path. Every field except
    /// `wall_ms` is a pure function of `(scenario, seed)` on the sim backend.
    #[must_use]
    pub fn json_record(&self) -> String {
        let mut w = Writer::default();
        w.str("scenario", &self.scenario)
            .str("backend", self.backend)
            .str("variant", self.variant.name())
            .raw("n", self.n);
        if let Some(workers) = self.workers {
            w.raw("workers", workers);
        }
        w.raw("requests", self.requests)
            .raw("committed", self.committed)
            .raw("rejected", self.rejected)
            .raw("stalled", self.stalled)
            .raw("inflight", self.inflight)
            .raw("commit_p50", self.commit_p50)
            .raw("commit_p95", self.commit_p95)
            .raw("commit_p99", self.commit_p99)
            .raw("commit_max", self.commit_max)
            .raw("crashes", self.windows.len())
            .raw("unavail_ticks", self.unavail_ticks())
            .raw("unavail_rejected", self.unavail_rejected())
            .raw("unavail_stalled", self.unavail_stalled())
            .raw("in_partition_rejected", self.in_partition_rejected)
            .raw("stall_bound_breaches", self.stall_bound_breaches)
            .raw("stabilized", self.stabilized)
            .raw("total_writes", self.total_writes)
            .raw("log_slots", self.log_slots)
            .raw("wall_ms", format_args!("{:.3}", self.elapsed_ms));
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crate::workload::{RequestKind, RequestMeta, Schedule};
    use omega_registers::ProcessId;

    fn scenario() -> ServiceScenario {
        crate::registry::all()
            .into_iter()
            .find(|s| s.name == "failover/alg1")
            .expect("registry has the headline scenario")
    }

    /// Gets arriving at `arrivals`, each with a 1 000-tick deadline and
    /// the given stall bound.
    fn bounded(arrivals: &[u64], stall_bound: Option<u64>) -> Schedule {
        let requests = arrivals
            .iter()
            .map(|&arrival| RequestMeta {
                arrival,
                client: 0,
                kind: RequestKind::Get { key: 0 },
            })
            .collect();
        Schedule::new(requests, 1_000, stall_bound)
    }

    fn schedule(arrivals: &[u64]) -> Schedule {
        bounded(arrivals, None)
    }

    #[test]
    fn windows_measure_crash_to_first_ack() {
        let sc = scenario();
        let ledger = Ledger::new(schedule(&[100, 19_000, 21_000, 26_000]), sc.election.n);
        // Before the crash at 20_000: two acks. After: one reject inside
        // the window, then the healing ack.
        ledger.complete(0, 150);
        ledger.complete(1, 19_100);
        ledger.reject(2, 21_050);
        ledger.complete(3, 26_200);
        let outcome = ServiceOutcome::assemble("sim", &sc, &ledger, &[20_000], true, 10, 3, 1.0);
        assert_eq!(outcome.windows.len(), 1);
        let w = outcome.windows[0];
        assert_eq!(w.crash_at, 20_000);
        assert_eq!(w.healed_at, Some(26_200));
        assert_eq!(w.rejected, 1);
        assert_eq!(w.stalled, 0);
        assert_eq!(outcome.unavail_ticks(), 6_200);
        assert_eq!(outcome.committed, 3);
        assert_eq!(outcome.rejected, 1);
    }

    #[test]
    fn unhealed_window_extends_to_the_horizon() {
        let sc = scenario();
        let ledger = Ledger::new(schedule(&[100]), sc.election.n);
        ledger.complete(0, 150);
        let outcome = ServiceOutcome::assemble("sim", &sc, &ledger, &[30_000], false, 0, 0, 1.0);
        assert_eq!(outcome.windows[0].healed_at, None);
        assert_eq!(
            outcome.unavail_ticks(),
            sc.election.horizon - 30_000,
            "never-healed windows run to the horizon"
        );
    }

    #[test]
    fn partition_attribution_ends_at_the_heal_that_ended_the_cut() {
        use omega_sim::chaos::{Campaign, ChaosPhase};
        let p = ProcessId::new;
        let election = omega_scenario::Scenario::fault_free(OmegaVariant::Alg1, 3)
            .campaign(
                Campaign::new()
                    .phase(ChaosPhase::Partition {
                        groups: vec![vec![p(0)], vec![p(1), p(2)]],
                        from: 2_000,
                        until: 9_000,
                    })
                    .phase(ChaosPhase::Heal { at: 4_000 }),
            )
            .horizon(12_000);
        let sc = ServiceScenario::new("test/healed-early", election, scenario().workload);
        let ledger = Ledger::new(schedule(&[1_000, 3_000, 6_000]), sc.election.n);
        ledger.reject(0, 1_000); // before the cut
        ledger.reject(1, 3_000); // while it is installed
        ledger.reject(2, 6_000); // after the explicit heal, before `until`
        let outcome = ServiceOutcome::assemble("sim", &sc, &ledger, &[], true, 0, 0, 1.0);
        assert_eq!(outcome.rejected, 3);
        assert_eq!(
            outcome.in_partition_rejected, 1,
            "only the rejection inside [2 000, 4 000) is the partition's"
        );
    }

    #[test]
    fn stall_bound_breaches_count_stalls_and_late_resolutions() {
        let sc = scenario();
        let ledger = Ledger::new(bounded(&[100, 200, 300], Some(500)), sc.election.n);
        ledger.complete(0, 400); // inside the bound: clean
        ledger.complete(1, 900); // committed past arrival + 500: breach
        ledger.reject(2, 800); // rejected exactly at the bound tick: clean
        let outcome = ServiceOutcome::assemble("sim", &sc, &ledger, &[], true, 0, 0, 1.0);
        assert_eq!(outcome.stall_bound_breaches, 1);

        // A bound looser than the deadline leaves the request to the
        // stall sweep — a breach all the same.
        let ledger = Ledger::new(bounded(&[400], Some(2_000)), sc.election.n);
        ledger.sweep(10_000);
        let outcome = ServiceOutcome::assemble("sim", &sc, &ledger, &[], true, 0, 0, 1.0);
        assert_eq!(outcome.stalled, 1);
        assert_eq!(outcome.stall_bound_breaches, 1);
        assert!(outcome.json_record().contains("\"stall_bound_breaches\":1"));
    }

    #[test]
    fn windows_heal_at_the_least_ack_whatever_the_request_order() {
        let sc = scenario();
        // Crashes at 20 000 and 40 000. Request ids follow arrival; acks
        // land out of id order: after each crash a later request is acked
        // before an earlier one.
        let ledger = Ledger::new(
            schedule(&[
                19_000, 21_000, 21_800, 22_000, 39_000, 41_000, 41_500, 42_000,
            ]),
            sc.election.n,
        );
        ledger.sweep(20_000); // request 0 stalls at 20 000: window 1's
        ledger.reject(1, 21_500); // refused inside window 1
        ledger.complete(2, 22_600); // the earlier request, acked later
        ledger.complete(3, 22_300); // the later request heals window 1
        ledger.complete(4, 39_500);
        ledger.reject(5, 41_100); // refused inside window 2
        ledger.complete(6, 42_800);
        ledger.complete(7, 42_400); // the later request heals window 2
        let outcome =
            ServiceOutcome::assemble("sim", &sc, &ledger, &[40_000, 20_000], true, 0, 0, 1.0);
        let w = &outcome.windows;
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].crash_at, w[0].healed_at), (20_000, Some(22_300)));
        assert_eq!((w[1].crash_at, w[1].healed_at), (40_000, Some(42_400)));
        assert_eq!((w[0].rejected, w[0].stalled), (1, 1));
        assert_eq!((w[1].rejected, w[1].stalled), (1, 0));
        assert_eq!(outcome.unavail_ticks(), 2_300 + 2_400);
        assert_eq!(outcome.committed, 5);
    }

    #[test]
    fn json_record_is_flat_and_complete() {
        let sc = scenario();
        let ledger = Ledger::new(schedule(&[100]), sc.election.n);
        ledger.publish(ProcessId::new(0), Some(ProcessId::new(0)));
        ledger.complete(0, 400);
        let outcome = ServiceOutcome::assemble("sim", &sc, &ledger, &[], true, 42, 7, 2.5);
        let record = outcome.json_record();
        for key in [
            "\"scenario\":",
            "\"backend\":\"sim\"",
            "\"variant\":",
            "\"n\":",
            "\"requests\":1",
            "\"committed\":1",
            "\"rejected\":0",
            "\"stalled\":0",
            "\"inflight\":0",
            "\"commit_p50\":",
            "\"crashes\":0",
            "\"unavail_ticks\":0",
            "\"in_partition_rejected\":0",
            "\"stall_bound_breaches\":0",
            "\"stabilized\":true",
            "\"total_writes\":42",
            "\"log_slots\":7",
            "\"wall_ms\":2.500",
        ] {
            assert!(record.contains(key), "missing {key} in {record}");
        }
        assert!(!record.contains('\n'));
        assert!(
            !record.contains("\"workers\":"),
            "poolless backends emit no workers field"
        );
        let pooled = ServiceOutcome {
            workers: Some(4),
            ..outcome
        };
        assert!(pooled.json_record().contains("\"workers\":4,"));
    }
}
