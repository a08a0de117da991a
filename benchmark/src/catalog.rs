//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer ledger. `BENCHMARK.json` at the
//! repository root is this table rendered (`manifest` subcommand; a unit
//! test keeps the two equal), and every run emits exactly these names.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline value.
    Relative(f64),
    /// An absolute amount in the metric's own unit.
    Absolute(f64),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Final name (`--workload <name>`).
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
}

/// The six workloads, in the order the driver runs them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "elect-small",
        why: "sim, Alg1 n=5, horizon 2M ticks, two leader crashes: event queue, adversary and sampling do the work, scans are trivial",
    },
    WorkloadDef {
        name: "elect-wide",
        why: "sim, Alg1 n=128, 99% quiescent: leader()/refresh epoch checks and the memory-cubic mirrors dominate, two fifths of the call is outside the event loop",
    },
    WorkloadDef {
        name: "elect-churn",
        why: "sim, Alg1 n=48 under a flapping partition: every flip dirties every epoch, so caches miss and scans re-read; the dirty path of the same code",
    },
    WorkloadDef {
        name: "serve-writes",
        why: "KV service, 90% puts, open-loop ladder 5..30 requests per 1000 ticks: consensus log and ledger saturate near 26 slots per 1000 ticks",
    },
    WorkloadDef {
        name: "serve-failover",
        why: "KV service, 5% puts at 200 requests per 1000 ticks through two leader crashes: reads beside writes, re-election and routing set the result",
    },
    WorkloadDef {
        name: "coop-failover",
        why: "wall clock, coop runtime n=64 on 2 workers: cold start then 16 leader crashes per round; wheel, stealing and parking under real timers",
    },
];

/// One metric a user of the system would see, defined on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Which clock the number uses, and how it is estimated.
    pub clock: &'static str,
}

/// End-to-end metrics. The contract wants each defined (and never 0) on
/// every workload, so these are the six that are; the workload-specific
/// service levels (SLO rate, overload goodput, failover percentiles, …)
/// are guarded entries of [`PER_LAYER`].
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: "host; best of repeated constructions (spread over the run) of the workload's system from the seed (specs, request schedule, registers + processes, or cluster start + stop)",
    },
    EndToEnd {
        name: "run_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        clock: "host; best rep of the whole driver call timed from outside (build + run + outcome + drop); one ladder pass on serve-writes (best run of each rung, summed); the mean round on coop-failover, whose reps are timer waits in two modes",
    },
    EndToEnd {
        name: "rep_cpu_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        clock: "host; process CPU (user + system, all threads) of the best rep, by the same rule as run_wall_ms; equals wall on the single-threaded sim, the CPU cost of a round on coop",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        clock: "host; VmHWM when the timed section ends",
    },
    EndToEnd {
        name: "shared_writes",
        unit: "count",
        better: Better::Lower,
        bound: 0.20,
        clock: "model count, exact per seed on sim (mean over reps of Outcome::total_writes / ServiceOutcome.total_writes at rung 10); measured per round on coop, where it follows the round length",
    },
    EndToEnd {
        name: "latency_ticks",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.25,
        clock: "simulated ticks, exact per seed on sim; wall / NodeConfig.tick on coop. The wait the workload's user sees: ticks from the last disturbance to a stable leader (elect-*), commit p99 at 10 requests per 1000 ticks (serve-writes), mean unavailability per crash (serve-failover), mean failover (coop-failover)",
    },
];

/// One metric of a single layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// `<layer>.<metric>`; the layer is the crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `compare`'s own bound, for the workload-specific service levels.
    pub guard: Option<Bound>,
    /// What it measures and which end-to-end metric, on which workload, it
    /// should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        guard: None,
        moves,
    }
}

const fn guarded(
    name: &'static str,
    unit: &'static str,
    better: Better,
    guard: Bound,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        guard: Some(guard),
        moves,
    }
}

use Better::{Higher, Lower};

/// Ladder rungs of `serve-writes`, in requests per 1000 ticks.
pub const LADDER: [u64; 6] = [5, 10, 15, 20, 25, 30];

/// The per-layer ledger. A metric a workload cannot observe reads 0 there.
pub const PER_LAYER: &[LayerMetric] = &[
    // registers
    layer("registers.nat_read_ns", "ns", Lower, "unit cost: eager NatRegister read; run_wall_ms on coop-failover"),
    layer("registers.nat_write_ns", "ns", Lower, "unit cost: eager NatRegister write"),
    layer("registers.nat_read_deferred_ns", "ns", Lower, "unit cost: deferred-instrumentation read (the sim mode); run_wall_ms on elect-churn"),
    layer("registers.nat_write_deferred_ns", "ns", Lower, "unit cost: deferred-instrumentation write"),
    layer("registers.shared_reads", "count", Lower, "shared reads per rep; run_wall_ms on elect-churn"),
    layer("registers.reads_skipped", "count", Lower, "reads the epoch caches avoided per rep"),
    layer("registers.skip_ratio", "share", Higher, "skipped / (skipped + read); falls on elect-churn, ~1 on elect-wide"),
    layer("registers.shard_passes", "count", Lower, "sharded T3 passes per rep"),
    layer("registers.stats_flush_ms", "ms", Lower, "MemorySpace::stats() after a run (registry walk at n); outside-loop part of run_wall_ms on elect-wide"),
    layer("registers.hwm_bits", "bits", Lower, "register high-water footprint"),
    layer("registers.busy_ms", "ms", Lower, "estimate: reads x read cost + writes x write cost (inside core.busy_ms)"),
    // core
    layer("core.build_ms", "ms", Lower, "OmegaVariant::build at n (span); run_wall_ms and peak_rss_mb on elect-wide, setup_s"),
    layer("core.leader_quiescent_ns", "ns", Lower, "unit cost: leader() with every epoch clean; run_wall_ms on elect-wide"),
    layer("core.leader_dirty_ns", "ns", Lower, "unit cost: leader() after every foreign row was rewritten; run_wall_ms on elect-churn"),
    layer("core.t2_step_ns", "ns", Lower, "unit cost: leader's T2 step (quiescent leader() + heartbeat write)"),
    layer("core.t3_scan_quiescent_ns", "ns", Lower, "unit cost: one T3 pass that suspects nobody; run_wall_ms on elect-wide"),
    layer("core.t3_scan_dirty_ns", "ns", Lower, "unit cost: one T3 pass that writes suspicions; run_wall_ms on elect-churn, latency_ticks"),
    layer("core.alg2_t2_step_ns", "ns", Lower, "unit cost: Alg2 T2 step at n=5 (no workload runs Alg2; kept for variant work)"),
    layer("core.alg2_t3_scan_ns", "ns", Lower, "unit cost: Alg2 T3 pass at n=5"),
    layer("core.steps", "count", Lower, "T2 steps per rep"),
    layer("core.timer_fires", "count", Lower, "T3 expiries per rep; timeout logic moves latency_ticks"),
    layer("core.busy_ms", "ms", Lower, "estimate: steps x t2 + passes x t3 + dirty rows x per-row refresh"),
    // sim
    layer("sim.events", "count", Lower, "events retired per rep"),
    layer("sim.loop_ms", "ms", Lower, "Outcome.elapsed_ms, the event loop alone (best rep)"),
    layer("sim.events_per_s", "1/s", Higher, "events / loop time; run_wall_ms on elect-small first"),
    layer("sim.event_queue_ns", "ns", Lower, "unit cost: EventQueue schedule + pop; run_wall_ms on elect-small"),
    layer("sim.wheel_ns", "ns", Lower, "unit cost: TimerWheel push + pop"),
    layer("sim.samples", "count", Lower, "leader-timeline samples per rep"),
    layer("sim.trace_encode_ns_per_event", "ns", Lower, "Trace::encode per recorded event"),
    layer("sim.trace_decode_ns_per_event", "ns", Lower, "Trace::decode per recorded event"),
    layer("sim.arrivals_ns_per_request", "ns", Lower, "OpenLoop::generate per arrival; setup_s on serve-*"),
    layer("sim.busy_ms", "ms", Lower, "estimate: events x queue cost"),
    // scenario
    layer("scenario.outside_loop_ms", "ms", Lower, "run_wall_ms - sim.loop_ms: build, outcome assembly, drop; 41% of elect-wide"),
    layer("scenario.outside_loop_share", "share", Lower, "outside_loop_ms / run_wall_ms"),
    layer("scenario.stabilization_ticks", "ticks", Lower, "tick the stable suffix began (mean over reps)"),
    layer("scenario.spec_parse_us", "us", Lower, "spec_text round trip of the workload's own spec"),
    layer("scenario.fingerprint_us", "us", Lower, "Outcome::fingerprint of the workload's own outcome"),
    // consensus
    layer("consensus.decide_ns", "ns", Lower, "unit cost: sole-leader decision at n=5; commit latency on serve-writes"),
    layer("consensus.log_slots", "count", Lower, "log slots decided (rung 10 on the ladder)"),
    layer("consensus.slots_per_kt", "1/kt", Higher, "slots decided per 1000 ticks at the top rung: the put path's ceiling"),
    layer("consensus.useful_slot_ratio", "share", Higher, "committed puts / slots decided at the top rung; overload goodput on serve-writes"),
    layer("consensus.writes_per_commit", "count", Lower, "shared writes per committed request"),
    layer("consensus.busy_ms", "ms", Lower, "estimate: slots x decide cost"),
    // service
    layer("service.ledger_issue_ns", "ns", Lower, "unit cost: Ledger::issue; run_wall_ms on serve-failover"),
    layer("service.ledger_route_ns", "ns", Lower, "unit cost: Ledger::route_target"),
    layer("service.ledger_drain_complete_ns", "ns", Lower, "unit cost: Ledger::drain + complete per request"),
    layer("service.ledger_sweep_ns", "ns", Lower, "unit cost: Ledger::sweep with nothing due (once per workload-actor step)"),
    layer("service.histogram_record_ns", "ns", Lower, "unit cost: Histogram::record"),
    layer("service.workload_generate_ns_per_request", "ns", Lower, "WorkloadSpec::generate per request; setup_s"),
    layer("service.wall_ns_per_request", "ns", Lower, "run_wall_ms / requests; serve-failover (77k requests) more than serve-writes"),
    layer("service.commit_p50_ticks", "ticks", Lower, "commit latency p50 (rung 10 on the ladder)"),
    layer("service.commit_p95_ticks", "ticks", Lower, "commit latency p95 (rung 10 on the ladder)"),
    guarded("service.commit_p99_ticks", "ticks", Lower, Bound::Relative(0.10), "commit latency p99 (rung 10 on the ladder)"),
    guarded("service.slo_rate_per_kt", "1/kt", Higher, Bound::Absolute(0.0), "highest rung with failed share <= 0.1% and commit p99 <= 600 ticks; batching or pipelining moves it"),
    guarded("service.overload_goodput_per_kt", "1/kt", Higher, Bound::Relative(0.10), "committed per 1000 ticks at rung 30; expiry shedding moves it"),
    guarded("service.failed_share", "share", Lower, Bound::Absolute(0.0001), "(rejected + stalled) / requests (rung 10 on the ladder)"),
    guarded("service.unavail_ticks", "ticks", Lower, Bound::Relative(0.10), "unavailability summed over both crash windows (serve-failover)"),
    layer("service.unavail_failed", "count", Lower, "requests rejected or stalled inside crash windows"),
    layer("service.rung5.failed_share", "share", Lower, "ladder rung 5"),
    layer("service.rung5.commit_p99_ticks", "ticks", Lower, "ladder rung 5"),
    layer("service.rung10.failed_share", "share", Lower, "ladder rung 10"),
    layer("service.rung10.commit_p99_ticks", "ticks", Lower, "ladder rung 10"),
    layer("service.rung15.failed_share", "share", Lower, "ladder rung 15"),
    layer("service.rung15.commit_p99_ticks", "ticks", Lower, "ladder rung 15"),
    layer("service.rung20.failed_share", "share", Lower, "ladder rung 20"),
    layer("service.rung20.commit_p99_ticks", "ticks", Lower, "ladder rung 20"),
    layer("service.rung25.failed_share", "share", Lower, "ladder rung 25"),
    layer("service.rung25.commit_p99_ticks", "ticks", Lower, "ladder rung 25"),
    layer("service.rung30.failed_share", "share", Lower, "ladder rung 30"),
    layer("service.rung30.commit_p99_ticks", "ticks", Lower, "ladder rung 30"),
    layer("service.busy_ms", "ms", Lower, "estimate: requests x (issue + drain/complete + record) + steps x sweep"),
    // runtime
    layer("runtime.start_ms", "ms", Lower, "Cluster::start_coop (span); first_stable_ms, setup_s on coop-failover"),
    layer("runtime.shutdown_ms", "ms", Lower, "Cluster::shutdown (span)"),
    layer("runtime.deadline_queue_ns", "ns", Lower, "unit cost: DeadlineQueue push + pop"),
    layer("runtime.events", "count", Lower, "T2 steps + T3 expiries per round"),
    layer("runtime.cpu_us_per_event", "us", Lower, "process CPU / events; rep_cpu_ms on coop-failover"),
    layer("runtime.worker_busy_share", "share", Lower, "coop-worker-* on-CPU time / (workers x round wall), from schedstat"),
    layer("runtime.worker_runq_wait_ms", "ms", Lower, "coop-worker-* run-queue wait per round, from schedstat"),
    layer("runtime.wheel_lag_us_p50", "us", Lower, "how late a 1 ms-cadence external CoopTask was polled; failover tail"),
    layer("runtime.wheel_lag_us_p99", "us", Lower, "same, p99"),
    guarded("runtime.first_stable_ms", "ms", Lower, Bound::Relative(0.25), "cold start to first agreed leader, p50 over rounds"),
    layer("runtime.failover_ms_p50", "ms", Lower, "crash(leader) to agreed successor, p50; bimodal (11 ms in a fast round, 18 ms in a slow one), so it jumps run to run and carries no bound"),
    guarded("runtime.failover_ms_mean", "ms", Lower, Bound::Relative(0.25), "same, mean (latency_ticks x tick): moves smoothly with the share of slow rounds"),
    guarded("runtime.failover_ms_p95", "ms", Lower, Bound::Relative(0.25), "same, p95"),
    guarded("runtime.cpu_core_share", "share", Lower, Bound::Relative(0.25), "process CPU s / wall s over the rounds"),
    layer("runtime.busy_ms", "ms", Lower, "estimate: worker on-CPU time per round"),
    // harness
    layer("harness.rep_wall_ms_p50", "ms", Lower, "median rep wall (run_wall_ms is the best rep)"),
    layer("harness.rep_wall_iqr_share", "share", Lower, "rep wall IQR / median: above the bound means a noisy run, not a regression"),
    layer("harness.unattributed_share", "share", Lower, "1 - (layer estimates + measured spans) / run_wall_ms: not self time of anything"),
    layer("harness.trace_overhead_share", "share", Lower, "(traced - untraced) / untraced run_wall_ms"),
    layer("harness.poll_late_us_p99", "us", Lower, "how late the 200 us coop poller woke, p99"),
    layer("harness.host_steal_share", "share", Lower, "/proc/stat steal delta over the run"),
];

/// The bound `compare` applies to `name`, if it guards it.
#[must_use]
pub fn bound_of(name: &str) -> Option<(Better, Bound)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.better, Bound::Relative(m.bound)))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.guard.map(|g| (m.better, g)))
        })
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, rendered from the tables above.
#[must_use]
pub fn manifest() -> String {
    let entry = |pairs: Vec<(&str, Json)>| Json::obj(pairs).render();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| entry(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            entry(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            entry(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = Json::Arr(
        [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]
        .into_iter()
        .map(Json::str)
        .collect(),
    );
    let list = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.render(),
        list(&workloads),
        list(&end_to_end),
        list(&per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` stays inside `[A-Za-z0-9_.-]`, starts with a letter or
    /// digit and is at most 64 characters — the contract's metric-name rule.
    fn valid_name(name: &str) -> bool {
        let charset = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(charset)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_fits_the_contract_charset_and_is_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_rendered_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with the `manifest` subcommand"
        );
        let doc = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn guards_resolve_for_end_to_end_and_service_levels() {
        assert_eq!(
            bound_of("run_wall_ms"),
            Some((Better::Lower, Bound::Relative(0.25)))
        );
        assert_eq!(
            bound_of("service.slo_rate_per_kt"),
            Some((Better::Higher, Bound::Absolute(0.0)))
        );
        assert_eq!(bound_of("sim.events"), None);
    }
}
