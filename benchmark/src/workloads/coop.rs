//! `coop-failover`: the only wall-clock workload. Each round cold-starts a
//! 64-node Alg1 cluster on the cooperative runtime, waits for the first
//! stable leader, then crashes the leader 16 times, awaiting each
//! successor, and shuts down.
//!
//! The harness thread polls `Cluster::leaders()` every 200 µs and
//! timestamps when agreement *began*; the 10 ms it then waits to confirm
//! the agreement held is not part of any latency.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_runtime::{Cluster, CoopConfig, CoopTask, NodeConfig};
use omega_scenario::Scenario;

use crate::harness::{
    busy_ms, end_section, record_rep_clocks, record_skip_ratio, Ctx, Measured, RepClock, Setup,
};
use crate::host;
use crate::spans::Recorder;
use crate::stats;
use crate::unit_costs;

const N: usize = 64;
/// Leader crashes per round.
const CRASHES: usize = 16;
const POLL: Duration = Duration::from_micros(200);
/// How long agreement must hold before it counts as stable.
const CONFIRM: Duration = Duration::from_millis(10);
/// A failover that takes this long has failed.
const TIMEOUT: Duration = Duration::from_secs(20);
/// Cadence the lag probe asks the wheel for.
const PROBE_CADENCE: Duration = Duration::from_millis(1);

/// The program under test never gets more threads than the host has.
fn workers() -> usize {
    host::nproc().min(2)
}

fn config() -> CoopConfig {
    CoopConfig {
        node: NodeConfig::default(),
        workers: workers(),
    }
}

/// The leader every correct node currently agrees on, if they do.
fn agreed(cluster: &Cluster) -> Option<ProcessId> {
    let estimates = cluster.leaders();
    let correct = cluster.correct();
    let mut live = correct.iter().map(|p| estimates[p.index()]);
    match live.next().flatten() {
        Some(leader) if correct.contains(leader) && live.all(|e| e == Some(leader)) => Some(leader),
        _ => None,
    }
}

/// Polls until agreement has held for [`CONFIRM`]; returns the leader and
/// the instant the agreement began. Records how late each poll woke.
fn await_stable(cluster: &Cluster, poll_late_us: &mut Vec<f64>) -> Option<(ProcessId, Instant)> {
    let start = Instant::now();
    let mut since: Option<(ProcessId, Instant)> = None;
    while start.elapsed() < TIMEOUT {
        let now = Instant::now();
        match (agreed(cluster), since) {
            (Some(leader), Some((held, began))) if leader == held => {
                if now.duration_since(began) >= CONFIRM {
                    return Some((leader, began));
                }
            }
            (Some(leader), _) => since = Some((leader, now)),
            (None, _) => since = None,
        }
        let sleep = Instant::now();
        std::thread::sleep(POLL);
        let late = sleep.elapsed().saturating_sub(POLL);
        poll_late_us.push(late.as_secs_f64() * 1e6);
    }
    None
}

/// An application task on the cluster's own wheel that asks to run every
/// millisecond and records how late each poll came.
struct LagProbe {
    due: Option<Instant>,
    lag_us: Arc<Mutex<Vec<f64>>>,
    stop: Arc<AtomicBool>,
}

impl CoopTask for LagProbe {
    fn poll(&mut self) -> Option<Instant> {
        let now = Instant::now();
        if let Some(due) = self.due {
            let lag = now.saturating_duration_since(due).as_secs_f64() * 1e6;
            self.lag_us
                .lock()
                .expect("no thread panics holding the lag samples")
                .push(lag);
        }
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let next = now + PROBE_CADENCE;
        self.due = Some(next);
        Some(next)
    }
}

/// Per-round and per-failover samples.
#[derive(Debug, Default)]
struct Rounds {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    first_stable_ms: Vec<f64>,
    failover_ms: Vec<f64>,
    events: Vec<f64>,
    writes: Vec<f64>,
    reads: Vec<f64>,
    skipped: Vec<f64>,
    shard_passes: Vec<f64>,
    steps: Vec<f64>,
    fires: Vec<f64>,
    hwm_bits: Vec<f64>,
    poll_late_us: Vec<f64>,
    worker_cpu_ms: Vec<f64>,
    worker_wait_ms: Vec<f64>,
    worker_busy_share: Vec<f64>,
}

/// One round. With `probe`, the cluster also hosts a [`LagProbe`] and the
/// calls into the runtime are recorded as spans.
fn round(
    index: usize,
    m: &mut Measured,
    rounds: &mut Rounds,
    probe: Option<(&mut Recorder, &Arc<Mutex<Vec<f64>>>)>,
) {
    let clock = RepClock::start();
    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let (cluster, mut rec) = match probe {
        Some((rec, lag_us)) => {
            let task = LagProbe {
                due: None,
                lag_us: Arc::clone(lag_us),
                stop: Arc::clone(&stop),
            };
            let cluster = rec.span("runtime", "Cluster::start_coop", index, |_| {
                Cluster::start_coop_with(OmegaVariant::Alg1, N, config(), |_, _| {
                    vec![Box::new(task) as Box<dyn CoopTask>]
                })
            });
            (cluster, Some(rec))
        }
        None => (Cluster::start_coop(OmegaVariant::Alg1, N, config()), None),
    };

    let mut leader = None;
    match await_stable(&cluster, &mut rounds.poll_late_us) {
        Some((first, began)) => {
            rounds
                .first_stable_ms
                .push(began.duration_since(t0).as_secs_f64() * 1e3);
            leader = Some(first);
        }
        None => m.problem(format!("round {index}: no first stable leader within 20 s")),
    }
    for crash in 0..CRASHES {
        let Some(crashed) = leader else { break };
        let at = Instant::now();
        cluster.crash(crashed);
        leader = match await_stable(&cluster, &mut rounds.poll_late_us) {
            Some((next, began)) if next != crashed && cluster.correct().contains(next) => {
                rounds
                    .failover_ms
                    .push(began.duration_since(at).as_secs_f64() * 1e3);
                m.check(None);
                Some(next)
            }
            Some((next, _)) => {
                m.check(Some(format!(
                    "round {index} crash {crash}: successor {next} of {crashed} is not a live other node"
                )));
                None
            }
            None => {
                m.check(Some(format!(
                    "round {index} crash {crash}: no successor of {crashed} within 20 s"
                )));
                None
            }
        };
    }

    let stats = cluster.space().stats();
    let scan = cluster.scan_stats();
    rounds.events.push(cluster.events_total() as f64);
    rounds.writes.push(stats.total_writes() as f64);
    rounds.reads.push(stats.total_reads() as f64);
    rounds.skipped.push(scan.reads_skipped as f64);
    rounds.shard_passes.push(scan.shard_passes as f64);
    rounds
        .steps
        .push(cluster.steps().iter().sum::<u64>() as f64);
    rounds
        .fires
        .push(cluster.timer_fires().iter().sum::<u64>() as f64);
    rounds
        .hwm_bits
        .push(cluster.space().footprint().total_hwm_bits() as f64);
    if rec.is_some() {
        // Worker threads vanish from /proc at shutdown: read them first.
        let (on_cpu_ns, wait_ns) = host::thread_sched_ns("coop-worker-");
        let alive_ms = t0.elapsed().as_secs_f64() * 1e3;
        rounds.worker_cpu_ms.push(on_cpu_ns as f64 / 1e6);
        rounds.worker_wait_ms.push(wait_ns as f64 / 1e6);
        rounds
            .worker_busy_share
            .push(on_cpu_ns as f64 / 1e6 / (alive_ms * workers() as f64));
    }
    stop.store(true, Ordering::Relaxed);
    match rec.as_mut() {
        Some(rec) => rec.span("runtime", "Cluster::shutdown", index, |_| {
            cluster.shutdown()
        }),
        None => cluster.shutdown(),
    }
    let (wall_ms, cpu_ms) = clock.stop();
    rounds.wall_ms.push(wall_ms);
    rounds.cpu_ms.push(cpu_ms);
}

/// Runs the workload.
pub fn run(ctx: &Ctx, recorder: &mut Recorder) -> Measured {
    let mut m = Measured::default();
    let mut setup = Setup::start(|| {
        Cluster::start_coop(OmegaVariant::Alg1, N, config()).shutdown();
    });
    // The traced pass splits a shorter section between plain and probed
    // rounds and leaves the rest to the unit costs.
    let plain = if ctx.trace {
        ctx.traced_pairs(24, 12)
    } else {
        ctx.reps(24, 12)
    };
    m.counts.push(("rounds", plain));
    m.counts.push(("workers", workers()));
    let mut rounds = Rounds::default();
    let mut probed = Rounds::default();
    let lag_us = Arc::new(Mutex::new(Vec::new()));

    let section = RepClock::start();
    for index in 0..plain {
        setup.sample();
        round(index, &mut m, &mut rounds, None);
        if ctx.trace {
            round(index, &mut m, &mut probed, Some((recorder, &lag_us)));
        }
    }
    let (wall_s, cpu_s) = end_section(&mut m, &section);
    setup.finish(&mut m);

    // A round is a sum of timer waits, and it comes in two modes that last
    // until its cluster shuts down: ≈ 360 ms with ≈ 11 ms failovers, or
    // ≈ 480 ms with ≈ 18 ms ones. How many rounds of a run go slow drifts
    // with the host's timer jitter, 5 of 19 to 19 of 19 — so the best rep
    // and every quantile jump between the modes, and only the mean moves
    // smoothly with the mix.
    record_rep_clocks(&mut m, stats::mean, &rounds.wall_ms, &rounds.cpu_ms);
    let tick_ms = config().node.tick.as_secs_f64() * 1e3;
    if rounds.failover_ms.is_empty() || rounds.first_stable_ms.is_empty() {
        m.problem("no failover completed".into());
        return m;
    }
    m.series.push(("failover_ms", rounds.failover_ms.clone()));
    // Same for the failovers themselves: ≈ 11 ms in a fast round, ≈ 18 ms
    // in a slow one, so the median reads 14.5 or 18.4 ms on two runs of
    // one seed. The mean is what a user waits on average.
    let mean = stats::mean(&rounds.failover_ms);
    m.set_from("latency_ticks", mean / tick_ms, &rounds.failover_ms);
    m.set_from("runtime.failover_ms_mean", mean, &rounds.failover_ms);
    m.set_from(
        "runtime.failover_ms_p50",
        stats::median(&rounds.failover_ms),
        &rounds.failover_ms,
    );
    // p95 leaves 19 of a full run's 304+ samples beyond it; a short run
    // reports the highest percentile that still leaves ten.
    let tail = stats::tail_percentile(rounds.failover_ms.len()).map_or(50, |p| p.min(95));
    m.set(
        "runtime.failover_ms_p95",
        stats::percentile(&rounds.failover_ms, tail),
    );
    m.counts
        .push(("failover_samples", rounds.failover_ms.len()));
    m.counts.push(("failover_tail_percentile", tail as usize));
    m.set_from(
        "runtime.first_stable_ms",
        stats::median(&rounds.first_stable_ms),
        &rounds.first_stable_ms,
    );
    m.set("runtime.cpu_core_share", cpu_s / wall_s);
    m.set_mean("shared_writes", &rounds.writes);
    m.set_mean("runtime.events", &rounds.events);
    let events: f64 = rounds.events.iter().chain(&probed.events).sum();
    m.set("runtime.cpu_us_per_event", cpu_s * 1e6 / events.max(1.0));
    m.set_mean("registers.shared_reads", &rounds.reads);
    m.set_mean("registers.reads_skipped", &rounds.skipped);
    record_skip_ratio(&mut m);
    m.set_mean("registers.shard_passes", &rounds.shard_passes);
    m.set_mean("registers.hwm_bits", &rounds.hwm_bits);
    m.set_mean("core.steps", &rounds.steps);
    m.set_mean("core.timer_fires", &rounds.fires);
    let late: Vec<f64> = [&rounds.poll_late_us[..], &probed.poll_late_us[..]].concat();
    m.set("harness.poll_late_us_p99", stats::quantile(&late, 0.99));

    if ctx.trace {
        let (plain, probed_best) = (m.get("run_wall_ms"), stats::best(&probed.wall_ms));
        m.set(
            "harness.trace_overhead_share",
            (probed_best - plain) / plain,
        );
        m.set_best(
            "runtime.start_ms",
            &recorder.durations_ms("Cluster::start_coop"),
        );
        m.set_best(
            "runtime.shutdown_ms",
            &recorder.durations_ms("Cluster::shutdown"),
        );
        m.set_mean("runtime.worker_busy_share", &probed.worker_busy_share);
        m.set_mean("runtime.worker_runq_wait_ms", &probed.worker_wait_ms);
        m.set_mean("runtime.busy_ms", &probed.worker_cpu_ms);
        let lag = lag_us
            .lock()
            .expect("no thread panics holding the lag samples");
        if !lag.is_empty() {
            m.set("runtime.wheel_lag_us_p50", stats::median(&lag));
            m.set("runtime.wheel_lag_us_p99", stats::quantile(&lag, 0.99));
        }
        drop(lag);
        let stand_in = Scenario::fault_free(OmegaVariant::Alg1, N);
        for (name, cost) in unit_costs::measure(N, ctx.seed, &stand_in) {
            m.set(name, cost);
        }
        // What the workers' CPU went to, by count × unit cost: T2 steps,
        // T3 passes and one wheel push + pop per event.
        let ms = busy_ms;
        let core = ms(m.get("core.steps"), m.get("core.leader_quiescent_ns"))
            + ms(
                m.get("core.timer_fires"),
                m.get("core.t3_scan_quiescent_ns"),
            );
        m.set("core.busy_ms", core);
        m.set(
            "registers.busy_ms",
            ms(
                m.get("registers.shared_reads"),
                m.get("registers.nat_read_ns"),
            ) + ms(m.get("shared_writes"), m.get("registers.nat_write_ns")),
        );
        let wheel = ms(m.get("runtime.events"), m.get("runtime.deadline_queue_ns"));
        let busy = m.get("runtime.busy_ms");
        if busy > 0.0 {
            m.set("harness.unattributed_share", 1.0 - (core + wheel) / busy);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_probe_measures_lateness_against_its_own_deadline() {
        let lag_us = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut probe = LagProbe {
            due: None,
            lag_us: Arc::clone(&lag_us),
            stop: Arc::clone(&stop),
        };
        let due = probe.poll().expect("keeps running");
        assert!(
            lag_us.lock().unwrap().is_empty(),
            "first poll has no deadline"
        );
        std::thread::sleep(
            due.saturating_duration_since(Instant::now()) + Duration::from_millis(2),
        );
        probe.poll();
        let lag = lag_us.lock().unwrap()[0];
        assert!((2_000.0..50_000.0).contains(&lag), "lag {lag} µs");
        stop.store(true, Ordering::Relaxed);
        assert!(probe.poll().is_none(), "retires once stopped");
    }

    #[test]
    fn one_probed_round_fails_over_sixteen_times() {
        let mut m = Measured::default();
        let mut rounds = Rounds::default();
        let mut rec = Recorder::default();
        let lag_us = Arc::new(Mutex::new(Vec::new()));
        round(0, &mut m, &mut rounds, Some((&mut rec, &lag_us)));
        assert_eq!((m.attempted, m.failed), (16, 0), "{:?}", m.problems);
        assert_eq!(rounds.failover_ms.len(), CRASHES);
        assert_eq!(rounds.first_stable_ms.len(), 1);
        assert!(rounds.worker_cpu_ms[0] > 0.0);
        assert!(
            lag_us.lock().unwrap().len() > 10,
            "the probe ran on the wheel"
        );
        assert_eq!(rec.spans().len(), 2);
    }
}
