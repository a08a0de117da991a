//! The backend-agnostic result of running a scenario.

use omega_core::OmegaVariant;
use omega_registers::{ProcessId, ProcessSet};
use omega_sim::chaos::ChaosStats;
use omega_sim::metrics::TimelineSample;

use crate::record::Writer;

/// Shared-memory activity over the trailing window of a run — the
/// "post-stabilization" view the paper's write-optimality results are
/// stated over (Theorems 3, 4, 7).
#[derive(Debug, Clone)]
pub struct TailActivity {
    /// Processes that wrote shared memory during the window.
    pub writers: ProcessSet,
    /// Processes that read shared memory during the window.
    pub readers: ProcessSet,
    /// Distinct registers written during the window.
    pub written_registers: usize,
    /// Writes per 1000 ticks of window span.
    pub writes_per_1k: f64,
    /// Window span in ticks.
    pub span_ticks: u64,
}

/// Block-level footprint of a run on a disk-backed (SAN) substrate: the
/// accounting the paper's "registers as disk blocks" deployment adds on
/// top of the ordinary register statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanFootprint {
    /// Blocks the layout mapper allocated (one per register).
    pub blocks_mapped: u64,
    /// Distinct blocks actually read or written during the run.
    pub blocks_touched: u64,
    /// Total block accesses served by the disk (reads + writes).
    pub block_accesses: u64,
    /// Total simulated disk service time, in milliseconds.
    pub service_time_ms: f64,
}

/// What a chaos campaign did to one run, plus how fast the election
/// recovered from it.
///
/// On the simulator every field is deterministic and replay-witnessed via
/// [`Outcome::fingerprint`]; wall-clock drivers fill the phase counters
/// from the spec (injection there is wall-timed, so tick accounting is
/// advisory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOutcome {
    /// Partitions installed.
    pub partitions: u32,
    /// Total ticks some partition was active.
    pub partition_ticks: u64,
    /// Total ticks some latency storm was active.
    pub storm_ticks: u64,
    /// Processes crashed by waves.
    pub wave_crashes: u32,
    /// Processes resurrected by waves (simulator only).
    pub wave_recoveries: u32,
    /// Ticks from the last partition heal to stabilization — the bounded
    /// re-election window the chaos suite gates on. `None` when nothing
    /// healed, the run never stabilized, or it stabilized before the heal.
    pub heal_to_stable_ticks: Option<u64>,
}

impl ChaosOutcome {
    /// The outcome of a run whose campaign accounting is `stats` (the
    /// simulator's measured tally, or a wall-clock driver's
    /// [`planned_stats`](omega_sim::chaos::Campaign::planned_stats)) and
    /// which stabilized at tick `stable_from`, if it did.
    #[must_use]
    pub fn new(stats: ChaosStats, stable_from: Option<u64>) -> Self {
        ChaosOutcome {
            partitions: stats.partitions,
            partition_ticks: stats.partition_ticks,
            storm_ticks: stats.storm_ticks,
            wave_crashes: stats.wave_crashes,
            wave_recoveries: stats.wave_recoveries,
            heal_to_stable_ticks: match (stats.last_heal_at, stable_from) {
                (Some(heal), Some(stable)) if stable >= heal => Some(stable - heal),
                _ => None,
            },
        }
    }
}

/// Evidence that a hostile window produced **non-election** — the other
/// half of the Ω contract: when the spec breaks AWB, no process may hold
/// self-leadership stably; the algorithm must keep demoting.
///
/// Computed from the sampled leader timeline over the campaign's
/// disruption window. A process "stably self-leads" only while it keeps
/// electing itself **and keeps taking steps** — a stalled process frozen
/// on a stale self-estimate is not a stable leader (nobody else follows
/// it, and it isn't executing), exactly the claimant rule the split-brain
/// oracle uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonElectionWitness {
    /// First tick of the hostile window.
    pub window_from: u64,
    /// Last tick of the hostile window.
    pub window_until: u64,
    /// Times a self-leading process lost its self-estimate between
    /// consecutive samples — the demotion churn AWB-violation must show.
    pub demotions: u64,
    /// Longest run of ticks any one process stayed actively self-leading.
    pub max_stable_streak_ticks: u64,
    /// Ticks of self-leadership held *beyond* the allowance, summed over
    /// every streak — 0 means no process was ever stably self-leading.
    pub false_stable_ticks: u64,
}

impl NonElectionWitness {
    /// A self-leading streak longer than `window / DENOM` counts as false
    /// stability: transient reigns while counters leapfrog are expected,
    /// holding a third of the hostile window is an election.
    pub const ALLOWANCE_DENOM: u64 = 3;

    /// The longest self-leading streak this witness's window tolerates.
    #[must_use]
    pub fn allowance(&self) -> u64 {
        (self.window_until.saturating_sub(self.window_from)) / Self::ALLOWANCE_DENOM
    }

    /// Scans the sampled timeline over `[window_from, window_until]` and
    /// builds the witness.
    ///
    /// A streak extends across an inter-sample interval only when the
    /// process self-leads at both ends **and** stepped in between; an
    /// interval without steps breaks the streak without counting as a
    /// demotion (a frozen claimant was not demoted — it just stopped).
    #[must_use]
    pub fn from_timeline(
        window_from: u64,
        window_until: u64,
        samples: &[TimelineSample],
    ) -> NonElectionWitness {
        let mut witness = NonElectionWitness {
            window_from,
            window_until,
            demotions: 0,
            max_stable_streak_ticks: 0,
            false_stable_ticks: 0,
        };
        let allowance = witness.allowance();
        let in_window: Vec<&TimelineSample> = samples
            .iter()
            .filter(|s| (window_from..=window_until).contains(&s.time.ticks()))
            .collect();
        let n = in_window.iter().map(|s| s.leaders.len()).max().unwrap_or(0);
        for p in 0..n {
            let pid = ProcessId::new(p);
            let self_leads = |s: &TimelineSample| s.leaders.get(p).copied().flatten() == Some(pid);
            let steps_of = |s: &TimelineSample| s.steps.get(p).copied().unwrap_or(0);
            let mut streak_from: Option<u64> = None;
            let close = |from: &mut Option<u64>, at: u64, w: &mut NonElectionWitness| {
                if let Some(start) = from.take() {
                    let len = at - start;
                    w.max_stable_streak_ticks = w.max_stable_streak_ticks.max(len);
                    w.false_stable_ticks += len.saturating_sub(allowance);
                }
            };
            for pair in in_window.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if self_leads(a) && !self_leads(b) {
                    witness.demotions += 1;
                }
                if self_leads(a) && self_leads(b) && steps_of(b) > steps_of(a) {
                    let start = *streak_from.get_or_insert(a.time.ticks());
                    // Keep the running streak visible even if the window
                    // ends mid-reign.
                    let len = b.time.ticks() - start;
                    witness.max_stable_streak_ticks = witness.max_stable_streak_ticks.max(len);
                } else {
                    close(&mut streak_from, a.time.ticks(), &mut witness);
                }
            }
            if let Some(last) = in_window.last() {
                close(&mut streak_from, last.time.ticks(), &mut witness);
            }
        }
        witness
    }
}

/// What one [`Driver`](crate::Driver) observed running one
/// [`Scenario`](crate::Scenario).
///
/// All drivers measure through the same instrumented
/// [`MemorySpace`](omega_registers::MemorySpace) and express time in the
/// scenario's abstract ticks (virtual ticks in the simulator; wall-clock
/// divided by the driver's tick duration on threads and the SAN), so
/// outcomes from every backend are directly comparable.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which driver produced this outcome (`"sim"` / `"threads"` /
    /// `"san"`).
    pub backend: &'static str,
    /// Name of the scenario that ran.
    pub scenario: String,
    /// The Ω variant that ran.
    pub variant: OmegaVariant,
    /// Number of processes.
    pub n: usize,
    /// The leader the run stabilized on, if it did.
    pub elected: Option<ProcessId>,
    /// Whether every correct process settled on one correct leader.
    pub stabilized: bool,
    /// Tick at which the stable suffix began.
    pub stabilization_ticks: Option<u64>,
    /// The scenario horizon, for normalizing.
    pub horizon_ticks: u64,
    /// Processes that crashed during the run.
    pub crashed: ProcessSet,
    /// Processes alive at the end.
    pub correct: ProcessSet,
    /// Main-task (`T2`) steps per process.
    pub steps: Vec<u64>,
    /// How many times each process's leader estimate changed between
    /// consecutive observations (simulator samples / wall-driver polls).
    pub estimate_changes: Vec<usize>,
    /// Cumulative shared-memory reads per process.
    pub reads: Vec<u64>,
    /// Cumulative shared-memory writes per process.
    pub writes: Vec<u64>,
    /// Shared reads avoided by the epoch-validated suspicion caches (rows
    /// and counters found clean and skipped instead of re-read).
    pub reads_skipped: u64,
    /// Sharded `T3` scan passes executed across all processes.
    pub shard_passes: u64,
    /// Wall-clock milliseconds the backend spent executing the run (the
    /// simulator's event loop / the wall driver's election loop; excludes
    /// system construction and post-run tail observation).
    pub elapsed_ms: f64,
    /// Events retired per wall-clock second (simulator events; `T2` steps +
    /// `T3` expirations on threads) — the suite's throughput metric.
    pub events_per_sec: f64,
    /// Registers allocated by the variant's layout.
    pub register_count: usize,
    /// Total shared-memory high-water footprint in bits.
    pub hwm_bits: u64,
    /// Registers whose footprint still grew late in the run (empty for
    /// fully bounded variants; at most `PROGRESS[leader]` for Figure 2).
    pub grown_in_tail: Vec<String>,
    /// Activity over the trailing window, when the backend captured one.
    pub tail: Option<TailActivity>,
    /// Block-level disk footprint, when the backend ran over a SAN
    /// (`None` for in-memory backends).
    pub san: Option<SanFootprint>,
    /// Chaos-campaign accounting (`None` when the scenario has no
    /// campaign).
    pub chaos: Option<ChaosOutcome>,
    /// Non-election witness over the hostile window — only computed by
    /// the simulator for campaigns run with `expect_stabilization =
    /// false` (wall drivers never admit those).
    pub witness: Option<NonElectionWitness>,
    /// Worker-pool size of the cooperative backend's sharded wheel
    /// (`None` on every other backend — sim, threads, and SAN have no
    /// pool to size).
    pub workers: Option<usize>,
}

impl Outcome {
    /// Fraction of the horizon from stabilization to the end of the run
    /// (0.0 when the run never stabilized).
    #[must_use]
    pub fn stable_fraction(&self) -> f64 {
        match self.stabilization_ticks {
            Some(from) if self.horizon_ticks > 0 => {
                (self.horizon_ticks.saturating_sub(from)) as f64 / self.horizon_ticks as f64
            }
            _ => 0.0,
        }
    }

    /// Whether the run stabilized with at least `min_fraction` of the
    /// horizon still ahead (the "settled early enough to mean it" check).
    #[must_use]
    pub fn stabilized_for(&self, min_fraction: f64) -> bool {
        self.stabilized && self.stable_fraction() >= min_fraction
    }

    /// Whether the elected leader (if any) was alive at the end of the run.
    #[must_use]
    pub fn leader_is_correct(&self) -> bool {
        self.elected.is_some_and(|l| self.correct.contains(l))
    }

    /// Total shared-memory writes across all processes.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total shared-memory reads across all processes.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Asserts the Ω contract this scenario promised: stabilization onto a
    /// correct leader when the spec satisfies AWB.
    ///
    /// # Panics
    ///
    /// Panics with a scenario-labelled message when the contract is broken.
    pub fn assert_election(&self) {
        assert!(
            self.stabilized,
            "{} [{}]: expected stabilization, got none",
            self.scenario, self.backend
        );
        assert!(
            self.leader_is_correct(),
            "{} [{}]: elected {:?} is not a correct process ({:?})",
            self.scenario,
            self.backend,
            self.elected,
            self.correct
        );
    }

    /// A canonical rendering of every *deterministic* field — the
    /// byte-identity witness of trace replay.
    ///
    /// Two runs of the same spec (live, traced, or replayed from a trace
    /// file) must produce equal fingerprints; wall-clock measurements
    /// (`elapsed_ms`, `events_per_sec`) are excluded because no two real
    /// executions share a clock.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{}|{}|{}|{:?}|{}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}",
            self.scenario,
            self.variant,
            self.n,
            self.elected,
            self.stabilized,
            self.stabilization_ticks,
            self.horizon_ticks,
            self.crashed,
            self.correct,
            self.steps,
            self.estimate_changes,
            self.reads,
            self.writes,
            self.reads_skipped,
            self.shard_passes,
            self.register_count,
            self.hwm_bits,
            self.grown_in_tail,
        );
        if let Some(tail) = &self.tail {
            let _ = write!(
                out,
                "|tail:{:?}/{:?}/{}/{}/{}",
                tail.writers,
                tail.readers,
                tail.written_registers,
                tail.writes_per_1k,
                tail.span_ticks
            );
        }
        if let Some(san) = &self.san {
            let _ = write!(out, "|san:{san:?}");
        }
        if let Some(chaos) = &self.chaos {
            let _ = write!(out, "|chaos:{chaos:?}");
        }
        if let Some(witness) = &self.witness {
            let _ = write!(out, "|witness:{witness:?}");
        }
        out
    }

    /// The flat one-line JSON record of the `scenarios` suite artifacts
    /// (see [`record`](crate::record)). The coop pool, the SAN footprint,
    /// the chaos accounting and the non-election witness appear only when
    /// the outcome has them, so a sim record without them never moves.
    #[must_use]
    pub fn json_record(&self) -> String {
        let mut w = Writer::default();
        w.str("scenario", &self.scenario)
            .str("backend", self.backend)
            .str("variant", self.variant.name())
            .raw("n", self.n)
            .raw("stabilized", self.stabilized);
        if let Some(workers) = self.workers {
            w.raw("workers", workers);
        }
        w.opt("stabilization_ticks", self.stabilization_ticks)
            .raw("horizon_ticks", self.horizon_ticks)
            .raw("crashed", self.crashed.len())
            .raw("total_writes", self.total_writes())
            .raw("total_reads", self.total_reads())
            .raw("reads_skipped", self.reads_skipped)
            .raw("shard_passes", self.shard_passes)
            .raw("hwm_bits", self.hwm_bits)
            .raw("register_count", self.register_count)
            .raw("elapsed_ms", format_args!("{:.2}", self.elapsed_ms))
            .raw("events_per_sec", format_args!("{:.0}", self.events_per_sec));
        if let Some(san) = &self.san {
            w.raw("san_blocks_mapped", san.blocks_mapped)
                .raw("san_blocks_touched", san.blocks_touched)
                .raw("san_block_accesses", san.block_accesses)
                .raw("san_service_ms", format_args!("{:.2}", san.service_time_ms));
        }
        if let Some(chaos) = &self.chaos {
            w.raw("partitions", chaos.partitions)
                .raw("partition_ticks", chaos.partition_ticks)
                .raw("storm_ticks", chaos.storm_ticks)
                .raw("wave_crashes", chaos.wave_crashes)
                .raw("wave_recoveries", chaos.wave_recoveries)
                .opt("heal_to_stable_ticks", chaos.heal_to_stable_ticks);
        }
        if let Some(wit) = &self.witness {
            let streak = wit.max_stable_streak_ticks;
            w.raw("witness_window_from", wit.window_from)
                .raw("witness_window_until", wit.window_until)
                .raw("witness_demotions", wit.demotions)
                .raw("witness_max_stable_streak_ticks", streak)
                .raw("witness_false_stable_ticks", wit.false_stable_ticks);
        }
        let tail = self.tail.as_ref();
        let per_1k = tail.map(|t| format!("{:.2}", t.writes_per_1k));
        w.opt("tail_writers", tail.map(|t| t.writers.len()))
            .opt("tail_writes_per_1k", per_1k);
        w.finish()
    }

    /// A one-screen human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario   : {}  [{}]", self.scenario, self.backend);
        let _ = writeln!(
            out,
            "system     : {} n={}  ({} registers)",
            self.variant, self.n, self.register_count
        );
        match (self.elected, self.stabilization_ticks) {
            (Some(leader), Some(from)) => {
                let _ = writeln!(
                    out,
                    "election   : {leader} stable from tick {from} ({:.0}% of horizon remained)",
                    self.stable_fraction() * 100.0
                );
            }
            _ => {
                let _ = writeln!(out, "election   : DID NOT STABILIZE");
            }
        }
        let _ = writeln!(
            out,
            "crashed    : {:?}  correct: {:?}",
            self.crashed, self.correct
        );
        let _ = writeln!(
            out,
            "memory     : {} writes / {} reads, hwm {} bits",
            self.total_writes(),
            self.total_reads(),
            self.hwm_bits
        );
        let _ = writeln!(
            out,
            "wall clock : {:.1} ms ({:.0} events/sec)",
            self.elapsed_ms, self.events_per_sec
        );
        if self.reads_skipped > 0 || self.shard_passes > 0 {
            let _ = writeln!(
                out,
                "scan       : {} reads skipped, {} shard passes",
                self.reads_skipped, self.shard_passes
            );
        }
        if let Some(tail) = &self.tail {
            let writers: Vec<String> = tail.writers.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(
                out,
                "tail       : writers [{}] into {} register(s), {:.1} writes/1k ticks",
                writers.join(","),
                tail.written_registers,
                tail.writes_per_1k
            );
        }
        if let Some(san) = &self.san {
            let _ = writeln!(
                out,
                "san        : {}/{} blocks touched, {} accesses, {:.1} ms service time",
                san.blocks_touched, san.blocks_mapped, san.block_accesses, san.service_time_ms
            );
        }
        if let Some(chaos) = &self.chaos {
            let heal = match chaos.heal_to_stable_ticks {
                Some(t) => format!("{t} ticks heal→stable"),
                None => "no post-heal stabilization".to_string(),
            };
            let _ = writeln!(
                out,
                "chaos      : {} partition(s) over {} ticks, {} storm ticks, {}+{} wave crashes/recoveries, {heal}",
                chaos.partitions,
                chaos.partition_ticks,
                chaos.storm_ticks,
                chaos.wave_crashes,
                chaos.wave_recoveries
            );
        }
        if let Some(w) = &self.witness {
            let _ = writeln!(
                out,
                "non-elect  : {} demotions, max streak {} ticks (allowance {}), {} false-stable ticks over {}..{}",
                w.demotions,
                w.max_stable_streak_ticks,
                w.allowance(),
                w.false_stable_ticks,
                w.window_from,
                w.window_until
            );
        }
        if !self.grown_in_tail.is_empty() {
            let _ = writeln!(out, "unbounded  : {}", self.grown_in_tail.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_sim::SimTime;

    fn sample(at: u64, leaders: &[Option<usize>], steps: &[u64]) -> TimelineSample {
        TimelineSample {
            time: SimTime::from_ticks(at),
            leaders: leaders.iter().map(|l| l.map(ProcessId::new)).collect(),
            steps: steps.to_vec(),
        }
    }

    #[test]
    fn witness_flags_a_stable_self_leader() {
        // p0 leads itself, stepping, across the whole 0..=900 window.
        let samples: Vec<TimelineSample> = (0..10)
            .map(|i| sample(i * 100, &[Some(0), Some(0)], &[i + 1, i + 1]))
            .collect();
        let w = NonElectionWitness::from_timeline(0, 900, &samples);
        assert_eq!(w.max_stable_streak_ticks, 900);
        assert_eq!(w.allowance(), 300);
        assert_eq!(w.false_stable_ticks, 600, "reign beyond the allowance");
        assert_eq!(w.demotions, 0);
    }

    #[test]
    fn witness_accepts_churning_leadership() {
        // Self-leadership alternates between p0 and p1 every sample: all
        // churn, no streak longer than one interval.
        let samples: Vec<TimelineSample> = (0..10)
            .map(|i| {
                let boss = (i % 2) as usize;
                sample(i * 100, &[Some(boss), Some(boss)], &[i + 1, i + 1])
            })
            .collect();
        let w = NonElectionWitness::from_timeline(0, 900, &samples);
        assert_eq!(w.false_stable_ticks, 0);
        assert_eq!(w.max_stable_streak_ticks, 0, "no two adjacent self-leads");
        assert_eq!(
            w.demotions, 9,
            "every flip demotes the previous self-leader"
        );
    }

    #[test]
    fn witness_ignores_frozen_claimants() {
        // p0 claims itself the whole window but its step counter never
        // moves: a stalled process on a stale estimate is not a stable
        // leader.
        let samples: Vec<TimelineSample> = (0..10)
            .map(|i| sample(i * 100, &[Some(0), Some(0)], &[5, i + 1]))
            .collect();
        let w = NonElectionWitness::from_timeline(0, 900, &samples);
        assert_eq!(w.false_stable_ticks, 0);
        assert_eq!(w.max_stable_streak_ticks, 0);
        assert_eq!(w.demotions, 0, "it was never demoted, it just froze");
    }

    #[test]
    fn witness_clips_to_the_window() {
        // A long reign outside the window is invisible; inside it only
        // 200..=400 qualifies.
        let samples: Vec<TimelineSample> = (0..10)
            .map(|i| sample(i * 100, &[Some(0)], &[i + 1]))
            .collect();
        let w = NonElectionWitness::from_timeline(200, 400, &samples);
        assert_eq!(w.max_stable_streak_ticks, 200);
        assert_eq!(w.allowance(), 66);
        assert_eq!(w.false_stable_ticks, 134);
    }
}
