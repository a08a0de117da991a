//! What every workload shares: the run's parameters, the set-up and timed
//! section estimators, and the bag of observed values a run ends with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use omega_sim::rng::SmallRng;

use crate::host;
use crate::stats;

/// Smoke mode divides every horizon (and the ticks pinned inside it) by
/// this, so the harness can be exercised in seconds.
const SMOKE_DIVISOR: u64 = 20;

/// Rep counts are stated for a 15 s timed section (ISSUE 11) and scaled
/// by `--seconds / 15`.
const NOMINAL_SECONDS: f64 = 15.0;

/// Parameters of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// `--seed`: every input is derived from it.
    pub seed: u64,
    /// `--seconds`: the timed section's target length.
    pub seconds: f64,
    /// `--trace 1`: the per-layer pass.
    pub trace: bool,
    /// `--smoke`: 2 reps, horizons ÷ 20; numbers nobody may quote.
    pub smoke: bool,
}

impl Ctx {
    /// Reps for a workload that runs `nominal` reps in 15 s, never below
    /// `floor` (2 in smoke mode). A function of `--seconds` alone, so two
    /// runs of one seed average over identical inputs.
    #[must_use]
    pub fn reps(&self, nominal: usize, floor: usize) -> usize {
        if self.smoke {
            return 2;
        }
        let scaled = (nominal as f64 * self.seconds / NOMINAL_SECONDS).round() as usize;
        scaled.max(floor)
    }

    /// Plain/traced pairs of the layer pass: a third of the reps (one pair
    /// in smoke mode), which leaves the rest of the section to unit costs.
    #[must_use]
    pub fn traced_pairs(&self, nominal: usize, floor: usize) -> usize {
        if self.smoke {
            1
        } else {
            (self.reps(nominal, floor) / 3).max(2)
        }
    }

    /// The input seed of rep `rep`: every rep runs a different input, so
    /// simulated metrics are means over seeds instead of one trajectory.
    #[must_use]
    pub fn sub_seed(&self, rep: usize) -> u64 {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(rep as u64))
            .next_u64()
    }

    /// A tick count of the full-size workload, shrunk in smoke mode.
    #[must_use]
    pub fn ticks(&self, full: u64) -> u64 {
        if self.smoke {
            full / SMOKE_DIVISOR
        } else {
            full
        }
    }
}

/// One observed value, with the rep quartiles behind it when it has reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// `(q1, q3)` over reps; `None` for exact and one-shot values.
    pub spread: Option<(f64, f64)>,
}

/// Everything a workload observed in one run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (checked reps; crashes injected on coop).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Rep counts by kind (`reps`, `rounds`, `setup_reps`, …) for the run
    /// header.
    pub counts: Vec<(&'static str, usize)>,
    /// Observed values by metric name.
    pub values: BTreeMap<String, Value>,
    /// Raw per-rep samples worth keeping in the result file (rep walls,
    /// failover times), so a noisy run can be told from a slow program.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Names recorded through [`set_exact`](Self::set_exact): two runs of
    /// one seed must agree on them to the bit.
    pub exact: Vec<String>,
}

impl Measured {
    /// Records an exact or one-shot value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            Value {
                value,
                spread: None,
            },
        );
    }

    /// Records a value estimated from `samples`, keeping their quartiles.
    pub fn set_from(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.values.insert(
            name.to_string(),
            Value {
                value,
                spread: Some(stats::quartiles(samples)),
            },
        );
    }

    /// Records a host-time metric: the best rep.
    pub fn set_best(&mut self, name: &str, samples: &[f64]) {
        self.set_from(name, stats::best(samples), samples);
    }

    /// Records a measured count: the mean over reps.
    pub fn set_mean(&mut self, name: &str, samples: &[f64]) {
        self.set_from(name, stats::mean(samples), samples);
    }

    /// Records a simulated metric: the mean over reps, and the promise
    /// that it is a pure function of `--seed` and `--seconds`.
    pub fn set_exact(&mut self, name: &str, samples: &[f64]) {
        self.set_mean(name, samples);
        self.exact.push(name.to_string());
    }

    /// Counts one attempted operation; a `problem` marks it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// A failed check that is not an operation of its own (a determinism
    /// or replay check after the timed section).
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// The value recorded under `name`, or 0.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }
}

/// `setup_s`: the best time of `construct` — a first batch of ~0.2 s
/// (5 to 400 constructions: they range from 10 µs to 45 ms, and the cheap
/// ones need the tries), then one more before every rep, so the samples
/// span the run instead of its first half second. Best, not median, for
/// the reason every host-time metric here is; even so two runs of one
/// seed read 1.0 vs 1.4 ms while all samples sat in one burst.
pub struct Setup<F: FnMut()> {
    construct: F,
    samples: Vec<f64>,
}

impl<F: FnMut()> Setup<F> {
    /// Takes the first batch.
    pub fn start(mut construct: F) -> Self {
        construct(); // first call pays lazy initialisation; users pay it once
        let mut setup = Setup {
            construct,
            samples: Vec::new(),
        };
        let budget = Instant::now();
        while (budget.elapsed() < Duration::from_millis(200) || setup.samples.len() < 5)
            && setup.samples.len() < 400
        {
            setup.sample();
        }
        setup
    }

    /// Times one more construction (outside any rep's clocks).
    pub fn sample(&mut self) {
        let t = Instant::now();
        (self.construct)();
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Records `setup_s`.
    pub fn finish(self, measured: &mut Measured) {
        measured.set_best("setup_s", &self.samples);
        measured.counts.push(("setup_reps", self.samples.len()));
    }
}

/// Wall and process CPU of one rep, or of the whole timed section.
#[derive(Debug)]
pub struct RepClock {
    wall: Instant,
    cpu_s: f64,
}

impl RepClock {
    /// Starts both clocks.
    #[must_use]
    pub fn start() -> RepClock {
        RepClock {
            cpu_s: host::process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall_ms, cpu_ms)` since `start`.
    #[must_use]
    pub fn stop(&self) -> (f64, f64) {
        let wall_ms = self.wall.elapsed().as_secs_f64() * 1e3;
        (wall_ms, (host::process_cpu_s() - self.cpu_s) * 1e3)
    }
}

/// Ends the timed section `section` clocked: records `peak_rss_mb` and
/// the section's own length; returns `(wall_s, cpu_s)`.
pub fn end_section(measured: &mut Measured, section: &RepClock) -> (f64, f64) {
    let (wall_ms, cpu_ms) = section.stop();
    measured.set("peak_rss_mb", host::peak_rss_mb());
    measured.set("harness.timed_section_s", wall_ms / 1e3);
    (wall_ms / 1e3, cpu_ms / 1e3)
}

/// Estimated busy time in ms of `count` operations at `unit_ns` each —
/// the layer-attribution rule until spans exist inside the program.
#[must_use]
pub fn busy_ms(count: f64, unit_ns: f64) -> f64 {
    count * unit_ns / 1e6
}

/// Per-rep time outside the simulator's event loop (`wall − loop`):
/// records `scenario.outside_loop_ms` (best rep) and its share of `wall`.
pub fn record_outside_loop(measured: &mut Measured, walls_ms: &[f64], loops_ms: &[f64]) {
    let outside: Vec<f64> = walls_ms
        .iter()
        .zip(loops_ms)
        .map(|(wall, inside)| (wall - inside).max(0.0))
        .collect();
    measured.set_best("scenario.outside_loop_ms", &outside);
    let wall = stats::best(walls_ms);
    if wall > 0.0 {
        let share = measured.get("scenario.outside_loop_ms") / wall;
        measured.set("scenario.outside_loop_share", share);
    }
}

/// Records `registers.skip_ratio` from the two counts already recorded.
pub fn record_skip_ratio(measured: &mut Measured) {
    let reads = measured.get("registers.shared_reads");
    let skipped = measured.get("registers.reads_skipped");
    if reads + skipped > 0.0 {
        measured.set("registers.skip_ratio", skipped / (reads + skipped));
    }
}

/// Records the rep-clock family: `run_wall_ms` and `rep_cpu_ms` by
/// `estimator` — [`stats::best`] where a rep is deterministic work,
/// [`stats::median`] where it is a sum of timer waits — and the harness
/// diagnostics beside them.
pub fn record_rep_clocks(
    measured: &mut Measured,
    estimator: fn(&[f64]) -> f64,
    walls_ms: &[f64],
    cpus_ms: &[f64],
) {
    measured.series.push(("rep_wall_ms", walls_ms.to_vec()));
    measured.series.push(("rep_cpu_ms", cpus_ms.to_vec()));
    measured.set_from("run_wall_ms", estimator(walls_ms), walls_ms);
    measured.set_from("rep_cpu_ms", estimator(cpus_ms), cpus_ms);
    measured.set_from("harness.rep_wall_ms_p50", stats::median(walls_ms), walls_ms);
    measured.set("harness.rep_wall_iqr_share", stats::iqr_share(walls_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seconds: f64, smoke: bool) -> Ctx {
        Ctx {
            seed: 11,
            seconds,
            trace: false,
            smoke,
        }
    }

    #[test]
    fn reps_scale_with_seconds_and_respect_floors() {
        assert_eq!(ctx(15.0, false).reps(40, 10), 40);
        assert_eq!(ctx(12.0, false).reps(40, 10), 32);
        assert_eq!(ctx(12.0, false).reps(14, 10), 11);
        assert_eq!(ctx(3.0, false).reps(14, 10), 10);
        assert_eq!(ctx(12.0, true).reps(40, 10), 2);
        assert_eq!(ctx(12.0, false).traced_pairs(40, 10), 10);
        assert_eq!(ctx(12.0, false).traced_pairs(6, 4), 2);
        assert_eq!(ctx(12.0, true).traced_pairs(40, 10), 1);
        assert_eq!(ctx(12.0, true).ticks(2_000_000), 100_000);
        assert_eq!(ctx(12.0, false).ticks(2_000_000), 2_000_000);
    }

    #[test]
    fn sub_seeds_are_distinct_and_reproducible() {
        let a = ctx(12.0, false);
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|r| a.sub_seed(r)).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(a.sub_seed(3), ctx(1.0, true).sub_seed(3));
        let b = Ctx { seed: 12, ..a };
        assert_ne!(a.sub_seed(0), b.sub_seed(0));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut m = Measured::default();
        m.check(None);
        m.check(Some("rep 1: no leader".into()));
        m.problem("replay fingerprint differs".into());
        assert_eq!((m.attempted, m.failed), (2, 1));
        assert_eq!(m.problems.len(), 2);
    }

    #[test]
    fn setup_and_rep_walls_record_value_and_quartiles() {
        let mut m = Measured::default();
        let mut setup = Setup::start(|| {
            std::hint::black_box(vec![0u8; 1 << 12]);
        });
        setup.sample();
        setup.finish(&mut m);
        let setup = m.values["setup_s"];
        assert!(setup.value > 0.0);
        let (q1, q3) = setup.spread.unwrap();
        assert!(
            setup.value <= q1 && q1 <= q3,
            "the best rep is below the quartiles"
        );
        record_rep_clocks(
            &mut m,
            stats::best,
            &[10.0, 30.0, 11.0, 12.0, 13.0],
            &[9.0, 9.5, 8.0, 9.0, 9.0],
        );
        assert_eq!(m.get("run_wall_ms"), 10.0);
        assert_eq!(m.get("rep_cpu_ms"), 8.0);
        assert_eq!(m.get("harness.rep_wall_ms_p50"), 12.0);
        assert_eq!(m.get("missing"), 0.0);
    }
}
