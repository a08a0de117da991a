//! Run metrics: leader timelines, stabilization detection, windowed stats.
//!
//! The Eventual Leadership property is a statement about an infinite suffix
//! of the run: *there is a time after which every `leader()` invocation
//! returns the same correct identity*. A finite experiment can only witness
//! it, so the harness samples every process's leader estimate on a fixed
//! cadence and [`LeaderTimeline::stabilization`] reports the suffix over
//! which all correct processes agreed on one correct leader.

use omega_registers::{ProcessId, ProcessSet, StatsSnapshot};

use crate::time::SimTime;

/// One sampling point: every process's current leader estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// Estimate of each process, indexed by process. `None` for actors
    /// without an estimate yet and for crashed processes.
    pub leaders: Vec<Option<ProcessId>>,
    /// Cumulative main-task steps of each process at sampling time. Empty
    /// when the producer does not track steps (e.g. hand-built timelines);
    /// consumers needing activity (the fuzz safety oracle asks whether a
    /// self-believed leader is still *stepping*) must treat empty as
    /// unknown.
    pub steps: Vec<u64>,
}

/// The stabilized suffix of a run, if one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationReport {
    /// The leader every correct process settled on.
    pub leader: ProcessId,
    /// Time of the first sample of the agreeing suffix.
    pub stable_from: SimTime,
    /// Number of consecutive samples in the agreeing suffix.
    pub stable_samples: usize,
}

/// Sampled leader estimates over a whole run.
#[derive(Debug, Clone, Default)]
pub struct LeaderTimeline {
    samples: Vec<TimelineSample>,
}

impl LeaderTimeline {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        LeaderTimeline::default()
    }

    /// Reserves room for exactly `additional` more samples.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.samples.reserve_exact(additional);
    }

    /// Appends a sample without step counts.
    pub fn push(&mut self, time: SimTime, leaders: Vec<Option<ProcessId>>) {
        self.samples.push(TimelineSample {
            time,
            leaders,
            steps: Vec::new(),
        });
    }

    /// Appends a sample carrying cumulative per-process step counts.
    pub fn push_with_steps(
        &mut self,
        time: SimTime,
        leaders: Vec<Option<ProcessId>>,
        steps: Vec<u64>,
    ) {
        self.samples.push(TimelineSample {
            time,
            leaders,
            steps,
        });
    }

    /// All samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[TimelineSample] {
        &self.samples
    }

    /// Whether a sample shows all `correct` processes agreeing on `leader`.
    fn agrees(sample: &TimelineSample, correct: &ProcessSet, leader: ProcessId) -> bool {
        correct
            .iter()
            .all(|p| sample.leaders.get(p.index()).copied().flatten() == Some(leader))
    }

    /// Detects the stabilized suffix: the maximal run of trailing samples in
    /// which every process in `correct` reports the same leader, and that
    /// leader is itself in `correct`.
    ///
    /// Returns `None` if the final sample already shows disagreement, a
    /// missing estimate, or a crashed leader.
    #[must_use]
    pub fn stabilization(&self, correct: &ProcessSet) -> Option<StabilizationReport> {
        let last = self.samples.last()?;
        let mut estimates = correct
            .iter()
            .map(|p| last.leaders.get(p.index()).copied().flatten());
        let leader = estimates.next().flatten()?;
        if !estimates.all(|e| e == Some(leader)) || !correct.contains(leader) {
            return None;
        }
        let suffix_start = self
            .samples
            .iter()
            .rposition(|s| !Self::agrees(s, correct, leader))
            .map_or(0, |i| i + 1);
        let stable_samples = self.samples.len() - suffix_start;
        Some(StabilizationReport {
            leader,
            stable_from: self.samples[suffix_start].time,
            stable_samples,
        })
    }

    /// Number of times `pid`'s estimate changed between consecutive samples.
    #[must_use]
    pub fn changes_of(&self, pid: ProcessId) -> usize {
        self.samples
            .windows(2)
            .filter(|w| {
                w[0].leaders.get(pid.index()).copied().flatten()
                    != w[1].leaders.get(pid.index()).copied().flatten()
            })
            .count()
    }

    /// The estimate most recently sampled for `pid`.
    #[must_use]
    pub fn last_estimate_of(&self, pid: ProcessId) -> Option<ProcessId> {
        self.samples
            .last()
            .and_then(|s| s.leaders.get(pid.index()).copied().flatten())
    }
}

/// One reporting window with the access statistics accumulated inside it.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Accesses performed inside the window.
    pub stats: StatsSnapshot,
}

impl Window {
    /// Processes that wrote shared memory during this window.
    #[must_use]
    pub fn writer_set(&self) -> ProcessSet {
        self.stats.writer_set()
    }
}

/// Cumulative statistics snapshots taken on the checkpoint cadence,
/// sliceable into per-window deltas.
#[derive(Debug, Clone, Default)]
pub struct WindowedStats {
    snapshots: Vec<(SimTime, StatsSnapshot)>,
}

impl WindowedStats {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        WindowedStats::default()
    }

    /// Appends a cumulative snapshot taken at `time`.
    pub fn push(&mut self, time: SimTime, snapshot: StatsSnapshot) {
        self.snapshots.push((time, snapshot));
    }

    /// Raw cumulative snapshots.
    #[must_use]
    pub fn snapshots(&self) -> &[(SimTime, StatsSnapshot)] {
        &self.snapshots
    }

    /// Splits the run into `buckets` equal windows of snapshots and returns
    /// the per-window access deltas.
    ///
    /// Returns an empty vector if fewer than two snapshots were taken.
    #[must_use]
    pub fn windows(&self, buckets: usize) -> Vec<Window> {
        if self.snapshots.len() < 2 || buckets == 0 {
            return Vec::new();
        }
        let span = self.snapshots.len() - 1;
        let per = span.div_ceil(buckets).max(1);
        let mut out = Vec::new();
        let mut i = 0;
        while i < span {
            let j = (i + per).min(span);
            let (start, ref base) = self.snapshots[i];
            let (end, ref late) = self.snapshots[j];
            out.push(Window {
                start,
                end,
                stats: late.delta_since(base),
            });
            i = j;
        }
        out
    }

    /// The delta over the trailing `fraction` of the run (e.g. `0.25` for
    /// the final quarter) — the "post-stabilization" view used by the
    /// write-optimality experiments.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn tail(&self, fraction: f64) -> Option<Window> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        if self.snapshots.len() < 2 {
            return None;
        }
        let last = self.snapshots.len() - 1;
        let from = ((last as f64) * (1.0 - fraction)).floor() as usize;
        let (start, ref base) = self.snapshots[from];
        let (end, ref late) = self.snapshots[last];
        Some(Window {
            start,
            end,
            stats: late.delta_since(base),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_ticks(v)
    }

    #[test]
    fn empty_timeline_has_no_stabilization() {
        let tl = LeaderTimeline::new();
        assert!(tl.stabilization(&ProcessSet::full(2)).is_none());
    }

    #[test]
    fn stabilization_detects_agreeing_suffix() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), vec![Some(p(0)), Some(p(1))]); // disagreement
        tl.push(t(10), vec![Some(p(1)), Some(p(1))]);
        tl.push(t(20), vec![Some(p(1)), Some(p(1))]);
        let report = tl.stabilization(&ProcessSet::full(2)).unwrap();
        assert_eq!(report.leader, p(1));
        assert_eq!(report.stable_from, t(10));
        assert_eq!(report.stable_samples, 2);
    }

    #[test]
    fn stabilization_requires_correct_leader() {
        let mut tl = LeaderTimeline::new();
        // Both correct processes trust p2, but p2 crashed (not in correct).
        tl.push(t(0), vec![Some(p(2)), Some(p(2)), None]);
        let mut correct = ProcessSet::full(3);
        correct.remove(p(2));
        assert!(tl.stabilization(&correct).is_none());
    }

    #[test]
    fn stabilization_ignores_crashed_estimates() {
        let mut tl = LeaderTimeline::new();
        // p2 crashed (None); correct = {p0, p1} agree on p0.
        tl.push(t(0), vec![Some(p(0)), Some(p(0)), None]);
        let mut correct = ProcessSet::full(3);
        correct.remove(p(2));
        let report = tl.stabilization(&correct).unwrap();
        assert_eq!(report.leader, p(0));
        assert_eq!(report.stable_samples, 1);
    }

    #[test]
    fn missing_estimate_blocks_stabilization() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), vec![Some(p(0)), None]);
        assert!(tl.stabilization(&ProcessSet::full(2)).is_none());
    }

    #[test]
    fn changes_and_last_estimate() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), vec![Some(p(0))]);
        tl.push(t(1), vec![Some(p(1))]);
        tl.push(t(2), vec![Some(p(1))]);
        tl.push(t(3), vec![None]);
        assert_eq!(tl.changes_of(p(0)), 2);
        assert_eq!(tl.last_estimate_of(p(0)), None);
        assert_eq!(tl.samples().len(), 4);
    }

    #[test]
    fn windowed_stats_slices_deltas() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let reg = space.nat_register("R", p(0), 0);
        let mut ws = WindowedStats::new();
        ws.push(t(0), space.stats());
        reg.write(p(0), 1);
        ws.push(t(10), space.stats());
        reg.write(p(0), 2);
        reg.write(p(0), 3);
        ws.push(t(20), space.stats());

        let windows = ws.windows(2);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].stats.total_writes(), 1);
        assert_eq!(windows[1].stats.total_writes(), 2);
        assert_eq!(windows[0].start, t(0));
        assert_eq!(windows[1].end, t(20));
        assert_eq!(windows[1].writer_set().len(), 1);

        let tail = ws.tail(0.5).unwrap();
        assert_eq!(tail.stats.total_writes(), 2);
        assert_eq!(ws.snapshots().len(), 3);
    }

    #[test]
    fn windowed_stats_handles_tiny_series() {
        let ws = WindowedStats::new();
        assert!(ws.windows(4).is_empty());
        assert!(ws.tail(0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0,1]")]
    fn tail_rejects_bad_fraction() {
        let _ = WindowedStats::new().tail(0.0);
    }
}
