//! Run metrics: leader timelines, stabilization detection, windowed stats.
//!
//! The Eventual Leadership property is a statement about an infinite suffix
//! of the run: *there is a time after which every `leader()` invocation
//! returns the same correct identity*. A finite experiment can only witness
//! it, so the harness samples every process's leader estimate on a fixed
//! cadence and [`LeaderTimeline::stabilization`] reports the suffix over
//! which all correct processes agreed on one correct leader.

use omega_registers::{
    FootprintReport, MemorySpace, Overwritten, ProcessId, ProcessSet, StatsSnapshot,
};

use crate::time::SimTime;

/// One sampling point: every process's leader estimate at `time`, the
/// estimate row in force at that sample and its step counts, borrowed
/// from the [`LeaderTimeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSample<'a> {
    /// When the sample was taken.
    pub time: SimTime,
    /// Estimate of each process, indexed by process. `None` for actors
    /// without an estimate yet and for crashed processes.
    pub leaders: &'a [Option<ProcessId>],
    /// Cumulative main-task steps of each process at sampling time. Empty
    /// when the producer does not track steps (e.g. hand-built timelines);
    /// consumers needing activity (the fuzz safety oracle asks whether a
    /// self-believed leader is still *stepping*) must treat empty as
    /// unknown.
    pub steps: &'a [u64],
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

/// Sampled leader estimates over a whole run, kept as what changed. An
/// n-wide estimate row is stored only at the samples where some estimate
/// changed, each with the sample it starts at, and the sample times as
/// cadence runs — a first sample, its time and a step. Only the
/// cumulative step counts keep an n-wide row per sample (empty when the
/// producer does not track steps); the harness sizes that column once,
/// from the sampling cadence, before the run starts. A run whose
/// estimates settle therefore costs its step counts and a few rows.
///
/// [`samples`](Self::samples) hands out every sample as a borrowed
/// [`TimelineSample`], its `leaders` the row in force at that sample.
#[derive(Debug, Clone, Default)]
pub struct LeaderTimeline {
    /// Processes per row; fixed by the first sample.
    width: usize,
    /// Samples pushed.
    len: usize,
    /// The sample times, as cadence runs in sample order.
    times: Vec<Cadence>,
    /// The sample each stored estimate row starts at: 0, then every sample
    /// whose row differs from the one before.
    starts: Vec<usize>,
    /// The stored estimate rows, `width` entries each, one per `starts`.
    leaders: Vec<Option<ProcessId>>,
    /// `width` cumulative step counts per sample, or none at all.
    steps: Vec<u64>,
}

/// A run of samples taken `step` ticks apart: sample `first + k` was
/// taken at `at + k·step`, up to the next run's `first`.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    first: usize,
    at: SimTime,
    step: u64,
}

impl Cadence {
    /// The time of this run's `k`-th sample, if it fits in a tick count.
    fn time(&self, k: usize) -> Option<SimTime> {
        let offset = self.step.checked_mul(u64::try_from(k).ok()?)?;
        self.at.ticks().checked_add(offset).map(SimTime::from_ticks)
    }
}

/// Where sample `i` finds its stored row and its cadence run.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    row: usize,
    run: usize,
}

impl Cursor {
    /// The cursor of sample `i`, found by binary search.
    fn at(timeline: &LeaderTimeline, i: usize) -> Cursor {
        let (starts, times) = (&timeline.starts, &timeline.times);
        Cursor {
            row: starts.partition_point(|&s| s <= i).saturating_sub(1),
            run: times.partition_point(|r| r.first <= i).saturating_sub(1),
        }
    }

    /// Moves a cursor of a sample before `i` forward to `i`.
    fn forward(&mut self, timeline: &LeaderTimeline, i: usize) {
        let (starts, times) = (&timeline.starts, &timeline.times);
        while starts.get(self.row + 1).is_some_and(|&s| s <= i) {
            self.row += 1;
        }
        while times.get(self.run + 1).is_some_and(|r| r.first <= i) {
            self.run += 1;
        }
    }

    /// Moves a cursor of a sample after `i` back to `i`.
    fn back(&mut self, timeline: &LeaderTimeline, i: usize) {
        let (starts, times) = (&timeline.starts, &timeline.times);
        while starts[self.row] > i {
            self.row -= 1;
        }
        while times[self.run].first > i {
            self.run -= 1;
        }
    }
}

impl LeaderTimeline {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        LeaderTimeline::default()
    }

    /// Sizes the step counts for `samples` more rows of `width` processes,
    /// when the allocator grants that much up front; a run too long for it
    /// grows the column as it samples instead.
    pub(crate) fn reserve(&mut self, width: usize, samples: usize) {
        let _ = self.steps.try_reserve_exact(samples.saturating_mul(width));
    }

    /// Appends a sample without step counts.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the first sample's, or if
    /// earlier samples carried step counts.
    pub fn push(&mut self, time: SimTime, leaders: &[Option<ProcessId>]) {
        assert!(
            self.steps.is_empty(),
            "a timeline tracks steps on every sample or on none"
        );
        self.push_row(time, leaders);
    }

    /// Appends a sample carrying cumulative per-process step counts.
    ///
    /// # Panics
    ///
    /// Panics if either row's width differs from the first sample's, or if
    /// earlier samples carried no step counts.
    pub fn push_with_steps(&mut self, time: SimTime, leaders: &[Option<ProcessId>], steps: &[u64]) {
        assert_eq!(
            self.steps.len(),
            self.len * self.width,
            "a timeline tracks steps on every sample or on none"
        );
        self.push_row(time, leaders);
        assert_eq!(steps.len(), self.width, "one step count per process");
        self.steps.extend_from_slice(steps);
    }

    fn push_row(&mut self, time: SimTime, leaders: &[Option<ProcessId>]) {
        if self.len == 0 {
            self.width = leaders.len();
        }
        assert_eq!(
            leaders.len(),
            self.width,
            "every sample is as wide as the first"
        );
        let i = self.len;
        let continues = self
            .times
            .last_mut()
            .is_some_and(|run| match i - run.first {
                // A run's second sample sets its step.
                1 if time >= run.at => {
                    run.step = time - run.at;
                    true
                }
                k => run.time(k) == Some(time),
            });
        if !continues {
            self.times.push(Cadence {
                first: i,
                at: time,
                step: 0,
            });
        }
        if self.starts.is_empty() || self.leaders[self.leaders.len() - self.width..] != *leaders {
            self.starts.push(i);
            self.leaders.extend_from_slice(leaders);
        }
        self.len += 1;
    }

    /// All samples in time order.
    #[must_use]
    pub fn samples(&self) -> Samples<'_> {
        Samples {
            timeline: self,
            start: 0,
            end: self.len,
        }
    }

    /// Sample `i`, whose stored row and cadence run `at` points to.
    fn sample(&self, i: usize, at: Cursor) -> TimelineSample<'_> {
        let run = &self.times[at.run];
        let steps = i * self.width..(i + 1) * self.width;
        TimelineSample {
            time: run.time(i - run.first).expect("a pushed time"),
            leaders: self.row(at.row),
            steps: self.steps.get(steps).unwrap_or(&[]),
        }
    }

    /// Stored row `r`.
    fn row(&self, r: usize) -> &[Option<ProcessId>] {
        &self.leaders[r * self.width..(r + 1) * self.width]
    }

    /// `pid`'s estimate in stored row `r`; `None` past the row's width too.
    fn estimate(&self, r: usize, pid: ProcessId) -> Option<ProcessId> {
        self.row(r).get(pid.index()).copied().flatten()
    }

    /// Whether stored row `r` shows all `correct` processes agreeing on
    /// `leader`.
    fn agrees(&self, r: usize, correct: &ProcessSet, leader: ProcessId) -> bool {
        correct.iter().all(|p| self.estimate(r, p) == Some(leader))
    }

    /// Detects the stabilized suffix: the maximal run of trailing samples in
    /// which every process in `correct` reports the same leader, and that
    /// leader is itself in `correct`. It walks the stored rows, not the
    /// samples.
    ///
    /// Returns `None` if the final sample already shows disagreement, a
    /// missing estimate, or a crashed leader.
    #[must_use]
    pub fn stabilization(&self, correct: &ProcessSet) -> Option<StabilizationReport> {
        let last = self.starts.len().checked_sub(1)?;
        let mut estimates = correct.iter().map(|p| self.estimate(last, p));
        let leader = estimates.next().flatten()?;
        if !estimates.all(|e| e == Some(leader)) || !correct.contains(leader) {
            return None;
        }
        let suffix_start = (0..last)
            .rev()
            .find(|&r| !self.agrees(r, correct, leader))
            .map_or(0, |r| self.starts[r + 1]);
        Some(StabilizationReport {
            leader,
            stable_from: self.samples().get(suffix_start).expect("a sample").time,
            stable_samples: self.len - suffix_start,
        })
    }

    /// Number of times `pid`'s estimate changed between consecutive samples:
    /// between consecutive stored rows.
    #[must_use]
    pub fn changes_of(&self, pid: ProcessId) -> usize {
        if pid.index() >= self.width {
            return 0;
        }
        let column = || self.leaders.iter().skip(pid.index()).step_by(self.width);
        column()
            .zip(column().skip(1))
            .filter(|(before, after)| before != after)
            .count()
    }

    /// The estimate most recently sampled for `pid`.
    #[must_use]
    pub fn last_estimate_of(&self, pid: ProcessId) -> Option<ProcessId> {
        let last = self.starts.len().checked_sub(1)?;
        self.estimate(last, pid)
    }
}

/// A contiguous run of a [`LeaderTimeline`]'s samples, each handed out as
/// a borrowed [`TimelineSample`]: what [`LeaderTimeline::samples`]
/// returns, and what [`slice`](Self::slice) narrows.
#[derive(Clone, Copy)]
pub struct Samples<'a> {
    timeline: &'a LeaderTimeline,
    start: usize,
    end: usize,
}

impl<'a> Samples<'a> {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Sample `i` of this run, if there is one: the timeline's indexing
    /// (a sample is built on demand, its row found by binary search, so
    /// there is no `[i]`).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<TimelineSample<'a>> {
        let i = self.start + i;
        (i < self.end).then(|| self.timeline.sample(i, Cursor::at(self.timeline, i)))
    }

    /// The first sample.
    #[must_use]
    pub fn first(&self) -> Option<TimelineSample<'a>> {
        self.get(0)
    }

    /// The last sample.
    #[must_use]
    pub fn last(&self) -> Option<TimelineSample<'a>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The samples in time order.
    #[must_use]
    pub fn iter(&self) -> SampleIter<'a> {
        let timeline = self.timeline;
        SampleIter {
            timeline,
            rows: self.start..self.end,
            front: Cursor::at(timeline, self.start),
            back: Cursor::at(timeline, self.end.saturating_sub(1)),
        }
    }

    /// The samples at positions `range` of this run.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or reaches past the end.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Samples<'a> {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "samples {range:?} out of 0..{}",
            self.len()
        );
        Samples {
            timeline: self.timeline,
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl<'a> IntoIterator for Samples<'a> {
    type Item = TimelineSample<'a>;
    type IntoIter = SampleIter<'a>;

    fn into_iter(self) -> SampleIter<'a> {
        self.iter()
    }
}

/// Iterator over the samples of [`Samples`], in time order. Each end
/// carries a cursor to its sample's stored row and cadence run, so a step
/// in either direction costs O(1).
#[derive(Debug, Clone)]
pub struct SampleIter<'a> {
    timeline: &'a LeaderTimeline,
    rows: std::ops::Range<usize>,
    front: Cursor,
    back: Cursor,
}

impl<'a> Iterator for SampleIter<'a> {
    type Item = TimelineSample<'a>;

    fn next(&mut self) -> Option<TimelineSample<'a>> {
        let i = self.rows.next()?;
        self.front.forward(self.timeline, i);
        Some(self.timeline.sample(i, self.front))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl DoubleEndedIterator for SampleIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let i = self.rows.next_back()?;
        self.back.back(self.timeline, i);
        Some(self.timeline.sample(i, self.back))
    }
}

impl ExactSizeIterator for SampleIter<'_> {}

impl PartialEq for Samples<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Samples<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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

/// The cumulative statistics and footprint checkpoints of a run, taken on
/// the checkpoint cadence and sliceable into per-window deltas.
///
/// The newest checkpoint is kept dense and each earlier one as the cells
/// the next one overwrote ([`Overwritten`]), so a checkpoint of a
/// quiescent window costs what moved, not a copy of every counter and
/// footprint. Reading an earlier checkpoint rebuilds it from the newest,
/// walking back through the entries after it.
#[derive(Debug, Clone, Default)]
pub struct WindowedStats {
    /// The newest checkpoint: its time, statistics and footprint.
    newest: Option<(SimTime, StatsSnapshot, FootprintReport)>,
    /// Each earlier checkpoint, oldest first: its time, and its cells the
    /// next checkpoint overwrote.
    earlier: Vec<(SimTime, Overwritten)>,
}

impl WindowedStats {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        WindowedStats::default()
    }

    /// Checkpoints `space`'s statistics and footprint at `time`: the first
    /// checkpoint is dense copies, each later one refreshes the newest in
    /// place and keeps what it overwrote.
    ///
    /// # Panics
    ///
    /// Panics if an earlier checkpoint was taken of another space.
    pub fn take(&mut self, time: SimTime, space: &MemorySpace) {
        match &mut self.newest {
            None => self.newest = Some((time, space.stats(), space.footprint())),
            Some((at, stats, footprint)) => {
                let overwritten = space.checkpoint(stats, footprint);
                self.earlier
                    .push((std::mem::replace(at, time), overwritten));
            }
        }
    }

    /// Number of checkpoints taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.earlier.len() + usize::from(self.newest.is_some())
    }

    /// Whether no checkpoint was taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// The newest checkpoint, borrowed: its time, statistics and footprint.
    #[must_use]
    pub fn last(&self) -> Option<(SimTime, &StatsSnapshot, &FootprintReport)> {
        (self.newest.as_ref()).map(|(at, stats, footprint)| (*at, stats, footprint))
    }

    /// Time of checkpoint `index`, if taken.
    #[must_use]
    pub fn time_at(&self, index: usize) -> Option<SimTime> {
        match self.earlier.get(index) {
            Some(&(at, _)) => Some(at),
            None => self
                .last()
                .filter(|_| index == self.earlier.len())
                .map(|(at, ..)| at),
        }
    }

    /// The statistics of checkpoint `index`, rebuilt from the newest.
    #[must_use]
    pub fn stats_at(&self, index: usize) -> Option<StatsSnapshot> {
        let (_, newest, _) = self.last().filter(|_| index < self.len())?;
        let mut stats = newest.clone();
        self.rewind_stats(&mut stats, self.len() - 1, index);
        Some(stats)
    }

    /// The footprint of checkpoint `index`, rebuilt from the newest.
    #[must_use]
    pub fn footprint_at(&self, index: usize) -> Option<FootprintReport> {
        let (.., newest) = self.last().filter(|_| index < self.len())?;
        let mut footprint = newest.clone();
        for (_, overwritten) in self.earlier[index..].iter().rev() {
            overwritten.restore_footprint(&mut footprint);
        }
        Some(footprint)
    }

    /// Every checkpoint in order, each one's statistics and footprint
    /// rebuilt from the newest as it is reached.
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = (SimTime, StatsSnapshot, FootprintReport)> + '_ {
        (0..self.len()).map(|index| {
            let at = self.time_at(index).expect("taken");
            let stats = self.stats_at(index).expect("taken");
            (at, stats, self.footprint_at(index).expect("taken"))
        })
    }

    /// Turns `stats`, the statistics of checkpoint `from`, into those of
    /// the earlier checkpoint `to`.
    fn rewind_stats(&self, stats: &mut StatsSnapshot, from: usize, to: usize) {
        for (_, overwritten) in self.earlier[to..from].iter().rev() {
            overwritten.restore_stats(stats);
        }
    }

    /// Splits the run into `buckets` equal windows of checkpoints and
    /// returns the per-window access deltas.
    ///
    /// Returns an empty vector if fewer than two checkpoints were taken.
    #[must_use]
    pub fn windows(&self, buckets: usize) -> Vec<Window> {
        let Some((_, newest, _)) = self.last().filter(|_| self.len() >= 2 && buckets > 0) else {
            return Vec::new();
        };
        let span = self.len() - 1;
        let per = span.div_ceil(buckets).max(1);
        // The windows' bounds are 0, per, 2·per, … and span: walked from
        // the newest back, each start a rewind of the window's end.
        let mut out = Vec::with_capacity(span.div_ceil(per));
        let (mut late, mut base) = (newest.clone(), newest.clone());
        let mut end = span;
        while end > 0 {
            let start = (end - 1) / per * per;
            self.rewind_stats(&mut base, end, start);
            out.push(Window {
                start: self.time_at(start).expect("taken"),
                end: self.time_at(end).expect("taken"),
                stats: late.delta_since(&base),
            });
            late.clone_from(&base);
            end = start;
        }
        out.reverse();
        out
    }

    /// The delta over the trailing `fraction` of the run (e.g. `0.25` for
    /// the final quarter) — the "post-stabilization" view used by the
    /// write-optimality experiments. It starts at checkpoint
    /// ⌊(len − 1)·(1 − `fraction`)⌋ and ends at the newest.
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
        let (end, late, _) = self.last().filter(|_| self.len() >= 2)?;
        let from = ((self.len() - 1) as f64 * (1.0 - fraction)).floor() as usize;
        Some(Window {
            start: self.time_at(from).expect("taken"),
            end,
            stats: late.delta_since(&self.stats_at(from).expect("taken")),
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
        tl.push(t(0), &[Some(p(0)), Some(p(1))]); // disagreement
        tl.push(t(10), &[Some(p(1)), Some(p(1))]);
        tl.push(t(20), &[Some(p(1)), Some(p(1))]);
        let report = tl.stabilization(&ProcessSet::full(2)).unwrap();
        assert_eq!(report.leader, p(1));
        assert_eq!(report.stable_from, t(10));
        assert_eq!(report.stable_samples, 2);
    }

    #[test]
    fn stabilization_requires_correct_leader() {
        let mut tl = LeaderTimeline::new();
        // Both correct processes trust p2, but p2 crashed (not in correct).
        tl.push(t(0), &[Some(p(2)), Some(p(2)), None]);
        let mut correct = ProcessSet::full(3);
        correct.remove(p(2));
        assert!(tl.stabilization(&correct).is_none());
    }

    #[test]
    fn stabilization_ignores_crashed_estimates() {
        let mut tl = LeaderTimeline::new();
        // p2 crashed (None); correct = {p0, p1} agree on p0.
        tl.push(t(0), &[Some(p(0)), Some(p(0)), None]);
        let mut correct = ProcessSet::full(3);
        correct.remove(p(2));
        let report = tl.stabilization(&correct).unwrap();
        assert_eq!(report.leader, p(0));
        assert_eq!(report.stable_samples, 1);
    }

    #[test]
    fn missing_estimate_blocks_stabilization() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), &[Some(p(0)), None]);
        assert!(tl.stabilization(&ProcessSet::full(2)).is_none());
    }

    #[test]
    fn changes_and_last_estimate() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), &[Some(p(0))]);
        tl.push(t(1), &[Some(p(1))]);
        tl.push(t(2), &[Some(p(1))]);
        tl.push(t(3), &[None]);
        assert_eq!(tl.changes_of(p(0)), 2);
        assert_eq!(tl.last_estimate_of(p(0)), None);
        assert_eq!(tl.samples().len(), 4);
    }

    #[test]
    fn rows_are_views_of_the_columns() {
        let mut tl = LeaderTimeline::new();
        tl.push_with_steps(t(0), &[None, Some(p(1))], &[0, 1]);
        tl.push_with_steps(t(5), &[Some(p(1)), Some(p(1))], &[3, 4]);
        tl.push_with_steps(t(10), &[Some(p(1)), None], &[6, 4]);
        let samples = tl.samples();
        assert_eq!(samples.len(), 3);
        let middle = samples.get(1).unwrap();
        assert_eq!(middle.time, t(5));
        assert_eq!(middle.leaders, &[Some(p(1)), Some(p(1))]);
        assert_eq!(middle.steps, &[3, 4]);
        assert!(samples.get(3).is_none());
        assert_eq!(samples.last().unwrap().steps, &[6, 4]);
        let times: Vec<u64> = samples.iter().rev().map(|s| s.time.ticks()).collect();
        assert_eq!(times, vec![10, 5, 0]);
        let tail = samples.slice(1..3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.first(), samples.get(1));
        assert_eq!(tail.slice(1..2).first().unwrap().time, t(10));
        assert!(samples.slice(2..2).is_empty());
        assert_ne!(tail, samples);
        assert_eq!(tail, tl.clone().samples().slice(1..3));
        // Out-of-range processes have no estimate and never change.
        assert_eq!(tl.last_estimate_of(p(2)), None);
        assert_eq!(tl.changes_of(p(2)), 0);
        assert_eq!(tl.changes_of(p(0)), 1);
        assert_eq!(tl.changes_of(p(1)), 1);
    }

    #[test]
    fn hand_built_rows_carry_no_steps() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), &[Some(p(0)), Some(p(0))]);
        tl.push(t(1), &[Some(p(0)), Some(p(0))]);
        assert!(tl.samples().iter().all(|s| s.steps.is_empty()));
    }

    #[test]
    #[should_panic(expected = "as wide as the first")]
    fn rows_keep_the_first_width() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), &[Some(p(0)), Some(p(0))]);
        tl.push(t(1), &[Some(p(0))]);
    }

    #[test]
    #[should_panic(expected = "on every sample or on none")]
    fn steps_are_tracked_on_every_sample_or_none() {
        let mut tl = LeaderTimeline::new();
        tl.push(t(0), &[Some(p(0))]);
        tl.push_with_steps(t(1), &[Some(p(0))], &[1]);
    }

    #[test]
    fn a_reservation_the_allocator_refuses_leaves_the_steps_to_grow() {
        for samples in [usize::MAX, 1 << 40] {
            let mut tl = LeaderTimeline::new();
            tl.reserve(4, samples);
            tl.push_with_steps(t(7), &[Some(p(1)); 4], &[1, 2, 3, 4]);
            let only = tl.samples().last().unwrap();
            assert_eq!((only.time, only.steps), (t(7), &[1, 2, 3, 4][..]));
        }
    }

    /// The timeline as it was kept before it kept only what changed: a
    /// time, an estimate row and a step row per sample.
    #[derive(Default)]
    struct DenseTimeline {
        width: usize,
        times: Vec<SimTime>,
        leaders: Vec<Option<ProcessId>>,
        steps: Vec<u64>,
    }

    impl DenseTimeline {
        fn len(&self) -> usize {
            self.times.len()
        }

        fn sample(&self, i: usize) -> TimelineSample<'_> {
            let cells = i * self.width..(i + 1) * self.width;
            TimelineSample {
                time: self.times[i],
                leaders: &self.leaders[cells.clone()],
                steps: self.steps.get(cells).unwrap_or(&[]),
            }
        }

        fn samples(&self, range: std::ops::Range<usize>) -> Vec<TimelineSample<'_>> {
            range.map(|i| self.sample(i)).collect()
        }

        fn estimate(&self, i: usize, pid: ProcessId) -> Option<ProcessId> {
            self.sample(i).leaders.get(pid.index()).copied().flatten()
        }

        fn stabilization(&self, correct: &ProcessSet) -> Option<StabilizationReport> {
            let last = self.len().checked_sub(1)?;
            let mut estimates = correct.iter().map(|p| self.estimate(last, p));
            let leader = estimates.next().flatten()?;
            if !estimates.all(|e| e == Some(leader)) || !correct.contains(leader) {
                return None;
            }
            let agrees = |i| correct.iter().all(|p| self.estimate(i, p) == Some(leader));
            let suffix_start = (0..last).rev().find(|&i| !agrees(i)).map_or(0, |i| i + 1);
            Some(StabilizationReport {
                leader,
                stable_from: self.times[suffix_start],
                stable_samples: self.len() - suffix_start,
            })
        }

        fn changes_of(&self, pid: ProcessId) -> usize {
            (1..self.len())
                .filter(|&i| self.estimate(i - 1, pid) != self.estimate(i, pid))
                .count()
        }

        fn last_estimate_of(&self, pid: ProcessId) -> Option<ProcessId> {
            self.len()
                .checked_sub(1)
                .and_then(|i| self.estimate(i, pid))
        }
    }

    /// A random timeline and its dense copy: `width` processes, estimates
    /// changing at `rate` per mille of the samples, times in `cadence`'s
    /// pattern.
    fn random_timeline(
        rng: &mut crate::rng::SmallRng,
        width: usize,
        samples: usize,
        rate: u64,
        cadence: u64,
        with_steps: bool,
    ) -> (LeaderTimeline, DenseTimeline) {
        let (mut tl, mut dense) = (LeaderTimeline::new(), DenseTimeline::default());
        dense.width = width;
        let every = rng.gen_range(1..=50);
        let mut now = match cadence {
            // Near the end of the tick range: a step past it breaks the run.
            5 => u64::MAX - rng.gen_range(0..=3 * every),
            _ => rng.gen_range(0..=1_000),
        };
        let mut row = vec![None; width];
        let mut steps = vec![0; width];
        for i in 0..samples {
            if i > 0 {
                now = match cadence {
                    // Keeps one cadence.
                    0 | 5 => now.saturating_add(every),
                    // Breaks it now and then.
                    1 if rng.gen_range(0..=9) == 0 => now + rng.gen_range(0..=3 * every),
                    1 => now + every,
                    // Repeats a tick now and then.
                    2 if rng.gen_range(0..=2) == 0 => now,
                    2 => now + every,
                    // Any tick, earlier ones too.
                    3 => rng.gen_range(0..=4 * every),
                    // Never a cadence for long.
                    _ => now + rng.gen_range(1..=every),
                };
            }
            if rng.gen_range(1..=1_000) <= rate {
                let j = rng.gen_range(0..=width as u64 - 1) as usize;
                let was = row[j];
                while row[j] == was {
                    row[j] = match rng.gen_range(0..=width as u64) as usize {
                        0 => None,
                        q => Some(p(q - 1)),
                    };
                }
            }
            (steps.iter_mut()).for_each(|s| *s += rng.gen_range(0..=2));
            dense.times.push(t(now));
            dense.leaders.extend_from_slice(&row);
            if with_steps {
                tl.push_with_steps(t(now), &row, &steps);
                dense.steps.extend_from_slice(&steps);
            } else {
                tl.push(t(now), &row);
            }
        }
        (tl, dense)
    }

    /// Every read of `samples` against the dense samples `rows`.
    fn reads_as(samples: Samples<'_>, rows: &[TimelineSample<'_>], rng: &mut crate::rng::SmallRng) {
        assert_eq!(samples.len(), rows.len());
        assert_eq!(samples.is_empty(), rows.is_empty());
        for i in 0..=rows.len() {
            assert_eq!(samples.get(i).as_ref(), rows.get(i), "sample {i}");
        }
        assert_eq!(samples.first().as_ref(), rows.first());
        assert_eq!(samples.last().as_ref(), rows.last());
        assert!(samples.iter().eq(rows.iter().copied()));
        assert!(samples.iter().rev().eq(rows.iter().rev().copied()));
        assert_eq!(format!("{samples:?}"), format!("{rows:?}"));
        // Both ends at once, in a random order.
        let (mut iter, mut front, mut back) = (samples.iter(), 0, rows.len());
        while front < back {
            assert_eq!(iter.len(), back - front);
            if rng.gen_range(0..=1) == 0 {
                assert_eq!(iter.next().as_ref(), rows.get(front));
                front += 1;
            } else {
                back -= 1;
                assert_eq!(iter.next_back().as_ref(), rows.get(back));
            }
        }
        assert_eq!((iter.next(), iter.next_back()), (None, None));
    }

    #[test]
    fn compact_timeline_reads_as_the_dense_one() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(52);
        let mut case = 0;
        for width in 1..=9 {
            for with_steps in [false, true] {
                for rate in [0, 10, 300, 1_000] {
                    for cadence in 0..=5 {
                        case += 1;
                        let samples = match rng.gen_range(0..=3) {
                            0 => rng.gen_range(0..=1) as usize,
                            _ => rng.gen_range(2..=120) as usize,
                        };
                        let (tl, dense) =
                            random_timeline(&mut rng, width, samples, rate, cadence, with_steps);
                        let all = dense.samples(0..samples);
                        reads_as(tl.samples(), &all, &mut rng);
                        for _ in 0..8 {
                            let a = rng.gen_range(0..=samples as u64) as usize;
                            let b = rng.gen_range(a as u64..=samples as u64) as usize;
                            let slice = tl.samples().slice(a..b);
                            reads_as(slice, &all[a..b], &mut rng);
                            let c = rng.gen_range(0..=(b - a) as u64) as usize;
                            let d = rng.gen_range(c as u64..=(b - a) as u64) as usize;
                            reads_as(slice.slice(c..d), &all[a + c..a + d], &mut rng);
                            let (e, f) = (a + rng.gen_range(0..=1) as usize, b);
                            let other = tl.samples().slice(e.min(f)..f);
                            assert_eq!(
                                slice == other,
                                all[a..b] == all[e.min(f)..f],
                                "case {case}: {a}..{b} == {e}..{f}"
                            );
                        }
                        for pid in ProcessId::all(width + 1) {
                            assert_eq!(tl.changes_of(pid), dense.changes_of(pid), "case {case}");
                            assert_eq!(
                                tl.last_estimate_of(pid),
                                dense.last_estimate_of(pid),
                                "case {case}"
                            );
                        }
                        for _ in 0..8 {
                            let mut correct = ProcessSet::new(width + 1);
                            for pid in ProcessId::all(width + 1) {
                                if rng.gen_range(0..=3) > 0 {
                                    correct.insert(pid);
                                }
                            }
                            assert_eq!(
                                tl.stabilization(&correct),
                                dense.stabilization(&correct),
                                "case {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn windowed_stats_slices_deltas() {
        use omega_registers::MemorySpace;
        let space = MemorySpace::new(2);
        let reg = space.nat_register("R", p(0), 0);
        let mut ws = WindowedStats::new();
        ws.take(t(0), &space);
        reg.write(p(0), 1);
        ws.take(t(10), &space);
        reg.write(p(0), 2);
        reg.write(p(0), 3);
        ws.take(t(20), &space);

        let windows = ws.windows(2);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].stats.total_writes(), 1);
        assert_eq!(windows[1].stats.total_writes(), 2);
        assert_eq!(windows[0].start, t(0));
        assert_eq!(windows[1].end, t(20));
        assert_eq!(windows[1].writer_set().len(), 1);

        let tail = ws.tail(0.5).unwrap();
        assert_eq!(tail.stats.total_writes(), 2);
        assert_eq!(ws.len(), 3);
    }

    /// The series as it was kept before checkpoints were compact: a dense
    /// statistics snapshot and footprint per checkpoint.
    type Dense = Vec<(SimTime, StatsSnapshot, FootprintReport)>;

    /// `windows` over dense checkpoints.
    fn dense_windows(dense: &Dense, buckets: usize) -> Vec<(SimTime, SimTime, StatsSnapshot)> {
        if dense.len() < 2 || buckets == 0 {
            return Vec::new();
        }
        let span = dense.len() - 1;
        let per = span.div_ceil(buckets).max(1);
        let (mut out, mut i) = (Vec::new(), 0);
        while i < span {
            let j = (i + per).min(span);
            out.push((dense[i].0, dense[j].0, dense[j].1.delta_since(&dense[i].1)));
            i = j;
        }
        out
    }

    /// `tail` over dense checkpoints.
    fn dense_tail(dense: &Dense, fraction: f64) -> Option<(SimTime, SimTime, StatsSnapshot)> {
        let last = dense.len().checked_sub(1).filter(|&last| last > 0)?;
        let from = ((last as f64) * (1.0 - fraction)).floor() as usize;
        Some((
            dense[from].0,
            dense[last].0,
            dense[last].1.delta_since(&dense[from].1),
        ))
    }

    fn parts(window: Window) -> (SimTime, SimTime, StatsSnapshot) {
        (window.start, window.end, window.stats)
    }

    #[test]
    fn compact_series_reads_as_the_dense_one() {
        use crate::rng::SmallRng;
        use omega_registers::MemorySpace;
        let mut rng = SmallRng::seed_from_u64(41);
        for case in 0..24_u64 {
            let n = [1, 4, 9][case as usize % 3];
            let space = MemorySpace::new(n);
            let mut nat = vec![space.nat_array("A", |_| 0)];
            let mut shared = vec![space.nat_mwmr_array("W", 3, |_| 0)];
            let text = space.mwmr::<String>("TEXT", String::new());
            let (mut series, mut dense) = (WindowedStats::new(), Dense::new());
            let k = rng.gen_range(0..=12) as usize;
            for step in 0..k {
                let any = |rng: &mut SmallRng| p(rng.gen_range(0..=n as u64 - 1) as usize);
                match rng.gen_range(0..=3) {
                    // Nothing moves.
                    0 => {}
                    // Everything moves.
                    1 => {
                        for q in ProcessId::all(n) {
                            for a in &nat {
                                a.read_range_into(q, 0..n, &mut vec![0; n]);
                                a.get(q).write(q, rng.next_u64());
                            }
                            for w in &shared {
                                w.read_range_into(q, 0..3, &mut [0; 3]);
                                (0..3).for_each(|slot| w.get(slot).write(q, rng.next_u64()));
                            }
                            text.write(q, "x".repeat(rng.gen_range(0..=60) as usize));
                        }
                    }
                    _ => {
                        let q = any(&mut rng);
                        nat[0].get(q).write(q, rng.gen_range(0..=1 << 20));
                        shared[0].get(1).write(q, 1);
                        drop(text.read(any(&mut rng)));
                    }
                }
                // Banks created between checkpoints.
                match rng.gen_range(0..=5) {
                    0 => nat.push(space.nat_array(&format!("B{step}"), |_| 1)),
                    1 => shared.push(space.nat_mwmr_array(&format!("V{step}"), 3, |_| 0)),
                    _ => {}
                }
                let at = t(10 * step as u64);
                series.take(at, &space);
                dense.push((at, space.stats(), space.footprint()));
            }
            assert_eq!(series.len(), dense.len(), "case {case}");
            assert_eq!(series.iter().len(), dense.len(), "case {case}");
            for (index, (at, stats, footprint)) in series.iter().enumerate() {
                let (then, dense_stats, dense_footprint) = &dense[index];
                assert_eq!(at, *then, "case {case}: checkpoint {index}");
                assert_eq!(&stats, dense_stats, "case {case}: checkpoint {index}");
                assert_eq!(
                    &footprint, dense_footprint,
                    "case {case}: checkpoint {index}"
                );
            }
            assert_eq!(series.stats_at(k), None);
            assert_eq!(series.footprint_at(k), None);
            assert_eq!(series.time_at(k), None);
            let newest = series.last().map(|(at, s, f)| (at, s.clone(), f.clone()));
            assert_eq!(newest, dense.last().cloned(), "case {case}");
            for buckets in 0..=k {
                let windows: Vec<_> = series.windows(buckets).into_iter().map(parts).collect();
                assert_eq!(
                    windows,
                    dense_windows(&dense, buckets),
                    "case {case}: {buckets}"
                );
            }
            for fraction in [0.25, 0.5, 1.0] {
                let tail = series.tail(fraction).map(parts);
                assert_eq!(
                    tail,
                    dense_tail(&dense, fraction),
                    "case {case}: {fraction}"
                );
            }
        }
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
