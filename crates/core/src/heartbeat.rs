//! Figure 2's heartbeat process, written once for both stores it runs
//! over: [`Alg1Process`](crate::Alg1Process) (the row-owned `SUSPICIONS`
//! matrix) and [`MwmrProcess`](crate::MwmrProcess) (§3.5(a)'s nWnR
//! counters) are one [`HeartbeatProcess`] over one [`HeartbeatMemory`] —
//! `PROGRESS` and Figure 2's register block — and differ only in their
//! [`Store`]: the view `T1` elects from, the suspicion write of line 23
//! and the timeout of line 27. This file also holds line 8 of task `T2`
//! and the side of task `T3` that watches it (lines 13–24). (Figure 5
//! replaces both halves; [`Alg2Process`](crate::Alg2Process) keeps the
//! [`ShardCursor`].) Lines 17–24, which every variant's pass decides by,
//! are [`judge`].
//!
//! A [`HeartbeatTracker`] holds the mirror of the own `PROGRESS` entry,
//! `candidates_i`, `last_i` and the cursor of the sharded scan (see the
//! [`alg1`](crate::alg1) module docs); it beats, and it runs one pass over
//! one shard at a time.
//!
//! # Passes that are provably no-ops
//!
//! After stabilization only the leader writes, and only its `PROGRESS`
//! entry (Theorems 3–4), yet every follower keeps scanning every shard.
//! A pass over a shard is skipped — its reads *booked*, nothing loaded or
//! visited — when two facts hold:
//!
//! * **no candidate in the shard but the scanner itself** (one masked word
//!   test, [`ProcessSet::any_in_except`]). Then neither lines 20–21 (`STOP`
//!   removes a candidate) nor lines 22–24 (suspect a candidate) can act, so
//!   no `STOP` value matters;
//! * **`PROGRESS[shard]` unchanged since the last pass that found the
//!   shard so**: its [`range_version`](omega_registers::SwmrArray::range_version)
//!   equals the one the tracker kept from that pass. Every pass over the
//!   shard since read it, and after any pass `last[k]` is the value it
//!   read, so with `PROGRESS` unchanged no `k` is fresh (lines 17–19).
//!
//! The pass would therefore change nothing. Its reads are still the
//! paper's: one [`book_unchanged_range`](omega_registers::SwmrArray::book_unchanged_range)
//! adds to the same per-(reader, bank) tallies of `PROGRESS` and `STOP`
//! as the range reads, and the `PROGRESS` array itself refuses it unless
//! the version still matches. The word test comes first, and only when a
//! system has more than one shard: a lone shard (`n ≤ 16` at the default
//! width) holds every candidate, the leader among them, and the leader's
//! own heartbeat moves the shard's version between two of its passes, so
//! a booking there would almost never succeed; its passes are the full
//! ones they always were. On a disk-backed space `PROGRESS` reports no
//! range version and every pass is a full one, so the device serves every
//! read as before.

use std::ops::{Deref, Range};
use std::sync::Arc;

use omega_registers::{FlagArray, MemorySpace, NatArray, ProcessId, ProcessSet};

use crate::candidates::CandidateInit;
use crate::fig2::{Elector, Registers};
use crate::OmegaProcess;

/// Number of processes examined per sharded `T3` pass (and the threshold
/// below which the scan is unsharded, i.e. exactly the paper's Figure 2).
pub const T3_SHARD_SIZE: usize = 16;

/// Round-robin cursor over `[0, n)` in slices of at most
/// [`T3_SHARD_SIZE`], for sharded `T3` scans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardCursor {
    n: usize,
    shard: usize,
    next: usize,
    /// The position among the slices of the one at `next`.
    index: usize,
}

impl ShardCursor {
    pub(crate) fn new(n: usize, shard: usize) -> Self {
        assert!(shard >= 1, "a T3 pass must scan at least one process");
        ShardCursor {
            n,
            shard,
            next: 0,
            index: 0,
        }
    }

    /// Number of distinct slices.
    fn shards(&self) -> usize {
        self.n.div_ceil(self.shard)
    }

    /// The slice the next pass must scan; advances the cursor.
    pub(crate) fn advance(&mut self) -> Range<usize> {
        self.advance_indexed().1
    }

    /// [`advance`](Self::advance), with the slice's position among the
    /// [`shards`](Self::shards).
    fn advance_indexed(&mut self) -> (usize, Range<usize>) {
        let (start, index) = (self.next, self.index);
        let end = (start + self.shard).min(self.n);
        (self.next, self.index) = if end >= self.n {
            (0, 0)
        } else {
            (end, index + 1)
        };
        (index, start..end)
    }
}

/// Lines 15–16 for every `k ≠ reader` in `shard`: range-reads `STOP` and
/// then `PROGRESS` on behalf of `reader` — in that order: every `STOP[k]`
/// is read before its `PROGRESS[k]` (see the [`alg1`](crate::alg1) module
/// docs) — and hands `(k, STOP[k], PROGRESS[k])` to `visit`. The shard is
/// split around the reader's own slot, which is neither read nor counted
/// (a range read counts every slot it covers). Values pass through the
/// stack, [`T3_SHARD_SIZE`] at a time, so a wider-than-default shard costs
/// no per-process scratch.
fn scan_heartbeats(
    stop: &FlagArray,
    progress: &NatArray,
    reader: ProcessId,
    shard: Range<usize>,
    mut visit: impl FnMut(ProcessId, bool, u64),
) {
    let own = reader.index();
    let parts = if shard.contains(&own) {
        [shard.start..own, own + 1..shard.end]
    } else {
        [shard, 0..0]
    };
    let (mut stop_buf, mut progress_buf) = ([false; T3_SHARD_SIZE], [0; T3_SHARD_SIZE]);
    for part in parts {
        let mut start = part.start;
        while start < part.end {
            let chunk = start..part.end.min(start + T3_SHARD_SIZE);
            let (stop_buf, progress_buf) = (
                &mut stop_buf[..chunk.len()],
                &mut progress_buf[..chunk.len()],
            );
            stop.read_range_into(reader, chunk.clone(), stop_buf);
            progress.read_range_into(reader, chunk.clone(), progress_buf);
            for ((k, &stop_k), &progress_k) in chunk.clone().zip(&*stop_buf).zip(&*progress_buf) {
                visit(ProcessId::new(k), stop_k, progress_k);
            }
            start = chunk.end;
        }
    }
}

/// Lines 17–24 for `k ≠ pid`, once the caller has read `STOP[k]` and found
/// whether `k` is `fresh` (each figure its own way): a fresh `k` is a
/// candidate; a stale one is not, and is to be suspected (line 23) if it
/// was one and did not raise `STOP`. Returns whether to suspect `k`.
#[inline]
pub(crate) fn judge(candidates: &mut ProcessSet, k: ProcessId, fresh: bool, stop_k: bool) -> bool {
    if fresh {
        candidates.insert(k);
        return false;
    }
    candidates.remove(k) && !stop_k
}

/// One process's mirror of `PROGRESS[pid]`, its `candidates_i` and
/// `last_i`, the shard cursor of its `T3` scan, and the `PROGRESS`
/// version each shard was last scanned at (module docs).
#[derive(Debug)]
pub(crate) struct HeartbeatTracker {
    pid: ProcessId,
    /// Local mirror of `PROGRESS[pid]` (owner-side copy).
    my_progress: u64,
    /// `candidates_i` — invariant: always contains `pid`.
    candidates: ProcessSet,
    /// `last_i[k]` — greatest `PROGRESS[k]` value seen (line 19).
    last: Vec<u64>,
    /// Whether `last[k]` holds a real observation yet; arbitrary initial
    /// register values make `0` an unsafe sentinel.
    last_valid: Vec<bool>,
    cursor: ShardCursor,
    /// `seen[s]` — the `PROGRESS` range version shard `s` was read at by
    /// the last pass that found no candidate in it; `None` before the
    /// first, or when `PROGRESS` keeps no versions.
    seen: Vec<Option<u64>>,
    /// Passes booked so far.
    #[cfg(test)]
    pub(crate) booked: u64,
}

impl HeartbeatTracker {
    /// A tracker for `pid` of the system whose `PROGRESS` array is
    /// `progress`, trusting `candidates`, scanning shards of
    /// [`T3_SHARD_SIZE`]. The `PROGRESS[pid]` mirror starts from the
    /// register's actual contents (a corrupted initial state included).
    pub(crate) fn new(progress: &NatArray, pid: ProcessId, candidates: ProcessSet) -> Self {
        let n = progress.len();
        let cursor = ShardCursor::new(n, T3_SHARD_SIZE);
        HeartbeatTracker {
            pid,
            my_progress: progress.get(pid).peek(),
            candidates,
            last: vec![0; n],
            last_valid: vec![false; n],
            seen: vec![None; cursor.shards()],
            cursor,
            #[cfg(test)]
            booked: 0,
        }
    }

    /// Line 8: heartbeat, `PROGRESS[pid]` incremented (wrapping: a wrap
    /// still reads as progress).
    #[inline]
    pub(crate) fn beat(&mut self, progress: &NatArray) {
        self.my_progress = self.my_progress.wrapping_add(1);
        progress.get(self.pid).write(self.pid, self.my_progress);
    }

    /// One `T3` pass over the next shard: lines 15–24 for every `k ≠ pid`
    /// of it, `suspect(k)` standing for the write of line 23. Returns
    /// `true` when the pass was booked (module docs): then it changed
    /// nothing here and called nothing.
    pub(crate) fn pass(
        &mut self,
        stop: &FlagArray,
        progress: &NatArray,
        mut suspect: impl FnMut(ProcessId),
    ) -> bool {
        let (memo, shard) = self.cursor.advance_indexed();
        // One shard: never tried (module docs). A candidate in the shard:
        // the pass may act.
        if self.seen.len() > 1
            && !self.candidates.any_in_except(shard.clone(), self.pid)
            && self.book(stop, progress, memo, shard.clone())
        {
            return true;
        }
        scan_heartbeats(stop, progress, self.pid, shard, |k, stop_k, progress_k| {
            let i = k.index();
            // Lines 17 and 19: k made progress.
            let fresh = !self.last_valid[i] || progress_k != self.last[i];
            if fresh {
                self.last[i] = progress_k;
                self.last_valid[i] = true;
            }
            if judge(&mut self.candidates, k, fresh, stop_k) {
                suspect(k);
            }
        });
        false
    }

    /// Books the pass over `shard`, the `memo`-th, if `PROGRESS[shard]` is
    /// unchanged since the version kept for it; else keeps the version
    /// found. Kept out of line, so that [`pass`](Self::pass)'s reading
    /// path stays as small as before.
    #[inline(never)]
    fn book(
        &mut self,
        stop: &FlagArray,
        progress: &NatArray,
        memo: usize,
        shard: Range<usize>,
    ) -> bool {
        let own = Some(self.pid.index()).filter(|own| shard.contains(own));
        // A refusal keeps the version it found, taken before the pass's
        // reads: a write racing them leaves it behind, and the next pass
        // reads again. A version kept by an earlier pass stays good
        // through passes that kept none: it matches only while nothing
        // moved `PROGRESS[shard]`, and each of them read it.
        // With no candidate in the shard, no `STOP` value can act: the
        // pass would discard every one it read.
        if !progress.book_unchanged_range(self.pid, shard, own, &mut self.seen[memo], stop) {
            return false;
        }
        #[cfg(test)]
        {
            self.booked += 1;
        }
        true
    }

    /// Forgets every shard's version, so that each next pass reads.
    #[cfg(test)]
    pub(crate) fn forget_versions(&mut self) {
        self.seen.fill(None);
    }

    /// `(candidates, last, last_valid)`, for comparing two trackers.
    #[cfg(test)]
    pub(crate) fn state(&self) -> (&ProcessSet, &[u64], &[bool]) {
        (&self.candidates, &self.last, &self.last_valid)
    }
}

/// What a [`HeartbeatProcess`] does its own way for its suspicion store —
/// the row-owned `SUSPICIONS` matrix of Figure 2 or §3.5(a)'s nWnR
/// counters. Everything else is Figure 2's, written once. The crate
/// exports no name for it.
pub trait Store: Sized + Send + Sync {
    /// What `T1` elects from.
    type View: Send;

    /// Allocates the store in `space`, right after `STOP`.
    fn allocate(space: &MemorySpace) -> Self;

    /// Process `pid`'s view, taken from the registers' contents.
    fn view(registers: &Registers<Self>, pid: ProcessId) -> Self::View;

    /// `T1`'s refresh of `pid`'s view; returns whether it re-read anything.
    fn refresh(view: &mut Self::View, registers: &Registers<Self>, pid: ProcessId) -> bool;

    /// Line 3: how often `k` is suspected, as `view` has it.
    fn total(view: &Self::View, k: ProcessId) -> u64;

    /// Line 23: `pid` suspects `k`.
    fn suspect(view: &mut Self::View, registers: &Registers<Self>, pid: ProcessId, k: ProcessId);

    /// Line 27, once a pass is done: the next timeout, and whether finding
    /// it re-read anything.
    fn after_pass(
        view: &mut Self::View,
        registers: &Registers<Self>,
        pid: ProcessId,
    ) -> (u64, bool);

    /// The timeout of the timer's first arming.
    fn initial_timeout(view: &Self::View) -> u64;
}

/// The shared registers of a [`HeartbeatProcess`]: the `PROGRESS`
/// heartbeats, `STOP` and the suspicion store `S` —
/// [`Alg1Memory`](crate::Alg1Memory) and [`MwmrMemory`](crate::MwmrMemory).
///
/// One instance is shared (via [`Arc`]) by all `n` processes of a system.
#[derive(Debug)]
pub struct HeartbeatMemory<S> {
    pub(crate) progress: NatArray,
    pub(crate) registers: Registers<S>,
}

impl<S: Store> HeartbeatMemory<S> {
    /// Allocates `PROGRESS`, `STOP` and the suspicion store in `space`, in
    /// that order, with the paper's initial values (naturals 0, booleans
    /// `true`).
    #[must_use]
    pub fn new(space: &MemorySpace) -> Arc<Self> {
        Arc::new(HeartbeatMemory {
            progress: space.epoched_nat_array("PROGRESS", |_| 0),
            registers: Registers::new(space, S::allocate),
        })
    }

    /// Unattributed view of `PROGRESS[k]`, for harnesses and experiments.
    #[must_use]
    pub fn peek_progress(&self, k: ProcessId) -> u64 {
        self.progress.get(k).peek()
    }
}

/// `STOP`, the suspicion store and their `peek_*` views are Figure 2's
/// block.
impl<S> Deref for HeartbeatMemory<S> {
    type Target = Registers<S>;

    fn deref(&self) -> &Self::Target {
        &self.registers
    }
}

/// One process of Figure 2 over the suspicion store `S`:
/// [`Alg1Process`](crate::Alg1Process) over the row-owned `SUSPICIONS`
/// matrix, [`MwmrProcess`](crate::MwmrProcess) over §3.5(a)'s nWnR
/// counters.
#[derive(Debug)]
pub struct HeartbeatProcess<S: Store> {
    mem: Arc<HeartbeatMemory<S>>,
    /// The `PROGRESS[pid]` mirror, `candidates_i`, `last_i` and the sharded
    /// `T3` scan.
    pub(crate) heartbeats: HeartbeatTracker,
    pub(crate) fig2: Elector<S::View>,
}

impl<S: Store> HeartbeatProcess<S> {
    /// Creates process `pid` over `mem`, initially trusting everyone.
    #[must_use]
    pub fn new(mem: Arc<HeartbeatMemory<S>>, pid: ProcessId) -> Self {
        HeartbeatProcess::with_candidates(mem, pid, CandidateInit::Full)
    }

    /// Creates process `pid` with an explicit initial candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for the memory's system size.
    #[must_use]
    pub fn with_candidates(
        mem: Arc<HeartbeatMemory<S>>,
        pid: ProcessId,
        init: CandidateInit,
    ) -> Self {
        let fig2 = Elector::new(&mem.stop, pid, || S::view(&mem.registers, pid));
        HeartbeatProcess {
            heartbeats: HeartbeatTracker::new(&mem.progress, pid, init.materialize(mem.n(), pid)),
            fig2,
            mem,
        }
    }

    /// Overrides the width of the sharded `T3` scan (default
    /// [`T3_SHARD_SIZE`]); `shard ≥ n` restores the paper's full scan.
    /// Provided for the shard-size experiments and the parity tests.
    ///
    /// # Panics
    ///
    /// Panics if `shard == 0`.
    #[must_use]
    pub fn with_scan_shard(mut self, shard: usize) -> Self {
        let tracker = &mut self.heartbeats;
        tracker.cursor = ShardCursor::new(tracker.last.len(), shard);
        tracker.seen = vec![None; tracker.cursor.shards()];
        self
    }

    /// The shared memory this process runs over.
    #[must_use]
    pub fn memory(&self) -> &Arc<HeartbeatMemory<S>> {
        &self.mem
    }

    /// Current candidate set (test/diagnostic view).
    #[must_use]
    pub fn candidates(&self) -> &ProcessSet {
        &self.heartbeats.candidates
    }
}

impl<S: Store> OmegaProcess for HeartbeatProcess<S> {
    fn pid(&self) -> ProcessId {
        self.fig2.pid
    }

    fn n(&self) -> usize {
        self.mem.n()
    }

    /// Task `T1` (lines 1–5); in a stabilized run it reads nothing shared.
    fn leader(&self) -> ProcessId {
        let (mem, pid) = (&*self.mem, self.fig2.pid);
        self.fig2.leader(
            self.candidates(),
            |view| S::refresh(view, &mem.registers, pid),
            S::total,
        )
    }

    /// One iteration of task `T2` (lines 6–12), line 8 a heartbeat.
    fn t2_step(&mut self) {
        let leader = self.leader();
        let (mem, heartbeats) = (&*self.mem, &mut self.heartbeats);
        self.fig2
            .t2_step(leader, &mem.stop, || heartbeats.beat(&mem.progress));
    }

    /// Task `T3` body (lines 13–27) over one round-robin shard of at most
    /// [`T3_SHARD_SIZE`] processes (the whole system when `n` fits in one
    /// shard). Returns the next timeout (line 27).
    ///
    /// The pass reads `STOP[shard]`, then `PROGRESS[shard]` — each
    /// `STOP[k]` before its `PROGRESS[k]`, as lines 8 and 9 need — unless
    /// it is provably a no-op: then its reads are booked and nothing is
    /// loaded.
    fn on_timer_expire(&mut self) -> u64 {
        let (mem, pid) = (&*self.mem, self.fig2.pid);
        let view = self.fig2.view.get_mut();
        let booked = self.heartbeats.pass(&mem.stop, &mem.progress, |k| {
            S::suspect(view, &mem.registers, pid, k);
        });
        mem.scan.note_shard_pass();
        let (timeout, reread) = S::after_pass(view, &mem.registers, pid);
        if reread || !booked {
            // The pass may have changed `candidates` and the suspicions,
            // and the timeout's refresh may have consumed a change
            // `leader()` must see — election inputs all.
            self.fig2.election.set(None);
        }
        timeout
    }

    fn initial_timeout(&self) -> u64 {
        S::initial_timeout(&self.fig2.view.borrow())
    }

    fn cached_leader(&self) -> Option<ProcessId> {
        self.fig2.cached
    }
}
