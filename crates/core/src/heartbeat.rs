//! Figure 2's heartbeat — line 8 of task `T2` and the side of task `T3`
//! that watches it (lines 13–24) — shared by
//! [`Alg1Process`](crate::Alg1Process) and
//! [`MwmrProcess`](crate::MwmrProcess): their `STOP`/`PROGRESS` arrays are
//! the same layout, and only what a suspicion writes differs. (Figure 5
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

use std::ops::Range;

use omega_registers::{FlagArray, NatArray, ProcessId, ProcessSet};

use crate::alg1::T3_SHARD_SIZE;

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

    /// Rescans in shards of `width` from the first one on, with no shard
    /// seen yet.
    pub(crate) fn set_shard_width(&mut self, width: usize) {
        self.cursor = ShardCursor::new(self.last.len(), width);
        self.seen = vec![None; self.cursor.shards()];
    }

    /// `candidates_i`.
    pub(crate) fn candidates(&self) -> &ProcessSet {
        &self.candidates
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
