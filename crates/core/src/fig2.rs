//! Figure 2's memory and the lines its variants keep, each in one place.
//! The heartbeat process Alg1 and §3.5(a) share — its memory, line 8, the
//! `T3` pass of lines 13–24 — and lines 17–24 themselves are in
//! [`crate::heartbeat`]. Figure 5 replaces the heartbeat and its liveness
//! test; §3.5(a) collapses each `SUSPICIONS` column into one shared
//! counter.
//!
//! * [`Registers`] — the register block every variant's memory embeds and
//!   dereferences to: `STOP`, the suspicion store (the row-owned
//!   [`SuspicionMatrix`], or §3.5(a)'s counters) and the [`ScanCounters`],
//!   with their `peek_*` views.
//! * [`Elector`] — task `T1` (lines 1–5), memoized over a suspicion view,
//!   and the `STOP` writes of lines 9 and 11. Every variant embeds one.
//! * [`EpochWalk`] — the epoch walk both suspicion views refresh by.
//! * [`SuspicionCache`] — the view of a row-owned `SUSPICIONS` matrix,
//!   which the matrix's [`Store`] impl (Figures 2 and 5) keeps: the own
//!   row mirrored (§3.2), the suspicion write of lines 22–24 and the
//!   line-27 timeout, and the foreign rows, each re-read only when its
//!   epoch moved, so that in a quiescent run `leader()` performs *zero*
//!   shared reads. The row copies are immutable and shared between the
//!   processes that read the same contents: the system holds about one
//!   copy of each row, `n²` words, not `n³`. (The counters' store is in
//!   [`crate::mwmr`].)

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use omega_registers::sync::Mutex;
use omega_registers::{FlagArray, MemorySpace, NatMatrix, ProcessId, ProcessSet, ScanCounters};

use crate::candidates::elect_least_suspected;
use crate::heartbeat::Store;

/// The arbitrary values a memory's `corrupt(seed)` pokes (footnote 7).
pub(crate) fn corruption(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The registers every variant keeps of Figure 2 — `STOP` and a
/// suspicion store `S` — and where the reads their epochs spare are
/// counted. Each variant's memory embeds one and dereferences to it; the
/// crate exports no name for it.
#[derive(Debug)]
pub struct Registers<S> {
    pub(crate) stop: FlagArray,
    pub(crate) suspicions: S,
    pub(crate) scan: Arc<ScanCounters>,
}

impl<S> Registers<S> {
    /// Allocates `STOP` (every flag raised), then the store `suspicions`
    /// makes, in `space`.
    pub(crate) fn new(space: &MemorySpace, suspicions: impl FnOnce(&MemorySpace) -> S) -> Self {
        Registers {
            stop: space.flag_array("STOP", |_| true),
            suspicions: suspicions(space),
            scan: space.scan_counters(),
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.stop.len()
    }

    /// Unattributed view of `STOP[k]`.
    #[must_use]
    pub fn peek_stop(&self, k: ProcessId) -> bool {
        self.stop.get(k).peek()
    }
}

impl Registers<SuspicionMatrix> {
    /// Unattributed view of `SUSPICIONS[j][k]`.
    #[must_use]
    pub fn peek_suspicions(&self, j: ProcessId, k: ProcessId) -> u64 {
        self.suspicions.cells.get(j, k).peek()
    }

    /// Unattributed total suspicion count of `k`: `Σ_j SUSPICIONS[j][k]`.
    #[must_use]
    pub fn peek_total_suspicions(&self, k: ProcessId) -> u64 {
        ProcessId::all(self.n())
            .map(|j| self.peek_suspicions(j, k))
            .sum()
    }
}

/// One process's task `T1` over the suspicion view `V`, memoized, and the
/// `STOP` lines of task `T2`.
#[derive(Debug)]
pub(crate) struct Elector<V> {
    pub(crate) pid: ProcessId,
    /// Local mirror of `STOP[pid]`.
    my_stop: bool,
    /// Leader estimate cached from the latest `T2` evaluation.
    pub(crate) cached: Option<ProcessId>,
    /// What `T1` elects from (interior mutability: `leader()` is a `&self`
    /// query but refreshes the view).
    pub(crate) view: RefCell<V>,
    /// Memoized `T1` winner, valid while its inputs — the view and the
    /// candidate set — are unchanged. `None` = stale, recompute.
    pub(crate) election: Cell<Option<ProcessId>>,
}

impl<V> Elector<V> {
    /// Process `pid` of the system whose `STOP` array is `stop`; panics if
    /// `pid` is out of range, before `view` is called.
    pub(crate) fn new(stop: &FlagArray, pid: ProcessId, view: impl FnOnce() -> V) -> Self {
        let n = stop.len();
        assert!(pid.index() < n, "{pid} out of range for n={n}");
        Elector {
            pid,
            my_stop: stop.get(pid).peek(),
            cached: None,
            view: RefCell::new(view()),
            election: Cell::new(None),
        }
    }

    /// Task `T1` (lines 1–5): elect the least-suspected of `candidates`
    /// (line 3: `k` is suspected `total(view, k)` times) once `refresh` has
    /// brought the view up to date. When it re-read nothing, the memoized
    /// winner is served without rescanning the candidate set.
    #[inline]
    pub(crate) fn leader(
        &self,
        candidates: &ProcessSet,
        refresh: impl FnOnce(&mut V) -> bool,
        total: impl Fn(&V, ProcessId) -> u64,
    ) -> ProcessId {
        let mut view = self.view.borrow_mut();
        if refresh(&mut view) {
            self.election.set(None);
        } else if let Some(winner) = self.election.get() {
            return winner;
        }
        let winner = elect_least_suspected(candidates, |k| total(&view, k))
            .expect("candidates always contain self");
        self.election.set(Some(winner));
        winner
    }

    /// Task `T2` (lines 6–12) once line 6 elected `leader`; `beat` is line
    /// 8, which each variant writes its own way.
    #[inline]
    pub(crate) fn t2_step(&mut self, leader: ProcessId, stop: &FlagArray, beat: impl FnOnce()) {
        self.cached = Some(leader);
        if leader == self.pid {
            beat();
            // Line 9: announce candidacy.
            if self.my_stop {
                self.my_stop = false;
                stop.get(self.pid).write(self.pid, false);
            }
        } else if !self.my_stop {
            // Line 11: withdraw.
            self.my_stop = true;
            stop.get(self.pid).write(self.pid, true);
        }
    }
}

/// The epoch walk (module docs): the version a view last read each of its
/// entries at, and the global version of its last refresh.
#[derive(Debug)]
pub(crate) struct EpochWalk {
    /// `seen[i]` — the version entry `i` was last read at.
    seen: Vec<u64>,
    /// The global version of the last refresh; `u64::MAX` = never
    /// refreshed. While it matches, a refresh is O(1).
    seen_global: u64,
    /// The entry never walked: the reader's own row, mirrored (§3.2).
    own: Option<usize>,
    /// The shared reads a clean entry spares: `n` a row, 1 a counter.
    entry_reads: u64,
}

impl EpochWalk {
    /// A walk of `n` entries, `own`'s left out, never refreshed.
    pub(crate) fn new(n: usize, own: Option<ProcessId>, entry_reads: u64) -> Self {
        EpochWalk {
            seen: vec![u64::MAX; n],
            seen_global: u64::MAX,
            own: own.map(ProcessId::index),
            entry_reads,
        }
    }

    /// Brings a view of a versioned store up to date; returns whether it
    /// re-read anything (callers drop their election memo on it).
    /// `global()` and `version(i)` read the store's versions;
    /// `reload(Some(i))` re-reads entry `i`, and `reload(None)` every entry
    /// but the own, on the view's first refresh. If the global version did
    /// not move — which proves no entry's did — the refresh is O(1): every
    /// entry is credited to `scan` as skipped, in one batch. Else the
    /// moved entries are re-read and the clean ones credited.
    #[inline]
    pub(crate) fn refresh(
        &mut self,
        scan: &ScanCounters,
        global: impl FnOnce() -> u64,
        version: impl Fn(usize) -> u64,
        mut reload: impl FnMut(Option<usize>),
    ) -> bool {
        let entry_reads = self.entry_reads;
        let skipped = |entries: u64| scan.note_skipped(entries, entries * entry_reads);
        // The global version *before* any entry's: a write racing the walk
        // leaves `seen_global` behind the bump it missed, so the next
        // refresh walks again and observes it.
        let global = global();
        if self.seen_global == global {
            skipped((self.seen.len() - usize::from(self.own.is_some())) as u64);
            return false;
        }
        let cold = self.seen_global == u64::MAX;
        self.seen_global = global;
        if cold {
            for (i, seen) in self.seen.iter_mut().enumerate() {
                *seen = version(i);
            }
            reload(None);
            return true;
        }
        let (mut clean, mut changed) = (0, false);
        for (i, seen) in self.seen.iter_mut().enumerate() {
            if Some(i) == self.own {
                continue;
            }
            let version = version(i);
            if *seen == version {
                clean += 1;
            } else {
                reload(Some(i));
                *seen = version;
                changed = true;
            }
        }
        skipped(clean);
        changed
    }
}

/// Why a version of the `SUSPICIONS` matrix is always there.
const EPOCHED: &str = "SUSPICIONS is made by epoched_nat_row_matrix";

/// The row-owned `SUSPICIONS` matrix of Figures 2 and 5 (initially 0), and
/// the shared copies of its rows, from which every [`SuspicionCache`] of
/// the system takes the rows it holds.
///
/// A cache adopts the row published for `j` only when it equals what the
/// cache itself just read, so sharing never hands a process a value it
/// did not read: a frozen view under a partition, or a snapshot torn by a
/// racing write on a wall backend, simply ends up in a row of its own.
#[derive(Debug)]
pub struct SuspicionMatrix {
    pub(crate) cells: NatMatrix,
    /// The all-zero row every fresh cache starts from.
    zero: Arc<[u64]>,
    /// `published[j]` — the last contents of row `j` some cache read and
    /// did not find here.
    published: Vec<Mutex<Arc<[u64]>>>,
    /// Rows nothing holds any more, rewritten for the next fresh copy of
    /// any row instead of freed: a run allocates copies up to the most it
    /// ever needs at once, and no more. (Freeing them and allocating anew
    /// on suspicion writes, interleaved with a service run's own
    /// allocations, fragmented the heap enough to add 4 MB to the peak RSS
    /// of most `serve-failover` benchmark runs.)
    spares: Mutex<Vec<Arc<[u64]>>>,
}

impl SuspicionMatrix {
    /// Replaces `held`, a cache's copy of row `j`, by the copy to keep now
    /// that the cache has read the row as `read` (`held_matches`: whether
    /// `held` already equals `read`). The published row when it equals
    /// `read`; otherwise `held`, rewritten with `read` when it is stale,
    /// which is then published for the next reader. A lock is held only to
    /// clone, swap, push or pop an `Arc`, never for a comparison or a copy.
    fn share(&self, j: ProcessId, held: &mut Arc<[u64]>, read: &[u64], held_matches: bool) {
        let slot = &self.published[j.index()];
        let published = Arc::clone(&slot.lock());
        if held_matches && Arc::ptr_eq(&published, held) {
            return;
        }
        if *published == *read {
            self.recycle(std::mem::replace(held, published));
            return;
        }
        drop(published);
        if !held_matches {
            // A row no one else holds is not published either: rewrite it.
            if let Some(row) = Arc::get_mut(held) {
                row.copy_from_slice(read);
            } else {
                let spare = self.spares.lock().pop();
                let fresh = match spare {
                    Some(mut row) => {
                        Arc::get_mut(&mut row)
                            .expect("a spare has no other holder")
                            .copy_from_slice(read);
                        row
                    }
                    None => Arc::from(read),
                };
                self.recycle(std::mem::replace(held, fresh));
            }
        }
        let displaced = std::mem::replace(&mut *slot.lock(), Arc::clone(held));
        self.recycle(displaced);
    }

    /// Keeps `row` as a spare when nothing else holds it.
    fn recycle(&self, mut row: Arc<[u64]>) {
        if Arc::get_mut(&mut row).is_some() {
            self.spares.lock().push(row);
        }
    }
}

/// One process's view of a row-owned `SUSPICIONS` matrix (Figures 2 and
/// 5): the own row mirrored (§3.2), the foreign rows epoch-validated, with
/// an incrementally maintained per-column aggregate.
///
/// The view of each foreign row is an immutable row shared through the
/// [`SuspicionMatrix`]: in a quiescent run every process holds the
/// same allocation of row `j`, so a cache costs `n` pointers rather than
/// `n²` words.
#[derive(Debug)]
pub struct SuspicionCache {
    /// Local mirror of the owned `SUSPICIONS[pid][·]` row.
    mine: Vec<u64>,
    /// Running `max_k mine[k]` — exact, because entries only ever
    /// increment — so the line-27 timeout is O(1) per timer fire instead
    /// of an O(n) rescan.
    mine_max: u64,
    /// Additive slack of the line-27 timeout (the paper uses 1).
    pub(crate) slack: u64,
    /// The versions the foreign rows were read at.
    walk: EpochWalk,
    /// `rows[j]` — last snapshot of `SUSPICIONS[j][·]` (row `pid` unused).
    rows: Vec<Arc<[u64]>>,
    /// `totals[k] = Σ_{j≠pid} rows[j][k]`.
    totals: Vec<u64>,
    /// Scratch buffer for row snapshots.
    buf: Vec<u64>,
}

impl SuspicionCache {
    /// Line 27 — computed entirely from the owned (mirrored) row.
    #[inline]
    pub(crate) fn timeout(&self) -> u64 {
        self.mine_max + self.slack
    }
}

/// The row-owned store of Figures 2 and 5: each process suspects in its
/// own row, mirrored (§3.2), and times out from it.
impl Store for SuspicionMatrix {
    type View = SuspicionCache;

    fn allocate(space: &MemorySpace) -> Self {
        let cells = space.epoched_nat_row_matrix("SUSPICIONS", |_, _| 0);
        let n = space.n_processes();
        let zero: Arc<[u64]> = vec![0; n].into();
        SuspicionMatrix {
            cells,
            published: (0..n).map(|_| Mutex::new(Arc::clone(&zero))).collect(),
            spares: Mutex::new(Vec::new()),
            zero,
        }
    }

    /// The mirror is taken from the register contents (a corrupted
    /// initial state included); the timeout has slack 1.
    fn view(registers: &Registers<Self>, pid: ProcessId) -> SuspicionCache {
        let (matrix, n) = (&registers.suspicions, registers.n());
        let mine: Vec<u64> = ProcessId::all(n)
            .map(|k| matrix.cells.get(pid, k).peek())
            .collect();
        SuspicionCache {
            mine_max: mine.iter().copied().max().unwrap_or(0),
            mine,
            slack: 1,
            walk: EpochWalk::new(n, Some(pid), n as u64),
            rows: vec![Arc::clone(&matrix.zero); n],
            totals: vec![0; n],
            buf: vec![0; n],
        }
    }

    /// Brings every stale foreign row up to date ([`EpochWalk::refresh`]),
    /// one batched snapshot per dirty row. A re-read row whose contents
    /// did not change leaves the totals alone; either way the cache then
    /// holds the copy the shared rows offer for what it read.
    #[inline]
    fn refresh(cache: &mut SuspicionCache, registers: &Registers<Self>, pid: ProcessId) -> bool {
        let matrix = &registers.suspicions;
        let (rows, totals, buf) = (&mut cache.rows, &mut cache.totals, &mut cache.buf);
        let mut reload = |j: ProcessId| {
            matrix.cells.read_row_into(j, pid, buf);
            registers.scan.note_snapshot();
            let held = &mut rows[j.index()];
            let held_matches = **held == **buf;
            if !held_matches {
                for ((total, old), new) in totals.iter_mut().zip(held.iter()).zip(buf.iter()) {
                    // total ≥ old by construction: old is one of its summands.
                    *total = *total - *old + *new;
                }
            }
            matrix.share(j, held, buf, held_matches);
        };
        cache.walk.refresh(
            &registers.scan,
            || matrix.cells.version().expect(EPOCHED),
            |j| matrix.cells.row_version(ProcessId::new(j)).expect(EPOCHED),
            |row| match row {
                Some(j) => reload(ProcessId::new(j)),
                None => ProcessId::all(matrix.cells.n())
                    .filter(|&j| j != pid)
                    .for_each(&mut reload),
            },
        )
    }

    /// `Σ_j SUSPICIONS[j][k]`: the refreshed foreign rows plus the
    /// mirrored own row.
    #[inline]
    fn total(cache: &SuspicionCache, k: ProcessId) -> u64 {
        cache.totals[k.index()] + cache.mine[k.index()]
    }

    /// Lines 22–24, in the own row.
    #[inline]
    fn suspect(
        cache: &mut SuspicionCache,
        registers: &Registers<Self>,
        pid: ProcessId,
        k: ProcessId,
    ) {
        let bumped = cache.mine[k.index()] + 1;
        cache.mine[k.index()] = bumped;
        cache.mine_max = cache.mine_max.max(bumped);
        (registers.suspicions.cells.get(pid, k)).write(pid, bumped);
    }

    /// Nothing is re-read: line 27 is the own row's.
    #[inline]
    fn after_pass(cache: &mut SuspicionCache, _: &Registers<Self>, _: ProcessId) -> (u64, bool) {
        (cache.timeout(), false)
    }

    fn initial_timeout(cache: &SuspicionCache) -> u64 {
        cache.timeout()
    }
}

/// What the core's unit tests share: one seeded generator, the one door
/// into a Figure-2 process, and the dense reference the shared rows are
/// checked against.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::heartbeat::HeartbeatProcess;
    use crate::{Alg2Process, OmegaProcess};

    /// xorshift64*.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        /// A generator whose state is `seed`, scrambled.
        pub(crate) fn new(seed: u64) -> Self {
            Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }

        pub(crate) fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound as u64) as usize
        }
    }

    /// A process built on an [`Elector`], as the tests reach into it.
    pub(crate) trait Figure2: OmegaProcess {
        /// What `T1` elects from.
        type View;
        /// The store of the process's [`Registers`].
        type Suspicions;

        /// The process's elector, the registers it runs over and its
        /// `candidates_i`.
        fn parts(
            &self,
        ) -> (
            &Elector<Self::View>,
            &Registers<Self::Suspicions>,
            &ProcessSet,
        );
    }

    impl<S: Store> Figure2 for HeartbeatProcess<S> {
        type View = S::View;
        type Suspicions = S;

        fn parts(&self) -> (&Elector<S::View>, &Registers<S>, &ProcessSet) {
            (&self.fig2, &self.memory().registers, self.candidates())
        }
    }

    impl Figure2 for Alg2Process {
        type View = SuspicionCache;
        type Suspicions = SuspicionMatrix;

        fn parts(
            &self,
        ) -> (
            &Elector<SuspicionCache>,
            &Registers<SuspicionMatrix>,
            &ProcessSet,
        ) {
            (&self.fig2, &self.memory().registers, self.candidates())
        }
    }

    impl SuspicionCache {
        /// Cached `Σ_{j≠pid} SUSPICIONS[j][k]`.
        pub(crate) fn foreign_total(&self, k: ProcessId) -> u64 {
            self.totals[k.index()]
        }

        /// The copy of row `j` this cache holds.
        pub(crate) fn row(&self, j: ProcessId) -> &Arc<[u64]> {
            &self.rows[j.index()]
        }

        /// Whether `totals` is the column sum of the foreign rows held.
        pub(crate) fn totals_match_rows(&self) -> bool {
            (0..self.totals.len()).all(|k| {
                let column: u64 = ProcessId::all(self.rows.len())
                    .filter(|&j| Some(j.index()) != self.walk.own)
                    .map(|j| self.rows[j.index()][k])
                    .sum();
                column == self.totals[k]
            })
        }
    }

    /// The dense cache — a private copy of every foreign row in every
    /// process — kept as the reference the shared rows are tested against.
    #[derive(Debug)]
    pub(crate) struct DenseSuspicionCache {
        pid: ProcessId,
        rows: Vec<Vec<u64>>,
        seen: Vec<u64>,
        totals: Vec<u64>,
        buf: Vec<u64>,
    }

    impl DenseSuspicionCache {
        pub(crate) fn new(n: usize, pid: ProcessId) -> Self {
            DenseSuspicionCache {
                pid,
                rows: vec![vec![0; n]; n],
                seen: vec![u64::MAX; n],
                totals: vec![0; n],
                buf: vec![0; n],
            }
        }

        /// [`EpochWalk::refresh`]'s dirty path, into private rows.
        pub(crate) fn refresh(&mut self, suspicions: &NatMatrix) {
            for j in ProcessId::all(suspicions.n()) {
                let seen = suspicions.row_version(j).expect(EPOCHED);
                if j == self.pid || self.seen[j.index()] == seen {
                    continue;
                }
                suspicions.read_row_into(j, self.pid, &mut self.buf);
                let old = &mut self.rows[j.index()];
                for ((total, old), new) in self.totals.iter_mut().zip(old.iter_mut()).zip(&self.buf)
                {
                    *total = *total - *old + *new;
                    *old = *new;
                }
                self.seen[j.index()] = seen;
            }
        }

        pub(crate) fn foreign_total(&self, k: ProcessId) -> u64 {
            self.totals[k.index()]
        }
    }
}

/// The epoch walk's one ordering rule, over both stores.
#[cfg(test)]
mod walk_tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Entries 1 and 2 of a three-entry store move (`write(1)`), then
    /// entry 1 moves again (`write(2)`) while the walk re-reads entry 2,
    /// after it visited entry 1. The refresh read the global version
    /// before that write moved it, so the next refresh re-reads entry 1.
    fn a_write_behind_the_walk_is_read_next_time(
        own: Option<ProcessId>,
        global: impl Fn() -> u64,
        version: impl Fn(usize) -> u64,
        write: impl Fn(u64),
        race: impl Fn(),
    ) {
        let scan = ScanCounters::default();
        let mut walk = EpochWalk::new(3, own, 1);
        let mut reloads = Vec::new();
        assert!(walk.refresh(&scan, &global, &version, |entry| reloads.push(entry)));
        assert!(!walk.refresh(&scan, &global, &version, |_| unreachable!()));
        write(1);
        let reread = walk.refresh(&scan, &global, &version, |entry| {
            reloads.push(entry);
            if entry == Some(2) {
                race();
            }
        });
        assert!(reread);
        assert!(walk.refresh(&scan, &global, &version, |entry| reloads.push(entry)));
        assert_eq!(reloads, [None, Some(1), Some(2), Some(1)]);
    }

    #[test]
    fn a_write_behind_the_walk_is_read_by_the_next_refresh_over_either_store() {
        let space = MemorySpace::new(3);
        // The `SUSPICIONS` rows as p0 views them: its own row left out.
        let rows = space.epoched_nat_row_matrix("SUSPICIONS", |_, _| 0);
        a_write_behind_the_walk_is_read_next_time(
            Some(p(0)),
            || rows.version().expect(EPOCHED),
            |j| rows.row_version(p(j)).expect(EPOCHED),
            |value| {
                for j in [p(1), p(2)] {
                    rows.get(j, p(0)).write(j, value);
                }
            },
            || rows.get(p(1), p(0)).write(p(1), 2),
        );
        // §3.5(a)'s counters: every one viewed.
        let counters = space.epoched_nat_mwmr_array("COUNTERS", 3, |_| 0);
        a_write_behind_the_walk_is_read_next_time(
            None,
            || counters.version().expect(EPOCHED),
            |k| counters.slot_version(k).expect(EPOCHED),
            |value| {
                for k in [1, 2] {
                    counters.get(k).write(p(0), value);
                }
            },
            || counters.get(1).write(p(0), 2),
        );
    }
}

/// `T1`'s memo against a fresh election, for every variant.
#[cfg(test)]
mod memo_tests {
    use super::testing::{Figure2, Rng};
    use super::*;
    use crate::T3_SHARD_SIZE;
    use crate::{Alg1Memory, Alg1Process, Alg2Memory, Alg2Process, MwmrMemory, MwmrProcess};
    use omega_registers::MemorySpace;

    /// `proc`'s `T1` memo.
    fn election<P: Figure2>(proc: &P) -> &Cell<Option<ProcessId>> {
        &proc.parts().0.election
    }

    /// A system and a way to poke arbitrary values into its registers.
    struct System<P> {
        space: MemorySpace,
        procs: Vec<P>,
        poke: Box<dyn Fn(u64)>,
    }

    /// An `n`-process system: `memory` allocates its registers, `process`
    /// makes each process, and `poke(memory, seed)` pokes its registers.
    fn system<M: 'static, P>(
        n: usize,
        memory: fn(&MemorySpace) -> Arc<M>,
        process: fn(Arc<M>, ProcessId) -> P,
        poke: fn(&M, u64),
    ) -> System<P> {
        let space = MemorySpace::new(n);
        let mem = memory(&space);
        let procs = ProcessId::all(n)
            .map(|pid| process(Arc::clone(&mem), pid))
            .collect();
        let poke = Box::new(move |seed| poke(&mem, seed));
        System { space, procs, poke }
    }

    /// `proc.leader()`, memo and all, against the election it makes once
    /// the memo is dropped: the view is the same (nothing moved in
    /// between), so the two differ only if the memo outlived its inputs.
    fn check<P: Figure2>(proc: &P, op: &str) {
        let memoized = proc.leader();
        election(proc).set(None);
        assert_eq!(memoized, proc.leader(), "{op}: p{}'s leader()", proc.pid());
    }

    /// Random steps, passes, pokes, partitions, cuts and heals, one
    /// process's `leader()` checked after each — so that a memo may
    /// outlive several operations before it is asked — then every
    /// process's after a heal and calm rounds. Returns how often a query
    /// was served from the memo.
    fn against_fresh<P: Figure2>(system: System<P>, seed: u64) -> usize {
        let System {
            space,
            mut procs,
            poke,
        } = system;
        let n = procs.len();
        // Shown only when the test fails: which run to replay.
        println!("n = {n}, seed = {seed}");
        let mut rng = Rng::new(seed);
        let mut hits = 0;
        for op in 0..40 * n {
            let p = rng.below(n);
            match rng.below(100) {
                0..=39 => procs[p].t2_step(),
                40..=84 => {
                    let _ = procs[p].on_timer_expire();
                }
                85..=87 => poke(rng.below(1 << 20) as u64),
                88..=91 => {
                    let mut groups = vec![Vec::new(); 2];
                    for pid in ProcessId::all(n) {
                        if let Some(group) = groups.get_mut(rng.below(3)) {
                            group.push(pid);
                        }
                    }
                    space.install_partition(&groups);
                }
                92..=94 => {
                    let (mut blinded, mut hidden) = (Vec::new(), Vec::new());
                    for pid in ProcessId::all(n) {
                        match rng.below(3) {
                            0 => blinded.push(pid),
                            1 => hidden.push(pid),
                            _ => {}
                        }
                    }
                    space.install_cut(&blinded, &hidden);
                }
                _ => space.heal_partition(),
            }
            let q = &procs[rng.below(n)];
            hits += usize::from(election(q).get().is_some());
            check(q, &format!("op {op}"));
        }
        space.heal_partition();
        for round in 0..2 * n.div_ceil(T3_SHARD_SIZE) + 2 {
            for p in 0..n {
                procs[p].t2_step();
                let _ = procs[p].on_timer_expire();
                let q = &procs[(p + 1) % n];
                hits += usize::from(election(q).get().is_some());
                check(q, &format!("calm round {round}, after p{p}"));
            }
        }
        hits
    }

    #[test]
    fn memoized_leader_matches_a_fresh_election_in_every_variant() {
        for n in [3, 5, 17, 40] {
            for seed in 1..4 {
                let seed = seed * 1_000 + n as u64;
                let alg1 = system(n, Alg1Memory::new, Alg1Process::new, Alg1Memory::corrupt);
                let alg2 = system(n, Alg2Memory::new, Alg2Process::new, Alg2Memory::corrupt);
                // nWnR counters move only by suspicion; pokes reach `STOP`
                // and `PROGRESS`, and through the candidates the election.
                let mwmr = system(n, MwmrMemory::new, MwmrProcess::new, |mem, seed| {
                    let k = ProcessId::new(seed as usize % mem.n());
                    mem.stop.get(k).poke(seed.is_multiple_of(3));
                    mem.progress.get(k).poke(seed);
                });
                let hits = [
                    against_fresh(alg1, seed),
                    against_fresh(alg2, seed),
                    against_fresh(mwmr, seed),
                ];
                // Not vacuous: the memo served queries in every variant.
                assert!(hits.iter().all(|&h| h > 0), "n={n}: {hits:?}");
            }
        }
    }
}
