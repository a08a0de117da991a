//! Algorithm 1 (Figure 2): the write-efficient Ω for `AS_n[AWB]`.
//!
//! Shared variables (all 1WnR):
//!
//! * `PROGRESS[0..n]` — naturals; `p_i` increments its own entry while it
//!   believes it is the leader (the heartbeat).
//! * `STOP[0..n]` — booleans; `p_i` raises its entry when it stops
//!   competing for leadership.
//! * `SUSPICIONS[0..n][0..n]` — naturals; `SUSPICIONS[i][k]` counts how many
//!   times `p_i` has suspected `p_k`. Row `i` is owned by `p_i`.
//!
//! Per Theorems 1–4, in every AWB run: a single correct leader is
//! eventually elected; all shared variables except the leader's `PROGRESS`
//! entry stay bounded; and after stabilization only the leader writes the
//! shared memory (one register) — which is write-optimal.
//!
//! The paper observes (Section 3.2) that a process may keep local copies of
//! the registers it owns and read those instead of the shared memory; this
//! implementation does so for `PROGRESS[i]`, `STOP[i]` and the
//! `SUSPICIONS[i][·]` row, so the remaining shared *reads* are exactly the
//! ones the model requires.
//!
//! # Scaling past n ≈ 32
//!
//! Two read-avoidance layers keep `leader()` and `T3` cheap when `n`
//! reaches the hundreds, without changing what is elected, and a third
//! makes the reads that remain cheap:
//!
//! * **Epoch-validated suspicion cache** — the `SUSPICIONS` matrix is an
//!   [`EpochedNatMatrix`]: every suspicion write bumps its row's epoch, and
//!   `leader()` keeps the last value it read of each foreign row plus an
//!   incremental per-column aggregate, re-reading a row (via one batched
//!   snapshot) only when its epoch moved. In a quiescent (stabilized) run
//!   every row is clean and `leader()` performs *zero* shared reads. The
//!   row copies are immutable and shared between the processes that read
//!   the same contents, so the system holds about one copy of each row
//!   instead of one per process: `n²` words, not `n³`.
//! * **Sharded `T3` scan** — each timer expiry scans one round-robin slice
//!   of [`T3_SHARD_SIZE`] processes instead of all `n`. A slice pass is the
//!   paper's lines 13–26 verbatim for the slice members; each process is
//!   still checked on every full rotation, so suspicion accrual merely
//!   slows by the (constant) shard count — the eventual-leadership argument
//!   is unaffected. Systems with `n ≤ ` [`T3_SHARD_SIZE`] scan exactly as
//!   in Figure 2.
//! * **Range reads over register banks** — Lemma 6 says the reads of a
//!   slice pass can never go away (every correct non-leader reads shared
//!   memory forever), so after stabilization a run's work *is* this scan.
//!   `PROGRESS`, `STOP` and each `SUSPICIONS` row are one
//!   [bank](omega_registers::SwmrArray) apiece — adjacent value cells,
//!   one read tally per reader — and a pass reads `STOP[slice]` and then
//!   `PROGRESS[slice]` as two range reads (seven cache lines for 16
//!   processes, against on the order of a hundred when every register was
//!   its own allocation), each adding its length to the reader's tally
//!   of the bank, as reading slot by slot would. The own slot is mirrored locally (§3.2) and must
//!   be neither read nor counted, so the slice is split around it.
//!
//!   Reading all of `STOP[slice]` *before* any of `PROGRESS[slice]` keeps
//!   the one ordering Figure 2 depends on: each `STOP[k]` (line 15) is read
//!   before its `PROGRESS[k]` (line 16). A new leader executes line 8
//!   (`PROGRESS[k]++`) and then line 9 (`STOP[k] ← false`); a scanner that
//!   sees `STOP[k] = false` therefore reads `PROGRESS[k]` after the
//!   increment that preceded the flag and finds it fresh. Read the other
//!   way round, a wall-clock scanner could take `PROGRESS[k]` before line
//!   8 and `STOP[k]` after line 9 — stale progress with the flag already
//!   low — and suspect a leader that had just started heartbeating. (In
//!   the simulator a pass is one atomic step and no order is observable.)

use std::cell::RefCell;
use std::sync::Arc;

use omega_registers::sync::Mutex;
use omega_registers::{EpochedNatMatrix, FlagArray, MemorySpace, NatArray, ProcessId, ProcessSet};

use crate::candidates::{elect_least_suspected, CandidateInit};
use crate::OmegaProcess;

/// Number of processes examined per sharded `T3` pass (and the threshold
/// below which the scan is unsharded, i.e. exactly the paper's Figure 2).
pub const T3_SHARD_SIZE: usize = 16;

/// The shared copies of the `SUSPICIONS` rows, one per matrix, from which
/// every [`SuspicionCache`] of the system takes the rows it holds.
///
/// A cache adopts the row published for `j` only when it equals what the
/// cache itself just read, so sharing never hands a process a value it
/// did not read: a frozen view under a partition, or a snapshot torn by a
/// racing write on a wall backend, simply ends up in a row of its own.
#[derive(Debug)]
pub(crate) struct SuspicionRows {
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

impl SuspicionRows {
    pub(crate) fn new(n: usize) -> Self {
        let zero: Arc<[u64]> = vec![0; n].into();
        SuspicionRows {
            published: (0..n).map(|_| Mutex::new(Arc::clone(&zero))).collect(),
            spares: Mutex::new(Vec::new()),
            zero,
        }
    }

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

/// Epoch-validated local view of the foreign rows of a `SUSPICIONS`
/// matrix, with an incrementally maintained per-column aggregate.
///
/// The view of each row is an immutable row shared through the matrix's
/// [`SuspicionRows`]: in a quiescent run every process holds the same
/// allocation of row `j`, so a cache costs `n` pointers rather than `n²`
/// words.
///
/// Shared by [`Alg1Process`] and [`Alg2Process`](crate::Alg2Process) (the
/// matrix layout is identical in Figures 2 and 5).
#[derive(Debug)]
pub(crate) struct SuspicionCache {
    /// Identity of the owning process (its row is mirrored elsewhere).
    pid: ProcessId,
    /// `rows[j]` — last snapshot of `SUSPICIONS[j][·]` (row `pid` unused).
    rows: Vec<Arc<[u64]>>,
    /// Row epoch each snapshot was taken at; `u64::MAX` = never read.
    seen: Vec<u64>,
    /// Matrix-global epoch the last full validation pass ran at;
    /// `u64::MAX` = no pass yet. When it still matches, `refresh` is O(1).
    seen_global: u64,
    /// `totals[k] = Σ_{j≠pid} rows[j][k]`.
    totals: Vec<u64>,
    /// Scratch buffer for row snapshots.
    buf: Vec<u64>,
}

impl SuspicionCache {
    pub(crate) fn new(shared: &SuspicionRows, pid: ProcessId) -> Self {
        let n = shared.published.len();
        SuspicionCache {
            pid,
            rows: vec![Arc::clone(&shared.zero); n],
            seen: vec![u64::MAX; n],
            seen_global: u64::MAX,
            totals: vec![0; n],
            buf: vec![0; n],
        }
    }

    /// Brings every stale foreign row up to date (one batched snapshot per
    /// dirty row; clean rows cost no shared reads and are credited to the
    /// space's [`ScanCounters`](omega_registers::ScanCounters)). Returns
    /// whether any row was re-read (callers use this to invalidate
    /// election caches).
    ///
    /// Two cost tiers, neither performing a shared read-modify-write on
    /// its hot path:
    ///
    /// * **Quiescent, O(1)** — the matrix-global epoch is unchanged since
    ///   the last pass, which proves every per-row epoch is unchanged; the
    ///   whole loop is skipped and all `n − 1` foreign rows are credited
    ///   as skipped in one batch (exactly what the per-row walk would
    ///   have credited).
    /// * **Dirty, O(n) validation** — walk the row epochs, re-snapshot the
    ///   moved ones, batch-credit the clean ones. A re-read row whose
    ///   contents did not change leaves the totals alone; either way the
    ///   cache then holds the copy `shared` offers for what it read.
    pub(crate) fn refresh(
        &mut self,
        suspicions: &EpochedNatMatrix,
        shared: &SuspicionRows,
    ) -> bool {
        let n = suspicions.n();
        // Read the global epoch *before* the row walk: a write racing the
        // walk leaves `seen_global` behind the bump it missed, so the next
        // refresh takes the slow path and observes it.
        let global = suspicions.version();
        if self.seen_global == global {
            if n > 1 {
                suspicions.note_rows_skipped(n as u64 - 1);
            }
            return false;
        }
        let mut rows_skipped = 0u64;
        let mut changed = false;
        for j in ProcessId::all(n) {
            if j == self.pid {
                continue;
            }
            let version = suspicions.row_version(j);
            if self.seen[j.index()] == version {
                rows_skipped += 1;
                continue;
            }
            let seen = suspicions.snapshot_row_into(j, self.pid, &mut self.buf);
            let held = &mut self.rows[j.index()];
            let held_matches = **held == *self.buf;
            if !held_matches {
                for ((total, old), new) in self.totals.iter_mut().zip(held.iter()).zip(&self.buf) {
                    // total ≥ old by construction: old is one of its summands.
                    *total = *total - *old + *new;
                }
            }
            shared.share(j, held, &self.buf, held_matches);
            self.seen[j.index()] = seen;
            changed = true;
        }
        if rows_skipped > 0 {
            suspicions.note_rows_skipped(rows_skipped);
        }
        self.seen_global = global;
        changed
    }

    /// Cached `Σ_{j≠pid} SUSPICIONS[j][k]`.
    pub(crate) fn foreign_total(&self, k: ProcessId) -> u64 {
        self.totals[k.index()]
    }

    /// The copy of row `j` this cache holds.
    #[cfg(test)]
    fn row(&self, j: ProcessId) -> &Arc<[u64]> {
        &self.rows[j.index()]
    }

    /// Whether `totals` is the column sum of the foreign rows held.
    #[cfg(test)]
    fn totals_match_rows(&self) -> bool {
        (0..self.totals.len()).all(|k| {
            let column: u64 = ProcessId::all(self.rows.len())
                .filter(|&j| j != self.pid)
                .map(|j| self.rows[j.index()][k])
                .sum();
            column == self.totals[k]
        })
    }
}

/// The dense cache — a private copy of every foreign row in every process —
/// kept as the reference the shared rows are tested against.
#[cfg(test)]
#[derive(Debug)]
struct DenseSuspicionCache {
    pid: ProcessId,
    rows: Vec<Vec<u64>>,
    seen: Vec<u64>,
    totals: Vec<u64>,
    buf: Vec<u64>,
}

#[cfg(test)]
impl DenseSuspicionCache {
    fn new(n: usize, pid: ProcessId) -> Self {
        DenseSuspicionCache {
            pid,
            rows: vec![vec![0; n]; n],
            seen: vec![u64::MAX; n],
            totals: vec![0; n],
            buf: vec![0; n],
        }
    }

    /// [`SuspicionCache::refresh`]'s dirty path, into private rows.
    fn refresh(&mut self, suspicions: &EpochedNatMatrix) {
        for j in ProcessId::all(suspicions.n()) {
            if j == self.pid || self.seen[j.index()] == suspicions.row_version(j) {
                continue;
            }
            let seen = suspicions.snapshot_row_into(j, self.pid, &mut self.buf);
            let old = &mut self.rows[j.index()];
            for ((total, old), new) in self.totals.iter_mut().zip(old.iter_mut()).zip(&self.buf) {
                *total = *total - *old + *new;
                *old = *new;
            }
            self.seen[j.index()] = seen;
        }
    }

    fn foreign_total(&self, k: ProcessId) -> u64 {
        self.totals[k.index()]
    }
}

/// Round-robin cursor over `[0, n)` in slices of at most
/// [`T3_SHARD_SIZE`], for sharded `T3` scans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardCursor {
    n: usize,
    shard: usize,
    next: usize,
}

impl ShardCursor {
    pub(crate) fn new(n: usize, shard: usize) -> Self {
        ShardCursor {
            n,
            shard: shard.max(1),
            next: 0,
        }
    }

    /// The slice the next pass must scan; advances the cursor.
    pub(crate) fn advance(&mut self) -> std::ops::Range<usize> {
        let start = self.next;
        let end = (start + self.shard).min(self.n);
        self.next = if end >= self.n { 0 } else { end };
        start..end
    }
}

/// Lines 15–16 for every `k ≠ reader` in `shard`, shared by
/// [`Alg1Process`] and [`MwmrProcess`](crate::MwmrProcess) (their
/// `STOP`/`PROGRESS` arrays are the same layout): range-reads `STOP` and
/// then `PROGRESS` on behalf of `reader` — in that order: every `STOP[k]`
/// is read before its `PROGRESS[k]` (module docs) — and hands
/// `(k, STOP[k], PROGRESS[k])` to `visit`. The shard is split around the
/// reader's own slot, which is neither read nor counted (a range read
/// counts every slot it covers). Values pass through the stack,
/// [`T3_SHARD_SIZE`] at a time, so a wider-than-default shard costs no
/// per-process scratch.
pub(crate) fn scan_heartbeats(
    stop: &FlagArray,
    progress: &NatArray,
    reader: ProcessId,
    shard: std::ops::Range<usize>,
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

/// The Figure-2 shared register layout.
///
/// One instance is shared (via [`Arc`]) by all `n` [`Alg1Process`]es of a
/// system.
#[derive(Debug)]
pub struct Alg1Memory {
    n: usize,
    progress: NatArray,
    stop: FlagArray,
    suspicions: EpochedNatMatrix,
    /// The processes' shared copies of the `SUSPICIONS` rows.
    suspicion_rows: SuspicionRows,
}

impl Alg1Memory {
    /// Allocates the `PROGRESS`/`STOP`/`SUSPICIONS` registers in `space`
    /// with the paper's initial values (naturals 0, booleans `true`).
    #[must_use]
    pub fn new(space: &MemorySpace) -> Arc<Self> {
        let n = space.n_processes();
        Arc::new(Alg1Memory {
            n,
            progress: space.nat_array("PROGRESS", |_| 0),
            stop: space.flag_array("STOP", |_| true),
            suspicions: space.epoched_nat_row_matrix("SUSPICIONS", |_, _| 0),
            suspicion_rows: SuspicionRows::new(n),
        })
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Unattributed view of `PROGRESS[k]`, for harnesses and experiments.
    #[must_use]
    pub fn peek_progress(&self, k: ProcessId) -> u64 {
        self.progress.get(k).peek()
    }

    /// Unattributed view of `STOP[k]`.
    #[must_use]
    pub fn peek_stop(&self, k: ProcessId) -> bool {
        self.stop.get(k).peek()
    }

    /// Unattributed view of `SUSPICIONS[j][k]`.
    #[must_use]
    pub fn peek_suspicions(&self, j: ProcessId, k: ProcessId) -> u64 {
        self.suspicions.get(j, k).peek()
    }

    /// Unattributed total suspicion count of `k`: `Σ_j SUSPICIONS[j][k]`.
    #[must_use]
    pub fn peek_total_suspicions(&self, k: ProcessId) -> u64 {
        ProcessId::all(self.n)
            .map(|j| self.suspicions.get(j, k).peek())
            .sum()
    }

    /// Overwrites every register with arbitrary values derived from `seed`
    /// — the paper's footnote 7 allows arbitrary initial shared state; the
    /// self-stabilization experiments start from here.
    pub fn corrupt(&self, seed: u64) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for pid in ProcessId::all(self.n) {
            self.progress.get(pid).poke(next() % 1_000);
            self.stop.get(pid).poke(next() % 2 == 0);
        }
        for j in ProcessId::all(self.n) {
            for k in ProcessId::all(self.n) {
                // Epoch-bumping poke: live processes with a populated scan
                // cache must observe the corruption on their next query.
                self.suspicions.poke(j, k, next() % 100);
            }
        }
    }
}

/// One process of Algorithm 1.
///
/// # Examples
///
/// Driving two processes by hand (outside any scheduler):
///
/// ```
/// use std::sync::Arc;
/// use omega_core::{Alg1Memory, Alg1Process, OmegaProcess};
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// let memory = Alg1Memory::new(&space);
/// let mut p0 = Alg1Process::new(Arc::clone(&memory), ProcessId::new(0));
/// let mut p1 = Alg1Process::new(memory, ProcessId::new(1));
///
/// // Both initially trust everyone; identities break the tie: p0 leads.
/// assert_eq!(p0.leader(), ProcessId::new(0));
/// assert_eq!(p1.leader(), ProcessId::new(0));
/// p0.t2_step(); // p0 heartbeats
/// p1.t2_step(); // p1 demotes itself (sets STOP)
/// ```
#[derive(Debug)]
pub struct Alg1Process {
    pid: ProcessId,
    mem: Arc<Alg1Memory>,
    /// `candidates_i` — invariant: always contains `pid`.
    candidates: ProcessSet,
    /// `last_i[k]` — greatest `PROGRESS[k]` value seen (line 19).
    last: Vec<u64>,
    /// Whether `last[k]` holds a real observation yet; arbitrary initial
    /// register values make `0` an unsafe sentinel.
    last_valid: Vec<bool>,
    /// Local mirror of `PROGRESS[pid]` (owner-side copy).
    my_progress: u64,
    /// Local mirror of `STOP[pid]`.
    my_stop: bool,
    /// Local mirror of the owned `SUSPICIONS[pid][·]` row.
    my_suspicions: Vec<u64>,
    /// Running `max_k my_suspicions[k]` — exact, because entries only ever
    /// increment — so the line-27 timeout is O(1) per timer fire instead
    /// of an O(n) rescan.
    my_suspicions_max: u64,
    /// Additive slack of the line-27 timeout (the paper uses 1).
    timeout_slack: u64,
    /// Leader estimate cached from the latest `T2` evaluation.
    cached: Option<ProcessId>,
    /// Epoch-validated view of the foreign `SUSPICIONS` rows (interior
    /// mutability: `leader()` is a `&self` query but refreshes the cache).
    scan: RefCell<SuspicionCache>,
    /// Memoized `T1` election result, valid while its inputs — the scan
    /// cache totals, `candidates`, and the mirrored own suspicion row —
    /// are unchanged. `None` = stale, recompute.
    election: std::cell::Cell<Option<ProcessId>>,
    /// Round-robin cursor of the sharded `T3` scan.
    t3_cursor: ShardCursor,
}

impl Alg1Process {
    /// Creates process `pid` over `mem`, initially trusting everyone.
    #[must_use]
    pub fn new(mem: Arc<Alg1Memory>, pid: ProcessId) -> Self {
        Alg1Process::with_candidates(mem, pid, CandidateInit::Full)
    }

    /// Creates process `pid` with an explicit initial candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for the memory's system size.
    #[must_use]
    pub fn with_candidates(mem: Arc<Alg1Memory>, pid: ProcessId, init: CandidateInit) -> Self {
        let n = mem.n();
        assert!(pid.index() < n, "{pid} out of range for n={n}");
        // Owner-side mirrors start from the *actual* register contents so
        // that a corrupted initial state is handled like the paper requires
        // (the algorithm is self-stabilizing w.r.t. shared variables).
        let my_progress = mem.progress.get(pid).peek();
        let my_stop = mem.stop.get(pid).peek();
        let my_suspicions: Vec<u64> = ProcessId::all(n)
            .map(|k| mem.suspicions.get(pid, k).peek())
            .collect();
        let my_suspicions_max = my_suspicions.iter().copied().max().unwrap_or(0);
        Alg1Process {
            pid,
            candidates: init.materialize(n, pid),
            last: vec![0; n],
            last_valid: vec![false; n],
            my_progress,
            my_stop,
            my_suspicions,
            my_suspicions_max,
            timeout_slack: 1,
            cached: None,
            scan: RefCell::new(SuspicionCache::new(&mem.suspicion_rows, pid)),
            election: std::cell::Cell::new(None),
            t3_cursor: ShardCursor::new(n, T3_SHARD_SIZE),
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
        assert!(shard >= 1, "a T3 pass must scan at least one process");
        self.t3_cursor = ShardCursor::new(self.mem.n(), shard);
        self
    }

    /// Sets the additive slack of the timer formula (Figure 2, line 27
    /// uses `max_k SUSPICIONS[i][k] + 1`, i.e. slack 1). Larger slack makes
    /// followers more patient: fewer spurious suspicions during chaotic
    /// periods, slower reaction to a genuinely crashed leader. Provided for
    /// the ablation experiments; correctness holds for any slack ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `slack == 0` (the timeout must exceed the suspicion max
    /// for Lemma 2's argument to apply).
    #[must_use]
    pub fn with_timeout_slack(mut self, slack: u64) -> Self {
        assert!(slack >= 1, "timeout slack must be at least 1");
        self.timeout_slack = slack;
        self
    }

    /// The shared memory this process runs over.
    #[must_use]
    pub fn memory(&self) -> &Arc<Alg1Memory> {
        &self.mem
    }

    /// Current candidate set (test/diagnostic view).
    #[must_use]
    pub fn candidates(&self) -> &ProcessSet {
        &self.candidates
    }

    /// Total suspicions of candidate `k` as seen by this process —
    /// `Σ_j SUSPICIONS[j][k]` (line 3) — from the refreshed cache plus the
    /// locally mirrored own row. Callers must `refresh` the cache first.
    fn total_suspicions(&self, scan: &SuspicionCache, k: ProcessId) -> u64 {
        scan.foreign_total(k) + self.my_suspicions[k.index()]
    }

    /// The epoch-validated view of the foreign rows, as last refreshed.
    #[cfg(test)]
    fn suspicion_cache(&self) -> std::cell::Ref<'_, SuspicionCache> {
        self.scan.borrow()
    }
}

impl OmegaProcess for Alg1Process {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn n(&self) -> usize {
        self.mem.n()
    }

    /// Task `T1` (lines 1–5): elect the least-suspected candidate.
    ///
    /// Reads only the `SUSPICIONS` rows whose epoch moved since the last
    /// query; in a stabilized run this performs no shared reads at all,
    /// and — because the election's inputs are then provably unchanged —
    /// serves the memoized winner without rescanning the candidate set.
    fn leader(&self) -> ProcessId {
        let mut scan = self.scan.borrow_mut();
        let changed = scan.refresh(&self.mem.suspicions, &self.mem.suspicion_rows);
        if changed {
            self.election.set(None);
        } else if let Some(winner) = self.election.get() {
            return winner;
        }
        let winner = elect_least_suspected(&self.candidates, |k| self.total_suspicions(&scan, k))
            .expect("candidates always contain self");
        self.election.set(Some(winner));
        winner
    }

    /// One iteration of task `T2` (lines 6–12).
    fn t2_step(&mut self) {
        let leader = self.leader();
        self.cached = Some(leader);
        if leader == self.pid {
            // Line 8: heartbeat.
            self.my_progress = self.my_progress.wrapping_add(1);
            self.mem
                .progress
                .get(self.pid)
                .write(self.pid, self.my_progress);
            // Line 9: announce candidacy.
            if self.my_stop {
                self.my_stop = false;
                self.mem.stop.get(self.pid).write(self.pid, false);
            }
        } else {
            // Line 11: withdraw.
            if !self.my_stop {
                self.my_stop = true;
                self.mem.stop.get(self.pid).write(self.pid, true);
            }
        }
    }

    /// Task `T3` body (lines 13–27) over one round-robin shard of at most
    /// [`T3_SHARD_SIZE`] processes (the whole system when `n` fits in one
    /// shard). Returns the next timeout value `max_k SUSPICIONS[i][k] + 1`.
    fn on_timer_expire(&mut self) -> u64 {
        // The scan below may change `candidates` and the own suspicion row
        // — both election inputs.
        self.election.set(None);
        let (mem, shard) = (&*self.mem, self.t3_cursor.advance());
        // Lines 15–16, for every k of the shard but this process.
        scan_heartbeats(
            &mem.stop,
            &mem.progress,
            self.pid,
            shard,
            |k, stop_k, progress_k| {
                let fresh = !self.last_valid[k.index()] || progress_k != self.last[k.index()];
                if fresh {
                    // Lines 17–19: k made progress — it is a live candidate.
                    self.candidates.insert(k);
                    self.last[k.index()] = progress_k;
                    self.last_valid[k.index()] = true;
                } else if stop_k {
                    // Lines 20–21: k resigned voluntarily.
                    self.candidates.remove(k);
                } else if self.candidates.contains(k) {
                    // Lines 22–24: suspect k.
                    let bumped = self.my_suspicions[k.index()] + 1;
                    self.my_suspicions[k.index()] = bumped;
                    self.my_suspicions_max = self.my_suspicions_max.max(bumped);
                    mem.suspicions.write(self.pid, k, self.pid, bumped);
                    self.candidates.remove(k);
                }
            },
        );
        self.mem.suspicions.counters().note_shard_pass();
        // Line 27 — computed entirely from owned (mirrored) registers.
        self.my_suspicions_max + self.timeout_slack
    }

    fn initial_timeout(&self) -> u64 {
        self.my_suspicions_max + self.timeout_slack
    }

    fn cached_leader(&self) -> Option<ProcessId> {
        self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn system(n: usize) -> (MemorySpace, Arc<Alg1Memory>, Vec<Alg1Process>) {
        let space = MemorySpace::new(n);
        let mem = Alg1Memory::new(&space);
        let procs = ProcessId::all(n)
            .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
            .collect();
        (space, mem, procs)
    }

    #[test]
    fn initial_leader_is_smallest_id() {
        let (_s, _m, procs) = system(4);
        for proc in &procs {
            assert_eq!(proc.leader(), p(0));
        }
    }

    #[test]
    fn t2_heartbeats_only_for_leader() {
        let (_s, mem, mut procs) = system(3);
        procs[0].t2_step();
        procs[1].t2_step();
        procs[2].t2_step();
        assert_eq!(mem.peek_progress(p(0)), 1);
        assert_eq!(mem.peek_progress(p(1)), 0);
        assert!(!mem.peek_stop(p(0)), "leader lowers its STOP flag");
        assert!(mem.peek_stop(p(1)), "followers raise STOP");
        assert_eq!(procs[1].cached_leader(), Some(p(0)));
    }

    #[test]
    fn t3_detects_progress_and_suspects_silent_candidates() {
        let (_s, mem, mut procs) = system(2);
        // p0 heartbeats once; p1's first scan observes fresh progress.
        procs[0].t2_step();
        let timeout = procs[1].on_timer_expire();
        assert!(procs[1].candidates().contains(p(0)));
        assert_eq!(timeout, 1, "no suspicions yet: timeout = 0 + 1");
        // p0 stays silent with STOP low: second scan suspects it.
        let _ = procs[1].on_timer_expire();
        assert_eq!(mem.peek_suspicions(p(1), p(0)), 1);
        assert!(!procs[1].candidates().contains(p(0)));
        // Timeout grew with the suspicion row.
        assert_eq!(procs[1].initial_timeout(), 2);
    }

    #[test]
    fn t3_respects_voluntary_stop() {
        let (_s, mem, mut procs) = system(2);
        // p1 resigns: STOP[1] stays true (initial) and no progress is made.
        // First scan by p0: PROGRESS[1] == 0 == last sentinel, but the
        // sentinel is invalid so the first scan treats it as fresh.
        let _ = procs[0].on_timer_expire();
        assert!(procs[0].candidates().contains(p(1)));
        // Second scan: no progress, STOP set → removed without suspicion.
        let _ = procs[0].on_timer_expire();
        assert!(!procs[0].candidates().contains(p(1)));
        assert_eq!(
            mem.peek_suspicions(p(0), p(1)),
            0,
            "no suspicion on voluntary stop"
        );
    }

    #[test]
    fn election_uses_global_suspicion_totals() {
        let space = MemorySpace::new(3);
        let mem = Alg1Memory::new(&space);
        // Totals: p0 → 2+1 = 3, p1 → 2, p2 → 4. Poke before spawning so the
        // owner-side mirrors pick the values up.
        mem.suspicions.get(p(1), p(0)).poke(2);
        mem.suspicions.get(p(2), p(0)).poke(1);
        mem.suspicions.get(p(0), p(1)).poke(2);
        mem.suspicions.get(p(0), p(2)).poke(4);
        let procs: Vec<Alg1Process> = ProcessId::all(3)
            .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
            .collect();
        for proc in &procs {
            assert_eq!(
                proc.leader(),
                p(1),
                "{} must elect the least suspected",
                proc.pid()
            );
        }
    }

    #[test]
    fn silent_self_proclaimed_candidate_gets_suspected_and_demoted() {
        let (_s, mem, mut procs) = system(2);
        // p0 claims candidacy (STOP low) but never heartbeats.
        mem.stop.get(p(0)).poke(false);
        let _ = procs[1].on_timer_expire(); // first scan: fresh (sentinel)
        let _ = procs[1].on_timer_expire(); // silent + STOP low → suspected
        assert_eq!(mem.peek_suspicions(p(1), p(0)), 1);
        assert_eq!(procs[1].leader(), p(1), "suspect removed from candidates");
    }

    #[test]
    fn own_candidacy_never_dropped() {
        let (_s, _m, mut procs) = system(3);
        for _ in 0..5 {
            for proc in procs.iter_mut() {
                proc.t2_step();
                let _ = proc.on_timer_expire();
            }
        }
        for proc in &procs {
            assert!(proc.candidates().contains(proc.pid()));
        }
    }

    #[test]
    fn wrapping_progress_still_registers_as_fresh() {
        let (_s, mem, mut procs) = system(2);
        mem.progress.get(p(0)).poke(u64::MAX);
        let mut proc0 = Alg1Process::new(Arc::clone(&mem), p(0));
        // Scan once so p1's `last` records MAX.
        let _ = procs[1].on_timer_expire();
        // Owner mirrors picked up the corrupted value and wrap on heartbeat.
        proc0.t2_step();
        assert_eq!(mem.peek_progress(p(0)), 0, "wrapped");
        let _ = procs[1].on_timer_expire();
        assert!(
            procs[1].candidates().contains(p(0)),
            "wrap is still progress"
        );
        assert_eq!(mem.peek_suspicions(p(1), p(0)), 0);
    }

    #[test]
    fn foreign_row_pokes_reach_a_populated_cache() {
        // Harness-side pokes go through the epoch-bumping path, so a
        // process whose scan cache is already warm must observe them on
        // its very next query (the own row stays mirrored, per §3.2 —
        // only foreign rows are at stake).
        let (_s, mem, procs) = system(3);
        assert_eq!(procs[0].leader(), p(0), "warm the cache");
        mem.suspicions.poke(p(1), p(0), 40);
        mem.suspicions.poke(p(2), p(0), 2);
        mem.suspicions.poke(p(1), p(2), 1);
        // New totals as p0 sees them: p0 → 42, p1 → 0, p2 → 1.
        assert_eq!(
            procs[0].leader(),
            p(1),
            "a populated cache must not serve pre-poke totals"
        );
    }

    #[test]
    fn corrupt_produces_arbitrary_but_deterministic_state() {
        let (_s, mem, _) = system(3);
        mem.corrupt(42);
        let a: Vec<u64> = ProcessId::all(3).map(|k| mem.peek_progress(k)).collect();
        let (_s2, mem2, _) = {
            let space = MemorySpace::new(3);
            let m = Alg1Memory::new(&space);
            (space, m, ())
        };
        mem2.corrupt(42);
        let b: Vec<u64> = ProcessId::all(3).map(|k| mem2.peek_progress(k)).collect();
        assert_eq!(a, b, "same seed, same corruption");
        assert_eq!(mem.n(), 3);
    }

    #[test]
    fn mirrors_initialized_from_corrupted_registers() {
        let space = MemorySpace::new(2);
        let mem = Alg1Memory::new(&space);
        mem.suspicions.get(p(0), p(1)).poke(41);
        let mut proc = Alg1Process::new(Arc::clone(&mem), p(0));
        // Timeout derives from the mirrored corrupted row (41 + 1).
        assert_eq!(proc.initial_timeout(), 42);
        // First scan observes p1 as fresh (sentinel invalid); second scan
        // sees STOP[1] = true (initial), so p1 resigns without a suspicion.
        let _ = proc.on_timer_expire();
        let _ = proc.on_timer_expire();
        assert_eq!(
            mem.peek_suspicions(p(0), p(1)),
            41,
            "voluntary stop: count unchanged"
        );
        // Once p1 claims candidacy without progressing, the suspicion
        // continues from the corrupted count — but only after p1 re-enters
        // the candidate set via fresh progress.
        mem.stop.get(p(1)).poke(false);
        mem.progress.get(p(1)).poke(7);
        let _ = proc.on_timer_expire(); // fresh → candidate again
        let _ = proc.on_timer_expire(); // silent + STOP low → suspicion 42
        assert_eq!(mem.peek_suspicions(p(0), p(1)), 42);
        assert_eq!(proc.initial_timeout(), 43);
    }

    #[test]
    fn a_pass_neither_reads_nor_counts_its_own_slots() {
        // n = 4 fits one shard, so every pass covers the own slot; n = 40
        // puts it at the edge of, inside and outside the pass's shard as
        // the cursor rotates.
        for (n, pid, passes) in [(4, 1, 3), (40, 16, 6), (40, 21, 6), (40, 39, 6)] {
            let (space, _mem, mut procs) = system(n);
            for _ in 0..passes {
                let _ = procs[pid].on_timer_expire();
            }
            // Each rotation reads every slot of `STOP` and `PROGRESS` but
            // the own one: an own-slot read would add one per rotation.
            let rotations = (passes / n.div_ceil(T3_SHARD_SIZE)) as u64;
            let stats = space.stats();
            for bank in stats.banks() {
                let name = &bank.names[0];
                let scanned = name.starts_with("STOP[") || name.starts_with("PROGRESS[");
                let expected = if scanned {
                    rotations * (n as u64 - 1)
                } else {
                    0
                };
                assert_eq!(
                    bank.reads[pid], expected,
                    "n={n}: p{pid} reading the bank of {name}"
                );
            }
        }
    }

    /// An instant block device that runs a hook just before serving its
    /// `fire_at`-th attributed read — the probe that lets a test execute
    /// another process's step *between* two reads of one `T3` pass.
    #[derive(Default)]
    struct ProbeDevice {
        blocks: omega_registers::sync::Mutex<std::collections::HashMap<u64, u64>>,
        reads: std::sync::atomic::AtomicUsize,
        fire_at: std::sync::atomic::AtomicUsize,
        hook: omega_registers::sync::Mutex<Option<Box<dyn FnMut() + Send>>>,
    }

    impl std::fmt::Debug for ProbeDevice {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("ProbeDevice")
        }
    }

    impl omega_registers::BlockDevice for ProbeDevice {
        fn read_block(&self, addr: u64) -> u64 {
            use std::sync::atomic::Ordering::SeqCst;
            if self.reads.fetch_add(1, SeqCst) + 1 == self.fire_at.load(SeqCst) {
                // Taken out first: the hook's own register accesses come
                // back through this device.
                let hook = self.hook.lock().take();
                if let Some(mut hook) = hook {
                    hook();
                }
            }
            self.peek_block(addr)
        }

        fn write_block(&self, addr: u64, value: u64) {
            self.poke_block(addr, value);
        }

        fn peek_block(&self, addr: u64) -> u64 {
            *self.blocks.lock().get(&addr).unwrap_or(&0)
        }

        fn poke_block(&self, addr: u64, value: u64) {
            self.blocks.lock().insert(addr, value);
        }
    }

    #[test]
    fn a_pass_racing_lines_8_and_9_does_not_suspect_the_new_leader() {
        use std::sync::atomic::Ordering::SeqCst;
        // p2 scans {p0, p1}: STOP[0], STOP[1], then PROGRESS[0],
        // PROGRESS[1]. `fire_at` places p0's lines 8–9 (`PROGRESS[0]++`,
        // then `STOP[0] ← false`) before the pass's k-th read.
        for fire_at in 1..=4 {
            let device = Arc::new(ProbeDevice::default());
            let space = MemorySpace::with_block_device(3, Arc::clone(&device) as _);
            let mem = Alg1Memory::new(&space);
            let mut leader = Alg1Process::new(Arc::clone(&mem), p(0));
            let mut scanner = Alg1Process::new(Arc::clone(&mem), p(2));
            // First pass: p2 records PROGRESS[0] = 0 as seen; p0 has not
            // started (STOP[0] is still raised).
            let _ = scanner.on_timer_expire();
            assert!(scanner.candidates().contains(p(0)));

            *device.hook.lock() = Some(Box::new(move || leader.t2_step()));
            device
                .fire_at
                .store(device.reads.load(SeqCst) + fire_at, SeqCst);
            let _ = scanner.on_timer_expire();
            assert!(
                device.hook.lock().is_none(),
                "fire_at={fire_at}: the race ran"
            );
            assert_eq!((mem.peek_progress(p(0)), mem.peek_stop(p(0))), (1, false));
            // Whatever the pass saw of STOP[0] — raised (the writes landed
            // after its read) or lowered — it must not have suspected p0:
            // a lowered flag is only ever read before the progress that
            // preceded it.
            assert_eq!(
                mem.peek_suspicions(p(2), p(0)),
                0,
                "fire_at={fire_at}: spurious suspicion of a leader that just heartbeat"
            );
            // Not vacuous: once p0 really goes silent with its flag
            // lowered, at most two further passes suspect it (the first
            // may still be catching up with the heartbeat).
            let _ = scanner.on_timer_expire();
            let _ = scanner.on_timer_expire();
            assert_eq!(mem.peek_suspicions(p(2), p(0)), 1, "fire_at={fire_at}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn process_pid_out_of_range_rejected() {
        let space = MemorySpace::new(2);
        let mem = Alg1Memory::new(&space);
        let _ = Alg1Process::new(mem, p(2));
    }

    #[test]
    fn two_process_mutual_election_converges_round_robin() {
        let (_s, _m, mut procs) = system(2);
        // Interleave T2 and T3 round-robin; p0 should end up sole leader.
        for _ in 0..20 {
            for proc in procs.iter_mut() {
                proc.t2_step();
            }
            for proc in procs.iter_mut() {
                let _ = proc.on_timer_expire();
            }
        }
        assert_eq!(procs[0].leader(), p(0));
        assert_eq!(procs[1].leader(), p(0));
        assert_eq!(procs[0].cached_leader(), Some(p(0)));
    }
}

/// The shared rows against the dense reference, and under OS threads.
#[cfg(test)]
mod shared_rows_tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use super::*;
    use crate::{Alg2Memory, Alg2Process};

    /// What the tests need of a process whose `leader()` reads through a
    /// [`SuspicionCache`].
    trait Cached: OmegaProcess {
        fn cache(&self) -> std::cell::Ref<'_, SuspicionCache>;
        fn matrix(&self) -> &EpochedNatMatrix;
        fn candidate_set(&self) -> &ProcessSet;
    }

    impl Cached for Alg1Process {
        fn cache(&self) -> std::cell::Ref<'_, SuspicionCache> {
            self.suspicion_cache()
        }
        fn matrix(&self) -> &EpochedNatMatrix {
            &self.mem.suspicions
        }
        fn candidate_set(&self) -> &ProcessSet {
            self.candidates()
        }
    }

    impl Cached for Alg2Process {
        fn cache(&self) -> std::cell::Ref<'_, SuspicionCache> {
            self.suspicion_cache()
        }
        fn matrix(&self) -> &EpochedNatMatrix {
            self.suspicion_matrix()
        }
        fn candidate_set(&self) -> &ProcessSet {
            self.candidates()
        }
    }

    /// xorshift64*, seeded.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }

        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound as u64) as usize
        }
    }

    /// `groups` random disjoint groups; a process drawn into none of them
    /// stays connected to everyone.
    fn random_groups(rng: &mut Rng, n: usize, groups: usize) -> Vec<Vec<ProcessId>> {
        let mut out = vec![Vec::new(); groups];
        for pid in ProcessId::all(n) {
            if let Some(group) = out.get_mut(rng.below(groups + 1)) {
                group.push(pid);
            }
        }
        out
    }

    /// `proc.leader()` against `dense`, refreshed right after it and so
    /// over the same view of the registers.
    fn check_against_dense<P: Cached>(proc: &P, dense: &mut DenseSuspicionCache) {
        let (pid, leader) = (proc.pid(), proc.leader());
        let matrix = proc.matrix();
        dense.refresh(matrix);
        let cache = proc.cache();
        for k in ProcessId::all(proc.n()) {
            assert_eq!(
                cache.foreign_total(k),
                dense.foreign_total(k),
                "{pid}: foreign total of {k}"
            );
        }
        assert!(cache.totals_match_rows(), "{pid}: totals of the rows held");
        // The own row is mirrored exactly: nobody else writes it.
        let expected = elect_least_suspected(proc.candidate_set(), |k| {
            dense.foreign_total(k) + matrix.get(pid, k).peek()
        });
        assert_eq!(Some(leader), expected, "{pid}: leader()");
    }

    /// Random `T2`/`T3` steps and partition, cut and heal transitions,
    /// each followed by one process's `leader()` checked against its dense
    /// twin; then a heal and a quiescent round, after which every process
    /// must hold the same allocation of each foreign row.
    fn against_dense<P: Cached>(space: &MemorySpace, mut procs: Vec<P>, seed: u64) {
        let n = procs.len();
        // Shown only when the test fails: which run to replay.
        println!("n = {n}, seed = {seed}");
        let mut rng = Rng::new(seed);
        let mut dense: Vec<DenseSuspicionCache> = ProcessId::all(n)
            .map(|pid| DenseSuspicionCache::new(n, pid))
            .collect();
        for _ in 0..40 * n {
            let p = rng.below(n);
            match rng.below(100) {
                0..=44 => procs[p].t2_step(),
                45..=89 => {
                    let _ = procs[p].on_timer_expire();
                }
                90..=93 => {
                    let groups = 2 + rng.below(2);
                    space.install_partition(&random_groups(&mut rng, n, groups));
                }
                94..=96 => {
                    let sides = random_groups(&mut rng, n, 2);
                    space.install_cut(&sides[0], &sides[1]);
                }
                _ => space.heal_partition(),
            }
            let q = rng.below(n);
            check_against_dense(&procs[q], &mut dense[q]);
        }
        // The heal makes every row dirty for everyone: each process
        // re-reads every foreign row once, all of them the live contents.
        space.heal_partition();
        for (proc, dense) in procs.iter().zip(&mut dense) {
            check_against_dense(proc, dense);
        }
        assert_one_copy_per_row(&procs);
    }

    /// Every process other than `j` holds the same allocation of row `j`.
    fn assert_one_copy_per_row<P: Cached>(procs: &[P]) {
        for j in ProcessId::all(procs[0].n()) {
            let caches: Vec<_> = procs
                .iter()
                .filter(|proc| proc.pid() != j)
                .map(Cached::cache)
                .collect();
            let first = caches[0].row(j);
            assert!(
                caches.iter().all(|cache| Arc::ptr_eq(cache.row(j), first)),
                "row {j} is one allocation"
            );
        }
    }

    const SIZES: [usize; 4] = [3, 5, 17, 40];

    /// Odd seeds start from `corrupt`ed registers.
    const SEEDS: std::ops::Range<u64> = 1..5;

    #[test]
    fn alg1_shared_rows_match_the_dense_reference() {
        for n in SIZES {
            for seed in SEEDS {
                let space = MemorySpace::new(n);
                let mem = Alg1Memory::new(&space);
                if seed % 2 == 1 {
                    mem.corrupt(seed);
                }
                let procs = ProcessId::all(n)
                    .map(|pid| Alg1Process::new(Arc::clone(&mem), pid))
                    .collect();
                against_dense::<Alg1Process>(&space, procs, seed * 1_000 + n as u64);
            }
        }
    }

    #[test]
    fn alg2_shared_rows_match_the_dense_reference() {
        for n in SIZES {
            for seed in SEEDS {
                let space = MemorySpace::new(n);
                let mem = Alg2Memory::new(&space);
                if seed % 2 == 1 {
                    mem.corrupt(seed);
                }
                let procs = ProcessId::all(n)
                    .map(|pid| Alg2Process::new(Arc::clone(&mem), pid))
                    .collect();
                against_dense::<Alg2Process>(&space, procs, seed * 1_000 + n as u64);
            }
        }
    }

    #[test]
    fn threads_keep_totals_exact_and_share_again_once_writes_stop() {
        const N: usize = 8;
        const WRITES: usize = 2_000;
        // Eager counters, as the wall backends build them.
        let space = MemorySpace::new(N);
        let mem = Alg1Memory::new(&space);
        let writing = Arc::new(AtomicUsize::new(2));
        let start = Arc::new(std::sync::Barrier::new(4));
        let (done, finished) = std::sync::mpsc::channel();
        let mut threads = Vec::new();
        // Two threads write the rows of p0, p1 and of p2, p3 ...
        for owners in [[0, 1], [2, 3]] {
            let (mem, writing) = (Arc::clone(&mem), Arc::clone(&writing));
            let (start, done) = (Arc::clone(&start), done.clone());
            threads.push(std::thread::spawn(move || {
                start.wait();
                for i in 0..WRITES {
                    for owner in owners.map(ProcessId::new) {
                        let k = ProcessId::new((i + owner.index()) % N);
                        let bumped = mem.suspicions.get(owner, k).peek() + 1;
                        mem.suspicions.write(owner, k, owner, bumped);
                    }
                }
                writing.fetch_sub(1, Ordering::Release);
                done.send(()).expect("the test waits");
                Vec::new()
            }));
        }
        // ... while two more run p4, p5 and p6, p7, querying `leader()`
        // until a pass has started after the last write.
        for pids in [[4, 5], [6, 7]] {
            let procs = pids.map(|i| Alg1Process::new(Arc::clone(&mem), ProcessId::new(i)));
            let (writing, start, done) = (Arc::clone(&writing), Arc::clone(&start), done.clone());
            threads.push(std::thread::spawn(move || {
                start.wait();
                loop {
                    let last_pass = writing.load(Ordering::Acquire) == 0;
                    for proc in &procs {
                        let _ = proc.leader();
                        assert!(proc.suspicion_cache().totals_match_rows(), "{}", proc.pid());
                    }
                    if last_pass {
                        break;
                    }
                }
                done.send(()).expect("the test waits");
                Vec::from(procs)
            }));
        }
        drop(done);
        for _ in 0..threads.len() {
            match finished.recv_timeout(Duration::from_secs(120)) {
                Ok(()) => {}
                // A thread panicked; its join below says why.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("deadlocked"),
            }
        }
        let readers: Vec<Alg1Process> = threads
            .into_iter()
            .flat_map(|thread| thread.join().expect("no thread panicked"))
            .collect();

        // The last pass read every row after its last write.
        for proc in &readers {
            for j in ProcessId::all(N).filter(|&j| j != proc.pid()) {
                let live: Vec<u64> = ProcessId::all(N)
                    .map(|k| mem.peek_suspicions(j, k))
                    .collect();
                assert_eq!(
                    **proc.suspicion_cache().row(j),
                    *live,
                    "{} row {j}",
                    proc.pid()
                );
            }
        }
        // Two readers racing on one row may each have published a copy.
        // Once every row is read again with nothing moving, they share.
        for j in ProcessId::all(N) {
            mem.suspicions.poke(j, j, mem.peek_suspicions(j, j));
        }
        for proc in &readers {
            let _ = proc.leader();
        }
        assert_one_copy_per_row(&readers);
    }
}
