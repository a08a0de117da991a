//! Section 3.5(a): Algorithm 1 over nWnR registers.
//!
//! With multi-writer/multi-reader atomic registers, each column
//! `SUSPICIONS[·][k]` of the Figure-2 matrix collapses into a single shared
//! counter `SUSPICIONS[k]`: `n` registers instead of `n²`. A suspicion is
//! then a read-increment-write on the shared counter; concurrent increments
//! may overlap (an increment can be lost), which is harmless for the
//! algorithm's properties — the counter still only grows when some process
//! suspects `k`, and it stops growing exactly when suspicions stop.

use std::cell::RefCell;
use std::sync::Arc;

use omega_registers::{
    EpochedMwmrNatArray, FlagArray, MemorySpace, NatArray, ProcessId, ProcessSet,
};

use crate::alg1::{scan_heartbeats, ShardCursor, T3_SHARD_SIZE};
use crate::candidates::{elect_least_suspected, CandidateInit};
use crate::OmegaProcess;

/// Epoch-validated local view of the shared suspicion counters: slot `k`
/// is re-read only when its modification epoch moved.
#[derive(Debug)]
struct CounterCache {
    seen: Vec<u64>,
    /// Array-global epoch of the last validation pass; `u64::MAX` = none
    /// yet. While it matches, `refresh` is O(1) (see
    /// [`SuspicionCache`](crate::alg1)).
    seen_global: u64,
    values: Vec<u64>,
    /// `max(values)`, recomputed only when a refresh re-reads something —
    /// the timeout formula's O(1) fast path.
    values_max: u64,
}

impl CounterCache {
    fn new(n: usize) -> Self {
        CounterCache {
            seen: vec![u64::MAX; n],
            seen_global: u64::MAX,
            values: vec![0; n],
            values_max: 0,
        }
    }

    /// Returns whether any slot was re-read (election-cache invalidation).
    fn refresh(&mut self, counters: &EpochedMwmrNatArray, reader: ProcessId) -> bool {
        // Global epoch first (read before any slot work, so a racing write
        // forces the next refresh down the slow path): unchanged means
        // every slot epoch is unchanged — skip the walk, credit the batch.
        let global = counters.version();
        if self.seen_global == global {
            counters.note_slots_skipped(counters.len() as u64);
            return false;
        }
        // Cold cache (every slot stale — the sentinel state of a fresh
        // process): take one batched array snapshot instead of n
        // version-checked single reads.
        if self.seen.iter().all(|&v| v == u64::MAX) {
            for (k, seen) in self.seen.iter_mut().enumerate() {
                *seen = counters.slot_version(k);
            }
            counters.array().snapshot_into(reader, &mut self.values);
            counters.counters().note_snapshot();
            self.values_max = self.values.iter().copied().max().unwrap_or(0);
            self.seen_global = global;
            return true;
        }
        let mut skipped = 0;
        let mut changed = false;
        for k in 0..counters.len() {
            if self.seen[k] == counters.slot_version(k) {
                skipped += 1;
                continue;
            }
            let (version, value) = counters.read_versioned(k, reader);
            self.values[k] = value;
            self.seen[k] = version;
            changed = true;
        }
        if skipped > 0 {
            counters.note_slots_skipped(skipped);
        }
        if changed {
            self.values_max = self.values.iter().copied().max().unwrap_or(0);
        }
        self.seen_global = global;
        changed
    }
}

/// Shared register layout of the nWnR variant: `PROGRESS`/`STOP` as in
/// Figure 2, plus a single multi-writer suspicion counter per process.
#[derive(Debug)]
pub struct MwmrMemory {
    n: usize,
    progress: NatArray,
    stop: FlagArray,
    suspicions: EpochedMwmrNatArray,
}

impl MwmrMemory {
    /// Allocates the variant's registers in `space`.
    #[must_use]
    pub fn new(space: &MemorySpace) -> Arc<Self> {
        let n = space.n_processes();
        Arc::new(MwmrMemory {
            n,
            progress: space.nat_array("PROGRESS", |_| 0),
            stop: space.flag_array("STOP", |_| true),
            suspicions: space.epoched_nat_mwmr_array("SUSPICIONS", n, |_| 0),
        })
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Unattributed view of the shared suspicion counter of `k`.
    #[must_use]
    pub fn peek_suspicions(&self, k: ProcessId) -> u64 {
        self.suspicions.get(k.index()).peek()
    }

    /// Unattributed view of `PROGRESS[k]`.
    #[must_use]
    pub fn peek_progress(&self, k: ProcessId) -> u64 {
        self.progress.get(k).peek()
    }
}

/// One process of the nWnR variant.
#[derive(Debug)]
pub struct MwmrProcess {
    pid: ProcessId,
    mem: Arc<MwmrMemory>,
    candidates: ProcessSet,
    last: Vec<u64>,
    last_valid: Vec<bool>,
    my_progress: u64,
    my_stop: bool,
    cached: Option<ProcessId>,
    /// Epoch-validated view of the shared suspicion counters.
    scan: RefCell<CounterCache>,
    /// Memoized `T1` winner (see [`Alg1Process`](crate::Alg1Process));
    /// `None` = stale.
    election: std::cell::Cell<Option<ProcessId>>,
    /// Round-robin cursor of the sharded `T3` scan.
    t3_cursor: ShardCursor,
}

impl MwmrProcess {
    /// Creates process `pid` over `mem`, initially trusting everyone.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for the memory's system size.
    #[must_use]
    pub fn new(mem: Arc<MwmrMemory>, pid: ProcessId) -> Self {
        let n = mem.n();
        assert!(pid.index() < n, "{pid} out of range for n={n}");
        let my_progress = mem.progress.get(pid).peek();
        let my_stop = mem.stop.get(pid).peek();
        MwmrProcess {
            pid,
            candidates: CandidateInit::Full.materialize(n, pid),
            last: vec![0; n],
            last_valid: vec![false; n],
            my_progress,
            my_stop,
            cached: None,
            scan: RefCell::new(CounterCache::new(n)),
            election: std::cell::Cell::new(None),
            t3_cursor: ShardCursor::new(n, T3_SHARD_SIZE),
            mem,
        }
    }

    /// The shared memory this process runs over.
    #[must_use]
    pub fn memory(&self) -> &Arc<MwmrMemory> {
        &self.mem
    }

    /// Current candidate set (test/diagnostic view).
    #[must_use]
    pub fn candidates(&self) -> &ProcessSet {
        &self.candidates
    }
}

impl OmegaProcess for MwmrProcess {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn n(&self) -> usize {
        self.mem.n()
    }

    fn leader(&self) -> ProcessId {
        let mut scan = self.scan.borrow_mut();
        let changed = scan.refresh(&self.mem.suspicions, self.pid);
        if changed {
            self.election.set(None);
        } else if let Some(winner) = self.election.get() {
            return winner;
        }
        let winner = elect_least_suspected(&self.candidates, |k| scan.values[k.index()])
            .expect("candidates always contain self");
        self.election.set(Some(winner));
        winner
    }

    fn t2_step(&mut self) {
        let leader = self.leader();
        self.cached = Some(leader);
        if leader == self.pid {
            self.my_progress = self.my_progress.wrapping_add(1);
            self.mem
                .progress
                .get(self.pid)
                .write(self.pid, self.my_progress);
            if self.my_stop {
                self.my_stop = false;
                self.mem.stop.get(self.pid).write(self.pid, false);
            }
        } else if !self.my_stop {
            self.my_stop = true;
            self.mem.stop.get(self.pid).write(self.pid, true);
        }
    }

    fn on_timer_expire(&mut self) -> u64 {
        // The scan below may change `candidates` and the shared counters —
        // election inputs.
        self.election.set(None);
        let (mem, shard) = (&*self.mem, self.t3_cursor.advance());
        // `STOP[shard]` then `PROGRESS[shard]` around the own slot, as in
        // [`Alg1Process`](crate::Alg1Process) (see its module docs for why
        // in that order).
        scan_heartbeats(
            &mem.stop,
            &mem.progress,
            self.pid,
            shard,
            |k, stop_k, progress_k| {
                let fresh = !self.last_valid[k.index()] || progress_k != self.last[k.index()];
                if fresh {
                    self.candidates.insert(k);
                    self.last[k.index()] = progress_k;
                    self.last_valid[k.index()] = true;
                } else if stop_k {
                    self.candidates.remove(k);
                } else if self.candidates.contains(k) {
                    // Read-increment-write on the shared counter; increments
                    // may race and be lost, which the variant tolerates.
                    let bumped = mem.suspicions.get(k.index()).read(self.pid) + 1;
                    mem.suspicions.write(k.index(), self.pid, bumped);
                    self.candidates.remove(k);
                }
            },
        );
        self.mem.suspicions.counters().note_shard_pass();
        // Line 27 analogue: the timeout tracks the largest suspicion count
        // this process can observe — from the epoch-validated cache, so
        // clean counters cost no shared reads (and no O(n) rescan).
        let mut scan = self.scan.borrow_mut();
        scan.refresh(&self.mem.suspicions, self.pid);
        scan.values_max + 1
    }

    fn initial_timeout(&self) -> u64 {
        1
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

    fn system(n: usize) -> (MemorySpace, Arc<MwmrMemory>, Vec<MwmrProcess>) {
        let space = MemorySpace::new(n);
        let mem = MwmrMemory::new(&space);
        let procs = ProcessId::all(n)
            .map(|pid| MwmrProcess::new(Arc::clone(&mem), pid))
            .collect();
        (space, mem, procs)
    }

    #[test]
    fn register_count_is_linear_not_quadratic() {
        let space = MemorySpace::new(8);
        let _mem = MwmrMemory::new(&space);
        // PROGRESS(8) + STOP(8) + SUSPICIONS(8) = 24, vs 8+8+64 for Figure 2.
        assert_eq!(space.register_count(), 24);
    }

    #[test]
    fn any_process_can_bump_any_counter() {
        let (_s, mem, mut procs) = system(3);
        // p0 claims candidacy but stays silent.
        mem.stop.get(p(0)).poke(false);
        let _ = procs[1].on_timer_expire(); // fresh
        let _ = procs[2].on_timer_expire(); // fresh
        let _ = procs[1].on_timer_expire(); // p1 suspects p0
        let _ = procs[2].on_timer_expire(); // p2 suspects p0 (same counter)
        assert_eq!(mem.peek_suspicions(p(0)), 2);
    }

    #[test]
    fn election_follows_shared_counters() {
        let (_s, mem, procs) = system(3);
        mem.suspicions.poke(0, 5);
        mem.suspicions.poke(2, 1);
        for proc in &procs {
            assert_eq!(proc.leader(), p(1));
        }
    }

    #[test]
    fn timeout_tracks_global_max() {
        let (_s, mem, mut procs) = system(2);
        mem.suspicions.poke(0, 9);
        let t = procs[1].on_timer_expire();
        assert_eq!(t, 10);
    }

    #[test]
    fn poke_after_queries_is_observed() {
        // Epoch-bumping poke: a counter corrupted *after* a process has
        // populated its cache must still reach the next election.
        let (_s, mem, procs) = system(3);
        assert_eq!(procs[2].leader(), p(0));
        mem.suspicions.poke(0, 50);
        mem.suspicions.poke(1, 10);
        assert_eq!(procs[2].leader(), p(2), "cache must see the poked counters");
    }

    #[test]
    fn a_pass_neither_reads_nor_counts_its_own_slots() {
        let (space, _m, mut procs) = system(5);
        let _ = procs[3].on_timer_expire();
        // Every slot of the two arrays but its own: four reads of each.
        let stats = space.stats();
        let arrays: Vec<_> = (stats.banks())
            .filter(|bank| ["PROGRESS[0]", "STOP[0]"].contains(&&*bank.names[0]))
            .map(|bank| bank.reads[3])
            .collect();
        assert_eq!(arrays, [4, 4], "p3's tallies of PROGRESS and STOP");
    }

    #[test]
    fn round_robin_converges() {
        let (_s, _m, mut procs) = system(3);
        for _ in 0..30 {
            for proc in procs.iter_mut() {
                proc.t2_step();
            }
            for proc in procs.iter_mut() {
                let _ = proc.on_timer_expire();
            }
        }
        let leaders: Vec<ProcessId> = procs.iter().map(|q| q.leader()).collect();
        assert!(
            leaders.windows(2).all(|w| w[0] == w[1]),
            "agree: {leaders:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pid_out_of_range_rejected() {
        let space = MemorySpace::new(1);
        let mem = MwmrMemory::new(&space);
        let _ = MwmrProcess::new(mem, p(9));
    }
}
