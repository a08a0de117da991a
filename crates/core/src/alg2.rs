//! Algorithm 2 (Figure 5): Ω with **bounded** shared memory.
//!
//! Algorithm 1 needs one unbounded register (the leader's `PROGRESS` entry).
//! Algorithm 2 removes it with a two-flag handshake per ordered process
//! pair: the unbounded `PROGRESS[0..n]` array and the local `last_i[·]`
//! arrays are replaced by boolean matrices
//!
//! * `PROGRESS[i][k]` — owned by `p_i` (the signaller): while `p_i`
//!   believes it is the leader it re-arms the flag with
//!   `PROGRESS[i][k] ← ¬LAST[i][k]` (line 8.R2), making the pair *unequal*;
//! * `LAST[i][k]` — owned by `p_k` (the observer): on seeing
//!   `PROGRESS[i][k] ≠ LAST[i][k]` the observer treats `p_i` as alive and
//!   *cancels* the signal with `LAST[i][k] ← PROGRESS[i][k]` (line 19.R1),
//!   making the pair equal again.
//!
//! "Pair unequal" therefore means "an alive signal is pending", which is the
//! Figure-5 replacement for "`PROGRESS[k]` grew since my last scan". The
//! `STOP` and `SUSPICIONS` registers are exactly as in Algorithm 1, and
//! `SUSPICIONS` stays bounded by Theorem 2's argument, so *every* shared
//! variable is bounded (Theorem 6). The price — mandated by the Theorem 5
//! lower bound — is that every correct process keeps writing its `LAST`
//! acknowledgement flags forever (Theorem 7), which is optimal for bounded
//! memory (Theorem 8).
//!
//! This file holds what Figure 5 changes: the handshake flags, lines
//! 8.R1–8.R3, and the `T3` loop with 16.R1–19.R1. The rest is Figure 2's:
//! the register block, `T1`, lines 9 and 11, the owned `SUSPICIONS` row
//! and the epoch walk in [`crate::fig2`]; lines 17–24 in
//! [`crate::heartbeat`].

use std::ops::Deref;
use std::sync::Arc;

use omega_registers::{FlagMatrix, MemorySpace, ProcessId, ProcessSet};

use crate::candidates::CandidateInit;
use crate::fig2::{corruption, Elector, Registers, SuspicionCache, SuspicionMatrix};
use crate::heartbeat::{judge, ShardCursor, Store, T3_SHARD_SIZE};
use crate::OmegaProcess;

/// The Figure-5 shared register layout.
#[derive(Debug)]
pub struct Alg2Memory {
    /// `PROGRESS[i][k]`, row-owned: `p_i` signals `p_k`.
    progress: FlagMatrix,
    /// `LAST[i][k]`, column-owned: `p_k` acknowledges `p_i`'s signal.
    last: FlagMatrix,
    pub(crate) registers: Registers<SuspicionMatrix>,
}

impl Alg2Memory {
    /// Allocates the handshake registers in `space` (booleans `false`/`true`
    /// per the paper's initialization convention, suspicion counts 0).
    #[must_use]
    pub fn new(space: &MemorySpace) -> Arc<Self> {
        Arc::new(Alg2Memory {
            progress: space.flag_row_matrix("HPROGRESS", |_, _| false),
            last: space.flag_column_matrix("LAST", |_, _| false),
            registers: Registers::new(space, SuspicionMatrix::allocate),
        })
    }

    /// Unattributed view of the signal flag `PROGRESS[i][k]`.
    #[must_use]
    pub fn peek_progress(&self, i: ProcessId, k: ProcessId) -> bool {
        self.progress.get(i, k).peek()
    }

    /// Unattributed view of the acknowledgement flag `LAST[i][k]`.
    #[must_use]
    pub fn peek_last(&self, i: ProcessId, k: ProcessId) -> bool {
        self.last.get(i, k).peek()
    }

    /// Whether `p_i` currently has an uncancelled alive-signal pending for
    /// `p_k` (`PROGRESS[i][k] ≠ LAST[i][k]`).
    #[must_use]
    pub fn signal_pending(&self, i: ProcessId, k: ProcessId) -> bool {
        self.peek_progress(i, k) != self.peek_last(i, k)
    }

    /// Overwrites every register with arbitrary values derived from `seed`
    /// (footnote 7: initial shared state can be arbitrary).
    pub fn corrupt(&self, seed: u64) {
        let mut next = corruption(seed);
        for j in ProcessId::all(self.n()) {
            self.stop.get(j).poke(next().is_multiple_of(2));
            for k in ProcessId::all(self.n()) {
                self.progress.get(j, k).poke(next().is_multiple_of(2));
                self.last.get(j, k).poke(next().is_multiple_of(2));
                // The poke moves the row's epoch: see Alg1Memory::corrupt.
                self.suspicions.cells.get(j, k).poke(next() % 100);
            }
        }
    }
}

/// `STOP`, `SUSPICIONS` and their `peek_*` views are Figure 2's block.
impl Deref for Alg2Memory {
    type Target = Registers<SuspicionMatrix>;

    fn deref(&self) -> &Self::Target {
        &self.registers
    }
}

/// One process of Algorithm 2.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use omega_core::{Alg2Memory, Alg2Process, OmegaProcess};
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// let memory = Alg2Memory::new(&space);
/// let mut p0 = Alg2Process::new(Arc::clone(&memory), ProcessId::new(0));
///
/// p0.t2_step(); // p0 believes it leads: raises alive-signals for peers
/// assert!(memory.signal_pending(ProcessId::new(0), ProcessId::new(1)));
/// ```
#[derive(Debug)]
pub struct Alg2Process {
    mem: Arc<Alg2Memory>,
    candidates: ProcessSet,
    /// Local mirror of the owned `LAST[k][pid]` column (owner-side copy).
    my_last: Vec<bool>,
    /// Round-robin cursor of the sharded `T3` scan.
    t3_cursor: ShardCursor,
    pub(crate) fig2: Elector<SuspicionCache>,
}

impl Alg2Process {
    /// Creates process `pid` over `mem`, initially trusting everyone.
    #[must_use]
    pub fn new(mem: Arc<Alg2Memory>, pid: ProcessId) -> Self {
        Alg2Process::with_candidates(mem, pid, CandidateInit::Full)
    }

    /// Creates process `pid` with an explicit initial candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for the memory's system size.
    #[must_use]
    pub fn with_candidates(mem: Arc<Alg2Memory>, pid: ProcessId, init: CandidateInit) -> Self {
        let n = mem.n();
        let fig2 = Elector::new(&mem.stop, pid, || {
            SuspicionMatrix::view(&mem.registers, pid)
        });
        Alg2Process {
            candidates: init.materialize(n, pid),
            my_last: ProcessId::all(n)
                .map(|k| mem.last.get(k, pid).peek())
                .collect(),
            t3_cursor: ShardCursor::new(n, T3_SHARD_SIZE),
            fig2,
            mem,
        }
    }

    /// Overrides the width of the sharded `T3` scan (default
    /// [`T3_SHARD_SIZE`]); `shard ≥ n` restores the paper's full scan.
    ///
    /// # Panics
    ///
    /// Panics if `shard == 0`.
    #[must_use]
    pub fn with_scan_shard(mut self, shard: usize) -> Self {
        self.t3_cursor = ShardCursor::new(self.mem.n(), shard);
        self
    }

    /// The shared memory this process runs over.
    #[must_use]
    pub fn memory(&self) -> &Arc<Alg2Memory> {
        &self.mem
    }

    /// Current candidate set (test/diagnostic view).
    #[must_use]
    pub fn candidates(&self) -> &ProcessSet {
        &self.candidates
    }
}

impl OmegaProcess for Alg2Process {
    fn pid(&self) -> ProcessId {
        self.fig2.pid
    }

    fn n(&self) -> usize {
        self.mem.n()
    }

    /// Task `T1` — unchanged from Algorithm 1.
    fn leader(&self) -> ProcessId {
        let (mem, pid) = (&*self.mem, self.fig2.pid);
        self.fig2.leader(
            &self.candidates,
            |rows| SuspicionMatrix::refresh(rows, &mem.registers, pid),
            SuspicionMatrix::total,
        )
    }

    /// One iteration of task `T2` (lines 6–12 with 8.R1–8.R3).
    fn t2_step(&mut self) {
        let leader = self.leader();
        let (mem, pid) = (&*self.mem, self.fig2.pid);
        self.fig2.t2_step(leader, &mem.stop, || {
            // Lines 8.R1–8.R3: raise an alive-signal towards every peer by
            // making PROGRESS[i][k] ≠ LAST[i][k].
            for k in ProcessId::all(mem.n()) {
                if k == pid {
                    continue;
                }
                let last = mem.last.get(pid, k).read(pid);
                mem.progress.get(pid, k).write(pid, !last);
            }
        });
    }

    /// Task `T3` body (lines 13–27 with 16.R1–19.R1) over one round-robin
    /// shard, as in [`Alg1Process`](crate::Alg1Process).
    fn on_timer_expire(&mut self) -> u64 {
        // The scan below may change `candidates` and the own suspicion row
        // — both election inputs.
        self.fig2.election.set(None);
        let (mem, pid) = (&*self.mem, self.fig2.pid);
        let rows = self.fig2.view.get_mut();
        for idx in self.t3_cursor.advance() {
            let k = ProcessId::new(idx);
            if k == pid {
                continue;
            }
            let stop_k = mem.stop.get(k).read(pid);
            // Line 16.R1.
            let progress_k = mem.progress.get(k, pid).read(pid);
            // Line 17.R1: signal pending ⇔ flags unequal.
            let fresh = progress_k != self.my_last[k.index()];
            if fresh {
                // Line 19.R1: cancel the signal.
                self.my_last[k.index()] = progress_k;
                mem.last.get(k, pid).write(pid, progress_k);
            }
            if judge(&mut self.candidates, k, fresh, stop_k) {
                SuspicionMatrix::suspect(rows, &mem.registers, pid, k);
            }
        }
        mem.scan.note_shard_pass();
        rows.timeout()
    }

    fn initial_timeout(&self) -> u64 {
        self.fig2.view.borrow().timeout()
    }

    fn cached_leader(&self) -> Option<ProcessId> {
        self.fig2.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn system(n: usize) -> (MemorySpace, Arc<Alg2Memory>, Vec<Alg2Process>) {
        let space = MemorySpace::new(n);
        let mem = Alg2Memory::new(&space);
        let procs = ProcessId::all(n)
            .map(|pid| Alg2Process::new(Arc::clone(&mem), pid))
            .collect();
        (space, mem, procs)
    }

    #[test]
    fn leader_raises_signals_for_all_peers() {
        let (_s, mem, mut procs) = system(3);
        procs[0].t2_step();
        assert!(mem.signal_pending(p(0), p(1)));
        assert!(mem.signal_pending(p(0), p(2)));
        assert!(!mem.signal_pending(p(1), p(0)), "only the leader signals");
        assert!(!mem.peek_stop(p(0)));
    }

    #[test]
    fn observer_cancels_signal_and_keeps_candidate() {
        let (_s, mem, mut procs) = system(2);
        procs[0].t2_step();
        assert!(mem.signal_pending(p(0), p(1)));
        let _ = procs[1].on_timer_expire();
        assert!(!mem.signal_pending(p(0), p(1)), "ack equalizes the flags");
        assert!(procs[1].candidates().contains(p(0)));
        assert_eq!(mem.peek_suspicions(p(1), p(0)), 0);
    }

    #[test]
    fn handshake_rearms_after_ack() {
        let (_s, mem, mut procs) = system(2);
        procs[0].t2_step();
        let _ = procs[1].on_timer_expire(); // ack
        procs[0].t2_step(); // re-arm: flags unequal again
        assert!(mem.signal_pending(p(0), p(1)));
        let _ = procs[1].on_timer_expire();
        assert!(!mem.signal_pending(p(0), p(1)));
        assert!(procs[1].candidates().contains(p(0)));
    }

    #[test]
    fn silent_candidate_is_suspected() {
        let (_s, mem, mut procs) = system(2);
        procs[0].t2_step(); // signal
        let _ = procs[1].on_timer_expire(); // ack, candidate
                                            // p0 now goes silent but keeps STOP low.
        let _ = procs[1].on_timer_expire(); // no signal → suspect
        assert_eq!(mem.peek_suspicions(p(1), p(0)), 1);
        assert!(!procs[1].candidates().contains(p(0)));
        assert_eq!(procs[1].leader(), p(1));
    }

    #[test]
    fn voluntary_stop_is_not_suspected() {
        let (_s, mem, mut procs) = system(2);
        // STOP[0] initial true, no signal pending: first scan is a fresh...
        // no — with equal flags and STOP set, p0 is removed voluntarily.
        let _ = procs[1].on_timer_expire();
        assert!(!procs[1].candidates().contains(p(0)));
        assert_eq!(mem.peek_suspicions(p(1), p(0)), 0);
    }

    #[test]
    fn timeout_grows_with_suspicions() {
        let (_s, _m, mut procs) = system(2);
        let t0 = procs[1].initial_timeout();
        procs[0].t2_step();
        let _ = procs[1].on_timer_expire();
        let t1 = procs[1].on_timer_expire(); // suspicion
        assert_eq!(t0, 1);
        assert_eq!(t1, 2);
    }

    #[test]
    fn corrupted_state_converges_pairwise() {
        let (_s, mem, _) = system(2);
        mem.corrupt(7);
        // Recreate processes after corruption so mirrors match registers.
        let mut p0 = Alg2Process::new(Arc::clone(&mem), p(0));
        let mut p1 = Alg2Process::new(Arc::clone(&mem), p(1));
        for _ in 0..30 {
            p0.t2_step();
            p1.t2_step();
            let _ = p0.on_timer_expire();
            let _ = p1.on_timer_expire();
        }
        assert_eq!(
            p0.leader(),
            p1.leader(),
            "handshake recovers from corruption"
        );
    }

    #[test]
    fn two_process_round_robin_converges() {
        let (_s, _m, mut procs) = system(2);
        for _ in 0..20 {
            for proc in procs.iter_mut() {
                proc.t2_step();
            }
            for proc in procs.iter_mut() {
                let _ = proc.on_timer_expire();
            }
        }
        assert_eq!(procs[0].leader(), procs[1].leader());
        let leader = procs[0].leader();
        assert!(leader == p(0) || leader == p(1));
        // And the elected leader keeps signalling while followers keep
        // acking — the Theorem 7 write pattern.
        let l = leader.index();
        let f = 1 - l;
        procs[l].t2_step();
        let pending = procs[f].memory().signal_pending(leader, p(f));
        assert!(pending);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pid_out_of_range_rejected() {
        let space = MemorySpace::new(2);
        let mem = Alg2Memory::new(&space);
        let _ = Alg2Process::new(mem, p(5));
    }

    #[test]
    fn own_candidacy_never_dropped() {
        let (_s, _m, mut procs) = system(3);
        for _ in 0..10 {
            for proc in procs.iter_mut() {
                proc.t2_step();
                let _ = proc.on_timer_expire();
            }
        }
        for proc in &procs {
            assert!(proc.candidates().contains(proc.pid()));
        }
    }
}
