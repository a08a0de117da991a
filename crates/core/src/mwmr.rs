//! Section 3.5(a): Algorithm 1 over nWnR registers.
//!
//! With multi-writer/multi-reader atomic registers, each column
//! `SUSPICIONS[·][k]` of the Figure-2 matrix collapses into a single shared
//! counter `SUSPICIONS[k]`: `n` registers instead of `n²`. A suspicion is
//! then a read-increment-write on the shared counter; concurrent increments
//! may overlap (an increment can be lost), which is harmless for the
//! algorithm's properties — the counter still only grows when some process
//! suspects `k`, and it stops growing exactly when suspicions stop.
//!
//! This file holds what §3.5(a) changes: the shared counters, the
//! `CounterCache` `T1` elects from, the suspicion and the timeout — its
//! [`Store`]. The rest is Figure 2's: the process and its memory are the
//! one heartbeat process in [`crate::heartbeat`], with line 8 and the `T3`
//! pass of lines 13–24; the register block, `T1`, lines 9 and 11 and the
//! epoch walk are in [`crate::fig2`]. A pass reads `STOP[shard]`, then
//! `PROGRESS[shard]`, then — for each `k` it suspects — the counter of `k`
//! before writing it back incremented; last, the timeout refreshes the
//! counter cache. A pass over a shard that no one wrote and that holds no
//! candidate but the scanner books its `STOP`/`PROGRESS` reads instead
//! and suspects no one; only the refresh then reads, and only counters
//! whose epoch moved.

use omega_registers::{MemorySpace, MwmrNatArray, ProcessId};

use crate::fig2::{EpochWalk, Registers};
use crate::heartbeat::{HeartbeatMemory, HeartbeatProcess, Store};

/// Why a version of the suspicion counters is always there.
const EPOCHED: &str = "SUSPICIONS is made by epoched_nat_mwmr_array";

/// The shared suspicion counters as one process last read them: what `T1`
/// elects from, each counter re-read only when its epoch moved.
#[derive(Debug)]
pub struct CounterCache {
    walk: EpochWalk,
    values: Vec<u64>,
    /// `max(values)`, recomputed only when a refresh re-reads something —
    /// the timeout formula's O(1) fast path.
    values_max: u64,
}

impl Registers<MwmrNatArray> {
    /// Unattributed view of the shared suspicion counter of `k`.
    #[must_use]
    pub fn peek_suspicions(&self, k: ProcessId) -> u64 {
        self.suspicions.get(k.index()).peek()
    }
}

/// §3.5(a)'s store: one shared suspicion counter per process, which every
/// process increments and re-reads when its epoch moved.
impl Store for MwmrNatArray {
    type View = CounterCache;

    fn allocate(space: &MemorySpace) -> Self {
        space.epoched_nat_mwmr_array("SUSPICIONS", space.n_processes(), |_| 0)
    }

    fn view(registers: &Registers<Self>, _: ProcessId) -> CounterCache {
        let n = registers.n();
        CounterCache {
            walk: EpochWalk::new(n, None, 1),
            values: vec![0; n],
            values_max: 0,
        }
    }

    /// Re-reads the counters whose epoch moved ([`EpochWalk::refresh`]).
    fn refresh(cache: &mut CounterCache, registers: &Registers<Self>, pid: ProcessId) -> bool {
        let (counters, values) = (&registers.suspicions, &mut cache.values);
        let reread = cache.walk.refresh(
            &registers.scan,
            || counters.version().expect(EPOCHED),
            |k| counters.slot_version(k).expect(EPOCHED),
            |slot| match slot {
                Some(k) => values[k] = counters.get(k).read(pid),
                // The first refresh: one batched snapshot, not n reads.
                None => {
                    counters.snapshot_into(pid, values);
                    registers.scan.note_snapshot();
                }
            },
        );
        if reread {
            cache.values_max = cache.values.iter().copied().max().unwrap_or(0);
        }
        reread
    }

    #[inline]
    fn total(cache: &CounterCache, k: ProcessId) -> u64 {
        cache.values[k.index()]
    }

    /// Read-increment-write on the shared counter; increments may race and
    /// be lost, which the variant tolerates.
    #[inline]
    fn suspect(_: &mut CounterCache, registers: &Registers<Self>, pid: ProcessId, k: ProcessId) {
        let counter = registers.suspicions.get(k.index());
        counter.write(pid, counter.read(pid) + 1);
    }

    /// Line 27 analogue: the timeout tracks the largest suspicion count
    /// this process can observe — from the epoch-validated cache, so clean
    /// counters cost no shared reads (and no O(n) rescan).
    #[inline]
    fn after_pass(
        cache: &mut CounterCache,
        registers: &Registers<Self>,
        pid: ProcessId,
    ) -> (u64, bool) {
        let reread = Self::refresh(cache, registers, pid);
        (cache.values_max + 1, reread)
    }

    fn initial_timeout(_: &CounterCache) -> u64 {
        1
    }
}

/// Shared register layout of the nWnR variant: `PROGRESS`/`STOP` as in
/// Figure 2, plus a single multi-writer suspicion counter per process.
pub type MwmrMemory = HeartbeatMemory<MwmrNatArray>;

/// One process of the nWnR variant: Figure 2's heartbeat process over the
/// shared counters.
pub type MwmrProcess = HeartbeatProcess<MwmrNatArray>;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::OmegaProcess;

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
        mem.suspicions.get(0).poke(5);
        mem.suspicions.get(2).poke(1);
        for proc in &procs {
            assert_eq!(proc.leader(), p(1));
        }
    }

    #[test]
    fn timeout_tracks_global_max() {
        let (_s, mem, mut procs) = system(2);
        mem.suspicions.get(0).poke(9);
        let t = procs[1].on_timer_expire();
        assert_eq!(t, 10);
    }

    #[test]
    fn poke_after_queries_is_observed() {
        // Epoch-bumping poke: a counter corrupted *after* a process has
        // populated its cache must still reach the next election.
        let (_s, mem, procs) = system(3);
        assert_eq!(procs[2].leader(), p(0));
        mem.suspicions.get(0).poke(50);
        mem.suspicions.get(1).poke(10);
        assert_eq!(procs[2].leader(), p(2), "cache must see the poked counters");
    }

    #[test]
    fn a_pass_neither_reads_nor_counts_its_own_slots() {
        let (space, _m, mut procs) = system(5);
        let _ = procs[3].on_timer_expire();
        // Every slot of the two arrays but its own: four reads of each.
        let stats = space.stats();
        let arrays: Vec<_> = (stats.banks())
            .filter(|bank| ["PROGRESS[0]", "STOP[0]"].contains(&&bank.names[0]))
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
