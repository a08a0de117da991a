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
//! This file holds what only Figure 2 does: the row-owned `SUSPICIONS`
//! store the process suspects in and times out from (its [`Store`]), the
//! timeout slack and `corrupt`. The process and its memory are Figure 2's
//! one heartbeat process, shared with §3.5(a), in [`crate::heartbeat`]:
//! `PROGRESS`, line 8 and the `T3` pass of lines 13–24, whose pass may be
//! booked (below). The register block, `T1`, lines 9 and 11, the owned
//! `SUSPICIONS` row (lines 22–24, 27) and the epoch walk are in
//! [`crate::fig2`].
//!
//! # Scaling past n ≈ 32
//!
//! Three read-avoidance layers keep `leader()` and `T3` cheap when `n`
//! reaches the hundreds, without changing what is elected or what is
//! counted, and a fourth makes the reads that remain cheap:
//!
//! * **Epoch-validated suspicion cache** — `leader()` re-reads only the
//!   `SUSPICIONS` rows whose epoch moved since the last query, so in a
//!   quiescent (stabilized) run it performs *zero* shared reads, and the
//!   processes share one copy of each row (see [`crate::fig2`]).
//! * **Sharded `T3` scan** — each timer expiry scans one round-robin slice
//!   of [`T3_SHARD_SIZE`](crate::T3_SHARD_SIZE) processes instead of all
//!   `n`. A slice pass is the paper's lines 13–26 verbatim for the slice
//!   members; each process is still checked on every full rotation, so
//!   suspicion accrual merely slows by the (constant) shard count — the
//!   eventual-leadership argument is unaffected. Systems with `n ≤ `
//!   [`T3_SHARD_SIZE`](crate::T3_SHARD_SIZE) scan exactly as in Figure 2.
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
//! * **Booked passes** — after stabilization only the leader writes, and
//!   only `PROGRESS[ℓ]`, so most shards are written by no one. In a
//!   system of more than one shard, a pass over a shard that holds no
//!   candidate but the scanner, and whose `PROGRESS`
//!   range version is the one this process read it at last, is provably a
//!   no-op: it books its reads (same tallies, same shard-pass count) and
//!   loads nothing. The rule, shared with [`MwmrProcess`](crate::MwmrProcess),
//!   and why it is sound, are in [`crate::heartbeat`]. A booked pass reads
//!   no `STOP` value, so the `STOP`-before-`PROGRESS` order above is moot
//!   for it; every pass that reads keeps it.

use omega_registers::ProcessId;

use crate::fig2::{corruption, SuspicionMatrix};
use crate::heartbeat::{HeartbeatMemory, HeartbeatProcess};

/// The Figure-2 shared register layout: `PROGRESS`, `STOP` and the
/// row-owned `SUSPICIONS` matrix.
///
/// One instance is shared (via [`Arc`](std::sync::Arc)) by all `n`
/// [`Alg1Process`]es of a system.
pub type Alg1Memory = HeartbeatMemory<SuspicionMatrix>;

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
pub type Alg1Process = HeartbeatProcess<SuspicionMatrix>;

impl Alg1Memory {
    /// Overwrites every register with arbitrary values derived from `seed`
    /// — the paper's footnote 7 allows arbitrary initial shared state; the
    /// self-stabilization experiments start from here.
    pub fn corrupt(&self, seed: u64) {
        let mut next = corruption(seed);
        for pid in ProcessId::all(self.n()) {
            self.progress.get(pid).poke(next() % 1_000);
            self.stop.get(pid).poke(next().is_multiple_of(2));
        }
        for j in ProcessId::all(self.n()) {
            for k in ProcessId::all(self.n()) {
                // The poke moves the row's epoch: live processes with a
                // populated scan cache observe the corruption next query.
                self.suspicions.cells.get(j, k).poke(next() % 100);
            }
        }
    }
}

impl Alg1Process {
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
        self.fig2.view.get_mut().slack = slack;
        self
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{OmegaProcess, T3_SHARD_SIZE};
    use omega_registers::MemorySpace;

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
        mem.suspicions.cells.get(p(1), p(0)).poke(2);
        mem.suspicions.cells.get(p(2), p(0)).poke(1);
        mem.suspicions.cells.get(p(0), p(1)).poke(2);
        mem.suspicions.cells.get(p(0), p(2)).poke(4);
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
        mem.suspicions.cells.get(p(1), p(0)).poke(40);
        mem.suspicions.cells.get(p(2), p(0)).poke(2);
        mem.suspicions.cells.get(p(1), p(2)).poke(1);
        // New totals as p0 sees them: p0 → 42, p1 → 0, p2 → 1.
        assert_eq!(
            procs[0].leader(),
            p(1),
            "a populated cache must not serve pre-poke totals"
        );
    }

    #[test]
    fn foreign_row_writes_through_a_register_view_reach_a_populated_cache() {
        // The row's bank moves its epoch on every write, whichever view
        // made it: a write through `get(j, k)` — not through any
        // matrix-level write path — must reach a warm cache too.
        let (_s, mem, procs) = system(3);
        assert_eq!(procs[0].leader(), p(0), "warm the cache");
        mem.suspicions.cells.get(p(1), p(0)).write(p(1), 40);
        mem.suspicions.cells.get(p(2), p(0)).write(p(2), 2);
        mem.suspicions.cells.get(p(1), p(2)).write(p(1), 1);
        assert_eq!(
            procs[0].leader(),
            p(1),
            "a populated cache must not serve pre-write totals"
        );
        let cache = procs[0].fig2.view.borrow();
        assert_eq!(
            (cache.foreign_total(p(0)), cache.foreign_total(p(2))),
            (42, 1)
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
        mem.suspicions.cells.get(p(0), p(1)).poke(41);
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
    fn a_poke_forces_a_pass_over_the_poked_shard() {
        // n = 20: p0's passes alternate between shards 0..16 and 16..20.
        let (_s, mem, mut procs) = system(20);
        let pass_over_16_to_20 = |proc: &mut Alg1Process| {
            let _ = proc.on_timer_expire();
            proc.on_timer_expire()
        };
        // Seen once (fresh by the sentinel), then resigned, then read at a
        // kept version, then booked.
        for _ in 0..4 {
            let _ = pass_over_16_to_20(&mut procs[0]);
        }
        assert!((16..20).all(|k| !procs[0].candidates().contains(p(k))));
        assert!(procs[0].heartbeats.booked > 0, "the memo hit");
        // A harness-side poke, as `corrupt` makes: the next pass reads.
        mem.progress.get(p(17)).poke(9);
        let _ = pass_over_16_to_20(&mut procs[0]);
        assert!(
            procs[0].candidates().contains(p(17)),
            "the poked slot is fresh"
        );
    }

    #[test]
    fn a_heal_forces_a_pass_over_progress_written_behind_the_cut() {
        let (space, mem, mut procs) = system(2);
        // p1 sees p0 once (the sentinel makes it fresh), then resigned.
        let _ = procs[1].on_timer_expire();
        let _ = procs[1].on_timer_expire();
        assert!(!procs[1].candidates().contains(p(0)));
        // Behind a cut p0 heartbeats once; p1 reads the frozen value and
        // keeps the version that already counts the heartbeat.
        space.install_partition(&[vec![p(0)], vec![p(1)]]);
        mem.progress.get(p(0)).write(p(0), 5);
        let _ = procs[1].on_timer_expire();
        assert!(!procs[1].candidates().contains(p(0)), "severed: frozen");
        // Nothing writes again; only the heal can tell p1 to read.
        space.heal_partition();
        let _ = procs[1].on_timer_expire();
        assert!(
            procs[1].candidates().contains(p(0)),
            "healed: the heartbeat behind the cut is fresh"
        );
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
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use crate::candidates::elect_least_suspected;
    use crate::fig2::testing::{DenseSuspicionCache, Figure2, Rng};
    use crate::fig2::SuspicionCache;
    use crate::{Alg2Memory, Alg2Process, OmegaProcess};
    use omega_registers::MemorySpace;

    /// A process whose `leader()` reads through a [`SuspicionCache`].
    trait Cached: Figure2<View = SuspicionCache, Suspicions = SuspicionMatrix> {}

    impl<P: Figure2<View = SuspicionCache, Suspicions = SuspicionMatrix>> Cached for P {}

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
        let (fig2, registers, candidates) = proc.parts();
        dense.refresh(&registers.suspicions.cells);
        let cache = fig2.view.borrow();
        for k in ProcessId::all(proc.n()) {
            assert_eq!(
                cache.foreign_total(k),
                dense.foreign_total(k),
                "{pid}: foreign total of {k}"
            );
        }
        assert!(cache.totals_match_rows(), "{pid}: totals of the rows held");
        // The own row is mirrored exactly: nobody else writes it.
        let expected = elect_least_suspected(candidates, |k| {
            dense.foreign_total(k) + registers.peek_suspicions(pid, k)
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
                .map(|proc| proc.parts().0.view.borrow())
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
                        let bumped = mem.peek_suspicions(owner, k) + 1;
                        mem.suspicions.cells.get(owner, k).write(owner, bumped);
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
                        let totals_match = proc.fig2.view.borrow().totals_match_rows();
                        assert!(totals_match, "{}", proc.pid());
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
                    **proc.fig2.view.borrow().row(j),
                    *live,
                    "{} row {j}",
                    proc.pid()
                );
            }
        }
        // Two readers racing on one row may each have published a copy.
        // Once every row is read again with nothing moving, they share.
        for j in ProcessId::all(N) {
            mem.suspicions
                .cells
                .get(j, j)
                .poke(mem.peek_suspicions(j, j));
        }
        for proc in &readers {
            let _ = proc.leader();
        }
        assert_one_copy_per_row(&readers);
    }
}

/// The `T3` memo against passes that always read: two identical systems
/// driven by one schedule, the twin forgetting every shard's version
/// before each of its passes.
#[cfg(test)]
mod memo_tests {
    use std::sync::Arc;

    use super::*;
    use crate::fig2::testing::Rng;
    use crate::heartbeat::Store;
    use crate::{OmegaProcess, T3_SHARD_SIZE};
    use omega_registers::{MemorySpace, MwmrNatArray};

    /// One system: its space, its memory, its processes, and what
    /// corrupting its memory does (Alg1: every register; Mwmr: nothing).
    struct System<S: Store> {
        space: MemorySpace,
        mem: Arc<HeartbeatMemory<S>>,
        procs: Vec<HeartbeatProcess<S>>,
        corrupt: fn(&HeartbeatMemory<S>, u64),
    }

    /// An `n`-process system over the store `S`, scanning shards of
    /// `width`, its memory corrupted by `corrupt`.
    fn system<S: Store>(
        n: usize,
        width: usize,
        corrupt: fn(&HeartbeatMemory<S>, u64),
    ) -> System<S> {
        let space =
            MemorySpace::with_instrumentation(n, omega_registers::Instrumentation::Deferred);
        let mem = HeartbeatMemory::new(&space);
        let procs = ProcessId::all(n)
            .map(|pid| HeartbeatProcess::new(Arc::clone(&mem), pid).with_scan_shard(width))
            .collect();
        System {
            space,
            mem,
            procs,
            corrupt,
        }
    }

    /// Whether `main` and `twin` agree: every process's candidates, `last`
    /// and `last_valid`, one process's `leader()`, and (if `stats`) the
    /// spaces' stats.
    fn agree<S: Store>(
        main: &mut System<S>,
        twin: &mut System<S>,
        q: usize,
        stats: bool,
        op: &str,
    ) {
        for (a, b) in main.procs.iter_mut().zip(&mut twin.procs) {
            let (a, b) = (a.heartbeats.state(), b.heartbeats.state());
            assert!(a == b, "{op}: candidates, last or last_valid differ");
        }
        let leaders = (main.procs[q].leader(), twin.procs[q].leader());
        assert_eq!(leaders.0, leaders.1, "{op}: p{q}'s leader");
        if stats {
            assert!(
                main.space.stats() == twin.space.stats(),
                "{op}: stats differ"
            );
        }
    }

    /// Drives `main` and `twin` through one random schedule, checking
    /// after every operation that they [`agree`] — on the stats too,
    /// except within the calm rounds of an n = 80 system, where a snapshot
    /// is n³ cells: there the stats are compared once a round (they are
    /// cumulative, so a difference stays). Returns the passes `main`
    /// booked. Each period is a storm of `n` random operations —
    /// steps, passes, corruption, partitions, cuts, heals, processes that
    /// stop stepping — then calm rounds of a step and a pass by every
    /// process still stepping, in turn, as the simulator schedules them,
    /// so that runs settle and the memo gets its chances.
    fn differential<S: Store>(
        main: &mut System<S>,
        twin: &mut System<S>,
        calm_rounds: usize,
        seed: u64,
    ) -> u64 {
        let n = main.procs.len();
        // Shown only when the test fails: which run to replay.
        println!("n = {n}, seed = {seed}");
        let mut rng = Rng::new(seed);
        let mut stepping: Vec<bool> = vec![true; n];
        let step = |main: &mut System<S>, twin: &mut System<S>, p: usize| {
            main.procs[p].t2_step();
            twin.procs[p].t2_step();
        };
        let pass = |main: &mut System<S>, twin: &mut System<S>, p: usize| {
            twin.procs[p].heartbeats.forget_versions();
            let timeouts = (
                main.procs[p].on_timer_expire(),
                twin.procs[p].on_timer_expire(),
            );
            assert_eq!(timeouts.0, timeouts.1, "p{p}'s timeout");
        };
        for period in 0..3 {
            for op in 0..n {
                let p = rng.below(n);
                match rng.below(100) {
                    0..=39 if stepping[p] => step(main, twin, p),
                    40..=84 if stepping[p] => pass(main, twin, p),
                    85..=86 => {
                        let (value, flag) = (rng.below(1_000) as u64, rng.below(2) == 0);
                        for system in [&mut *main, &mut *twin] {
                            system.mem.progress.get(ProcessId::new(p)).poke(value);
                            system.mem.stop.get(ProcessId::new(p)).poke(flag);
                        }
                    }
                    // Once only: the owners' mirrors of the corrupted
                    // SUSPICIONS rows then disagree with the registers,
                    // and the views they elect from may never meet again.
                    87 if period == 0 => {
                        let corruption = rng.below(1 << 20) as u64;
                        for system in [&mut *main, &mut *twin] {
                            (system.corrupt)(&system.mem, corruption);
                        }
                    }
                    88..=90 => {
                        let mut groups = vec![Vec::new(); 2];
                        for pid in ProcessId::all(n) {
                            if let Some(group) = groups.get_mut(rng.below(3)) {
                                group.push(pid);
                            }
                        }
                        main.space.install_partition(&groups);
                        twin.space.install_partition(&groups);
                    }
                    91..=93 => {
                        let (mut blinded, mut hidden) = (Vec::new(), Vec::new());
                        for pid in ProcessId::all(n) {
                            match rng.below(3) {
                                0 => blinded.push(pid),
                                1 => hidden.push(pid),
                                _ => {}
                            }
                        }
                        main.space.install_cut(&blinded, &hidden);
                        twin.space.install_cut(&blinded, &hidden);
                    }
                    94..=96 => {
                        main.space.heal_partition();
                        twin.space.heal_partition();
                    }
                    97 => stepping[p] = false,
                    _ => {}
                }
                let op = format!("period {period}, storm op {op}");
                agree(main, twin, rng.below(n), true, &op);
            }
            if period % 2 == 1 {
                // Under Alg1's severed rows the groups elect apart; heal
                // so that this calm stretch can settle on one leader.
                main.space.heal_partition();
                twin.space.heal_partition();
            }
            for round in 0..calm_rounds {
                let op = |p| format!("period {period}, round {round}: p{p}");
                for p in (0..n).filter(|&p| stepping[p]) {
                    step(main, twin, p);
                    agree(main, twin, p, n <= 40, &format!("{} steps", op(p)));
                    pass(main, twin, p);
                    agree(main, twin, p, n <= 40, &format!("{} passes", op(p)));
                }
                agree(main, twin, 0, true, &op(0));
            }
        }
        let booked = |system: &System<S>| -> u64 {
            (system.procs.iter())
                .map(|proc| proc.heartbeats.booked)
                .sum()
        };
        assert_eq!(booked(twin), 0, "the twin always reads");
        booked(main)
    }

    #[test]
    fn memoized_passes_match_passes_that_always_read() {
        let mut rng = Rng(7);
        for n in [20, 40, 80] {
            let mut booked = [0, 0];
            for width in [T3_SHARD_SIZE, 1 + rng.below(n)] {
                // Enough calm rounds for every default shard to be passed
                // over twice once the run has settled.
                let calm_rounds = 2 * n.div_ceil(T3_SHARD_SIZE) + 2;
                let seed = rng.below(1 << 30) as u64;
                let alg1 = || system(n, width, Alg1Memory::corrupt);
                booked[0] += differential(&mut alg1(), &mut alg1(), calm_rounds, seed);
                let mwmr = || system::<MwmrNatArray>(n, width, |_, _| {});
                booked[1] += differential(&mut mwmr(), &mut mwmr(), calm_rounds, seed);
            }
            // Not vacuous: some passes were booked.
            assert!(booked.iter().all(|&b| b > 0), "n={n}: booked {booked:?}");
        }
    }

    #[test]
    fn a_stabilized_follower_books_every_shard_but_the_leaders() {
        let n = 128;
        let System { mut procs, .. } = system(n, T3_SHARD_SIZE, Alg1Memory::corrupt);
        for _ in 0..2 * n {
            procs.iter_mut().for_each(|q| q.t2_step());
            procs.iter_mut().for_each(|q| {
                let _ = q.on_timer_expire();
            });
        }
        assert!(procs.iter().all(|q| q.leader() == p(0)), "stabilized on p0");
        let before: Vec<u64> = procs.iter().map(|q| q.heartbeats.booked).collect();
        let rounds = 10 * n.div_ceil(T3_SHARD_SIZE);
        for _ in 0..rounds {
            procs[0].t2_step();
            procs.iter_mut().for_each(|q| {
                let _ = q.on_timer_expire();
            });
        }
        for (q, before) in procs.iter().zip(before).skip(1) {
            // Seven shards in eight hold no candidate and nothing wrote
            // them; the eighth holds the leader, who heartbeats.
            assert_eq!(
                q.heartbeats.booked - before,
                (rounds * 7 / 8) as u64,
                "{}",
                q.pid()
            );
        }
    }

    #[test]
    fn a_system_of_one_shard_never_books() {
        let System { mut procs, .. } = system(T3_SHARD_SIZE, T3_SHARD_SIZE, Alg1Memory::corrupt);
        for round in 0..40 {
            // Then silence: nothing moves `PROGRESS` any more.
            if round < 20 {
                procs.iter_mut().for_each(|q| q.t2_step());
            }
            procs.iter_mut().for_each(|q| {
                let _ = q.on_timer_expire();
            });
        }
        // Not vacuous: the leader's shard holds no candidate but itself
        // and nobody wrote it, so only the one-shard rule keeps it reading.
        assert_eq!(procs[0].candidates().iter().collect::<Vec<_>>(), [p(0)]);
        assert!(procs.iter().all(|q| q.heartbeats.booked == 0));
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
}
