//! Access-count snapshots: who read and wrote what.
//!
//! The paper's efficiency results are statements about *who keeps accessing
//! shared memory forever*:
//!
//! * Theorem 3 — with Algorithm 1, after stabilization only the elected
//!   leader writes, and only one register.
//! * Lemma 5 / Lemma 6 — the leader must write forever; everyone else must
//!   read forever.
//! * Theorem 7 — with Algorithm 2, after stabilization the writes are exactly
//!   `PROGRESS[ℓ][·]` (by the leader) and `LAST[ℓ][·]` (by the followers).
//!
//! A [`StatsSnapshot`] captures cumulative counters; subtracting two
//! snapshots ([`StatsSnapshot::delta_since`]) yields the accesses of a
//! window, from which writer/reader sets and per-register write activity
//! are derived.
//!
//! # Storage layout
//!
//! A snapshot is two dense arrays beside a shared, immutable description of
//! the register layout (interned names, owners, write offsets and bank
//! boundaries — one [`Arc`] per space and register count, reused by every
//! snapshot and every [`FootprintReport`](crate::FootprintReport) taken at
//! that size):
//!
//! * `reads[bank · n + process]` — each process's reads of each bank, the
//!   per-(reader, bank) tallies the banks keep (the `meta` module docs say
//!   why reads are not counted per register);
//! * `writes` — *owner-compact*: a 1WnR register has exactly one legal
//!   writer, so it contributes one cell; only nWnR registers contribute one
//!   cell per process.
//!
//! Both are `O(n²)` for every layout in the tree — an Algorithm 1 snapshot
//! at n = 128 is 130 banks × 128 read cells and 16 640 write cells,
//! ≈ 266 KB — so a run's checkpoints are plain dense copies.

use std::fmt;
use std::sync::Arc;

use crate::{ProcessId, ProcessSet, ScanStats};

/// Immutable description of a space's registers at some point in its
/// creation order: interned names, owners and write offsets, indexed by
/// register id, and where each bank begins and ends.
///
/// Built once per register-set size by the space and shared by every
/// snapshot and footprint report taken at that size (append-only: a layout
/// for `k` registers is a prefix of any later layout of the same space).
/// Equal by value, banking included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotLayout {
    pub(crate) names: Vec<Arc<str>>,
    pub(crate) owners: Vec<Option<ProcessId>>,
    /// Register `r`'s write cells are
    /// `writes[write_offsets[r]..write_offsets[r + 1]]` — one cell when
    /// owned, one per process otherwise. Always one entry more than there
    /// are registers.
    write_offsets: Vec<usize>,
    /// Bank `b` holds registers `bank_starts[b]..bank_starts[b + 1]`.
    /// Always one entry more than there are banks.
    bank_starts: Vec<usize>,
}

impl Default for SnapshotLayout {
    fn default() -> Self {
        SnapshotLayout::new(0, std::iter::empty::<std::iter::Empty<_>>())
    }
}

impl SnapshotLayout {
    /// Lays out the registers of `banks` — each bank its slots' (name,
    /// owner), banks and slots in creation order — for an `n_processes`
    /// system.
    pub(crate) fn new<B>(n_processes: usize, banks: impl Iterator<Item = B>) -> Self
    where
        B: Iterator<Item = (Arc<str>, Option<ProcessId>)>,
    {
        let (mut names, mut owners, mut write_offsets) = (Vec::new(), Vec::new(), vec![0]);
        let mut bank_starts = vec![0];
        let mut cells = 0;
        for bank in banks {
            for (name, owner) in bank {
                cells += if owner.is_some() { 1 } else { n_processes };
                names.push(name);
                owners.push(owner);
                write_offsets.push(cells);
            }
            bank_starts.push(names.len());
        }
        SnapshotLayout {
            names,
            owners,
            write_offsets,
            bank_starts,
        }
    }

    /// Total write cells of a snapshot with this layout.
    pub(crate) fn write_cells(&self) -> usize {
        self.write_offsets[self.names.len()]
    }

    /// Whether `earlier` is this layout or a prefix of it: the same
    /// registers (by name and owner — owners fix where each register's
    /// writes sit) in the same banks, followed by whatever was created
    /// since.
    fn extends(&self, earlier: &SnapshotLayout) -> bool {
        let prefix = earlier.names.len();
        prefix <= self.names.len()
            && (self.names.iter().zip(&earlier.names)).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
            && self.owners[..prefix] == earlier.owners[..]
            && self.bank_starts.starts_with(&earlier.bank_starts)
    }
}

/// One register's write counters within a snapshot — a borrowed view into
/// the snapshot's flat storage. (Reads are counted per bank: see
/// [`BankRow`].)
#[derive(Debug, Clone, Copy)]
pub struct RegisterRow<'a> {
    /// Register name, e.g. `SUSPICIONS\[2\]\[5\]`.
    pub name: &'a str,
    /// Owner for 1WnR registers, `None` for nWnR registers.
    pub owner: Option<ProcessId>,
    /// The owner's writes (one cell) for 1WnR registers, writes indexed by
    /// process for nWnR registers.
    writes: &'a [u64],
}

impl RegisterRow<'_> {
    /// Total writes to this register by all processes.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Writes to this register by `pid` — zero for everyone but the owner
    /// of a 1WnR register.
    #[must_use]
    pub fn writes_by(&self, pid: ProcessId) -> u64 {
        match self.owner {
            Some(owner) if owner == pid => self.writes[0],
            Some(_) => 0,
            None => self.writes[pid.index()],
        }
    }
}

/// One bank's read counters within a snapshot: a bank is an array, a
/// matrix row or a scalar register, created together.
#[derive(Debug, Clone, Copy)]
pub struct BankRow<'a> {
    /// The bank's registers' names, in slot order — one for a scalar.
    pub names: &'a [Arc<str>],
    /// Reads of the bank's registers by each process (indexed by process);
    /// a range read of `k` slots counts `k`.
    pub reads: &'a [u64],
}

impl BankRow<'_> {
    /// Total reads of this bank's registers by all processes.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }
}

/// Reads and writes of every process summed over all registers, indexed by
/// process ([`StatsSnapshot::per_process_totals`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTotals {
    /// `reads[p]` is what [`StatsSnapshot::reads_of`]`(p)` returns.
    pub reads: Vec<u64>,
    /// `writes[p]` is what [`StatsSnapshot::writes_of`]`(p)` returns.
    pub writes: Vec<u64>,
}

/// A snapshot of every bank's read tallies and every register's write
/// counters, cumulative since the space was created.
///
/// Two snapshots are equal when their counters are and their spaces hold
/// the same registers in the same banks.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// let arr = space.nat_array("A", |_| 0);
/// let p0 = ProcessId::new(0);
///
/// let before = space.stats();
/// arr.get(p0).write(p0, 1);
/// let delta = space.stats().delta_since(&before);
/// assert_eq!(delta.total_writes(), 1);
/// assert_eq!(delta.writer_set().iter().collect::<Vec<_>>(), vec![p0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub(crate) n_processes: usize,
    pub(crate) layout: Arc<SnapshotLayout>,
    /// `reads[bank · n_processes + process]`.
    pub(crate) reads: Vec<u64>,
    /// Owner-compact, at the layout's write offsets.
    pub(crate) writes: Vec<u64>,
    pub(crate) scan: ScanStats,
}

impl StatsSnapshot {
    /// Number of processes in the system.
    #[must_use]
    pub fn n_processes(&self) -> usize {
        self.n_processes
    }

    /// Number of registers captured in this snapshot.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.layout.names.len()
    }

    /// Scan-saving counters (reads skipped by epoch-validated caches,
    /// sharded `T3` passes) captured with this snapshot.
    #[must_use]
    pub fn scan(&self) -> ScanStats {
        self.scan
    }

    /// Per-register write rows, in register-creation order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RegisterRow<'_>> + '_ {
        let layout = &*self.layout;
        (layout.names.iter().zip(&layout.owners))
            .zip(layout.write_offsets.windows(2))
            .map(|((name, &owner), cells)| RegisterRow {
                name,
                owner,
                writes: &self.writes[cells[0]..cells[1]],
            })
    }

    /// Per-bank read rows, in creation order.
    pub fn banks(&self) -> impl ExactSizeIterator<Item = BankRow<'_>> + '_ {
        let names = &self.layout.names;
        (self.layout.bank_starts.windows(2))
            .zip(self.reads.chunks_exact(self.n_processes.max(1)))
            .map(|(registers, reads)| BankRow {
                names: &names[registers[0]..registers[1]],
                reads,
            })
    }

    /// Total reads across all registers and processes.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total writes across all registers and processes.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Reads performed by `pid` across all registers.
    #[must_use]
    pub fn reads_of(&self, pid: ProcessId) -> u64 {
        (self.banks()).map(|bank| bank.reads[pid.index()]).sum()
    }

    /// Writes performed by `pid` across all registers.
    #[must_use]
    pub fn writes_of(&self, pid: ProcessId) -> u64 {
        self.rows().map(|row| row.writes_by(pid)).sum()
    }

    fn read_totals(&self) -> Vec<u64> {
        let mut totals = vec![0; self.n_processes];
        for bank in self.banks() {
            for (total, count) in totals.iter_mut().zip(bank.reads) {
                *total += count;
            }
        }
        totals
    }

    fn write_totals(&self) -> Vec<u64> {
        let mut totals = vec![0; self.n_processes];
        for row in self.rows() {
            match row.owner {
                Some(owner) => totals[owner.index()] += row.writes[0],
                None => {
                    for (total, count) in totals.iter_mut().zip(row.writes) {
                        *total += count;
                    }
                }
            }
        }
        totals
    }

    /// Every process's [`reads_of`](Self::reads_of) and
    /// [`writes_of`](Self::writes_of) at once, in one sequential pass over
    /// the counters.
    #[must_use]
    pub fn per_process_totals(&self) -> ProcessTotals {
        ProcessTotals {
            reads: self.read_totals(),
            writes: self.write_totals(),
        }
    }

    fn active_set(totals: &[u64]) -> ProcessSet {
        let mut set = ProcessSet::new(totals.len());
        for (i, &count) in totals.iter().enumerate() {
            if count > 0 {
                set.insert(ProcessId::new(i));
            }
        }
        set
    }

    /// The set of processes that performed at least one write.
    #[must_use]
    pub fn writer_set(&self) -> ProcessSet {
        Self::active_set(&self.write_totals())
    }

    /// The set of processes that performed at least one read.
    #[must_use]
    pub fn reader_set(&self) -> ProcessSet {
        Self::active_set(&self.read_totals())
    }

    /// Names of registers written at least once, in creation order.
    #[must_use]
    pub fn written_registers(&self) -> Vec<&str> {
        self.rows()
            .filter(|r| r.total_writes() > 0)
            .map(|r| r.name)
            .collect()
    }

    /// Counter-wise difference `self − earlier`.
    ///
    /// Both snapshots must come from the same memory space; banks that
    /// were created after `earlier` was taken are kept with their full
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has more registers than `self` or the shared
    /// prefix of registers does not match by name, owner and bank
    /// (snapshots from different spaces).
    #[must_use]
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        assert!(
            earlier.register_count() <= self.register_count(),
            "earlier snapshot has more registers than later one"
        );
        assert!(
            self.n_processes == earlier.n_processes
                && (Arc::ptr_eq(&self.layout, &earlier.layout)
                    || self.layout.extends(&earlier.layout)),
            "snapshots from different spaces"
        );
        let minus = |later: &[u64], earlier: &[u64]| {
            let mut delta = later.to_vec();
            for (a, b) in delta.iter_mut().zip(earlier) {
                *a -= b;
            }
            delta
        };
        StatsSnapshot {
            n_processes: self.n_processes,
            layout: Arc::clone(&self.layout),
            reads: minus(&self.reads, &earlier.reads),
            writes: minus(&self.writes, &earlier.writes),
            scan: self.scan.delta_since(&earlier.scan),
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<24} {:>10}  writers", "register", "writes")?;
        for row in self.rows() {
            let writers: Vec<String> = ProcessId::all(self.n_processes)
                .filter(|p| row.writes_by(*p) > 0)
                .map(|p| p.to_string())
                .collect();
            writeln!(
                f,
                "{:<24} {:>10}  {}",
                row.name,
                row.total_writes(),
                writers.join(",")
            )?;
        }
        writeln!(f, "{:<24} {:>10}", "bank", "reads")?;
        for bank in self.banks() {
            let name = match bank.names {
                [only] => only.to_string(),
                [first, .., last] => format!("{first}–{last}"),
                [] => String::new(),
            };
            writeln!(f, "{:<24} {:>10}", name, bank.total_reads())?;
        }
        if self.scan != ScanStats::default() {
            writeln!(
                f,
                "scan: {} reads skipped ({} rows), {} snapshots, {} shard passes",
                self.scan.reads_skipped,
                self.scan.rows_skipped,
                self.scan.snapshot_batches,
                self.scan.shard_passes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn totals_and_sets() {
        let s = MemorySpace::new(3);
        let arr = s.nat_array("A", |_| 0);
        arr.get(p(0)).write(p(0), 1);
        arr.get(p(0)).write(p(0), 2);
        arr.get(p(1)).write(p(1), 1);
        arr.get(p(2)).read(p(1));
        let snap = s.stats();
        assert_eq!(snap.total_writes(), 3);
        assert_eq!(snap.total_reads(), 1);
        assert_eq!(snap.writes_of(p(0)), 2);
        assert_eq!(snap.reads_of(p(1)), 1);
        let writers: Vec<_> = snap.writer_set().iter().collect();
        assert_eq!(writers, vec![p(0), p(1)]);
        let readers: Vec<_> = snap.reader_set().iter().collect();
        assert_eq!(readers, vec![p(1)]);
        assert_eq!(snap.written_registers(), vec!["A[0]", "A[1]"]);
    }

    #[test]
    fn delta_subtracts_counters() {
        let s = MemorySpace::new(2);
        let arr = s.nat_array("A", |_| 0);
        arr.get(p(0)).write(p(0), 1);
        let before = s.stats();
        arr.get(p(0)).write(p(0), 2);
        arr.get(p(1)).write(p(1), 1);
        let delta = s.stats().delta_since(&before);
        assert_eq!(delta.total_writes(), 2);
        assert_eq!(delta.writes_of(p(0)), 1);
        assert_eq!(delta.writes_of(p(1)), 1);
    }

    #[test]
    fn delta_keeps_registers_created_after_baseline() {
        let s = MemorySpace::new(2);
        let a = s.nat_register("A", p(0), 0);
        let before = s.stats();
        let b = s.nat_register("B", p(1), 0);
        a.write(p(0), 1);
        b.write(p(1), 1);
        let delta = s.stats().delta_since(&before);
        assert_eq!(delta.total_writes(), 2);
        assert_eq!(delta.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn delta_rejects_foreign_snapshots() {
        let s1 = MemorySpace::new(1);
        let s2 = MemorySpace::new(1);
        let _ = s1.nat_register("A", p(0), 0);
        let _ = s2.nat_register("B", p(0), 0);
        let _ = s2.stats().delta_since(&s1.stats());
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn delta_rejects_same_names_under_other_owners() {
        // Owners fix where a register's write cells sit, so a name match
        // alone does not make two snapshots comparable.
        let s1 = MemorySpace::new(2);
        let s2 = MemorySpace::new(2);
        let _ = s1.nat_register("A", p(0), 0);
        let _ = s2.mwmr::<u64>("A", 0);
        let _ = s2.stats().delta_since(&s1.stats());
    }

    /// Owned and nWnR registers interleaved, a foreign-process reader, and
    /// one register created after the first snapshot.
    fn mixed_space() -> (MemorySpace, StatsSnapshot) {
        let s = MemorySpace::new(3);
        let a = s.nat_register("A", p(2), 0);
        let m = s.mwmr::<u64>("M", 0);
        let b = s.nat_register("B", p(0), 0);
        a.write(p(2), 1);
        m.write(p(1), 1);
        m.write(p(2), 2);
        b.write(p(0), 1);
        b.read(p(1));
        let early = s.stats();
        let late_reg = s.mwmr::<u64>("N", 0);
        late_reg.write(p(0), 9);
        m.write(p(1), 3);
        a.write(p(2), 2);
        a.read(p(0));
        (s, early)
    }

    #[test]
    fn write_rows_are_owner_compact() {
        let (s, _) = mixed_space();
        let snap = s.stats();
        let widths: Vec<usize> = snap.rows().map(|r| r.writes.len()).collect();
        assert_eq!(widths, [1, 3, 1, 3], "one cell when owned, n otherwise");
        assert_eq!(snap.writes.len(), 8);
        let by: Vec<Vec<u64>> = snap
            .rows()
            .map(|r| ProcessId::all(3).map(|q| r.writes_by(q)).collect())
            .collect();
        assert_eq!(
            by,
            [[0, 0, 2], [0, 2, 1], [1, 0, 0], [1, 0, 0]],
            "A by p2, M by p1 and p2, B by p0, N by p0"
        );
        assert_eq!(snap.total_writes(), 7);
        assert_eq!(snap.written_registers(), ["A", "M", "B", "N"]);
    }

    #[test]
    fn per_process_totals_match_per_process_queries() {
        let (s, early) = mixed_space();
        let late = s.stats();
        for snap in [&early, &late, &late.delta_since(&early)] {
            let totals = snap.per_process_totals();
            for q in ProcessId::all(3) {
                assert_eq!(totals.reads[q.index()], snap.reads_of(q), "reads of {q}");
                assert_eq!(totals.writes[q.index()], snap.writes_of(q), "writes of {q}");
            }
            assert_eq!(totals.reads.iter().sum::<u64>(), snap.total_reads());
            assert_eq!(totals.writes.iter().sum::<u64>(), snap.total_writes());
        }
        assert_eq!(late.per_process_totals().writes, [2, 2, 3]);
        assert_eq!(late.per_process_totals().reads, [1, 1, 0]);
    }

    #[test]
    fn delta_subtracts_ragged_rows_and_keeps_later_registers() {
        let (s, early) = mixed_space();
        let delta = s.stats().delta_since(&early);
        assert_eq!(delta.per_process_totals().writes, [1, 1, 1]);
        assert_eq!(delta.written_registers(), ["A", "M", "N"]);
        let writers: Vec<_> = delta.writer_set().iter().collect();
        assert_eq!(writers, [p(0), p(1), p(2)]);
        let readers: Vec<_> = delta.reader_set().iter().collect();
        assert_eq!(readers, [p(0)]);
    }

    #[test]
    fn banks_tally_each_readers_reads() {
        let s = MemorySpace::new(3);
        let arr = s.nat_array("A", |_| 0);
        let x = s.nat_register("X", p(0), 0);
        arr.read_range_into(p(1), 0..3, &mut [0; 3]);
        arr.get(p(2)).read(p(0));
        let early = s.stats();
        x.read(p(2));
        arr.read_range_into(p(1), 1..3, &mut [0; 2]);
        let late = s.stats();
        let tallies = |snap: &StatsSnapshot| -> Vec<(Vec<String>, Vec<u64>)> {
            (snap.banks())
                .map(|bank| {
                    let names = bank.names.iter().map(ToString::to_string).collect();
                    (names, bank.reads.to_vec())
                })
                .collect()
        };
        let names = |of: &[&str]| of.iter().map(ToString::to_string).collect::<Vec<_>>();
        let (a, x) = (names(&["A[0]", "A[1]", "A[2]"]), names(&["X"]));
        assert_eq!(
            tallies(&early),
            [(a.clone(), vec![1, 3, 0]), (x.clone(), vec![0, 0, 0])]
        );
        assert_eq!(
            tallies(&late.delta_since(&early)),
            [(a, vec![0, 2, 0]), (x, vec![0, 0, 1])]
        );
        assert_eq!(late.banks().map(|bank| bank.total_reads()).sum::<u64>(), 7);
    }

    #[test]
    fn display_renders_table() {
        let s = MemorySpace::new(2);
        let arr = s.nat_array("A", |_| 0);
        let x = s.nat_register("X", p(0), 0);
        arr.get(p(1)).write(p(1), 1);
        arr.read_range_into(p(0), 0..2, &mut [0; 2]);
        x.read(p(1));
        let out = s.stats().to_string();
        let lines: Vec<Vec<&str>> = out
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            lines,
            [
                vec!["register", "writes", "writers"],
                vec!["A[0]", "0"],
                vec!["A[1]", "1", "p1"],
                vec!["X", "0"],
                vec!["bank", "reads"],
                vec!["A[0]–A[1]", "2"],
                vec!["X", "1"],
            ],
            "{out}"
        );
    }

    #[test]
    fn register_row_totals() {
        let s = MemorySpace::new(2);
        let x = s.nat_register("X", p(0), 0);
        x.write(p(0), 3);
        x.read(p(0));
        x.read(p(1));
        x.read(p(1));
        let snap = s.stats();
        let row = snap.rows().next().unwrap();
        assert_eq!(row.name, "X");
        assert_eq!(row.owner, Some(p(0)));
        assert_eq!(row.total_writes(), 1);
        let bank = snap.banks().next().unwrap();
        assert_eq!((bank.reads, bank.total_reads()), (&[1, 2][..], 3));
    }

    #[test]
    fn snapshots_share_one_layout_allocation() {
        let s = MemorySpace::new(2);
        let _ = s.nat_array("A", |_| 0);
        let a = s.stats();
        let b = s.stats();
        assert!(
            Arc::ptr_eq(&a.layout, &b.layout),
            "same register set, same interned layout"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn stats_into_refills_an_earlier_snapshot_in_place() {
        let s = MemorySpace::new(2);
        let x = s.nat_register("X", p(0), 0);
        x.read(p(1));
        let mut snap = s.stats();
        let kept = snap.clone();
        let _ = s.nat_array("A", |_| 0);
        x.read(p(0));
        s.stats_into(&mut snap);
        assert_eq!(snap, s.stats(), "a register created since, a read since");
        assert_eq!((kept.reads_of(p(0)), snap.reads_of(p(0))), (0, 1));
        let cells = snap.reads.as_ptr();
        x.read(p(0));
        s.stats_into(&mut snap);
        assert_eq!(snap.reads.as_ptr(), cells, "large enough: overwritten");
        assert_eq!(snap.reads_of(p(0)), 2);
    }

    #[test]
    fn stats_into_keeps_nothing_of_another_spaces_snapshot() {
        // Twin spaces whose counters sum alike but differ cell for cell.
        let (a, b) = (MemorySpace::new(2), MemorySpace::new(2));
        a.nat_register("X", p(0), 0).read(p(0));
        b.nat_register("X", p(0), 0).read(p(1));
        let mut snap = a.stats();
        b.stats_into(&mut snap);
        assert_eq!(snap, b.stats());
        assert_eq!((snap.reads_of(p(0)), snap.reads_of(p(1))), (0, 1));
    }

    #[test]
    fn equality_asks_for_the_same_banks() {
        // One array bank against three scalars of the same names: the same
        // writes and per-process totals, but reads tallied per bank.
        let n = 3;
        let (banked, single) = (MemorySpace::new(n), MemorySpace::new(n));
        let array = banked.nat_array("A", |_| 0);
        let scalars: Vec<_> = ProcessId::all(n)
            .map(|q| single.nat_register(&format!("A[{}]", q.index()), q, 0))
            .collect();
        array.get(p(1)).write(p(1), 4);
        scalars[1].write(p(1), 4);
        array.get(p(2)).read(p(0));
        scalars[2].read(p(0));
        let (a, b) = (banked.stats(), single.stats());
        assert_ne!(a, b);
        assert_eq!(a.per_process_totals(), b.per_process_totals());
        assert!((a.rows().zip(b.rows())).all(|(a, b)| (a.name, a.owner) == (b.name, b.owner)));
        assert_eq!((a.banks().len(), b.banks().len()), (1, 3));
    }

    #[test]
    fn equality_is_by_value_across_layout_generations() {
        let s = MemorySpace::new(1);
        let _ = s.nat_register("A", p(0), 0);
        let a = s.stats();
        let b = a.clone();
        assert_eq!(a, b);
    }
}
