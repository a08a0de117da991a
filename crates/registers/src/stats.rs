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
//! window, from which writer/reader sets and per-register activity are
//! derived.
//!
//! # Storage layout
//!
//! A snapshot is a list of read *tiles*, one flat write array, and a shared,
//! immutable description of the register layout (interned names, owners,
//! write offsets and tile boundaries, one [`Arc`] per space, reused by every
//! snapshot). A tile holds the read counts of a run of whole registers,
//! register-major (`cells[register · n + process]`), behind an [`Arc`]:
//! a bank of a tile's worth of cells or more is a tile of its own, smaller
//! banks share one. Writes are *owner-compact*: a 1WnR register has exactly
//! one legal writer, so it contributes one cell; only nWnR registers
//! contribute one cell per process.
//!
//! Tiles are what makes a *series* of snapshots cheap. The read cells are
//! `registers × processes` — cubic in n for the election layouts — but
//! between two checkpoints of a run almost none of them move (after
//! stabilization every process reads `STOP` and `PROGRESS` and nothing
//! else), so [`MemorySpace::stats_into`](crate::MemorySpace::stats_into)
//! keeps the tile of every region that was not read since the snapshot it
//! is handed was taken, an all-zero tile is never allocated, and
//! [`StatsSnapshot::delta_since`] of a tile both snapshots share is zero
//! without a copy. A run's checkpoints cost one dense copy plus what
//! changed, not one dense copy each.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::{ProcessId, ProcessSet, ScanStats};

/// Read cells a tile holds at least, unless the registers run out first:
/// a tile closes at the first bank boundary that gives it this many. Large
/// enough that a space of many tiny banks (a replicated log adds two
/// `n`-slot banks per log slot) does not pay an allocation per bank per
/// snapshot, small enough that every bank of an election layout past
/// n = 45 is a tile of its own.
const TILE_CELLS: usize = 2048;

/// The registers and banks one read tile covers, as index ranges into the
/// space's creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TileSpan {
    pub(crate) registers: Range<usize>,
    pub(crate) banks: Range<usize>,
}

/// Immutable description of a space's registers at some point in its
/// creation order: interned names, owners and write offsets, indexed by
/// register id, and where the read tiles begin and end.
///
/// Built once per register-set size by the space and shared by every
/// snapshot taken at that size (append-only: a layout for `k` registers is
/// a prefix of any later layout of the same space, except that the last
/// tile, if it closed for want of registers, grows first).
#[derive(Debug, Clone)]
pub(crate) struct SnapshotLayout {
    pub(crate) names: Vec<Arc<str>>,
    pub(crate) owners: Vec<Option<ProcessId>>,
    /// Register `r`'s write cells are
    /// `writes[write_offsets[r]..write_offsets[r + 1]]` — one cell when
    /// owned, one per process otherwise. Always one entry more than there
    /// are registers.
    write_offsets: Vec<usize>,
    /// The read tiles, in register order; together they cover every
    /// register once.
    pub(crate) tiles: Vec<TileSpan>,
    /// What an unmaterialized tile shows for each of its registers: one
    /// zero per process.
    zero_row: Box<[u64]>,
}

/// By value over what the snapshots' *counters* mean — names, owners and
/// hence write offsets. The tiling is storage: two spaces that bank the
/// same registers differently still produce comparable snapshots.
impl PartialEq for SnapshotLayout {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
            && self.owners == other.owners
            && self.write_offsets == other.write_offsets
    }
}

impl Eq for SnapshotLayout {}

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
        let mut tiles = Vec::new();
        let mut open = TileSpan {
            registers: 0..0,
            banks: 0..0,
        };
        let mut cells = 0;
        for bank in banks {
            for (name, owner) in bank {
                cells += if owner.is_some() { 1 } else { n_processes };
                names.push(name);
                owners.push(owner);
                write_offsets.push(cells);
            }
            open.registers.end = names.len();
            open.banks.end += 1;
            if open.registers.len() * n_processes >= TILE_CELLS {
                let next = TileSpan {
                    registers: names.len()..names.len(),
                    banks: open.banks.end..open.banks.end,
                };
                tiles.push(std::mem::replace(&mut open, next));
            }
        }
        if !open.registers.is_empty() {
            tiles.push(open);
        }
        SnapshotLayout {
            names,
            owners,
            write_offsets,
            tiles,
            zero_row: vec![0; n_processes].into(),
        }
    }

    /// Total write cells of a snapshot with this layout.
    pub(crate) fn write_cells(&self) -> usize {
        self.write_offsets[self.names.len()]
    }

    /// Whether `earlier` is a layout the same space had before (or has
    /// now): its first register is this one's, not merely named like it.
    /// Names are interned per bank, so the allocation identifies the space.
    pub(crate) fn grew_from(&self, earlier: &SnapshotLayout) -> bool {
        match (self.names.first(), earlier.names.first()) {
            (Some(mine), Some(theirs)) => {
                Arc::ptr_eq(mine, theirs) && earlier.names.len() <= self.names.len()
            }
            _ => false,
        }
    }

    /// Whether `earlier`'s tiles line up with this layout's: the same
    /// spans, except that its last one may end sooner. Always so between
    /// two layouts of one space.
    fn tiles_extend(&self, earlier: &SnapshotLayout) -> bool {
        let Some((last, closed)) = earlier.tiles.split_last() else {
            return true;
        };
        closed.len() < self.tiles.len()
            && closed == &self.tiles[..closed.len()]
            && last.registers.start == self.tiles[closed.len()].registers.start
            && last.registers.end <= self.tiles[closed.len()].registers.end
    }
}

/// The read counts of one tile's registers. Equal by value (`Arc`'s
/// comparison tries the pointers first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tile {
    /// Sum of `cells`. Cumulative counts only grow, so between two
    /// snapshots of one space an equal sum means equal cells.
    pub(crate) sum: u64,
    /// `cells[register · n_processes + process]`; `None` (never an
    /// allocation of zeros) while nothing in the tile was read.
    cells: Option<Arc<[u64]>>,
}

impl Tile {
    /// Overwrites the tile with `len` cells written by `fill` (which is
    /// handed zeros or stale counts and must store every cell), in place
    /// when no other snapshot shares the allocation.
    pub(crate) fn refill(&mut self, len: usize, fill: impl FnOnce(&mut [u64])) {
        let reusable = matches!(
            self.cells.as_mut().and_then(Arc::get_mut),
            Some(cells) if cells.len() == len
        );
        if !reusable {
            self.cells = Some(std::iter::repeat_n(0, len).collect());
        }
        let cells = Arc::get_mut(self.cells.as_mut().expect("present or just allocated"))
            .expect("unshared: checked or just allocated");
        fill(cells);
        self.sum = cells.iter().sum();
        if self.sum == 0 {
            self.cells = None;
        }
    }

    /// This tile's counts minus `earlier`'s (which may cover fewer
    /// registers: the tile that was last when it was taken).
    fn delta_since(&self, earlier: &Tile) -> Tile {
        let sum = self.sum - earlier.sum;
        let cells = match (&self.cells, &earlier.cells) {
            // One shared allocation, or nothing moved: zero without a copy.
            _ if sum == 0 => None,
            (Some(mine), None) => Some(Arc::clone(mine)),
            (Some(mine), Some(theirs)) => {
                let (both, later) = mine.split_at(theirs.len());
                let both = both.iter().zip(theirs.iter()).map(|(a, b)| a - b);
                Some(both.chain(later.iter().copied()).collect())
            }
            (None, _) => unreachable!("a positive sum has cells"),
        };
        Tile { sum, cells }
    }
}

/// One register's counters within a snapshot — a borrowed view into the
/// snapshot's flat storage.
#[derive(Debug, Clone, Copy)]
pub struct RegisterRow<'a> {
    /// Register name, e.g. `SUSPICIONS\[2\]\[5\]`.
    pub name: &'a str,
    /// Owner for 1WnR registers, `None` for nWnR registers.
    pub owner: Option<ProcessId>,
    /// Reads performed by each process (indexed by process).
    pub reads: &'a [u64],
    /// The owner's writes (one cell) for 1WnR registers, writes indexed by
    /// process for nWnR registers.
    writes: &'a [u64],
}

impl RegisterRow<'_> {
    /// Total reads of this register by all processes.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

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

/// Reads and writes of every process summed over all registers, indexed by
/// process ([`StatsSnapshot::per_process_totals`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTotals {
    /// `reads[p]` is what [`StatsSnapshot::reads_of`]`(p)` returns.
    pub reads: Vec<u64>,
    /// `writes[p]` is what [`StatsSnapshot::writes_of`]`(p)` returns.
    pub writes: Vec<u64>,
}

/// A snapshot of every register's cumulative access counters.
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
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    pub(crate) n_processes: usize,
    pub(crate) layout: Arc<SnapshotLayout>,
    /// The read counts, one tile per span of the layout.
    pub(crate) tiles: Vec<Tile>,
    /// Owner-compact, at the layout's write offsets.
    pub(crate) writes: Vec<u64>,
    pub(crate) scan: ScanStats,
}

impl PartialEq for StatsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.n_processes == other.n_processes
            && self.scan == other.scan
            && self.writes == other.writes
            && (Arc::ptr_eq(&self.layout, &other.layout) || self.layout == other.layout)
            && if self.layout.tiles == other.layout.tiles {
                self.tiles == other.tiles
            } else {
                // Same registers, banked differently.
                self.read_rows().eq(other.read_rows())
            }
    }
}

impl Eq for StatsSnapshot {}

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

    /// Every register's read counts indexed by process, in
    /// register-creation order.
    fn read_rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        let n = self.n_processes;
        // Registers are asked for in ascending order, so the tile is a
        // cursor that only moves forward.
        let mut at = 0;
        (0..self.register_count()).map(move |r| {
            while self.layout.tiles[at].registers.end <= r {
                at += 1;
            }
            match &self.tiles[at].cells {
                Some(cells) => &cells[(r - self.layout.tiles[at].registers.start) * n..][..n],
                None => &self.layout.zero_row[..],
            }
        })
    }

    /// Per-register rows, in register-creation order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RegisterRow<'_>> + '_ {
        let offsets = &self.layout.write_offsets;
        self.read_rows()
            .enumerate()
            .map(move |(r, reads)| RegisterRow {
                name: &self.layout.names[r],
                owner: self.layout.owners[r],
                reads,
                writes: &self.writes[offsets[r]..offsets[r + 1]],
            })
    }

    /// The materialized tiles' cells.
    fn read_cells(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.tiles.iter().filter_map(|tile| tile.cells.as_deref())
    }

    /// How many read tiles this snapshot and `other` hold in one shared
    /// allocation — regions no process read between the two, when one was
    /// derived from the other by
    /// [`MemorySpace::stats_into`](crate::MemorySpace::stats_into). Tiles
    /// in which nothing was ever read are not allocated and not counted; a
    /// snapshot shares all its allocated tiles with itself.
    #[must_use]
    pub fn shared_tiles(&self, other: &StatsSnapshot) -> usize {
        (self.tiles.iter().zip(&other.tiles))
            .filter(
                |(a, b)| matches!((&a.cells, &b.cells), (Some(a), Some(b)) if Arc::ptr_eq(a, b)),
            )
            .count()
    }

    /// Total reads across all registers and processes.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.tiles.iter().map(|tile| tile.sum).sum()
    }

    /// Total writes across all registers and processes.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Reads performed by `pid` across all registers.
    #[must_use]
    pub fn reads_of(&self, pid: ProcessId) -> u64 {
        let n = self.n_processes.max(1);
        self.read_cells()
            .flat_map(|cells| cells.iter().skip(pid.index()).step_by(n))
            .sum()
    }

    /// Writes performed by `pid` across all registers.
    #[must_use]
    pub fn writes_of(&self, pid: ProcessId) -> u64 {
        self.rows().map(|row| row.writes_by(pid)).sum()
    }

    fn read_totals(&self) -> Vec<u64> {
        let mut totals = vec![0; self.n_processes];
        for cells in self.read_cells() {
            for row in cells.chunks_exact(self.n_processes) {
                for (total, count) in totals.iter_mut().zip(row) {
                    *total += count;
                }
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
    /// the counters — asking per process instead walks the whole read slab
    /// once per process, with a stride that defeats the cache.
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
    /// Both snapshots must come from the same memory space; registers that
    /// were created after `earlier` was taken are kept with their full
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has more registers than `self` or the shared
    /// prefix of registers does not match by name and owner (snapshots from
    /// different spaces).
    #[must_use]
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        assert!(
            earlier.register_count() <= self.register_count(),
            "earlier snapshot has more registers than later one"
        );
        if !Arc::ptr_eq(&self.layout, &earlier.layout) {
            // Different layout generations: verify the shared prefix (the
            // owners too — they fix where each register's writes sit — and
            // the banking, which fixes the tiles).
            let (mine, theirs) = (&self.layout, &earlier.layout);
            let same_names =
                (mine.names.iter().zip(&theirs.names)).all(|(a, b)| Arc::ptr_eq(a, b) || a == b);
            assert!(
                same_names
                    && mine.owners[..theirs.owners.len()] == theirs.owners[..]
                    && mine.tiles_extend(theirs),
                "snapshots from different spaces"
            );
        }
        let nothing = Tile::default();
        let tiles = (self.tiles.iter().enumerate())
            .map(|(i, tile)| tile.delta_since(earlier.tiles.get(i).unwrap_or(&nothing)))
            .collect();
        let mut writes = self.writes.clone();
        for (a, b) in writes.iter_mut().zip(&earlier.writes) {
            *a -= b;
        }
        StatsSnapshot {
            n_processes: self.n_processes,
            layout: Arc::clone(&self.layout),
            tiles,
            writes,
            scan: self.scan.delta_since(&earlier.scan),
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>10} {:>10}  writers",
            "register", "reads", "writes"
        )?;
        for row in self.rows() {
            let writers: Vec<String> = ProcessId::all(self.n_processes)
                .filter(|p| row.writes_by(*p) > 0)
                .map(|p| p.to_string())
                .collect();
            writeln!(
                f,
                "{:<24} {:>10} {:>10}  {}",
                row.name,
                row.total_reads(),
                row.total_writes(),
                writers.join(",")
            )?;
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
    fn display_renders_table() {
        let s = MemorySpace::new(2);
        let arr = s.nat_array("A", |_| 0);
        arr.get(p(1)).write(p(1), 1);
        let out = s.stats().to_string();
        assert!(out.contains("A[1]"));
        assert!(out.contains("p1"));
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
        assert_eq!(row.total_reads(), 3);
        assert_eq!(row.total_writes(), 1);
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
    fn stats_into_rewrites_in_place_only_what_nobody_else_holds() {
        let s = MemorySpace::new(2);
        let x = s.nat_register("X", p(0), 0);
        let cells_of = |snap: &StatsSnapshot| Arc::as_ptr(snap.tiles[0].cells.as_ref().unwrap());
        let mut snap = s.stats();
        assert!(snap.tiles[0].cells.is_none(), "nothing read, nothing held");
        x.read(p(1));
        s.stats_into(&mut snap);
        let first = cells_of(&snap);
        x.read(p(1));
        s.stats_into(&mut snap);
        assert_eq!(cells_of(&snap), first, "sole holder: overwritten in place");
        assert_eq!(snap.reads_of(p(1)), 2);

        let kept = snap.clone();
        s.stats_into(&mut snap);
        assert_eq!(snap.shared_tiles(&kept), 1, "nothing moved: still shared");
        x.read(p(0));
        s.stats_into(&mut snap);
        assert_eq!(snap.shared_tiles(&kept), 0, "moved: a tile of its own");
        assert_eq!((kept.reads_of(p(0)), snap.reads_of(p(0))), (0, 1));
        assert_eq!(snap, s.stats());
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
    fn equality_ignores_how_the_registers_are_banked() {
        // One array bank against three scalars of the same names, wide
        // enough that the array closes a tile the scalars leave open.
        let n = 64;
        let (banked, single) = (MemorySpace::new(n), MemorySpace::new(n));
        let array = banked.nat_array("A", |_| 0);
        let scalars: Vec<_> = ProcessId::all(n)
            .map(|q| single.nat_register(&format!("A[{}]", q.index()), q, 0))
            .collect();
        let _ = (banked.mwmr::<u64>("M", 0), single.mwmr::<u64>("M", 0));
        assert_ne!(banked.stats().layout.tiles, single.stats().layout.tiles);
        assert_eq!(banked.stats(), single.stats());
        array.get(p(3)).read(p(7));
        assert_ne!(banked.stats(), single.stats());
        scalars[3].read(p(7));
        assert_eq!(banked.stats(), single.stats());
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
