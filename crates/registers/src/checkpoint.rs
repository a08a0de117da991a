//! A checkpoint series that costs what moved.
//!
//! The paper's efficiency results are checked by subtracting cumulative
//! checkpoints: a [`StatsSnapshot`] and a [`FootprintReport`] taken on a
//! cadence over a run. Between two checkpoints of a quiescent run few
//! counters move, so a series keeps its newest checkpoint dense and each
//! earlier one as an [`Overwritten`]: the cells the next checkpoint
//! overwrote, with the values they held.
//! [`MemorySpace::checkpoint`](crate::MemorySpace::checkpoint) refreshes
//! the newest checkpoint in place and returns that entry;
//! [`Overwritten::restore_stats`] and [`Overwritten::restore_footprint`]
//! turn a checkpoint back into the one before it.
//!
//! Each array of a checkpoint — the read tallies, the owner-compact write
//! cells and the `(hwm, current)` bits — is kept as one [`Cells`] entry:
//! the moved cells by index, or the whole earlier array where listing them
//! would take more room (the first window of a run, in which every read
//! tally moves off zero). Registers created between two checkpoints only
//! extend the arrays, so an earlier checkpoint is a prefix of the next one
//! with some cells overwritten; the entry keeps its own layout, which
//! fixes how long that prefix is.

use std::mem::size_of;
use std::sync::Arc;

use crate::stats::SnapshotLayout;
use crate::{FootprintReport, ScanStats, StatsSnapshot};

/// One array's cells that a refresh overwrote, with the values they held.
#[derive(Debug, Clone)]
enum Cells<T> {
    /// The overwritten cells by index, in index order.
    Moved(Vec<(u32, T)>),
    /// The whole earlier array: listing its moved cells would be larger.
    All(Vec<T>),
}

impl<T: Copy + PartialEq> Cells<T> {
    /// Refreshes `dense` to the `len` values `fresh` yields — the array's
    /// new contents, which extend the old ones — and returns the cells it
    /// held that moved.
    ///
    /// `fresh` is walked twice, once to count what moved and once to copy
    /// it, so the entry is one allocation of its final size whatever moved
    /// (a `Moved` entry reserves at least one cell): a checkpoint makes as
    /// many allocator calls in a quiescent window as in a busy one.
    fn refresh<I: Iterator<Item = T>>(
        dense: &mut Vec<T>,
        len: usize,
        fresh: impl Fn() -> I,
    ) -> Self {
        let kept = dense.len();
        assert!(kept <= len, "a later checkpoint extends an earlier one");
        let moved = (dense.iter().zip(fresh()))
            .filter(|&(old, new)| *old != new)
            .count();
        let mut entry = if moved * size_of::<(u32, T)>() < kept * size_of::<T>() {
            Cells::Moved(Vec::with_capacity(moved.max(1)))
        } else {
            Cells::All(dense.clone())
        };
        dense.reserve_exact(len - kept);
        for (index, new) in fresh().enumerate() {
            match dense.get_mut(index) {
                Some(old) if *old != new => {
                    if let Cells::Moved(cells) = &mut entry {
                        let at = u32::try_from(index).expect("a checkpoint array fits u32 indices");
                        cells.push((at, *old));
                    }
                    *old = new;
                }
                Some(_) => {}
                None => dense.push(new),
            }
        }
        entry
    }

    /// Turns the array this entry's refresh left into the one it found:
    /// back to its first `len` cells, each overwritten cell restored.
    fn restore(&self, dense: &mut Vec<T>, len: usize) {
        match self {
            Cells::Moved(cells) => {
                dense.truncate(len);
                for &(at, old) in cells {
                    dense[at as usize] = old;
                }
            }
            Cells::All(old) => {
                dense.clear();
                dense.extend_from_slice(old);
            }
        }
    }
}

/// An earlier checkpoint of a series, kept as the cells the next
/// checkpoint overwrote: returned by
/// [`MemorySpace::checkpoint`](crate::MemorySpace::checkpoint), which
/// refreshes the series' newest checkpoint — a dense [`StatsSnapshot`] and
/// [`FootprintReport`] — in place.
///
/// Each of its arrays (the read tallies, the owner-compact write cells and
/// the `(hwm, current)` bits) keeps the cells that moved, with the values
/// they held, or the whole earlier array where listing them would take
/// more room. Registers created since only extend the arrays; the entry
/// keeps its own layout, which says how long its prefix is.
#[derive(Debug, Clone)]
pub struct Overwritten {
    layout: Arc<SnapshotLayout>,
    scan: ScanStats,
    reads: Cells<u64>,
    writes: Cells<u64>,
    bits: Cells<(u64, u64)>,
}

impl Overwritten {
    /// Turns `stats`, the checkpoint this entry's refresh left, into the
    /// one it found.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is of another space (the entry's registers are
    /// not a prefix of its registers).
    pub fn restore_stats(&self, stats: &mut StatsSnapshot) {
        self.check(&stats.layout);
        let n = stats.n_processes;
        (self.reads).restore(&mut stats.reads, self.layout.bank_count() * n);
        (self.writes).restore(&mut stats.writes, self.layout.write_cells());
        stats.layout = Arc::clone(&self.layout);
        stats.scan = self.scan;
    }

    /// Turns `footprint`, the checkpoint this entry's refresh left, into
    /// the one it found.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is of another space (the entry's registers
    /// are not a prefix of its registers).
    pub fn restore_footprint(&self, footprint: &mut FootprintReport) {
        self.check(&footprint.layout);
        (self.bits).restore(&mut footprint.bits, self.layout.register_count());
        footprint.layout = Arc::clone(&self.layout);
    }

    /// Refreshes `stats` and `footprint` to a space's `layout` and `scan`
    /// counters and to the cells `reads`, `writes` and `bits` yield, in
    /// layout order, and returns the cells they held where it overwrote
    /// them ([`MemorySpace::checkpoint`](crate::MemorySpace::checkpoint)).
    pub(crate) fn refresh<R, W, B>(
        stats: &mut StatsSnapshot,
        footprint: &mut FootprintReport,
        layout: Arc<SnapshotLayout>,
        scan: ScanStats,
        reads: impl Fn() -> R,
        writes: impl Fn() -> W,
        bits: impl Fn() -> B,
    ) -> Self
    where
        R: Iterator<Item = u64>,
        W: Iterator<Item = u64>,
        B: Iterator<Item = (u64, u64)>,
    {
        for earlier in [&stats.layout, &footprint.layout] {
            assert!(
                Arc::ptr_eq(earlier, &layout) || layout.extends(earlier),
                "a checkpoint refreshed from another space"
            );
        }
        let n = stats.n_processes;
        let entry = Overwritten {
            reads: Cells::refresh(&mut stats.reads, layout.bank_count() * n, reads),
            writes: Cells::refresh(&mut stats.writes, layout.write_cells(), writes),
            bits: Cells::refresh(&mut footprint.bits, layout.register_count(), bits),
            layout: std::mem::replace(&mut stats.layout, Arc::clone(&layout)),
            scan: std::mem::replace(&mut stats.scan, scan),
        };
        footprint.layout = layout;
        entry
    }

    fn check(&self, later: &Arc<SnapshotLayout>) {
        assert!(
            Arc::ptr_eq(later, &self.layout) || later.extends(&self.layout),
            "a checkpoint restored over one of another space"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySpace, ProcessId};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn cells_refresh_lists_what_moved_and_restores_it() {
        let mut dense = vec![1_u64, 2, 3, 4, 5, 6];
        let now = [1_u64, 7, 3, 4, 5, 6, 8, 9];
        let entry = Cells::refresh(&mut dense, now.len(), || now.iter().copied());
        assert_eq!(dense, now);
        assert!(matches!(&entry, Cells::Moved(cells) if cells == &[(1, 2)]));
        entry.restore(&mut dense, 6);
        assert_eq!(dense, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn cells_refresh_keeps_the_whole_array_where_that_is_smaller() {
        let mut dense = vec![0_u64; 4];
        let now = [1_u64, 1, 0, 1];
        let entry = Cells::refresh(&mut dense, 4, || now.iter().copied());
        assert_eq!(dense, now);
        assert!(matches!(&entry, Cells::All(old) if old == &[0; 4]));
        entry.restore(&mut dense, 4);
        assert_eq!(dense, [0; 4]);
    }

    #[test]
    fn a_checkpoint_equals_fresh_copies_and_restores_the_one_before() {
        let space = MemorySpace::new(3);
        let a = space.nat_array("A", |_| 0);
        let (mut stats, mut footprint) = (space.stats(), space.footprint());
        let (first, first_fp) = (stats.clone(), footprint.clone());
        a.get(p(1)).write(p(1), 300);
        let m = space.mwmr::<String>("M", String::new());
        m.write(p(2), "x".repeat(40));
        a.get(p(0)).read(p(2));
        let entry = space.checkpoint(&mut stats, &mut footprint);
        assert_eq!((&stats, &footprint), (&space.stats(), &space.footprint()));
        assert_eq!(footprint.row("M").unwrap().hwm_bits, 320);
        entry.restore_stats(&mut stats);
        entry.restore_footprint(&mut footprint);
        assert_eq!((stats, footprint), (first, first_fp));
    }

    #[test]
    #[should_panic(expected = "another space")]
    fn a_checkpoint_of_another_space_is_refused() {
        let (a, b) = (MemorySpace::new(1), MemorySpace::new(1));
        let _ = a.nat_register("X", p(0), 0);
        let _ = b.mwmr::<u64>("X", 0);
        let (mut stats, mut footprint) = (a.stats(), a.footprint());
        let _ = b.checkpoint(&mut stats, &mut footprint);
    }
}
