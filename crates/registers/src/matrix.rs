//! The `SUSPICIONS`-style register matrix: row `i` owned by process `p_i`.
//!
//! A matrix is `n` [banks](crate::swmr), one per row: row `r`'s `n` value
//! cells are adjacent and each reader keeps one read tally for the row, so
//! [`OwnedMatrix::read_row_into`] — what every `SUSPICIONS` cache refresh
//! is made of — is one range read over adjacent memory and one counter
//! bump. The row is the bank because the row is what gets scanned; a
//! column read (`PROGRESS[k][i]` for all `k` in Figure 5) visits one slot
//! in each of `n` banks, as it visited `n` registers before.

use std::fmt;

use crate::array::SwmrArray;
use crate::cell::{LockCell, SharedCell};
use crate::swmr::SwmrRef;
use crate::value::RegisterValue;
use crate::ProcessId;

/// An `n × n` matrix of 1WnR registers where row `i` is owned by `p_i`.
///
/// This is the layout of the paper's `SUSPICIONS[1..n][1..n]` (Figure 2) and
/// of the boolean handshake matrices `PROGRESS[1..n][1..n]` / `LAST[1..n][1..n]`
/// of Figure 5 — with the twist that in Figure 5 `LAST[k][i]` is owned by the
/// *column* process `p_i`; the owning axis ([`OwnerAxis`]) is selected by the
/// [`MemorySpace`](crate::MemorySpace) constructor used (`row_matrix` vs.
/// `column_matrix`).
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(2);
/// // SUSPICIONS[i][k]: row-owned — p_i writes SUSPICIONS[i][*].
/// let susp = space.row_matrix::<u64>("SUSPICIONS", |_, _| 0);
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
/// susp.get(p0, p1).write(p0, 3);
/// assert_eq!(susp.get(p0, p1).read(p1), 3);
/// ```
pub struct OwnedMatrix<T: RegisterValue, C: SharedCell<T> = LockCell<T>> {
    /// `rows[row]` views the row's bank; who owns `[row][col]` is the
    /// bank's business (`p_row` or `p_col`, per [`OwnerAxis`]).
    rows: Vec<SwmrArray<T, C>>,
}

/// Which index of a matrix entry `M[r][c]` names the owning process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerAxis {
    /// `M[r][c]` is owned by `p_r` — the `SUSPICIONS` layout.
    Row,
    /// `M[r][c]` is owned by `p_c` — the `LAST` handshake layout of Figure 5,
    /// where `LAST[k][i]` is written by the *reader* `p_i`.
    Column,
}

impl<T: RegisterValue, C: SharedCell<T>> OwnedMatrix<T, C> {
    pub(crate) fn from_rows(rows: Vec<SwmrArray<T, C>>) -> Self {
        OwnedMatrix { rows }
    }

    /// The register at `[row][col]`, borrowed from the matrix.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, row: ProcessId, col: ProcessId) -> SwmrRef<'_, T, C> {
        self.rows[row.index()].get(col)
    }

    /// Matrix dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Iterates over `(row, col, register)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessId, SwmrRef<'_, T, C>)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |(c, reg)| (ProcessId::new(r), c, reg)))
    }

    /// Iterates over the registers of one row.
    pub fn row(&self, row: ProcessId) -> impl Iterator<Item = (ProcessId, SwmrRef<'_, T, C>)> {
        self.rows[row.index()].iter()
    }

    /// Iterates over the registers of one column.
    pub fn column(&self, col: ProcessId) -> impl Iterator<Item = (ProcessId, SwmrRef<'_, T, C>)> {
        self.rows
            .iter()
            .enumerate()
            .map(move |(r, row)| (ProcessId::new(r), row.get(col)))
    }

    /// The write version of `row`, or `None` if the matrix keeps no epoch
    /// table (one not made by
    /// [`MemorySpace::epoched_nat_row_matrix`](crate::MemorySpace::epoched_nat_row_matrix)).
    /// It moves with every write and poke of the row, whichever view made
    /// it, and with every partition install and heal; it never moves
    /// otherwise. Read it *before* reading the row: a write racing the
    /// reads then leaves the version the caller keeps behind.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega_registers::{MemorySpace, ProcessId};
    ///
    /// let space = MemorySpace::new(3);
    /// let susp = space.epoched_nat_row_matrix("SUSPICIONS", |_, _| 0);
    /// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    ///
    /// let before = susp.row_version(p0);
    /// susp.get(p0, p1).write(p0, 7);
    /// assert_ne!(susp.row_version(p0), before, "the write moved the row");
    ///
    /// let seen = susp.row_version(p0);
    /// let mut row = vec![0; 3];
    /// susp.read_row_into(p0, p1, &mut row);
    /// assert_eq!(row, vec![0, 7, 0]);
    /// assert_eq!(seen, susp.row_version(p0), "a read moves nothing");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    #[inline]
    pub fn row_version(&self, row: ProcessId) -> Option<u64> {
        self.rows[row.index()].bank().version(0..self.n())
    }

    /// The matrix-global write version, or `None` without a table: the
    /// rows share one table, whose global moves with every row's version,
    /// so an unchanged value proves every row unchanged — one load.
    #[must_use]
    #[inline]
    pub fn version(&self) -> Option<u64> {
        self.rows[0].bank().global_version()
    }

    /// Batch-reads the whole `row` into `out` on behalf of `reader` — one
    /// attributed read per column, as one range read of the row's bank
    /// (see [`SwmrArray::read_range_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n()` or `row` is out of range.
    pub fn read_row_into(&self, row: ProcessId, reader: ProcessId, out: &mut [T]) {
        assert_eq!(out.len(), self.n(), "snapshot buffer must hold a full row");
        self.rows[row.index()].read_range_into(reader, 0..out.len(), out);
    }
}

impl<T: RegisterValue, C: SharedCell<T>> Clone for OwnedMatrix<T, C> {
    fn clone(&self) -> Self {
        OwnedMatrix {
            rows: self.rows.clone(),
        }
    }
}

impl<T: RegisterValue, C: SharedCell<T>> fmt::Debug for OwnedMatrix<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "OwnedMatrix(n={})", self.n())?;
        for (r, row) in self.rows.iter().enumerate() {
            write!(f, "  row {r}: [")?;
            for (_, reg) in row.iter() {
                write!(f, " {:?}", reg.peek())?;
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    #[test]
    fn row_matrix_ownership() {
        let s = MemorySpace::new(3);
        let m = s.row_matrix::<u64>("SUSPICIONS", |r, c| (r + c) as u64);
        assert_eq!(m.n(), 3);
        for (r, c, reg) in m.iter() {
            assert_eq!(reg.owner(), r);
            assert_eq!(reg.peek(), (r.index() + c.index()) as u64);
            assert_eq!(
                reg.name(),
                format!("SUSPICIONS[{}][{}]", r.index(), c.index())
            );
        }
    }

    #[test]
    fn column_matrix_ownership() {
        let s = MemorySpace::new(3);
        let m = s.column_matrix::<bool>("LAST", |_, _| false);
        for (r, c, reg) in m.iter() {
            assert_eq!(
                reg.owner(),
                c,
                "LAST[{r}][{c}] must be owned by the column process"
            );
        }
    }

    #[test]
    #[should_panic(expected = "attempted to write")]
    fn row_matrix_rejects_cross_row_write() {
        let s = MemorySpace::new(2);
        let m = s.row_matrix::<u64>("S", |_, _| 0);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        m.get(p1, p0).write(p0, 1);
    }

    #[test]
    fn row_and_column_iterators() {
        let s = MemorySpace::new(3);
        let m = s.row_matrix::<u64>("S", |r, c| (10 * r + c) as u64);
        let p1 = ProcessId::new(1);
        let row: Vec<u64> = m.row(p1).map(|(_, r)| r.peek()).collect();
        assert_eq!(row, vec![10, 11, 12]);
        let col: Vec<u64> = m.column(p1).map(|(_, r)| r.peek()).collect();
        assert_eq!(col, vec![1, 11, 21]);
    }

    #[test]
    fn matrix_clone_shares_cells() {
        let s = MemorySpace::new(2);
        let a = s.row_matrix::<u64>("S", |_, _| 0);
        let b = a.clone();
        let p0 = ProcessId::new(0);
        a.get(p0, ProcessId::new(1)).write(p0, 5);
        assert_eq!(b.get(p0, ProcessId::new(1)).peek(), 5);
    }

    #[test]
    fn debug_renders_rows() {
        let s = MemorySpace::new(2);
        let m = s.row_matrix::<u64>("S", |_, _| 7);
        let out = format!("{m:?}");
        assert!(out.contains("n=2"));
        assert!(out.contains('7'));
    }
}
