//! Bit-footprint reporting: which registers stay bounded.
//!
//! Theorem 2 of the paper states that with Algorithm 1 every shared variable
//! except `PROGRESS[ℓ]` has a bounded domain; Theorem 6 states that with
//! Algorithm 2 *every* shared variable is bounded. A [`FootprintReport`]
//! exposes, for every register, the footprint of its current value and the
//! high-water mark over the whole run, so an experiment can compare reports
//! taken at increasing horizons and check which registers plateau.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::stats::SnapshotLayout;
use crate::ProcessId;

/// Footprint of a single register — a borrowed view into its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintRow<'a> {
    /// Register name, e.g. `PROGRESS\[3\]`.
    pub name: &'a str,
    /// Owner for 1WnR registers, `None` for nWnR registers.
    pub owner: Option<ProcessId>,
    /// Largest footprint (in bits) any stored value has had.
    pub hwm_bits: u64,
    /// Footprint of the value stored right now.
    pub current_bits: u64,
}

/// Snapshot of every register's bit footprint.
///
/// A report holds two numbers per register; names and owners live in the
/// space's interned layout, shared with every snapshot and report taken at
/// the same register count.
///
/// # Examples
///
/// ```
/// use omega_registers::{MemorySpace, ProcessId};
///
/// let space = MemorySpace::new(1);
/// let p0 = ProcessId::new(0);
/// let reg = space.nat_register("PROGRESS[0]", p0, 0);
/// reg.write(p0, 1000);
///
/// let report = space.footprint();
/// assert_eq!(report.total_hwm_bits(), 10);
/// assert_eq!(report.max_hwm_bits_where(|name| name.starts_with("PROGRESS")), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintReport {
    layout: Arc<SnapshotLayout>,
    /// `(hwm_bits, current_bits)` per register, in creation order.
    bits: Vec<(u64, u64)>,
}

impl FootprintReport {
    pub(crate) fn new(layout: Arc<SnapshotLayout>, bits: Vec<(u64, u64)>) -> Self {
        assert_eq!(layout.names.len(), bits.len(), "one pair per register");
        FootprintReport { layout, bits }
    }

    /// Per-register rows in register-creation order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = FootprintRow<'_>> + '_ {
        (self.layout.names.iter().zip(&self.layout.owners))
            .zip(&self.bits)
            .map(|((name, &owner), &(hwm_bits, current_bits))| FootprintRow {
                name,
                owner,
                hwm_bits,
                current_bits,
            })
    }

    /// Sum of all high-water marks: an upper bound on the shared-memory bits
    /// the run has ever needed.
    #[must_use]
    pub fn total_hwm_bits(&self) -> u64 {
        self.bits.iter().map(|&(hwm, _)| hwm).sum()
    }

    /// Sum of all current footprints.
    #[must_use]
    pub fn total_current_bits(&self) -> u64 {
        self.bits.iter().map(|&(_, current)| current).sum()
    }

    /// Largest high-water mark among registers whose name satisfies `pred`.
    ///
    /// Returns 0 if no register matches.
    #[must_use]
    pub fn max_hwm_bits_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.rows()
            .filter(|r| pred(r.name))
            .map(|r| r.hwm_bits)
            .max()
            .unwrap_or(0)
    }

    /// Sum of high-water marks among registers whose name satisfies `pred`.
    #[must_use]
    pub fn hwm_bits_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.rows()
            .filter(|r| pred(r.name))
            .map(|r| r.hwm_bits)
            .sum()
    }

    /// The row for a register by exact name, if present.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<FootprintRow<'_>> {
        self.rows().find(|r| r.name == name)
    }

    /// Registers whose high-water mark grew between `earlier` and `self`.
    ///
    /// This is the primitive behind the boundedness experiments: registers
    /// that keep appearing in successive `grown_since` reports as the
    /// horizon doubles are the unbounded ones. With Algorithm 1 exactly
    /// the leader's `PROGRESS` entry should keep growing; with Algorithm 2
    /// the result should eventually be empty.
    ///
    /// Two reports of one layout (one space, no register created between
    /// them) are compared register by register. Otherwise each register is
    /// compared with the row of the same name in `earlier` (the first,
    /// should a name repeat — what [`row`](Self::row) returns); a register
    /// `earlier` does not have counts as grown.
    #[must_use]
    pub fn grown_since(&self, earlier: &FootprintReport) -> Vec<&str> {
        if Arc::ptr_eq(&self.layout, &earlier.layout) {
            return (self.rows().zip(&earlier.bits))
                .filter(|(row, &(prev, _))| row.hwm_bits > prev)
                .map(|(row, _)| row.name)
                .collect();
        }
        // One name index over `earlier` rather than a `row()` search per
        // register: 66 000 registers at n = 256 make that 2·10⁹ compares.
        let mut earlier_hwm: HashMap<&str, u64> = HashMap::with_capacity(earlier.bits.len());
        for prev in earlier.rows() {
            earlier_hwm.entry(prev.name).or_insert(prev.hwm_bits);
        }
        self.rows()
            .filter(|row| (earlier_hwm.get(row.name)).is_none_or(|&prev| row.hwm_bits > prev))
            .map(|row| row.name)
            .collect()
    }
}

impl fmt::Display for FootprintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>9} {:>12}",
            "register", "hwm bits", "current bits"
        )?;
        for row in self.rows() {
            writeln!(
                f,
                "{:<24} {:>9} {:>12}",
                row.name, row.hwm_bits, row.current_bits
            )?;
        }
        writeln!(f, "total hwm: {} bits", self.total_hwm_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySpace;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// The search-per-row definition of `grown_since` across layouts —
    /// quadratic, and the oracle the indexed version must agree with row
    /// for row.
    fn grown_since_reference<'a>(
        later: &'a FootprintReport,
        earlier: &FootprintReport,
    ) -> Vec<&'a str> {
        later
            .rows()
            .filter(|row| {
                earlier
                    .row(row.name)
                    .is_none_or(|prev| row.hwm_bits > prev.hwm_bits)
            })
            .map(|row| row.name)
            .collect()
    }

    /// A report of ownerless scalars (each its own bank) with these names
    /// and high-water marks, over a layout of its own.
    fn report(rows: impl IntoIterator<Item = (String, u64)>) -> FootprintReport {
        let (names, hwm): (Vec<String>, Vec<u64>) = rows.into_iter().unzip();
        let banks = names
            .into_iter()
            .map(|name| std::iter::once((name.into(), None)));
        let layout = Arc::new(SnapshotLayout::new(1, banks));
        FootprintReport::new(layout, hwm.into_iter().map(|hwm| (hwm, 0)).collect())
    }

    /// The same registers as `earlier`, with these high-water marks.
    fn regrown(earlier: &FootprintReport, hwm: impl IntoIterator<Item = u64>) -> FootprintReport {
        let bits = hwm.into_iter().map(|hwm| (hwm, 0)).collect();
        FootprintReport::new(Arc::clone(&earlier.layout), bits)
    }

    #[test]
    fn grown_since_matches_the_reference_on_random_report_pairs() {
        // xorshift64*: this crate's tests stay dependency-free.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = move |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        for case in 0..2_000 {
            let len = below(24);
            // A pool smaller than the report forces repeated names.
            let pool = if case % 2 == 0 { 1_000 } else { 1 + below(12) };
            let earlier: Vec<(String, u64)> = (0..len)
                .map(|_| (format!("R[{}]", below(pool)), below(6)))
                .collect();
            let mut later: Vec<(String, u64)> = earlier
                .iter()
                .map(|(name, hwm)| (name.clone(), hwm + below(3) / 2))
                .collect();
            let earlier = report(earlier);
            match case % 4 {
                // Same space later on, no register created: the same rows
                // of the same layout, some grown — compared by index, so a
                // repeated name is compared with itself.
                0 => {
                    let later = regrown(&earlier, later.iter().map(|&(_, hwm)| hwm));
                    let by_index: Vec<&str> = (later.rows().zip(earlier.rows()))
                        .filter(|(now, then)| now.hwm_bits > then.hwm_bits)
                        .map(|(now, _)| now.name)
                        .collect();
                    assert_eq!(later.grown_since(&earlier), by_index, "case {case}");
                    continue;
                }
                // Registers created since.
                1 => later.extend((0..below(6)).map(|_| (format!("R[{}]", below(pool)), 1))),
                // Reordered.
                2 => {
                    for i in (1..later.len()).rev() {
                        later.swap(i, below(i as u64 + 1) as usize);
                    }
                }
                // Another space: unrelated rows, some names in common.
                _ => {
                    later = (0..below(24))
                        .map(|_| (format!("R[{}]", below(pool + 4)), below(6)))
                        .collect();
                }
            }
            let later = report(later);
            assert_eq!(
                later.grown_since(&earlier),
                grown_since_reference(&later, &earlier),
                "case {case}: {later:?} since {earlier:?}"
            );
        }
    }

    #[test]
    fn grown_since_is_linear_at_the_n_256_register_count() {
        // Figure 2 at n = 256: PROGRESS and STOP arrays plus the SUSPICIONS
        // matrix, the two reports over layouts of their own (the name-index
        // path). A search per row is 2·10⁹ name compares here — 5 s
        // optimized, 19 s not, against 10 ms and 65 ms indexed — so the
        // bound separates the two by an order of magnitude on any host.
        let n = 256;
        let names = || {
            (0..n)
                .map(|i| format!("PROGRESS[{i}]"))
                .chain((0..n).map(|i| format!("STOP[{i}]")))
                .chain((0..n).flat_map(|i| (0..n).map(move |j| format!("SUSPICIONS[{i}][{j}]"))))
        };
        let earlier = report(names().map(|name| (name, 1)));
        assert_eq!(earlier.rows().len(), 66_048);
        let later = report(names().enumerate().map(|(i, name)| match i {
            7 => (name, 40),
            66_047 => (name, 2),
            _ => (name, 1),
        }));
        let started = std::time::Instant::now();
        let grown = later.grown_since(&earlier);
        let elapsed = started.elapsed();
        assert_eq!(grown, ["PROGRESS[7]", "SUSPICIONS[255][255]"]);
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "grown_since over 66 048 rows took {elapsed:?}"
        );
        assert_eq!(
            regrown(&later, later.rows().map(|row| row.hwm_bits + 1)).grown_since(&later),
            names().collect::<Vec<_>>(),
            "one layout: every register against itself"
        );
    }

    #[test]
    fn totals_sum_rows() {
        let s = MemorySpace::new(2);
        let a = s.nat_register("A", p(0), 0);
        let b = s.flag_register("B", p(1), false);
        a.write(p(0), 255);
        b.write(p(1), true);
        let fp = s.footprint();
        assert_eq!(fp.total_hwm_bits(), 8 + 1);
        assert_eq!(fp.total_current_bits(), 8 + 1);
        assert_eq!(fp.rows().len(), 2);
    }

    #[test]
    fn hwm_survives_shrinking_values() {
        let s = MemorySpace::new(1);
        let a = s.nat_register("A", p(0), 0);
        a.write(p(0), u64::MAX);
        a.write(p(0), 1);
        let fp = s.footprint();
        assert_eq!(fp.row("A").unwrap().hwm_bits, 64);
        assert_eq!(fp.row("A").unwrap().current_bits, 1);
    }

    #[test]
    fn predicate_queries() {
        let s = MemorySpace::new(2);
        let progress = s.nat_array("PROGRESS", |_| 0);
        let _susp = s.nat_row_matrix("SUSPICIONS", |_, _| 0);
        progress.get(p(1)).write(p(1), 1 << 30);
        let fp = s.footprint();
        assert_eq!(fp.max_hwm_bits_where(|n| n.starts_with("PROGRESS")), 31);
        assert_eq!(fp.max_hwm_bits_where(|n| n.starts_with("SUSPICIONS")), 1);
        assert_eq!(fp.max_hwm_bits_where(|n| n.starts_with("NOPE")), 0);
        assert!(fp.hwm_bits_where(|n| n.starts_with("PROGRESS")) >= 31);
    }

    #[test]
    fn grown_since_identifies_unbounded_registers() {
        let s = MemorySpace::new(2);
        let progress = s.nat_array("PROGRESS", |_| 0);
        let stop = s.flag_array("STOP", |_| true);
        progress.get(p(0)).write(p(0), 10);
        stop.get(p(0)).write(p(0), false);
        let early = s.footprint();
        // Only PROGRESS[0] keeps growing.
        progress.get(p(0)).write(p(0), 1 << 40);
        stop.get(p(0)).write(p(0), true);
        let late = s.footprint();
        assert_eq!(late.grown_since(&early), vec!["PROGRESS[0]"]);
        assert!(late.grown_since(&late).is_empty());
    }

    #[test]
    fn display_renders_table() {
        let s = MemorySpace::new(1);
        let _ = s.nat_register("A", p(0), 7);
        let out = s.footprint().to_string();
        assert!(out.contains("A"));
        assert!(out.contains("total hwm"));
    }
}
