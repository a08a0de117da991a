//! Process identities and small process sets.

use std::fmt;

/// Identity of a process in a shared-memory system of `n` processes.
///
/// The paper numbers processes `p_1 … p_n`; this crate uses zero-based
/// indices internally and renders them as `p0 … p{n-1}`. Identities are
/// totally ordered, which the election algorithms rely on for the
/// lexicographic `(suspicion count, identity)` tie-break.
///
/// # Examples
///
/// ```
/// use omega_registers::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// assert!(ProcessId::new(1) < ProcessId::new(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates the identity of the process with zero-based index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[must_use]
    #[inline]
    pub fn new(index: usize) -> Self {
        ProcessId(u32::try_from(index).expect("process index exceeds u32"))
    }

    /// Zero-based index of this process, usable for array indexing.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all `n` process identities `p0 … p{n-1}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega_registers::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids.len(), 3);
    /// assert_eq!(ids[2].index(), 2);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n).map(ProcessId::new)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<ProcessId> for usize {
    fn from(pid: ProcessId) -> usize {
        pid.index()
    }
}

/// The identity most often reported as leader among `estimates` (`None`
/// entries — crashed or not-yet-stepped processes — abstain), ties broken
/// towards the smaller identity; `None` when nobody reports one.
///
/// This is the one "whom does the system currently trust" vote: the
/// simulator's leader-relative crash directives and leader-stalling
/// adversary, the wall-clock cluster's `crash_current_leader`, and the
/// service router all aim at it, so a scripted leader crash hits the same
/// process on every backend.
#[must_use]
pub fn plurality(estimates: impl IntoIterator<Item = Option<ProcessId>>) -> Option<ProcessId> {
    let mut counts: Vec<(ProcessId, usize)> = Vec::new();
    for leader in estimates.into_iter().flatten() {
        match counts.iter_mut().find(|(p, _)| *p == leader) {
            Some((_, c)) => *c += 1,
            None => counts.push((leader, 1)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(p, c)| (c, std::cmp::Reverse(p)))
        .map(|(p, _)| p)
}

/// A set of process identities with fixed capacity `n`, backed by a bitset.
///
/// Used for the `candidates_i` sets of the election algorithms and for
/// writer/reader-set queries in the instrumentation. Operations are `O(1)`
/// except iteration and [`len`](ProcessSet::len), which are `O(n/64)`.
///
/// # Examples
///
/// ```
/// use omega_registers::{ProcessId, ProcessSet};
///
/// let mut set = ProcessSet::new(8);
/// set.insert(ProcessId::new(2));
/// set.insert(ProcessId::new(5));
/// assert!(set.contains(ProcessId::new(2)));
/// assert_eq!(set.len(), 2);
/// set.remove(ProcessId::new(2));
/// assert_eq!(set.iter().next(), Some(ProcessId::new(5)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ProcessSet {
    bits: Vec<u64>,
    capacity: usize,
}

impl ProcessSet {
    /// Creates an empty set able to hold identities `p0 … p{n-1}`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ProcessSet {
            bits: vec![0; n.div_ceil(64)],
            capacity: n,
        }
    }

    /// Creates the full set `{p0, …, p{n-1}}`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut set = ProcessSet::new(n);
        for pid in ProcessId::all(n) {
            set.insert(pid);
        }
        set
    }

    /// Creates a set containing only `pid`, with capacity `n`.
    ///
    /// # Panics
    ///
    /// Panics if `pid.index() >= n`.
    #[must_use]
    pub fn singleton(n: usize, pid: ProcessId) -> Self {
        let mut set = ProcessSet::new(n);
        set.insert(pid);
        set
    }

    /// Number of identities this set can hold (`n`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `pid`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `pid.index() >= capacity`.
    #[inline]
    pub fn insert(&mut self, pid: ProcessId) -> bool {
        let i = pid.index();
        assert!(
            i < self.capacity,
            "{pid} out of range for capacity {}",
            self.capacity
        );
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let was = self.bits[word] & bit != 0;
        self.bits[word] |= bit;
        !was
    }

    /// Removes `pid`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, pid: ProcessId) -> bool {
        let i = pid.index();
        if i >= self.capacity {
            return false;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let was = self.bits[word] & bit != 0;
        if was {
            // Only a real removal stores: a `T3` pass removes the same
            // resigned processes again every time, and fifteen
            // read-modify-writes of one word form a chain through memory
            // where fifteen loads of it do not.
            self.bits[word] &= !bit;
        }
        was
    }

    /// Whether `pid` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(&self, pid: ProcessId) -> bool {
        let i = pid.index();
        i < self.capacity && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of identities in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether some member other than `except` has an index in `range`
    /// (the part of it past the capacity holds none): a masked test of
    /// each word the range touches — one word for a `T3` shard.
    #[must_use]
    #[inline]
    pub fn any_in_except(&self, range: std::ops::Range<usize>, except: ProcessId) -> bool {
        let (start, end) = (range.start, range.end.min(self.capacity));
        if start >= end {
            return false;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        if first == last {
            // A shard of at most 64: the one word, and no loop.
            let mask = (u64::MAX << (start % 64)) & (u64::MAX >> (63 - (end - 1) % 64));
            let own = u64::from(except.index() / 64 == first) << (except.index() % 64);
            return self.bits[first] & mask & !own != 0;
        }
        let word = |w: usize| {
            let low = if w == first {
                u64::MAX << (start % 64)
            } else {
                u64::MAX
            };
            let high = if w == last {
                u64::MAX >> (63 - (end - 1) % 64)
            } else {
                u64::MAX
            };
            let own = if w == except.index() / 64 {
                1 << (except.index() % 64)
            } else {
                0
            };
            self.bits[w] & low & high & !own
        };
        (first..=last).any(|w| word(w) != 0)
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over the members in increasing identity order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        // Word by word, lowest set bit first: the cost follows the members,
        // not the capacity (a stabilized candidate set holds two).
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| ProcessId::new(w * 64 + rest.trailing_zeros() as usize))
        })
    }

    /// The smallest member, if any.
    #[must_use]
    pub fn min(&self) -> Option<ProcessId> {
        self.iter().next()
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    /// Collects identities into a set whose capacity is one past the
    /// largest index seen (or zero for an empty iterator).
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let ids: Vec<ProcessId> = iter.into_iter().collect();
        let cap = ids.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        let mut set = ProcessSet::new(cap);
        for pid in ids {
            set.insert(pid);
        }
        set
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for pid in iter {
            self.insert(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plurality_prefers_smaller_id_on_ties() {
        let p = |i| Some(ProcessId::new(i));
        assert_eq!(plurality([p(2), p(1)]), Some(ProcessId::new(1)));
        assert_eq!(plurality([p(2), p(2), p(1)]), Some(ProcessId::new(2)));
        assert_eq!(plurality([None, None]), None);
    }

    #[test]
    fn pid_ordering_and_display() {
        let a = ProcessId::new(1);
        let b = ProcessId::new(10);
        assert!(a < b);
        assert_eq!(format!("{a}"), "p1");
        assert_eq!(format!("{b:?}"), "p10");
        assert_eq!(usize::from(b), 10);
    }

    #[test]
    fn pid_all_enumerates() {
        assert_eq!(ProcessId::all(0).count(), 0);
        let v: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(
            v,
            vec![
                ProcessId::new(0),
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(3)
            ]
        );
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = ProcessSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(ProcessId::new(0)));
        assert!(s.insert(ProcessId::new(64)));
        assert!(s.insert(ProcessId::new(129)));
        assert!(
            !s.insert(ProcessId::new(129)),
            "double insert reports false"
        );
        assert_eq!(s.len(), 3);
        assert!(s.contains(ProcessId::new(64)));
        assert!(!s.contains(ProcessId::new(63)));
        assert!(s.remove(ProcessId::new(64)));
        assert!(!s.remove(ProcessId::new(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn any_in_except_matches_a_member_filter() {
        let mut s = ProcessSet::new(200);
        for i in [0, 1, 15, 16, 63, 64, 65, 127, 128, 150, 199] {
            s.insert(ProcessId::new(i));
        }
        for except in [0, 16, 64, 70, 199].map(ProcessId::new) {
            for start in 0..=205 {
                for end in start..=205 {
                    let mut members = s.iter().filter(|p| (start..end).contains(&p.index()));
                    assert_eq!(
                        s.any_in_except(start..end, except),
                        members.any(|p| p != except),
                        "{start}..{end} except {except}"
                    );
                }
            }
        }
        assert!(!ProcessSet::new(0).any_in_except(0..10, ProcessId::new(0)));
    }

    #[test]
    fn set_full_and_min() {
        let s = ProcessSet::full(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.min(), Some(ProcessId::new(0)));
        let mut s = s;
        s.remove(ProcessId::new(0));
        s.remove(ProcessId::new(1));
        assert_eq!(s.min(), Some(ProcessId::new(2)));
    }

    #[test]
    fn set_iter_order() {
        let mut s = ProcessSet::new(70);
        s.insert(ProcessId::new(65));
        s.insert(ProcessId::new(2));
        s.insert(ProcessId::new(40));
        let v: Vec<usize> = s.iter().map(ProcessId::index).collect();
        assert_eq!(v, vec![2, 40, 65]);
    }

    #[test]
    fn set_from_iterator_sizes_capacity() {
        let s: ProcessSet = [3usize, 7, 1].into_iter().map(ProcessId::new).collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn singleton_contains_only_member() {
        let s = ProcessSet::singleton(4, ProcessId::new(2));
        assert_eq!(s.len(), 1);
        assert!(s.contains(ProcessId::new(2)));
        assert!(!s.contains(ProcessId::new(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = ProcessSet::new(2);
        s.insert(ProcessId::new(2));
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = ProcessSet::new(2);
        assert!(!s.remove(ProcessId::new(99)));
    }

    #[test]
    fn debug_formats_as_set() {
        let s = ProcessSet::singleton(3, ProcessId::new(1));
        assert_eq!(format!("{s:?}"), "{p1}");
    }
}
