//! A bank's register names, in one allocation.
//!
//! Every bank is either a scalar register, named by its caller, or an
//! array or matrix row whose slot `i` is named `PREFIX[i]`. A
//! [`BankNames`] keeps every name of the bank back to back in one shared
//! string, so a bank of `len` registers costs one allocation for its names
//! (not one per register), and a statistics layout shares it by cloning
//! one `Arc`. Slot `i`'s name is found by arithmetic: `PREFIX[0]` …
//! `PREFIX[i − 1]` take `i · (|PREFIX| + 2)` bytes plus the digits of
//! `0..i`.

use std::fmt;
use std::fmt::Write as _;
use std::ops::Index;
use std::sync::Arc;

/// The names of one bank's registers, in slot order (see
/// [`BankRow`](crate::BankRow)).
///
/// Index it for one name (`names[0]` is a `str`), or iterate over all of
/// them. Two name lists are equal when their names are.
#[derive(Clone)]
pub struct BankNames {
    /// Every name of the bank, back to back.
    text: Arc<str>,
    /// `p`: slot `i` is `text[..p]` followed by `[i]`. [`SCALAR`]: one
    /// slot, named `text`. Not an `Option`, which would take a bank a word
    /// more.
    prefix: u32,
    len: u32,
}

/// The [`BankNames::prefix`] of a scalar's names.
const SCALAR: u32 = u32::MAX;

/// Total decimal digits of the numbers `0..i`.
fn digits_before(i: usize) -> usize {
    let (mut total, mut from, mut to, mut width) = (0, 0, 10_usize, 1);
    while from < i {
        total += (i.min(to) - from) * width;
        (from, to, width) = (to, to.saturating_mul(10), width + 1);
    }
    total
}

impl BankNames {
    /// The one name of a scalar register.
    pub(crate) fn scalar(name: &str) -> Self {
        BankNames {
            text: Arc::from(name),
            prefix: SCALAR,
            len: 1,
        }
    }

    /// `prefix[0]` … `prefix[len − 1]`, written through `scratch` (a buffer
    /// the caller keeps, so that the names cost the one allocation that
    /// holds them).
    pub(crate) fn indexed(prefix: &str, len: usize, scratch: &mut String) -> Self {
        scratch.clear();
        for slot in 0..len {
            write!(scratch, "{prefix}[{slot}]").expect("writing to a String cannot fail");
        }
        BankNames {
            text: Arc::from(scratch.as_str()),
            prefix: u32::try_from(prefix.len())
                .ok()
                .filter(|&prefix| prefix != SCALAR)
                .expect("register name fits u32"),
            len: u32::try_from(len).expect("bank length fits u32"),
        }
    }

    /// Number of names (the bank's slot count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the bank has no slot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The names in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|slot| &self[slot])
    }

    /// Where slot `slot`'s name begins in `text` (`slot == len` for the end).
    fn start(&self, slot: usize) -> usize {
        match self.prefix {
            SCALAR => slot * self.text.len(),
            prefix => slot * (prefix as usize + 2) + digits_before(slot),
        }
    }
}

impl Index<usize> for BankNames {
    type Output = str;

    /// The name of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    fn index(&self, slot: usize) -> &str {
        assert!(
            slot < self.len(),
            "slot {slot} of a bank of {} registers",
            self.len
        );
        &self.text[self.start(slot)..self.start(slot + 1)]
    }
}

impl PartialEq for BankNames {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.text, &other.text) && self.prefix == other.prefix)
            || (self.len == other.len && self.iter().eq(other.iter()))
    }
}

impl Eq for BankNames {}

impl fmt::Debug for BankNames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_names_are_prefix_and_slot() {
        let mut scratch = String::new();
        for len in [0, 1, 9, 10, 11, 100, 101, 1_234] {
            let names = BankNames::indexed("LOG[7].RR", len, &mut scratch);
            let expected: Vec<String> = (0..len).map(|i| format!("LOG[7].RR[{i}]")).collect();
            assert_eq!(names.iter().collect::<Vec<_>>(), expected, "len {len}");
            assert_eq!((names.len(), names.is_empty()), (len, len == 0));
        }
    }

    #[test]
    fn a_scalar_is_its_name() {
        let names = BankNames::scalar("X[3]");
        assert_eq!(names.iter().collect::<Vec<_>>(), ["X[3]"]);
        assert_eq!(&names[0], "X[3]");
        assert_eq!(format!("{names:?}"), r#"["X[3]"]"#);
    }

    #[test]
    fn equal_by_names_whatever_the_spelling() {
        let mut scratch = String::new();
        let array = BankNames::indexed("A", 1, &mut scratch);
        assert_eq!(array, BankNames::scalar("A[0]"));
        assert_eq!(array, array.clone());
        assert_ne!(array, BankNames::indexed("A", 2, &mut scratch));
        assert_ne!(array, BankNames::scalar("A"));
    }

    #[test]
    #[should_panic(expected = "slot 2 of a bank of 2 registers")]
    fn a_slot_past_the_bank_has_no_name() {
        let _ = &BankNames::indexed("A", 2, &mut String::new())[2];
    }

    #[test]
    fn digit_counts() {
        let brute = |i: usize| (0..i).map(|j| j.to_string().len()).sum::<usize>();
        for i in (0..2_000).chain([9_999, 10_000, 10_001, 123_456]) {
            assert_eq!(digits_before(i), brute(i), "{i}");
        }
    }
}
