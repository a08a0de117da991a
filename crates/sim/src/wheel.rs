//! The generic timer wheel behind every deadline-ordered queue.
//!
//! [`TimerWheel`] is a hierarchical bucket queue: a near-horizon wheel of
//! [`WHEEL_SLOTS`] one-key buckets with a binary-heap fallback for far and
//! overdue keys. Both of the repo's scheduling substrates instantiate it —
//! the simulator's [`EventQueue`](crate::event::EventQueue) (keys are
//! virtual ticks, payloads are simulation events) and the runtime's
//! cooperative scheduler (keys are quantized wall-clock microseconds,
//! payloads are task ids) — so the subtle invariants (overdue-first pop,
//! migrate-on-cursor-advance, FIFO order across migration) live exactly
//! once.
//!
//! Pop order is **exactly** ascending `(key, seq)`, where `seq` is the
//! push order: equal keys pop FIFO, and the order is identical to a
//! reference binary heap over `(key, seq)`. Seeded property tests on both
//! instantiations (`harness_properties.rs` in this crate, the coop module
//! in `omega-runtime`) pin that equivalence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of wheel slots: one per key of the near-horizon window. Must be
/// a power of two (the slot index is `key & (WHEEL_SLOTS - 1)`). 4096
/// keys covers every step delay and timer duration the scenario suite
/// produces; anything longer takes the heap fallback.
pub const WHEEL_SLOTS: usize = 4096;

/// One far or overdue entry: a payload due at `key`, tie-broken by push
/// order.
struct Entry<T> {
    key: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.seq) == (other.key, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (key, seq) pops
        // first.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// "No link": the end of a slot's chain or of the free list.
const NIL: u32 = u32::MAX;

/// Priority queue of payloads ordered by `(key, seq)`: O(1) push and pop
/// for keys inside the near-horizon window, heap fallback beyond it.
///
/// # Examples
///
/// ```
/// use omega_sim::wheel::TimerWheel;
///
/// let mut wheel: TimerWheel<&str> = TimerWheel::new();
/// wheel.push(5, "later");
/// wheel.push(2, "sooner");
/// let (key, _seq, payload) = wheel.pop().unwrap();
/// assert_eq!((key, payload), (2, "sooner"));
/// ```
///
/// # Ordering invariants
///
/// * Wheel slots only ever hold entries of a single key value (`cursor ≤
///   key < cursor + WHEEL_SLOTS` maps each admissible key to a distinct
///   slot), appended — and therefore popped — in `seq` order.
/// * The heap holds the *far* entries (`key ≥ cursor + WHEEL_SLOTS` at
///   push) and the *overdue* ones (`key < cursor` at push, which a plain
///   heap queue allowed and some callers exercise). Far entries migrate
///   into the wheel whenever `cursor` advances, **before** any later push
///   could target their slot directly, so same-key entries keep their
///   global `seq` order across the two structures.
///
/// # Memory
///
/// Every wheel entry is a node of one slab, a slot is the chain of its
/// nodes in push order, and a popped node goes onto a free list that the
/// next push takes from. The slab therefore grows to the peak number of
/// entries *live at once* — about two per process in a simulation — and
/// the slot tables are 32 KB however bursty a tick gets. (A growable ring
/// per slot instead keeps, in each of the 4096 slots, room for the busiest
/// tick that ever hit it, and the cursor walks all of them.)
///
/// The chains are kept in one array of links: `links[s]`, `s <
/// WHEEL_SLOTS`, is the first node of slot `s`; `links[i]` beyond that is
/// the successor of node `i`. A slot's head is thereby just the link before
/// its first node, and appending is "store into the chain's last link"
/// whether or not the chain is empty. (Whether a slot is empty is a coin
/// toss at n = 5, ten entries over six keys, and no branch predictor wins
/// it: a `(head, tail)` pair per slot with an `if tail == NIL` on every
/// push ran `elect-small` 7 % slower.)
pub struct TimerWheel<T> {
    /// Slot heads, then node successors (in a chain or on the free list).
    links: Vec<u32>,
    /// Per slot, which link ends its chain: its own head while it is empty,
    /// else its last node's.
    tails: Box<[u32]>,
    /// `(seq, payload)` of node `i` at `i - WHEEL_SLOTS`; the payload is
    /// `None` while the node is free. It carries no key: a slot holds one
    /// key at a time and the cursor names it.
    entries: Vec<(u64, Option<T>)>,
    /// First node of the free list.
    free: u32,
    /// Lower bound of the wheel window; every wheel entry has `key ≥
    /// cursor`, every far-heap entry has `key ≥ cursor + WHEEL_SLOTS`
    /// (or is overdue).
    cursor: u64,
    /// Entries currently in the wheel.
    wheel_len: usize,
    /// Far and overdue entries (see type-level docs).
    far: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len())
            .field("cursor", &self.cursor)
            .field("wheel_len", &self.wheel_len)
            .field("far_len", &self.far.len())
            .finish()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            links: vec![NIL; WHEEL_SLOTS],
            tails: (0..WHEEL_SLOTS as u32).collect(),
            entries: Vec::new(),
            free: NIL,
            cursor: 0,
            wheel_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    #[inline]
    fn slot_of(key: u64) -> usize {
        (key as usize) & (WHEEL_SLOTS - 1)
    }

    /// Appends an entry to the chain of `key`'s slot, in a node off the
    /// free list if there is one. `key` must lie in the wheel window.
    #[inline]
    fn link(&mut self, key: u64, seq: u64, payload: T) {
        let entry = (seq, Some(payload));
        let at = match self.free {
            NIL => {
                let at = u32::try_from(self.links.len())
                    .ok()
                    .filter(|&at| at != NIL)
                    .expect("fewer than 2^32 entries in the wheel at once");
                self.links.push(NIL);
                self.entries.push(entry);
                at
            }
            at => {
                self.free = std::mem::replace(&mut self.links[at as usize], NIL);
                self.entries[at as usize - WHEEL_SLOTS] = entry;
                at
            }
        };
        let tail = &mut self.tails[Self::slot_of(key)];
        self.links[*tail as usize] = at;
        *tail = at;
        self.wheel_len += 1;
    }

    /// Queues `payload` at `key`, returning the assigned tie-break `seq`.
    /// Entries pushed earlier sort first among equal keys, making pop
    /// order fully deterministic.
    pub fn push(&mut self, key: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if key >= self.cursor && key - self.cursor < WHEEL_SLOTS as u64 {
            self.link(key, seq, payload);
        } else {
            self.far.push(Entry { key, seq, payload });
        }
        seq
    }

    /// Moves every far entry that now falls inside the wheel window into
    /// its slot. Heap pops come out in `(key, seq)` order, and any such
    /// entry was pushed before any same-key entry already pushed directly
    /// into the window (direct pushes require the window to cover the key,
    /// far pushes require it not to, and the window's lower edge only
    /// advances), so appending preserves global `seq` order per slot.
    fn migrate(&mut self) {
        let window_end = self.cursor.saturating_add(WHEEL_SLOTS as u64);
        while let Some(entry) = self.far.peek() {
            if entry.key < self.cursor || entry.key >= window_end {
                break;
            }
            let entry = self.far.pop().expect("peeked");
            self.link(entry.key, entry.seq, entry.payload);
        }
    }

    /// Removes and returns the earliest `(key, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        // Overdue entries (pushed behind the cursor) are strictly earlier
        // than anything in the wheel, which holds only `key ≥ cursor`.
        if let Some(entry) = self.far.peek() {
            if entry.key < self.cursor {
                let entry = self.far.pop().expect("peeked");
                return Some((entry.key, entry.seq, entry.payload));
            }
        }
        if self.wheel_len == 0 {
            // Nothing near: jump straight to the earliest far entry.
            let earliest = self.far.peek()?.key;
            self.cursor = earliest;
            self.migrate();
        }
        loop {
            let slot = Self::slot_of(self.cursor);
            let at = self.links[slot];
            if at != NIL {
                // Unchain the node and put it first on the free list.
                let after = std::mem::replace(&mut self.links[at as usize], self.free);
                self.free = at;
                self.links[slot] = after;
                if after == NIL {
                    self.tails[slot] = slot as u32;
                }
                self.wheel_len -= 1;
                let (seq, payload) = &mut self.entries[at as usize - WHEEL_SLOTS];
                let payload = payload.take().expect("chained nodes are live");
                return Some((self.cursor, *seq, payload));
            }
            // Slot drained: advance the window one key and let any far
            // entry that just became near claim its slot before anyone can
            // push to it directly.
            self.cursor += 1;
            self.migrate();
        }
    }

    /// The key of the earliest pending entry.
    #[must_use]
    pub fn peek_key(&self) -> Option<u64> {
        let far = self.far.peek().map(|e| e.key);
        if let Some(k) = far {
            if k < self.cursor {
                return far;
            }
        }
        if self.wheel_len > 0 {
            // The first occupied slot from the cursor on; its offset is its
            // key's (a key past `u64::MAX` cannot have been pushed).
            let occupied =
                |offset: &u64| self.links[Self::slot_of(self.cursor.wrapping_add(*offset))] != NIL;
            if let Some(offset) = (0..WHEEL_SLOTS as u64).find(occupied) {
                return Some(self.cursor + offset);
            }
        }
        far
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order_with_fifo_ties_and_seqs() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.push(10, 'a'), 0);
        assert_eq!(wheel.push(1, 'b'), 1);
        assert_eq!(wheel.push(10, 'c'), 2);
        let order: Vec<(u64, u64, char)> = std::iter::from_fn(|| wheel.pop()).collect();
        assert_eq!(order, vec![(1, 1, 'b'), (10, 0, 'a'), (10, 2, 'c')]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn non_ord_payloads_are_accepted() {
        // The heap orders entries by (key, seq) alone, so payloads need no
        // Ord/Eq of their own.
        #[derive(Debug)]
        struct Opaque;
        let mut wheel = TimerWheel::new();
        wheel.push(WHEEL_SLOTS as u64 * 2, Opaque); // far: lives in the heap
        wheel.push(3, Opaque);
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop().unwrap().0, 3);
        assert_eq!(wheel.pop().unwrap().0, WHEEL_SLOTS as u64 * 2);
    }

    #[test]
    fn slab_is_bounded_by_live_entries_not_by_slots_visited() {
        // 300 entries kept in flight, in same-key bursts, while the cursor
        // sweeps the whole slot table more than twice: the slab never
        // outgrows what was live at once.
        let mut wheel = TimerWheel::new();
        let mut rng = crate::rng::SmallRng::seed_from_u64(23);
        for i in 0..300_u32 {
            wheel.push(rng.gen_range(0..=7), i);
        }
        let mut slots_seen = vec![false; WHEEL_SLOTS];
        let mut last = None;
        for _ in 0..1_000_000 {
            let (key, seq, payload) = wheel.pop().expect("300 stay in flight");
            assert!(Some((key, seq)) > last, "ascending (key, seq)");
            last = Some((key, seq));
            slots_seen[TimerWheel::<u32>::slot_of(key)] = true;
            wheel.push(key + rng.gen_range(1..=6), payload);
        }
        assert!(slots_seen.iter().all(|&seen| seen), "every slot was used");
        assert_eq!(wheel.len(), 300);
        assert!(wheel.entries.len() <= 512, "{} nodes", wheel.entries.len());
    }
}
