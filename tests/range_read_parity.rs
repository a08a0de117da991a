//! Range reads ≡ the same reads issued one `read(reader)` at a time, one
//! register per bank.
//!
//! Two spaces hold the same registers and run the same seeded random
//! script — owner writes, nWnR writes, scans, partition installs, cuts and
//! heals. One banks them as the algorithms do (an array or a matrix row is
//! a bank) and serves every scan through the range APIs
//! (`read_range_into`, `snapshot_into`, `read_row_into`,
//! `snapshot_row_into`); the other creates every register as a scalar of
//! its own, in the same order, and reads it singly. Reads are counted per
//! (reader, bank), so the scalar side keeps per-register attribution:
//! folded by the bank each scalar stands in for (`STOP[3]` → `STOP`,
//! `SUSPICIONS[2][0]` → `SUSPICIONS[2]`), its tallies must equal the banked
//! side's per reader. Everything else observable must agree outright: the
//! values returned, every register's write cells, `per_process_totals`,
//! footprints, `ScanStats` — and on a block-backed space the device sees
//! the same `read_block` calls in the same order.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use omega_shm::registers::cell::AtomicNatCell;
use omega_shm::registers::sync::Mutex;
use omega_shm::registers::{
    BlockDevice, EpochedNatMatrix, FlagArray, FlagMatrix, FlagRegister, Instrumentation,
    MemorySpace, MwmrNatArray, MwmrRegister, NatArray, NatRegister, ProcessId, StatsSnapshot,
};
use omega_shm::sim::rng::SmallRng;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The register families, one of every bank shape the repo builds:
/// identity-owned arrays, a row-owned and a column-owned matrix, an nWnR
/// array of `n + 2` slots.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Family {
    Progress,
    Stop,
    Suspicions,
    Last,
    Shared,
}

/// What a scan returned, widened to one type.
type Seen = Vec<u64>;

/// One side of a pair: the same registers and the same operations, over
/// banks or over scalars.
trait Side {
    fn space(&self) -> &MemorySpace;

    /// Writes `value` (its parity, for a flag) to slot `slot` of `family`
    /// (row `row` of a matrix) as its owner — or as `writer`, on the nWnR
    /// array.
    fn write(&self, family: Family, row: usize, slot: usize, writer: ProcessId, value: u64);

    /// Reads `slots` of `family` (row `row` of a matrix, always whole) on
    /// behalf of `reader`.
    fn scan(&self, family: Family, reader: ProcessId, row: usize, slots: Range<usize>) -> Seen;
}

struct Banked {
    space: MemorySpace,
    progress: NatArray,
    stop: FlagArray,
    suspicions: EpochedNatMatrix,
    last: FlagMatrix,
    shared: MwmrNatArray,
}

impl Banked {
    fn new(space: MemorySpace) -> Self {
        let n = space.n_processes();
        Banked {
            progress: space.nat_array("PROGRESS", |pid| pid.index() as u64),
            stop: space.flag_array("STOP", |pid| pid.index() % 2 == 0),
            suspicions: space.epoched_nat_row_matrix("SUSPICIONS", |r, c| (r * c) as u64),
            last: space.flag_column_matrix("LAST", |r, c| r < c),
            shared: space.nat_mwmr_array("SHARED", n + 2, |i| i as u64),
            space,
        }
    }
}

impl Side for Banked {
    fn space(&self) -> &MemorySpace {
        &self.space
    }

    fn write(&self, family: Family, row: usize, slot: usize, writer: ProcessId, value: u64) {
        let flag = value.is_multiple_of(2);
        match family {
            Family::Progress => self.progress.get(p(slot)).write(p(slot), value),
            Family::Stop => self.stop.get(p(slot)).write(p(slot), flag),
            Family::Suspicions => self.suspicions.write(p(row), p(slot), p(row), value),
            Family::Last => self.last.get(p(row), p(slot)).write(p(slot), flag),
            Family::Shared => self.shared.get(slot).write(writer, value),
        }
    }

    fn scan(&self, family: Family, reader: ProcessId, row: usize, slots: Range<usize>) -> Seen {
        let mut values = vec![0; slots.len()];
        let mut flags = vec![false; slots.len()];
        match family {
            Family::Progress => self.progress.read_range_into(reader, slots, &mut values),
            Family::Stop => self.stop.read_range_into(reader, slots, &mut flags),
            Family::Suspicions => {
                self.suspicions
                    .snapshot_row_into(p(row), reader, &mut values);
            }
            Family::Last => self.last.read_row_into(p(row), reader, &mut flags),
            Family::Shared if slots == (0..self.shared.len()) => {
                self.shared.snapshot_into(reader, &mut values);
            }
            Family::Shared => self.shared.read_range_into(reader, slots, &mut values),
        }
        match family {
            Family::Stop | Family::Last => flags.into_iter().map(u64::from).collect(),
            _ => values,
        }
    }
}

struct Scalars {
    space: MemorySpace,
    progress: Vec<NatRegister>,
    stop: Vec<FlagRegister>,
    suspicions: Vec<Vec<NatRegister>>,
    last: Vec<Vec<FlagRegister>>,
    shared: Vec<MwmrRegister<u64, AtomicNatCell>>,
}

impl Scalars {
    /// [`Banked::new`]'s registers, names, owners and initial values, in
    /// its creation order.
    fn new(space: MemorySpace) -> Self {
        let n = space.n_processes();
        Scalars {
            progress: (0..n)
                .map(|i| space.nat_register(&format!("PROGRESS[{i}]"), p(i), i as u64))
                .collect(),
            stop: (0..n)
                .map(|i| space.flag_register(&format!("STOP[{i}]"), p(i), i % 2 == 0))
                .collect(),
            suspicions: square(n, |r, c| {
                space.nat_register(&format!("SUSPICIONS[{r}][{c}]"), p(r), (r * c) as u64)
            }),
            last: square(n, |r, c| {
                space.flag_register(&format!("LAST[{r}][{c}]"), p(c), r < c)
            }),
            shared: (0..n + 2)
                .map(|i| space.mwmr_cell(&format!("SHARED[{i}]"), i as u64))
                .collect(),
            space,
        }
    }
}

/// `make(r, c)` for every row `r` and column `c` of an `n × n` matrix, row
/// by row.
fn square<R>(n: usize, make: impl Fn(usize, usize) -> R) -> Vec<Vec<R>> {
    (0..n)
        .map(|r| (0..n).map(|c| make(r, c)).collect())
        .collect()
}

impl Side for Scalars {
    fn space(&self) -> &MemorySpace {
        &self.space
    }

    fn write(&self, family: Family, row: usize, slot: usize, writer: ProcessId, value: u64) {
        let flag = value.is_multiple_of(2);
        match family {
            Family::Progress => self.progress[slot].write(p(slot), value),
            Family::Stop => self.stop[slot].write(p(slot), flag),
            Family::Suspicions => self.suspicions[row][slot].write(p(row), value),
            Family::Last => self.last[row][slot].write(p(slot), flag),
            Family::Shared => self.shared[slot].write(writer, value),
        }
    }

    fn scan(&self, family: Family, reader: ProcessId, row: usize, slots: Range<usize>) -> Seen {
        let seen = slots.map(|k| match family {
            Family::Progress => self.progress[k].read(reader),
            Family::Stop => u64::from(self.stop[k].read(reader)),
            Family::Suspicions => self.suspicions[row][k].read(reader),
            Family::Last => u64::from(self.last[row][k].read(reader)),
            Family::Shared => self.shared[k].read(reader),
        });
        let seen = seen.collect();
        if family == Family::Suspicions {
            // What the batched form records beside its reads.
            self.space.scan_counters().note_snapshot();
        }
        seen
    }
}

/// A range of `0..len` placed relative to `own`: containing it in the
/// interior, starting at it, ending just past it, ending just before it,
/// or anywhere at all (possibly empty).
fn range_around(g: &mut SmallRng, len: usize, own: usize) -> Range<usize> {
    let pick = |g: &mut SmallRng, lo: usize, hi: usize| g.gen_range(lo as u64..=hi as u64) as usize;
    let own = own.min(len - 1);
    match g.gen_range(0..=4) {
        0 => pick(g, 0, own)..pick(g, own + 1, len),
        1 => own..pick(g, own + 1, len),
        2 => pick(g, 0, own)..own + 1,
        3 => pick(g, 0, own)..own,
        _ => {
            let start = pick(g, 0, len);
            start..pick(g, start, len)
        }
    }
}

/// Draws one random step and applies it to both sides; returns what each
/// side's scan (if any) saw.
fn step(banked: &Banked, scalars: &Scalars, g: &mut SmallRng) -> (Seen, Seen) {
    let n = banked.space.n_processes();
    let who = p(g.gen_range(0..=n as u64 - 1) as usize);
    let other = p(g.gen_range(0..=n as u64 - 1) as usize);
    let value = g.next_u64() >> g.gen_range(0..=63);
    let (i, j) = (who.index(), other.index());
    let write = |family, row, slot| {
        banked.write(family, row, slot, who, value);
        scalars.write(family, row, slot, who, value);
    };
    let scan = |family, row, slots: Range<usize>| {
        let seen = banked.scan(family, who, row, slots.clone());
        (seen, scalars.scan(family, who, row, slots))
    };
    let both = |chaos: &dyn Fn(&MemorySpace)| {
        chaos(&banked.space);
        chaos(&scalars.space);
    };
    match g.gen_range(0..=13) {
        0 => write(Family::Progress, 0, i),
        1 => write(Family::Stop, 0, i),
        2 => write(Family::Suspicions, i, j),
        3 => write(Family::Last, j, i),
        4 => write(Family::Shared, 0, g.gen_range(0..=n as u64 + 1) as usize),
        5 | 6 => return scan(Family::Progress, 0, range_around(g, n, i)),
        7 => return scan(Family::Stop, 0, range_around(g, n, i)),
        8 => return scan(Family::Shared, 0, range_around(g, n + 2, i)),
        9 => return scan(Family::Shared, 0, 0..n + 2),
        10 => return scan(Family::Suspicions, j, 0..n),
        11 => return scan(Family::Last, j, 0..n),
        12 => match g.gen_range(0..=2) {
            // A symmetric partition at a random boundary, leaving the top
            // process outside every group.
            0 => {
                let cut = g.gen_range(1..=n as u64 - 2) as usize;
                let groups = [(0..cut).map(p).collect(), (cut..n - 1).map(p).collect()];
                both(&|space| space.install_partition(&groups));
            }
            // A directed cut: the low ids are blinded to the high ids.
            1 => {
                let cut = g.gen_range(1..=n as u64 - 1) as usize;
                let (blinded, hidden): (Vec<_>, Vec<_>) =
                    ((0..cut).map(p).collect(), (cut..n).map(p).collect());
                both(&|space| space.install_cut(&blinded, &hidden));
            }
            _ => both(&MemorySpace::heal_partition),
        },
        _ => both(&MemorySpace::heal_partition),
    }
    (Vec::new(), Vec::new())
}

/// Each process's reads per bank, the banks keyed by their first
/// register's name minus its last index — the scalar side's one-register
/// banks folded into the bank each stands in for.
fn reads_by_bank(stats: &StatsSnapshot) -> BTreeMap<String, Vec<u64>> {
    let mut folded = BTreeMap::new();
    for bank in stats.banks() {
        let name = &bank.names[0];
        let key = name[..name.rfind('[').expect("an indexed name")].to_string();
        let tally = folded.entry(key).or_insert(vec![0; bank.reads.len()]);
        for (total, count) in tally.iter_mut().zip(bank.reads) {
            *total += count;
        }
    }
    folded
}

fn assert_same_accounting(label: &str, banked: &Banked, scalars: &Scalars) {
    let (a, b) = (banked.space.stats(), scalars.space.stats());
    assert_eq!(a.rows().len(), b.rows().len(), "{label}");
    for (row_a, row_b) in a.rows().zip(b.rows()) {
        assert_eq!(
            (row_a.name, row_a.owner),
            (row_b.name, row_b.owner),
            "{label}"
        );
        for q in ProcessId::all(a.n_processes()) {
            assert_eq!(
                row_a.writes_by(q),
                row_b.writes_by(q),
                "{label}: {q}'s writes of {}",
                row_a.name
            );
        }
    }
    let folded = reads_by_bank(&a);
    assert_eq!(folded.len(), a.banks().len(), "{label}: one key per bank");
    assert_eq!(
        folded,
        reads_by_bank(&b),
        "{label}: reads per (reader, bank)"
    );
    assert_eq!(a.scan(), b.scan(), "{label}: ScanStats");
    assert_eq!(a.per_process_totals(), b.per_process_totals(), "{label}");
    assert_eq!(a.total_reads(), b.total_reads(), "{label}");
    let (fa, fb) = (banked.space.footprint(), scalars.space.footprint());
    assert_eq!(fa.rows().len(), fb.rows().len(), "{label}");
    assert!(fa.rows().eq(fb.rows()), "{label}: footprint");
}

fn run_pair(label: &str, banked: &Banked, scalars: &Scalars, seed: u64, steps: usize) {
    let mut g = SmallRng::seed_from_u64(seed);
    for i in 0..steps {
        let (seen_a, seen_b) = step(banked, scalars, &mut g);
        assert_eq!(seen_a, seen_b, "{label}: values at step {i}");
        if i % 97 == 0 {
            assert_same_accounting(&format!("{label} @ step {i}"), banked, scalars);
        }
    }
    assert_same_accounting(&format!("{label} at the end"), banked, scalars);
    assert!(banked.space.stats().total_reads() > 0, "{label}: scans ran");
}

#[test]
fn range_reads_match_single_reads_in_both_instrumentation_modes() {
    for mode in [Instrumentation::Eager, Instrumentation::Deferred] {
        for (case, n) in [(0, 3), (1, 5), (2, 8), (3, 17)] {
            let space = || MemorySpace::with_instrumentation(n, mode);
            let label = format!("{mode:?} n={n}");
            let (banked, scalars) = (Banked::new(space()), Scalars::new(space()));
            run_pair(&label, &banked, &scalars, 0xBA9C + case, 1_500);
        }
    }
}

#[test]
fn severed_slots_return_the_frozen_value_and_still_count() {
    // The script above reaches these states at random; this pins one of
    // each by hand: symmetric partition, directed cut, healed.
    let space = || MemorySpace::with_instrumentation(4, Instrumentation::Deferred);
    let sides: [Box<dyn Side>; 2] = [
        Box::new(Banked::new(space())),
        Box::new(Scalars::new(space())),
    ];
    for (label, l) in ["banked", "scalars"].into_iter().zip(&sides) {
        let progress = |reader| l.scan(Family::Progress, p(reader), 0, 0..4);
        l.space()
            .install_partition(&[vec![p(0), p(1)], vec![p(2), p(3)]]);
        for k in 0..4 {
            l.write(Family::Progress, 0, k, p(k), 100 + k as u64);
        }
        // p1 sees its own side live and the far side frozen at the cut.
        assert_eq!(progress(1), [100, 101, 2, 3], "{label}");
        l.space().install_cut(&[p(3)], &[p(0)]);
        l.write(Family::Progress, 0, 0, p(0), 200);
        assert_eq!(progress(3), [100, 101, 102, 103], "{label}");
        assert_eq!(progress(0), [200, 101, 102, 103], "{label}");
        l.space().heal_partition();
        assert_eq!(progress(3), [200, 101, 102, 103], "{label}");
        let stats = l.space().stats();
        assert_eq!(stats.reads_of(p(1)), 4, "{label}: severed reads count");
        assert_eq!(stats.reads_of(p(3)), 8, "{label}");
    }
}

/// An instant block device that logs every attributed read, in order.
#[derive(Debug, Default)]
struct LoggingDevice {
    blocks: Mutex<std::collections::HashMap<u64, u64>>,
    read_log: Mutex<Vec<u64>>,
    writes: Mutex<u64>,
}

impl BlockDevice for LoggingDevice {
    fn read_block(&self, addr: u64) -> u64 {
        self.read_log.lock().push(addr);
        self.peek_block(addr)
    }

    fn write_block(&self, addr: u64, value: u64) {
        *self.writes.lock() += 1;
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
fn a_block_backed_range_read_is_one_read_block_per_slot_in_slot_order() {
    let n = 6;
    let devices = [(); 2].map(|()| Arc::new(LoggingDevice::default()));
    let space = |i: usize| MemorySpace::with_block_device(n, Arc::clone(&devices[i]) as _);
    let (banked, scalars) = (Banked::new(space(0)), Scalars::new(space(1)));
    run_pair("block-backed", &banked, &scalars, 0xD15C, 1_200);
    let [log_a, log_b] = [0, 1].map(|i| devices[i].read_log.lock().clone());
    assert_eq!(log_a, log_b, "same read_block calls, same order");
    // Severed reads are served from the frozen cells, never the device.
    assert!(!log_a.is_empty() && log_a.len() as u64 <= banked.space.stats().total_reads());
    assert_eq!(*devices[0].writes.lock(), *devices[1].writes.lock());

    // And pinned by hand: slots 1..4 of PROGRESS are blocks 1..4.
    let before = devices[0].read_log.lock().len();
    let _ = banked.scan(Family::Progress, p(0), 0, 1..4);
    assert_eq!(devices[0].read_log.lock()[before..], [1, 2, 3]);
}
