//! Range reads ≡ the same reads issued one `read(reader)` at a time.
//!
//! Two identical spaces run the same seeded random script — owner writes,
//! nWnR writes, scans, partition installs, cuts and heals. One serves every
//! scan through the range APIs (`read_range_into`, `snapshot_into`,
//! `read_row_into`, `snapshot_row_into`), the other through per-register
//! handles. Everything observable must agree: the values returned, every
//! per-(reader, register) read cell, the write cells, `per_process_totals`,
//! footprints, `ScanStats` — and on a block-backed space the device sees
//! the same `read_block` calls in the same order.

use std::ops::Range;
use std::sync::Arc;

use omega_shm::registers::sync::Mutex;
use omega_shm::registers::{
    BlockDevice, EpochedNatMatrix, FlagArray, FlagMatrix, Instrumentation, MemorySpace,
    MwmrNatArray, NatArray, ProcessId,
};
use omega_shm::sim::rng::SmallRng;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// One register of every bank shape the repo builds: identity-owned arrays,
/// a row-owned and a column-owned matrix, an nWnR array.
struct Layout {
    space: MemorySpace,
    progress: NatArray,
    stop: FlagArray,
    suspicions: EpochedNatMatrix,
    last: FlagMatrix,
    shared: MwmrNatArray,
}

impl Layout {
    fn new(space: MemorySpace) -> Self {
        Layout {
            progress: space.nat_array("PROGRESS", |pid| pid.index() as u64),
            stop: space.flag_array("STOP", |pid| pid.index() % 2 == 0),
            suspicions: space.epoched_nat_row_matrix("SUSPICIONS", |r, c| (r * c) as u64),
            last: space.flag_column_matrix("LAST", |r, c| r < c),
            shared: space.nat_mwmr_array("SHARED", space.n_processes() + 2, |i| i as u64),
            space,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Via {
    Ranges,
    Singles,
}

/// What a scan returned, widened to one type.
type Seen = Vec<u64>;

fn scan_progress(l: &Layout, via: Via, reader: ProcessId, range: Range<usize>) -> Seen {
    let mut out = vec![0; range.len()];
    match via {
        Via::Ranges => l.progress.read_range_into(reader, range, &mut out),
        Via::Singles => {
            for (value, k) in out.iter_mut().zip(range) {
                *value = l.progress.get(p(k)).read(reader);
            }
        }
    }
    out
}

fn scan_stop(l: &Layout, via: Via, reader: ProcessId, range: Range<usize>) -> Seen {
    let mut out = vec![false; range.len()];
    match via {
        Via::Ranges => l.stop.read_range_into(reader, range, &mut out),
        Via::Singles => {
            for (value, k) in out.iter_mut().zip(range) {
                *value = l.stop.get(p(k)).read(reader);
            }
        }
    }
    out.into_iter().map(u64::from).collect()
}

fn scan_shared(l: &Layout, via: Via, reader: ProcessId, range: Range<usize>) -> Seen {
    let mut out = vec![0; range.len()];
    match via {
        Via::Ranges if range == (0..l.shared.len()) => l.shared.snapshot_into(reader, &mut out),
        Via::Ranges => l.shared.read_range_into(reader, range, &mut out),
        Via::Singles => {
            for (value, i) in out.iter_mut().zip(range) {
                *value = l.shared.get(i).read(reader);
            }
        }
    }
    out
}

fn snapshot_suspicions(l: &Layout, via: Via, reader: ProcessId, row: ProcessId) -> Seen {
    let n = l.suspicions.n();
    let mut out = vec![0; n];
    match via {
        Via::Ranges => {
            l.suspicions.snapshot_row_into(row, reader, &mut out);
        }
        Via::Singles => {
            for (value, c) in out.iter_mut().zip(0..n) {
                *value = l.suspicions.get(row, p(c)).read(reader);
            }
            // What the batched form records beside its reads.
            l.suspicions.counters().note_snapshot();
        }
    }
    out
}

fn read_last_row(l: &Layout, via: Via, reader: ProcessId, row: ProcessId) -> Seen {
    let n = l.last.n();
    let mut out = vec![false; n];
    match via {
        Via::Ranges => l.last.read_row_into(row, reader, &mut out),
        Via::Singles => {
            for (value, c) in out.iter_mut().zip(0..n) {
                *value = l.last.get(row, p(c)).read(reader);
            }
        }
    }
    out.into_iter().map(u64::from).collect()
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

/// Applies one random step to `l`; returns what its scan (if any) saw.
/// Both sides of a pair are driven from equal generator states, so they
/// take the same step.
fn step(l: &Layout, via: Via, g: &mut SmallRng) -> Seen {
    let n = l.space.n_processes();
    let who = p(g.gen_range(0..=n as u64 - 1) as usize);
    let other = p(g.gen_range(0..=n as u64 - 1) as usize);
    let value = g.next_u64() >> g.gen_range(0..=63);
    match g.gen_range(0..=13) {
        0 => l.progress.get(who).write(who, value),
        1 => l.stop.get(who).write(who, value.is_multiple_of(2)),
        2 => l.suspicions.write(who, other, who, value),
        3 => l.last.get(other, who).write(who, value.is_multiple_of(2)),
        4 => (l.shared.get(g.gen_range(0..=n as u64 + 1) as usize)).write(who, value),
        5 | 6 => return scan_progress(l, via, who, range_around(g, n, who.index())),
        7 => return scan_stop(l, via, who, range_around(g, n, who.index())),
        8 => return scan_shared(l, via, who, range_around(g, n + 2, who.index())),
        9 => return scan_shared(l, via, who, 0..n + 2),
        10 => return snapshot_suspicions(l, via, who, other),
        11 => return read_last_row(l, via, who, other),
        12 => match g.gen_range(0..=2) {
            // A symmetric partition at a random boundary, leaving the top
            // process outside every group.
            0 => {
                let cut = g.gen_range(1..=n as u64 - 2) as usize;
                let groups = [(0..cut).map(p).collect(), (cut..n - 1).map(p).collect()];
                l.space.install_partition(&groups);
            }
            // A directed cut: the low ids are blinded to the high ids.
            1 => {
                let cut = g.gen_range(1..=n as u64 - 1) as usize;
                let (blinded, hidden): (Vec<_>, Vec<_>) =
                    ((0..cut).map(p).collect(), (cut..n).map(p).collect());
                l.space.install_cut(&blinded, &hidden);
            }
            _ => l.space.heal_partition(),
        },
        _ => l.space.heal_partition(),
    }
    Vec::new()
}

fn assert_same_accounting(label: &str, ranges: &Layout, singles: &Layout) {
    let (a, b) = (ranges.space.stats(), singles.space.stats());
    for (row_a, row_b) in a.rows().zip(b.rows()) {
        assert_eq!(row_a.name, row_b.name, "{label}");
        assert_eq!(
            row_a.reads, row_b.reads,
            "{label}: read cells of {}",
            row_a.name
        );
        assert_eq!(
            row_a.total_writes(),
            row_b.total_writes(),
            "{label}: {}",
            row_a.name
        );
    }
    assert_eq!(a.scan(), b.scan(), "{label}: ScanStats");
    assert_eq!(a, b, "{label}: whole snapshot");
    assert_eq!(a.per_process_totals(), b.per_process_totals(), "{label}");
    let (fa, fb) = (ranges.space.footprint(), singles.space.footprint());
    assert_eq!(fa.rows().len(), fb.rows().len(), "{label}");
    for (row_a, row_b) in fa.rows().iter().zip(fb.rows()) {
        assert_eq!(
            (&row_a.name, row_a.owner, row_a.hwm_bits, row_a.current_bits),
            (&row_b.name, row_b.owner, row_b.hwm_bits, row_b.current_bits),
            "{label}: footprint"
        );
    }
}

fn run_pair(label: &str, ranges: &Layout, singles: &Layout, seed: u64, steps: usize) {
    let (mut ga, mut gb) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
    for i in 0..steps {
        let seen_a = step(ranges, Via::Ranges, &mut ga);
        let seen_b = step(singles, Via::Singles, &mut gb);
        assert_eq!(seen_a, seen_b, "{label}: values at step {i}");
        assert_eq!(
            ranges.space.partition_active(),
            singles.space.partition_active(),
            "{label}: the pair is in lockstep"
        );
        if i % 97 == 0 {
            assert_same_accounting(&format!("{label} @ step {i}"), ranges, singles);
        }
    }
    assert_same_accounting(&format!("{label} at the end"), ranges, singles);
    assert!(ranges.space.stats().total_reads() > 0, "{label}: scans ran");
}

#[test]
fn range_reads_match_single_reads_in_both_instrumentation_modes() {
    for mode in [Instrumentation::Eager, Instrumentation::Deferred] {
        for (case, n) in [(0, 3), (1, 5), (2, 8), (3, 17)] {
            let pair = || Layout::new(MemorySpace::with_instrumentation(n, mode));
            let label = format!("{mode:?} n={n}");
            run_pair(&label, &pair(), &pair(), 0xBA9C + case, 1_500);
        }
    }
}

#[test]
fn severed_slots_return_the_frozen_value_and_still_count() {
    // The script above reaches these states at random; this pins one of
    // each by hand: symmetric partition, directed cut, healed.
    for via in [Via::Ranges, Via::Singles] {
        let l = Layout::new(MemorySpace::with_instrumentation(
            4,
            Instrumentation::Deferred,
        ));
        let sides = [vec![p(0), p(1)], vec![p(2), p(3)]];
        l.space.install_partition(&sides);
        for k in 0..4 {
            l.progress.get(p(k)).write(p(k), 100 + k as u64);
        }
        // p1 sees its own side live and the far side frozen at the cut.
        assert_eq!(
            scan_progress(&l, via, p(1), 0..4),
            [100, 101, 2, 3],
            "{via:?}"
        );
        l.space.install_cut(&[p(3)], &[p(0)]);
        l.progress.get(p(0)).write(p(0), 200);
        assert_eq!(
            scan_progress(&l, via, p(3), 0..4),
            [100, 101, 102, 103],
            "{via:?}"
        );
        assert_eq!(
            scan_progress(&l, via, p(0), 0..4),
            [200, 101, 102, 103],
            "{via:?}"
        );
        l.space.heal_partition();
        assert_eq!(
            scan_progress(&l, via, p(3), 0..4),
            [200, 101, 102, 103],
            "{via:?}"
        );
        let stats = l.space.stats();
        assert_eq!(stats.reads_of(p(1)), 4, "{via:?}: severed reads count");
        assert_eq!(stats.reads_of(p(3)), 8, "{via:?}");
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
    let [ranges, singles] = [0, 1].map(|i| {
        Layout::new(MemorySpace::with_block_device(
            n,
            Arc::clone(&devices[i]) as _,
        ))
    });
    run_pair("block-backed", &ranges, &singles, 0xD15C, 1_200);
    let [log_a, log_b] = [0, 1].map(|i| devices[i].read_log.lock().clone());
    assert_eq!(log_a, log_b, "same read_block calls, same order");
    // Severed reads are served from the frozen cells, never the device.
    assert!(!log_a.is_empty() && log_a.len() as u64 <= ranges.space.stats().total_reads());
    assert_eq!(*devices[0].writes.lock(), *devices[1].writes.lock());

    // And pinned by hand: slots 1..4 of PROGRESS are blocks 1..4.
    let before = devices[0].read_log.lock().len();
    let _ = scan_progress(&ranges, Via::Ranges, p(0), 1..4);
    assert_eq!(devices[0].read_log.lock()[before..], [1, 2, 3]);
}
