//! Property-based tests for the register substrate, driven by a seeded
//! in-crate generator (determinism over dependency weight): each property
//! is checked across a few hundred randomized cases per run, every failure
//! reproducible from the case number.

use omega_registers::cell::{AtomicNatCell, OptionCell, SharedCell};
use omega_registers::lincheck::{is_linearizable, CompletedOp, History, HistoryRecorder, RegOp};
use omega_registers::{
    Instrumentation, MemorySpace, MwmrNatArray, MwmrRegister, NatArray, NatRegister, ProcessId,
    ProcessSet, RegisterValue,
};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Minimal xorshift64* generator so this crate's tests stay dependency-free.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn vec(&mut self, max_len: u64) -> Vec<u64> {
        let len = self.below(max_len);
        (0..len).map(|_| self.next()).collect()
    }

    fn nonempty_vec(&mut self, max_len: u64) -> Vec<u64> {
        let mut v = self.vec(max_len);
        if v.is_empty() {
            v.push(self.next());
        }
        v
    }
}

/// Footprints are monotone in magnitude for naturals.
#[test]
fn footprint_monotone() {
    let mut g = Gen::new(11);
    for case in 0..500 {
        let (a, b) = (g.next(), g.next());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            lo.footprint_bits() <= hi.footprint_bits(),
            "case {case}: {lo} vs {hi}"
        );
    }
}

/// Footprint bounds: 1 ≤ bits ≤ 64 and 2^(bits-1) ≤ v (for v > 0).
#[test]
fn footprint_is_bit_length() {
    let mut g = Gen::new(12);
    let edge = [0u64, 1, 2, 3, u64::MAX - 1, u64::MAX];
    for case in 0..500usize {
        let v = if case < edge.len() {
            edge[case]
        } else {
            g.next()
        };
        let bits = v.footprint_bits();
        assert!((1..=64).contains(&bits));
        if v > 0 {
            assert!(v >= 1u64 << (bits - 1), "v={v} bits={bits}");
            if bits < 64 {
                assert!(v < 1u64 << bits, "v={v} bits={bits}");
            }
        }
    }
}

/// Last write wins: after an arbitrary sequence of owner writes, a read
/// observes the final value, and the write counters match.
#[test]
fn swmr_last_write_wins() {
    let mut g = Gen::new(13);
    for case in 0..100 {
        let values = g.nonempty_vec(50);
        let space = MemorySpace::new(2);
        let owner = pid(0);
        let reg = space.nat_register("R", owner, 0);
        for &v in &values {
            reg.write(owner, v);
        }
        assert_eq!(reg.read(pid(1)), *values.last().unwrap(), "case {case}");
        let stats = space.stats();
        assert_eq!(stats.writes_of(owner), values.len() as u64);
        assert_eq!(stats.reads_of(pid(1)), 1);
    }
}

/// The footprint high-water mark equals the max footprint over all values
/// ever stored (including the initial value).
#[test]
fn footprint_hwm_is_max() {
    let mut g = Gen::new(14);
    for case in 0..100 {
        let init = g.next();
        let values = g.vec(40);
        let space = MemorySpace::new(1);
        let owner = pid(0);
        let reg = space.nat_register("R", owner, init);
        for &v in &values {
            reg.write(owner, v);
        }
        let expect = std::iter::once(init)
            .chain(values.iter().copied())
            .map(|v| v.footprint_bits())
            .max()
            .unwrap();
        assert_eq!(
            space.footprint().row("R").unwrap().hwm_bits,
            expect,
            "case {case}"
        );
    }
}

/// Stats deltas are exact: a delta counts precisely the accesses between
/// the two snapshots.
#[test]
fn stats_delta_exact() {
    let mut g = Gen::new(15);
    for case in 0..100 {
        let ops = |g: &mut Gen| -> Vec<(usize, bool)> {
            (0..g.below(30))
                .map(|_| (g.below(3) as usize, g.below(2) == 0))
                .collect()
        };
        let (pre, post) = (ops(&mut g), ops(&mut g));
        let space = MemorySpace::new(3);
        let arr = space.nat_array("A", |_| 0);
        let apply = |ops: &[(usize, bool)]| {
            for &(i, is_write) in ops {
                let p = pid(i);
                if is_write {
                    arr.get(p).write(p, 1);
                } else {
                    arr.get(p).read(p);
                }
            }
        };
        apply(&pre);
        let baseline = space.stats();
        apply(&post);
        let delta = space.stats().delta_since(&baseline);
        let expect_writes = post.iter().filter(|(_, w)| *w).count() as u64;
        let expect_reads = post.len() as u64 - expect_writes;
        assert_eq!(delta.total_writes(), expect_writes, "case {case}");
        assert_eq!(delta.total_reads(), expect_reads, "case {case}");
    }
}

/// Whatever kind of register a random access can land on.
enum AnyRegister {
    Scalar(NatRegister),
    Shared(MwmrRegister<u64>),
    Array(NatArray),
    SharedArray(MwmrNatArray),
}

impl AnyRegister {
    /// Creates the `k`-th register of a space, of a kind picked by `g`.
    fn create(space: &MemorySpace, k: usize, g: &mut Gen) -> Self {
        let n = space.n_processes();
        match g.below(4) {
            0 => AnyRegister::Scalar(space.nat_register(
                &format!("S{k}"),
                pid(g.below(n as u64) as usize),
                0,
            )),
            1 => AnyRegister::Shared(space.mwmr(&format!("M{k}"), 0)),
            2 => AnyRegister::Array(space.nat_array(&format!("A{k}"), |_| 0)),
            _ => AnyRegister::SharedArray(space.nat_mwmr_array(
                &format!("W{k}"),
                1 + g.below(2 * n as u64) as usize,
                |_| 0,
            )),
        }
    }

    /// One attributed read, range read or write by a random process.
    fn access(&self, n: usize, g: &mut Gen) {
        let p = pid(g.below(n as u64) as usize);
        let write = g.below(3) == 0;
        let range = |len: usize, g: &mut Gen| {
            let from = g.below(len as u64) as usize;
            from..from + 1 + g.below((len - from) as u64) as usize
        };
        match self {
            AnyRegister::Scalar(r) if write => r.write(r.owner(), g.next()),
            AnyRegister::Scalar(r) => drop(r.read(p)),
            AnyRegister::Shared(r) if write => r.write(p, g.next()),
            AnyRegister::Shared(r) => drop(r.read(p)),
            AnyRegister::Array(a) if write => a.get(p).write(p, g.next()),
            AnyRegister::Array(a) => {
                let range = range(a.len(), g);
                a.read_range_into(p, range.clone(), &mut vec![0; range.len()]);
            }
            AnyRegister::SharedArray(a) if write => {
                a.get(g.below(a.len() as u64) as usize).write(p, g.next());
            }
            AnyRegister::SharedArray(a) => {
                let range = range(a.len(), g);
                a.read_range_into(p, range.clone(), &mut vec![0; range.len()]);
            }
        }
    }
}

/// A chain of snapshots, each built by `stats_into` on a clone of its
/// predecessor, is indistinguishable from snapshots taken fresh at the same
/// instants — rows, banks, totals, `==`, and every pairwise delta, which is
/// the cell-wise difference of read tallies and write cells — including
/// across registers created between snapshots (a new layout generation).
#[test]
fn chained_snapshots_equal_fresh_ones() {
    let mut g = Gen::new(23);
    for case in 0..48 {
        let n = [2, 5, 48, 64][case % 4];
        let mode = [Instrumentation::Eager, Instrumentation::Deferred][case / 4 % 2];
        let space = MemorySpace::with_instrumentation(n, mode);
        let untouched = space.nat_array("UNTOUCHED", |_| 0);
        let mut registers: Vec<AnyRegister> = (0..3)
            .map(|k| AnyRegister::create(&space, k, &mut g))
            .collect();
        let mut chain = vec![space.stats()];
        let mut fresh = vec![space.stats()];
        for step in 0..8 {
            let label = format!("case {case} (n = {n}, {mode:?}) step {step}");
            if g.below(3) == 0 {
                registers.push(AnyRegister::create(&space, registers.len(), &mut g));
            }
            let accesses = [0, 0, 1, 40][g.below(4) as usize];
            for _ in 0..accesses {
                registers[g.below(registers.len() as u64) as usize].access(n, &mut g);
            }

            let mut next = chain.last().unwrap().clone();
            space.stats_into(&mut next);
            let direct = space.stats();
            assert_eq!(next, direct, "{label}");
            assert_eq!(next.rows().len(), space.register_count(), "{label}");
            for (a, b) in next.rows().zip(direct.rows()) {
                assert_eq!((a.name, a.owner), (b.name, b.owner));
                for q in ProcessId::all(n) {
                    assert_eq!(a.writes_by(q), b.writes_by(q), "{label}: {}", a.name);
                }
            }
            assert_eq!(next.banks().len(), registers.len() + 1, "{label}");
            for (a, b) in next.banks().zip(direct.banks()) {
                assert_eq!((a.names, a.reads), (b.names, b.reads), "{label}");
            }
            assert_eq!(next.per_process_totals(), direct.per_process_totals());
            assert_eq!(next.total_reads(), direct.total_reads(), "{label}");
            let untouched_bank = next.banks().next().unwrap();
            assert_eq!(untouched_bank.names.len(), untouched.len(), "{label}");
            assert_eq!(untouched_bank.total_reads(), 0, "{label}");

            // Deltas against every earlier snapshot, chained and fresh,
            // including ones taken before banks were created.
            for (j, (chained, taken)) in chain.iter().zip(&fresh).enumerate() {
                let delta = next.delta_since(chained);
                assert_eq!(delta, direct.delta_since(taken), "{label} − {j}");
                assert_eq!(delta, next.delta_since(taken), "{label} − {j}");
                let mut earlier = taken.banks();
                for (now, moved) in direct.banks().zip(delta.banks()) {
                    let zeros = vec![0; n];
                    let was = earlier.next().map_or(&zeros[..], |bank| bank.reads);
                    let expected: Vec<u64> =
                        now.reads.iter().zip(was).map(|(a, b)| a - b).collect();
                    assert_eq!(moved.reads, expected, "{label} − {j}: {}", now.names[0]);
                }
                let mut earlier = taken.rows();
                for (now, moved) in direct.rows().zip(delta.rows()) {
                    assert_eq!(
                        moved.total_writes(),
                        now.total_writes() - earlier.next().map_or(0, |row| row.total_writes()),
                        "{label} − {j}: {}",
                        now.name
                    );
                }
                assert_eq!(
                    delta.total_reads(),
                    direct.total_reads() - taken.total_reads(),
                    "{label} − {j}"
                );
            }
            chain.push(next);
            fresh.push(direct);
        }
    }
}

/// ProcessSet behaves like a set of indices.
#[test]
fn process_set_models_btreeset() {
    use std::collections::BTreeSet;
    let mut g = Gen::new(16);
    for case in 0..50 {
        let mut set = ProcessSet::new(100);
        let mut model = BTreeSet::new();
        for _ in 0..g.below(200) {
            let i = g.below(100) as usize;
            if g.below(2) == 0 {
                assert_eq!(set.insert(pid(i)), model.insert(i), "case {case}");
            } else {
                assert_eq!(set.remove(pid(i)), model.remove(&i), "case {case}");
            }
        }
        assert_eq!(set.len(), model.len());
        let got: Vec<usize> = set.iter().map(ProcessId::index).collect();
        let want: Vec<usize> = model.into_iter().collect();
        assert_eq!(got, want, "case {case}");
    }
}

/// Any *sequential* history over a register is linearizable, and reads
/// that report anything other than the latest written value are not.
#[test]
fn sequential_histories_linearize() {
    let mut g = Gen::new(17);
    for case in 0..60 {
        let writes = g.nonempty_vec(20);
        let mut h = History::new();
        let mut t = 0u64;
        let mut latest = 0u64;
        for &v in &writes {
            h.push(CompletedOp {
                process: pid(0),
                op: RegOp::Write(v),
                result: None,
                invoke: t,
                response: t + 1,
            });
            t += 2;
            latest = v;
            h.push(CompletedOp {
                process: pid(1),
                op: RegOp::Read,
                result: Some(latest),
                invoke: t,
                response: t + 1,
            });
            t += 2;
        }
        assert!(is_linearizable(&h, 0), "case {case}");

        // Corrupt the last read to a value that was never the latest there;
        // sequential histories have no overlap, so it must be rejected.
        let mut ops: Vec<_> = h.ops().to_vec();
        let last = ops.len() - 1;
        ops[last].result = Some(latest.wrapping_add(1));
        let mut corrupted = History::new();
        for op in ops {
            corrupted.push(op);
        }
        assert!(!is_linearizable(&corrupted, 0), "case {case}");
    }
}

/// Eight rounds of one writer storing `value(1..=25)` against three
/// readers, on a 1WnR register over cell `C` starting at `initial`; each
/// round's recorded history must linearize.
fn stress_linearizes<T, C>(what: &str, initial: T, value: impl Fn(u64) -> T + Sync)
where
    T: RegisterValue + Eq + std::hash::Hash,
    C: SharedCell<T>,
{
    for round in 0..8 {
        let space = MemorySpace::new(4);
        let owner = pid(0);
        let reg = space.swmr_cell::<T, C>("R", owner, initial.clone());
        let rec = HistoryRecorder::new();

        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 1..=25u64 {
                    let value = value(v + round);
                    rec.write(owner, value.clone(), || reg.write(owner, value));
                }
            });
            for r in 1..4 {
                let (reg, rec) = (&reg, &rec);
                s.spawn(move || {
                    for _ in 0..25 {
                        rec.read(pid(r), || reg.read(pid(r)));
                    }
                });
            }
        });

        let history = rec.finish();
        assert_eq!(history.len(), 100);
        assert!(
            is_linearizable(&history, initial.clone()),
            "round {round}: {what} register produced a non-linearizable history"
        );
    }
}

/// Concurrent stress: many threads hammer a register while the recorder
/// captures the history; the result must linearize — for the lock-free
/// cell, and for the optional-value cell whose loads skip the lock while
/// nothing is stored (its writer alternates `Some(k)` / `None`, so both
/// load paths and both flag flips are in every history).
#[test]
fn concurrent_stress_linearizes() {
    stress_linearizes::<u64, AtomicNatCell>("lock-free", 0, |v| v);
    stress_linearizes::<Option<u64>, OptionCell<u64>>("optional-value", None, |v| {
        (v % 2 == 1).then_some(v)
    });
}

/// The deliberately torn cell must produce a rejected history when a torn
/// read is observed. We drive it single-threadedly to *construct* the tear
/// deterministically rather than relying on thread timing.
#[test]
fn torn_reads_are_rejected_when_observed() {
    // Handcraft what a torn read looks like: Write(A) then Write(B) complete,
    // then a read returns a mix of A and B.
    let a = 0x0000_0001_0000_0002u64;
    let b = 0x0000_0003_0000_0004u64;
    let torn = 0x0000_0001_0000_0004u64; // hi of A, lo of B — never written
    let mut h = History::new();
    h.push(CompletedOp {
        process: pid(0),
        op: RegOp::Write(a),
        result: None,
        invoke: 0,
        response: 1,
    });
    h.push(CompletedOp {
        process: pid(0),
        op: RegOp::Write(b),
        result: None,
        invoke: 2,
        response: 3,
    });
    h.push(CompletedOp {
        process: pid(1),
        op: RegOp::Read,
        result: Some(torn),
        invoke: 4,
        response: 5,
    });
    assert!(!is_linearizable(&h, 0));
}

/// Multi-writer register stress: several writers with disjoint value
/// ranges plus readers; the recorded history must linearize.
#[test]
fn mwmr_concurrent_stress_linearizes() {
    for round in 0..6 {
        let space = MemorySpace::new(4);
        let reg = space.mwmr_cell::<u64, omega_registers::cell::AtomicNatCell>("M", 0);
        let rec = std::sync::Arc::new(HistoryRecorder::new());
        std::thread::scope(|s| {
            // Two writers with disjoint value ranges.
            for w in 0..2usize {
                let reg = reg.clone();
                let rec = rec.clone();
                s.spawn(move || {
                    for v in 1..=15u64 {
                        let value = (w as u64 + 1) * 1000 + v + round;
                        rec.write(pid(w), value, || reg.write(pid(w), value));
                    }
                });
            }
            // Two readers.
            for r in 2..4usize {
                let reg = reg.clone();
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..15 {
                        rec.read(pid(r), || reg.read(pid(r)));
                    }
                });
            }
        });
        let history = std::sync::Arc::into_inner(rec).unwrap().finish();
        assert_eq!(history.len(), 60);
        assert!(
            is_linearizable(&history, 0),
            "round {round}: nWnR register produced a non-linearizable history"
        );
    }
}
