//! `ConsensusInstance::read_decision` ≡ the learner's scan issued one
//! `decision_reg(j).read(reader)` at a time.
//!
//! Two identical spaces hold the same instance in the same state; one is
//! scanned through `read_decision`, the other register by register. The
//! value found must be the one a first-`Some` search finds, each reader's
//! tally of every bank must equal what n single reads count (n on the `DEC`
//! bank per scan, nothing elsewhere), and under an
//! installed partition a severed reader must see the `DEC` bank frozen at
//! the cut while a connected one sees the decision.

use std::sync::Arc;

use omega_consensus::ConsensusInstance;
use omega_registers::{MemorySpace, ProcessId};

const N: usize = 4;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn instance() -> (MemorySpace, Arc<ConsensusInstance<u64>>) {
    let space = MemorySpace::new(N);
    let inst = ConsensusInstance::new(&space, "C");
    (space, inst)
}

/// The scan `read_decision` replaced, reading on past the first decision
/// so that it performs the same n reads.
fn read_singly(inst: &ConsensusInstance<u64>, reader: ProcessId) -> Option<u64> {
    let seen: Vec<Option<u64>> = ProcessId::all(N)
        .map(|j| inst.decision_reg(j).read(reader))
        .collect();
    seen.into_iter().flatten().next()
}

/// Every bank's first register name and per-reader read tallies, and every
/// register's name and write count.
type Cells = (Vec<(String, Vec<u64>)>, Vec<(String, u64)>);

fn cells(space: &MemorySpace) -> Cells {
    let stats = space.stats();
    let reads = (stats.banks())
        .map(|bank| (bank.names[0].to_string(), bank.reads.to_vec()))
        .collect();
    let writes = (stats.rows())
        .map(|row| (row.name.to_string(), row.total_writes()))
        .collect();
    (reads, writes)
}

/// Applies `prepare` to two fresh instances, scans one each way as every
/// reader twice over, and checks values and counters agree throughout.
fn check(prepare: impl Fn(&MemorySpace, &ConsensusInstance<u64>), expect: [Option<u64>; N]) {
    let (range_space, ranged) = instance();
    let (single_space, singled) = instance();
    prepare(&range_space, &ranged);
    prepare(&single_space, &singled);
    let mut scratch = Vec::new();
    for round in 0..2 {
        for reader in ProcessId::all(N) {
            let got = ranged.read_decision(reader, &mut scratch);
            assert_eq!(got, read_singly(&singled, reader), "{reader}");
            assert_eq!(got, expect[reader.index()], "{reader}, round {round}");
        }
        let counted = cells(&range_space);
        assert_eq!(counted, cells(&single_space), "round {round}");
        let scans = N as u64 * (round + 1);
        for (bank, tallies) in &counted.0 {
            let expected = if bank.starts_with("C.DEC[") { scans } else { 0 };
            assert_eq!(tallies[..], [expected; N], "round {round}: {bank}");
        }
    }
    let reads = range_space.stats().total_reads();
    assert_eq!(reads, (2 * N * N) as u64, "n reads per scan");
}

#[test]
fn an_undecided_instance_scans_to_none() {
    check(|_, _| {}, [None; N]);
}

#[test]
fn a_decision_is_found_wherever_it_was_published() {
    for decider in [0, N - 1] {
        check(
            |_, inst| inst.decision_reg(p(decider)).write(p(decider), Some(42)),
            [Some(42); N],
        );
    }
}

#[test]
fn the_lowest_publisher_is_found_first() {
    check(
        |_, inst| {
            // Consensus never publishes two values; the cells do not care.
            for j in [1, 3] {
                inst.decision_reg(p(j)).write(p(j), Some(40 + j as u64));
            }
        },
        [Some(41); N],
    );
}

#[test]
fn a_severed_reader_scans_the_bank_frozen_at_the_cut() {
    // p3 decides after the cut {p0, p1} | {p2, p3}: its own side sees the
    // decision, the other side still sees the frozen `None`.
    check(
        |space, inst| {
            space.install_partition(&[vec![p(0), p(1)], vec![p(2), p(3)]]);
            inst.decision_reg(p(3)).write(p(3), Some(7));
        },
        [None, None, Some(7), Some(7)],
    );
    // A decision published before the cut is frozen *into* it.
    check(
        |space, inst| {
            inst.decision_reg(p(3)).write(p(3), Some(7));
            space.install_partition(&[vec![p(0), p(1)], vec![p(2), p(3)]]);
        },
        [Some(7); N],
    );
    // And a heal shows everyone the live bank again.
    check(
        |space, inst| {
            space.install_partition(&[vec![p(0), p(1)], vec![p(2), p(3)]]);
            inst.decision_reg(p(3)).write(p(3), Some(7));
            space.heal_partition();
        },
        [Some(7); N],
    );
}
