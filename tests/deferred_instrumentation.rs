//! Deferred instrumentation parity: the simulator's fast counting mode
//! must be *observationally invisible*.
//!
//! `Instrumentation::Deferred` accumulates access counters in
//! unsynchronized scratch and flushes them at snapshot boundaries; eager
//! mode pays an atomic read-modify-write per access. Same schedule, same
//! seed ⇒ every checkpointed `StatsSnapshot` (totals, per-process,
//! per-register rows), every footprint high-water mark, and the tail
//! writer/reader sets must be identical tick-for-tick between the two
//! modes — otherwise the speedup changed what the experiments measure.

use omega_shm::registers::{Instrumentation, MemorySpace};
use omega_shm::scenario::{registry, Scenario};
use omega_shm::sim::RunReport;

/// Runs `scenario` on the simulator over a space with the given
/// instrumentation mode, returning the report and the space.
fn run_with(scenario: &Scenario, mode: Instrumentation) -> (RunReport, MemorySpace) {
    let sys = scenario.variant.build_with(scenario.n, mode);
    let space = sys.space.clone();
    let report = scenario.sim_builder(sys.actors).memory(space.clone()).run();
    (report, space)
}

fn assert_parity(name: &str) {
    let scenario = registry::named(name).unwrap_or_else(|| panic!("{name} in registry"));
    let (eager, eager_space) = run_with(&scenario, Instrumentation::Eager);
    let (deferred, deferred_space) = run_with(&scenario, Instrumentation::Deferred);
    assert_eq!(eager_space.instrumentation(), Instrumentation::Eager);
    assert_eq!(deferred_space.instrumentation(), Instrumentation::Deferred);

    // Identical schedule first (counting must not perturb the run).
    assert_eq!(eager.events_processed, deferred.events_processed, "{name}");
    assert_eq!(eager.steps_taken, deferred.steps_taken, "{name}");

    // Every statistics checkpoint, tick-for-tick.
    let (a, b) = (eager.windowed.iter(), deferred.windowed.iter());
    assert_eq!(a.len(), b.len(), "{name}: checkpoint counts");
    assert!(a.len() >= 2, "{name}: scenario must checkpoint");
    for ((ta, sa, fa), (tb, sb, fb)) in a.zip(b) {
        assert_eq!(ta, tb, "{name}: checkpoint times");
        assert_eq!(sa.total_reads(), sb.total_reads(), "{name} @ {ta}");
        assert_eq!(sa.total_writes(), sb.total_writes(), "{name} @ {ta}");
        assert_eq!(
            sa, sb,
            "{name} @ {ta}: full per-register, per-process equality"
        );
        // Footprint checkpoints: high-water marks flush through scratch too.
        assert_eq!(fa, fb, "{name} @ {ta}: footprints (hwm bits)");
    }

    // Tail window: the writer/reader sets the optimality theorems inspect.
    let tail_a = eager.windowed.tail(0.25).expect("checkpoints exist");
    let tail_b = deferred.windowed.tail(0.25).expect("checkpoints exist");
    assert_eq!(
        tail_a.stats.writer_set(),
        tail_b.stats.writer_set(),
        "{name}"
    );
    assert_eq!(
        tail_a.stats.reader_set(),
        tail_b.stats.reader_set(),
        "{name}"
    );
    assert_eq!(
        tail_a.stats.written_registers(),
        tail_b.stats.written_registers(),
        "{name}"
    );

    // And the final cumulative view through the space itself.
    assert_eq!(eager_space.stats(), deferred_space.stats(), "{name}: final");
}

#[test]
fn deferred_equals_eager_on_fault_free() {
    assert_parity("fault-free");
}

#[test]
fn deferred_equals_eager_on_bounded_memory() {
    assert_parity("bounded-memory");
}

#[test]
fn deferred_equals_eager_on_mwmr_lean() {
    assert_parity("mwmr-lean");
}

#[test]
fn deferred_equals_eager_on_crash_storm() {
    assert_parity("crash-storm");
}

/// A snapshot taken *between* checkpoints is also exact: `stats()` is a
/// flush boundary, so mid-run reads see everything counted so far.
#[test]
fn mid_run_snapshot_is_a_flush_boundary() {
    use omega_shm::registers::ProcessId;
    let space = MemorySpace::with_instrumentation(2, Instrumentation::Deferred);
    let reg = space.nat_register("R", ProcessId::new(0), 0);
    reg.write(ProcessId::new(0), 5);
    reg.read(ProcessId::new(1));
    let snap = space.stats();
    assert_eq!(snap.total_writes(), 1);
    assert_eq!(snap.total_reads(), 1);
    assert_eq!(snap.writes_of(ProcessId::new(0)), 1);
    // Footprint flushes the high-water mark the same way.
    assert_eq!(space.footprint().total_hwm_bits(), 3);
}
