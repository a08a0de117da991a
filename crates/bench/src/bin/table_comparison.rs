//! Experiment E11 — the cross-variant comparison table.
//!
//! The paper's central trade-off (Section 5): Algorithm 1 is write-optimal
//! but needs one unbounded register; Algorithm 2 is fully bounded but every
//! process writes forever. The §3.5 variants trade register count (nWnR)
//! and clock hardware (step timer). This table puts all four on one common
//! AWB workload and reports every axis of the trade-off.

use omega_bench::table::Table;
use omega_core::OmegaVariant;
use omega_scenario::{Driver, Scenario, SimDriver};

fn main() {
    let n = 6;
    let horizon = 80_000;
    println!("== E11: variant comparison (n={n}, horizon={horizon}, common AWB workload) ==");
    println!();
    let mut t = Table::new(&[
        "variant",
        "registers",
        "stab tick",
        "tail writers",
        "tail regs written",
        "writes/1k (tail)",
        "hwm bits",
        "unbounded regs",
    ]);
    for variant in OmegaVariant::all() {
        // The fault-free workload already bounds the step-clock variant's
        // step-rate variance (minimum step delay 2).
        let scenario = Scenario::fault_free(variant, n)
            .horizon(horizon)
            .sample_every(horizon / 400);
        let s = SimDriver.run(&scenario);
        assert!(s.stabilized_for(0.2), "{variant} must stabilize");
        let tail = s.tail.as_ref().expect("the simulator observes the tail");
        let tail_writers = tail.writers.len();
        t.row(&[
            variant.name().to_string(),
            s.register_count.to_string(),
            s.stabilization_ticks.map_or("-".into(), |v| v.to_string()),
            tail_writers.to_string(),
            tail.written_registers.to_string(),
            format!("{:.1}", tail.writes_per_1k),
            s.hwm_bits.to_string(),
            s.grown_in_tail.len().to_string(),
        ]);

        // The trade-off, asserted:
        match variant {
            OmegaVariant::Alg1 | OmegaVariant::StepClock => {
                assert_eq!(tail_writers, 1, "{variant}: write-optimal");
                assert!(
                    s.grown_in_tail.len() <= 1,
                    "{variant}: one unbounded register"
                );
            }
            OmegaVariant::Mwmr => {
                assert_eq!(tail_writers, 1, "{variant}: write-optimal");
                assert_eq!(
                    s.register_count,
                    3 * n,
                    "{variant}: linear register count (vs quadratic)"
                );
            }
            OmegaVariant::Alg2 => {
                assert_eq!(tail_writers, n, "{variant}: everyone writes forever");
                assert!(s.grown_in_tail.is_empty(), "{variant}: fully bounded");
            }
        }
    }
    println!("{t}");
    println!("shape check (the paper's inherent trade-off):");
    println!("  - alg1/mwmr/stepclock: 1 tail writer, 1 unbounded register");
    println!("  - alg2: n tail writers, 0 unbounded registers");
    println!("  - mwmr: 3n registers instead of n^2 + 2n");
}
