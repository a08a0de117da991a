//! Experiments E2–E4 + E13 — Figure 2 / Theorems 1–4: Algorithm 1.
//!
//! Sections:
//!
//! 1. **Eventual leadership (Theorem 1)** — stabilization across system
//!    sizes and adversaries, including leader-crash failover.
//! 2. **Write-optimality (Theorem 3 / Lemma 5 / Theorem 4)** — after
//!    stabilization exactly one process writes, into exactly one register,
//!    while every correct process keeps reading (Lemma 6).
//! 3. **Boundedness (Theorem 2)** — the only register still growing late in
//!    the run is the leader's `PROGRESS` entry.
//! 4. **AWB necessity (E13)** — dropping AWB lets a leader-stalling
//!    adversary prevent stabilization forever.

use omega_bench::table::Table;
use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_scenario::{Driver, Outcome, Scenario, SimDriver};

/// Algorithm 1 on the fault-free AWB workload over `horizon` ticks,
/// sampled 400 times, with `timely` as AWB₁'s timely process.
fn awb_run(n: usize, horizon: u64, timely: ProcessId, crash_leader_at: Option<u64>) -> Outcome {
    let mut scenario = Scenario::fault_free(OmegaVariant::Alg1, n)
        .awb(timely, 1_000, 4)
        .horizon(horizon)
        .sample_every((horizon / 400).max(1));
    if let Some(tick) = crash_leader_at {
        scenario = scenario.crash_leader_at(tick);
    }
    SimDriver.run(&scenario)
}

fn main() {
    let horizon = 60_000;

    println!("== E2: eventual leadership (Theorem 1), Algorithm 1, AWB runs ==");
    let mut t = Table::new(&[
        "n",
        "crash leader@",
        "stabilized",
        "leader",
        "stable from",
        "registers",
    ]);
    for n in [2usize, 3, 5, 8, 16, 32] {
        for crash in [None, Some(horizon / 3)] {
            let s = awb_run(n, horizon, ProcessId::new(n - 1), crash);
            let stabilized = s.stabilized_for(0.2);
            t.row(&[
                n.to_string(),
                crash.map_or("-".into(), |c| c.to_string()),
                stabilized.to_string(),
                s.elected.map_or("-".into(), |l| l.to_string()),
                s.stabilization_ticks.map_or("-".into(), |v| v.to_string()),
                s.register_count.to_string(),
            ]);
            assert!(stabilized, "n={n} crash={crash:?} must stabilize under AWB");
        }
    }
    println!("{t}");

    println!("== E4: write-optimality tail (Theorems 3/4, Lemmas 5/6) ==");
    let mut t = Table::new(&[
        "n",
        "tail writers",
        "tail regs written",
        "tail writes/1k ticks",
        "tail readers",
    ]);
    for n in [3usize, 5, 8, 16] {
        let s = awb_run(n, horizon, ProcessId::new(0), None);
        let tail = s.tail.expect("the simulator observes the tail");
        t.row(&[
            n.to_string(),
            tail.writers.len().to_string(),
            tail.written_registers.to_string(),
            format!("{:.1}", tail.writes_per_1k),
            tail.readers.len().to_string(),
        ]);
        assert_eq!(
            tail.writers.len(),
            1,
            "only the leader writes after stabilization"
        );
        assert_eq!(tail.written_registers, 1, "and only one register");
        assert_eq!(tail.readers.len(), n, "everyone keeps reading (Lemma 6)");
    }
    println!("{t}");

    println!("== E3: boundedness (Theorem 2) ==");
    let mut t = Table::new(&["n", "horizon", "hwm bits", "still growing in tail"]);
    for n in [3usize, 8] {
        for h in [20_000u64, 40_000, 80_000] {
            let s = awb_run(n, h, ProcessId::new(0), None);
            t.row(&[
                n.to_string(),
                h.to_string(),
                s.hwm_bits.to_string(),
                if s.grown_in_tail.is_empty() {
                    "-".to_string()
                } else {
                    s.grown_in_tail.join(",")
                },
            ]);
            assert!(
                s.grown_in_tail.len() <= 1,
                "at most the leader's PROGRESS entry may grow"
            );
            for name in &s.grown_in_tail {
                assert!(
                    name.starts_with("PROGRESS["),
                    "unexpected unbounded register {name}"
                );
            }
        }
    }
    println!("{t}");
    println!("(the single growing register is PROGRESS[leader]; everything else plateaus)");
    println!();

    println!("== E13: AWB necessity — leader staller + stuck-low timers, no envelope ==");
    let mut t = Table::new(&["n", "stabilized >=1/3 of run", "leader changes (p0 view)"]);
    for n in [2usize, 3, 5] {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, n)
            .named(format!("no-awb-staller/n{n}"))
            .without_awb()
            .adversary(omega_scenario::AdversarySpec::LeaderStaller {
                base: 2,
                stall: 4_000,
            })
            .timers(omega_scenario::TimerSpec::StuckLow { cap: 8 })
            .horizon(120_000)
            .sample_every(100);
        let outcome = SimDriver.run(&scenario);
        let stable = outcome.stabilized_for(0.34);
        t.row(&[
            n.to_string(),
            stable.to_string(),
            outcome.estimate_changes[0].to_string(),
        ]);
        assert!(
            !stable,
            "without AWB the staller must keep demoting leaders"
        );
    }
    println!("{t}");
    println!("shape check: all Theorem 1-4 properties hold under AWB; none survive its removal.");
}
