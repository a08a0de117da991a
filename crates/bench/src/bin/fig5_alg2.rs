//! Experiments E9–E10 — Figure 5 / Theorems 6–8: Algorithm 2.
//!
//! Sections:
//!
//! 1. **Full boundedness (Theorem 6)** — total shared-memory footprint
//!    plateaus as the horizon doubles; no register grows late in the run.
//! 2. **Write pattern (Theorem 7 / Corollary 1)** — after stabilization,
//!    the write set is exactly `{HPROGRESS[ℓ][·] by ℓ} ∪ {LAST[ℓ][·] by
//!    followers}`, and *every* correct process writes forever.
//! 3. **Election (Theorem 1 analogue)** — Algorithm 2 still elects under
//!    the full adversary suite, including failover.

use omega_bench::table::Table;
use omega_bench::{run_election, AwbParams};
use omega_core::OmegaVariant;
use omega_registers::ProcessId;
use omega_scenario::Scenario;

fn main() {
    println!("== E9: boundedness of ALL registers (Theorem 6) ==");
    let mut t = Table::new(&["n", "horizon", "hwm bits", "grew in final quarter"]);
    for n in [3usize, 6] {
        let mut hwms = Vec::new();
        for h in [20_000u64, 40_000, 80_000, 160_000] {
            let s = run_election(OmegaVariant::Alg2, n, h, AwbParams::default(), None);
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
                s.grown_in_tail.is_empty(),
                "n={n} h={h}: Theorem 6 — nothing may keep growing"
            );
            hwms.push(s.hwm_bits);
        }
        // Footprint plateau: doubling the horizon twice more does not move
        // the high-water mark (same seed → same chaos phase).
        assert_eq!(
            hwms[2], hwms[3],
            "n={n}: footprint must plateau as the horizon grows"
        );
    }
    println!("{t}");
    println!("(hwm bits stop moving once suspicions freeze: the whole memory is bounded)");
    println!();

    println!("== E10: post-stabilization write pattern (Theorem 7, Corollary 1) ==");
    let n = 4;
    let scenario = Scenario::fault_free(OmegaVariant::Alg2, n)
        .named("fig5-write-pattern")
        .seed(5)
        .horizon(60_000)
        .sample_every(150)
        .stats_checkpoints(16);
    let sys = OmegaVariant::Alg2.build(n);
    let space = sys.space.clone();
    let report = scenario.sim_builder(sys.actors).memory(space).run();
    let leader = report.elected_leader().expect("stabilizes");
    let tail = report.windowed.tail(0.25).expect("stats recorded");
    let mut t = Table::new(&["register", "writers", "writes in tail"]);
    let mut signal = 0u64;
    let mut acks = 0u64;
    for row in tail.stats.rows() {
        if row.total_writes() == 0 {
            continue;
        }
        let writers: Vec<String> = ProcessId::all(n)
            .filter(|p| row.writes_by(*p) > 0)
            .map(|p| p.to_string())
            .collect();
        t.row(&[
            row.name.to_string(),
            writers.join(","),
            row.total_writes().to_string(),
        ]);
        let is_signal = row
            .name
            .starts_with(&format!("HPROGRESS[{}][", leader.index()));
        let is_ack = row.name.starts_with(&format!("LAST[{}][", leader.index()));
        assert!(
            is_signal || is_ack,
            "unexpected tail write target {}",
            row.name
        );
        if is_signal {
            signal += row.total_writes();
        } else {
            acks += row.total_writes();
        }
    }
    println!("{t}");
    println!("leader = {leader}; signal writes = {signal}, ack writes = {acks}");
    for pid in ProcessId::all(n) {
        assert!(
            tail.stats.writes_of(pid) > 0,
            "{pid} must write forever (Corollary 1)"
        );
    }
    println!("every correct process wrote in the tail: Corollary 1 observed.");
    println!();

    println!("== Election across sizes (Theorem 1 for Algorithm 2) ==");
    let mut t = Table::new(&["n", "crash leader@", "stabilized", "leader", "stable from"]);
    for n in [2usize, 4, 8, 16] {
        for crash in [None, Some(20_000u64)] {
            let params = AwbParams {
                timely: ProcessId::new(n - 1),
                ..AwbParams::default()
            };
            let s = run_election(OmegaVariant::Alg2, n, 60_000, params, crash);
            t.row(&[
                n.to_string(),
                crash.map_or("-".into(), |c| c.to_string()),
                s.stabilized.to_string(),
                s.leader.map_or("-".into(), |l| l.to_string()),
                s.stable_from.map_or("-".into(), |v| v.to_string()),
            ]);
            assert!(s.stabilized);
        }
    }
    println!("{t}");
    println!("shape check: bounded everywhere, everyone writes, still elects — Figure 5.");
}
