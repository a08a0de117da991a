//! SAN cluster: the paper's motivating deployment.
//!
//! ```text
//! cargo run --release --example san_cluster
//! ```
//!
//! Section 1 of the paper motivates shared-memory Ω with storage area
//! networks: "computers that communicate through a network of attached
//! disks … such architectures are becoming more and more attractive for
//! achieving fault-tolerance". This example shows both halves of that
//! story:
//!
//! 1. the register ↔ disk-block mapping (one block per 1WnR register, the
//!    Disk-Paxos layout) on a simulated latency-injecting SAN disk, and
//! 2. an election cluster whose shared registers *actually live on that
//!    disk*: every access pays simulated SAN latency, pacing stretches to
//!    match ([`NodeConfig::san_paced`]), and nothing about the algorithm
//!    changes — its assumptions are only about *eventual* timeliness.
//!
//! (For scripted experiments use `omega_scenario::WallDriver` on the `san`
//! backend, which wraps exactly this flow behind the standard `Driver`
//! interface.)

use std::time::{Duration, Instant};

use omega_shm::omega::OmegaVariant;
use omega_shm::registers::ProcessId;
use omega_shm::runtime::san::{SanDisk, SanLatency};
use omega_shm::runtime::{Cluster, NodeConfig};

fn main() {
    // ---- Part 1: registers as disk blocks -------------------------------
    let n = 4;
    println!("== Part 1: the Figure-2 registers laid out on a shared disk ==");
    let disk = SanDisk::new(SanLatency::commodity(), 2026);
    // A disk-backed space lays each register it creates out on a block of
    // its own, in creation order — the same path the election runs on.
    let space = disk.memory_space(n);
    let progress = space.nat_array("PROGRESS", |_| 0);
    let _stop = space.flag_array("STOP", |_| false);
    let _suspicions = space.nat_row_matrix("SUSPICIONS", |_, _| 0);
    let map = space
        .block_map()
        .expect("a disk-backed space has a block map");
    println!(
        "{} machines -> {} disk blocks (PROGRESS: {}, STOP: {}, SUSPICIONS: {})",
        n,
        map.blocks(),
        n,
        n,
        n * n
    );
    assert_eq!(map.blocks(), 2 * n + n * n);
    for binding in map.bindings().iter().step_by(n + 1) {
        let owner = binding.owner.expect("1WnR registers have an owner");
        println!(
            "  block {:>2}: {} (written by {owner})",
            binding.addr, binding.name
        );
    }

    // Machine 0 heartbeats through its PROGRESS block; everyone reads it.
    let start = Instant::now();
    let (p0, p3) = (ProcessId::new(0), ProcessId::new(3));
    for beat in 1..=5u64 {
        progress.get(p0).write(p0, beat);
    }
    let observed = progress.get(p0).read(p3);
    println!(
        "machine 3 reads machine 0's heartbeat = {} after {} block accesses ({:?} of simulated SAN latency)",
        observed,
        disk.accesses(),
        start.elapsed()
    );
    assert_eq!(observed, 5);
    assert!(
        progress.get(p0).try_write(p3, 0).is_err(),
        "only machine 0 writes its PROGRESS block"
    );

    // ---- Part 2: the election cluster ON the disk -----------------------
    println!();
    println!("== Part 2: electing over disk blocks (Algorithm 2 on the SAN) ==");
    println!("(bounded registers matter on real disks: a counter can outgrow a block)");
    // A faster disk than Part 1's, so the demo stays interactive; pacing
    // stretches with the latency model either way.
    let latency = SanLatency {
        base: Duration::from_micros(50),
        jitter: Duration::from_micros(50),
    };
    let san = SanDisk::new(latency, 2027);
    let space = san.memory_space(n);
    let pacing = NodeConfig::san_paced(latency);
    let cluster = Cluster::start_in(OmegaVariant::Alg2, &space, pacing, None, |_, _| Vec::new());
    let started = Instant::now();
    let leader = cluster
        .await_stable_leader(Duration::from_millis(300), Duration::from_secs(30))
        .expect("SAN latency changes constants, not correctness");
    println!("stable leader after {:?}: {leader}", started.elapsed());

    println!("crashing {leader} (pulling the machine, not the disk)…");
    cluster.crash(leader);
    let next = cluster
        .await_stable_leader(Duration::from_millis(300), Duration::from_secs(30))
        .expect("failover over the SAN");
    println!("re-elected {next} after {:?} total", started.elapsed());
    assert_ne!(next, leader);

    // Boundedness is what makes Algorithm 2 disk-friendly: report it,
    // along with what the disk itself served.
    let fp = cluster.space().footprint();
    let stats = san.stats();
    println!(
        "total shared state ever needed: {} bits across {} registers (all bounded)",
        fp.total_hwm_bits(),
        fp.rows().len()
    );
    println!(
        "disk served {} block accesses over {} blocks ({:.1} ms simulated service time)",
        stats.accesses,
        stats.blocks_touched,
        stats.service_time.as_secs_f64() * 1e3
    );
    cluster.shutdown();
}
