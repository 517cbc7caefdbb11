//! E10 — static vs dynamic execution-tree partitioning across an
//! unreliable network (§4): completion time and duplicated work as loss
//! and churn grow.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_bench::{banner, cell, table_header};
use softborg_hive::transport::{run_reliable_ingest, TransportConfig};
use softborg_hive::{
    run_exploration, run_replica_sync, DistConfig, Hive, HiveConfig, Outage, Partitioning,
    ReplicaConfig,
};
use softborg_ingest::IngestConfig;
use softborg_netsim::{Addr, Crash, FaultPlan, LinkConfig};
use softborg_pod::{Pod, PodConfig};
use softborg_program::interp::Outcome;
use softborg_program::scenarios;
use softborg_program::{BranchSiteId, ProgramId};
use softborg_trace::wire;

fn run(p: Partitioning, loss: u32, outages: &[Outage], seed: u64) -> (f64, u64, bool) {
    let r = run_exploration(&DistConfig {
        workers: 16,
        n_chunks: 128,
        loss_per_mille: loss,
        timeout_us: 80_000,
        partitioning: p,
        seed,
        outages: outages.to_vec(),
        ..DistConfig::default()
    })
    .expect("E10 configs are valid");
    (
        r.completion_time_us as f64 / 1e3,
        r.duplicated_executions,
        r.completed,
    )
}

fn main() {
    banner(
        "E10",
        "static vs dynamic tree partitioning under loss and churn",
        "§4 ('finding an appropriate partition is undecidable … partition dynamically')",
    );
    println!("setup: 16 workers, 128 subtree chunks, 20ms work/chunk, 80ms timeout\n");

    println!("loss sweep (no churn):");
    table_header(&[
        ("loss%", 6),
        ("static ms", 11),
        ("dyn ms", 10),
        ("static dup", 11),
        ("dyn dup", 9),
    ]);
    for loss in [0u32, 50, 100, 200, 300] {
        let (st_ms, st_dup, st_ok) = run(Partitioning::Static, loss, &[], 1);
        let (dy_ms, dy_dup, dy_ok) = run(Partitioning::Dynamic, loss, &[], 1);
        println!(
            "{}{}{}{}{}",
            cell(format!("{:.0}", loss as f64 / 10.0), 6),
            cell(format!("{st_ms:.0}{}", if st_ok { "" } else { "*" }), 11),
            cell(format!("{dy_ms:.0}{}", if dy_ok { "" } else { "*" }), 10),
            cell(st_dup, 11),
            cell(dy_dup, 9)
        );
    }

    println!("\nchurn sweep (10% loss, k workers down for 1.5s early on):");
    table_header(&[
        ("down", 6),
        ("static ms", 11),
        ("dyn ms", 10),
        ("static dup", 11),
        ("dyn dup", 9),
    ]);
    for k in [0u32, 2, 4, 8] {
        let outages: Vec<Outage> = (0..k)
            .map(|w| Outage {
                worker: w,
                at_us: 5_000,
                until_us: 1_500_000,
            })
            .collect();
        let (st_ms, st_dup, st_ok) = run(Partitioning::Static, 100, &outages, 2);
        let (dy_ms, dy_dup, dy_ok) = run(Partitioning::Dynamic, 100, &outages, 2);
        println!(
            "{}{}{}{}{}",
            cell(k, 6),
            cell(format!("{st_ms:.0}{}", if st_ok { "" } else { "*" }), 11),
            cell(format!("{dy_ms:.0}{}", if dy_ok { "" } else { "*" }), 10),
            cell(st_dup, 11),
            cell(dy_dup, 9)
        );
    }
    // Fully-distributed hive: tree replicas converging by gossip.
    println!("\nreplica synchronization (4 tree replicas, 100 paths each, gossip anti-entropy):");
    table_header(&[
        ("loss%", 6),
        ("converged", 10),
        ("paths/replica", 14),
        ("msgs sent", 10),
        ("dropped", 8),
    ]);
    for loss in [0u32, 100, 300] {
        let mut rng = SmallRng::seed_from_u64(77);
        let shards: Vec<Vec<softborg_hive::OutcomePath>> = (0..4)
            .map(|_| {
                (0..100)
                    .map(|_| {
                        let depth = rng.gen_range(1..10);
                        (
                            (0..depth)
                                .map(|d| (BranchSiteId::new(d), rng.gen_bool(0.6)))
                                .collect(),
                            Outcome::Success,
                        )
                    })
                    .collect()
            })
            .collect();
        let r = run_replica_sync(
            ProgramId(1),
            shards,
            &ReplicaConfig {
                loss_per_mille: loss,
                seed: u64::from(loss),
                ..ReplicaConfig::default()
            },
        );
        println!(
            "{}{}{}{}{}",
            cell(format!("{:.0}", loss as f64 / 10.0), 6),
            cell(if r.converged { "yes" } else { "NO" }, 10),
            cell(r.paths_per_replica[0], 14),
            cell(r.messages_sent, 10),
            cell(r.messages_dropped, 8)
        );
    }

    // The same coordinator/worker story, but on the *real* ingest path:
    // pods stream actual trace frames to the hive over the session
    // protocol (ack/retry/backoff + WAL) instead of abstract chunks.
    println!("\nreliable ingest transport (8 pods × real traces → hive WAL + pipeline):");
    table_header(&[
        ("loss%", 6),
        ("churn", 6),
        ("traces", 8),
        ("retx", 6),
        ("dups", 6),
        ("recov", 6),
    ]);
    let s = scenarios::token_parser();
    for (loss, crash) in [(0u32, false), (100, false), (200, false), (100, true)] {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 5,
                ..PodConfig::default()
            },
        );
        let pods: Vec<Vec<(u8, Vec<u8>)>> = (0..8)
            .map(|_| {
                (0..8)
                    .map(|_| {
                        let traces: Vec<_> = (0..4).map(|_| pod.run_once().trace).collect();
                        (1u8, wire::encode_batch(&traces))
                    })
                    .collect()
            })
            .collect();
        let faults = if crash {
            FaultPlan {
                crashes: vec![Crash {
                    node: Addr(8),
                    at_us: 20_000,
                    restart_us: 60_000,
                }],
                ..FaultPlan::default()
            }
        } else {
            FaultPlan::default()
        };
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let (report, stats) = run_reliable_ingest(
            &mut hive,
            pods,
            &IngestConfig::default(),
            &TransportConfig {
                seed: u64::from(loss) + u64::from(crash),
                link: LinkConfig {
                    loss_per_mille: loss,
                    ..LinkConfig::default()
                },
                faults,
                ..TransportConfig::default()
            },
            &[],
        )
        .expect("E10 transport configs are valid");
        println!(
            "{}{}{}{}{}{}",
            cell(format!("{:.0}", loss as f64 / 10.0), 6),
            cell(if crash { "crash" } else { "-" }, 6),
            cell(
                format!(
                    "{}{}",
                    stats.traces_merged,
                    if report.completed { "" } else { "*" }
                ),
                8
            ),
            cell(report.retransmits, 6),
            cell(report.duplicates, 6),
            cell(report.recoveries, 6)
        );
    }

    println!("\n(* = did not complete within the simulation horizon)");
    println!("\nexpected shape: lossless, the two match exactly. Under pure");
    println!("message loss the strategies stay comparable — dynamic sometimes");
    println!("reassigns a chunk whose Done was merely lost (the duplicated-");
    println!("work column), static just retransmits. *Churn* is where they");
    println!("separate: static is pinned to dead workers and its completion");
    println!("time blows up several-fold, while dynamic routes around the");
    println!("outage for a small duplication tax — the paper's argument that");
    println!("the tree must be partitioned dynamically.");
}
