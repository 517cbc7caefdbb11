//! E15 — fault tolerance of the reliable pod→hive transport: sweep
//! loss × duplication × crash schedules and verify that the hive's
//! final state is byte-identical to a fault-free serial ingest of the
//! same traces, with zero accepted frames lost.
//!
//! Writes `BENCH_fault.json` into the current directory. `--seed N`
//! reseeds the trace generation and the per-cell simulations
//! (default 21).

use softborg_bench::{arg_seed, banner, cell, table_header};
use softborg_hive::transport::{run_reliable_ingest, TransportConfig};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_netsim::{Addr, Crash, FaultPlan, LinkConfig};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios;
use softborg_trace::{wire, ExecutionTrace};
use std::fmt::Write as _;

const PODS: usize = 6;
const TRACES: usize = 144;
const BATCH: usize = 4;

struct Row {
    loss: u32,
    dup: u32,
    crashes: usize,
    delivered: u64,
    duplicates: u64,
    retransmits: u64,
    recoveries: u64,
    journal_syncs: u64,
    identical: bool,
    completed: bool,
}

fn main() {
    let seed = arg_seed(21);
    banner(
        "E15",
        "transport fault tolerance: loss × duplication × crash schedules",
        "§4 ('mostly end-user machines … potentially unreliable network') + crash-only recovery lineage",
    );
    println!(
        "setup: {PODS} pods × {} traces in {BATCH}-trace frames, session protocol",
        TRACES / PODS
    );
    println!("(go-back-N + cumulative acks), WAL with batched sync, scheduled hive");
    println!("crashes with journal recovery. Reference: fault-free serial ingest.\n");

    let s = scenarios::token_parser();
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed,
            ..PodConfig::default()
        },
    );
    let traces: Vec<ExecutionTrace> = (0..TRACES).map(|_| pod.run_once().trace).collect();

    // Fault-free serial reference: the state every faulty run must hit.
    let mut reference = Hive::new(&s.program, HiveConfig::default());
    for t in &traces {
        reference.ingest(t);
    }
    let ref_digest = reference.tree().digest();
    let ref_stats = reference.stats();

    let sessions: Vec<Vec<(u8, Vec<u8>)>> = {
        let mut out = vec![Vec::new(); PODS];
        for (i, chunk) in traces.chunks(BATCH).enumerate() {
            out[i % PODS].push((1u8, wire::encode_batch(chunk)));
        }
        out
    };

    table_header(&[
        ("loss%", 6),
        ("dup%", 5),
        ("crashes", 8),
        ("recov", 6),
        ("retx", 7),
        ("dups", 6),
        ("syncs", 6),
        ("state", 10),
    ]);

    let mut rows: Vec<Row> = Vec::new();
    let crash_schedules: [&[(u64, u64)]; 3] = [
        &[],
        &[(25_000, 70_000)],
        &[(20_000, 50_000), (120_000, 160_000)],
    ];
    for &loss in &[0u32, 100, 200] {
        for &dup in &[0u32, 100] {
            for schedule in crash_schedules {
                let faults = FaultPlan {
                    dup_per_mille: dup,
                    crashes: schedule
                        .iter()
                        .map(|&(at_us, restart_us)| Crash {
                            node: Addr(PODS as u32),
                            at_us,
                            restart_us,
                        })
                        .collect(),
                    ..FaultPlan::default()
                };
                let mut hive = Hive::new(&s.program, HiveConfig::default());
                let (report, stats) = run_reliable_ingest(
                    &mut hive,
                    sessions.clone(),
                    &IngestConfig::default(),
                    &TransportConfig {
                        seed: seed
                            ^ (u64::from(loss) * 31 + u64::from(dup) * 7 + schedule.len() as u64),
                        link: LinkConfig {
                            loss_per_mille: loss,
                            ..LinkConfig::default()
                        },
                        faults,
                        ack_timeout_us: 15_000,
                        ..TransportConfig::default()
                    },
                    &[],
                )
                .expect("E15 sweep plans are valid");

                // Byte-identical state vs the fault-free serial run, and
                // the journal replay must reproduce it too.
                let (recovered, _) = Hive::recover(
                    &s.program,
                    HiveConfig::default(),
                    &IngestConfig::default(),
                    &report.journal,
                );
                let identical = hive.tree().digest() == ref_digest
                    && hive.stats() == ref_stats
                    && hive.coverage() == reference.coverage()
                    && recovered.tree().digest() == ref_digest
                    && recovered.stats() == ref_stats;
                let zero_lost = report.completed
                    && report.shed == 0
                    && stats.traces_merged == TRACES as u64
                    && report.acked == report.delivered;

                rows.push(Row {
                    loss,
                    dup,
                    crashes: schedule.len(),
                    delivered: report.delivered,
                    duplicates: report.duplicates,
                    retransmits: report.retransmits,
                    recoveries: report.recoveries,
                    journal_syncs: report.journal_syncs,
                    identical,
                    completed: zero_lost,
                });
                println!(
                    "{}{}{}{}{}{}{}{}",
                    cell(format!("{:.0}", loss as f64 / 10.0), 6),
                    cell(format!("{:.0}", dup as f64 / 10.0), 5),
                    cell(schedule.len(), 8),
                    cell(report.recoveries, 6),
                    cell(report.retransmits, 7),
                    cell(report.duplicates, 6),
                    cell(report.journal_syncs, 6),
                    cell(
                        if identical && zero_lost {
                            "IDENTICAL"
                        } else {
                            "DIVERGED"
                        },
                        10
                    )
                );
            }
        }
    }

    let all_ok = rows.iter().all(|r| r.identical && r.completed);
    println!("\nacceptance: every cell byte-identical to fault-free serial ingest with");
    println!(
        "zero lost accepted frames (incl. <=20% loss + crash) — {}",
        if all_ok { "PASS" } else { "FAIL" }
    );
    println!("\nexpected shape: loss and duplication cost retransmissions and");
    println!("dedup work, crashes cost recoveries — but never state: the WAL's");
    println!("ack-after-sync invariant plus (session, seq) dedup make redelivery");
    println!("idempotent and recovery exact, so the collective tree is the same");
    println!("no matter how hostile the network.");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"e15_fault_tolerance\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"scenario\": \"{}\", \"pods\": {PODS}, \"traces\": {TRACES}, \"batch_size\": {BATCH}}},",
        s.name
    );
    let _ = writeln!(json, "  \"all_identical\": {all_ok},");
    json.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"loss_per_mille\": {}, \"dup_per_mille\": {}, \"crashes\": {}, \"delivered\": {}, \"duplicates\": {}, \"retransmits\": {}, \"recoveries\": {}, \"journal_syncs\": {}, \"state_identical\": {}, \"zero_lost_accepted\": {}}}",
            r.loss,
            r.dup,
            r.crashes,
            r.delivered,
            r.duplicates,
            r.retransmits,
            r.recoveries,
            r.journal_syncs,
            r.identical,
            r.completed
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"note\": \"state compared via structural tree digest + HiveStats + coverage, against both the live transported hive and a Hive::recover journal replay\"\n",
    );
    json.push_str("}\n");
    std::fs::write("BENCH_fault.json", json).expect("write BENCH_fault.json");
    println!("\nwrote BENCH_fault.json");
    assert!(all_ok, "E15 acceptance failed: see table above");
}
