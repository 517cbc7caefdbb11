//! E14 — staged ingest pipeline scaling (new subsystem, this repro):
//! throughput of `Hive::ingest_batch` (batched frames, decode+reconstruct
//! worker pool, memoized recycling, ordered merger) versus the serial
//! per-trace `Hive::ingest` loop, swept over worker counts.
//!
//! Workload: the E2 population workload (token_parser pods with random
//! inputs), where natural executions saturate a modest set of distinct
//! paths — exactly the regime a deployed population produces, and the
//! regime information recycling exploits: byte-identical by-products
//! only pay for decoding + reconstruction once.
//!
//! Writes `BENCH_ingest.json` into the current directory.

use softborg_bench::{banner, cell, table_header};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{IngestConfig, IngestStats};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios;
use softborg_trace::{wire, ExecutionTrace};
use std::fmt::Write as _;
use std::time::Instant;

const N_PODS: u64 = 8;
const PER_POD: usize = 1500;
const BATCH: usize = 32;

struct Row {
    label: String,
    workers: usize,
    memo: bool,
    wall_ms: f64,
    traces_per_sec: f64,
    speedup: f64,
    cache_hit_rate: f64,
    mean_frame_latency_us: f64,
    queue_high_water: usize,
}

fn pipelined<'p>(
    program: &'p softborg_program::Program,
    frames: &[Vec<u8>],
    workers: usize,
    memo: bool,
) -> (Hive<'p>, IngestStats, f64) {
    let cfg = IngestConfig {
        workers,
        queue_capacity: 64,
        memo_capacity: if memo { 4096 } else { 0 },
        ..IngestConfig::default()
    };
    let mut hive = Hive::new(program, HiveConfig::default());
    let t0 = Instant::now();
    let stats = hive.ingest_batch(frames.to_vec(), &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (hive, stats, wall_ms)
}

fn main() {
    banner(
        "E14",
        "staged ingest pipeline: throughput vs worker count",
        "new subsystem (recycling applied to the hive ingest path)",
    );
    let s = scenarios::token_parser();
    println!(
        "\nworkload: {} — {} pods x {} execs, batch {} traces/frame",
        s.name, N_PODS, PER_POD, BATCH
    );
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: {host_cpus} cpu(s) available to this process");

    // Population traces, pod-major (the order the platform ingests in).
    let mut traces: Vec<ExecutionTrace> = Vec::with_capacity(N_PODS as usize * PER_POD);
    for p in 0..N_PODS {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 1000 + p,
                ..PodConfig::default()
            },
        );
        traces.extend((0..PER_POD).map(|_| pod.run_once().trace));
    }
    let singles: Vec<Vec<u8>> = traces.iter().map(wire::encode).collect();
    let frames: Vec<Vec<u8>> = traces.chunks(BATCH).map(wire::encode_batch).collect();
    let wire_bytes: usize = singles.iter().map(Vec::len).sum();
    println!(
        "traces: {} ({} KiB encoded, {} frames)",
        traces.len(),
        wire_bytes / 1024,
        frames.len()
    );

    // Serial baseline: the classic loop — decode one payload, ingest one
    // trace, repeat.
    let mut serial_hive = Hive::new(&s.program, HiveConfig::default());
    let t0 = Instant::now();
    for payload in &singles {
        let t = wire::decode(payload).expect("self-produced payload");
        serial_hive.ingest(&t);
    }
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let serial_tps = traces.len() as f64 / (serial_ms / 1e3);
    println!(
        "\nserial baseline: {serial_ms:.1} ms, {serial_tps:.0} traces/s, {} distinct paths",
        serial_hive.coverage().distinct_paths
    );

    table_header(&[
        ("config", 14),
        ("wall ms", 9),
        ("traces/s", 10),
        ("speedup", 8),
        ("hit%", 6),
        ("lat us", 8),
        ("q peak", 7),
    ]);
    let mut rows: Vec<Row> = Vec::new();
    let mut push_row = |label: String, workers: usize, memo: bool| {
        let (hive, stats, wall_ms) = pipelined(&s.program, &frames, workers, memo);
        assert_eq!(
            hive.tree().digest(),
            serial_hive.tree().digest(),
            "pipelined state must match serial"
        );
        assert_eq!(hive.stats(), serial_hive.stats());
        let row = Row {
            label,
            workers,
            memo,
            wall_ms,
            traces_per_sec: stats.throughput_traces_per_sec(),
            speedup: serial_ms / wall_ms,
            cache_hit_rate: stats.cache_hit_rate(),
            mean_frame_latency_us: stats.mean_frame_latency_ns() as f64 / 1e3,
            queue_high_water: stats.queue_high_water,
        };
        println!(
            "{}{}{}{}{}{}{}",
            cell(&row.label, 14),
            cell(format!("{:.1}", row.wall_ms), 9),
            cell(format!("{:.0}", row.traces_per_sec), 10),
            cell(format!("{:.2}x", row.speedup), 8),
            cell(format!("{:.0}", row.cache_hit_rate * 100.0), 6),
            cell(format!("{:.0}", row.mean_frame_latency_us), 8),
            cell(row.queue_high_water, 7)
        );
        rows.push(row);
    };
    for workers in 1..=8 {
        push_row(format!("{workers}w+memo"), workers, true);
    }
    // Ablation: pipelining without recycling isolates what the memo
    // cache contributes.
    push_row("4w no-memo".to_string(), 4, false);

    let four = rows
        .iter()
        .find(|r| r.workers == 4 && r.memo)
        .expect("4-worker row");
    println!(
        "\nacceptance: {:.2}x at 4 workers vs serial (target >= 2.0x) — {}",
        four.speedup,
        if four.speedup >= 2.0 { "PASS" } else { "FAIL" }
    );
    println!("note: on a {host_cpus}-cpu host the win comes from recycling");
    println!("(memoized decode+reconstruct of repeated by-products) and batch");
    println!("framing; extra workers add little without extra cores.");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"e14_ingest_scale\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"scenario\": \"{}\", \"pods\": {}, \"execs_per_pod\": {}, \"batch_size\": {}, \"traces\": {}, \"distinct_paths\": {}, \"wire_bytes\": {}}},",
        s.name,
        N_PODS,
        PER_POD,
        BATCH,
        traces.len(),
        serial_hive.coverage().distinct_paths,
        wire_bytes
    );
    let _ = writeln!(
        json,
        "  \"serial_baseline\": {{\"wall_ms\": {serial_ms:.3}, \"traces_per_sec\": {serial_tps:.1}}},"
    );
    json.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"config\": \"{}\", \"workers\": {}, \"memo\": {}, \"wall_ms\": {:.3}, \"traces_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}, \"cache_hit_rate\": {:.4}, \"mean_frame_latency_us\": {:.1}, \"queue_high_water\": {}}}",
            r.label,
            r.workers,
            r.memo,
            r.wall_ms,
            r.traces_per_sec,
            r.speedup,
            r.cache_hit_rate,
            r.mean_frame_latency_us,
            r.queue_high_water
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"note\": \"{host_cpus}-cpu host: speedup comes from information recycling (byte-keyed memoization of decode+reconstruct) plus batch framing, not parallelism; state verified identical to serial ingest for every row\""
    );
    json.push_str("}\n");
    std::fs::write("BENCH_ingest.json", json).expect("write BENCH_ingest.json");
    println!("\nwrote BENCH_ingest.json");
}
