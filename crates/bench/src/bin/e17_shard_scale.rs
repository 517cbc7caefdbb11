//! E17 — sharded multi-program hive scaling (new subsystem, this repro):
//! aggregate ingest throughput of a [`ShardedHive`] (N hive shards behind
//! one router and ONE shared decode+reconstruct worker pool) swept over
//! shard count × program count on a **pinned worker budget**, versus the
//! pre-sharding 1-shard configuration: a serial per-trace
//! `decode` + `Hive::ingest` loop per program.
//!
//! Also quantifies the imbalance penalty under a skewed program mix
//! (one hot program dominating the traffic) via `imbalance_ratio`.
//!
//! Writes `BENCH_shard.json` into the current directory. `--seed N`
//! rebases the per-pod trace seeds (default 1000).

use softborg_bench::{arg_seed, banner, cell, table_header};
use softborg_hive::{Hive, HiveConfig, ShardedHive};
use softborg_ingest::{IngestConfig, IngestStats};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios::{self, Scenario};
use softborg_program::ProgramId;
use softborg_trace::{wire, ExecutionTrace};
use std::fmt::Write as _;
use std::time::Instant;

const N_PODS: u64 = 4;
const PER_POD: usize = 1200;
const BATCH: usize = 64;
/// Pinned decode+reconstruct budget shared by every configuration.
const WORKERS: usize = 4;
/// Pool-total memo entries, split equally over the workers' caches.
const MEMO_TOTAL: usize = 4096;
const SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Best-of-N timing: single-CPU container scheduling is noisy.
const REPEATS: usize = 3;

/// One program's workload: the serial wire payloads (one per trace, the
/// pre-sharding ingest unit) and the batched frames the sharded
/// pipeline ships.
struct Workload {
    scenario: Scenario,
    id: ProgramId,
    singles: Vec<Vec<u8>>,
    frames: Vec<Vec<u8>>,
}

fn workloads(seed_base: u64) -> Vec<Workload> {
    // Ordered by trace redundancy: the first four are the regime a
    // deployed population produces (natural executions saturating a
    // modest path set — the regime recycling exploits); the back four
    // add progressively more schedule/input entropy, so the 8-program
    // cells show what low-redundancy traffic costs.
    let scs = vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::short_read_client(),
        scenarios::bank_transfer(),
        scenarios::spin_wait(),
        scenarios::racy_counter(),
        scenarios::dining_philosophers(3),
        scenarios::record_processor(),
    ];
    scs.into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let mut traces: Vec<ExecutionTrace> = Vec::with_capacity(N_PODS as usize * PER_POD);
            for p in 0..N_PODS {
                let mut pod = Pod::new(
                    &scenario.program,
                    PodConfig {
                        input_range: scenario.input_range,
                        seed: seed_base * (i as u64 + 1) + p,
                        ..PodConfig::default()
                    },
                );
                traces.extend((0..PER_POD).map(|_| pod.run_once().trace));
            }
            let singles = traces.iter().map(wire::encode).collect();
            let frames = traces.chunks(BATCH).map(wire::encode_batch).collect();
            let id = scenario.program.id();
            Workload {
                scenario,
                id,
                singles,
                frames,
            }
        })
        .collect()
}

/// The pre-sharding 1-shard configuration: one hive per program, each
/// ingesting its own traffic with the classic per-payload
/// decode + ingest loop. Returns the reference hives (for the
/// byte-identity check) and the wall time in ms.
fn serial_baseline<'p>(loads: &'p [Workload]) -> (Vec<Hive<'p>>, f64) {
    let mut best = f64::INFINITY;
    let mut hives = Vec::new();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        hives = loads
            .iter()
            .map(|w| {
                let mut hive = Hive::new(&w.scenario.program, HiveConfig::default());
                for payload in &w.singles {
                    let t = wire::decode(payload).expect("self-produced payload");
                    hive.ingest(&t);
                }
                hive
            })
            .collect();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (hives, best)
}

fn ingest_cfg() -> IngestConfig {
    IngestConfig {
        workers: WORKERS,
        queue_capacity: 64,
        memo_capacity: MEMO_TOTAL / WORKERS,
        ..IngestConfig::default()
    }
}

/// Interleaves every program's frames round-robin — the mixed stream a
/// shared deployment sees.
fn interleave(mix: &[(&Workload, usize)]) -> Vec<(ProgramId, Vec<u8>)> {
    let longest = mix.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for (w, n) in mix {
            if i < *n {
                out.push((w.id, w.frames[i].clone()));
            }
        }
    }
    out
}

/// Runs the sharded pipeline over `mix` with `n_shards` shards and
/// verifies every program's hive ended byte-identical to `reference`
/// (serial ingest of the same traffic), when a reference is given.
fn sharded_run(
    mix: &[(&Workload, usize)],
    n_shards: usize,
    reference: Option<&[Hive<'_>]>,
) -> IngestStats {
    let programs: Vec<&softborg_program::Program> =
        mix.iter().map(|(w, _)| &w.scenario.program).collect();
    let mut best: Option<IngestStats> = None;
    for _ in 0..REPEATS {
        let mut sharded = ShardedHive::new(&programs, n_shards, &HiveConfig::default())
            .expect("distinct scenario programs place cleanly");
        // Clone the stream outside the timed region: the pipeline is
        // being measured, not the benchmark's own frame duplication.
        let stream = interleave(mix);
        let stats = sharded
            .ingest_frames(&ingest_cfg(), move |tx| {
                for (program, frame) in stream {
                    tx.submit_for(program, frame).expect("placed program");
                }
            })
            .1;
        assert_eq!(stats.frames_corrupt, 0);
        assert_eq!(stats.frames_unknown_program, 0);
        assert_eq!(stats.frames_dropped, 0);
        if let Some(reference) = reference {
            for ((w, _), serial) in mix.iter().zip(reference) {
                let hive = sharded.hive(w.id).expect("placed");
                assert_eq!(
                    hive.tree().digest(),
                    serial.tree().digest(),
                    "{}: sharded state must match serial ingest",
                    w.scenario.name
                );
                assert_eq!(hive.stats(), serial.stats());
            }
        }
        if best.as_ref().is_none_or(|b| stats.wall_ns < b.wall_ns) {
            best = Some(stats);
        }
    }
    best.expect("at least one repeat")
}

struct Cell {
    shards: usize,
    programs: usize,
    wall_ms: f64,
    traces_per_sec: f64,
    speedup_vs_serial: f64,
    imbalance: f64,
    cache_hit_rate: f64,
    queue_high_water: usize,
}

fn main() {
    let seed_base = arg_seed(1000);
    banner(
        "E17",
        "sharded multi-program hive: shards x programs on a pinned worker budget",
        "new subsystem (dynamic partitioning of the execution tree across hive nodes)",
    );
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: {host_cpus} cpu(s) available to this process");
    println!(
        "workload: {} pods x {} execs per program, batch {} traces/frame, {} workers pinned",
        N_PODS, PER_POD, BATCH, WORKERS
    );
    let loads = workloads(seed_base);
    for w in &loads {
        let distinct: std::collections::HashSet<&[u8]> =
            w.singles.iter().map(Vec::as_slice).collect();
        println!(
            "  {:>16}: {} traces, {} distinct payloads ({:.0}% recyclable)",
            w.scenario.name,
            w.singles.len(),
            distinct.len(),
            (1.0 - distinct.len() as f64 / w.singles.len() as f64) * 100.0
        );
    }
    let uniform = |p: usize| -> Vec<(&Workload, usize)> {
        loads[..p].iter().map(|w| (w, w.frames.len())).collect()
    };

    // Serial 1-shard-configuration baselines, one per program count.
    let mut serial_ms = vec![0.0; SWEEP.len()];
    let mut serial_hives: Vec<Hive<'_>> = Vec::new();
    println!();
    for (i, &p) in SWEEP.iter().enumerate() {
        let (hives, ms) = serial_baseline(&loads[..p]);
        let traces: usize = loads[..p].iter().map(|w| w.singles.len()).sum();
        println!(
            "serial baseline, {p} program(s): {ms:.1} ms, {:.0} traces/s",
            traces as f64 / (ms / 1e3)
        );
        serial_ms[i] = ms;
        if p == *SWEEP.last().unwrap() {
            serial_hives = hives;
        }
    }

    // The sweep: shards x programs, pinned workers.
    println!();
    table_header(&[
        ("shards", 7),
        ("progs", 6),
        ("wall ms", 9),
        ("traces/s", 10),
        ("speedup", 8),
        ("imbal", 6),
        ("hit%", 6),
        ("q peak", 7),
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    for (pi, &p) in SWEEP.iter().enumerate() {
        for &s in &SWEEP {
            let stats = sharded_run(&uniform(p), s, Some(&serial_hives[..p]));
            let wall_ms = stats.wall_ns as f64 / 1e6;
            let c = Cell {
                shards: s,
                programs: p,
                wall_ms,
                traces_per_sec: stats.throughput_traces_per_sec(),
                speedup_vs_serial: serial_ms[pi] / wall_ms,
                imbalance: stats.imbalance_ratio(),
                cache_hit_rate: stats.cache_hit_rate(),
                queue_high_water: stats.queue_high_water,
            };
            println!(
                "{}{}{}{}{}{}{}{}",
                cell(c.shards, 7),
                cell(c.programs, 6),
                cell(format!("{:.1}", c.wall_ms), 9),
                cell(format!("{:.0}", c.traces_per_sec), 10),
                cell(format!("{:.2}x", c.speedup_vs_serial), 8),
                cell(format!("{:.2}", c.imbalance), 6),
                cell(format!("{:.0}", c.cache_hit_rate * 100.0), 6),
                cell(c.queue_high_water, 7)
            );
            cells.push(c);
        }
    }

    // Skewed mix: program 0 ships 8x the traffic of its peers. The
    // imbalance gauge must read the skew; throughput shows the penalty.
    let skewed: Vec<(&Workload, usize)> = loads[..4]
        .iter()
        .enumerate()
        .map(|(i, w)| {
            (
                w,
                if i == 0 {
                    w.frames.len()
                } else {
                    w.frames.len() / 8
                },
            )
        })
        .collect();
    let skew_stats = sharded_run(&skewed, 4, None);
    let uniform_4x4 = cells
        .iter()
        .find(|c| c.shards == 4 && c.programs == 4)
        .expect("4x4 cell");
    println!(
        "\nskewed mix (hot program 8x): imbalance {:.2} (uniform {:.2}), {:.0} traces/s",
        skew_stats.imbalance_ratio(),
        uniform_4x4.imbalance,
        skew_stats.throughput_traces_per_sec()
    );

    // Acceptance. On a multi-core host the 4-shard pipeline beats the
    // 1-shard pipeline outright; on a single-CPU host shard parallelism
    // cannot manifest, so (as in E14) the honest headline is the sharded
    // pipeline versus the pre-sharding 1-shard configuration — the
    // serial per-trace decode+ingest loop — where recycling and batch
    // framing carry the win. Both ratios are recorded.
    let one_shard_4p = cells
        .iter()
        .find(|c| c.shards == 1 && c.programs == 4)
        .expect("1x4 cell");
    let vs_serial = uniform_4x4.speedup_vs_serial;
    let vs_pipeline = uniform_4x4.traces_per_sec / one_shard_4p.traces_per_sec;
    println!(
        "\nacceptance: 4 shards / 4 programs {vs_serial:.2}x the 1-shard serial \
         configuration (target >= 2.0x) — {}",
        if vs_serial >= 2.0 { "PASS" } else { "FAIL" }
    );
    println!("            4-shard pipeline vs 1-shard pipeline: {vs_pipeline:.2}x");
    println!("note: on a {host_cpus}-cpu host the win comes from the shared pool's");
    println!("recycling (memoized decode+reconstruct) and batch framing; extra");
    println!("shards add concurrency that needs extra cores to pay off.");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"e17_shard_scale\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"programs\": {}, \"pods_per_program\": {N_PODS}, \"execs_per_pod\": {PER_POD}, \"batch_size\": {BATCH}, \"workers\": {WORKERS}, \"memo_total\": {MEMO_TOTAL}}},",
        loads.len()
    );
    json.push_str("  \"serial_baselines\": [\n");
    for (i, &p) in SWEEP.iter().enumerate() {
        let traces: usize = loads[..p].iter().map(|w| w.singles.len()).sum();
        let _ = write!(
            json,
            "    {{\"programs\": {p}, \"wall_ms\": {:.3}, \"traces_per_sec\": {:.1}}}",
            serial_ms[i],
            traces as f64 / (serial_ms[i] / 1e3)
        );
        json.push_str(if i + 1 == SWEEP.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"sweep\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"programs\": {}, \"wall_ms\": {:.3}, \"traces_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}, \"imbalance_ratio\": {:.3}, \"cache_hit_rate\": {:.4}, \"queue_high_water\": {}}}",
            c.shards,
            c.programs,
            c.wall_ms,
            c.traces_per_sec,
            c.speedup_vs_serial,
            c.imbalance,
            c.cache_hit_rate,
            c.queue_high_water
        );
        json.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"skew\": {{\"hot_program_factor\": 8, \"shards\": 4, \"programs\": 4, \"imbalance_ratio\": {:.3}, \"uniform_imbalance_ratio\": {:.3}, \"traces_per_sec\": {:.1}}},",
        skew_stats.imbalance_ratio(),
        uniform_4x4.imbalance,
        skew_stats.throughput_traces_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"speedup_4shard_4prog_vs_serial_1shard_configuration\": {vs_serial:.3}, \"pipeline_4shard_over_1shard\": {vs_pipeline:.3}, \"target\": 2.0, \"pass\": {}}},",
        vs_serial >= 2.0
    );
    let _ = writeln!(
        json,
        "  \"note\": \"pinned worker budget ({WORKERS} workers) for every configuration; per-program hive state verified byte-identical to serial ingest in every sweep cell; on a {host_cpus}-cpu host the speedup comes from shared-pool recycling + batch framing, and extra shards add concurrency that needs extra cores to pay off\""
    );
    json.push_str("}\n");
    std::fs::write("BENCH_shard.json", json).expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json");
}
