//! E18 — the million-user day in CI (softborg-netsim's `World`, this
//! repro): a full 24-virtual-hour fleet day under the virtual-time
//! deterministic scheduler. ≥100k pods arrive on a diurnal curve, hold churning
//! heartbeat sessions against a small tier of aggregators (some come
//! back for an evening session), while the fault plan partitions pod
//! uplinks, crashes every aggregator once, and fires disk crash points
//! into the aggregator journals — all at exact virtual instants.
//!
//! The run is replayed from the same seed and must reproduce the
//! identical `sched_trace_hash` and final aggregate state: one hash
//! names the entire fleet day, so any CI failure at this scale is
//! single-step reproducible.
//!
//! Writes `BENCH_sim.json` into the current directory.
//! `--smoke` runs the 5k-pod CI variant; `--pods N` and `--seed N`
//! override the defaults.

use softborg_bench::fleet::{self, DayConfig, DayOutcome, AGGS};
use softborg_bench::{banner, cell, table_header};
use std::fmt::Write as _;

/// One telemetry-free fleet day (see [`fleet::run_day`]); returns the
/// outcome and wall seconds.
fn run_day(pods: u64, seed: u64) -> (DayOutcome, f64) {
    let (day, wall, _) = fleet::run_day(&DayConfig {
        pods,
        seed,
        ..DayConfig::default()
    });
    (day, wall)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut pods: u64 = 100_000;
    let mut seed: u64 = 20_260_808;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => pods = 5_000,
            "--pods" => {
                i += 1;
                pods = args[i].parse().expect("--pods N");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed N");
            }
            other => panic!("unknown arg {other} (use --smoke | --pods N | --seed N)"),
        }
        i += 1;
    }

    banner(
        "E18",
        "the million-user day in CI: virtual-time fleet simulation",
        "Candea, \"Exterminating bugs via collective information recycling\" §4 (fleets of hundreds of thousands of pods), this repro's virtual-time `World` (softborg-netsim)",
    );
    println!(
        "{pods} pods · {AGGS} aggregators · 24 virtual hours · seed {seed}\n\
         diurnal arrivals, 20min–3h churn sessions, evening returns,\n\
         64 uplink partitions, {AGGS} aggregator crashes, 2 disk crash points\n"
    );

    let (day, wall) = run_day(pods, seed);
    let (replay, replay_wall) = run_day(pods, seed);
    let replay_match = day == replay;
    assert!(
        replay_match,
        "replay diverged: {:#x} vs {:#x}",
        day.sched.trace_hash, replay.sched.trace_hash
    );

    let virtual_s = day.virtual_end_us as f64 / 1e6;
    let compression = virtual_s / wall;
    let events_per_s = day.sched.events_dispatched as f64 / wall;

    table_header(&[("metric", 34), ("run", 16), ("replay", 16)]);
    let row = |name: &str, a: String, b: String| {
        println!("{}{}{}", cell(name, 34), cell(a, 16), cell(b, 16));
    };
    row(
        "events dispatched",
        day.sched.events_dispatched.to_string(),
        replay.sched.events_dispatched.to_string(),
    );
    row(
        "sched_trace_hash",
        format!("{:016x}", day.sched.trace_hash),
        format!("{:016x}", replay.sched.trace_hash),
    );
    row(
        "peak event-heap depth",
        day.sched.peak_heap_depth.to_string(),
        replay.sched.peak_heap_depth.to_string(),
    );
    row(
        "wall seconds",
        format!("{wall:.2}"),
        format!("{replay_wall:.2}"),
    );
    row(
        "virtual s / wall s",
        format!("{compression:.0}"),
        format!("{:.0}", virtual_s / replay_wall),
    );
    row(
        "heartbeats journaled",
        day.heartbeats.to_string(),
        String::new(),
    );
    row("messages sent", day.net.sent.to_string(), String::new());
    row(
        "dropped (loss+dead)",
        day.net.dropped.to_string(),
        String::new(),
    );
    row(
        "partition-dropped",
        day.net.partition_dropped.to_string(),
        String::new(),
    );
    row("duplicated", day.net.duplicated.to_string(), String::new());
    row(
        "crashes executed",
        day.net.crashes.to_string(),
        String::new(),
    );
    row("fsyncs", day.io.fsyncs.to_string(), String::new());
    row(
        "journal bytes lost to crashes",
        day.io.disk_bytes_lost.to_string(),
        String::new(),
    );
    println!(
        "\nreplay: {} (hash + full state {})\n",
        if replay_match { "MATCH" } else { "DIVERGED" },
        if replay_match { "identical" } else { "differ" },
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"experiment\": \"E18 fleet day\", \"pods\": {pods}, \"aggregators\": {AGGS}, \"seed\": {seed}, \"virtual_hours\": 24,"
    );
    let _ = writeln!(
        json,
        "  \"events_dispatched\": {}, \"peak_event_heap_depth\": {}, \"sched_trace_hash\": \"{:016x}\",",
        day.sched.events_dispatched, day.sched.peak_heap_depth, day.sched.trace_hash
    );
    let _ = writeln!(
        json,
        "  \"wall_seconds\": {wall:.3}, \"virtual_seconds_per_wall_second\": {compression:.1}, \"events_per_second\": {events_per_s:.0},"
    );
    let _ = writeln!(
        json,
        "  \"net\": {{\"sent\": {}, \"delivered\": {}, \"dropped\": {}, \"partition_dropped\": {}, \"duplicated\": {}, \"crashes\": {}, \"timers\": {}}},",
        day.net.sent,
        day.net.delivered,
        day.net.dropped,
        day.net.partition_dropped,
        day.net.duplicated,
        day.net.crashes,
        day.net.timers
    );
    let _ = writeln!(
        json,
        "  \"io\": {{\"fsyncs\": {}, \"disk_bytes_written\": {}, \"disk_bytes_lost\": {}, \"disk_faults\": {}, \"disk_faults_ignored\": {}, \"heartbeats_journaled\": {}}},",
        day.io.fsyncs,
        day.io.disk_bytes_written,
        day.io.disk_bytes_lost,
        day.io.disk_faults,
        day.io.disk_faults_ignored,
        day.heartbeats
    );
    let _ = writeln!(
        json,
        "  \"replay\": {{\"match\": {replay_match}, \"wall_seconds\": {replay_wall:.3}, \"sched_trace_hash\": \"{:016x}\"}},",
        replay.sched.trace_hash
    );
    // The heap drains before the 24h deadline (nothing is scheduled
    // past the last evening session), so "day completed" means: fuel
    // never ran out and the simulation reached the evening sessions.
    let day_completed = !day.sched.fuel_exhausted && day.virtual_end_us >= 22 * 3600 * 1_000_000;
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"day_completed\": {day_completed}, \"replay_match\": {replay_match}, \"pass\": {}}},",
        day_completed && replay_match
    );
    let _ = writeln!(
        json,
        "  \"note\": \"single-threaded virtual-time run; every partition, crash, and disk fault fires at an exact virtual instant, and the whole day is named by one sched_trace_hash — rerunning with the same seed reproduces the fleet day event-for-event\""
    );
    json.push_str("}\n");
    std::fs::write("BENCH_sim.json", json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");
}
