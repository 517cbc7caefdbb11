//! The observability layer's determinism contract, end to end:
//!
//! * telemetry-on and telemetry-off runs leave the platform and hive in
//!   byte-identical state (recording is passive);
//! * a simulated run replays to the same `events_hash` *and* the same
//!   JSONL export (timestamps are virtual, so even they replay);
//! * a transport run hands the caller's recorder back on its own clock;
//! * when two runs genuinely diverge (fault plans differing at one
//!   crash instant), [`explain_recorders`] pinpoints the first
//!   divergent event at or after the earlier crash instant.

#[path = "../crates/hive/tests/common/mod.rs"]
mod common;

use common::{pod_traces, sessions_of};
use softborg::obs::{
    explain_recorders, FlightRecorder, ManualClock, MetricsRegistry, ObsHandles, Severity,
};
use softborg::pod::PodConfig;
use softborg::{Platform, PlatformConfig};
use softborg_hive::transport::{run_reliable_ingest, TransportConfig};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_netsim::{
    Addr, Crash, DiskCrashPoint, DiskId, FaultPlan, LinkConfig, Partition, Proc, SimConfig,
    SimTime, World, WorldCtx,
};
use softborg_program::scenarios;
use std::sync::Arc;

fn live_obs() -> ObsHandles {
    ObsHandles::new(
        MetricsRegistry::new(),
        FlightRecorder::new(Arc::new(ManualClock::new(0)), 4096),
    )
}

fn faulty_config(seed: u64, pods: u32, crash_at_us: u64, obs: ObsHandles) -> TransportConfig {
    TransportConfig {
        seed,
        obs,
        link: LinkConfig {
            base_latency_us: 800,
            jitter_us: 500,
            loss_per_mille: 80,
        },
        faults: FaultPlan {
            dup_per_mille: 60,
            reorder_per_mille: 100,
            reorder_window_us: 20_000,
            partitions: vec![Partition {
                a: Addr(0),
                b: Addr(pods),
                from_us: 5_000,
                until_us: 25_000,
            }],
            crashes: vec![Crash {
                node: Addr(pods),
                at_us: crash_at_us,
                restart_us: crash_at_us + 30_000,
            }],
            disk: Vec::new(),
        },
        ..TransportConfig::default()
    }
}

/// One simulated transport campaign with live telemetry; returns the
/// recorder, its hashes, and the hive's tree digest.
fn sim_campaign(seed: u64, crash_at_us: u64) -> (FlightRecorder, u64, u64, u64) {
    let s = scenarios::record_processor();
    let traces = pod_traces(&s, seed ^ 0xABCD, 36);
    let obs = live_obs();
    let recorder = obs.recorder.clone();
    let cfg = faulty_config(seed, 3, crash_at_us, obs);
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(
        &mut hive,
        sessions_of(&traces, 3, 4),
        &IngestConfig::default(),
        &cfg,
        &[],
    )
    .expect("valid plan");
    let digest = hive.tree().digest();
    let events_hash = recorder.events_hash();
    (recorder, events_hash, report.sched.trace_hash, digest)
}

#[test]
fn telemetry_on_and_off_platform_states_are_byte_identical() {
    let s = scenarios::token_parser();
    let config = |obs: ObsHandles| PlatformConfig {
        n_pods: 12,
        seed: 42,
        pod: PodConfig {
            input_range: s.input_range,
            ..PodConfig::default()
        },
        obs,
        ..PlatformConfig::default()
    };
    let mut plain = Platform::new(&s.program, config(ObsHandles::default()));
    plain.run(4, 20);

    let obs = live_obs();
    let mut observed = Platform::new(&s.program, config(obs.clone()));
    observed.run(4, 20);

    assert_eq!(plain.history(), observed.history(), "round reports");
    assert_eq!(plain.hive().stats(), observed.hive().stats(), "HiveStats");
    assert_eq!(
        plain.hive().tree().digest(),
        observed.hive().tree().digest(),
        "tree digest"
    );
    assert_eq!(plain.hive().coverage(), observed.hive().coverage());

    // The observed run actually recorded: per-round telemetry, counters,
    // and one round_committed event per round.
    assert_eq!(observed.round_telemetry().len(), 4);
    assert_eq!(plain.round_telemetry().len(), 4);
    let report = obs.registry.as_ref().unwrap().snapshot();
    assert_eq!(report.counter("platform.rounds"), Some(4));
    let committed = obs
        .recorder
        .events()
        .iter()
        .filter(|e| e.kind == "round_committed")
        .count();
    assert_eq!(committed, 4, "one commit event per round");
}

#[test]
fn sim_transport_replays_to_identical_events_hash_and_jsonl() {
    let (rec_a, events_a, sched_a, digest_a) = sim_campaign(5, 15_000);
    let (rec_b, events_b, sched_b, digest_b) = sim_campaign(5, 15_000);
    assert_eq!(sched_a, sched_b, "sched_trace_hash must replay");
    assert_eq!(events_a, events_b, "events_hash must replay");
    assert_eq!(digest_a, digest_b, "hive digest must replay");
    // Timestamps are virtual instants, so the full JSONL export — msg
    // and timestamps included — replays byte-for-byte.
    assert_eq!(rec_a.export_jsonl(), rec_b.export_jsonl());
    assert!(!rec_a.events().is_empty(), "campaign recorded nothing");
}

#[test]
fn transport_run_restores_the_callers_recorder_clock() {
    let s = scenarios::record_processor();
    let traces = pod_traces(&s, 9 ^ 0xABCD, 36);
    let obs = live_obs();
    let cfg = faulty_config(9, 3, 15_000, obs.clone());
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(
        &mut hive,
        sessions_of(&traces, 3, 4),
        &IngestConfig::default(),
        &cfg,
        &[],
    )
    .expect("valid plan");
    let recorded = obs.recorder.events();
    assert!(
        recorded.iter().any(|e| e.at_ns > 0),
        "events are stamped on the world's virtual clock"
    );
    assert!(recorded
        .iter()
        .all(|e| e.at_ns <= report.sched.virtual_end_us * 1_000));
    let clock = obs.recorder.clock().expect("live recorder");
    assert_eq!(clock.now_ns(), 0, "the caller's manual clock is back");
}

#[test]
fn explainer_pinpoints_first_divergent_event_between_fault_plans() {
    // Same seed, same everything — except the server crash lands at
    // 15ms (inside the partition's quiet window) in run A and at 30ms
    // (mid-traffic, later restart) in run B. Up to 15ms the runs are
    // identical, so the first divergent event must sit at or after it.
    let (rec_a, events_a, _, _) = sim_campaign(5, 15_000);
    let (rec_b, events_b, _, _) = sim_campaign(5, 30_000);
    assert_ne!(events_a, events_b, "plans differ; hashes must too");
    let d = explain_recorders(&rec_a, &rec_b).expect("streams must diverge");
    assert!(
        d.at_ns() >= 15_000 * 1_000,
        "divergence {d} precedes the earlier crash instant"
    );
    assert!(
        d.source.starts_with("transport.") || d.source == "ingest",
        "unexpected divergence source: {d}"
    );
    assert!(d.common_prefix > 0, "some prefix should match: {d}");
}

/// A proc that appends to its journal and fsyncs every third write —
/// just enough I/O (with an unsynced tail most of the time) for the
/// world's own recorder to narrate crashes, restarts, fsyncs, and
/// scheduled disk faults, and for a shifted crash instant to lose a
/// *different* number of unsynced bytes.
struct Journaler {
    disk: DiskId,
    writes_left: u32,
    since_sync: u32,
}

impl Proc for Journaler {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        ctx.set_timer(1_000, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        if self.writes_left == 0 {
            return;
        }
        self.writes_left -= 1;
        ctx.disk_write(self.disk, &[0xAB; 32]);
        self.since_sync += 1;
        if self.since_sync >= 3 {
            self.since_sync = 0;
            ctx.disk_fsync(self.disk);
        }
        ctx.set_timer(1_000, 0);
    }
    fn on_restart(&mut self, ctx: &mut WorldCtx<'_>) {
        self.since_sync = 0;
        ctx.set_timer(1_000, 0);
    }
}

fn journal_world(seed: u64, crash_at_us: u64) -> (FlightRecorder, u64) {
    let mut world = World::new(SimConfig {
        seed,
        faults: FaultPlan {
            crashes: vec![Crash {
                node: Addr(0),
                at_us: crash_at_us,
                restart_us: crash_at_us + 20_000,
            }],
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    });
    let recorder = world.attach_recorder(1024);
    let owner = Addr(0);
    let disk = world.add_disk(owner, 500);
    world.add_proc(Box::new(Journaler {
        disk,
        writes_left: 80,
        since_sync: 0,
    }));
    world.schedule_disk_fault(
        SimTime(40_000),
        disk,
        DiskCrashPoint::TruncateWalTail { drop_bytes: 16 },
    );
    world.run();
    let hash = world.sched_stats().trace_hash;
    (recorder, hash)
}

#[test]
fn world_recorder_replays_and_narrates_fault_schedule() {
    let (rec_a, sched_a) = journal_world(7, 10_400);
    let (rec_b, sched_b) = journal_world(7, 10_400);
    assert_eq!(sched_a, sched_b);
    assert_eq!(rec_a.events_hash(), rec_b.events_hash());
    assert_eq!(rec_a.export_jsonl(), rec_b.export_jsonl());

    let events = rec_a.events();
    let crash = events
        .iter()
        .find(|e| e.kind == "crash")
        .expect("crash narrated");
    assert_eq!(crash.source.as_ref(), "sim.node.0");
    assert_eq!(crash.severity, Severity::Warn);
    assert_eq!(crash.at_ns, 10_400 * 1_000, "crash at its virtual instant");
    let fault = events
        .iter()
        .find(|e| e.kind == "disk_fault_truncate")
        .expect("disk fault narrated");
    assert_eq!(fault.at_ns, 40_000 * 1_000);
    assert!(events.iter().any(|e| e.kind == "fsync"));
    assert!(events.iter().any(|e| e.kind == "restart"));

    // Shift the crash two write intervals later: a different unsynced
    // tail is lost, and the explainer localizes the divergence to the
    // sim's own event stream at or after the earlier instant.
    let (rec_c, _) = journal_world(7, 12_400);
    let d = explain_recorders(&rec_a, &rec_c).expect("schedules differ");
    assert!(d.at_ns() >= 10_400 * 1_000, "{d}");
    assert!(d.source.starts_with("sim."), "{d}");
}
