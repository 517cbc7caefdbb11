//! Campaign rounds under the virtual-time world driver
//! ([`support::drive`]): a driven round must leave a platform in
//! *byte-identical* state to serial pod execution
//! ([`DrivenExecution::serial`]) and the threaded round on shared seeds,
//! replays must reproduce the `sched_trace_hash`, and the driven round
//! must actually exercise the blocking-point catalogue (bounded-channel
//! stalls, fsyncs, wakes) — for a `Platform` and for a `MultiPlatform`,
//! through the one driver. Every arm folds its frames through the one
//! ingest pipeline; ingest against the serial reference hive is
//! `softborg-hive`'s `ingest_equivalence`.

mod support;

use softborg::ingest::IngestConfig;
use softborg::pod::PodConfig;
use softborg::program::scenarios::{self, Scenario};
use softborg::{
    DrivenExecution, FleetSpec, IngestSettings, MultiPlatform, MultiPlatformConfig, Platform,
    PlatformConfig,
};
use support::{world_round, world_round_one, WorldRoundConfig};

fn config(workers: usize, batch: usize) -> PlatformConfig {
    PlatformConfig {
        n_pods: 6,
        seed: 42,
        ingest: IngestSettings {
            batch_size: batch,
            pipeline: IngestConfig {
                workers,
                ..IngestConfig::default()
            },
        },
        ..PlatformConfig::default()
    }
}

fn assert_same_platform(what: &str, a: &Platform<'_>, b: &Platform<'_>) {
    assert_eq!(a.history(), b.history(), "{what}: round reports diverged");
    assert_eq!(a.hive().stats(), b.hive().stats(), "{what}: HiveStats");
    assert_eq!(
        a.hive().tree().digest(),
        b.hive().tree().digest(),
        "{what}: tree digest"
    );
    assert_eq!(a.hive_state(), b.hive_state(), "{what}: hive state");
}

#[test]
fn world_round_matches_serial_and_pipelined_rounds() {
    let s = scenarios::token_parser();
    let mut serial = Platform::new(&s.program, config(1, 1));
    for _ in 0..3 {
        serial.round_driven(|pods, batch| DrivenExecution::serial(pods, 20, batch));
    }
    let mut piped = Platform::new(&s.program, config(2, 7));
    piped.run(3, 20);
    assert_same_platform("serial vs pipelined", &serial, &piped);

    // The driven platform uses the pipelined batch size (7) so the frame
    // layout matches; interleaving differs wildly, state must not.
    let mut driven = Platform::new(&s.program, config(2, 7));
    for _ in 0..3 {
        world_round_one(&mut driven, 20, &WorldRoundConfig::default());
    }
    assert_same_platform("serial vs world", &serial, &driven);
}

#[test]
fn world_round_replays_to_identical_hash_and_state() {
    let run = || {
        let s = scenarios::record_processor();
        let mut p = Platform::new(&s.program, config(2, 5));
        let (report, stats) = world_round_one(&mut p, 24, &WorldRoundConfig::default());
        (report, stats.sched.trace_hash, p.hive_state())
    };
    let (report_a, hash_a, state_a) = run();
    let (report_b, hash_b, state_b) = run();
    assert_eq!(report_a, report_b, "round report must replay identically");
    assert_eq!(hash_a, hash_b, "sched_trace_hash must replay identically");
    assert_eq!(state_a, state_b);
}

#[test]
fn world_round_exercises_every_blocking_point() {
    let s = scenarios::triangle();
    let mut p = Platform::new(&s.program, config(2, 3));
    // All pods start at the same instant and share a 1-slot channel:
    // sends MUST block, the collector MUST drain under wakes, and the
    // journal disk MUST fsync — while the hive state stays identical to
    // an unconstrained round.
    let tight = WorldRoundConfig {
        start_spread_us: 0,
        chan_capacity: 1,
        fsync_interval_frames: 1,
        ..WorldRoundConfig::default()
    };
    let (report, stats) = world_round_one(&mut p, 18, &tight);
    assert!(stats.io.chan_full > 0, "no send ever blocked: {stats:?}");
    assert!(stats.io.wakes > 0, "no proc was ever woken: {stats:?}");
    assert!(stats.io.fsyncs > 0, "journal never fsynced: {stats:?}");
    assert!(stats.io.disk_bytes_written > 0);
    // `chan_sends` counts successful pushes only (blocked sends park
    // and retry), so everything sent is eventually drained.
    assert_eq!(stats.io.chan_recvs, stats.io.chan_sends);

    let mut roomy_p = Platform::new(&s.program, config(2, 3));
    let (roomy_report, roomy_stats) =
        world_round_one(&mut roomy_p, 18, &WorldRoundConfig::default());
    assert_eq!(roomy_stats.io.chan_full, 0, "capacity 8 never fills here");
    assert_eq!(report, roomy_report, "backpressure must not change state");
    assert_same_platform("tight vs roomy", &p, &roomy_p);
}

fn fleet_scenarios() -> Vec<Scenario> {
    vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::record_processor(),
        scenarios::bank_transfer(),
    ]
}

fn specs(scs: &[Scenario]) -> Vec<FleetSpec<'_>> {
    scs.iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
        })
        .collect()
}

fn multi_config() -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: 4,
        n_shards: 3,
        seed: 23,
        ..MultiPlatformConfig::default()
    }
}

#[test]
fn world_round_matches_threaded_multi_platform() {
    let scs = fleet_scenarios();

    let mut threaded = MultiPlatform::new(&specs(&scs), multi_config());
    threaded.run(3, 8);

    let mut driven = MultiPlatform::new(&specs(&scs), multi_config());
    for _ in 0..3 {
        world_round(&mut driven, 8, &WorldRoundConfig::default());
    }

    assert_eq!(
        threaded.history(),
        driven.history(),
        "round reports diverged"
    );
    for shard in 0..3 {
        assert_eq!(
            threaded.shard_state(shard),
            driven.shard_state(shard),
            "shard {shard} state bytes diverged"
        );
    }
}

#[test]
fn multi_world_round_replays_to_identical_hash() {
    let scs = fleet_scenarios();
    let run = |scs: &[Scenario]| {
        let mut p = MultiPlatform::new(&specs(scs), multi_config());
        let (report, stats) = world_round(&mut p, 6, &WorldRoundConfig::default());
        let states: Vec<Vec<u8>> = (0..3).map(|i| p.shard_state(i)).collect();
        (report, stats.sched.trace_hash, states)
    };
    let (report_a, hash_a, states_a) = run(&scs);
    let (report_b, hash_b, states_b) = run(&scs);
    assert_eq!(report_a, report_b);
    assert_eq!(hash_a, hash_b, "multi sched_trace_hash must replay");
    assert_eq!(states_a, states_b);
}
