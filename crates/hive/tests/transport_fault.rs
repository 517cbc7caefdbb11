//! The reliable transport's end-to-end guarantee: for any fault plan —
//! loss, duplication, reordering, partitions, a hive crash + recovery
//! mid-stream — the hive fed over the network converges to *exactly* the
//! state of a fault-free serial ingest of the same traces, and a hive
//! rebuilt from the write-ahead journal ([`Hive::recover`]) matches both.

mod common;

use common::{assert_same_state, pod_traces, scenario, serial_hive, sessions_of};
use proptest::prelude::*;
use softborg_hive::transport::{run_reliable_ingest, TransportConfig};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_netsim::{Addr, Crash, FaultPlan, LinkConfig, Partition};

#[test]
fn lossless_transport_equals_serial_ingest() {
    let s = scenario(0);
    let traces = pod_traces(&s, 42, 30);
    let reference = serial_hive(&s, &traces);

    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let (report, stats) = run_reliable_ingest(
        &mut hive,
        sessions_of(&traces, 3, 4),
        &IngestConfig::default(),
        &TransportConfig {
            // Zero jitter: a genuinely in-order network, so any
            // retransmission would be a protocol bug.
            link: LinkConfig {
                jitter_us: 0,
                ..LinkConfig::default()
            },
            ..TransportConfig::default()
        },
        &[],
    )
    .expect("valid default plan");
    assert!(report.completed, "fault-free run must complete: {report:?}");
    assert_eq!(report.retransmits, 0, "no loss → no retransmits");
    assert_eq!(report.shed, 0);
    assert_eq!(stats.traces_merged, 30);
    assert_same_state("transport vs serial", &reference, &hive);
}

#[test]
fn crash_mid_stream_recovers_from_journal() {
    let s = scenario(2);
    let traces = pod_traces(&s, 7, 48);
    let reference = serial_hive(&s, &traces);
    let pods = 4;
    let cfg = TransportConfig {
        seed: 9,
        faults: FaultPlan {
            crashes: vec![Crash {
                node: Addr(pods as u32), // the hive server
                at_us: 12_000,
                restart_us: 40_000,
            }],
            ..FaultPlan::default()
        },
        ..TransportConfig::default()
    };
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(
        &mut hive,
        sessions_of(&traces, pods, 3),
        &IngestConfig::default(),
        &cfg,
        &[],
    )
    .expect("valid plan");
    assert!(
        report.completed,
        "must complete through the crash: {report:?}"
    );
    assert_eq!(report.recoveries, 1);
    assert_same_state("crashed transport vs serial", &reference, &hive);

    // The journal alone rebuilds the same hive.
    let (recovered, rec) = Hive::recover(
        &s.program,
        HiveConfig::default(),
        &IngestConfig::default(),
        &report.journal,
    );
    assert_eq!(rec.frames_replayed, report.acked - report.tombstones);
    assert!(!rec.tail_damaged, "synced journal has no damaged tail");
    assert_same_state("recovered vs live", &hive, &recovered);
}

#[test]
fn backpressure_sheds_lowest_priority_first_and_journals_tombstones() {
    let s = scenario(1);
    let traces = pod_traces(&s, 3, 40);
    // One high-priority frame per session; the rest are priority 0 and
    // fair game for shedding under a starved server.
    let mut pods = sessions_of(&traces, 2, 2);
    for frames in &mut pods {
        for (p, _) in frames.iter_mut().skip(1) {
            *p = 0;
        }
    }
    let cfg = TransportConfig {
        seed: 4,
        busy_budget: 1,           // server pushes back almost immediately
        sync_interval_us: 40_000, // slow fsync → long pressure windows
        ack_timeout_us: 2_000,
        shed_budget: 2,
        ..TransportConfig::default()
    };
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(&mut hive, pods, &IngestConfig::default(), &cfg, &[])
        .expect("valid plan");
    assert!(
        report.completed,
        "shedding must not stall the stream: {report:?}"
    );
    assert!(
        report.busy_nacks > 0,
        "server never pushed back: {report:?}"
    );
    assert!(report.shed > 0, "no frames shed under pressure: {report:?}");
    assert_eq!(
        report.tombstones, report.shed,
        "every shed frame must be journaled as a tombstone"
    );
    // Whatever survived, the journal replay agrees with the live hive.
    let (recovered, _) = Hive::recover(
        &s.program,
        HiveConfig::default(),
        &IngestConfig::default(),
        &report.journal,
    );
    assert_same_state("recovered vs live (shed run)", &hive, &recovered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: any composition of loss, duplication,
    /// reordering, a healing partition, and a mid-stream server crash
    /// still converges to the fault-free serial state — and the journal
    /// replay rebuilds it identically.
    #[test]
    fn any_fault_plan_converges_to_serial_state(
        scenario_idx in 0usize..4,
        seed in 0u64..500,
        n in 4usize..36,
        pods in 1usize..4,
        batch in 1usize..5,
        loss in 0u32..=200,
        dup in 0u32..=200,
        reorder in 0u32..=300,
        // Sentinel encodings (the vendored proptest has no option
        // strategy): partition_pod 3 = no partition; crash_at below
        // 5_000 = no crash.
        partition_pod in 0usize..4,
        crash_at in 0u64..60_000,
    ) {
        let s = scenario(scenario_idx);
        let traces = pod_traces(&s, seed, n);
        let reference = serial_hive(&s, &traces);
        let server = Addr(pods as u32);
        let mut faults = FaultPlan {
            dup_per_mille: dup,
            reorder_per_mille: reorder,
            reorder_window_us: if reorder > 0 { 20_000 } else { 0 },
            ..FaultPlan::default()
        };
        if partition_pod < 3 {
            faults.partitions.push(Partition {
                a: Addr((partition_pod % pods) as u32),
                b: server,
                from_us: 2_000,
                until_us: 30_000, // heals; retransmits resume after
            });
        }
        if crash_at >= 5_000 {
            faults.crashes.push(Crash {
                node: server,
                at_us: crash_at,
                restart_us: crash_at + 15_000,
            });
        }
        let cfg = TransportConfig {
            seed: seed ^ 0x5EED,
            link: LinkConfig {
                loss_per_mille: loss,
                ..LinkConfig::default()
            },
            faults,
            ack_timeout_us: 8_000,
            ..TransportConfig::default()
        };
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let (report, stats) = run_reliable_ingest(
            &mut hive,
            sessions_of(&traces, pods, batch),
            &IngestConfig::default(),
            &cfg,
            &[],
        ).expect("generated plans are valid");

        prop_assert!(report.completed, "stream did not complete: {report:?}");
        prop_assert_eq!(report.shed, 0, "budget disabled, nothing may shed");
        prop_assert_eq!(stats.traces_merged, n as u64);
        prop_assert_eq!(stats.frames_corrupt, 0);
        // Zero lost accepted frames: everything acked is in the journal,
        // and every frame was eventually accepted exactly once.
        prop_assert_eq!(report.acked, report.delivered + report.tombstones);
        assert_same_state("faulty transport vs serial", &reference, &hive);

        let (recovered, rec) = Hive::recover(
            &s.program,
            HiveConfig::default(),
            &IngestConfig::default(),
            &report.journal,
        );
        prop_assert_eq!(rec.frames_replayed, report.delivered);
        assert_same_state("journal replay vs serial", &reference, &recovered);
    }
}
