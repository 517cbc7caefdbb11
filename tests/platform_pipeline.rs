//! The platform's round (each pod one unit of the ingest engine, run
//! and prepared by its participants) must produce exactly the same round
//! reports and hive state as serial *pod execution*
//! (`DrivenExecution::serial` fed to `round_driven`, whose frames go
//! through the same engine). Ingest itself is checked against the
//! serial reference hive in `softborg-hive`'s `ingest_equivalence`.

use softborg::{DrivenExecution, IngestSettings, Platform, PlatformConfig};
use softborg_ingest::IngestConfig;
use softborg_program::scenarios;

fn config(workers: usize, batch: usize) -> PlatformConfig {
    PlatformConfig {
        n_pods: 8,
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

#[test]
fn pipelined_rounds_match_serial_rounds_exactly() {
    let s = scenarios::token_parser();
    let mut serial = Platform::new(&s.program, config(1, 1));
    for _ in 0..3 {
        serial.round_driven(|pods, batch| DrivenExecution::serial(pods, 20, batch));
    }

    for (workers, batch) in [(1, 1), (2, 7), (3, 7), (4, 32)] {
        let mut piped = Platform::new(&s.program, config(workers, batch));
        piped.run(3, 20);
        assert_eq!(
            serial.history(),
            piped.history(),
            "round reports diverged at workers={workers} batch={batch}"
        );
        assert_eq!(serial.hive().stats(), piped.hive().stats());
        assert_eq!(serial.hive().tree().digest(), piped.hive().tree().digest());
        assert_eq!(serial.hive().coverage(), piped.hive().coverage());
    }
}

#[test]
fn pipelined_round_reports_ingest_statistics() {
    let s = scenarios::record_processor();
    let mut p = Platform::new(&s.program, config(2, 8));
    assert!(p.last_ingest().is_none());
    p.round(16);
    let stats = p.last_ingest().expect("pipelined round records stats");
    assert_eq!(stats.traces_merged, 8 * 16);
    assert_eq!(stats.frames_corrupt, 0);
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.frames_merged, 8 * 2); // ceil(16/8) frames per pod
    assert_eq!(stats.frames_merged, stats.frames_submitted);
    assert!(stats.wall_ns > 0);
}

#[test]
fn a_one_worker_round_loses_nothing() {
    let s = scenarios::token_parser();
    let mut p = Platform::new(&s.program, config(1, 4));
    let report = p.round(25);
    assert_eq!(report.executions, 8 * 25);
    let stats = p.last_ingest().expect("stats recorded");
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.frames_merged, stats.frames_submitted);
    assert_eq!(stats.frames_merged, 8 * 7); // ceil(25/4) frames per pod
    assert_eq!(stats.traces_merged, 8 * 25);
    assert_eq!(p.hive().stats().traces, report.executions);
}
