//! Every production fold of frames into a hive — a live round, a driven
//! round, a resume's journal replay — goes through the one ingest
//! pipeline, and a fold that cannot merge every frame into its lane's
//! hive is refused rather than applied:
//!
//! * a resume refuses a checksummed journal frame whose content is not
//!   its lane's program, or is not a wire frame at all;
//! * a resume or scrub refuses a campaign directory holding another
//!   shard count than its config, before touching it;
//! * `round_driven` panics on a driver's seq gap, duplicate seq, corrupt
//!   frame or frame of another lane's program — driver bugs, not input
//!   conditions.

mod campaign;

use campaign::{campaign_dir, shard_dir, Kind, Setup};
use softborg::hive::journal::{self, JournalRecord, REC_FRAME};
use softborg::ingest::IngestStats;
use softborg::program::scenarios;
use softborg::{
    DrivenExecution, DurabilityConfig, DurabilityError, MultiDrivenExecution, MultiPlatform,
    MultiPlatformConfig, Platform,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A 2-program, 1-shard durable campaign that never compacts, so every
/// round stays in `shard-0/hive.wal`.
fn two_lane_campaign(dir: &Path) -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: 3,
        n_shards: 1,
        seed: 5,
        durability: Some(DurabilityConfig {
            compact_ratio: 0,
            ..DurabilityConfig::new(dir)
        }),
        ..MultiPlatformConfig::default()
    }
}

/// Where lane `lane`'s first frame record sits in `records`.
fn first_frame(records: &[JournalRecord], lane: u64) -> usize {
    (records.iter())
        .position(|r| r.kind == REC_FRAME && r.session == lane)
        .expect("every lane journaled a frame")
}

/// Rewrites `shard-0/hive.wal` record by record after `edit`, every
/// record checksummed afresh.
fn rewrite_journal(dir: &Path, edit: impl FnOnce(&mut [JournalRecord])) {
    let wal = shard_dir(dir, 0).join("hive.wal");
    let bytes = std::fs::read(&wal).unwrap();
    let (mut records, scan) = journal::scan(&bytes);
    assert!(
        scan.tail_error.is_none(),
        "a clean drop leaves a clean journal"
    );
    edit(&mut records);
    let mut out = Vec::new();
    for r in &records {
        journal::append_record(&mut out, r.kind, r.session, r.seq, r.frame);
    }
    std::fs::write(&wal, out).unwrap();
}

/// Runs the campaign two rounds, edits its journal, and returns the
/// resume's refusal.
fn resume_after_edit(tag: &str, edit: impl FnOnce(&mut [JournalRecord])) -> DurabilityError {
    let scs = [scenarios::token_parser(), scenarios::triangle()];
    let dir = campaign_dir(Kind::Fleet, tag);
    let cfg = two_lane_campaign(&dir);
    MultiPlatform::new(&Kind::specs(&scs), cfg.clone()).run(2, 8);
    // Control: rewriting the journal unedited reproduces its bytes, and
    // it resumes.
    let wal = shard_dir(&dir, 0).join("hive.wal");
    let before = std::fs::read(&wal).unwrap();
    rewrite_journal(&dir, |_| {});
    assert_eq!(std::fs::read(&wal).unwrap(), before);
    let (resumed, _) =
        MultiPlatform::resume(&Kind::specs(&scs), cfg.clone()).expect("control resume");
    assert_eq!(resumed.committed_rounds(), 2);
    drop(resumed);

    rewrite_journal(&dir, edit);
    let err = MultiPlatform::resume(&Kind::specs(&scs), cfg)
        .map(|(p, _)| p.committed_rounds())
        .expect_err("a frame its lane's hive cannot merge must not resume");
    let _ = std::fs::remove_dir_all(&dir);
    err
}

#[test]
fn resume_refuses_a_journaled_frame_of_another_lanes_program() {
    let err = resume_after_edit("reroute", |records| {
        let (a, b) = (first_frame(records, 0), first_frame(records, 1));
        records[a].frame = records[b].frame;
    });
    match err {
        DurabilityError::Corrupt(msg) => {
            assert!(msg.contains(" 1 of another lane's program"), "{msg}")
        }
        e => panic!("wrong error: {e}"),
    }
}

#[test]
fn resume_refuses_a_journaled_frame_of_garbage_wire_bytes() {
    let err = resume_after_edit("garbage", |records| {
        let a = first_frame(records, 0);
        records[a].frame = &[0xAB; 48];
    });
    match err {
        DurabilityError::Corrupt(msg) => assert!(msg.contains(" 1 corrupt"), "{msg}"),
        e => panic!("wrong error: {e}"),
    }
}

/// One `Platform::round_driven` round through the serial executor (8
/// pods, one frame each), its frames bent by `bend` before the platform
/// folds them. Returns the recorded run, the round's executions and the
/// traces the hive holds.
fn driven_round(bend: impl FnOnce(&mut Vec<(u64, u64, Vec<u8>)>)) -> (IngestStats, u64, u64) {
    let scs = Kind::One.scenarios();
    let cfg = Kind::one_config(&scs[0], &Setup::default());
    let mut p = Platform::new(&scs[0].program, cfg);
    let report = p.round_driven(|pods, batch| {
        let mut drv = DrivenExecution::serial(pods, 8, batch);
        bend(&mut drv.frames);
        drv
    });
    let run = p.last_ingest().expect("a driven round records its run");
    (run.clone(), report.executions, p.hive().stats().traces)
}

#[test]
fn driven_rounds_record_their_pipeline_run() {
    let (run, executions, traces) = driven_round(|_| {});
    assert_eq!((run.frames_merged, run.traces_merged), (8, executions));
    assert_eq!(traces, executions);
}

#[test]
#[should_panic(expected = "driver bug")]
fn round_driven_panics_on_a_seq_gap() {
    driven_round(|frames| frames.last_mut().expect("frames").1 += 1);
}

#[test]
#[should_panic(expected = "driver bug")]
fn round_driven_panics_on_a_duplicate_seq() {
    driven_round(|frames| frames[1].1 = frames[0].1);
}

#[test]
#[should_panic(expected = "driver bug")]
fn round_driven_panics_on_a_corrupt_frame() {
    driven_round(|frames| {
        let f = &mut frames[0].2;
        let mid = f.len() / 2;
        f[mid] ^= 0xA5;
    });
}

#[test]
#[should_panic(expected = "driver bug")]
fn round_driven_panics_on_a_frame_of_another_lanes_program() {
    let scs = Kind::Fleet.scenarios();
    let mut p = MultiPlatform::new(&Kind::specs(&scs), Kind::fleet_config(&Setup::default()));
    p.round_driven(|lanes, batch| {
        let mut out = MultiDrivenExecution::default();
        for lane in lanes {
            let drv = DrivenExecution::serial(lane.pods, 4, batch);
            out.per_lane
                .push((drv.executions, drv.failures, drv.directed));
            let frames = drv.frames.into_iter().map(|(_, s, f)| (lane.lane, s, f));
            out.frames.extend(frames);
        }
        // Lanes 0 and 1 swap their first frames: each is healthy, but
        // claimed in the other program's lane.
        let first_of = |lane| out.frames.iter().position(|f| f.0 == lane).unwrap();
        let (a, b) = (first_of(0), first_of(1));
        let tmp = std::mem::take(&mut out.frames[a].2);
        out.frames[a].2 = std::mem::replace(&mut out.frames[b].2, tmp);
        out
    });
}

/// Every directory and file under `dir` with its bytes, by path.
fn dir_image(dir: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut image = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                image.insert(path.clone(), None);
                stack.push(path);
            } else {
                image.insert(path.clone(), Some(std::fs::read(&path).unwrap()));
            }
        }
    }
    image
}

/// Asserts `open` is refused as a shard-count mismatch naming both
/// counts, and leaves `dir` byte-for-byte as it found it.
fn refused_untouched<T: std::fmt::Debug>(
    dir: &Path,
    (on_disk, asked): (usize, usize),
    open: impl FnOnce() -> Result<T, DurabilityError>,
) {
    let before = dir_image(dir);
    match open() {
        Err(DurabilityError::Corrupt(msg)) => assert!(
            msg.contains(&format!("{on_disk} shard(s) on disk"))
                && msg.contains(&format!("the config {asked}")),
            "{msg}"
        ),
        other => panic!("{on_disk} → {asked} shards was not refused: {other:?}"),
    }
    assert!(
        dir_image(dir) == before,
        "the refusal touched the directory"
    );
}

#[test]
fn a_multi_campaign_resumed_with_another_shard_count_is_refused_untouched() {
    let scs = Kind::Fleet.scenarios();
    let dir = campaign_dir(Kind::Fleet, "shard-count");
    let cfg = Kind::fleet_config(&Setup::durable(DurabilityConfig::new(&dir)));
    MultiPlatform::new(&Kind::specs(&scs), cfg.clone()).run(2, 4);
    for n_shards in [3, 1] {
        let cfg = MultiPlatformConfig {
            n_shards,
            ..cfg.clone()
        };
        refused_untouched(&dir, (2, n_shards), || {
            MultiPlatform::resume(&Kind::specs(&scs), cfg.clone())
                .map(|(p, _)| p.committed_rounds())
        });
        refused_untouched(&dir, (2, n_shards), || MultiPlatform::scrub(&cfg));
    }
    let (resumed, _) = MultiPlatform::resume(&Kind::specs(&scs), cfg).expect("2 → 2 resumes");
    assert_eq!(resumed.committed_rounds(), 2);
    drop(resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_platform_campaign_resumed_with_another_shard_count_is_refused_untouched() {
    let scs = Kind::One.scenarios();
    let setup = |dir: &Path| Setup::durable(DurabilityConfig::new(dir));
    let one_fleet = |n_shards, dir: &Path| MultiPlatformConfig {
        n_shards,
        ..Kind::fleet_config(&setup(dir))
    };

    // 2 → 1: a one-program campaign kept on two shards, resumed as a
    // `Platform`.
    let dir = campaign_dir(Kind::One, "shard-count-2-1");
    MultiPlatform::new(&Kind::specs(&scs), one_fleet(2, &dir)).run(2, 4);
    let platform = Kind::one_config(&scs[0], &setup(&dir));
    refused_untouched(&dir, (2, 1), || {
        Platform::resume(&scs[0].program, platform.clone()).map(|(p, _)| p.committed_rounds())
    });
    refused_untouched(&dir, (2, 1), || Platform::scrub(&platform));
    let _ = std::fs::remove_dir_all(&dir);

    // 1 → 3: a `Platform` campaign resumed on three shards.
    let dir = campaign_dir(Kind::One, "shard-count-1-3");
    Platform::new(&scs[0].program, Kind::one_config(&scs[0], &setup(&dir))).run(2, 4);
    refused_untouched(&dir, (1, 3), || {
        MultiPlatform::resume(&Kind::specs(&scs), one_fleet(3, &dir))
            .map(|(p, _)| p.committed_rounds())
    });
    let _ = std::fs::remove_dir_all(&dir);

    // A shard directory holding no campaign data (a creation cut short)
    // is not a campaign: it still cold-starts.
    let dir = campaign_dir(Kind::One, "shard-count-empty");
    std::fs::create_dir_all(shard_dir(&dir, 0)).unwrap();
    std::fs::write(shard_dir(&dir, 0).join("hive.wal"), []).unwrap();
    let (cold, _) =
        MultiPlatform::resume(&Kind::specs(&scs), one_fleet(2, &dir)).expect("cold start");
    assert_eq!(cold.committed_rounds(), 0);
    drop(cold);
    let _ = std::fs::remove_dir_all(&dir);
}
