//! Crash-only durability: a durable campaign killed at any round
//! boundary and resumed must recover **process-equivalent** — hive
//! state, pod populations (RNG streams, repair-lab corpora, queued
//! directives), history, and round telemetry all byte-identical to an
//! uninterrupted run at the same committed round — through journal
//! replay alone, through delta-chain checkpoints, and through checkpoint
//! corruption with lineage fallback.

use softborg::hive::journal::{self, REC_FRAME};
use softborg::hive::HiveSnapshot;
use softborg::obs::{FlightRecorder, ManualClock, MetricsRegistry, ObsHandles};
use softborg::pod::PodState;
use softborg::store::chain::decode_record;
use softborg::store::ChainSource;
use softborg::{
    DrivenExecution, DurabilityConfig, DurabilityError, FleetSpec, IngestSettings, MultiPlatform,
    MultiPlatformConfig, Platform, PlatformConfig, RoundReport,
};
use softborg_ingest::IngestConfig;
use softborg_program::scenarios;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ROUNDS: u64 = 5;
const EXECS: u32 = 12;

/// A fresh, empty campaign directory unique to this test + process.
fn campaign_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("softborg-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(durability: Option<DurabilityConfig>) -> PlatformConfig {
    let s = scenarios::token_parser();
    PlatformConfig {
        n_pods: 8,
        pod: softborg::pod::PodConfig {
            input_range: s.input_range,
            ..softborg::pod::PodConfig::default()
        },
        seed: 17,
        durability,
        ..PlatformConfig::default()
    }
}

/// Aggressive compaction so short campaigns exercise the checkpoint path.
fn compacting(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 2,
        min_compact_wal_bytes: 1024,
        ..DurabilityConfig::new(dir)
    }
}

/// Hive states of an uninterrupted durable run, indexed by committed
/// round count (`states[0]` = fresh hive, `states[k]` = after round k).
fn reference_states(dcfg: DurabilityConfig) -> Vec<Vec<u8>> {
    let s = scenarios::token_parser();
    let mut p = Platform::new(&s.program, config(Some(dcfg)));
    let mut states = vec![p.hive_state()];
    for _ in 0..ROUNDS {
        p.round(EXECS);
        states.push(p.hive_state());
    }
    states
}

/// Handles recording into a manual-clock flight recorder. The events
/// hash covers kinds, fields, and per-source sequence numbers — never
/// wall time — so two equivalent runs must hash identically.
fn recording() -> (ObsHandles, FlightRecorder) {
    let rec = FlightRecorder::new(Arc::new(ManualClock::new(0)), 4096);
    (ObsHandles::new(MetricsRegistry::new(), rec.clone()), rec)
}

/// The content of every `round_committed` event a recorder retained,
/// in order. `seq` is process-local (a resumed process restarts it for
/// the suffix it records), so only the field vectors are compared.
fn committed_fields(rec: &FlightRecorder) -> Vec<Vec<(&'static str, u64)>> {
    rec.events()
        .into_iter()
        .filter(|e| e.kind == "round_committed")
        .map(|e| e.fields)
        .collect()
}

/// Everything an uninterrupted durable run produces, indexed by
/// committed round count where applicable: hive states, full pod
/// populations, history, and per-round commit telemetry.
struct Reference {
    states: Vec<Vec<u8>>,
    pods: Vec<Vec<PodState>>,
    history: Vec<RoundReport>,
    round_events: Vec<Vec<(&'static str, u64)>>,
}

fn full_reference(dcfg: DurabilityConfig) -> Reference {
    let s = scenarios::token_parser();
    let (obs, rec) = recording();
    let mut p = Platform::new(
        &s.program,
        PlatformConfig {
            obs,
            ..config(Some(dcfg))
        },
    );
    let mut states = vec![p.hive_state()];
    let mut pods = vec![p.export_pod_states()];
    for _ in 0..ROUNDS {
        p.round(EXECS);
        states.push(p.hive_state());
        pods.push(p.export_pod_states());
    }
    Reference {
        states,
        pods,
        history: p.history().to_vec(),
        round_events: committed_fields(&rec),
    }
}

#[test]
fn durable_rounds_match_in_memory_rounds_exactly() {
    let s = scenarios::token_parser();
    let mut plain = Platform::new(&s.program, config(None));
    plain.run(ROUNDS as u32, EXECS);
    let dir = campaign_dir("vs-plain");
    let mut durable = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir))));
    durable.run(ROUNDS as u32, EXECS);
    assert_eq!(plain.history(), durable.history());
    assert_eq!(plain.hive_state(), durable.hive_state());
}

#[test]
fn kill_at_every_round_boundary_recovers_byte_identical_state() {
    let s = scenarios::token_parser();
    let reference = reference_states(DurabilityConfig::new(campaign_dir("boundary-ref")));
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("boundary-{k}"));
        {
            let mut p = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir.clone()))));
            p.run(k as u32, EXECS);
        } // drop = kill: nothing beyond the synced journal survives
        let (resumed, report) =
            Platform::resume(&s.program, config(Some(DurabilityConfig::new(dir)))).unwrap();
        assert_eq!(resumed.committed_rounds(), k, "lost rounds at kill {k}");
        assert_eq!(report.rounds_from_snapshot + report.rounds_replayed, k);
        assert_eq!(report.fenced_records, 0);
        assert_eq!(report.disconnected_records, 0);
        assert_eq!(
            resumed.hive_state(),
            reference[k as usize],
            "recovered hive diverged from uninterrupted run at round {k}"
        );
        assert_eq!(resumed.history().len(), k as usize);
        // The campaign keeps going after recovery.
        let mut resumed = resumed;
        let r = resumed.round(EXECS);
        assert_eq!(r.executions, 8 * u64::from(EXECS));
        assert_eq!(resumed.committed_rounds(), k + 1);
    }
}

#[test]
fn kill_at_every_round_boundary_restores_every_pod_mid_stream() {
    let s = scenarios::token_parser();
    let r = full_reference(DurabilityConfig::new(campaign_dir("pods-ref")));
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("pods-{k}"));
        {
            let mut p = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir.clone()))));
            p.run(k as u32, EXECS);
        } // drop = kill
        let (resumed, _) =
            Platform::resume(&s.program, config(Some(DurabilityConfig::new(dir)))).unwrap();
        assert_eq!(
            resumed.export_pod_states(),
            r.pods[k as usize],
            "pod population diverged from the uninterrupted run at round {k}"
        );
        // The restored pods carry their RNG positions, corpora, and
        // queued directives, so the *continuation* is byte-identical
        // too: every future draw replays the uninterrupted stream.
        let mut resumed = resumed;
        resumed.run((ROUNDS - k) as u32, EXECS);
        assert_eq!(
            resumed.history(),
            &r.history[..],
            "continued history diverged after resume at round {k}"
        );
        assert_eq!(resumed.hive_state(), r.states[ROUNDS as usize]);
        assert_eq!(resumed.export_pod_states(), r.pods[ROUNDS as usize]);
    }
}

#[test]
fn resumed_telemetry_matches_the_uninterrupted_run() {
    let s = scenarios::token_parser();
    let r = full_reference(DurabilityConfig::new(campaign_dir("telemetry-ref")));
    let kill = 2u64;
    let run_killed = |tag: &str| {
        let dir = campaign_dir(tag);
        let mut p = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir.clone()))));
        p.run(kill as u32, EXECS);
        dir
    };
    let resume_and_finish = |dir: PathBuf| {
        let (obs, rec) = recording();
        let (mut p, _) = Platform::resume(
            &s.program,
            PlatformConfig {
                obs,
                ..config(Some(DurabilityConfig::new(dir)))
            },
        )
        .unwrap();
        p.run((ROUNDS - kill) as u32, EXECS);
        (p.hive_state(), rec)
    };
    let (state_a, rec_a) = resume_and_finish(run_killed("telemetry-a"));
    let (state_b, rec_b) = resume_and_finish(run_killed("telemetry-b"));
    // Two independently resumed processes replay identical telemetry,
    // down to the events hash, and converge on the same state.
    assert!(!rec_a.events().is_empty(), "resumed run recorded nothing");
    assert_eq!(rec_a.events_hash(), rec_b.events_hash());
    assert_eq!(state_a, state_b);
    assert_eq!(state_a, r.states[ROUNDS as usize]);
    // And the suffix each records is, event for event, exactly what
    // the uninterrupted run recorded for the same rounds.
    assert_eq!(
        committed_fields(&rec_a),
        r.round_events[kill as usize..].to_vec()
    );
}

/// Chain record files under `dir/chain`, sorted by name (= generation).
fn chain_records(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("chain"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "full" || x == "delta"))
        .collect();
    files.sort();
    files
}

/// Payload bytes of the newest full chain record (0 on a cold chain):
/// what the compaction rule weighs the journal against.
fn newest_full_payload(dir: &Path) -> u64 {
    chain_records(dir)
        .iter()
        .rev()
        .find(|p| p.extension().is_some_and(|x| x == "full"))
        .map_or(0, |p| {
            let bytes = std::fs::read(p).unwrap();
            decode_record(&bytes).unwrap().payload.len() as u64
        })
}

#[test]
fn compaction_bounds_the_journal_and_resume_stays_byte_identical() {
    let s = scenarios::token_parser();
    let reference = reference_states(compacting(campaign_dir("compact-ref")));
    let dir = campaign_dir("compact");
    {
        let mut p = Platform::new(&s.program, config(Some(compacting(dir.clone()))));
        for _ in 0..ROUNDS {
            p.round(EXECS);
            // The rule: a commit leaves the journal below `compact_ratio`
            // times what the newest full checkpoint wrote (and the floor).
            let wal = p.wal_len().unwrap();
            let bound = (2 * newest_full_payload(&dir)).max(1024);
            assert!(wal < bound, "journal unbounded: {wal} >= {bound}");
        }
    }
    assert!(
        newest_full_payload(&dir) > 0,
        "compaction never wrote a checkpoint"
    );
    let (resumed, report) = Platform::resume(&s.program, config(Some(compacting(dir)))).unwrap();
    assert_eq!(report.chain.source, ChainSource::Primary);
    assert!(
        report.rounds_from_snapshot > 0,
        "resume ignored the checkpoint"
    );
    assert_eq!(resumed.committed_rounds(), ROUNDS);
    assert_eq!(resumed.hive_state(), reference[ROUNDS as usize]);
}

#[test]
fn corrupt_primary_snapshot_falls_back_to_a_consistent_generation() {
    let s = scenarios::token_parser();
    let reference = reference_states(eager(campaign_dir("fallback-ref")));
    let dir = campaign_dir("fallback");
    {
        let mut p = Platform::new(&s.program, config(Some(eager(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
    }
    let records = chain_records(&dir);
    assert!(
        records.len() >= 2,
        "campaign too short to write two checkpoint generations"
    );
    // Media corruption of the newest checkpoint, after it committed.
    let head = records.last().unwrap();
    let mut bytes = std::fs::read(head).unwrap();
    let head_gen = decode_record(&bytes).unwrap().generation;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(head, bytes).unwrap();

    let (resumed, report) = Platform::resume(&s.program, config(Some(eager(dir)))).unwrap();
    assert!(!report.chain.is_clean(), "the rotten head went unreported");
    assert!(report.chain.head_generation < Some(head_gen));
    // The journal suffix belongs to rounds after the (destroyed) newest
    // checkpoint; recovery must discard it rather than merge it out of
    // order onto the older generation.
    assert!(report.disconnected_records > 0 || report.rounds_replayed == 0);
    let k = resumed.committed_rounds();
    assert!(k > 0 && k <= ROUNDS);
    assert_eq!(
        resumed.hive_state(),
        reference[k as usize],
        "fallback produced a state no uninterrupted run ever had (round {k})"
    );
}

#[test]
fn uncommitted_partial_round_is_fenced_and_corrupt_tail_is_dropped() {
    let s = scenarios::token_parser();
    let reference = reference_states(DurabilityConfig::new(campaign_dir("fence-ref")));
    let dir = campaign_dir("fence");
    {
        let mut p = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir.clone()))));
        p.run(2, EXECS);
    }
    // A crash mid-round leaves intact-but-uncommitted frame records
    // (no closing round record), then a torn half-written record.
    let wal = dir.join("hive.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    let mut partial = Vec::new();
    journal::append_record(&mut partial, REC_FRAME, 3, 99, b"uncommitted frame");
    journal::append_record(&mut partial, REC_FRAME, 4, 99, b"another one");
    bytes.extend_from_slice(&partial);
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]); // torn append
    std::fs::write(&wal, bytes).unwrap();

    let (resumed, report) =
        Platform::resume(&s.program, config(Some(DurabilityConfig::new(dir.clone())))).unwrap();
    assert_eq!(report.wal_tail_dropped, 3);
    assert_eq!(report.fenced_records, 2);
    assert_eq!(resumed.committed_rounds(), 2);
    assert_eq!(resumed.hive_state(), reference[2]);
    drop(resumed);
    // The fence is durable: a second resume skips the same records
    // without re-fencing them.
    let (again, report) =
        Platform::resume(&s.program, config(Some(DurabilityConfig::new(dir)))).unwrap();
    assert_eq!(report.wal_tail_dropped, 0);
    assert_eq!(report.fenced_records, 0);
    assert_eq!(again.hive_state(), reference[2]);
}

#[test]
fn sector_corruption_is_scrubbed_never_silently_accepted() {
    use softborg::hive::WalScrubAction;
    use softborg::netsim::{SectorCorruption, SECTOR_BYTES};
    let s = scenarios::token_parser();

    // Journal bit rot: flip one bit in a late sector. The scrub must
    // cut (and quarantine) the damaged region, and recovery must land
    // on a state some uninterrupted run actually had.
    let reference = reference_states(DurabilityConfig::new(campaign_dir("scrub-ref")));
    let dir = campaign_dir("scrub-wal");
    {
        let mut p = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
    }
    let wal = dir.join("hive.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    let sectors = bytes.len() as u64 / SECTOR_BYTES;
    assert!(sectors > 3, "campaign too small to corrupt mid-file");
    assert!(SectorCorruption::FlipBit { bit: 999 }.apply(&mut bytes, sectors - 2));
    std::fs::write(&wal, &bytes).unwrap();
    let cfg = || config(Some(DurabilityConfig::new(dir.clone())));
    let report = Platform::scrub(&cfg()).unwrap();
    assert!(!report.is_clean(), "corruption went undetected");
    assert_eq!(report.wal_action, WalScrubAction::TailCut);
    assert!(report.wal_quarantined_bytes > 0);
    assert!(
        dir.join("hive.wal.quarantined").exists(),
        "damaged bytes must be preserved for post-mortem"
    );
    let (resumed, _) = Platform::resume(&s.program, cfg()).unwrap();
    let k = resumed.committed_rounds();
    assert!(k < ROUNDS, "the cut must cost at least the damaged round");
    assert_eq!(
        resumed.hive_state(),
        reference[k as usize],
        "post-scrub recovery produced a state no uninterrupted run had"
    );
    // A second scrub finds nothing: the repair is durable.
    assert!(Platform::scrub(&cfg()).unwrap().is_clean());

    // Checkpoint bit rot: the newest chain record is quarantined and
    // recovery proceeds from the generation before it.
    let reference = reference_states(eager(campaign_dir("scrub-chain-ref")));
    let dir = campaign_dir("scrub-chain");
    {
        let mut p = Platform::new(&s.program, config(Some(eager(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
    }
    let records = chain_records(&dir);
    assert!(records.len() >= 2, "need two checkpoint generations");
    let head = records.last().unwrap();
    let mut bytes = std::fs::read(head).unwrap();
    let head_gen = decode_record(&bytes).unwrap().generation;
    assert!(SectorCorruption::TornWrite { keep_bytes: 17 }.apply(&mut bytes, 0));
    std::fs::write(head, &bytes).unwrap();
    let cfg = || config(Some(eager(dir.clone())));
    let report = Platform::scrub(&cfg()).unwrap();
    let name = head.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(report.chain.quarantined, vec![name.clone()]);
    assert!(dir
        .join("chain")
        .join(format!("{name}.quarantined"))
        .exists());
    assert!(report.chain.report.head_generation < Some(head_gen));
    let (resumed, rep) = Platform::resume(&s.program, cfg()).unwrap();
    assert!(rep.chain.is_clean(), "the scrub left the chain damaged");
    let k = resumed.committed_rounds();
    assert!(k > 0 && k <= ROUNDS);
    assert_eq!(resumed.hive_state(), reference[k as usize]);
}

#[test]
fn fresh_directory_resumes_into_a_cold_start() {
    let s = scenarios::token_parser();
    let dir = campaign_dir("cold");
    let (mut p, report) =
        Platform::resume(&s.program, config(Some(DurabilityConfig::new(dir)))).unwrap();
    assert_eq!(report.chain.source, ChainSource::None);
    assert_eq!(report.rounds_from_snapshot + report.rounds_replayed, 0);
    assert_eq!(p.committed_rounds(), 0);
    p.round(EXECS);
    assert_eq!(p.committed_rounds(), 1);
}

#[test]
fn new_refuses_to_clobber_an_existing_campaign() {
    let s = scenarios::token_parser();
    let dir = campaign_dir("clobber");
    {
        let mut p = Platform::new(&s.program, config(Some(DurabilityConfig::new(dir.clone()))));
        p.round(EXECS);
    }
    match Platform::try_new(&s.program, config(Some(DurabilityConfig::new(dir)))) {
        Err(DurabilityError::CampaignExists(_)) => {}
        other => panic!("expected CampaignExists, got {other:?}"),
    }
    match Platform::resume(&s.program, config(None)) {
        Err(DurabilityError::NotConfigured) => {}
        other => panic!("expected NotConfigured, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn pipelined_durable_rounds_write_the_same_journal_as_serial() {
    let s = scenarios::token_parser();
    let serial_dir = campaign_dir("pipe-serial");
    let piped_dir = campaign_dir("pipe-piped");
    let piped_cfg = |dir: PathBuf| PlatformConfig {
        ingest: IngestSettings {
            pod_threads: 3,
            batch_size: 7,
            pipeline: IngestConfig {
                workers: 2,
                ..IngestConfig::default()
            },
        },
        ..config(Some(DurabilityConfig::new(dir)))
    };
    {
        let mut serial = Platform::new(
            &s.program,
            config(Some(DurabilityConfig::new(serial_dir.clone()))),
        );
        for _ in 0..3 {
            serial.round_driven(|pods, batch| DrivenExecution::serial(pods, EXECS, batch));
        }
        let mut piped = Platform::new(&s.program, piped_cfg(piped_dir.clone()));
        piped.run(3, EXECS);
        assert_eq!(serial.hive_state(), piped.hive_state());
    }
    // Both journals replay to the same hive, killed and resumed.
    let (from_serial, _) =
        Platform::resume(&s.program, config(Some(DurabilityConfig::new(serial_dir)))).unwrap();
    let (from_piped, _) = Platform::resume(&s.program, piped_cfg(piped_dir)).unwrap();
    assert_eq!(from_serial.committed_rounds(), 3);
    assert_eq!(from_piped.committed_rounds(), 3);
    assert_eq!(from_serial.hive_state(), from_piped.hive_state());
    assert_eq!(from_serial.history(), from_piped.history());
}

/// Eager compaction, so short campaigns append several chain records
/// (a full, then deltas).
fn eager(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 1,
        min_compact_wal_bytes: 1,
        ..DurabilityConfig::new(dir)
    }
}

#[test]
fn chained_kill_at_every_round_boundary_is_process_equivalent() {
    // The reference runs the default policy and is never killed; a resume
    // from eagerly written chain records must land on the same states,
    // pods, and continuation.
    let s = scenarios::token_parser();
    let r = full_reference(DurabilityConfig::new(campaign_dir("chain-ref")));
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("chain-{k}"));
        {
            let mut p = Platform::new(&s.program, config(Some(eager(dir.clone()))));
            p.run(k as u32, EXECS);
        } // drop = kill
        let (resumed, report) = Platform::resume(&s.program, config(Some(eager(dir)))).unwrap();
        assert!(
            report.chain.is_clean(),
            "clean chain had defects: {:?}",
            report.chain
        );
        assert_eq!(resumed.committed_rounds(), k, "lost rounds at kill {k}");
        assert_eq!(resumed.hive_state(), r.states[k as usize]);
        assert_eq!(resumed.export_pod_states(), r.pods[k as usize]);
        let mut resumed = resumed;
        resumed.run((ROUNDS - k) as u32, EXECS);
        assert_eq!(resumed.history(), &r.history[..]);
        assert_eq!(resumed.hive_state(), r.states[ROUNDS as usize]);
        assert_eq!(resumed.export_pod_states(), r.pods[ROUNDS as usize]);
    }
}

#[test]
fn chain_compaction_appends_deltas_instead_of_rewriting_snapshots() {
    let s = scenarios::token_parser();
    let dir = campaign_dir("chain-deltas");
    {
        let mut p = Platform::new(&s.program, config(Some(eager(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
    }
    let mut fulls: Vec<u64> = Vec::new();
    let mut deltas: Vec<u64> = Vec::new();
    for e in std::fs::read_dir(dir.join("chain")).unwrap() {
        let e = e.unwrap();
        let name = e.file_name().to_string_lossy().into_owned();
        let len = e.metadata().unwrap().len();
        if name.ends_with(".full") {
            fulls.push(len);
        } else if name.ends_with(".delta") {
            deltas.push(len);
        }
    }
    assert!(!fulls.is_empty(), "chain has no full record");
    assert!(
        !deltas.is_empty(),
        "aggressive chain compaction never appended a delta"
    );
    // (The O(changes) vs O(hive) byte-ratio claim needs a hive whose
    // steady state dwarfs a round's churn; e22 proves it at scale.)
}

/// Every entry under `dir`, with each file's bytes: two equal trees
/// hold exactly the same bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let path = e.unwrap().path();
        if path.is_dir() {
            out.push((path.clone(), None));
            out.extend(tree(&path));
        } else {
            out.push((path.clone(), Some(std::fs::read(&path).unwrap())));
        }
    }
    out.sort();
    out
}

/// Turns a freshly killed campaign directory into what the retired
/// full-snapshot format left behind: journal plus `hive.snap`, no chain.
fn make_legacy(dir: &Path, state: Vec<u8>) {
    let snap = HiveSnapshot {
        state,
        sessions: Default::default(),
        wal_covered: 0,
        wal_covered_hash: 0,
        app_meta: Vec::new(),
    };
    std::fs::write(dir.join("hive.snap"), snap.encode()).unwrap();
    std::fs::remove_dir(dir.join("chain")).unwrap();
}

#[test]
fn chain_mode_refuses_a_legacy_full_snapshot_campaign() {
    let uncompacted = |dir: PathBuf| DurabilityConfig {
        compact_ratio: 0,
        ..DurabilityConfig::new(dir)
    };
    let refused_as_legacy = |what: &str, err: Option<DurabilityError>, dir: &Path| match err {
        Some(DurabilityError::Corrupt(msg)) => assert!(
            msg.contains("legacy") && msg.contains(&dir.display().to_string()),
            "{what}: unhelpful refusal: {msg}"
        ),
        other => panic!("{what}: expected a Corrupt refusal, got {other:?}"),
    };

    // One platform.
    let s = scenarios::token_parser();
    let dir = campaign_dir("legacy");
    {
        let mut p = Platform::new(&s.program, config(Some(uncompacted(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
        make_legacy(&dir, p.hive_state());
    }
    let before = tree(&dir);
    let cfg = || config(Some(uncompacted(dir.clone())));
    // Resuming would silently cold-start over the campaign (the chain
    // never reads `hive.snap`) and cut its journal; a fresh start would
    // run a second campaign on top. Every entry point refuses instead.
    refused_as_legacy("resume", Platform::resume(&s.program, cfg()).err(), &dir);
    refused_as_legacy("scrub", Platform::scrub(&cfg()).err(), &dir);
    match Platform::try_new(&s.program, cfg()) {
        Err(DurabilityError::CampaignExists(d)) => assert_eq!(d, dir),
        other => panic!("expected CampaignExists, got {:?}", other.map(|_| ())),
    }
    assert_eq!(tree(&dir), before, "a refused open changed the directory");

    // A sharded fleet: every shard directory is a legacy campaign.
    let scs = [scenarios::token_parser(), scenarios::triangle()];
    let specs: Vec<FleetSpec<'_>> = scs
        .iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: softborg::pod::PodConfig {
                input_range: s.input_range,
                ..softborg::pod::PodConfig::default()
            },
        })
        .collect();
    let root = campaign_dir("legacy-fleet");
    let fleet_cfg = || MultiPlatformConfig {
        n_pods: 2,
        n_shards: 2,
        durability: Some(uncompacted(root.clone())),
        ..MultiPlatformConfig::default()
    };
    {
        let mut p = MultiPlatform::new(&specs, fleet_cfg());
        p.run(2, EXECS);
        for shard in 0..2 {
            make_legacy(&root.join(format!("shard-{shard}")), p.shard_state(shard));
        }
    }
    let before = tree(&root);
    let shard0 = root.join("shard-0");
    refused_as_legacy(
        "fleet resume",
        MultiPlatform::resume(&specs, fleet_cfg()).err(),
        &shard0,
    );
    refused_as_legacy(
        "fleet scrub",
        MultiPlatform::scrub(&fleet_cfg()).err(),
        &shard0,
    );
    match MultiPlatform::try_new(&specs, fleet_cfg()) {
        Err(DurabilityError::CampaignExists(d)) => assert_eq!(d, shard0),
        other => panic!("expected CampaignExists, got {:?}", other.map(|_| ())),
    }
    assert_eq!(tree(&root), before, "a refused open changed the directory");
}

#[test]
fn paged_tree_is_byte_identical_with_paging_off() {
    use softborg::store::PagedConfig;
    let s = scenarios::token_parser();
    let dir = campaign_dir("paging");
    let mut plain = Platform::new(&s.program, config(None));
    // A tiny page and resident budget so eviction bites immediately.
    let mut paged = Platform::new(
        &s.program,
        PlatformConfig {
            tree_paging: Some(PagedConfig::new(&dir.join("pages"), 8, 2)),
            ..config(None)
        },
    );
    for round in 0..ROUNDS {
        plain.round(EXECS);
        paged.round(EXECS);
        assert_eq!(
            plain.hive_state(),
            paged.hive_state(),
            "paged hive diverged at round {round}"
        );
    }
    assert_eq!(plain.history(), paged.history());
    let stats = paged.page_stats();
    assert!(
        stats.evictions > 0 && stats.faults > 0,
        "the resident budget never bit: {stats:?}"
    );
    assert!(
        stats.resident_items < stats.total_items,
        "nothing was actually evicted to disk: {stats:?}"
    );
    assert_eq!(stats.pages_trusted, 0, "clean run adopted stale pages");
}

#[test]
fn chained_paged_resume_composes_with_both_stores() {
    use softborg::store::PagedConfig;
    let s = scenarios::token_parser();
    let r = full_reference(DurabilityConfig::new(campaign_dir("chain-page-ref")));
    let dir = campaign_dir("chain-page");
    let cfg = |d: PathBuf| PlatformConfig {
        tree_paging: Some(PagedConfig::new(&d.join("pages"), 8, 2)),
        ..config(Some(eager(d)))
    };
    let kill = 2u64;
    {
        let mut p = Platform::new(&s.program, cfg(dir.clone()));
        p.run(kill as u32, EXECS);
    } // drop = kill
    let (mut resumed, report) = Platform::resume(&s.program, cfg(dir)).unwrap();
    assert!(report.chain.records > 0, "resume walked no checkpoint");
    assert_eq!(resumed.committed_rounds(), kill);
    assert_eq!(resumed.hive_state(), r.states[kill as usize]);
    resumed.run((ROUNDS - kill) as u32, EXECS);
    assert_eq!(resumed.hive_state(), r.states[ROUNDS as usize]);
    assert_eq!(resumed.export_pod_states(), r.pods[ROUNDS as usize]);
    assert_eq!(resumed.history(), &r.history[..]);
    assert_eq!(resumed.page_stats().pages_trusted, 0);
}
