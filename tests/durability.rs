//! Crash-only durability of the one campaign core. A campaign killed
//! at any round boundary and resumed must recover
//! **process-equivalent** — every shard's state, every pod (RNG
//! streams, repair-lab corpora, queued directives), history, and round
//! telemetry byte-identical to an uninterrupted run at the same
//! committed round — through journal replay, delta-chain checkpoints,
//! chain fallback, truncated partial rounds, torn tails and sector rot.
//! Older directory layouts are refused with their bytes untouched.
//!
//! Most checks here run on both shapes of a campaign (see
//! `tests/campaign`). The four checks shared with
//! `tests/multi_platform.rs` run here on the one-fleet `Platform`, and
//! there on the three-fleet, two-shard `MultiPlatform`.

mod campaign;

use campaign::*;
use softborg::hive::journal::{self, REC_FRAME, REC_ROUND};
use softborg::hive::{HiveSnapshot, ScrubReport};
use softborg::program::codec;
use softborg::program::scenarios::Scenario;
use softborg::store::chain::decode_record;
use softborg::store::ChainSource;
use softborg::{DurabilityConfig, DurabilityError, IngestSettings, MultiRoundReport};
use std::path::Path;

#[test]
fn durable_rounds_match_in_memory_rounds_exactly() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let mut plain = kind.start(&scs, &Setup::default());
        plain.run(ROUNDS);
        let dcfg = DurabilityConfig::new(campaign_dir(kind, "vs-plain"));
        let mut durable = kind.start(&scs, &Setup::durable(dcfg));
        durable.run(ROUNDS);
        assert_eq!(plain.history(), durable.history(), "{kind:?}");
        assert_eq!(plain.states(), durable.states(), "{kind:?}");
    }
}

#[test]
fn kill_at_every_round_boundary_recovers_byte_identical_state() {
    check_kill_recovers_state(Kind::One);
}

#[test]
fn kill_at_every_round_boundary_restores_every_pod_mid_stream() {
    check_kill_restores_pods(Kind::One);
}

#[test]
fn resumed_telemetry_matches_the_uninterrupted_run() {
    const KILL: u64 = 2;
    for kind in KINDS {
        let scs = kind.scenarios();
        let r = reference(
            kind,
            &scs,
            DurabilityConfig::new(campaign_dir(kind, "t-ref")),
        );
        let resume_and_finish = |tag: &str| {
            let dcfg = DurabilityConfig::new(campaign_dir(kind, tag));
            kind.start(&scs, &Setup::durable(dcfg.clone())).run(KILL);
            let (obs, rec) = recording();
            let setup = Setup {
                obs,
                ..Setup::durable(dcfg)
            };
            let (mut p, _) = kind.resume(&scs, &setup).unwrap();
            p.run(ROUNDS - KILL);
            (p.states(), rec)
        };
        let (state_a, rec_a) = resume_and_finish("telemetry-a");
        let (state_b, rec_b) = resume_and_finish("telemetry-b");
        // Two independently resumed processes replay identical
        // telemetry, down to the events hash, and converge on the same
        // state.
        assert!(!rec_a.events().is_empty(), "resumed run recorded nothing");
        assert_eq!(rec_a.events_hash(), rec_b.events_hash(), "{kind:?}");
        assert_eq!(state_a, state_b);
        assert_eq!(state_a, r.states[ROUNDS as usize]);
        // And the suffix each records is, event for event, exactly what
        // the uninterrupted run recorded for the same rounds.
        assert_eq!(committed_fields(&rec_a), r.round_events[KILL as usize..]);
    }
}

#[test]
fn compaction_bounds_the_journal_and_resume_stays_byte_identical() {
    check_compaction_bounds_journal(Kind::One);
}

/// A campaign with a checkpoint after every round but the last, so each
/// shard's chain has `ROUNDS - 1` records (its head at round
/// `ROUNDS - 1`) and each journal holds the last round.
fn checkpointed_campaign(kind: Kind, scs: &[Scenario], setup: &Setup) {
    let mut p = kind.start(scs, setup);
    for round in 1..=ROUNDS {
        p.round();
        if round < ROUNDS {
            p.checkpoint();
        }
    }
}

#[test]
fn corrupt_primary_snapshot_falls_back_to_a_consistent_generation() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let r = reference(
            kind,
            &scs,
            DurabilityConfig::new(campaign_dir(kind, "f-ref")),
        );
        let dir = campaign_dir(kind, "fallback");
        let setup = Setup::durable(uncompacted(dir.clone()));
        checkpointed_campaign(kind, &scs, &setup);
        // Media corruption of every shard's newest checkpoint, after it
        // committed.
        let mut head_gens = Vec::new();
        for i in 0..kind.shards() {
            let records = chain_records(&shard_dir(&dir, i));
            let head = records.last().unwrap();
            let mut bytes = std::fs::read(head).unwrap();
            head_gens.push(decode_record(&bytes).unwrap().generation);
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(head, bytes).unwrap();
        }
        let (resumed, report) = kind.resume(&scs, &setup).unwrap();
        for (sr, head_gen) in report.shards.iter().zip(head_gens) {
            assert!(!sr.chain.is_clean(), "the rotten head went unreported");
            assert!(sr.chain.head_generation < Some(head_gen));
            // The journal suffix belongs to rounds after the destroyed
            // checkpoint; recovery discards it rather than merge it out
            // of order onto the older generation.
            assert!(sr.records_discarded > 0, "{kind:?}: {sr:?}");
        }
        let k = resumed.committed();
        assert_eq!(k, ROUNDS - 2, "{kind:?}");
        assert_eq!(
            resumed.states(),
            r.states[k as usize],
            "{kind:?}: fallback produced a state no uninterrupted run ever had"
        );
    }
}

#[test]
fn uncommitted_partial_round_is_truncated_and_corrupt_tail_is_dropped() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let r = reference(
            kind,
            &scs,
            DurabilityConfig::new(campaign_dir(kind, "u-ref")),
        );
        let dir = campaign_dir(kind, "partial");
        let setup = Setup::durable(DurabilityConfig::new(dir.clone()));
        kind.start(&scs, &setup).run(2);
        // A crash mid-round leaves intact-but-uncommitted frame records
        // (no closing round record), then a torn half-written record.
        let wal = shard_dir(&dir, 0).join("hive.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        journal::append_record(&mut bytes, REC_FRAME, 0, 99, b"uncommitted frame");
        journal::append_record(&mut bytes, REC_FRAME, 0, 100, b"another one");
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]); // torn append
        std::fs::write(&wal, bytes).unwrap();

        let (resumed, report) = kind.resume(&scs, &setup).unwrap();
        let shard0 = &report.shards[0];
        assert_eq!((shard0.wal_tail_dropped, shard0.records_discarded), (3, 2));
        assert_eq!(resumed.committed(), 2);
        assert_eq!(resumed.states(), r.states[2], "{kind:?}");
        drop(resumed);
        // The truncation is durable: a second resume finds nothing.
        let (again, report) = kind.resume(&scs, &setup).unwrap();
        for sr in &report.shards {
            assert_eq!((sr.wal_tail_dropped, sr.records_discarded), (0, 0));
        }
        assert_eq!(again.states(), r.states[2]);
    }
}

#[test]
fn sector_corruption_is_scrubbed_never_silently_accepted() {
    use softborg::hive::WalScrubAction;
    use softborg::netsim::{SectorCorruption, SECTOR_BYTES};
    for kind in KINDS {
        let scs = kind.scenarios();
        let r = reference(
            kind,
            &scs,
            DurabilityConfig::new(campaign_dir(kind, "s-ref")),
        );

        // Journal bit rot: flip one bit in a late sector. The scrub must
        // cut (and quarantine) the damaged region, and recovery must
        // land on a state some uninterrupted run actually had.
        let dir = campaign_dir(kind, "scrub-wal");
        let setup = Setup::durable(uncompacted(dir.clone()));
        kind.start(&scs, &setup).run(ROUNDS);
        let wal = shard_dir(&dir, 0).join("hive.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        let sectors = bytes.len() as u64 / SECTOR_BYTES;
        assert!(sectors > 3, "campaign too small to corrupt mid-file");
        assert!(SectorCorruption::FlipBit { bit: 999 }.apply(&mut bytes, sectors - 2));
        std::fs::write(&wal, &bytes).unwrap();
        let reports = kind.scrub(&scs, &setup).unwrap();
        assert_eq!(reports.len(), kind.shards());
        assert!(!reports[0].is_clean(), "corruption went undetected");
        assert_eq!(reports[0].wal_action, WalScrubAction::TailCut);
        assert!(reports[0].wal_quarantined_bytes > 0);
        assert!(
            shard_dir(&dir, 0).join("hive.wal.quarantined").exists(),
            "damaged bytes must be preserved for post-mortem"
        );
        let (resumed, _) = kind.resume(&scs, &setup).unwrap();
        let k = resumed.committed();
        assert!(k < ROUNDS, "the cut must cost at least the damaged round");
        assert_eq!(resumed.states(), r.states[k as usize], "{kind:?}");
        drop(resumed);
        // A second scrub finds nothing: the repair is durable.
        let again = kind.scrub(&scs, &setup).unwrap();
        assert!(again.iter().all(ScrubReport::is_clean));

        // Checkpoint bit rot: every shard's newest chain record is
        // quarantined and recovery proceeds from the generation before.
        let dir = campaign_dir(kind, "scrub-chain");
        let setup = Setup::durable(uncompacted(dir.clone()));
        checkpointed_campaign(kind, &scs, &setup);
        let mut heads = Vec::new();
        for i in 0..kind.shards() {
            let head = chain_records(&shard_dir(&dir, i)).pop().unwrap();
            let mut bytes = std::fs::read(&head).unwrap();
            let generation = decode_record(&bytes).unwrap().generation;
            assert!(SectorCorruption::TornWrite { keep_bytes: 17 }.apply(&mut bytes, 0));
            std::fs::write(&head, &bytes).unwrap();
            heads.push((head, generation));
        }
        let reports = kind.scrub(&scs, &setup).unwrap();
        for (report, (head, generation)) in reports.iter().zip(&heads) {
            let name = head.file_name().unwrap().to_string_lossy().into_owned();
            assert_eq!(report.chain.quarantined, vec![name.clone()]);
            assert!(head.with_file_name(format!("{name}.quarantined")).exists());
            assert!(report.chain.report.head_generation < Some(*generation));
        }
        let (resumed, report) = kind.resume(&scs, &setup).unwrap();
        assert!(report.shards.iter().all(|s| s.chain.is_clean()));
        let k = resumed.committed();
        assert!(k > 0 && k <= ROUNDS);
        assert_eq!(resumed.states(), r.states[k as usize], "{kind:?}");
    }
}

#[test]
fn fresh_directory_resumes_into_a_cold_start() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let setup = Setup::durable(DurabilityConfig::new(campaign_dir(kind, "cold")));
        let (mut p, report) = kind.resume(&scs, &setup).unwrap();
        assert_eq!(report.target_round, 0);
        for sr in &report.shards {
            assert_eq!(sr.chain.source, ChainSource::None);
            assert_eq!(sr.rounds_from_snapshot + sr.rounds_replayed, 0);
        }
        assert_eq!(p.committed(), 0);
        p.round();
        assert_eq!(p.committed(), 1);
    }
}

#[test]
fn new_refuses_to_clobber_an_existing_campaign() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let setup = Setup::durable(DurabilityConfig::new(campaign_dir(kind, "clobber")));
        kind.start(&scs, &setup).round();
        match kind.try_start(&scs, &setup) {
            Err(DurabilityError::CampaignExists(_)) => {}
            other => panic!("expected CampaignExists, got {:?}", other.err()),
        }
        match kind.resume(&scs, &Setup::default()) {
            Err(DurabilityError::NotConfigured) => {}
            other => panic!("expected NotConfigured, got {:?}", other.err()),
        }
    }
}

#[test]
fn pipelined_durable_rounds_write_the_same_journal_as_serial() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let serial = Setup::durable(DurabilityConfig::new(campaign_dir(kind, "pipe-serial")));
        let piped = Setup {
            ingest: IngestSettings {
                batch_size: 7,
                pipeline: softborg::ingest::IngestConfig {
                    workers: 2,
                    ..softborg::ingest::IngestConfig::default()
                },
            },
            ..Setup::durable(DurabilityConfig::new(campaign_dir(kind, "pipe-piped")))
        };
        {
            let mut s = kind.start(&scs, &serial);
            for _ in 0..3 {
                s.serial_round();
            }
            let mut p = kind.start(&scs, &piped);
            p.run(3);
            assert_eq!(s.states(), p.states(), "{kind:?}");
        }
        // Both journals replay to the same state, killed and resumed.
        let (from_serial, _) = kind.resume(&scs, &serial).unwrap();
        let (from_piped, _) = kind.resume(&scs, &piped).unwrap();
        assert_eq!(from_serial.committed(), 3);
        assert_eq!(from_piped.committed(), 3);
        assert_eq!(from_serial.states(), from_piped.states(), "{kind:?}");
        assert_eq!(from_serial.history(), from_piped.history());
    }
}

#[test]
fn chained_kill_at_every_round_boundary_is_process_equivalent() {
    // The reference runs the default policy and is never killed; a
    // resume from eagerly written chain records must land on the same
    // states, pods, and continuation.
    for kind in KINDS {
        let scs = kind.scenarios();
        let r = reference(
            kind,
            &scs,
            DurabilityConfig::new(campaign_dir(kind, "ch-ref")),
        );
        for k in 1..=ROUNDS {
            let setup = Setup::durable(eager(campaign_dir(kind, &format!("chain-{k}"))));
            kind.start(&scs, &setup).run(k); // drop = kill
            let (mut resumed, report) = kind.resume(&scs, &setup).unwrap();
            for sr in &report.shards {
                assert!(sr.chain.is_clean(), "clean chain had defects: {sr:?}");
            }
            assert_eq!(resumed.committed(), k, "{kind:?} lost rounds at kill {k}");
            assert_eq!(resumed.states(), r.states[k as usize]);
            assert_eq!(resumed.pods(), r.pods[k as usize]);
            resumed.run(ROUNDS - k);
            assert_eq!(resumed.history(), r.history);
            assert_eq!(resumed.states(), r.states[ROUNDS as usize]);
            assert_eq!(resumed.pods(), r.pods[ROUNDS as usize]);
        }
    }
}

#[test]
fn chain_compaction_appends_deltas_instead_of_rewriting_snapshots() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "chain-deltas");
        kind.start(&scs, &Setup::durable(eager(dir.clone())))
            .run(ROUNDS);
        for i in 0..kind.shards() {
            let records = chain_records(&shard_dir(&dir, i));
            let has = |ext: &str| records.iter().any(|p| p.extension().unwrap() == ext);
            assert!(has("full"), "{kind:?} shard {i} chain has no full record");
            assert!(has("delta"), "{kind:?} shard {i} never appended a delta");
        }
        // (The O(changes) vs O(hive) byte-ratio claim needs a hive whose
        // steady state dwarfs a round's churn; e22 proves it at scale.)
    }
}

/// Asserts every entry point refuses the campaign at `dir` with a typed
/// error and leaves every byte under it as it was.
fn assert_refused_untouched(kind: Kind, scs: &[Scenario], setup: &Setup, dir: &Path, what: &str) {
    let before = tree(dir);
    match kind.try_start(scs, setup) {
        Err(DurabilityError::CampaignExists(_)) => {}
        other => panic!(
            "{kind:?} {what}: new: expected CampaignExists, got {:?}",
            other.err()
        ),
    }
    match kind.resume(scs, setup) {
        Err(DurabilityError::Corrupt(_)) => {}
        other => panic!(
            "{kind:?} {what}: resume: expected Corrupt, got {:?}",
            other.err()
        ),
    }
    match kind.scrub(scs, setup) {
        Err(DurabilityError::Corrupt(_)) => {}
        other => panic!("{kind:?} {what}: scrub: expected Corrupt, got {other:?}"),
    }
    assert_eq!(
        tree(dir),
        before,
        "{kind:?} {what}: a refused open changed the directory"
    );
}

/// What the retired full-snapshot format left behind: a journal beside
/// `hive.snap`, no chain.
fn make_snapshot_layout(dir: &Path, state: Vec<u8>) {
    let snap = HiveSnapshot {
        state,
        sessions: Default::default(),
        wal_covered: 0,
        wal_covered_hash: 0,
        app_meta: Vec::new(),
    };
    std::fs::write(dir.join("hive.snap"), snap.encode()).unwrap();
    let _ = std::fs::remove_dir_all(dir.join("chain"));
}

#[test]
fn chain_mode_refuses_a_legacy_full_snapshot_campaign() {
    for kind in KINDS {
        let scs = kind.scenarios();
        // A single-program `hive.snap` campaign at the root.
        let dir = campaign_dir(kind, "legacy-root");
        std::fs::write(dir.join("hive.wal"), b"").unwrap();
        make_snapshot_layout(&dir, Vec::new());
        let setup = Setup::durable(uncompacted(dir.clone()));
        assert_refused_untouched(kind, &scs, &setup, &dir, "root hive.snap");

        // Every shard directory holds `hive.snap` generations.
        let dir = campaign_dir(kind, "legacy-shards");
        let setup = Setup::durable(uncompacted(dir.clone()));
        let mut p = kind.start(&scs, &setup);
        p.run(2);
        for (i, state) in p.states().into_iter().enumerate() {
            make_snapshot_layout(&shard_dir(&dir, i), state);
        }
        drop(p);
        assert_refused_untouched(kind, &scs, &setup, &dir, "shard hive.snap");
    }
}

/// Rewrites every `REC_ROUND` body in `shard`'s journal with `rewrite`,
/// re-appending each record with `journal::append_record`.
fn rewrite_round_records(dir: &Path, shard: usize, rewrite: impl Fn(&[u8]) -> Vec<u8>) {
    let wal = shard_dir(dir, shard).join("hive.wal");
    let (records, scan) = journal::scan(&std::fs::read(&wal).unwrap());
    assert!(scan.tail_error.is_none());
    let mut bytes = Vec::new();
    for rec in &records {
        let body = match rec.kind {
            REC_ROUND => rewrite(&rec.frame),
            _ => rec.frame.clone(),
        };
        journal::append_record(&mut bytes, rec.kind, rec.session, rec.seq, &body);
    }
    std::fs::write(&wal, bytes).unwrap();
}

#[test]
fn every_older_layout_is_refused_untouched() {
    for kind in KINDS {
        let scs = kind.scenarios();

        // (a) The single-program layout before this one: `hive.wal` and
        // `chain/` at the campaign root.
        let dir = campaign_dir(kind, "legacy-single");
        let one = Kind::One.scenarios();
        Kind::One
            .start(&one, &Setup::durable(eager(dir.clone())))
            .run(2);
        for entry in ["hive.wal", "chain"] {
            std::fs::rename(shard_dir(&dir, 0).join(entry), dir.join(entry)).unwrap();
        }
        std::fs::remove_dir(shard_dir(&dir, 0)).unwrap();
        let setup = Setup::durable(eager(dir.clone()));
        assert_refused_untouched(kind, &scs, &setup, &dir, "root hive.wal + chain/");

        // (c) Round records in the shape before per-program coverage and
        // proofs: 48 bytes per program.
        let dir = campaign_dir(kind, "legacy-rounds");
        let setup = Setup::durable(uncompacted(dir.clone()));
        kind.start(&scs, &setup).run(2);
        rewrite_round_records(&dir, 0, |body| {
            let r = MultiRoundReport::decode(body).unwrap();
            let mut old = Vec::new();
            for v in [r.round, r.executions, r.failures] {
                codec::put_u64(&mut old, v);
            }
            codec::put_f64(&mut old, r.failure_rate_per_10k);
            codec::put_u64(&mut old, r.fixes_promoted);
            codec::put_u32(&mut old, r.programs.len() as u32);
            for p in &r.programs {
                let fields = [
                    p.program,
                    p.executions,
                    p.failures,
                    p.fixes_promoted,
                    p.overlay_version,
                    p.directed,
                ];
                for v in fields {
                    codec::put_u64(&mut old, v);
                }
            }
            old
        });
        assert_refused_untouched(kind, &scs, &setup, &dir, "48-byte round records");
    }
}

#[test]
fn a_round_record_with_a_trailing_byte_is_refused_untouched() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "trailing");
        let setup = Setup::durable(uncompacted(dir.clone()));
        kind.start(&scs, &setup).run(2);
        let last_round = 1u64;
        rewrite_round_records(&dir, 0, |body| {
            let mut body = body.to_vec();
            if MultiRoundReport::decode(&body).unwrap().round == last_round {
                body.push(0);
            }
            body
        });
        let before = tree(&dir);
        match kind.resume(&scs, &setup) {
            Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("{kind:?}: expected Corrupt, got {:?}", other.err()),
        }
        assert_eq!(
            tree(&dir),
            before,
            "{kind:?}: a refused resume changed the directory"
        );
    }
}

#[test]
fn chained_resume_walks_the_chain_process_equivalent() {
    check_chained_resume(Kind::One);
}
