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
use proptest::prelude::*;
use softborg::hive::journal::{self, REC_FRAME, REC_PODS, REC_ROUND};
use softborg::hive::HiveSnapshot;
use softborg::pod::PodState;
use softborg::program::codec;
use softborg::program::scenarios::Scenario;
use softborg::store::chain::{decode_record, encode_record};
use softborg::store::ChainSource;
use softborg::store::RecordKind;
use softborg::trace::wire;
use softborg::{CampaignPlan, DurabilityConfig, DurabilityError, IngestSettings, MultiRoundReport};
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
        assert_eq!(
            (shard0.wal_quarantined_bytes, shard0.records_discarded),
            (3, 2)
        );
        assert_eq!(resumed.committed(), 2);
        assert_eq!(resumed.states(), r.states[2], "{kind:?}");
        drop(resumed);
        // The truncation is durable: a second resume finds nothing.
        let (again, report) = kind.resume(&scs, &setup).unwrap();
        for sr in &report.shards {
            assert_eq!((sr.wal_quarantined_bytes, sr.records_discarded), (0, 0));
        }
        assert_eq!(again.states(), r.states[2]);
    }
}

#[test]
fn sector_corruption_is_scrubbed_never_silently_accepted() {
    use softborg::netsim::{SectorCorruption, SECTOR_BYTES};
    use softborg::WalAction;
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
        let plan = kind.scrub(&scs, &setup).unwrap();
        assert_eq!(plan.shards.len(), kind.shards());
        assert!(!plan.is_clean(), "corruption went undetected");
        assert_eq!(plan.shards[0].wal_action, WalAction::TailCut);
        assert!(plan.shards[0].wal_quarantined_bytes > 0);
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
        assert!(kind.scrub(&scs, &setup).unwrap().is_clean());

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
        let plan = kind.scrub(&scs, &setup).unwrap();
        for (shard, (head, generation)) in plan.shards.iter().zip(&heads) {
            let name = head.file_name().unwrap().to_string_lossy().into_owned();
            assert_eq!(defect_files(shard), [name.as_str()]);
            assert!(head.with_file_name(format!("{name}.quarantined")).exists());
            assert!(shard.chain.head_generation < Some(*generation));
        }
        let (resumed, report) = kind.resume(&scs, &setup).unwrap();
        assert!(report.shards.iter().all(|s| s.chain.is_clean()));
        let k = resumed.committed();
        assert!(k > 0 && k <= ROUNDS);
        assert_eq!(resumed.states(), r.states[k as usize], "{kind:?}");
    }
}

#[test]
fn a_torn_round_log_tail_is_quarantined_and_flagged() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "torn-round-log");
        let setup = Setup::durable(uncompacted(dir.clone()));
        let mut p = kind.start(&scs, &setup);
        p.run(2);
        p.checkpoint(); // writes rounds 0 and 1 to the round log
        p.round();
        drop(p);
        let log = dir.join("rounds.log");
        let intact = std::fs::read(&log).unwrap();
        assert!(!intact.is_empty());
        let torn = [0xDE, 0xAD, 0xBE];
        std::fs::write(&log, [&intact[..], &torn[..]].concat()).unwrap();

        let plan = kind.scrub(&scs, &setup).unwrap();
        assert_eq!(plan.round_log_quarantined_bytes, 3, "{kind:?}");
        assert!(!plan.is_clean(), "{kind:?}: the torn tail went unflagged");
        assert_eq!(std::fs::read(&log).unwrap(), intact);
        assert_eq!(
            std::fs::read(dir.join("rounds.log.quarantined")).unwrap(),
            torn
        );
        let before = tree(&dir);
        let again = kind.scrub(&scs, &setup).unwrap();
        assert!(again.is_clean(), "{kind:?}: {again:?}");
        assert_eq!(tree(&dir), before, "{kind:?}: a clean scrub moved bytes");
        let (resumed, _) = kind.resume(&scs, &setup).unwrap();
        assert_eq!(resumed.committed(), 3);
    }
}

#[test]
fn a_lost_checkpoint_is_refused_not_cold_started() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "lost-full");
        let setup = Setup::durable(uncompacted(dir.clone()));
        let mut p = kind.start(&scs, &setup);
        p.run(2);
        p.checkpoint(); // a full record
        p.run(2);
        p.checkpoint(); // a delta on it; rounds 0..4 are in the round log
        p.round();
        drop(p);
        // Every shard's full rots: no lineage validates, and its intact
        // delta can never be applied again.
        for i in 0..kind.shards() {
            let records = chain_records(&shard_dir(&dir, i));
            let full = records.iter().find(|p| p.extension().unwrap() == "full");
            let full = full.unwrap();
            let mut bytes = std::fs::read(full).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(full, bytes).unwrap();
        }
        // Resuming at round 0 would drop every acked round quietly: a
        // scrub, a second scrub and a resume each refuse, naming them,
        // and none moves a byte.
        let before = tree(&dir);
        for what in ["scrub", "second scrub", "resume"] {
            let refusal = match what {
                "resume" => kind.resume(&scs, &setup).err(),
                _ => kind.scrub(&scs, &setup).err(),
            };
            let lost = Some(DurabilityError::RoundsLost { committed: 4 });
            assert_eq!(refusal, lost, "{kind:?} {what}");
            assert_eq!(tree(&dir), before, "{kind:?}: a refused {what} moved bytes");
        }
    }
}

#[test]
fn total_loss_is_refused_untouched_not_cold_started() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "total-loss");
        let setup = Setup::durable(uncompacted(dir.clone()));
        for i in 0..kind.shards() {
            std::fs::create_dir_all(shard_dir(&dir, i).join("chain")).unwrap();
        }
        // Nothing intact is left of shard 0: a checkpoint-shaped and a
        // journal-shaped file of garbage.
        let shard = shard_dir(&dir, 0);
        let record = shard.join("chain").join(format!("chain-{:020}.full", 0));
        std::fs::write(record, b"checkpoint-shaped garbage").unwrap();
        std::fs::write(shard.join("hive.wal"), b"journal-shaped garbage").unwrap();
        let before = tree(&dir);
        let lost = Some(DurabilityError::RoundsLost { committed: 0 });
        assert_eq!(kind.scrub(&scs, &setup).err(), lost, "{kind:?}");
        assert_eq!(kind.resume(&scs, &setup).err(), lost, "{kind:?}");
        assert_eq!(tree(&dir), before, "{kind:?}: a refusal moved bytes");
    }
}

#[test]
fn a_record_file_under_a_non_canonical_name_is_quarantined_once() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "odd-name");
        let setup = Setup::durable(uncompacted(dir.clone()));
        checkpointed_campaign(kind, &scs, &setup);
        let healthy = |tag: &str| {
            let twin = campaign_dir(kind, tag);
            copy_tree(&dir, &twin);
            let (p, report) = kind
                .resume(&scs, &Setup::durable(uncompacted(twin)))
                .unwrap();
            (p.states(), p.history(), report.target_round)
        };
        let expected = healthy("odd-name-twin");
        let chain = shard_dir(&dir, 0).join("chain");
        std::fs::write(chain.join("chain-7.delta"), [1, 2, 3, 4]).unwrap();

        let plan = kind.scrub(&scs, &setup).unwrap();
        assert_eq!(defect_files(&plan.shards[0]), ["chain-7.delta"], "{kind:?}");
        assert!(!chain.join("chain-7.delta").exists());
        let moved = std::fs::read(chain.join("chain-7.delta.quarantined")).unwrap();
        assert_eq!(moved, [1, 2, 3, 4]);
        let again = kind.scrub(&scs, &setup).unwrap();
        assert!(again.is_clean(), "{kind:?}: {again:?}");
        assert_eq!(healthy("odd-name-after"), expected, "{kind:?}");
    }
}

#[test]
fn a_scrub_creates_nothing_on_a_root_without_a_campaign() {
    for kind in KINDS {
        let scs = kind.scenarios();
        let dir = campaign_dir(kind, "scrub-empty-root");
        let plan = kind.scrub(&scs, &Setup::durable(DurabilityConfig::new(&dir)));
        let plan = plan.unwrap();
        assert_eq!(plan.shards.len(), kind.shards());
        assert!(plan.is_clean());
        assert_eq!(tree(&dir), Vec::new(), "{kind:?}: the scrub created files");
    }
}

/// One campaign of each kind to mutate: two checkpoints (a full and a
/// delta chain record per shard, two rounds in the round log) and a
/// third round in each journal.
fn totality_templates() -> &'static [std::path::PathBuf; 2] {
    static TEMPLATES: std::sync::OnceLock<[std::path::PathBuf; 2]> = std::sync::OnceLock::new();
    TEMPLATES.get_or_init(|| {
        KINDS.map(|kind| {
            let scs = kind.scenarios();
            let dir = campaign_dir(kind, "totality-template");
            let mut p = kind.start(&scs, &Setup::durable(uncompacted(dir.clone())));
            for _ in 0..2 {
                p.round();
                p.checkpoint();
            }
            p.round();
            dir
        })
    })
}

static NEXT_CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One bit flip, one cut or appended bytes in the round log, a
    /// shard's journal or a chain record: scrub and resume execute one
    /// plan. The scrub returns `Ok` or a typed error, never panics, and
    /// a resume of an unscrubbed copy refuses exactly when the scrub
    /// does, with the same error, while a refusing scrub moves no byte.
    /// After an `Ok` the change is flagged — unless it cut an
    /// append-only file at a record boundary, which leaves a shorter
    /// file of intact records — a second scrub is clean and moves no
    /// byte, and resuming the scrubbed campaign reaches the round,
    /// shard states and history the unscrubbed copy's resume reached.
    #[test]
    fn scrub_is_total_over_one_mutation(
        kind in 0..2usize,
        target in 0..3u8,
        pick in any::<u64>(),
        op in 0..3u8,
        at in any::<u64>(),
        tail in collection::vec(any::<u8>(), 1..40),
    ) {
        let kind = KINDS[kind];
        let scs = kind.scenarios();
        let n = NEXT_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = campaign_dir(kind, &format!("totality-{n}"));
        copy_tree(&totality_templates()[(kind == Kind::Fleet) as usize], &dir);
        let setup = Setup::durable(uncompacted(dir.clone()));
        let shard = shard_dir(&dir, pick as usize % kind.shards());
        let path = match target {
            0 => dir.join("rounds.log"),
            1 => shard.join("hive.wal"),
            _ => {
                let records = chain_records(&shard);
                records[(pick / 2) as usize % records.len()].clone()
            }
        };
        let mut bytes = std::fs::read(&path).unwrap();
        prop_assert!(!bytes.is_empty());
        let at = at as usize % bytes.len();
        let record_ends: Vec<usize> = journal::scan(&bytes)
            .0
            .iter()
            .scan(0, |end, r| {
                *end += r.encoded_len();
                Some(*end)
            })
            .collect();
        let unseen = match op {
            0 => {
                bytes[at] ^= 1 << (pick % 8);
                false
            }
            1 => {
                bytes.truncate(at);
                target < 2 && (at == 0 || record_ends.contains(&at))
            }
            _ => {
                bytes.extend_from_slice(&tail);
                false
            }
        };
        std::fs::write(&path, &bytes).unwrap();
        let twin = campaign_dir(kind, &format!("totality-{n}-twin"));
        copy_tree(&dir, &twin);
        let unscrubbed = kind.resume(&scs, &Setup::durable(uncompacted(twin.clone())));

        let before = tree(&dir);
        match (kind.scrub(&scs, &setup), unscrubbed) {
            (Err(scrubbed), Err(resumed)) => {
                let (dir, twin) = (dir.display().to_string(), twin.display().to_string());
                prop_assert_eq!(scrubbed.to_string(), resumed.to_string().replace(&twin, &dir));
                prop_assert!(tree(Path::new(&dir)) == before, "{kind:?}: a refused scrub moved bytes");
            }
            (Ok(plan), Ok((resumed, _))) => {
                prop_assert!(
                    unseen || !plan.is_clean(),
                    "{kind:?}: {} changed unflagged: {plan:?}",
                    path.display()
                );
                let before = tree(&dir);
                let again = kind.scrub(&scs, &setup);
                prop_assert!(
                    again.as_ref().is_ok_and(CampaignPlan::is_clean),
                    "{kind:?}: second scrub {again:?}"
                );
                prop_assert!(tree(&dir) == before, "{kind:?}: a second scrub moved bytes");
                let after = kind.resume(&scs, &setup);
                let (scrubbed, _) = after.unwrap_or_else(|e| panic!("{kind:?}: {e}"));
                prop_assert_eq!(scrubbed.committed(), resumed.committed(), "{:?}", kind);
                prop_assert!(scrubbed.states() == resumed.states(), "{kind:?}: states");
                prop_assert_eq!(scrubbed.history(), resumed.history());
            }
            (scrubbed, resumed) => prop_assert!(
                false,
                "{kind:?}: scrub {:?} but resume {:?}",
                scrubbed.map(|p| p.target_round),
                resumed.map(|(p, _)| p.committed())
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&twin);
    }
}

/// The chain files a shard's plan quarantines.
fn defect_files(shard: &softborg::ShardPlan) -> Vec<String> {
    shard.chain.defects.iter().map(|d| d.file.clone()).collect()
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
    rewrite_records(dir, shard, REC_ROUND, rewrite);
}

/// Rewrites every body of record kind `kind` in `shard`'s journal with
/// `rewrite`, re-appending each record with `journal::append_record`.
fn rewrite_records(dir: &Path, shard: usize, kind: u8, rewrite: impl Fn(&[u8]) -> Vec<u8>) {
    let wal = shard_dir(dir, shard).join("hive.wal");
    let wal_bytes = std::fs::read(&wal).unwrap();
    let (records, scan) = journal::scan(&wal_bytes);
    assert!(scan.tail_error.is_none());
    let mut bytes = Vec::new();
    for rec in &records {
        let body = match rec.kind {
            k if k == kind => rewrite(rec.frame),
            _ => rec.frame.to_vec(),
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

        // (d) The layout before pod deltas and the round log: full pod
        // images in every `REC_PODS` body, and round history inside
        // every checkpoint's app-meta — in the journal alone, and in the
        // checkpoints alone.
        for (what, checkpointed) in [("pod-image journal", false), ("history checkpoints", true)] {
            let dir = campaign_dir(kind, &format!("pre-delta-{checkpointed}"));
            let setup = Setup::durable(uncompacted(dir.clone()));
            let mut p = kind.start(&scs, &setup);
            p.run(2);
            if checkpointed {
                p.checkpoint();
            }
            let lanes = lane_images(&p);
            drop(p);
            make_pre_delta_layout(&dir, kind.shards(), &lanes);
            assert_refused_untouched(kind, &scs, &setup, &dir, what);
        }

        // (e) Frames in the layout before deduplicated batches: every
        // execution's payload behind its length, no indices — in the
        // last shard's journal, so a campaign's other shards hold
        // frames this build reads.
        let dir = campaign_dir(kind, "one-payload-frames");
        let setup = Setup::durable(uncompacted(dir.clone()));
        kind.start(&scs, &setup).run(2);
        rewrite_records(&dir, kind.shards() - 1, REC_FRAME, |body| {
            one_payload_per_execution_frame(&wire::decode_batch(body).unwrap())
        });
        assert_refused_untouched(kind, &scs, &setup, &dir, "one-payload-per-execution frames");
        match kind.resume(&scs, &setup) {
            Err(DurabilityError::Corrupt(msg)) => assert!(
                msg.contains("older one-payload-per-execution batch layout"),
                "{kind:?}: {msg}"
            ),
            other => panic!("{kind:?}: expected Corrupt, got {:?}", other.err()),
        }

        // (f) Frames in the layout before `softborg_obs::checksum`: the
        // same frame under `SBF2` with an FNV-1a checksum, inside
        // records this build reads.
        let dir = campaign_dir(kind, "fnv1a-frames");
        let setup = Setup::durable(uncompacted(dir.clone()));
        kind.start(&scs, &setup).run(2);
        rewrite_records(&dir, kind.shards() - 1, REC_FRAME, |body| {
            let mut frame = b"SBF2".to_vec();
            frame.extend_from_slice(&body[4..body.len() - 8]);
            let sum = softborg::obs::fnv1a_step(softborg::obs::FNV_OFFSET, &frame[4..]);
            frame.extend_from_slice(&sum.to_le_bytes());
            frame
        });
        assert_refused_untouched(kind, &scs, &setup, &dir, "FNV-1a frames");
        assert_refused_as_older(kind, &scs, &setup, "older FNV-1a-checksummed batch layout");

        // (g) Campaigns the build before `softborg_obs::checksum` wrote
        // (`tests/fixtures/older-layout`): FNV-1a journal and round-log
        // records, `SBF2` frames, `SBCHAIN\x01` chain records. A journal
        // has no magic, so its first record is told by its FNV-1a
        // checksum, and must be refused, never cut as a torn tail. The
        // checkpointed campaign is refused by its round log, and, with
        // the round log gone, by its chain alone.
        let variants = [
            ("journal", true),
            ("checkpointed", true),
            ("checkpointed", false),
        ];
        for (variant, round_log) in variants {
            let name = format!(
                "{}-{variant}",
                if kind.shards() == 1 { "one" } else { "fleet" }
            );
            let dir = campaign_dir(kind, &format!("written-by-fnv1a-{variant}-{round_log}"));
            copy_tree(&Path::new(FIXTURES).join(&name), &dir);
            if !round_log {
                std::fs::remove_file(dir.join("rounds.log")).unwrap();
            }
            for shard in 0..kind.shards() {
                // Git keeps no empty directory; the build left one here.
                std::fs::create_dir_all(shard_dir(&dir, shard).join("chain")).unwrap();
            }
            let setup = Setup::durable(uncompacted(dir.clone()));
            assert_refused_untouched(kind, &scs, &setup, &dir, &name);
            assert_refused_as_older(kind, &scs, &setup, "older layout");
        }
    }
}

/// Campaign directories an older build wrote, checked in.
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/older-layout");

/// Copies the directory tree at `from` into `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

/// Resume and scrub both refuse the campaign for its layout, naming it.
fn assert_refused_as_older(kind: Kind, scs: &[Scenario], setup: &Setup, what: &str) {
    let resumed = kind.resume(scs, setup).err();
    let scrubbed = kind.scrub(scs, setup).err();
    for refusal in [resumed, scrubbed] {
        match refusal {
            Some(DurabilityError::Corrupt(msg)) => assert!(msg.contains(what), "{kind:?}: {msg}"),
            other => panic!("{kind:?}: expected Corrupt naming {what:?}, got {other:?}"),
        }
    }
}

/// A batch frame in the layout before deduplicated batches: `SBF1`
/// magic, trace count (u32), payload length (u64), one length-prefixed
/// payload per trace, FNV-1a checksum of all but the magic.
fn one_payload_per_execution_frame(traces: &[softborg::trace::ExecutionTrace]) -> Vec<u8> {
    let mut payload = Vec::new();
    for t in traces {
        let enc = wire::encode(t);
        payload.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        payload.extend_from_slice(&enc);
    }
    let mut frame = b"SBF1".to_vec();
    frame.extend_from_slice(&(traces.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&payload);
    let checksum = softborg::obs::fnv1a_step(softborg::obs::FNV_OFFSET, &frame[4..]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Every lane's pod images, in lane order.
fn lane_images(p: &Run<'_>) -> Vec<Vec<PodState>> {
    match p {
        Run::One(p) => vec![p.export_pod_states()],
        Run::Fleet(p) => p.export_pod_states(),
    }
}

/// Rewrites a campaign into the layout before pod deltas: each
/// `REC_PODS` body becomes the lane's full images (`lanes`, the pods at
/// the campaign's last round), each chain record's app-meta the older
/// `u64 round | u32 n | history | lane images` (history read from the
/// round log), relinked; and the round log goes.
fn make_pre_delta_layout(dir: &Path, shards: usize, lanes: &[Vec<PodState>]) {
    let log = std::fs::read(dir.join("rounds.log")).unwrap_or_default();
    let history = softborg::decode_round_log(&log).unwrap().reports;
    let images = |lane: usize| {
        let mut body = Vec::new();
        codec::put_u32(&mut body, lanes[lane].len() as u32);
        for pod in &lanes[lane] {
            codec::put_bytes(&mut body, &pod.encode());
        }
        body
    };
    for shard in 0..shards {
        let wal = shard_dir(dir, shard).join("hive.wal");
        let wal_bytes = std::fs::read(&wal).unwrap();
        let (records, _) = journal::scan(&wal_bytes);
        let mut bytes = Vec::new();
        for rec in &records {
            let body = match rec.kind {
                REC_PODS => images(rec.session as usize),
                _ => rec.frame.to_vec(),
            };
            journal::append_record(&mut bytes, rec.kind, rec.session, rec.seq, &body);
        }
        std::fs::write(&wal, bytes).unwrap();

        let mut parent = 0;
        for path in chain_records(&shard_dir(dir, shard)) {
            let file = std::fs::read(&path).unwrap();
            let rec = decode_record(&file).unwrap();
            let mut snap = HiveSnapshot::decode(rec.payload).unwrap();
            let mut r = codec::Reader::new(&snap.app_meta);
            let (_tag, round) = (r.u64("tag").unwrap(), r.u64("round").unwrap());
            let mut old = Vec::new();
            codec::put_u64(&mut old, round);
            codec::put_u32(&mut old, round as u32);
            for report in &history[..round as usize] {
                report.encode_into(&mut old);
            }
            old.extend_from_slice(&snap.app_meta[16..]); // the lanes' images, unchanged
            snap.app_meta = old;
            let parent_of = |kind| if kind == RecordKind::Full { 0 } else { parent };
            let bytes = encode_record(
                rec.kind,
                rec.generation,
                parent_of(rec.kind),
                &snap.encode(),
            );
            parent = decode_record(&bytes).unwrap().body_checksum;
            std::fs::write(&path, bytes).unwrap();
        }
    }
    let _ = std::fs::remove_file(dir.join("rounds.log"));
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
