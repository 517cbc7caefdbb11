//! Durability across *process lifetimes*: a journal cut at any byte
//! offset (crash) or bit-flipped (torn write) still recovers a clean
//! prefix; a restarted server seeded from that journal deduplicates
//! client resends instead of double-ingesting them; and a snapshot in
//! its checksummed chain record rejects every corruption. (Falling back to the previous
//! chain lineage when the newest checkpoint is torn is
//! `torn_newest_full_falls_back_to_the_previous_lineage` in
//! `softborg-store`'s `store_props`.)

mod common;

use common::{assert_same_state, pod_traces, scenario, serial_hive, sessions_of};
use proptest::prelude::*;
use softborg_hive::journal::{self, REC_FRAME, REC_TOMBSTONE};
use softborg_hive::snapshot::HiveSnapshot;
use softborg_hive::transport::{run_reliable_ingest, TransportConfig};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_store::chain::{decode_record, encode_record, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;

/// The satellite regression: the server process crashes *after* the
/// journal sync but *before* any ack reaches the clients. On restart
/// every client resends its whole session. A server seeded from the
/// prior journal re-acks the duplicates; a naive restart double-ingests
/// every trace.
#[test]
fn resends_after_restart_are_deduplicated_not_double_ingested() {
    let s = scenario(0);
    let traces = pod_traces(&s, 11, 36);
    let reference = serial_hive(&s, &traces);
    let sessions = sessions_of(&traces, 3, 3);
    let cfg = TransportConfig::default();

    let mut first = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(
        &mut first,
        sessions.clone(),
        &IngestConfig::default(),
        &cfg,
        &[],
    )
    .expect("valid default plan");
    assert!(report.completed);
    let prior = report.journal;

    // Restart: the hive rebuilds from its journal, the clients (which
    // never saw an ack) resend everything.
    let (mut restarted, rec) = Hive::recover(
        &s.program,
        HiveConfig::default(),
        &IngestConfig::default(),
        &prior,
    );
    assert!(!rec.tail_damaged);
    let (resumed, _) = run_reliable_ingest(
        &mut restarted,
        sessions.clone(),
        &IngestConfig::default(),
        &cfg,
        &prior,
    )
    .expect("valid default plan");
    let total_frames = sessions.iter().map(Vec::len).sum::<usize>() as u64;
    assert!(
        resumed.completed,
        "resends must still be acked: {resumed:?}"
    );
    assert_eq!(resumed.delivered, 0, "every resend must be deduplicated");
    assert_eq!(resumed.acked, 0, "dedup re-acks must not re-journal");
    assert!(
        resumed.duplicates >= total_frames,
        "every resent frame should be recognized: {resumed:?}"
    );
    assert_same_state("resumed restart vs serial", &reference, &restarted);

    // Negative control: without seeding, the restarted server happily
    // ingests every frame a second time.
    let (mut naive, _) = Hive::recover(
        &s.program,
        HiveConfig::default(),
        &IngestConfig::default(),
        &prior,
    );
    let (naive_report, _) =
        run_reliable_ingest(&mut naive, sessions, &IngestConfig::default(), &cfg, &[])
            .expect("valid default plan");
    assert!(naive_report.completed);
    assert_eq!(
        naive.stats().traces,
        2 * reference.stats().traces,
        "control arm should expose the double-ingest hole"
    );
}

/// Crash part-way through the stream: some frames synced (and possibly
/// acked), the rest still owned by the clients. Recovery + a seeded
/// resumed run lands on exactly the serial state — nothing lost,
/// nothing duplicated.
#[test]
fn partial_journal_resume_completes_without_loss_or_duplication() {
    let s = scenario(2);
    let traces = pod_traces(&s, 23, 40);
    let reference = serial_hive(&s, &traces);
    let sessions = sessions_of(&traces, 4, 2);
    let cfg = TransportConfig::default();

    let mut first = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(
        &mut first,
        sessions.clone(),
        &IngestConfig::default(),
        &cfg,
        &[],
    )
    .expect("valid default plan");
    // The crash cuts the journal mid-byte; scan finds the record
    // boundary for us.
    let cut = report.journal.len() * 3 / 5;
    let (records, scan) = journal::scan(&report.journal[..cut]);
    let prior = &report.journal[..scan.valid_len];
    let survivors: u64 = records.iter().filter(|r| r.kind == REC_FRAME).count() as u64;

    let (mut restarted, _) = Hive::recover(
        &s.program,
        HiveConfig::default(),
        &IngestConfig::default(),
        prior,
    );
    let (resumed, _) = run_reliable_ingest(
        &mut restarted,
        sessions,
        &IngestConfig::default(),
        &cfg,
        prior,
    )
    .expect("valid default plan");
    assert!(resumed.completed);
    assert_eq!(
        resumed.delivered + survivors,
        report.acked,
        "resumed run must deliver exactly the frames the crash lost"
    );
    assert_same_state("partial resume vs serial", &reference, &restarted);
}

/// Deterministic bytes for snapshot proptests (the vendored proptest
/// has no collection strategies — derive content from a seed instead).
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xFF) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any crash offset and any single bit-flip leave a scannable
    /// journal prefix whose replay equals a serial ingest of exactly the
    /// surviving frames — and a server seeded from that prefix finishes
    /// the stream to the full serial state.
    #[test]
    fn any_crash_offset_recovers_a_prefix_and_resume_finishes_the_stream(
        scenario_idx in 0usize..4,
        seed in 0u64..500,
        n in 4usize..30,
        pods in 1usize..4,
        batch in 1usize..5,
        cut_seed in 0usize..10_000,
        // Sentinel: 0 = no bit flip, else flips bit (flip - 1) % bits.
        flip in 0u64..5_000,
    ) {
        let s = scenario(scenario_idx);
        let traces = pod_traces(&s, seed, n);
        let reference = serial_hive(&s, &traces);
        let sessions = sessions_of(&traces, pods, batch);
        let cfg = TransportConfig { seed: seed ^ 0xD15C, ..TransportConfig::default() };

        let mut live = Hive::new(&s.program, HiveConfig::default());
        let (report, _) = run_reliable_ingest(
            &mut live, sessions.clone(), &IngestConfig::default(), &cfg, &[],
        ).expect("valid default plan");
        prop_assert!(report.completed);

        // Crash: keep an arbitrary prefix, then maybe flip one bit in it.
        let mut damaged = report.journal[..cut_seed % (report.journal.len() + 1)].to_vec();
        if flip > 0 && !damaged.is_empty() {
            let bit = (flip - 1) as usize % (damaged.len() * 8);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }

        // The scan yields a prefix of intact records with consistent
        // session floors.
        let (records, scan) = journal::scan(&damaged);
        prop_assert!(scan.valid_len <= damaged.len());
        prop_assert_eq!(scan.valid_len + scan.tail_dropped, damaged.len());
        let mut floors: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &records {
            if r.kind == REC_FRAME || r.kind == REC_TOMBSTONE {
                let f = floors.entry(r.session).or_insert(0);
                *f = (*f).max(r.seq + 1);
            }
        }
        prop_assert_eq!(&journal::session_floors(&records), &floors);

        // Recovery equals a serial ingest of exactly the frames that
        // survived the crash.
        let (recovered, rec) = Hive::recover(
            &s.program, HiveConfig::default(), &IngestConfig::default(), &damaged,
        );
        prop_assert_eq!(rec.tail_dropped, scan.tail_dropped as u64);
        let mut survivors = Vec::new();
        for r in records.iter().filter(|r| r.kind == REC_FRAME) {
            survivors.extend(wire::decode_batch(r.frame).expect("intact record decodes"));
        }
        prop_assert_eq!(rec.frames_replayed + rec.tombstones_skipped, records.len() as u64);
        let partial_reference = serial_hive(&s, &survivors);
        assert_same_state("recovered vs surviving prefix", &partial_reference, &recovered);

        // A server seeded from the surviving prefix finishes the stream:
        // resent frames below the floor are deduplicated, the rest are
        // ingested once — landing on the full serial state.
        let mut restarted = recovered;
        let (resumed, _) = run_reliable_ingest(
            &mut restarted, sessions, &IngestConfig::default(), &cfg,
            &damaged[..scan.valid_len],
        ).expect("valid default plan");
        prop_assert!(resumed.completed);
        assert_same_state("crash + resume vs serial", &reference, &restarted);
    }

    /// Snapshot decode is a total function: the encoding roundtrips and
    /// every truncation is rejected. A snapshot carries no checksum of
    /// its own; the chain record it is stored in rejects every
    /// truncation and every single-bit flip — never mis-decoded.
    #[test]
    fn snapshot_corruption_is_always_detected(
        state_seed in 0u64..1_000,
        state_len in 0usize..300,
        n_sessions in 0u64..5,
        wal_covered in 0u64..100_000,
        meta_len in 0usize..60,
        cut_pct in 0usize..100,
        flip in 0u64..4_000,
    ) {
        let snap = HiveSnapshot {
            state: seeded_bytes(state_seed, state_len),
            sessions: (0..n_sessions).map(|i| (i, state_seed.wrapping_add(i))).collect(),
            wal_covered,
            wal_covered_hash: state_seed.rotate_left(17),
            app_meta: seeded_bytes(!state_seed, meta_len),
        };
        let bytes = snap.encode();
        prop_assert_eq!(&HiveSnapshot::decode(&bytes).expect("roundtrip"), &snap);

        let cut = bytes.len() * cut_pct / 100;
        prop_assert!(
            HiveSnapshot::decode(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be rejected", bytes.len()
        );
        let record = encode_record(RecordKind::Delta, state_seed, n_sessions, &bytes);
        let cut = record.len() * cut_pct / 100;
        prop_assert!(decode_record(&record[..cut]).is_err(), "record cut to {}", cut);
        let mut flipped = record.clone();
        let bit = flip as usize % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_record(&flipped).is_err(),
            "bit flip at {bit} of the chain record must be rejected"
        );
    }
}
