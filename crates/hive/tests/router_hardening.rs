//! Router hardening: every way a frame can disagree with its claimed
//! slot — wire corruption, a content program no shard owns, payloads
//! from two programs in one batch, a healthy frame claimed against the
//! wrong program — must be counted, consume its slot and merge nothing:
//! never panic, never silently drop, and never disturb the byte-identity
//! of healthy traffic.

mod common;

use common::{pod_traces, serial_hive};
use softborg_hive::{HiveConfig, ShardedHive};
use softborg_ingest::{IngestConfig, ShardError};
use softborg_program::scenarios;
use softborg_program::{Program, ProgramId};
use softborg_trace::wire;

#[test]
fn corrupt_frames_consume_their_slot_and_spare_healthy_traffic() {
    let s = scenarios::token_parser();
    let programs: Vec<&Program> = vec![&s.program];
    let id = s.program.id();
    let traces = pod_traces(&s, 3, 30);
    // The middle frame gets a flipped payload byte; serial reference
    // sees only the surviving traces.
    let reference = serial_hive(
        &s,
        &traces[..10]
            .iter()
            .chain(&traces[20..])
            .cloned()
            .collect::<Vec<_>>(),
    )
    .encode_state();
    let mut frames: Vec<Vec<u8>> = traces.chunks(10).map(wire::encode_batch).collect();
    let mid = frames[1].len() / 2;
    frames[1][mid] ^= 0xA5;

    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let stats = sharded
        .ingest_batch(
            frames.into_iter().map(|f| (id, f)).collect(),
            &IngestConfig::default(),
        )
        .unwrap();
    assert_eq!(stats.frames_corrupt, 1, "corruption must be counted");
    assert_eq!(stats.frames_merged, 3, "corrupt slot still consumed");
    assert_eq!(stats.traces_merged, 20);
    let shard = sharded.map().shard_of(id).unwrap();
    assert_eq!(stats.per_shard[shard].frames_corrupt, 1);
    assert_eq!(sharded.hive(id).unwrap().encode_state(), reference);
}

#[test]
fn truncated_and_garbage_frames_never_panic() {
    let s = scenarios::triangle();
    let programs: Vec<&Program> = vec![&s.program];
    let id = s.program.id();
    let good = wire::encode_batch(&pod_traces(&s, 1, 8));
    for cut in 0..good.len() {
        let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
        let stats = sharded
            .ingest_batch(vec![(id, good[..cut].to_vec())], &IngestConfig::default())
            .unwrap();
        assert_eq!(stats.frames_corrupt, 1, "cut at {cut}");
        assert_eq!(stats.traces_merged, 0);
    }
    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let garbage = vec![vec![0xFF; 64], Vec::new(), vec![0x00; 3]];
    let stats = sharded
        .ingest_batch(
            garbage.into_iter().map(|f| (id, f)).collect(),
            &IngestConfig::default(),
        )
        .unwrap();
    assert_eq!(stats.frames_corrupt, 3);
    assert_eq!(stats.frames_merged, 3, "all slots consumed");
}

#[test]
fn unknown_content_program_is_typed_counted_and_slot_consuming() {
    let known = scenarios::token_parser();
    let stranger = scenarios::spin_wait(); // never placed on any shard
    let programs: Vec<&Program> = vec![&known.program];
    let known_id = known.program.id();
    let stranger_id = stranger.program.id();
    assert_ne!(known_id, stranger_id);

    let known_traces = pod_traces(&known, 5, 12);
    let reference = serial_hive(&known, &known_traces).encode_state();
    let stranger_frame = wire::encode_batch(&pod_traces(&stranger, 5, 4));

    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    // Interleave: healthy, unroutable (claimed against the known lane),
    // healthy — the unroutable slot must not stall the lane.
    let frames = vec![
        (known_id, wire::encode_batch(&known_traces[..6])),
        (known_id, stranger_frame),
        (known_id, wire::encode_batch(&known_traces[6..])),
    ];
    let stats = sharded
        .ingest_batch(frames, &IngestConfig::default())
        .unwrap();
    assert_eq!(stats.frames_unknown_program, 1);
    assert_eq!(stats.frames_corrupt, 0);
    assert_eq!(stats.frames_merged, 3, "unknown slot still consumed");
    assert_eq!(
        stats.traces_merged, 12,
        "stranger traces must not merge anywhere"
    );
    assert!(
        stats.error_samples.contains(&ShardError::UnknownProgram {
            program: stranger_id
        }),
        "typed error sample missing: {:?}",
        stats.error_samples
    );
    assert_eq!(sharded.hive(known_id).unwrap().encode_state(), reference);
}

#[test]
fn mixed_program_frame_is_rejected_as_corrupt() {
    let a = scenarios::token_parser();
    let b = scenarios::triangle();
    let programs: Vec<&Program> = vec![&a.program, &b.program];
    let a_id = a.program.id();

    // One batch frame containing payloads from two different programs:
    // unclassifiable, so the router must treat it as corrupt.
    let mut mixed = pod_traces(&a, 1, 2);
    mixed.extend(pod_traces(&b, 1, 2));
    let frame = wire::encode_batch(&mixed);
    assert!(wire::read_batch(&frame).unwrap().program_id().is_err());

    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let stats = sharded
        .ingest_batch(vec![(a_id, frame)], &IngestConfig::default())
        .unwrap();
    assert_eq!(stats.frames_corrupt, 1);
    assert_eq!(stats.traces_merged, 0);
    for (_, hive) in sharded.hives() {
        assert_eq!(hive.stats().traces, 0);
    }
}

#[test]
fn misclaimed_frames_are_refused() {
    let a = scenarios::token_parser();
    let b = scenarios::triangle();
    let programs: Vec<&Program> = vec![&a.program, &b.program];
    let (a_id, b_id) = (a.program.id(), b.program.id());

    let a_traces = pod_traces(&a, 9, 16);
    let b_traces = pod_traces(&b, 9, 12);
    // B's frames are all *claimed* against A's lane (a misconfigured
    // producer): each is counted and refused, its slot in A's lane
    // consumed, so A's hive equals a serial ingest of A's traces and B's
    // hive sees nothing.
    let reference_a = serial_hive(&a, &a_traces).encode_state();
    let untouched_b = serial_hive(&b, &[]).encode_state();

    let mut frames: Vec<(ProgramId, Vec<u8>)> = Vec::new();
    let a_frames: Vec<Vec<u8>> = a_traces.chunks(4).map(wire::encode_batch).collect();
    let b_frames: Vec<Vec<u8>> = b_traces.chunks(4).map(wire::encode_batch).collect();
    for (i, f) in a_frames.into_iter().enumerate() {
        frames.push((a_id, f));
        if let Some(bf) = b_frames.get(i) {
            frames.push((a_id, bf.clone())); // misclaimed!
        }
    }
    let n_frames = frames.len() as u64;

    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let stats = sharded
        .ingest_batch(frames, &IngestConfig::default())
        .unwrap();
    assert_eq!(stats.frames_rerouted, 3);
    assert_eq!(stats.frames_merged, n_frames, "misclaimed slots consumed");
    assert_eq!(stats.traces_merged, 16);
    assert_eq!(sharded.hive(a_id).unwrap().encode_state(), reference_a);
    assert_eq!(sharded.hive(b_id).unwrap().encode_state(), untouched_b);
}

#[test]
fn claiming_an_unknown_program_is_a_typed_submit_error() {
    let s = scenarios::token_parser();
    let stranger = scenarios::spin_wait();
    let programs: Vec<&Program> = vec![&s.program];
    let stranger_id = stranger.program.id();
    let frame = wire::encode_batch(&pod_traces(&s, 2, 2));

    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let err = sharded
        .ingest_batch(vec![(stranger_id, frame)], &IngestConfig::default())
        .unwrap_err();
    assert_eq!(
        err,
        ShardError::UnknownProgram {
            program: stranger_id
        }
    );
}
