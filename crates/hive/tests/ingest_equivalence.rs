//! The pipelined batch-ingest path must be observably identical to the
//! serial `Hive::ingest` loop — same `HiveStats`, same tree digest, same
//! coverage — for *any* batch size, worker count, and queue bound, and
//! corrupt frames must be counted and skipped without panicking.

mod common;

use common::{assert_same_state, pod_traces, scenario, serial_hive};
use proptest::prelude::*;
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{BackpressurePolicy, IngestConfig};
use softborg_program::scenarios;
use softborg_trace::{wire, ExecutionTrace};

fn frames_of(traces: &[ExecutionTrace], batch: usize) -> Vec<Vec<u8>> {
    traces
        .chunks(batch.max(1))
        .map(wire::encode_batch)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any workload, trace count, batch size, worker count, and
    /// queue capacity, pipelined ingest reproduces serial ingest
    /// exactly.
    #[test]
    fn pipelined_equals_serial(
        scenario_idx in 0usize..4,
        seed in 0u64..1_000,
        n in 1usize..48,
        batch in 1usize..17,
        workers in 1usize..5,
        queue_capacity in 1usize..9,
        memo in 0usize..2,
    ) {
        let s = scenario(scenario_idx);
        let traces = pod_traces(&s, seed, n);
        let reference = serial_hive(&s, &traces);

        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let stats = hive.ingest_batch(
            frames_of(&traces, batch),
            &IngestConfig {
                workers,
                queue_capacity,
                merge_capacity: queue_capacity,
                policy: BackpressurePolicy::Block,
                // Exercise both the recycling path and the cold path.
                memo_capacity: memo * 4096,
                ..IngestConfig::default()
            },
        );
        assert_same_state("pipelined vs serial", &reference, &hive);
        prop_assert_eq!(stats.frames_corrupt, 0);
        prop_assert_eq!(stats.frames_dropped, 0);
        prop_assert_eq!(stats.traces_merged, n as u64);
        prop_assert_eq!(stats.frames_merged, frames_of(&traces, batch).len() as u64);
    }
}

#[test]
fn corrupt_frame_is_counted_and_skipped() {
    let s = scenarios::token_parser();
    let traces = pod_traces(&s, 7, 30);
    // Serial reference sees only the surviving traces (first and last
    // ten): the middle frame will be corrupted.
    let surviving: Vec<ExecutionTrace> =
        traces[..10].iter().chain(&traces[20..]).cloned().collect();
    let reference = serial_hive(&s, &surviving);

    let mut frames = frames_of(&traces, 10);
    assert_eq!(frames.len(), 3);
    // Flip a payload byte in the middle frame: checksum must catch it.
    let mid = frames[1].len() / 2;
    frames[1][mid] ^= 0xA5;

    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let stats = hive.ingest_batch(frames, &IngestConfig::default());
    assert_eq!(stats.frames_corrupt, 1, "corruption must be counted");
    assert_eq!(
        stats.frames_merged, 3,
        "corrupt frame still consumes its slot"
    );
    assert_eq!(stats.traces_merged, 20);
    assert_same_state("pipelined vs serial", &reference, &hive);
}

#[test]
fn truncated_and_garbage_frames_never_panic() {
    let s = scenarios::triangle();
    let traces = pod_traces(&s, 1, 8);
    let good = wire::encode_batch(&traces);
    for cut in 0..good.len() {
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let stats = hive.ingest_batch(vec![good[..cut].to_vec()], &IngestConfig::default());
        assert_eq!(stats.frames_corrupt, 1, "cut at {cut}");
        assert_eq!(hive.stats().traces, 0);
    }
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let garbage = vec![vec![0xFF; 64], Vec::new(), vec![0x00; 3]];
    let stats = hive.ingest_batch(garbage, &IngestConfig::default());
    assert_eq!(stats.frames_corrupt, 3);
}

#[test]
fn unknown_overlay_version_counts_unreconstructed_in_both_paths() {
    let s = scenarios::token_parser();
    let mut traces = pod_traces(&s, 3, 12);
    for t in traces.iter_mut().skip(6) {
        t.overlay_version = 99; // version the hive never distributed
    }
    let reference = serial_hive(&s, &traces);
    assert_eq!(reference.stats().unreconstructed, 6);

    let mut hive = Hive::new(&s.program, HiveConfig::default());
    hive.ingest_batch(frames_of(&traces, 5), &IngestConfig::default());
    assert_same_state("pipelined vs serial", &reference, &hive);
}

#[test]
fn drop_oldest_sheds_frames_but_keeps_accounting_consistent() {
    let s = scenarios::token_parser();
    let traces = pod_traces(&s, 11, 200);
    let frames = frames_of(&traces, 2);
    let n_frames = frames.len() as u64;
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let stats = hive.ingest_batch(
        frames,
        &IngestConfig {
            workers: 1,
            queue_capacity: 1,
            merge_capacity: 1,
            policy: BackpressurePolicy::DropOldest,
            memo_capacity: 0,
            ..IngestConfig::default()
        },
    );
    assert_eq!(stats.frames_submitted, n_frames);
    assert_eq!(
        stats.frames_merged + stats.frames_dropped,
        n_frames,
        "every frame is either merged or accounted as dropped"
    );
    assert_eq!(hive.stats().traces, stats.traces_merged);
    // Whatever survived must have been merged in order and reconstruct
    // cleanly.
    assert_eq!(hive.stats().unreconstructed, 0);
}
