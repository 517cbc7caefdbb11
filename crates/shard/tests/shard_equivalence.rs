//! Sharded ingest of interleaved multi-program frames must be
//! per-program **byte-identical** to a serial `Hive::ingest` loop over
//! that program's traces — for any program set, shard count, worker
//! count, batch size, interleaving, and memo scope. Byte-identity is
//! checked on the full state codec (`Hive::encode_state`), the same
//! bytes durability snapshots persist.

use proptest::prelude::*;
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{BackpressurePolicy, IngestConfig};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios::{self, Scenario};
use softborg_program::ProgramId;
use softborg_shard::ShardedHive;
use softborg_trace::{wire, ExecutionTrace};

fn fleet(n: usize) -> Vec<Scenario> {
    let mut all = vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::record_processor(),
        scenarios::bank_transfer(),
        scenarios::racy_counter(),
    ];
    all.truncate(n.max(1));
    all
}

fn pod_traces(s: &Scenario, seed: u64, n: usize) -> Vec<ExecutionTrace> {
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed,
            ..PodConfig::default()
        },
    );
    (0..n).map(|_| pod.run_once().trace).collect()
}

/// Deterministically interleaves each program's frame list into one
/// submission order, spreading programs by a rotating pick driven by
/// `mix` (per-program relative order is preserved — that is the claim).
fn interleave(per_program: Vec<(ProgramId, Vec<Vec<u8>>)>, mix: u64) -> Vec<(ProgramId, Vec<u8>)> {
    let mut queues: Vec<(ProgramId, std::collections::VecDeque<Vec<u8>>)> = per_program
        .into_iter()
        .map(|(p, fs)| (p, fs.into()))
        .collect();
    let mut out = Vec::new();
    let mut state = mix.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    while queues.iter().any(|(_, q)| !q.is_empty()) {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let n_queues = queues.len();
        let pick = (state >> 33) as usize % n_queues;
        for off in 0..n_queues {
            let (p, q) = &mut queues[(pick + off) % n_queues];
            if let Some(f) = q.pop_front() {
                out.push((*p, f));
                break;
            }
        }
    }
    out
}

proptest! {
    // PROPTEST_CASES overrides this default (the CI fault matrix runs
    // at 256).
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any multi-program workload and pipeline shape, each
    /// program's sharded state round-trips byte-identical to its serial
    /// reference.
    #[test]
    fn sharded_equals_serial_per_program(
        n_programs in 1usize..5,
        seed in 0u64..500,
        n in 1usize..28,
        batch in 1usize..9,
        n_shards in 1usize..5,
        workers in 1usize..5,
        queue_capacity in 1usize..9,
        mix in 0u64..1_000,
    ) {
        let scs = fleet(n_programs);
        let programs: Vec<&softborg_program::Program> =
            scs.iter().map(|s| &s.program).collect();

        // Per-program traces + serial reference state bytes.
        let mut per_program_frames = Vec::new();
        let mut reference = Vec::new();
        for (i, s) in scs.iter().enumerate() {
            let traces = pod_traces(s, seed + i as u64, n);
            let frames: Vec<Vec<u8>> =
                traces.chunks(batch).map(wire::encode_batch).collect();
            per_program_frames.push((s.program.id(), frames));
            let mut hive = Hive::new(&s.program, HiveConfig::default());
            for t in &traces {
                hive.ingest(t);
            }
            reference.push((s.program.id(), hive.encode_state()));
        }
        let submissions = interleave(per_program_frames, mix);
        let n_frames = submissions.len() as u64;

        let mut sharded =
            ShardedHive::new(&programs, n_shards, &HiveConfig::default()).unwrap();
        let stats = sharded
            .ingest_batch(
                submissions,
                &IngestConfig {
                    workers,
                    queue_capacity,
                    merge_capacity: queue_capacity,
                    policy: BackpressurePolicy::Block,
                    memo_capacity: 4096,
                    ..IngestConfig::default()
                },
            )
            .unwrap();

        prop_assert_eq!(stats.frames_submitted, n_frames);
        prop_assert_eq!(stats.frames_merged, n_frames);
        prop_assert_eq!(stats.frames_corrupt, 0);
        prop_assert_eq!(stats.frames_dropped, 0);
        prop_assert_eq!(stats.frames_rerouted, 0);
        prop_assert_eq!(stats.frames_unknown_program, 0);
        prop_assert_eq!(stats.traces_merged, (n * scs.len()) as u64);
        // Slot conservation per shard: every frame's slot went to
        // exactly one shard merger.
        prop_assert_eq!(
            stats.per_shard.iter().map(|s| s.frames_merged).sum::<u64>(),
            n_frames
        );

        for (id, want) in reference {
            let got = sharded.hive(id).unwrap().encode_state();
            prop_assert_eq!(
                got, want,
                "program {:#x} state diverged from serial ingest", id.0
            );
        }
    }
}

/// Shard-state snapshot/restore round-trips byte-identically — the
/// primitive per-shard durability is built on.
#[test]
fn shard_state_round_trips_byte_identically() {
    let scs = fleet(4);
    let programs: Vec<&softborg_program::Program> = scs.iter().map(|s| &s.program).collect();
    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let submissions: Vec<(ProgramId, Vec<u8>)> = scs
        .iter()
        .map(|s| {
            let traces = pod_traces(s, 42, 20);
            (s.program.id(), wire::encode_batch(&traces))
        })
        .collect();
    sharded
        .ingest_batch(submissions, &IngestConfig::default())
        .unwrap();

    for shard in 0..sharded.n_shards() {
        let bytes = sharded.encode_shard_state(shard).unwrap();
        let mut restored = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
        restored
            .decode_shard_state(shard, &bytes, &HiveConfig::default())
            .unwrap();
        assert_eq!(
            restored.encode_shard_state(shard).unwrap(),
            bytes,
            "shard {shard} state did not round-trip"
        );
        for id in sharded.map().programs_on(shard) {
            assert_eq!(
                restored.hive(id).unwrap().encode_state(),
                sharded.hive(id).unwrap().encode_state(),
                "hive {:#x} diverged through shard codec",
                id.0
            );
        }
    }
}

/// DropOldest backpressure across programs keeps per-shard accounting
/// conserved: every submitted frame is merged or counted dropped, and
/// surviving traffic still reconstructs cleanly.
#[test]
fn drop_oldest_conserves_slots_across_shards() {
    let scs = fleet(3);
    let programs: Vec<&softborg_program::Program> = scs.iter().map(|s| &s.program).collect();
    let mut per_program = Vec::new();
    for (i, s) in scs.iter().enumerate() {
        let traces = pod_traces(s, 100 + i as u64, 120);
        let frames: Vec<Vec<u8>> = traces.chunks(2).map(wire::encode_batch).collect();
        per_program.push((s.program.id(), frames));
    }
    let submissions = interleave(per_program, 7);
    let n_frames = submissions.len() as u64;
    let mut sharded = ShardedHive::new(&programs, 3, &HiveConfig::default()).unwrap();
    let stats = sharded
        .ingest_batch(
            submissions,
            &IngestConfig {
                workers: 1,
                queue_capacity: 1,
                merge_capacity: 1,
                policy: BackpressurePolicy::DropOldest,
                memo_capacity: 0,
                ..IngestConfig::default()
            },
        )
        .unwrap();
    assert_eq!(stats.frames_submitted, n_frames);
    assert_eq!(
        stats.frames_merged + stats.frames_dropped,
        n_frames,
        "every slot must be merged or accounted as dropped"
    );
    let applied: u64 = sharded.hives().map(|(_, h)| h.stats().traces).sum();
    assert_eq!(applied, stats.traces_merged);
    for (_, hive) in sharded.hives() {
        assert_eq!(hive.stats().unreconstructed, 0);
    }
}
