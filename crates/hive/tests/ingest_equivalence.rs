//! The one ingest pipeline against its one reference: for any program
//! set (1–4), shard count (1–4), worker count, batch size, queue bound,
//! interleaving and memo on/off, every program's hive ends
//! **byte-identical** (`Hive::encode_state`, the bytes durability
//! persists) to a serial `Hive::ingest` loop over that program's
//! surviving traces. A lone `Hive::ingest_batch` is the 1-program,
//! 1-shard arm; every other shape runs through a `ShardedHive`.
//!
//! Faults are inputs of the same property, not copies of it: a
//! corrupted, truncated or garbage frame, an unknown overlay version,
//! another program's frame claimed in a lane, and `DropOldest`
//! shedding. The pinned tests below run the property on inputs that
//! exercise each fault whatever the random draw.

mod common;

use common::{pod_traces, scenario};
use proptest::prelude::*;
use softborg_hive::{Hive, HiveConfig, HiveStats, ShardedHive};
use softborg_ingest::{BackpressurePolicy, IngestConfig, IngestStats};
use softborg_program::scenarios::{self, Scenario};
use softborg_program::{Program, ProgramId};
use softborg_trace::{wire, ExecutionTrace};
use std::collections::VecDeque;

/// What goes wrong with program 0's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// One byte of the middle frame flipped: wire validation rejects it.
    FlipByte,
    /// The middle frame cut to its first `cut % len` bytes.
    Truncate(usize),
    /// Three garbage frames claimed in program 0's lane.
    Garbage,
    /// Every other trace names an overlay version no hive distributed.
    UnknownOverlay,
    /// A frame of a program no hive serves, claimed in program 0's lane.
    Foreign,
}

#[derive(Debug, Clone)]
struct Case {
    /// Programs are the canonical scenarios `first`, `first + 1`, …
    first: usize,
    n_programs: usize,
    n_shards: usize,
    seed: u64,
    n: usize,
    batch: usize,
    workers: usize,
    queue_capacity: usize,
    memo: bool,
    mix: u64,
    fault: Fault,
    drop_oldest: bool,
}

impl Case {
    fn one(fault: Fault) -> Self {
        Case {
            first: 0,
            n_programs: 1,
            n_shards: 1,
            seed: 7,
            n: 30,
            batch: 10,
            workers: 2,
            queue_capacity: 64,
            memo: true,
            mix: 0,
            fault,
            drop_oldest: false,
        }
    }
}

/// Deterministically interleaves each program's frame list into one
/// submission order, spreading programs by a rotating pick driven by
/// `mix` (per-program relative order is preserved — that is the claim).
fn interleave(per_program: Vec<(ProgramId, Vec<Vec<u8>>)>, mix: u64) -> Vec<(ProgramId, Vec<u8>)> {
    let mut queues: Vec<(ProgramId, VecDeque<Vec<u8>>)> = per_program
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

fn serial_state(s: &Scenario, traces: &[ExecutionTrace]) -> Vec<u8> {
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    for t in traces {
        hive.ingest(t);
    }
    hive.encode_state()
}

/// Program 0's frames after `fault`, plus the traces that survive it
/// and the corrupt / unknown-program frame counts it must cause.
fn apply_fault(
    fault: Fault,
    traces: &[ExecutionTrace],
    batch: usize,
    seed: u64,
) -> (Vec<Vec<u8>>, Vec<ExecutionTrace>, u64, u64) {
    let mut frames: Vec<Vec<u8>> = traces.chunks(batch).map(wire::encode_batch).collect();
    let mid = frames.len() / 2;
    let without_mid = || -> Vec<ExecutionTrace> {
        (traces.chunks(batch).enumerate())
            .filter(|&(k, _)| k != mid)
            .flat_map(|(_, c)| c.iter().cloned())
            .collect()
    };
    let f = &mut frames[mid];
    match fault {
        Fault::None | Fault::UnknownOverlay => (frames, traces.to_vec(), 0, 0),
        Fault::FlipByte | Fault::Truncate(_) => {
            if let Fault::Truncate(cut) = fault {
                f.truncate(cut % f.len());
            } else {
                let at = f.len() / 2;
                f[at] ^= 0xA5;
            }
            assert!(
                wire::batch_payloads(f).is_err(),
                "{fault:?} left a valid frame"
            );
            (frames, without_mid(), 1, 0)
        }
        Fault::Garbage => {
            let garbage = [vec![0xFF; 64], Vec::new(), vec![0x00; 3]];
            frames.splice(mid..mid, garbage);
            (frames, traces.to_vec(), 3, 0)
        }
        Fault::Foreign => {
            let stranger = scenarios::spin_wait();
            frames.insert(mid, wire::encode_batch(&pod_traces(&stranger, seed, 4)));
            (frames, traces.to_vec(), 0, 1)
        }
    }
}

/// The property: run `case` through the one pipeline and hold every
/// program's hive against its serial reference.
fn check(case: &Case) {
    let scs: Vec<Scenario> = (0..case.n_programs)
        .map(|i| scenario(case.first + i))
        .collect();
    let (mut lanes, mut reference) = (Vec::new(), Vec::new());
    let (mut corrupt, mut unknown, mut traces_expected) = (0, 0, 0);
    for (i, s) in scs.iter().enumerate() {
        let mut traces = pod_traces(s, case.seed + i as u64, case.n);
        let fault = if i == 0 { case.fault } else { Fault::None };
        if fault == Fault::UnknownOverlay {
            for t in traces.iter_mut().skip(1).step_by(2) {
                t.overlay_version = 99;
            }
        }
        let (frames, surviving, c, u) = apply_fault(fault, &traces, case.batch, case.seed);
        corrupt += c;
        unknown += u;
        traces_expected += surviving.len() as u64;
        reference.push((s.program.id(), serial_state(s, &surviving)));
        lanes.push((s.program.id(), frames));
    }
    let submissions = interleave(lanes, case.mix);
    let n_frames = submissions.len() as u64;
    let config = IngestConfig {
        workers: case.workers,
        queue_capacity: case.queue_capacity,
        merge_capacity: case.queue_capacity,
        policy: if case.drop_oldest {
            BackpressurePolicy::DropOldest
        } else {
            BackpressurePolicy::Block
        },
        memo_capacity: if case.memo { 4096 } else { 0 },
        ..IngestConfig::default()
    };

    // Each program's final (stats, state bytes), in lane order.
    let (stats, hives): (IngestStats, Vec<(HiveStats, Vec<u8>)>) =
        if case.n_programs == 1 && case.n_shards == 1 {
            let mut hive = Hive::new(&scs[0].program, HiveConfig::default());
            let frames = submissions.into_iter().map(|(_, f)| f).collect();
            let stats = hive.ingest_batch(frames, &config);
            (stats, vec![(hive.stats(), hive.encode_state())])
        } else {
            let programs: Vec<&Program> = scs.iter().map(|s| &s.program).collect();
            let mut sharded =
                ShardedHive::new(&programs, case.n_shards, &HiveConfig::default()).unwrap();
            let stats = sharded.ingest_batch(submissions, &config).unwrap();
            let hives = (programs.iter())
                .map(|p| sharded.hive(p.id()).unwrap())
                .map(|h| (h.stats(), h.encode_state()))
                .collect();
            (stats, hives)
        };

    // Slot conservation holds under every policy: each frame is merged
    // (its slot consumed by exactly one shard's merger) or counted
    // dropped, and the hives saw exactly the traces the pipeline merged.
    assert_eq!(stats.frames_submitted, n_frames, "{case:?}");
    assert_eq!(
        stats.frames_merged + stats.frames_dropped,
        n_frames,
        "{case:?}"
    );
    assert_eq!(
        stats.per_shard.iter().map(|s| s.frames_merged).sum::<u64>(),
        stats.frames_merged,
        "{case:?}"
    );
    let applied: u64 = hives.iter().map(|(h, _)| h.traces).sum();
    assert_eq!(applied, stats.traces_merged, "{case:?}");
    assert_eq!(stats.frames_rerouted, 0, "{case:?}");
    if stats.frames_dropped > 0 {
        // Which frames were shed depends on thread timing; whatever
        // survived still reconstructs cleanly.
        assert!(case.drop_oldest, "Block never drops: {case:?}");
        if case.fault != Fault::UnknownOverlay {
            assert!(
                hives.iter().all(|(h, _)| h.unreconstructed == 0),
                "{case:?}"
            );
        }
        return;
    }
    assert_eq!(stats.frames_corrupt, corrupt, "{case:?}");
    assert_eq!(stats.frames_unknown_program, unknown, "{case:?}");
    assert_eq!(stats.traces_merged, traces_expected, "{case:?}");
    for ((_, got), (id, want)) in hives.iter().zip(&reference) {
        assert!(
            got == want,
            "program {:#x} diverged from serial ingest: {case:?}",
            id.0
        );
    }
}

proptest! {
    // PROPTEST_CASES overrides this default (the CI fault matrix runs
    // at 256). The policy is always `Block`, so every case reaches the
    // byte comparison; `drop_oldest_conserves_slots` pins shedding.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any program set, pipeline shape and fault, each program's
    /// hive is byte-identical to its serial reference.
    #[test]
    fn pipeline_equals_serial_per_program(
        first in 0usize..4,
        n_programs in 1usize..5,
        n_shards in 1usize..5,
        seed in 0u64..1_000,
        n in 1usize..48,
        batch in 1usize..17,
        workers in 1usize..5,
        queue_capacity in 1usize..9,
        memo in 0usize..2,
        mix in 0u64..1_000,
        fault in 0usize..6,
        cut in 0usize..4_096,
    ) {
        let fault = match fault {
            0 => Fault::None,
            1 => Fault::FlipByte,
            2 => Fault::Truncate(cut),
            3 => Fault::Garbage,
            4 => Fault::UnknownOverlay,
            _ => Fault::Foreign,
        };
        check(&Case {
            first,
            n_programs,
            n_shards,
            seed,
            n,
            batch,
            workers,
            queue_capacity,
            memo: memo == 1,
            mix,
            fault,
            drop_oldest: false,
        });
    }
}

#[test]
fn corrupt_frame_is_counted_and_skipped() {
    check(&Case::one(Fault::FlipByte));
    check(&Case {
        n_programs: 3,
        n_shards: 2,
        ..Case::one(Fault::FlipByte)
    });
}

#[test]
fn truncated_and_garbage_frames_never_panic() {
    let case = Case {
        n: 8,
        batch: 8,
        ..Case::one(Fault::None)
    };
    let len = wire::encode_batch(&pod_traces(&scenario(case.first), case.seed, case.n)).len();
    for cut in 0..len {
        check(&Case {
            fault: Fault::Truncate(cut),
            ..case.clone()
        });
    }
    check(&Case::one(Fault::Garbage));
    check(&Case {
        n_programs: 2,
        n_shards: 2,
        ..Case::one(Fault::Garbage)
    });
}

#[test]
fn unknown_overlay_version_counts_unreconstructed_in_both_paths() {
    check(&Case::one(Fault::UnknownOverlay));
    check(&Case {
        n_programs: 4,
        n_shards: 3,
        ..Case::one(Fault::UnknownOverlay)
    });
}

#[test]
fn drop_oldest_conserves_slots() {
    let shedding = Case {
        n: 200,
        batch: 2,
        workers: 1,
        queue_capacity: 1,
        memo: false,
        drop_oldest: true,
        ..Case::one(Fault::None)
    };
    check(&shedding);
    check(&Case {
        n_programs: 3,
        n_shards: 3,
        n: 120,
        mix: 7,
        ..shedding
    });
}

/// A hive fed another program's frame counts it as an unknown program
/// and leaves its state exactly as if the frame never arrived.
#[test]
fn a_hive_never_ingests_another_programs_frames() {
    check(&Case::one(Fault::Foreign));
    check(&Case {
        n_programs: 3,
        n_shards: 2,
        ..Case::one(Fault::Foreign)
    });
}

/// Shard-state snapshot/restore round-trips byte-identically — the
/// primitive per-shard durability is built on.
#[test]
fn shard_state_round_trips_byte_identically() {
    let scs: Vec<Scenario> = (0..4).map(scenario).collect();
    let programs: Vec<&Program> = scs.iter().map(|s| &s.program).collect();
    let mut sharded = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
    let submissions: Vec<(ProgramId, Vec<u8>)> = scs
        .iter()
        .map(|s| (s.program.id(), wire::encode_batch(&pod_traces(s, 42, 20))))
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
