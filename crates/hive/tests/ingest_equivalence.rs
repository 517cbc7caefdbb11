//! The one ingest engine against its one reference: for any program
//! set (1–4), shard count (1–4), worker count, batch size, frames per
//! unit, interleaving and memo on/off, every program's hive ends
//! **byte-identical** (`Hive::encode_state`, the bytes durability
//! persists) to the one serial reference (a `Hive::ingest` loop) over
//! that program's surviving traces. A lone `Hive::ingest_batch` is the
//! 1-program, 1-shard arm; every other shape runs through a
//! `ShardedHive`: one frame per unit through `ingest_batch`, or units
//! of several consecutive frames through `ingest_units`.
//!
//! The hive keeps its ingest memo from one run to the next, so each
//! case splits its traffic over 1–3 consecutive runs on the same hive,
//! and may promote a fix in every program between runs; the reference
//! promotes at the same trace.
//!
//! Faults are inputs of the same property, not copies of it: a
//! corrupted, truncated or garbage frame, an overlay version the hive
//! does not have (yet), and another program's frame claimed in a lane.
//! Every case conserves its frames: each submitted frame is merged, none
//! dropped. The pinned tests below run the property on inputs that
//! exercise each fault whatever the random draw.

mod common;

use common::{pod_traces, scenario};
use proptest::prelude::*;
use softborg_fix::FixCandidate;
use softborg_hive::{Hive, HiveConfig, HiveStats, ShardedHive};
use softborg_ingest::{IngestConfig, IngestStats};
use softborg_program::cfg::Loc;
use softborg_program::expr::Expr;
use softborg_program::overlay::{GuardAction, Overlay, SiteGuard};
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
    /// Every other trace names overlay version 1, which a hive has only
    /// after its first promotion.
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
    /// Frames per unit on the sharded arm (1 = `ingest_batch`).
    frames_per_unit: usize,
    memo: bool,
    mix: u64,
    fault: Fault,
    /// Consecutive runs the submissions are split over (1–3).
    runs: usize,
    /// Every program's hive promotes a fix between runs.
    promote: bool,
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
            frames_per_unit: 1,
            memo: true,
            mix: 0,
            fault,
            runs: 1,
            promote: false,
        }
    }
}

/// A fix whose overlay intercepts nothing: promoting it only appends an
/// overlay version.
fn no_op_fix() -> FixCandidate {
    FixCandidate {
        overlay: Overlay::empty(),
        description: String::new(),
    }
}

/// A frame's bytes and the traces it delivers to its lane's hive.
type Delivery = (Vec<u8>, Vec<ExecutionTrace>);

/// One submitted frame: the lane it is claimed in, its bytes, and the
/// traces it delivers to that lane's hive.
type Submission = (ProgramId, Vec<u8>, Vec<ExecutionTrace>);

/// Deterministically interleaves each program's frame list into one
/// submission order, spreading programs by a rotating pick driven by
/// `mix` (per-program relative order is preserved — that is the claim).
fn interleave<F>(per_program: Vec<(ProgramId, Vec<F>)>, mix: u64) -> Vec<(ProgramId, F)> {
    let mut queues: Vec<(ProgramId, VecDeque<F>)> = per_program
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

/// Program 0's frames after `fault`, each with the traces it delivers,
/// plus the corrupt / unknown-program frame counts it must cause.
fn apply_fault(
    fault: Fault,
    traces: &[ExecutionTrace],
    batch: usize,
    seed: u64,
) -> (Vec<Delivery>, u64, u64) {
    let mut frames: Vec<Delivery> = (traces.chunks(batch))
        .map(|c| (wire::encode_batch(c), c.to_vec()))
        .collect();
    let mid = frames.len() / 2;
    let (f, delivered) = &mut frames[mid];
    match fault {
        Fault::None | Fault::UnknownOverlay => (frames, 0, 0),
        Fault::FlipByte | Fault::Truncate(_) => {
            if let Fault::Truncate(cut) = fault {
                f.truncate(cut % f.len());
            } else {
                let at = f.len() / 2;
                f[at] ^= 0xA5;
            }
            assert!(wire::read_batch(f).is_err(), "{fault:?} left a valid frame");
            delivered.clear();
            (frames, 1, 0)
        }
        Fault::Garbage => {
            let garbage = [vec![0xFF; 64], Vec::new(), vec![0x00; 3]];
            frames.splice(mid..mid, garbage.map(|g| (g, Vec::new())));
            (frames, 3, 0)
        }
        Fault::Foreign => {
            let stranger = scenarios::spin_wait();
            let frame = wire::encode_batch(&pod_traces(&stranger, seed, 4));
            frames.insert(mid, (frame, Vec::new()));
            (frames, 0, 1)
        }
    }
}

/// The property: run `case` through the one pipeline, its submissions
/// split over `case.runs` runs on one hive, and hold every program's
/// hive against its serial reference, which promotes at the same trace.
fn check(case: &Case) {
    let scs: Vec<Scenario> = (0..case.n_programs)
        .map(|i| scenario(case.first + i))
        .collect();
    let mut lanes = Vec::new();
    let (mut corrupt, mut unknown) = (0, 0);
    for (i, s) in scs.iter().enumerate() {
        let mut traces = pod_traces(s, case.seed + i as u64, case.n);
        let fault = if i == 0 { case.fault } else { Fault::None };
        if fault == Fault::UnknownOverlay {
            for t in traces.iter_mut().skip(1).step_by(2) {
                t.overlay_version = 1;
            }
        }
        let (frames, c, u) = apply_fault(fault, &traces, case.batch, case.seed);
        corrupt += c;
        unknown += u;
        lanes.push((s.program.id(), frames));
    }
    let submissions: Vec<Submission> = (interleave(lanes, case.mix).into_iter())
        .map(|(p, (frame, delivered))| (p, frame, delivered))
        .collect();
    let n_frames = submissions.len() as u64;
    let traces_expected: u64 = submissions.iter().map(|(_, _, d)| d.len() as u64).sum();
    let runs: Vec<&[Submission]> = (0..case.runs)
        .map(|r| {
            let cut = |r: usize| r * submissions.len() / case.runs;
            &submissions[cut(r)..cut(r + 1)]
        })
        .collect();
    let config = IngestConfig {
        workers: case.workers,
        memo_capacity: if case.memo { 4096 } else { 0 },
        ..IngestConfig::default()
    };
    let promotes_after = |r: usize| case.promote && r + 1 < case.runs;

    // The serial reference, one `Hive::ingest` loop per program.
    let reference: Vec<(ProgramId, Vec<u8>)> = (scs.iter())
        .map(|s| {
            let id = s.program.id();
            let mut hive = Hive::new(&s.program, HiveConfig::default());
            for (r, run) in runs.iter().enumerate() {
                for (_, _, delivered) in run.iter().filter(|(p, _, _)| *p == id) {
                    delivered.iter().for_each(|t| hive.ingest(t));
                }
                if promotes_after(r) {
                    hive.promote(&format!("after run {r}"), &no_op_fix());
                }
            }
            (id, hive.encode_state())
        })
        .collect();

    // Each program's final (stats, state bytes), in lane order, and the
    // runs' stats summed.
    let mut stats = IngestStats::default();
    let mut add = |s: IngestStats| {
        stats.frames_submitted += s.frames_submitted;
        stats.frames_dropped += s.frames_dropped;
        stats.frames_merged += s.frames_merged;
        stats.frames_rerouted += s.frames_rerouted;
        stats.frames_corrupt += s.frames_corrupt;
        stats.frames_unknown_program += s.frames_unknown_program;
        stats.traces_merged += s.traces_merged;
        let per_shard: u64 = s.per_shard.iter().map(|s| s.frames_merged).sum();
        assert_eq!(per_shard, s.frames_merged, "{case:?}");
    };
    let programs: Vec<&Program> = scs.iter().map(|s| &s.program).collect();
    let hives: Vec<(HiveStats, Vec<u8>)> = if case.n_programs == 1 && case.n_shards == 1 {
        let mut hive = Hive::new(programs[0], HiveConfig::default());
        for (r, run) in runs.iter().enumerate() {
            let frames = run.iter().map(|(_, f, _)| f.clone()).collect();
            add(hive.ingest_batch(frames, &config));
            if promotes_after(r) {
                hive.promote(&format!("after run {r}"), &no_op_fix());
            }
        }
        vec![(hive.stats(), hive.encode_state())]
    } else {
        let mut sharded =
            ShardedHive::new(&programs, case.n_shards, &HiveConfig::default()).unwrap();
        for (r, run) in runs.iter().enumerate() {
            if case.frames_per_unit == 1 {
                let frames = run.iter().map(|(p, f, _)| (*p, f.clone())).collect();
                add(sharded.ingest_batch(frames, &config).unwrap());
            } else {
                let units = run.chunks(case.frames_per_unit).collect();
                let (_, s) = sharded.ingest_units(&config, units, |unit, out| {
                    for (p, f, _) in unit {
                        out.push(*p, f).expect("every lane is placed");
                    }
                });
                add(s);
            }
            if promotes_after(r) {
                for p in &programs {
                    let hive = sharded.hive_mut(p.id()).unwrap();
                    hive.promote(&format!("after run {r}"), &no_op_fix());
                }
            }
        }
        (programs.iter())
            .map(|p| sharded.hive(p.id()).unwrap())
            .map(|h| (h.stats(), h.encode_state()))
            .collect()
    };

    // Conservation: every frame is merged (its slot consumed by exactly
    // one shard's sink), none dropped, and the hives saw exactly the
    // traces the pipeline merged.
    assert_eq!(stats.frames_submitted, n_frames, "{case:?}");
    assert_eq!(stats.frames_dropped, 0, "{case:?}");
    assert_eq!(stats.frames_merged, stats.frames_submitted, "{case:?}");
    let applied: u64 = hives.iter().map(|(h, _)| h.traces).sum();
    assert_eq!(applied, stats.traces_merged, "{case:?}");
    assert_eq!(stats.frames_rerouted, 0, "{case:?}");
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
    // at 256).
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any program set, engine shape and fault, each program's
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
        frames_per_unit in 1usize..9,
        memo in 0usize..2,
        mix in 0u64..1_000,
        fault in 0usize..6,
        cut in 0usize..4_096,
        runs in 1usize..4,
        promote in 0usize..2,
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
            frames_per_unit,
            memo: memo == 1,
            mix,
            fault,
            runs,
            promote: promote == 1,
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
    check(&Case {
        runs: 2,
        promote: true,
        ..Case::one(Fault::UnknownOverlay)
    });
}

#[test]
fn one_participant_runs_lose_nothing() {
    let tight = Case {
        n: 200,
        batch: 2,
        workers: 1,
        memo: false,
        ..Case::one(Fault::None)
    };
    check(&tight);
    check(&Case {
        n_programs: 3,
        n_shards: 3,
        n: 120,
        mix: 7,
        frames_per_unit: 5,
        ..tight
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

/// Consecutive runs with promotions between them, each fault once.
#[test]
fn runs_split_over_promotions_match_the_reference() {
    for fault in [Fault::None, Fault::FlipByte, Fault::Garbage, Fault::Foreign] {
        for (n_programs, n_shards) in [(1, 1), (3, 2)] {
            check(&Case {
                n_programs,
                n_shards,
                runs: 3,
                promote: true,
                ..Case::one(fault)
            });
        }
    }
}

/// A trace naming an overlay version the hive does not have is
/// unreconstructed, and is not memoized as such: once a promotion
/// creates that version, the same bytes reconstruct in the next run.
#[test]
fn an_unknown_overlay_version_reconstructs_once_a_later_run_has_it() {
    let s = scenario(0);
    let mut traces = pod_traces(&s, 7, 24);
    for t in &mut traces {
        t.overlay_version = 1;
    }
    let frames: Vec<Vec<u8>> = traces.chunks(6).map(wire::encode_batch).collect();
    let n = traces.len() as u64;
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let mut sharded = ShardedHive::new(&[&s.program], 1, &HiveConfig::default()).unwrap();
    let id = s.program.id();
    let run = |hive: &mut Hive<'_>, sharded: &mut ShardedHive<'_>| {
        hive.ingest_batch(frames.clone(), &IngestConfig::default());
        let claimed = frames.iter().map(|f| (id, f.clone())).collect();
        (sharded.ingest_batch(claimed, &IngestConfig::default())).unwrap();
    };
    run(&mut hive, &mut sharded);
    for h in [&hive, sharded.hive(id).unwrap()] {
        assert_eq!((h.stats().reconstructed, h.stats().unreconstructed), (0, n));
    }
    hive.promote("v1", &no_op_fix());
    sharded.hive_mut(id).unwrap().promote("v1", &no_op_fix());
    run(&mut hive, &mut sharded);
    for h in [&hive, sharded.hive(id).unwrap()] {
        assert_eq!((h.stats().reconstructed, h.stats().unreconstructed), (n, n));
    }
}

/// An overlay that guards the first statement: a trace recorded without
/// it replays unreconstructed under it.
fn guard_fix() -> FixCandidate {
    let guards = vec![SiteGuard {
        loc: Loc::default(),
        when: Expr::Const(0),
        action: GuardAction::SkipStmt,
    }];
    FixCandidate {
        overlay: Overlay {
            guards,
            ..Overlay::empty()
        },
        description: String::new(),
    }
}

/// Replacing a hive's state other than by appending to it
/// (`decode_shard_state`, `apply_shard_state_delta`,
/// `Hive::apply_state_delta`) clears the memos: overlay version 1 means
/// a guard before the replacement and nothing after it, and the next run
/// reconstructs the same bytes as a fresh hive restored to that state.
#[test]
fn replacing_a_hive_state_clears_the_memos() {
    let s = scenario(0);
    let id = s.program.id();
    let mut traces = pod_traces(&s, 11, 24);
    let (first, second) = traces.split_at_mut(12);
    second.iter_mut().for_each(|t| t.overlay_version = 1);
    let claim = |ts: &[ExecutionTrace]| -> Vec<(ProgramId, Vec<u8>)> {
        ts.chunks(4).map(|c| (id, wire::encode_batch(c))).collect()
    };
    let (first, second) = (claim(first), claim(second));
    let config = IngestConfig::default();
    let new_sharded = || ShardedHive::new(&[&s.program], 1, &HiveConfig::default()).unwrap();
    // The state the replacements install: version 1 intercepts nothing.
    let mut source = new_sharded();
    source.ingest_batch(first.clone(), &config).unwrap();
    source.mark_shard_clean(0);
    source.hive_mut(id).unwrap().promote("v1", &no_op_fix());
    let (full, delta) = (
        source.encode_shard_state(0).unwrap(),
        source.encode_shard_state_delta(0).unwrap(),
    );
    let mut fresh = new_sharded();
    fresh
        .decode_shard_state(0, &full, &HiveConfig::default())
        .unwrap();
    fresh.ingest_batch(second.clone(), &config).unwrap();
    let want = fresh.encode_shard_state(0).unwrap();
    assert_eq!(fresh.hive(id).unwrap().stats().reconstructed, 24);

    for replace in [
        "decode_shard_state",
        "apply_shard_state_delta",
        "apply_state_delta",
    ] {
        // A warm memo that holds the second half replayed under a guard.
        let mut hive = new_sharded();
        hive.ingest_batch(first.clone(), &config).unwrap();
        hive.mark_shard_clean(0);
        hive.hive_mut(id).unwrap().promote("v1", &guard_fix());
        hive.ingest_batch(second.clone(), &config).unwrap();
        let stats = hive.hive(id).unwrap().stats();
        assert_eq!((stats.reconstructed, stats.unreconstructed), (12, 12));
        match replace {
            "decode_shard_state" => hive.decode_shard_state(0, &full, &HiveConfig::default()),
            "apply_shard_state_delta" => hive.apply_shard_state_delta(0, &delta),
            _ => {
                let hive_delta = source.hive(id).unwrap().encode_state_delta();
                let h = hive.hive_mut(id).unwrap();
                h.apply_state_delta(&hive_delta).map_err(Into::into)
            }
        }
        .unwrap();
        hive.ingest_batch(second.clone(), &config).unwrap();
        assert!(
            hive.encode_shard_state(0).unwrap() == want,
            "{replace} left a stale memo"
        );
    }

    // The same for a lone hive, which keeps its own memo.
    let mut lone = Hive::new(&s.program, HiveConfig::default());
    let frames = |c: &[(ProgramId, Vec<u8>)]| c.iter().map(|(_, f)| f.clone()).collect();
    lone.ingest_batch(frames(&first), &config);
    lone.mark_clean();
    lone.promote("v1", &guard_fix());
    lone.ingest_batch(frames(&second), &config);
    lone.apply_state_delta(&source.hive(id).unwrap().encode_state_delta())
        .unwrap();
    lone.ingest_batch(frames(&second), &config);
    assert!(lone.encode_state() == fresh.hive(id).unwrap().encode_state());
}
