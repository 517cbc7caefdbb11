//! Pins hive-side path reconstruction to literals: any change to what
//! `reconstruct` returns for a trace — its decisions, its crash flag, or
//! the error it reports — moves a digest here.
//!
//! Each digest is FNV-1a over, per trace, either the reconstructed
//! `(decisions, ended_at_crash)` or the `ReconstructError`. The traces
//! are recorded by the interpreter under both exact policies and three
//! overlays (none, guards + gates, loop bounds), for every built-in
//! scenario and one generated program per bug kind, and then replayed
//! as recorded and after tampering (truncated branch bits, truncated
//! guard bits, truncated syscall returns, an altered schedule pick).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::cfg::{local, Program};
use softborg_program::expr::{BinOp, Expr};
use softborg_program::gen::{generate, sample_inputs, BugKind, GenConfig};
use softborg_program::interp::{ExecConfig, Executor};
use softborg_program::overlay::{
    GuardAction, LockGate, LoopBound, Overlay, SiteGuard, GHOST_LOCK_BASE,
};
use softborg_program::scenarios;
use softborg_program::sched::RandomSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{Loc, LockId};
use softborg_trace::{
    reconstruct, ExecutionTrace, ReconstructError, ReconstructedPath, RecordingPolicy,
    TraceRecorder,
};
use std::collections::BTreeSet;

const SEEDS: u64 = 4;

fn fold_words(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a_step(h, &w.to_le_bytes()))
}

fn fold_result(h: u64, r: &Result<ReconstructedPath, ReconstructError>) -> u64 {
    match r {
        Ok(path) => {
            let mut h = fold_words(
                h,
                &[0, path.decisions.len() as u64, path.ended_at_crash.into()],
            );
            for (site, taken) in &path.decisions {
                h = fold_words(h, &[site.0.into(), (*taken).into()]);
            }
            h
        }
        Err(e) => fnv1a_step(fold_words(h, &[1]), format!("{e:?}").as_bytes()),
    }
}

/// A predicate that fires on some inputs and not others.
fn input_predicate(program: &Program, k: i64) -> Expr {
    if program.n_inputs == 0 {
        return Expr::Const(k % 2);
    }
    Expr::eq(
        Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(3)),
        Expr::Const(k % 3),
    )
}

/// Guards on every third block (cycling through the three actions, one
/// of them on a terminator) plus one gate over every program lock.
fn guards_and_gates(program: &Program) -> Overlay {
    let mut overlay = Overlay::empty();
    for (k, (thread, block, blk)) in program.blocks().enumerate().step_by(3) {
        let k = k as i64;
        let action = match k % 3 {
            0 => GuardAction::SkipStmt,
            1 => GuardAction::ExitThread,
            _ if program.n_locals > 0 => GuardAction::SetPlace(local(program.n_locals - 1), k),
            _ => GuardAction::SkipStmt,
        };
        let stmt = if k % 2 == 0 {
            0
        } else {
            blk.stmts.len() as u32
        };
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread,
                block,
                stmt,
            },
            when: input_predicate(program, k),
            action,
        });
    }
    if program.n_locks > 0 {
        overlay.lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: (0..program.n_locks).map(LockId::new).collect(),
        });
    }
    overlay
}

/// Tight bounds on every branch block (loop headers among them).
fn loop_bounds(program: &Program) -> Overlay {
    Overlay {
        loop_bounds: program
            .branch_sites()
            .iter()
            .map(|&(_, thread, header, _)| LoopBound {
                thread,
                header,
                max_iters: 3,
            })
            .collect(),
        ..Overlay::empty()
    }
}

fn record(
    program: &Program,
    exec: &Executor<'_>,
    inputs: &[i64],
    seed: u64,
    overlay: &Overlay,
    policy: RecordingPolicy,
) -> ExecutionTrace {
    let mut rec = TraceRecorder::new(program.id(), policy, 0, program.threads.len() > 1);
    let r = exec
        .run(
            inputs,
            &mut DefaultEnv::new(EnvConfig {
                seed,
                short_read_per_mille: (seed as u32 % 3) * 300,
                ..EnvConfig::default()
            }),
            &mut RandomSched::seeded(seed),
            overlay,
            &mut rec,
        )
        .expect("arity matches");
    rec.finish(r.outcome, r.steps)
}

/// The tampered copies of one trace, in a fixed order.
fn tampered(trace: &ExecutionTrace, n_threads: u32) -> Vec<ExecutionTrace> {
    let mut out = Vec::new();
    let mut t = trace.clone();
    t.bits.truncate(trace.bits.len() / 2);
    out.push(t);
    let mut t = trace.clone();
    t.guard_bits.truncate(trace.guard_bits.len() / 2);
    out.push(t);
    let mut t = trace.clone();
    t.syscall_rets.truncate(trace.syscall_rets.len() / 2);
    out.push(t);
    if !trace.schedule.is_empty() {
        // Another thread at the midpoint, and one that does not exist.
        let mid = trace.schedule.len() / 2;
        let mut t = trace.clone();
        t.schedule[mid] = (t.schedule[mid] + 1) % n_threads;
        out.push(t);
        let mut t = trace.clone();
        t.schedule[mid] = n_threads;
        out.push(t);
    }
    out
}

/// Digest of every replay of `program`'s traces; adds the error kinds met
/// to `seen`.
fn digest(program: &Program, input_range: (i64, i64), seen: &mut BTreeSet<String>) -> u64 {
    let exec = Executor::new(program).with_config(ExecConfig { max_steps: 4_000 });
    let n_threads = program.threads.len() as u32;
    let mut h = FNV_OFFSET;
    for overlay in [
        Overlay::empty(),
        guards_and_gates(program),
        loop_bounds(program),
    ] {
        for policy in [RecordingPolicy::FullBranch, RecordingPolicy::InputDependent] {
            for seed in 0..SEEDS {
                let inputs = sample_inputs(
                    program.n_inputs,
                    input_range,
                    &mut SmallRng::seed_from_u64(seed),
                );
                let trace = record(program, &exec, &inputs, seed, &overlay, policy);
                let mut replay = |t: &ExecutionTrace| {
                    let r = reconstruct(program, exec.dependence(), &overlay, t);
                    if let Err(e) = &r {
                        let name = format!("{e:?}");
                        seen.insert(name[..name.find([' ', '(']).unwrap_or(name.len())].into());
                    }
                    h = fold_result(h, &r);
                };
                replay(&trace);
                for t in tampered(&trace, n_threads) {
                    replay(&t);
                }
            }
        }
    }
    h
}

#[test]
fn scenario_reconstructions_are_pinned() {
    // A change here means a replay's result moved: re-pin only for an
    // intended change to what reconstruction returns.
    let pinned: [(&str, u64); 10] = [
        ("triangle", 0x3911_4368_beb7_f539),
        ("token-parser", 0x716a_05da_67a4_e5ad),
        ("record-processor", 0xd7e6_94fd_ccc2_4c39),
        ("dining", 0x6c34_4b15_f704_2035),
        ("bank", 0x8af9_2d92_ee6d_8b7d),
        ("racy-counter", 0x8598_6f28_2ca2_c757),
        ("short-read-client", 0xe730_5e8e_d288_fe24),
        ("fd-leaker", 0x5a83_8e29_2bb6_1641),
        ("spin-wait", 0xd93a_a871_4db2_e819),
        ("livelock-pair", 0x6750_f821_7ec4_994d),
    ];
    let mut seen = BTreeSet::new();
    let got: Vec<(&str, u64)> = scenarios::all()
        .iter()
        .map(|s| (s.name, digest(&s.program, s.input_range, &mut seen)))
        .collect();
    assert_eq!(got, pinned);
    // Each kind of tampering reaches the error it targets.
    let expected = [
        "BranchBitsExhausted",
        "GuardBitsExhausted",
        "ScheduleMismatch",
        "SyscallRetsExhausted",
    ];
    assert_eq!(
        seen.iter().map(String::as_str).collect::<Vec<_>>(),
        expected
    );
}

#[test]
fn generated_program_reconstructions_are_pinned() {
    let pinned: [(BugKind, u64); 8] = [
        (BugKind::AssertMagic, 0x38bb_7da3_a51e_4c25),
        (BugKind::DivByInputDelta, 0xb5a1_d9ec_cf18_b929),
        (BugKind::LockInversion, 0x67d5_dcdd_7ee4_8551),
        (BugKind::DataRace, 0x1db8_06de_66b9_f467),
        (BugKind::InfiniteLoop, 0xf321_b2a4_28dd_1a2c),
        (BugKind::ShortRead, 0xe952_1ee8_55a3_c91a),
        (BugKind::ResourceLeak, 0x0377_28e6_d568_bf79),
        (BugKind::Livelock, 0xd3d6_1ff1_80ba_8759),
    ];
    let mut seen = BTreeSet::new();
    let got: Vec<(BugKind, u64)> = BugKind::ALL
        .iter()
        .map(|&kind| {
            let gp = generate(&GenConfig {
                seed: 0x2ec0 + kind as u64,
                constructs_per_thread: 6,
                bugs: vec![kind],
                ..GenConfig::default()
            });
            (kind, digest(&gp.program, gp.input_range, &mut seen))
        })
        .collect();
    assert_eq!(got, pinned);
}
