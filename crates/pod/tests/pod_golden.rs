//! Pins what a pod ships and keeps to literals: any change to a trace's
//! wire bytes, a run's `ExecResult`, the cases a pod retains or its
//! exported state moves a digest here.
//!
//! For every built-in scenario and three seeds, a pod runs 200 times —
//! once with no overlay, once under an overlay holding site guards, lock
//! gates and loop bounds — with input-seed, schedule and fault-injection
//! directives queued between runs. Each digest is FNV-1a over every
//! run's trace wire bytes (program id zeroed: `ProgramId` is not yet a
//! stable hash), its `ExecResult` and directed flag, then the retained
//! failing and passing cases and the encoded `export_state()`.

use softborg_guidance::Directive;
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_pod::{Pod, PodConfig};
use softborg_program::cfg::{local, Stmt};
use softborg_program::expr::{BinOp, Expr};
use softborg_program::interp::{ExecConfig, ExecResult, Outcome};
use softborg_program::overlay::{
    GuardAction, LockGate, LoopBound, Overlay, SiteGuard, GHOST_LOCK_BASE,
};
use softborg_program::scenarios::{self, Scenario};
use softborg_program::sched::ScheduleHint;
use softborg_program::syscall::ForcedFault;
use softborg_program::{BlockId, BranchSiteId, Loc, LockId, ProgramId, ThreadId};
use softborg_trace::wire;

const RUNS: usize = 200;

fn fold_words(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a_step(h, &w.to_le_bytes()))
}

fn loc_words(loc: Loc) -> [u64; 3] {
    [loc.thread.0.into(), loc.block.0.into(), loc.stmt.into()]
}

fn fold_outcome(h: u64, o: &Outcome) -> u64 {
    let mut w: Vec<u64> = Vec::new();
    match o {
        Outcome::Success => w.push(0),
        Outcome::Crash { loc, kind } => {
            w.extend([1, *kind as u64]);
            w.extend(loc_words(*loc));
        }
        Outcome::Deadlock { cycle } => {
            w.push(2);
            w.extend(
                cycle
                    .iter()
                    .flat_map(|(t, l)| [u64::from(t.0), u64::from(l.0)]),
            );
        }
        Outcome::Hang { stuck } => {
            w.push(3);
            w.extend(stuck.iter().flat_map(|l| loc_words(*l)));
        }
    }
    fold_words(h, &w)
}

fn fold_result(h: u64, r: &ExecResult) -> u64 {
    let h = fold_outcome(h, &r.outcome);
    let mut w = vec![r.steps, r.n_branches, r.n_syscalls, r.overlay_hits];
    w.extend(
        r.emitted
            .iter()
            .flat_map(|(t, v)| [u64::from(t.0), *v as u64]),
    );
    fold_words(h, &w)
}

/// Guards at the first assertion (or the entry) and at thread 0's first
/// terminator, a gate over every program lock and one over lock 0, and
/// bounds on the first three branch sites.
fn instrumented(s: &Scenario) -> Overlay {
    let p = &s.program;
    let entry = Loc {
        thread: ThreadId::new(0),
        block: BlockId::new(0),
        stmt: 0,
    };
    let first_assert = p
        .blocks()
        .find_map(|(thread, block, blk)| {
            let stmt = blk
                .stmts
                .iter()
                .position(|s| matches!(s, Stmt::Assert(_)))?;
            Some(Loc {
                thread,
                block,
                stmt: stmt as u32,
            })
        })
        .unwrap_or(entry);
    let first_term = Loc {
        stmt: p.threads[0].blocks[0].stmts.len() as u32,
        ..entry
    };
    let when = if p.n_inputs > 0 {
        Expr::eq(
            Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(3)),
            Expr::Const(1),
        )
    } else if p.n_locals > 0 {
        Expr::eq(Expr::local(0), Expr::Const(0))
    } else {
        Expr::Const(1)
    };
    let set = if p.n_locals > 0 {
        GuardAction::SetPlace(local(p.n_locals - 1), 1)
    } else {
        GuardAction::ExitThread
    };
    let mut lock_gates = Vec::new();
    if p.n_locks > 0 {
        lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: (0..p.n_locks).map(LockId::new).collect(),
        });
    }
    if p.n_locks > 1 {
        lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE + 1),
            locks: [LockId::new(0)].into_iter().collect(),
        });
    }
    Overlay {
        name: "golden".into(),
        guards: vec![
            SiteGuard {
                loc: first_assert,
                when: when.clone(),
                action: GuardAction::SkipStmt,
            },
            SiteGuard {
                loc: first_term,
                when,
                action: set,
            },
        ],
        lock_gates,
        loop_bounds: p
            .branch_sites()
            .iter()
            .take(3)
            .map(|&(_, thread, header, _)| LoopBound {
                thread,
                header,
                max_iters: 3,
            })
            .collect(),
    }
}

/// The directive queued before run `i`, if any.
fn directive(s: &Scenario, i: usize) -> Option<Directive> {
    let p = &s.program;
    let n_threads = p.threads.len() as u32;
    match i % 7 {
        0 => Some(Directive::InputSeed {
            inputs: vec![s.input_range.1; p.n_inputs as usize],
            target: (BranchSiteId::new(0), true),
        }),
        2 => Some(Directive::Schedule(ScheduleHint {
            order: (0..n_threads).rev().map(ThreadId::new).collect(),
            bias_per_mille: 600,
        })),
        4 => Some(Directive::FaultInjection {
            forced: vec![ForcedFault {
                call_index: 0,
                ret: -1,
            }],
            short_read_per_mille: 500,
        }),
        // A seed of the wrong arity is ignored: the run stays natural.
        5 => Some(Directive::InputSeed {
            inputs: vec![1; p.n_inputs as usize + 1],
            target: (BranchSiteId::new(0), false),
        }),
        _ => None,
    }
}

fn digest(s: &Scenario, overlay: Option<&Overlay>) -> u64 {
    let mut h = FNV_OFFSET;
    for seed in [1u64, 7, 1_000_003] {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                exec: ExecConfig { max_steps: 4_000 },
                seed,
                ..PodConfig::default()
            },
        );
        if let Some(o) = overlay {
            pod.install_fix(o.clone(), 1);
        }
        for i in 0..RUNS {
            if let Some(d) = directive(s, i) {
                pod.receive_guidance([d]);
            }
            let mut run = pod.run_once();
            run.trace.program = ProgramId(0);
            let bytes = wire::encode(&run.trace);
            h = fnv1a_step(h, &(bytes.len() as u64).to_le_bytes());
            h = fnv1a_step(h, &bytes);
            h = fold_result(h, &run.result);
            h = fnv1a_step(h, &[u8::from(run.directed)]);
        }
        let cases = pod
            .failing_cases()
            .iter()
            .map(|(c, o)| (c, Some(o)))
            .chain(pod.passing_cases().iter().map(|c| (c, None)));
        for (case, outcome) in cases {
            h = fold_words(
                h,
                &case.inputs.iter().map(|&v| v as u64).collect::<Vec<_>>(),
            );
            h = fold_words(
                h,
                &case
                    .schedule
                    .iter()
                    .map(|t| u64::from(t.0))
                    .collect::<Vec<_>>(),
            );
            h = fold_words(h, &[case.env.seed, case.env.forced.len() as u64]);
            if let Some(o) = outcome {
                h = fold_outcome(h, o);
            }
        }
        h = fnv1a_step(h, &pod.export_state().encode());
    }
    h
}

#[test]
fn pod_runs_are_pinned_across_releases() {
    // A change here means what a pod ships or keeps moved: re-pin only
    // for an intended change to what a pod execution does, or to how
    // the exported state is encoded (last re-pinned when pod records
    // dropped their own checksum and moved to version 3).
    let pinned: [(&str, u64, u64); 10] = [
        ("triangle", 0x11f2_64fa_e975_4f47, 0x2660_2185_4d0b_39c1),
        ("token-parser", 0xa00d_c8b8_673a_1aa3, 0x98b5_021b_37fe_0496),
        (
            "record-processor",
            0x27f6_af19_57e1_f92a,
            0xbd32_871c_549c_c99e,
        ),
        ("dining", 0x6e5b_dc25_4890_7499, 0x5e85_7853_59a5_acc1),
        ("bank", 0xe247_b1ee_5652_1660, 0x2846_846a_eb6b_a568),
        ("racy-counter", 0x3a07_d2ee_9a3d_436d, 0xd22b_9e53_9c7b_879c),
        (
            "short-read-client",
            0x0cb9_7d0e_bb33_386c,
            0xe257_8567_8980_3eb1,
        ),
        ("fd-leaker", 0xe7be_0711_1b00_3738, 0xdd67_2510_9433_b36a),
        ("spin-wait", 0x20cf_8023_bf8d_1a5a, 0x0e0b_48ab_d125_a30d),
        (
            "livelock-pair",
            0xfdd8_5fb1_597d_256e,
            0x89c1_ab29_5bb2_45a3,
        ),
    ];
    let got: Vec<(&str, u64, u64)> = scenarios::all()
        .iter()
        .map(|s| (s.name, digest(s, None), digest(s, Some(&instrumented(s)))))
        .collect();
    assert_eq!(got, pinned);
}
