//! Ground-truth property: for an arbitrary generated program (one to
//! three threads, any mix of bug kinds), inputs, schedule, short-read
//! rate, recording policy and overlay (random guards, gates and loop
//! bounds), replaying the recorded trace yields exactly the branch
//! decisions the interpreter made.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_program::cfg::{local, Loc, Program, SyscallKind};
use softborg_program::expr::{BinOp, Expr};
use softborg_program::gen::{generate, sample_inputs, BugKind, GenConfig};
use softborg_program::interp::{ExecConfig, Executor, Observer};
use softborg_program::overlay::{
    GuardAction, LockGate, LoopBound, Overlay, SiteGuard, GHOST_LOCK_BASE,
};
use softborg_program::sched::RandomSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{BranchSiteId, LockId, ThreadId};
use softborg_trace::{reconstruct, RecordingPolicy, TraceRecorder};

/// Records the trace and keeps the interpreter's own decision sequence.
struct Both {
    rec: TraceRecorder,
    path: Vec<(BranchSiteId, bool)>,
}

impl Observer for Both {
    fn on_branch(&mut self, t: ThreadId, s: BranchSiteId, taken: bool, dep: bool) {
        self.rec.on_branch(t, s, taken, dep);
        self.path.push((s, taken));
    }
    fn on_schedule(&mut self, t: ThreadId) {
        self.rec.on_schedule(t);
    }
    fn on_syscall(&mut self, t: ThreadId, k: SyscallKind, a: i64, r: i64) {
        self.rec.on_syscall(t, k, a, r);
    }
    fn on_guard_eval(&mut self, t: ThreadId, loc: Loc, fired: bool) {
        self.rec.on_guard_eval(t, loc, fired);
    }
}

/// A random predicate: constant, input-derived, or faulting.
fn predicate(program: &Program, rng: &mut SmallRng) -> Expr {
    match rng.gen_range(0..4u32) {
        0 => Expr::Const(rng.gen_range(0..2i64)),
        1 => Expr::bin(BinOp::Div, Expr::Const(1), Expr::Const(0)),
        _ if program.n_inputs > 0 => Expr::eq(
            Expr::bin(
                BinOp::Rem,
                Expr::input(rng.gen_range(0..program.n_inputs)),
                Expr::Const(rng.gen_range(2..5i64)),
            ),
            Expr::Const(0),
        ),
        _ => Expr::Const(1),
    }
}

/// Random guards (on statements and terminators), gates over random lock
/// subsets, and loop bounds on random branch blocks.
fn random_overlay(program: &Program, rng: &mut SmallRng) -> Overlay {
    let mut overlay = Overlay::empty();
    let blocks: Vec<_> = program.blocks().collect();
    for _ in 0..rng.gen_range(0..4usize) {
        let (thread, block, blk) = blocks[rng.gen_range(0..blocks.len())];
        let action = match rng.gen_range(0..3u32) {
            0 => GuardAction::SkipStmt,
            1 => GuardAction::ExitThread,
            _ if program.n_locals > 0 => GuardAction::SetPlace(
                local(rng.gen_range(0..program.n_locals)),
                rng.gen_range(-3..10i64),
            ),
            _ => GuardAction::SkipStmt,
        };
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread,
                block,
                stmt: rng.gen_range(0..=blk.stmts.len() as u32),
            },
            when: predicate(program, rng),
            action,
        });
    }
    for g in 0..rng.gen_range(0..3u32) {
        let locks = (0..program.n_locks)
            .filter(|_| rng.gen_range(0..2u32) == 0)
            .map(LockId::new)
            .collect();
        overlay.lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE + g),
            locks,
        });
    }
    let sites = program.branch_sites();
    if !sites.is_empty() {
        for _ in 0..rng.gen_range(0..3usize) {
            let (_, thread, header, _) = sites[rng.gen_range(0..sites.len())];
            overlay.loop_bounds.push(LoopBound {
                thread,
                header,
                max_iters: rng.gen_range(1..20u64),
            });
        }
    }
    overlay
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_reconstruct_matches_the_interpreter(
        gen_seed in 0u64..1_000_000,
        n_threads in 1u32..4,
        bug_mask in 0usize..256,
        input_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        short_read in 0u32..1000,
        overlay_seed in any::<u64>(),
        full_branch in any::<bool>(),
    ) {
        let bugs: Vec<BugKind> = BugKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| bug_mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .collect();
        let gp = generate(&GenConfig {
            seed: gen_seed,
            n_threads,
            constructs_per_thread: 6,
            bugs,
            ..GenConfig::default()
        });
        let program = &gp.program;
        let overlay = random_overlay(program, &mut SmallRng::seed_from_u64(overlay_seed));
        let inputs = sample_inputs(
            program.n_inputs,
            gp.input_range,
            &mut SmallRng::seed_from_u64(input_seed),
        );
        let policy = if full_branch {
            RecordingPolicy::FullBranch
        } else {
            RecordingPolicy::InputDependent
        };
        let exec = Executor::new(program).with_config(ExecConfig { max_steps: 5_000 });
        let mut obs = Both {
            rec: TraceRecorder::new(program.id(), policy, 0, program.threads.len() > 1),
            path: Vec::new(),
        };
        let r = exec
            .run(
                &inputs,
                &mut DefaultEnv::new(EnvConfig {
                    seed: input_seed,
                    short_read_per_mille: short_read,
                    ..EnvConfig::default()
                }),
                &mut RandomSched::seeded(sched_seed),
                &overlay,
                &mut obs,
            )
            .expect("arity matches");
        let trace = obs.rec.finish(r.outcome.clone(), r.steps);
        let got = reconstruct(program, exec.dependence(), &overlay, &trace);
        prop_assert_eq!(
            got.map(|p| p.decisions),
            Ok(obs.path),
            "outcome {:?}, overlay {:?}",
            r.outcome,
            overlay
        );
    }
}
