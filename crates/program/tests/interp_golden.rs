//! Pins the interpreter's observable behaviour to literals: any change to
//! what a run returns, records or reports to its observer — and in which
//! order — moves a digest here.
//!
//! Each digest is FNV-1a over, per run: the `ExecResult` (outcome, steps,
//! emitted stream, counters), every `Observer` callback in call order,
//! and the recorded trace's bits, guard bits, syscall returns, schedule
//! and outcome. `ProgramId` is left out: it is not yet a stable hash.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::cfg::{local, SyscallKind};
use softborg_program::expr::{BinOp, Expr};
use softborg_program::gen::{generate, sample_inputs, BugKind, GenConfig, GeneratedProgram};
use softborg_program::interp::{ExecConfig, ExecResult, Executor, Observer, Outcome};
use softborg_program::overlay::{
    GuardAction, LockGate, LoopBound, Overlay, SiteGuard, GHOST_LOCK_BASE,
};
use softborg_program::sched::{RandomSched, ScriptSched};
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{BlockId, BranchSiteId, GlobalId, Loc, LockId, ProgramId, ThreadId};
use softborg_trace::{RecordingPolicy, TraceRecorder};

/// Folds every callback into a running hash and forwards it to a real
/// recorder, so both the callback order and the recorded trace are pinned.
struct Tape {
    hash: u64,
    recorder: TraceRecorder,
}

impl Tape {
    fn fold(&mut self, tag: u8, words: &[u64]) {
        self.hash = fnv1a_step(self.hash, &[tag]);
        for w in words {
            self.hash = fnv1a_step(self.hash, &w.to_le_bytes());
        }
    }
}

fn loc_words(loc: Loc) -> [u64; 3] {
    [loc.thread.0.into(), loc.block.0.into(), loc.stmt.into()]
}

impl Observer for Tape {
    fn on_branch(&mut self, t: ThreadId, site: BranchSiteId, taken: bool, dep: bool) {
        self.fold(1, &[t.0.into(), site.0.into(), taken.into(), dep.into()]);
        self.recorder.on_branch(t, site, taken, dep);
    }
    fn on_schedule(&mut self, t: ThreadId) {
        self.fold(2, &[t.0.into()]);
        self.recorder.on_schedule(t);
    }
    fn on_syscall(&mut self, t: ThreadId, kind: SyscallKind, arg: i64, ret: i64) {
        self.fold(3, &[t.0.into(), kind as u64, arg as u64, ret as u64]);
        self.recorder.on_syscall(t, kind, arg, ret);
    }
    fn on_lock_acquired(&mut self, t: ThreadId, lock: LockId, loc: Loc, held: &[LockId]) {
        self.fold(4, &[t.0.into(), lock.0.into()]);
        self.fold(4, &loc_words(loc));
        self.recorder.on_lock_acquired(t, lock, loc, held);
    }
    fn on_lock_blocked(&mut self, t: ThreadId, lock: LockId, owner: ThreadId) {
        self.fold(5, &[t.0.into(), lock.0.into(), owner.0.into()]);
        self.recorder.on_lock_blocked(t, lock, owner);
    }
    fn on_lock_released(&mut self, t: ThreadId, lock: LockId) {
        self.fold(6, &[t.0.into(), lock.0.into()]);
        self.recorder.on_lock_released(t, lock);
    }
    fn on_global_access(
        &mut self,
        t: ThreadId,
        g: GlobalId,
        is_write: bool,
        loc: Loc,
        held: &[LockId],
    ) {
        self.fold(7, &[t.0.into(), g.0.into(), is_write.into()]);
        self.fold(7, &loc_words(loc));
        let locks: Vec<u64> = held.iter().map(|l| l.0.into()).collect();
        self.fold(7, &locks);
        self.recorder.on_global_access(t, g, is_write, loc, held);
    }
    fn on_emit(&mut self, t: ThreadId, value: i64) {
        self.fold(8, &[t.0.into(), value as u64]);
        self.recorder.on_emit(t, value);
    }
    fn on_overlay_hit(&mut self, t: ThreadId, rule: &'static str) {
        self.fold(9, &[t.0.into()]);
        self.hash = fnv1a_step(self.hash, rule.as_bytes());
        self.recorder.on_overlay_hit(t, rule);
    }
    fn on_guard_eval(&mut self, t: ThreadId, loc: Loc, fired: bool) {
        self.fold(10, &[t.0.into(), fired.into()]);
        self.fold(10, &loc_words(loc));
        self.recorder.on_guard_eval(t, loc, fired);
    }
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
    w.iter().fold(h, |h, x| fnv1a_step(h, &x.to_le_bytes()))
}

fn fold_result(mut h: u64, r: &ExecResult) -> u64 {
    h = fold_outcome(h, &r.outcome);
    let mut w = vec![r.steps, r.n_branches, r.n_syscalls, r.overlay_hits];
    w.extend(
        r.emitted
            .iter()
            .flat_map(|(t, v)| [u64::from(t.0), *v as u64]),
    );
    w.iter().fold(h, |h, x| fnv1a_step(h, &x.to_le_bytes()))
}

/// Overlays exercising every interception rule the interpreter honours.
fn overlays(gp: &GeneratedProgram) -> Vec<Overlay> {
    let p = &gp.program;
    let bug = &gp.bugs[0];
    let at = bug.loc.unwrap_or(Loc {
        thread: ThreadId::new(0),
        block: BlockId::new(0),
        stmt: 0,
    });
    // Fires on the bug's trigger when it has one, otherwise on odd inputs.
    let when = match (bug.input, bug.trigger_value) {
        (Some(i), Some(v)) => Expr::eq(Expr::Input(i), Expr::Const(v)),
        _ => Expr::eq(
            Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(2)),
            Expr::Const(1),
        ),
    };
    let guard = |action| Overlay {
        guards: vec![SiteGuard {
            loc: at,
            when: when.clone(),
            action,
        }],
        ..Overlay::empty()
    };
    // A predicate that faults is treated as not firing.
    let mut faulting = guard(GuardAction::SkipStmt);
    faulting.guards[0].when = Expr::bin(BinOp::Div, Expr::Const(1), Expr::Const(0));
    let gate = Overlay {
        lock_gates: vec![LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: (0..p.n_locks).map(LockId::new).collect(),
        }],
        ..Overlay::empty()
    };
    let bound = Overlay {
        loop_bounds: p
            .branch_sites()
            .iter()
            .take(3)
            .map(|&(_, thread, header, _)| LoopBound {
                thread,
                header,
                max_iters: 2,
            })
            .collect(),
        ..Overlay::empty()
    };
    let mut all = guard(GuardAction::SetPlace(local(p.n_locals - 1), 1));
    all.merge(&gate);
    all.merge(&bound);
    vec![
        Overlay::empty(),
        guard(GuardAction::SkipStmt),
        guard(GuardAction::ExitThread),
        guard(GuardAction::SetPlace(local(p.n_locals - 1), 1)),
        faulting,
        gate,
        bound,
        all,
    ]
}

/// Digest of every run of one generated program carrying `kind`.
fn digest(kind: BugKind) -> u64 {
    let gp = generate(&GenConfig {
        seed: 0x601d + kind as u64,
        constructs_per_thread: 6,
        bugs: vec![kind],
        ..GenConfig::default()
    });
    let p = &gp.program;
    let mut exec = Executor::new(p).with_config(ExecConfig { max_steps: 2_000 });
    let n_threads = p.threads.len() as u32;
    let mut h = FNV_OFFSET;
    for overlay in overlays(&gp) {
        for seed in 0..6u64 {
            let mut inputs = sample_inputs(
                p.n_inputs,
                gp.input_range,
                &mut SmallRng::seed_from_u64(seed),
            );
            if seed % 2 == 1 {
                inputs = gp.bugs[0].triggering_inputs(&inputs).unwrap_or(inputs);
            }
            let env = EnvConfig {
                seed,
                short_read_per_mille: (seed as u32 % 3) * 400,
                fd_limit: if seed % 3 == 2 { 2 } else { 0 },
                ..EnvConfig::default()
            };
            for scripted in [false, true] {
                let mut tape = Tape {
                    hash: FNV_OFFSET,
                    recorder: TraceRecorder::new(
                        ProgramId(0),
                        RecordingPolicy::FullBranch,
                        0,
                        n_threads > 1,
                    ),
                };
                let mut env = DefaultEnv::new(env.clone());
                let result = if scripted {
                    let script = (0..64u32)
                        .map(|i| ThreadId::new((i / (1 + seed as u32)) % n_threads))
                        .collect();
                    exec.run(
                        &inputs,
                        &mut env,
                        &mut ScriptSched::new(script),
                        &overlay,
                        &mut tape,
                    )
                } else {
                    let mut sched = RandomSched::seeded(seed);
                    exec.run(&inputs, &mut env, &mut sched, &overlay, &mut tape)
                }
                .expect("arity matches");
                let trace = tape.recorder.finish(result.outcome.clone(), result.steps);
                h = fold_result(fnv1a_step(h, &tape.hash.to_le_bytes()), &result);
                for bits in [&trace.bits, &trace.guard_bits] {
                    h = fnv1a_step(h, &(bits.len() as u64).to_le_bytes());
                    h = fnv1a_step(h, bits.as_bytes());
                }
                for r in &trace.syscall_rets {
                    h = fnv1a_step(h, &r.to_le_bytes());
                }
                for s in &trace.schedule {
                    h = fnv1a_step(h, &s.to_le_bytes());
                }
                for (a, b) in &trace.lock_pairs {
                    h = fnv1a_step(h, &[a.to_le_bytes(), b.to_le_bytes()].concat());
                }
                for g in &trace.global_summaries {
                    let mut w = vec![g.global, g.reader_mask, g.writer_mask];
                    w.extend(&g.lockset);
                    h = w.iter().fold(h, |h, x| fnv1a_step(h, &x.to_le_bytes()));
                }
                h = fold_outcome(h, &trace.outcome);
            }
        }
    }
    h
}

#[test]
fn interpreter_output_is_pinned_across_releases() {
    // A change here means a run's observable behaviour moved: re-pin only
    // for an intended change to what the interpreter does.
    let pinned: [(BugKind, u64); 8] = [
        (BugKind::AssertMagic, 0x9ff0_7d37_fae1_5ecb),
        (BugKind::DivByInputDelta, 0xe770_0b51_3b56_b721),
        (BugKind::LockInversion, 0x659a_7ec4_70e7_6cda),
        (BugKind::DataRace, 0x7826_9c28_f1e2_2200),
        (BugKind::InfiniteLoop, 0x4424_e648_d7ea_a9fe),
        (BugKind::ShortRead, 0x045a_a3b8_7cb1_13c6),
        (BugKind::ResourceLeak, 0x5be1_2299_3aec_26b9),
        (BugKind::Livelock, 0x7428_f472_7258_c190),
    ];
    let got: Vec<(BugKind, u64)> = BugKind::ALL.iter().map(|&k| (k, digest(k))).collect();
    assert_eq!(got, pinned);
}
