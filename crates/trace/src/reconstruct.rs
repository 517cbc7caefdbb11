//! Hive-side path reconstruction: turn a bit-vector trace back into the
//! full branch-decision sequence.
//!
//! The pod records one bit per *input-dependent* branch; "merging a path
//! into an existing … execution tree consists of reconstructing the
//! deterministic branches" (paper, §3.2). Reconstruction replays the
//! program with *unknown* inputs: every value derived from an input is ⊥;
//! at an input-dependent branch the recorded bit decides the direction; at
//! a deterministic branch the condition is evaluated concretely (the taint
//! analysis guarantees its operands are known). Syscall returns and the
//! thread schedule come from the trace's summaries, and overlay effects
//! (gates, guards via recorded guard bits, loop bounds) are mirrored so
//! traces from instrumented pods replay faithfully.

use crate::bitvec::BitReader;
use crate::record::{ExecutionTrace, RecordingPolicy};
use softborg_program::cfg::{Loc, Program, Stmt, Terminator};
use softborg_program::expr::{BinOp, Expr, Place, UnOp};
use softborg_program::overlay::{GuardAction, Overlay};
use softborg_program::taint::InputDependence;
use softborg_program::{BlockId, BranchSiteId, LockId, ThreadId};
use std::fmt;

/// A fully reconstructed execution path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconstructedPath {
    /// Branch decisions in global dynamic order — the path the execution
    /// tree stores.
    pub decisions: Vec<(BranchSiteId, bool)>,
    /// `true` when replay stopped at a crash point before exhausting the
    /// step budget (normal for crashing traces).
    pub ended_at_crash: bool,
}

/// Why reconstruction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// The trace's policy does not permit exact reconstruction
    /// (outcome-only or sampled traces specify path *families*).
    InexactPolicy(RecordingPolicy),
    /// The branch bit-vector ran out before the path was complete.
    BranchBitsExhausted,
    /// The guard bit-vector ran out.
    GuardBitsExhausted,
    /// The syscall-return summary ran out.
    SyscallRetsExhausted,
    /// The recorded schedule picked a thread that is not runnable — the
    /// trace is corrupt or from a different program/overlay version.
    ScheduleMismatch {
        /// The step at which the mismatch occurred.
        step: u64,
    },
    /// A branch classified as deterministic read an unknown value — would
    /// indicate a taint-analysis soundness bug.
    UnknownDeterministicBranch(BranchSiteId),
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::InexactPolicy(p) => {
                write!(f, "policy {p:?} does not permit exact reconstruction")
            }
            ReconstructError::BranchBitsExhausted => f.write_str("branch bits exhausted"),
            ReconstructError::GuardBitsExhausted => f.write_str("guard bits exhausted"),
            ReconstructError::SyscallRetsExhausted => f.write_str("syscall returns exhausted"),
            ReconstructError::ScheduleMismatch { step } => {
                write!(f, "schedule mismatch at step {step}")
            }
            ReconstructError::UnknownDeterministicBranch(s) => {
                write!(f, "deterministic branch {s} had unknown operands")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

type Val = Option<i64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(LockId),
    Done,
}

struct RThread {
    block: u32,
    stmt: u32,
    status: Status,
}

/// Lock ownership for one replay, in a dense table: program locks index
/// their own slot, and any other id (an overlay's ghost gate) takes the
/// next slot on first acquisition. A thread holds a lock exactly when it
/// owns its slot, so no per-thread held set is kept.
struct Locks {
    n_program: u32,
    /// Ids of the slots past the program's locks, in first-use order.
    extra: Vec<LockId>,
    owner: Vec<Option<ThreadId>>,
}

impl Locks {
    fn new(n_program: u32) -> Self {
        Locks {
            n_program,
            extra: Vec::new(),
            owner: vec![None; n_program as usize],
        }
    }

    fn slot(&self, lock: LockId) -> Option<usize> {
        if lock.0 < self.n_program {
            return Some(lock.index());
        }
        let i = self.extra.iter().position(|&l| l == lock)?;
        Some(self.n_program as usize + i)
    }

    fn id(&self, slot: usize) -> LockId {
        match slot.checked_sub(self.n_program as usize) {
            Some(i) => self.extra[i],
            None => LockId::new(slot as u32),
        }
    }

    fn owner(&self, lock: LockId) -> Option<ThreadId> {
        self.slot(lock).and_then(|s| self.owner[s])
    }

    fn holds(&self, t: ThreadId, lock: LockId) -> bool {
        self.owner(lock) == Some(t)
    }

    fn acquire(&mut self, t: ThreadId, lock: LockId) {
        let slot = self.slot(lock).unwrap_or_else(|| {
            self.extra.push(lock);
            self.owner.push(None);
            self.owner.len() - 1
        });
        self.owner[slot] = Some(t);
    }

    fn clear(&mut self, lock: LockId) {
        if let Some(slot) = self.slot(lock) {
            self.owner[slot] = None;
        }
    }
}

/// Replays `trace` against `program` (with `overlay` in force) and returns
/// the full branch-decision path.
///
/// The replay borrows the program's statements and terminators in place
/// and keeps its state in tables sized by the program and the overlay, so
/// one call allocates a bounded number of times however many steps it
/// replays, plus the growth of the returned `decisions`.
///
/// # Errors
///
/// See [`ReconstructError`]. Traces recorded under
/// [`RecordingPolicy::FullBranch`] or [`RecordingPolicy::InputDependent`]
/// from the same program + overlay version always reconstruct.
pub fn reconstruct(
    program: &Program,
    deps: &InputDependence,
    overlay: &Overlay,
    trace: &ExecutionTrace,
) -> Result<ReconstructedPath, ReconstructError> {
    if !trace.policy.is_exact() {
        return Err(ReconstructError::InexactPolicy(trace.policy));
    }
    let full = trace.policy == RecordingPolicy::FullBranch;
    let multi = program.threads.len() > 1;
    // The overlay's lookups are out-of-line calls on the step path; skip
    // them when it has no rule of that kind.
    let has_guards = !overlay.guards.is_empty();
    let has_gates = !overlay.lock_gates.is_empty();

    let mut threads: Vec<RThread> = program
        .threads
        .iter()
        .map(|_| RThread {
            block: 0,
            stmt: 0,
            status: Status::Runnable,
        })
        .collect();
    // Every thread's locals in one frame: thread `t` owns
    // `locals[t * n_locals..][..n_locals]`.
    let n_locals = program.n_locals as usize;
    let mut locals: Vec<Val> = vec![Some(0); threads.len() * n_locals];
    let mut globals: Vec<Val> = vec![Some(0); program.n_globals as usize];
    let mut locks = Locks::new(program.n_locks);
    // Header entries per loop bound, indexed like `overlay.loop_bounds`
    // (the first bound matching a thread and header counts for it).
    let mut header_visits: Vec<u64> = vec![0; overlay.loop_bounds.len()];
    // Gates found stale by one unlock, released after the scan.
    let mut stale: Vec<LockId> = Vec::new();
    let mut bits = BitReader::new(&trace.bits);
    let mut guard_bits = BitReader::new(&trace.guard_bits);
    let mut rets = trace.syscall_rets.iter().copied();
    // In a faithful trace every recorded bit becomes one decision (and
    // every decision has one under `FullBranch`), so the bit count is a
    // floor on the path length.
    let mut decisions = Vec::with_capacity(trace.bits.len());
    let mut ended_at_crash = false;

    'steps: for step in 0..trace.steps {
        let t = if multi {
            if !threads.iter().any(|t| t.status == Status::Runnable) {
                break; // success or deadlock; either way the path is done
            }
            match trace.schedule.get(step as usize) {
                Some(&raw) => {
                    if threads.get(raw as usize).map(|t| t.status) != Some(Status::Runnable) {
                        return Err(ReconstructError::ScheduleMismatch { step });
                    }
                    ThreadId::new(raw)
                }
                None => break, // schedule summary ended with the execution
            }
        } else {
            match threads.first() {
                Some(t) if t.status == Status::Runnable => ThreadId::new(0),
                _ => break,
            }
        };

        let ti = t.index();
        let frame = ti * n_locals..(ti + 1) * n_locals;
        let blk = &program.threads[ti].blocks[threads[ti].block as usize];
        let at_term = threads[ti].stmt as usize >= blk.stmts.len();

        // Guards mirror the interpreter: evaluated (bit consumed) on every
        // step at a guarded location.
        let cur_loc = Loc {
            thread: t,
            block: BlockId::new(threads[ti].block),
            stmt: threads[ti].stmt,
        };
        let guard = if has_guards {
            overlay.guard_at(cur_loc)
        } else {
            None
        };
        if let Some(guard) = guard {
            let fired = guard_bits
                .next_bit()
                .ok_or(ReconstructError::GuardBitsExhausted)?;
            if fired {
                match guard.action {
                    GuardAction::SkipStmt => {
                        if at_term {
                            thread_done(&mut threads, &mut locks, t);
                        } else {
                            threads[ti].stmt += 1;
                        }
                        continue 'steps;
                    }
                    GuardAction::ExitThread => {
                        thread_done(&mut threads, &mut locks, t);
                        continue 'steps;
                    }
                    GuardAction::SetPlace(place, value) => {
                        store(&mut locals[frame.clone()], &mut globals, place, Some(value));
                        // fall through to the statement
                    }
                }
            }
        }

        if !at_term {
            match &blk.stmts[threads[ti].stmt as usize] {
                Stmt::Assign(place, e) => match eval_opt(e, &locals[frame.clone()], &globals) {
                    EvalRes::Val(v) => {
                        store(&mut locals[frame], &mut globals, *place, v);
                        threads[ti].stmt += 1;
                    }
                    EvalRes::Crash => {
                        ended_at_crash = true;
                        break 'steps;
                    }
                },
                &Stmt::Lock(lock) => {
                    let missing_gate = if has_gates {
                        overlay
                            .gates_for(lock)
                            .map(|g| g.gate)
                            .find(|&gate| !locks.holds(t, gate))
                    } else {
                        None
                    };
                    let target = missing_gate.unwrap_or(lock);
                    match locks.owner(target) {
                        None => {
                            locks.acquire(t, target);
                            if missing_gate.is_none() {
                                threads[ti].stmt += 1;
                            }
                        }
                        Some(owner) if owner == t => {
                            // Self-deadlock ended the original execution.
                            break 'steps;
                        }
                        Some(_) => {
                            threads[ti].status = Status::Blocked(target);
                        }
                    }
                }
                &Stmt::Unlock(lock) => {
                    if !locks.holds(t, lock) {
                        ended_at_crash = true;
                        break 'steps;
                    }
                    release(&mut threads, &mut locks, t, lock);
                    // Auto-release stale gates, mirroring the interpreter.
                    stale.extend(
                        overlay
                            .lock_gates
                            .iter()
                            .filter(|g| {
                                locks.holds(t, g.gate)
                                    && g.locks.iter().all(|&l| !locks.holds(t, l))
                            })
                            .map(|g| g.gate),
                    );
                    for gate in stale.drain(..) {
                        release(&mut threads, &mut locks, t, gate);
                    }
                    threads[ti].stmt += 1;
                }
                Stmt::Syscall { arg, ret, .. } => {
                    // The argument may be unknown; the return is recorded.
                    match eval_opt(arg, &locals[frame.clone()], &globals) {
                        EvalRes::Crash => {
                            ended_at_crash = true;
                            break 'steps;
                        }
                        EvalRes::Val(_) => {}
                    }
                    let r = rets.next().ok_or(ReconstructError::SyscallRetsExhausted)?;
                    store(&mut locals[frame], &mut globals, *ret, Some(r));
                    threads[ti].stmt += 1;
                }
                Stmt::Assert(e) => match eval_opt(e, &locals[frame], &globals) {
                    EvalRes::Val(Some(0)) => {
                        ended_at_crash = true;
                        break 'steps;
                    }
                    EvalRes::Val(_) => threads[ti].stmt += 1,
                    EvalRes::Crash => {
                        ended_at_crash = true;
                        break 'steps;
                    }
                },
                Stmt::Emit(e) => {
                    if matches!(eval_opt(e, &locals[frame], &globals), EvalRes::Crash) {
                        ended_at_crash = true;
                        break 'steps;
                    }
                    threads[ti].stmt += 1;
                }
                Stmt::Yield => threads[ti].stmt += 1,
            }
            continue 'steps;
        }

        // Terminator.
        match &blk.term {
            Terminator::Goto(target) => {
                threads[ti].block = target.0;
                threads[ti].stmt = 0;
            }
            &Terminator::Branch {
                site,
                ref cond,
                then_bb,
                else_bb,
            } => {
                if let Some(i) = overlay.bound_for(t, BlockId::new(threads[ti].block)) {
                    header_visits[i] += 1;
                    if header_visits[i] > overlay.loop_bounds[i].max_iters {
                        thread_done(&mut threads, &mut locks, t);
                        continue 'steps;
                    }
                }
                let dependent = deps.is_dependent(site);
                let taken = if full || dependent {
                    // The recorded bit is ground truth, even where the
                    // condition could be evaluated.
                    bits.next_bit()
                        .ok_or(ReconstructError::BranchBitsExhausted)?
                } else {
                    match eval_opt(cond, &locals[frame], &globals) {
                        EvalRes::Val(Some(v)) => v != 0,
                        EvalRes::Val(None) => {
                            return Err(ReconstructError::UnknownDeterministicBranch(site))
                        }
                        EvalRes::Crash => {
                            ended_at_crash = true;
                            break 'steps;
                        }
                    }
                };
                decisions.push((site, taken));
                threads[ti].block = if taken { then_bb.0 } else { else_bb.0 };
                threads[ti].stmt = 0;
            }
            Terminator::Exit => {
                thread_done(&mut threads, &mut locks, t);
            }
        }
    }

    Ok(ReconstructedPath {
        decisions,
        ended_at_crash,
    })
}

fn store(locals: &mut [Val], globals: &mut [Val], place: Place, value: Val) {
    match place {
        Place::Local(l) => locals[l.index()] = value,
        Place::Global(g) => globals[g.index()] = value,
    }
}

fn release(threads: &mut [RThread], locks: &mut Locks, t: ThreadId, lock: LockId) {
    locks.clear(lock);
    for (i, ts) in threads.iter_mut().enumerate() {
        if ts.status == Status::Blocked(lock) && i != t.index() {
            ts.status = Status::Runnable;
        }
    }
}

/// Marks `t` finished, releasing every lock it still holds.
fn thread_done(threads: &mut [RThread], locks: &mut Locks, t: ThreadId) {
    for slot in 0..locks.owner.len() {
        if locks.owner[slot] == Some(t) {
            let lock = locks.id(slot);
            release(threads, locks, t, lock);
        }
    }
    threads[t.index()].status = Status::Done;
}

enum EvalRes {
    Val(Val),
    /// Evaluation would have crashed the original execution
    /// (known-zero divisor).
    Crash,
}

fn eval_opt(e: &Expr, locals: &[Val], globals: &[Val]) -> EvalRes {
    let v = match e {
        Expr::Const(c) => Some(*c),
        Expr::Input(_) => None,
        Expr::Load(Place::Local(l)) => locals[l.index()],
        Expr::Load(Place::Global(g)) => globals[g.index()],
        Expr::Un(op, inner) => match eval_opt(inner, locals, globals) {
            EvalRes::Crash => return EvalRes::Crash,
            EvalRes::Val(None) => None,
            EvalRes::Val(Some(v)) => Some(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => i64::from(v == 0),
                UnOp::BitNot => !v,
            }),
        },
        Expr::Bin(op, a, b) => {
            let x = match eval_opt(a, locals, globals) {
                EvalRes::Crash => return EvalRes::Crash,
                EvalRes::Val(v) => v,
            };
            let y = match eval_opt(b, locals, globals) {
                EvalRes::Crash => return EvalRes::Crash,
                EvalRes::Val(v) => v,
            };
            match (op, x, y) {
                // Short-circuitable logic keeps precision with one ⊥ side.
                (BinOp::And, Some(0), _) | (BinOp::And, _, Some(0)) => Some(0),
                (BinOp::Or, Some(x), _) if x != 0 => Some(1),
                (BinOp::Or, _, Some(y)) if y != 0 => Some(1),
                (BinOp::Div | BinOp::Rem, _, Some(0)) => return EvalRes::Crash,
                (_, Some(x), Some(y)) => match softborg_program::expr::apply_bin(*op, x, y) {
                    Ok(v) => Some(v),
                    Err(_) => return EvalRes::Crash,
                },
                _ => None,
            }
        }
    };
    EvalRes::Val(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use softborg_program::gen::{generate, BugKind, GenConfig};
    use softborg_program::interp::{ExecConfig, Executor, Observer, Outcome};
    use softborg_program::scenarios;
    use softborg_program::sched::RandomSched;
    use softborg_program::syscall::{DefaultEnv, EnvConfig};

    /// Observer that both records a trace and captures the ground-truth
    /// decision sequence.
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
        fn on_syscall(
            &mut self,
            t: ThreadId,
            k: softborg_program::cfg::SyscallKind,
            a: i64,
            r: i64,
        ) {
            self.rec.on_syscall(t, k, a, r);
        }
        fn on_guard_eval(&mut self, t: ThreadId, loc: Loc, fired: bool) {
            self.rec.on_guard_eval(t, loc, fired);
        }
    }

    fn roundtrip(
        program: &Program,
        inputs: &[i64],
        sched_seed: u64,
        env: EnvConfig,
        overlay: &Overlay,
        policy: RecordingPolicy,
    ) {
        let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: 20_000 });
        let multi = program.threads.len() > 1;
        let mut obs = Both {
            rec: TraceRecorder::new(program.id(), policy, 0, multi),
            path: Vec::new(),
        };
        let mut sched = RandomSched::seeded(sched_seed);
        let r = exec
            .run(
                inputs,
                &mut DefaultEnv::new(env),
                &mut sched,
                overlay,
                &mut obs,
            )
            .unwrap();
        let trace = obs.rec.finish(r.outcome.clone(), r.steps);
        let got = reconstruct(program, exec.dependence(), overlay, &trace)
            .unwrap_or_else(|e| panic!("reconstruct failed: {e} (outcome {:?})", r.outcome));
        assert_eq!(got.decisions, obs.path, "outcome was {:?}", r.outcome);
    }

    #[test]
    fn reconstructs_all_scenarios_under_both_exact_policies() {
        for s in scenarios::all() {
            let mut rng = SmallRng::seed_from_u64(7);
            for i in 0..10u64 {
                let inputs = softborg_program::gen::sample_inputs(
                    s.program.n_inputs,
                    s.input_range,
                    &mut rng,
                );
                for policy in [RecordingPolicy::FullBranch, RecordingPolicy::InputDependent] {
                    roundtrip(
                        &s.program,
                        &inputs,
                        i,
                        EnvConfig::default(),
                        &Overlay::empty(),
                        policy,
                    );
                }
            }
        }
    }

    #[test]
    fn reconstructs_generated_programs_with_bugs() {
        for seed in 0..20 {
            let gp = generate(&GenConfig {
                seed,
                bugs: vec![
                    BugKind::AssertMagic,
                    BugKind::LockInversion,
                    BugKind::ShortRead,
                ],
                ..GenConfig::default()
            });
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in 0..5u64 {
                let inputs = gp.sample_inputs(&mut rng);
                roundtrip(
                    &gp.program,
                    &inputs,
                    seed * 100 + i,
                    EnvConfig {
                        short_read_per_mille: 200,
                        ..EnvConfig::default()
                    },
                    &Overlay::empty(),
                    RecordingPolicy::InputDependent,
                );
            }
        }
    }

    #[test]
    fn reconstructs_crashing_runs() {
        let s = scenarios::token_parser();
        // Bug A trigger.
        roundtrip(
            &s.program,
            &[13, 95, 7, 0, 0, 0],
            0,
            EnvConfig::default(),
            &Overlay::empty(),
            RecordingPolicy::InputDependent,
        );
        // Bug B trigger.
        roundtrip(
            &s.program,
            &[1, 2, 3, 4, 85, 66],
            0,
            EnvConfig::default(),
            &Overlay::empty(),
            RecordingPolicy::InputDependent,
        );
    }

    #[test]
    fn reconstructs_under_overlay_with_guards_and_gates() {
        use softborg_program::overlay::{LockGate, SiteGuard, GHOST_LOCK_BASE};
        // Bank scenario with a deadlock-immunity gate + a guard on the
        // assert.
        let s = scenarios::bank_transfer();
        let mut overlay = Overlay::empty();
        overlay.lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: [LockId::new(0), LockId::new(1)].into_iter().collect(),
        });
        // A guard that never fires (predicate is false) still consumes
        // guard bits on both sides.
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread: ThreadId::new(0),
                block: BlockId::new(0),
                stmt: 0,
            },
            when: Expr::Const(0),
            action: GuardAction::ExitThread,
        });
        for seed in 0..20 {
            roundtrip(
                &s.program,
                &[10, 20],
                seed,
                EnvConfig::default(),
                &overlay,
                RecordingPolicy::InputDependent,
            );
        }
    }

    #[test]
    fn sampled_traces_are_rejected_as_inexact() {
        let s = scenarios::triangle();
        let trace = ExecutionTrace {
            program: s.program.id(),
            policy: RecordingPolicy::Sampled {
                period: 10,
                phase: 0,
            },
            bits: crate::bitvec::BitVec::new(),
            guard_bits: crate::bitvec::BitVec::new(),
            syscall_rets: vec![],
            schedule: vec![],
            steps: 0,
            outcome: Outcome::Success,
            overlay_version: 0,
            lock_pairs: vec![],
            global_summaries: vec![],
        };
        let deps = InputDependence::compute(&s.program);
        let err = reconstruct(&s.program, &deps, &Overlay::empty(), &trace).unwrap_err();
        assert!(matches!(err, ReconstructError::InexactPolicy(_)));
    }

    #[test]
    fn missing_bits_reported_not_panicked() {
        let s = scenarios::triangle();
        let trace = ExecutionTrace {
            program: s.program.id(),
            policy: RecordingPolicy::InputDependent,
            bits: crate::bitvec::BitVec::new(), // empty: bits missing
            guard_bits: crate::bitvec::BitVec::new(),
            syscall_rets: vec![],
            schedule: vec![],
            steps: 100,
            outcome: Outcome::Success,
            overlay_version: 0,
            lock_pairs: vec![],
            global_summaries: vec![],
        };
        let deps = InputDependence::compute(&s.program);
        let err = reconstruct(&s.program, &deps, &Overlay::empty(), &trace).unwrap_err();
        assert_eq!(err, ReconstructError::BranchBitsExhausted);
    }
}
