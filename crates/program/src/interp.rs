//! The deterministic multi-threaded interpreter for guest programs.
//!
//! Given a program, an input vector, an environment model, a scheduler and
//! an instrumentation [`Overlay`], [`Executor::run`] produces an
//! [`ExecResult`] while streaming execution *by-products* to an
//! [`Observer`] — branches taken, lock events, syscalls, schedule picks,
//! shared-memory accesses. Everything a pod records (paper, §3.1) flows
//! through the observer; the interpreter itself keeps no trace.
//!
//! Execution is deterministic: identical (program, inputs, environment
//! state, scheduler state, overlay) produce identical results, which is
//! what makes hive-side replay/reconstruction possible. Both run the one
//! [`Machine`] over a [`LoweredProgram`]: the executor on concrete values,
//! replay on known-or-⊥ values with its decisions read from a trace.

use crate::cfg::{Loc, Program, Stmt, SyscallKind, Terminator};
use crate::expr::{EvalFault, ExprCode, ExprRef, Place, Value};
use crate::ids::{BlockId, BranchSiteId, GlobalId, LockId, ThreadId};
use crate::overlay::{GuardAction, Overlay, SiteGuard};
use crate::sched::Scheduler;
use crate::syscall::EnvModel;
use crate::taint::InputDependence;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::fmt;

/// Why an execution crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CrashKind {
    /// An `Assert` evaluated to zero.
    AssertFailed,
    /// Division by zero in an expression.
    DivByZero,
    /// Remainder by zero in an expression.
    RemByZero,
    /// `Unlock` of a lock the thread does not hold.
    UnlockNotHeld,
}

impl fmt::Display for CrashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrashKind::AssertFailed => "assertion failed",
            CrashKind::DivByZero => "division by zero",
            CrashKind::RemByZero => "remainder by zero",
            CrashKind::UnlockNotHeld => "unlock of non-held lock",
        };
        f.write_str(s)
    }
}

/// The terminal classification of one execution (paper, §3.1: "an
/// indication of whether the execution was correct or not").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// All threads exited normally.
    Success,
    /// A thread crashed.
    Crash {
        /// Where.
        loc: Loc,
        /// Why.
        kind: CrashKind,
    },
    /// Threads are mutually blocked (or blocked on a lock whose owner
    /// exited). `cycle` lists `(waiter, awaited lock)` edges.
    Deadlock {
        /// Wait-for edges of the stalled threads.
        cycle: Vec<(ThreadId, LockId)>,
    },
    /// The step budget was exhausted with threads still running — inferred
    /// user feedback for "program is hung" (paper, §3.1).
    Hang {
        /// Where each unfinished thread was stuck.
        stuck: Vec<Loc>,
    },
}

impl Outcome {
    /// `true` for anything other than [`Outcome::Success`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Success)
    }

    /// A short stable label used in reports and bucketing.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Success => "success",
            Outcome::Crash { .. } => "crash",
            Outcome::Deadlock { .. } => "deadlock",
            Outcome::Hang { .. } => "hang",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Success => f.write_str("success"),
            Outcome::Crash { loc, kind } => write!(f, "crash at {loc}: {kind}"),
            Outcome::Deadlock { cycle } => write!(f, "deadlock ({} threads)", cycle.len()),
            Outcome::Hang { stuck } => write!(f, "hang ({} threads stuck)", stuck.len()),
        }
    }
}

/// Summary of one finished execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecResult {
    /// Terminal classification.
    pub outcome: Outcome,
    /// Scheduler steps consumed.
    pub steps: u64,
    /// The observable output stream: `(thread, value)` pairs in global
    /// emission order. Use [`ExecResult::emitted_values`] for the flat
    /// value list and [`ExecResult::emitted_by_thread`] for the
    /// per-thread projection (the right yardstick for semantic
    /// preservation in concurrent programs, where inter-thread order is
    /// the scheduler's business).
    pub emitted: Vec<(ThreadId, i64)>,
    /// Dynamic conditional branches executed.
    pub n_branches: u64,
    /// System calls performed.
    pub n_syscalls: u64,
    /// Overlay rules that fired during the run.
    pub overlay_hits: u64,
}

impl ExecResult {
    /// The emitted values in global order (thread tags stripped).
    pub fn emitted_values(&self) -> Vec<i64> {
        self.emitted.iter().map(|(_, v)| *v).collect()
    }

    /// The emitted values projected per thread (sorted by thread id).
    pub fn emitted_by_thread(&self) -> Vec<(ThreadId, Vec<i64>)> {
        let mut map: std::collections::BTreeMap<ThreadId, Vec<i64>> =
            std::collections::BTreeMap::new();
        for (t, v) in &self.emitted {
            map.entry(*t).or_default().push(*v);
        }
        map.into_iter().collect()
    }
}

/// Receives execution by-products as they happen.
///
/// All methods have empty default bodies so observers implement only what
/// they record. [`NopObserver`] records nothing (zero overhead — the
/// baseline for the recording-cost experiment E4).
#[allow(unused_variables)]
pub trait Observer {
    /// Whether [`on_global_access`](Self::on_global_access) and
    /// [`on_lock_acquired`](Self::on_lock_acquired) read their
    /// `locks_held`. A run keeps each thread's lockset only for an
    /// observer that does; any other is passed an empty one.
    const READS_LOCKSETS: bool = true;
    /// A conditional branch executed at `site`; `taken` is the then-arm,
    /// `input_dependent` is the static taint classification.
    fn on_branch(
        &mut self,
        thread: ThreadId,
        site: BranchSiteId,
        taken: bool,
        input_dependent: bool,
    ) {
    }
    /// The scheduler picked `thread` for the next step.
    fn on_schedule(&mut self, thread: ThreadId) {}
    /// A syscall returned.
    fn on_syscall(&mut self, thread: ThreadId, kind: SyscallKind, arg: i64, ret: i64) {}
    /// `thread` acquired `lock` while holding `locks_held` (ascending,
    /// `lock` not among them; empty unless the observer
    /// [reads locksets](Self::READS_LOCKSETS)).
    fn on_lock_acquired(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        loc: Loc,
        locks_held: &[LockId],
    ) {
    }
    /// `thread` blocked on `lock` currently owned by `owner`.
    fn on_lock_blocked(&mut self, thread: ThreadId, lock: LockId, owner: ThreadId) {}
    /// `thread` released `lock`.
    fn on_lock_released(&mut self, thread: ThreadId, lock: LockId) {}
    /// A shared global was read or written while holding `locks_held`
    /// (ascending).
    fn on_global_access(
        &mut self,
        thread: ThreadId,
        global: GlobalId,
        is_write: bool,
        loc: Loc,
        locks_held: &[LockId],
    ) {
    }
    /// An `Emit` statement produced an observable value.
    fn on_emit(&mut self, thread: ThreadId, value: i64) {}
    /// An overlay rule fired (gate taken, guard triggered, bound hit).
    fn on_overlay_hit(&mut self, thread: ThreadId, rule: &'static str) {}
    /// A site guard's predicate was evaluated (fired or not). Pods record
    /// these decisions so hive-side replay of instrumented executions stays
    /// aligned even though guard predicates read input-derived state.
    fn on_guard_eval(&mut self, thread: ThreadId, loc: Loc, fired: bool) {}
}

/// An observer that records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopObserver;

impl Observer for NopObserver {
    const READS_LOCKSETS: bool = false;
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Scheduler steps before declaring a hang.
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { max_steps: 200_000 }
    }
}

/// Errors surfaced before execution starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// `inputs.len()` does not match the program's declared input count.
    InputArity {
        /// Declared by the program.
        expected: u32,
        /// Supplied by the caller.
        got: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::InputArity { expected, got } => {
                write!(f, "program expects {expected} inputs, got {got}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(LockId),
    Done,
}

/// One statement or terminator, lowered: expressions are [`ExprRef`]s
/// into the program's [`ExprCode`], jump targets are resolved.
#[derive(Debug, Clone, Copy)]
enum Op {
    Assign(Place, ExprRef),
    Lock(LockId),
    Unlock(LockId),
    Syscall(SyscallKind, ExprRef, Place),
    Assert(ExprRef),
    Emit(ExprRef),
    Yield,
    Goto(Target),
    Branch {
        site: BranchSiteId,
        /// Whether the site carries a recording bit
        /// ([`InputDependence::is_dependent`]).
        dependent: bool,
        cond: ExprRef,
        then_bb: Target,
        else_bb: Target,
    },
    Exit,
}

/// A block and the index of its first op.
#[derive(Debug, Clone, Copy)]
struct Target {
    block: u32,
    base: u32,
}

/// A program lowered once for every [`Machine`] that steps it: every
/// block's statements then terminator, thread after thread, in one array
/// of `Copy` ops, with each branch marked by whether it carries a
/// recording bit — so the pod that records a trace and the hive that
/// replays it agree on that by construction.
#[derive(Debug)]
pub struct LoweredProgram {
    ops: Box<[Op]>,
    exprs: ExprCode,
    /// Per thread, each block's first op, then the thread's end.
    bases: Vec<Vec<u32>>,
    deps: InputDependence,
    n_inputs: u32,
    n_locals: u32,
    n_globals: u32,
    n_locks: u32,
}

impl LoweredProgram {
    /// Computes `program`'s input-dependence analysis and lowers it,
    /// marking the branches the analysis calls dependent.
    pub fn new(program: &Program) -> Self {
        let deps = InputDependence::compute(program);
        let (mut ops, mut exprs, mut bases) = (Vec::new(), ExprCode::default(), Vec::new());
        for body in &program.threads {
            // A block's ops: its statements, then its terminator.
            let mut starts = vec![ops.len() as u32];
            for blk in &body.blocks {
                starts.push(starts[starts.len() - 1] + blk.stmts.len() as u32 + 1);
            }
            let at = |b: BlockId| Target {
                block: b.0,
                base: starts[b.index()],
            };
            for blk in &body.blocks {
                for stmt in &blk.stmts {
                    ops.push(match stmt {
                        Stmt::Assign(place, e) => Op::Assign(*place, exprs.lower(e)),
                        Stmt::Lock(lock) => Op::Lock(*lock),
                        Stmt::Unlock(lock) => Op::Unlock(*lock),
                        Stmt::Syscall { kind, arg, ret } => {
                            Op::Syscall(*kind, exprs.lower(arg), *ret)
                        }
                        Stmt::Assert(e) => Op::Assert(exprs.lower(e)),
                        Stmt::Emit(e) => Op::Emit(exprs.lower(e)),
                        Stmt::Yield => Op::Yield,
                    });
                }
                ops.push(match &blk.term {
                    Terminator::Goto(target) => Op::Goto(at(*target)),
                    Terminator::Branch {
                        site,
                        cond,
                        then_bb,
                        else_bb,
                    } => Op::Branch {
                        site: *site,
                        dependent: deps.is_dependent(*site),
                        cond: exprs.lower(cond),
                        then_bb: at(*then_bb),
                        else_bb: at(*else_bb),
                    },
                    Terminator::Exit => Op::Exit,
                });
            }
            bases.push(starts);
        }
        LoweredProgram {
            ops: ops.into(),
            exprs,
            bases,
            deps,
            n_inputs: program.n_inputs,
            n_locals: program.n_locals,
            n_globals: program.n_globals,
            n_locks: program.n_locks,
        }
    }

    /// The input-dependence analysis the branches were marked by.
    pub fn dependence(&self) -> &InputDependence {
        &self.deps
    }

    /// The program's threads.
    pub fn n_threads(&self) -> usize {
        self.bases.len()
    }

    /// The program's inputs.
    pub fn n_inputs(&self) -> u32 {
        self.n_inputs
    }

    /// The program's globals.
    pub fn n_globals(&self) -> u32 {
        self.n_globals
    }

    /// Per global: whether a thread other than `unit` writes it.
    pub fn written_by_others(&self, unit: ThreadId) -> Vec<bool> {
        let mut written = vec![false; self.n_globals as usize];
        let own = &self.bases[unit.index()];
        let own = own[0] as usize..own[own.len() - 1] as usize;
        let others = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| !own.contains(i));
        for (_, op) in others {
            if let Op::Assign(Place::Global(g), _) | Op::Syscall(_, _, Place::Global(g)) = op {
                written[g.index()] = true;
            }
        }
        written
    }

    /// The op at `loc`, if the program has that location.
    fn op_at(&self, loc: Loc) -> Option<usize> {
        let starts = self
            .bases
            .get(loc.thread.index())?
            .get(loc.block.index()..)?;
        let (&base, &end) = (starts.first()?, starts.get(1)?);
        (loc.stmt < end - base).then_some((base + loc.stmt) as usize)
    }
}

#[derive(Debug, Clone, Copy)]
struct ThreadState {
    at: Target,
    stmt: u32,
    status: Status,
}

/// One run's state in dense, id-indexed tables, values in the domain
/// `V`. Keep one between runs so that a run reuses the last one's
/// allocations; a clone forks the run (see [`Machine::resume`]).
#[derive(Debug, Default, Clone)]
pub struct Scratch<V> {
    globals: Vec<V>,
    /// Every thread's locals: thread `t` owns `[t * n_locals..][..n_locals]`.
    locals: Vec<V>,
    threads: Vec<ThreadState>,
    /// Runnable threads in ascending order, updated on status changes.
    runnable: Vec<ThreadId>,
    /// Each thread's held locks, ascending, kept only for an observer
    /// that [reads them](Observer::READS_LOCKSETS).
    held: Vec<Vec<LockId>>,
    /// Owner per lock slot (see `Machine::slot`).
    owner: Vec<Option<ThreadId>>,
    /// Header entries per loop bound, indexed like `Overlay::loop_bounds`.
    header_visits: Vec<u64>,
    /// Per op, the index of the overlay's first guard at it, or
    /// `u32::MAX`; empty when the overlay has no guard.
    guard_of: Vec<u32>,
    /// The predicates of `lowered_guards`, lowered, indexed like them.
    guards: ExprCode,
    guard_refs: Vec<ExprRef>,
    /// The guards last lowered: lowered again only when they change.
    lowered_guards: Vec<SiteGuard>,
    /// Gates found stale by one unlock, released after the scan.
    stale: Vec<LockId>,
    /// Expression evaluation stack, as deep as the deepest expression.
    stack: Vec<V>,
}

/// Where a [`Machine`] run gets what the program does not determine: a
/// guard's firing or a branch's direction when the source recorded it
/// (the run evaluates the predicate or condition otherwise) and every
/// syscall's return. Its [`Observer`] sees the run's by-products, and
/// its [context](Value::Ctx) is what the run's values are computed in.
pub trait Decisions<V: Value> {
    /// Why the source ends a run early (a trace that ran out).
    type Error;
    /// What the run reports to.
    type Observer: Observer + ?Sized;
    /// Whether a thread that blocks and so closes a wait-for cycle ends
    /// the run ([`Stop::Deadlock`]). Replay's source does not: its
    /// recorded schedule ends the path.
    const STOPS_AT_CYCLES: bool = false;
    /// The run's observer.
    fn observer(&mut self) -> &mut Self::Observer;
    /// The context the run's values are computed in.
    fn ctx(&mut self) -> &mut V::Ctx;
    /// The next guard's recorded firing.
    fn recorded_guard(&mut self) -> Result<Option<bool>, Self::Error> {
        Ok(None)
    }
    /// The next branch's recorded direction.
    #[allow(unused_variables)]
    fn recorded_branch(&mut self, dependent: bool) -> Result<Option<bool>, Self::Error> {
        Ok(None)
    }
    /// The direction of a branch at `site` without a recorded one, whose
    /// condition is `cond`: its truth, and a ⊥ condition stops the run.
    #[inline]
    fn branch(&mut self, site: BranchSiteId, cond: V) -> Result<bool, Stop<Self::Error>> {
        cond.truth().ok_or(Stop::UnknownBranch(site))
    }
    /// An assertion of `cond`: a known-false one crashes the run.
    #[inline]
    fn assertion(&mut self, cond: V) -> Result<(), Stop<Self::Error>> {
        match cond.truth() {
            Some(false) => Err(Stop::Crash(CrashKind::AssertFailed)),
            _ => Ok(()),
        }
    }
    /// What a syscall returns.
    fn syscall(&mut self, thread: ThreadId, kind: SyscallKind, arg: V) -> Result<V, Self::Error>;
    /// An `Emit` produced `value`.
    fn emit(&mut self, thread: ThreadId, value: V);
}

/// Why a [`Machine::step`] ended the run. The stepped thread stays at
/// the statement that stopped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop<E> {
    /// The thread crashed.
    Crash(CrashKind),
    /// The thread tried to take a lock it holds.
    SelfDeadlock(LockId),
    /// The thread blocked and closed this wait-for cycle (only for a
    /// source that [stops at cycles](Decisions::STOPS_AT_CYCLES)).
    Deadlock(Vec<(ThreadId, LockId)>),
    /// A branch without a recorded direction had a ⊥ condition.
    UnknownBranch(BranchSiteId),
    /// The decision source ended the run.
    Source(E),
}

impl<E> From<EvalFault> for Stop<E> {
    fn from(fault: EvalFault) -> Self {
        Stop::Crash(match fault {
            EvalFault::DivByZero => CrashKind::DivByZero,
            EvalFault::RemByZero => CrashKind::RemByZero,
        })
    }
}

/// The pod's decision source: it evaluates every guard and branch and
/// calls the environment.
struct Live<'a, E: ?Sized, O: ?Sized> {
    env: &'a mut E,
    obs: &'a mut O,
    emitted: Vec<(ThreadId, i64)>,
    /// Also the index of the next syscall.
    n_syscalls: u64,
    ctx: (),
}

impl<E: EnvModel + ?Sized, O: Observer + ?Sized> Decisions<i64> for Live<'_, E, O> {
    type Error = Infallible;
    type Observer = O;
    const STOPS_AT_CYCLES: bool = true;

    #[inline]
    fn observer(&mut self) -> &mut O {
        self.obs
    }
    #[inline]
    fn ctx(&mut self) -> &mut () {
        &mut self.ctx
    }
    fn syscall(&mut self, t: ThreadId, kind: SyscallKind, arg: i64) -> Result<i64, Infallible> {
        let r = self.env.call(t, kind, arg, self.n_syscalls);
        self.n_syscalls += 1;
        self.obs.on_syscall(t, kind, arg, r);
        Ok(r)
    }
    fn emit(&mut self, t: ThreadId, value: i64) {
        self.emitted.push((t, value));
        self.obs.on_emit(t, value);
    }
}

/// Reusable execution engine for one program: its [`LoweredProgram`]
/// plus the [`Scratch`] tables every [`run`] reuses (a pod holds one
/// `Executor` for the program lifetime).
///
/// [`run`]: Executor::run
///
/// # Examples
///
/// ```
/// use softborg_program::builder::ProgramBuilder;
/// use softborg_program::expr::Expr;
/// use softborg_program::interp::{Executor, NopObserver, Outcome};
/// use softborg_program::overlay::Overlay;
/// use softborg_program::sched::RoundRobin;
/// use softborg_program::syscall::DefaultEnv;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pb = ProgramBuilder::new("hello");
/// pb.inputs(1);
/// pb.thread(|t| {
///     t.emit(Expr::input(0));
/// });
/// let program = pb.build()?;
/// let mut exec = Executor::new(&program);
/// let result = exec.run(
///     &[41],
///     &mut DefaultEnv::seeded(0),
///     &mut RoundRobin::new(),
///     &Overlay::empty(),
///     &mut NopObserver,
/// )?;
/// assert_eq!(result.outcome, Outcome::Success);
/// assert_eq!(result.emitted_values(), vec![41]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    config: ExecConfig,
    code: LoweredProgram,
    scratch: Scratch<i64>,
}

impl<'p> Executor<'p> {
    /// Creates an executor, computing the input-dependence analysis and
    /// lowering the program.
    pub fn new(program: &'p Program) -> Self {
        Executor {
            program,
            code: LoweredProgram::new(program),
            config: ExecConfig::default(),
            scratch: Scratch::default(),
        }
    }

    /// Replaces the execution limits.
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The input-dependence analysis (shared with pods for trace sizing).
    pub fn dependence(&self) -> &InputDependence {
        self.code.dependence()
    }

    /// Executes the program once.
    ///
    /// After the first run, a run allocates only for what it returns (the
    /// emitted stream, a deadlock cycle or hang report) and for what the
    /// environment, scheduler and observer allocate themselves.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::InputArity`] when `inputs` does not match the
    /// program's declared input count. Runtime failures (crashes,
    /// deadlocks, hangs) are *not* errors — they are [`Outcome`]s.
    pub fn run<E, S, O>(
        &mut self,
        inputs: &[i64],
        env: &mut E,
        sched: &mut S,
        overlay: &Overlay,
        obs: &mut O,
    ) -> Result<ExecResult, InterpError>
    where
        E: EnvModel + ?Sized,
        S: Scheduler + ?Sized,
        O: Observer + ?Sized,
    {
        if inputs.len() != self.code.n_inputs as usize {
            return Err(InterpError::InputArity {
                expected: self.code.n_inputs,
                got: inputs.len(),
            });
        }
        let mut live = Live {
            env,
            obs,
            emitted: Vec::new(),
            n_syscalls: 0,
            ctx: (),
        };
        let mut m = Machine::new(&self.code, overlay, inputs, &mut self.scratch);
        let mut steps: u64 = 0;
        let outcome = loop {
            if m.s.runnable.is_empty() {
                let blocked: Vec<(ThreadId, LockId)> = (m.s.threads.iter().enumerate())
                    .filter_map(|(i, t)| match t.status {
                        Status::Blocked(l) => Some((ThreadId::new(i as u32), l)),
                        _ => None,
                    })
                    .collect();
                break if blocked.is_empty() {
                    Outcome::Success
                } else {
                    Outcome::Deadlock { cycle: blocked }
                };
            }
            if steps >= self.config.max_steps {
                let stuck = (m.s.threads.iter().enumerate())
                    .filter(|(_, t)| t.status != Status::Done)
                    .map(|(i, _)| m.loc(ThreadId::new(i as u32)))
                    .collect();
                break Outcome::Hang { stuck };
            }
            let t = sched.pick(&m.s.runnable, steps);
            live.obs.on_schedule(t);
            steps += 1;
            match m.step(t, &mut live) {
                Ok(()) => {}
                Err(Stop::Crash(kind)) => {
                    break Outcome::Crash {
                        loc: m.loc(t),
                        kind,
                    }
                }
                Err(Stop::SelfDeadlock(lock)) => {
                    break Outcome::Deadlock {
                        cycle: vec![(t, lock)],
                    }
                }
                Err(Stop::Deadlock(cycle)) => break Outcome::Deadlock { cycle },
                Err(Stop::UnknownBranch(_)) => unreachable!("concrete values are known"),
                Err(Stop::Source(never)) => match never {},
            }
        };
        Ok(ExecResult {
            outcome,
            steps,
            emitted: live.emitted,
            n_branches: m.n_branches,
            n_syscalls: live.n_syscalls,
            overlay_hits: m.overlay_hits,
        })
    }
}

/// Only a validated program's locks and its overlay's gates are ever
/// acquired, so only they are released.
const ACQUIRABLE: &str = "a lock is the program's or an overlay gate";

/// The one stepping machine: a run of a [`LoweredProgram`] under an
/// [`Overlay`], in the value domain `V`, over [`Scratch`] tables. It owns
/// threads, locks, gates, guards, loop bounds and the runnable set; a
/// driver picks the thread for each [`step`](Machine::step), and a
/// [`Decisions`] source supplies everything else.
pub struct Machine<'a, V> {
    code: &'a LoweredProgram,
    n_locals: usize,
    n_locks: u32,
    overlay: &'a Overlay,
    inputs: &'a [i64],
    s: &'a mut Scratch<V>,
    n_branches: u64,
    overlay_hits: u64,
}

impl<'a, V: Value> Machine<'a, V> {
    /// Starts a run of `code` with `inputs` under `overlay`, resetting
    /// `scratch`; after its first run of a program under an overlay, this
    /// allocates nothing.
    pub fn new(
        code: &'a LoweredProgram,
        overlay: &'a Overlay,
        inputs: &'a [i64],
        scratch: &'a mut Scratch<V>,
    ) -> Self {
        let (s, n_threads) = (&mut *scratch, code.bases.len());
        let zero = V::from(0);
        s.globals.clear();
        s.globals.resize(code.n_globals as usize, zero);
        s.locals.clear();
        s.locals.resize(n_threads * code.n_locals as usize, zero);
        s.threads.clear();
        s.threads.extend(code.bases.iter().map(|b| ThreadState {
            at: Target {
                block: 0,
                base: b[0],
            },
            stmt: 0,
            status: Status::Runnable,
        }));
        s.runnable.clear();
        s.runnable.extend((0..n_threads as u32).map(ThreadId::new));
        s.held.resize_with(n_threads, Vec::new);
        s.held.iter_mut().for_each(Vec::clear);
        s.owner.clear();
        s.owner
            .resize(code.n_locks as usize + overlay.lock_gates.len(), None);
        s.guard_of.clear();
        if !overlay.guards.is_empty() {
            s.guard_of.resize(code.ops.len(), u32::MAX);
            if s.lowered_guards != overlay.guards {
                let guards = &mut s.guards;
                guards.clear();
                s.guard_refs.clear();
                s.guard_refs
                    .extend(overlay.guards.iter().map(|g| guards.lower(&g.when)));
                s.lowered_guards.clone_from(&overlay.guards);
            }
            // Later guards first: the first guard at a location wins.
            for (i, g) in overlay.guards.iter().enumerate().rev() {
                if let Some(op) = code.op_at(g.loc) {
                    s.guard_of[op] = i as u32;
                }
            }
        }
        s.header_visits.clear();
        s.header_visits.resize(overlay.loop_bounds.len(), 0);
        let depth = code.exprs.max_depth().max(s.guards.max_depth());
        s.stack.resize(depth, zero);
        Self::resume(code, overlay, inputs, scratch)
    }

    /// Goes on with the run in `scratch`, which [`new`](Self::new) set up
    /// for the same program, overlay and inputs, and steps may have
    /// advanced: a clone of it ([`tables`](Self::tables)) forks the run.
    pub fn resume(
        code: &'a LoweredProgram,
        overlay: &'a Overlay,
        inputs: &'a [i64],
        scratch: &'a mut Scratch<V>,
    ) -> Self {
        Machine {
            code,
            n_locals: code.n_locals as usize,
            n_locks: code.n_locks,
            overlay,
            inputs,
            s: scratch,
            n_branches: 0,
            overlay_hits: 0,
        }
    }

    /// The threads that may step, ascending.
    pub fn runnable(&self) -> &[ThreadId] {
        &self.s.runnable
    }

    /// A copy of the run's tables, which [`resume`](Self::resume) goes on
    /// from.
    pub fn tables(&self) -> Scratch<V> {
        self.s.clone()
    }

    /// Thread `t`'s next op, for a driver that acts between steps: whether
    /// it is a branch, and the globals it loads in [`Expr::visit`]'s
    /// pre-order (repeats kept).
    ///
    /// [`Expr::visit`]: crate::expr::Expr::visit
    pub fn next_op(&self, t: ThreadId) -> (bool, &[GlobalId]) {
        let ts = &self.s.threads[t.index()];
        let (branch, e) = match self.code.ops[(ts.at.base + ts.stmt) as usize] {
            Op::Branch { cond, .. } => (true, cond),
            Op::Assign(_, e) | Op::Syscall(_, e, _) | Op::Assert(e) | Op::Emit(e) => (false, e),
            _ => return (false, &[]),
        };
        (branch, self.code.exprs.global_loads(e))
    }

    /// Sets global `g` between steps.
    pub fn set_global(&mut self, g: GlobalId, v: V) {
        self.s.globals[g.index()] = v;
    }

    /// Moves thread `t` past the statement that stopped it, as if it had
    /// no effect.
    pub fn skip(&mut self, t: ThreadId) {
        self.s.threads[t.index()].stmt += 1;
    }

    /// Where thread `t` is.
    #[inline]
    pub fn loc(&self, t: ThreadId) -> Loc {
        let ts = &self.s.threads[t.index()];
        Loc {
            thread: t,
            block: BlockId::new(ts.at.block),
            stmt: ts.stmt,
        }
    }

    #[inline]
    fn frame(&self, t: ThreadId) -> std::ops::Range<usize> {
        t.index() * self.n_locals..(t.index() + 1) * self.n_locals
    }

    /// Evaluates `e` for `t`, first reporting its global reads.
    #[inline]
    fn eval<D: Decisions<V>>(
        &mut self,
        t: ThreadId,
        e: ExprRef,
        src: &mut D,
    ) -> Result<V, EvalFault> {
        self.observe_reads(t, e, src);
        let (frame, s) = (self.frame(t), &mut *self.s);
        let (locals, ctx) = (&s.locals[frame], src.ctx());
        (self.code.exprs).eval(e, locals, &s.globals, self.inputs, &mut s.stack, ctx)
    }

    /// [`eval`](Self::eval) of a value the step keeps (see
    /// [`Value::kept`]).
    #[inline]
    fn operand<D: Decisions<V>>(
        &mut self,
        t: ThreadId,
        e: ExprRef,
        src: &mut D,
    ) -> Result<V, EvalFault> {
        let v = self.eval(t, e, src)?;
        Ok(V::kept(src.ctx(), v))
    }

    /// Reports the global reads of `e` to the observer, in pre-order.
    #[inline]
    fn observe_reads<D: Decisions<V>>(&self, t: ThreadId, e: ExprRef, src: &mut D) {
        let loads = self.code.exprs.global_loads(e);
        if loads.is_empty() {
            return;
        }
        let loc = self.loc(t);
        for &g in loads {
            let held = &self.s.held[t.index()];
            src.observer().on_global_access(t, g, false, loc, held);
        }
    }

    #[inline]
    fn store<D: Decisions<V>>(&mut self, t: ThreadId, place: Place, value: V, src: &mut D) {
        match place {
            Place::Local(l) => {
                let frame = self.frame(t);
                self.s.locals[frame][l.index()] = value;
            }
            Place::Global(g) => {
                let loc = self.loc(t);
                src.observer()
                    .on_global_access(t, g, true, loc, &self.s.held[t.index()]);
                self.s.globals[g.index()] = value;
            }
        }
    }

    /// A program lock's slot is its id; a gate's follows them, at the
    /// position of the first overlay gate with its id. Any other id (a
    /// gate may list one among its locks) has no slot and no owner.
    #[inline]
    fn slot(&self, lock: LockId) -> Option<usize> {
        if lock.0 < self.n_locks {
            return Some(lock.index());
        }
        let i = (self.overlay.lock_gates.iter()).position(|g| g.gate == lock)?;
        Some(self.n_locks as usize + i)
    }

    fn owner(&self, lock: LockId) -> Option<ThreadId> {
        self.slot(lock).and_then(|slot| self.s.owner[slot])
    }

    fn holds(&self, t: ThreadId, lock: LockId) -> bool {
        self.owner(lock) == Some(t)
    }

    #[inline]
    fn set_status(&mut self, t: ThreadId, status: Status) {
        let was = std::mem::replace(&mut self.s.threads[t.index()].status, status);
        let runnable = &mut self.s.runnable;
        match (was == Status::Runnable, status == Status::Runnable) {
            (true, false) => runnable.retain(|&u| u != t),
            (false, true) => {
                let at = runnable.partition_point(|&u| u < t);
                runnable.insert(at, t);
            }
            _ => {}
        }
    }

    /// Tries to acquire `lock` for `t`: `Ok(true)` when acquired,
    /// `Ok(false)` when `t` blocked on it.
    #[inline]
    fn acquire<D: Decisions<V>>(
        &mut self,
        t: ThreadId,
        lock: LockId,
        src: &mut D,
    ) -> Result<bool, Stop<D::Error>> {
        match self.owner(lock) {
            None => {
                let slot = self.slot(lock).expect(ACQUIRABLE);
                self.s.owner[slot] = Some(t);
                let loc = self.loc(t);
                let held = &mut self.s.held[t.index()];
                src.observer().on_lock_acquired(t, lock, loc, held);
                if D::Observer::READS_LOCKSETS {
                    let at = held.partition_point(|&l| l < lock);
                    held.insert(at, lock);
                }
                Ok(true)
            }
            // Non-reentrant mutex.
            Some(owner) if owner == t => Err(Stop::SelfDeadlock(lock)),
            Some(owner) => {
                src.observer().on_lock_blocked(t, lock, owner);
                self.set_status(t, Status::Blocked(lock));
                if D::STOPS_AT_CYCLES {
                    if let Some(cycle) = self.find_cycle(t, lock) {
                        return Err(Stop::Deadlock(cycle));
                    }
                }
                Ok(false)
            }
        }
    }

    /// The wait-for edges from `(start, lock)`: each lock's owner and the
    /// lock it waits on, for as long as the owner is itself blocked.
    fn wait_chain(
        &self,
        start: ThreadId,
        lock: LockId,
    ) -> impl Iterator<Item = (ThreadId, LockId)> + '_ {
        std::iter::successors(Some((start, lock)), move |&(_, l)| {
            let owner = self.owner(l)?;
            match self.s.threads[owner.index()].status {
                Status::Blocked(next) => Some((owner, next)),
                _ => None,
            }
        })
    }

    /// Walks the wait-for chain from `(start, lock)` looking for a cycle
    /// back to `start` — or, reported anyway, one not involving it. The
    /// walk does not allocate; the edges are collected only once the
    /// chain closes.
    fn find_cycle(&self, start: ThreadId, lock: LockId) -> Option<Vec<(ThreadId, LockId)>> {
        let chain = || self.wait_chain(start, lock);
        let (len, _) = chain()
            .enumerate()
            .skip(1)
            .find(|&(n, (t, _))| chain().take(n).any(|(u, _)| u == t))?;
        Some(chain().take(len).collect())
    }

    #[inline]
    fn release<D: Decisions<V>>(&mut self, t: ThreadId, lock: LockId, src: &mut D) {
        let slot = self.slot(lock).expect(ACQUIRABLE);
        self.s.owner[slot] = None;
        if D::Observer::READS_LOCKSETS {
            self.s.held[t.index()].retain(|&l| l != lock);
        }
        src.observer().on_lock_released(t, lock);
        // Wake all waiters; they re-attempt acquisition when scheduled.
        for i in 0..self.s.threads.len() {
            if self.s.threads[i].status == Status::Blocked(lock) && i != t.index() {
                self.set_status(ThreadId::new(i as u32), Status::Runnable);
            }
        }
    }

    /// Releases gates whose protected locks are no longer held by `t`.
    fn release_stale_gates<D: Decisions<V>>(&mut self, t: ThreadId, src: &mut D) {
        if self.overlay.lock_gates.is_empty() {
            return;
        }
        let mut stale = std::mem::take(&mut self.s.stale);
        stale.extend(
            (self.overlay.lock_gates.iter())
                .filter(|g| self.holds(t, g.gate) && g.locks.iter().all(|&l| !self.holds(t, l)))
                .map(|g| g.gate),
        );
        for &gate in &stale {
            self.release(t, gate, src);
        }
        stale.clear();
        self.s.stale = stale;
    }

    #[inline]
    fn jump(&mut self, t: ThreadId, to: Target) {
        let ts = &mut self.s.threads[t.index()];
        (ts.at, ts.stmt) = (to, 0);
    }

    /// Executes one step of thread `t`, which must be runnable.
    ///
    /// # Errors
    ///
    /// A [`Stop`] when the step ends the run.
    #[inline]
    pub fn step<D: Decisions<V>>(
        &mut self,
        t: ThreadId,
        src: &mut D,
    ) -> Result<(), Stop<D::Error>> {
        let ti = t.index();
        let ts = self.s.threads[ti];
        let pc = (ts.at.base + ts.stmt) as usize;
        let op = self.code.ops[pc];
        let is_term = matches!(op, Op::Goto(_) | Op::Branch { .. } | Op::Exit);

        // Site guards fire before the statement/terminator at their Loc.
        let guard = self.s.guard_of.get(pc).map(|&g| g as usize);
        if let Some((i, guard)) = guard.and_then(|i| Some((i, self.overlay.guards.get(i)?))) {
            let fired = match src.recorded_guard().map_err(Stop::Source)? {
                Some(fired) => fired,
                // A predicate that faults (or is ⊥) does not fire.
                None => {
                    let (frame, s) = (self.frame(t), &mut *self.s);
                    let (locals, r) = (&s.locals[frame], s.guard_refs[i]);
                    let (globals, ctx) = (&s.globals, src.ctx());
                    let v = (s.guards).eval(r, locals, globals, self.inputs, &mut s.stack, ctx);
                    v.ok().and_then(V::truth) == Some(true)
                }
            };
            src.observer().on_guard_eval(t, self.loc(t), fired);
            if fired {
                self.overlay_hit(t, "guard", src);
                match guard.action {
                    // Falls through to execute the original statement.
                    GuardAction::SetPlace(place, value) => {
                        self.store(t, place, V::from(value), src)
                    }
                    GuardAction::SkipStmt if !is_term => {
                        self.s.threads[ti].stmt += 1;
                        return Ok(());
                    }
                    // Skipping a terminator means exiting the thread.
                    GuardAction::SkipStmt | GuardAction::ExitThread => {
                        self.thread_done(t, src);
                        return Ok(());
                    }
                }
            }
        }

        match op {
            Op::Assign(place, e) => {
                let v = self.operand(t, e, src)?;
                self.store(t, place, v, src);
            }
            Op::Lock(lock) => {
                // Deadlock-immunity gates: acquire required gates first,
                // one per step, without advancing the pc.
                let missing_gate = (self.overlay.gates_for(lock))
                    .map(|g| g.gate)
                    .find(|&gate| !self.holds(t, gate));
                if let Some(gate) = missing_gate {
                    self.overlay_hit(t, "gate", src);
                    self.acquire(t, gate, src)?;
                    return Ok(());
                }
                if !self.acquire(t, lock, src)? {
                    // Blocked: the pc stays.
                    return Ok(());
                }
            }
            Op::Unlock(lock) => {
                if !self.holds(t, lock) {
                    return Err(Stop::Crash(CrashKind::UnlockNotHeld));
                }
                self.release(t, lock, src);
                self.release_stale_gates(t, src);
            }
            Op::Syscall(kind, arg, ret) => {
                let a = self.operand(t, arg, src)?;
                let r = src.syscall(t, kind, a).map_err(Stop::Source)?;
                self.store(t, ret, r, src);
            }
            Op::Assert(e) => {
                let cond = self.operand(t, e, src)?;
                src.assertion(cond)?;
            }
            Op::Emit(e) => {
                let v = self.eval(t, e, src)?;
                src.emit(t, v);
            }
            Op::Yield => {}
            Op::Goto(target) => {
                self.jump(t, target);
                return Ok(());
            }
            Op::Branch {
                site,
                dependent,
                cond,
                then_bb,
                else_bb,
            } => {
                // Hang bounds count header entries.
                if let Some(i) = self.overlay.bound_for(t, BlockId::new(ts.at.block)) {
                    self.s.header_visits[i] += 1;
                    if self.s.header_visits[i] > self.overlay.loop_bounds[i].max_iters {
                        self.overlay_hit(t, "loop-bound", src);
                        self.thread_done(t, src);
                        return Ok(());
                    }
                }
                // A recorded direction is taken without evaluating the
                // condition.
                let taken = match src.recorded_branch(dependent).map_err(Stop::Source)? {
                    Some(taken) => taken,
                    None => {
                        let cond = self.operand(t, cond, src)?;
                        src.branch(site, cond)?
                    }
                };
                self.n_branches += 1;
                src.observer().on_branch(t, site, taken, dependent);
                self.jump(t, if taken { then_bb } else { else_bb });
                return Ok(());
            }
            Op::Exit => {
                self.thread_done(t, src);
                return Ok(());
            }
        }
        self.s.threads[ti].stmt += 1;
        Ok(())
    }

    fn overlay_hit<D: Decisions<V>>(&mut self, t: ThreadId, rule: &'static str, src: &mut D) {
        self.overlay_hits += 1;
        src.observer().on_overlay_hit(t, rule);
    }

    /// Marks a thread finished, releasing any locks it still holds so that
    /// exits (graceful or overlay-forced) never strand waiters.
    fn thread_done<D: Decisions<V>>(&mut self, t: ThreadId, src: &mut D) {
        // Program locks in id order, then gates in overlay order.
        for slot in 0..self.s.owner.len() {
            if self.s.owner[slot] == Some(t) {
                let lock = match slot.checked_sub(self.n_locks as usize) {
                    Some(i) => self.overlay.lock_gates[i].gate,
                    None => LockId::new(slot as u32),
                };
                self.release(t, lock, src);
            }
        }
        self.set_status(t, Status::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cfg::{global, local, SyscallKind};
    use crate::expr::{BinOp, Expr};
    use crate::overlay::{LockGate, LoopBound, SiteGuard, GHOST_LOCK_BASE};
    use crate::sched::{RandomSched, RoundRobin, ScriptSched};
    use crate::syscall::DefaultEnv;

    fn run_simple(program: &Program, inputs: &[i64]) -> ExecResult {
        Executor::new(program)
            .run(
                inputs,
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap()
    }

    fn lock_inversion_program() -> Program {
        // t0: lock 0; yield; lock 1; unlock both.
        // t1: lock 1; yield; lock 0; unlock both.
        let mut pb = ProgramBuilder::new("inversion");
        pb.locks(2);
        pb.thread(|t| {
            t.lock(0).yield_().lock(1).unlock(1).unlock(0);
        });
        pb.thread(|t| {
            t.lock(1).yield_().lock(0).unlock(0).unlock(1);
        });
        pb.build().unwrap()
    }

    #[test]
    fn straight_line_succeeds_and_emits() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(
                local(0),
                Expr::bin(BinOp::Mul, Expr::input(0), Expr::Const(2)),
            );
            t.emit(Expr::local(0));
        });
        let p = pb.build().unwrap();
        let r = run_simple(&p, &[21]);
        assert_eq!(r.outcome, Outcome::Success);
        assert_eq!(r.emitted_values(), vec![42]);
    }

    #[test]
    fn input_arity_is_checked() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(2);
        pb.thread(|t| {
            t.emit(Expr::Const(0));
        });
        let p = pb.build().unwrap();
        let err = Executor::new(&p)
            .run(
                &[1],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap_err();
        assert_eq!(
            err,
            InterpError::InputArity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn assert_failure_crashes_at_loc() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1);
        pb.thread(|t| {
            t.assert_(Expr::bin(BinOp::Ne, Expr::input(0), Expr::Const(7)));
            t.emit(Expr::Const(1));
        });
        let p = pb.build().unwrap();
        assert_eq!(run_simple(&p, &[3]).outcome, Outcome::Success);
        match run_simple(&p, &[7]).outcome {
            Outcome::Crash { kind, .. } => assert_eq!(kind, CrashKind::AssertFailed),
            o => panic!("expected crash, got {o:?}"),
        }
    }

    #[test]
    fn div_by_zero_crashes() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(
                local(0),
                Expr::bin(BinOp::Div, Expr::Const(100), Expr::input(0)),
            );
        });
        let p = pb.build().unwrap();
        match run_simple(&p, &[0]).outcome {
            Outcome::Crash { kind, .. } => assert_eq!(kind, CrashKind::DivByZero),
            o => panic!("expected crash, got {o:?}"),
        }
        assert_eq!(run_simple(&p, &[4]).outcome, Outcome::Success);
    }

    #[test]
    fn unlock_not_held_crashes() {
        let mut pb = ProgramBuilder::new("p");
        pb.locks(1);
        pb.thread(|t| {
            t.unlock(0);
        });
        let p = pb.build().unwrap();
        match run_simple(&p, &[]).outcome {
            Outcome::Crash { kind, .. } => assert_eq!(kind, CrashKind::UnlockNotHeld),
            o => panic!("expected crash, got {o:?}"),
        }
    }

    #[test]
    fn branch_observer_sees_sites_and_dependence() {
        #[derive(Default)]
        struct Rec(Vec<(u32, bool, bool)>);
        impl Observer for Rec {
            fn on_branch(&mut self, _t: ThreadId, s: BranchSiteId, taken: bool, dep: bool) {
                self.0.push((s.0, taken, dep));
            }
        }
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(1));
            t.if_else(
                Expr::lt(Expr::input(0), Expr::Const(5)),
                |t| {
                    t.emit(Expr::Const(1));
                },
                |t| {
                    t.emit(Expr::Const(0));
                },
            );
            t.if_then(Expr::eq(Expr::local(0), Expr::Const(1)), |t| {
                t.emit(Expr::Const(2));
            });
        });
        let p = pb.build().unwrap();
        let mut rec = Rec::default();
        Executor::new(&p)
            .run(
                &[3],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut rec,
            )
            .unwrap();
        assert_eq!(rec.0.len(), 2);
        assert_eq!(rec.0[0], (0, true, true)); // input-dependent, taken
        assert_eq!(rec.0[1], (1, true, false)); // deterministic
    }

    #[test]
    fn lock_inversion_deadlocks_under_adversarial_schedule() {
        let p = lock_inversion_program();
        // Schedule: t0 locks 0, t1 locks 1, then both proceed to block.
        let script = vec![
            ThreadId::new(0), // t0: lock 0
            ThreadId::new(1), // t1: lock 1
            ThreadId::new(0), // t0: yield
            ThreadId::new(1), // t1: yield
            ThreadId::new(0), // t0: lock 1 -> blocks
            ThreadId::new(1), // t1: lock 0 -> blocks, cycle!
        ];
        let r = Executor::new(&p)
            .run(
                &[],
                &mut DefaultEnv::seeded(0),
                &mut ScriptSched::new(script),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        match r.outcome {
            Outcome::Deadlock { cycle } => {
                assert_eq!(cycle.len(), 2);
            }
            o => panic!("expected deadlock, got {o:?}"),
        }
    }

    #[test]
    fn lock_inversion_succeeds_under_serial_schedule() {
        let p = lock_inversion_program();
        // t0 runs fully first, then t1.
        let script = vec![ThreadId::new(0); 10];
        let r = Executor::new(&p)
            .run(
                &[],
                &mut DefaultEnv::seeded(0),
                &mut ScriptSched::new(script),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(r.outcome, Outcome::Success);
    }

    #[test]
    fn gate_overlay_prevents_the_deadlock() {
        let p = lock_inversion_program();
        let mut overlay = Overlay::empty();
        overlay.lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: [LockId::new(0), LockId::new(1)].into_iter().collect(),
        });
        // The same adversarial schedule now cannot deadlock: the gate
        // serializes both critical regions. Try many random schedules too.
        for seed in 0..50 {
            let r = Executor::new(&p)
                .run(
                    &[],
                    &mut DefaultEnv::seeded(0),
                    &mut RandomSched::seeded(seed),
                    &overlay,
                    &mut NopObserver,
                )
                .unwrap();
            assert_eq!(r.outcome, Outcome::Success, "seed {seed}");
        }
    }

    /// Lock events in order: `(thread, lock, acquired)`.
    #[derive(Default)]
    struct LockTape(Vec<(u32, u32, bool)>);

    impl Observer for LockTape {
        fn on_lock_acquired(&mut self, thread: ThreadId, lock: LockId, _loc: Loc, _: &[LockId]) {
            self.0.push((thread.0, lock.0, true));
        }
        fn on_lock_released(&mut self, thread: ThreadId, lock: LockId) {
            self.0.push((thread.0, lock.0, false));
        }
    }

    #[test]
    fn a_gate_listing_an_unknown_lock_treats_it_as_unheld() {
        // Overlays arrive as decoded data: a gate may list a lock the
        // program does not have. Nobody ever holds it, so the gate is
        // released as soon as its holder drops the program's lock.
        let mut pb = ProgramBuilder::new("one-lock");
        pb.locks(1);
        for k in 0..2 {
            pb.thread(move |t| {
                t.lock(0).emit(Expr::Const(k)).unlock(0);
            });
        }
        let p = pb.build().unwrap();
        let gate = GHOST_LOCK_BASE;
        let mut overlay = Overlay::empty();
        overlay.lock_gates.push(LockGate {
            gate: LockId::new(gate),
            locks: [LockId::new(0), LockId::new(7)].into_iter().collect(),
        });
        let mut tape = LockTape::default();
        let r = Executor::new(&p)
            .run(
                &[],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &overlay,
                &mut tape,
            )
            .unwrap();
        assert_eq!(r.outcome, Outcome::Success);
        assert_eq!(r.emitted_values(), vec![0, 1]);
        assert_eq!(
            r.overlay_hits, 3,
            "a gate attempt per step: taken, blocked, retaken"
        );
        assert_eq!(
            tape.0,
            [
                (0, gate, true),
                (0, 0, true),
                (0, 0, false),
                (0, gate, false),
                (1, gate, true),
                (1, 0, true),
                (1, 0, false),
                (1, gate, false),
            ]
        );
    }

    #[test]
    fn random_schedules_find_the_inversion_deadlock() {
        let p = lock_inversion_program();
        let mut exec = Executor::new(&p);
        let mut deadlocks = 0;
        for seed in 0..200 {
            let r = exec
                .run(
                    &[],
                    &mut DefaultEnv::seeded(0),
                    &mut RandomSched::seeded(seed),
                    &Overlay::empty(),
                    &mut NopObserver,
                )
                .unwrap();
            if matches!(r.outcome, Outcome::Deadlock { .. }) {
                deadlocks += 1;
            }
        }
        assert!(
            deadlocks > 0,
            "expected some deadlocks across 200 schedules"
        );
        assert!(deadlocks < 200, "expected some successes too");
    }

    #[test]
    fn self_deadlock_detected() {
        let mut pb = ProgramBuilder::new("p");
        pb.locks(1);
        pb.thread(|t| {
            t.lock(0).lock(0);
        });
        let p = pb.build().unwrap();
        match run_simple(&p, &[]).outcome {
            Outcome::Deadlock { cycle } => assert_eq!(cycle.len(), 1),
            o => panic!("expected self-deadlock, got {o:?}"),
        }
    }

    #[test]
    fn exit_while_holding_lock_releases_it() {
        // t0 exits holding nothing because thread_done releases; t1 then
        // acquires fine.
        let mut pb = ProgramBuilder::new("p");
        pb.locks(1);
        pb.thread(|t| {
            t.lock(0); // never unlocked; exit releases
        });
        pb.thread(|t| {
            t.lock(0).unlock(0).emit(Expr::Const(1));
        });
        let p = pb.build().unwrap();
        let r = run_simple(&p, &[]);
        assert_eq!(r.outcome, Outcome::Success);
        assert_eq!(r.emitted_values(), vec![1]);
    }

    #[test]
    fn hang_detected_at_step_budget() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(0));
            t.while_loop(
                Expr::bin(
                    BinOp::Or,
                    Expr::lt(Expr::local(0), Expr::Const(5)),
                    Expr::eq(Expr::input(0), Expr::Const(1)),
                ),
                |t| {
                    t.assign(
                        local(0),
                        Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
                    );
                },
            );
        });
        let p = pb.build().unwrap();
        let mut exec = Executor::new(&p).with_config(ExecConfig { max_steps: 5_000 });
        let ok = exec
            .run(
                &[0],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(ok.outcome, Outcome::Success);
        let hung = exec
            .run(
                &[1],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        assert!(matches!(hung.outcome, Outcome::Hang { .. }));
    }

    #[test]
    fn loop_bound_overlay_cures_the_hang() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(0));
            t.while_loop(Expr::bin(BinOp::Ne, Expr::input(0), Expr::Const(1)), |t| {
                t.yield_();
            });
            t.emit(Expr::Const(9));
        });
        let p = pb.build().unwrap();
        // Find the loop header block (the one with the branch).
        let header = p.branch_sites()[0].2;
        let mut overlay = Overlay::empty();
        overlay.loop_bounds.push(LoopBound {
            thread: ThreadId::new(0),
            header,
            max_iters: 50,
        });
        let mut exec = Executor::new(&p).with_config(ExecConfig { max_steps: 5_000 });
        let r = exec
            .run(
                &[0], // condition never becomes false -> would hang
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &overlay,
                &mut NopObserver,
            )
            .unwrap();
        // Bounded: the thread exits gracefully instead of hanging.
        assert_eq!(r.outcome, Outcome::Success);
        assert!(r.overlay_hits > 0);
    }

    #[test]
    fn guard_skip_prevents_crash() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1);
        pb.thread(|t| {
            t.assert_(Expr::bin(BinOp::Ne, Expr::input(0), Expr::Const(7)));
            t.emit(Expr::Const(5));
        });
        let p = pb.build().unwrap();
        let mut overlay = Overlay::empty();
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread: ThreadId::new(0),
                block: crate::ids::BlockId::new(0),
                stmt: 0,
            },
            when: Expr::eq(Expr::input(0), Expr::Const(7)),
            action: GuardAction::SkipStmt,
        });
        let r = Executor::new(&p)
            .run(
                &[7],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &overlay,
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(r.outcome, Outcome::Success);
        assert_eq!(r.emitted_values(), vec![5]);
    }

    #[test]
    fn guard_exit_thread_degrades_gracefully() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1);
        pb.thread(|t| {
            t.assert_(Expr::bin(BinOp::Ne, Expr::input(0), Expr::Const(7)));
            t.emit(Expr::Const(5));
        });
        let p = pb.build().unwrap();
        let mut overlay = Overlay::empty();
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread: ThreadId::new(0),
                block: crate::ids::BlockId::new(0),
                stmt: 0,
            },
            when: Expr::eq(Expr::input(0), Expr::Const(7)),
            action: GuardAction::ExitThread,
        });
        let r = Executor::new(&p)
            .run(
                &[7],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &overlay,
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(r.outcome, Outcome::Success);
        assert!(r.emitted.is_empty()); // exited before the emit
    }

    #[test]
    fn guard_set_place_sanitizes_input_copy() {
        let mut pb = ProgramBuilder::new("p");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::input(0));
            // stmt 1: divide by local(0) - would crash if local(0) == 0
            t.assign(
                local(0),
                Expr::bin(BinOp::Div, Expr::Const(100), Expr::local(0)),
            );
            t.emit(Expr::local(0));
        });
        let p = pb.build().unwrap();
        let mut overlay = Overlay::empty();
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread: ThreadId::new(0),
                block: crate::ids::BlockId::new(0),
                stmt: 1,
            },
            when: Expr::eq(Expr::local(0), Expr::Const(0)),
            action: GuardAction::SetPlace(local(0), 1),
        });
        let r = Executor::new(&p)
            .run(
                &[0],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &overlay,
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(r.outcome, Outcome::Success);
        assert_eq!(r.emitted_values(), vec![100]);
    }

    #[test]
    fn syscalls_flow_through_env_and_are_counted() {
        let mut pb = ProgramBuilder::new("p");
        pb.locals(1);
        pb.thread(|t| {
            t.syscall(SyscallKind::Read, Expr::Const(64), local(0));
            t.emit(Expr::local(0));
        });
        let p = pb.build().unwrap();
        struct Thirteen;
        impl EnvModel for Thirteen {
            fn call(&mut self, _: ThreadId, _: SyscallKind, _: i64, _: u64) -> i64 {
                13
            }
        }
        let mut env = Thirteen;
        let r = Executor::new(&p)
            .run(
                &[],
                &mut env,
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(r.n_syscalls, 1);
        assert_eq!(r.emitted_values(), vec![13]);
    }

    #[test]
    fn replay_reproduces_a_random_run_exactly() {
        let p = lock_inversion_program();
        let mut exec = Executor::new(&p);
        for seed in 0..20 {
            let mut sched = RandomSched::seeded(seed);
            let r1 = exec
                .run(
                    &[],
                    &mut DefaultEnv::seeded(seed),
                    &mut sched,
                    &Overlay::empty(),
                    &mut NopObserver,
                )
                .unwrap();
            let picks = sched.into_picks();
            let r2 = exec
                .run(
                    &[],
                    &mut DefaultEnv::seeded(seed),
                    &mut ScriptSched::new(picks),
                    &Overlay::empty(),
                    &mut NopObserver,
                )
                .unwrap();
            assert_eq!(r1, r2, "seed {seed}");
        }
    }

    #[test]
    fn global_accesses_reported_with_lockset() {
        #[derive(Default)]
        struct Rec(Vec<(u32, bool, usize)>);
        impl Observer for Rec {
            fn on_global_access(
                &mut self,
                _t: ThreadId,
                g: GlobalId,
                w: bool,
                _loc: Loc,
                held: &[LockId],
            ) {
                self.0.push((g.0, w, held.len()));
            }
        }
        let mut pb = ProgramBuilder::new("p");
        pb.globals(1).locks(1);
        pb.thread(|t| {
            t.lock(0);
            t.assign(global(0), Expr::Const(5));
            t.unlock(0);
            t.emit(Expr::global(0));
        });
        let p = pb.build().unwrap();
        let mut rec = Rec::default();
        Executor::new(&p)
            .run(
                &[],
                &mut DefaultEnv::seeded(0),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut rec,
            )
            .unwrap();
        // write under lock, read without.
        assert_eq!(rec.0, vec![(0, true, 1), (0, false, 0)]);
    }
}
