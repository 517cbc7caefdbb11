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
//! what makes hive-side replay/reconstruction possible.

use crate::cfg::{Loc, Program, Stmt, Terminator};
use crate::expr::{self, EvalEnv, EvalFault, Expr, Place};
use crate::ids::{BranchSiteId, GlobalId, LockId, ThreadId};
use crate::overlay::{GuardAction, Overlay};
use crate::sched::Scheduler;
use crate::syscall::EnvModel;
use crate::taint::InputDependence;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
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
    fn on_syscall(&mut self, thread: ThreadId, kind: crate::cfg::SyscallKind, arg: i64, ret: i64) {}
    /// `thread` acquired `lock`.
    fn on_lock_acquired(&mut self, thread: ThreadId, lock: LockId, loc: Loc) {}
    /// `thread` blocked on `lock` currently owned by `owner`.
    fn on_lock_blocked(&mut self, thread: ThreadId, lock: LockId, owner: ThreadId) {}
    /// `thread` released `lock`.
    fn on_lock_released(&mut self, thread: ThreadId, lock: LockId) {}
    /// A shared global was read or written while holding `locks_held`.
    fn on_global_access(
        &mut self,
        thread: ThreadId,
        global: GlobalId,
        is_write: bool,
        loc: Loc,
        locks_held: &BTreeSet<LockId>,
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

impl Observer for NopObserver {}

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

#[derive(Debug)]
struct ThreadState {
    block: u32,
    stmt: u32,
    locals: Vec<i64>,
    status: Status,
    held: BTreeSet<LockId>,
    header_visits: HashMap<u32, u64>,
}

struct ThreadView<'a> {
    locals: &'a [i64],
    globals: &'a [i64],
    inputs: &'a [i64],
}

impl EvalEnv for ThreadView<'_> {
    fn load(&self, place: Place) -> i64 {
        match place {
            Place::Local(l) => self.locals[l.index()],
            Place::Global(g) => self.globals[g.index()],
        }
    }
    fn input(&self, input: crate::ids::InputId) -> i64 {
        self.inputs[input.index()]
    }
}

/// Reusable execution engine for one program.
///
/// Construction computes the input-dependence analysis once; [`run`] can
/// then be called many times (a pod holds one `Executor` for the program
/// lifetime).
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
/// let exec = Executor::new(&program);
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
    deps: InputDependence,
    config: ExecConfig,
}

impl<'p> Executor<'p> {
    /// Creates an executor, computing the input-dependence analysis.
    pub fn new(program: &'p Program) -> Self {
        Executor {
            program,
            deps: InputDependence::compute(program),
            config: ExecConfig::default(),
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
        &self.deps
    }

    /// Executes the program once.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::InputArity`] when `inputs` does not match the
    /// program's declared input count. Runtime failures (crashes,
    /// deadlocks, hangs) are *not* errors — they are [`Outcome`]s.
    pub fn run(
        &self,
        inputs: &[i64],
        env: &mut dyn EnvModel,
        sched: &mut dyn Scheduler,
        overlay: &Overlay,
        obs: &mut dyn Observer,
    ) -> Result<ExecResult, InterpError> {
        if inputs.len() != self.program.n_inputs as usize {
            return Err(InterpError::InputArity {
                expected: self.program.n_inputs,
                got: inputs.len(),
            });
        }
        let mut m = Machine {
            program: self.program,
            deps: &self.deps,
            overlay,
            inputs,
            globals: vec![0; self.program.n_globals as usize],
            threads: self
                .program
                .threads
                .iter()
                .map(|_| ThreadState {
                    block: 0,
                    stmt: 0,
                    locals: vec![0; self.program.n_locals as usize],
                    status: Status::Runnable,
                    held: BTreeSet::new(),
                    header_visits: HashMap::new(),
                })
                .collect(),
            locks: HashMap::new(),
            stale_gates: Vec::new(),
            emitted: Vec::new(),
            n_branches: 0,
            n_syscalls: 0,
            syscall_index: 0,
            overlay_hits: 0,
        };
        let mut steps: u64 = 0;
        let mut runnable: Vec<ThreadId> = Vec::with_capacity(m.threads.len());
        loop {
            runnable.clear();
            runnable.extend(
                m.threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status == Status::Runnable)
                    .map(|(i, _)| ThreadId::new(i as u32)),
            );
            if runnable.is_empty() {
                let blocked: Vec<(ThreadId, LockId)> = m
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t.status {
                        Status::Blocked(l) => Some((ThreadId::new(i as u32), l)),
                        _ => None,
                    })
                    .collect();
                let outcome = if blocked.is_empty() {
                    Outcome::Success
                } else {
                    Outcome::Deadlock { cycle: blocked }
                };
                return Ok(m.finish(outcome, steps));
            }
            if steps >= self.config.max_steps {
                let stuck = m
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Done)
                    .map(|(i, t)| Loc {
                        thread: ThreadId::new(i as u32),
                        block: crate::ids::BlockId::new(t.block),
                        stmt: t.stmt,
                    })
                    .collect();
                return Ok(m.finish(Outcome::Hang { stuck }, steps));
            }
            let t = sched.pick(&runnable, steps);
            obs.on_schedule(t);
            steps += 1;
            if let Some(outcome) = m.step(t, env, obs) {
                return Ok(m.finish(outcome, steps));
            }
        }
    }
}

struct Machine<'a> {
    program: &'a Program,
    deps: &'a InputDependence,
    overlay: &'a Overlay,
    inputs: &'a [i64],
    globals: Vec<i64>,
    threads: Vec<ThreadState>,
    locks: HashMap<LockId, ThreadId>,
    /// Reused by [`Machine::release_stale_gates`] so unlocks do not
    /// allocate per call.
    stale_gates: Vec<LockId>,
    emitted: Vec<(ThreadId, i64)>,
    n_branches: u64,
    n_syscalls: u64,
    syscall_index: u64,
    overlay_hits: u64,
}

impl Machine<'_> {
    fn finish(self, outcome: Outcome, steps: u64) -> ExecResult {
        ExecResult {
            outcome,
            steps,
            emitted: self.emitted,
            n_branches: self.n_branches,
            n_syscalls: self.n_syscalls,
            overlay_hits: self.overlay_hits,
        }
    }

    fn loc(&self, t: ThreadId) -> Loc {
        let ts = &self.threads[t.index()];
        Loc {
            thread: t,
            block: crate::ids::BlockId::new(ts.block),
            stmt: ts.stmt,
        }
    }

    fn eval(&self, t: ThreadId, e: &Expr) -> Result<i64, EvalFault> {
        let ts = &self.threads[t.index()];
        let view = ThreadView {
            locals: &ts.locals,
            globals: &self.globals,
            inputs: self.inputs,
        };
        expr::eval(e, &view)
    }

    fn fault_outcome(&self, t: ThreadId, fault: EvalFault) -> Outcome {
        Outcome::Crash {
            loc: self.loc(t),
            kind: match fault {
                EvalFault::DivByZero => CrashKind::DivByZero,
                EvalFault::RemByZero => CrashKind::RemByZero,
            },
        }
    }

    /// Reports global reads inside `e` to the observer, in pre-order.
    fn observe_reads(&self, t: ThreadId, e: &Expr, obs: &mut dyn Observer) {
        let loc = self.loc(t);
        let held = &self.threads[t.index()].held;
        e.visit(&mut |x| {
            if let Expr::Load(Place::Global(g)) = x {
                obs.on_global_access(t, *g, false, loc, held);
            }
        });
    }

    fn store(&mut self, t: ThreadId, place: Place, value: i64, obs: &mut dyn Observer) {
        match place {
            Place::Local(l) => self.threads[t.index()].locals[l.index()] = value,
            Place::Global(g) => {
                let loc = self.loc(t);
                obs.on_global_access(t, g, true, loc, &self.threads[t.index()].held);
                self.globals[g.index()] = value;
            }
        }
    }

    /// Tries to acquire `lock` for `t`. Returns:
    /// * `Ok(true)` — acquired;
    /// * `Ok(false)` — blocked (status updated);
    /// * `Err(outcome)` — immediate deadlock detected.
    fn acquire(
        &mut self,
        t: ThreadId,
        lock: LockId,
        obs: &mut dyn Observer,
    ) -> Result<bool, Outcome> {
        match self.locks.get(&lock) {
            None => {
                self.locks.insert(lock, t);
                self.threads[t.index()].held.insert(lock);
                let loc = self.loc(t);
                obs.on_lock_acquired(t, lock, loc);
                Ok(true)
            }
            Some(owner) if *owner == t => {
                // Non-reentrant mutex: self-deadlock.
                Err(Outcome::Deadlock {
                    cycle: vec![(t, lock)],
                })
            }
            Some(owner) => {
                let owner = *owner;
                obs.on_lock_blocked(t, lock, owner);
                self.threads[t.index()].status = Status::Blocked(lock);
                if let Some(cycle) = self.find_cycle(t, lock) {
                    return Err(Outcome::Deadlock { cycle });
                }
                Ok(false)
            }
        }
    }

    /// Walks the wait-for chain from `(start, lock)` looking for a cycle
    /// back to `start`.
    fn find_cycle(&self, start: ThreadId, lock: LockId) -> Option<Vec<(ThreadId, LockId)>> {
        let mut edges = vec![(start, lock)];
        let mut cur_lock = lock;
        loop {
            let owner = *self.locks.get(&cur_lock)?;
            if owner == start {
                return Some(edges);
            }
            match self.threads[owner.index()].status {
                Status::Blocked(next_lock) => {
                    if edges.iter().any(|(t, _)| *t == owner) {
                        // A cycle not involving `start`; report it anyway.
                        return Some(edges);
                    }
                    edges.push((owner, next_lock));
                    cur_lock = next_lock;
                }
                _ => return None,
            }
        }
    }

    fn release(&mut self, t: ThreadId, lock: LockId, obs: &mut dyn Observer) {
        self.locks.remove(&lock);
        self.threads[t.index()].held.remove(&lock);
        obs.on_lock_released(t, lock);
        // Wake all waiters; they re-attempt acquisition when scheduled.
        for (i, ts) in self.threads.iter_mut().enumerate() {
            if ts.status == Status::Blocked(lock) && i != t.index() {
                ts.status = Status::Runnable;
            }
        }
    }

    /// Releases gates whose protected locks are no longer held by `t`.
    fn release_stale_gates(&mut self, t: ThreadId, obs: &mut dyn Observer) {
        let held = &self.threads[t.index()].held;
        let mut stale = std::mem::take(&mut self.stale_gates);
        stale.extend(
            self.overlay
                .lock_gates
                .iter()
                .filter(|g| held.contains(&g.gate) && g.locks.iter().all(|l| !held.contains(l)))
                .map(|g| g.gate),
        );
        for &gate in &stale {
            self.release(t, gate, obs);
        }
        stale.clear();
        self.stale_gates = stale;
    }

    /// Executes one step of thread `t`. Returns a terminal outcome if the
    /// whole execution ends.
    fn step(
        &mut self,
        t: ThreadId,
        env: &mut dyn EnvModel,
        obs: &mut dyn Observer,
    ) -> Option<Outcome> {
        let ti = t.index();
        let block = self.threads[ti].block;
        let stmt_idx = self.threads[ti].stmt;
        // Borrowed for the program's lifetime, not `self`'s, so the step
        // reads statements in place while mutating the machine.
        let program = self.program;
        let blk = &program.threads[ti].blocks[block as usize];

        // Site guards fire before the statement/terminator at their Loc.
        if let Some(guard) = self.overlay.guard_at(self.loc(t)) {
            // A guard whose predicate faults is treated as not firing.
            let fired = self.eval(t, &guard.when).unwrap_or(0) != 0;
            obs.on_guard_eval(t, self.loc(t), fired);
            if fired {
                self.overlay_hits += 1;
                obs.on_overlay_hit(t, "guard");
                match guard.action {
                    GuardAction::SkipStmt => {
                        if stmt_idx < blk.stmts.len() as u32 {
                            self.threads[ti].stmt += 1;
                        } else {
                            // Skipping a terminator means exiting the thread.
                            self.thread_done(t, obs);
                        }
                        return None;
                    }
                    GuardAction::ExitThread => {
                        self.thread_done(t, obs);
                        return None;
                    }
                    GuardAction::SetPlace(place, value) => {
                        self.store(t, place, value, obs);
                        // Fall through to execute the original statement.
                    }
                }
            }
        }

        if stmt_idx < blk.stmts.len() as u32 {
            match blk.stmts[stmt_idx as usize] {
                Stmt::Assign(place, ref e) => {
                    self.observe_reads(t, e, obs);
                    match self.eval(t, e) {
                        Ok(v) => self.store(t, place, v, obs),
                        Err(f) => return Some(self.fault_outcome(t, f)),
                    }
                    self.threads[ti].stmt += 1;
                }
                Stmt::Lock(lock) => {
                    // Deadlock-immunity gates: acquire required gates first,
                    // one per step, without advancing the pc.
                    let missing_gate = self
                        .overlay
                        .gates_for(lock)
                        .map(|g| g.gate)
                        .find(|gate| !self.threads[ti].held.contains(gate));
                    if let Some(gate) = missing_gate {
                        self.overlay_hits += 1;
                        obs.on_overlay_hit(t, "gate");
                        match self.acquire(t, gate, obs) {
                            Ok(_) => {} // acquired or blocked; retry stmt next step
                            Err(outcome) => return Some(outcome),
                        }
                        return None;
                    }
                    match self.acquire(t, lock, obs) {
                        Ok(true) => self.threads[ti].stmt += 1,
                        Ok(false) => {} // blocked; pc unchanged
                        Err(outcome) => return Some(outcome),
                    }
                }
                Stmt::Unlock(lock) => {
                    if !self.threads[ti].held.contains(&lock) {
                        return Some(Outcome::Crash {
                            loc: self.loc(t),
                            kind: CrashKind::UnlockNotHeld,
                        });
                    }
                    self.release(t, lock, obs);
                    self.release_stale_gates(t, obs);
                    self.threads[ti].stmt += 1;
                }
                Stmt::Syscall { kind, ref arg, ret } => {
                    self.observe_reads(t, arg, obs);
                    let a = match self.eval(t, arg) {
                        Ok(v) => v,
                        Err(f) => return Some(self.fault_outcome(t, f)),
                    };
                    let r = env.call(t, kind, a, self.syscall_index);
                    self.syscall_index += 1;
                    self.n_syscalls += 1;
                    obs.on_syscall(t, kind, a, r);
                    self.store(t, ret, r, obs);
                    self.threads[ti].stmt += 1;
                }
                Stmt::Assert(ref e) => {
                    self.observe_reads(t, e, obs);
                    match self.eval(t, e) {
                        Ok(0) => {
                            return Some(Outcome::Crash {
                                loc: self.loc(t),
                                kind: CrashKind::AssertFailed,
                            })
                        }
                        Ok(_) => self.threads[ti].stmt += 1,
                        Err(f) => return Some(self.fault_outcome(t, f)),
                    }
                }
                Stmt::Emit(ref e) => {
                    self.observe_reads(t, e, obs);
                    match self.eval(t, e) {
                        Ok(v) => {
                            self.emitted.push((t, v));
                            obs.on_emit(t, v);
                        }
                        Err(f) => return Some(self.fault_outcome(t, f)),
                    }
                    self.threads[ti].stmt += 1;
                }
                Stmt::Yield => {
                    self.threads[ti].stmt += 1;
                }
            }
            return None;
        }

        // Terminator.
        match blk.term {
            Terminator::Goto(target) => {
                self.threads[ti].block = target.0;
                self.threads[ti].stmt = 0;
            }
            Terminator::Branch {
                site,
                ref cond,
                then_bb,
                else_bb,
            } => {
                // Hang bounds count header entries.
                if let Some(bound) = self.overlay.bound_for(t, crate::ids::BlockId::new(block)) {
                    let visits = self.threads[ti].header_visits.entry(block).or_insert(0);
                    *visits += 1;
                    if *visits > bound.max_iters {
                        self.overlay_hits += 1;
                        obs.on_overlay_hit(t, "loop-bound");
                        self.thread_done(t, obs);
                        return None;
                    }
                }
                self.observe_reads(t, cond, obs);
                let v = match self.eval(t, cond) {
                    Ok(v) => v,
                    Err(f) => return Some(self.fault_outcome(t, f)),
                };
                let taken = v != 0;
                self.n_branches += 1;
                obs.on_branch(t, site, taken, self.deps.is_dependent(site));
                self.threads[ti].block = if taken { then_bb.0 } else { else_bb.0 };
                self.threads[ti].stmt = 0;
            }
            Terminator::Exit => {
                self.thread_done(t, obs);
            }
        }
        None
    }

    /// Marks a thread finished, releasing any locks it still holds so that
    /// exits (graceful or overlay-forced) never strand waiters.
    fn thread_done(&mut self, t: ThreadId, obs: &mut dyn Observer) {
        // `release` removes exactly `lock` from `held`: ascending order, as
        // iterating a snapshot would give.
        while let Some(&lock) = self.threads[t.index()].held.first() {
            self.release(t, lock, obs);
        }
        self.threads[t.index()].status = Status::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cfg::{global, local, SyscallKind};
    use crate::expr::BinOp;
    use crate::overlay::{LockGate, LoopBound, SiteGuard, GHOST_LOCK_BASE};
    use crate::sched::{RandomSched, RoundRobin, ScriptSched};
    use crate::syscall::{DefaultEnv, ScriptEnv};

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

    #[test]
    fn random_schedules_find_the_inversion_deadlock() {
        let p = lock_inversion_program();
        let exec = Executor::new(&p);
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
        let exec = Executor::new(&p).with_config(ExecConfig { max_steps: 5_000 });
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
        let exec = Executor::new(&p).with_config(ExecConfig { max_steps: 5_000 });
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
        let mut env = ScriptEnv::new(vec![13]);
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
        let exec = Executor::new(&p);
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
                held: &BTreeSet<LockId>,
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
