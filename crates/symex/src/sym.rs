//! The symbolic executor over guest programs.
//!
//! Used by the hive for the three §3.3/§4 jobs: (1) proving unexplored
//! arms *infeasible* so finite path collections close subtrees, (2)
//! synthesizing concrete inputs that reach a frontier arm (guidance), and
//! (3) whole-unit exploration under *relaxed execution consistency* —
//! S2E-style: a single unit (thread) is explored with its shared state
//! unconstrained, over-approximating the feasible paths ("if the unit
//! behaves correctly for a superset of the feasible paths, then it is
//! guaranteed to behave correctly for all feasible paths").

use crate::interval::InputBox;
use crate::partial::{subst, SymbolPool};
use crate::solve::{self, Constraint, Feasibility, SolveBudget};
use serde::{Deserialize, Serialize};
use softborg_program::cfg::{Loc, Program, Stmt, SyscallKind, Terminator};
use softborg_program::expr::{BinOp, Expr, Place};
use softborg_program::interp::CrashKind;
use softborg_program::{BlockId, BranchSiteId, LockId, ThreadId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Execution-consistency level (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Consistency {
    /// Whole-system, strictly consistent execution. Only defined for
    /// single-threaded programs (a multi-threaded strict exploration
    /// would have to enumerate schedules).
    Strict,
    /// Explore one thread ("unit") in isolation with its shared globals
    /// unconstrained — a sound over-approximation of the unit's feasible
    /// paths inside the full system.
    RelaxedUnit(ThreadId),
}

/// Limits and context for an exploration.
#[derive(Debug, Clone)]
pub struct SymConfig {
    /// Stop after this many completed paths.
    pub max_paths: usize,
    /// Per-path bound on loop-header revisits.
    pub max_loop_iters: u32,
    /// Per-path statement budget.
    pub max_steps: u64,
    /// Consistency level.
    pub consistency: Consistency,
    /// Ranges of the real program inputs.
    pub input_box: InputBox,
    /// Budget for feasibility checks.
    pub solve_budget: SolveBudget,
    /// Seed for the frontier-selection order. Exploration pops pending
    /// states at seeded-random positions instead of strict DFS, so the
    /// path budget samples flips at *all* depths — without this, a
    /// rare-arm crash behind an early branch is unreachable until the
    /// entire subtree below it has been enumerated.
    pub exploration_seed: u64,
}

impl Default for SymConfig {
    fn default() -> Self {
        SymConfig {
            max_paths: 256,
            max_loop_iters: 4,
            max_steps: 5_000,
            consistency: Consistency::Strict,
            input_box: InputBox::default(),
            solve_budget: SolveBudget::default(),
            exploration_seed: 0,
        }
    }
}

/// How a symbolic path ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymOutcome {
    /// The thread exited normally.
    Success,
    /// A crash (assert failure, division fault, unlock-not-held).
    Crash {
        /// Crash site.
        loc: Loc,
        /// Crash kind.
        kind: CrashKind,
    },
    /// Self-deadlock on a lock the path already holds.
    Deadlock,
    /// Truncated by the loop or step budget (path family, not a path).
    Truncated,
}

/// One explored symbolic path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymPath {
    /// Branch decisions along the path.
    pub decisions: Vec<(BranchSiteId, bool)>,
    /// Path condition (conjunction).
    pub constraints: Vec<Constraint>,
    /// Terminal classification.
    pub outcome: SymOutcome,
    /// Total symbols (real + pseudo) mentioned.
    pub n_symbols: u32,
}

impl SymPath {
    /// Solves the path condition; a model doubles as a directed test
    /// input (real inputs are the first `n_inputs` entries).
    pub fn solve(&self, box_: &InputBox, budget: SolveBudget) -> Feasibility {
        solve::check(&self.constraints, box_, self.n_symbols, budget)
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Completed paths.
    pub paths: u64,
    /// Fork points encountered.
    pub forks: u64,
    /// Arms pruned by the interval filter.
    pub pruned: u64,
    /// Paths cut by loop/step budgets.
    pub truncated: u64,
}

/// The result of [`explore`].
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Explored paths.
    pub paths: Vec<SymPath>,
    /// Statistics.
    pub stats: ExploreStats,
}

impl Exploration {
    /// Paths ending in a crash.
    pub fn crashing(&self) -> impl Iterator<Item = &SymPath> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, SymOutcome::Crash { .. }))
    }
}

/// Errors from symbolic execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymexError {
    /// Strict consistency on a multi-threaded program.
    MultiThreadedStrict,
    /// The requested unit thread does not exist.
    BadThread(ThreadId),
    /// Directed execution diverged from the supplied prefix.
    PrefixMismatch {
        /// Decision index at which the divergence occurred.
        at: usize,
    },
}

impl fmt::Display for SymexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymexError::MultiThreadedStrict => {
                f.write_str("strict consistency requires a single-threaded program")
            }
            SymexError::BadThread(t) => write!(f, "program has no thread {t}"),
            SymexError::PrefixMismatch { at } => {
                write!(
                    f,
                    "directed execution diverged from prefix at decision {at}"
                )
            }
        }
    }
}

impl std::error::Error for SymexError {}

#[derive(Debug, Clone)]
struct SymState {
    block: u32,
    stmt: u32,
    locals: Vec<Expr>,
    globals: Vec<Expr>,
    held: BTreeSet<LockId>,
    constraints: Vec<Constraint>,
    decisions: Vec<(BranchSiteId, bool)>,
    loop_visits: HashMap<u32, u32>,
    steps: u64,
    pool: SymbolPool,
    /// Per-path refined input box (constraint propagation): every
    /// single-symbol constraint tightens it, so contradictory forks like
    /// `in < 500 ∧ in >= 900` are pruned at fork time.
    box_: InputBox,
    /// Per global: the unit has read or written it (relaxed runs only).
    touched: Vec<bool>,
}

impl SymState {
    /// The unit at its entry: locals zero, globals zero or (relaxed
    /// consistency) unconstrained symbols.
    fn initial(program: &Program, config: &SymConfig, symbolic_globals: bool) -> SymState {
        let mut pool = SymbolPool::new(program.n_inputs);
        let mut globals = vec![Expr::Const(0); program.n_globals as usize];
        if symbolic_globals {
            globals.iter_mut().for_each(|g| *g = pool.fresh());
        }
        SymState {
            block: 0,
            stmt: 0,
            locals: vec![Expr::Const(0); program.n_locals as usize],
            globals,
            held: BTreeSet::new(),
            constraints: Vec::new(),
            decisions: Vec::new(),
            loop_visits: HashMap::new(),
            steps: 0,
            pool,
            box_: config.input_box.clone(),
            touched: vec![false; program.n_globals as usize],
        }
    }

    fn slot(&mut self, place: Place) -> &mut Expr {
        match place {
            Place::Local(l) => &mut self.locals[l.index()],
            Place::Global(g) => &mut self.globals[g.index()],
        }
    }

    fn residual(&mut self, e: &Expr) -> Expr {
        subst(e, &self.locals, &self.globals, &mut self.pool)
    }
}

/// Per global: a thread other than `unit` writes it.
fn shared_globals(program: &Program, unit: ThreadId) -> Vec<bool> {
    let mut shared = vec![false; program.n_globals as usize];
    let others = program
        .threads
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != unit.index());
    for stmt in others.flat_map(|(_, body)| body.blocks.iter().flat_map(|b| &b.stmts)) {
        let (Stmt::Assign(place, _) | Stmt::Syscall { ret: place, .. }) = stmt else {
            continue;
        };
        if let Place::Global(g) = place {
            shared[g.index()] = true;
        }
    }
    shared
}

/// The conjunct "`expr` is truthy" (`want`) or falsy.
fn conjunct(expr: Expr, want: bool) -> Constraint {
    Constraint { expr, want }
}

/// Pushes `c` onto the state's path condition, refining the state's
/// input box. Returns `false`, leaving the condition as it was, when the
/// addition is provably infeasible.
fn push_constraint(state: &mut SymState, c: Constraint) -> bool {
    if let Some((sym, iv)) = solve::refinement(&c) {
        if !solve::apply_refinement(&mut state.box_, sym, iv) {
            return false;
        }
    } else if !solve::interval_filter(std::slice::from_ref(&c), &state.box_) {
        return false;
    }
    state.constraints.push(c);
    true
}

/// Explores the program per `config`, returning the collected paths.
///
/// # Errors
///
/// * [`SymexError::MultiThreadedStrict`] — strict mode on a program with
///   more than one thread.
/// * [`SymexError::BadThread`] — relaxed mode naming a missing thread.
pub fn explore(program: &Program, config: &SymConfig) -> Result<Exploration, SymexError> {
    let (thread, relaxed) = match config.consistency {
        Consistency::Strict => {
            if program.threads.len() != 1 {
                return Err(SymexError::MultiThreadedStrict);
            }
            (ThreadId::new(0), false)
        }
        Consistency::RelaxedUnit(t) => {
            if t.index() >= program.threads.len() {
                return Err(SymexError::BadThread(t));
            }
            (t, true)
        }
    };
    let mut engine = Engine::new(program, thread, config);
    if relaxed {
        engine.shared = shared_globals(program, thread);
    }
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(config.exploration_seed);
    let mut stack = vec![SymState::initial(program, config, relaxed)];
    while !stack.is_empty() && engine.paths.len() < config.max_paths {
        let state = stack.swap_remove(rng.gen_range(0..stack.len()));
        engine.run_state(state, &mut stack);
    }
    engine.stats.paths = engine.paths.len() as u64;
    Ok(Exploration {
        paths: engine.paths,
        stats: engine.stats,
    })
}

/// Directed execution: follows `prefix` decision for decision, then asks
/// whether the next branch, which must be at `site`, can go `taken`.
/// `Feasible(model)` carries guidance inputs in its first `n_inputs`
/// entries.
///
/// This is a *follow* run of [`explore`]'s engine under strict
/// consistency. At each branch it takes the prefix's arm, adding it to
/// the path condition when the condition is symbolic; a branch at
/// another site, a constant condition that goes the other way, or the
/// thread's exit is [`SymexError::PrefixMismatch`]. Every crash point is
/// survived: symbolic divisors (in `Emit` and `Syscall` arguments too)
/// and assertions add "nonzero", while definite crashes, self-deadlock
/// and unlock-not-held let the run go on. Loop headers are not counted;
/// the step budget is `max(max_steps, 50 × prefix.len())`, and running
/// out of it is [`Feasibility::Unknown`]. A path condition that
/// contradicted itself on the way is [`Feasibility::Infeasible`] at the
/// target; otherwise the target arm is added and [`solve::check`] decides
/// over `config.input_box`.
///
/// Only defined for single-threaded programs (a tree prefix of a
/// multi-threaded program bakes in a schedule the executor cannot
/// reproduce thread-locally).
///
/// # Errors
///
/// [`SymexError::MultiThreadedStrict`] for multi-threaded programs;
/// [`SymexError::PrefixMismatch`] when the prefix does not correspond to
/// a real path of the program.
pub fn arm_feasibility(
    program: &Program,
    prefix: &[(BranchSiteId, bool)],
    site: BranchSiteId,
    taken: bool,
    config: &SymConfig,
) -> Result<Feasibility, SymexError> {
    if program.threads.len() != 1 {
        return Err(SymexError::MultiThreadedStrict);
    }
    let mut engine = Engine::new(program, ThreadId::new(0), config);
    engine.max_steps = config.max_steps.max(prefix.len() as u64 * 50);
    engine.follow = Some([prefix, &[(site, taken)]].concat());
    engine.run_state(SymState::initial(program, config, false), &mut Vec::new());
    engine.verdict.expect("a follow run ends with a verdict")
}

struct Engine<'a> {
    program: &'a Program,
    thread: ThreadId,
    config: &'a SymConfig,
    max_steps: u64,
    /// Per global: another thread writes it (relaxed runs only).
    shared: Vec<bool>,
    /// A follow run's arms ([`arm_feasibility`]): the prefix, then the
    /// target.
    follow: Option<Vec<(BranchSiteId, bool)>>,
    /// A follow run's verdict so far: `Infeasible` once its path condition
    /// contradicts itself, until a mismatch, the budget or the target
    /// settles it.
    verdict: Option<Result<Feasibility, SymexError>>,
    stats: ExploreStats,
    paths: Vec<SymPath>,
}

impl<'a> Engine<'a> {
    /// An [`explore`] run of `thread` under strict consistency.
    fn new(program: &'a Program, thread: ThreadId, config: &'a SymConfig) -> Self {
        Engine {
            program,
            thread,
            config,
            max_steps: config.max_steps,
            shared: Vec::new(),
            follow: None,
            verdict: None,
            stats: ExploreStats::default(),
            paths: Vec::new(),
        }
    }

    fn loc(&self, state: &SymState) -> Loc {
        Loc {
            thread: self.thread,
            block: BlockId::new(state.block),
            stmt: state.stmt,
        }
    }

    /// The path ends here with `outcome`. Returns whether the run stops:
    /// [`explore`] records the path, while a follow run survives crashes
    /// and deadlocks and stops only at the step budget or the thread's
    /// exit, which it turns into its verdict.
    fn end(&mut self, state: &mut SymState, outcome: SymOutcome) -> bool {
        if self.follow.is_some() {
            let at = state.decisions.len();
            self.verdict = Some(match outcome {
                SymOutcome::Truncated => Ok(Feasibility::Unknown),
                SymOutcome::Success => Err(SymexError::PrefixMismatch { at }),
                SymOutcome::Crash { .. } | SymOutcome::Deadlock => return false,
            });
            return true;
        }
        self.stats.truncated += u64::from(outcome == SymOutcome::Truncated);
        self.paths.push(SymPath {
            decisions: std::mem::take(&mut state.decisions),
            constraints: std::mem::take(&mut state.constraints),
            outcome,
            n_symbols: state.pool.width(),
        });
        true
    }

    /// Adds `c` to the path condition. Returns whether the state goes on:
    /// a contradiction ends an explored path, while a follow run goes on
    /// with its prefix known infeasible.
    fn require(&mut self, state: &mut SymState, c: Constraint) -> bool {
        if push_constraint(state, c) {
            return true;
        }
        self.stats.pruned += 1;
        if self.follow.is_some() {
            self.verdict = Some(Ok(Feasibility::Infeasible));
        }
        self.follow.is_some()
    }

    /// A crash point: the state survives where `residual` is nonzero.
    /// [`explore`] records the crash (forked off when `residual` is
    /// symbolic); a follow run builds no crash arm. Returns whether the
    /// state goes on.
    fn crash_point(&mut self, state: &mut SymState, residual: Expr, kind: CrashKind) -> bool {
        let loc = self.loc(state);
        match residual {
            Expr::Const(0) => !self.end(state, SymOutcome::Crash { loc, kind }),
            Expr::Const(_) => true,
            _ => {
                if self.follow.is_none() {
                    let mut crash = state.clone();
                    if push_constraint(&mut crash, conjunct(residual.clone(), false)) {
                        self.stats.forks += 1;
                        self.end(&mut crash, SymOutcome::Crash { loc, kind });
                    } else {
                        self.stats.pruned += 1;
                    }
                }
                self.require(state, conjunct(residual, true))
            }
        }
    }

    /// Every division in `expr`, in evaluation order, is a crash point.
    fn divisors(&mut self, state: &mut SymState, expr: &Expr) -> bool {
        let mut divisors = Vec::new();
        expr.visit(&mut |e| match e {
            Expr::Bin(BinOp::Div, _, d) => divisors.push(((**d).clone(), CrashKind::DivByZero)),
            Expr::Bin(BinOp::Rem, _, d) => divisors.push(((**d).clone(), CrashKind::RemByZero)),
            _ => {}
        });
        divisors.into_iter().all(|(d, kind)| {
            let residual = state.residual(&d);
            self.crash_point(state, residual, kind)
        })
    }

    /// Relaxed consistency lets another thread write a shared global
    /// between any two steps of the unit, so a step that reads one the
    /// unit has read or written before sees a fresh symbol. One step's
    /// reads of a global agree, as in the interpreter. Then the step's
    /// divisions are crash points; returns whether the state goes on.
    fn operands(&mut self, state: &mut SymState, reads: &Expr, writes: Option<Place>) -> bool {
        if !self.shared.is_empty() {
            let mut read = Vec::new();
            reads.visit(&mut |e| {
                if let Expr::Load(Place::Global(g)) = e {
                    if self.shared[g.index()] && !read.contains(g) {
                        read.push(*g);
                    }
                }
            });
            for g in read {
                if std::mem::replace(&mut state.touched[g.index()], true) {
                    state.globals[g.index()] = state.pool.fresh();
                }
            }
            if let Some(Place::Global(g)) = writes {
                state.touched[g.index()] = true;
            }
        }
        self.divisors(state, reads)
    }

    /// One statement. Returns whether the state goes on.
    fn step(&mut self, state: &mut SymState, stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Assign(place, e) => {
                if !self.operands(state, e, Some(*place)) {
                    return false;
                }
                *state.slot(*place) = state.residual(e);
            }
            Stmt::Lock(l) => {
                if !state.held.insert(*l) {
                    return !self.end(state, SymOutcome::Deadlock);
                }
            }
            Stmt::Unlock(l) => {
                if !state.held.remove(l) {
                    let loc = self.loc(state);
                    let kind = CrashKind::UnlockNotHeld;
                    return !self.end(state, SymOutcome::Crash { loc, kind });
                }
            }
            Stmt::Syscall { kind, arg, ret } => {
                if !self.operands(state, arg, Some(*ret)) {
                    return false;
                }
                let arg = state.residual(arg);
                let sym = state.pool.fresh();
                if *kind == SyscallKind::Read {
                    let at_least = Expr::bin(BinOp::Ge, sym.clone(), Expr::Const(0));
                    let _ = push_constraint(state, conjunct(at_least, true));
                    if let Expr::Const(n) = arg {
                        let at_most = Expr::bin(BinOp::Le, sym.clone(), Expr::Const(n.max(0)));
                        let _ = push_constraint(state, conjunct(at_most, true));
                    }
                }
                *state.slot(*ret) = sym;
            }
            Stmt::Assert(e) => {
                if !self.operands(state, e, None) {
                    return false;
                }
                let r = state.residual(e);
                return self.crash_point(state, r, CrashKind::AssertFailed);
            }
            Stmt::Emit(e) => return self.operands(state, e, None),
            Stmt::Yield => {}
        }
        true
    }

    /// A follow run at the branch at `site` with residual condition `r`:
    /// the prefix's arm, or `None` once the run has its verdict (a
    /// mismatch, or the target).
    fn follow_arm(&mut self, state: &mut SymState, site: BranchSiteId, r: Expr) -> Option<bool> {
        let arms = self.follow.as_ref().expect("a follow run");
        let at = state.decisions.len();
        let (target, (want_site, want)) = (at + 1 == arms.len(), arms[at]);
        let constant = match r {
            Expr::Const(c) => Some(c != 0),
            _ => None,
        };
        if want_site != site || (!target && constant.is_some_and(|c| c != want)) {
            self.verdict = Some(Err(SymexError::PrefixMismatch { at }));
            return None;
        }
        if !target {
            if constant.is_none() {
                self.require(state, conjunct(r, want));
            }
            return Some(want);
        }
        if self.verdict.is_none() {
            self.verdict = Some(Ok(if constant.is_some_and(|c| c != want) {
                Feasibility::Infeasible
            } else {
                if constant.is_none() {
                    state.constraints.push(conjunct(r, want));
                }
                let (box_, budget) = (&self.config.input_box, self.config.solve_budget);
                solve::check(&state.constraints, box_, state.pool.width(), budget)
            }));
        }
        None
    }

    /// Runs one state until it forks (children pushed to `stack`) or its
    /// path ends; a follow run runs until its verdict.
    fn run_state(&mut self, mut state: SymState, stack: &mut Vec<SymState>) {
        let program = self.program;
        let body = &program.threads[self.thread.index()];
        loop {
            if state.steps >= self.max_steps {
                self.end(&mut state, SymOutcome::Truncated);
                return;
            }
            state.steps += 1;
            let blk = &body.blocks[state.block as usize];
            if let Some(stmt) = blk.stmts.get(state.stmt as usize) {
                if !self.step(&mut state, stmt) {
                    return;
                }
                state.stmt += 1;
                continue;
            }
            let (site, cond, then_bb, else_bb) = match &blk.term {
                Terminator::Goto(b) => {
                    state.block = b.0;
                    state.stmt = 0;
                    continue;
                }
                Terminator::Exit => {
                    self.end(&mut state, SymOutcome::Success);
                    return;
                }
                Terminator::Branch {
                    site,
                    cond,
                    then_bb,
                    else_bb,
                } => (*site, cond, then_bb.0, else_bb.0),
            };
            if self.follow.is_none() {
                let visits = state.loop_visits.entry(state.block).or_insert(0);
                *visits += 1;
                if *visits > self.config.max_loop_iters {
                    self.end(&mut state, SymOutcome::Truncated);
                    return;
                }
            }
            if !self.operands(&mut state, cond, None) {
                return;
            }
            let r = state.residual(cond);
            let taken = if self.follow.is_some() {
                let Some(taken) = self.follow_arm(&mut state, site, r) else {
                    return;
                };
                taken
            } else if let Expr::Const(c) = r {
                c != 0
            } else {
                // Fork: the else-arm waits on the worklist, the state
                // goes on down the then-arm; an arm whose condition
                // contradicts the path is dropped.
                self.stats.forks += 1;
                let mut else_arm = state.clone();
                let else_ok = push_constraint(&mut else_arm, conjunct(r.clone(), false));
                let then_ok = push_constraint(&mut state, conjunct(r, true));
                self.stats.pruned += u64::from(!else_ok) + u64::from(!then_ok);
                match (then_ok, else_ok) {
                    (false, false) => return,
                    (false, true) => {
                        state = else_arm;
                        false
                    }
                    (true, false) => true,
                    (true, true) => {
                        else_arm.decisions.push((site, false));
                        (else_arm.block, else_arm.stmt) = (else_bb, 0);
                        stack.push(else_arm);
                        true
                    }
                }
            };
            state.decisions.push((site, taken));
            state.block = if taken { then_bb } else { else_bb };
            state.stmt = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::scenarios;

    fn cfg(n_inputs: u32, lo: i64, hi: i64) -> SymConfig {
        SymConfig {
            input_box: InputBox::uniform(n_inputs, lo, hi),
            ..SymConfig::default()
        }
    }

    #[test]
    fn strict_rejects_multithreaded() {
        let s = scenarios::bank_transfer();
        let err = explore(&s.program, &cfg(2, 0, 99)).unwrap_err();
        assert_eq!(err, SymexError::MultiThreadedStrict);
    }

    #[test]
    fn triangle_explores_all_outcome_classes() {
        let s = scenarios::triangle();
        let ex = explore(&s.program, &cfg(3, 1, 20)).unwrap();
        assert!(ex.paths.len() >= 4, "triangle has ≥4 leaf classes");
        assert!(ex.crashing().count() == 0, "triangle cannot crash");
        // Every completed path must be solvable or at worst unknown, and
        // solved models must replay to the same decisions.
        let box_ = InputBox::uniform(3, 1, 20);
        let mut solved = 0;
        for p in &ex.paths {
            if let Feasibility::Feasible(model) = p.solve(&box_, SolveBudget::default()) {
                solved += 1;
                // Replay concretely and compare decisions.
                use softborg_program::interp::{Executor, Observer};
                #[derive(Default)]
                struct Obs(Vec<(BranchSiteId, bool)>);
                impl Observer for Obs {
                    fn on_branch(&mut self, _t: ThreadId, s: BranchSiteId, tk: bool, _d: bool) {
                        self.0.push((s, tk));
                    }
                }
                let mut obs = Obs::default();
                Executor::new(&s.program)
                    .run(
                        &model[..3],
                        &mut softborg_program::syscall::DefaultEnv::seeded(0),
                        &mut softborg_program::sched::RoundRobin::new(),
                        &softborg_program::Overlay::empty(),
                        &mut obs,
                    )
                    .unwrap();
                assert_eq!(obs.0, p.decisions, "model does not replay the path");
            }
        }
        assert!(solved >= 4, "solved only {solved} paths");
    }

    #[test]
    fn parser_crash_paths_are_discovered_symbolically() {
        let s = scenarios::token_parser();
        let ex = explore(&s.program, &cfg(6, 0, 99)).unwrap();
        let crashes: Vec<&SymPath> = ex.crashing().collect();
        assert!(
            crashes.len() >= 2,
            "parser has a div bug and an assert bug; found {}",
            crashes.len()
        );
        // At least one crash path must be concretely realizable.
        let box_ = InputBox::uniform(6, 0, 99);
        let real: Vec<Vec<i64>> = crashes
            .iter()
            .filter_map(|p| match p.solve(&box_, SolveBudget::default()) {
                Feasibility::Feasible(m) => Some(m),
                _ => None,
            })
            .collect();
        assert!(!real.is_empty(), "no crash model found");
        // Replaying a crash model must actually crash.
        use softborg_program::interp::{Executor, NopObserver, Outcome};
        for m in &real {
            let r = Executor::new(&s.program)
                .run(
                    &m[..6],
                    &mut softborg_program::syscall::DefaultEnv::seeded(0),
                    &mut softborg_program::sched::RoundRobin::new(),
                    &softborg_program::Overlay::empty(),
                    &mut NopObserver,
                )
                .unwrap();
            assert!(
                matches!(r.outcome, Outcome::Crash { .. }),
                "model {m:?} did not crash: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn relaxed_unit_explores_one_thread_of_concurrent_program() {
        let s = scenarios::racy_counter();
        let ex = explore(
            &s.program,
            &SymConfig {
                consistency: Consistency::RelaxedUnit(ThreadId::new(0)),
                input_box: InputBox::uniform(1, 0, 999),
                ..SymConfig::default()
            },
        )
        .unwrap();
        // The unit has the locked and unlocked arms.
        assert!(ex.paths.len() >= 2);
        assert!(ex
            .paths
            .iter()
            .all(|p| matches!(p.outcome, SymOutcome::Success | SymOutcome::Truncated)));
    }

    #[test]
    fn relaxed_unit_overapproximates_strictly_infeasible_paths() {
        use softborg_program::builder::ProgramBuilder;
        // g0 is always 0 in the real system (never written), so the
        // then-arm is strictly infeasible — but RelaxedUnit explores it.
        let mut pb = ProgramBuilder::new("overapprox");
        pb.globals(1).inputs(1);
        pb.thread(|t| {
            t.if_else(
                Expr::eq(Expr::global(0), Expr::Const(7)),
                |t| {
                    t.emit(Expr::Const(1));
                },
                |t| {
                    t.emit(Expr::Const(0));
                },
            );
        });
        let p = pb.build().unwrap();
        let strict = explore(&p, &cfg(1, 0, 9)).unwrap();
        assert_eq!(strict.paths.len(), 1, "strict sees only the else-arm");
        let relaxed = explore(
            &p,
            &SymConfig {
                consistency: Consistency::RelaxedUnit(ThreadId::new(0)),
                input_box: InputBox::uniform(1, 0, 9),
                ..SymConfig::default()
            },
        )
        .unwrap();
        assert_eq!(relaxed.paths.len(), 2, "relaxed explores both arms");
    }

    #[test]
    fn loops_are_bounded() {
        use softborg_program::builder::ProgramBuilder;
        let mut pb = ProgramBuilder::new("spin");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.while_loop(Expr::bin(BinOp::Ne, Expr::input(0), Expr::Const(1)), |t| {
                t.yield_();
            });
        });
        let p = pb.build().unwrap();
        let ex = explore(&p, &cfg(1, 0, 9)).unwrap();
        assert!(ex.stats.truncated > 0, "diverging loop must truncate");
        assert!(ex.paths.iter().any(|p| p.outcome == SymOutcome::Success));
    }

    #[test]
    fn arm_feasibility_finds_rare_trigger() {
        let s = scenarios::token_parser();
        // Empty prefix, target = first branch (in0 == 13), taken arm.
        let sites = s.program.branch_sites();
        let first = sites[0].0;
        let f = arm_feasibility(&s.program, &[], first, true, &cfg(6, 0, 99)).unwrap();
        match f {
            Feasibility::Feasible(m) => assert_eq!(m[0], 13),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn arm_feasibility_detects_infeasible_arm() {
        use softborg_program::builder::ProgramBuilder;
        // if (in0 >= 0) … else …  with in0 in [0,9]: else-arm infeasible.
        let mut pb = ProgramBuilder::new("always");
        pb.inputs(1);
        pb.thread(|t| {
            t.if_else(
                Expr::bin(BinOp::Ge, Expr::input(0), Expr::Const(0)),
                |t| {
                    t.emit(Expr::Const(1));
                },
                |t| {
                    t.emit(Expr::Const(0));
                },
            );
        });
        let p = pb.build().unwrap();
        let site = p.branch_sites()[0].0;
        let f = arm_feasibility(&p, &[], site, false, &cfg(1, 0, 9)).unwrap();
        assert_eq!(f, Feasibility::Infeasible);
        let t = arm_feasibility(&p, &[], site, true, &cfg(1, 0, 9)).unwrap();
        assert!(t.is_feasible());

        // emit(1 / in0); if (in0 == 0) …: the run past the emit carries
        // in0 ≠ 0, so the then-arm is infeasible.
        let mut pb = ProgramBuilder::new("emit-divides");
        pb.inputs(1);
        pb.thread(|t| {
            t.emit(Expr::bin(BinOp::Div, Expr::Const(1), Expr::input(0)));
            t.if_then(Expr::eq(Expr::input(0), Expr::Const(0)), |t| {
                t.emit(Expr::Const(0));
            });
        });
        let p = pb.build().unwrap();
        let site = p.branch_sites()[0].0;
        let f = arm_feasibility(&p, &[], site, true, &cfg(1, 0, 9)).unwrap();
        assert_eq!(f, Feasibility::Infeasible);
        assert!(arm_feasibility(&p, &[], site, false, &cfg(1, 0, 9))
            .unwrap()
            .is_feasible());
    }

    #[test]
    fn arm_feasibility_follows_prefixes() {
        let s = scenarios::token_parser();
        // Prefix: first branch taken (in0 == 13). Target: second branch
        // (in1 >= 90) taken.
        let sites = s.program.branch_sites();
        let f = arm_feasibility(
            &s.program,
            &[(sites[0].0, true)],
            sites[1].0,
            true,
            &cfg(6, 0, 99),
        )
        .unwrap();
        match f {
            Feasibility::Feasible(m) => {
                assert_eq!(m[0], 13);
                assert!(m[1] >= 90);
            }
            o => panic!("{o:?}"),
        }

        // A follow run survives crashes: past an assert the program always
        // fails, the next branch is still reached.
        use softborg_program::builder::ProgramBuilder;
        let mut pb = ProgramBuilder::new("always-fails");
        pb.inputs(1);
        pb.thread(|t| {
            t.assert_(Expr::Const(0));
            t.if_then(Expr::lt(Expr::input(0), Expr::Const(5)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let site = p.branch_sites()[0].0;
        assert_eq!(explore(&p, &cfg(1, 0, 9)).unwrap().paths.len(), 1);
        match arm_feasibility(&p, &[], site, true, &cfg(1, 0, 9)).unwrap() {
            Feasibility::Feasible(m) => assert!(m[0] < 5),
            o => panic!("{o:?}"),
        }

        // Nor is it cut at `max_loop_iters` header visits: six turns of a
        // loop, then a branch on the input.
        let mut pb = ProgramBuilder::new("six-turns");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.while_loop(Expr::lt(Expr::local(0), Expr::Const(6)), |t| {
                t.assign(
                    softborg_program::cfg::local(0),
                    Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
                );
            });
            t.if_then(Expr::bin(BinOp::Gt, Expr::input(0), Expr::Const(3)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let (header, after) = (p.branch_sites()[0].0, p.branch_sites()[1].0);
        let mut prefix = vec![(header, true); 6];
        prefix.push((header, false));
        let config = cfg(1, 0, 9);
        assert!(prefix.len() as u32 > config.max_loop_iters);
        match arm_feasibility(&p, &prefix, after, true, &config).unwrap() {
            Feasibility::Feasible(m) => assert!(m[0] > 3),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn arm_feasibility_rejects_bogus_prefix() {
        let s = scenarios::token_parser();
        let sites = s.program.branch_sites();
        // Claim the path visited site[3] first — it does not.
        let err = arm_feasibility(
            &s.program,
            &[(sites[3].0, true)],
            sites[0].0,
            true,
            &cfg(6, 0, 99),
        )
        .unwrap_err();
        assert!(matches!(err, SymexError::PrefixMismatch { .. }));
    }

    #[test]
    fn arm_feasibility_rejects_multithreaded() {
        let s = scenarios::bank_transfer();
        let sites = s.program.branch_sites();
        if let Some((site, ..)) = sites.first() {
            let err = arm_feasibility(&s.program, &[], *site, true, &cfg(2, 0, 99)).unwrap_err();
            assert_eq!(err, SymexError::MultiThreadedStrict);
        }
    }
}
