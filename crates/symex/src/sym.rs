//! The symbolic executor over guest programs.
//!
//! Used by the hive for the three §3.3/§4 jobs: (1) proving unexplored
//! arms *infeasible* so finite path collections close subtrees, (2)
//! synthesizing concrete inputs that reach a frontier arm (guidance), and
//! (3) whole-unit exploration under *relaxed execution consistency* —
//! S2E-style: a single unit (thread) is explored with its shared state
//! unconstrained, over-approximating the feasible paths ("if the unit
//! behaves correctly for a superset of the feasible paths, then it is
//! guaranteed to behave correctly for all feasible paths"). Every run
//! steps the pods' `interp::Machine` in the symbolic domain of [`partial`](crate::partial).

use crate::interval::InputBox;
use crate::partial::{Sym, Terms, MAX_RESIDUAL_NODES};
use crate::solve::{self, Constraint, Feasibility, SolveBudget};
use serde::{Deserialize, Serialize};
use softborg_program::cfg::{Loc, SyscallKind};
use softborg_program::expr::{BinOp, EvalFault, Expr, UnOp, Value};
use softborg_program::interp::{
    CrashKind, Decisions, LoweredProgram, Machine, Observer, Scratch, Stop,
};
use softborg_program::{BranchSiteId, GlobalId, LockId, Overlay, ThreadId};
use std::collections::HashMap;
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

/// One path's bookkeeping beside the Machine's tables.
#[derive(Debug, Clone, Default)]
struct Path {
    constraints: Vec<Constraint>,
    decisions: Vec<(BranchSiteId, bool)>,
    /// Branch visits per block.
    loop_visits: HashMap<u32, u32>,
    steps: u64,
    /// Symbols allocated so far (real + pseudo).
    width: u32,
    /// Refined by every single-symbol constraint (constraint
    /// propagation), so contradictory forks like `in < 500 ∧ in >= 900`
    /// are pruned at fork time.
    box_: InputBox,
    /// Per global: the unit has read or written it.
    touched: Vec<bool>,
    /// A forked branch's arm, taken by the path's next step.
    pending: Option<bool>,
}

/// The conjunct "`v` is truthy" (`want`) or falsy.
fn conjunct(terms: &Terms, v: Sym, want: bool) -> Constraint {
    let expr = terms.expr(v);
    Constraint { expr, want }
}

/// Pushes `c` onto `path`'s condition, refining its input box. Returns
/// `false`, leaving the condition as it was, when the addition is
/// provably infeasible.
fn push_constraint(path: &mut Path, c: Constraint) -> bool {
    if let Some((sym, iv)) = solve::refinement(&c) {
        if !solve::apply_refinement(&mut path.box_, sym, iv) {
            return false;
        }
    } else if !solve::interval_filter(std::slice::from_ref(&c), &path.box_) {
        return false;
    }
    path.constraints.push(c);
    true
}

/// Explores the lowered program per `config`, returning the collected
/// paths.
///
/// # Errors
///
/// * [`SymexError::MultiThreadedStrict`] — strict mode on a program with
///   more than one thread.
/// * [`SymexError::BadThread`] — relaxed mode naming a missing thread.
pub fn explore(code: &LoweredProgram, config: &SymConfig) -> Result<Exploration, SymexError> {
    let unit = match config.consistency {
        Consistency::Strict if code.n_threads() != 1 => {
            return Err(SymexError::MultiThreadedStrict)
        }
        Consistency::Strict => None,
        Consistency::RelaxedUnit(t) if t.index() >= code.n_threads() => {
            return Err(SymexError::BadThread(t))
        }
        Consistency::RelaxedUnit(t) => Some(t),
    };
    let mut run = Run::new(code, config, unit.unwrap_or_default(), None);
    if let Some(t) = unit {
        run.shared = code.written_by_others(t);
    }
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(config.exploration_seed);
    let mut stack = vec![run.start(code, unit.is_some())];
    while !stack.is_empty() && run.paths.len() < config.max_paths {
        let state = stack.swap_remove(rng.gen_range(0..stack.len()));
        run.run_path(code, state, &mut stack);
    }
    run.stats.paths = run.paths.len() as u64;
    Ok(Exploration {
        paths: run.paths,
        stats: run.stats,
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
    code: &LoweredProgram,
    prefix: &[(BranchSiteId, bool)],
    site: BranchSiteId,
    taken: bool,
    config: &SymConfig,
) -> Result<Feasibility, SymexError> {
    if code.n_threads() != 1 {
        return Err(SymexError::MultiThreadedStrict);
    }
    let arms = [prefix, &[(site, taken)]].concat();
    let mut run = Run::new(code, config, ThreadId::new(0), Some(arms));
    run.max_steps = config.max_steps.max(prefix.len() as u64 * 50);
    let state = run.start(code, false);
    run.run_path(code, state, &mut Vec::new());
    run.verdict.expect("a follow run ends with a verdict")
}

/// One [`explore`] or follow run of a unit: the context its [`Sym`]
/// values are computed in, the Machine's decision source, and the driver
/// that steps the unit's paths.
#[derive(Default)]
pub(crate) struct Run {
    terms: Terms,
    /// The path being stepped, and where its current step is.
    path: Path,
    loc: Loc,
    /// The path ended inside the step, without a record.
    ended: bool,
    unit: ThreadId,
    config: SymConfig,
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
    /// The other arm of a fork, waiting for the Machine's tables.
    fork: Option<Path>,
    stats: ExploreStats,
    paths: Vec<SymPath>,
}

/// A path waiting on the worklist, with the Machine's tables.
type State = (Scratch<Sym>, Path);

impl Run {
    fn new(
        code: &LoweredProgram,
        config: &SymConfig,
        unit: ThreadId,
        follow: Option<Vec<(BranchSiteId, bool)>>,
    ) -> Self {
        let path = Path {
            width: code.n_inputs(),
            box_: config.input_box.clone(),
            touched: vec![false; code.n_globals() as usize],
            ..Path::default()
        };
        let (config, max_steps) = (config.clone(), config.max_steps);
        Run {
            path,
            unit,
            config,
            max_steps,
            follow,
            ..Run::default()
        }
    }

    /// The unit at its entry: locals zero, globals zero or (relaxed
    /// consistency) unconstrained symbols.
    fn start(&mut self, code: &LoweredProgram, relaxed: bool) -> State {
        let (mut tables, overlay) = (Scratch::default(), Overlay::empty());
        let mut m = Machine::new(code, &overlay, &[], &mut tables);
        for g in (0..code.n_globals()).filter(|_| relaxed) {
            let s = self.fresh();
            m.set_global(GlobalId::new(g), s);
        }
        (tables, self.path.clone())
    }

    fn fresh(&mut self) -> Sym {
        self.path.width += 1;
        self.terms.input(self.path.width - 1)
    }

    /// The path ends with `outcome`: [`explore`] records it, while a
    /// follow run turns the step budget or the thread's exit into its
    /// verdict.
    fn end(&mut self, outcome: SymOutcome) {
        let path = std::mem::take(&mut self.path);
        if self.follow.is_some() {
            let at = path.decisions.len();
            self.verdict = Some(match outcome {
                SymOutcome::Success => Err(SymexError::PrefixMismatch { at }),
                _ => Ok(Feasibility::Unknown),
            });
            return;
        }
        self.stats.truncated += u64::from(outcome == SymOutcome::Truncated);
        self.paths.push(SymPath {
            decisions: path.decisions,
            constraints: path.constraints,
            outcome,
            n_symbols: path.width,
        });
    }

    /// The path ends inside the step, without a record.
    fn halt(&mut self) -> Stop<()> {
        self.ended = true;
        Stop::Source(())
    }

    /// Adds "`v` is `want`" to the path condition. Returns whether the
    /// path goes on: a contradiction ends an explored path, while a
    /// follow run goes on with its prefix known infeasible.
    fn require(&mut self, v: Sym, want: bool) -> bool {
        if push_constraint(&mut self.path, conjunct(&self.terms, v, want)) {
            return true;
        }
        self.stats.pruned += 1;
        match self.follow {
            Some(_) => self.verdict = Some(Ok(Feasibility::Infeasible)),
            None => self.ended = true,
        }
        self.follow.is_some()
    }

    /// A crash point: the path survives where `v` is nonzero. [`explore`]
    /// records the crash (forked off when `v` is symbolic); a follow run
    /// builds no crash arm. Returns whether the path goes on; the caller
    /// stops an explored path at a definite crash.
    fn crash_point(&mut self, v: Sym, kind: CrashKind) -> bool {
        let v = Sym::kept(self, v);
        if let Some(nonzero) = v.truth() {
            return nonzero || self.follow.is_some();
        }
        if self.follow.is_none() {
            let mut crash = self.path.clone();
            if push_constraint(&mut crash, conjunct(&self.terms, v, false)) {
                self.stats.forks += 1;
                let path = std::mem::replace(&mut self.path, crash);
                self.end(SymOutcome::Crash {
                    loc: self.loc,
                    kind,
                });
                self.path = path;
            } else {
                self.stats.pruned += 1;
            }
        }
        self.require(v, true)
    }

    /// A follow run at the branch at `site` with condition `cond`: the
    /// prefix's arm, or the run stops with its verdict (a mismatch, or
    /// the target).
    fn follow_arm(&mut self, site: BranchSiteId, cond: Sym) -> Result<bool, Stop<()>> {
        let arms = self.follow.as_ref().expect("a follow run");
        let at = self.path.decisions.len();
        let (target, (want_site, want)) = (at + 1 == arms.len(), arms[at]);
        let mismatched = cond.truth().is_some_and(|c| c != want);
        if want_site != site || (!target && mismatched) {
            self.verdict = Some(Err(SymexError::PrefixMismatch { at }));
            return Err(self.halt());
        }
        if !target {
            if cond.truth().is_none() {
                self.require(cond, want);
            }
            return Ok(want);
        }
        if self.verdict.is_none() {
            self.verdict = Some(Ok(if mismatched {
                Feasibility::Infeasible
            } else {
                if cond.truth().is_none() {
                    let c = conjunct(&self.terms, cond, want);
                    self.path.constraints.push(c);
                }
                let (c, box_) = (&self.path.constraints, &self.config.input_box);
                solve::check(c, box_, self.path.width, self.config.solve_budget)
            }));
        }
        Err(self.halt())
    }

    /// Steps one path until it forks (the other arm pushed to `stack`)
    /// or ends; a follow run steps until its verdict. Between steps it
    /// counts loop-header visits and, under relaxed consistency, lets
    /// other threads write the shared globals the next step reads.
    fn run_path(
        &mut self,
        code: &LoweredProgram,
        (mut tables, path): State,
        stack: &mut Vec<State>,
    ) {
        // Symbolic runs see no overlay.
        let (t, overlay) = (self.unit, Overlay::empty());
        self.path = path;
        let mut m = Machine::resume(code, &overlay, &[], &mut tables);
        loop {
            if self.path.pending.is_none() {
                if self.path.steps >= self.max_steps {
                    return self.end(SymOutcome::Truncated);
                }
                self.path.steps += 1;
                let (branch, loads) = m.next_op(t);
                if branch && self.follow.is_none() {
                    let visits = self.path.loop_visits.entry(m.loc(t).block.0).or_insert(0);
                    *visits += 1;
                    if *visits > self.config.max_loop_iters {
                        return self.end(SymOutcome::Truncated);
                    }
                }
                // Another thread may have written a shared global since
                // the unit last touched it; one step's reads agree.
                let (shared, touched) = (&self.shared, &self.path.touched);
                let havoc: Vec<GlobalId> = (loads.iter().enumerate())
                    .filter(|&(i, g)| {
                        shared.get(g.index()) == Some(&true)
                            && touched[g.index()]
                            && !loads[..i].contains(g)
                    })
                    .map(|(_, &g)| g)
                    .collect();
                for g in havoc {
                    let s = self.fresh();
                    m.set_global(g, s);
                }
            }
            (self.loc, self.ended) = (m.loc(t), false);
            let outcome = match m.step(t, self) {
                Ok(()) if m.runnable().contains(&t) => continue,
                Ok(()) => SymOutcome::Success,
                Err(Stop::UnknownBranch(_)) => {
                    let fork = self.fork.take().expect("a fork");
                    stack.push((m.tables(), fork));
                    continue;
                }
                Err(_) if self.ended => return,
                Err(Stop::Crash(_) | Stop::SelfDeadlock(_)) if self.follow.is_some() => {
                    m.skip(t);
                    continue;
                }
                Err(Stop::Crash(kind)) => SymOutcome::Crash {
                    loc: self.loc,
                    kind,
                },
                Err(Stop::SelfDeadlock(_)) => SymOutcome::Deadlock,
                Err(Stop::Deadlock(_) | Stop::Source(())) => unreachable!("only the unit steps"),
            };
            return self.end(outcome);
        }
    }
}

/// The symbolic domain: values fold as [`Terms`] builds them, and an
/// unknown divisor is a crash point.
impl Value for Sym {
    type Ctx = Run;
    fn input(run: &mut Run, _: &[i64], i: usize) -> Self {
        run.terms.input(i as u32)
    }
    fn un(run: &mut Run, op: UnOp, v: Self) -> Self {
        run.terms.un(op, v)
    }
    fn bin(run: &mut Run, op: BinOp, x: Self, y: Self) -> Result<Self, EvalFault> {
        let fault = match op {
            BinOp::Div => Some((EvalFault::DivByZero, CrashKind::DivByZero)),
            BinOp::Rem => Some((EvalFault::RemByZero, CrashKind::RemByZero)),
            _ => None,
        };
        match fault {
            Some((fault, kind)) if !run.crash_point(y, kind) => Err(fault),
            _ => Ok(run.terms.bin(op, x, y)),
        }
    }
    /// A kept term larger than [`MAX_RESIDUAL_NODES`] becomes a fresh
    /// symbol.
    fn kept(run: &mut Run, v: Self) -> Self {
        if run.terms.size(v) > MAX_RESIDUAL_NODES {
            return run.fresh();
        }
        v
    }
    fn truth(self) -> Option<bool> {
        match self {
            Sym::Known(v) => Some(v != 0),
            Sym::Term(_) => None,
        }
    }
}

/// The path's decisions, and every global it touches.
impl Observer for Run {
    const READS_LOCKSETS: bool = false;
    fn on_branch(&mut self, _: ThreadId, site: BranchSiteId, taken: bool, _: bool) {
        self.path.decisions.push((site, taken));
    }
    fn on_global_access(&mut self, _: ThreadId, g: GlobalId, _: bool, _: Loc, _: &[LockId]) {
        self.path.touched[g.index()] = true;
    }
}

impl Decisions<Sym> for Run {
    type Error = ();
    type Observer = Self;

    fn observer(&mut self) -> &mut Self {
        self
    }
    fn ctx(&mut self) -> &mut Self {
        self
    }
    fn recorded_branch(&mut self, _: bool) -> Result<Option<bool>, ()> {
        Ok(self.path.pending.take())
    }
    /// A follow run takes the prefix's arm. [`explore`] forks on a
    /// symbolic condition: both arms are taken by stepping the branch
    /// again, the else-arm's from the worklist, and an arm whose
    /// condition contradicts the path is dropped.
    fn branch(&mut self, site: BranchSiteId, cond: Sym) -> Result<bool, Stop<()>> {
        if self.follow.is_some() {
            return self.follow_arm(site, cond);
        } else if let Some(taken) = cond.truth() {
            return Ok(taken);
        }
        self.stats.forks += 1;
        let mut else_arm = self.path.clone();
        let else_ok = push_constraint(&mut else_arm, conjunct(&self.terms, cond, false));
        let then_ok = push_constraint(&mut self.path, conjunct(&self.terms, cond, true));
        self.stats.pruned += u64::from(!else_ok) + u64::from(!then_ok);
        match (then_ok, else_ok) {
            (false, false) => Err(self.halt()),
            (false, true) => {
                self.path = else_arm;
                Ok(false)
            }
            (true, false) => Ok(true),
            (true, true) => {
                (else_arm.pending, self.path.pending) = (Some(false), Some(true));
                self.fork = Some(else_arm);
                Err(Stop::UnknownBranch(site))
            }
        }
    }
    fn assertion(&mut self, cond: Sym) -> Result<(), Stop<()>> {
        match self.crash_point(cond, CrashKind::AssertFailed) {
            true => Ok(()),
            false => Err(Stop::Crash(CrashKind::AssertFailed)),
        }
    }
    /// A fresh symbol; a `Read` returns between 0 and a known length.
    fn syscall(&mut self, _: ThreadId, kind: SyscallKind, arg: Sym) -> Result<Sym, ()> {
        let sym = self.fresh();
        if kind == SyscallKind::Read {
            let ret = self.terms.expr(sym);
            let mut bound = |op, k| {
                let expr = Expr::bin(op, ret.clone(), Expr::Const(k));
                let _ = push_constraint(&mut self.path, Constraint { expr, want: true });
            };
            bound(BinOp::Ge, 0);
            if let Sym::Known(n) = arg {
                bound(BinOp::Le, n.max(0));
            }
        }
        Ok(sym)
    }
    fn emit(&mut self, _: ThreadId, _: Sym) {}
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
        let err = explore(&LoweredProgram::new(&s.program), &cfg(2, 0, 99)).unwrap_err();
        assert_eq!(err, SymexError::MultiThreadedStrict);
    }

    #[test]
    fn triangle_explores_all_outcome_classes() {
        let s = scenarios::triangle();
        let ex = explore(&LoweredProgram::new(&s.program), &cfg(3, 1, 20)).unwrap();
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
        let ex = explore(&LoweredProgram::new(&s.program), &cfg(6, 0, 99)).unwrap();
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
            &LoweredProgram::new(&s.program),
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
        let strict = explore(&LoweredProgram::new(&p), &cfg(1, 0, 9)).unwrap();
        assert_eq!(strict.paths.len(), 1, "strict sees only the else-arm");
        let relaxed = explore(
            &LoweredProgram::new(&p),
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
        let ex = explore(&LoweredProgram::new(&p), &cfg(1, 0, 9)).unwrap();
        assert!(ex.stats.truncated > 0, "diverging loop must truncate");
        assert!(ex.paths.iter().any(|p| p.outcome == SymOutcome::Success));
    }

    #[test]
    fn arm_feasibility_finds_rare_trigger() {
        let s = scenarios::token_parser();
        // Empty prefix, target = first branch (in0 == 13), taken arm.
        let sites = s.program.branch_sites();
        let first = sites[0].0;
        let f = arm_feasibility(
            &LoweredProgram::new(&s.program),
            &[],
            first,
            true,
            &cfg(6, 0, 99),
        )
        .unwrap();
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
        let f = arm_feasibility(&LoweredProgram::new(&p), &[], site, false, &cfg(1, 0, 9)).unwrap();
        assert_eq!(f, Feasibility::Infeasible);
        let t = arm_feasibility(&LoweredProgram::new(&p), &[], site, true, &cfg(1, 0, 9)).unwrap();
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
        let f = arm_feasibility(&LoweredProgram::new(&p), &[], site, true, &cfg(1, 0, 9)).unwrap();
        assert_eq!(f, Feasibility::Infeasible);
        assert!(
            arm_feasibility(&LoweredProgram::new(&p), &[], site, false, &cfg(1, 0, 9))
                .unwrap()
                .is_feasible()
        );
    }

    #[test]
    fn arm_feasibility_follows_prefixes() {
        let s = scenarios::token_parser();
        // Prefix: first branch taken (in0 == 13). Target: second branch
        // (in1 >= 90) taken.
        let sites = s.program.branch_sites();
        let f = arm_feasibility(
            &LoweredProgram::new(&s.program),
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
        assert_eq!(
            explore(&LoweredProgram::new(&p), &cfg(1, 0, 9))
                .unwrap()
                .paths
                .len(),
            1
        );
        match arm_feasibility(&LoweredProgram::new(&p), &[], site, true, &cfg(1, 0, 9)).unwrap() {
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
        match arm_feasibility(&LoweredProgram::new(&p), &prefix, after, true, &config).unwrap() {
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
            &LoweredProgram::new(&s.program),
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
            let err = arm_feasibility(
                &LoweredProgram::new(&s.program),
                &[],
                *site,
                true,
                &cfg(2, 0, 99),
            )
            .unwrap_err();
            assert_eq!(err, SymexError::MultiThreadedStrict);
        }
    }

    /// A loop header `counter < 3 || in0 == 5` over `in0 ∈ [0, 9]`: the
    /// first three turns are known true, and later turns test `in0 == 5`
    /// alone. Folding `||` only when both sides were known made every
    /// turn fork, and every later exit contradicted the turn before it
    /// (62 paths at 64 visits, 60 of them contradictory `Unknown` exits).
    #[test]
    fn pinned_or_with_a_known_side_folds() {
        use softborg_program::builder::ProgramBuilder;
        let mut pb = ProgramBuilder::new("or-loop");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            let counter = softborg_program::cfg::local(0);
            t.while_loop(
                Expr::bin(
                    BinOp::Or,
                    Expr::lt(Expr::local(0), Expr::Const(3)),
                    Expr::eq(Expr::input(0), Expr::Const(5)),
                ),
                |t| {
                    t.assign(
                        counter,
                        Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
                    );
                },
            );
        });
        let p = pb.build().unwrap();
        let config = SymConfig {
            max_loop_iters: 64,
            ..cfg(1, 0, 9)
        };
        let ex = explore(&LoweredProgram::new(&p), &config).unwrap();
        let unknown = ex.paths.iter().filter(|path| {
            path.outcome == SymOutcome::Success
                && path.solve(&config.input_box, SolveBudget::default()) == Feasibility::Unknown
        });
        assert_eq!(unknown.count(), 0, "{:#?}", ex.stats);
        assert_eq!(
            ex.paths.len(),
            2,
            "the exit at in0 != 5 and the truncated loop"
        );
    }
}
