//! The SAT search engine: one core with two learning modes.
//!
//! * [`LearnMode::DecisionClause`] — on conflict, learn the negation of
//!   the current decisions. This is equivalent to classic DPLL with
//!   chronological backtracking and gives the engine its "different
//!   solver" personalities cheaply.
//! * [`LearnMode::FirstUip`] — proper CDCL: 1UIP conflict analysis,
//!   backjumping, VSIDS activities, phase saving, Luby restarts.
//!
//! Heuristic/phase/restart/seed combinations define the *portfolio
//! members* of §4: each member is fast on some instances and slow on
//! others, which is exactly the dispersion the paper's portfolio strategy
//! exploits.

use crate::cnf::{Cnf, Lit, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// Decision-variable selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heuristic {
    /// Lowest-index unassigned variable.
    FirstUnassigned,
    /// Static Jeroslow–Wang scores (clause-length weighted occurrence).
    JeroslowWang,
    /// Dynamic VSIDS activity (bumped on conflicts).
    Vsids,
    /// Uniform random unassigned variable.
    Random,
}

/// Initial phase (sign) selection for decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhasePolicy {
    /// Always decide `false` first.
    NegativeFirst,
    /// Always decide `true` first.
    PositiveFirst,
    /// Random sign per decision.
    Random,
    /// Last value the variable held (phase saving); `false` initially.
    Saved,
}

/// Conflict-clause construction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LearnMode {
    /// Negation-of-decisions (DPLL-equivalent).
    DecisionClause,
    /// First unique implication point (CDCL).
    FirstUip,
}

/// Full configuration of one engine instance (one portfolio member).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Display name.
    pub name: String,
    /// Decision heuristic.
    pub heuristic: Heuristic,
    /// Phase policy.
    pub phase: PhasePolicy,
    /// Learning mode.
    pub learn: LearnMode,
    /// Luby restart base in conflicts (`None` disables restarts).
    pub restart_base: Option<u64>,
    /// RNG seed (tie-breaking, random heuristics).
    pub seed: u64,
}

impl SolverConfig {
    /// The three reference portfolio members used by experiment E3 — the
    /// paper's "portfolio of three different SAT solvers". The members
    /// differ in decision heuristic, phase policy, and restart strategy,
    /// which is what makes their run times disperse across instances
    /// ("each solver is fast in solving some path constraints but slow on
    /// others", §4).
    pub fn reference_portfolio() -> Vec<SolverConfig> {
        vec![
            SolverConfig {
                name: "cdcl-vsids".into(),
                heuristic: Heuristic::Vsids,
                phase: PhasePolicy::Saved,
                learn: LearnMode::FirstUip,
                restart_base: Some(64),
                seed: 1,
            },
            SolverConfig {
                name: "cdcl-jw-pos".into(),
                heuristic: Heuristic::JeroslowWang,
                phase: PhasePolicy::PositiveFirst,
                learn: LearnMode::FirstUip,
                restart_base: None,
                seed: 2,
            },
            SolverConfig {
                name: "cdcl-rand".into(),
                heuristic: Heuristic::Random,
                phase: PhasePolicy::Random,
                learn: LearnMode::FirstUip,
                restart_base: Some(16),
                seed: 3,
            },
        ]
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            name: "cdcl-vsids".into(),
            heuristic: Heuristic::Vsids,
            phase: PhasePolicy::Saved,
            learn: LearnMode::FirstUip,
            restart_base: Some(64),
            seed: 0,
        }
    }
}

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveOutcome {
    /// Satisfiable, with a model.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted or cancelled.
    Unknown,
}

impl SolveOutcome {
    /// `true` when the search reached a definite answer.
    pub fn is_decided(&self) -> bool {
        !matches!(self, SolveOutcome::Unknown)
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
}

/// Resource budget for a solve call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Budget {
    /// Stop after this many conflicts (`None` = unbounded).
    pub max_conflicts: Option<u64>,
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Conflict-bounded budget.
    pub fn conflicts(n: u64) -> Self {
        Budget {
            max_conflicts: Some(n),
        }
    }
}

const NO_REASON: u32 = u32::MAX;

/// The solver. Construct per formula; call [`Solver::solve`] once.
#[derive(Debug)]
pub struct Solver {
    n_vars: usize,
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    assign: Vec<Option<bool>>,
    saved_phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    jw_score: Vec<f64>,
    rng: SmallRng,
    config: SolverConfig,
    stats: SolveStats,
    /// Empty clause present (formula trivially UNSAT).
    trivially_unsat: bool,
}

impl Solver {
    /// Prepares a solver for `cnf` under `config`.
    pub fn new(cnf: &Cnf, config: SolverConfig) -> Self {
        let n_vars = cnf.n_vars() as usize;
        let mut s = Solver {
            n_vars,
            clauses: Vec::with_capacity(cnf.n_clauses()),
            watches: vec![Vec::new(); 2 * n_vars],
            assign: vec![None; n_vars],
            saved_phase: vec![false; n_vars],
            level: vec![0; n_vars],
            reason: vec![NO_REASON; n_vars],
            trail: Vec::with_capacity(n_vars),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; n_vars],
            act_inc: 1.0,
            jw_score: vec![0.0; n_vars],
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            stats: SolveStats::default(),
            trivially_unsat: false,
        };
        for c in cnf.clauses() {
            s.add_clause_internal(c.clone());
        }
        for c in cnf.clauses() {
            for l in c {
                s.jw_score[l.var().index()] += (2.0_f64).powi(-(c.len() as i32));
            }
        }
        s
    }

    fn add_clause_internal(&mut self, lits: Vec<Lit>) -> u32 {
        let idx = self.clauses.len() as u32;
        match lits.len() {
            0 => {
                self.trivially_unsat = true;
                self.clauses.push(lits);
            }
            1 => {
                // Unit clauses are enqueued at level 0 during solve; store
                // them watched on their only literal so propagation sees
                // them after restarts too.
                self.watches[lits[0].code()].push(idx);
                self.clauses.push(lits);
            }
            _ => {
                self.watches[lits[0].code()].push(idx);
                self.watches[lits[1].code()].push(idx);
                self.clauses.push(lits);
            }
        }
        idx
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var().index()].map(|v| v == lit.is_positive())
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        let v = lit.var().index();
        self.assign[v] = Some(lit.is_positive());
        self.saved_phase[v] = lit.is_positive();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
        self.stats.propagations += 1;
    }

    /// Propagates; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            let falsified = lit.negated();
            let mut i = 0;
            // Take the watch list; we rebuild it as we go.
            let mut watch_list = std::mem::take(&mut self.watches[falsified.code()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                let clause = &self.clauses[ci as usize];
                if clause.len() == 1 {
                    // Unit original clause: satisfied or conflict.
                    match self.value(clause[0]) {
                        Some(true) => {
                            i += 1;
                        }
                        Some(false) => {
                            self.watches[falsified.code()] = watch_list;
                            return Some(ci);
                        }
                        None => {
                            let l0 = clause[0];
                            self.enqueue(l0, ci);
                            i += 1;
                        }
                    }
                    continue;
                }
                // Normalize: watched lits are positions 0 and 1.
                let (w0, w1) = (clause[0], clause[1]);
                let other = if w0 == falsified { w1 } else { w0 };
                if self.value(other) == Some(true) {
                    i += 1;
                    continue;
                }
                // Search for a replacement watch.
                let mut replacement = None;
                for (pos, l) in clause.iter().enumerate().skip(2) {
                    if self.value(*l) != Some(false) {
                        replacement = Some(pos);
                        break;
                    }
                }
                match replacement {
                    Some(pos) => {
                        let clause = &mut self.clauses[ci as usize];
                        let new_watch = clause[pos];
                        // Move falsified out of watch position.
                        let fpos = if clause[0] == falsified { 0 } else { 1 };
                        clause.swap(fpos, pos);
                        self.watches[new_watch.code()].push(ci);
                        watch_list.swap_remove(i);
                        // do not advance i: swapped element takes slot i
                    }
                    None => {
                        // Unit or conflict on `other`.
                        match self.value(other) {
                            Some(false) => {
                                self.watches[falsified.code()] = watch_list;
                                return Some(ci);
                            }
                            _ => {
                                self.enqueue(other, ci);
                                i += 1;
                            }
                        }
                    }
                }
            }
            self.watches[falsified.code()] = watch_list;
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail non-empty");
                let v = lit.var().index();
                self.assign[v] = None;
                self.reason[v] = NO_REASON;
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
        self.prop_head = self.trail.len();
    }

    fn bump(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.act_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// 1UIP conflict analysis. Returns (learned clause, backjump level).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.n_vars];
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut reason_idx = conflict;
        let mut trail_pos = self.trail.len();
        let cur_level = self.decision_level();

        loop {
            let reason_clause = self.clauses[reason_idx as usize].clone();
            for &q in reason_clause.iter() {
                // Skip the literal this clause implied (the one we are
                // resolving on); every other literal in a reason clause
                // lies strictly earlier on the trail.
                if lit.is_some_and(|l| l.var() == q.var()) {
                    continue;
                }
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump(v);
                    if self.level[v.index()] == cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find next literal on the trail to resolve on.
            loop {
                trail_pos -= 1;
                let t = self.trail[trail_pos];
                if seen[t.var().index()] {
                    lit = Some(t.negated());
                    seen[t.var().index()] = false;
                    counter -= 1;
                    reason_idx = self.reason[t.var().index()];
                    break;
                }
            }
            if counter == 0 {
                break;
            }
        }
        let uip = lit.expect("conflict at level > 0 has a UIP");
        learned.push(uip);
        // Backjump level = max level among non-UIP literals (0 if unit).
        let bj = learned
            .iter()
            .filter(|l| **l != uip)
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Put the UIP in watch position 0 and a max-level literal at 1.
        let n = learned.len();
        learned.swap(0, n - 1);
        if n > 2 {
            let mut best = 1;
            for i in 1..n {
                if self.level[learned[i].var().index()] > self.level[learned[best].var().index()] {
                    best = i;
                }
            }
            learned.swap(1, best);
        }
        (learned, bj)
    }

    /// Decision-clause "analysis": learn the negation of all decisions.
    fn analyze_decisions(&self) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = self
            .trail_lim
            .iter()
            .map(|&lim| self.trail[lim].negated())
            .collect();
        // UIP-style ordering: last decision first, second-to-last watch.
        learned.reverse();
        let bj = self.decision_level() - 1;
        (learned, bj)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        match self.config.heuristic {
            Heuristic::FirstUnassigned => (0..self.n_vars)
                .find(|v| self.assign[*v].is_none())
                .map(|v| Var(v as u32)),
            Heuristic::Random => {
                let pool: Vec<usize> = (0..self.n_vars)
                    .filter(|v| self.assign[*v].is_none())
                    .collect();
                if pool.is_empty() {
                    None
                } else {
                    Some(Var(pool[self.rng.gen_range(0..pool.len())] as u32))
                }
            }
            Heuristic::JeroslowWang => best_unassigned(&self.assign, &self.jw_score),
            Heuristic::Vsids => best_unassigned(&self.assign, &self.activity),
        }
    }

    fn pick_phase(&mut self, var: Var) -> bool {
        match self.config.phase {
            PhasePolicy::NegativeFirst => false,
            PhasePolicy::PositiveFirst => true,
            PhasePolicy::Random => self.rng.gen_bool(0.5),
            PhasePolicy::Saved => self.saved_phase[var.index()],
        }
    }

    /// Runs the search.
    ///
    /// `cancel` is polled between conflicts; a portfolio runner sets it
    /// when a sibling finishes first.
    pub fn solve(
        &mut self,
        budget: Budget,
        cancel: Option<&AtomicBool>,
    ) -> (SolveOutcome, SolveStats) {
        if self.trivially_unsat {
            return (SolveOutcome::Unsat, self.stats);
        }
        // Enqueue unit clauses at level 0.
        for ci in 0..self.clauses.len() {
            if self.clauses[ci].len() == 1 {
                let l = self.clauses[ci][0];
                match self.value(l) {
                    Some(false) => return (SolveOutcome::Unsat, self.stats),
                    Some(true) => {}
                    None => self.enqueue(l, ci as u32),
                }
            }
        }
        let mut conflicts_until_restart = self
            .config
            .restart_base
            .map(|b| b * luby(self.stats.restarts + 1));
        loop {
            if let Some(c) = cancel {
                if c.load(Ordering::Relaxed) {
                    return (SolveOutcome::Unknown, self.stats);
                }
            }
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    if let Some(max) = budget.max_conflicts {
                        if self.stats.conflicts > max {
                            return (SolveOutcome::Unknown, self.stats);
                        }
                    }
                    if self.decision_level() == 0 {
                        return (SolveOutcome::Unsat, self.stats);
                    }
                    let (learned, bj) = match self.config.learn {
                        LearnMode::FirstUip => self.analyze(conflict),
                        LearnMode::DecisionClause => self.analyze_decisions(),
                    };
                    self.act_inc /= 0.95;
                    self.backtrack_to(bj);
                    self.stats.learned += 1;
                    let ci = self.add_clause_internal(learned.clone());
                    // Assert the UIP literal.
                    match self.value(learned[0]) {
                        Some(false) => {
                            if self.decision_level() == 0 {
                                return (SolveOutcome::Unsat, self.stats);
                            }
                        }
                        Some(true) => {}
                        None => self.enqueue(learned[0], ci),
                    }
                    if let Some(ref mut left) = conflicts_until_restart {
                        if *left == 0 {
                            self.stats.restarts += 1;
                            self.backtrack_to(0);
                            *left = self
                                .config
                                .restart_base
                                .map(|b| b * luby(self.stats.restarts + 1))
                                .unwrap_or(u64::MAX);
                        } else {
                            *left -= 1;
                        }
                    }
                }
                None => {
                    // No conflict: decide or finish.
                    match self.pick_branch_var() {
                        None => {
                            let model: Vec<bool> =
                                self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                            return (SolveOutcome::Sat(model), self.stats);
                        }
                        Some(var) => {
                            self.stats.decisions += 1;
                            let phase = self.pick_phase(var);
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(Lit::new(var, phase), NO_REASON);
                        }
                    }
                }
            }
        }
    }
}

/// Highest-scored unassigned variable (linear scan; instances here are
/// small enough that a heap would not pay for itself).
fn best_unassigned(assign: &[Option<bool>], score: &[f64]) -> Option<Var> {
    let mut best: Option<usize> = None;
    for v in 0..assign.len() {
        if assign[v].is_none() && best.is_none_or(|b| score[v] > score[b]) {
            best = Some(v);
        }
    }
    best.map(|v| Var(v as u32))
}

/// The Luby restart sequence (1,1,2,1,1,2,4,…), 1-indexed.
fn luby(mut i: u64) -> u64 {
    loop {
        // Find the smallest k with 2^k - 1 >= i.
        let mut k = 1u32;
        while ((1u64 << k) - 1) < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use proptest::prelude::*;

    fn l(v: u32, pos: bool) -> Lit {
        Lit::new(Var(v), pos)
    }

    fn solve_with(cnf: &Cnf, config: SolverConfig) -> SolveOutcome {
        Solver::new(cnf, config).solve(Budget::unlimited(), None).0
    }

    fn all_configs() -> Vec<SolverConfig> {
        let mut v = SolverConfig::reference_portfolio();
        v.push(SolverConfig {
            name: "first-pos".into(),
            heuristic: Heuristic::FirstUnassigned,
            phase: PhasePolicy::PositiveFirst,
            learn: LearnMode::FirstUip,
            restart_base: None,
            seed: 9,
        });
        v.push(SolverConfig {
            name: "dpll-first".into(),
            heuristic: Heuristic::FirstUnassigned,
            phase: PhasePolicy::NegativeFirst,
            learn: LearnMode::DecisionClause,
            restart_base: None,
            seed: 10,
        });
        v
    }

    /// Brute-force satisfiability for cross-checking.
    fn brute_sat(cnf: &Cnf) -> bool {
        let n = cnf.n_vars() as usize;
        assert!(n <= 20);
        (0..1u64 << n).any(|m| {
            let assignment: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            cnf.eval(&assignment)
        })
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new(3);
        for cfg in all_configs() {
            assert!(matches!(solve_with(&cnf, cfg), SolveOutcome::Sat(_)));
        }
    }

    #[test]
    fn single_unit_clause() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(&[l(0, true)]);
        for cfg in all_configs() {
            match solve_with(&cnf, cfg.clone()) {
                SolveOutcome::Sat(m) => assert!(m[0], "{}", cfg.name),
                o => panic!("{}: {o:?}", cfg.name),
            }
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(&[l(0, true)]);
        cnf.add_clause(&[l(0, false)]);
        for cfg in all_configs() {
            assert_eq!(
                solve_with(&cnf, cfg.clone()),
                SolveOutcome::Unsat,
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn classic_unsat_chain() {
        // (a∨b) (¬a∨b) (a∨¬b) (¬a∨¬b) is UNSAT.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(&[l(0, true), l(1, true)]);
        cnf.add_clause(&[l(0, false), l(1, true)]);
        cnf.add_clause(&[l(0, true), l(1, false)]);
        cnf.add_clause(&[l(0, false), l(1, false)]);
        for cfg in all_configs() {
            assert_eq!(
                solve_with(&cnf, cfg.clone()),
                SolveOutcome::Unsat,
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn models_are_verified() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(&[l(0, true), l(1, false)]);
        cnf.add_clause(&[l(1, true), l(2, true), l(3, false)]);
        cnf.add_clause(&[l(3, true)]);
        for cfg in all_configs() {
            match solve_with(&cnf, cfg.clone()) {
                SolveOutcome::Sat(m) => assert!(cnf.check_model(&m), "{}", cfg.name),
                o => panic!("{}: {o:?}", cfg.name),
            }
        }
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A moderately hard instance with a tiny conflict budget.
        let cnf = crate::instances::random_ksat(60, 258, 3, 99);
        let cfg = SolverConfig {
            restart_base: None,
            ..SolverConfig::default()
        };
        let mut s = Solver::new(&cnf, cfg);
        let (out, stats) = s.solve(Budget::conflicts(1), None);
        // Either solved within 1 conflict (unlikely) or Unknown.
        if out == SolveOutcome::Unknown {
            assert!(stats.conflicts >= 1);
        }
    }

    #[test]
    fn cancellation_stops_search() {
        let cnf = crate::instances::random_ksat(80, 344, 3, 5);
        let cancel = AtomicBool::new(true);
        let (out, _) =
            Solver::new(&cnf, SolverConfig::default()).solve(Budget::unlimited(), Some(&cancel));
        assert_eq!(out, SolveOutcome::Unknown);
    }

    #[test]
    fn luby_sequence_is_correct() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_agrees_with_brute_force(
            n_vars in 1u32..9,
            clauses in proptest::collection::vec(
                proptest::collection::vec((0u32..9, any::<bool>()), 1..4),
                0..12
            ),
            cfg_idx in 0usize..5,
        ) {
            let mut cnf = Cnf::new(n_vars);
            for c in &clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|(v, pos)| l(v % n_vars, *pos))
                    .collect();
                cnf.add_clause(&lits);
            }
            let expected = brute_sat(&cnf);
            let cfg = all_configs()[cfg_idx].clone();
            match solve_with(&cnf, cfg.clone()) {
                SolveOutcome::Sat(m) => {
                    prop_assert!(expected, "{} said SAT, brute force says UNSAT", cfg.name);
                    prop_assert!(cnf.check_model(&m), "{} returned bad model", cfg.name);
                }
                SolveOutcome::Unsat => prop_assert!(!expected, "{} said UNSAT, brute force says SAT", cfg.name),
                SolveOutcome::Unknown => prop_assert!(false, "unbounded solve returned Unknown"),
            }
        }
    }
}
