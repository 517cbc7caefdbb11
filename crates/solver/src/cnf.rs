//! CNF formulas: the constraint language of the cooperative prover.
//!
//! Path-feasibility queries from the symbolic executor and the synthetic
//! instances of experiment E3 are both expressed as CNF over boolean
//! variables.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A boolean variable, indexed from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit((var.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense code in `0..2*n_vars` (used for watch lists).
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "¬{}", self.var())
        }
    }
}

/// A CNF formula: a conjunction of clauses over `n_vars` variables.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cnf {
    n_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula over `n_vars` variables (vacuously true).
    pub fn new(n_vars: u32) -> Self {
        Cnf {
            n_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Number of clauses.
    pub fn n_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds a clause (duplicates literals are removed; a tautological
    /// clause is silently dropped).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable `>= n_vars`.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let mut c: Vec<Lit> = lits.to_vec();
        for l in &c {
            assert!(
                l.var().0 < self.n_vars,
                "literal {l} out of range ({} vars)",
                self.n_vars
            );
        }
        c.sort();
        c.dedup();
        let tautology = c.windows(2).any(|w| w[0].var() == w[1].var());
        if !tautology {
            self.clauses.push(c);
        }
    }

    /// Evaluates the formula under a complete assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }

    /// Verifies a model produced by a solver.
    pub fn check_model(&self, model: &[bool]) -> bool {
        model.len() == self.n_vars as usize && self.eval(model)
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cnf({} vars, {} clauses)",
            self.n_vars,
            self.clauses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(v: u32, pos: bool) -> Lit {
        Lit::new(Var(v), pos)
    }

    #[test]
    fn literal_encoding_roundtrips() {
        for v in 0..10 {
            for pos in [true, false] {
                let lit = l(v, pos);
                assert_eq!(lit.var(), Var(v));
                assert_eq!(lit.is_positive(), pos);
                assert_eq!(lit.negated().negated(), lit);
                assert_ne!(lit.code(), lit.negated().code());
            }
        }
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(&[l(0, true), l(0, false)]);
        assert_eq!(cnf.n_clauses(), 0);
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(&[l(1, true), l(1, true), l(0, false)]);
        assert_eq!(cnf.clauses()[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_panics() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(&[l(5, true)]);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(&[l(0, true), l(1, true)]);
        cnf.add_clause(&[l(2, false)]);
        assert!(cnf.eval(&[true, false, false]));
        assert!(!cnf.eval(&[false, false, false]));
        assert!(!cnf.eval(&[true, true, true]));
    }

    #[test]
    fn check_model_requires_full_length() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(&[l(0, true)]);
        assert!(!cnf.check_model(&[true]));
        assert!(cnf.check_model(&[true, false]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(l(3, true).to_string(), "x3");
        assert_eq!(l(3, false).to_string(), "¬x3");
        assert_eq!(Cnf::new(4).to_string(), "cnf(4 vars, 0 clauses)");
    }
}
