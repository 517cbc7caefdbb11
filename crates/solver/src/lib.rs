//! # softborg-solver — constraint solving and the solver portfolio
//!
//! Implements the paper's §4 constraint-solving substrate: CNF formulas,
//! a SAT engine with pluggable heuristics (DPLL-equivalent decision-clause
//! learning and full 1UIP CDCL with VSIDS, phase saving and Luby
//! restarts), instance generators, and the *portfolio* runner that races
//! diverse configurations in parallel — the mechanism behind the paper's
//! "10× speedup … with only a 3× increase in computation resources"
//! observation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnf;
pub mod dimacs;
pub mod engine;
pub mod instances;
pub mod portfolio;

pub use cnf::{Cnf, Lit, Var};
pub use engine::{
    Budget, Heuristic, LearnMode, PhasePolicy, SolveOutcome, SolveStats, Solver, SolverConfig,
};
pub use portfolio::{race, run_each, MemberReport, PortfolioResult};
