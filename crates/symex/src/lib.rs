//! # softborg-symex — symbolic execution for the cooperative prover
//!
//! Implements the paper's §3.3/§4 symbolic-analysis substrate: partial
//! evaluation of guest expressions into input residuals, sound interval
//! analysis, small-domain path-condition solving (models double as
//! directed test inputs for guidance), bounded symbolic exploration with
//! S2E-style execution-consistency levels, and directed arm-feasibility
//! queries used to close execution-tree subtrees.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod interval;
pub mod partial;
pub mod solve;
pub mod sym;

pub use interval::{InputBox, Interval};
pub use solve::{Constraint, Feasibility, SolveBudget};
pub use sym::{
    arm_feasibility, explore, Consistency, Exploration, ExploreStats, SymConfig, SymOutcome,
    SymPath, SymexError,
};
