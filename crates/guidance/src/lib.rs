//! # softborg-guidance — execution steering and exploration portfolios
//!
//! Implements the paper's §3.3 execution guidance ("accelerated
//! learning") and §4 portfolio-theoretic resource allocation:
//!
//! * [`directive`] — the steering instructions pods receive (input seeds,
//!   schedule hints, syscall fault injection).
//! * [`frontier`] — target selection over the execution tree plus
//!   symbolic input synthesis and infeasibility marking.
//! * [`portfolio`] — Markowitz mean-variance allocation of hive workers
//!   to subtree "equities", with uniform and greedy baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod directive;
pub mod frontier;
pub mod portfolio;

pub use directive::{Directive, GuidancePlan};
pub use frontier::{arm_score, plan, PlanStats, PlannerConfig};
pub use portfolio::{allocate, objective, Asset, ReturnStats, Strategy};
