//! # softborg-fix — automatic fix synthesis and the repair lab
//!
//! Implements the paper's §3.3 fix pipeline: synthesize candidate
//! instrumentation overlays from diagnoses (deadlock-immunity gates,
//! crash guards, hang bounds), then validate them in a repair lab against
//! recorded failing and passing executions before distribution. Candidates
//! that avert every failure and preserve every passing behaviour are
//! distributed automatically; partially-effective ones are surfaced as
//! suggestions for developers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod repair;
pub mod synth;

pub use repair::{rank, validate, LabConfig, TestCase, Validation, Verdict};
pub use synth::{
    crash_guards, crash_predicate, deadlock_immunity, hang_bounds, loop_headers, FixCandidate,
};
