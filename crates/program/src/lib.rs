//! # softborg-program — the guest-program substrate
//!
//! SoftBorg ("Exterminating Bugs via Collective Information Recycling",
//! HotDep 2011) observes real programs running on end-user machines. This
//! crate is the reproduction's stand-in for those real programs: a small,
//! fully deterministic multi-threaded program model whose executions
//! produce exactly the *by-products* the paper's pods record — branch
//! directions, lock events, system-call returns, thread schedules, and an
//! outcome label.
//!
//! ## Layout
//!
//! * [`mod@cfg`] — programs as control-flow graphs ([`cfg::Program`]).
//! * [`codec`] — deterministic byte codec for durable snapshots.
//! * [`expr`] — side-effect-free integer expressions.
//! * [`builder`] — structured program construction.
//! * [`interp`] — the deterministic interpreter ([`interp::Executor`])
//!   with observer hooks for by-product capture.
//! * [`sched`] — pluggable thread schedulers (random, scripted, biased).
//! * [`syscall`] — environment models incl. fault injection and replay.
//! * [`taint`] — static input-dependence analysis (which branches need a
//!   recording bit; paper §3.1).
//! * [`overlay`] — instrumentation overlays, the vehicle for distributed
//!   fixes (paper §3.3).
//! * [`gen`] — seeded random programs with ground-truth bug injection.
//! * [`scenarios`] — hand-written workloads (deadlocking bank, crashing
//!   parser, racy counter, hanging spin loop, bug-free triangle).
//!
//! ## Example
//!
//! ```
//! use softborg_program::builder::ProgramBuilder;
//! use softborg_program::expr::Expr;
//! use softborg_program::interp::{Executor, NopObserver, Outcome};
//! use softborg_program::overlay::Overlay;
//! use softborg_program::sched::RoundRobin;
//! use softborg_program::syscall::DefaultEnv;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new("double");
//! pb.inputs(1);
//! pb.thread(|t| {
//!     t.emit(Expr::bin(
//!         softborg_program::expr::BinOp::Mul,
//!         Expr::input(0),
//!         Expr::Const(2),
//!     ));
//! });
//! let program = pb.build()?;
//! let result = Executor::new(&program).run(
//!     &[21],
//!     &mut DefaultEnv::seeded(0),
//!     &mut RoundRobin::new(),
//!     &Overlay::empty(),
//!     &mut NopObserver,
//! )?;
//! assert_eq!(result.outcome, Outcome::Success);
//! assert_eq!(result.emitted_values(), vec![42]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod codec;
pub mod expr;
pub mod gen;
pub mod ids;
pub mod interp;
pub mod overlay;
pub mod scenarios;
pub mod sched;
pub mod syscall;
pub mod taint;

pub use cfg::{Loc, Program};
pub use ids::{BlockId, BranchSiteId, GlobalId, InputId, LocalId, LockId, ProgramId, ThreadId};
pub use interp::{ExecConfig, ExecResult, Executor, Observer, Outcome};
pub use overlay::Overlay;
