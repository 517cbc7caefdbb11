//! Hive-side path reconstruction: turn a bit-vector trace back into the
//! full branch-decision sequence.
//!
//! The pod records one bit per *input-dependent* branch; "merging a path
//! into an existing … execution tree consists of reconstructing the
//! deterministic branches" (paper, §3.2). Replay re-runs the pod's
//! [`Machine`] over the same [`LoweredProgram`] in the known-or-⊥ domain,
//! where every input-derived value is ⊥. This module is only its
//! [`Decisions`] source and a driver: the recorded bit decides a branch
//! that carries one; a branch that does not is evaluated (the taint
//! analysis guarantees its operands are known); guard firings, syscall
//! returns and the thread schedule come from the trace.

use crate::bitvec;
use crate::record::{ExecutionTrace, RecordingPolicy};
use softborg_program::cfg::{Program, SyscallKind};
use softborg_program::interp::{Decisions, LoweredProgram, Machine, Observer, Scratch, Stop};
use softborg_program::overlay::Overlay;
use softborg_program::taint::InputDependence;
use softborg_program::{BranchSiteId, ThreadId};
use std::fmt;

/// A fully reconstructed execution path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconstructedPath {
    /// Branch decisions in global dynamic order — the path the execution
    /// tree stores.
    pub decisions: Vec<(BranchSiteId, bool)>,
    /// `true` when replay stopped at a crash point before exhausting the
    /// step budget (normal for crashing traces).
    pub ended_at_crash: bool,
}

/// Why reconstruction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// The trace's policy does not permit exact reconstruction
    /// (outcome-only or sampled traces specify path *families*).
    InexactPolicy(RecordingPolicy),
    /// The branch bit-vector ran out before the path was complete.
    BranchBitsExhausted,
    /// The guard bit-vector ran out.
    GuardBitsExhausted,
    /// The syscall-return summary ran out.
    SyscallRetsExhausted,
    /// The recorded schedule picked a thread that is not runnable — the
    /// trace is corrupt or from a different program/overlay version.
    ScheduleMismatch {
        /// The step at which the mismatch occurred.
        step: u64,
    },
    /// A branch classified as deterministic read an unknown value — would
    /// indicate a taint-analysis soundness bug.
    UnknownDeterministicBranch(BranchSiteId),
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::InexactPolicy(p) => {
                write!(f, "policy {p:?} does not permit exact reconstruction")
            }
            ReconstructError::BranchBitsExhausted => f.write_str("branch bits exhausted"),
            ReconstructError::GuardBitsExhausted => f.write_str("guard bits exhausted"),
            ReconstructError::SyscallRetsExhausted => f.write_str("syscall returns exhausted"),
            ReconstructError::ScheduleMismatch { step } => {
                write!(f, "schedule mismatch at step {step}")
            }
            ReconstructError::UnknownDeterministicBranch(s) => {
                write!(f, "deterministic branch {s} had unknown operands")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

/// Replay's tables, reused across traces (one per ingest worker).
pub type ReplayScratch = Scratch<Option<i64>>;

/// Replay's decision source: a trace's recorded bits and returns.
struct Replay<'t> {
    /// Every branch reads a bit (`FullBranch`), not only dependent ones.
    full: bool,
    bits: bitvec::Iter<'t>,
    guard_bits: bitvec::Iter<'t>,
    rets: std::slice::Iter<'t, i64>,
    decisions: Vec<(BranchSiteId, bool)>,
    ctx: (),
}

/// A replay observes only the branch path.
impl Observer for Replay<'_> {
    const READS_LOCKSETS: bool = false;
    fn on_branch(&mut self, _: ThreadId, site: BranchSiteId, taken: bool, _: bool) {
        self.decisions.push((site, taken));
    }
}

impl Decisions<Option<i64>> for Replay<'_> {
    type Error = ReconstructError;
    type Observer = Self;

    fn observer(&mut self) -> &mut Self {
        self
    }
    #[inline]
    fn ctx(&mut self) -> &mut () {
        &mut self.ctx
    }
    fn recorded_guard(&mut self) -> Result<Option<bool>, ReconstructError> {
        let bit = self.guard_bits.next();
        bit.map(Some).ok_or(ReconstructError::GuardBitsExhausted)
    }
    fn recorded_branch(&mut self, dependent: bool) -> Result<Option<bool>, ReconstructError> {
        if !(self.full || dependent) {
            return Ok(None);
        }
        // The recorded bit is ground truth, even where the condition
        // could be evaluated.
        let bit = self.bits.next();
        bit.map(Some).ok_or(ReconstructError::BranchBitsExhausted)
    }
    fn syscall(
        &mut self,
        _: ThreadId,
        _: SyscallKind,
        _: Option<i64>,
    ) -> Result<Option<i64>, ReconstructError> {
        let ret = self.rets.next();
        ret.map(|&r| Some(r))
            .ok_or(ReconstructError::SyscallRetsExhausted)
    }
    fn emit(&mut self, _: ThreadId, _: Option<i64>) {}
}

/// Replays `trace` on `code` (with `overlay` in force) and returns the
/// full branch-decision path. Lower the program once and keep one
/// `scratch` per thread of replays: once the scratch has seen the
/// program and overlay, a call allocates only the returned `decisions`,
/// however many steps it replays.
///
/// # Errors
///
/// See [`ReconstructError`]. Traces recorded under
/// [`RecordingPolicy::FullBranch`] or [`RecordingPolicy::InputDependent`]
/// from the same program + overlay version always reconstruct.
pub fn replay(
    code: &LoweredProgram,
    overlay: &Overlay,
    trace: &ExecutionTrace,
    scratch: &mut ReplayScratch,
) -> Result<ReconstructedPath, ReconstructError> {
    if !trace.policy.is_exact() {
        return Err(ReconstructError::InexactPolicy(trace.policy));
    }
    let mut src = Replay {
        full: trace.policy == RecordingPolicy::FullBranch,
        bits: trace.bits.iter(),
        guard_bits: trace.guard_bits.iter(),
        rets: trace.syscall_rets.iter(),
        // In a faithful trace every recorded bit becomes one decision, so
        // the bit count is a floor on the path length.
        decisions: Vec::with_capacity(trace.bits.len()),
        ctx: (),
    };
    let mut m = Machine::new(code, overlay, &[], scratch);
    // Every thread starts runnable; a single-threaded trace records no
    // schedule.
    let multi = m.runnable().len() > 1;
    let mut ended_at_crash = false;
    for step in 0..trace.steps {
        let t = match (m.runnable(), trace.schedule.get(step as usize)) {
            // Success or deadlock; either way the path is done.
            ([], _) => break,
            (&[t, ..], _) if !multi => t,
            // The schedule summary ended with the execution.
            (_, None) => break,
            (runnable, Some(&raw)) if runnable.contains(&ThreadId::new(raw)) => ThreadId::new(raw),
            (_, Some(_)) => return Err(ReconstructError::ScheduleMismatch { step }),
        };
        match m.step(t, &mut src) {
            Ok(()) => {}
            Err(Stop::Crash(_)) => {
                ended_at_crash = true;
                break;
            }
            // It ended the original execution too.
            Err(Stop::SelfDeadlock(_) | Stop::Deadlock(_)) => break,
            Err(Stop::UnknownBranch(site)) => {
                return Err(ReconstructError::UnknownDeterministicBranch(site))
            }
            Err(Stop::Source(e)) => return Err(e),
        }
    }
    Ok(ReconstructedPath {
        decisions: src.decisions,
        ended_at_crash,
    })
}

/// [`replay`] for one-off callers: lowers `program` for this one trace.
/// `deps` must be `program`'s own analysis, which the lowering computes
/// again.
///
/// # Errors
///
/// As [`replay`].
pub fn reconstruct(
    program: &Program,
    deps: &InputDependence,
    overlay: &Overlay,
    trace: &ExecutionTrace,
) -> Result<ReconstructedPath, ReconstructError> {
    let code = LoweredProgram::new(program);
    debug_assert_eq!(code.dependence(), deps, "the program's own analysis");
    replay(&code, overlay, trace, &mut ReplayScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use softborg_program::expr::Expr;
    use softborg_program::gen::{generate, BugKind, GenConfig};
    use softborg_program::interp::{ExecConfig, Executor, Observer, Outcome};
    use softborg_program::overlay::GuardAction;
    use softborg_program::scenarios;
    use softborg_program::sched::RandomSched;
    use softborg_program::syscall::{DefaultEnv, EnvConfig};
    use softborg_program::{BlockId, Loc, LockId};

    /// Observer that both records a trace and captures the ground-truth
    /// decision sequence.
    struct Both {
        rec: TraceRecorder,
        path: Vec<(BranchSiteId, bool)>,
    }

    impl Observer for Both {
        fn on_branch(&mut self, t: ThreadId, s: BranchSiteId, taken: bool, dep: bool) {
            self.rec.on_branch(t, s, taken, dep);
            self.path.push((s, taken));
        }
        fn on_schedule(&mut self, t: ThreadId) {
            self.rec.on_schedule(t);
        }
        fn on_syscall(
            &mut self,
            t: ThreadId,
            k: softborg_program::cfg::SyscallKind,
            a: i64,
            r: i64,
        ) {
            self.rec.on_syscall(t, k, a, r);
        }
        fn on_guard_eval(&mut self, t: ThreadId, loc: Loc, fired: bool) {
            self.rec.on_guard_eval(t, loc, fired);
        }
    }

    fn roundtrip(
        program: &Program,
        inputs: &[i64],
        sched_seed: u64,
        env: EnvConfig,
        overlay: &Overlay,
        policy: RecordingPolicy,
    ) {
        let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: 20_000 });
        let multi = program.threads.len() > 1;
        let mut obs = Both {
            rec: TraceRecorder::new(program.id(), policy, 0, multi),
            path: Vec::new(),
        };
        let mut sched = RandomSched::seeded(sched_seed);
        let r = exec
            .run(
                inputs,
                &mut DefaultEnv::new(env),
                &mut sched,
                overlay,
                &mut obs,
            )
            .unwrap();
        let trace = obs.rec.finish(r.outcome.clone(), r.steps);
        let got = reconstruct(program, exec.dependence(), overlay, &trace)
            .unwrap_or_else(|e| panic!("reconstruct failed: {e} (outcome {:?})", r.outcome));
        assert_eq!(got.decisions, obs.path, "outcome was {:?}", r.outcome);
    }

    #[test]
    fn reconstructs_all_scenarios_under_both_exact_policies() {
        for s in scenarios::all() {
            let mut rng = SmallRng::seed_from_u64(7);
            for i in 0..10u64 {
                let inputs = softborg_program::gen::sample_inputs(
                    s.program.n_inputs,
                    s.input_range,
                    &mut rng,
                );
                for policy in [RecordingPolicy::FullBranch, RecordingPolicy::InputDependent] {
                    roundtrip(
                        &s.program,
                        &inputs,
                        i,
                        EnvConfig::default(),
                        &Overlay::empty(),
                        policy,
                    );
                }
            }
        }
    }

    #[test]
    fn reconstructs_generated_programs_with_bugs() {
        for seed in 0..20 {
            let gp = generate(&GenConfig {
                seed,
                bugs: vec![
                    BugKind::AssertMagic,
                    BugKind::LockInversion,
                    BugKind::ShortRead,
                ],
                ..GenConfig::default()
            });
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in 0..5u64 {
                let inputs = gp.sample_inputs(&mut rng);
                roundtrip(
                    &gp.program,
                    &inputs,
                    seed * 100 + i,
                    EnvConfig {
                        short_read_per_mille: 200,
                        ..EnvConfig::default()
                    },
                    &Overlay::empty(),
                    RecordingPolicy::InputDependent,
                );
            }
        }
    }

    #[test]
    fn reconstructs_crashing_runs() {
        let s = scenarios::token_parser();
        // Bug A trigger.
        roundtrip(
            &s.program,
            &[13, 95, 7, 0, 0, 0],
            0,
            EnvConfig::default(),
            &Overlay::empty(),
            RecordingPolicy::InputDependent,
        );
        // Bug B trigger.
        roundtrip(
            &s.program,
            &[1, 2, 3, 4, 85, 66],
            0,
            EnvConfig::default(),
            &Overlay::empty(),
            RecordingPolicy::InputDependent,
        );
    }

    #[test]
    fn reconstructs_under_overlay_with_guards_and_gates() {
        use softborg_program::overlay::{LockGate, SiteGuard, GHOST_LOCK_BASE};
        // Bank scenario with a deadlock-immunity gate + a guard on the
        // assert.
        let s = scenarios::bank_transfer();
        let mut overlay = Overlay::empty();
        overlay.lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: [LockId::new(0), LockId::new(1)].into_iter().collect(),
        });
        // A guard that never fires (predicate is false) still consumes
        // guard bits on both sides.
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread: ThreadId::new(0),
                block: BlockId::new(0),
                stmt: 0,
            },
            when: Expr::Const(0),
            action: GuardAction::ExitThread,
        });
        for seed in 0..20 {
            roundtrip(
                &s.program,
                &[10, 20],
                seed,
                EnvConfig::default(),
                &overlay,
                RecordingPolicy::InputDependent,
            );
        }
    }

    #[test]
    fn sampled_traces_are_rejected_as_inexact() {
        let s = scenarios::triangle();
        let trace = ExecutionTrace {
            program: s.program.id(),
            policy: RecordingPolicy::Sampled {
                period: 10,
                phase: 0,
            },
            bits: crate::bitvec::BitVec::new(),
            guard_bits: crate::bitvec::BitVec::new(),
            syscall_rets: vec![],
            schedule: vec![],
            steps: 0,
            outcome: Outcome::Success,
            overlay_version: 0,
            lock_pairs: vec![],
            global_summaries: vec![],
        };
        let deps = InputDependence::compute(&s.program);
        let err = reconstruct(&s.program, &deps, &Overlay::empty(), &trace).unwrap_err();
        assert!(matches!(err, ReconstructError::InexactPolicy(_)));
    }

    #[test]
    fn missing_bits_reported_not_panicked() {
        let s = scenarios::triangle();
        let trace = ExecutionTrace {
            program: s.program.id(),
            policy: RecordingPolicy::InputDependent,
            bits: crate::bitvec::BitVec::new(), // empty: bits missing
            guard_bits: crate::bitvec::BitVec::new(),
            syscall_rets: vec![],
            schedule: vec![],
            steps: 100,
            outcome: Outcome::Success,
            overlay_version: 0,
            lock_pairs: vec![],
            global_summaries: vec![],
        };
        let deps = InputDependence::compute(&s.program);
        let err = reconstruct(&s.program, &deps, &Overlay::empty(), &trace).unwrap_err();
        assert_eq!(err, ReconstructError::BranchBitsExhausted);
    }
}
