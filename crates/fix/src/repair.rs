//! The repair lab: validate fix candidates before distribution.
//!
//! "Since it is not yet clear how many types of bugs can be fixed
//! automatically, we also provision for a repair lab that suggests
//! plausible fixes" (paper §3.3). A candidate overlay is replayed against
//! two corpora: recorded *failing* cases (the fix must avert the
//! failure) and *passing* cases (the fix must not change the outcome
//! **or the observable output stream** — the semantic-preservation
//! check). Candidates are ranked by efficacy, then by preservation.

use crate::synth::FixCandidate;
use serde::{Deserialize, Serialize};
use softborg_program::interp::{ExecConfig, Executor, NopObserver, Outcome};
use softborg_program::overlay::Overlay;
use softborg_program::sched::ScriptSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{Program, ThreadId};

/// A replayable test case: inputs + exact schedule + environment config.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestCase {
    /// Program inputs.
    pub inputs: Vec<i64>,
    /// Recorded schedule picks (empty = round-robin fallback).
    pub schedule: Vec<ThreadId>,
    /// Environment configuration (seed + injected faults).
    pub env: EnvConfig,
}

impl TestCase {
    /// A single-threaded case with a default environment.
    pub fn simple(inputs: Vec<i64>) -> Self {
        TestCase {
            inputs,
            schedule: Vec::new(),
            env: EnvConfig::default(),
        }
    }
}

/// The verdict on one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Averts every failing case and preserves every passing case —
    /// safe to distribute automatically.
    Distribute,
    /// Averts some failures without breaking passing cases — suggest to
    /// developers (the paper's "repair lab" manual path).
    Suggest,
    /// Breaks passing behaviour or fixes nothing — reject.
    Reject,
}

/// Validation report for one candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Validation {
    /// Candidate description.
    pub description: String,
    /// Failing cases averted.
    pub failing_fixed: u32,
    /// Failing cases total.
    pub failing_total: u32,
    /// Passing cases preserved (same outcome *and* same output stream).
    pub passing_preserved: u32,
    /// Passing cases total.
    pub passing_total: u32,
    /// Overall verdict.
    pub verdict: Verdict,
}

impl Validation {
    /// Efficacy in [0, 1].
    pub fn efficacy(&self) -> f64 {
        if self.failing_total == 0 {
            0.0
        } else {
            f64::from(self.failing_fixed) / f64::from(self.failing_total)
        }
    }
}

/// Repair-lab configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabConfig {
    /// Interpreter step budget per replay.
    pub max_steps: u64,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig { max_steps: 200_000 }
    }
}

/// Per-thread projection of the output stream — the semantic yardstick.
/// Two executions of a concurrent program are output-equivalent when each
/// thread emitted the same value sequence; the inter-thread interleaving
/// belongs to the scheduler, and instrumentation (gates) may legitimately
/// perturb it.
type ThreadStreams = Vec<(ThreadId, Vec<i64>)>;

fn run_case(
    exec: &mut Executor<'_>,
    case: &TestCase,
    overlay: &Overlay,
) -> (Outcome, ThreadStreams) {
    let mut env = DefaultEnv::new(case.env.clone());
    let mut sched = ScriptSched::new(case.schedule.clone());
    let r = exec
        .run(
            &case.inputs,
            &mut env,
            &mut sched,
            overlay,
            &mut NopObserver,
        )
        .expect("repair lab cases match the program's input arity");
    let streams = r.emitted_by_thread();
    (r.outcome, streams)
}

/// Validates one candidate against the two corpora.
pub fn validate(
    program: &Program,
    base_overlay: &Overlay,
    candidate: &FixCandidate,
    failing: &[TestCase],
    passing: &[TestCase],
    config: LabConfig,
) -> Validation {
    let mut exec = Executor::new(program).with_config(ExecConfig {
        max_steps: config.max_steps,
    });
    let mut with_fix = base_overlay.clone();
    with_fix.merge(&candidate.overlay);

    let mut failing_fixed = 0;
    for case in failing {
        let (outcome, _) = run_case(&mut exec, case, &with_fix);
        if !outcome.is_failure() {
            failing_fixed += 1;
        }
    }
    let mut passing_preserved = 0;
    for case in passing {
        let (base_out, base_emit) = run_case(&mut exec, case, base_overlay);
        let (out, emit) = run_case(&mut exec, case, &with_fix);
        if out == base_out && emit == base_emit {
            passing_preserved += 1;
        }
    }
    let failing_total = failing.len() as u32;
    let passing_total = passing.len() as u32;
    let verdict = if failing_fixed == failing_total
        && failing_total > 0
        && passing_preserved == passing_total
    {
        Verdict::Distribute
    } else if failing_fixed > 0 && passing_preserved == passing_total {
        Verdict::Suggest
    } else {
        Verdict::Reject
    };
    Validation {
        description: candidate.description.clone(),
        failing_fixed,
        failing_total,
        passing_preserved,
        passing_total,
        verdict,
    }
}

/// Validates many candidates and returns them best-first (Distribute
/// before Suggest before Reject; ties broken by efficacy).
pub fn rank(
    program: &Program,
    base_overlay: &Overlay,
    candidates: &[FixCandidate],
    failing: &[TestCase],
    passing: &[TestCase],
    config: LabConfig,
) -> Vec<(FixCandidate, Validation)> {
    let mut out: Vec<(FixCandidate, Validation)> = candidates
        .iter()
        .map(|c| {
            (
                c.clone(),
                validate(program, base_overlay, c, failing, passing, config),
            )
        })
        .collect();
    out.sort_by(|(_, a), (_, b)| {
        let ord = |v: Verdict| match v {
            Verdict::Distribute => 0,
            Verdict::Suggest => 1,
            Verdict::Reject => 2,
        };
        ord(a.verdict).cmp(&ord(b.verdict)).then(
            b.efficacy()
                .partial_cmp(&a.efficacy())
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{crash_guards, deadlock_immunity, hang_bounds};
    use softborg_analysis::deadlock::DeadlockPattern;
    use softborg_program::gen::find_assert_loc;
    use softborg_program::scenarios;
    use softborg_program::LockId;

    #[test]
    fn crash_guard_distributes_for_parser_assert_bug() {
        let s = scenarios::token_parser();
        let loc = find_assert_loc(&s.program, 66).unwrap();
        let candidates = crash_guards(&s.program, loc);
        let failing = vec![TestCase::simple(vec![1, 2, 3, 4, 85, 66])];
        let passing = vec![
            TestCase::simple(vec![1, 2, 3, 4, 85, 65]),
            TestCase::simple(vec![0, 0, 0, 0, 0, 0]),
            TestCase::simple(vec![13, 10, 9, 4, 10, 6]),
        ];
        let ranked = rank(
            &s.program,
            &Overlay::empty(),
            &candidates,
            &failing,
            &passing,
            LabConfig::default(),
        );
        let (_, best) = &ranked[0];
        assert_eq!(best.verdict, Verdict::Distribute, "{best:?}");
        assert_eq!(best.failing_fixed, 1);
        assert_eq!(best.passing_preserved, 3);
    }

    #[test]
    fn deadlock_gate_distributes_for_bank() {
        let s = scenarios::bank_transfer();
        let pattern = DeadlockPattern {
            locks: vec![LockId::new(0), LockId::new(1)],
            support: 1,
            confirmed: true,
        };
        let candidate = deadlock_immunity(&pattern, &Overlay::empty());
        // Build failing cases: find deadlocking schedules.
        use softborg_program::sched::RandomSched;
        use softborg_program::syscall::DefaultEnv;
        let mut exec = Executor::new(&s.program);
        let mut failing = Vec::new();
        let mut passing = Vec::new();
        for seed in 0..60 {
            let mut sched = RandomSched::seeded(seed);
            let r = exec
                .run(
                    &[10, 20],
                    &mut DefaultEnv::seeded(0),
                    &mut sched,
                    &Overlay::empty(),
                    &mut NopObserver,
                )
                .unwrap();
            let case = TestCase {
                inputs: vec![10, 20],
                schedule: sched.into_picks(),
                env: EnvConfig::default(),
            };
            if r.outcome.is_failure() {
                failing.push(case);
            } else if passing.len() < 10 {
                passing.push(case);
            }
        }
        assert!(!failing.is_empty(), "no deadlock schedule found");
        let v = validate(
            &s.program,
            &Overlay::empty(),
            &candidate,
            &failing,
            &passing,
            LabConfig::default(),
        );
        assert_eq!(v.verdict, Verdict::Distribute, "{v:?}");
    }

    #[test]
    fn hang_bound_suggests_or_distributes_for_spin_wait() {
        let s = scenarios::spin_wait();
        let stuck = vec![softborg_program::Loc {
            thread: ThreadId::new(1),
            block: softborg_program::BlockId::new(0),
            stmt: 0,
        }];
        let candidates = hang_bounds(&s.program, &stuck, 10_000);
        let failing = vec![TestCase::simple(vec![42])];
        let passing = vec![TestCase::simple(vec![7]), TestCase::simple(vec![0])];
        let ranked = rank(
            &s.program,
            &Overlay::empty(),
            &candidates,
            &failing,
            &passing,
            LabConfig { max_steps: 50_000 },
        );
        let (_, best) = &ranked[0];
        assert_eq!(best.verdict, Verdict::Distribute, "{best:?}");
    }

    #[test]
    fn harmful_fix_is_rejected() {
        // A guard that always fires and exits the thread breaks passing
        // behaviour.
        let s = scenarios::token_parser();
        let candidate = FixCandidate {
            overlay: {
                let mut o = Overlay::empty();
                o.guards.push(softborg_program::overlay::SiteGuard {
                    loc: softborg_program::Loc::default(),
                    when: softborg_program::expr::Expr::Const(1),
                    action: softborg_program::overlay::GuardAction::ExitThread,
                });
                o
            },
            description: "nuke everything".into(),
        };
        let failing = vec![TestCase::simple(vec![1, 2, 3, 4, 85, 66])];
        let passing = vec![TestCase::simple(vec![1, 2, 3, 4, 5, 6])];
        let v = validate(
            &s.program,
            &Overlay::empty(),
            &candidate,
            &failing,
            &passing,
            LabConfig::default(),
        );
        assert_eq!(v.verdict, Verdict::Reject, "{v:?}");
    }

    #[test]
    fn no_failing_cases_means_no_distribution() {
        let s = scenarios::token_parser();
        let loc = find_assert_loc(&s.program, 66).unwrap();
        let candidate = &crash_guards(&s.program, loc)[0];
        let v = validate(
            &s.program,
            &Overlay::empty(),
            candidate,
            &[],
            &[TestCase::simple(vec![1, 2, 3, 4, 5, 6])],
            LabConfig::default(),
        );
        assert_eq!(v.verdict, Verdict::Reject);
        assert_eq!(v.efficacy(), 0.0);
    }
}
