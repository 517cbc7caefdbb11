//! # softborg-pod — the per-instance recording/steering agent
//!
//! A pod "lies underneath" one instance of a program (paper §3, Fig. 1):
//! it executes the program on behalf of its simulated user, records
//! execution by-products under a [`RecordingPolicy`], applies the fix
//! overlays the hive distributes, honors guidance directives (input
//! seeds, schedule hints, fault injection), anonymizes traces before
//! shipping them, and classifies outcomes — including the *inferred*
//! user feedback of a hang (step-budget exhaustion stands in for "an
//! erratically jerked mouse suggests a program is being unusually slow",
//! §3.1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod state;

pub use state::{
    DeltaBase, PodDelta, PodState, PodStateError, POD_DELTA_VERSION, POD_STATE_VERSION,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_fix::TestCase;
use softborg_guidance::Directive;
use softborg_program::interp::{ExecConfig, ExecResult, Executor};
use softborg_program::overlay::Overlay;
use softborg_program::sched::{PrioritySched, RandomSched, Scheduler};
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{Program, ProgramId, ThreadId};
use softborg_trace::anonymize::Anonymizer;
use softborg_trace::{ExecutionTrace, RecordingPolicy, TraceRecorder};
use std::collections::VecDeque;

/// Bound on locally retained failing cases.
const MAX_FAILING_CASES: usize = 8;
/// Bound on locally retained passing cases.
const MAX_PASSING_CASES: usize = 16;

enum PodSched {
    Random(RandomSched),
    Priority(PrioritySched),
}

impl Scheduler for PodSched {
    fn pick(&mut self, runnable: &[ThreadId], step: u64) -> ThreadId {
        match self {
            PodSched::Random(s) => s.pick(runnable, step),
            PodSched::Priority(s) => s.pick(runnable, step),
        }
    }
}

impl PodSched {
    fn into_picks(self) -> Vec<ThreadId> {
        match self {
            PodSched::Random(s) => s.into_picks(),
            PodSched::Priority(s) => s.into_picks(),
        }
    }
}

/// Pod configuration.
#[derive(Debug, Clone)]
pub struct PodConfig {
    /// What to record per execution.
    pub policy: RecordingPolicy,
    /// Interpreter limits (the hang threshold).
    pub exec: ExecConfig,
    /// Anonymization applied before a trace leaves the pod.
    pub anonymizer: Anonymizer,
    /// The "natural" input range of this pod's user.
    pub input_range: (i64, i64),
    /// Seed driving this pod's user behaviour (inputs, schedules, env).
    pub seed: u64,
}

impl Default for PodConfig {
    fn default() -> Self {
        PodConfig {
            policy: RecordingPolicy::InputDependent,
            exec: ExecConfig { max_steps: 50_000 },
            anonymizer: Anonymizer::None,
            input_range: (0, 999),
            seed: 0,
        }
    }
}

/// Counters kept by a pod.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodStats {
    /// Executions performed.
    pub executions: u64,
    /// Failing executions.
    pub failures: u64,
    /// Executions driven by a guidance directive.
    pub directed: u64,
    /// Overlay rules that fired across all executions.
    pub overlay_hits: u64,
}

/// The result of one pod execution.
#[derive(Debug, Clone)]
pub struct PodRun {
    /// The (anonymized) trace to ship to the hive.
    pub trace: ExecutionTrace,
    /// The raw execution result (outcome, emitted stream, counters).
    pub result: ExecResult,
    /// Whether a guidance directive drove this run.
    pub directed: bool,
}

/// One pod instance. See the [crate docs](self).
#[derive(Debug)]
pub struct Pod<'p> {
    executor: Executor<'p>,
    program_id: ProgramId,
    config: PodConfig,
    overlay: Overlay,
    overlay_version: u64,
    directives: VecDeque<Directive>,
    rng: SmallRng,
    stats: PodStats,
    multi_threaded: bool,
    failing_cases: Vec<(TestCase, softborg_program::interp::Outcome)>,
    passing_cases: Vec<TestCase>,
    /// Buffers `run_once` refills every run.
    inputs: Vec<i64>,
    picks: Vec<ThreadId>,
    env: DefaultEnv,
}

impl<'p> Pod<'p> {
    /// Creates a pod for one program instance.
    pub fn new(program: &'p Program, config: PodConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        Pod {
            program_id: program.id(),
            executor: Executor::new(program).with_config(config.exec),
            multi_threaded: program.threads.len() > 1,
            config,
            overlay: Overlay::empty(),
            overlay_version: 0,
            directives: VecDeque::new(),
            rng,
            stats: PodStats::default(),
            failing_cases: Vec::new(),
            passing_cases: Vec::new(),
            inputs: Vec::new(),
            picks: Vec::new(),
            env: DefaultEnv::new(EnvConfig::default()),
        }
    }

    /// The program this pod runs.
    pub fn program_id(&self) -> ProgramId {
        self.program_id
    }

    /// Statistics so far.
    pub fn stats(&self) -> PodStats {
        self.stats
    }

    /// Currently installed overlay version.
    pub fn overlay_version(&self) -> u64 {
        self.overlay_version
    }

    /// Installs a fix overlay distributed by the hive. Newer versions
    /// replace older ones; equal or older versions are ignored.
    pub fn install_fix(&mut self, overlay: Overlay, version: u64) {
        if version > self.overlay_version {
            self.overlay = overlay;
            self.overlay_version = version;
        }
    }

    /// Queues guidance directives (consumed one per run, FIFO).
    pub fn receive_guidance(&mut self, directives: impl IntoIterator<Item = Directive>) {
        self.directives.extend(directives);
    }

    /// Executes the program once — naturally, or per the next queued
    /// directive — and returns the trace plus raw result.
    pub fn run_once(&mut self) -> PodRun {
        let directive = self.directives.pop_front();
        let directed = directive.is_some();

        // Natural inputs unless a seed directive overrides them.
        let n_inputs = self.executor.program().n_inputs;
        let (lo, hi) = self.config.input_range;
        self.inputs.clear();
        self.inputs
            .extend((0..n_inputs).map(|_| self.rng.gen_range(lo..=hi)));
        let mut env_config = EnvConfig {
            seed: self.rng.gen(),
            ..EnvConfig::default()
        };
        let mut schedule_hint = None;
        match directive {
            Some(Directive::InputSeed { inputs: seed, .. }) if seed.len() == self.inputs.len() => {
                self.inputs.copy_from_slice(&seed);
            }
            Some(Directive::Schedule(hint)) => schedule_hint = Some(hint),
            Some(Directive::FaultInjection {
                forced,
                short_read_per_mille,
            }) => {
                env_config.forced = forced;
                env_config.short_read_per_mille = short_read_per_mille;
            }
            Some(Directive::InputSeed { .. }) | None => {}
        }

        self.env.reset(env_config);
        let mut recorder = TraceRecorder::new(
            self.program_id,
            self.config.policy,
            self.overlay_version,
            self.multi_threaded,
        );
        let sched_seed = self.rng.gen();
        let mut sched = match schedule_hint {
            Some(hint) => PodSched::Priority(PrioritySched::new(hint, sched_seed)),
            None => PodSched::Random(RandomSched::with_picks(
                sched_seed,
                std::mem::take(&mut self.picks),
            )),
        };
        let result = self
            .executor
            .run(
                &self.inputs,
                &mut self.env,
                &mut sched,
                &self.overlay,
                &mut recorder,
            )
            .expect("pod-generated inputs match program arity");
        self.picks = sched.into_picks();

        self.stats.executions += 1;
        let failing = result.outcome.is_failure();
        if failing {
            self.stats.failures += 1;
        }
        self.stats.overlay_hits += result.overlay_hits;
        if directed {
            self.stats.directed += 1;
        }

        // Retain a bounded local corpus of replayable cases; the hive's
        // repair lab validates fix candidates against them *on the pod*
        // (inputs never leave the machine — the privacy-preserving trial
        // mechanism). A case is built only when there is room for it.
        let room = if failing {
            self.failing_cases.len() < MAX_FAILING_CASES
        } else {
            self.passing_cases.len() < MAX_PASSING_CASES
        };
        if room {
            let case = TestCase {
                inputs: self.inputs.clone(),
                schedule: self.picks.clone(),
                env: self.env.config().clone(),
            };
            if failing {
                self.failing_cases.push((case, result.outcome.clone()));
            } else {
                self.passing_cases.push(case);
            }
        }

        let raw = recorder.finish(result.outcome.clone(), result.steps);
        let trace = self.config.anonymizer.apply(raw);
        PodRun {
            trace,
            result,
            directed,
        }
    }

    /// Locally retained failing cases with their outcomes (for pod-side
    /// fix validation and mode matching).
    pub fn failing_cases(&self) -> &[(TestCase, softborg_program::interp::Outcome)] {
        &self.failing_cases
    }

    /// Locally retained passing cases.
    pub fn passing_cases(&self) -> &[TestCase] {
        &self.passing_cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::interp::Outcome;
    use softborg_program::scenarios;
    use softborg_program::BranchSiteId;

    #[test]
    fn pods_and_executors_can_be_shared_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Pod<'static>>();
        send_sync::<Executor<'static>>();
    }

    #[test]
    fn pod_runs_and_records_naturally() {
        let s = scenarios::token_parser();
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 7,
                ..PodConfig::default()
            },
        );
        let run = pod.run_once();
        assert_eq!(run.trace.program, s.program.id());
        assert!(!run.directed);
        assert!(
            !run.trace.bits.is_empty(),
            "parser has input-dependent sites"
        );
        assert_eq!(pod.stats().executions, 1);
    }

    #[test]
    fn pods_are_deterministic_given_seed() {
        let s = scenarios::token_parser();
        let run = |seed| {
            let mut pod = Pod::new(
                &s.program,
                PodConfig {
                    input_range: (0, 99),
                    seed,
                    ..PodConfig::default()
                },
            );
            let r = pod.run_once();
            (r.trace, r.result)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn input_seed_directive_drives_the_trigger() {
        let s = scenarios::token_parser();
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 1,
                ..PodConfig::default()
            },
        );
        pod.receive_guidance([Directive::InputSeed {
            inputs: vec![13, 95, 7, 0, 0, 0],
            target: (BranchSiteId::new(0), true),
        }]);
        let run = pod.run_once();
        assert!(run.directed);
        assert!(
            matches!(run.result.outcome, Outcome::Crash { .. }),
            "directed run must hit the div-by-zero: {:?}",
            run.result.outcome
        );
        assert_eq!(pod.stats().directed, 1);
        assert!(pod.directives.is_empty());
    }

    #[test]
    fn fault_injection_directive_provokes_short_read_bug() {
        let s = scenarios::short_read_client();
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 0),
                seed: 2,
                ..PodConfig::default()
            },
        );
        // Natural run: fine.
        assert_eq!(pod.run_once().result.outcome, Outcome::Success);
        // Directed fault injection: crash.
        pod.receive_guidance([Directive::FaultInjection {
            forced: vec![],
            short_read_per_mille: 1000,
        }]);
        let run = pod.run_once();
        assert!(matches!(run.result.outcome, Outcome::Crash { .. }));
    }

    #[test]
    fn installed_fix_prevents_failures_and_stamps_version() {
        use softborg_fix::crash_guards;
        let s = scenarios::token_parser();
        let loc = softborg_program::gen::find_assert_loc(&s.program, 66).unwrap();
        let guard = &crash_guards(&s.program, loc)[0];
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 3,
                ..PodConfig::default()
            },
        );
        pod.install_fix(guard.overlay.clone(), 1);
        assert_eq!(pod.overlay_version(), 1);
        pod.receive_guidance([Directive::InputSeed {
            inputs: vec![1, 2, 3, 4, 85, 66],
            target: (BranchSiteId::new(0), false),
        }]);
        let run = pod.run_once();
        assert_eq!(run.result.outcome, Outcome::Success, "guard averts crash");
        assert!(run.result.overlay_hits > 0);
        assert_eq!(run.trace.overlay_version, 1);
    }

    #[test]
    fn stale_fix_versions_are_ignored() {
        let s = scenarios::token_parser();
        let mut pod = Pod::new(&s.program, PodConfig::default());
        let mut o1 = Overlay::empty();
        o1.name = "v3".into();
        pod.install_fix(o1, 3);
        let mut o2 = Overlay::empty();
        o2.name = "v2".into();
        pod.install_fix(o2, 2);
        assert_eq!(pod.overlay_version(), 3);
    }

    #[test]
    fn anonymizer_is_applied_before_shipping() {
        let s = scenarios::short_read_client();
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 0),
                anonymizer: Anonymizer::OutcomeOnly,
                seed: 4,
                ..PodConfig::default()
            },
        );
        let run = pod.run_once();
        assert!(run.trace.bits.is_empty());
        assert!(run.trace.syscall_rets.is_empty());
    }

    #[test]
    fn schedule_hint_biases_interleavings_toward_deadlock() {
        let s = scenarios::bank_transfer();
        let deadlocks = |hinted: bool| {
            let mut count = 0;
            for seed in 0..60 {
                let mut pod = Pod::new(
                    &s.program,
                    PodConfig {
                        input_range: (0, 99),
                        seed,
                        ..PodConfig::default()
                    },
                );
                if hinted {
                    pod.receive_guidance([Directive::Schedule(
                        softborg_program::sched::ScheduleHint {
                            order: vec![
                                softborg_program::ThreadId::new(seed as u32 % 2),
                                softborg_program::ThreadId::new((seed as u32 + 1) % 2),
                            ],
                            // Biased but not absolute: both threads must
                            // still take their first lock.
                            bias_per_mille: 500,
                        },
                    )]);
                }
                if matches!(pod.run_once().result.outcome, Outcome::Deadlock { .. }) {
                    count += 1;
                }
            }
            count
        };
        let natural = deadlocks(false);
        let hinted = deadlocks(true);
        assert!(natural > 0, "bank scenario must deadlock naturally");
        assert!(hinted > 0, "hinted runs must still find the deadlock");
    }
}
