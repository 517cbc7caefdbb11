//! # softborg — collective information recycling, end to end
//!
//! A faithful reproduction of the system proposed in *"Exterminating
//! Bugs via Collective Information Recycling"* (George Candea, HotDep
//! 2011): every execution of a program is treated as a test run; pods
//! record execution by-products; a hive merges them into a collective
//! execution tree, diagnoses bugs, synthesizes and validates fixes,
//! assembles cumulative proofs, and steers future executions — closing
//! the quality feedback loop so that *the more a program is used, the
//! more reliable it becomes*.
//!
//! This facade crate re-exports every subsystem and provides the one
//! campaign core, [`MultiPlatform`] (pod fleets over a sharded hive, one
//! durable round, one resume), and [`Platform`], its one-fleet view: the
//! closed-loop population simulation of Figure 1.
//!
//! ## Quickstart
//!
//! ```
//! use softborg::platform::{Platform, PlatformConfig};
//! use softborg::program::scenarios;
//!
//! // A parser with two rare crash bugs, run by a small user population.
//! let scenario = scenarios::token_parser();
//! let mut platform = Platform::new(
//!     &scenario.program,
//!     PlatformConfig {
//!         n_pods: 20,
//!         pod: softborg::pod::PodConfig {
//!             input_range: scenario.input_range,
//!             ..softborg::pod::PodConfig::default()
//!         },
//!         ..PlatformConfig::default()
//!     },
//! );
//! let history = platform.run(5, 20).to_vec();
//! assert_eq!(history.len(), 5);
//! // The tree grew and the hive processed every trace.
//! assert!(platform.hive().coverage().nodes > 1);
//! ```
//!
//! ## Subsystem map
//!
//! | Re-export | Paper section | Contents |
//! |---|---|---|
//! | [`program`] | substrate | guest programs, interpreter, overlays |
//! | [`trace`] | §3.1 | by-product recording, wire format, anonymization |
//! | [`tree`] | §3.2 | the collective execution tree |
//! | [`solver`] | §4 | SAT engine + portfolio |
//! | [`symex`] | §3.3/§4 | symbolic execution, consistency levels |
//! | [`analysis`] | §3.3/§5 | detectors + WER/CBI baselines |
//! | [`fix`] | §3.3 | fix synthesis + repair lab |
//! | [`guidance`] | §3.3/§4 | steering + Markowitz allocation |
//! | [`netsim`] | §4 | the discrete-event engine: virtual time, faulty links, channels, disks |
//! | [`pod`] | §3 | the per-instance agent |
//! | [`hive`] | §3–§4 | aggregation, fixes, proofs, distribution |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod durable;
mod fleet;
pub mod multi;
pub mod platform;

pub use durable::{DurabilityConfig, DurabilityError};
pub use multi::{
    FleetSpec, IngestSettings, LaneTask, MultiDrivenExecution, MultiPlatform, MultiPlatformConfig,
    MultiRoundReport, ProgramRoundReport, ResumeReport, RoundTelemetry, ShardResumeReport,
};
pub use platform::{DrivenExecution, Platform, PlatformConfig, RoundReport};

pub use softborg_analysis as analysis;
pub use softborg_fix as fix;
pub use softborg_guidance as guidance;
pub use softborg_hive as hive;
pub use softborg_ingest as ingest;
pub use softborg_netsim as netsim;
pub use softborg_obs as obs;
pub use softborg_pod as pod;
pub use softborg_program as program;
pub use softborg_solver as solver;
pub use softborg_store as store;
pub use softborg_symex as symex;
pub use softborg_trace as trace;
pub use softborg_tree as tree;

/// The sharded hive's former crate path. Kept only because the frozen
/// repository benchmark (`benchmark/`) names these items here.
pub mod shard {
    pub use softborg_hive::ShardedHive;
    pub use softborg_ingest::ShardMap;
    /// Run statistics of a sharded ingest: the one [`IngestStats`](softborg_ingest::IngestStats).
    pub type ShardRunStats = softborg_ingest::IngestStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::scenarios;

    fn parser_platform(fixes: bool, guidance: bool, seed: u64) -> PlatformConfig {
        let s = scenarios::token_parser();
        PlatformConfig {
            n_pods: 30,
            pod: pod::PodConfig {
                input_range: s.input_range,
                ..pod::PodConfig::default()
            },
            seed,
            fixes_enabled: fixes,
            guidance_enabled: guidance,
            ..PlatformConfig::default()
        }
    }

    #[test]
    fn closed_loop_reduces_parser_failure_rate() {
        let s = scenarios::token_parser();
        // The parser's bugs are rare under uniform inputs; use guidance to
        // find them fast, then fixes to suppress them.
        let mut with = Platform::new(&s.program, parser_platform(true, true, 7));
        with.run(8, 30);
        let history = with.history().to_vec();
        let early: u64 = history[..4].iter().map(|r| r.failures).sum();
        let late: u64 = history[4..].iter().map(|r| r.failures).sum();
        let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
        assert!(promoted > 0, "no fixes were ever promoted");
        assert!(
            late <= early,
            "failures should not increase after fixes: early {early}, late {late}"
        );
        // Control arm: without fixes the failure modes persist.
        let mut without = Platform::new(&s.program, parser_platform(false, true, 7));
        without.run(8, 30);
        let control_total: u64 = without.history().iter().map(|r| r.failures).sum();
        let treated_late: u64 = history[6..].iter().map(|r| r.failures).sum();
        assert!(
            control_total > 0,
            "control arm should keep failing (otherwise the test is vacuous)"
        );
        // After the fixes have landed, the treated arm's tail should be
        // clean (guards avert both parser bugs deterministically).
        assert_eq!(treated_late, 0, "failures persist after fixes: {history:?}");
    }

    #[test]
    fn bank_deadlock_gets_predicted_and_fixed() {
        let s = scenarios::bank_transfer();
        let mut platform = Platform::new(
            &s.program,
            PlatformConfig {
                n_pods: 20,
                pod: pod::PodConfig {
                    input_range: s.input_range,
                    ..pod::PodConfig::default()
                },
                seed: 3,
                ..PlatformConfig::default()
            },
        );
        platform.run(6, 20);
        let history = platform.history();
        let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
        assert!(promoted >= 1, "deadlock gate never promoted: {history:?}");
        // Once the gate is in, deadlocks stop.
        let last = history.last().unwrap();
        assert_eq!(
            last.failures, 0,
            "deadlocks persist in the final round: {history:?}"
        );
    }

    #[test]
    fn guidance_accelerates_coverage() {
        let s = scenarios::token_parser();
        let coverage_after = |guidance: bool| {
            let mut p = Platform::new(&s.program, parser_platform(false, guidance, 11));
            p.run(6, 10);
            p.hive().coverage()
        };
        let guided = coverage_after(true);
        let natural = coverage_after(false);
        assert!(
            guided.distinct_paths >= natural.distinct_paths,
            "guided {guided:?} vs natural {natural:?}"
        );
        assert!(
            guided.frontier_arms <= natural.frontier_arms,
            "guided should shrink the frontier: {guided:?} vs {natural:?}"
        );
    }

    #[test]
    fn proofs_emerge_for_bug_free_triangle() {
        let s = scenarios::triangle();
        let mut platform = Platform::new(
            &s.program,
            PlatformConfig {
                n_pods: 20,
                pod: pod::PodConfig {
                    input_range: s.input_range,
                    ..pod::PodConfig::default()
                },
                hive: hive::HiveConfig {
                    planner: guidance::PlannerConfig {
                        sym: symex::SymConfig {
                            input_box: symex::InputBox::uniform(3, 1, 20),
                            ..symex::SymConfig::default()
                        },
                        max_targets: 32,
                        ..guidance::PlannerConfig::default()
                    },
                    ..hive::HiveConfig::default()
                },
                seed: 5,
                ..PlatformConfig::default()
            },
        );
        platform.run(10, 30);
        let proofs = platform.hive().proofs();
        assert!(!proofs.is_empty(), "no proofs for the triangle program");
        // Certificates verify independently.
        for cert in &proofs {
            softborg_hive::verify(cert, platform.hive().tree()).unwrap();
        }
    }

    #[test]
    fn history_metrics_are_internally_consistent() {
        let s = scenarios::token_parser();
        let mut p = Platform::new(&s.program, parser_platform(true, true, 1));
        let r = p.round(10);
        assert_eq!(r.executions, 30 * 10);
        assert!(r.failure_rate_per_10k >= 0.0);
        assert_eq!(p.history().len(), 1);
        assert_eq!(p.history()[0], r);
    }
}
