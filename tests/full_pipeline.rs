//! End-to-end pipeline tests: for each bug class, run the closed loop on
//! *generated* programs (nothing hand-tuned) and check the paper's core
//! promise — detection, fixing, and a failure rate that collapses.

use softborg::platform::{Platform, PlatformConfig};
use softborg::pod::PodConfig;
use softborg_program::gen::{generate, BugKind, GenConfig};

fn run_loop(
    program: &softborg_program::Program,
    input_range: (i64, i64),
    seed: u64,
    rounds: u32,
) -> Vec<softborg::RoundReport> {
    let mut platform = Platform::new(
        program,
        PlatformConfig {
            n_pods: 30,
            pod: PodConfig {
                input_range,
                ..PodConfig::default()
            },
            seed,
            ..PlatformConfig::default()
        },
    );
    platform.run(rounds, 25).to_vec()
}

#[test]
fn crash_bugs_get_fixed_in_generated_programs() {
    for seed in [300u64, 301, 302] {
        let gp = generate(&GenConfig {
            seed,
            n_threads: 1,
            input_range: (0, 149), // bugs fire around 1/150 naturally
            bugs: vec![BugKind::AssertMagic, BugKind::DivByInputDelta],
            ..GenConfig::default()
        });
        let history = run_loop(&gp.program, gp.input_range, seed, 10);
        let total_failures: u64 = history.iter().map(|r| r.failures).sum();
        let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
        let tail_failures: u64 = history[7..].iter().map(|r| r.failures).sum();
        assert!(
            total_failures > 0,
            "seed {seed}: bugs never fired — workload miscalibrated"
        );
        assert!(promoted > 0, "seed {seed}: no fixes promoted");
        assert_eq!(
            tail_failures, 0,
            "seed {seed}: failures persist after fixes: {history:?}"
        );
    }
}

#[test]
fn lock_inversion_gets_gated_in_generated_programs() {
    let gp = generate(&GenConfig {
        seed: 310,
        constructs_per_thread: 3,
        bugs: vec![BugKind::LockInversion],
        ..GenConfig::default()
    });
    let history = run_loop(&gp.program, gp.input_range, 1, 8);
    let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
    assert!(promoted > 0, "gate never promoted: {history:?}");
    let tail_failures: u64 = history[5..].iter().map(|r| r.failures).sum();
    assert_eq!(tail_failures, 0, "deadlocks persist: {history:?}");
}

#[test]
fn hang_bug_gets_bounded() {
    // Default budgets: every hung execution burns 200 000 steps and
    // leaves a path tens of thousands of decisions deep in the tree.
    let s = softborg_program::scenarios::spin_wait();
    let mut platform = Platform::new(
        &s.program,
        PlatformConfig {
            n_pods: 30,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
            seed: 5,
            ..PlatformConfig::default()
        },
    );
    let history = platform.run(8, 25).to_vec();
    let total_failures: u64 = history.iter().map(|r| r.failures).sum();
    let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
    assert!(total_failures > 0, "spin-wait never hung");
    assert!(promoted > 0, "hang bound never promoted: {history:?}");
    let last = history.last().expect("history");
    assert_eq!(last.failures, 0, "hangs persist: {history:?}");
}

#[test]
fn livelock_pair_gets_bounded() {
    // Livelock — two retry loops undoing each other's progress — lands
    // as a hang with no blocked thread; the same bound that tames spin
    // loops must tame it. Small fleet, narrow range, low hang
    // threshold: each livelocked execution burns its whole step
    // budget, so the defaults make this test needlessly slow.
    let s = softborg_program::scenarios::livelock_pair();
    let mut platform = Platform::new(
        &s.program,
        PlatformConfig {
            n_pods: 12,
            pod: PodConfig {
                input_range: (0, 199), // trigger 77 fires ~1/200
                exec: softborg_program::interp::ExecConfig { max_steps: 5_000 },
                ..PodConfig::default()
            },
            seed: 9,
            ..PlatformConfig::default()
        },
    );
    let history = platform.run(8, 10).to_vec();
    let total_failures: u64 = history.iter().map(|r| r.failures).sum();
    let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
    assert!(total_failures > 0, "livelock never fired");
    assert!(promoted > 0, "livelock bound never promoted: {history:?}");
    let last = history.last().expect("history");
    assert_eq!(last.failures, 0, "livelocks persist: {history:?}");
}

#[test]
fn race_candidates_surface_without_failing_outcomes() {
    // Data races do not fail executions; the detector must still flag
    // them from access summaries.
    let s = softborg_program::scenarios::racy_counter();
    let mut platform = Platform::new(
        &s.program,
        PlatformConfig {
            n_pods: 20,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
            seed: 9,
            fixes_enabled: false,
            guidance_enabled: false,
            ..PlatformConfig::default()
        },
    );
    platform.run(4, 25);
    let races = platform.hive().race_candidates();
    assert!(
        races
            .iter()
            .any(|r| r.global == s.bugs[0].global.expect("race bug has global")),
        "racy global not flagged: {races:?}"
    );
}

#[test]
fn control_arm_without_fixes_keeps_failing() {
    let gp = generate(&GenConfig {
        seed: 300,
        n_threads: 1,
        input_range: (0, 149),
        bugs: vec![BugKind::AssertMagic],
        ..GenConfig::default()
    });
    let mut platform = Platform::new(
        &gp.program,
        PlatformConfig {
            n_pods: 30,
            pod: PodConfig {
                input_range: gp.input_range,
                ..PodConfig::default()
            },
            seed: 300,
            fixes_enabled: false,
            guidance_enabled: false,
            ..PlatformConfig::default()
        },
    );
    let history = platform.run(10, 25).to_vec();
    let late: u64 = history[7..].iter().map(|r| r.failures).sum();
    assert!(late > 0, "without the loop, failures must persist");
}
