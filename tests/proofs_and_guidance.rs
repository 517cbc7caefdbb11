//! Cross-crate tests of the proof system and guidance loop.

use softborg::platform::{Platform, PlatformConfig};
use softborg::pod::PodConfig;
use softborg_guidance::PlannerConfig;
use softborg_hive::{verify, HiveConfig, ProofError};
use softborg_program::scenarios;
use softborg_symex::{InputBox, SymConfig};

fn triangle_platform(seed: u64) -> (softborg_program::scenarios::Scenario, PlatformConfig) {
    let s = scenarios::triangle();
    let cfg = PlatformConfig {
        n_pods: 15,
        pod: PodConfig {
            input_range: s.input_range,
            ..PodConfig::default()
        },
        hive: HiveConfig {
            planner: PlannerConfig {
                sym: SymConfig {
                    input_box: InputBox::uniform(3, 1, 20),
                    ..SymConfig::default()
                },
                max_targets: 64,
                ..PlannerConfig::default()
            },
            ..HiveConfig::default()
        },
        seed,
        ..PlatformConfig::default()
    };
    (s, cfg)
}

#[test]
fn whole_program_proof_emerges_and_verifies() {
    let (s, cfg) = triangle_platform(4);
    let mut platform = Platform::new(&s.program, cfg);
    let mut whole = None;
    for _ in 0..30 {
        platform.round(20);
        if let Some(c) = platform
            .hive()
            .proofs()
            .into_iter()
            .find(|c| c.is_whole_program())
        {
            whole = Some(c);
            break;
        }
    }
    let cert = whole.expect("triangle proves out within 30 rounds");
    verify(&cert, platform.hive().tree()).expect("certificate verifies");
    assert_eq!(cert.program, s.program.id());
    assert!(cert.visits > 0);
}

#[test]
fn forged_certificates_are_rejected() {
    let (s, cfg) = triangle_platform(5);
    let mut platform = Platform::new(&s.program, cfg);
    platform.run(10, 20);
    let certs = platform.hive().proofs();
    if certs.is_empty() {
        return; // nothing proven yet; the other test covers emergence
    }
    let mut forged = certs[0].clone();
    forged.tree_digest ^= 1;
    assert_eq!(
        verify(&forged, platform.hive().tree()),
        Err(ProofError::DigestMismatch)
    );
    let mut wrong_prog = certs[0].clone();
    wrong_prog.program = softborg_program::ProgramId(0xdead);
    assert_eq!(
        verify(&wrong_prog, platform.hive().tree()),
        Err(ProofError::WrongProgram)
    );
}

#[test]
fn buggy_programs_never_get_whole_program_proofs() {
    // Run the parser loop long enough for fixes to land; even then no
    // whole-program no-failure proof may be published because the tree
    // recorded real failures.
    let s = scenarios::token_parser();
    let mut platform = Platform::new(
        &s.program,
        PlatformConfig {
            n_pods: 25,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
            seed: 6,
            ..PlatformConfig::default()
        },
    );
    platform.run(8, 25);
    let total_failures: u64 = platform.history().iter().map(|r| r.failures).sum();
    assert!(total_failures > 0, "parser must have failed at least once");
    for cert in platform.hive().proofs() {
        assert!(
            !cert.is_whole_program(),
            "whole-program proof over a program with recorded failures"
        );
        // Each published subtree proof still verifies.
        verify(&cert, platform.hive().tree()).expect("subtree proof verifies");
    }
}

#[test]
fn guided_platform_dominates_natural_on_frontier_shrinkage() {
    let s = scenarios::token_parser();
    let frontier_after = |guidance: bool, seed: u64| {
        let mut p = Platform::new(
            &s.program,
            PlatformConfig {
                n_pods: 20,
                pod: PodConfig {
                    input_range: s.input_range,
                    ..PodConfig::default()
                },
                seed,
                fixes_enabled: false,
                guidance_enabled: guidance,
                ..PlatformConfig::default()
            },
        );
        p.run(5, 10);
        p.hive().coverage().frontier_arms
    };
    let guided = frontier_after(true, 11);
    let natural = frontier_after(false, 11);
    assert!(
        guided <= natural,
        "guidance must not leave a larger frontier: {guided} vs {natural}"
    );
}
