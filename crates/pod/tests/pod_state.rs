//! Property suite for the durable [`PodState`] encoding: arbitrary
//! state → encode → corrupt-or-not → decode. The contract is exactly
//! two-sided: pristine bytes decode to the identical state, and *any*
//! corruption is a typed error — the storage layer may lose a pod
//! image, but it may never silently resurrect a different population.
//! A pod record carries no checksum of its own: it is stored only inside
//! a checksummed record (a chain record for images, a `REC_PODS`
//! journal record for deltas), so a flipped byte is refused by that
//! enclosing record, and a cut or trailing garbage by the pod decoder
//! itself. The same holds for the [`PodDelta`] a round journals: it
//! rebuilds the pod's image from its base exactly, refuses a base it
//! does not fit, and its decoder is total.

use proptest::prelude::*;
use softborg_fix::TestCase;
use softborg_guidance::Directive;
use softborg_pod::{
    DeltaBase, Pod, PodConfig, PodDelta, PodState, PodStateError, POD_DELTA_VERSION,
    POD_STATE_VERSION,
};
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::sched::ScheduleHint;
use softborg_program::syscall::{EnvConfig, ForcedFault};
use softborg_program::{cfg::Loc, scenarios, BlockId, BranchSiteId, LockId, ThreadId};
use softborg_store::chain::{decode_record, encode_record, RecordKind};
use softborg_store::record::Framing;

/// The journal's record envelope: no magic, kinds up to `REC_PODS` (5).
const JOURNAL: Framing = Framing {
    magic: b"",
    max_kind: 5,
};

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministically synthesizes a populated state from one seed (the
/// vendored proptest has no recursive collection strategies, so content
/// is derived rather than composed).
fn synth_state(seed: u64) -> PodState {
    let mut z = seed;
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = splitmix(&mut z);
    }
    let case = |z: &mut u64| TestCase {
        inputs: (0..(splitmix(z) % 4)).map(|_| splitmix(z) as i64).collect(),
        schedule: (0..(splitmix(z) % 5))
            .map(|_| ThreadId::new((splitmix(z) % 3) as u32))
            .collect(),
        env: EnvConfig {
            seed: splitmix(z),
            short_read_per_mille: (splitmix(z) % 1001) as u32,
            open_fail_per_mille: (splitmix(z) % 1001) as u32,
            fd_limit: (splitmix(z) % 64) as u32,
            forced: (0..(splitmix(z) % 3))
                .map(|_| ForcedFault {
                    call_index: splitmix(z) % 100,
                    ret: splitmix(z) as i64 % 128,
                })
                .collect(),
        },
    };
    let outcome = |z: &mut u64| match splitmix(z) % 4 {
        0 => Outcome::Success,
        1 => Outcome::Crash {
            loc: Loc {
                thread: ThreadId::new((splitmix(z) % 4) as u32),
                block: BlockId::new((splitmix(z) % 16) as u32),
                stmt: (splitmix(z) % 8) as u32,
            },
            kind: match splitmix(z) % 4 {
                0 => CrashKind::AssertFailed,
                1 => CrashKind::DivByZero,
                2 => CrashKind::RemByZero,
                _ => CrashKind::UnlockNotHeld,
            },
        },
        2 => Outcome::Deadlock {
            cycle: (0..1 + (splitmix(z) % 3))
                .map(|_| {
                    (
                        ThreadId::new((splitmix(z) % 4) as u32),
                        LockId::new((splitmix(z) % 4) as u32),
                    )
                })
                .collect(),
        },
        _ => Outcome::Hang {
            stuck: (0..1 + (splitmix(z) % 2))
                .map(|_| Loc {
                    thread: ThreadId::new((splitmix(z) % 4) as u32),
                    block: BlockId::new((splitmix(z) % 16) as u32),
                    stmt: (splitmix(z) % 8) as u32,
                })
                .collect(),
        },
    };
    let directive = |z: &mut u64| match splitmix(z) % 3 {
        0 => Directive::InputSeed {
            inputs: (0..(splitmix(z) % 4)).map(|_| splitmix(z) as i64).collect(),
            target: (
                BranchSiteId::new((splitmix(z) % 32) as u32),
                splitmix(z).is_multiple_of(2),
            ),
        },
        1 => Directive::Schedule(ScheduleHint {
            order: (0..(splitmix(z) % 4))
                .map(|_| ThreadId::new((splitmix(z) % 4) as u32))
                .collect(),
            bias_per_mille: (splitmix(z) % 1001) as u32,
        }),
        _ => Directive::FaultInjection {
            forced: (0..(splitmix(z) % 3))
                .map(|_| ForcedFault {
                    call_index: splitmix(z) % 64,
                    ret: -((splitmix(z) % 3) as i64),
                })
                .collect(),
            short_read_per_mille: (splitmix(z) % 1001) as u32,
        },
    };
    PodState {
        rng,
        overlay: softborg_program::Overlay::empty(),
        overlay_version: splitmix(&mut z) % 100,
        directives: (0..(splitmix(&mut z) % 5))
            .map(|_| directive(&mut z))
            .collect(),
        stats: softborg_pod::PodStats {
            executions: splitmix(&mut z) % 10_000,
            failures: splitmix(&mut z) % 1000,
            directed: splitmix(&mut z) % 1000,
            overlay_hits: splitmix(&mut z) % 1000,
        },
        failing_cases: (0..(splitmix(&mut z) % 4))
            .map(|_| (case(&mut z), outcome(&mut z)))
            .collect(),
        passing_cases: (0..(splitmix(&mut z) % 5)).map(|_| case(&mut z)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pristine_bytes_roundtrip_exactly(seed in any::<u64>()) {
        let state = synth_state(seed);
        let bytes = state.encode();
        prop_assert_eq!(PodState::decode(&bytes).expect("pristine decode"), state);
    }

    /// An image is stored inside a checkpoint's chain record: any flip
    /// or cut of that record is refused before the image is decoded.
    #[test]
    fn any_corruption_of_the_enclosing_chain_record_is_a_typed_error(
        seed in any::<u64>(),
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let image = synth_state(seed).encode();
        let bytes = encode_record(RecordKind::Full, 0, 0, &image);
        prop_assert_eq!(decode_record(&bytes).expect("pristine").payload, &image[..]);
        let mut bad = bytes.clone();
        let i = at as usize % bad.len();
        bad[i] ^= flip;
        prop_assert!(
            decode_record(&bad).is_err(),
            "corruption at byte {} (xor {:#04x}) was silently accepted", i, flip
        );
        prop_assert!(decode_record(&bytes[..i]).is_err(), "cut at {}", i);
    }

    #[test]
    fn any_truncation_is_a_typed_error(seed in any::<u64>(), cut in any::<u32>()) {
        let bytes = synth_state(seed).encode();
        let cut = cut as usize % bytes.len();
        prop_assert!(PodState::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
    }

    #[test]
    fn exported_pod_state_roundtrips_after_real_executions(
        seed in any::<u64>(),
        runs in 0usize..8,
    ) {
        let s = scenarios::token_parser();
        let mut pod = Pod::new(
            &s.program,
            PodConfig { input_range: (0, 99), seed, ..PodConfig::default() },
        );
        for _ in 0..runs {
            pod.run_once();
        }
        let image = pod.export_state();
        let back = PodState::decode(&image.encode()).expect("roundtrip");
        prop_assert_eq!(&back, &image);
        // Restoring into a fresh pod reproduces the next draw exactly.
        let mut resumed = Pod::new(
            &s.program,
            PodConfig { input_range: (0, 99), seed: seed ^ 0xDEAD, ..PodConfig::default() },
        );
        resumed.restore_state(back);
        let a = pod.run_once();
        let b = resumed.run_once();
        prop_assert_eq!(a.trace, b.trace);
    }
}

/// A pod of `token_parser` run `runs` times, with a fix installed and a
/// directive queued when the seed says so — the state a round leaves.
fn worked_pod(s: &scenarios::Scenario, seed: u64, runs: usize) -> Pod<'_> {
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: (0, 99),
            seed,
            ..PodConfig::default()
        },
    );
    for i in 0..runs {
        pod.run_once();
        if (seed >> i) & 7 == 0 {
            let mut overlay = softborg_program::Overlay::empty();
            overlay.name = format!("fix-{i}");
            pod.install_fix(overlay, pod.overlay_version() + 1);
        }
    }
    if seed.is_multiple_of(3) {
        pod.receive_guidance([Directive::InputSeed {
            inputs: vec![13, 95, 7, 0, 0, 0],
            target: (BranchSiteId::new(0), true),
        }]);
    }
    pod
}

/// Pod record bytes with `body` behind a valid version byte: input
/// that reaches the structural decoder.
fn versioned(version: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = vec![version];
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A pod writes its image straight from its fields, byte for byte
    /// what cloning it into a `PodState` and encoding that writes.
    #[test]
    fn encode_state_into_writes_the_exported_image(seed in any::<u64>(), runs in 0usize..40) {
        let s = scenarios::token_parser();
        let pod = worked_pod(&s, seed, runs);
        let mut bytes = vec![0xAB]; // appends after what the buffer holds
        pod.encode_state_into(&mut bytes);
        prop_assert_eq!(&bytes[1..], &pod.export_state().encode()[..]);
    }

    /// A delta taken against an earlier image of the pod rebuilds the
    /// pod's current image from that base exactly, applying it twice
    /// changes nothing, and it carries no case the base already holds.
    #[test]
    fn a_delta_rebuilds_the_image_from_its_base(
        seed in any::<u64>(),
        before in 0usize..30,
        after in 0usize..30,
    ) {
        let s = scenarios::token_parser();
        let mut pod = worked_pod(&s, seed, before);
        let (base_image, base) = (pod.export_state(), pod.delta_base());
        for _ in 0..after {
            pod.run_once();
        }
        if seed.is_multiple_of(5) {
            pod.install_fix(softborg_program::Overlay::empty(), base.overlay_version + 1);
        }
        let mut bytes = Vec::new();
        pod.encode_delta_into(base, &mut bytes);
        let delta = PodDelta::decode(&bytes).expect("pristine delta decodes");
        prop_assert_eq!(delta.failing_from as usize, base_image.failing_cases.len());
        prop_assert_eq!(delta.passing_from as usize, base_image.passing_cases.len());
        prop_assert_eq!(delta.overlay.is_some(), pod.overlay_version() != base.overlay_version);
        let mut image = base_image.clone();
        delta.clone().apply(&mut image).expect("the base fits");
        prop_assert_eq!(&image, &pod.export_state());
        delta.apply(&mut image).expect("applying again fits too");
        prop_assert_eq!(&image, &pod.export_state());
    }

    /// Any cut of a real delta is a typed error, and so is any flip of
    /// the journal record it is stored in.
    #[test]
    fn any_corruption_of_a_delta_is_a_typed_error(
        seed in any::<u64>(),
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let s = scenarios::token_parser();
        let pod = worked_pod(&s, seed, (seed % 30) as usize);
        let mut bytes = Vec::new();
        pod.encode_delta_into(DeltaBase::default(), &mut bytes);
        let i = at as usize % bytes.len();
        prop_assert!(PodDelta::decode(&bytes[..i]).is_err(), "cut at {}", i);
        let mut record = Vec::new();
        JOURNAL.seal(&mut record, 5, [0, 1], &bytes);
        prop_assert_eq!(JOURNAL.read_at(&record, 0).expect("pristine").payload, &bytes[..]);
        let i = at as usize % record.len();
        let mut bad = record.clone();
        bad[i] ^= flip;
        prop_assert!(JOURNAL.read_at(&bad, 0).is_err(), "flip at record byte {}", i);
    }

    /// Arbitrary bytes, raw or behind a valid version byte, decode to a
    /// delta or a typed error — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_delta_decoder(
        bytes in collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = PodDelta::decode(&bytes);
        let _ = PodDelta::decode(&versioned(POD_DELTA_VERSION, &bytes));
    }
}

#[test]
fn a_delta_refuses_a_base_that_lacks_its_cases_and_leaves_it_unchanged() {
    let s = scenarios::token_parser();
    let mut pod = worked_pod(&s, 7, 0);
    for _ in 0..20 {
        pod.run_once();
    }
    let base = pod.delta_base();
    assert!(base.passing > 0, "the pod kept passing cases");
    pod.run_once();
    let mut bytes = Vec::new();
    pod.encode_delta_into(base, &mut bytes);
    let delta = PodDelta::decode(&bytes).unwrap();
    // A fresh pod holds none of the cases the delta starts after.
    let mut short = Pod::new(&s.program, PodConfig::default()).export_state();
    let before = short.clone();
    match delta.apply(&mut short) {
        Err(PodStateError::BaseMismatch { what, .. }) => {
            assert!(what.ends_with("_cases"), "{what}")
        }
        other => panic!("expected BaseMismatch, got {other:?}"),
    }
    assert_eq!(short, before);
}

#[test]
fn a_delta_without_its_overlay_refuses_a_base_of_another_version() {
    let s = scenarios::token_parser();
    let mut pod = worked_pod(&s, 11, 3);
    pod.install_fix(softborg_program::Overlay::empty(), 5);
    let base = pod.delta_base();
    let mut bytes = Vec::new();
    pod.encode_delta_into(base, &mut bytes);
    let delta = PodDelta::decode(&bytes).unwrap();
    assert_eq!(delta.overlay, None, "the version did not move");
    let mut stale = Pod::new(&s.program, PodConfig::default()).export_state();
    assert!(matches!(
        delta.apply(&mut stale),
        Err(PodStateError::BaseMismatch {
            what: "overlay_version",
            delta: 5,
            base: 0
        })
    ));
}

#[test]
fn the_older_checksummed_layouts_are_refused_by_name() {
    let s = scenarios::token_parser();
    let image = worked_pod(&s, 3, 5).export_state().encode();
    for older in [1, 2] {
        let bytes = versioned(older, &image[1..]);
        assert_eq!(
            PodState::decode(&bytes),
            Err(PodStateError::OlderLayout(older))
        );
        assert_eq!(
            PodDelta::decode(&bytes),
            Err(PodStateError::OlderLayout(older))
        );
    }
}

#[test]
fn the_delta_decoder_refuses_a_pod_image_by_its_version_byte() {
    let s = scenarios::token_parser();
    let image = worked_pod(&s, 3, 5).export_state().encode();
    assert_eq!(
        PodDelta::decode(&image),
        Err(PodStateError::BadVersion(POD_STATE_VERSION))
    );
}
