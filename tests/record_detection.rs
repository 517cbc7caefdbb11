//! Every stored or shipped record carries a `softborg_obs::checksum`: a
//! batch frame, a journal record and a chain record each refuse, with a
//! typed error, every single-byte flip, every cut, and every swap of two
//! distinct aligned 8-byte words — over frames of real pod traces.

use proptest::prelude::*;
use softborg::hive::journal::{self, REC_FRAME};
use softborg::pod::{Pod, PodConfig};
use softborg::program::scenarios;
use softborg::store::chain::{decode_record, encode_record};
use softborg::store::RecordKind;
use softborg::trace::wire;

/// A batch frame of `runs` executions of a pod seeded with `seed`.
fn frame(seed: u64, runs: usize) -> Vec<u8> {
    let s = scenarios::record_processor();
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed,
            ..PodConfig::default()
        },
    );
    let traces: Vec<_> = (0..runs).map(|_| pod.run_once().trace).collect();
    wire::encode_batch(&traces)
}

/// Asserts `refuses` holds for every flip, cut and aligned word swap of
/// `bytes`, which it must not hold for.
fn assert_detects(what: &str, bytes: &[u8], flip: u8, refuses: impl Fn(&[u8]) -> bool) {
    assert!(!refuses(bytes), "{what}: the pristine bytes are refused");
    for i in 0..bytes.len() {
        let mut bad = bytes.to_vec();
        bad[i] ^= flip;
        assert!(refuses(&bad), "{what}: flip {flip:#x} at byte {i} accepted");
        assert!(refuses(&bytes[..i]), "{what}: cut at {i} accepted");
    }
    let words: Vec<&[u8]> = bytes.chunks_exact(8).collect();
    for a in 0..words.len() {
        for b in a + 1..words.len() {
            if words[a] == words[b] {
                continue;
            }
            let mut bad = bytes.to_vec();
            bad[a * 8..a * 8 + 8].copy_from_slice(words[b]);
            bad[b * 8..b * 8 + 8].copy_from_slice(words[a]);
            assert!(refuses(&bad), "{what}: words {a} and {b} swapped, accepted");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_flip_cut_and_word_swap_is_refused(
        seed in any::<u64>(),
        runs in 1usize..24,
        flip in 1u8..=255,
        session in any::<u64>(),
    ) {
        let frame = frame(seed, runs);
        assert_detects("frame", &frame, flip, |b| wire::read_batch(b).is_err());

        let mut record = Vec::new();
        journal::append_record(&mut record, REC_FRAME, session, seed, &frame);
        assert_detects("journal record", &record, flip, |b| {
            journal::FRAMING.read_at(b, 0).is_err()
        });

        let chain = encode_record(RecordKind::Delta, seed, session, &frame);
        assert_detects("chain record", &chain, flip, |b| decode_record(b).is_err());
    }
}
