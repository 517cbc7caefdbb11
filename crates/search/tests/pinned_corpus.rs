//! The committed divergence corpus under `crates/search/corpus/`:
//! minimal fault plans found and shrunk by the durable campaign search
//! (E21), pinned in-tree so the recovery bugs they reproduce can never
//! quietly return. Each entry embeds its full campaign (scenarios,
//! shards, compaction policy, armed canary) and must replay to the
//! exact recorded outcome digest and oracle verdict.

use softborg_search::replay_corpus;
use std::path::PathBuf;

#[test]
fn pinned_divergence_corpus_replays_exactly() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let rep = replay_corpus(&dir).expect("pinned corpus loads");
    assert!(
        rep.failures.is_empty(),
        "pinned entries stopped reproducing: {:#?}",
        rep.failures
    );
    assert!(
        rep.replayed >= 3,
        "expected the pinned durable entries, replayed {}",
        rep.replayed
    );
}
