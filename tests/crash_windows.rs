//! The two crash windows a checkpoint opens, on both shapes of a
//! campaign (see `tests/campaign`). Compaction appends the committed
//! rounds the round log lacks and fsyncs it, then appends each shard's
//! chain record, then truncates each journal. A crash after the log
//! append but before the chain append, or after the chain append but
//! before the truncate (`checkpoint_all(false)`), must resume
//! process-equivalent: the same shard states, pods and history as the
//! uninterrupted run at that round, and the same continuation.
//!
//! Each window is built from two real directories of one campaign: the
//! campaign killed at round `k` (`before`) and a copy of it resumed and
//! checkpointed (`after`). The window is `before` with `after`'s round
//! log (window 1), and with `after`'s chain records too (window 2) —
//! exactly the bytes a crash between those writes leaves. A crash
//! inside the log append itself leaves a torn log tail, which scrub and
//! resume cut as a journal's; damage with intact records after it is
//! refused with every byte left as it was.

mod campaign;

use campaign::*;
use softborg::DurabilityConfig;
use std::path::{Path, PathBuf};

/// Copies the directory tree `from` to `to` (replacing `to`).
fn copy_tree(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let path = e.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

/// The two windows' directories for a campaign killed at round `k`.
fn windows(kind: Kind, cfg: fn(PathBuf) -> DurabilityConfig, k: u64, tag: &str) -> [PathBuf; 2] {
    let scs = kind.scenarios();
    let before = campaign_dir(kind, &format!("{tag}-before-{k}"));
    kind.start(&scs, &Setup::durable(cfg(before.clone())))
        .run(k);
    let after = campaign_dir(kind, &format!("{tag}-after-{k}"));
    copy_tree(&before, &after);
    let (mut p, _) = kind
        .resume(&scs, &Setup::durable(cfg(after.clone())))
        .unwrap();
    p.checkpoint();
    drop(p);

    let log_only = campaign_dir(kind, &format!("{tag}-log-only-{k}"));
    copy_tree(&before, &log_only);
    std::fs::copy(after.join("rounds.log"), log_only.join("rounds.log")).unwrap();
    let untruncated = campaign_dir(kind, &format!("{tag}-untruncated-{k}"));
    copy_tree(&log_only, &untruncated);
    for shard in 0..kind.shards() {
        let chain = |dir: &Path| shard_dir(dir, shard).join("chain");
        copy_tree(&chain(&after), &chain(&untruncated));
    }
    [log_only, untruncated]
}

fn check_crash_windows(kind: Kind, cfg: fn(PathBuf) -> DurabilityConfig, tag: &str) {
    let scs = kind.scenarios();
    let r = reference(kind, &scs, cfg(campaign_dir(kind, &format!("{tag}-ref"))));
    for k in 1..=ROUNDS {
        for (window, dir) in windows(kind, cfg, k, tag).into_iter().enumerate() {
            let what = format!("{kind:?} {tag} window {} at round {k}", window + 1);
            let setup = Setup::durable(cfg(dir));
            let (mut resumed, report) = kind.resume(&scs, &setup).unwrap();
            assert_eq!(report.target_round, k, "{what}");
            assert_eq!(resumed.states(), r.states[k as usize], "{what}: states");
            assert_eq!(resumed.pods(), r.pods[k as usize], "{what}: pods");
            assert_eq!(
                resumed.history(),
                r.history[..k as usize],
                "{what}: history"
            );
            resumed.run(ROUNDS - k);
            assert_eq!(
                resumed.states(),
                r.states[ROUNDS as usize],
                "{what}: continued"
            );
            assert_eq!(resumed.pods(), r.pods[ROUNDS as usize], "{what}: continued");
            assert_eq!(resumed.history(), r.history, "{what}: continued");
        }
    }
}

#[test]
fn a_crash_inside_a_checkpoint_resumes_process_equivalent() {
    for kind in KINDS {
        check_crash_windows(kind, DurabilityConfig::new, "default");
    }
}

#[test]
fn a_crash_inside_a_checkpoint_on_a_chained_campaign_resumes_process_equivalent() {
    for kind in KINDS {
        check_crash_windows(kind, eager, "eager");
    }
}

/// A campaign that never compacts on its own, killed at round `k`
/// inside its first checkpoint's round-log append: `windows`' first
/// directory, with `mangle` applied to its round log.
fn mangled_log(kind: Kind, k: u64, tag: &str, mangle: impl Fn(&mut Vec<u8>)) -> PathBuf {
    let [log_only, _] = windows(kind, uncompacted, k, tag);
    let path = log_only.join("rounds.log");
    let mut log = std::fs::read(&path).unwrap();
    mangle(&mut log);
    std::fs::write(&path, log).unwrap();
    log_only
}

#[test]
fn a_torn_round_log_tail_is_cut_and_the_journal_replays_its_rounds() {
    const K: u64 = 3;
    for kind in KINDS {
        let scs = kind.scenarios();
        let r = reference(kind, &scs, uncompacted(campaign_dir(kind, "torn-ref")));
        // The last round record lost its final bytes: a torn append.
        let dir = mangled_log(kind, K, "torn", |log| log.truncate(log.len() - 9));
        let setup = Setup::durable(uncompacted(dir.clone()));
        let before = std::fs::metadata(dir.join("rounds.log")).unwrap().len();
        kind.scrub(&scs, &setup).unwrap();
        let after = std::fs::metadata(dir.join("rounds.log")).unwrap().len();
        assert!(after < before, "{kind:?}: scrub kept the torn tail");
        let (resumed, report) = kind.resume(&scs, &setup).unwrap();
        assert_eq!(report.target_round, K, "{kind:?}");
        assert_eq!(resumed.history(), r.history[..K as usize], "{kind:?}");
        assert_eq!(resumed.states(), r.states[K as usize], "{kind:?}");
    }
}

#[test]
fn damage_inside_the_round_log_is_refused_untouched() {
    for kind in KINDS {
        let scs = kind.scenarios();
        // A flipped bit in the first round record, with records after it.
        let dir = mangled_log(kind, 3, "mid-log", |log| log[20] ^= 0x10);
        let setup = Setup::durable(uncompacted(dir.clone()));
        let before = tree(&dir);
        for (what, result) in [
            ("scrub", kind.scrub(&scs, &setup).err()),
            ("resume", kind.resume(&scs, &setup).err()),
        ] {
            match result {
                Some(softborg::DurabilityError::Corrupt(msg)) => {
                    assert!(msg.contains("round log"), "{kind:?} {what}: {msg}")
                }
                other => panic!("{kind:?} {what}: expected Corrupt, got {other:?}"),
            }
        }
        assert_eq!(
            tree(&dir),
            before,
            "{kind:?}: a refusal changed the directory"
        );
    }
}
