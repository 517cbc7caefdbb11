//! The bytes a durable campaign leaves on disk, pinned file by file.
//!
//! A durable two-shard, three-program [`MultiPlatform`] runs eight small
//! rounds and checkpoints after rounds 3 and 6, so its directory holds
//! the round log, each shard's journal, and each shard's chain: a
//! `.full` record, then a `.delta`. Every file is pinned as the FNV-1a
//! of its bytes, keyed by its path under the campaign directory. A
//! change to how any of those formats is written — the journal record,
//! the chain record, the snapshot, the app-meta, a pod image or delta,
//! a wire frame — fails here even when what the campaign computes is
//! unchanged (`campaign_goldens` pins that).
//!
//! The literals were last re-recorded when every stored checksum moved
//! from FNV-1a to `softborg_obs::checksum` (journal and chain records,
//! frames), chain records moved to `SBCHAIN\x02` and dropped the nested
//! snapshot seal, and pod records dropped their own checksum.
//!
//! Like `campaign_goldens`, the literals inherit [`ProgramId`]'s
//! dependence on the toolchain: the id hashes the program's `Debug`
//! text, and every journal record and pod image carries it.
//!
//! [`ProgramId`]: softborg::program::ProgramId

use softborg::obs::{fnv1a_step, FNV_OFFSET};
use softborg::pod::PodConfig;
use softborg::program::scenarios;
use softborg::{DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig};
use std::path::Path;

const ROUNDS: usize = 8;
const EXECS: u32 = 6;
/// Rounds after which the campaign checkpoints: a full, then a delta.
const CHECKPOINTS: [usize; 2] = [3, 6];

/// `(path under the campaign directory, FNV-1a of its bytes)`, sorted.
const GOLDEN: &[(&str, u64)] = &[
    ("rounds.log", 0x26463ad626b40f61),
    (
        "shard-0/chain/chain-00000000000000000000.full",
        0x195478beec2bc08f,
    ),
    (
        "shard-0/chain/chain-00000000000000000001.delta",
        0x6b20484be498856c,
    ),
    ("shard-0/hive.wal", 0xc5fce100b3793834),
    (
        "shard-1/chain/chain-00000000000000000000.full",
        0x65e2bd7aa8d300b4,
    ),
    (
        "shard-1/chain/chain-00000000000000000001.delta",
        0x10343e238ab7cfdd,
    ),
    ("shard-1/hive.wal", 0xd8b955d73b59819c),
];

/// Every file under `dir`, by relative path with `/` separators, with
/// the FNV-1a of its bytes.
fn hashes(root: &Path, dir: &Path, out: &mut Vec<(String, u64)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            hashes(root, &path, out);
        } else {
            let rel = path.strip_prefix(root).unwrap();
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            let bytes = std::fs::read(&path).unwrap();
            out.push((rel.join("/"), fnv1a_step(FNV_OFFSET, &bytes)));
        }
    }
}

#[test]
fn a_durable_campaign_writes_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("softborg-disk-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scs = [
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::record_processor(),
    ];
    let specs: Vec<FleetSpec<'_>> = scs
        .iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
        })
        .collect();
    let config = MultiPlatformConfig {
        n_pods: 3,
        n_shards: 2,
        seed: 29,
        // Checkpoints only where the test asks.
        durability: Some(DurabilityConfig {
            compact_ratio: 0,
            ..DurabilityConfig::new(&dir)
        }),
        ..MultiPlatformConfig::default()
    };
    let mut p = MultiPlatform::try_new(&specs, config).expect("durable campaign");
    for round in 1..=ROUNDS {
        p.round(EXECS);
        if CHECKPOINTS.contains(&round) {
            p.checkpoint().expect("checkpoint");
        }
    }
    drop(p);
    let mut got = Vec::new();
    hashes(&dir, &dir, &mut got);
    got.sort();
    let _ = std::fs::remove_dir_all(&dir);
    for ext in [".full", ".delta", "hive.wal", "rounds.log"] {
        assert!(
            got.iter().any(|(path, _)| path.ends_with(ext)),
            "no {ext} file written: {got:?}"
        );
    }
    let table: String = got
        .iter()
        .map(|(path, h)| format!("    (\"{path}\", {h:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(p, h)| (p.to_string(), h)).collect();
    assert_eq!(got, want, "bytes on disk moved; now:\n{table}");
}
