//! Ground truth for the one campaign core.
//!
//! A single-program [`Platform`] and a multi-program [`MultiPlatform`]
//! run the same round core. These literals were recorded when the two
//! were still separate implementations, each with its own journal
//! layout, resume and round codec, so they pin what a campaign computes
//! rather than agreement between two live paths. Per round they hold:
//!
//! * FNV-1a of the hive state ([`Platform::hive_state`]) or of every
//!   shard's state ([`MultiPlatform::shard_state`]);
//! * FNV-1a of every pod's encoded image
//!   ([`Platform::export_pod_states`]), in pod (and lane) order. This
//!   column was re-recorded once, when a pod image dropped its own
//!   FNV-1a tail (version 1 → 3): the same literals still came out of
//!   every image re-encoded in the older layout;
//! * FNV-1a of every round-report field, little-endian, floats as bits.
//!
//! Each cell runs on two seeds in two modes — in memory, and durable
//! (with compaction, killed and resumed halfway) — and both must hit the
//! same literals: durability is storage only.

use softborg::obs::{fnv1a_step, FNV_OFFSET};
use softborg::pod::{PodConfig, PodState};
use softborg::program::scenarios::{self, Scenario};
use softborg::{
    DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig, MultiRoundReport, Platform,
    PlatformConfig, RoundReport,
};
use std::path::PathBuf;

const ROUNDS: usize = 8;
const EXECS: u32 = 10;
const SEEDS: [u64; 2] = [3, 71];
/// Rounds run before the durable mode drops the campaign and resumes it.
const KILL_AT: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Mode {
    InMemory,
    Durable,
}

const MODES: [Mode; 2] = [Mode::InMemory, Mode::Durable];

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softborg-goldens-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Storage for `mode`: none, or a compacting journal.
fn storage(mode: Mode, tag: &str) -> Option<DurabilityConfig> {
    match mode {
        Mode::InMemory => None,
        Mode::Durable => Some(DurabilityConfig {
            compact_ratio: 2,
            min_compact_wal_bytes: 1024,
            ..DurabilityConfig::new(scratch(tag))
        }),
    }
}

fn pods_hash<'a>(pods: impl IntoIterator<Item = &'a PodState>) -> u64 {
    let mut bytes = Vec::new();
    for pod in pods {
        bytes.extend_from_slice(&pod.encode());
    }
    fnv1a(&bytes)
}

fn put(buf: &mut Vec<u8>, fields: &[u64]) {
    for f in fields {
        buf.extend_from_slice(&f.to_le_bytes());
    }
}

fn report_hash(r: &RoundReport) -> u64 {
    let c = &r.coverage;
    let mut buf = Vec::new();
    put(
        &mut buf,
        &[
            r.round,
            r.executions,
            r.failures,
            r.failure_rate_per_10k.to_bits(),
            r.fixes_promoted,
            r.overlay_version,
            c.nodes,
            c.distinct_paths,
            c.sites_seen,
            c.paths_merged,
            c.frontier_arms,
            c.closed_fraction.to_bits(),
            r.proofs,
            r.directed,
        ],
    );
    fnv1a(&buf)
}

fn multi_report_hash(r: &MultiRoundReport) -> u64 {
    let mut buf = Vec::new();
    put(
        &mut buf,
        &[
            r.round,
            r.executions,
            r.failures,
            r.failure_rate_per_10k.to_bits(),
            r.fixes_promoted,
        ],
    );
    for p in &r.programs {
        put(
            &mut buf,
            &[
                p.program,
                p.executions,
                p.failures,
                p.fixes_promoted,
                p.overlay_version,
                p.directed,
            ],
        );
    }
    fnv1a(&buf)
}

/// `[hive state, pods, report]` per round of a `token_parser` campaign.
fn platform_rows(seed: u64, mode: Mode) -> Vec<[u64; 3]> {
    let s = scenarios::token_parser();
    let durability = storage(mode, &format!("platform-{seed}-{mode:?}"));
    let config = || PlatformConfig {
        n_pods: 6,
        pod: PodConfig {
            input_range: s.input_range,
            ..PodConfig::default()
        },
        seed,
        durability: durability.clone(),
        ..PlatformConfig::default()
    };
    let mut p = Platform::new(&s.program, config());
    let mut rows = Vec::new();
    for round in 0..ROUNDS {
        if matches!(mode, Mode::Durable) && round == KILL_AT {
            drop(p);
            p = Platform::resume(&s.program, config()).expect("resume").0;
        }
        let report = p.round(EXECS);
        rows.push([
            fnv1a(&p.hive_state()),
            pods_hash(&p.export_pod_states()),
            report_hash(&report),
        ]);
    }
    rows
}

fn fleet() -> Vec<Scenario> {
    vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::record_processor(),
    ]
}

/// `[shard 0, shard 1, pods, report]` per round of a 3-program,
/// 2-shard campaign.
fn multi_rows(seed: u64, mode: Mode) -> Vec<[u64; 4]> {
    let scs = fleet();
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
    let durability = storage(mode, &format!("multi-{seed}-{mode:?}"));
    let config = || MultiPlatformConfig {
        n_pods: 4,
        n_shards: 2,
        seed,
        durability: durability.clone(),
        ..MultiPlatformConfig::default()
    };
    let mut p = MultiPlatform::new(&specs, config());
    let mut rows = Vec::new();
    for round in 0..ROUNDS {
        if matches!(mode, Mode::Durable) && round == KILL_AT {
            drop(p);
            p = MultiPlatform::resume(&specs, config()).expect("resume").0;
        }
        let report = p.round(EXECS);
        rows.push([
            fnv1a(&p.shard_state(0)),
            fnv1a(&p.shard_state(1)),
            pods_hash(p.export_pod_states().iter().flatten()),
            multi_report_hash(&report),
        ]);
    }
    rows
}

/// Recorded for `SEEDS[0]` and `SEEDS[1]`: `[hive state, pods, report]`.
const PLATFORM: [[[u64; 3]; ROUNDS]; 2] = [
    [
        [0xf64005bc45ff5aeb, 0xfd9eb85962026129, 0x54bc97774505d8e8],
        [0x348b542efc578a97, 0xd60f898566e97bad, 0x0186cb0fb09e8034],
        [0x1d913ee2e595843d, 0x8a12ec09bbd65bc0, 0xfc6da09becc52c85],
        [0xc51da81702d908ed, 0x8db27815c04e0f0a, 0x4a3f2ae13f1d6880],
        [0x4cb190cde717a834, 0x857ef98900a25a6e, 0xc85a005a2d58aa90],
        [0x2fb45ed59e189314, 0x6c4b90a7e1e65d07, 0x6402c6b12e309cf9],
        [0x9902712aefd60590, 0x07503a28a3295f2b, 0x93aae0ff82d64f2a],
        [0xbbe156804bb1c7d8, 0xf1ab5d771ecf5caf, 0xe25d2129b5db8813],
    ],
    [
        [0xe12e266fda08735d, 0xf26f570da04c4a1d, 0xe20bd1556fc1d442],
        [0x49b8feb391fb4ebc, 0x008e9cbf1de3d20c, 0x83b3628229c676f5],
        [0x01de23e4c17b72c0, 0x9105f69610d413d7, 0x323966f65a1e11cf],
        [0x5d196dd4ca83e1ea, 0x145e831d6f7ca1a0, 0x4a3f2ae13f1d6880],
        [0x26f24b1e8a64877f, 0xaf41e83c778f30eb, 0xc85a005a2d58aa90],
        [0x3e1825c82933701f, 0xe0c008ab6a4fb11e, 0x6402c6b12e309cf9],
        [0xf1c235546e564911, 0x81841e020aba004e, 0x93aae0ff82d64f2a],
        [0x5268dd88c313011f, 0x9704757d6ef4f449, 0xe25d2129b5db8813],
    ],
];

/// Recorded for `SEEDS[0]` and `SEEDS[1]`: `[shard 0, shard 1, pods,
/// report]`.
const MULTI: [[[u64; 4]; ROUNDS]; 2] = [
    [
        [
            0x589d774329ee5757,
            0x1e48743453d8b8da,
            0xa08ce82aac4445e2,
            0xe3f564a2f572809f,
        ],
        [
            0x6ad53f36958f792a,
            0xcc23e90951ee6839,
            0x86010745d161f39b,
            0x2a3235d6bca606b6,
        ],
        [
            0xd508054d260e8d3b,
            0xb1994bf15728ec20,
            0xf930aa39a7767c18,
            0x786516800cd81a6d,
        ],
        [
            0x4c9af3e6ebc9bccb,
            0xc7bdc1b56a3d8be8,
            0x7bea2e5e8295b559,
            0xaf3f02f5b3d9a412,
        ],
        [
            0x562a320351ca2b9a,
            0x9c615a72147c2aaa,
            0xbf55edc8576ffb22,
            0xfd7feb74fea5144d,
        ],
        [
            0x76fc86b023e8e9a5,
            0xf226b1916f8e45cc,
            0xf88602c377b0b0bc,
            0xc9fa09ec8b3f7ba4,
        ],
        [
            0x97797aa1e751a14e,
            0x5f8d1d1516b9faf2,
            0x87e2b050afa15d1c,
            0xdcdc4504be6550a7,
        ],
        [
            0xafa7260461f4260b,
            0xf8a4e02e52b1c0b9,
            0x16642cfa955288f4,
            0xb9b776799fd6caf6,
        ],
    ],
    [
        [
            0xa6d92a8058abd768,
            0x263dd69b22bc6e22,
            0x10da00fe83651791,
            0xe3f564a2f572809f,
        ],
        [
            0x98434377db28c728,
            0x4f97ded5e593cdc4,
            0x2c2314607e56bf35,
            0xf0fa0ca72fcaef38,
        ],
        [
            0x3d862836fca3dab4,
            0xf884a631cea3aeae,
            0x0753006cc84123c1,
            0x65cc9721b158d2f4,
        ],
        [
            0x5a82bfc4f9c20edb,
            0xd43fb11dc5de713a,
            0x05a5495c7a78a41e,
            0xaf3f02f5b3d9a412,
        ],
        [
            0x4fa6c34739bb8add,
            0x93c7bd44abedddac,
            0x686fff5b3e1168ea,
            0xfd7feb74fea5144d,
        ],
        [
            0x3d3023893e35392d,
            0x9981574198b9b6ee,
            0x40fd60aa8cd9c6ca,
            0xc9fa09ec8b3f7ba4,
        ],
        [
            0x702c073c8391ec08,
            0x10e245053615e164,
            0xa2a3612cf2f6a0f0,
            0xdcdc4504be6550a7,
        ],
        [
            0x5d4bf484e46a525d,
            0xb86c724513e13b53,
            0x24f43cd4fec698ee,
            0xb9b776799fd6caf6,
        ],
    ],
];

#[test]
fn platform_campaigns_match_the_recorded_goldens() {
    for (seed, golden) in SEEDS.into_iter().zip(&PLATFORM) {
        for mode in MODES {
            let rows = platform_rows(seed, mode);
            for (round, (got, want)) in rows.iter().zip(golden).enumerate() {
                assert_eq!(got, want, "seed {seed}, {mode:?}, round {round}");
            }
        }
    }
}

#[test]
fn multi_campaigns_match_the_recorded_goldens() {
    for (seed, golden) in SEEDS.into_iter().zip(&MULTI) {
        for mode in MODES {
            let rows = multi_rows(seed, mode);
            for (round, (got, want)) in rows.iter().zip(golden).enumerate() {
                assert_eq!(got, want, "seed {seed}, {mode:?}, round {round}");
            }
        }
    }
}
