//! Resource bounds of a long-lived durable campaign: what a round
//! writes must not grow with the campaign's age. On a small two-shard
//! durable fleet, the payload of a checkpoint taken at round `4N` and
//! the journal bytes a round appends around round `4N` stay within
//! 1.25× of their values at round `N`. And the hive's ingest memo holds
//! at most `memo_capacity` entries, whatever the worker count.
//!
//! Out of scope here: the in-memory round history
//! (`MultiPlatform::history`), which still keeps every round.

use softborg::hive::{HiveConfig, ShardedHive};
use softborg::ingest::IngestConfig;
use softborg::pod::{Pod, PodConfig};
use softborg::program::scenarios::{self, Scenario};
use softborg::trace::wire;
use softborg::{DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig};

const N: u32 = 12;
const EXECS: u32 = 10;

/// `fleet_durable`'s four programs at two pods each, on two shards, so
/// a checkpoint is small and anything that grows per round shows.
fn scenarios() -> Vec<Scenario> {
    vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::short_read_client(),
        scenarios::bank_transfer(),
    ]
}

fn campaign<'p>(scs: &'p [Scenario], tag: &str) -> MultiPlatform<'p> {
    let dir = std::env::temp_dir().join(format!("softborg-bounds-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
        n_pods: 2,
        n_shards: 2,
        seed: 5,
        // Checkpoints only on demand: each campaign's first is a full
        // record, so the two ages compare like for like.
        durability: Some(DurabilityConfig {
            compact_ratio: 0,
            ..DurabilityConfig::new(dir)
        }),
        ..MultiPlatformConfig::default()
    };
    MultiPlatform::new(&specs, config)
}

/// Mean journal bytes of the `N / 2` rounds ending at `round`.
fn journal_bytes_near(p: &MultiPlatform<'_>, round: u32) -> f64 {
    let window = &p.round_telemetry()[(round - N / 2) as usize..round as usize];
    window.iter().map(|t| t.journal_bytes).sum::<u64>() as f64 / window.len() as f64
}

#[test]
fn checkpoint_and_journal_bytes_do_not_grow_with_campaign_age() {
    let scs = scenarios();
    let mut young = campaign(&scs, "young");
    young.run(N, EXECS);
    let young_ckpt = young.checkpoint().unwrap();

    let mut old = campaign(&scs, "old");
    old.run(4 * N, EXECS);
    let old_ckpt = old.checkpoint().unwrap();
    assert!(
        old_ckpt as f64 <= 1.25 * young_ckpt as f64,
        "a full checkpoint at round {} is {old_ckpt} B, at round {N} {young_ckpt} B",
        4 * N
    );

    let (young_wal, old_wal) = (journal_bytes_near(&old, N), journal_bytes_near(&old, 4 * N));
    assert!(young_wal > 0.0, "durable rounds journal something");
    assert!(
        old_wal <= 1.25 * young_wal,
        "rounds near {} journal {old_wal:.0} B, near {N} {young_wal:.0} B",
        4 * N
    );
}

#[test]
fn ingest_memo_entries_stay_within_the_budget_at_any_worker_count() {
    const BUDGET: usize = 24;
    let scs = scenarios();
    let mut frames = Vec::new();
    for s in &scs {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 9,
                ..PodConfig::default()
            },
        );
        for _ in 0..30 {
            let trace = pod.run_once().trace;
            frames.push((s.program.id(), wire::encode_batch([&trace])));
        }
    }
    let programs: Vec<_> = scs.iter().map(|s| &s.program).collect();
    for workers in [1, 2, 4] {
        let mut hive = ShardedHive::new(&programs, 2, &HiveConfig::default()).unwrap();
        let config = IngestConfig {
            workers,
            memo_capacity: BUDGET,
            ..IngestConfig::default()
        };
        let mut evictions = 0;
        for _ in 0..3 {
            let stats = hive.ingest_batch(frames.clone(), &config).unwrap();
            evictions += stats.cache_evictions;
            assert!(
                hive.memo_entries() <= BUDGET,
                "{} memo entries at workers={workers}",
                hive.memo_entries()
            );
        }
        assert_eq!(hive.memo_entries(), BUDGET, "the traffic fills the memo");
        assert!(evictions > 0, "the traffic overflows the memo");
    }
}
