//! Multi-program platform: several pod fleets share one sharded ingest
//! pool, and per-shard crash-only durability composes with sharding —
//! a campaign killed at any point recovers **every** shard
//! byte-identical to the uninterrupted run at the recovered committed
//! round (the minimum across shards).

use softborg::{DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig, MultiRoundReport};
use softborg_program::scenarios::{self, Scenario};
use std::path::PathBuf;

const ROUNDS: u64 = 3;
const EXECS: u32 = 8;
const N_PODS: u32 = 4;
const N_SHARDS: usize = 3;

fn fleet_scenarios() -> Vec<Scenario> {
    vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::record_processor(),
        scenarios::bank_transfer(),
    ]
}

fn specs(scs: &[Scenario]) -> Vec<FleetSpec<'_>> {
    scs.iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: softborg::pod::PodConfig {
                input_range: s.input_range,
                ..softborg::pod::PodConfig::default()
            },
        })
        .collect()
}

fn config(durability: Option<DurabilityConfig>) -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: N_PODS,
        n_shards: N_SHARDS,
        seed: 23,
        durability,
        ..MultiPlatformConfig::default()
    }
}

/// A fresh, empty campaign directory unique to this test + process.
fn campaign_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softborg-multi-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Aggressive compaction so short campaigns exercise the checkpoint path.
fn compacting(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 2,
        min_compact_wal_bytes: 1024,
        ..DurabilityConfig::new(dir)
    }
}

/// Compaction disabled: used by the torn-phase-A test, whose simulated
/// crash (a journal tail lost *after* the process exited) is only a
/// state the two-phase protocol can produce if no shard compacted the
/// final round into a checkpoint.
fn no_compaction(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 0,
        ..DurabilityConfig::new(dir)
    }
}

/// Per-shard states of an uninterrupted durable run, indexed by
/// committed round count (`states[k][shard]` = shard's state after
/// round k), plus the full history.
fn reference_run(dcfg: DurabilityConfig) -> (Vec<Vec<Vec<u8>>>, Vec<MultiRoundReport>) {
    let scs = fleet_scenarios();
    let mut p = MultiPlatform::new(&specs(&scs), config(Some(dcfg)));
    let shard_states =
        |p: &MultiPlatform<'_>| (0..N_SHARDS).map(|i| p.shard_state(i)).collect::<Vec<_>>();
    let mut states = vec![shard_states(&p)];
    for _ in 0..ROUNDS {
        p.round(EXECS);
        states.push(shard_states(&p));
    }
    (states, p.history().to_vec())
}

#[test]
fn multi_round_runs_every_fleet_through_the_shared_pool() {
    let scs = fleet_scenarios();
    let mut p = MultiPlatform::new(&specs(&scs), config(None));
    let report = p.round(EXECS);
    assert_eq!(report.programs.len(), scs.len());
    for pr in &report.programs {
        assert_eq!(pr.executions, u64::from(N_PODS) * u64::from(EXECS));
    }
    assert_eq!(
        report.executions,
        report.programs.iter().map(|p| p.executions).sum::<u64>()
    );
    let stats = p.last_run().expect("round ran the sharded pipeline");
    assert_eq!(stats.frames_corrupt, 0);
    assert_eq!(stats.frames_rerouted, 0);
    assert_eq!(stats.frames_unknown_program, 0);
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.traces_merged, report.executions);
    // Every fleet's traffic reached its own hive.
    for (id, hive) in p.sharded().hives() {
        let pr = report
            .programs
            .iter()
            .find(|pr| pr.program == id.0)
            .expect("every placed program reported");
        assert_eq!(hive.stats().traces, pr.executions);
        assert_eq!(hive.stats().unreconstructed, 0);
    }
    assert_eq!(p.run(2, EXECS).len(), 3);
}

#[test]
fn multi_rounds_are_deterministic_across_identical_runs() {
    let scs = fleet_scenarios();
    let mut a = MultiPlatform::new(&specs(&scs), config(None));
    let mut b = MultiPlatform::new(&specs(&scs), config(None));
    a.run(2, EXECS);
    b.run(2, EXECS);
    assert_eq!(a.history(), b.history());
    for shard in 0..N_SHARDS {
        assert_eq!(
            a.shard_state(shard),
            b.shard_state(shard),
            "shard {shard} diverged between identical runs"
        );
    }
}

#[test]
fn kill_at_every_round_boundary_recovers_every_shard_byte_identically() {
    let scs = fleet_scenarios();
    let (reference, ref_history) =
        reference_run(DurabilityConfig::new(campaign_dir("boundary-ref")));
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("boundary-{k}"));
        {
            let mut p = MultiPlatform::new(
                &specs(&scs),
                config(Some(DurabilityConfig::new(dir.clone()))),
            );
            p.run(k as u32, EXECS);
        } // drop = kill: nothing beyond the synced journals survives
        let (resumed, report) =
            MultiPlatform::resume(&specs(&scs), config(Some(DurabilityConfig::new(dir)))).unwrap();
        assert_eq!(report.target_round, k, "lost rounds at kill {k}");
        assert_eq!(resumed.committed_rounds(), k);
        for sr in &report.shards {
            assert_eq!(sr.rounds_from_snapshot + sr.rounds_replayed, k);
            assert_eq!(sr.records_discarded, 0, "shard {} at kill {k}", sr.shard);
        }
        for (shard, expected) in reference[k as usize].iter().enumerate() {
            assert_eq!(
                &resumed.shard_state(shard),
                expected,
                "shard {shard} diverged from uninterrupted run at round {k}"
            );
        }
        assert_eq!(resumed.history(), &ref_history[..k as usize]);
        // The campaign keeps going after recovery.
        let mut resumed = resumed;
        let r = resumed.round(EXECS);
        assert_eq!(
            r.executions,
            u64::from(N_PODS) * u64::from(EXECS) * scs.len() as u64
        );
        assert_eq!(resumed.committed_rounds(), k + 1);
    }
}

#[test]
fn kill_at_every_round_boundary_restores_every_fleet_pod_mid_stream() {
    let scs = fleet_scenarios();
    let mut ref_run = MultiPlatform::new(
        &specs(&scs),
        config(Some(DurabilityConfig::new(campaign_dir("pods-ref")))),
    );
    let mut ref_pods = vec![ref_run.export_pod_states()];
    for _ in 0..ROUNDS {
        ref_run.round(EXECS);
        ref_pods.push(ref_run.export_pod_states());
    }
    let ref_history = ref_run.history().to_vec();
    let ref_states: Vec<_> = (0..N_SHARDS).map(|i| ref_run.shard_state(i)).collect();
    drop(ref_run);
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("pods-{k}"));
        {
            let mut p = MultiPlatform::new(
                &specs(&scs),
                config(Some(DurabilityConfig::new(dir.clone()))),
            );
            p.run(k as u32, EXECS);
        } // drop = kill
        let (mut resumed, _) =
            MultiPlatform::resume(&specs(&scs), config(Some(DurabilityConfig::new(dir)))).unwrap();
        assert_eq!(
            resumed.export_pod_states(),
            ref_pods[k as usize],
            "fleet pod populations diverged from the uninterrupted run at round {k}"
        );
        // Restored pods carry their RNG positions, corpora, and queued
        // directives across every lane, so the continuation replays
        // the uninterrupted run byte for byte.
        resumed.run((ROUNDS - k) as u32, EXECS);
        assert_eq!(
            resumed.history(),
            &ref_history[..],
            "continued history diverged after resume at round {k}"
        );
        assert_eq!(resumed.export_pod_states(), ref_pods[ROUNDS as usize]);
        for (shard, expected) in ref_states.iter().enumerate() {
            assert_eq!(
                &resumed.shard_state(shard),
                expected,
                "shard {shard} diverged in the continuation after resume at round {k}"
            );
        }
    }
}

#[test]
fn shard_compaction_composes_with_resume() {
    let scs = fleet_scenarios();
    let (reference, _) = reference_run(compacting(campaign_dir("compact-ref")));
    let dir = campaign_dir("compact");
    {
        let mut p = MultiPlatform::new(&specs(&scs), config(Some(compacting(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
        // Force at least one checkpoint on every shard so the checkpoint
        // path is exercised even for lightly-loaded shards.
        p.checkpoint().unwrap();
    }
    for shard in 0..N_SHARDS {
        let chain = dir.join(format!("shard-{shard}")).join("chain");
        assert!(
            std::fs::read_dir(&chain).unwrap().any(|e| e
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "full")),
            "shard {shard} never wrote a checkpoint"
        );
    }
    let (resumed, report) =
        MultiPlatform::resume(&specs(&scs), config(Some(compacting(dir)))).unwrap();
    assert_eq!(report.target_round, ROUNDS);
    for sr in &report.shards {
        assert!(
            sr.rounds_from_snapshot > 0,
            "shard {} resume ignored its checkpoint",
            sr.shard
        );
    }
    for (shard, expected) in reference[ROUNDS as usize].iter().enumerate() {
        assert_eq!(
            &resumed.shard_state(shard),
            expected,
            "shard {shard} diverged through compaction + resume"
        );
    }
}

#[test]
fn crash_between_shard_fsyncs_rolls_back_to_the_minimum_committed_round() {
    let scs = fleet_scenarios();
    let (reference, _) = reference_run(no_compaction(campaign_dir("torn-ref")));
    let dir = campaign_dir("torn");
    {
        let mut p = MultiPlatform::new(&specs(&scs), config(Some(no_compaction(dir.clone()))));
        p.run(ROUNDS as u32, EXECS);
    }
    // Simulate a crash inside phase A of the final round's commit: one
    // shard's journal loses the tail of its last append (the closing
    // round record), so that shard never committed the round while its
    // peers did.
    let victim = dir.join("shard-0").join("hive.wal");
    let bytes = std::fs::read(&victim).unwrap();
    assert!(bytes.len() > 8);
    std::fs::write(&victim, &bytes[..bytes.len() - 5]).unwrap();

    let (resumed, report) =
        MultiPlatform::resume(&specs(&scs), config(Some(no_compaction(dir)))).unwrap();
    // The final round was never acked; the campaign's truth is the
    // minimum committed round, and the shards that got ahead are
    // truncated back to it.
    assert_eq!(report.target_round, ROUNDS - 1);
    assert_eq!(resumed.committed_rounds(), ROUNDS - 1);
    assert!(
        report
            .shards
            .iter()
            .any(|s| s.records_discarded > 0 || s.wal_tail_dropped > 0),
        "injected damage left no trace in the resume report"
    );
    for (shard, expected) in reference[(ROUNDS - 1) as usize].iter().enumerate() {
        assert_eq!(
            &resumed.shard_state(shard),
            expected,
            "shard {shard} diverged after phase-A crash recovery"
        );
    }
    // A second resume is clean: the truncation is durable.
    drop(resumed);
    let scs2 = fleet_scenarios();
    let dir = std::env::temp_dir().join(format!("softborg-multi-{}-torn", std::process::id()));
    let (again, report) =
        MultiPlatform::resume(&specs(&scs2), config(Some(no_compaction(dir)))).unwrap();
    assert_eq!(report.target_round, ROUNDS - 1);
    for sr in &report.shards {
        assert_eq!(sr.records_discarded, 0);
        assert_eq!(sr.wal_tail_dropped, 0);
    }
    assert_eq!(again.committed_rounds(), ROUNDS - 1);
}

#[test]
fn chained_paged_fleet_resumes_process_equivalent_across_shards() {
    use softborg::store::PagedConfig;
    let scs = fleet_scenarios();
    // Default-policy, never-killed reference: the eagerly checkpointed,
    // paged fleet must be indistinguishable from it at every recovered
    // round.
    let (reference, ref_history) = reference_run(DurabilityConfig::new(campaign_dir("cp-ref")));
    let cfg = |dir: PathBuf| MultiPlatformConfig {
        tree_paging: Some(PagedConfig::new(&dir.join("pages"), 8, 2)),
        ..config(Some(DurabilityConfig {
            compact_ratio: 1,
            min_compact_wal_bytes: 1,
            ..DurabilityConfig::new(dir)
        }))
    };
    for k in 1..=ROUNDS {
        let dir = campaign_dir(&format!("cp-{k}"));
        {
            let mut p = MultiPlatform::new(&specs(&scs), cfg(dir.clone()));
            p.run(k as u32, EXECS);
        } // drop = kill
        let (mut resumed, report) = MultiPlatform::resume(&specs(&scs), cfg(dir)).unwrap();
        assert_eq!(report.target_round, k, "lost rounds at kill {k}");
        for sr in &report.shards {
            assert!(
                sr.chain.records > 0,
                "shard {} resumed without walking its chain",
                sr.shard
            );
        }
        for (shard, expected) in reference[k as usize].iter().enumerate() {
            assert_eq!(
                &resumed.shard_state(shard),
                expected,
                "shard {shard} diverged from the reference at round {k}"
            );
        }
        // The continuation replays the reference byte for byte, paging
        // and chains included.
        resumed.run((ROUNDS - k) as u32, EXECS);
        assert_eq!(resumed.history(), &ref_history[..]);
        for (shard, expected) in reference[ROUNDS as usize].iter().enumerate() {
            assert_eq!(&resumed.shard_state(shard), expected);
        }
        let stats = resumed.page_stats();
        assert_eq!(stats.pages_trusted, 0, "clean fleet adopted stale pages");
        assert!(stats.total_pages > 0, "paging never engaged: {stats:?}");
    }
}
