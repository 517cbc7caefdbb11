//! The kill/resume checks on a three-fleet, two-shard [`MultiPlatform`]
//! campaign, plus the checks only a multi-fleet, multi-shard campaign
//! has. The shared checks run on the one-fleet `Platform` in
//! `tests/durability.rs`.
//!
//! [`MultiPlatform`]: softborg::MultiPlatform

mod campaign;

use campaign::*;

#[test]
fn kill_at_every_round_boundary_recovers_every_shard_byte_identically() {
    check_kill_recovers_state(Kind::Fleet);
}

#[test]
fn kill_at_every_round_boundary_restores_every_fleet_pod_mid_stream() {
    check_kill_restores_pods(Kind::Fleet);
}

#[test]
fn shard_compaction_composes_with_resume() {
    check_compaction_bounds_journal(Kind::Fleet);
}

#[test]
fn chained_fleet_resumes_process_equivalent_across_shards() {
    check_chained_resume(Kind::Fleet);
}

#[test]
fn crash_between_shard_fsyncs_rolls_back_to_the_minimum_committed_round() {
    // Needs two shards: the one-shard campaign has no "between".
    let kind = Kind::Fleet;
    let scs = kind.scenarios();
    let r = reference(kind, &scs, uncompacted(campaign_dir(kind, "torn-ref")));
    let dir = campaign_dir(kind, "torn");
    let setup = Setup::durable(uncompacted(dir.clone()));
    kind.start(&scs, &setup).run(ROUNDS);
    // A crash inside phase A of the final round's commit: one shard's
    // journal loses the tail of its last append (the closing round
    // record), so that shard never committed the round while its peer
    // did.
    let victim = shard_dir(&dir, 0).join("hive.wal");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 5]).unwrap();

    let (resumed, report) = kind.resume(&scs, &setup).unwrap();
    // The final round was never acked; the campaign's truth is the
    // minimum committed round, and the shard that got ahead is truncated
    // back to it.
    assert_eq!(report.target_round, ROUNDS - 1);
    assert_eq!(resumed.committed(), ROUNDS - 1);
    assert!(
        report.shards[1].records_discarded > 0,
        "the shard that got ahead kept its unacked round: {report:?}"
    );
    assert_eq!(resumed.states(), r.states[(ROUNDS - 1) as usize]);
    // A second resume is clean: the truncation is durable.
    drop(resumed);
    let (again, report) = kind.resume(&scs, &setup).unwrap();
    assert_eq!(report.target_round, ROUNDS - 1);
    for sr in &report.shards {
        assert_eq!((sr.records_discarded, sr.wal_tail_dropped), (0, 0));
    }
    assert_eq!(again.committed(), ROUNDS - 1);
}

#[test]
fn multi_round_runs_every_fleet_through_the_shared_pool() {
    let scs = Kind::Fleet.scenarios();
    let Run::Fleet(mut p) = Kind::Fleet.start(&scs, &Setup::default()) else {
        unreachable!()
    };
    let report = p.round(EXECS);
    assert_eq!(report.programs.len(), scs.len());
    for pr in &report.programs {
        assert_eq!(pr.executions, 4 * u64::from(EXECS));
    }
    let total: u64 = report.programs.iter().map(|p| p.executions).sum();
    assert_eq!(report.executions, total);
    let stats = p.last_run().expect("round ran the sharded pipeline");
    assert_eq!(stats.frames_corrupt, 0);
    assert_eq!(stats.frames_rerouted, 0);
    assert_eq!(stats.frames_unknown_program, 0);
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.traces_merged, report.executions);
    // Every fleet's traffic reached its own hive, and its report slice
    // reads that hive.
    for (id, hive) in p.sharded().hives() {
        let pr = report
            .programs
            .iter()
            .find(|pr| pr.program == id.0)
            .unwrap();
        assert_eq!(hive.stats().traces, pr.executions);
        assert_eq!(hive.stats().unreconstructed, 0);
        assert_eq!(hive.coverage(), pr.coverage);
        assert_eq!(hive.proofs().len() as u64, pr.proofs);
    }
    assert_eq!(p.run(2, EXECS).len(), 3);
}

#[test]
fn multi_rounds_are_deterministic_across_identical_runs() {
    let scs = Kind::Fleet.scenarios();
    let mut a = Kind::Fleet.start(&scs, &Setup::default());
    let mut b = Kind::Fleet.start(&scs, &Setup::default());
    a.run(2);
    b.run(2);
    assert_eq!(a.history(), b.history());
    assert_eq!(a.states(), b.states());
}
