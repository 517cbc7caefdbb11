//! E21 — process-equivalent resume under an adversarial disk (this
//! repro): turn the fault searcher loose on the *recovery* path of the
//! sharded multi-program fleet. Where E16 replays a hand-written kill
//! matrix, E21 sweeps generated disk-fault plans — round-boundary
//! kills, journal/checkpoint-record sector rot — through kill → corrupt → scrub
//! → resume cycles and judges every cycle with the durable oracles:
//! scrub soundness (rot that changed stored bytes must be flagged) and
//! resume equivalence (a resumed fleet must match the uninterrupted
//! reference byte for byte, pods and history included).
//!
//! Four phases:
//!
//! * **A — clean sweep.** The unmodified platform digests a bounded
//!   disk-fault sweep with **zero** divergences: every kill resumes
//!   process-equivalent, every applied corruption is flagged.
//! * **B — scrub sweep.** Each corruption kind (bit flip, zeroed
//!   range, torn write) against each target (a journal that never
//!   compacts, a journal past its checkpoint's coverage, the head chain
//!   record) is injected explicitly; zero silent acceptances allowed,
//!   and damage past a checkpoint is repaired and re-converges.
//! * **C — canary detection.** Each recovery canary — a journal with
//!   its pod-state records stripped, a skipped scrub pass, a dropped
//!   chain delta — must be found, shrunk to a minimal plan, and pinned
//!   in the corpus.
//! * **D — corpus regression.** Every pinned entry replays exactly:
//!   same outcome digest, same final round, same oracle verdict.
//!
//! Merges its `e21` section into `BENCH_durability.json`, keeping every
//! other part of the file and writes the corpus under `--corpus DIR`
//! (default `target/e21-corpus`). `--smoke` shrinks budgets for CI;
//! `--seed N` (default 13) and `--budget N` override the sweep.

use softborg_bench::{arg_u64, banner, cell, table_header, write_json_part};
use softborg_netsim::{DiskCrashPoint, FaultPlan, SectorCorruption};
use softborg_search::{
    check_durable, replay_corpus, run_durable_search, DurableCanary, DurableSearchConfig,
    DurableWorkload, GenConfig,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn config(seed: u64, budget: u64, workload: DurableWorkload, dir: PathBuf) -> DurableSearchConfig {
    DurableSearchConfig {
        seed,
        budget,
        generator: GenConfig::disk_only(workload.rounds),
        workload,
        corpus_dir: Some(dir),
        registry: None,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = arg_u64("--seed", 13);
    let clean_budget = arg_u64("--budget", if smoke { 10 } else { 32 });
    let canary_budget = clean_budget.div_ceil(2);
    let corpus_root = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--corpus")
        .map(|w| PathBuf::from(&w[1]))
        .unwrap_or_else(|| PathBuf::from("target/e21-corpus"));

    banner(
        "E21",
        "resume + scrub under an adversarial disk: kills, bit rot, recovery oracles",
        "crash-only recovery discipline — the fault frontier extended to storage",
    );
    println!(
        "campaign: 3 fleets x 3 pods over 2 shards, 4 committed rounds\n\
         fault space: round-boundary kills, journal/checkpoint-record sector corruption\n\
         seed {seed} · clean budget {clean_budget} · per-canary budget {canary_budget}\n\
         corpus: {}\n",
        corpus_root.display()
    );

    // Stale entries from earlier runs would replay against today's
    // binary and muddy phase D; every run pins a fresh corpus.
    let _ = std::fs::remove_dir_all(&corpus_root);

    // ---- Phase A: the clean platform survives the disk sweep ----------
    let t = Instant::now();
    let clean = run_durable_search(&config(
        seed,
        clean_budget,
        DurableWorkload::default(),
        corpus_root.join("clean"),
    ))
    .expect("clean sweep runs");
    let clean_wall = t.elapsed().as_secs_f64();
    println!(
        "phase A: {} plans, {} campaigns, {} divergences in {clean_wall:.1}s",
        clean.plans_explored, clean.runs_executed, clean.divergences
    );
    assert_eq!(
        clean.divergences, 0,
        "clean platform diverged under disk faults: {:#?}",
        clean.minimized
    );

    // ---- Phase B: every corruption kind is caught, on every target ----
    println!("\nphase B: scrub sweep (explicit corruption matrix)");
    let kinds: [(&str, SectorCorruption); 3] = [
        ("flip_bit", SectorCorruption::FlipBit { bit: 137 }),
        ("zero_range", SectorCorruption::ZeroRange { sectors: 1 }),
        ("torn_write", SectorCorruption::TornWrite { keep_bytes: 65 }),
    ];
    let mut scrub_rows = Vec::new();
    let mut applied_total = 0u64;
    // Per target: the compaction ratio and the kill round. A journal
    // that never compacts holds every round from round 0; a checkpoint
    // target wants compaction on, so a chain record exists; and killed
    // after round 2 the compacting campaign's journal holds the round
    // past its checkpoint's coverage.
    let targets = [("wal", 0, 3), ("wal_live", 2, 2), ("chain", 2, 3)];
    for (kname, kind) in kinds {
        for (tname, compact_ratio, round) in targets {
            let workload = DurableWorkload {
                compact_ratio,
                ..DurableWorkload::default()
            };
            let point = if tname == "chain" {
                DiskCrashPoint::CorruptChainRecord {
                    back: 0,
                    sector: 0,
                    kind,
                }
            } else {
                DiskCrashPoint::CorruptWal { sector: 1, kind }
            };
            let plan = FaultPlan {
                disk: vec![DiskCrashPoint::AtRoundBoundary { round }, point],
                ..FaultPlan::default()
            };
            let out = workload.run(&plan);
            assert!(
                out.corruptions_applied >= 1,
                "{kname}/{tname} corruption was a no-op: {out:?}"
            );
            assert_eq!(
                check_durable(&out),
                None,
                "{kname}/{tname} tripped an oracle: {out:?}"
            );
            applied_total += out.corruptions_applied;
            scrub_rows.push((kname, tname, out));
        }
    }
    table_header(&[
        ("kind", 12),
        ("target", 10),
        ("applied", 9),
        ("outcome", 24),
        ("resumed", 8),
    ]);
    for (kname, tname, out) in &scrub_rows {
        println!(
            "{}{}{}{}{}",
            cell(*kname, 12),
            cell(*tname, 10),
            cell(out.corruptions_applied, 9),
            cell(
                out.aborted
                    .as_deref()
                    .map_or("repaired, re-converged", |_| "refused loudly"),
                24
            ),
            cell(out.last_resume.map_or("-".into(), |r| format!("r{r}")), 8),
        );
    }
    // A journal repair that re-converges: resumed past round 0.
    let reconverged = (scrub_rows.iter())
        .filter(|(_, t, out)| *t == "wal_live" && out.aborted.is_none())
        .filter(|(.., out)| out.last_resume.is_some_and(|r| r > 0))
        .count();
    assert!(
        reconverged > 0,
        "no journal repair past a checkpoint re-converged"
    );
    println!(
        "  {applied_total} corruptions applied, 0 silently accepted; \
         {reconverged} journal repair(s) past a checkpoint re-converged"
    );

    // ---- Phase C: every armed canary is found, shrunk, pinned ---------
    println!("\nphase C: recovery-canary detection");
    table_header(&[
        ("canary", 18),
        ("found", 7),
        ("oracle", 20),
        ("w_orig", 8),
        ("w_min", 7),
        ("steps", 7),
        ("first", 7),
    ]);
    let mut canary_rows = Vec::new();
    for canary in DurableCanary::ALL {
        let t = Instant::now();
        let report = run_durable_search(&config(
            seed,
            canary_budget,
            DurableWorkload::with_canary(canary),
            corpus_root.join(canary.name()),
        ))
        .expect("canary sweep runs");
        let wall = t.elapsed().as_secs_f64();
        assert!(
            report.divergences >= 1,
            "canary {} went undetected in {canary_budget} cases",
            canary.name()
        );
        let f = report
            .minimized
            .iter()
            .min_by_key(|f| f.minimal.weight())
            .expect("at least one minimized failure");
        assert!(
            f.minimal.weight() <= f.original.weight(),
            "shrinking made the plan heavier"
        );
        assert!(
            !report.corpus_written.is_empty(),
            "canary {} produced no corpus entry",
            canary.name()
        );
        println!(
            "{}{}{}{}{}{}{}",
            cell(canary.name(), 18),
            cell(
                format!("{}/{}", report.divergences, report.plans_explored),
                7
            ),
            cell(&f.oracle, 20),
            cell(f.original.weight(), 8),
            cell(f.minimal.weight(), 7),
            cell(f.shrink_steps, 7),
            cell(
                report
                    .cases_to_first_failure
                    .map_or(String::from("-"), |n| n.to_string()),
                7
            ),
        );
        canary_rows.push((canary, report, wall));
    }

    // ---- Phase D: the corpus replays as a regression suite ------------
    println!("\nphase D: corpus regression replay");
    let mut replayed = 0u64;
    for canary in DurableCanary::ALL {
        let rep = replay_corpus(&corpus_root.join(canary.name())).expect("corpus loads");
        assert!(
            rep.failures.is_empty(),
            "corpus entries stopped reproducing: {:#?}",
            rep.failures
        );
        println!(
            "  {}: {} entr(y|ies) replayed exactly",
            canary.name(),
            rep.replayed
        );
        replayed += rep.replayed;
    }
    assert!(
        replayed >= 2,
        "every durable canary must pin at least one entry"
    );

    // ---- JSON ----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "    \"experiment\": \"E21 resume + scrub search\", \"seed\": {seed}, \"smoke\": {smoke},"
    );
    let _ = writeln!(
        json,
        "    \"clean\": {{\"budget\": {}, \"campaigns\": {}, \"divergences\": {}, \"wall_seconds\": {clean_wall:.3}}},",
        clean.plans_explored, clean.runs_executed, clean.divergences
    );
    let _ = writeln!(
        json,
        "    \"scrub_sweep\": {{\"points\": {}, \"applied\": {applied_total}, \"silent\": 0, \"wal_repairs_reconverged\": {reconverged}}},",
        scrub_rows.len()
    );
    let _ = writeln!(json, "    \"canaries\": [");
    for (i, (canary, report, wall)) in canary_rows.iter().enumerate() {
        let f = report
            .minimized
            .iter()
            .min_by_key(|f| f.minimal.weight())
            .expect("minimized");
        let _ = writeln!(
            json,
            "      {{\"canary\": \"{}\", \"budget\": {}, \"divergences\": {}, \"oracle\": \"{}\", \"original_weight\": {}, \"minimal_weight\": {}, \"shrink_steps\": {}, \"cases_to_first_failure\": {}, \"corpus_entries\": {}, \"wall_seconds\": {wall:.3}}}{}",
            canary.name(),
            report.plans_explored,
            report.divergences,
            f.oracle,
            f.original.weight(),
            f.minimal.weight(),
            f.shrink_steps,
            report
                .cases_to_first_failure
                .map_or(String::from("null"), |n| n.to_string()),
            report.corpus_written.len(),
            if i + 1 == canary_rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"corpus_replayed\": {replayed}");
    json.push_str("  }");
    write_json_part(
        "BENCH_durability.json",
        &format!("{{\n  \"e21\": {json}\n}}\n"),
    );
    println!(
        "\nexpected shape: the clean sweep finds nothing (every kill resumes\n\
         process-equivalent, every rot is flagged); each recovery canary is\n\
         caught and shrunk to a near-minimal plan; the corpus replays green."
    );
}
