//! E22 — storage at scale: delta-snapshot chains, judged on the claim
//! the softborg-store subsystem makes.
//!
//! **Chains cut the compaction stall from O(hive) to O(changes).** A
//! campaign checkpoints after every round, and its steady-state
//! checkpoint **bytes** (the deterministic stall proxy
//! `RoundTelemetry::checkpoint_bytes`) must be ≥5× smaller than the
//! encoded hive state a full checkpoint would carry at the same rounds
//! (a lower bound on a full record: it also holds app-meta). Wall stall
//! percentiles are reported alongside, informationally. A kill + resume
//! at the end must rebuild the uninterrupted hive state byte for byte.
//!
//! **A durable round writes what changed, at any campaign age.** The
//! age row runs the benchmark's `fleet_durable` fleet (four programs ×
//! 10 pods × 30 execs, two shards, the default `DurabilityConfig`) and
//! drops and resumes it at the end of every age bucket. Per bucket it
//! reports the checkpoints written and their mean payload bytes, the
//! journal bytes a round appends (`RoundTelemetry::journal_bytes`) and
//! the median of five resumes; the last bucket's checkpoint and journal
//! bytes must be within 1.25× of the first's.
//!
//! Merges its `e22` section into `BENCH_durability.json`, keeping every
//! other part of the file. `--smoke` shrinks both campaigns
//! for CI and lowers the ratio bar to 2× (a short campaign's hive
//! never outgrows the delta floor); `--seed N` reseeds the chain
//! campaign (default 37).

use softborg::{
    DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig, Platform, PlatformConfig,
};
use softborg_bench::{arg_u64, banner, cell, table_header, write_json_part};
use softborg_program::scenarios::{self, Scenario};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const PODS: u32 = 8;
const EXECS: u32 = 10;

fn config(s: &Scenario, seed: u64, durability: Option<DurabilityConfig>) -> PlatformConfig {
    PlatformConfig {
        n_pods: PODS,
        pod: softborg::pod::PodConfig {
            input_range: s.input_range,
            ..softborg::pod::PodConfig::default()
        },
        seed,
        durability,
        ..PlatformConfig::default()
    }
}

/// Durability with auto-compaction off: the bench drives one explicit
/// [`Platform::checkpoint`] after every round. Under that schedule the
/// periodic rebase is the only O(hive) write left; a higher rebase
/// ratio keeps rebases rare enough to amortize while the chain stays
/// short enough to replay on resume.
fn every_round(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 0,
        rebase_ratio: 16,
        ..DurabilityConfig::new(dir)
    }
}

/// Mean checkpoint bytes plus p50/p99 pause (us) over the campaign's
/// second half — the steady state, after the hive has outgrown a
/// round's churn. Each sample is one explicit checkpoint's
/// `(bytes_written, pause_ns)`.
fn steady_stats(gens: &[(u64, u64)]) -> (f64, f64, f64) {
    let half = &gens[gens.len() / 2..];
    let mean_bytes = half.iter().map(|(b, _)| *b).sum::<u64>() as f64 / half.len().max(1) as f64;
    let mut ns: Vec<u64> = half.iter().map(|(_, n)| *n).collect();
    ns.sort_unstable();
    if ns.is_empty() {
        return (mean_bytes, 0.0, 0.0);
    }
    let pct = |p: usize| ns[(ns.len() - 1) * p / 100] as f64 / 1e3;
    (mean_bytes, pct(50), pct(99))
}

/// One age bucket of the `fleet_durable` campaign.
struct AgeBucket {
    first: u64,
    last: u64,
    checkpoints: usize,
    mean_ckpt_bytes: f64,
    journal_bytes_per_round: f64,
    resume_ms: f64,
}

/// Runs `fleet_durable`'s fleet for `buckets × per_bucket` rounds,
/// dropping and resuming it after each bucket.
fn age_rows(buckets: u64, per_bucket: u32, dir: PathBuf) -> Vec<AgeBucket> {
    let mut scs = [
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::short_read_client(),
        scenarios::bank_transfer(),
    ];
    scs.sort_by_key(|s| s.program.id());
    let specs: Vec<FleetSpec<'_>> = scs
        .iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: softborg::pod::PodConfig {
                input_range: s.input_range,
                ..softborg::pod::PodConfig::default()
            },
        })
        .collect();
    let config = MultiPlatformConfig {
        n_pods: 10,
        n_shards: 2,
        seed: 1,
        durability: Some(DurabilityConfig::new(dir)),
        ..MultiPlatformConfig::default()
    };
    let mut p = MultiPlatform::new(&specs, config.clone());
    let mut rows = Vec::new();
    for _ in 0..buckets {
        let first = p.committed_rounds();
        p.run(per_bucket, 30);
        // A resumed process keeps telemetry for its own rounds only.
        let tel = p.round_telemetry();
        let tel = &tel[tel.len() - per_bucket as usize..];
        let ckpts: Vec<u64> = tel
            .iter()
            .filter(|t| t.compacted)
            .map(|t| t.checkpoint_bytes)
            .collect();
        let journal: u64 = tel.iter().map(|t| t.journal_bytes).sum();
        let last = p.committed_rounds();
        // The median of five resumes: each one is a single wall sample.
        let mut resumes = Vec::new();
        for _ in 0..5 {
            drop(p);
            let t = Instant::now();
            p = MultiPlatform::resume(&specs, config.clone())
                .expect("fleet resume")
                .0;
            resumes.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(p.committed_rounds(), last, "resume lost rounds");
        }
        resumes.sort_by(f64::total_cmp);
        let resume_ms = resumes[2];
        rows.push(AgeBucket {
            first: first + 1,
            last,
            checkpoints: ckpts.len(),
            mean_ckpt_bytes: ckpts.iter().sum::<u64>() as f64 / ckpts.len().max(1) as f64,
            journal_bytes_per_round: journal as f64 / f64::from(per_bucket),
            resume_ms,
        });
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = arg_u64("--seed", 37);
    let rounds = arg_u64("--rounds", if smoke { 16 } else { 60 });

    banner(
        "E22",
        "storage at scale: delta-snapshot chains",
        "checkpoint O(changes) not O(hive)",
    );
    println!(
        "campaign: {PODS} pods x {EXECS} execs/round, {rounds} rounds, checkpoint every round\n"
    );

    // record_processor grows the largest execution tree of the scenario
    // set — the regime where checkpoint cost is hive-dominated and the
    // O(changes)-vs-O(hive) gap is visible.
    let s = scenarios::record_processor();
    let base = std::env::temp_dir().join(format!("softborg-e22-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // What a checkpoint writes vs the hive it protects.
    let mut chained = Platform::new(
        &s.program,
        config(&s, seed, Some(every_round(base.join("chained")))),
    );
    let mut chain_gens: Vec<(u64, u64)> = Vec::new();
    let mut state_bytes: Vec<u64> = Vec::new();
    for _ in 0..rounds {
        chained.round(EXECS);
        state_bytes.push(chained.hive_state().len() as u64);
        let t = Instant::now();
        let b = chained.checkpoint().expect("chained checkpoint");
        chain_gens.push((b, t.elapsed().as_nanos() as u64));
    }
    let (chain_bytes, chain_p50, chain_p99) = steady_stats(&chain_gens);
    let steady_states = &state_bytes[state_bytes.len() / 2..];
    let full_bytes = steady_states.iter().sum::<u64>() as f64 / steady_states.len().max(1) as f64;
    let ratio = full_bytes / chain_bytes.max(1.0);
    // A delta checkpoint has a floor (one round's churn + pod images);
    // the gap widens as the hive grows past it. The smoke campaign is
    // too short to clear 5x, so it gets a reduced bar.
    let ratio_bar = if smoke { 2.0 } else { 5.0 };

    table_header(&[
        ("checkpoint", 12),
        ("B (steady)", 12),
        ("stall p50 us", 13),
        ("stall p99 us", 13),
    ]);
    println!(
        "{}{}{}{}",
        cell("full >=", 12),
        cell(format!("{full_bytes:.0}"), 12),
        cell("-", 13),
        cell("-", 13),
    );
    println!(
        "{}{}{}{}",
        cell("chained", 12),
        cell(format!("{chain_bytes:.0}"), 12),
        cell(format!("{chain_p50:.1}"), 13),
        cell(format!("{chain_p99:.1}"), 13),
    );
    println!(
        "steady-state hive state / checkpoint bytes: {ratio:.1}x (acceptance: >= {ratio_bar}x)\n"
    );

    // Kill + resume at the end: the chain is a real checkpoint lineage,
    // not just cheaper writes.
    let final_state = chained.hive_state();
    drop(chained);
    let (from_chain, rep) = Platform::resume(
        &s.program,
        config(&s, seed, Some(every_round(base.join("chained")))),
    )
    .expect("chained resume");
    assert_eq!(from_chain.committed_rounds(), rounds);
    assert_eq!(
        from_chain.hive_state(),
        final_state,
        "chain resume diverged from the uninterrupted run"
    );
    println!(
        "resume: byte-identical at round {rounds}; chain walked gen {:?}..{:?} \
         ({} delta(s) applied)\n",
        rep.shards[0].chain.full_generation,
        rep.shards[0].chain.head_generation,
        rep.shards[0].chain_deltas_applied
    );

    // The age row: what a durable round writes, bucket by bucket.
    let (buckets, per_bucket) = if smoke { (4, 40) } else { (8, 500) };
    println!(
        "age: fleet_durable's fleet, {buckets} buckets of {per_bucket} rounds, \
         dropped and resumed after each\n"
    );
    let ages = age_rows(buckets, per_bucket, base.join("age"));
    table_header(&[
        ("rounds", 14),
        ("ckpts", 7),
        ("mean ckpt B", 13),
        ("journal B/rd", 14),
        ("resume ms", 11),
    ]);
    for a in &ages {
        println!(
            "{}{}{}{}{}",
            cell(format!("{}-{}", a.first, a.last), 14),
            cell(a.checkpoints, 7),
            cell(format!("{:.0}", a.mean_ckpt_bytes), 13),
            cell(format!("{:.0}", a.journal_bytes_per_round), 14),
            cell(format!("{:.2}", a.resume_ms), 11),
        );
    }
    let (young, old) = (&ages[0], &ages[ages.len() - 1]);
    let ckpt_age = old.mean_ckpt_bytes / young.mean_ckpt_bytes.max(1.0);
    let journal_age = old.journal_bytes_per_round / young.journal_bytes_per_round.max(1.0);
    println!(
        "last / first bucket: checkpoint bytes {ckpt_age:.2}x, journal bytes {journal_age:.2}x \
         (acceptance: <= 1.25x each)\n"
    );

    let pass = ratio >= ratio_bar;
    let age_pass = ckpt_age <= 1.25 && journal_age <= 1.25;
    println!(
        "acceptance: checkpoint bytes >= {ratio_bar}x below the hive state — {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!(
        "acceptance: checkpoint and journal bytes flat in campaign age — {}",
        if age_pass { "PASS" } else { "FAIL" }
    );

    // ── JSON: merge an \"e22\" section into BENCH_durability.json ──────
    let mut section = String::from("{\n");
    let _ = writeln!(
        section,
        "    \"experiment\": \"E22 store scale\", \"seed\": {seed}, \"smoke\": {smoke}, \"rounds\": {rounds},"
    );
    let _ = writeln!(
        section,
        "    \"chain\": {{\"full_state_bytes\": {full_bytes:.0}, \"chain_ckpt_bytes\": {chain_bytes:.0}, \"ratio\": {ratio:.2}, \"chain_stall_p50_us\": {chain_p50:.1}, \"chain_stall_p99_us\": {chain_p99:.1}, \"deltas_applied_on_resume\": {}}},",
        rep.shards[0].chain_deltas_applied
    );
    let rows: Vec<String> = ages
        .iter()
        .map(|a| {
            format!(
                "{{\"rounds\": \"{}-{}\", \"checkpoints\": {}, \"mean_ckpt_bytes\": {:.0}, \"journal_bytes_per_round\": {:.0}, \"resume_ms\": {:.2}}}",
                a.first, a.last, a.checkpoints, a.mean_ckpt_bytes, a.journal_bytes_per_round, a.resume_ms
            )
        })
        .collect();
    let _ = writeln!(
        section,
        "    \"age\": {{\"fleet\": \"fleet_durable\", \"buckets\": [\n      {}\n    ], \"ckpt_bytes_last_over_first\": {ckpt_age:.3}, \"journal_bytes_last_over_first\": {journal_age:.3}}},",
        rows.join(",\n      ")
    );
    let _ = writeln!(section, "    \"all_ok\": {}", pass && age_pass);
    section.push_str("  }");

    write_json_part(
        "BENCH_durability.json",
        &format!("{{\n  \"e22\": {section}\n}}\n"),
    );

    let _ = std::fs::remove_dir_all(&base);
    assert!(pass && age_pass, "E22 acceptance failed: see tables above");
}
