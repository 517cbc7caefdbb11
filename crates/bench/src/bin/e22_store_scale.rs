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
//! Merges its `e22` section into `BENCH_durability.json`, keeping every
//! other part of the file. `--smoke` shrinks the campaign
//! for CI and lowers the ratio bar to 2× (a short campaign's hive
//! never outgrows the delta floor); `--seed N` reseeds it (default 37).

use softborg::{DurabilityConfig, Platform, PlatformConfig};
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

    let pass = ratio >= ratio_bar;
    println!(
        "acceptance: checkpoint bytes >= {ratio_bar}x below the hive state — {}",
        if pass { "PASS" } else { "FAIL" }
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
    let _ = writeln!(section, "    \"all_ok\": {pass}");
    section.push_str("  }");

    write_json_part(
        "BENCH_durability.json",
        &format!("{{\n  \"e22\": {section}\n}}\n"),
    );

    let _ = std::fs::remove_dir_all(&base);
    assert!(pass, "E22 acceptance failed: see tables above");
}
