//! E16 — crash-only durability of the hive platform: run a long durable
//! campaign, kill the process at **every** round boundary and at
//! arbitrary on-disk crash points (torn journal tails, flipped bits,
//! flipped, zeroed, and torn delta-chain checkpoint records, the
//! append/truncate window), and verify that every recovery lands on hive
//! state **byte-identical** to the uninterrupted run at the recovered
//! round — while compaction keeps the journal below `compact_ratio ×`
//! the newest full checkpoint's payload.
//!
//! Merges its fields into `BENCH_durability.json` in the current
//! directory, keeping E21's and E22's sections.
//! `--seed N` reseeds the platform campaign (default 29).

use softborg::store::chain::decode_record;
use softborg::{DurabilityConfig, DurabilityError, Platform, PlatformConfig};
use softborg_bench::{arg_seed, banner, cell, table_header, write_json_part};
use softborg_netsim::{DiskCrashPoint, FaultPlan, SectorCorruption};
use softborg_program::scenarios::{self, Scenario};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const ROUNDS: u64 = 50;
const PODS: u32 = 8;
const EXECS: u32 = 10;
const COMPACT_RATIO: u64 = 3;
const MIN_COMPACT_BYTES: u64 = 8 * 1024;

fn config(s: &Scenario, dir: PathBuf, seed: u64) -> PlatformConfig {
    PlatformConfig {
        n_pods: PODS,
        pod: softborg::pod::PodConfig {
            input_range: s.input_range,
            ..softborg::pod::PodConfig::default()
        },
        seed,
        durability: Some(DurabilityConfig {
            compact_ratio: COMPACT_RATIO,
            min_compact_wal_bytes: MIN_COMPACT_BYTES,
            ..DurabilityConfig::new(dir)
        }),
        ..PlatformConfig::default()
    }
}

/// Clones a campaign directory (`shard-0/` with its journal and
/// `chain/`): the on-disk state a kill at this moment would leave
/// behind.
fn copy_campaign(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read campaign dir") {
        let e = entry.expect("dir entry");
        if e.path().is_dir() {
            copy_campaign(&e.path(), &to.join(e.file_name()));
        } else {
            std::fs::copy(e.path(), to.join(e.file_name())).expect("copy campaign file");
        }
    }
}

/// The one shard's directory: where its journal and chain live.
fn shard0(dir: &Path) -> PathBuf {
    dir.join("shard-0")
}

/// The campaign's chain record files, oldest generation first.
fn chain_records(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(shard0(dir).join("chain"))
        .map(|entries| entries.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|x| x == "full" || x == "delta"));
    files.sort();
    files
}

/// Payload bytes of the newest full chain record: what the compaction
/// rule weighs the journal against.
fn newest_full_payload(dir: &Path) -> u64 {
    chain_records(dir)
        .iter()
        .rev()
        .find(|p| p.extension().is_some_and(|x| x == "full"))
        .and_then(|p| std::fs::read(p).ok())
        .and_then(|b| decode_record(&b).ok().map(|d| d.payload.len() as u64))
        .unwrap_or(0)
}

fn flip_bit(path: &Path, byte: usize) {
    let mut bytes = std::fs::read(path).expect("read for flip");
    if bytes.is_empty() {
        return;
    }
    let at = byte % bytes.len();
    bytes[at] ^= 0x10;
    std::fs::write(path, bytes).expect("write flipped");
}

fn corrupt_sector(path: &Path, sector: u64, kind: SectorCorruption) {
    let Ok(mut bytes) = std::fs::read(path) else {
        return;
    };
    if kind.apply(&mut bytes, sector) {
        std::fs::write(path, bytes).expect("write corrupted sector");
    }
}

fn truncate_file(path: &Path, keep: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    f.set_len(keep).expect("truncate");
}

struct CrashRow {
    boundary: u64,
    point: String,
    /// `None` when the resume refused over committed rounds it lost.
    recovered_rounds: Option<u64>,
    replayed: u64,
    discarded: u64,
    /// Rounds the files show committed that the resume does not reach
    /// (`None` with the refusal).
    rounds_lost: Option<u64>,
    identical: bool,
}

fn main() {
    let seed = arg_seed(29);
    banner(
        "E16",
        "crash-only durable hive: kill/restart at every round boundary + disk crash points",
        "crash-only software lineage (Candea/Fox) applied to the §3 hive: recovery is the startup path",
    );
    println!(
        "setup: {PODS} pods x {EXECS} execs/round, {ROUNDS}-round durable campaign, WAL + fsync"
    );
    println!(
        "per round, compaction at {COMPACT_RATIO}x the newest full checkpoint (min {MIN_COMPACT_BYTES} B),"
    );
    println!("checksummed delta-chain checkpoints with lineage fallback.\n");

    let s = scenarios::token_parser();
    let base = std::env::temp_dir().join(format!("softborg-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let ref_dir = base.join("reference");
    std::fs::create_dir_all(&ref_dir).expect("mkdir reference");

    // ── Phase 1: the uninterrupted reference run ─────────────────────
    // After every round, record the hive state (the byte-identity
    // target) and clone the campaign directory (the disk image a kill
    // at that boundary would leave).
    let mut reference = Platform::new(&s.program, config(&s, ref_dir.clone(), seed));
    let mut states: Vec<Vec<u8>> = vec![reference.hive_state()];
    let mut compactions = 0u64;
    let mut max_ratio = 0.0f64;
    let mut wal_bounded = true;
    for k in 1..=ROUNDS {
        reference.round(EXECS);
        let wal = reference.wal_len().expect("durable");
        let full = newest_full_payload(&ref_dir);
        // Since pod state rides in every round commit, the journal can
        // cross the compaction threshold within a single round; count
        // compactions from the commit telemetry, not from observed
        // size decreases (a round that compacts leaves `wal == 0`).
        if reference
            .round_telemetry()
            .last()
            .is_some_and(|t| t.compacted)
        {
            compactions += 1;
        }
        if full > 0 {
            max_ratio = max_ratio.max(wal as f64 / full as f64);
        }
        // The compaction contract: a post-round journal either just
        // compacted (empty) or sits below the trigger threshold.
        if wal >= MIN_COMPACT_BYTES.max(COMPACT_RATIO * full) {
            wal_bounded = false;
        }
        states.push(reference.hive_state());
        copy_campaign(&ref_dir, &base.join(format!("boundary-{k}")));
    }
    // Compaction stall percentiles: the wall-clock pause each checkpoint
    // cost the committing round.
    let mut stalls_ns: Vec<u64> = reference
        .round_telemetry()
        .iter()
        .filter(|t| t.compacted)
        .map(|t| t.checkpoint_ns)
        .collect();
    stalls_ns.sort_unstable();
    let pct = |p: usize| -> u64 {
        if stalls_ns.is_empty() {
            0
        } else {
            stalls_ns[(stalls_ns.len() - 1) * p / 100]
        }
    };
    let (stall_p50_us, stall_p99_us) = (pct(50) as f64 / 1e3, pct(99) as f64 / 1e3);
    let final_failures: u64 = reference.history().iter().map(|r| r.failures).sum();
    println!(
        "reference campaign: {ROUNDS} rounds, {} executions, {final_failures} failures,",
        reference
            .history()
            .iter()
            .map(|r| r.executions)
            .sum::<u64>()
    );
    println!(
        "{compactions} compactions, max journal/full-checkpoint ratio {max_ratio:.2} (bound {}) — {}",
        COMPACT_RATIO,
        if wal_bounded && compactions > 0 {
            "journal BOUNDED"
        } else {
            "journal UNBOUNDED"
        }
    );
    println!("compaction stall per checkpoint: p50 {stall_p50_us:.1}us, p99 {stall_p99_us:.1}us\n");

    // ── Phase 2: kill + restart at every round boundary ──────────────
    let mut boundary_identical = 0u64;
    let scratch = base.join("scratch");
    for k in 1..=ROUNDS {
        copy_campaign(&base.join(format!("boundary-{k}")), &scratch);
        let (resumed, report) = Platform::resume(&s.program, config(&s, scratch.clone(), seed))
            .expect("resume boundary");
        let shard = &report.shards[0];
        let ok = resumed.committed_rounds() == k
            && shard.rounds_from_snapshot + shard.rounds_replayed == k
            && resumed.hive_state() == states[k as usize];
        if ok {
            boundary_identical += 1;
        } else {
            println!("boundary {k}: DIVERGED ({report:?})");
        }
    }
    println!(
        "boundary kills: {boundary_identical}/{ROUNDS} recoveries byte-identical to the \
         uninterrupted run\n"
    );

    // ── Phase 3: disk crash points from the shared fault vocabulary ──
    // Deterministic xorshift stream for the "random byte offset" cases.
    let mut rng: u64 = 0xE16_D00D;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Checkpoint damage: the head record and the one before it, each
    // flipped, zeroed, and torn.
    let mut plan = FaultPlan::default();
    for back in [0, 1] {
        for kind in [
            SectorCorruption::FlipBit { bit: 64 },
            SectorCorruption::ZeroRange { sectors: 1 },
            SectorCorruption::TornWrite { keep_bytes: 250 },
        ] {
            plan.disk.push(DiskCrashPoint::CorruptChainRecord {
                back,
                sector: 0,
                kind,
            });
        }
    }
    plan.disk.push(DiskCrashPoint::BetweenRenameAndTruncate);
    for _ in 0..6 {
        plan.disk.push(DiskCrashPoint::TruncateWalTail {
            drop_bytes: next() % 4096,
        });
        plan.disk.push(DiskCrashPoint::FlipWalBit {
            back_offset: next() % 4096,
        });
        plan.disk.push(DiskCrashPoint::CorruptChainRecord {
            back: next() % 2,
            sector: next(),
            kind: SectorCorruption::FlipBit { bit: next() as u32 },
        });
        plan.disk.push(DiskCrashPoint::AtRoundBoundary {
            round: 1 + next() % ROUNDS,
        });
    }
    plan.validate(PODS + 1).expect("E16 fault plan is valid");

    table_header(&[
        ("boundary", 9),
        ("crash point", 34),
        ("recovered", 10),
        ("replayed", 9),
        ("discarded", 10),
        ("lost", 6),
        ("state", 10),
    ]);
    let mut rows: Vec<CrashRow> = Vec::new();
    for (i, point) in plan.disk.iter().enumerate() {
        // Spread the injections across the campaign, later boundaries
        // first so checkpoint cases hit multi-record chains.
        let boundary = match point {
            DiskCrashPoint::AtRoundBoundary { round } => *round,
            _ => ROUNDS - (i as u64 * 7) % ROUNDS,
        };
        copy_campaign(&base.join(format!("boundary-{boundary}")), &scratch);
        let wal = shard0(&scratch).join("hive.wal");
        match *point {
            DiskCrashPoint::AtRoundBoundary { .. } => {}
            DiskCrashPoint::TruncateWalTail { drop_bytes } => {
                let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
                truncate_file(&wal, len.saturating_sub(drop_bytes));
            }
            DiskCrashPoint::FlipWalBit { back_offset } => {
                let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
                if len > 0 {
                    flip_bit(&wal, (len.saturating_sub(1 + back_offset % len)) as usize);
                }
            }
            DiskCrashPoint::CorruptWal { sector, kind } => corrupt_sector(&wal, sector, kind),
            DiskCrashPoint::CorruptChainRecord { back, sector, kind } => {
                let records = chain_records(&scratch);
                if let Some(n) = records.len().checked_sub(1) {
                    let victim = &records[n - back as usize % records.len()];
                    corrupt_sector(victim, sector, kind);
                }
            }
            DiskCrashPoint::BetweenRenameAndTruncate => {
                // Reproduce the exact window: resume, append the new
                // checkpoint record, die before the journal truncate.
                let (mut p, _) = Platform::resume(&s.program, config(&s, scratch.clone(), seed))
                    .expect("resume for checkpoint");
                p.checkpoint_interrupted().expect("interrupted checkpoint");
            }
        }
        let resumed = Platform::resume(&s.program, config(&s, scratch.clone(), seed));
        let clean_kill = matches!(
            point,
            DiskCrashPoint::AtRoundBoundary { .. } | DiskCrashPoint::BetweenRenameAndTruncate
        );
        let label = format!("{point:?}");
        let (r, (replayed, discarded), rounds_lost, identical) = match resumed {
            Ok((resumed, report)) => {
                let r = resumed.committed_rounds();
                // The universal crash-only invariant: whatever the
                // damage, recovery lands on a state some uninterrupted
                // run actually had. Clean boundary kills and the
                // rename/truncate window lose nothing: recovery must
                // reach the kill round exactly.
                let identical =
                    resumed.hive_state() == states[r as usize] && (!clean_kill || r == boundary);
                let shard = &report.shards[0];
                (
                    Some(r),
                    (shard.rounds_replayed, shard.records_discarded),
                    Some(report.rounds_lost),
                    identical,
                )
            }
            // Damage that took the checkpoint after the journal was
            // compacted may refuse, naming the rounds, but never resume
            // at round 0 quietly.
            Err(DurabilityError::RoundsLost { .. }) if !clean_kill => (None, (0, 0), None, true),
            Err(e) => panic!("resume after {label}: {e}"),
        };
        println!(
            "{}{}{}{}{}{}{}",
            cell(boundary, 9),
            cell(&label[..label.len().min(33)], 34),
            cell(r.map_or("refused".into(), |r| format!("r{r}")), 10),
            cell(replayed, 9),
            cell(discarded, 10),
            cell(rounds_lost.map_or("-".into(), |n| n.to_string()), 6),
            cell(
                match (r, identical) {
                    (None, _) => "REFUSED",
                    (_, true) => "IDENTICAL",
                    (_, false) => "DIVERGED",
                },
                10
            ),
        );
        rows.push(CrashRow {
            boundary,
            point: label,
            recovered_rounds: r,
            replayed,
            discarded,
            rounds_lost,
            identical,
        });
    }

    let crashes_ok = rows.iter().all(|r| r.identical);
    let all_ok = crashes_ok && boundary_identical == ROUNDS && wal_bounded && compactions > 0;
    println!("\nacceptance: every kill/restart — all {ROUNDS} round boundaries plus every");
    println!(
        "disk crash point — recovers byte-identical state or refuses loudly over the rounds\n\
         it lost, journal stays bounded — {}",
        if all_ok { "PASS" } else { "FAIL" }
    );
    println!("\nexpected shape: boundary kills replay the journal suffix exactly; a");
    println!("rotten checkpoint record ends its lineage there (or falls back to the");
    println!("previous full's) and the now-disconnected journal suffix is discarded;");
    println!("torn journal tails are dropped at the last intact record; the");
    println!("append/truncate window never double-applies. The campaign itself never");
    println!("loses a committed round to compaction; damage that takes the only");
    println!("checkpoint after compaction is refused, never resumed at round 0.");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"e16_durability\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"scenario\": \"{}\", \"pods\": {PODS}, \"execs_per_round\": {EXECS}, \"rounds\": {ROUNDS}}},",
        s.name
    );
    let _ = writeln!(
        json,
        "  \"compaction\": {{\"ratio\": {COMPACT_RATIO}, \"min_wal_bytes\": {MIN_COMPACT_BYTES}, \"compactions\": {compactions}, \"max_wal_full_ratio\": {max_ratio:.3}, \"bounded\": {wal_bounded}, \"stall_p50_us\": {stall_p50_us:.1}, \"stall_p99_us\": {stall_p99_us:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"boundary_kills\": {{\"total\": {ROUNDS}, \"byte_identical\": {boundary_identical}}},"
    );
    let _ = writeln!(json, "  \"all_ok\": {all_ok},");
    json.push_str("  \"crash_points\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"boundary\": {}, \"point\": \"{}\", \"recovered_rounds\": {}, \"rounds_replayed\": {}, \"records_discarded\": {}, \"rounds_lost\": {}, \"state_identical\": {}}}",
            r.boundary,
            r.point.replace('"', "'"),
            r.recovered_rounds.map_or("null".into(), |r| r.to_string()),
            r.replayed,
            r.discarded,
            r.rounds_lost.map_or("null".into(), |n| n.to_string()),
            r.identical
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"note\": \"state compared byte-for-byte (serialized hive) against the uninterrupted run at the recovered round count; recovered_rounds null: the resume refused (RoundsLost) over committed rounds the damage lost; rounds_lost: the committed rounds the files show (the round log's, and 0..r for a round record r) that the resume does not reach, null with the refusal\"\n",
    );
    json.push_str("}\n");
    write_json_part("BENCH_durability.json", &json);
    let _ = std::fs::remove_dir_all(&base);
    assert!(all_ok, "E16 acceptance failed: see table above");
}
