//! The second judged campaign: a sharded multi-program fleet that is
//! killed at round boundaries, bit-rotted on disk, scrubbed, and
//! resumed. Where [`crate::workload::Workload`] aims the oracles at the
//! ingest path under network faults, this module aims them at the
//! *recovery* path under disk faults — the crash-only discipline says
//! recovery is the normal startup path, so it deserves the same
//! adversarial search as the happy path.
//!
//! A [`FaultPlan`]'s `disk` points drive the campaign:
//!
//! * [`DiskCrashPoint::AtRoundBoundary`] — kill the whole fleet after
//!   that committed round, then scrub and resume.
//! * [`DiskCrashPoint::CorruptWal`] / [`DiskCrashPoint::CorruptChainRecord`]
//!   — while the fleet is down, rot a sector of a shard's journal or of
//!   one of its checkpoint records (bit flip, zeroed range, torn write).
//!   Corruption points with no kill of their own attach to a synthetic
//!   mid-campaign kill.
//!
//! The oracle ladder judging the outcome (see [`check_durable`]): every
//! corruption that changed stored bytes must be flagged by the scrub
//! pass ([`OracleFailure::ScrubSilent`] otherwise); a resume may refuse
//! but never return at round 0 over committed rounds
//! ([`OracleFailure::ColdStartOverCampaign`]); a rebuild whose shard
//! state differs from the reference — the state came out of the delta
//! chain — is a [`OracleFailure::DeltaChainDivergence`]; and every
//! resumed fleet must otherwise be process-equivalent to an
//! uninterrupted reference run — same shard states, same pod
//! populations (RNG streams, repair-lab corpora), same round history
//! ([`OracleFailure::ResumeDivergence`] otherwise).
//! Network-level plan knobs are inert here; the shrinker strips them
//! from any minimized plan.

use crate::oracle::OracleFailure;
use softborg::store::chain::encode_record;
use softborg::store::ChainStore;
use softborg::{DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig};
use softborg_hive::journal::{self, REC_PODS};
use softborg_hive::HiveSnapshot;
use softborg_netsim::{DiskCrashPoint, FaultPlan, SectorCorruption, SECTOR_BYTES};
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_pod::{PodConfig, PodState};
use softborg_program::scenarios::{self, Scenario};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// An intentionally planted recovery bug, armed by tests and benches to
/// prove the durable campaign's oracles can see. Each fires only at a
/// kill, a scrub or a resume, injected by the harness at the storage
/// boundary or through a planted recovery seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableCanary {
    /// Strip every `REC_PODS` record from each shard journal at every
    /// kill: the platform before durable pods existed. Resume then
    /// silently rebuilds pods from derived seeds mid-stream, which
    /// [`OracleFailure::ResumeDivergence`] must catch. Arm it on a
    /// campaign with compaction disabled so pod states live only in the
    /// journal ([`DurableWorkload::with_canary`] does this).
    ForgetPodState,
    /// Skip the scrub pass entirely: injected rot reaches resume
    /// unflagged, which [`OracleFailure::ScrubSilent`] must catch.
    BlindScrub,
    /// At every kill, drop each shard's newest chain record but keep its
    /// metadata on the record before it: resume rebuilds state one
    /// checkpoint stale. The chain stays checksummed and linked — nothing
    /// for a scrubber to flag — which is why
    /// [`OracleFailure::DeltaChainDivergence`] needs its own rung.
    SkipDelta,
}

impl DurableCanary {
    /// Every canary, for sweep-all benches.
    pub const ALL: [DurableCanary; 3] = [
        DurableCanary::ForgetPodState,
        DurableCanary::BlindScrub,
        DurableCanary::SkipDelta,
    ];

    /// Stable name (corpus entries, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            DurableCanary::ForgetPodState => "forget_pod_state",
            DurableCanary::BlindScrub => "blind_scrub",
            DurableCanary::SkipDelta => "skip_delta",
        }
    }

    /// Inverse of [`DurableCanary::name`].
    pub fn parse(s: &str) -> Option<Self> {
        DurableCanary::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// The durable campaign's workload: which fleets run, for how many
/// rounds, under which compaction policy. Everything is plain data so
/// corpus entries can embed and replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableWorkload {
    /// Scenario indices, one fleet each (same `% 4` mapping as
    /// [`crate::workload::Workload`]).
    pub scenarios: Vec<u32>,
    /// Hive shards.
    pub shards: usize,
    /// Pods per fleet.
    pub pods: u32,
    /// Committed rounds in a full campaign.
    pub rounds: u64,
    /// Executions per pod per round.
    pub execs: u32,
    /// Master platform seed.
    pub seed: u64,
    /// Checkpoint compaction ratio (`0` disables compaction).
    pub compact_ratio: u64,
    /// Journal size below which compaction never triggers.
    pub min_compact_wal_bytes: u64,
    /// Armed recovery canary, if any.
    pub canary: Option<DurableCanary>,
}

impl Default for DurableWorkload {
    fn default() -> Self {
        DurableWorkload {
            scenarios: vec![0, 1, 2],
            shards: 2,
            pods: 3,
            rounds: 4,
            execs: 6,
            seed: 41,
            compact_ratio: 2,
            min_compact_wal_bytes: 1024,
            canary: None,
        }
    }
}

/// What one durable campaign run observed — the raw material the
/// durable oracles judge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableOutcome {
    /// Digest over final shard states + round history (plus failure
    /// descriptions), pinned by corpus entries.
    pub digest: u64,
    /// Committed rounds when the campaign ended.
    pub rounds: u64,
    /// Fleet kills executed.
    pub kills: u64,
    /// The committed round the last resume landed on, if one resumed.
    pub last_resume: Option<u64>,
    /// Corruption points that actually changed stored bytes.
    pub corruptions_applied: u64,
    /// First applied corruption no scrub pass flagged, if any.
    pub undetected: Option<String>,
    /// First committed round where a resumed fleet was not
    /// process-equivalent to the reference run, if any.
    pub divergence: Option<u64>,
    /// Committed rounds the campaign had when a resume returned `Ok` at
    /// round 0 anyway, if one did.
    pub cold_start: Option<u64>,
    /// First committed round where a rebuild from the delta chain
    /// produced wrong shard state (set instead of `divergence` when the
    /// state half of a resume's equivalence check fails).
    pub chain_divergence: Option<u64>,
    /// A loud, typed refusal (scrub or resume error) that ended the
    /// campaign early. Loud failure is permitted behavior — it never
    /// trips an oracle by itself.
    pub aborted: Option<String>,
}

/// Monotone run-directory counter: campaign directories are scratch
/// space (removed after each run) and play no part in the outcome.
static NEXT_RUN: AtomicU64 = AtomicU64::new(0);

impl DurableWorkload {
    /// The default workload with `canary` armed, compaction adjusted so
    /// the canary's storage-level tampering cannot be masked by
    /// checkpointed pod state.
    pub fn with_canary(canary: DurableCanary) -> Self {
        let armed = DurableWorkload {
            canary: Some(canary),
            ..DurableWorkload::default()
        };
        match canary {
            // Pod states must live only in the journal.
            DurableCanary::ForgetPodState => DurableWorkload {
                compact_ratio: 0,
                ..armed
            },
            DurableCanary::BlindScrub => armed,
            // Deltas must accumulate before the kill, on one shard (disk
            // damage falls back along the chain, not into the cross-shard
            // refusal that would mask the dropped delta). Eager
            // compaction still checkpoints only every second round, so
            // six rounds put the mid-campaign kill after the first delta.
            DurableCanary::SkipDelta => DurableWorkload {
                compact_ratio: 1,
                min_compact_wal_bytes: 1,
                shards: 1,
                rounds: 6,
                ..armed
            },
        }
    }

    fn config(&self, dir: &Path) -> MultiPlatformConfig {
        MultiPlatformConfig {
            n_pods: self.pods,
            n_shards: self.shards,
            seed: self.seed,
            durability: Some(DurabilityConfig {
                compact_ratio: self.compact_ratio,
                min_compact_wal_bytes: self.min_compact_wal_bytes,
                ..DurabilityConfig::new(dir)
            }),
            ..MultiPlatformConfig::default()
        }
    }

    fn shard_states(&self, p: &MultiPlatform<'_>) -> Vec<Vec<u8>> {
        (0..self.shards).map(|i| p.shard_state(i)).collect()
    }

    /// Runs the campaign under `plan`'s disk points and reports what
    /// happened. Deterministic: the outcome (including its digest) is a
    /// pure function of `(self, plan)`.
    pub fn run(&self, plan: &FaultPlan) -> DurableOutcome {
        let scens: Vec<Scenario> = self.scenarios.iter().map(|i| scenario_for(*i)).collect();
        let specs: Vec<FleetSpec<'_>> = scens
            .iter()
            .map(|s| FleetSpec {
                program: &s.program,
                pod: PodConfig {
                    input_range: s.input_range,
                    ..PodConfig::default()
                },
            })
            .collect();
        let root = std::env::temp_dir().join(format!(
            "softborg-search-durable-{}-{}",
            std::process::id(),
            NEXT_RUN.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);

        // The uninterrupted reference: per-round shard states, pod
        // populations, and the full history every resume must match.
        let mut ref_states: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut ref_pods: Vec<Vec<Vec<PodState>>> = Vec::new();
        let ref_history = {
            let mut p = MultiPlatform::new(&specs, self.config(&root.join("reference")));
            ref_states.push(self.shard_states(&p));
            ref_pods.push(p.export_pod_states());
            for _ in 0..self.rounds {
                p.round(self.execs);
                ref_states.push(self.shard_states(&p));
                ref_pods.push(p.export_pod_states());
            }
            p.history().to_vec()
        };

        // Interpret the plan: boundary kills, plus corruption points
        // round-robined over the kills (a synthetic mid-campaign kill
        // hosts corruption arriving without one).
        let mut kills: Vec<u64> = plan
            .disk
            .iter()
            .filter_map(|p| match p {
                DiskCrashPoint::AtRoundBoundary { round } => {
                    Some((*round).clamp(1, self.rounds.max(1)))
                }
                _ => None,
            })
            .collect();
        kills.sort_unstable();
        kills.dedup();
        let corruptions: Vec<&DiskCrashPoint> = plan
            .disk
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    DiskCrashPoint::CorruptWal { .. } | DiskCrashPoint::CorruptChainRecord { .. }
                )
            })
            .collect();
        if kills.is_empty() && !corruptions.is_empty() {
            kills.push((self.rounds / 2).max(1));
        }

        let run_dir = root.join("run");
        let mut out = DurableOutcome::default();
        let mut platform = Some(MultiPlatform::new(&specs, self.config(&run_dir)));
        let mut current = 0u64;
        for (idx, &k) in kills.iter().enumerate() {
            if k > current {
                let p = platform.as_mut().expect("fleet alive between kills");
                for _ in current..k {
                    p.round(self.execs);
                }
                current = k;
            }
            platform = None; // the kill: every fleet process gone
            out.kills += 1;

            match self.canary {
                Some(DurableCanary::ForgetPodState) => strip_pod_records(&run_dir, self.shards),
                Some(DurableCanary::SkipDelta) => (0..self.shards).for_each(|i| {
                    drop_last_delta(&run_dir.join(format!("shard-{i}")).join("chain"));
                }),
                _ => {}
            }
            let mut applied_here: Vec<String> = Vec::new();
            for (j, c) in corruptions.iter().enumerate() {
                if j % kills.len() == idx {
                    if let Some(desc) = apply_corruption(&run_dir, j % self.shards.max(1), c) {
                        applied_here.push(desc);
                        out.corruptions_applied += 1;
                    }
                }
            }

            let mut flagged = false;
            if self.canary != Some(DurableCanary::BlindScrub) {
                match MultiPlatform::scrub(&self.config(&run_dir)) {
                    Ok(plan) => flagged = !plan.is_clean(),
                    Err(e) => {
                        flagged = true;
                        out.aborted = Some(format!("scrub refused: {e:?}"));
                    }
                }
            }
            if !applied_here.is_empty() && !flagged && out.undetected.is_none() {
                out.undetected = Some(applied_here.swap_remove(0));
            }
            if out.aborted.is_some() {
                break;
            }

            match MultiPlatform::resume(&specs, self.config(&run_dir)) {
                Ok((p, report)) => {
                    let r = report.target_round;
                    out.last_resume = Some(r);
                    if r == 0 && current > 0 && out.cold_start.is_none() {
                        out.cold_start = Some(current);
                    }
                    let state_ok =
                        r <= self.rounds && self.shard_states(&p) == ref_states[r as usize];
                    let rest_ok = r <= self.rounds
                        && p.export_pod_states() == ref_pods[r as usize]
                        && p.history() == &ref_history[..r as usize];
                    // Wrong shard state straight out of a rebuild is the
                    // delta chain's fault specifically, not generic drift:
                    // the chain is what the state was rebuilt from.
                    if !state_ok && out.chain_divergence.is_none() {
                        out.chain_divergence = Some(r);
                    } else if !(state_ok && rest_ok) && out.divergence.is_none() {
                        out.divergence = Some(r);
                    }
                    current = r.min(self.rounds);
                    platform = Some(p);
                }
                Err(e) => {
                    // A typed refusal, not a divergence: the fleet said
                    // loudly that it cannot reach a consistent round
                    // (e.g. a quarantined checkpoint whose journal was
                    // already compacted away on another shard) instead
                    // of resuming into an inconsistent one.
                    out.aborted = Some(format!("resume failed: {e:?}"));
                    break;
                }
            }
        }

        if out.aborted.is_none() {
            let p = platform.as_mut().expect("fleet alive after last resume");
            for _ in current..self.rounds {
                p.round(self.execs);
            }
            let state_ok = self.shard_states(p) == ref_states[self.rounds as usize];
            let rest_ok = p.export_pod_states() == ref_pods[self.rounds as usize]
                && p.history() == &ref_history[..];
            // Every rebuild was judged at its resume; drift that shows
            // only in the continuation is a process-equivalence failure.
            if !(state_ok && rest_ok) && out.divergence.is_none() {
                out.divergence = Some(self.rounds);
            }
            out.rounds = p.committed_rounds();
        }

        let mut buf = Vec::new();
        if let Some(p) = &platform {
            for s in self.shard_states(p) {
                buf.extend_from_slice(&s);
            }
            for r in p.history() {
                r.encode_into(&mut buf);
            }
        }
        if let Some(a) = &out.aborted {
            buf.extend_from_slice(a.as_bytes());
        }
        if let Some(u) = &out.undetected {
            buf.extend_from_slice(u.as_bytes());
        }
        if let Some(d) = out.divergence {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        if let Some(d) = out.chain_divergence {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        if let Some(c) = out.cold_start {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        out.digest = fnv1a_step(FNV_OFFSET, &buf);

        drop(platform);
        let _ = std::fs::remove_dir_all(&root);
        out
    }
}

/// The durable campaign's oracle ladder. Scrub soundness is judged
/// first (accepting rotten bytes silently is worse than diverging
/// loudly), then a resume that quietly started over at round 0, then a
/// chain rebuild that got the state wrong, and last the catch-all
/// process-equivalence of every resume.
pub fn check_durable(out: &DurableOutcome) -> Option<OracleFailure> {
    if let Some(point) = &out.undetected {
        return Some(OracleFailure::ScrubSilent {
            point: point.clone(),
        });
    }
    if let Some(rounds) = out.cold_start {
        return Some(OracleFailure::ColdStartOverCampaign { rounds });
    }
    if let Some(round) = out.chain_divergence {
        return Some(OracleFailure::DeltaChainDivergence { round });
    }
    if let Some(round) = out.divergence {
        return Some(OracleFailure::ResumeDivergence { round });
    }
    None
}

/// Scenario for index `i` — the same stable `% 4` mapping the ingest
/// workload uses, so corpus entries age identically.
fn scenario_for(i: u32) -> Scenario {
    match i % 4 {
        0 => scenarios::token_parser(),
        1 => scenarios::triangle(),
        2 => scenarios::record_processor(),
        _ => scenarios::bank_transfer(),
    }
}

/// The [`DurableCanary::ForgetPodState`] tamper: rewrite each shard
/// journal without its `REC_PODS` records. The rewritten journal is
/// checksum-valid — nothing for a scrubber to flag — which is exactly
/// why resume-equivalence needs its own oracle.
fn strip_pod_records(dir: &Path, shards: usize) {
    for i in 0..shards {
        let wal = dir.join(format!("shard-{i}")).join("hive.wal");
        let Ok(bytes) = std::fs::read(&wal) else {
            continue;
        };
        let (records, _) = journal::scan(&bytes);
        let mut rewritten = Vec::with_capacity(bytes.len());
        for r in &records {
            if r.kind != REC_PODS {
                journal::append_record(&mut rewritten, r.kind, r.session, r.seq, r.frame);
            }
        }
        let _ = std::fs::write(&wal, &rewritten);
    }
}

/// The [`DurableCanary::SkipDelta`] tamper on one shard's chain: when
/// its lineage holds two records or more, re-seal the record before the
/// head — its own kind, generation, parent and state — with the head's
/// frame floors, journal coverage and app-meta, then remove the head.
fn drop_last_delta(chain_dir: &Path) -> Option<()> {
    let (_, load) = ChainStore::open(chain_dir).ok()?;
    let [.., prev, head] = &load.records[..] else {
        return None;
    };
    let snap = HiveSnapshot {
        state: HiveSnapshot::decode(&prev.payload).ok()?.state,
        ..HiveSnapshot::decode(&head.payload).ok()?
    };
    let bytes = encode_record(prev.kind, prev.generation, prev.parent, &snap.encode());
    std::fs::write(chain_dir.join(&prev.file), bytes).ok()?;
    std::fs::remove_file(chain_dir.join(&head.file)).ok()
}

/// Applies one corruption point to shard `shard`'s on-disk file.
/// Returns a stable description when the file's bytes actually changed,
/// `None` when the point was a no-op (absent file, empty journal, no
/// checkpoint yet). The requested sector is folded into the file's real
/// extent so small campaigns still see mid-file rot.
fn apply_corruption(dir: &Path, shard: usize, point: &DiskCrashPoint) -> Option<String> {
    let (path, label, sector, kind): (std::path::PathBuf, String, u64, SectorCorruption) =
        match point {
            DiskCrashPoint::CorruptWal { sector, kind } => (
                dir.join(format!("shard-{shard}")).join("hive.wal"),
                format!("shard-{shard}/hive.wal"),
                *sector,
                *kind,
            ),
            DiskCrashPoint::CorruptChainRecord { back, sector, kind } => {
                let chain_dir = dir.join(format!("shard-{shard}")).join("chain");
                let (chain, _) = ChainStore::open(&chain_dir).ok()?;
                let files = chain.files();
                let nth = *back as usize % files.len().max(1);
                let name = &files.iter().rev().nth(nth)?.name;
                let label = format!("shard-{shard}/chain/{name}");
                (chain_dir.join(name), label, *sector, *kind)
            }
            _ => return None,
        };
    let mut bytes = std::fs::read(&path).ok()?;
    let n_sectors = (bytes.len() as u64).div_ceil(SECTOR_BYTES);
    if n_sectors == 0 {
        return None;
    }
    let s = sector % n_sectors;
    if !kind.apply(&mut bytes, s) {
        return None;
    }
    std::fs::write(&path, &bytes).ok()?;
    Some(format!("{kind:?} @ {label} sector {s}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DurableWorkload {
        DurableWorkload {
            scenarios: vec![0, 1],
            shards: 2,
            pods: 2,
            rounds: 3,
            execs: 5,
            ..DurableWorkload::default()
        }
    }

    #[test]
    fn empty_plan_is_clean() {
        let out = small().run(&FaultPlan::default());
        assert_eq!(check_durable(&out), None, "{out:?}");
        assert_eq!(out.kills, 0);
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn boundary_kills_resume_process_equivalent() {
        let plan = FaultPlan {
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 1 },
                DiskCrashPoint::AtRoundBoundary { round: 2 },
            ],
            ..FaultPlan::default()
        };
        let out = small().run(&plan);
        assert_eq!(check_durable(&out), None, "{out:?}");
        assert_eq!(out.kills, 2);
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn wal_rot_is_never_silently_accepted() {
        let plan = FaultPlan {
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 2 },
                DiskCrashPoint::CorruptWal {
                    sector: 1,
                    kind: SectorCorruption::FlipBit { bit: 77 },
                },
            ],
            ..FaultPlan::default()
        };
        let w = DurableWorkload {
            compact_ratio: 0,
            ..small()
        };
        let out = w.run(&plan);
        assert!(out.corruptions_applied >= 1, "{out:?}");
        // Detected rot is either repaired around (and the campaign
        // re-converges with the reference) or refused loudly; what it
        // may never do is trip an oracle.
        assert_eq!(check_durable(&out), None, "{out:?}");
    }

    #[test]
    fn forget_pod_state_canary_trips_resume_divergence() {
        let plan = FaultPlan {
            disk: vec![DiskCrashPoint::AtRoundBoundary { round: 2 }],
            ..FaultPlan::default()
        };
        let w = DurableWorkload {
            scenarios: vec![0, 1],
            shards: 2,
            pods: 2,
            rounds: 3,
            execs: 5,
            ..DurableWorkload::with_canary(DurableCanary::ForgetPodState)
        };
        let out = w.run(&plan);
        assert!(
            matches!(
                check_durable(&out),
                Some(OracleFailure::ResumeDivergence { .. })
            ),
            "{out:?}"
        );
    }

    #[test]
    fn blind_scrub_canary_trips_scrub_silent() {
        let plan = FaultPlan {
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 2 },
                DiskCrashPoint::CorruptWal {
                    sector: 1,
                    kind: SectorCorruption::FlipBit { bit: 3 },
                },
            ],
            ..FaultPlan::default()
        };
        let w = DurableWorkload {
            scenarios: vec![0, 1],
            shards: 2,
            pods: 2,
            rounds: 3,
            execs: 5,
            compact_ratio: 0,
            ..DurableWorkload::with_canary(DurableCanary::BlindScrub)
        };
        let out = w.run(&plan);
        assert!(
            matches!(check_durable(&out), Some(OracleFailure::ScrubSilent { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn compacting_chain_resumes_process_equivalent() {
        let plan = FaultPlan {
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 1 },
                DiskCrashPoint::AtRoundBoundary { round: 2 },
            ],
            ..FaultPlan::default()
        };
        // A campaign compacting aggressively against an in-memory
        // reference: equivalence here is the byte-identity proof for
        // resumes rebuilt from the delta chain.
        let w = DurableWorkload {
            compact_ratio: 1,
            min_compact_wal_bytes: 1,
            ..small()
        };
        let out = w.run(&plan);
        assert_eq!(check_durable(&out), None, "{out:?}");
        assert_eq!(out.kills, 2);
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn skip_delta_canary_trips_delta_chain_divergence() {
        // Eager compaction waits until the journal outweighs the full
        // record, so the chain's first delta comes a few rounds in; the
        // kill must follow it.
        let plan = FaultPlan {
            disk: vec![DiskCrashPoint::AtRoundBoundary { round: 3 }],
            ..FaultPlan::default()
        };
        let w = DurableWorkload {
            scenarios: vec![0, 1],
            shards: 2,
            pods: 2,
            rounds: 4,
            execs: 5,
            ..DurableWorkload::with_canary(DurableCanary::SkipDelta)
        };
        let out = w.run(&plan);
        assert!(
            matches!(
                check_durable(&out),
                Some(OracleFailure::DeltaChainDivergence { .. })
            ),
            "{out:?}"
        );
    }

    #[test]
    fn chain_rot_is_never_silently_accepted() {
        let plan = FaultPlan {
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 2 },
                DiskCrashPoint::CorruptChainRecord {
                    back: 0,
                    sector: 0,
                    kind: SectorCorruption::FlipBit { bit: 123 },
                },
            ],
            ..FaultPlan::default()
        };
        let w = DurableWorkload {
            compact_ratio: 1,
            min_compact_wal_bytes: 1,
            ..small()
        };
        let out = w.run(&plan);
        assert!(out.corruptions_applied >= 1, "{out:?}");
        assert_eq!(check_durable(&out), None, "{out:?}");
    }

    #[test]
    fn outcomes_are_deterministic() {
        let plan = FaultPlan {
            disk: vec![DiskCrashPoint::AtRoundBoundary { round: 1 }],
            ..FaultPlan::default()
        };
        assert_eq!(small().run(&plan), small().run(&plan));
    }
}
