//! The campaign core: pod fleets, one sharded hive, one durable round.
//!
//! The paper's hive recycles executions from many programs at once, so
//! a [`MultiPlatform`] runs one pod fleet per program and drives every
//! fleet's traffic through one [`ShardedHive`] and the one ingest
//! engine: every pod of every fleet is one unit, run and prepared by
//! the same participants, while each program's hive lives on its
//! deterministic shard and sees its own traces in exact slot order.
//! [`Platform`](crate::Platform) is the one-fleet, one-shard view of
//! this core.
//!
//! # Durability directory
//!
//! Shard `i` owns `shard-<i>/{hive.wal, chain/}` under
//! [`DurabilityConfig::dir`], and the campaign owns one `rounds.log`
//! beside them. A round commits in two phases: its frames, promotions,
//! pod deltas (`REC_PODS`, each pod against its image in the shard's
//! newest checkpoint) and round record are appended and fsynced to
//! **every** shard journal (phase A), and only then may a shard compact
//! into a checkpoint (phase B). A checkpoint carries the shard's hive
//! state, the committed-round counter and its lanes' full pod images —
//! nothing that grows with campaign age; compaction first appends the
//! committed rounds the round log lacks and fsyncs it. Shards can thus
//! crash at *different* committed rounds, but no checkpoint is ever
//! ahead of another shard's journal or of the round log;
//! [`MultiPlatform::resume`] takes the *minimum* committed round as the
//! campaign's truth and truncates what lies past it — unacked rounds
//! and any uncommitted partial round — and rebuilds history from the
//! round log plus shard 0's replayed round records. What the directory
//! holds is judged once, by the recovery plan ([`CampaignPlan`]) that
//! [`MultiPlatform::resume`] and [`MultiPlatform::scrub`] both execute.
//! Older layouts are refused with their bytes untouched: a root holding
//! `hive.wal`, `chain/` or `hive.snap` (the single-program layout), a
//! shard holding `hive.snap`, a round record this codec cannot read, a
//! pod-image `REC_PODS` body, a frame in an older batch layout, a
//! journal, round-log or chain record checksummed with FNV-1a, or a
//! checkpoint whose app-meta lacks this layout's tag (round history
//! inside checkpoints).

use crate::durable::{
    corrupt, older_records, plan, put_promotion, refuse_legacy, shard_dir, CampaignPlan,
    DurabilityConfig, DurabilityError, DurableStore, RoundLog, LEGACY_ROOT,
};
use crate::fleet::{self, Counters, Fleet, Frame, PodSlot, Trial};
use softborg_fix::FixCandidate;
use softborg_hive::journal::{
    self, REC_PODS, REC_PROMOTE, REC_ROUND, SESSION_PROMOTE, SESSION_ROUND,
};
use softborg_hive::{Hive, HiveConfig, ShardedHive};
use softborg_ingest::{IngestConfig, IngestStats, UnitFrames};
use softborg_obs::{ObsHandles, SpanTimer};
use softborg_pod::{Pod, PodConfig, PodDelta, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Overlay, Program, ProgramId};
use softborg_store::{EnvelopeError, RecordKind};
use softborg_tree::CoverageStats;
use std::collections::BTreeMap;
use std::path::Path;

/// One program's fleet specification: the program plus the pod template
/// its population is built from (each pod gets a derived seed).
#[derive(Debug, Clone)]
pub struct FleetSpec<'p> {
    /// The program this fleet executes.
    pub program: &'p Program,
    /// Template for the fleet's pods.
    pub pod: PodConfig,
}

/// Multi-program platform configuration.
#[derive(Debug, Clone)]
pub struct MultiPlatformConfig {
    /// Pods per program.
    pub n_pods: u32,
    /// Hive shards (each shard serves one or more programs).
    pub n_shards: usize,
    /// Hive configuration (applied to every program's hive).
    pub hive: HiveConfig,
    /// Master seed; pod seeds derive from (seed, lane, pod index).
    pub seed: u64,
    /// Whether hives distribute fixes.
    pub fixes_enabled: bool,
    /// Whether guidance directives are distributed.
    pub guidance_enabled: bool,
    /// Passing cases required before a predicted (zero-failing-case)
    /// deadlock fix may distribute on preservation evidence alone.
    pub min_preservation_cases: usize,
    /// Execution/ingest tuning for the one ingest engine.
    pub ingest: IngestSettings,
    /// Crash-only durability root. Each shard persists under its own
    /// `shard-<i>/` subdirectory of [`DurabilityConfig::dir`].
    pub durability: Option<DurabilityConfig>,
    /// Telemetry sinks: per-round `multi.*` counters, commit/fsync span
    /// histograms, and `round_committed` events. Passive — shard state
    /// is byte-identical with telemetry on or off.
    pub obs: ObsHandles,
}

impl Default for MultiPlatformConfig {
    fn default() -> Self {
        MultiPlatformConfig {
            n_pods: 20,
            n_shards: 2,
            hive: HiveConfig::default(),
            seed: 0,
            fixes_enabled: true,
            guidance_enabled: true,
            min_preservation_cases: 5,
            ingest: IngestSettings::default(),
            durability: None,
            obs: ObsHandles::default(),
        }
    }
}

/// How a round's executions flow into the hive: each pod is one unit of
/// the ingest engine ([`softborg_ingest::run`]), run by one of its
/// `pipeline.workers` participants, and its wire-encoded batch frames
/// are decoded and reconstructed on the thread that ran it, then merged
/// in pod order.
#[derive(Debug, Clone)]
pub struct IngestSettings {
    /// Traces bundled per batch frame.
    pub batch_size: usize,
    /// Engine tuning (participants, memo).
    pub pipeline: IngestConfig,
}

impl Default for IngestSettings {
    fn default() -> Self {
        IngestSettings {
            batch_size: 32,
            pipeline: IngestConfig::default(),
        }
    }
}

impl IngestSettings {
    /// Traces per batch frame, floored at 1.
    pub(crate) fn batch(&self) -> u64 {
        self.batch_size.max(1) as u64
    }

    /// The engine config for one round. One attach point: platform
    /// telemetry flows into the ingest engine unless the config has its
    /// own sinks.
    pub(crate) fn pipeline_with(&self, obs: &ObsHandles) -> IngestConfig {
        let mut cfg = self.pipeline.clone();
        if !cfg.obs.is_enabled() {
            cfg.obs = obs.clone();
        }
        cfg
    }
}

/// One program's slice of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRoundReport {
    /// Raw program id.
    pub program: u64,
    /// Executions this fleet performed.
    pub executions: u64,
    /// Failures this fleet observed.
    pub failures: u64,
    /// Fixes promoted for this program.
    pub fixes_promoted: u64,
    /// The program's overlay version after the round.
    pub overlay_version: u64,
    /// Directed (guided) executions in this fleet.
    pub directed: u64,
    /// The program's tree coverage after the round.
    pub coverage: CoverageStats,
    /// The program's published proof certificates after the round.
    pub proofs: u64,
}

/// Metrics for one round (aggregate + per program) — the one journaled
/// round record.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Total executions across all fleets.
    pub executions: u64,
    /// Total failures across all fleets.
    pub failures: u64,
    /// Aggregate failures per 10k executions.
    pub failure_rate_per_10k: f64,
    /// Total fixes promoted across all programs.
    pub fixes_promoted: u64,
    /// Per-program breakdown, in lane (sorted program id) order.
    pub programs: Vec<ProgramRoundReport>,
}

/// Failures per 10k executions (0 for an empty round).
pub(crate) fn failure_rate(executions: u64, failures: u64) -> f64 {
    if executions == 0 {
        0.0
    } else {
        failures as f64 * 10_000.0 / executions as f64
    }
}

impl ProgramRoundReport {
    /// The report's fields in round-codec order, floats as bits.
    fn fields(&self) -> [u64; 13] {
        let c = &self.coverage;
        [
            self.program,
            self.executions,
            self.failures,
            self.fixes_promoted,
            self.overlay_version,
            self.directed,
            c.nodes,
            c.distinct_paths,
            c.sites_seen,
            c.paths_merged,
            c.frontier_arms,
            c.closed_fraction.to_bits(),
            self.proofs,
        ]
    }

    fn from_fields(f: [u64; 13]) -> Self {
        ProgramRoundReport {
            program: f[0],
            executions: f[1],
            failures: f[2],
            fixes_promoted: f[3],
            overlay_version: f[4],
            directed: f[5],
            coverage: CoverageStats {
                nodes: f[6],
                distinct_paths: f[7],
                sites_seen: f[8],
                paths_merged: f[9],
                frontier_arms: f[10],
                closed_fraction: f64::from_bits(f[11]),
            },
            proofs: f[12],
        }
    }
}

impl MultiRoundReport {
    /// Serializes the report for durable `REC_ROUND` records (floats as
    /// IEEE-754 bit patterns, so the roundtrip is exact).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.round);
        codec::put_u64(buf, self.executions);
        codec::put_u64(buf, self.failures);
        codec::put_f64(buf, self.failure_rate_per_10k);
        codec::put_u64(buf, self.fixes_promoted);
        codec::put_u32(buf, self.programs.len() as u32);
        for v in self.programs.iter().flat_map(ProgramRoundReport::fields) {
            codec::put_u64(buf, v);
        }
    }

    /// Decodes one whole round record written by
    /// [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] on truncated or malformed input, or
    /// when bytes trail the report — a record of another layout.
    pub fn decode(bytes: &[u8]) -> Result<Self, DurabilityError> {
        let mut r = codec::Reader::new(bytes);
        let report = Self::read(&mut r).map_err(|e| corrupt("round record", e))?;
        if !r.is_empty() {
            return Err(DurabilityError::Corrupt(format!(
                "round record has {} trailing byte(s)",
                r.remaining()
            )));
        }
        Ok(report)
    }

    /// Reads one report from the front of `r`.
    fn read(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let round = r.u64("MultiRoundReport.round")?;
        let executions = r.u64("MultiRoundReport.executions")?;
        let failures = r.u64("MultiRoundReport.failures")?;
        let failure_rate_per_10k = r.f64("MultiRoundReport.failure_rate_per_10k")?;
        let fixes_promoted = r.u64("MultiRoundReport.fixes_promoted")?;
        let n = r.seq_len("MultiRoundReport.programs", 13 * 8)?;
        let mut programs = Vec::with_capacity(n);
        for _ in 0..n {
            let mut f = [0u64; 13];
            for v in &mut f {
                *v = r.u64("ProgramRoundReport")?;
            }
            programs.push(ProgramRoundReport::from_fields(f));
        }
        Ok(MultiRoundReport {
            round,
            executions,
            failures,
            failure_rate_per_10k,
            fixes_promoted,
            programs,
        })
    }
}

/// What [`decode_round_log`] read from a campaign's `rounds.log`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundLogScan {
    /// The committed rounds the log holds, round 0 first, no gap.
    pub reports: Vec<MultiRoundReport>,
    /// Bytes of intact records; a torn final append lies past them.
    pub valid_len: usize,
}

/// Decodes a campaign's round log: journal records, each a `REC_ROUND`
/// on the round session whose body is the [`MultiRoundReport`] of
/// round `seq`, from round 0 in order. A torn final append is dropped,
/// as a journal's is. Total, and it reserves no more memory than the
/// input's length.
///
/// # Errors
///
/// [`DurabilityError::Corrupt`] on damage with intact bytes after it, a
/// record of another kind or session, a report that does not decode, or
/// a round out of order.
pub fn decode_round_log(bytes: &[u8]) -> Result<RoundLogScan, DurabilityError> {
    // Count records by their length prefixes alone, so the reports are
    // reserved once — and never past what the input could hold.
    let framed = journal::FRAMING.count(bytes);
    let room = bytes.len() / std::mem::size_of::<MultiRoundReport>();
    let mut reports = Vec::with_capacity(framed.min(room));
    let mut at = 0;
    while at < bytes.len() {
        let rec = match journal::FRAMING.read_at(bytes, at) {
            Ok(rec) => rec,
            Err(EnvelopeError::OlderLayout) => {
                return Err(older_records(Path::new("rounds.log"), at))
            }
            Err(_) if journal::FRAMING.torn_at(bytes, at) => break,
            Err(e) => {
                return Err(DurabilityError::Corrupt(format!(
                    "round log: damaged record at byte {at} with bytes after it: {e}"
                )))
            }
        };
        let round = reports.len() as u64;
        let [session, seq] = rec.words;
        if (rec.kind, session, seq) != (REC_ROUND, SESSION_ROUND, round) {
            return Err(DurabilityError::Corrupt(format!(
                "round log: record at byte {at} is kind {} session {session} seq {seq}, not round {round}",
                rec.kind
            )));
        }
        let report = MultiRoundReport::decode(rec.payload)?;
        if report.round != round {
            return Err(DurabilityError::Corrupt(format!(
                "round log: record {round} holds round {}",
                report.round
            )));
        }
        reports.push(report);
        at = rec.end;
    }
    Ok(RoundLogScan {
        reports,
        valid_len: at,
    })
}

/// Per-round telemetry kept *beside* the journaled history, never in it:
/// timings are host-dependent, and reports must stay byte-identical
/// with telemetry on or off. `commit_ns` / `fsync_ns` come from the
/// span timers behind the `<source>.round_commit_ns` / `hive.fsync_ns`
/// histograms, so they are zero without a registry attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// Round index this entry describes.
    pub round: u64,
    /// Durable-commit duration (append + fsync + compaction), ns.
    pub commit_ns: u64,
    /// The fsync portion of the commit, ns.
    pub fsync_ns: u64,
    /// Batch frames appended to the journal this round.
    pub frames_journaled: u64,
    /// Fix promotions appended to the journal this round.
    pub promotions_journaled: u64,
    /// Whether this round's commit triggered a checkpoint.
    pub compacted: bool,
    /// Wall-clock compaction stall of this round's checkpoint writes, ns
    /// (0 when none ran); measured even without a registry.
    pub checkpoint_ns: u64,
    /// Payload bytes the checkpoints wrote — the deterministic stall
    /// proxy (a steady-state delta writes O(changes), not O(hive)).
    pub checkpoint_bytes: u64,
    /// Bytes phase A appended to the shard journals this round (frames,
    /// promotions, pod deltas and round records, framing included).
    pub journal_bytes: u64,
}

/// One fleet's slice of work handed to a
/// [`MultiPlatform::round_driven`] driver.
#[derive(Debug)]
pub struct LaneTask<'a, 'p> {
    /// Lane index (the durable journal session for this fleet's frames).
    pub lane: u64,
    /// The fleet's program id.
    pub program: ProgramId,
    /// The fleet's pods, overlay already distributed.
    pub pods: &'a mut [Pod<'p>],
}

/// What an external driver executed during one
/// [`MultiPlatform::round_driven`] round.
#[derive(Debug, Default)]
pub struct MultiDrivenExecution {
    /// `(executions, failures, directed)` per lane, in lane order — one
    /// entry per [`LaneTask`] handed to the driver.
    pub per_lane: Vec<(u64, u64, u64)>,
    /// Every wire-encoded batch frame produced, as `(lane, seq, frame)`
    /// in the same layout [`MultiPlatform::round`] journals.
    pub frames: Vec<(u64, u64, Vec<u8>)>,
}

/// The campaign core. See the [module docs](self).
#[derive(Debug)]
pub struct MultiPlatform<'p> {
    pub(crate) sharded: ShardedHive<'p>,
    /// Fleets in lane order (sorted by program id) — lane index is the
    /// durable journal session for that program's frames.
    pub(crate) fleets: Vec<Fleet<'p>>,
    pub(crate) config: MultiPlatformConfig,
    /// Telemetry source: `multi`, or `platform` for the one-fleet view.
    pub(crate) source: &'static str,
    round_idx: u64,
    history: Vec<MultiRoundReport>,
    telemetry: Vec<RoundTelemetry>,
    last_run: Option<IngestStats>,
    /// One open durable store per shard, under `shard-<i>/` of the
    /// campaign directory.
    pub(crate) durable: Option<Vec<DurableStore>>,
    /// The campaign's round log (with `durable`).
    round_log: Option<RoundLog>,
    /// Next sequence number for `REC_PROMOTE` records (global across
    /// shards, so promotion order is totally ordered).
    promote_seq: u64,
}

/// Shard `shard`'s own durability config: the campaign policy rooted at
/// its `shard-<i>/` subdirectory.
fn shard_cfg(root: &DurabilityConfig, shard: usize) -> DurabilityConfig {
    DurabilityConfig {
        dir: shard_dir(&root.dir, shard),
        ..root.clone()
    }
}

fn hive_of<'a, 'p>(sharded: &'a ShardedHive<'p>, fleet: &Fleet<'p>) -> &'a Hive<'p> {
    sharded.hive(fleet.id).expect("fleet program is placed")
}

fn hive_of_mut<'a, 'p>(sharded: &'a mut ShardedHive<'p>, fleet: &Fleet<'p>) -> &'a mut Hive<'p> {
    sharded.hive_mut(fleet.id).expect("fleet program is placed")
}

impl<'p> MultiPlatform<'p> {
    /// Builds the in-memory shell: one sharded hive plus one fleet per
    /// program, lanes sorted by program id.
    fn base(specs: &[FleetSpec<'p>], config: MultiPlatformConfig) -> Self {
        let mut specs: Vec<&FleetSpec<'p>> = specs.iter().collect();
        specs.sort_by_key(|s| s.program.id());
        let programs: Vec<&'p Program> = specs.iter().map(|s| s.program).collect();
        let sharded = ShardedHive::new(&programs, config.n_shards, &config.hive)
            .expect("sharded hive placement failed");
        let seed_base = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fleets = specs
            .iter()
            .enumerate()
            .map(|(lane, spec)| {
                let lane_base = seed_base.wrapping_add((lane as u64) << 20);
                Fleet::new(spec.program, &spec.pod, config.n_pods, lane_base)
            })
            .collect();
        MultiPlatform {
            sharded,
            fleets,
            config,
            source: "multi",
            round_idx: 0,
            history: Vec::new(),
            telemetry: Vec::new(),
            last_run: None,
            durable: None,
            round_log: None,
            promote_seq: 0,
        }
    }

    /// The shard whose journal carries `lane`'s frames.
    fn shard_of_lane(&self, lane: usize) -> usize {
        self.sharded
            .map()
            .shard_of(self.fleets[lane].id)
            .expect("lane program is placed")
    }

    /// Builds a multi-program platform; with durability configured, a
    /// *fresh* campaign ([`resume`](Self::resume) continues one).
    ///
    /// # Panics
    ///
    /// On duplicate programs, zero shards, or whatever
    /// [`try_new`](Self::try_new) refuses.
    pub fn new(specs: &[FleetSpec<'p>], config: MultiPlatformConfig) -> Self {
        Self::try_new(specs, config).expect("durable multi-platform initialization failed")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when the directory already
    /// holds a campaign, in any layout; [`DurabilityError::Io`] when a
    /// shard's files cannot be opened.
    pub fn try_new(
        specs: &[FleetSpec<'p>],
        config: MultiPlatformConfig,
    ) -> Result<Self, DurabilityError> {
        let mut platform = Self::base(specs, config);
        if let Some(root) = platform.config.durability.clone() {
            refuse_legacy(&root.dir, LEGACY_ROOT)
                .map_err(|_| DurabilityError::CampaignExists(root.dir.clone()))?;
            let round_log = RoundLog::create(&root.dir)?;
            let stores = (0..platform.sharded.n_shards())
                .map(|i| DurableStore::create(shard_cfg(&root, i)))
                .collect::<Result<_, _>>()?;
            platform.durable = Some(stores);
            platform.round_log = Some(round_log);
        }
        Ok(platform)
    }

    /// Resumes (or, from an empty directory, cold-starts) a durable
    /// campaign by executing its recovery plan (see
    /// [`CampaignPlan`]): the plan's repair first, then every shard
    /// restores its checkpoint lineage and replays its journal up to the
    /// campaign's **minimum** committed round; anything past it is
    /// truncated. Shards and pods — RNG positions, repair-lab corpora,
    /// overlays, queued directives — come back byte-identical to the
    /// uninterrupted run at that round. Returns the plan it executed.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// every refusal of the plan, before anything on disk is touched;
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] when a restored state or a journaled
    /// frame does not fold into its hives.
    pub fn resume(
        specs: &[FleetSpec<'p>],
        config: MultiPlatformConfig,
    ) -> Result<(Self, CampaignPlan), DurabilityError> {
        let root = config
            .durability
            .clone()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut plan = plan(&root.dir, config.n_shards)?;
        let mut platform = Self::base(specs, config);
        let recorder = platform.config.obs.recorder.clone();
        plan.repair(&recorder)?;
        let work = std::mem::take(&mut plan.work);
        let target = plan.target_round;

        // Restore each shard's checkpoint state and replay its journal up
        // to (exactly) the target round, cutting whatever lies beyond.
        let mut stores = Vec::with_capacity(work.shards.len());
        // Per lane: its shard's checkpointed images, and the last
        // committed delta its journal replays.
        let mut lane_images: BTreeMap<u64, Vec<PodState>> = BTreeMap::new();
        let mut lane_deltas: BTreeMap<u64, Vec<PodDelta>> = BTreeMap::new();
        for ((shard, sp), sw) in plan.shards.iter().enumerate().zip(work.shards) {
            if let Some((full, deltas)) = sw.states.split_first() {
                let what = format!("shard {shard} checkpoint state");
                platform
                    .sharded
                    .decode_shard_state(shard, full, &platform.config.hive)
                    .map_err(|e| corrupt(&what, e))?;
                for delta in deltas {
                    platform
                        .sharded
                        .apply_shard_state_delta(shard, delta)
                        .map_err(|e| corrupt(&what, e))?;
                }
            }
            lane_images.extend(sw.lane_images);
            for round in sw.rounds {
                let r = round.report.round;
                let frames = (round.frames.iter()).map(|(l, s, at)| (*l, *s, &sw.wal[at.clone()]));
                (platform.fold_frames(frames))
                    .map_err(|e| corrupt(&format!("shard {shard} round {r} frames"), e))?;
                for (seq, program, signature, overlay) in round.promotions {
                    let candidate = FixCandidate {
                        overlay,
                        description: String::new(),
                    };
                    platform
                        .sharded
                        .hive_mut(program)
                        .map_err(|e| corrupt("promote record", e))?
                        .promote(&signature, &candidate);
                    platform.promote_seq = platform.promote_seq.max(seq + 1);
                }
                if platform.config.guidance_enabled {
                    // Advance hive-internal guidance state; the directives
                    // are already in the pod deltas.
                    for id in platform.sharded.map().programs_on(shard) {
                        let _ = platform.sharded.hive_mut(id).expect("placed").guidance();
                    }
                }
                lane_deltas.extend(round.pods);
            }
            if sp.records_discarded > 0 {
                recorder.warn_or_ops(
                    "campaign.resume",
                    "journal_truncated",
                    &[
                        ("shard", shard as u64),
                        ("records", sp.records_discarded),
                        ("target_round", target),
                    ],
                    format_args!(
                        "shard {shard} resume cut {} intact record(s) past committed round {target}",
                        sp.records_discarded
                    ),
                );
            }
            let cfg = shard_cfg(&root, shard);
            stores.push(DurableStore::reopen(
                cfg,
                sw.chain,
                sw.frame_floors,
                sw.keep,
            )?);
        }

        // Install the freshest committed pod images; lanes with neither
        // an image nor a delta (a cold campaign) keep their seed-derived
        // round-0 population.
        for (lane, fleet) in platform.fleets.iter_mut().enumerate() {
            let lane = lane as u64;
            let (images, deltas) = (lane_images.remove(&lane), lane_deltas.remove(&lane));
            if images.is_some() || deltas.is_some() {
                fleet.restore(images, deltas)?;
            }
        }
        if let Some(&lane) = lane_images.keys().chain(lane_deltas.keys()).next() {
            return Err(DurabilityError::Corrupt(format!(
                "durable pod states reference unknown lane {lane}"
            )));
        }

        // The round log keeps exactly the rounds the campaign resumes
        // with: rounds past a fallen-back target go.
        let (kept, cut) = work.log_keep;
        let mut round_log = RoundLog::holding(&root.dir, kept);
        let valid = work.log.len() - plan.round_log_quarantined_bytes as usize;
        if cut < valid {
            recorder.warn_or_ops(
                "campaign.resume",
                "round_log_truncated",
                &[("bytes", (valid - cut) as u64), ("target_round", target)],
                format_args!(
                    "resume cut {} byte(s) of the round log past committed round {target}",
                    valid - cut
                ),
            );
            round_log.truncate(cut as u64)?;
        }

        platform.round_idx = target;
        platform.history = work.history;
        platform.durable = Some(stores);
        platform.round_log = Some(round_log);
        Ok((platform, plan))
    }

    /// The sharded hive (read access for experiments).
    pub fn sharded(&self) -> &ShardedHive<'p> {
        &self.sharded
    }

    /// Program ids in lane order (lane index = durable frame session).
    pub fn programs(&self) -> Vec<ProgramId> {
        self.fleets.iter().map(|f| f.id).collect()
    }

    /// All round reports so far.
    pub fn history(&self) -> &[MultiRoundReport] {
        &self.history
    }

    /// Rounds committed so far.
    pub fn committed_rounds(&self) -> u64 {
        self.round_idx
    }

    /// Ingest statistics from the most recent round, if any.
    pub fn last_run(&self) -> Option<&IngestStats> {
        self.last_run.as_ref()
    }

    /// Per-round telemetry for every round this *process* ran, parallel
    /// to [`history`](Self::history) but never journaled (resumed rounds
    /// therefore have no entries — see [`RoundTelemetry`]).
    pub fn round_telemetry(&self) -> &[RoundTelemetry] {
        &self.telemetry
    }

    /// The configuration the platform was built with.
    pub fn config(&self) -> &MultiPlatformConfig {
        &self.config
    }

    /// Serialized state of shard `shard` (the byte-identity invariant).
    ///
    /// # Panics
    ///
    /// On an out-of-range shard index.
    pub fn shard_state(&self, shard: usize) -> Vec<u8> {
        self.sharded
            .encode_shard_state(shard)
            .expect("shard index in range")
    }

    /// Every fleet's durable pod images, in lane order.
    pub fn export_pod_states(&self) -> Vec<Vec<PodState>> {
        self.fleets.iter().map(Fleet::export_pod_states).collect()
    }

    /// Scrubs the campaign *before* a resume: makes its recovery plan's
    /// repair (see [`CampaignPlan`]) and nothing else — corrupt chain
    /// records are quarantined, damaged journal regions and a torn
    /// round-log tail move to quarantine, each a Warn event on the
    /// config's `obs` — and returns the plan. Reads each file once and
    /// creates nothing on a clean campaign; a resume afterwards lands
    /// where a resume without the scrub would.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// every refusal of the plan, with no byte moved;
    /// [`DurabilityError::Io`] on filesystem failures.
    pub fn scrub(config: &MultiPlatformConfig) -> Result<CampaignPlan, DurabilityError> {
        let root = config
            .durability
            .as_ref()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut plan = plan(&root.dir, config.n_shards)?;
        plan.repair(&config.obs.recorder)?;
        plan.work = Default::default();
        Ok(plan)
    }

    /// Advances one round: distribute overlays, execute every fleet,
    /// promote fixes, guide, and (when durable) commit to every shard
    /// before returning the report — the ack. A failed commit panics.
    pub fn round(&mut self, execs_per_pod: u32) -> MultiRoundReport {
        // 1. Distribute each program's current overlay to its fleet.
        self.distribute_overlays();

        // 2. Execute all fleets through the one ingest engine.
        let (per_lane, frames) = self.execute(execs_per_pod);

        // 3-6. Fix pipelines, guidance, report, durable commit.
        self.finish_round(per_lane, frames)
    }

    /// Advances one round with execution *driven from outside* — a
    /// virtual-time scheduler, say, or a serial loop. `driver` gets one
    /// [`LaneTask`] per fleet plus the batch size and returns per-lane
    /// counters and every batch frame as `(lane, seq, frame)`, pod `j`
    /// owning slots `j*k..(j+1)*k` (`k = ceil(execs_per_pod / batch)`).
    /// The frames go through the one ingest engine, each lane's in
    /// `seq` order (the run is [`last_run`](Self::last_run)), and the
    /// rest of the round runs as usual. Pods carry their own RNG, so any
    /// driver that runs each pod `execs_per_pod` times leaves the state
    /// [`round`](Self::round) would.
    ///
    /// # Panics
    ///
    /// Panics when the driver returns the wrong number of per-lane
    /// entries, a frame on an out-of-range lane, a lane whose seqs are
    /// not exactly `0..n`, or a frame the engine does not merge into
    /// its lane's hive (corrupt, or another program's) — driver bugs,
    /// not input conditions.
    pub fn round_driven<F>(&mut self, driver: F) -> MultiRoundReport
    where
        F: for<'a> FnOnce(Vec<LaneTask<'a, 'p>>, u64) -> MultiDrivenExecution,
    {
        self.distribute_overlays();
        let n_lanes = self.fleets.len();
        let tasks: Vec<LaneTask<'_, 'p>> = self
            .fleets
            .iter_mut()
            .enumerate()
            .map(|(lane, fleet)| LaneTask {
                lane: lane as u64,
                program: fleet.id,
                pods: &mut fleet.pods,
            })
            .collect();
        let drv = driver(tasks, self.config.ingest.batch());
        assert_eq!(
            drv.per_lane.len(),
            n_lanes,
            "driver must report one (executions, failures, directed) entry per lane"
        );
        let mut frames = drv.frames;
        let run = (self.fold_frames(frames.iter().map(|(l, s, f)| (*l, *s, &f[..]))))
            .unwrap_or_else(|e| panic!("driver bug: {e}"));
        self.last_run = Some(run);
        if self.durable.is_none() {
            frames.clear();
        }
        self.finish_round(drv.per_lane, frames)
    }

    /// Folds in-hand `(lane, seq, frame)` triples, a driver's or a
    /// journaled round's, through the one engine, one frame per unit.
    /// Refused unless each lane's seqs are exactly `0..n` and every frame
    /// merged into its lane's hive.
    fn fold_frames<'f>(
        &mut self,
        frames: impl IntoIterator<Item = (u64, u64, &'f [u8])>,
    ) -> Result<IngestStats, String> {
        let mut frames: Vec<_> = frames.into_iter().collect();
        frames.sort_by_key(|&(lane, seq, _)| (lane, seq));
        let (lanes, n) = (self.programs(), frames.len() as u64);
        let mut due = vec![0u64; lanes.len()];
        for &(lane, seq, _) in &frames {
            match usize::try_from(lane).ok().and_then(|l| due.get_mut(l)) {
                Some(next) if *next == seq => *next += 1,
                _ => return Err(format!("lane {lane} seq {seq} breaks the lane's 0..n")),
            }
        }
        let cfg = self.config.ingest.pipeline_with(&self.config.obs);
        let (_, s) = self
            .sharded
            .ingest_units(&cfg, frames, |(lane, _, frame), out| {
                (out.push(lanes[lane as usize], frame)).expect("lane program is placed");
            });
        let (merged, corrupt, unknown) =
            (s.frames_merged, s.frames_corrupt, s.frames_unknown_program);
        let misclaimed = s.frames_rerouted;
        if merged == n && corrupt + unknown + misclaimed == 0 {
            return Ok(s);
        }
        Err(format!(
            "{merged} of {n} frame(s) merged: {corrupt} corrupt, {unknown} of an unknown \
             program, {misclaimed} of another lane's program"
        ))
    }

    /// Step 1 of a round: push each program's current overlay to its
    /// fleet.
    fn distribute_overlays(&mut self) {
        if self.config.fixes_enabled {
            for fleet in &mut self.fleets {
                fleet.install_overlay(hive_of(&self.sharded, fleet));
            }
        }
    }

    /// Step 2 of [`round`](Self::round): every pod is one unit of the
    /// ingest engine, its frames in pre-partitioned per-lane slots and
    /// prepared on the thread that ran it, so each program's merge order
    /// is pod-major whatever the scheduling.
    fn execute(&mut self, execs_per_pod: u32) -> (Vec<Counters>, Vec<Frame>) {
        let batch = self.config.ingest.batch();
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let keep_frames = self.durable.is_some();
        let lanes = self.programs();
        let cfg = self.config.ingest.pipeline_with(&self.config.obs);
        let mut slots: Vec<PodSlot<'_, 'p>> = Vec::new();
        for (lane, fleet) in self.fleets.iter_mut().enumerate() {
            let pods = fleet.pods.iter_mut().zip(&mut fleet.encoders);
            slots.extend(pods.enumerate().map(|(j, (pod, frame))| PodSlot {
                session: lane as u64,
                first_seq: j as u64 * frames_per_pod,
                pod,
                frame,
            }));
        }
        let run_slot = |slot: PodSlot<'_, 'p>, out: &mut UnitFrames<'_, '_>| {
            let PodSlot {
                session,
                first_seq,
                pod,
                frame,
            } = slot;
            let program = lanes[session as usize];
            let mut kept = Vec::new();
            let emit = |seq, frame: &[u8]| {
                (out.push(program, frame)).expect("lane program is placed");
                if keep_frames {
                    kept.push((session, seq, frame.to_vec()));
                }
            };
            let ran = fleet::run_pod(pod, frame, execs_per_pod, batch, first_seq, emit);
            (session, ran, kept)
        };
        let (per_pod, stats) = self.sharded.ingest_units(&cfg, slots, run_slot);
        self.last_run = Some(stats);
        let mut per_lane = vec![(0u64, 0u64, 0u64); lanes.len()];
        let mut frames = Vec::new();
        for (lane, (e, f, d), kept) in per_pod {
            let entry = &mut per_lane[lane as usize];
            *entry = (entry.0 + e, entry.1 + f, entry.2 + d);
            frames.extend(kept);
        }
        (per_lane, frames)
    }

    /// Steps 3–6 of a round, after execution: fix pipelines, guidance,
    /// report, durable two-phase commit.
    fn finish_round(&mut self, per_lane: Vec<Counters>, frames: Vec<Frame>) -> MultiRoundReport {
        // 3. Fixes: every program's proposals are validated concurrently
        //    against its round-start overlay, then promoted in (lane,
        //    proposal) order; resume replays the recorded decisions.
        let mut promoted: Vec<(usize, String, Overlay)> = Vec::new();
        let mut fixes_by_lane = vec![0u64; self.fleets.len()];
        if self.config.fixes_enabled {
            let trials: Vec<Trial<'p>> = self
                .fleets
                .iter()
                .enumerate()
                .flat_map(|(lane, fleet)| fleet.trials(lane, hive_of(&self.sharded, fleet)))
                .collect();
            let winners = fleet::validate_trials(&trials, self.config.min_preservation_cases);
            for (trial, winner) in trials.into_iter().zip(winners) {
                let Some(candidate) = winner else { continue };
                hive_of_mut(&mut self.sharded, &self.fleets[trial.lane])
                    .promote(&trial.signature, &candidate);
                if self.durable.is_some() {
                    promoted.push((trial.lane, trial.signature, candidate.overlay));
                }
                fixes_by_lane[trial.lane] += 1;
            }
        }

        // 4. Guidance, per program.
        if self.config.guidance_enabled {
            for fleet in &mut self.fleets {
                let (plan, _stats) = hive_of_mut(&mut self.sharded, fleet).guidance();
                fleet.spread_guidance(plan.directives);
            }
        }

        // 5. Report: one summary of each tree, read after guidance's
        //    infeasibility marks, gives coverage and the proof count.
        let programs: Vec<ProgramRoundReport> = self
            .fleets
            .iter()
            .zip(&per_lane)
            .zip(&fixes_by_lane)
            .map(|((fleet, &(executions, failures, directed)), &fixes)| {
                let hive = hive_of(&self.sharded, fleet);
                let (coverage, proofs) = hive.coverage_and_proof_count();
                ProgramRoundReport {
                    program: fleet.id.0,
                    executions,
                    failures,
                    fixes_promoted: fixes,
                    overlay_version: hive.current_overlay().1,
                    directed,
                    coverage,
                    proofs,
                }
            })
            .collect();
        let executions: u64 = programs.iter().map(|p| p.executions).sum();
        let failures: u64 = programs.iter().map(|p| p.failures).sum();
        let report = MultiRoundReport {
            round: self.round_idx,
            executions,
            failures,
            failure_rate_per_10k: failure_rate(executions, failures),
            fixes_promoted: fixes_by_lane.iter().sum(),
            programs,
        };
        self.round_idx += 1;
        self.history.push(report.clone());

        // 6. Durable commit, timed, then counters and a content-only
        //    `round_committed` event (so `events_hash` replays). A failed
        //    commit panics: crash-only software never runs on unpersisted.
        let (obs, source) = (self.config.obs.clone(), self.source);
        let registry = obs.registry.as_ref();
        let commit_hist = registry.map(|r| r.histogram(&format!("{source}.round_commit_ns")));
        let clock = obs.span_clock();
        let commit_span = SpanTimer::start_if(clock.as_ref(), &commit_hist);
        let journaled = (frames.len() as u64, promoted.len() as u64);
        let commit =
            (self.commit_round(&report, frames, &promoted)).expect("durable round commit failed");
        let commit_ns = commit_span.map_or(0, SpanTimer::stop);
        let (round, fixes) = (report.round, report.fixes_promoted);
        if let Some(reg) = registry {
            reg.counter(&format!("{source}.rounds")).incr();
            reg.counter(&format!("{source}.executions")).add(executions);
            reg.counter(&format!("{source}.failures")).add(failures);
            reg.counter(&format!("{source}.fixes_promoted")).add(fixes);
        }
        obs.recorder.info(
            source,
            "round_committed",
            &[
                ("round", round),
                ("executions", executions),
                ("failures", failures),
                ("fixes_promoted", fixes),
            ],
            format_args!(
                "round {round} committed: {executions} executions, {failures} failures, \
                 {fixes} fix(es) promoted"
            ),
        );
        self.telemetry.push(RoundTelemetry {
            round,
            commit_ns,
            frames_journaled: journaled.0,
            promotions_journaled: journaled.1,
            ..commit
        });
        report
    }

    /// Runs `rounds` rounds and returns the full history.
    pub fn run(&mut self, rounds: u32, execs_per_pod: u32) -> &[MultiRoundReport] {
        for _ in 0..rounds {
            self.round(execs_per_pod);
        }
        self.history()
    }

    /// Commits one round: phase A appends its frames, promotions, pod
    /// deltas and round record to every shard journal and fsyncs them
    /// all (the ack); phase B then compacts the shards that are due.
    fn commit_round(
        &mut self,
        report: &MultiRoundReport,
        mut frames: Vec<Frame>,
        promoted: &[(usize, String, Overlay)],
    ) -> Result<RoundTelemetry, DurabilityError> {
        if self.durable.is_none() {
            return Ok(RoundTelemetry::default());
        }
        let lane_shards: Vec<usize> = (0..self.fleets.len())
            .map(|lane| self.shard_of_lane(lane))
            .collect();
        let stores = self.durable.as_mut().expect("checked above");
        let journal_len = |stores: &[DurableStore]| stores.iter().map(DurableStore::wal_len).sum();
        let journal_before: u64 = journal_len(stores);
        frames.sort_by_key(|&(lane, seq, _)| (lane, seq));

        // Phase A: stage every record, then write each journal once…
        for (lane, seq, bytes) in &frames {
            stores[lane_shards[*lane as usize]].stage_frame(*lane, *seq, bytes);
        }
        let mut body = Vec::new();
        for (lane, signature, overlay) in promoted {
            body.clear();
            put_promotion(&mut body, self.fleets[*lane].id.0, signature, overlay);
            let store = &mut stores[lane_shards[*lane]];
            store.stage(REC_PROMOTE, SESSION_PROMOTE, self.promote_seq, &body);
            self.promote_seq += 1;
        }
        // Pod deltas *after* guidance queued next-round directives.
        for (lane, fleet) in self.fleets.iter().enumerate() {
            body.clear();
            fleet.put_pod_deltas(&mut body);
            stores[lane_shards[lane]].stage(REC_PODS, lane as u64, report.round, &body);
        }
        body.clear();
        report.encode_into(&mut body);
        for store in stores.iter_mut() {
            store.stage(REC_ROUND, SESSION_ROUND, report.round, &body);
        }
        // …and fsync it; a crash between two shards' syncs leaves some
        // shards one unacked round ahead.
        let obs = &self.config.obs;
        let clock = obs.span_clock();
        let fsync_hist = obs.registry.as_ref().map(|r| r.histogram("hive.fsync_ns"));
        let fsync_span = SpanTimer::start_if(clock.as_ref(), &fsync_hist);
        for store in stores.iter_mut() {
            store.sync()?;
        }
        let mut stats = RoundTelemetry {
            fsync_ns: fsync_span.map_or(0, SpanTimer::stop),
            journal_bytes: journal_len(stores) - journal_before,
            ..RoundTelemetry::default()
        };

        // Phase B: per-shard compaction, behind the round log.
        let due: Vec<usize> = (0..stores.len())
            .filter(|&shard| stores[shard].checkpoint_due())
            .collect();
        if !due.is_empty() {
            let started = std::time::Instant::now();
            self.sync_round_log()?;
            for shard in due {
                stats.checkpoint_bytes += self.checkpoint_shard(shard, true)?;
            }
            stats.checkpoint_ns = started.elapsed().as_nanos() as u64;
            stats.compacted = true;
        }
        Ok(stats)
    }

    /// Appends every committed round the round log lacks and fsyncs it —
    /// what a checkpoint, which carries no history, relies on.
    fn sync_round_log(&mut self) -> Result<(), DurabilityError> {
        let log = self
            .round_log
            .as_mut()
            .ok_or(DurabilityError::NotConfigured)?;
        let history = &self.history;
        log.append_synced(self.round_idx, |round, body| {
            history[round as usize].encode_into(body);
        })
    }

    /// Checkpoints shard `shard` — its hive state, the committed-round
    /// counter and its lanes' full pod images — and makes that state the
    /// base of later hive and pod deltas.
    fn checkpoint_shard(&mut self, shard: usize, truncate: bool) -> Result<u64, DurabilityError> {
        let lanes: Vec<usize> = (0..self.fleets.len())
            .filter(|&lane| self.shard_of_lane(lane) == shard)
            .collect();
        let mut app_meta = Vec::new();
        app_meta.extend_from_slice(APP_META_TAG);
        codec::put_u64(&mut app_meta, self.round_idx);
        codec::put_u32(&mut app_meta, lanes.len() as u32);
        for &lane in &lanes {
            codec::put_u64(&mut app_meta, lane as u64);
            fleet::framed(&mut app_meta, |buf| self.fleets[lane].put_pod_images(buf));
        }
        let sharded = &self.sharded;
        let encode = |kind| {
            match kind {
                RecordKind::Full => sharded.encode_shard_state(shard),
                RecordKind::Delta => sharded.encode_shard_state_delta(shard),
            }
            .expect("shard index in range")
        };
        let stores = self
            .durable
            .as_mut()
            .ok_or(DurabilityError::NotConfigured)?;
        let written = stores[shard].write_checkpoint(encode, app_meta, truncate)?;
        self.sharded.mark_shard_clean(shard);
        for lane in lanes {
            self.fleets[lane].rebase();
        }
        Ok(written)
    }

    /// On-demand compaction of every shard; returns the payload bytes
    /// written.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] on a non-durable platform;
    /// [`DurabilityError::Io`] when a log or chain append fails.
    pub fn checkpoint(&mut self) -> Result<u64, DurabilityError> {
        self.checkpoint_all(true)
    }

    /// Checkpoints every shard; without `truncate` the disk is left as a
    /// crash between the chain appends and the journal truncates leaves
    /// it.
    pub(crate) fn checkpoint_all(&mut self, truncate: bool) -> Result<u64, DurabilityError> {
        self.sync_round_log()?;
        (0..self.sharded.n_shards())
            .map(|shard| self.checkpoint_shard(shard, truncate))
            .sum()
    }
}

/// First eight bytes of a checkpoint's app-meta in this layout. Older
/// builds began it with the committed-round count and kept round
/// history behind it; their checkpoints are refused.
pub(crate) const APP_META_TAG: &[u8; 8] = b"SBMETA02";

/// A checkpoint's app-meta, as [`MultiPlatform::checkpoint_shard`]
/// writes it: [`APP_META_TAG`], the committed-round counter, and the
/// shard's lanes' pod images (`u32 count`, then `u64 lane | u32 len |`
/// the population's images each), so a fully compacted journal still
/// restores every pod.
type AppMeta = (u64, LanePods<PodState>);

/// Per lane (by index), one pod record of each of its pods.
pub(crate) type LanePods<T> = Vec<(u64, Vec<T>)>;

pub(crate) fn decode_app_meta(bytes: &[u8]) -> Result<AppMeta, DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    if r.take(8, "app_meta.tag").ok() != Some(APP_META_TAG) {
        return Err(DurabilityError::Corrupt(
            "checkpoint app-meta of an older layout (round history inside checkpoints); \
             this build keeps history in rounds.log and cannot resume it"
                .to_string(),
        ));
    }
    let round_idx = r.u64("app_meta.round_idx")?;
    let n_lanes = r.seq_len("app_meta.lane_pods", 12)?;
    let mut lane_pods = Vec::with_capacity(n_lanes);
    for _ in 0..n_lanes {
        let lane = r.u64("app_meta.lane")?;
        let body = r.bytes("app_meta.pods")?;
        lane_pods.push((lane, fleet::decode_pod_images(body)?));
    }
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "app_meta has {} trailing byte(s)",
            r.remaining()
        )));
    }
    Ok((round_idx, lane_pods))
}
