//! The multi-program platform: several pod fleets, one sharded hive.
//!
//! [`Platform`](crate::Platform) closes the quality-feedback loop for a
//! single program. A real deployment recycles information from *many*
//! programs at once, so a [`MultiPlatform`] runs one pod fleet per
//! program and drives every fleet's traffic through the sharded ingest
//! layer (`softborg-shard`): all fleets share **one** decode+reconstruct
//! worker pool, while each program's hive lives on its deterministic
//! shard and sees its own traces in exact submission order.
//!
//! Durability composes with sharding by construction: each shard owns
//! its own `shard-<i>/` directory (journal + delta chain), and a round
//! commits in two phases — first the round's frames, promotions, and
//! round record are appended and fsynced to **every** shard journal
//! (phase A), only then may any shard compact into a checkpoint (phase
//! B). A crash can therefore leave shards at *different* committed
//! rounds, but never with a checkpoint ahead of another shard's journal;
//! [`MultiPlatform::resume`] recovers every shard, takes the *minimum*
//! committed round as the campaign's truth, and truncates any shard that
//! got ahead (those rounds were never acked). The recovered per-shard
//! state is byte-identical to an uninterrupted run at the same committed
//! round.

use crate::durable::{
    io_err, put_promotion, read_promotion, DurabilityConfig, DurabilityError, DurableStore,
    Recovered, SegmentWalker,
};
use crate::fleet::{self, Counters, Fleet, Frame, PodSlot, Trial};
use crate::platform::{commit_observed, IngestSettings, RoundTelemetry};
use softborg_fix::FixCandidate;
use softborg_hive::journal::{
    self, JournalRecord, REC_PODS, REC_PROMOTE, REC_ROUND, SESSION_PROMOTE, SESSION_ROUND,
};
use softborg_hive::{scrub_page_dir, Hive, HiveConfig, PageScrub, ScrubReport};
use softborg_obs::{ObsHandles, SpanTimer};
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Overlay, Program, ProgramId};
use softborg_shard::{ShardRunStats, ShardedHive};
use softborg_store::{ChainReport, PageStats, PagedConfig, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;

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
    /// Execution/ingest tuning for the shared sharded pipeline.
    pub ingest: IngestSettings,
    /// Crash-only durability root. Each shard persists under its own
    /// `shard-<i>/` subdirectory of [`DurabilityConfig::dir`].
    pub durability: Option<DurabilityConfig>,
    /// Paged execution-tree storage: each program's tree pages into a
    /// `prog-<id>/` subdirectory of the configured page dir, under the
    /// same resident budget. Byte-identical state with paging on or off.
    pub tree_paging: Option<PagedConfig>,
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
            tree_paging: None,
            obs: ObsHandles::default(),
        }
    }
}

/// One program's slice of a multi-program round.
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
}

/// Metrics for one multi-program round (aggregate + per program).
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

impl MultiRoundReport {
    /// Serializes the report for durable `REC_ROUND` records.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.round);
        codec::put_u64(buf, self.executions);
        codec::put_u64(buf, self.failures);
        codec::put_f64(buf, self.failure_rate_per_10k);
        codec::put_u64(buf, self.fixes_promoted);
        codec::put_u32(buf, self.programs.len() as u32);
        for p in &self.programs {
            codec::put_u64(buf, p.program);
            codec::put_u64(buf, p.executions);
            codec::put_u64(buf, p.failures);
            codec::put_u64(buf, p.fixes_promoted);
            codec::put_u64(buf, p.overlay_version);
            codec::put_u64(buf, p.directed);
        }
    }

    /// Decodes a report written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let round = r.u64("MultiRoundReport.round")?;
        let executions = r.u64("MultiRoundReport.executions")?;
        let failures = r.u64("MultiRoundReport.failures")?;
        let failure_rate_per_10k = r.f64("MultiRoundReport.failure_rate_per_10k")?;
        let fixes_promoted = r.u64("MultiRoundReport.fixes_promoted")?;
        let n = r.seq_len("MultiRoundReport.programs", 40)?;
        let mut programs = Vec::with_capacity(n);
        for _ in 0..n {
            programs.push(ProgramRoundReport {
                program: r.u64("ProgramRoundReport.program")?,
                executions: r.u64("ProgramRoundReport.executions")?,
                failures: r.u64("ProgramRoundReport.failures")?,
                fixes_promoted: r.u64("ProgramRoundReport.fixes_promoted")?,
                overlay_version: r.u64("ProgramRoundReport.overlay_version")?,
                directed: r.u64("ProgramRoundReport.directed")?,
            });
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

/// What [`MultiPlatform::resume`] found and did on one shard.
#[derive(Debug, Clone)]
pub struct ShardResumeReport {
    /// Shard index.
    pub shard: usize,
    /// This shard's chain walk: which lineage validated and every
    /// damaged record file found.
    pub chain: ChainReport,
    /// Delta records applied on top of this shard's chain full record.
    pub chain_deltas_applied: u64,
    /// Committed rounds restored from the checkpoint alone.
    pub rounds_from_snapshot: u64,
    /// Committed rounds replayed from this shard's journal suffix.
    pub rounds_replayed: u64,
    /// Corrupt/unsynced journal-tail bytes dropped.
    pub wal_tail_dropped: u64,
    /// Intact records discarded because they belong past the campaign's
    /// minimum committed round: an uncommitted partial segment, a round
    /// this shard journaled while another shard's fsync never happened
    /// (the round was never acked), or a suffix disconnected from a
    /// fallback chain lineage. All are truncated.
    pub records_discarded: u64,
}

/// What [`MultiPlatform::resume`] found and did across all shards.
#[derive(Debug, Clone)]
pub struct MultiResumeReport {
    /// The campaign's recovered committed round: the *minimum* across
    /// shards (a round is acked only once every shard fsynced it).
    pub target_round: u64,
    /// Per-shard recovery detail.
    pub shards: Vec<ShardResumeReport>,
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

/// The multi-program platform. See the [module docs](self).
pub struct MultiPlatform<'p> {
    sharded: ShardedHive<'p>,
    /// Fleets in lane order (sorted by program id) — lane index is the
    /// durable journal session for that program's frames.
    fleets: Vec<Fleet<'p>>,
    config: MultiPlatformConfig,
    round_idx: u64,
    history: Vec<MultiRoundReport>,
    telemetry: Vec<RoundTelemetry>,
    last_run: Option<ShardRunStats>,
    /// One open durable store per shard, under `shard-<i>/` of the
    /// campaign directory.
    durable: Option<Vec<DurableStore>>,
    /// Next sequence number for `REC_PROMOTE` records (global across
    /// shards, so promotion order is totally ordered).
    promote_seq: u64,
}

/// Shard `shard`'s own durability config: the campaign policy rooted at
/// its `shard-<i>/` subdirectory.
fn shard_cfg(root: &DurabilityConfig, shard: usize) -> DurabilityConfig {
    DurabilityConfig {
        dir: root.dir.join(format!("shard-{shard}")),
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
            round_idx: 0,
            history: Vec::new(),
            telemetry: Vec::new(),
            last_run: None,
            durable: None,
            promote_seq: 0,
        }
    }

    /// Moves every hive's tree behind the paged store (when
    /// [`MultiPlatformConfig::tree_paging`] is set), one `prog-<id>/`
    /// page directory per program.
    fn enable_tree_paging(&mut self) -> Result<(), DurabilityError> {
        let Some(root) = self.config.tree_paging.clone() else {
            return Ok(());
        };
        for (id, hive) in self.sharded.hives_mut() {
            let mut cfg = root.clone();
            cfg.dir = root.dir.join(format!("prog-{}", id.0));
            hive.enable_tree_paging(cfg)
                .map_err(|e| io_err("page-store", &e))?;
        }
        Ok(())
    }

    /// The shard whose journal carries `lane`'s frames.
    fn shard_of_lane(&self, lane: usize) -> usize {
        self.sharded
            .map()
            .shard_of(self.fleets[lane].id)
            .expect("lane program is placed")
    }

    /// Builds a multi-program platform. With durability configured this
    /// starts a *fresh* campaign and panics if any shard directory
    /// already holds campaign state (use [`try_new`](Self::try_new) to
    /// handle the error, or [`resume`](Self::resume) to continue).
    ///
    /// # Panics
    ///
    /// On duplicate programs, zero shards, or durable initialization
    /// failure.
    pub fn new(specs: &[FleetSpec<'p>], config: MultiPlatformConfig) -> Self {
        Self::try_new(specs, config).expect("durable multi-platform initialization failed")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when any shard directory
    /// already holds chain records, a non-empty journal, or a legacy
    /// full-snapshot campaign; [`DurabilityError::Io`] when a shard's journal or
    /// chain cannot be opened.
    pub fn try_new(
        specs: &[FleetSpec<'p>],
        config: MultiPlatformConfig,
    ) -> Result<Self, DurabilityError> {
        let mut platform = Self::base(specs, config);
        platform.enable_tree_paging()?;
        if let Some(root) = platform.config.durability.clone() {
            let stores = (0..platform.sharded.n_shards())
                .map(|i| DurableStore::create(shard_cfg(&root, i)))
                .collect::<Result<_, _>>()?;
            platform.durable = Some(stores);
        }
        Ok(platform)
    }

    /// Resumes (or cold-starts) a durable multi-program campaign.
    ///
    /// Every shard recovers independently — newest valid checkpoint
    /// (falling back a chain lineage if torn), then journal replay — and
    /// the campaign's committed round is the **minimum** across shards:
    /// a round was acked only once phase A fsynced it on every shard, so
    /// any shard past the minimum holds rounds that were never acked.
    /// Those suffixes (and any uncommitted partial segment) are
    /// truncated, leaving every shard byte-identical to the
    /// uninterrupted run at the recovered round.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] when a checksummed record decodes to
    /// garbage, or when a shard directory holds a legacy full-snapshot
    /// campaign.
    pub fn resume(
        specs: &[FleetSpec<'p>],
        config: MultiPlatformConfig,
    ) -> Result<(Self, MultiResumeReport), DurabilityError> {
        let root = config
            .durability
            .clone()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut platform = Self::base(specs, config);
        let n_shards = platform.sharded.n_shards();
        let lanes = platform.programs();

        // Pass 1: load every shard's checkpoint + journal and count its
        // committed rounds (checkpoint rounds + connected ROUND records).
        struct ShardScan {
            store: DurableStore,
            rec: Recovered,
            // Decoded from the head checkpoint's `app_meta`:
            snap_round: u64,
            history: Vec<MultiRoundReport>,
            lane_pods: Vec<(u64, Vec<PodState>)>,
            records: Vec<JournalRecord>,
            tail_dropped: u64,
            committed: u64,
        }
        let mut scans = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let (store, rec) = DurableStore::resume(shard_cfg(&root, i))?;
            let (snap_round, history, lane_pods) = match &rec.app_meta {
                Some(meta) => decode_multi_app_meta(meta)?,
                None => (0, Vec::new(), Vec::new()),
            };
            let (records, scan) = journal::scan(&rec.wal[rec.replay_from..]);
            if let Some(err) = scan.tail_error {
                platform.config.obs.recorder.warn_or_ops(
                    "multi.resume",
                    "wal_tail_dropped",
                    &[
                        ("shard", i as u64),
                        ("tail_bytes", scan.tail_dropped as u64),
                        ("intact_records", scan.records as u64),
                    ],
                    format_args!(
                        "shard {i} resume dropped {} journal tail byte(s) after {} intact \
                         record(s): {err}",
                        scan.tail_dropped, scan.records
                    ),
                );
            }
            let mut committed = snap_round;
            let mut walker = SegmentWalker::new(&records, rec.replay_from);
            while let Some(seg) = walker.next_segment()? {
                if decode_round(seg.round)?.round != committed {
                    // Disconnected suffix (the checkpoint fell back a
                    // generation); nothing past here counts.
                    break;
                }
                committed += 1;
            }
            scans.push(ShardScan {
                store,
                rec,
                snap_round,
                history,
                lane_pods,
                records,
                tail_dropped: scan.tail_dropped as u64,
                committed,
            });
        }
        let target = scans.iter().map(|s| s.committed).min().unwrap_or(0);

        // Pass 2: restore each shard's checkpoint state and replay its
        // journal up to (exactly) the target round, truncating whatever
        // lies beyond — ahead rounds, partial segments, damaged tails.
        let mut shard_reports = Vec::with_capacity(n_shards);
        let mut stores = Vec::with_capacity(n_shards);
        let mut recovered_history: Option<Vec<MultiRoundReport>> = None;
        // Per-lane durable pod populations: seeded from each shard's
        // checkpoint, then overwritten by committed `REC_PODS` records
        // replayed from that shard's journal suffix.
        let mut lane_pod_states: BTreeMap<u64, Vec<PodState>> = BTreeMap::new();
        for (shard, mut sc) in scans.into_iter().enumerate() {
            if sc.snap_round > target {
                // Phase B runs only after phase A committed on every
                // shard, so a checkpoint can never be ahead of the
                // campaign minimum.
                return Err(DurabilityError::Corrupt(format!(
                    "shard {shard} checkpoint is at round {} but the campaign minimum is {target}",
                    sc.snap_round
                )));
            }
            if let Some((full, deltas)) = sc.rec.states.split_first() {
                let corrupt =
                    |e| DurabilityError::Corrupt(format!("shard {shard} checkpoint state: {e}"));
                platform
                    .sharded
                    .decode_shard_state(shard, full, &platform.config.hive)
                    .map_err(corrupt)?;
                for delta in deltas {
                    platform
                        .sharded
                        .apply_shard_state_delta(shard, delta)
                        .map_err(corrupt)?;
                }
            }
            lane_pod_states.extend(sc.lane_pods);
            let mut history = sc.history;
            let mut rounds_applied = sc.snap_round;
            // End of the last fully-applied round (the truncation
            // boundary if anything uncommitted follows).
            let mut boundary = sc.rec.replay_from;
            let mut applied_records = 0usize;
            let mut walker = SegmentWalker::new(&sc.records, sc.rec.replay_from);
            while rounds_applied < target {
                let Some(seg) = walker.next_segment()? else {
                    break;
                };
                let report = decode_round(seg.round)?;
                if report.round != rounds_applied {
                    break; // disconnected: truncated below
                }
                for fr in &seg.frames {
                    let Some(&id) = usize::try_from(fr.session).ok().and_then(|l| lanes.get(l))
                    else {
                        return Err(DurabilityError::Corrupt(format!(
                            "frame record on unknown lane {}",
                            fr.session
                        )));
                    };
                    let traces = wire::decode_batch(&fr.frame)
                        .map_err(|e| DurabilityError::Corrupt(format!("frame batch: {e}")))?;
                    let hive = platform
                        .sharded
                        .hive_mut(id)
                        .expect("lane program is placed");
                    for trace in &traces {
                        hive.ingest(trace);
                    }
                    sc.store.raise_floor(fr.session, fr.seq);
                }
                for pr in &seg.promotes {
                    let mut r = codec::Reader::new(&pr.frame);
                    let program = ProgramId(r.u64("promote.program")?);
                    let (signature, overlay) = read_promotion(&mut r)?;
                    platform
                        .sharded
                        .hive_mut(program)
                        .map_err(|e| DurabilityError::Corrupt(format!("promote record: {e}")))?
                        .promote(
                            &signature,
                            &FixCandidate {
                                overlay,
                                description: String::new(),
                            },
                        );
                    platform.promote_seq = platform.promote_seq.max(pr.seq + 1);
                }
                if platform.config.guidance_enabled {
                    // Advance hive-internal guidance state; the directives
                    // themselves are already inside the pod images.
                    for id in platform.sharded.map().programs_on(shard) {
                        let hive = platform.sharded.hive_mut(id).expect("placed program");
                        let _ = hive.guidance();
                    }
                }
                for pr in &seg.pods {
                    lane_pod_states.insert(pr.session, fleet::decode_pod_states(&pr.frame)?);
                }
                rounds_applied += 1;
                history.push(report);
                (boundary, applied_records) = (seg.end, seg.end_idx);
            }
            let records_discarded = (sc.records.len() - applied_records) as u64;
            if boundary < sc.rec.wal.len() {
                if records_discarded > 0 {
                    platform.config.obs.recorder.warn_or_ops(
                        "multi.resume",
                        "records_truncated",
                        &[
                            ("shard", shard as u64),
                            ("records", records_discarded),
                            ("target_round", target),
                        ],
                        format_args!(
                            "shard {shard} resume truncating {records_discarded} journal \
                             record(s) past committed round {target}"
                        ),
                    );
                }
                sc.store.truncate_wal(&sc.rec.wal[..boundary])?;
            }
            if rounds_applied != target {
                return Err(DurabilityError::Corrupt(format!(
                    "shard {shard} replayed to round {rounds_applied} but the campaign minimum \
                     is {target}"
                )));
            }
            if recovered_history.is_none() {
                recovered_history = Some(history);
            }
            shard_reports.push(ShardResumeReport {
                shard,
                chain_deltas_applied: sc.rec.deltas_applied(),
                chain: sc.rec.chain,
                rounds_from_snapshot: sc.snap_round,
                rounds_replayed: rounds_applied - sc.snap_round,
                wal_tail_dropped: sc.tail_dropped,
                records_discarded,
            });
            stores.push(sc.store);
        }

        // Paging attaches only after every shard's state is final:
        // decode_shard_state replaces whole hives, so an earlier enable
        // would be silently discarded.
        platform.enable_tree_paging()?;

        // Process equivalence: install every fleet's freshest committed
        // pod images (journal beats checkpoint; lanes with no durable
        // record — a cold campaign — keep their seed-derived round-0
        // population).
        for (lane, fleet) in platform.fleets.iter_mut().enumerate() {
            if let Some(states) = lane_pod_states.remove(&(lane as u64)) {
                fleet.restore_pod_states(states)?;
            }
        }
        if let Some((&lane, _)) = lane_pod_states.iter().next() {
            return Err(DurabilityError::Corrupt(format!(
                "durable pod states reference unknown lane {lane}"
            )));
        }

        platform.round_idx = target;
        platform.history = recovered_history.unwrap_or_default();
        platform.durable = Some(stores);
        Ok((
            platform,
            MultiResumeReport {
                target_round: target,
                shards: shard_reports,
            },
        ))
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

    /// Sharded-run statistics from the most recent round, if any.
    pub fn last_run(&self) -> Option<&ShardRunStats> {
        self.last_run.as_ref()
    }

    /// Paged-tree counters summed over every program's execution tree
    /// (all zeros when [`MultiPlatformConfig::tree_paging`] is off).
    pub fn page_stats(&self) -> PageStats {
        let mut total = PageStats::default();
        for (_, hive) in self.sharded.hives() {
            let s = hive.tree().page_stats();
            total.faults += s.faults;
            total.evictions += s.evictions;
            total.writes += s.writes;
            total.pages_trusted += s.pages_trusted;
            total.resident_pages += s.resident_pages;
            total.total_pages += s.total_pages;
            total.total_items += s.total_items;
            total.resident_items += s.resident_items;
        }
        total
    }

    /// Per-round telemetry for every round this *process* ran, parallel
    /// to [`history`](Self::history) but never journaled (resumed rounds
    /// therefore have no entries — see [`RoundTelemetry`]).
    pub fn round_telemetry(&self) -> &[RoundTelemetry] {
        &self.telemetry
    }

    /// The configuration the platform was built with (telemetry sinks
    /// included — the simulator paths use this to retime the attached
    /// flight recorder onto virtual time).
    pub fn config(&self) -> &MultiPlatformConfig {
        &self.config
    }

    /// Serialized state of shard `shard` — the byte-identity invariant
    /// checked by the kill/restart harness.
    ///
    /// # Panics
    ///
    /// On an out-of-range shard index.
    pub fn shard_state(&self, shard: usize) -> Vec<u8> {
        self.sharded
            .encode_shard_state(shard)
            .expect("shard index in range")
    }

    /// Exports every fleet's durable pod images, in lane order — the
    /// pod half of the process-equivalence invariant checked by the
    /// kill/restart harness.
    pub fn export_pod_states(&self) -> Vec<Vec<PodState>> {
        self.fleets.iter().map(Fleet::export_pod_states).collect()
    }

    /// Scrubs every shard's durable files for bit rot *before*
    /// resuming, in shard order — the multi-shard analogue of
    /// [`Platform::scrub`](crate::Platform::scrub). Returns one
    /// [`ScrubReport`] per shard.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// otherwise the first failing shard's error (I/O, or a shard whose
    /// durable data was entirely destroyed).
    pub fn scrub(config: &MultiPlatformConfig) -> Result<Vec<ScrubReport>, DurabilityError> {
        let root = config
            .durability
            .as_ref()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut reports = (0..config.n_shards)
            .map(|i| DurableStore::scrub(&shard_cfg(root, i), &config.obs.recorder))
            .collect::<Result<Vec<_>, _>>()?;
        // Page stores are per program (`prog-<id>/` under the paging
        // root), not per shard; their merged verdict rides on the first
        // shard's report.
        if let Some(pcfg) = &config.tree_paging {
            let mut merged = PageScrub {
                pages_valid: 0,
                quarantined: Vec::new(),
            };
            let mut prog_dirs: Vec<std::path::PathBuf> = match std::fs::read_dir(&pcfg.dir) {
                Ok(entries) => entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.is_dir()
                            && p.file_name()
                                .is_some_and(|n| n.to_string_lossy().starts_with("prog-"))
                    })
                    .collect(),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(io_err("page-root", &e)),
            };
            prog_dirs.sort();
            for dir in prog_dirs {
                let sub = scrub_page_dir(&dir, &config.obs.recorder)?;
                merged.pages_valid += sub.pages_valid;
                let prefix = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                merged
                    .quarantined
                    .extend(sub.quarantined.into_iter().map(|f| format!("{prefix}/{f}")));
            }
            if let Some(first) = reports.first_mut() {
                first.pages = Some(merged);
            }
        }
        Ok(reports)
    }

    /// Advances one round: distribute overlays, execute every fleet
    /// through the sharded pipeline, validate and promote fixes per
    /// program, distribute guidance, and (when durable) commit the round
    /// to every shard journal before returning the report.
    pub fn round(&mut self, execs_per_pod: u32) -> MultiRoundReport {
        // 1. Distribute each program's current overlay to its fleet.
        self.distribute_overlays();

        // 2. Execute all fleets through the shared sharded pipeline.
        let (per_lane, frames) = self.execute(execs_per_pod);

        // 3-6. Fix pipelines, guidance, report, durable commit.
        self.finish_round(per_lane, frames)
    }

    /// Advances one round with execution *driven from outside*, the
    /// multi-program counterpart of
    /// [`Platform::round_driven`](crate::Platform::round_driven):
    /// `driver` receives one [`LaneTask`] per fleet (overlays already
    /// distributed) plus the configured batch size, runs the pods
    /// however it likes, and returns per-lane counters plus every
    /// wire-encoded batch frame as `(lane, seq, frame)` triples in the
    /// pre-partitioned per-lane sequence layout (pod `j` owns slots
    /// `j*k..(j+1)*k`, `k = ceil(execs_per_pod / batch)`).
    ///
    /// Frames are ingested in `(lane, seq)` order — each lane's order is
    /// exactly the sharded merger's release order and the durable resume
    /// replay order — then the identical fix / guidance / report /
    /// commit pipeline runs.
    ///
    /// # Panics
    ///
    /// Panics when the driver returns the wrong number of per-lane
    /// entries, an out-of-range lane, or a frame that fails wire
    /// validation — driver bugs, not input conditions.
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
        frames.sort_by_key(|&(lane, seq, _)| (lane, seq));
        for (lane, _, frame) in &frames {
            let traces = wire::decode_batch(frame).expect("driver produced a corrupt frame");
            let hive = hive_of_mut(&mut self.sharded, &self.fleets[*lane as usize]);
            for trace in &traces {
                hive.ingest(trace);
            }
        }
        if self.durable.is_none() {
            frames.clear();
        }
        self.finish_round(drv.per_lane, frames)
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

    /// Step 2 of [`round`](Self::round): executes every fleet's pods on
    /// scoped threads, submitting batch frames into pre-partitioned
    /// per-program sequence slots (pod `j` of a fleet owns slots
    /// `j*k..(j+1)*k`), so each program's merge order is pod-major —
    /// byte-identical to a serial per-program loop — regardless of
    /// thread scheduling. Returns the counters per lane.
    fn execute(&mut self, execs_per_pod: u32) -> (Vec<Counters>, Vec<Frame>) {
        let batch = self.config.ingest.batch();
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let threads = self.config.ingest.pod_threads;
        let keep_frames = self.durable.is_some();
        let lanes = self.programs();
        let cfg = self.config.ingest.pipeline_with(&self.config.obs);
        let mut per_lane = vec![(0u64, 0u64, 0u64); lanes.len()];
        let mut slots: Vec<PodSlot<'_, 'p>> = Vec::new();
        for (lane, fleet) in self.fleets.iter_mut().enumerate() {
            slots.extend(fleet.pods.iter_mut().enumerate().map(|(j, pod)| PodSlot {
                session: lane as u64,
                first_seq: j as u64 * frames_per_pod,
                pod,
            }));
        }
        let ((per_pod, frames), stats) = self.sharded.ingest_frames(&cfg, move |tx| {
            let submit = move |lane: u64, seq, frame| {
                tx.submit_for_at(lanes[lane as usize], seq, frame)
                    .expect("lane program is placed");
            };
            fleet::run_threaded(slots, threads, execs_per_pod, batch, keep_frames, submit)
        });
        self.last_run = Some(stats);
        for (lane, (e, f, d)) in per_pod {
            let entry = &mut per_lane[lane as usize];
            *entry = (entry.0 + e, entry.1 + f, entry.2 + d);
        }
        (per_lane, frames)
    }

    /// Steps 3–6 of a round, shared by [`round`](Self::round) and
    /// [`round_driven`](Self::round_driven): fix pipelines, guidance,
    /// report, durable two-phase commit.
    fn finish_round(&mut self, per_lane: Vec<Counters>, frames: Vec<Frame>) -> MultiRoundReport {
        // 3. Per-program fix pipeline. Proposals from every program are
        //    validated concurrently (each against its own program's
        //    round-start overlay), then promoted sequentially in (lane,
        //    proposal) order — deterministic regardless of scheduling,
        //    and replayed from recorded promotion decisions on resume.
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

        // 5. Report.
        let programs: Vec<ProgramRoundReport> = self
            .fleets
            .iter()
            .zip(&per_lane)
            .zip(&fixes_by_lane)
            .map(
                |((fleet, &(executions, failures, directed)), &fixes_promoted)| {
                    ProgramRoundReport {
                        program: fleet.id.0,
                        executions,
                        failures,
                        fixes_promoted,
                        overlay_version: hive_of(&self.sharded, fleet).current_overlay().1,
                        directed,
                    }
                },
            )
            .collect();
        let executions: u64 = programs.iter().map(|p| p.executions).sum();
        let failures: u64 = programs.iter().map(|p| p.failures).sum();
        let round = self.round_idx;
        let report = MultiRoundReport {
            round,
            executions,
            failures,
            failure_rate_per_10k: if executions == 0 {
                0.0
            } else {
                failures as f64 * 10_000.0 / executions as f64
            },
            fixes_promoted: fixes_by_lane.iter().sum(),
            programs,
        };
        self.round_idx += 1;
        self.history.push(report.clone());

        // 6. Durable two-phase commit.
        let obs = self.config.obs.clone();
        let totals = (round, executions, failures, report.fixes_promoted);
        let journaled = (frames.len() as u64, promoted.len() as u64);
        let telemetry = commit_observed(&obs, "multi", totals, &[], journaled, || {
            self.commit_round(&report, frames, &promoted)
        });
        self.telemetry.push(telemetry);
        report
    }

    /// Runs `rounds` rounds and returns the full history.
    pub fn run(&mut self, rounds: u32, execs_per_pod: u32) -> &[MultiRoundReport] {
        for _ in 0..rounds {
            self.round(execs_per_pod);
        }
        self.history()
    }

    /// Commits one round durably. Phase A: append this round's frames
    /// (per-lane, in merge order), promotions, pod populations, and the
    /// round record to **every** shard journal, then fsync them all —
    /// only after every fsync is the round acked. Phase B: per-shard
    /// compaction, which can therefore never capture a round some
    /// journal lacks. Returns the commit's telemetry slice (fsync is
    /// timed only when a registry is attached).
    fn commit_round(
        &mut self,
        report: &MultiRoundReport,
        mut frames: Vec<Frame>,
        promoted: &[(usize, String, Overlay)],
    ) -> Result<RoundTelemetry, DurabilityError> {
        if self.durable.is_none() {
            return Ok(RoundTelemetry::default());
        }
        // Capture every fleet's pod population *after* guidance queued
        // next-round directives — the exact state an uninterrupted
        // process carries into the next round.
        let pod_bodies: Vec<Vec<u8>> = self.fleets.iter().map(Fleet::encode_pod_states).collect();
        let lane_shards: Vec<usize> = (0..self.fleets.len())
            .map(|lane| self.shard_of_lane(lane))
            .collect();
        let stores = self.durable.as_mut().expect("checked above");
        frames.sort_by_key(|&(lane, seq, _)| (lane, seq));

        // Phase A: append everywhere…
        for (lane, seq, bytes) in &frames {
            stores[lane_shards[*lane as usize]].append_frame(*lane, *seq, bytes)?;
        }
        let mut body = Vec::new();
        for (lane, signature, overlay) in promoted {
            body.clear();
            codec::put_u64(&mut body, self.fleets[*lane].id.0);
            put_promotion(&mut body, signature, overlay);
            let store = &mut stores[lane_shards[*lane]];
            store.append(REC_PROMOTE, SESSION_PROMOTE, self.promote_seq, &body)?;
            self.promote_seq += 1;
        }
        for (lane, pod_body) in pod_bodies.iter().enumerate() {
            stores[lane_shards[lane]].append(REC_PODS, lane as u64, report.round, pod_body)?;
        }
        body.clear();
        report.encode_into(&mut body);
        for store in stores.iter_mut() {
            store.append(REC_ROUND, SESSION_ROUND, report.round, &body)?;
        }
        // …then fsync everywhere. A crash between fsyncs leaves some
        // shards one round ahead; resume truncates them back to the
        // minimum (the round was never acked).
        let obs = &self.config.obs;
        let clock = obs.span_clock();
        let fsync_hist = obs.registry.as_ref().map(|r| r.histogram("hive.fsync_ns"));
        let fsync_span = SpanTimer::start_if(clock.as_ref(), &fsync_hist);
        for store in stores.iter_mut() {
            store.sync()?;
        }
        let mut stats = RoundTelemetry {
            fsync_ns: fsync_span.map_or(0, SpanTimer::stop),
            ..RoundTelemetry::default()
        };

        // Phase B: per-shard compaction.
        for shard in 0..stores.len() {
            if self.durable.as_ref().expect("checked above")[shard].checkpoint_due() {
                let started = std::time::Instant::now();
                stats.checkpoint_bytes += self.checkpoint_shard(shard, &pod_bodies)?;
                stats.checkpoint_ns += started.elapsed().as_nanos() as u64;
                stats.compacted = true;
            }
        }
        Ok(stats)
    }

    /// Writes one checkpoint of shard `shard` and truncates its journal
    /// (see [`DurableStore::write_checkpoint`]), then resets the shard's
    /// delta tracking. The checkpoint's pod
    /// populations cover only the lanes whose frames land in this
    /// shard's journal. `lane_pods` holds every lane's encoded pod
    /// population, in lane order.
    fn checkpoint_shard(
        &mut self,
        shard: usize,
        lane_pods: &[Vec<u8>],
    ) -> Result<u64, DurabilityError> {
        let shard_pods: Vec<(u64, &[u8])> = lane_pods
            .iter()
            .enumerate()
            .filter(|&(lane, _)| self.shard_of_lane(lane) == shard)
            .map(|(lane, body)| (lane as u64, body.as_slice()))
            .collect();
        let app_meta = encode_multi_app_meta(self.round_idx, &self.history, &shard_pods);
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
        let written = stores[shard].write_checkpoint(encode, app_meta, true)?;
        self.sharded.mark_shard_clean(shard);
        Ok(written)
    }

    /// On-demand compaction of every shard: each folds its journal into
    /// a fresh checkpoint and truncates it. Returns the payload bytes
    /// written, summed over shards.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] on a non-durable platform;
    /// [`DurabilityError::Io`] when a chain append fails.
    pub fn checkpoint(&mut self) -> Result<u64, DurabilityError> {
        let pod_bodies: Vec<Vec<u8>> = self.fleets.iter().map(Fleet::encode_pod_states).collect();
        (0..self.sharded.n_shards())
            .map(|shard| self.checkpoint_shard(shard, &pod_bodies))
            .sum()
    }
}

fn decode_round(rec: &JournalRecord) -> Result<MultiRoundReport, DurabilityError> {
    MultiRoundReport::decode(&mut codec::Reader::new(&rec.frame))
        .map_err(|e| DurabilityError::Corrupt(format!("round record: {e}")))
}

/// Shard-checkpoint `app_meta` payload: committed-round counter, the
/// full multi-round history, and this shard's lanes' durable pod
/// populations (`u32 count` then `u64 lane | bytes` per lane), in the
/// deterministic byte codec.
fn encode_multi_app_meta(
    round_idx: u64,
    history: &[MultiRoundReport],
    lane_pods: &[(u64, &[u8])],
) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_u64(&mut buf, round_idx);
    codec::put_u32(&mut buf, history.len() as u32);
    for report in history {
        report.encode_into(&mut buf);
    }
    codec::put_u32(&mut buf, lane_pods.len() as u32);
    for (lane, body) in lane_pods {
        codec::put_u64(&mut buf, *lane);
        codec::put_bytes(&mut buf, body);
    }
    buf
}

type MultiAppMeta = (u64, Vec<MultiRoundReport>, Vec<(u64, Vec<PodState>)>);

fn decode_multi_app_meta(bytes: &[u8]) -> Result<MultiAppMeta, DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let round_idx = r.u64("multi_app_meta.round_idx")?;
    let n = r.seq_len("multi_app_meta.history", 112)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(MultiRoundReport::decode(&mut r)?);
    }
    let n_lanes = r.seq_len("multi_app_meta.lane_pods", 12)?;
    let mut lane_pods = Vec::with_capacity(n_lanes);
    for _ in 0..n_lanes {
        let lane = r.u64("multi_app_meta.lane")?;
        let body = r.bytes("multi_app_meta.pods")?;
        lane_pods.push((lane, fleet::decode_pod_states(body)?));
    }
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "multi_app_meta has {} trailing byte(s)",
            r.remaining()
        )));
    }
    Ok((round_idx, history, lane_pods))
}
