//! The SoftBorg platform: the closed quality-feedback loop of Figure 1.
//!
//! A [`Platform`] owns a hive and a population of pods for one program
//! and advances in *rounds*. Each round: pods execute on behalf of their
//! users and ship traces; the hive aggregates, diagnoses, and proposes
//! fixes; candidates are validated on trial pods' locally-retained cases
//! (the privacy-preserving repair lab); validated fixes are promoted and
//! distributed; and guidance directives steer the next round's
//! executions. The headline experiment E1 charts the population failure
//! rate across rounds — "the more a program is used, the more reliable
//! it should become" (§2).

use crate::durable::{io_err, put_promotion, read_promotion, DurableStore, SegmentWalker};
use crate::fleet::{self, run_pod, Counters, Fleet, Frame, PodSlot};
use serde::{Deserialize, Serialize};
use softborg_fix::FixCandidate;
use softborg_hive::journal::{
    self, REC_PODS, REC_PROMOTE, REC_ROUND, SESSION_PROMOTE, SESSION_ROUND,
};
use softborg_hive::{diagnosis_signature, scrub_page_dir, Hive, HiveConfig, ScrubReport};
use softborg_ingest::{IngestConfig, IngestStats};
use softborg_obs::{ObsHandles, SpanTimer};
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Overlay, Program};
use softborg_store::{ChainReport, PageStats, PagedConfig, RecordKind};
use softborg_trace::wire;
use softborg_tree::CoverageStats;

pub use crate::durable::{DurabilityConfig, DurabilityError};

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Population size.
    pub n_pods: u32,
    /// Template for every pod (each pod gets a derived seed).
    pub pod: PodConfig,
    /// Hive configuration.
    pub hive: HiveConfig,
    /// Master seed.
    pub seed: u64,
    /// Whether the hive distributes fixes (off = observation only; the
    /// E1 control arm).
    pub fixes_enabled: bool,
    /// Whether guidance directives are distributed.
    pub guidance_enabled: bool,
    /// Passing cases required before a *predicted* (zero-failing-case)
    /// deadlock fix may be distributed on preservation evidence alone.
    pub min_preservation_cases: usize,
    /// How round executions report into the hive.
    pub ingest: IngestSettings,
    /// Crash-only durability: when set, every round is committed to a
    /// write-ahead journal (with periodic delta-chain checkpoints) before
    /// its report is returned, and a killed process can continue the
    /// campaign via [`Platform::resume`]. `None` = in-memory only.
    pub durability: Option<DurabilityConfig>,
    /// Paged execution-tree storage: when set, cold tree pages are
    /// evicted to checksummed page files under the configured resident
    /// budget and faulted back transparently. Paging is pure storage —
    /// merges, traversals, snapshots, and deltas are byte-identical with
    /// paging on or off. `None` = fully in-memory tree.
    pub tree_paging: Option<PagedConfig>,
    /// Telemetry sinks: per-round `platform.*` counters, commit/fsync
    /// span histograms, and `round_committed` flight-recorder events.
    /// Telemetry is passive — it never changes what a round computes or
    /// journals, so platform state is byte-identical on or off.
    pub obs: ObsHandles,
}

/// How a round's executions flow into the hive: pods run on scoped
/// threads and report through the staged ingest pipeline (wire-encoded
/// batch frames, decode+reconstruct worker pool, ordered merger).
#[derive(Debug, Clone)]
pub struct IngestSettings {
    /// Threads executing pods (pods are partitioned into contiguous
    /// chunks, one per thread).
    pub pod_threads: usize,
    /// Traces bundled per batch frame.
    pub batch_size: usize,
    /// Pipeline tuning (workers, queue bounds, backpressure, memo).
    pub pipeline: IngestConfig,
}

impl Default for IngestSettings {
    fn default() -> Self {
        IngestSettings {
            pod_threads: 2,
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

    /// The pipeline config for one round. One attach point: platform
    /// telemetry flows into the ingest stage unless the pipeline has its
    /// own sinks.
    pub(crate) fn pipeline_with(&self, obs: &ObsHandles) -> IngestConfig {
        let mut cfg = self.pipeline.clone();
        if !cfg.obs.is_enabled() {
            cfg.obs = obs.clone();
        }
        cfg
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            n_pods: 50,
            pod: PodConfig::default(),
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

/// Metrics for one platform round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Executions performed this round.
    pub executions: u64,
    /// Failures observed this round.
    pub failures: u64,
    /// Failures per 10k executions this round.
    pub failure_rate_per_10k: f64,
    /// Fixes promoted this round.
    pub fixes_promoted: u64,
    /// Overlay version after the round.
    pub overlay_version: u64,
    /// Tree coverage after the round.
    pub coverage: CoverageStats,
    /// Published proof certificates after the round.
    pub proofs: u64,
    /// Directed (guided) executions this round.
    pub directed: u64,
}

impl RoundReport {
    /// Serializes the report for the durable journal's `REC_ROUND`
    /// record (floats as IEEE-754 bit patterns, so the roundtrip is
    /// exact).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.round);
        codec::put_u64(buf, self.executions);
        codec::put_u64(buf, self.failures);
        codec::put_f64(buf, self.failure_rate_per_10k);
        codec::put_u64(buf, self.fixes_promoted);
        codec::put_u64(buf, self.overlay_version);
        codec::put_u64(buf, self.coverage.nodes);
        codec::put_u64(buf, self.coverage.distinct_paths);
        codec::put_u64(buf, self.coverage.sites_seen);
        codec::put_u64(buf, self.coverage.paths_merged);
        codec::put_u64(buf, self.coverage.frontier_arms);
        codec::put_f64(buf, self.coverage.closed_fraction);
        codec::put_u64(buf, self.proofs);
        codec::put_u64(buf, self.directed);
    }

    /// Decodes a report written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        Ok(RoundReport {
            round: r.u64("RoundReport.round")?,
            executions: r.u64("RoundReport.executions")?,
            failures: r.u64("RoundReport.failures")?,
            failure_rate_per_10k: r.f64("RoundReport.failure_rate_per_10k")?,
            fixes_promoted: r.u64("RoundReport.fixes_promoted")?,
            overlay_version: r.u64("RoundReport.overlay_version")?,
            coverage: CoverageStats {
                nodes: r.u64("CoverageStats.nodes")?,
                distinct_paths: r.u64("CoverageStats.distinct_paths")?,
                sites_seen: r.u64("CoverageStats.sites_seen")?,
                paths_merged: r.u64("CoverageStats.paths_merged")?,
                frontier_arms: r.u64("CoverageStats.frontier_arms")?,
                closed_fraction: r.f64("CoverageStats.closed_fraction")?,
            },
            proofs: r.u64("RoundReport.proofs")?,
            directed: r.u64("RoundReport.directed")?,
        })
    }
}

/// What [`Platform::resume`] found and did, for recovery observability.
#[derive(Debug, Clone)]
pub struct ResumeReport {
    /// The chain walk: which lineage validated (primary, fallback, or
    /// none — a cold start) and every damaged record file found.
    pub chain: ChainReport,
    /// Delta records applied on top of the chain's full record.
    pub chain_deltas_applied: u64,
    /// Committed rounds restored from the checkpoint alone.
    pub rounds_from_snapshot: u64,
    /// Committed rounds replayed from the journal suffix.
    pub rounds_replayed: u64,
    /// Byte offset of the journal suffix that was replayed (nonzero
    /// exactly when a crash hit between the checkpoint append and the
    /// journal truncate).
    pub wal_replay_offset: u64,
    /// Corrupt/unsynced journal-tail bytes dropped (warned, not silent).
    pub wal_tail_dropped: u64,
    /// Intact records belonging to an uncommitted round, discarded and
    /// fenced behind a `REC_ABORT` so later replays skip them too.
    pub fenced_records: u64,
    /// Intact records discarded because their round index did not
    /// continue from the recovered checkpoint — the newest chain record
    /// was lost and recovery fell back, so the journal suffix belongs to
    /// rounds the fallback never saw. The suffix is truncated; the
    /// campaign resumes from the older (consistent) state.
    pub disconnected_records: u64,
}

/// Per-round telemetry the platform keeps *beside* the journaled
/// [`RoundReport`] history. Deliberately not part of the report: commit
/// and fsync timings are host-speed-dependent, and the report's durable
/// codec (and the equivalence suites that compare reports byte-for-byte)
/// must stay identical with telemetry on or off. Timings are measured by
/// the span timers that feed the `platform.round_commit_ns` /
/// `hive.fsync_ns` histograms, so they are zero unless
/// [`PlatformConfig::obs`] has a registry attached.
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
    /// Wall-clock duration of this round's checkpoint write — the
    /// compaction stall — in ns (0 when no checkpoint ran). Unlike
    /// `commit_ns`/`fsync_ns` this is measured unconditionally, so the
    /// durability benches can report stall percentiles without a
    /// registry attached.
    pub checkpoint_ns: u64,
    /// Payload bytes the checkpoint wrote (a chain full or delta
    /// record). The deterministic stall proxy: a steady-state delta
    /// writes O(changes) instead of O(hive).
    pub checkpoint_bytes: u64,
}

/// Step 6 of a round on either platform: runs the durable `commit`
/// (which reports its fsync and checkpoint slice of the telemetry)
/// under the `<source>.round_commit_ns` span, then files the round's
/// telemetry entry, `<source>.*` counters, and `round_committed` event.
/// `totals` is `(round, executions, failures, fixes_promoted)` and
/// `journaled` is `(frames, promotions)`. Event fields are
/// content-determined (no timings), so a run's `events_hash` is replay-
/// and host-stable. A commit failure panics: crash-only software dies
/// loudly rather than run on with unpersisted state.
pub(crate) fn commit_observed(
    obs: &ObsHandles,
    source: &'static str,
    (round, executions, failures, fixes_promoted): (u64, u64, u64, u64),
    extra_fields: &[(&'static str, u64)],
    (frames_journaled, promotions_journaled): (u64, u64),
    commit: impl FnOnce() -> Result<RoundTelemetry, DurabilityError>,
) -> RoundTelemetry {
    let clock = obs.span_clock();
    let registry = obs.registry.as_ref();
    let commit_hist = registry.map(|r| r.histogram(&format!("{source}.round_commit_ns")));
    let commit_span = SpanTimer::start_if(clock.as_ref(), &commit_hist);
    let commit = commit().expect("durable round commit failed");
    let commit_ns = commit_span.map_or(0, SpanTimer::stop);
    if let Some(reg) = registry {
        reg.counter(&format!("{source}.rounds")).incr();
        reg.counter(&format!("{source}.executions")).add(executions);
        reg.counter(&format!("{source}.failures")).add(failures);
        reg.counter(&format!("{source}.fixes_promoted"))
            .add(fixes_promoted);
    }
    let mut fields = vec![
        ("round", round),
        ("executions", executions),
        ("failures", failures),
        ("fixes_promoted", fixes_promoted),
    ];
    fields.extend_from_slice(extra_fields);
    obs.recorder.info(
        source,
        "round_committed",
        &fields,
        format_args!(
            "round {round} committed: {executions} executions, {failures} failures, \
             {fixes_promoted} fix(es) promoted"
        ),
    );
    RoundTelemetry {
        round,
        commit_ns,
        frames_journaled,
        promotions_journaled,
        ..commit
    }
}

/// What an external driver executed during one
/// [`Platform::round_driven`] round.
#[derive(Debug, Default)]
pub struct DrivenExecution {
    /// Executions performed across all pods.
    pub executions: u64,
    /// Failures observed.
    pub failures: u64,
    /// Directed (guided) executions.
    pub directed: u64,
    /// Every wire-encoded batch frame produced, as
    /// `(session = pod index, seq, frame)` — the same layout
    /// [`Platform::round`] journals and the pipelined merger replays.
    pub frames: Vec<(u64, u64, Vec<u8>)>,
}

impl DrivenExecution {
    /// The serial reference executor: runs each pod `execs_per_pod`
    /// times on the calling thread, pod after pod, over the same
    /// pod-execution loop and frame layout [`Platform::round`] uses.
    /// Feed it to [`Platform::round_driven`] —
    /// `p.round_driven(|pods, batch| DrivenExecution::serial(pods, n, batch))`
    /// — for the no-threads, no-pipeline round the equivalence suites
    /// compare the pipelined executor against.
    pub fn serial(pods: &mut [Pod<'_>], execs_per_pod: u32, batch: u64) -> Self {
        let batch = batch.max(1);
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let mut out = DrivenExecution::default();
        for (i, pod) in pods.iter_mut().enumerate() {
            let session = i as u64;
            let frames = &mut out.frames;
            let first_seq = session * frames_per_pod;
            let (executions, failures, directed) =
                run_pod(pod, execs_per_pod, batch, first_seq, |seq, frame| {
                    frames.push((session, seq, frame));
                });
            out.executions += executions;
            out.failures += failures;
            out.directed += directed;
        }
        out
    }
}

/// The platform. See the [module docs](self).
#[derive(Debug)]
pub struct Platform<'p> {
    fleet: Fleet<'p>,
    hive: Hive<'p>,
    config: PlatformConfig,
    round_idx: u64,
    history: Vec<RoundReport>,
    telemetry: Vec<RoundTelemetry>,
    last_ingest: Option<IngestStats>,
    /// The open durable store of a durable campaign.
    durable: Option<DurableStore>,
    /// Next sequence number for `REC_PROMOTE` records.
    promote_seq: u64,
}

impl<'p> Platform<'p> {
    /// Builds the in-memory platform shell: one hive plus `n_pods` pods
    /// with derived seeds. Durability (if configured) is attached by the
    /// caller.
    fn base(program: &'p Program, config: PlatformConfig) -> Self {
        let seed_base = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Platform {
            fleet: Fleet::new(program, &config.pod, config.n_pods, seed_base),
            hive: Hive::new(program, config.hive.clone()),
            config,
            round_idx: 0,
            history: Vec::new(),
            telemetry: Vec::new(),
            last_ingest: None,
            durable: None,
            promote_seq: 0,
        }
    }

    /// Moves the hive's tree behind the paged store when
    /// [`PlatformConfig::tree_paging`] is set.
    fn enable_tree_paging(&mut self) -> Result<(), DurabilityError> {
        match self.config.tree_paging.clone() {
            Some(pcfg) => self
                .hive
                .enable_tree_paging(pcfg)
                .map_err(|e| io_err("page-store", &e)),
            None => Ok(()),
        }
    }

    /// Builds a platform: one hive plus `n_pods` pods with derived
    /// seeds. With [`PlatformConfig::durability`] set this starts a
    /// *fresh* durable campaign and panics if initialization fails or
    /// campaign state already exists (crash-only software fails loudly
    /// at startup; use [`try_new`](Self::try_new) to handle the error,
    /// or [`resume`](Self::resume) to continue an existing campaign).
    pub fn new(program: &'p Program, config: PlatformConfig) -> Self {
        Self::try_new(program, config).expect("durable platform initialization failed")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when the configured directory
    /// already holds chain records, a non-empty journal, or a legacy
    /// full-snapshot campaign, and [`DurabilityError::Io`] when the journal or
    /// chain cannot be opened.
    pub fn try_new(program: &'p Program, config: PlatformConfig) -> Result<Self, DurabilityError> {
        let mut platform = Self::base(program, config);
        platform.enable_tree_paging()?;
        if let Some(dcfg) = platform.config.durability.clone() {
            platform.durable = Some(DurableStore::create(dcfg)?);
        }
        Ok(platform)
    }

    /// Resumes (or cold-starts) a durable campaign from
    /// [`PlatformConfig::durability`]: loads the newest valid checkpoint
    /// (falling back a chain lineage if the newest is torn), replays the
    /// journal suffix round by round — re-ingesting frames in merge
    /// order, re-applying promotions, re-running guidance — and fences
    /// any uncommitted partial round behind a `REC_ABORT` record.
    /// Recovery **is** the startup path: an empty directory resumes into
    /// a fresh campaign.
    ///
    /// The recovered hive state is byte-identical
    /// ([`hive_state`](Self::hive_state)) to the uninterrupted run at
    /// the same committed round — and so is the pod population: every
    /// pod's RNG position, locally-retained repair-lab corpus, overlay
    /// version, and pending guidance directives are restored from the
    /// round commit's durable pod images, so the resumed process draws
    /// the exact random stream the uninterrupted one would have.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// [`DurabilityError::Io`] on filesystem failures;
    /// [`DurabilityError::Corrupt`] when a checksummed record decodes to
    /// garbage (journal records damaged *behind* a valid checksum, e.g.
    /// a checkpoint for a different program), or when the directory
    /// holds a legacy full-snapshot campaign — refused before anything
    /// on disk is touched.
    pub fn resume(
        program: &'p Program,
        config: PlatformConfig,
    ) -> Result<(Self, ResumeReport), DurabilityError> {
        let dcfg = config
            .durability
            .clone()
            .ok_or(DurabilityError::NotConfigured)?;
        let (mut store, rec) = DurableStore::resume(dcfg)?;
        let mut platform = Self::base(program, config);
        if let Some((full, deltas)) = rec.states.split_first() {
            platform.hive = Hive::decode_state(program, platform.config.hive.clone(), full)
                .map_err(|e| DurabilityError::Corrupt(format!("checkpoint state: {e}")))?;
            for delta in deltas {
                platform
                    .hive
                    .apply_state_delta(delta)
                    .map_err(|e| DurabilityError::Corrupt(format!("checkpoint delta: {e}")))?;
            }
        }
        // The freshest durable pod population seen so far: the
        // checkpoint's, then overwritten by each committed `REC_PODS`
        // record replayed from the journal suffix.
        let mut pod_states: Option<Vec<PodState>> = None;
        if let Some(meta) = &rec.app_meta {
            let (round_idx, history, pods) = decode_app_meta(meta)?;
            platform.round_idx = round_idx;
            platform.history = history;
            pod_states = Some(pods);
        }
        // Recovered trees are decoded in-memory; move them behind the
        // paged store (if configured) before journal replay so the
        // resident budget holds during re-ingest too.
        platform.enable_tree_paging()?;
        let rounds_from_snapshot = platform.round_idx;

        let (records, scan) = journal::scan(&rec.wal[rec.replay_from..]);
        if let Some(err) = scan.tail_error {
            platform.config.obs.recorder.warn_or_ops(
                "platform.resume",
                "wal_tail_dropped",
                &[
                    ("tail_bytes", scan.tail_dropped as u64),
                    ("intact_records", scan.records as u64),
                ],
                format_args!(
                    "platform resume dropped {} journal tail byte(s) after {} intact \
                     record(s): {err}",
                    scan.tail_dropped, scan.records
                ),
            );
            // Cut the damaged tail so future appends land on a clean
            // record boundary.
            store.truncate_wal(&rec.wal[..rec.replay_from + scan.valid_len])?;
        }

        let mut rounds_replayed = 0u64;
        let mut disconnected_records = 0u64;
        let mut walker = SegmentWalker::new(&records, rec.replay_from);
        while let Some(seg) = walker.next_segment()? {
            // Decode the boundary *before* applying the segment: if the
            // newest checkpoint was destroyed and recovery fell back a
            // lineage, the journal suffix covers rounds the fallback
            // state never saw. Merging it would skip the rounds in
            // between, so discard the disconnected suffix instead and
            // resume from the older — but consistent — state.
            let report = RoundReport::decode(&mut codec::Reader::new(&seg.round.frame))
                .map_err(|e| DurabilityError::Corrupt(format!("round record: {e}")))?;
            if report.round != platform.round_idx {
                disconnected_records = (records.len() - seg.start_idx) as u64;
                platform.config.obs.recorder.warn_or_ops(
                    "platform.resume",
                    "disconnected_records",
                    &[
                        ("records", disconnected_records),
                        ("journal_round", report.round),
                        ("state_round", platform.round_idx),
                    ],
                    format_args!(
                        "platform resume discarding {disconnected_records} \
                         disconnected journal record(s): round record says {} but the \
                         recovered state is at round {}",
                        report.round, platform.round_idx
                    ),
                );
                store.truncate_wal(&rec.wal[..seg.start])?;
                break;
            }
            for fr in &seg.frames {
                let traces = wire::decode_batch(&fr.frame)
                    .map_err(|e| DurabilityError::Corrupt(format!("frame batch: {e}")))?;
                for trace in &traces {
                    platform.hive.ingest(trace);
                }
                store.raise_floor(fr.session, fr.seq);
            }
            for pr in &seg.promotes {
                let (signature, overlay) = read_promotion(&mut codec::Reader::new(&pr.frame))?;
                platform.hive.promote(
                    &signature,
                    &FixCandidate {
                        overlay,
                        description: String::new(),
                    },
                );
                platform.promote_seq = platform.promote_seq.max(pr.seq + 1);
            }
            if platform.config.guidance_enabled {
                // Re-run guidance to advance hive-internal state; the
                // directives it produced are already queued inside the
                // committed pod images, so the copies here are discarded.
                let _ = platform.hive.guidance();
            }
            if let Some(pr) = seg.pods.last() {
                pod_states = Some(fleet::decode_pod_states(&pr.frame)?);
            }
            platform.round_idx += 1;
            rounds_replayed += 1;
            platform.history.push(report);
        }
        // The process died mid-round: the trailing records were never
        // acked (the round never returned), so discard them — and fence
        // them so every future replay discards them too.
        let fenced_records = walker.partial_records();
        if fenced_records > 0 {
            store.fence(platform.round_idx)?;
        }

        // Process equivalence: install the freshest committed pod images
        // (journal beats checkpoint; a cold start keeps the seed-derived
        // population, which *is* the round-0 state).
        if let Some(states) = pod_states {
            platform.fleet.restore_pod_states(states)?;
        }
        platform.durable = Some(store);
        let report = ResumeReport {
            chain_deltas_applied: rec.deltas_applied(),
            chain: rec.chain,
            rounds_from_snapshot,
            rounds_replayed,
            wal_replay_offset: rec.replay_from as u64,
            wal_tail_dropped: scan.tail_dropped as u64,
            fenced_records,
            disconnected_records,
        };
        Ok((platform, report))
    }

    /// The hive (read access for experiments).
    pub fn hive(&self) -> &Hive<'p> {
        &self.hive
    }

    /// The pods.
    pub fn pods(&self) -> &[Pod<'p>] {
        &self.fleet.pods
    }

    /// All round reports so far.
    pub fn history(&self) -> &[RoundReport] {
        &self.history
    }

    /// Advances one round with `execs_per_pod` executions per pod.
    ///
    /// With durability configured, the round's batch frames, fix
    /// promotions, and report are all on disk (journal appended and
    /// fsynced) *before* this returns — returning the report is the ack.
    /// A durable-commit failure panics: crash-only software dies loudly
    /// and restarts through [`resume`](Self::resume) rather than running
    /// on with unpersisted state.
    pub fn round(&mut self, execs_per_pod: u32) -> RoundReport {
        // 1. Distribute the current overlay.
        self.distribute_overlay();

        // 2. Execute and ingest (keeping a copy of every batch frame for
        //    the journal when durability is on).
        let (counters, frames) = self.execute(execs_per_pod);

        // 3-6. Fix pipeline, guidance, report, durable commit.
        self.finish_round(counters, frames)
    }

    /// Advances one round with execution *driven from outside*: `driver`
    /// receives the pods (overlay already distributed) and the
    /// configured batch size, runs them however it likes — a
    /// virtual-time scheduler interleaving pods at simulated instants,
    /// or the serial reference [`DrivenExecution::serial`] — and returns
    /// the counters plus every wire-encoded batch frame as
    /// `(session = pod index, seq, frame)` triples using the same
    /// pre-partitioned sequence layout as [`round`](Self::round)
    /// (`seq = pod_index * ceil(execs_per_pod / batch) + k`).
    ///
    /// The platform ingests the frames in `(session, seq)` order —
    /// exactly the order the pipelined merger releases them and the
    /// durable resume path replays them — then runs the identical fix /
    /// guidance / report / commit pipeline. Pods carry their own RNG and
    /// get no mid-round feedback, so any driver that runs each pod
    /// `execs_per_pod` times produces byte-identical hive state to
    /// [`round`](Self::round), regardless of interleaving.
    ///
    /// # Panics
    ///
    /// Panics if the driver returns a frame that fails wire validation —
    /// a driver bug, not an input condition.
    pub fn round_driven<F>(&mut self, driver: F) -> RoundReport
    where
        F: FnOnce(&mut [Pod<'p>], u64) -> DrivenExecution,
    {
        self.distribute_overlay();
        let drv = driver(&mut self.fleet.pods, self.config.ingest.batch());
        let mut frames = drv.frames;
        frames.sort_by_key(|&(session, seq, _)| (session, seq));
        for (_, _, frame) in &frames {
            let traces = wire::decode_batch(frame).expect("driver produced a corrupt frame");
            for trace in &traces {
                self.hive.ingest(trace);
            }
        }
        if self.durable.is_none() {
            frames.clear();
        }
        self.finish_round((drv.executions, drv.failures, drv.directed), frames)
    }

    /// Step 1 of a round: push the hive's current overlay to every pod.
    fn distribute_overlay(&mut self) {
        if self.config.fixes_enabled {
            self.fleet.install_overlay(&self.hive);
        }
    }

    /// Step 2 of [`round`](Self::round): pods run on scoped threads and
    /// report wire-encoded batch frames into the hive's staged ingest
    /// pipeline while it decodes, reconstructs, and merges concurrently.
    ///
    /// Frame sequence numbers are pre-partitioned by pod index (each pod
    /// produces exactly `ceil(execs_per_pod / batch)` frames), so the
    /// ordered merger replays traces in exact pod-major order. Pods
    /// carry their own RNG and receive no mid-round feedback, so the
    /// resulting hive state is byte-identical to the serial reference
    /// ([`DrivenExecution::serial`]).
    fn execute(&mut self, execs_per_pod: u32) -> (Counters, Vec<Frame>) {
        let batch = self.config.ingest.batch();
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let threads = self.config.ingest.pod_threads;
        let keep_frames = self.durable.is_some();
        let cfg = self.config.ingest.pipeline_with(&self.config.obs);
        let slots: Vec<PodSlot<'_, 'p>> = self
            .fleet
            .pods
            .iter_mut()
            .enumerate()
            .map(|(i, pod)| PodSlot {
                session: i as u64,
                first_seq: i as u64 * frames_per_pod,
                pod,
            })
            .collect();
        let ((per_pod, frames), stats) = self.hive.ingest_frames(&cfg, move |tx| {
            let submit = move |_session, seq, frame| tx.submit_at(seq, frame);
            fleet::run_threaded(slots, threads, execs_per_pod, batch, keep_frames, submit)
        });
        self.last_ingest = Some(stats);
        let counters = per_pod
            .into_iter()
            .fold((0, 0, 0), |(a, b, c), (_, (x, y, z))| (a + x, b + y, c + z));
        (counters, frames)
    }

    /// Steps 3–6 of a round, shared by [`round`](Self::round) and
    /// [`round_driven`](Self::round_driven): fix pipeline, guidance,
    /// report, durable commit.
    fn finish_round(
        &mut self,
        (executions, failures, directed): Counters,
        frames: Vec<Frame>,
    ) -> RoundReport {
        // 3. Fix pipeline. Every proposal is validated against the
        //    *round-start* overlay; promotions are then applied
        //    sequentially in proposal order. (Resume replays recorded
        //    promotion decisions, never re-validation, so durable
        //    recovery is unaffected by the validation base.)
        let mut fixes_promoted = 0u64;
        let mut promoted: Vec<(String, Overlay)> = Vec::new();
        if self.config.fixes_enabled {
            let trials = self.fleet.trials(0, &self.hive);
            let winners = fleet::validate_trials(&trials, self.config.min_preservation_cases);
            for (trial, winner) in trials.into_iter().zip(winners) {
                let Some(candidate) = winner else { continue };
                self.hive.promote(&trial.signature, &candidate);
                if self.durable.is_some() {
                    promoted.push((trial.signature, candidate.overlay));
                }
                fixes_promoted += 1;
            }
        }

        // 4. Guidance.
        if self.config.guidance_enabled {
            let (plan, _stats) = self.hive.guidance();
            self.fleet.spread_guidance(plan.directives);
        }

        // 5. Report.
        let round = self.round_idx;
        let report = RoundReport {
            round,
            executions,
            failures,
            failure_rate_per_10k: if executions == 0 {
                0.0
            } else {
                failures as f64 * 10_000.0 / executions as f64
            },
            fixes_promoted,
            overlay_version: self.hive.current_overlay().1,
            coverage: self.hive.coverage(),
            proofs: self.hive.proof_count(),
            directed,
        };
        self.round_idx += 1;
        self.history.push(report.clone());

        // 6. Durable commit: frames, promotions, and the round record
        //    hit the journal and are fsynced before the report (the ack)
        //    leaves this function.
        let obs = self.config.obs.clone();
        let totals = (round, executions, failures, fixes_promoted);
        let extra = [("overlay_version", report.overlay_version)];
        let journaled = (frames.len() as u64, promoted.len() as u64);
        let telemetry = commit_observed(&obs, "platform", totals, &extra, journaled, || {
            self.commit_round(&report, frames, &promoted)
        });
        self.telemetry.push(telemetry);
        report
    }

    /// Appends one committed round to the journal (frames in merge
    /// order, then promotions, the pod population, and the round
    /// record), fsyncs, and compacts into a checkpoint when the journal
    /// dwarfs the live state. Returns the commit's telemetry slice
    /// (fsync is timed only when a registry is attached; the checkpoint
    /// stall is always timed).
    fn commit_round(
        &mut self,
        report: &RoundReport,
        mut frames: Vec<Frame>,
        promoted: &[(String, Overlay)],
    ) -> Result<RoundTelemetry, DurabilityError> {
        let Some(store) = self.durable.as_mut() else {
            return Ok(RoundTelemetry::default());
        };
        frames.sort_by_key(|&(session, seq, _)| (session, seq));
        for (session, seq, bytes) in &frames {
            store.append_frame(*session, *seq, bytes)?;
        }
        let mut body = Vec::new();
        for (signature, overlay) in promoted {
            body.clear();
            put_promotion(&mut body, signature, overlay);
            store.append(REC_PROMOTE, SESSION_PROMOTE, self.promote_seq, &body)?;
            self.promote_seq += 1;
        }
        // The pod population is captured *after* guidance queued
        // next-round directives, so the durable image is exactly what an
        // uninterrupted process would carry into the next round.
        store.append(REC_PODS, 0, report.round, &self.fleet.encode_pod_states())?;
        body.clear();
        report.encode_into(&mut body);
        store.append(REC_ROUND, SESSION_ROUND, report.round, &body)?;
        let obs = &self.config.obs;
        let clock = obs.span_clock();
        let fsync_hist = obs.registry.as_ref().map(|r| r.histogram("hive.fsync_ns"));
        let fsync_span = SpanTimer::start_if(clock.as_ref(), &fsync_hist);
        store.sync()?;
        let mut stats = RoundTelemetry {
            fsync_ns: fsync_span.map_or(0, SpanTimer::stop),
            ..RoundTelemetry::default()
        };
        if store.checkpoint_due() {
            let started = std::time::Instant::now();
            stats.checkpoint_bytes = self.write_checkpoint(true)?;
            stats.checkpoint_ns = started.elapsed().as_nanos() as u64;
            stats.compacted = true;
        }
        Ok(stats)
    }

    /// Writes one checkpoint of the current state (see
    /// [`DurableStore::write_checkpoint`]), then resets the hive's delta
    /// tracking so the next delta covers exactly the rounds since.
    fn write_checkpoint(&mut self, truncate: bool) -> Result<u64, DurabilityError> {
        let store = self
            .durable
            .as_mut()
            .ok_or(DurabilityError::NotConfigured)?;
        let hive = &self.hive;
        let encode = |kind| match kind {
            RecordKind::Full => hive.encode_state(),
            RecordKind::Delta => hive.encode_state_delta(),
        };
        let app_meta = encode_app_meta(self.round_idx, &self.history, &self.fleet);
        let written = store.write_checkpoint(encode, app_meta, truncate)?;
        self.hive.mark_clean();
        Ok(written)
    }

    /// On-demand compaction: folds the journal into a fresh chain
    /// checkpoint record and truncates it, regardless of the automatic
    /// [`DurabilityConfig::compact_ratio`] trigger. Returns the payload
    /// bytes written — the deterministic stall proxy benches report.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] on a non-durable platform;
    /// [`DurabilityError::Io`] when the chain append fails.
    pub fn checkpoint(&mut self) -> Result<u64, DurabilityError> {
        self.write_checkpoint(true)
    }

    /// Like [`checkpoint`](Self::checkpoint) but dies before the journal
    /// truncate: on return, the disk is exactly the crash window between
    /// the chain append and the truncate. Crash-injection harnesses use
    /// this to prove [`resume`](Self::resume) never double-applies
    /// journal records a checkpoint already covers.
    ///
    /// # Errors
    ///
    /// Same as [`checkpoint`](Self::checkpoint).
    pub fn checkpoint_interrupted(&mut self) -> Result<(), DurabilityError> {
        self.write_checkpoint(false).map(|_| ())
    }

    /// Serialized hive state (the byte-identity invariant checked by the
    /// durability harness: recovered == uninterrupted at the same
    /// committed round).
    pub fn hive_state(&self) -> Vec<u8> {
        self.hive.encode_state()
    }

    /// Exports every pod's durable image — the second half of the
    /// process-equivalence invariant: a resumed platform's pod states
    /// equal the uninterrupted run's at the same committed round.
    pub fn export_pod_states(&self) -> Vec<PodState> {
        self.fleet.export_pod_states()
    }

    /// Rounds committed so far.
    pub fn committed_rounds(&self) -> u64 {
        self.round_idx
    }

    /// Scrubs the campaign's durable files for bit rot *before*
    /// resuming: corrupt chain records are quarantined, journal
    /// damage is cut or repaired around (see
    /// [`softborg_hive::scrub`]), and every detection records a Warn
    /// event on [`PlatformConfig::obs`]. Run this after a suspected
    /// media fault, then [`resume`](Self::resume) as usual.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::NotConfigured`] without a durability config;
    /// [`DurabilityError::Io`] on filesystem failures; and
    /// [`DurabilityError::Corrupt`] when the directory held campaign
    /// data but nothing valid survived — resuming would silently
    /// cold-start over it, which the scrub refuses to sanction — or is a
    /// legacy full-snapshot campaign.
    pub fn scrub(config: &PlatformConfig) -> Result<ScrubReport, DurabilityError> {
        let dcfg = config
            .durability
            .as_ref()
            .ok_or(DurabilityError::NotConfigured)?;
        let mut report = DurableStore::scrub(dcfg, &config.obs.recorder)?;
        if let Some(pcfg) = &config.tree_paging {
            report.pages = Some(scrub_page_dir(&pcfg.dir, &config.obs.recorder)?);
        }
        Ok(report)
    }

    /// Current write-ahead-journal size in bytes (`None` when the
    /// platform is not durable). The compaction bound asserted by E16:
    /// after a commit this stays below `compact_ratio` times the newest
    /// full checkpoint's payload (or `min_compact_wal_bytes`).
    pub fn wal_len(&self) -> Option<u64> {
        self.durable.as_ref().map(DurableStore::wal_len)
    }

    /// Generation of the chain head (`None` when the platform is not
    /// durable or the chain is cold).
    pub fn chain_head_generation(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .and_then(DurableStore::chain_head_generation)
    }

    /// Paged-tree counters (zeros when [`PlatformConfig::tree_paging`]
    /// is off): faults, evictions, resident vs total pages and items.
    pub fn page_stats(&self) -> PageStats {
        self.hive.tree().page_stats()
    }

    /// Pipeline statistics from the most recent [`round`](Self::round),
    /// if any.
    pub fn last_ingest(&self) -> Option<&IngestStats> {
        self.last_ingest.as_ref()
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
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Runs `rounds` rounds and returns the full history.
    pub fn run(&mut self, rounds: u32, execs_per_pod: u32) -> &[RoundReport] {
        for _ in 0..rounds {
            self.round(execs_per_pod);
        }
        self.history()
    }

    /// Signatures of all currently-diagnosed failure modes.
    pub fn diagnosed_modes(&self) -> Vec<String> {
        self.hive
            .diagnoses()
            .iter()
            .map(|d| diagnosis_signature(d))
            .collect()
    }
}

/// Checkpoint `app_meta` payload: committed-round counter, the full
/// round history, and the durable pod population, in the deterministic
/// byte codec. The pod images make checkpoint-only recovery (a fully
/// compacted journal) restore every pod mid-stream, exactly like
/// replaying the journal's `REC_PODS` records would.
fn encode_app_meta(round_idx: u64, history: &[RoundReport], fleet: &Fleet<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_u64(&mut buf, round_idx);
    codec::put_u32(&mut buf, history.len() as u32);
    for report in history {
        report.encode_into(&mut buf);
    }
    buf.extend_from_slice(&fleet.encode_pod_states());
    buf
}

fn decode_app_meta(
    bytes: &[u8],
) -> Result<(u64, Vec<RoundReport>, Vec<PodState>), DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let round_idx = r.u64("app_meta.round_idx")?;
    let n = r.seq_len("app_meta.history", 112)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(RoundReport::decode(&mut r)?);
    }
    let pods = fleet::read_pod_states(&mut r)?;
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "app_meta has {} trailing byte(s)",
            r.remaining()
        )));
    }
    Ok((round_idx, history, pods))
}
