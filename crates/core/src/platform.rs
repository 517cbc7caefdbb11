//! The SoftBorg platform: the closed quality-feedback loop of Figure 1,
//! for one program.
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
//!
//! It is the one-fleet, one-shard view of the campaign core
//! ([`MultiPlatform`]): same round, ingest pipeline, journal layout and
//! resume.

use crate::durable::DurabilityError;
use crate::fleet::run_pod;
use crate::multi::{
    failure_rate, FleetSpec, IngestSettings, MultiDrivenExecution, MultiPlatform,
    MultiPlatformConfig, MultiRoundReport, ResumeReport, RoundTelemetry,
};
use crate::DurabilityConfig;
use serde::{Deserialize, Serialize};
use softborg_hive::{diagnosis_signature, Hive, HiveConfig, ScrubReport};
use softborg_ingest::IngestStats;
use softborg_obs::ObsHandles;
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::Program;
use softborg_tree::CoverageStats;

/// Platform configuration: a [`MultiPlatformConfig`] for one fleet on
/// one shard.
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
    /// As [`MultiPlatformConfig::min_preservation_cases`].
    pub min_preservation_cases: usize,
    /// How round executions report into the hive.
    pub ingest: IngestSettings,
    /// Crash-only durability: every round is journaled under `shard-0/`
    /// before its report returns, and [`Platform::resume`] continues a
    /// killed campaign. `None` = in-memory only.
    pub durability: Option<DurabilityConfig>,
    /// Telemetry sinks, as [`MultiPlatformConfig::obs`] with `platform.*`
    /// counters.
    pub obs: ObsHandles,
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
            obs: ObsHandles::default(),
        }
    }
}

/// The core configuration of a one-fleet, one-shard campaign.
fn core_config(c: &PlatformConfig) -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: c.n_pods,
        n_shards: 1,
        hive: c.hive.clone(),
        seed: c.seed,
        fixes_enabled: c.fixes_enabled,
        guidance_enabled: c.guidance_enabled,
        min_preservation_cases: c.min_preservation_cases,
        ingest: c.ingest.clone(),
        durability: c.durability.clone(),
        obs: c.obs.clone(),
    }
}

/// Metrics for one platform round: the one fleet's slice of the
/// journaled round record.
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

impl From<&MultiRoundReport> for RoundReport {
    /// Lane 0's view of a round record.
    fn from(r: &MultiRoundReport) -> Self {
        let p = &r.programs[0];
        RoundReport {
            round: r.round,
            executions: p.executions,
            failures: p.failures,
            failure_rate_per_10k: failure_rate(p.executions, p.failures),
            fixes_promoted: p.fixes_promoted,
            overlay_version: p.overlay_version,
            coverage: p.coverage,
            proofs: p.proofs,
            directed: p.directed,
        }
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
    /// Every batch frame, as `(session, seq, frame)` with `seq =
    /// pod_index * ceil(execs_per_pod / batch) + k`; all are the one
    /// fleet's, so each is filed under lane 0 whatever its session.
    pub frames: Vec<(u64, u64, Vec<u8>)>,
}

impl DrivenExecution {
    /// The serial reference executor: each pod `execs_per_pod` times on
    /// the calling thread, over the pod loop and frame layout
    /// [`Platform::round`] uses —
    /// `p.round_driven(|pods, batch| DrivenExecution::serial(pods, n, batch))`.
    pub fn serial(pods: &mut [Pod<'_>], execs_per_pod: u32, batch: u64) -> Self {
        let batch = batch.max(1);
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let mut out = DrivenExecution::default();
        for (i, pod) in pods.iter_mut().enumerate() {
            let frames = &mut out.frames;
            let first_seq = i as u64 * frames_per_pod;
            let (executions, failures, directed) =
                run_pod(pod, execs_per_pod, batch, first_seq, |seq, frame| {
                    frames.push((0, seq, frame));
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
    core: MultiPlatform<'p>,
    /// Lane 0's view of the core's history.
    history: Vec<RoundReport>,
}

impl<'p> Platform<'p> {
    fn view(mut core: MultiPlatform<'p>) -> Self {
        core.source = "platform";
        Platform {
            history: core.history().iter().map(RoundReport::from).collect(),
            core,
        }
    }

    /// Builds a platform: one hive plus `n_pods` pods with derived seeds;
    /// with durability configured, a *fresh* campaign. Panics where
    /// [`try_new`](Self::try_new) errs.
    pub fn new(program: &'p Program, config: PlatformConfig) -> Self {
        Self::try_new(program, config).expect("durable platform initialization failed")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// As [`MultiPlatform::try_new`].
    pub fn try_new(program: &'p Program, config: PlatformConfig) -> Result<Self, DurabilityError> {
        let spec = [FleetSpec {
            program,
            pod: config.pod.clone(),
        }];
        MultiPlatform::try_new(&spec, core_config(&config)).map(Self::view)
    }

    /// Resumes (or cold-starts) a durable campaign, as
    /// [`MultiPlatform::resume`] does for one fleet on one shard.
    ///
    /// # Errors
    ///
    /// As [`MultiPlatform::resume`].
    pub fn resume(
        program: &'p Program,
        config: PlatformConfig,
    ) -> Result<(Self, ResumeReport), DurabilityError> {
        let spec = [FleetSpec {
            program,
            pod: config.pod.clone(),
        }];
        let (core, report) = MultiPlatform::resume(&spec, core_config(&config))?;
        Ok((Self::view(core), report))
    }

    /// The hive (read access for experiments).
    pub fn hive(&self) -> &Hive<'p> {
        self.core
            .sharded
            .hive(self.core.fleets[0].id)
            .expect("the one program is placed")
    }

    /// All round reports so far.
    pub fn history(&self) -> &[RoundReport] {
        &self.history
    }

    /// Advances one round with `execs_per_pod` executions per pod; as
    /// [`MultiPlatform::round`], returning the report is the ack.
    pub fn round(&mut self, execs_per_pod: u32) -> RoundReport {
        let report = self.core.round(execs_per_pod);
        self.record(&report)
    }

    /// Advances one round with execution *driven from outside*, through
    /// [`MultiPlatform::round_driven`]: `driver` gets the pods and the
    /// batch size and returns a [`DrivenExecution`].
    ///
    /// # Panics
    ///
    /// Panics if the driver returns a frame that fails wire validation —
    /// a driver bug, not an input condition.
    pub fn round_driven<F>(&mut self, driver: F) -> RoundReport
    where
        F: FnOnce(&mut [Pod<'p>], u64) -> DrivenExecution,
    {
        let report = self.core.round_driven(|mut lanes, batch| {
            let drv = driver(lanes.remove(0).pods, batch);
            MultiDrivenExecution {
                per_lane: vec![(drv.executions, drv.failures, drv.directed)],
                frames: drv.frames.into_iter().map(|(_, s, f)| (0, s, f)).collect(),
            }
        });
        self.record(&report)
    }

    fn record(&mut self, report: &MultiRoundReport) -> RoundReport {
        let report = RoundReport::from(report);
        self.history.push(report.clone());
        report
    }

    /// On-demand compaction; returns the checkpoint payload bytes.
    ///
    /// # Errors
    ///
    /// As [`MultiPlatform::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<u64, DurabilityError> {
        self.core.checkpoint()
    }

    /// Like [`checkpoint`](Self::checkpoint) but stops before the journal
    /// truncate, leaving the disk in that crash window — for harnesses
    /// proving [`resume`](Self::resume) never double-applies a record.
    ///
    /// # Errors
    ///
    /// Same as [`checkpoint`](Self::checkpoint).
    pub fn checkpoint_interrupted(&mut self) -> Result<(), DurabilityError> {
        self.core.checkpoint_all(false).map(|_| ())
    }

    /// Serialized hive state (the byte-identity invariant).
    pub fn hive_state(&self) -> Vec<u8> {
        self.hive().encode_state()
    }

    /// Every pod's durable image, in pod order.
    pub fn export_pod_states(&self) -> Vec<PodState> {
        self.core.fleets[0].export_pod_states()
    }

    /// Rounds committed so far.
    pub fn committed_rounds(&self) -> u64 {
        self.core.committed_rounds()
    }

    /// Scrubs the campaign for bit rot before a resume, as
    /// [`MultiPlatform::scrub`] does for the one shard.
    ///
    /// # Errors
    ///
    /// As [`MultiPlatform::scrub`].
    pub fn scrub(config: &PlatformConfig) -> Result<ScrubReport, DurabilityError> {
        Ok(MultiPlatform::scrub(&core_config(config))?.remove(0))
    }

    /// Current journal size in bytes (`None` when not durable): after a
    /// commit, below `compact_ratio` times the newest full checkpoint's
    /// payload (or `min_compact_wal_bytes`).
    pub fn wal_len(&self) -> Option<u64> {
        self.core.durable.as_ref().map(|stores| stores[0].wal_len())
    }

    /// Pipeline statistics from the most recent [`round`](Self::round).
    pub fn last_ingest(&self) -> Option<&IngestStats> {
        self.core.last_run()
    }

    /// Telemetry of every round this *process* ran (see
    /// [`RoundTelemetry`]).
    pub fn round_telemetry(&self) -> &[RoundTelemetry] {
        self.core.round_telemetry()
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
        self.hive()
            .diagnoses()
            .iter()
            .map(|d| diagnosis_signature(d))
            .collect()
    }
}
