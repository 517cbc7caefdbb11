//! The kill/resume harness shared by `tests/durability.rs` and
//! `tests/multi_platform.rs`: one campaign driver over both shapes of
//! the campaign core — a one-fleet [`Platform`] and a three-fleet,
//! two-shard [`MultiPlatform`] — and the checks both files run, each on
//! its own shape.

#![allow(dead_code)]

use softborg::hive::ScrubReport;
use softborg::obs::{FlightRecorder, ManualClock, MetricsRegistry, ObsHandles};
use softborg::pod::{PodConfig, PodState};
use softborg::program::scenarios::{self, Scenario};
use softborg::store::chain::decode_record;
use softborg::store::ChainSource;
use softborg::{
    DrivenExecution, DurabilityConfig, DurabilityError, FleetSpec, IngestSettings,
    MultiDrivenExecution, MultiPlatform, MultiPlatformConfig, Platform, PlatformConfig,
    ResumeReport,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const ROUNDS: u64 = 5;
pub const EXECS: u32 = 10;

/// The two shapes of a campaign every check runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One fleet (`token_parser`, 8 pods) on one shard: a `Platform`.
    One,
    /// Three fleets (4 pods each) on two shards: a `MultiPlatform`.
    Fleet,
}

pub const KINDS: [Kind; 2] = [Kind::One, Kind::Fleet];

/// What a campaign is built with besides its kind.
#[derive(Clone, Default)]
pub struct Setup {
    pub durability: Option<DurabilityConfig>,
    pub ingest: IngestSettings,
    pub obs: ObsHandles,
}

impl Setup {
    pub fn durable(durability: DurabilityConfig) -> Self {
        Setup {
            durability: Some(durability),
            ..Setup::default()
        }
    }
}

/// A running campaign of either kind.
pub enum Run<'p> {
    One(Platform<'p>),
    Fleet(MultiPlatform<'p>),
}

pub fn pod_config(s: &Scenario) -> PodConfig {
    PodConfig {
        input_range: s.input_range,
        ..PodConfig::default()
    }
}

impl Kind {
    pub fn scenarios(self) -> Vec<Scenario> {
        match self {
            Kind::One => vec![scenarios::token_parser()],
            Kind::Fleet => vec![
                scenarios::token_parser(),
                scenarios::triangle(),
                scenarios::record_processor(),
            ],
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Kind::One => 1,
            Kind::Fleet => 2,
        }
    }

    pub fn one_config(s: &Scenario, setup: &Setup) -> PlatformConfig {
        PlatformConfig {
            n_pods: 8,
            pod: pod_config(s),
            seed: 17,
            ingest: setup.ingest.clone(),
            durability: setup.durability.clone(),
            obs: setup.obs.clone(),
            ..PlatformConfig::default()
        }
    }

    pub fn fleet_config(setup: &Setup) -> MultiPlatformConfig {
        MultiPlatformConfig {
            n_pods: 4,
            n_shards: 2,
            seed: 23,
            ingest: setup.ingest.clone(),
            durability: setup.durability.clone(),
            obs: setup.obs.clone(),
            ..MultiPlatformConfig::default()
        }
    }

    pub fn specs(scs: &[Scenario]) -> Vec<FleetSpec<'_>> {
        scs.iter()
            .map(|s| FleetSpec {
                program: &s.program,
                pod: pod_config(s),
            })
            .collect()
    }

    pub fn try_start<'p>(
        self,
        scs: &'p [Scenario],
        setup: &Setup,
    ) -> Result<Run<'p>, DurabilityError> {
        match self {
            Kind::One => {
                Platform::try_new(&scs[0].program, Self::one_config(&scs[0], setup)).map(Run::One)
            }
            Kind::Fleet => {
                MultiPlatform::try_new(&Self::specs(scs), Self::fleet_config(setup)).map(Run::Fleet)
            }
        }
    }

    pub fn start<'p>(self, scs: &'p [Scenario], setup: &Setup) -> Run<'p> {
        self.try_start(scs, setup).expect("fresh campaign")
    }

    pub fn resume<'p>(
        self,
        scs: &'p [Scenario],
        setup: &Setup,
    ) -> Result<(Run<'p>, ResumeReport), DurabilityError> {
        match self {
            Kind::One => Platform::resume(&scs[0].program, Self::one_config(&scs[0], setup))
                .map(|(p, r)| (Run::One(p), r)),
            Kind::Fleet => MultiPlatform::resume(&Self::specs(scs), Self::fleet_config(setup))
                .map(|(p, r)| (Run::Fleet(p), r)),
        }
    }

    pub fn scrub(
        self,
        scs: &[Scenario],
        setup: &Setup,
    ) -> Result<Vec<ScrubReport>, DurabilityError> {
        match self {
            Kind::One => Platform::scrub(&Self::one_config(&scs[0], setup)).map(|r| vec![r]),
            Kind::Fleet => MultiPlatform::scrub(&Self::fleet_config(setup)),
        }
    }
}

impl Run<'_> {
    pub fn round(&mut self) {
        match self {
            Run::One(p) => {
                p.round(EXECS);
            }
            Run::Fleet(p) => {
                p.round(EXECS);
            }
        }
    }

    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// One round through `round_driven` and the serial reference
    /// executor.
    pub fn serial_round(&mut self) {
        match self {
            Run::One(p) => {
                p.round_driven(|pods, batch| DrivenExecution::serial(pods, EXECS, batch));
            }
            Run::Fleet(p) => {
                p.round_driven(|lanes, batch| {
                    let mut out = MultiDrivenExecution::default();
                    for lane in lanes {
                        let d = DrivenExecution::serial(lane.pods, EXECS, batch);
                        out.per_lane.push((d.executions, d.failures, d.directed));
                        let frames = d.frames.into_iter().map(|(_, s, f)| (lane.lane, s, f));
                        out.frames.extend(frames);
                    }
                    out
                });
            }
        }
    }

    /// The hive state (`Platform`) or every shard's state.
    pub fn states(&self) -> Vec<Vec<u8>> {
        match self {
            Run::One(p) => vec![p.hive_state()],
            Run::Fleet(p) => (0..Kind::Fleet.shards())
                .map(|i| p.shard_state(i))
                .collect(),
        }
    }

    pub fn pods(&self) -> Vec<PodState> {
        match self {
            Run::One(p) => p.export_pod_states(),
            Run::Fleet(p) => p.export_pod_states().concat(),
        }
    }

    /// Every round report, one `Debug` line each.
    pub fn history(&self) -> Vec<String> {
        match self {
            Run::One(p) => p.history().iter().map(|r| format!("{r:?}")).collect(),
            Run::Fleet(p) => p.history().iter().map(|r| format!("{r:?}")).collect(),
        }
    }

    pub fn committed(&self) -> u64 {
        match self {
            Run::One(p) => p.committed_rounds(),
            Run::Fleet(p) => p.committed_rounds(),
        }
    }

    pub fn checkpoint(&mut self) -> u64 {
        match self {
            Run::One(p) => p.checkpoint(),
            Run::Fleet(p) => p.checkpoint(),
        }
        .expect("checkpoint")
    }
}

/// A fresh, empty campaign directory unique to this test + process.
pub fn campaign_dir(kind: Kind, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "softborg-durability-{}-{kind:?}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// Aggressive compaction so short campaigns exercise the checkpoint path.
pub fn compacting(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 2,
        min_compact_wal_bytes: 1024,
        ..DurabilityConfig::new(dir)
    }
}

/// Eager compaction: short campaigns append several chain records (a
/// full, then deltas).
pub fn eager(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 1,
        min_compact_wal_bytes: 1,
        ..DurabilityConfig::new(dir)
    }
}

/// No automatic compaction: checkpoints happen only when a test asks.
pub fn uncompacted(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        compact_ratio: 0,
        ..DurabilityConfig::new(dir)
    }
}

/// Handles recording into a manual-clock flight recorder. The events
/// hash covers kinds, fields, and per-source sequence numbers — never
/// wall time — so two equivalent runs must hash identically.
pub fn recording() -> (ObsHandles, FlightRecorder) {
    let rec = FlightRecorder::new(Arc::new(ManualClock::new(0)), 4096);
    (ObsHandles::new(MetricsRegistry::new(), rec.clone()), rec)
}

/// The content of every `round_committed` event a recorder retained,
/// in order. `seq` is process-local (a resumed process restarts it for
/// the suffix it records), so only the field vectors are compared.
pub fn committed_fields(rec: &FlightRecorder) -> Vec<Vec<(&'static str, u64)>> {
    rec.events()
        .into_iter()
        .filter(|e| e.kind == "round_committed")
        .map(|e| e.fields)
        .collect()
}

/// Everything an uninterrupted durable run produces, indexed by
/// committed round count where applicable.
pub struct Reference {
    pub states: Vec<Vec<Vec<u8>>>,
    pub pods: Vec<Vec<PodState>>,
    pub history: Vec<String>,
    pub round_events: Vec<Vec<(&'static str, u64)>>,
}

pub fn reference(kind: Kind, scs: &[Scenario], durability: DurabilityConfig) -> Reference {
    let (obs, rec) = recording();
    let setup = Setup {
        obs,
        ..Setup::durable(durability)
    };
    let mut p = kind.start(scs, &setup);
    let (mut states, mut pods) = (vec![p.states()], vec![p.pods()]);
    for _ in 0..ROUNDS {
        p.round();
        states.push(p.states());
        pods.push(p.pods());
    }
    Reference {
        states,
        pods,
        history: p.history(),
        round_events: committed_fields(&rec),
    }
}

/// Chain record files under `dir/chain`, sorted by name (= generation).
pub fn chain_records(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("chain"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "full" || x == "delta"))
        .collect();
    files.sort();
    files
}

/// Payload bytes of the newest full chain record (0 on a cold chain):
/// what the compaction rule weighs the journal against.
pub fn newest_full_payload(dir: &Path) -> u64 {
    chain_records(dir)
        .iter()
        .rev()
        .find(|p| p.extension().is_some_and(|x| x == "full"))
        .map_or(0, |p| {
            let bytes = std::fs::read(p).unwrap();
            decode_record(&bytes).unwrap().payload.len() as u64
        })
}

/// Every entry under `dir`, with each file's bytes: two equal trees
/// hold exactly the same bytes.
pub fn tree(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let path = e.unwrap().path();
        if path.is_dir() {
            out.push((path.clone(), None));
            out.extend(tree(&path));
        } else {
            out.push((path.clone(), Some(std::fs::read(&path).unwrap())));
        }
    }
    out.sort();
    out
}

/// Killed at every round boundary and resumed, every shard recovers the
/// uninterrupted run's state at that round, and the campaign keeps going.
pub fn check_kill_recovers_state(kind: Kind) {
    let scs = kind.scenarios();
    let r = reference(
        kind,
        &scs,
        DurabilityConfig::new(campaign_dir(kind, "b-ref")),
    );
    for k in 1..=ROUNDS {
        let dir = campaign_dir(kind, &format!("boundary-{k}"));
        let setup = Setup::durable(DurabilityConfig::new(dir));
        kind.start(&scs, &setup).run(k); // drop = kill: only synced journals survive
        let (mut resumed, report) = kind.resume(&scs, &setup).unwrap();
        assert_eq!(report.target_round, k, "{kind:?} lost rounds at kill {k}");
        assert_eq!(resumed.committed(), k);
        assert_eq!(report.shards.len(), kind.shards());
        for sr in &report.shards {
            assert_eq!(sr.rounds_from_snapshot + sr.rounds_replayed, k);
            assert_eq!((sr.records_discarded, sr.wal_tail_dropped), (0, 0));
        }
        assert_eq!(resumed.states(), r.states[k as usize], "{kind:?} round {k}");
        assert_eq!(resumed.history(), r.history[..k as usize]);
        // The campaign keeps going after recovery.
        resumed.round();
        assert_eq!(resumed.committed(), k + 1);
    }
}

/// Killed at every round boundary and resumed, every pod is restored
/// mid-stream: the continuation replays the uninterrupted run.
pub fn check_kill_restores_pods(kind: Kind) {
    let scs = kind.scenarios();
    let r = reference(
        kind,
        &scs,
        DurabilityConfig::new(campaign_dir(kind, "p-ref")),
    );
    for k in 1..=ROUNDS {
        let dir = campaign_dir(kind, &format!("pods-{k}"));
        let setup = Setup::durable(DurabilityConfig::new(dir));
        kind.start(&scs, &setup).run(k); // drop = kill
        let (mut resumed, _) = kind.resume(&scs, &setup).unwrap();
        assert_eq!(
            resumed.pods(),
            r.pods[k as usize],
            "{kind:?} pods diverged from the uninterrupted run at round {k}"
        );
        // The restored pods carry their RNG positions, corpora, and
        // queued directives, so the *continuation* is byte-identical
        // too: every future draw replays the uninterrupted stream.
        resumed.run(ROUNDS - k);
        assert_eq!(resumed.history(), r.history, "{kind:?} after resume at {k}");
        assert_eq!(resumed.states(), r.states[ROUNDS as usize]);
        assert_eq!(resumed.pods(), r.pods[ROUNDS as usize]);
    }
}

/// Compaction keeps every shard's journal under its bound, and resume
/// from its checkpoints (automatic and on demand) stays byte-identical.
pub fn check_compaction_bounds_journal(kind: Kind) {
    let scs = kind.scenarios();
    let r = reference(kind, &scs, compacting(campaign_dir(kind, "c-ref")));
    let dir = campaign_dir(kind, "compact");
    let setup = Setup::durable(compacting(dir.clone()));
    let mut p = kind.start(&scs, &setup);
    for _ in 0..ROUNDS {
        p.round();
        // The rule: a commit leaves every journal below
        // `compact_ratio` times what its newest full checkpoint
        // wrote (and the floor).
        for i in 0..kind.shards() {
            let wal = std::fs::metadata(shard_dir(&dir, i).join("hive.wal")).unwrap();
            let bound = (2 * newest_full_payload(&shard_dir(&dir, i))).max(1024);
            assert!(
                wal.len() < bound,
                "{kind:?} shard {i}: {} >= {bound}",
                wal.len()
            );
        }
    }
    drop(p);
    let fulls = (0..kind.shards()).filter(|&i| newest_full_payload(&shard_dir(&dir, i)) > 0);
    assert!(
        fulls.count() > 0,
        "{kind:?}: compaction never wrote a checkpoint"
    );
    let (mut resumed, report) = kind.resume(&scs, &setup).unwrap();
    assert!(report.shards.iter().any(|s| s.rounds_from_snapshot > 0));
    for sr in report.shards.iter().filter(|s| s.chain.records > 0) {
        assert_eq!(sr.chain.source, ChainSource::Primary);
    }
    assert_eq!(resumed.committed(), ROUNDS);
    assert_eq!(resumed.states(), r.states[ROUNDS as usize], "{kind:?}");

    // An on-demand checkpoint composes too: every shard then resumes
    // from its own checkpoint alone.
    resumed.checkpoint();
    drop(resumed);
    let (resumed, report) = kind.resume(&scs, &setup).unwrap();
    for sr in &report.shards {
        assert_eq!((sr.rounds_from_snapshot, sr.rounds_replayed), (ROUNDS, 0));
    }
    assert_eq!(resumed.states(), r.states[ROUNDS as usize], "{kind:?}");
}

/// A chained campaign killed mid-run resumes process-equivalent, every
/// shard rebuilt by walking its chain.
pub fn check_chained_resume(kind: Kind) {
    const KILL: u64 = 2;
    let scs = kind.scenarios();
    let r = reference(
        kind,
        &scs,
        DurabilityConfig::new(campaign_dir(kind, "cp-ref")),
    );
    let setup = Setup::durable(eager(campaign_dir(kind, "chain-resume")));
    kind.start(&scs, &setup).run(KILL); // drop = kill
    let (mut resumed, report) = kind.resume(&scs, &setup).unwrap();
    for sr in &report.shards {
        assert!(
            sr.chain.records > 0,
            "shard {} walked no checkpoint",
            sr.shard
        );
    }
    assert_eq!(resumed.committed(), KILL);
    assert_eq!(resumed.states(), r.states[KILL as usize], "{kind:?}");
    resumed.run(ROUNDS - KILL);
    assert_eq!(resumed.states(), r.states[ROUNDS as usize]);
    assert_eq!(resumed.pods(), r.pods[ROUNDS as usize]);
    assert_eq!(resumed.history(), r.history);
}
