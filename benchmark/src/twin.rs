//! The anatomy twin: one platform round replayed from the harness, call
//! by call into each layer's public functions, with a span around every
//! call.
//!
//! `Platform::round` and `MultiPlatform::round` keep their stages
//! private, so the traced run cannot time them in place. The twin
//! instead performs the same steps in the same order as
//! `round_driven` + `finish_round` — distribute overlays, run pods,
//! frame, decode, reconstruct, merge, detect, propose / rank / promote,
//! guide, report reads, durable commit — on its own hives and pods,
//! which start from the platform's exported pod states. Because every
//! step is deterministic, the twin's hive state must equal the
//! platform's at the same round; the traced run asserts that, so a twin
//! that drifts from the platform fails loudly instead of timing the
//! wrong work.
//!
//! Differences from the platform that the numbers must be read with:
//! the twin is serial (no pod threads, no ingest workers, no memo), and
//! it merges every reconstructed path a second time into a shadow tree
//! so that `ExecutionTree::merge_path` has a span of its own.

use crate::spans::Spans;
use softborg::fix::{rank, LabConfig, TestCase, Verdict};
use softborg::guidance::Directive;
use softborg::hive::journal::{self, JournalStore, REC_FRAME, REC_PODS, REC_ROUND};
use softborg::hive::{outcome_signature, FileJournal, Hive, HiveConfig};
use softborg::ingest::ProcessedTrace;
use softborg::pod::{Pod, PodConfig, PodState};
use softborg::program::Program;
use softborg::shard::ShardMap;
use softborg::trace::{reconstruct, wire, ExecutionTrace};
use softborg::tree::ExecutionTree;
use softborg::DurabilityConfig;
use std::path::{Path, PathBuf};

/// One program's fleet and hive inside the twin.
pub struct Lane<'p> {
    program: &'p Program,
    pub hive: Hive<'p>,
    /// Receives the same paths as the hive's tree, under a span, so that
    /// merge cost can be told apart from the detectors'.
    shadow: ExecutionTree,
    pods: Vec<Pod<'p>>,
}

/// The platform settings a twin round depends on.
#[derive(Debug, Clone)]
pub struct TwinConfig {
    pub batch_size: usize,
    pub fixes_enabled: bool,
    pub guidance_enabled: bool,
    pub min_preservation_cases: usize,
    /// `Platform` reads coverage and proofs into every report;
    /// `MultiPlatform` does not.
    pub report_reads: bool,
}

/// Counts the twin keeps beside its spans. All of them repeat exactly
/// for a seed.
#[derive(Debug, Clone, Default)]
pub struct TwinCounts {
    pub executions: u64,
    pub directed: u64,
    pub steps: u64,
    pub traces: u64,
    pub wire_bytes: u64,
    pub max_path_len: u64,
    pub promoted: u64,
    pub first_promotion_round: Option<u32>,
    pub pod_state_bytes: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
}

/// The twin's stand-in for a durable round commit: per-shard journals
/// that receive the same record kinds and sizes, fsynced append-all-
/// then-sync-all, and folded into a state file under the platform's own
/// compaction policy (ratio and floor are read from
/// `DurabilityConfig::new`, not copied).
struct TwinJournal {
    dir: PathBuf,
    journals: Vec<FileJournal>,
    shard_of_lane: Vec<usize>,
    compact_ratio: u64,
    min_compact_wal_bytes: u64,
}

pub struct Twin<'p> {
    pub lanes: Vec<Lane<'p>>,
    cfg: TwinConfig,
    journal: Option<TwinJournal>,
    pub counts: TwinCounts,
    round: u32,
}

impl<'p> Twin<'p> {
    /// A twin whose lane `i` runs `fleets[i].0` with pods rebuilt from
    /// the exported states `fleets[i].2` (lane order = the platform's:
    /// sorted by program id for `MultiPlatform`).
    pub fn new(
        fleets: Vec<(&'p Program, PodConfig, Vec<PodState>)>,
        hive: &HiveConfig,
        cfg: TwinConfig,
    ) -> Self {
        let lanes = fleets
            .into_iter()
            .map(|(program, template, states)| Lane {
                program,
                hive: Hive::new(program, hive.clone()),
                shadow: ExecutionTree::new(program.id()),
                pods: states
                    .into_iter()
                    .map(|state| {
                        let mut pod = Pod::new(program, template.clone());
                        pod.restore_state(state);
                        pod
                    })
                    .collect(),
            })
            .collect();
        Twin {
            lanes,
            cfg,
            journal: None,
            counts: TwinCounts::default(),
            round: 0,
        }
    }

    /// Gives the twin per-shard journals under `dir`, placed like the
    /// platform places its programs.
    pub fn with_journal(mut self, dir: &Path, n_shards: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let ids: Vec<_> = self.lanes.iter().map(|l| l.program.id()).collect();
        let map = ShardMap::new(&ids, n_shards).expect("distinct programs, at least one shard");
        let policy = DurabilityConfig::new(dir);
        self.journal = Some(TwinJournal {
            dir: dir.to_path_buf(),
            journals: (0..n_shards)
                .map(|i| FileJournal::open(dir.join(format!("twin-{i}.wal"))))
                .collect::<Result<_, _>>()?,
            shard_of_lane: ids
                .iter()
                .map(|id| map.shard_of(*id).expect("just placed"))
                .collect(),
            compact_ratio: policy.compact_ratio,
            min_compact_wal_bytes: policy.min_compact_wal_bytes,
        });
        Ok(self)
    }

    /// Queues `directive` on one pod before the next round (the
    /// explore_deep warm-up injects its hang inputs this way).
    pub fn inject(&mut self, lane: usize, pod: usize, directive: Directive) {
        self.lanes[lane].pods[pod].receive_guidance([directive]);
    }

    /// One round, every stage under its span. Returns the round's wall
    /// time in ns.
    pub fn round(&mut self, execs_per_pod: u32, spans: &mut Spans) -> u64 {
        spans.set_round(self.round);
        let round_span = spans.start("round");

        // 1. Distribute each hive's current overlay to its fleet.
        let open = spans.start("core.distribute_overlay");
        if self.cfg.fixes_enabled {
            for lane in &mut self.lanes {
                let (overlay, version) = {
                    let (o, v) = lane.hive.current_overlay();
                    (o.clone(), v)
                };
                for pod in &mut lane.pods {
                    pod.install_fix(overlay.clone(), version);
                }
            }
        }
        spans.end(open);

        // 2a. Execute and frame, pod-major — the order the platform's
        //     sequence layout replays in.
        let batch = self.cfg.batch_size.max(1);
        let mut frames: Vec<Vec<Vec<u8>>> = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            let mut lane_frames = Vec::new();
            for pod in &mut lane.pods {
                let open = spans.start("pod.run_once");
                let mut traces: Vec<ExecutionTrace> = Vec::with_capacity(execs_per_pod as usize);
                for _ in 0..execs_per_pod {
                    let run = pod.run_once();
                    self.counts.executions += 1;
                    self.counts.steps += run.result.steps;
                    self.counts.directed += u64::from(run.directed);
                    traces.push(run.trace);
                }
                spans.end(open);
                for chunk in traces.chunks(batch) {
                    let open = spans.start("trace.encode_batch");
                    let frame = wire::encode_batch(chunk);
                    spans.end(open);
                    self.counts.wire_bytes += frame.len() as u64;
                    lane_frames.push(frame);
                }
            }
            frames.push(lane_frames);
        }

        // 2b. Ingest every frame.
        for (lane, lane_frames) in frames.iter().enumerate() {
            self.ingest(lane, lane_frames, spans);
        }

        // 3. Fix pipeline: propose (and pool trial cases), rank in the
        //    repair lab, promote — in (lane, proposal) order.
        if self.cfg.fixes_enabled {
            struct Trial {
                lane: usize,
                signature: String,
                candidates: Vec<softborg::fix::FixCandidate>,
                failing: Vec<TestCase>,
                passing: Vec<TestCase>,
                base: softborg::program::Overlay,
            }
            let open = spans.start("fix.propose");
            let mut trials = Vec::new();
            for (li, lane) in self.lanes.iter().enumerate() {
                let base = lane.hive.current_overlay().0.clone();
                for proposal in lane.hive.propose_fixes() {
                    let failing = lane
                        .pods
                        .iter()
                        .flat_map(|p| p.failing_cases())
                        .filter(|(_, o)| {
                            outcome_signature(o).as_deref() == Some(proposal.signature.as_str())
                        })
                        .map(|(c, _)| c.clone())
                        .take(16)
                        .collect();
                    let passing = lane
                        .pods
                        .iter()
                        .flat_map(|p| p.passing_cases())
                        .take(32)
                        .cloned()
                        .collect();
                    trials.push(Trial {
                        lane: li,
                        signature: proposal.signature,
                        candidates: proposal.candidates,
                        failing,
                        passing,
                        base: base.clone(),
                    });
                }
            }
            spans.end(open);

            // Rank and promote only have a span in rounds that propose.
            let fix_spans = !trials.is_empty();
            let open = fix_spans.then(|| spans.start("fix.rank"));
            let winners: Vec<_> = trials
                .iter()
                .map(|t| {
                    rank(
                        self.lanes[t.lane].program,
                        &t.base,
                        &t.candidates,
                        &t.failing,
                        &t.passing,
                        LabConfig::default(),
                    )
                    .into_iter()
                    .next()
                })
                .collect();
            if let Some(open) = open {
                spans.end(open);
            }

            let open = fix_spans.then(|| spans.start("hive.promote"));
            for (t, winner) in trials.iter().zip(winners) {
                let Some((candidate, validation)) = winner else {
                    continue;
                };
                let distribute = match validation.verdict {
                    Verdict::Distribute => true,
                    Verdict::Reject | Verdict::Suggest => {
                        t.signature.starts_with("lock-cycle:")
                            && t.failing.is_empty()
                            && validation.passing_total as usize >= self.cfg.min_preservation_cases
                            && validation.passing_preserved == validation.passing_total
                    }
                };
                if distribute {
                    self.lanes[t.lane].hive.promote(&t.signature, &candidate);
                    self.counts.promoted += 1;
                    self.counts.first_promotion_round.get_or_insert(self.round);
                }
            }
            if let Some(open) = open {
                spans.end(open);
            }
        }

        // 4. Guidance: plan from the tree, spread the directives.
        if self.cfg.guidance_enabled {
            let open = spans.start("guidance.plan");
            for lane in &mut self.lanes {
                let (plan, _stats) = lane.hive.guidance();
                let n = lane.pods.len();
                for (i, d) in plan.directives.into_iter().enumerate() {
                    match d {
                        Directive::InputSeed { .. } => {
                            for k in 0..3usize {
                                lane.pods[(i * 3 + k) % n].receive_guidance([d.clone()]);
                            }
                        }
                        other => lane.pods[i % n].receive_guidance([other]),
                    }
                }
            }
            spans.end(open);
        }

        // 5. The reads a `RoundReport` carries.
        if self.cfg.report_reads {
            for lane in &self.lanes {
                spans.time("tree.coverage", || {
                    std::hint::black_box(lane.hive.coverage())
                });
                spans.time("hive.proofs", || {
                    std::hint::black_box(lane.hive.proofs().len())
                });
            }
        }

        // 6. Durable commit.
        if self.journal.is_some() {
            self.commit(&frames, spans);
        }

        self.round += 1;
        spans.end(round_span)
    }

    /// Ingests one lane's frames: decode, reconstruct, merge into the
    /// shadow tree, then detectors + merge inside the hive.
    fn ingest(&mut self, lane: usize, frames: &[Vec<u8>], spans: &mut Spans) {
        let lane = &mut self.lanes[lane];
        for frame in frames {
            let open = spans.start("trace.decode_batch");
            let traces = wire::decode_batch(frame).expect("self-produced frame");
            spans.end(open);
            self.counts.traces += traces.len() as u64;

            let open = spans.start("trace.reconstruct");
            let processed: Vec<ProcessedTrace> = traces
                .into_iter()
                .map(|trace| {
                    let decisions = lane
                        .hive
                        .overlays()
                        .get(trace.overlay_version as usize)
                        .and_then(|overlay| {
                            reconstruct(lane.program, lane.hive.deps(), overlay, &trace).ok()
                        })
                        .map(|path| path.decisions);
                    ProcessedTrace { trace, decisions }
                })
                .collect();
            spans.end(open);

            let open = spans.start("tree.merge_path");
            for pt in &processed {
                if let Some(decisions) = &pt.decisions {
                    let m = lane.shadow.merge_path(decisions, &pt.trace.outcome);
                    self.counts.max_path_len = self.counts.max_path_len.max(m.path_len);
                }
            }
            spans.end(open);

            let open = spans.start("hive.apply_processed");
            for pt in &processed {
                lane.hive.apply_processed(pt);
            }
            spans.end(open);
        }
    }

    /// A round without pods: ingests recorded frames (`frames[lane]`),
    /// the twin of one `fanin_replay` pass. Returns its wall time in ns.
    pub fn replay(&mut self, frames: &[Vec<Vec<u8>>], spans: &mut Spans) -> u64 {
        spans.set_round(self.round);
        let round_span = spans.start("round");
        for (lane, lane_frames) in frames.iter().enumerate() {
            self.counts.wire_bytes += lane_frames.iter().map(|f| f.len() as u64).sum::<u64>();
            self.ingest(lane, lane_frames, spans);
        }
        self.round += 1;
        spans.end(round_span)
    }

    /// Appends this round's frames, pod states and round marker to the
    /// shard journals, fsyncs them, and compacts a shard whose journal
    /// outgrew its state.
    fn commit(&mut self, frames: &[Vec<Vec<u8>>], spans: &mut Spans) {
        let open = spans.start("pod.export_state");
        let pod_bodies: Vec<Vec<u8>> = self
            .lanes
            .iter()
            .map(|lane| {
                let mut body = Vec::new();
                for pod in &lane.pods {
                    body.extend_from_slice(&pod.export_state().encode());
                }
                body
            })
            .collect();
        spans.end(open);
        self.counts.pod_state_bytes += pod_bodies.iter().map(|b| b.len() as u64).sum::<u64>();

        let j = self.journal.as_mut().expect("caller checked");
        let round = u64::from(self.round);
        let open = spans.start("hive.journal_append");
        let mut rec = Vec::new();
        let mut appended = 0u64;
        for (lane, lane_frames) in frames.iter().enumerate() {
            let shard = j.shard_of_lane[lane];
            for (seq, frame) in lane_frames.iter().enumerate() {
                rec.clear();
                journal::append_record(&mut rec, REC_FRAME, lane as u64, seq as u64, frame);
                j.journals[shard].append(&rec).expect("twin journal append");
                appended += rec.len() as u64;
            }
            rec.clear();
            journal::append_record(&mut rec, REC_PODS, lane as u64, round, &pod_bodies[lane]);
            j.journals[shard].append(&rec).expect("twin journal append");
            appended += rec.len() as u64;
        }
        rec.clear();
        journal::append_record(&mut rec, REC_ROUND, 0, round, &round.to_le_bytes());
        for journal in &mut j.journals {
            journal.append(&rec).expect("twin journal append");
            appended += rec.len() as u64;
        }
        spans.end(open);
        self.counts.wal_bytes += appended;

        let open = spans.start("hive.journal_sync");
        for journal in &mut j.journals {
            journal.sync().expect("twin journal sync");
            self.counts.fsyncs += 1;
        }
        spans.end(open);

        // The default policy re-encodes a shard's state every round once
        // its journal passed the floor, to test the compaction trigger.
        for shard in 0..j.journals.len() {
            let wal_len = j.journals[shard].len();
            if j.compact_ratio == 0 || wal_len < j.min_compact_wal_bytes {
                continue;
            }
            let open = spans.start("hive.encode_state");
            let mut state = Vec::new();
            for (lane, _) in j
                .shard_of_lane
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == shard)
            {
                state.extend_from_slice(&self.lanes[lane].hive.encode_state());
            }
            spans.end(open);
            if wal_len >= j.compact_ratio.saturating_mul(state.len() as u64) {
                let open = spans.start("store.checkpoint");
                let tmp = j.dir.join(format!("twin-{shard}.state.tmp"));
                let dst = j.dir.join(format!("twin-{shard}.state"));
                write_durably(&tmp, &dst, &state).expect("twin checkpoint");
                j.journals[shard]
                    .truncate(0)
                    .expect("twin journal truncate");
                spans.end(open);
                self.counts.fsyncs += 2;
            }
        }
    }

    /// `HiveStats` summed across lanes: `(reconstructed, unreconstructed, new_nodes)`.
    pub fn hive_totals(&self) -> (u64, u64, u64) {
        self.lanes.iter().fold((0, 0, 0), |(r, u, n), l| {
            let s = l.hive.stats();
            (r + s.reconstructed, u + s.unreconstructed, n + s.new_nodes)
        })
    }
}

/// Write-then-rename with both fsyncs a checkpoint needs.
fn write_durably(tmp: &Path, dst: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(tmp, dst)?;
    journal::fsync_parent_dir(dst)
}
