//! The hive: ingest by-products, build the tree, detect bugs, propose
//! and promote fixes, and emit guidance (paper §3, Fig. 1).
//!
//! One [`Hive`] serves one program. Traces arrive (already anonymized by
//! pods), are reconstructed into full paths against the overlay version
//! they ran under, merged into the collective execution tree, and fed to
//! the detectors. Each round the hive can [`propose_fixes`] for diagnosed
//! failure modes and *predicted* deadlocks, [`promote`] a validated
//! candidate into the distributed overlay, and compute a guidance plan.
//!
//! [`propose_fixes`]: Hive::propose_fixes
//! [`promote`]: Hive::promote

use serde::{Deserialize, Serialize};
use softborg_analysis::deadlock::LockOrderGraph;
use softborg_analysis::race::{RaceDetector, RaceReport};
use softborg_analysis::treeloc::{failure_key, Diagnosis, FailureLedger};
use softborg_fix::{crash_guards, deadlock_immunity, hang_bounds, FixCandidate};
use softborg_guidance::{frontier, Directive, GuidancePlan, PlanStats, PlannerConfig};
use softborg_ingest::{
    FrameSender, IngestConfig, IngestMemo, IngestStats, MergeRecord, ProcessedTrace,
    ReconstructContext, ShardMap,
};
use softborg_program::codec::{self, CodecError};
use softborg_program::interp::{LoweredProgram, Outcome};
use softborg_program::overlay::Overlay;
use softborg_program::taint::InputDependence;
use softborg_program::{BranchSiteId, Program};
use softborg_trace::record::GlobalAccessSummary;
use softborg_trace::{ExecutionTrace, ReplayScratch};
use softborg_tree::{path_hash, CoverageStats, ExecutionTree};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// A new [`ReconstructContext::epoch`]: distinct from every other one
/// this process handed out, so no two hive states share one.
pub(crate) fn fresh_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Hive configuration.
#[derive(Debug, Clone)]
pub struct HiveConfig {
    /// Guidance planner settings.
    pub planner: PlannerConfig,
    /// Iteration cap used by synthesized hang fixes.
    pub hang_bound: u64,
    /// Minimum lock-order-cycle support before proposing a predictive
    /// deadlock fix (1 = fix on first evidence).
    pub min_cycle_support: u64,
    /// Maximum locks participating in a searched cycle.
    pub max_cycle_len: usize,
}

impl Default for HiveConfig {
    fn default() -> Self {
        HiveConfig {
            planner: PlannerConfig::default(),
            hang_bound: 10_000,
            min_cycle_support: 1,
            max_cycle_len: 6,
        }
    }
}

/// Ingest/processing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HiveStats {
    /// Traces ingested.
    pub traces: u64,
    /// Traces whose full path was reconstructed and merged.
    pub reconstructed: u64,
    /// Traces that could not be reconstructed (inexact policy, version
    /// skew, corruption).
    pub unreconstructed: u64,
    /// New tree nodes created by merging.
    pub new_nodes: u64,
}

/// What [`Hive::recover`] rebuilt from a write-ahead journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Frame records replayed into the hive.
    pub frames_replayed: u64,
    /// Tombstone records skipped (shed slots — no trace content).
    pub tombstones_skipped: u64,
    /// Bytes dropped from a truncated or corrupt journal tail.
    pub tail_dropped: u64,
    /// `true` when the journal tail was damaged (the dropped records
    /// were never acked, so nothing accepted is lost).
    pub tail_damaged: bool,
}

/// A proposed fix for one failure mode.
#[derive(Debug, Clone)]
pub struct FixProposal {
    /// Stable signature of the failure mode (used to avoid re-fixing).
    pub signature: String,
    /// Candidate overlays, unvalidated.
    pub candidates: Vec<FixCandidate>,
}

/// The per-program hive. See the [module docs](self).
#[derive(Debug)]
pub struct Hive<'p> {
    program: &'p Program,
    /// The program lowered once: every replay of its traces steps it.
    code: LoweredProgram,
    tree: ExecutionTree,
    lock_graph: LockOrderGraph,
    races: RaceDetector,
    ledger: FailureLedger,
    /// Every overlay version ever distributed (index = version).
    overlay_history: Vec<Overlay>,
    /// The overlay history's [`ReconstructContext::epoch`]: renewed
    /// whenever the history is replaced rather than appended to.
    epoch: u64,
    /// The reconstruction memo the ingest participants share, kept
    /// across [`ingest_frames`](Hive::ingest_frames) runs.
    memo: IngestMemo,
    fixed: BTreeSet<String>,
    stats: HiveStats,
    config: HiveConfig,
    /// The planner's symbolic crash hunt: a pure function of `program`
    /// and `config.planner`, both fixed for the hive's life, so it is
    /// computed by the first [`guidance`](Hive::guidance) call and never
    /// invalidated. Derived, not state: never serialised.
    crash_seeds: Option<Vec<Directive>>,
}

/// A hive's merge state, borrowed apart from its reconstruction inputs
/// ([`Hive::split`]). [`fold`](Self::fold) is the one sink every ingest
/// path ends in.
pub(crate) struct HiveSink<'a> {
    tree: &'a mut ExecutionTree,
    lock_graph: &'a mut LockOrderGraph,
    races: &'a mut RaceDetector,
    ledger: &'a mut FailureLedger,
    stats: &'a mut HiveStats,
}

impl HiveSink<'_> {
    /// Detectors always see the trace's parts; the tree additionally
    /// merges its reconstructed path, under its precomputed
    /// [`path_hash`], when there is one. `failure_key` is the outcome's
    /// [`failure_key`].
    fn fold(
        &mut self,
        path: Option<(&[(BranchSiteId, bool)], u64)>,
        failure_key: Option<&str>,
        outcome: &Outcome,
        lock_pairs: &[(u32, u32)],
        global_summaries: &[GlobalAccessSummary],
    ) {
        self.stats.traces += 1;
        self.lock_graph.ingest(lock_pairs, outcome);
        self.races.ingest(global_summaries);
        self.ledger.ingest(outcome, failure_key);
        match path {
            Some((decisions, hash)) => {
                let m = self.tree.merge_path_hashed(decisions, outcome, hash);
                self.stats.new_nodes += m.new_nodes;
                self.stats.reconstructed += 1;
            }
            None => self.stats.unreconstructed += 1,
        }
    }

    /// Folds a trace that was not prepared: derives what
    /// [`MergeRecord::prepare`] would, from borrowed parts.
    fn merge(&mut self, trace: &ExecutionTrace, decisions: Option<&[(BranchSiteId, bool)]>) {
        let outcome = &trace.outcome;
        let key = failure_key(outcome);
        self.fold(
            decisions.map(|d| (d, path_hash(d, outcome))),
            key.as_deref(),
            outcome,
            &trace.lock_pairs,
            &trace.global_summaries,
        );
    }

    pub(crate) fn apply(&mut self, r: &MergeRecord) {
        self.fold(
            (r.path.as_ref()).map(|(d, hash)| (&d[..], *hash)),
            r.failure_key.as_deref(),
            &r.outcome,
            &r.lock_pairs,
            &r.global_summaries,
        );
    }
}

impl<'p> Hive<'p> {
    /// Creates a hive for `program`.
    pub fn new(program: &'p Program, config: HiveConfig) -> Self {
        Hive {
            code: LoweredProgram::new(program),
            tree: ExecutionTree::new(program.id()),
            lock_graph: LockOrderGraph::new(),
            races: RaceDetector::new(),
            ledger: FailureLedger::new(),
            overlay_history: vec![Overlay::empty()],
            epoch: fresh_epoch(),
            memo: IngestMemo::default(),
            fixed: BTreeSet::new(),
            stats: HiveStats::default(),
            program,
            config,
            crash_seeds: None,
        }
    }

    /// Every overlay version ever distributed (index = version).
    pub fn overlays(&self) -> &[Overlay] {
        &self.overlay_history
    }

    /// The program's input-dependence analysis (computed once at
    /// construction; a pure function of the program).
    pub fn deps(&self) -> &InputDependence {
        self.code.dependence()
    }

    /// The program lowered once at construction, which replays step.
    pub fn lowered(&self) -> &LoweredProgram {
        &self.code
    }

    /// Borrows the hive apart: its read-only reconstruction inputs
    /// beside its merge state, so an ingest run's participants can read
    /// the one while its sink writes the other.
    pub(crate) fn split(&mut self) -> (ReconstructContext<'_>, HiveSink<'_>) {
        let Hive {
            code,
            tree,
            lock_graph,
            races,
            ledger,
            overlay_history,
            epoch,
            stats,
            ..
        } = self;
        let ctx = ReconstructContext {
            code,
            overlays: overlay_history,
            epoch: *epoch,
        };
        let sink = HiveSink {
            tree,
            lock_graph,
            races,
            ledger,
            stats,
        };
        (ctx, sink)
    }

    /// Applies one processed trace — what every ingest path's sink
    /// does, exposed so an external merger can drive the hive
    /// while keeping [`HiveStats`] and tree state byte-identical to
    /// serial [`ingest`](Self::ingest).
    pub fn apply_processed(&mut self, pt: &ProcessedTrace) {
        self.split().1.merge(&pt.trace, pt.decisions.as_deref());
    }

    /// Applies one prepared trace ([`MergeRecord::prepare`]) — exactly
    /// what the ingest engine's sink folds for each arrival, memo hits
    /// included. Same effect as [`apply_processed`](Self::apply_processed)
    /// on the trace it was prepared from.
    pub fn apply_record(&mut self, record: &MergeRecord) {
        self.split().1.apply(record);
    }

    /// The current overlay and its version (what pods should run).
    pub fn current_overlay(&self) -> (&Overlay, u64) {
        let v = self.overlay_history.len() as u64 - 1;
        (
            self.overlay_history
                .last()
                .expect("version 0 always exists"),
            v,
        )
    }

    /// The serial, memo-less *reference* fold of one trace, which no
    /// production path calls (each folds through
    /// [`ingest_frames`](Self::ingest_frames)): detectors always see it;
    /// the tree additionally merges the reconstructed path when the trace
    /// is exact and its overlay version is known.
    pub fn ingest(&mut self, trace: &ExecutionTrace) {
        let (ctx, mut sink) = self.split();
        let decisions = ctx.decisions(trace, &mut ReplayScratch::default());
        sink.merge(trace, decisions.as_deref());
    }

    /// Ingests encoded batch frames ([`wire::encode_batch`]) through the
    /// ingest engine, one frame per unit: the calling thread and pooled
    /// participants decode and reconstruct them, and the calling thread
    /// merges them in frame order. Observably identical to calling
    /// [`ingest`](Self::ingest) on every trace in frame order — same
    /// [`HiveStats`], tree digest, and coverage — for any worker count or
    /// batch size. Corrupt frames, and frames of another program, are
    /// counted in the returned [`IngestStats`] and skipped without
    /// panicking.
    ///
    /// [`wire::encode_batch`]: softborg_trace::wire::encode_batch
    pub fn ingest_batch(&mut self, frames: Vec<Vec<u8>>, config: &IngestConfig) -> IngestStats {
        let id = self.tree.program();
        let ((), stats) = self.ingest_frames(config, move |tx| {
            for f in frames {
                tx.submit_for(id, f)
                    .expect("the hive's own program has a lane");
            }
        });
        stats
    }

    /// Producer form of [`ingest_batch`](Self::ingest_batch): the one
    /// engine ([`softborg_ingest::run_producer`]) for one program on one
    /// shard. `producer` runs first, on the calling thread, and claims
    /// slots for the hive's program (`tree().program()`) through its
    /// [`FrameSender`]; then the claimed frames run as units, in
    /// claimed order. The sink runs on the calling thread
    /// and is the only writer to the tree and detectors.
    ///
    /// The overlay history is frozen for the duration of the call
    /// (enforced by the borrow: promotion needs `&mut self`). The
    /// participants' memo is the hive's, kept from one call to the next.
    pub fn ingest_frames<R, P>(&mut self, config: &IngestConfig, producer: P) -> (R, IngestStats)
    where
        P: FnOnce(FrameSender) -> R + Send,
        R: Send,
    {
        let id = self.tree.program();
        let map = ShardMap::new(&[id], 1).expect("one program on one shard");
        // Lent to the run and put back after it; a panicking run drops it.
        let mut memo = std::mem::take(&mut self.memo);
        let (ctx, mut sink) = self.split();
        let ctxs = BTreeMap::from([(id, ctx)]);
        let sinks = vec![move |_, r: &MergeRecord| sink.apply(r)];
        let out = softborg_ingest::run_producer(config, &map, &ctxs, &mut memo, producer, sinks);
        self.memo = memo;
        out
    }

    /// Rebuilds a hive from write-ahead journal bytes: scans the journal
    /// (dropping any truncated or corrupt tail without panicking) and
    /// replays every surviving frame record, in journal order, through
    /// the ingest engine, one frame per unit. Because the transport acks
    /// a frame only after its journal record is synced, the rebuilt
    /// state covers everything the hive ever acknowledged — the recovery
    /// guarantee of the crash-only lineage.
    pub fn recover(
        program: &'p Program,
        config: HiveConfig,
        ingest_cfg: &IngestConfig,
        journal_bytes: &[u8],
    ) -> (Self, RecoveryReport) {
        let (records, scan) = crate::journal::scan(journal_bytes);
        if let Some(err) = scan.tail_error {
            // Dropping an unsynced/corrupt tail is expected crash fallout,
            // but it must never be *silent*: an operator comparing pod-side
            // send counts to hive state needs this event (the default ops
            // recorder echoes Warn+ to stderr).
            softborg_obs::ops().warn(
                "hive.recover",
                "recovery_tail_dropped",
                &[
                    ("tail_bytes", scan.tail_dropped as u64),
                    ("intact_records", scan.records as u64),
                ],
                format_args!(
                    "hive recovery dropped {} journal tail byte(s) after {} intact record(s): {err}",
                    scan.tail_dropped, scan.records
                ),
            );
        }
        let mut report = RecoveryReport {
            tail_dropped: scan.tail_dropped as u64,
            tail_damaged: scan.tail_error.is_some(),
            ..RecoveryReport::default()
        };
        let mut frames = Vec::new();
        for rec in records {
            match rec.kind {
                crate::journal::REC_FRAME => {
                    report.frames_replayed += 1;
                    frames.push(rec.frame);
                }
                _ => report.tombstones_skipped += 1,
            }
        }
        let mut hive = Hive::new(program, config);
        hive.ingest_batch(frames, ingest_cfg);
        (hive, report)
    }

    /// Proposes fixes for every *unfixed* failure mode: exact crash
    /// guards, hang bounds, and deadlock-immunity gates — including
    /// gates for cycles that have not yet deadlocked (prediction).
    pub fn propose_fixes(&self) -> Vec<FixProposal> {
        let mut out = Vec::new();
        for d in self.ledger.diagnoses() {
            let signature = diagnosis_signature(d);
            if self.fixed.contains(&signature) {
                continue;
            }
            let candidates = match d.class.as_str() {
                "crash" => d
                    .loc
                    .map(|loc| crash_guards(self.program, loc))
                    .unwrap_or_default(),
                "hang" => hang_bounds(self.program, &d.stuck, self.config.hang_bound),
                "deadlock" => Vec::new(), // handled below via the lock graph
                _ => Vec::new(),
            };
            if !candidates.is_empty() {
                out.push(FixProposal {
                    signature,
                    candidates,
                });
            }
        }
        // Deadlock patterns (observed or predicted).
        let (current, _) = self.current_overlay();
        for cycle in self.lock_graph.cycles(self.config.max_cycle_len) {
            if cycle.support < self.config.min_cycle_support {
                continue;
            }
            // Signature uses the sorted lock set so observed deadlocks and
            // predicted cycles over the same locks share one fix.
            let mut locks = cycle.locks.clone();
            locks.sort();
            locks.dedup();
            let signature = format!("lock-cycle:{locks:?}");
            if self.fixed.contains(&signature) {
                continue;
            }
            out.push(FixProposal {
                signature,
                candidates: vec![deadlock_immunity(&cycle, current)],
            });
        }
        out
    }

    /// Promotes a validated candidate: merges it into the distributed
    /// overlay, bumps the version, and marks the mode fixed. Returns the
    /// new version.
    pub fn promote(&mut self, signature: &str, candidate: &FixCandidate) -> u64 {
        let mut next = self.current_overlay().0.clone();
        next.merge(&candidate.overlay);
        self.overlay_history.push(next);
        self.fixed.insert(signature.to_string());
        self.overlay_history.len() as u64 - 1
    }

    /// Computes a guidance plan from the current tree (marking
    /// proven-infeasible arms as a side effect).
    pub fn guidance(&mut self) -> (GuidancePlan, PlanStats) {
        let planner = &self.config.planner;
        let crash_seeds = self
            .crash_seeds
            .get_or_insert_with(|| frontier::crash_seeds(&self.code, planner));
        frontier::plan_with_crash_seeds(&self.code, &mut self.tree, planner, crash_seeds)
    }

    /// Current execution tree (read-only).
    pub fn tree(&self) -> &ExecutionTree {
        &self.tree
    }

    /// Coverage summary.
    pub fn coverage(&self) -> CoverageStats {
        self.tree.coverage()
    }

    /// Current failure diagnoses, most frequent first.
    pub fn diagnoses(&self) -> Vec<&Diagnosis> {
        self.ledger.diagnoses()
    }

    /// Current data-race candidates.
    pub fn race_candidates(&self) -> Vec<RaceReport> {
        self.races.candidates()
    }

    /// The aggregated lock-order graph.
    pub fn lock_graph(&self) -> &LockOrderGraph {
        &self.lock_graph
    }

    /// Processing statistics.
    pub fn stats(&self) -> HiveStats {
        self.stats
    }

    /// Cumulative proof certificates derivable from the current tree
    /// (paper §3.3).
    pub fn proofs(&self) -> Vec<crate::proofs::ProofCertificate> {
        crate::proofs::assemble(&self.tree)
    }

    /// What a round report reads: [`coverage`](Self::coverage) and
    /// `self.proofs().len()`, both kept current by the tree. O(1).
    pub fn coverage_and_proof_count(&self) -> (CoverageStats, u64) {
        (self.tree.coverage(), self.tree.proven_subtrees())
    }

    /// Serializes the hive's complete mutable state — tree (with outcome
    /// tallies and infeasibility marks), detector aggregates, failure
    /// ledger, overlay history, fixed-mode set, and counters — into the
    /// deterministic snapshot byte format. Two hives that processed the
    /// same inputs encode to identical bytes, which is the invariant the
    /// durability harness asserts (`program` and `config` are the
    /// caller's responsibility and are not stored; input dependence is a
    /// pure function of the program and is recomputed on decode).
    pub fn encode_state(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u8(&mut buf, 1); // state-format version
        self.tree.encode_into(&mut buf);
        self.lock_graph.encode_into(&mut buf);
        self.races.encode_into(&mut buf);
        self.ledger.encode_into(&mut buf);
        codec::put_u32(&mut buf, self.overlay_history.len() as u32);
        for o in &self.overlay_history {
            o.encode_into(&mut buf);
        }
        codec::put_u32(&mut buf, self.fixed.len() as u32);
        for sig in &self.fixed {
            codec::put_str(&mut buf, sig);
        }
        codec::put_u64(&mut buf, self.stats.traces);
        codec::put_u64(&mut buf, self.stats.reconstructed);
        codec::put_u64(&mut buf, self.stats.unreconstructed);
        codec::put_u64(&mut buf, self.stats.new_nodes);
        buf
    }

    /// Serializes only what changed since the last
    /// [`mark_clean`](Self::mark_clean) — the tree as a delta (mutated +
    /// appended nodes only), the small detector aggregates re-encoded
    /// whole (they are O(locks + sites), not O(tree)). Deterministic like
    /// [`encode_state`](Self::encode_state). Applying the result with
    /// [`apply_state_delta`](Self::apply_state_delta) onto a hive in the
    /// base state reproduces this hive's `encode_state` bytes exactly.
    pub fn encode_state_delta(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u8(&mut buf, 1); // delta-format version
        let mut tree_delta = Vec::new();
        self.tree.encode_delta_into(&mut tree_delta);
        codec::put_bytes(&mut buf, &tree_delta);
        self.lock_graph.encode_into(&mut buf);
        self.races.encode_into(&mut buf);
        self.ledger.encode_into(&mut buf);
        codec::put_u32(&mut buf, self.overlay_history.len() as u32);
        for o in &self.overlay_history {
            o.encode_into(&mut buf);
        }
        codec::put_u32(&mut buf, self.fixed.len() as u32);
        for sig in &self.fixed {
            codec::put_str(&mut buf, sig);
        }
        codec::put_u64(&mut buf, self.stats.traces);
        codec::put_u64(&mut buf, self.stats.reconstructed);
        codec::put_u64(&mut buf, self.stats.unreconstructed);
        codec::put_u64(&mut buf, self.stats.new_nodes);
        buf
    }

    /// Applies a delta written by
    /// [`encode_state_delta`](Self::encode_state_delta). The hive must be
    /// at the delta's base state (the chain loader guarantees ordering);
    /// afterwards the tree is clean at the delta's head.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input or when the delta does
    /// not chain onto this hive's state (wrong program or base — surfaced
    /// as `BadTag` on `TreeDelta.*`). On error the hive may be partially
    /// patched; callers discard it and fall back.
    pub fn apply_state_delta(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        // The overlay history may be replaced: memoized replays go stale.
        self.epoch = fresh_epoch();
        let mut r = codec::Reader::new(bytes);
        let version = r.u8("HiveDelta.version")?;
        if version != 1 {
            return Err(CodecError::BadTag {
                what: "HiveDelta.version",
                tag: version,
            });
        }
        let tree_delta = r.bytes("HiveDelta.tree")?;
        self.tree
            .apply_delta(&mut codec::Reader::new(tree_delta))
            .map_err(|e| match e {
                softborg_tree::DeltaError::Codec(c) => c,
                softborg_tree::DeltaError::ProgramMismatch { .. } => CodecError::BadTag {
                    what: "TreeDelta.program",
                    tag: 1,
                },
                softborg_tree::DeltaError::BaseMismatch { .. } => CodecError::BadTag {
                    what: "TreeDelta.base",
                    tag: 2,
                },
            })?;
        self.lock_graph = LockOrderGraph::decode(&mut r)?;
        self.races = RaceDetector::decode(&mut r)?;
        self.ledger = FailureLedger::decode(&mut r)?;
        let n_overlays = r.seq_len("HiveDelta.overlay_history", 16)?;
        let mut overlay_history = Vec::with_capacity(n_overlays.max(1));
        for _ in 0..n_overlays {
            overlay_history.push(Overlay::decode(&mut r)?);
        }
        if overlay_history.is_empty() {
            overlay_history.push(Overlay::empty());
        }
        self.overlay_history = overlay_history;
        let n_fixed = r.seq_len("HiveDelta.fixed", 4)?;
        let mut fixed = BTreeSet::new();
        for _ in 0..n_fixed {
            fixed.insert(r.str("HiveDelta.fixed_sig")?.to_string());
        }
        self.fixed = fixed;
        self.stats = HiveStats {
            traces: r.u64("HiveStats.traces")?,
            reconstructed: r.u64("HiveStats.reconstructed")?,
            unreconstructed: r.u64("HiveStats.unreconstructed")?,
            new_nodes: r.u64("HiveStats.new_nodes")?,
        };
        Ok(())
    }

    /// Forgets tree change tracking: the current state becomes the base
    /// the next [`encode_state_delta`](Self::encode_state_delta)
    /// describes. The durability layer calls this right after persisting
    /// a snapshot (full or delta).
    pub fn mark_clean(&mut self) {
        self.tree.mark_clean();
    }

    /// Rebuilds a hive from [`encode_state`](Self::encode_state) bytes.
    /// The caller supplies the program and config (they are identity, not
    /// state); whether the bytes actually belong to `program` is checked
    /// by comparing the embedded tree's program id.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input, an
    /// unknown state-format version, or a program-id mismatch.
    pub fn decode_state(
        program: &'p Program,
        config: HiveConfig,
        bytes: &[u8],
    ) -> Result<Self, CodecError> {
        let mut r = codec::Reader::new(bytes);
        let version = r.u8("Hive.state_version")?;
        if version != 1 {
            return Err(CodecError::BadTag {
                what: "Hive.state_version",
                tag: version,
            });
        }
        let tree = ExecutionTree::decode(&mut r)?;
        if tree.program() != program.id() {
            return Err(CodecError::BadTag {
                what: "Hive.program_id",
                tag: 0,
            });
        }
        let lock_graph = LockOrderGraph::decode(&mut r)?;
        let races = RaceDetector::decode(&mut r)?;
        let ledger = FailureLedger::decode(&mut r)?;
        let n_overlays = r.seq_len("Hive.overlay_history", 16)?;
        let mut overlay_history = Vec::with_capacity(n_overlays.max(1));
        for _ in 0..n_overlays {
            overlay_history.push(Overlay::decode(&mut r)?);
        }
        if overlay_history.is_empty() {
            overlay_history.push(Overlay::empty());
        }
        let n_fixed = r.seq_len("Hive.fixed", 4)?;
        let mut fixed = BTreeSet::new();
        for _ in 0..n_fixed {
            fixed.insert(r.str("Hive.fixed_sig")?.to_string());
        }
        let stats = HiveStats {
            traces: r.u64("HiveStats.traces")?,
            reconstructed: r.u64("HiveStats.reconstructed")?,
            unreconstructed: r.u64("HiveStats.unreconstructed")?,
            new_nodes: r.u64("HiveStats.new_nodes")?,
        };
        Ok(Hive {
            code: LoweredProgram::new(program),
            tree,
            lock_graph,
            races,
            ledger,
            overlay_history,
            epoch: fresh_epoch(),
            memo: IngestMemo::default(),
            fixed,
            stats,
            program,
            config,
            crash_seeds: None,
        })
    }
}

/// A stable signature for a diagnosis (used to avoid re-fixing modes).
pub fn diagnosis_signature(d: &Diagnosis) -> String {
    match d.class.as_str() {
        "crash" => format!("crash:{:?}:{:?}", d.loc, d.kind),
        "deadlock" => format!("lock-cycle:{:?}", d.locks),
        "hang" => format!("hang:{:?}", d.stuck),
        other => format!("{other}:?"),
    }
}

/// The signature an [`softborg_program::interp::Outcome`] maps to —
/// consistent with [`diagnosis_signature`], so failing test cases can be
/// matched to the fix proposal that targets their mode.
pub fn outcome_signature(o: &softborg_program::interp::Outcome) -> Option<String> {
    use softborg_program::interp::Outcome;
    match o {
        Outcome::Success => None,
        Outcome::Crash { loc, kind } => Some(format!("crash:{:?}:{:?}", Some(*loc), Some(*kind))),
        Outcome::Deadlock { cycle } => {
            let mut locks: Vec<_> = cycle.iter().map(|(_, l)| *l).collect();
            locks.sort();
            locks.dedup();
            Some(format!("lock-cycle:{locks:?}"))
        }
        Outcome::Hang { stuck } => Some(format!("hang:{stuck:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_pod::{Pod, PodConfig};
    use softborg_program::scenarios;

    fn feed(hive: &mut Hive<'_>, pod: &mut Pod<'_>, n: u32) {
        for _ in 0..n {
            let run = pod.run_once();
            hive.ingest(&run.trace);
        }
    }

    #[test]
    fn ingest_reconstructs_and_grows_tree() {
        let s = scenarios::token_parser();
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 1,
                ..PodConfig::default()
            },
        );
        feed(&mut hive, &mut pod, 50);
        let st = hive.stats();
        assert_eq!(st.traces, 50);
        assert_eq!(st.reconstructed, 50);
        assert!(hive.coverage().nodes > 1);
        assert!(hive.coverage().distinct_paths > 1);
    }

    #[test]
    fn crash_mode_produces_guard_proposals() {
        let s = scenarios::token_parser();
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 2,
                ..PodConfig::default()
            },
        );
        // Force the crash via a directed seed.
        pod.receive_guidance([softborg_guidance::Directive::InputSeed {
            inputs: vec![1, 2, 3, 4, 85, 66],
            target: (softborg_program::BranchSiteId::new(0), false),
        }]);
        feed(&mut hive, &mut pod, 10);
        let proposals = hive.propose_fixes();
        assert!(
            proposals.iter().any(|p| p.signature.starts_with("crash:")),
            "no crash proposal in {proposals:?}"
        );
    }

    #[test]
    fn deadlock_predicted_and_proposed_before_any_deadlock_outcome() {
        let s = scenarios::bank_transfer();
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 3,
                ..PodConfig::default()
            },
        );
        // Run until we have lock pairs from both orders but filter out
        // any actual deadlock traces to prove *prediction*.
        let mut fed = 0;
        for _ in 0..200 {
            let run = pod.run_once();
            if !run.trace.is_failure() {
                hive.ingest(&run.trace);
                fed += 1;
            }
        }
        assert!(fed > 0);
        let proposals = hive.propose_fixes();
        assert!(
            proposals
                .iter()
                .any(|p| p.signature.starts_with("lock-cycle:")),
            "cycle not predicted from passing traces alone"
        );
    }

    #[test]
    fn promote_bumps_version_and_stops_reproposing() {
        let s = scenarios::bank_transfer();
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 4,
                ..PodConfig::default()
            },
        );
        feed(&mut hive, &mut pod, 100);
        let proposals = hive.propose_fixes();
        let cycle = proposals
            .iter()
            .find(|p| p.signature.starts_with("lock-cycle:"))
            .expect("cycle proposal");
        let v = hive.promote(&cycle.signature, &cycle.candidates[0]);
        assert_eq!(v, 1);
        assert_eq!(hive.current_overlay().1, 1);
        assert!(!hive.current_overlay().0.is_empty());
        let again = hive.propose_fixes();
        assert!(
            !again.iter().any(|p| p.signature == cycle.signature),
            "promoted mode must not be re-proposed"
        );
    }

    #[test]
    fn traces_from_old_overlay_versions_still_reconstruct() {
        let s = scenarios::token_parser();
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 5,
                ..PodConfig::default()
            },
        );
        // Version 0 traces.
        let v0_runs: Vec<_> = (0..5).map(|_| pod.run_once()).collect();
        // Promote a (noop-ish) fix to bump the version.
        let loc = softborg_program::gen::find_assert_loc(&s.program, 66).unwrap();
        let cand = &crash_guards(&s.program, loc)[0];
        hive.promote("crash:test", cand);
        // Old traces still merge.
        for r in &v0_runs {
            hive.ingest(&r.trace);
        }
        assert_eq!(hive.stats().reconstructed, 5);
        // New traces under version 1 also merge.
        let (overlay, v) = hive.current_overlay();
        let overlay = overlay.clone();
        pod.install_fix(overlay, v);
        let run = pod.run_once();
        hive.ingest(&run.trace);
        assert_eq!(hive.stats().reconstructed, 6);
    }

    #[test]
    fn state_codec_roundtrips_a_live_hive() {
        let s = scenarios::bank_transfer();
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 11,
                ..PodConfig::default()
            },
        );
        feed(&mut hive, &mut pod, 100);
        if let Some(cycle) = hive
            .propose_fixes()
            .iter()
            .find(|p| p.signature.starts_with("lock-cycle:"))
        {
            hive.promote(&cycle.signature, &cycle.candidates[0]);
        }
        let _ = hive.guidance(); // mutates the tree (infeasible marks)
        let bytes = hive.encode_state();
        let mut back =
            Hive::decode_state(&s.program, HiveConfig::default(), &bytes).expect("decode");
        assert_eq!(back.encode_state(), bytes, "re-encode is byte-identical");
        assert_eq!(back.stats(), hive.stats());
        assert_eq!(back.tree().digest(), hive.tree().digest());
        assert_eq!(back.current_overlay(), hive.current_overlay());
        assert_eq!(back.proofs().len(), hive.proofs().len());
        // The decoded hive is *live*: identical further ingest keeps the
        // two states byte-identical.
        let run = pod.run_once();
        hive.ingest(&run.trace);
        back.ingest(&run.trace);
        assert_eq!(back.encode_state(), hive.encode_state());
    }

    #[test]
    fn state_codec_rejects_wrong_program_and_truncation() {
        let a = scenarios::token_parser();
        let b = scenarios::bank_transfer();
        let hive = Hive::new(&a.program, HiveConfig::default());
        let bytes = hive.encode_state();
        assert!(Hive::decode_state(&b.program, HiveConfig::default(), &bytes).is_err());
        for cut in 0..bytes.len() {
            assert!(
                Hive::decode_state(&a.program, HiveConfig::default(), &bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn guidance_plans_come_from_the_tree() {
        let s = scenarios::token_parser();
        let mut hive = Hive::new(
            &s.program,
            HiveConfig {
                planner: PlannerConfig {
                    sym: softborg_symex::SymConfig {
                        input_box: softborg_symex::InputBox::uniform(6, 0, 99),
                        ..softborg_symex::SymConfig::default()
                    },
                    ..PlannerConfig::default()
                },
                ..HiveConfig::default()
            },
        );
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 6,
                ..PodConfig::default()
            },
        );
        feed(&mut hive, &mut pod, 30);
        let before = hive.coverage().frontier_arms;
        assert!(before > 0);
        let (plan, stats) = hive.guidance();
        assert!(
            !plan.is_empty() || stats.infeasible_marked > 0,
            "planner produced nothing: {stats:?}"
        );
    }
}
