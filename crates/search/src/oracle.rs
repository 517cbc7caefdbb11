//! The robustness oracles: what it means for a run under faults to be
//! *wrong*. Each check is an invariant the platform's existing test
//! suites already pin down for hand-picked fault plans (E15's
//! byte-identity, the replay contract, the ack-after-sync ledger); the
//! search applies them to every generated plan.
//!
//! Ordering matters and is part of the corpus contract: `check` returns
//! the *first* failing oracle in a fixed order, so a minimized corpus
//! entry's recorded oracle kind is stable across replays. Specific,
//! actionable verdicts come before the byte-identity catch-all.

use crate::workload::{RunOutcome, Workload};
use std::fmt;

/// A robustness invariant the run violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleFailure {
    /// Two runs of the identical `(workload, plan)` took different
    /// dispatch paths — the determinism contract itself is broken.
    ReplayUnstable {
        /// First run's trace hash.
        a: u64,
        /// Rerun's trace hash.
        b: u64,
    },
    /// Not every session finished and got acked (livelock, lost
    /// session, or fuel exhaustion — which for a correctly sized
    /// workload *is* livelock).
    Incomplete,
    /// Clients shed frames — the workload never applies enough pressure
    /// for legitimate shedding, so any shed frame is a protocol bug.
    Shed {
        /// Frames shed.
        shed: u64,
    },
    /// More traces reached the merge sink than the campaign streamed:
    /// something was ingested twice.
    OverDelivery {
        /// Traces merged.
        merged: u64,
        /// Traces the campaign streamed.
        expected: u64,
    },
    /// Fewer traces reached the merge sink than were streamed, in a run
    /// that claims success otherwise: data vanished without any error.
    SilentDrop {
        /// Traces merged.
        merged: u64,
        /// Traces the campaign streamed.
        expected: u64,
    },
    /// The synced journal holds more records than the campaign has
    /// frames — recovery is re-journaling what it already owns, and the
    /// journal grows without bound under repeated crashes.
    JournalUnbounded {
        /// Records in the synced journal.
        records: u64,
        /// Frames the campaign streamed.
        frames: u64,
    },
    /// The ack ledger disagrees with the delivery ledger: the journal
    /// acked records that were never delivered to the pipeline (or vice
    /// versa).
    AckedDeliveredMismatch {
        /// Records covered by the synced journal.
        acked: u64,
        /// Frames + tombstones counted at the sync barrier.
        delivered: u64,
    },
    /// The hive's final state differs byte-for-byte from the fault-free
    /// run's — the catch-all E15 invariant: faults may reorder work but
    /// never change where you end up.
    StateDivergence,
    /// Injected storage corruption changed on-disk bytes, yet the scrub
    /// pass before resume reported the campaign clean: garbage would
    /// have been ingested silently. `point` names the undetected
    /// corruption (durable campaign only).
    ScrubSilent {
        /// The corruption point no scrub flagged.
        point: String,
    },
    /// A resume returned `Ok` at committed round 0 after the campaign
    /// had committed `rounds` rounds: every acked round was lost without
    /// a refusal (durable campaign only).
    ColdStartOverCampaign {
        /// Rounds the campaign had committed before the kill.
        rounds: u64,
    },
    /// A resume rebuilt shard state (full record + folded deltas) that
    /// differs from the uninterrupted reference run at committed round
    /// `round`: a delta was skipped, misapplied, or applied against the
    /// wrong base (durable campaign only).
    DeltaChainDivergence {
        /// First committed round at which the rebuilt state differed.
        round: u64,
    },
    /// A resumed fleet's shard state, pod population (RNG streams,
    /// repair-lab corpora), or round history diverged from the
    /// uninterrupted reference run at committed round `round` — resume
    /// is not process-equivalent (durable campaign only).
    ResumeDivergence {
        /// First committed round at which the resumed run differed.
        round: u64,
    },
}

impl OracleFailure {
    /// Stable identifier (corpus entries, bench JSON, metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            OracleFailure::ReplayUnstable { .. } => "replay_unstable",
            OracleFailure::Incomplete => "incomplete",
            OracleFailure::Shed { .. } => "shed",
            OracleFailure::OverDelivery { .. } => "over_delivery",
            OracleFailure::SilentDrop { .. } => "silent_drop",
            OracleFailure::JournalUnbounded { .. } => "journal_unbounded",
            OracleFailure::AckedDeliveredMismatch { .. } => "acked_delivered_mismatch",
            OracleFailure::StateDivergence => "state_divergence",
            OracleFailure::ScrubSilent { .. } => "scrub_silent",
            OracleFailure::ColdStartOverCampaign { .. } => "cold_start_over_campaign",
            OracleFailure::DeltaChainDivergence { .. } => "delta_chain_divergence",
            OracleFailure::ResumeDivergence { .. } => "resume_divergence",
        }
    }
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFailure::ReplayUnstable { a, b } => write!(
                f,
                "replay unstable: trace hash {a:#018x} vs {b:#018x} on identical reruns"
            ),
            OracleFailure::Incomplete => write!(f, "run did not complete every session"),
            OracleFailure::Shed { shed } => {
                write!(f, "{shed} frame(s) shed under a gentle workload")
            }
            OracleFailure::OverDelivery { merged, expected } => {
                write!(
                    f,
                    "{merged} traces merged, campaign streamed only {expected}"
                )
            }
            OracleFailure::SilentDrop { merged, expected } => {
                write!(
                    f,
                    "{merged} traces merged of {expected} streamed — silent loss"
                )
            }
            OracleFailure::JournalUnbounded { records, frames } => {
                write!(
                    f,
                    "synced journal holds {records} records for {frames} frames"
                )
            }
            OracleFailure::AckedDeliveredMismatch { acked, delivered } => {
                write!(
                    f,
                    "{acked} records acked but {delivered} delivered at sync barriers"
                )
            }
            OracleFailure::StateDivergence => {
                write!(f, "final hive state differs from the fault-free run")
            }
            OracleFailure::ScrubSilent { point } => {
                write!(
                    f,
                    "corruption [{point}] changed stored bytes but scrub saw a clean campaign"
                )
            }
            OracleFailure::ColdStartOverCampaign { rounds } => {
                write!(
                    f,
                    "resume started over at round 0 after {rounds} committed round(s)"
                )
            }
            OracleFailure::DeltaChainDivergence { round } => {
                write!(
                    f,
                    "chain-rebuilt shard state diverged from the uninterrupted run at committed \
                     round {round}"
                )
            }
            OracleFailure::ResumeDivergence { round } => {
                write!(
                    f,
                    "resumed fleet diverged from the uninterrupted run at committed round {round}"
                )
            }
        }
    }
}

/// Applies every oracle to `outcome` (a run of `workload` under some
/// plan), judged against `baseline` (the same workload under the empty
/// plan) and `rerun_hash` (the trace hash of an identical re-run of the
/// same plan). Returns the first violated invariant, or `None` for a
/// healthy run.
pub fn check(
    workload: &Workload,
    baseline: &RunOutcome,
    outcome: &RunOutcome,
    rerun_hash: u64,
) -> Option<OracleFailure> {
    let expected = workload.traces as u64;
    let frames = workload.frames();
    if outcome.sched.trace_hash != rerun_hash {
        return Some(OracleFailure::ReplayUnstable {
            a: outcome.sched.trace_hash,
            b: rerun_hash,
        });
    }
    if !outcome.completed {
        return Some(OracleFailure::Incomplete);
    }
    if outcome.shed > 0 {
        return Some(OracleFailure::Shed { shed: outcome.shed });
    }
    if outcome.traces_merged > expected {
        return Some(OracleFailure::OverDelivery {
            merged: outcome.traces_merged,
            expected,
        });
    }
    if outcome.traces_merged < expected {
        return Some(OracleFailure::SilentDrop {
            merged: outcome.traces_merged,
            expected,
        });
    }
    if outcome.acked > frames {
        return Some(OracleFailure::JournalUnbounded {
            records: outcome.acked,
            frames,
        });
    }
    if outcome.acked != outcome.delivered + outcome.tombstones {
        return Some(OracleFailure::AckedDeliveredMismatch {
            acked: outcome.acked,
            delivered: outcome.delivered + outcome.tombstones,
        });
    }
    if outcome.state != baseline.state {
        return Some(OracleFailure::StateDivergence);
    }
    None
}
