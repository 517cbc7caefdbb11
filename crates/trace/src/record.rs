//! Execution traces and the recording policies that shape them.
//!
//! A trace is the serialized form of one execution's by-products (paper,
//! §3.1): a branch bit-vector, syscall-return and schedule summaries, the
//! outcome label, plus enough metadata for the hive to reconstruct the
//! deterministic branches by replay.

use crate::bitvec::BitVec;
use serde::{Deserialize, Serialize};
use softborg_program::interp::Outcome;
use softborg_program::ProgramId;

/// Per-execution summary of one shared global's accesses — the compact
/// Eraser-style by-product the race detector aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalAccessSummary {
    /// The global's index.
    pub global: u32,
    /// Bitmask of threads that read it.
    pub reader_mask: u32,
    /// Bitmask of threads that wrote it.
    pub writer_mask: u32,
    /// Locks held at *every* access (the lockset intersection); an empty
    /// set with multi-thread access and a writer is a race candidate.
    pub lockset: Vec<u32>,
}

/// How much a pod records per execution — the knob of the cost/fidelity
/// trade-off studied in experiment E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordingPolicy {
    /// Record nothing (outcome only). Baseline overhead.
    OutcomeOnly,
    /// One bit per dynamic branch, at every site.
    FullBranch,
    /// One bit per dynamic branch at *input-dependent* sites only; the
    /// hive reconstructs the rest (the paper's cost optimization).
    InputDependent,
    /// Coordinated sampling: record the bit of every `period`-th
    /// input-dependent branch occurrence, starting at `phase`. A sampled
    /// trace "specifies a family of paths" (paper, §3.1); it cannot be
    /// exactly reconstructed but still feeds statistical analyses.
    Sampled {
        /// Sampling period (record 1 of every `period`).
        period: u32,
        /// Offset into the period (coordinated across the population).
        phase: u32,
    },
}

impl RecordingPolicy {
    /// Whether traces under this policy can be exactly reconstructed into
    /// a single path.
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            RecordingPolicy::FullBranch | RecordingPolicy::InputDependent
        )
    }
}

/// The by-products of one execution, as shipped from a pod to the hive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Which program produced this trace.
    pub program: ProgramId,
    /// The policy the bits were recorded under.
    pub policy: RecordingPolicy,
    /// Recorded branch decisions, in dynamic order.
    pub bits: BitVec,
    /// Recorded guard-evaluation decisions (only non-empty when the pod
    /// ran with an overlay containing site guards).
    pub guard_bits: BitVec,
    /// Syscall return values, in global call order.
    pub syscall_rets: Vec<i64>,
    /// Thread picks, one per scheduler step (empty for single-threaded
    /// programs, where the schedule is trivial).
    pub schedule: Vec<u32>,
    /// Total scheduler steps (drives replay termination for
    /// single-threaded traces).
    pub steps: u64,
    /// Terminal classification of the execution.
    pub outcome: Outcome,
    /// Version of the fix overlay the pod ran with (0 = none). The hive
    /// replays a trace against the same overlay version.
    pub overlay_version: u64,
    /// Observed lock-order pairs `(held, then-acquired)`, deduplicated —
    /// the by-product behind deadlock prediction (paper §2: "traces of
    /// lock acquisitions/releases … can be used to reason about the
    /// presence/absence of deadlocks").
    pub lock_pairs: Vec<(u32, u32)>,
    /// Per-global access summaries for race detection.
    pub global_summaries: Vec<GlobalAccessSummary>,
}

impl ExecutionTrace {
    /// `true` when the execution failed.
    pub fn is_failure(&self) -> bool {
        self.outcome.is_failure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ExecutionTrace {
        ExecutionTrace {
            program: ProgramId(7),
            policy: RecordingPolicy::InputDependent,
            bits: [true, false, true].iter().copied().collect(),
            guard_bits: BitVec::new(),
            syscall_rets: vec![64, -1],
            schedule: vec![0, 1, 0],
            steps: 3,
            outcome: Outcome::Success,
            overlay_version: 0,
            lock_pairs: vec![(0, 1)],
            global_summaries: vec![GlobalAccessSummary {
                global: 0,
                reader_mask: 0b11,
                writer_mask: 0b01,
                lockset: vec![2],
            }],
        }
    }

    #[test]
    fn exactness_by_policy() {
        assert!(RecordingPolicy::FullBranch.is_exact());
        assert!(RecordingPolicy::InputDependent.is_exact());
        assert!(!RecordingPolicy::OutcomeOnly.is_exact());
        assert!(!RecordingPolicy::Sampled {
            period: 100,
            phase: 3
        }
        .is_exact());
    }

    #[test]
    fn failure_flag_tracks_outcome() {
        let mut t = sample_trace();
        assert!(!t.is_failure());
        t.outcome = Outcome::Hang { stuck: vec![] };
        assert!(t.is_failure());
    }
}
