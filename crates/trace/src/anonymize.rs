//! Trace anonymization: the privacy/utility trade-off of §3.1.
//!
//! "Traces might disclose private end-user information; … more study is
//! needed" — the paper calls for a principled framework for balancing
//! control-flow detail against privacy. This module implements a ladder of
//! anonymization levels plus a batch k-anonymity filter, and a crude
//! information-content metric, so experiment E5 can chart diagnosis
//! utility against information released.

use crate::record::ExecutionTrace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One rung of the anonymization ladder (weakest to strongest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Anonymizer {
    /// Release the trace unchanged.
    None,
    /// Quantize syscall returns to sign classes (`-1`, `0`, `1`), hiding
    /// exact byte counts, timestamps and descriptors.
    CoarsenSyscalls,
    /// Release only the first `max_bits` branch decisions.
    TruncatePath {
        /// Bits kept.
        max_bits: usize,
    },
    /// Release only the outcome label (strip bits, syscalls, schedule).
    OutcomeOnly,
}

impl Anonymizer {
    /// Applies the anonymizer to a trace, producing the released form in
    /// place of the raw one.
    pub fn apply(&self, mut t: ExecutionTrace) -> ExecutionTrace {
        match self {
            Anonymizer::None => {}
            Anonymizer::CoarsenSyscalls => {
                for r in &mut t.syscall_rets {
                    *r = (*r).signum();
                }
            }
            Anonymizer::TruncatePath { max_bits } => {
                t.bits.truncate(*max_bits);
            }
            Anonymizer::OutcomeOnly => {
                t.bits.truncate(0);
                t.guard_bits.truncate(0);
                t.syscall_rets.clear();
                t.schedule.clear();
            }
        }
        t
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            Anonymizer::None => "none".into(),
            Anonymizer::CoarsenSyscalls => "coarse-syscalls".into(),
            Anonymizer::TruncatePath { max_bits } => format!("trunc-{max_bits}"),
            Anonymizer::OutcomeOnly => "outcome-only".into(),
        }
    }
}

/// Suppression-model k-anonymity: keep only traces whose released bit
/// pattern is shared by at least `k` traces in the batch (Castro et al.'s
/// observation that rare paths identify users).
pub fn k_anonymous_filter(traces: Vec<ExecutionTrace>, k: usize) -> Vec<ExecutionTrace> {
    if k <= 1 {
        return traces;
    }
    let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
    for t in &traces {
        *counts.entry(key(t)).or_insert(0) += 1;
    }
    traces
        .into_iter()
        .filter(|t| counts[&key(t)] >= k)
        .collect()
}

fn key(t: &ExecutionTrace) -> Vec<u8> {
    let mut k = t.bits.as_bytes().to_vec();
    k.push(t.bits.len() as u8);
    k
}

/// A crude information-content proxy in bits: branch bits + ~2 bits per
/// coarse syscall class or 64 per exact return + 1 per schedule pick.
pub fn information_bits(t: &ExecutionTrace) -> usize {
    let exact_rets = t.syscall_rets.iter().any(|r| r.abs() > 1);
    t.bits.len()
        + t.guard_bits.len()
        + t.syscall_rets.len() * if exact_rets { 64 } else { 2 }
        + t.schedule.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::record::RecordingPolicy;
    use softborg_program::interp::Outcome;
    use softborg_program::ProgramId;

    fn trace(bits: &[bool], rets: Vec<i64>) -> ExecutionTrace {
        ExecutionTrace {
            program: ProgramId(1),
            policy: RecordingPolicy::InputDependent,
            bits: bits.iter().copied().collect(),
            guard_bits: BitVec::new(),
            syscall_rets: rets,
            schedule: vec![0, 1],
            steps: 10,
            outcome: Outcome::Success,
            overlay_version: 0,
            lock_pairs: vec![],
            global_summaries: vec![],
        }
    }

    #[test]
    fn none_is_identity() {
        let t = trace(&[true, false], vec![64]);
        assert_eq!(Anonymizer::None.apply(t.clone()), t);
    }

    #[test]
    fn coarsen_maps_to_sign_classes() {
        let t = trace(&[], vec![64, 0, -1, 7]);
        let a = Anonymizer::CoarsenSyscalls.apply(t);
        assert_eq!(a.syscall_rets, vec![1, 0, -1, 1]);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let t = trace(&[true, false, true, true], vec![]);
        let a = Anonymizer::TruncatePath { max_bits: 2 }.apply(t);
        assert_eq!(a.bits.iter().collect::<Vec<_>>(), vec![true, false]);
    }

    #[test]
    fn outcome_only_strips_everything_but_outcome() {
        let t = trace(&[true], vec![64]);
        let a = Anonymizer::OutcomeOnly.apply(t.clone());
        assert!(a.bits.is_empty());
        assert!(a.syscall_rets.is_empty());
        assert!(a.schedule.is_empty());
        assert_eq!(a.outcome, t.outcome);
    }

    #[test]
    fn k_anonymity_suppresses_rare_paths() {
        let common = trace(&[true, true], vec![]);
        let rare = trace(&[false, true], vec![]);
        let batch = vec![common.clone(), common.clone(), common.clone(), rare];
        let out = k_anonymous_filter(batch, 3);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|t| t.bits == common.bits));
    }

    #[test]
    fn k_of_one_keeps_all() {
        let batch = vec![trace(&[true], vec![]), trace(&[false], vec![])];
        assert_eq!(k_anonymous_filter(batch.clone(), 1).len(), 2);
    }

    #[test]
    fn every_anonymizer_reduces_or_preserves_information() {
        let t = trace(&[true; 32], vec![64, 128]);
        let base = information_bits(&t);
        for a in [
            Anonymizer::CoarsenSyscalls,
            Anonymizer::TruncatePath { max_bits: 8 },
            Anonymizer::OutcomeOnly,
        ] {
            let released = information_bits(&a.apply(t.clone()));
            assert!(released < base, "{} did not reduce information", a.label());
        }
        // Composition is monotone: coarsen then truncate releases less
        // than either alone, and outcome-only releases only schedule-free
        // metadata.
        let composed = Anonymizer::TruncatePath { max_bits: 8 }
            .apply(Anonymizer::CoarsenSyscalls.apply(t.clone()));
        assert!(
            information_bits(&composed)
                < information_bits(&Anonymizer::CoarsenSyscalls.apply(t.clone()))
        );
        let stripped = Anonymizer::OutcomeOnly.apply(t);
        assert_eq!(information_bits(&stripped), 0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            Anonymizer::None,
            Anonymizer::CoarsenSyscalls,
            Anonymizer::TruncatePath { max_bits: 8 },
            Anonymizer::OutcomeOnly,
        ]
        .iter()
        .map(|a| a.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
