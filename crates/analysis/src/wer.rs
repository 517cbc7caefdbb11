//! WER-style crash bucketing — the baseline SoftBorg "descends from"
//! (paper §5, ref. \[11\] Glerum et al.).
//!
//! Windows Error Reporting buckets crash reports by a signature (here:
//! crash site + kind + a short trailing-path context) and prioritizes
//! buckets by volume. It localizes *where* crashes land but carries no
//! path information to explain *why*, and it only ever sees failing
//! executions.

use serde::{Deserialize, Serialize};
use softborg_program::cfg::Loc;
use softborg_program::interp::{CrashKind, Outcome};
use softborg_trace::ExecutionTrace;
use std::collections::BTreeMap;

/// A bucket signature.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BucketKey {
    /// Failure class label ("crash" / "deadlock" / "hang").
    pub class: String,
    /// Crash site (crashes only).
    pub loc: Option<Loc>,
    /// Crash kind (crashes only).
    pub kind: Option<CrashKind>,
    /// Last up-to-8 recorded branch bits — the "trailing context" that
    /// splits colliding signatures (WER's cab-analysis analogue).
    pub context: Vec<bool>,
}

/// One bucket's aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Signature.
    pub key: BucketKey,
    /// Reports in this bucket.
    pub count: u64,
    /// Index (in ingestion order) of the first report.
    pub first_seen: u64,
}

/// The crash-bucketing service.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WerBuckets {
    buckets: BTreeMap<BucketKey, Bucket>,
    reports: u64,
    executions: u64,
}

impl WerBuckets {
    /// An empty bucketing service.
    pub fn new() -> Self {
        WerBuckets::default()
    }

    /// Ingests one execution; only failures generate reports (WER never
    /// hears about successes).
    pub fn ingest(&mut self, trace: &ExecutionTrace) {
        self.executions += 1;
        if !trace.is_failure() {
            return;
        }
        let (loc, kind) = match &trace.outcome {
            Outcome::Crash { loc, kind } => (Some(*loc), Some(*kind)),
            _ => (None, None),
        };
        let n = trace.bits.len();
        let context: Vec<bool> = (n.saturating_sub(8)..n)
            .filter_map(|i| trace.bits.get(i))
            .collect();
        let key = BucketKey {
            class: trace.outcome.label().to_string(),
            loc,
            kind,
            context,
        };
        let reports = self.reports;
        let b = self.buckets.entry(key.clone()).or_insert(Bucket {
            key,
            count: 0,
            first_seen: reports,
        });
        b.count += 1;
        self.reports += 1;
    }

    /// All buckets, largest first (WER's triage order).
    pub fn ranked(&self) -> Vec<&Bucket> {
        let mut v: Vec<&Bucket> = self.buckets.values().collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.first_seen.cmp(&b.first_seen)));
        v
    }

    /// Number of distinct buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Executions observed (including successes, which produce nothing).
    pub fn executions(&self) -> u64 {
        self.executions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::{BlockId, ProgramId, ThreadId};
    use softborg_trace::{BitVec, RecordingPolicy};

    fn crash_trace(block: u32, bits: &[bool]) -> ExecutionTrace {
        ExecutionTrace {
            program: ProgramId(1),
            policy: RecordingPolicy::InputDependent,
            bits: bits.iter().copied().collect(),
            guard_bits: BitVec::new(),
            syscall_rets: vec![],
            schedule: vec![],
            steps: 1,
            outcome: Outcome::Crash {
                loc: Loc {
                    thread: ThreadId::new(0),
                    block: BlockId::new(block),
                    stmt: 0,
                },
                kind: CrashKind::AssertFailed,
            },
            overlay_version: 0,
            lock_pairs: vec![],
            global_summaries: vec![],
        }
    }

    fn success_trace() -> ExecutionTrace {
        ExecutionTrace {
            outcome: Outcome::Success,
            ..crash_trace(0, &[])
        }
    }

    #[test]
    fn successes_produce_no_reports() {
        let mut w = WerBuckets::new();
        w.ingest(&success_trace());
        assert_eq!(w.reports, 0);
        assert_eq!(w.executions(), 1);
        assert_eq!(w.bucket_count(), 0);
    }

    #[test]
    fn same_signature_lands_in_one_bucket() {
        let mut w = WerBuckets::new();
        w.ingest(&crash_trace(3, &[true, false]));
        w.ingest(&crash_trace(3, &[true, false]));
        assert_eq!(w.bucket_count(), 1);
        assert_eq!(w.ranked()[0].count, 2);
    }

    #[test]
    fn different_sites_split_buckets() {
        let mut w = WerBuckets::new();
        w.ingest(&crash_trace(3, &[]));
        w.ingest(&crash_trace(4, &[]));
        assert_eq!(w.bucket_count(), 2);
    }

    #[test]
    fn trailing_context_splits_colliding_sites() {
        let mut w = WerBuckets::new();
        w.ingest(&crash_trace(3, &[true, true]));
        w.ingest(&crash_trace(3, &[false, false]));
        assert_eq!(w.bucket_count(), 2);
    }

    #[test]
    fn ranking_is_by_volume() {
        let mut w = WerBuckets::new();
        for _ in 0..5 {
            w.ingest(&crash_trace(1, &[]));
        }
        w.ingest(&crash_trace(2, &[]));
        let ranked = w.ranked();
        assert_eq!(ranked[0].count, 5);
        assert_eq!(ranked[1].count, 1);
    }

    #[test]
    fn context_uses_last_eight_bits() {
        let mut w = WerBuckets::new();
        let bits: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        w.ingest(&crash_trace(1, &bits));
        let key = &w.ranked()[0].key;
        assert_eq!(key.context.len(), 8);
        assert_eq!(key.context, bits[12..].to_vec());
    }
}
