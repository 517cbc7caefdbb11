//! # softborg-analysis — bug detectors and related-work baselines
//!
//! The hive-side analyses of §3.3 plus the two §5 baselines SoftBorg is
//! positioned against:
//!
//! * [`deadlock`] — lock-order-graph deadlock *prediction* from
//!   aggregated lock pairs.
//! * [`race`] — Eraser-style lockset race candidates from access
//!   summaries.
//! * [`treeloc`] — SoftBorg's own diagnosis: exact failure signatures +
//!   execution-tree trigger localization.
//! * [`wer`] — Windows-Error-Reporting-style crash bucketing (baseline).
//! * [`cbi`] — Cooperative Bug Isolation statistical ranking (baseline).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cbi;
pub mod deadlock;
pub mod race;
pub mod treeloc;
pub mod wer;

pub use cbi::{sample_path, CbiServer, PredicateSample, RankedPredicate};
pub use deadlock::{DeadlockPattern, LockOrderGraph};
pub use race::{RaceDetector, RaceReport};
pub use treeloc::{failure_key, suspicious_arms, Diagnosis, FailureLedger, SuspiciousArm};
pub use wer::{Bucket, BucketKey, WerBuckets};
