//! # softborg-hive — the aggregation and reasoning center
//!
//! The hive of Figure 1: it merges by-products into the collective
//! execution tree, diagnoses misbehaviours, synthesizes and promotes
//! fixes, assembles cumulative proofs, and emits guidance.
//!
//! * [`hive`] — the per-program [`hive::Hive`] pipeline.
//! * [`sharded`] — [`ShardedHive`]: many programs' hives on N shards
//!   behind one ingest pipeline, with per-shard state snapshot/restore
//!   so crash-only durability composes with sharding.
//! * [`proofs`] — proof certificates and their independent verifier.
//! * [`journal`] — the write-ahead journal accepted frames hit before
//!   merge, and the crash-tolerant scan that rebuilds from it.
//! * [`snapshot`] — the checksummed checkpoint payload every delta-chain
//!   record carries, bounding journal growth via compaction.
//! * [`transport`] — the reliable pod→hive session protocol
//!   (ack/retry/backoff over the network simulator).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hive;
pub mod journal;
pub mod proofs;
pub mod sharded;
pub mod snapshot;
pub mod transport;

pub use hive::{
    diagnosis_signature, outcome_signature, FixProposal, Hive, HiveConfig, HiveStats,
    RecoveryReport,
};
pub use journal::{
    fsync_parent_dir, session_floors, FileJournal, JournalIoError, JournalRecord, JournalStore,
    MemJournal, ScanReport,
};
pub use proofs::{assemble, verify, ProofCertificate, ProofError};
pub use sharded::{ShardStateError, ShardedHive};
pub use snapshot::{HiveSnapshot, SnapshotError};
pub use transport::{run_reliable_ingest, CanaryBug, PodClient, TransportConfig, TransportReport};
