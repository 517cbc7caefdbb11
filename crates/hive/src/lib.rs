//! # softborg-hive — the aggregation and reasoning center
//!
//! The hive of Figure 1: it merges by-products into the collective
//! execution tree, diagnoses misbehaviours, synthesizes and promotes
//! fixes, assembles cumulative proofs, emits guidance, and — in
//! distributed mode — partitions exploration work across unreliable
//! worker nodes.
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
//! * [`scrub`] — the bit-rot scrubber for a campaign's journal and
//!   chain.
//! * [`transport`] — the reliable pod→hive session protocol
//!   (ack/retry/backoff over the network simulator).
//! * [`distributed`] — static vs dynamic tree partitioning over the
//!   network simulator (paper §4).
//! * [`replica`] — gossip-based execution-tree replica synchronization
//!   (the "entirely distributed" hive of §3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distributed;
pub mod hive;
pub mod journal;
pub mod proofs;
pub mod replica;
pub mod scrub;
pub mod sharded;
pub mod snapshot;
pub mod transport;

pub use distributed::{run_exploration, DistConfig, DistReport, Outage, Partitioning};
pub use hive::{
    diagnosis_signature, outcome_signature, FixProposal, Hive, HiveConfig, HiveStats,
    RecoveryReport,
};
pub use journal::{
    fsync_parent_dir, session_floors, FileJournal, JournalIoError, JournalRecord, JournalStore,
    MemJournal, ScanReport, TailError,
};
pub use proofs::{assemble, verify, ProofCertificate, ProofError};
pub use replica::{run_replica_sync, OutcomePath, ReplicaConfig, ReplicaReport};
pub use scrub::{scrub_campaign, ChainScrub, ScrubError, ScrubReport, WalScrubAction};
pub use sharded::{ShardStateError, ShardedHive};
pub use snapshot::HiveSnapshot;
pub use transport::{run_reliable_ingest, CanaryBug, PodClient, TransportConfig, TransportReport};
