//! `softborg-store` — the checkpoint store under the hive's durability
//! layer: incremental (delta) snapshot chains, and the one record
//! envelope every durable format shares.
//!
//! [`record`] is the envelope — `[magic] | u32 len | u64 checksum(body) |
//! body` — that journal and chain records are sealed in, the kind-plus-two-words record body the journal and the
//! chain share, and the crash-safe file replace and directory fsync.
//!
//! [`chain`] is a **delta-snapshot chain**: instead of serializing the
//! whole hive every generation, `snapshot()` appends a checksummed,
//! versioned delta against the previous generation, with periodic
//! ratio-triggered full rebases. Loading validates the chain (generation
//! links + per-record checksums) and falls back to the previous full's
//! lineage when the newest lineage is damaged. It is the hive's only
//! checkpoint format.
//!
//! The format is *total* to decode: torn tails, flipped bits, and
//! truncated chains produce typed errors, never panics — the property
//! the scrubber and the fault-search campaigns lean on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod record;

pub use chain::{
    ChainDefect, ChainFile, ChainLoad, ChainRecord, ChainReport, ChainSource, ChainStore,
    RecordError, RecordKind, RecordMeta,
};
pub use record::EnvelopeError;
