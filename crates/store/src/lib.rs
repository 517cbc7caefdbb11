//! `softborg-store` — the checkpoint store under the hive's durability
//! layer: incremental (delta) snapshot chains.
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

pub use chain::{
    ChainLoad, ChainRecord, ChainReport, ChainSource, ChainStore, RecordError, RecordKind,
};
