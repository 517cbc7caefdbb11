//! `softborg-store` — the storage subsystem under the hive's durability
//! layer: incremental (delta) snapshot chains and paged item storage
//! bounded by a resident budget.
//!
//! The paper's collective loop only pays off at scale if the shared
//! execution tree can outgrow RAM. Two pieces make that possible:
//!
//! * [`chain`] — a **delta-snapshot chain**: instead of serializing the
//!   whole hive every generation, `snapshot()` appends a checksummed,
//!   versioned delta against the previous generation, with periodic
//!   ratio-triggered full rebases. Loading validates the chain
//!   (generation links + per-record checksums) and falls back to the
//!   previous full's lineage when the newest lineage is damaged. It is
//!   the hive's only checkpoint format.
//! * [`page`] — **paged item storage**: a `NodeStore` abstraction with
//!   an in-memory impl and a paged impl that evicts cold fixed-size
//!   pages to checksummed page files under a configurable resident
//!   budget, faulting them back in transparently on access. Eviction
//!   order is a pure function of the access sequence, so runs replay
//!   byte-identically with paging on or off.
//!
//! Both formats are *total* to decode: torn tails, flipped bits, and
//! truncated chains produce typed errors, never panics — the property
//! the scrubber and the fault-search campaigns lean on.

#![warn(missing_docs)]

pub mod chain;
pub mod page;

pub use chain::{
    ChainLoad, ChainRecord, ChainReport, ChainSource, ChainStore, RecordError, RecordKind,
};
pub use page::{ItemStore, PageError, PageItem, PageStats, PagedConfig, PagedStore};

/// FNV-1a over `data` — the checksum every store format uses (same
/// function as the wire and journal layers, so witnesses compare).
pub fn checksum(data: &[u8]) -> u64 {
    softborg_trace::wire::fnv1a(data)
}
