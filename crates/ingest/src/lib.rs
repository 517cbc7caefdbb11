//! # softborg-ingest — the hive's staged trace-ingest pipeline
//!
//! The serial hive ingests one trace at a time: decode, reconstruct,
//! merge. At population scale that single loop is the bottleneck — and
//! it redoes work constantly, because a deployed population re-executes
//! the same paths over and over. This crate turns ingest into a staged,
//! concurrent, batched, backpressured pipeline that *recycles* prior
//! work (the paper's theme applied to the hive's own front door), for
//! one program or many:
//!
//! * [`queue`] — [`BoundedQueue`], a bounded, blocking MPMC queue: a full
//!   queue parks its producer, so nothing is ever shed.
//! * [`map`] — [`ShardMap`]: explicit, deterministic, hash-based
//!   program→shard placement, and the typed [`ShardError`]s the router
//!   surfaces instead of panicking or silently dropping.
//! * [`pipeline`] — the one pipeline, [`run`]: producers claim
//!   per-program sequence slots through a [`FrameSender`]; one pool of
//!   decode+reconstruct workers checks each frame's claim against the
//!   program id embedded in its bytes and memoizes each trace's prepared
//!   [`MergeRecord`] keyed on the exact encoded bytes; per-shard mergers
//!   release each program's records to their sink in strict sequence
//!   order, so pipelined ingest is observably identical to serial
//!   ingest.
//! * [`stats`] — [`IngestStats`]: queue depth, corrupt / misclaimed /
//!   unknown-program frames, latency, cache hit rate,
//!   throughput, per-shard breakdown and imbalance.
//! * [`pool`] — the process-wide pool of parked threads every stage of a
//!   run (and the campaign round's pods) runs on, behind a
//!   `std::thread::scope`-shaped [`pool::scope`]. Its lifetime erasure
//!   is the workspace's one `unsafe` item.
//!
//! The hive wires this up in `Hive::ingest_frames` (one program, one
//! shard) and `ShardedHive::ingest_frames` (one sink per shard), each
//! keeping its [`WorkerMemos`] across runs; the campaign round feeds it
//! from pods running on pooled threads.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
pub mod map;
pub mod memo;
pub mod pipeline;
pub mod pool;
pub mod queue;
pub mod stats;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use map::{ShardError, ShardMap};
pub use memo::{Entry, MemoCache, Vacancy};
pub use pipeline::{
    run, FrameSender, IngestConfig, MergeRecord, ProcessedTrace, ReconstructContext, WorkerMemos,
};
pub use queue::BoundedQueue;
pub use stats::{IngestStats, ShardStats, ERROR_SAMPLE_CAP};
