//! # softborg-ingest — the hive's staged trace-ingest pipeline
//!
//! The serial hive ingests one trace at a time: decode, reconstruct,
//! merge. At population scale that single loop is the bottleneck — and
//! it redoes work constantly, because a deployed population re-executes
//! the same paths over and over. This crate turns ingest into a staged,
//! concurrent, batched, backpressured pipeline that *recycles* prior
//! work (the paper's theme applied to the hive's own front door):
//!
//! * [`queue`] — [`BoundedQueue`], a bounded MPMC queue with an explicit
//!   [`BackpressurePolicy`] (`Block` or `DropOldest` + drop accounting).
//! * [`pipeline`] — the pipeline itself: producers submit batch frames
//!   ([`softborg_trace::wire::encode_batch`]) through a [`FrameSender`];
//!   a pool of decode+reconstruct workers processes frames concurrently,
//!   memoizing reconstructions keyed on the exact encoded bytes; a
//!   single merger releases results to the sink in strict sequence
//!   order, so pipelined ingest is observably identical to serial
//!   ingest.
//! * [`stats`] — [`IngestStats`]: queue depth, drops, corrupt frames,
//!   batch latency, cache hit rate, throughput.
//!
//! The hive wires this up in `Hive::ingest_batch` /
//! `Hive::ingest_frames`; the platform's round loop feeds it from pods
//! running on scoped threads.

#![warn(missing_docs)]

pub mod clock;
pub mod memo;
pub mod pipeline;
pub mod queue;
pub mod stats;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use memo::MemoCache;
pub use pipeline::{run, FrameSender, IngestConfig, ProcessedTrace, ReconstructContext};
pub use queue::{BackpressurePolicy, BoundedQueue, PushOutcome};
pub use stats::IngestStats;
