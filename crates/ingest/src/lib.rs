//! # softborg-ingest — the hive's ingest engine
//!
//! The serial hive ingests one trace at a time: decode, reconstruct,
//! merge. At population scale that single loop is the bottleneck — and
//! it redoes work constantly, because a deployed population re-executes
//! the same paths over and over. This crate turns ingest into one
//! concurrent, ordered engine that *recycles* prior work (the paper's
//! theme applied to the hive's own front door), for one program or many:
//!
//! ```text
//! units 0..n ─┬─▶ caller   ─▶ run unit i, prepare its frames ─┐
//!  (in hand)  ├─▶ pooled 1 ─▶ run unit j, prepare its frames ─┼─▶ caller merges in unit order ─▶ sink per shard
//!             └─▶ …                                            ┘
//! ```
//!
//! * [`pipeline`] — the one engine, [`run`]: a run is `n` units in hand
//!   (a pod's executions, or one frame), and unit `i` yields the frames
//!   of its claimed slots. The calling thread and pooled jobs claim
//!   units, and each prepares every frame of the units it runs: checks
//!   the frame's claim against the program id embedded in its bytes and
//!   memoizes each trace's prepared [`MergeRecord`], keyed on the exact
//!   encoded bytes, in the one memo they share. The calling thread
//!   merges each program's records into its shard's sink in unit order,
//!   so concurrent ingest is observably identical to serial ingest. [`run_producer`] collects a producer's
//!   [`FrameSender`] claims and runs them as one-frame units.
//! * [`map`] — [`ShardMap`]: explicit, deterministic, hash-based
//!   program→shard placement, and the typed [`ShardError`]s the router
//!   surfaces instead of panicking or silently dropping.
//! * [`stats`] — [`IngestStats`]: corrupt / misclaimed / unknown-program
//!   frames, latency, cache hit rate, throughput, per-shard breakdown
//!   and imbalance.
//! * [`pool`] — the process-wide pool of parked threads a run's pooled
//!   participants (and the campaign round's fix trials) run on, behind a
//!   `std::thread::scope`-shaped [`pool::scope`]. Its lifetime erasure
//!   is the workspace's one `unsafe` item.
//!
//! The hive wires this up in `Hive::ingest_frames` (one program, one
//! shard) and `ShardedHive::{ingest_units, ingest_frames}` (one sink per
//! shard), each keeping its [`IngestMemo`] across runs; the campaign
//! round runs each pod as a unit, so its frames are prepared on the
//! thread that made them.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
pub mod map;
pub mod memo;
pub mod pipeline;
pub mod pool;
pub mod stats;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use map::{ShardError, ShardMap};
pub use memo::MemoCache;
pub use pipeline::{
    run, run_producer, FrameSender, IngestConfig, IngestMemo, MergeRecord, ProcessedTrace,
    ReconstructContext, UnitFrames,
};
pub use stats::{IngestStats, ShardStats, ERROR_SAMPLE_CAP};
