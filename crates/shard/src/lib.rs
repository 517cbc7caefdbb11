//! # softborg-shard — sharded multi-program hive routing
//!
//! One hive serves one program; a real deployment runs many programs at
//! once. This crate scales the hive horizontally without giving up the
//! single-program pipeline's guarantees:
//!
//! * [`map`] — [`ShardMap`]: explicit, deterministic, hash-based
//!   program→shard placement, and the typed [`ShardError`]s the router
//!   surfaces instead of panicking or silently dropping.
//! * [`pipeline`] — the sharded pipeline: producers claim per-program
//!   sequence slots through a [`ShardFrameSender`]; **one shared**
//!   decode+reconstruct worker pool (reusing `softborg-ingest`'s
//!   bounded queues, backpressure, and memo recycling) classifies each
//!   frame by the program id
//!   embedded in its bytes; per-shard sequence-ordered mergers apply
//!   each program's traces in exact submission order.
//! * [`sharded`] — [`ShardedHive`]: N hive shards behind the router,
//!   with per-shard state snapshot/restore so crash-only durability
//!   composes with sharding.
//! * [`stats`] — [`ShardRunStats`] / [`ShardStats`]: pool-wide and
//!   per-shard counters (queue depths, imbalance ratio, throughput,
//!   rerouted / unknown-program counts) plus capped typed-error
//!   samples.
//!
//! The invariant carried over from single-program ingest: for every
//! program, sharded ingest is **byte-identical** to a serial
//! `Hive::ingest` loop over that program's traces — checked by a
//! state-codec round-trip property test at the workspace level.

#![warn(missing_docs)]

pub mod map;
pub mod pipeline;
pub mod sharded;
pub mod stats;

pub use map::{ShardError, ShardMap};
pub use pipeline::ShardFrameSender;
pub use sharded::{ShardStateError, ShardedHive};
pub use stats::{ShardRunStats, ShardStats, ERROR_SAMPLE_CAP};
