//! # softborg-sim — platform rounds under virtual time
//!
//! The paper's pitch is a *million-user day*: a whole fleet of pods
//! executing, failing, and recycling information through the hive. A
//! threaded test can only sample that day; this crate compresses it.
//! [`sim_round`] / [`sim_round_multi`] run one `Platform` /
//! `MultiPlatform` round entirely inside a
//! [`World`](softborg_netsim::World) — the one discrete-event engine,
//! which lives in `softborg-netsim` — so a diurnal day of fleet traffic
//! is just events on a heap, CI can simulate ≥100k pods' worth of
//! arrivals, churn, partitions, and crash sweeps in seconds of wall
//! time, and the run replays bit-for-bit from a seed. The rounds run the
//! *same* production code as the threaded paths and are asserted
//! byte-identical to them.
//!
//! A run is identified by its configuration and seed: re-running
//! reproduces the same final state and the same
//! [`SchedStats::trace_hash`](softborg_netsim::SchedStats::trace_hash).

#![warn(missing_docs)]

pub mod platform;

pub use platform::{sim_round, sim_round_multi, SimRoundConfig, SimRoundStats};
