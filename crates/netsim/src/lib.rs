//! # softborg-netsim — the deterministic discrete-event engine
//!
//! The paper's hive nodes are "mostly end-user machines communicating
//! over a potentially unreliable network" (§4). This crate is the one
//! event loop every simulation in the workspace runs on: virtual time,
//! processes with message/timer/wake callbacks, links with latency,
//! jitter, loss and injected faults, node churn (crash/restart), and the
//! two blocking points real pipelines have and networks don't — bounded
//! channels and disks with asynchronous fsync.
//!
//! Three layers:
//!
//! - [`Scheduler`] / [`SimClock`] / [`SchedStats`] — the event heap
//!   keyed by `(virtual_time, tie_break_key)`, fuel bounding, and the
//!   `trace_hash` over the dispatch sequence. Dispatch order is a pure
//!   function of the scheduled set, independent of insertion order.
//! - [`World`] — the cooperative runtime on top: [`Proc`]s talking over
//!   the link/fault model ([`SimConfig`], [`FaultPlan`]), plus channels
//!   and disks, every blocking point explicit.
//! - [`fault`] / [`fault_text`] — composable, validated fault plans and
//!   their lossless corpus text format.
//!
//! ## Replay contract
//!
//! A run is identified by its configuration and seed. Re-running with
//! the same inputs must reproduce (a) the same final state, byte for
//! byte, and (b) the same [`SchedStats::trace_hash`] — the FNV-1a hash
//! of the `(time, key)` dispatch sequence. The hash is the cheap
//! first-line check: state equality says *where you ended up*, the
//! trace hash says *you took the same path*.
//!
//! # Examples
//!
//! ```
//! use softborg_netsim::{Addr, Proc, SimConfig, World, WorldCtx};
//!
//! struct Echo;
//! impl Proc for Echo {
//!     fn on_message(&mut self, from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
//!         ctx.send(from, payload); // bounce it back
//!     }
//! }
//!
//! struct Probe {
//!     peer: Addr,
//! }
//! impl Proc for Probe {
//!     fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
//!         ctx.send(self.peer, b"ping".to_vec());
//!     }
//! }
//!
//! let mut world = World::new(SimConfig::default());
//! let echo = world.add_proc(Box::new(Echo));
//! world.add_proc(Box::new(Probe { peer: echo }));
//! world.run();
//! assert_eq!(world.net_stats().delivered, 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod fault_text;
pub mod sched;
pub mod world;

pub use fault::{
    Crash, DiskCrashPoint, FaultPlan, FaultPlanError, Partition, SectorCorruption, SECTOR_BYTES,
};
pub use fault_text::{PlanTextError, PLAN_TEXT_HEADER};
pub use sched::{SchedStats, Scheduler, SimClock};
pub use world::{ChanId, DiskId, IoStats, Proc, Wake, World, WorldCtx};

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node address within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub u32);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Virtual time in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Adds a duration in microseconds.
    pub fn after(self, us: u64) -> SimTime {
        SimTime(self.0 + us)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// Link characteristics (applied to every message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Base one-way latency in microseconds.
    pub base_latency_us: u64,
    /// Uniform jitter added on top, in microseconds.
    pub jitter_us: u64,
    /// Probability of silently dropping a message, in parts per 1000.
    pub loss_per_mille: u32,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            base_latency_us: 1_000,
            jitter_us: 500,
            loss_per_mille: 0,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed (latency jitter, loss, churn).
    pub seed: u64,
    /// Link model between every pair of nodes.
    pub link: LinkConfig,
    /// The world's fuel: events dispatched over its whole life, summed
    /// across every [`World::run`] / [`World::run_until`] call. A caller
    /// that runs a world once (the reliable transport) gets a per-run
    /// cap.
    pub max_events: u64,
    /// Injected faults on top of the link model (duplication, reordering,
    /// partitions, scheduled crash/restart). Validate with
    /// [`FaultPlan::validate`] once the node count is known.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            link: LinkConfig::default(),
            max_events: 1_000_000,
            faults: FaultPlan::default(),
        }
    }
}

/// Network counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Messages submitted via [`WorldCtx::send`].
    pub sent: u64,
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages dropped by loss or dead destination.
    pub dropped: u64,
    /// Messages dropped by an active link partition (also counted in
    /// `dropped`).
    pub partition_dropped: u64,
    /// Extra deliveries injected by [`FaultPlan::dup_per_mille`].
    pub duplicated: u64,
    /// Node crash events executed (the fault plan's crashes).
    pub crashes: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Timers fired.
    pub timers: u64,
}
