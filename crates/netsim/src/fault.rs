//! Composable fault plans: what the network and the nodes are allowed to
//! do to you.
//!
//! A [`FaultPlan`] extends the per-link loss/jitter model of
//! [`LinkConfig`](crate::LinkConfig) with the failure modes a deployed
//! hive actually sees (paper §4: "mostly end-user machines communicating
//! over a potentially unreliable network"):
//!
//! * **Duplication** — a message is delivered twice, with independent
//!   latency draws (retransmit-happy middleboxes, at-least-once relays).
//! * **Reordering** — a fraction of messages pick up an extra delay drawn
//!   from a configurable window, so later sends can overtake them by far
//!   more than ordinary jitter allows.
//! * **Partitions** — a pair of addresses cannot exchange messages during
//!   a time window (checked symmetrically at send time).
//! * **Crash/restart** — a node goes down at a scheduled time and comes
//!   back later; the proc is told about it via [`Proc::on_crash`] /
//!   [`Proc::on_restart`], so stateful procs can model volatile-state
//!   loss and recovery.
//!
//! Plans are *validated up front* ([`FaultPlan::validate`]) with typed
//! [`FaultPlanError`]s — an inverted window or out-of-range node is a
//! configuration bug and must fail loudly at config time, never degrade
//! into a silent no-op mid-experiment.
//!
//! [`Proc::on_crash`]: crate::Proc::on_crash
//! [`Proc::on_restart`]: crate::Proc::on_restart

use crate::{Addr, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A symmetric link partition: no messages flow between `a` and `b`
/// (either direction) from `from_us` until `until_us` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// One endpoint.
    pub a: Addr,
    /// The other endpoint.
    pub b: Addr,
    /// Partition start (µs, inclusive).
    pub from_us: u64,
    /// Partition end (µs, exclusive).
    pub until_us: u64,
}

impl Partition {
    /// `true` while the partition separates `x` and `y` at `now`.
    pub fn blocks(&self, x: Addr, y: Addr, now: SimTime) -> bool {
        let pair = (x == self.a && y == self.b) || (x == self.b && y == self.a);
        pair && now.0 >= self.from_us && now.0 < self.until_us
    }
}

/// A scheduled crash: the node goes down at `at_us` (its volatile state
/// is declared lost via [`Proc::on_crash`](crate::Proc::on_crash))
/// and restarts at `restart_us`
/// ([`Proc::on_restart`](crate::Proc::on_restart)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crash {
    /// The node to crash.
    pub node: Addr,
    /// Crash time (µs).
    pub at_us: u64,
    /// Restart time (µs); must be strictly after `at_us`.
    pub restart_us: u64,
}

/// Sector granularity of the disk-corruption model: damage is injected
/// in units of this many bytes, matching the physical reality that
/// media errors and torn writes destroy sectors, not arbitrary byte
/// ranges.
pub const SECTOR_BYTES: u64 = 512;

/// How one disk sector gets damaged. All positions are taken modulo the
/// relevant extent (sector count for the sector index, sector size for
/// offsets within it), so any `u64`/`u32` draw names *some* valid
/// damage on any non-empty file — generators never produce a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SectorCorruption {
    /// One flipped bit inside the sector (`bit` wrapped modulo the bits
    /// actually present): the classic undetected-by-the-drive bit rot.
    FlipBit {
        /// Bit position within the sector (wrapped).
        bit: u32,
    },
    /// This sector and the following `sectors − 1` read back as zeroes
    /// (a remapped-but-lost region). Must cover at least one sector.
    ZeroRange {
        /// Number of consecutive sectors destroyed (≥ 1).
        sectors: u32,
    },
    /// A torn sector write: the first `keep_bytes` (wrapped modulo the
    /// sector's extent) survive, the rest of the sector reads back as
    /// the drive's scribble pattern `0xA5`.
    TornWrite {
        /// Bytes of the sector that reached the platter (wrapped).
        keep_bytes: u32,
    },
}

impl SectorCorruption {
    /// Applies this damage to `bytes`, targeting sector `sector` (taken
    /// modulo the file's sector count). Returns `false` — nothing to
    /// corrupt — only for an empty file. The file's length never
    /// changes: sector damage scribbles contents, it does not truncate.
    pub fn apply(self, bytes: &mut [u8], sector: u64) -> bool {
        if bytes.is_empty() {
            return false;
        }
        let n_sectors = (bytes.len() as u64).div_ceil(SECTOR_BYTES);
        let s = sector % n_sectors;
        let start = (s * SECTOR_BYTES) as usize;
        let end = bytes.len().min(start + SECTOR_BYTES as usize);
        match self {
            SectorCorruption::FlipBit { bit } => {
                let span_bits = (end - start) as u64 * 8;
                let b = u64::from(bit) % span_bits;
                bytes[start + (b / 8) as usize] ^= 1 << (b % 8);
            }
            SectorCorruption::ZeroRange { sectors } => {
                let last = bytes
                    .len()
                    .min(start + (u64::from(sectors.max(1)) * SECTOR_BYTES) as usize);
                bytes[start..last].fill(0);
            }
            SectorCorruption::TornWrite { keep_bytes } => {
                let keep = (u64::from(keep_bytes) % (end - start) as u64) as usize;
                bytes[start + keep..end].fill(0xA5);
            }
        }
        true
    }
}

/// A crash point targeting *durable storage* rather than the network:
/// what the disk looks like when the process comes back. The simulator
/// itself has no filesystem — these are declarative instructions that a
/// durability harness (the platform's kill/restart driver) interprets
/// against the real checkpoint + write-ahead-journal files. Keeping them
/// in the fault plan gives one vocabulary for "everything the
/// environment may do to you", network and disk alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskCrashPoint {
    /// Kill the process cleanly at a round boundary, immediately after
    /// round `round` (0-based) commits. Disk is intact; recovery must
    /// resume from exactly that round.
    AtRoundBoundary {
        /// The committed round after which the process dies.
        round: u64,
    },
    /// Crash with the write-ahead journal missing its last `drop_bytes`
    /// bytes (an unsynced tail the OS never persisted).
    TruncateWalTail {
        /// Bytes removed from the journal's end (clamped to its length).
        drop_bytes: u64,
    },
    /// Crash leaving one flipped bit `back_offset` bytes before the
    /// journal's end (sector scribble / medium error in the tail).
    FlipWalBit {
        /// Distance from the end of the journal (clamped to its length).
        back_offset: u64,
    },
    /// Crash after the new checkpoint is durable but before the journal
    /// truncate: the journal still holds records the checkpoint already
    /// covers, and recovery must not double-apply them.
    BetweenRenameAndTruncate,
    /// Sector-granularity media damage to the write-ahead journal while
    /// the process is down. The scrubber must detect it and either
    /// repair around it (truncate to the last valid prefix, quarantining
    /// the damaged tail) or fail loudly — never replay garbage.
    CorruptWal {
        /// Target sector (wrapped modulo the journal's sector count).
        sector: u64,
        /// The damage applied to it.
        kind: SectorCorruption,
    },
    /// Sector-granularity media damage to one checkpoint record file of
    /// the delta chain while the process is down — a flip, a zeroed
    /// range, or a torn write. The scrubber must quarantine the record
    /// and recovery must rebuild from the surviving lineage (or refuse
    /// loudly) — never fold a rotten record. A no-op before the first
    /// checkpoint.
    CorruptChainRecord {
        /// Which record, counted back from the newest (0 = chain head).
        back: u64,
        /// Target sector (wrapped modulo the record's sector count).
        sector: u64,
        /// The damage applied to it.
        kind: SectorCorruption,
    },
}

impl DiskCrashPoint {
    /// The media-damage payload of a corruption point (`None` for kill
    /// and torn-write points).
    pub fn corruption(&self) -> Option<SectorCorruption> {
        match *self {
            DiskCrashPoint::CorruptWal { kind, .. }
            | DiskCrashPoint::CorruptChainRecord { kind, .. } => Some(kind),
            _ => None,
        }
    }

    fn corruption_mut(&mut self) -> Option<&mut SectorCorruption> {
        match self {
            DiskCrashPoint::CorruptWal { kind, .. }
            | DiskCrashPoint::CorruptChainRecord { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

/// A composable set of injected faults, applied on top of the base
/// [`LinkConfig`](crate::LinkConfig). The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a sent message is delivered twice, in parts per 1000.
    pub dup_per_mille: u32,
    /// Probability a delivery picks up an extra reordering delay, in
    /// parts per 1000.
    pub reorder_per_mille: u32,
    /// Upper bound on the extra reordering delay (µs, uniform draw).
    pub reorder_window_us: u64,
    /// Scheduled link partitions between address pairs.
    pub partitions: Vec<Partition>,
    /// Scheduled node crash/restart events.
    pub crashes: Vec<Crash>,
    /// On-disk crash points for durability harnesses (no effect inside
    /// the network simulation itself).
    pub disk: Vec<DiskCrashPoint>,
}

/// An invalid fault plan, reported at config time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A probability exceeded 1000 parts per mille.
    RateOutOfRange {
        /// Which knob was out of range.
        what: &'static str,
        /// The offending value.
        per_mille: u32,
    },
    /// A time window ends at or before it starts.
    WindowInverted {
        /// Which schedule entry was inverted.
        what: &'static str,
        /// Window start (µs).
        start_us: u64,
        /// Window end (µs).
        end_us: u64,
    },
    /// A schedule entry names a node the simulation does not have.
    NodeOutOfRange {
        /// Which schedule entry named the node.
        what: &'static str,
        /// The out-of-range address.
        node: Addr,
        /// Number of nodes actually in the simulation.
        nodes: u32,
    },
    /// A partition names the same address on both ends.
    SelfPartition {
        /// The address partitioned from itself.
        node: Addr,
    },
    /// Reordering is enabled but the delay window is zero (a no-op that
    /// almost certainly means a misconfigured sweep).
    EmptyReorderWindow,
    /// A zeroed-range corruption covering zero sectors (a no-op that
    /// almost certainly means a misconfigured generator).
    EmptyCorruptionRange,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::RateOutOfRange { what, per_mille } => {
                write!(f, "{what} = {per_mille}‰ exceeds 1000‰")
            }
            FaultPlanError::WindowInverted {
                what,
                start_us,
                end_us,
            } => write!(
                f,
                "{what} window [{start_us}, {end_us}) is inverted or empty"
            ),
            FaultPlanError::NodeOutOfRange { what, node, nodes } => {
                write!(
                    f,
                    "{what} names {node} but the simulation has {nodes} nodes"
                )
            }
            FaultPlanError::SelfPartition { node } => {
                write!(f, "partition of {node} from itself")
            }
            FaultPlanError::EmptyReorderWindow => {
                write!(f, "reorder_per_mille > 0 but reorder_window_us = 0")
            }
            FaultPlanError::EmptyCorruptionRange => {
                write!(f, "zero_range corruption covers 0 sectors")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Validates every invariant against a simulation of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found: rates over 1000‰,
    /// inverted time windows, out-of-range node addresses, self
    /// partitions, and reordering with an empty window.
    pub fn validate(&self, nodes: u32) -> Result<(), FaultPlanError> {
        for (what, per_mille) in [
            ("dup_per_mille", self.dup_per_mille),
            ("reorder_per_mille", self.reorder_per_mille),
        ] {
            if per_mille > 1000 {
                return Err(FaultPlanError::RateOutOfRange { what, per_mille });
            }
        }
        if self.reorder_per_mille > 0 && self.reorder_window_us == 0 {
            return Err(FaultPlanError::EmptyReorderWindow);
        }
        for p in &self.partitions {
            if p.a == p.b {
                return Err(FaultPlanError::SelfPartition { node: p.a });
            }
            if p.until_us <= p.from_us {
                return Err(FaultPlanError::WindowInverted {
                    what: "partition",
                    start_us: p.from_us,
                    end_us: p.until_us,
                });
            }
            for (what, addr) in [("partition", p.a), ("partition", p.b)] {
                if addr.0 >= nodes {
                    return Err(FaultPlanError::NodeOutOfRange {
                        what,
                        node: addr,
                        nodes,
                    });
                }
            }
        }
        if self.disk.iter().any(|d| {
            matches!(
                d.corruption(),
                Some(SectorCorruption::ZeroRange { sectors: 0 })
            )
        }) {
            return Err(FaultPlanError::EmptyCorruptionRange);
        }
        for c in &self.crashes {
            if c.restart_us <= c.at_us {
                return Err(FaultPlanError::WindowInverted {
                    what: "crash",
                    start_us: c.at_us,
                    end_us: c.restart_us,
                });
            }
            if c.node.0 >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "crash",
                    node: c.node,
                    nodes,
                });
            }
        }
        Ok(())
    }

    /// `true` when a partition blocks `from → to` at `now`.
    pub fn partitioned(&self, from: Addr, to: Addr, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.blocks(from, to, now))
    }

    /// Derives the fault plan for one pod→shard link from this
    /// fleet-wide template: rates (duplication, reordering) carry over
    /// unchanged, while every partition and crash window is shifted
    /// forward by a deterministic per-link offset in `[0, jitter_us]` —
    /// so shard links sharing a template do **not** fail in lockstep.
    /// Perfectly correlated failure across shards is the pathological
    /// case a sharded transport must not silently assume away; jittering
    /// per link keeps a fault-matrix sweep honest while staying fully
    /// reproducible (same `link` + `jitter_us` → same plan).
    ///
    /// Window *durations* are preserved (both edges shift together), so
    /// a plan that [`validate`](Self::validate)s keeps validating.
    /// Disk crash points are not link-scoped and carry over unchanged.
    /// `jitter_us = 0` returns the template verbatim.
    #[must_use]
    pub fn for_link(&self, link: u64, jitter_us: u64) -> FaultPlan {
        let mut plan = self.clone();
        if jitter_us == 0 {
            return plan;
        }
        for (i, p) in plan.partitions.iter_mut().enumerate() {
            let shift = splitmix64(link ^ (0xA11C_E000 + i as u64)) % (jitter_us + 1);
            p.from_us += shift;
            p.until_us += shift;
        }
        for (i, c) in plan.crashes.iter_mut().enumerate() {
            let shift = splitmix64(link ^ (0xC8A5_8000 + i as u64)) % (jitter_us + 1);
            c.at_us += shift;
            c.restart_us += shift;
        }
        plan
    }
}

/// Bit-length of `x` (0 for 0): the magnitude term of
/// [`FaultPlan::weight`]. Halving a positive quantity always drops its
/// bit-length by exactly one, which is what makes window/rate halving a
/// *strictly* weight-decreasing shrink step.
fn bits(x: u64) -> u64 {
    u64::from(64 - x.leading_zeros())
}

impl FaultPlan {
    /// Structural complexity of the plan: the quantity delta-debugging
    /// drives toward zero. One unit per scheduled element (partition,
    /// crash, disk crash point) plus the bit-length of every rate and
    /// window width. Every plan produced by
    /// [`shrink_candidates`](Self::shrink_candidates) has **strictly
    /// smaller** weight, so a shrink loop that only adopts candidates
    /// terminates within `weight()` adoptions — the bounded-step
    /// invariant `softborg-search` proptests.
    pub fn weight(&self) -> u64 {
        let mut w = bits(u64::from(self.dup_per_mille))
            + bits(u64::from(self.reorder_per_mille))
            + bits(self.reorder_window_us);
        for p in &self.partitions {
            w += 1 + bits(p.until_us - p.from_us);
        }
        for c in &self.crashes {
            w += 1 + bits(c.restart_us - c.at_us);
        }
        for d in &self.disk {
            w += 1;
            if let Some(SectorCorruption::ZeroRange { sectors }) = d.corruption() {
                // Extra weight for every sector beyond the first, so
                // halving a wide zeroed range is a real shrink step.
                w += bits(u64::from(sectors.saturating_sub(1)));
            }
        }
        w
    }

    /// One-step shrink candidates for delta-debugging: every way to make
    /// the plan *strictly simpler* while staying valid. Aggressive
    /// chunk removals come first (drop half the partitions/crashes at
    /// once), then single-element removals, rate zeroing/halving, and
    /// window narrowing from either edge. Guarantees, given a plan that
    /// [`validate`](Self::validate)s:
    ///
    /// * every candidate also validates (for the same node count), and
    /// * every candidate's [`weight`](Self::weight) is strictly smaller.
    ///
    /// An empty return means the plan is already the empty plan (or
    /// contains nothing shrinkable) — the delta-debug fixpoint.
    pub fn shrink_candidates(&self) -> Vec<FaultPlan> {
        let mut out = Vec::new();
        let mut with = |f: &dyn Fn(&mut FaultPlan)| {
            let mut p = self.clone();
            f(&mut p);
            debug_assert!(
                p.weight() < self.weight(),
                "shrink candidate must strictly reduce weight"
            );
            out.push(p);
        };
        // Chunk removals: halve the element lists in one step so large
        // generated plans collapse in O(log n) adoptions, ddmin-style.
        if self.partitions.len() > 1 {
            let mid = self.partitions.len() / 2;
            with(&|p| {
                p.partitions.drain(..mid);
            });
            with(&|p| {
                p.partitions.truncate(mid);
            });
        }
        if self.crashes.len() > 1 {
            let mid = self.crashes.len() / 2;
            with(&|p| {
                p.crashes.drain(..mid);
            });
            with(&|p| {
                p.crashes.truncate(mid);
            });
        }
        if self.disk.len() > 1 {
            let mid = self.disk.len() / 2;
            with(&|p| {
                p.disk.drain(..mid);
            });
            with(&|p| {
                p.disk.truncate(mid);
            });
        }
        // Single-element removals.
        for i in 0..self.partitions.len() {
            with(&|p| {
                p.partitions.remove(i);
            });
        }
        for i in 0..self.crashes.len() {
            with(&|p| {
                p.crashes.remove(i);
            });
        }
        for i in 0..self.disk.len() {
            with(&|p| {
                p.disk.remove(i);
            });
        }
        // Rates: zero first (most aggressive), then halve.
        if self.dup_per_mille > 0 {
            with(&|p| p.dup_per_mille = 0);
            if self.dup_per_mille > 1 {
                with(&|p| p.dup_per_mille /= 2);
            }
        }
        if self.reorder_per_mille > 0 {
            // Zeroing the rate also zeroes the (now inert) window so the
            // minimal plan carries no dead knobs.
            with(&|p| {
                p.reorder_per_mille = 0;
                p.reorder_window_us = 0;
            });
            if self.reorder_per_mille > 1 {
                with(&|p| p.reorder_per_mille /= 2);
            }
            if self.reorder_window_us > 1 {
                with(&|p| p.reorder_window_us /= 2);
            }
        } else if self.reorder_window_us > 0 {
            // Inert window left behind by a hand-written plan.
            with(&|p| p.reorder_window_us = 0);
        }
        // Window narrowing: halve each partition window keeping either
        // the leading or the trailing edge, and halve crash downtime.
        for i in 0..self.partitions.len() {
            let width = self.partitions[i].until_us - self.partitions[i].from_us;
            if width > 1 {
                with(&|p| p.partitions[i].until_us = p.partitions[i].from_us + width / 2);
                with(&|p| p.partitions[i].from_us = p.partitions[i].until_us - width / 2);
            }
        }
        for i in 0..self.crashes.len() {
            let down = self.crashes[i].restart_us - self.crashes[i].at_us;
            if down > 1 {
                with(&|p| p.crashes[i].restart_us = p.crashes[i].at_us + down / 2);
            }
        }
        // Narrow zeroed corruption ranges (a one-sector hole is the
        // minimal form of "a region of the file went dark").
        for i in 0..self.disk.len() {
            if let Some(SectorCorruption::ZeroRange { sectors }) = self.disk[i].corruption() {
                if sectors > 1 {
                    with(&|p| {
                        if let Some(SectorCorruption::ZeroRange { sectors }) =
                            p.disk[i].corruption_mut()
                        {
                            *sectors = (*sectors / 2).max(1);
                        }
                    });
                }
            }
        }
        out
    }
}

/// SplitMix64: a tiny stateless bit-mixer for per-link schedule jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            dup_per_mille: 100,
            reorder_per_mille: 50,
            reorder_window_us: 10_000,
            partitions: vec![Partition {
                a: Addr(0),
                b: Addr(1),
                from_us: 5,
                until_us: 10,
            }],
            crashes: vec![Crash {
                node: Addr(1),
                at_us: 100,
                restart_us: 200,
            }],
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 3 },
                DiskCrashPoint::BetweenRenameAndTruncate,
                DiskCrashPoint::CorruptWal {
                    sector: 7,
                    kind: SectorCorruption::ZeroRange { sectors: 6 },
                },
                DiskCrashPoint::CorruptChainRecord {
                    back: 0,
                    sector: 1,
                    kind: SectorCorruption::FlipBit { bit: 4000 },
                },
                DiskCrashPoint::CorruptChainRecord {
                    back: 2,
                    sector: 0,
                    kind: SectorCorruption::TornWrite { keep_bytes: 17 },
                },
            ],
        }
    }

    #[test]
    fn valid_plan_passes() {
        assert_eq!(plan().validate(2), Ok(()));
        assert!(FaultPlan::default().is_empty());
        assert!(!plan().is_empty());
    }

    #[test]
    fn rates_over_one_thousand_are_rejected() {
        let p = FaultPlan {
            dup_per_mille: 1001,
            ..FaultPlan::default()
        };
        assert_eq!(
            p.validate(1),
            Err(FaultPlanError::RateOutOfRange {
                what: "dup_per_mille",
                per_mille: 1001
            })
        );
    }

    #[test]
    fn inverted_windows_are_rejected() {
        let mut p = plan();
        p.partitions[0].until_us = p.partitions[0].from_us;
        assert!(matches!(
            p.validate(2),
            Err(FaultPlanError::WindowInverted {
                what: "partition",
                ..
            })
        ));
        let mut p = plan();
        p.crashes[0].restart_us = p.crashes[0].at_us;
        assert!(matches!(
            p.validate(2),
            Err(FaultPlanError::WindowInverted { what: "crash", .. })
        ));
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        assert!(matches!(
            plan().validate(1),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
        // A crash on a node the world does not have ("ghost" node 2 of 2).
        let mut p = plan();
        p.crashes[0].node = Addr(2);
        assert_eq!(
            p.validate(2),
            Err(FaultPlanError::NodeOutOfRange {
                what: "crash",
                node: Addr(2),
                nodes: 2
            })
        );
    }

    #[test]
    fn self_partition_is_rejected() {
        let p = FaultPlan {
            partitions: vec![Partition {
                a: Addr(3),
                b: Addr(3),
                from_us: 0,
                until_us: 5,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(
            p.validate(9),
            Err(FaultPlanError::SelfPartition { node: Addr(3) })
        );
    }

    #[test]
    fn zero_sector_corruption_range_is_rejected() {
        let p = FaultPlan {
            disk: vec![DiskCrashPoint::CorruptChainRecord {
                back: 1,
                sector: 3,
                kind: SectorCorruption::ZeroRange { sectors: 0 },
            }],
            ..FaultPlan::default()
        };
        assert_eq!(p.validate(1), Err(FaultPlanError::EmptyCorruptionRange));
    }

    #[test]
    fn flip_bit_flips_exactly_one_in_bounds_bit() {
        let mut bytes = vec![0u8; 700]; // 2 sectors, the second partial
        let pristine = bytes.clone();
        // Sector index wraps (5 % 2 = 1); the bit wraps into the 188
        // bytes the partial sector actually has.
        assert!(SectorCorruption::FlipBit { bit: 123_456 }.apply(&mut bytes, 5));
        let flipped: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i] != pristine[i])
            .collect();
        assert_eq!(flipped.len(), 1);
        assert!(flipped[0] >= SECTOR_BYTES as usize, "hit the wrong sector");
        assert_eq!((bytes[flipped[0]] ^ pristine[flipped[0]]).count_ones(), 1);
        assert!(!SectorCorruption::FlipBit { bit: 0 }.apply(&mut [], 0));
    }

    #[test]
    fn zero_range_clears_whole_sectors_and_clamps_to_the_file() {
        let mut bytes = vec![0xFFu8; 1100]; // 3 sectors, the last partial
        assert!(SectorCorruption::ZeroRange { sectors: 9 }.apply(&mut bytes, 1));
        assert!(bytes[..512].iter().all(|&b| b == 0xFF), "sector 0 damaged");
        assert!(bytes[512..].iter().all(|&b| b == 0), "range not zeroed");
        assert_eq!(bytes.len(), 1100, "corruption must never change length");
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_scribbles_the_rest() {
        let mut bytes = vec![0x11u8; 600];
        assert!(SectorCorruption::TornWrite { keep_bytes: 100 }.apply(&mut bytes, 0));
        assert!(bytes[..100].iter().all(|&b| b == 0x11));
        assert!(bytes[100..512].iter().all(|&b| b == 0xA5));
        assert!(bytes[512..].iter().all(|&b| b == 0x11), "wrong sector torn");
    }

    #[test]
    fn reorder_without_window_is_rejected() {
        let p = FaultPlan {
            reorder_per_mille: 10,
            reorder_window_us: 0,
            ..FaultPlan::default()
        };
        assert_eq!(p.validate(1), Err(FaultPlanError::EmptyReorderWindow));
    }

    #[test]
    fn for_link_with_zero_jitter_is_verbatim() {
        assert_eq!(plan().for_link(3, 0), plan());
    }

    #[test]
    fn for_link_is_deterministic_and_decorrelates_links() {
        let a = plan().for_link(1, 5_000);
        assert_eq!(a, plan().for_link(1, 5_000));
        let b = plan().for_link(2, 5_000);
        assert_ne!(a, b, "distinct links should see shifted fault windows");
        // Shifts move both edges together: every window keeps its duration
        // (and therefore stays valid).
        for (derived, base) in a.partitions.iter().zip(&plan().partitions) {
            assert_eq!(
                derived.until_us - derived.from_us,
                base.until_us - base.from_us
            );
            assert!(derived.from_us >= base.from_us);
            assert!(derived.from_us <= base.from_us + 5_000);
        }
        for (derived, base) in a.crashes.iter().zip(&plan().crashes) {
            assert_eq!(
                derived.restart_us - derived.at_us,
                base.restart_us - base.at_us
            );
        }
        // Rates and disk crash points are never jittered.
        assert_eq!(a.dup_per_mille, plan().dup_per_mille);
        assert_eq!(a.reorder_per_mille, plan().reorder_per_mille);
        assert_eq!(a.disk, plan().disk);
        assert_eq!(a.validate(2), Ok(()));
        assert_eq!(b.validate(2), Ok(()));
    }

    #[test]
    fn weight_is_zero_only_for_the_empty_plan() {
        assert_eq!(FaultPlan::default().weight(), 0);
        assert!(plan().weight() > 0);
    }

    #[test]
    fn empty_plan_has_no_shrink_candidates() {
        assert!(FaultPlan::default().shrink_candidates().is_empty());
    }

    #[test]
    fn shrink_candidates_strictly_reduce_weight_and_stay_valid() {
        let p = plan();
        let cands = p.shrink_candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.weight() < p.weight(), "{c:?} did not shrink {p:?}");
            assert_eq!(c.validate(2), Ok(()), "{c:?} must stay valid");
        }
    }

    #[test]
    fn repeated_shrinking_reaches_the_empty_plan() {
        // Always adopting the first candidate must drain the plan in at
        // most weight() adoptions — the bounded-termination invariant.
        let mut cur = plan();
        let budget = cur.weight();
        let mut steps = 0u64;
        while let Some(next) = cur.shrink_candidates().into_iter().next() {
            cur = next;
            steps += 1;
            assert!(steps <= budget, "shrink exceeded weight bound {budget}");
        }
        assert!(cur.is_empty(), "fixpoint must be the empty plan: {cur:?}");
    }

    #[test]
    fn zeroing_reorder_takes_the_inert_window_with_it() {
        let p = FaultPlan {
            reorder_per_mille: 10,
            reorder_window_us: 5_000,
            ..FaultPlan::default()
        };
        assert!(p
            .shrink_candidates()
            .iter()
            .any(|c| c.reorder_per_mille == 0 && c.reorder_window_us == 0));
    }

    #[test]
    fn partition_windows_are_symmetric_and_half_open() {
        let p = plan();
        assert!(!p.partitioned(Addr(0), Addr(1), SimTime(4)));
        assert!(p.partitioned(Addr(0), Addr(1), SimTime(5)));
        assert!(p.partitioned(Addr(1), Addr(0), SimTime(9)));
        assert!(!p.partitioned(Addr(0), Addr(1), SimTime(10)));
        assert!(!p.partitioned(Addr(0), Addr(2), SimTime(7)));
    }
}
