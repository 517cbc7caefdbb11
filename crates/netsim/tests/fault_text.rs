//! Round-trip fidelity of the corpus text format ([`FaultPlan::to_text`]
//! / [`FaultPlan::from_text`]).
//!
//! The divergence corpus stores minimized fault plans as text and
//! replays them as a regression suite, so the format must be lossless
//! over the *entire* plan space — every knob, every element, every
//! ordering. These proptests generate arbitrary plans (including ones
//! [`FaultPlan::validate`] would reject: the format must not silently
//! "fix" a plan), round-trip them, and re-run a seeded simulation under
//! the decoded plan to prove the replayed fault schedule is
//! event-for-event identical to the original's.

use proptest::prelude::*;
use softborg_netsim::{
    Addr, Crash, DiskCrashPoint, FaultPlan, LinkConfig, Partition, Proc, SectorCorruption,
    SimConfig, World, WorldCtx,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Decodes one `(selector, arg)` pair into a disk crash point, covering
/// every variant of the enum and every sector-corruption kind.
fn disk_point(selector: u8, arg: u64) -> DiskCrashPoint {
    let n = (arg >> 2) as u32;
    let kind = match arg % 3 {
        0 => SectorCorruption::FlipBit { bit: n },
        1 => SectorCorruption::ZeroRange { sectors: n },
        _ => SectorCorruption::TornWrite { keep_bytes: n },
    };
    match selector % 6 {
        0 => DiskCrashPoint::AtRoundBoundary { round: arg % 100 },
        1 => DiskCrashPoint::TruncateWalTail {
            drop_bytes: arg % 10_000,
        },
        2 => DiskCrashPoint::FlipWalBit {
            back_offset: arg % 10_000,
        },
        3 => DiskCrashPoint::CorruptWal { sector: arg, kind },
        4 => DiskCrashPoint::CorruptChainRecord {
            back: arg % 5,
            sector: arg,
            kind,
        },
        _ => DiskCrashPoint::BetweenRenameAndTruncate,
    }
}

/// Builds a fully-arbitrary plan — no validity constraints; the format
/// must encode whatever struct it is handed.
#[allow(clippy::type_complexity)]
fn wild_plan(
    dup: u32,
    reorder: u32,
    window: u64,
    parts: Vec<(u32, u32, u64, u64)>,
    crashes: Vec<(u32, u64, u64)>,
    disk: Vec<(u8, u64)>,
) -> FaultPlan {
    FaultPlan {
        dup_per_mille: dup,
        reorder_per_mille: reorder,
        reorder_window_us: window,
        partitions: parts
            .into_iter()
            .map(|(a, b, from_us, until_us)| Partition {
                a: Addr(a),
                b: Addr(b),
                from_us,
                until_us,
            })
            .collect(),
        crashes: crashes
            .into_iter()
            .map(|(node, at_us, restart_us)| Crash {
                node: Addr(node),
                at_us,
                restart_us,
            })
            .collect(),
        disk: disk.into_iter().map(|(s, a)| disk_point(s, a)).collect(),
    }
}

/// Builds a *valid* plan over a two-node sim: bounded rates, in-range
/// addresses, non-empty forward windows (what the search generator
/// actually emits and the corpus actually stores).
fn valid_plan(
    dup: u32,
    reorder: u32,
    window: u64,
    parts: Vec<(u64, u64)>,
    crashes: Vec<(u64, u64)>,
) -> FaultPlan {
    FaultPlan {
        dup_per_mille: dup,
        reorder_per_mille: reorder,
        reorder_window_us: if reorder > 0 { window } else { 0 },
        partitions: parts
            .into_iter()
            .map(|(from_us, len)| Partition {
                a: Addr(0),
                b: Addr(1),
                from_us,
                until_us: from_us + len,
            })
            .collect(),
        crashes: crashes
            .into_iter()
            .map(|(at_us, len)| Crash {
                node: Addr(0),
                at_us,
                restart_us: at_us + len,
            })
            .collect(),
        disk: Vec::new(),
    }
}

/// `(virtual instant, payload)` pairs observed by the probe.
type DeliveryLog = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

struct Probe {
    log: DeliveryLog,
}

impl Proc for Probe {
    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        self.log.borrow_mut().push((ctx.now().0, payload));
    }
}

struct Pinger {
    to: Addr,
    remaining: u32,
}

impl Proc for Pinger {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        ctx.set_timer(1_000, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        ctx.send(self.to, self.remaining.to_le_bytes().to_vec());
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.set_timer(1_000, 0);
        }
    }
}

/// Runs a seeded two-node sim under `plan` and returns every observable:
/// the delivery log with virtual timestamps, the final clock, and stats.
fn replay(plan: FaultPlan, seed: u64) -> (Vec<(u64, Vec<u8>)>, u64, softborg_netsim::SimStats) {
    let mut sim = World::new(SimConfig {
        seed,
        link: LinkConfig {
            base_latency_us: 500,
            jitter_us: 200,
            loss_per_mille: 0,
        },
        max_events: 100_000,
        faults: plan,
    });
    let log = Rc::new(RefCell::new(Vec::new()));
    let probe = sim.add_proc(Box::new(Probe { log: log.clone() }));
    sim.add_proc(Box::new(Pinger {
        to: probe,
        remaining: 47,
    }));
    sim.run();
    let observed = log.borrow().clone();
    (observed, sim.now().0, sim.net_stats())
}

proptest! {
    /// Any plan — even one `validate` would reject — decodes back to
    /// exactly the struct it was encoded from.
    #[test]
    fn any_plan_round_trips_exactly(
        dup in any::<u32>(),
        reorder in any::<u32>(),
        window in any::<u64>(),
        parts in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()), 0..5),
        crashes in proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u64>()), 0..4),
        disk in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..4),
    ) {
        let plan = wild_plan(dup, reorder, window, parts, crashes, disk);
        let text = plan.to_text();
        prop_assert_eq!(FaultPlan::from_text(&text), Ok(plan));
    }

    /// Encoding is stable: re-encoding the decoded plan yields the same
    /// bytes, so corpus entries never churn on rewrite.
    #[test]
    fn encoding_is_a_fixpoint(
        dup in any::<u32>(),
        reorder in any::<u32>(),
        window in any::<u64>(),
        parts in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()), 0..5),
        crashes in proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u64>()), 0..4),
        disk in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..4),
    ) {
        let plan = wild_plan(dup, reorder, window, parts, crashes, disk);
        let text = plan.to_text();
        let decoded = FaultPlan::from_text(&text).expect("round trip");
        prop_assert_eq!(decoded.to_text(), text);
    }

    /// A corpus-stored plan replays the *same fault schedule*: a seeded
    /// sim under the decoded plan is event-for-event identical to one
    /// under the original, so a minimized reproducer keeps reproducing.
    #[test]
    fn decoded_plan_replays_identically(
        dup in 0u32..=1000,
        reorder in 0u32..=1000,
        window in 0u64..50_000,
        parts in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..3),
        crashes in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..3),
        seed in 0u64..u64::MAX,
    ) {
        let plan = valid_plan(dup, reorder, window, parts, crashes);
        plan.validate(2).expect("generator emits valid plans");
        let decoded = FaultPlan::from_text(&plan.to_text()).expect("round trip");
        prop_assert_eq!(replay(plan, seed), replay(decoded, seed));
    }

    /// Shrink candidates round-trip too — the corpus stores *minimized*
    /// plans, which are products of the shrinker, not the generator.
    #[test]
    fn shrink_candidates_round_trip(
        dup in 0u32..=1000,
        reorder in 0u32..=1000,
        window in 0u64..50_000,
        parts in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..3),
        crashes in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..3),
    ) {
        let plan = valid_plan(dup, reorder, window, parts, crashes);
        for cand in plan.shrink_candidates() {
            let text = cand.to_text();
            prop_assert_eq!(FaultPlan::from_text(&text), Ok(cand));
        }
    }
}
