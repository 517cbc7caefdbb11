//! Replay determinism of [`FaultPlan::for_link`] under virtual time.
//!
//! The sharded transport derives one plan per pod→shard link from a
//! fleet template; the virtual-time scheduler replays whole fleet days
//! from a seed. Both rest on the same contract: a (template, link,
//! jitter) triple must always produce the *same* derived plan, and a
//! simulation driven by that plan must fire every partition drop and
//! crash/restart at the *same virtual instant* on every run. These
//! proptests pin that contract down over arbitrary templates.

use proptest::prelude::*;
use softborg_netsim::{
    Addr, Crash, FaultPlan, LinkConfig, Partition, Proc, SimConfig, World, WorldCtx,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Events observed by the probe node, with the virtual instant each
/// callback ran at.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Message(u64, Vec<u8>),
    Crash,
    Restart(u64),
}

struct Probe {
    log: Rc<RefCell<Vec<Observed>>>,
}

impl Proc for Probe {
    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        self.log
            .borrow_mut()
            .push(Observed::Message(ctx.now().0, payload));
    }
    fn on_crash(&mut self) {
        self.log.borrow_mut().push(Observed::Crash);
    }
    fn on_restart(&mut self, ctx: &mut WorldCtx<'_>) {
        self.log.borrow_mut().push(Observed::Restart(ctx.now().0));
    }
}

/// Sends one tagged message every `gap_us`, starting at `gap_us`.
struct Pinger {
    to: Addr,
    gap_us: u64,
    remaining: u32,
}

impl Proc for Pinger {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        ctx.set_timer(self.gap_us, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        ctx.send(self.to, self.remaining.to_le_bytes().to_vec());
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.set_timer(self.gap_us, 0);
        }
    }
}

fn template(
    partitions: Vec<(u64, u64)>,
    crashes: Vec<(u64, u64)>,
    dup: u32,
    reorder: u32,
) -> FaultPlan {
    FaultPlan {
        dup_per_mille: dup,
        reorder_per_mille: reorder,
        reorder_window_us: if reorder > 0 { 20_000 } else { 0 },
        partitions: partitions
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

/// Runs a two-node sim under the given derived plan and returns
/// everything observable: the probe's callback log (with virtual
/// timestamps), the final virtual clock, and the stats counters.
fn run_under(plan: FaultPlan, seed: u64) -> (Vec<Observed>, u64, softborg_netsim::SimStats) {
    plan.validate(2).expect("derived plan must stay valid");
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
        gap_us: 1_000,
        remaining: 63,
    }));
    sim.run();
    let observed = log.borrow().clone();
    (observed, sim.now().0, sim.net_stats())
}

proptest! {
    /// Same (template, link, jitter): the derived plan is identical and a
    /// seeded sim replays the exact same fault schedule — every message,
    /// crash, and restart at the same virtual instant.
    #[test]
    fn same_link_same_jitter_replays_identically(
        parts in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..4),
        crashes in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..3),
        dup in 0u32..300,
        reorder in 0u32..300,
        link in 0u64..1_000,
        jitter in 0u64..10_000,
        seed in 0u64..u64::MAX,
    ) {
        let t = template(parts, crashes, dup, reorder);
        let a = t.for_link(link, jitter);
        let b = t.for_link(link, jitter);
        prop_assert_eq!(&a, &b, "plan derivation must be a pure function");
        prop_assert_eq!(run_under(a, seed), run_under(b, seed));
    }

    /// Derived windows are the template's windows shifted forward by at
    /// most `jitter_us`, durations intact — faults fire at predictable
    /// virtual instants, never earlier than the template schedules them.
    #[test]
    fn for_link_shifts_are_bounded_and_duration_preserving(
        parts in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..4),
        crashes in proptest::collection::vec((0u64..50_000, 1u64..30_000), 0..3),
        link in 0u64..1_000,
        jitter in 0u64..10_000,
    ) {
        let t = template(parts, crashes, 0, 0);
        let d = t.for_link(link, jitter);
        for (dp, tp) in d.partitions.iter().zip(&t.partitions) {
            prop_assert!(dp.from_us >= tp.from_us && dp.from_us <= tp.from_us + jitter);
            prop_assert_eq!(dp.until_us - dp.from_us, tp.until_us - tp.from_us);
        }
        for (dc, tc) in d.crashes.iter().zip(&t.crashes) {
            prop_assert!(dc.at_us >= tc.at_us && dc.at_us <= tc.at_us + jitter);
            prop_assert_eq!(dc.restart_us - dc.at_us, tc.restart_us - tc.at_us);
        }
        prop_assert_eq!(d.validate(2), Ok(()));
    }

    /// A crash window in the derived plan actually manifests in the sim:
    /// exactly one crash and one restart per scheduled window, with the
    /// restart at the window's (shifted) end instant.
    #[test]
    fn derived_crash_windows_fire_at_their_shifted_instants(
        at in 1_000u64..40_000,
        len in 1_000u64..20_000,
        link in 0u64..1_000,
        jitter in 0u64..5_000,
        seed in 0u64..u64::MAX,
    ) {
        let t = template(vec![], vec![(at, len)], 0, 0);
        let d = t.for_link(link, jitter);
        let expected_restart = d.crashes[0].restart_us;
        let (observed, _, stats) = run_under(d, seed);
        prop_assert_eq!(stats.crashes, 1);
        let crash_count = observed.iter().filter(|o| matches!(o, Observed::Crash)).count();
        prop_assert_eq!(crash_count, 1);
        let restarts: Vec<_> = observed
            .iter()
            .filter_map(|o| match o {
                Observed::Restart(t) => Some(*t),
                _ => None,
            })
            .collect();
        prop_assert_eq!(restarts, vec![expected_restart]);
    }

    /// Distinct links sharing a template keep identical fault *rates*
    /// but (with a wide enough jitter budget) decorrelated windows.
    #[test]
    fn links_share_rates_but_not_windows(
        at in 0u64..50_000,
        len in 1u64..30_000,
        dup in 0u32..1000,
        reorder in 0u32..1000,
    ) {
        let t = template(vec![(at, len)], vec![(at, len)], dup, reorder);
        let a = t.for_link(1, 1_000_000);
        let b = t.for_link(2, 1_000_000);
        prop_assert_eq!(a.dup_per_mille, b.dup_per_mille);
        prop_assert_eq!(a.reorder_per_mille, b.reorder_per_mille);
        // With a 1s jitter budget a collision on both windows is ~1e-12;
        // lockstep failure across links would defeat the fault matrix.
        prop_assert_ne!((a.partitions, a.crashes), (b.partitions, b.crashes));
    }
}
