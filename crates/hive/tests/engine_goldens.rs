//! Ground truth for the one discrete-event engine.
//!
//! The repo used to carry two engines — the netsim `Sim` and the
//! `World` — plus suites asserting they agreed. `Sim` is gone; these
//! literals were recorded *at the last commit that had it*, on its
//! threaded transport path and its own event loop, so they pin the
//! behaviour the retired engine had rather than agreement between two
//! live implementations:
//!
//! * **transport cells** — scenarios 0–3 × server crash on/off × seeds
//!   5/11/77 through the full session protocol: FNV-1a of the synced
//!   journal, every [`SimStats`] and [`TransportReport`] counter, the
//!   hive's `stats()` and `coverage()`, and the dispatch-trace hash the
//!   `World`-hosted run had. The journal hash and the delivered byte
//!   count are the two byte-derived fields: they were re-recorded when
//!   a batch frame began to carry each distinct trace once, and the
//!   journal hash again when records and frames moved from FNV-1a to
//!   `softborg_obs::checksum`; every other field held both times;
//! * **link-model cells** — a probe/pinger pair under loss,
//!   duplication, reordering, a partition and a crash: the callback log
//!   (virtual instants and payloads), final clock, [`SimStats`], events
//!   processed, and the trace hash.
//!
//! Two replay properties ride along: same inputs, same outcome, same
//! `trace_hash`.

mod common;

use common::{pod_traces, scenario, sessions_of};
use proptest::prelude::*;
use softborg_hive::transport::{run_reliable_ingest, TransportConfig, TransportReport};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_netsim::{
    Addr, Crash, FaultPlan, LinkConfig, Partition, Proc, SimConfig, SimStats, World, WorldCtx,
};
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use std::cell::RefCell;
use std::rc::Rc;

// --- the transport ------------------------------------------------------

fn faulty_config(seed: u64, pods: u32, crash: bool) -> TransportConfig {
    TransportConfig {
        seed,
        link: LinkConfig {
            base_latency_us: 800,
            jitter_us: 500,
            loss_per_mille: 80,
        },
        faults: FaultPlan {
            dup_per_mille: 60,
            reorder_per_mille: 100,
            reorder_window_us: 20_000,
            partitions: vec![Partition {
                a: Addr(0),
                b: Addr(pods),
                from_us: 5_000,
                until_us: 25_000,
            }],
            crashes: if crash {
                vec![Crash {
                    node: Addr(pods),
                    at_us: 15_000,
                    restart_us: 45_000,
                }]
            } else {
                Vec::new()
            },
            disk: Vec::new(),
        },
        ..TransportConfig::default()
    }
}

fn net_fingerprint(n: &SimStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}/{}/{}",
        n.sent,
        n.delivered,
        n.dropped,
        n.partition_dropped,
        n.duplicated,
        n.crashes,
        n.bytes_delivered,
        n.timers
    )
}

/// Everything a transport cell pins except the trace hash, rendered in
/// the format the goldens were recorded in.
fn transport_fingerprint(r: &TransportReport, hive: &Hive<'_>) -> String {
    let h = hive.stats();
    let c = hive.coverage();
    format!(
        "journal {:#018x} net {} report {} {}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{} {:?} \
         hive {}/{}/{}/{} cov {}/{}/{}/{}/{}/{}",
        fnv1a_step(FNV_OFFSET, &r.journal),
        net_fingerprint(&r.net),
        r.completed,
        r.delivered,
        r.tombstones,
        r.duplicates,
        r.retransmits,
        r.busy_nacks,
        r.shed,
        r.acked,
        r.recoveries,
        r.journal_syncs,
        r.journal_lost_bytes,
        r.recovery_tail_dropped,
        r.journal_error,
        h.traces,
        h.reconstructed,
        h.unreconstructed,
        h.new_nodes,
        c.nodes,
        c.distinct_paths,
        c.sites_seen,
        c.paths_merged,
        c.frontier_arms,
        c.closed_fraction,
    )
}

/// One transport run over a cell: the fingerprint, the trace hash, and
/// the report's debug rendering (for replay comparison).
fn run_cell(scenario_idx: usize, seed: u64, crash: bool) -> (String, u64, String) {
    let s = scenario(scenario_idx);
    let traces = pod_traces(&s, seed ^ 0xABCD, 36);
    let pods = 3;
    let cfg = faulty_config(seed, pods as u32, crash);
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let (report, _) = run_reliable_ingest(
        &mut hive,
        sessions_of(&traces, pods, 4),
        &IngestConfig::default(),
        &cfg,
        &[],
    )
    .expect("valid plan");
    (
        transport_fingerprint(&report, &hive),
        report.sched.trace_hash,
        format!("{report:?}"),
    )
}

/// `(scenario, crash, seed, trace_hash, fingerprint)`.
const TRANSPORT_GOLDENS: [(usize, bool, u64, u64, &str); 24] = [
    (0, false, 5, 0xe8e64426e7572911, "journal 0x4b181ab1e8fa7cfc net 34/32/2/1/0/0/3085/18 report true 9/0/2/9/0/0/9/0/5/0/0 None hive 36/36/0/15 cov 16/4/4/36/9/0.375"),
    (0, false, 11, 0x8a9740af4f745d6f, "journal 0x0487b6bc4288d40a net 29/26/4/1/1/0/2609/15 report true 9/0/1/8/0/0/9/0/4/0/0 None hive 36/36/0/15 cov 16/4/4/36/9/0.375"),
    (0, false, 77, 0x124c6c089f3561e5, "journal 0x40ae3ab5e5624199 net 37/34/4/1/1/0/3955/18 report true 9/0/2/11/0/0/9/0/5/0/0 None hive 36/36/0/22 cov 23/5/5/36/14/0.30434782608695654"),
    (0, true, 5, 0xcec867a5b5abd5f8, "journal 0xe2f1fd525f45402a net 38/34/5/1/1/1/3262/19 report true 9/0/3/12/0/0/9/1/5/0/0 None hive 36/36/0/15 cov 16/4/4/36/9/0.375"),
    (0, true, 11, 0x9df3a1e949a848ee, "journal 0xc6f47ad54ca28d18 net 35/29/7/1/1/1/2803/19 report true 9/0/1/12/0/0/9/1/5/0/0 None hive 36/36/0/15 cov 16/4/4/36/9/0.375"),
    (0, true, 77, 0x2e677359ffc7b28f, "journal 0x22cc18d25c5c721d net 44/35/11/1/2/1/4005/18 report true 9/0/2/18/0/0/9/1/5/0/0 None hive 36/36/0/22 cov 23/5/5/36/14/0.30434782608695654"),
    (1, false, 5, 0xe8e64426e7572911, "journal 0x1e75226eea6b59c4 net 34/32/2/1/0/0/2700/18 report true 9/0/2/9/0/0/9/0/5/0/0 None hive 36/36/0/5 cov 6/3/3/36/1/0.6666666666666666"),
    (1, false, 11, 0x8a9740af4f745d6f, "journal 0xe57a6edee20b4012 net 29/26/4/1/1/0/2499/15 report true 9/0/1/8/0/0/9/0/4/0/0 None hive 36/36/0/5 cov 6/3/3/36/1/0.6666666666666666"),
    (1, false, 77, 0x124c6c089f3561e5, "journal 0xb913a30a4aa0c6a4 net 37/34/4/1/1/0/3460/18 report true 9/0/2/11/0/0/9/0/5/0/0 None hive 36/36/0/5 cov 6/3/3/36/1/0.6666666666666666"),
    (1, true, 5, 0xcec867a5b5abd5f8, "journal 0x464e8f9a7b8d59cc net 38/34/5/1/1/1/2822/19 report true 9/0/3/12/0/0/9/1/5/0/0 None hive 36/36/0/5 cov 6/3/3/36/1/0.6666666666666666"),
    (1, true, 11, 0x9df3a1e949a848ee, "journal 0x6fc58925609031ba net 35/29/7/1/1/1/2693/19 report true 9/0/1/12/0/0/9/1/5/0/0 None hive 36/36/0/5 cov 6/3/3/36/1/0.6666666666666666"),
    (1, true, 77, 0x2e677359ffc7b28f, "journal 0x2cb2b319ca0c8c3c net 44/35/11/1/2/1/3510/18 report true 9/0/2/18/0/0/9/1/5/0/0 None hive 36/36/0/5 cov 6/3/3/36/1/0.6666666666666666"),
    (2, false, 5, 0xe8e64426e7572911, "journal 0xc2babc26261f5ea8 net 34/32/2/1/0/0/4913/18 report true 9/0/2/9/0/0/9/0/5/0/0 None hive 36/36/0/353 cov 354/36/14/36/283/0.1016949152542373"),
    (2, false, 11, 0x8a9740af4f745d6f, "journal 0x38f6fcd78a947da3 net 29/26/4/1/1/0/4040/15 report true 9/0/1/8/0/0/9/0/4/0/0 None hive 36/36/0/371 cov 372/36/14/36/301/0.0967741935483871"),
    (2, false, 77, 0x124c6c089f3561e5, "journal 0xb03976d913993d8e net 37/34/4/1/1/0/5461/18 report true 9/0/2/11/0/0/9/0/5/0/0 None hive 36/36/0/319 cov 320/34/14/36/253/0.10625"),
    (2, true, 5, 0xcec867a5b5abd5f8, "journal 0x375f084b6a2d27ae net 38/34/5/1/1/1/5204/19 report true 9/0/3/12/0/0/9/1/5/0/0 None hive 36/36/0/353 cov 354/36/14/36/283/0.1016949152542373"),
    (2, true, 11, 0x9df3a1e949a848ee, "journal 0xfbab6b432c016171 net 35/29/7/1/1/1/4348/19 report true 9/0/1/12/0/0/9/1/5/0/0 None hive 36/36/0/371 cov 372/36/14/36/301/0.0967741935483871"),
    (2, true, 77, 0x2e677359ffc7b28f, "journal 0x3abb54ecbd46954e net 44/35/11/1/2/1/5735/18 report true 9/0/2/18/0/0/9/1/5/0/0 None hive 36/36/0/319 cov 320/34/14/36/253/0.10625"),
    (3, false, 5, 0xe8e64426e7572911, "journal 0xc8cfdc294af3267f net 34/32/2/1/0/0/8125/18 report true 9/0/2/9/0/0/9/0/5/0/0 None hive 36/36/0/0 cov 1/2/0/36/0/1"),
    (3, false, 11, 0x8a9740af4f745d6f, "journal 0x3422e8ab9c83f15b net 29/26/4/1/1/0/7160/15 report true 9/0/1/8/0/0/9/0/4/0/0 None hive 36/36/0/0 cov 1/2/0/36/0/1"),
    (3, false, 77, 0x124c6c089f3561e5, "journal 0x53d7e41a168f8dc7 net 37/34/4/1/1/0/9371/18 report true 9/0/2/11/0/0/9/0/5/0/0 None hive 36/36/0/0 cov 1/2/0/36/0/1"),
    (3, true, 5, 0xcec867a5b5abd5f8, "journal 0xaa489d3be487b9e1 net 38/34/5/1/1/1/8584/19 report true 9/0/3/12/0/0/9/1/5/0/0 None hive 36/36/0/0 cov 1/2/0/36/0/1"),
    (3, true, 11, 0x9df3a1e949a848ee, "journal 0xc241252a43dc4cb5 net 35/29/7/1/1/1/7642/19 report true 9/0/1/12/0/0/9/1/5/0/0 None hive 36/36/0/0 cov 1/2/0/36/0/1"),
    (3, true, 77, 0x2e677359ffc7b28f, "journal 0x3e6e712888c4c88b net 44/35/11/1/2/1/9801/18 report true 9/0/2/18/0/0/9/1/5/0/0 None hive 36/36/0/0 cov 1/2/0/36/0/1"),
];

#[test]
fn transport_matches_the_goldens_recorded_before_the_port() {
    for &(scenario_idx, crash, seed, trace_hash, fingerprint) in &TRANSPORT_GOLDENS {
        let (got, hash, _) = run_cell(scenario_idx, seed, crash);
        let cell = format!("scenario {scenario_idx} crash {crash} seed {seed}");
        assert_eq!(got, fingerprint, "{cell}: report/hive diverged");
        assert_eq!(hash, trace_hash, "{cell}: trace hash diverged");
    }
}

// --- the link model -----------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Message(u64, Vec<u8>),
    Crash,
    Restart(u64),
}

/// FNV-1a over a tagged little-endian encoding of the callback log.
fn log_hash(log: &[Observed]) -> u64 {
    let mut bytes = Vec::new();
    for o in log {
        match o {
            Observed::Message(at, payload) => {
                bytes.push(0);
                bytes.extend_from_slice(&at.to_le_bytes());
                bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                bytes.extend_from_slice(payload);
            }
            Observed::Crash => bytes.push(1),
            Observed::Restart(at) => {
                bytes.push(2);
                bytes.extend_from_slice(&at.to_le_bytes());
            }
        }
    }
    fnv1a_step(FNV_OFFSET, &bytes)
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

/// Sends one numbered message every `gap_us`.
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

fn link_config(
    seed: u64,
    loss: u32,
    dup: u32,
    reorder: u32,
    crash: Option<(u64, u64)>,
) -> SimConfig {
    SimConfig {
        seed,
        link: LinkConfig {
            base_latency_us: 700,
            jitter_us: 400,
            loss_per_mille: loss,
        },
        max_events: 200_000,
        faults: FaultPlan {
            dup_per_mille: dup,
            reorder_per_mille: reorder,
            reorder_window_us: if reorder > 0 { 15_000 } else { 0 },
            partitions: vec![Partition {
                a: Addr(0),
                b: Addr(1),
                from_us: 10_000,
                until_us: 18_000,
            }],
            crashes: crash
                .map(|(at, len)| {
                    vec![Crash {
                        node: Addr(0),
                        at_us: at,
                        restart_us: at + len,
                    }]
                })
                .unwrap_or_default(),
            disk: Vec::new(),
        },
    }
}

/// `(callback log, final clock, stats, processed)` and the trace hash.
type LinkOutcome = ((Vec<Observed>, u64, SimStats, u64), u64);

fn run_link(cfg: SimConfig) -> LinkOutcome {
    let mut world = World::new(cfg);
    let log = Rc::new(RefCell::new(Vec::new()));
    let probe = world.add_proc(Box::new(Probe { log: log.clone() }));
    world.add_proc(Box::new(Pinger {
        to: probe,
        gap_us: 900,
        remaining: 47,
    }));
    let processed = world.run();
    let observed = log.borrow().clone();
    (
        (observed, world.now().0, world.net_stats(), processed),
        world.sched_stats().trace_hash,
    )
}

/// `(seed, loss, dup, reorder, crash, log length, log hash, processed,
/// final clock µs, net, trace hash)`.
#[allow(clippy::type_complexity)]
const LINK_GOLDENS: [(
    u64,
    u32,
    u32,
    u32,
    Option<(u64, u64)>,
    usize,
    u64,
    u64,
    u64,
    &str,
    u64,
); 3] = [
    (
        1,
        0,
        0,
        0,
        None,
        40,
        0xa1ecf938ee4e1441,
        88,
        44011,
        "48/40/8/8/0/0/160/48",
        0x4b3e062ee97e89c7,
    ),
    (
        7,
        100,
        100,
        100,
        Some((5000, 3000)),
        41,
        0xd739bd1ba4e42ab4,
        94,
        48683,
        "48/39/14/8/5/1/156/48",
        0xec0f0901eb1e654a,
    ),
    (
        42,
        250,
        200,
        150,
        Some((12000, 9000)),
        37,
        0x2abde9266baf2af6,
        89,
        44293,
        "48/35/20/8/7/1/140/48",
        0x13933ce15c1427c4,
    ),
];

#[test]
fn link_model_matches_the_goldens_recorded_before_the_port() {
    for &(seed, loss, dup, reorder, crash, len, hash, processed, now, net, trace_hash) in
        &LINK_GOLDENS
    {
        let ((log, got_now, got_net, got_processed), got_trace) =
            run_link(link_config(seed, loss, dup, reorder, crash));
        let cell = format!("seed {seed} loss {loss} dup {dup} reorder {reorder} crash {crash:?}");
        assert_eq!(log.len(), len, "{cell}: callback count");
        assert_eq!(log_hash(&log), hash, "{cell}: callback log");
        assert_eq!(got_processed, processed, "{cell}: events processed");
        assert_eq!(got_now, now, "{cell}: final clock");
        assert_eq!(net_fingerprint(&got_net), net, "{cell}: net stats");
        assert_eq!(got_trace, trace_hash, "{cell}: trace hash");
    }
}

proptest! {
    /// Two world runs from the same seed produce the same trace hash
    /// and the same observable outcome; a different seed (with jitter
    /// in play) produces a different trace hash.
    #[test]
    fn world_replays_reproduce_the_trace_hash(seed in 0u64..u64::MAX) {
        let cfg = link_config(seed, 100, 100, 100, Some((5_000, 3_000)));
        let (out_a, hash_a) = run_link(cfg.clone());
        let (out_b, hash_b) = run_link(cfg);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(hash_a, hash_b);
        let (_, other) = run_link(link_config(seed ^ 0x5DEECE66D, 100, 100, 100, Some((5_000, 3_000))));
        prop_assert_ne!(hash_a, other, "different seed, different dispatch path");
    }
}

proptest! {
    // `PROPTEST_CASES` takes precedence over this default in CI.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across scenarios, seeds and crash schedules, a transport run
    /// replays to the same report (journal bytes included), the same
    /// hive, and the same trace hash.
    #[test]
    fn transport_replays_reproduce_report_and_trace_hash(
        scenario_idx in 0usize..4,
        seed in 0u64..u64::MAX,
        crash_sel in 0u8..2,
    ) {
        let crash = crash_sel == 1;
        let a = run_cell(scenario_idx, seed, crash);
        let b = run_cell(scenario_idx, seed, crash);
        prop_assert_eq!(a, b);
    }
}
