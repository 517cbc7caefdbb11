//! The shared fleet-day harness: a 24-virtual-hour day of pods arriving
//! on a diurnal curve, heartbeating a small aggregator tier under a
//! partition/crash/disk-fault plan — all inside the virtual-time
//! [`World`]. Extracted from the E18 binary so E18 (scale + replay) and
//! E19 (telemetry overhead + divergence demo) drive the *same* workload;
//! [`run_day`] with [`DayConfig::recorder_capacity`] `None` is
//! byte-identical to the original E18 run.

use softborg_netsim::{
    Addr, Crash, DiskCrashPoint, DiskId, FaultPlan, IoStats, LinkConfig, Partition, Proc,
    SchedStats, SimConfig, SimStats, SimTime, Wake, World, WorldCtx,
};
use softborg_obs::FlightRecorder;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// One virtual day.
pub const DAY_US: u64 = 24 * 3600 * 1_000_000;
/// Aggregator tier size (each pod reports to `pod_idx % AGGS`).
pub const AGGS: u32 = 8;
/// Aggregators fsync their journal every this many heartbeats.
pub const FSYNC_EVERY: u64 = 256;
/// Relative arrival weight per hour of day — commute ramps, a midday
/// plateau, and an evening echo.
const DIURNAL: [u64; 24] = [
    2, 1, 1, 1, 1, 2, 4, 7, 10, 12, 13, 14, 14, 13, 12, 11, 10, 9, 9, 8, 7, 5, 4, 3,
];

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw uniformly from `lo..hi` (hi exclusive) off a splitmix stream.
fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(state) % (hi - lo)
}

/// Diurnal arrival instant: pick an hour by cumulative weight, then a
/// uniform offset inside it.
fn arrival_us(state: &mut u64) -> u64 {
    let total: u64 = DIURNAL.iter().sum();
    let mut pick = draw(state, 0, total);
    let mut hour = 0usize;
    for (h, &w) in DIURNAL.iter().enumerate() {
        if pick < w {
            hour = h;
            break;
        }
        pick -= w;
    }
    hour as u64 * 3_600_000_000 + draw(state, 0, 3_600_000_000)
}

/// A fleet pod: arrives at its diurnal instant, heartbeats its
/// aggregator every 30–180 virtual seconds for a 20min–3h session, and
/// (for one pod in three) returns for a shorter evening session.
struct FleetPod {
    rng: u64,
    id: u64,
    agg: Addr,
    seq: u64,
    /// Remaining `(start_us, end_us)` sessions, soonest first.
    sessions: Vec<(u64, u64)>,
    session_end: u64,
}

const TAG_ARRIVE: u64 = 1;
const TAG_BEAT: u64 = 2;

impl FleetPod {
    fn new(id: u64, seed: u64) -> Self {
        let mut rng = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let start = arrival_us(&mut rng);
        let len = draw(&mut rng, 20 * 60, 3 * 3600) * 1_000_000;
        let mut sessions = vec![(start, (start + len).min(DAY_US))];
        if id.is_multiple_of(3) {
            // Evening return: 19:00–22:00 start, 10–40 min.
            let back = draw(&mut rng, 19 * 3600, 22 * 3600) * 1_000_000;
            if back > start + len {
                let blen = draw(&mut rng, 10 * 60, 40 * 60) * 1_000_000;
                sessions.push((back, (back + blen).min(DAY_US)));
            }
        }
        sessions.reverse(); // pop() yields soonest first
        FleetPod {
            rng,
            id,
            agg: Addr((id % u64::from(AGGS)) as u32),
            seq: 0,
            sessions,
            session_end: 0,
        }
    }

    fn arm_next_session(&mut self, ctx: &mut WorldCtx<'_>) {
        if let Some((start, end)) = self.sessions.pop() {
            self.session_end = end;
            let now = ctx.now().0;
            ctx.set_timer(start.saturating_sub(now), TAG_ARRIVE);
        }
    }
}

impl Proc for FleetPod {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        self.arm_next_session(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        if ctx.now().0 >= self.session_end {
            self.arm_next_session(ctx);
            return;
        }
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&self.id.to_le_bytes());
        payload[8..].copy_from_slice(&self.seq.to_le_bytes());
        self.seq += 1;
        ctx.send(self.agg, payload.to_vec());
        ctx.set_timer(draw(&mut self.rng, 30, 180) * 1_000_000, TAG_BEAT);
    }
}

/// An aggregator: journals every heartbeat to its disk, fsyncing every
/// [`FSYNC_EVERY`] frames. Crashes lose the unsynced tail; restart
/// resumes journaling where the synced prefix ends.
struct Aggregator {
    disk: DiskId,
    since_sync: u64,
    heartbeats: Rc<Cell<u64>>,
}

impl Proc for Aggregator {
    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        self.heartbeats.set(self.heartbeats.get() + 1);
        ctx.disk_write(self.disk, &payload);
        self.since_sync += 1;
        if self.since_sync >= FSYNC_EVERY {
            ctx.disk_fsync(self.disk);
            self.since_sync = 0;
        }
    }
    fn on_wake(&mut self, _wake: Wake, _ctx: &mut WorldCtx<'_>) {}
    fn on_crash(&mut self) {
        self.since_sync = 0;
    }
}

/// Everything one fleet day produces; two runs from the same seed must
/// compare equal in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayOutcome {
    /// Scheduler statistics (dispatch count, `trace_hash`, heap depth).
    pub sched: SchedStats,
    /// Network counters.
    pub net: SimStats,
    /// Disk/fsync counters.
    pub io: IoStats,
    /// Virtual time at which the day's event heap drained.
    pub virtual_end_us: u64,
    /// Heartbeats journaled across all aggregators.
    pub heartbeats: u64,
    /// `(len, synced)` of each aggregator's journal at end of day.
    pub journal_bytes: Vec<(usize, usize)>,
}

fn fault_plan(pods: u64, seed: u64, crash_shift_us: u64) -> FaultPlan {
    let mut rng = seed ^ 0x00D1_04A1;
    // Uplink partition sweep: 64 pods lose their aggregator for a
    // 10–45 min window somewhere in the working day.
    let n_parts = 64.min(pods);
    let partitions = (0..n_parts)
        .map(|_| {
            let pod = draw(&mut rng, 0, pods);
            let from = draw(&mut rng, 6 * 3600, 20 * 3600) * 1_000_000;
            let len = draw(&mut rng, 10 * 60, 45 * 60) * 1_000_000;
            Partition {
                a: Addr(AGGS + pod as u32),
                b: Addr((pod % u64::from(AGGS)) as u32),
                from_us: from,
                until_us: (from + len).min(DAY_US),
            }
        })
        .collect();
    // Crash sweep: every aggregator dies once, staggered through the
    // day, and restarts ten virtual minutes later. The first crash can
    // be shifted to build a deliberately-divergent plan (E19's
    // divergence-explainer demo).
    let crashes = (0..AGGS)
        .map(|a| {
            let mut at = draw(&mut rng, 8 * 3600, 18 * 3600) * 1_000_000;
            if a == 0 {
                at += crash_shift_us;
            }
            Crash {
                node: Addr(a),
                at_us: at,
                restart_us: at + 10 * 60 * 1_000_000,
            }
        })
        .collect();
    FaultPlan {
        dup_per_mille: 3,
        reorder_per_mille: 20,
        reorder_window_us: 50_000,
        partitions,
        crashes,
        disk: Vec::new(),
    }
}

/// One fleet day's configuration.
#[derive(Debug, Clone, Default)]
pub struct DayConfig {
    /// Fleet size.
    pub pods: u64,
    /// Run seed (arrival curve, fault plan, link jitter).
    pub seed: u64,
    /// `Some(cap)` attaches the world's flight recorder (per-source ring
    /// capacity `cap`); `None` runs telemetry-free.
    pub recorder_capacity: Option<usize>,
    /// Virtual microseconds to delay aggregator 0's crash by — builds a
    /// fault plan differing at exactly one crash instant.
    pub crash_shift_us: u64,
}

/// Runs one fleet day; returns the outcome, wall seconds, and the
/// flight recorder when one was attached.
///
/// # Panics
///
/// Panics when the world exhausts its fuel — a fleet day never does.
pub fn run_day(cfg: &DayConfig) -> (DayOutcome, f64, Option<FlightRecorder>) {
    let mut world = World::new(SimConfig {
        seed: cfg.seed,
        link: LinkConfig {
            base_latency_us: 15_000,
            jitter_us: 25_000,
            loss_per_mille: 5,
        },
        max_events: u64::MAX,
        faults: fault_plan(cfg.pods, cfg.seed, cfg.crash_shift_us),
    });
    let recorder = cfg.recorder_capacity.map(|cap| world.attach_recorder(cap));
    // Aggregators first so they own Addr 0..AGGS (the fault plan's
    // crash/partition targets).
    let mut disks = Vec::new();
    let heartbeats = Rc::new(Cell::new(0u64));
    for a in 0..AGGS {
        let disk = world.add_disk(Addr(a), 2_000);
        disks.push(disk);
        world.add_proc(Box::new(Aggregator {
            disk,
            since_sync: 0,
            heartbeats: heartbeats.clone(),
        }));
    }
    for id in 0..cfg.pods {
        world.add_proc(Box::new(FleetPod::new(id, cfg.seed)));
    }
    // Disk crash points into two journals mid-day: a torn tail and a
    // flipped bit, landing at exact virtual instants.
    world.schedule_disk_fault(
        SimTime(11 * 3600 * 1_000_000),
        disks[1],
        DiskCrashPoint::TruncateWalTail { drop_bytes: 64 },
    );
    world.schedule_disk_fault(
        SimTime(15 * 3600 * 1_000_000),
        disks[5],
        DiskCrashPoint::FlipWalBit { back_offset: 32 },
    );

    let t0 = Instant::now();
    world.run_until(SimTime(DAY_US));
    let wall = t0.elapsed().as_secs_f64();

    assert!(
        !world.fuel_exhausted(),
        "a fleet day never exhausts u64 fuel"
    );
    let outcome = DayOutcome {
        sched: world.sched_stats(),
        net: world.net_stats(),
        io: world.io_stats(),
        virtual_end_us: world.now().0,
        heartbeats: heartbeats.get(),
        journal_bytes: disks
            .iter()
            .map(|&d| (world.disk_bytes(d).len(), world.disk_synced(d)))
            .collect(),
    };
    (outcome, wall, recorder)
}
