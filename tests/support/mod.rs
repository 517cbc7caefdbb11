//! Campaign rounds under virtual time: one world driver for the
//! campaign core's `round_driven`.
//!
//! [`drive`] runs one round's lanes entirely inside a [`World`]: each
//! pod is a cooperative proc executing on a virtual-time tick, batching
//! traces into wire frames, and pushing them through a *bounded* channel
//! to a collector that journals them to a simulated disk with periodic
//! fsync — every blocking point in the catalogue (sleep, blocked send,
//! blocked receive, fsync). Frames land in the pre-partitioned `(lane,
//! seq)` layout the threaded rounds use, so a platform fed by this
//! driver ends in the state its threaded round reaches on the same
//! seeds. [`world_round`] drives a `MultiPlatform`; [`world_round_one`]
//! drives a `Platform` through the same driver.

use softborg::netsim::{
    Addr, ChanId, DiskId, IoStats, Proc, SchedStats, SimConfig, Wake, World, WorldCtx,
};
use softborg::pod::Pod;
use softborg::trace::{wire, ExecutionTrace};
use softborg::{
    DrivenExecution, LaneTask, MultiDrivenExecution, MultiPlatform, MultiRoundReport, Platform,
    RoundReport,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Knobs for one simulated round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldRoundConfig {
    /// Scheduler seed (the round draws no link randomness).
    pub seed: u64,
    /// Virtual gap between consecutive executions on one pod (µs).
    pub exec_interval_us: u64,
    /// Per-pod start stagger (pod `i` begins at `1 + i * spread` µs).
    pub start_spread_us: u64,
    /// Capacity of the bounded pod→collector frame channel.
    pub chan_capacity: usize,
    /// The collector fsyncs its journal disk every this many frames.
    pub fsync_interval_frames: u64,
    /// Fsync completion latency (µs).
    pub fsync_latency_us: u64,
    /// Dispatch budget for the round's world.
    pub fuel: u64,
}

impl Default for WorldRoundConfig {
    fn default() -> Self {
        WorldRoundConfig {
            seed: 0,
            exec_interval_us: 1_000,
            start_spread_us: 137,
            chan_capacity: 8,
            fsync_interval_frames: 4,
            fsync_latency_us: 500,
            fuel: 50_000_000,
        }
    }
}

/// What the world did while driving one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldRoundStats {
    /// Scheduler counters and the dispatch-trace hash.
    pub sched: SchedStats,
    /// Channel/disk counters.
    pub io: IoStats,
}

const TAG_EXEC: u64 = 1;

/// Frame-channel message layout: `[lane LE u64][seq LE u64][frame]`.
fn chan_msg(lane: u64, seq: u64, frame: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16 + frame.len());
    msg.extend_from_slice(&lane.to_le_bytes());
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(frame);
    msg
}

fn parse_chan_msg(msg: Vec<u8>) -> (u64, u64, Vec<u8>) {
    let lane = u64::from_le_bytes(msg[0..8].try_into().expect("header"));
    let seq = u64::from_le_bytes(msg[8..16].try_into().expect("header"));
    (lane, seq, msg[16..].to_vec())
}

/// One pod as a cooperative proc: a timer tick per execution, frames
/// flushed through the bounded channel, blocking on
/// [`Wake::ChanWritable`] when the collector falls behind.
struct PodProc<'a, 'p> {
    pod: &'a mut Pod<'p>,
    lane: u64,
    /// Global stagger index for the start offset.
    stagger: u64,
    execs_left: u32,
    batch: u64,
    next_seq: u64,
    buf: Vec<ExecutionTrace>,
    chan: ChanId,
    interval_us: u64,
    spread_us: u64,
    /// A frame the full channel refused, waiting for room.
    blocked: Option<Vec<u8>>,
    /// The lane's shared `(executions, failures, directed)`.
    counters: Rc<RefCell<(u64, u64, u64)>>,
}

impl PodProc<'_, '_> {
    /// Runs one execution; returns the encoded channel message when a
    /// frame boundary was reached.
    fn exec_once(&mut self) -> Option<Vec<u8>> {
        let run = self.pod.run_once();
        {
            let mut c = self.counters.borrow_mut();
            c.0 += 1;
            c.1 += u64::from(run.result.outcome.is_failure());
            c.2 += u64::from(run.directed);
        }
        self.buf.push(run.trace);
        self.execs_left -= 1;
        if self.buf.len() as u64 == self.batch || (self.execs_left == 0 && !self.buf.is_empty()) {
            let frame = wire::encode_batch(&self.buf);
            self.buf.clear();
            let msg = chan_msg(self.lane, self.next_seq, &frame);
            self.next_seq += 1;
            return Some(msg);
        }
        None
    }

    /// Ships `msg` or parks on the write-blocking point.
    fn ship(&mut self, msg: Vec<u8>, ctx: &mut WorldCtx<'_>) -> bool {
        match ctx.chan_try_send(self.chan, msg) {
            Ok(()) => true,
            Err(refused) => {
                self.blocked = Some(refused);
                ctx.chan_wait_writable(self.chan);
                false
            }
        }
    }

    fn arm_next(&self, ctx: &mut WorldCtx<'_>) {
        if self.execs_left > 0 {
            ctx.set_timer(self.interval_us, TAG_EXEC);
        }
    }
}

impl Proc for PodProc<'_, '_> {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        if self.execs_left > 0 {
            ctx.set_timer(1 + self.stagger * self.spread_us, TAG_EXEC);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        if let Some(msg) = self.exec_once() {
            if !self.ship(msg, ctx) {
                return; // resume from on_wake
            }
        }
        self.arm_next(ctx);
    }

    fn on_wake(&mut self, _wake: Wake, ctx: &mut WorldCtx<'_>) {
        let msg = self.blocked.take().expect("woken without a parked frame");
        if self.ship(msg, ctx) {
            self.arm_next(ctx);
        }
    }
}

/// Shared log of collected `(lane, seq, frame)` triples.
type FrameLog = Rc<RefCell<Vec<(u64, u64, Vec<u8>)>>>;

/// Drains the frame channel, logs every frame, and journals the raw
/// messages to a simulated disk with periodic fsync.
struct Collector {
    chan: ChanId,
    disk: DiskId,
    frames: FrameLog,
    since_sync: u64,
    fsync_every: u64,
}

impl Proc for Collector {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        ctx.chan_wait_readable(self.chan);
    }

    fn on_wake(&mut self, wake: Wake, ctx: &mut WorldCtx<'_>) {
        if wake == Wake::FsyncDone(self.disk) {
            return; // durability acknowledged; nothing to resume
        }
        while let Some(msg) = ctx.chan_try_recv(self.chan) {
            ctx.disk_write(self.disk, &msg);
            self.since_sync += 1;
            if self.since_sync >= self.fsync_every {
                ctx.disk_fsync(self.disk);
                self.since_sync = 0;
            }
            self.frames.borrow_mut().push(parse_chan_msg(msg));
        }
        ctx.chan_wait_readable(self.chan);
    }
}

/// Runs every lane's pods `execs_per_pod` times inside one world: all
/// pods share one channel and one collector.
///
/// # Panics
///
/// When the world exhausts its fuel mid-round or loses frames.
pub fn drive(
    lanes: Vec<LaneTask<'_, '_>>,
    batch: u64,
    execs_per_pod: u32,
    cfg: &WorldRoundConfig,
) -> (MultiDrivenExecution, WorldRoundStats) {
    let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
    let counters: Vec<_> = lanes.iter().map(|_| Rc::default()).collect();
    let mut world = World::new(SimConfig {
        seed: cfg.seed,
        max_events: cfg.fuel,
        ..SimConfig::default()
    });
    let chan = world.add_chan(cfg.chan_capacity);
    let frames: FrameLog = Rc::default();
    let mut stagger = 0u64;
    for task in lanes {
        for (j, pod) in task.pods.iter_mut().enumerate() {
            world.add_proc(Box::new(PodProc {
                pod,
                lane: task.lane,
                stagger,
                execs_left: execs_per_pod,
                batch,
                next_seq: j as u64 * frames_per_pod,
                buf: Vec::new(),
                chan,
                interval_us: cfg.exec_interval_us,
                spread_us: cfg.start_spread_us,
                blocked: None,
                counters: Rc::clone(&counters[task.lane as usize]),
            }));
            stagger += 1;
        }
    }
    let disk = world.add_disk(Addr(stagger as u32), cfg.fsync_latency_us);
    world.add_proc(Box::new(Collector {
        chan,
        disk,
        frames: frames.clone(),
        since_sync: 0,
        fsync_every: cfg.fsync_interval_frames.max(1),
    }));
    world.run();
    assert!(
        !world.fuel_exhausted(),
        "round ran out of fuel ({})",
        cfg.fuel
    );
    let collected = frames.take();
    let expected = stagger * frames_per_pod;
    assert_eq!(collected.len() as u64, expected, "collector lost frames");
    let stats = WorldRoundStats {
        sched: world.sched_stats(),
        io: world.io_stats(),
    };
    let per_lane = counters
        .iter()
        .map(|c: &Rc<RefCell<_>>| *c.borrow())
        .collect();
    let drv = MultiDrivenExecution {
        per_lane,
        frames: collected,
    };
    (drv, stats)
}

/// One `MultiPlatform` round under the world driver.
pub fn world_round(
    platform: &mut MultiPlatform<'_>,
    execs_per_pod: u32,
    cfg: &WorldRoundConfig,
) -> (MultiRoundReport, WorldRoundStats) {
    let mut stats = None;
    let report = platform.round_driven(|lanes, batch| {
        let (drv, s) = drive(lanes, batch, execs_per_pod, cfg);
        stats = Some(s);
        drv
    });
    (report, stats.expect("driver always runs"))
}

/// One `Platform` round under the same driver: its pods are lane 0.
pub fn world_round_one(
    platform: &mut Platform<'_>,
    execs_per_pod: u32,
    cfg: &WorldRoundConfig,
) -> (RoundReport, WorldRoundStats) {
    let program = platform.hive().tree().program();
    let mut stats = None;
    let report = platform.round_driven(|pods, batch| {
        let lane = LaneTask {
            lane: 0,
            program,
            pods,
        };
        let (drv, s) = drive(vec![lane], batch, execs_per_pod, cfg);
        stats = Some(s);
        let (executions, failures, directed) = drv.per_lane[0];
        DrivenExecution {
            executions,
            failures,
            directed,
            frames: drv.frames,
        }
    });
    (report, stats.expect("driver always runs"))
}
