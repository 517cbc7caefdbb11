//! `Platform::round` / `MultiPlatform::round` under the virtual-time
//! scheduler.
//!
//! [`sim_round`] drives one platform round entirely inside a [`World`]:
//! each pod is a cooperative proc executing on a virtual-time tick,
//! batching traces into wire frames, and pushing them through a
//! *bounded* channel to a collector that journals them to a simulated
//! disk with periodic fsync — exercising every blocking point in the
//! catalogue (sleep, blocked send, blocked receive, fsync). The frames
//! land in the pre-partitioned `(session, seq)` layout the threaded
//! paths use, and [`Platform::round_driven`] ingests them in sorted
//! order — so the resulting hive state is **byte-identical** to the
//! serial and pipelined paths on shared seeds (pods carry their own RNG
//! and get no mid-round feedback; the equivalence is asserted in this
//! crate's tests). [`sim_round_multi`] is the multi-program
//! counterpart.

use softborg::multi::{MultiDrivenExecution, MultiPlatform, MultiRoundReport};
use softborg::platform::{DrivenExecution, Platform, RoundReport};
use softborg_netsim::{
    Addr, ChanId, DiskId, IoStats, Proc, SchedStats, SimClock, SimConfig, Wake, World, WorldCtx,
};
use softborg_obs::FlightRecorder;
use softborg_pod::Pod;
use softborg_trace::wire;
use softborg_trace::ExecutionTrace;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Retimes the platform's flight recorder onto the round's virtual
/// clock (events recorded during the simulated round carry virtual
/// instants); returns the previous clock so the caller can restore it
/// once the round ends. `None` when the recorder is disabled.
fn retime(recorder: &FlightRecorder, clock: &SimClock) -> Option<Arc<dyn softborg_obs::Clock>> {
    let prev = recorder.clock();
    recorder.set_clock(Arc::new(clock.clone()));
    prev
}

/// Knobs for one simulated round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRoundConfig {
    /// Scheduler seed (feeds the world's `SimConfig`; the round itself
    /// draws no link randomness, so this only matters if a driver adds
    /// faulty links on top).
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
    /// Dispatch budget for the round's world (its
    /// [`SimConfig::max_events`]).
    pub fuel: u64,
}

impl Default for SimRoundConfig {
    fn default() -> Self {
        SimRoundConfig {
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
pub struct SimRoundStats {
    /// Scheduler counters and the dispatch-trace hash.
    pub sched: SchedStats,
    /// Channel/disk counters.
    pub io: IoStats,
}

const TAG_EXEC: u64 = 1;

/// Frame-channel message layout: `[session LE u64][seq LE u64][frame]`.
fn chan_msg(session: u64, seq: u64, frame: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16 + frame.len());
    msg.extend_from_slice(&session.to_le_bytes());
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(frame);
    msg
}

fn parse_chan_msg(msg: Vec<u8>) -> (u64, u64, Vec<u8>) {
    let session = u64::from_le_bytes(msg[0..8].try_into().expect("header"));
    let seq = u64::from_le_bytes(msg[8..16].try_into().expect("header"));
    (session, seq, msg[16..].to_vec())
}

/// One pod as a cooperative proc: a timer tick per execution, frames
/// flushed through the bounded channel, blocking on
/// [`Wake::ChanWritable`] when the collector falls behind.
struct PodProc<'a, 'p> {
    pod: &'a mut Pod<'p>,
    /// Header session: pod index (single-platform) or lane (multi).
    session: u64,
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
    /// Shared `(executions, failures, directed)`.
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
            if run.result.outcome.is_failure() {
                c.1 += 1;
            }
            if run.directed {
                c.2 += 1;
            }
        }
        self.buf.push(run.trace);
        self.execs_left -= 1;
        if self.buf.len() as u64 == self.batch || (self.execs_left == 0 && !self.buf.is_empty()) {
            let frame = wire::encode_batch(&self.buf);
            self.buf.clear();
            let msg = chan_msg(self.session, self.next_seq, &frame);
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

/// Shared log of collected `(session, seq, frame)` triples.
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

/// One platform round under the scheduler. Byte-identical hive state to
/// [`Platform::round`] on shared seeds; see the [module docs](self).
///
/// # Panics
///
/// Panics when the world exhausts its fuel mid-round or loses frames —
/// both driver bugs, not input conditions.
pub fn sim_round(
    platform: &mut Platform<'_>,
    execs_per_pod: u32,
    cfg: &SimRoundConfig,
) -> (RoundReport, SimRoundStats) {
    let mut out: Option<SimRoundStats> = None;
    let clock = SimClock::new();
    let recorder = platform.config().obs.recorder.clone();
    let prev_clock = retime(&recorder, &clock);
    let report = platform.round_driven(|pods, batch| {
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let counters = Rc::new(RefCell::new((0u64, 0u64, 0u64)));
        let n_pods = pods.len();
        let mut world = World::new(SimConfig {
            seed: cfg.seed,
            max_events: cfg.fuel,
            ..SimConfig::default()
        });
        world.drive_clock(clock.clone());
        let chan = world.add_chan(cfg.chan_capacity);
        let collector_addr = Addr(n_pods as u32);
        let disk = world.add_disk(collector_addr, cfg.fsync_latency_us);
        let frames = Rc::new(RefCell::new(Vec::new()));
        for (i, pod) in pods.iter_mut().enumerate() {
            world.add_proc(Box::new(PodProc {
                pod,
                session: i as u64,
                stagger: i as u64,
                execs_left: execs_per_pod,
                batch,
                next_seq: i as u64 * frames_per_pod,
                buf: Vec::new(),
                chan,
                interval_us: cfg.exec_interval_us,
                spread_us: cfg.start_spread_us,
                blocked: None,
                counters: counters.clone(),
            }));
        }
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
            "sim_round ran out of fuel ({}) mid-round",
            cfg.fuel
        );
        let collected = frames.take();
        let expected = n_pods as u64 * frames_per_pod;
        assert_eq!(
            collected.len() as u64,
            expected,
            "collector lost frames (got {}, expected {expected})",
            collected.len()
        );
        out = Some(SimRoundStats {
            sched: world.sched_stats(),
            io: world.io_stats(),
        });
        let (executions, failures, directed) = *counters.borrow();
        DrivenExecution {
            executions,
            failures,
            directed,
            frames: collected,
        }
    });
    if let Some(prev) = prev_clock {
        recorder.set_clock(prev);
    }
    (report, out.expect("driver always runs"))
}

/// One multi-program round under the scheduler, the
/// [`MultiPlatform::round_driven`] counterpart of [`sim_round`]. All
/// lanes' pods share one world, one channel, and one collector; frames
/// carry `(lane, seq)` headers in the pre-partitioned per-lane layout.
///
/// # Panics
///
/// Panics when the world exhausts its fuel mid-round or loses frames.
pub fn sim_round_multi(
    platform: &mut MultiPlatform<'_>,
    execs_per_pod: u32,
    cfg: &SimRoundConfig,
) -> (MultiRoundReport, SimRoundStats) {
    let mut out: Option<SimRoundStats> = None;
    let clock = SimClock::new();
    let recorder = platform.config().obs.recorder.clone();
    let prev_clock = retime(&recorder, &clock);
    let report = platform.round_driven(|tasks, batch| {
        let frames_per_pod = u64::from(execs_per_pod).div_ceil(batch);
        let n_lanes = tasks.len();
        let lane_counters: Vec<Rc<RefCell<(u64, u64, u64)>>> = (0..n_lanes)
            .map(|_| Rc::new(RefCell::new((0u64, 0u64, 0u64))))
            .collect();
        let mut world = World::new(SimConfig {
            seed: cfg.seed,
            max_events: cfg.fuel,
            ..SimConfig::default()
        });
        world.drive_clock(clock.clone());
        let chan = world.add_chan(cfg.chan_capacity);
        let frames = Rc::new(RefCell::new(Vec::new()));
        let mut stagger = 0u64;
        let mut total_pods = 0u64;
        for task in tasks {
            let (lane, pods) = (task.lane, task.pods);
            for (j, pod) in pods.iter_mut().enumerate() {
                world.add_proc(Box::new(PodProc {
                    pod,
                    session: lane,
                    stagger,
                    execs_left: execs_per_pod,
                    batch,
                    next_seq: j as u64 * frames_per_pod,
                    buf: Vec::new(),
                    chan,
                    interval_us: cfg.exec_interval_us,
                    spread_us: cfg.start_spread_us,
                    blocked: None,
                    counters: lane_counters[lane as usize].clone(),
                }));
                stagger += 1;
                total_pods += 1;
            }
        }
        let collector_addr = Addr(stagger as u32);
        let disk = world.add_disk(collector_addr, cfg.fsync_latency_us);
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
            "sim_round_multi ran out of fuel ({}) mid-round",
            cfg.fuel
        );
        let collected = frames.take();
        let expected = total_pods * frames_per_pod;
        assert_eq!(
            collected.len() as u64,
            expected,
            "collector lost frames (got {}, expected {expected})",
            collected.len()
        );
        out = Some(SimRoundStats {
            sched: world.sched_stats(),
            io: world.io_stats(),
        });
        MultiDrivenExecution {
            per_lane: lane_counters.iter().map(|c| *c.borrow()).collect(),
            frames: collected,
        }
    });
    if let Some(prev) = prev_clock {
        recorder.set_clock(prev);
    }
    (report, out.expect("driver always runs"))
}
