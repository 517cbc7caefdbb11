//! The [`World`]: one deterministic event loop hosting network nodes,
//! bounded channels, and simulated disks under virtual time.
//!
//! Nodes are [`Proc`]s talking over the link/fault model of
//! [`SimConfig`]: per-message latency draws, loss, duplication,
//! reordering, partitions, and crashes pre-queued from the fault plan.
//! On top of that come the two blocking points real pipelines have and
//! networks don't: bounded channels (send blocks when full, receive
//! blocks when empty) and disks with asynchronous fsync. Every blocking
//! point is explicit — a proc that cannot make progress registers a
//! waiter and returns, and the world wakes it with a [`Wake`] event at
//! the exact virtual instant the condition flips.
//!
//! ## Blocking-point catalogue
//!
//! | point | request | wake |
//! |---|---|---|
//! | sleep | [`WorldCtx::set_timer`] | `on_timer(tag)` |
//! | channel send (full) | [`WorldCtx::chan_wait_writable`] | `on_wake(ChanWritable)` |
//! | channel recv (empty) | [`WorldCtx::chan_wait_readable`] | `on_wake(ChanReadable)` |
//! | disk fsync | [`WorldCtx::disk_fsync`] | `on_wake(FsyncDone)` |
//! | link delivery | [`WorldCtx::send`] | `on_message(from, bytes)` |
//!
//! Determinism: all scheduling keys come from one global monotonic
//! counter, so dispatch order — and therefore the
//! [`trace hash`](crate::SchedStats::trace_hash) — is a pure function of
//! the seed and the proc set.

use crate::sched::{SchedStats, Scheduler, SimClock};
use crate::{Addr, DiskCrashPoint, SimConfig, SimStats, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_obs::{FlightRecorder, Severity};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Handle on a bounded channel created with [`World::add_chan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChanId(pub u32);

/// Handle on a simulated disk created with [`World::add_disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskId(pub u32);

/// Why a blocked proc was woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A channel the proc waited on has data to read.
    ChanReadable(ChanId),
    /// A channel the proc waited on has room to write.
    ChanWritable(ChanId),
    /// An fsync the proc requested has completed; the covered prefix is
    /// now durable.
    FsyncDone(DiskId),
}

/// Behaviour of one simulated process. All callbacks receive a
/// [`WorldCtx`] for sending messages, arming timers, and using channels
/// and disks. Default implementations do nothing.
#[allow(unused_variables)]
pub trait Proc {
    /// Called once when the world starts (or, for a proc added later,
    /// at the next run).
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {}
    /// A network message arrived.
    fn on_message(&mut self, from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {}
    /// A timer armed with [`WorldCtx::set_timer`] fired.
    fn on_timer(&mut self, tag: u64, ctx: &mut WorldCtx<'_>) {}
    /// A blocking point the proc waited on resolved.
    fn on_wake(&mut self, wake: Wake, ctx: &mut WorldCtx<'_>) {}
    /// The proc crashed (a [`Crash`](crate::Crash) in the fault plan).
    /// Volatile state is gone; the world has already truncated this
    /// proc's disks to their synced prefixes. No `WorldCtx` is provided —
    /// a dead proc cannot send or arm timers.
    fn on_crash(&mut self) {}
    /// The proc restarted after a crash; timers that came due while it
    /// was down were discarded, so re-arm timers and re-register waiters.
    fn on_restart(&mut self, ctx: &mut WorldCtx<'_>) {}
}

/// One network intent a proc expressed during a callback, applied after
/// the callback returns: `Send` goes through the link/fault model,
/// `Timer` delays are clamped to ≥ 1µs.
#[derive(Debug)]
enum Action {
    Send { to: Addr, payload: Vec<u8> },
    Timer { delay_us: u64, tag: u64 },
}

/// Channel/disk counters accumulated over a run (the network-level
/// counters live in [`SimStats`], the scheduler-level ones in
/// [`SchedStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Messages accepted by [`WorldCtx::chan_try_send`].
    pub chan_sends: u64,
    /// Messages returned by [`WorldCtx::chan_try_recv`].
    pub chan_recvs: u64,
    /// Sends refused because the channel was full.
    pub chan_full: u64,
    /// [`Wake`] events dispatched to a live proc.
    pub wakes: u64,
    /// Completed fsyncs.
    pub fsyncs: u64,
    /// Bytes written to disks.
    pub disk_bytes_written: u64,
    /// Unsynced bytes destroyed by crashes.
    pub disk_bytes_lost: u64,
    /// Disk crash points applied ([`DiskCrashPoint`] WAL variants).
    pub disk_faults: u64,
    /// Disk crash points that target files this in-memory model does not
    /// have (kills, checkpoint records); counted, not applied.
    pub disk_faults_ignored: u64,
}

#[derive(Debug)]
enum Event {
    Deliver {
        from: Addr,
        to: Addr,
        payload: Vec<u8>,
    },
    Timer {
        node: Addr,
        tag: u64,
    },
    NodeUp(Addr),
    NodeDown(Addr),
    Wake {
        node: Addr,
        wake: Wake,
    },
    FsyncDone {
        disk: DiskId,
    },
    DiskFault {
        disk: DiskId,
        point: DiskCrashPoint,
    },
}

#[derive(Debug)]
struct Chan {
    cap: usize,
    buf: VecDeque<Vec<u8>>,
    read_waiters: BTreeSet<u32>,
    write_waiters: BTreeSet<u32>,
}

#[derive(Debug)]
struct Disk {
    owner: Addr,
    bytes: Vec<u8>,
    synced: usize,
    fsync_latency_us: u64,
    /// Bytes covered by the in-flight fsync, if any.
    inflight: Option<usize>,
}

/// Everything except the proc table, so callbacks can hold `&mut Inner`
/// while their own box is temporarily out of the table.
struct Inner {
    config: SimConfig,
    rng: SmallRng,
    sched: Scheduler<Event>,
    seq: u64,
    alive: Vec<bool>,
    started: Vec<bool>,
    net: SimStats,
    io: IoStats,
    chans: Vec<Chan>,
    disks: Vec<Disk>,
    /// Virtual-time flight recorder (disabled until
    /// [`World::attach_recorder`]): crash/restart/disk events stamped at
    /// their exact virtual instants, for the divergence explainer.
    recorder: FlightRecorder,
}

impl Inner {
    fn push_event(&mut self, at: SimTime, event: Event) {
        let key = self.seq;
        self.seq += 1;
        self.sched.schedule(at, key, event);
    }

    /// One independent latency draw: base + jitter, plus the reordering
    /// window when that fault fires.
    fn delivery_delay(&mut self) -> u64 {
        let link = self.config.link;
        let mut delay = link.base_latency_us;
        if link.jitter_us > 0 {
            delay += self.rng.gen_range(0..=link.jitter_us);
        }
        let reorder_pm = self.config.faults.reorder_per_mille;
        let window = self.config.faults.reorder_window_us;
        if reorder_pm > 0 && window > 0 && self.rng.gen_range(0..1000) < reorder_pm {
            delay += self.rng.gen_range(0..=window);
        }
        delay
    }

    /// Applies a callback's buffered actions in order. RNG draw order
    /// per send is part of the replay contract: loss, then duplication,
    /// then the duplicate's delay, then the original's delay.
    fn flush_actions(&mut self, me: Addr, actions: Vec<Action>) {
        let now = self.sched.now();
        for a in actions {
            match a {
                Action::Send { to, payload } => {
                    self.net.sent += 1;
                    if self.config.faults.partitioned(me, to, now) {
                        self.net.dropped += 1;
                        self.net.partition_dropped += 1;
                        continue;
                    }
                    let lost = self.config.link.loss_per_mille > 0
                        && self.rng.gen_range(0..1000) < self.config.link.loss_per_mille;
                    if lost {
                        self.net.dropped += 1;
                        continue;
                    }
                    let dup_pm = self.config.faults.dup_per_mille;
                    if dup_pm > 0 && self.rng.gen_range(0..1000) < dup_pm {
                        self.net.duplicated += 1;
                        let at = now.after(self.delivery_delay());
                        self.push_event(
                            at,
                            Event::Deliver {
                                from: me,
                                to,
                                payload: payload.clone(),
                            },
                        );
                    }
                    let at = now.after(self.delivery_delay());
                    self.push_event(
                        at,
                        Event::Deliver {
                            from: me,
                            to,
                            payload,
                        },
                    );
                }
                Action::Timer { delay_us, tag } => {
                    let at = now.after(delay_us.max(1));
                    self.push_event(at, Event::Timer { node: me, tag });
                }
            }
        }
    }

    /// Schedules wakes (at the current instant, later keys) for every
    /// waiter in `waiters`, in proc-id order, and clears the set.
    fn wake_all(&mut self, waiters: BTreeSet<u32>, wake: Wake) {
        let now = self.sched.now();
        for w in waiters {
            self.push_event(
                now,
                Event::Wake {
                    node: Addr(w),
                    wake,
                },
            );
        }
    }

    fn crash_disks_of(&mut self, node: Addr) -> u64 {
        let mut lost_total = 0u64;
        for d in &mut self.disks {
            if d.owner == node {
                let lost = d.bytes.len() - d.synced;
                self.io.disk_bytes_lost += lost as u64;
                lost_total += lost as u64;
                d.bytes.truncate(d.synced);
                d.inflight = None;
            }
        }
        lost_total
    }

    /// Drops waiter registrations of a crashed proc — a dead process
    /// holds no poll registrations; recovery re-registers.
    fn drop_waiters_of(&mut self, node: Addr) {
        for c in &mut self.chans {
            c.read_waiters.remove(&node.0);
            c.write_waiters.remove(&node.0);
        }
    }
}

/// The deterministic world. See the [module docs](self).
///
/// The lifetime `'w` bounds the procs, so drivers can host procs that
/// borrow external state (a hive, a slice of pods) for the duration of
/// one run.
pub struct World<'w> {
    procs: Vec<Option<Box<dyn Proc + 'w>>>,
    inner: Inner,
}

impl fmt::Debug for World<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.inner.sched.now())
            .field("procs", &self.procs.len())
            .field("pending", &self.inner.sched.len())
            .field("net", &self.inner.net)
            .field("io", &self.inner.io)
            .finish()
    }
}

impl<'w> World<'w> {
    /// A world over `config`. Its fuel is
    /// [`config.max_events`](SimConfig::max_events): the events
    /// dispatched over the world's whole life, summed across
    /// [`run`](Self::run) / [`run_until`](Self::run_until) calls — for a
    /// caller that runs the world once, a per-run cap. Crashes scheduled
    /// in the config's fault plan are pre-queued immediately (validate
    /// the plan with [`FaultPlan::validate`](crate::FaultPlan::validate)
    /// first — an unknown address is silently inert at fire time).
    pub fn new(config: SimConfig) -> Self {
        let mut world = World {
            procs: Vec::new(),
            inner: Inner {
                rng: SmallRng::seed_from_u64(config.seed),
                sched: Scheduler::new(config.max_events),
                seq: 0,
                alive: Vec::new(),
                started: Vec::new(),
                net: SimStats::default(),
                io: IoStats::default(),
                chans: Vec::new(),
                disks: Vec::new(),
                recorder: FlightRecorder::disabled(),
                config,
            },
        };
        for c in world.inner.config.faults.crashes.clone() {
            world
                .inner
                .push_event(SimTime(c.at_us), Event::NodeDown(c.node));
            world
                .inner
                .push_event(SimTime(c.restart_us), Event::NodeUp(c.node));
        }
        world
    }

    /// Adds a proc; its `on_start` runs when the world starts. Addresses
    /// are dense from `Addr(0)` in insertion order.
    pub fn add_proc(&mut self, proc_: Box<dyn Proc + 'w>) -> Addr {
        let addr = Addr(self.procs.len() as u32);
        self.procs.push(Some(proc_));
        self.inner.alive.push(true);
        self.inner.started.push(false);
        addr
    }

    /// Adds a bounded channel with capacity `cap` (≥ 1).
    pub fn add_chan(&mut self, cap: usize) -> ChanId {
        let id = ChanId(self.inner.chans.len() as u32);
        self.inner.chans.push(Chan {
            cap: cap.max(1),
            buf: VecDeque::new(),
            read_waiters: BTreeSet::new(),
            write_waiters: BTreeSet::new(),
        });
        id
    }

    /// Adds a disk owned by `owner` (crashing the owner truncates the
    /// disk to its synced prefix) with the given fsync completion
    /// latency.
    pub fn add_disk(&mut self, owner: Addr, fsync_latency_us: u64) -> DiskId {
        let id = DiskId(self.inner.disks.len() as u32);
        self.inner.disks.push(Disk {
            owner,
            bytes: Vec::new(),
            synced: 0,
            fsync_latency_us,
            inflight: None,
        });
        id
    }

    /// Schedules a [`DiskCrashPoint`] against `disk` at an exact virtual
    /// instant. The WAL variants mutate the disk bytes; the rest have no
    /// in-memory analogue and are counted in
    /// [`IoStats::disk_faults_ignored`].
    pub fn schedule_disk_fault(&mut self, at: SimTime, disk: DiskId, point: DiskCrashPoint) {
        self.inner.push_event(at, Event::DiskFault { disk, point });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.sched.now()
    }

    /// A [`SimClock`] handle tracking this world's virtual time.
    pub fn clock(&self) -> SimClock {
        self.inner.sched.clock()
    }

    /// Adopts an externally created clock handle (see
    /// [`Scheduler::drive_clock`](crate::Scheduler::drive_clock)).
    pub fn drive_clock(&mut self, clock: SimClock) {
        self.inner.sched.drive_clock(clock);
    }

    /// Attaches a flight recorder driven by this world's virtual clock
    /// and returns a handle to it. From here on, crashes, restarts,
    /// fsync completions, and disk faults are recorded as structured
    /// events (`sim.node.<addr>` / `sim.disk.<d>` sources) stamped at
    /// their exact virtual instants. Because dispatch order is a pure
    /// function of the seed and proc set, the recorder's
    /// [`events_hash`](FlightRecorder::events_hash) is replay-stable —
    /// two runs with the same seed and fault plan produce identical
    /// streams, and a run that diverges pinpoints *where* via
    /// [`softborg_obs::explain_recorders`].
    pub fn attach_recorder(&mut self, capacity: usize) -> FlightRecorder {
        let recorder = FlightRecorder::new(Arc::new(self.clock()), capacity);
        self.inner.recorder = recorder.clone();
        recorder
    }

    /// Network counters.
    pub fn net_stats(&self) -> SimStats {
        self.inner.net
    }

    /// Channel/disk counters.
    pub fn io_stats(&self) -> IoStats {
        self.inner.io
    }

    /// Scheduler counters and the dispatch-trace hash.
    pub fn sched_stats(&self) -> SchedStats {
        self.inner.sched.stats()
    }

    /// `true` when the run stopped on fuel exhaustion rather than a
    /// drained event heap.
    pub fn fuel_exhausted(&self) -> bool {
        self.inner.sched.fuel_exhausted()
    }

    /// A disk's current contents (post-run inspection).
    pub fn disk_bytes(&self, disk: DiskId) -> &[u8] {
        &self.inner.disks[disk.0 as usize].bytes
    }

    /// A disk's durable prefix length.
    pub fn disk_synced(&self, disk: DiskId) -> usize {
        self.inner.disks[disk.0 as usize].synced
    }

    /// Runs until the event heap drains or fuel runs out. Returns the
    /// number of events dispatched by this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    /// Runs until `deadline` (exclusive), the heap drains, or fuel runs
    /// out. Returns the number of events dispatched by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_pending();
        let mut processed = 0u64;
        loop {
            match self.inner.sched.peek_time() {
                Some(at) if at < deadline => {}
                _ => break,
            }
            let Some((_, _, event)) = self.inner.sched.pop() else {
                break; // fuel exhausted
            };
            processed += 1;
            self.dispatch(event);
        }
        processed
    }

    fn start_pending(&mut self) {
        for i in 0..self.procs.len() {
            if self.inner.started[i] || !self.inner.alive[i] {
                continue;
            }
            self.inner.started[i] = true;
            self.call(Addr(i as u32), |p, ctx| p.on_start(ctx));
        }
    }

    /// Runs one callback with the proc temporarily out of the table,
    /// then flushes its buffered network actions in order.
    fn call(&mut self, addr: Addr, f: impl FnOnce(&mut (dyn Proc + 'w), &mut WorldCtx<'_>)) {
        let i = addr.0 as usize;
        let Some(mut proc_) = self.procs[i].take() else {
            return;
        };
        let mut ctx = WorldCtx {
            inner: &mut self.inner,
            me: addr,
            outbox: Vec::new(),
        };
        f(proc_.as_mut(), &mut ctx);
        let outbox = ctx.outbox;
        self.inner.flush_actions(addr, outbox);
        self.procs[i] = Some(proc_);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { from, to, payload } => {
                let ti = to.0 as usize;
                if ti >= self.procs.len() || !self.inner.alive[ti] {
                    self.inner.net.dropped += 1;
                    return;
                }
                self.inner.net.delivered += 1;
                self.inner.net.bytes_delivered += payload.len() as u64;
                self.call(to, |p, ctx| p.on_message(from, payload, ctx));
            }
            Event::Timer { node, tag } => {
                let ni = node.0 as usize;
                if ni >= self.procs.len() || !self.inner.alive[ni] {
                    return;
                }
                self.inner.net.timers += 1;
                self.call(node, |p, ctx| p.on_timer(tag, ctx));
            }
            Event::NodeDown(a) => {
                let i = a.0 as usize;
                if i < self.inner.alive.len() && self.inner.alive[i] {
                    self.inner.alive[i] = false;
                    self.inner.net.crashes += 1;
                    let lost = self.inner.crash_disks_of(a);
                    self.inner.drop_waiters_of(a);
                    if self.inner.recorder.is_enabled() {
                        self.inner.recorder.record(
                            &format!("sim.node.{}", a.0),
                            Severity::Warn,
                            "crash",
                            &[("disk_bytes_lost", lost)],
                            format_args!("node {} crashed, {lost} unsynced byte(s) lost", a.0),
                        );
                    }
                    if let Some(p) = self.procs[i].as_mut() {
                        p.on_crash();
                    }
                }
            }
            Event::NodeUp(a) => {
                let i = a.0 as usize;
                if i < self.inner.alive.len() && !self.inner.alive[i] {
                    self.inner.alive[i] = true;
                    if self.inner.recorder.is_enabled() {
                        self.inner.recorder.info(
                            &format!("sim.node.{}", a.0),
                            "restart",
                            &[],
                            format_args!("node {} restarted", a.0),
                        );
                    }
                    self.call(a, |p, ctx| p.on_restart(ctx));
                }
            }
            Event::Wake { node, wake } => {
                let ni = node.0 as usize;
                if ni >= self.procs.len() || !self.inner.alive[ni] {
                    return;
                }
                self.inner.io.wakes += 1;
                self.call(node, |p, ctx| p.on_wake(wake, ctx));
            }
            Event::FsyncDone { disk } => {
                let di = disk.0 as usize;
                let Some(covered) = self.inner.disks[di].inflight.take() else {
                    return; // voided by a crash in between
                };
                let d = &mut self.inner.disks[di];
                d.synced = covered.min(d.bytes.len());
                self.inner.io.fsyncs += 1;
                if self.inner.recorder.is_enabled() {
                    let synced = self.inner.disks[di].synced as u64;
                    self.inner.recorder.record(
                        &format!("sim.disk.{}", disk.0),
                        Severity::Debug,
                        "fsync",
                        &[("synced_bytes", synced)],
                        format_args!("disk {} fsync complete, {synced} byte(s) durable", disk.0),
                    );
                }
                let owner = self.inner.disks[di].owner;
                let oi = owner.0 as usize;
                if oi < self.procs.len() && self.inner.alive[oi] {
                    self.inner.io.wakes += 1;
                    self.call(owner, |p, ctx| p.on_wake(Wake::FsyncDone(disk), ctx));
                }
            }
            Event::DiskFault { disk, point } => {
                let d = &mut self.inner.disks[disk.0 as usize];
                let (kind, amount) = match point {
                    DiskCrashPoint::TruncateWalTail { drop_bytes } => {
                        let n = (drop_bytes as usize).min(d.bytes.len());
                        d.bytes.truncate(d.bytes.len() - n);
                        d.synced = d.synced.min(d.bytes.len());
                        if let Some(c) = d.inflight {
                            d.inflight = Some(c.min(d.bytes.len()));
                        }
                        self.inner.io.disk_faults += 1;
                        ("disk_fault_truncate", n as u64)
                    }
                    DiskCrashPoint::FlipWalBit { back_offset } => {
                        if !d.bytes.is_empty() {
                            let last = d.bytes.len() - 1;
                            let idx = last - (back_offset as usize).min(last);
                            d.bytes[idx] ^= 1;
                        }
                        self.inner.io.disk_faults += 1;
                        ("disk_fault_flip", back_offset)
                    }
                    _ => {
                        self.inner.io.disk_faults_ignored += 1;
                        ("disk_fault_ignored", 0)
                    }
                };
                if self.inner.recorder.is_enabled() {
                    self.inner.recorder.record(
                        &format!("sim.disk.{}", disk.0),
                        Severity::Warn,
                        kind,
                        &[("amount", amount)],
                        format_args!("disk {} fault: {kind} ({amount})", disk.0),
                    );
                }
            }
        }
    }
}

/// Proc-side API surface during a callback. Network sends/timers are
/// buffered and flushed after the callback (the link's RNG draws
/// happen in action order, after the proc returns);
/// channel and disk operations take effect immediately.
pub struct WorldCtx<'a> {
    inner: &'a mut Inner,
    me: Addr,
    outbox: Vec<Action>,
}

impl fmt::Debug for WorldCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorldCtx")
            .field("me", &self.me)
            .field("now", &self.inner.sched.now())
            .finish()
    }
}

impl WorldCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.sched.now()
    }

    /// This proc's address.
    pub fn me(&self) -> Addr {
        self.me
    }

    /// Sends `payload` to `to` over the (faulty) link.
    pub fn send(&mut self, to: Addr, payload: Vec<u8>) {
        self.outbox.push(Action::Send { to, payload });
    }

    /// Arms a one-shot timer firing after `delay_us` (clamped to ≥ 1µs)
    /// with `tag` — the explicit *sleep* blocking point.
    pub fn set_timer(&mut self, delay_us: u64, tag: u64) {
        self.outbox.push(Action::Timer { delay_us, tag });
    }

    /// Attempts a non-blocking bounded-channel send. On a full channel
    /// the message comes back in `Err` — register with
    /// [`chan_wait_writable`](Self::chan_wait_writable) and retry on
    /// [`Wake::ChanWritable`].
    ///
    /// # Errors
    ///
    /// Returns `Err(msg)` when the channel is at capacity.
    pub fn chan_try_send(&mut self, chan: ChanId, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        let c = &mut self.inner.chans[chan.0 as usize];
        if c.buf.len() >= c.cap {
            self.inner.io.chan_full += 1;
            return Err(msg);
        }
        c.buf.push_back(msg);
        self.inner.io.chan_sends += 1;
        let waiters = std::mem::take(&mut self.inner.chans[chan.0 as usize].read_waiters);
        self.inner.wake_all(waiters, Wake::ChanReadable(chan));
        Ok(())
    }

    /// Attempts a non-blocking bounded-channel receive.
    pub fn chan_try_recv(&mut self, chan: ChanId) -> Option<Vec<u8>> {
        let c = &mut self.inner.chans[chan.0 as usize];
        let msg = c.buf.pop_front()?;
        self.inner.io.chan_recvs += 1;
        let waiters = std::mem::take(&mut self.inner.chans[chan.0 as usize].write_waiters);
        self.inner.wake_all(waiters, Wake::ChanWritable(chan));
        Some(msg)
    }

    /// Registers this proc for a [`Wake::ChanReadable`] — the explicit
    /// *blocked receive*. Level-triggered: if the channel already has a
    /// message, the wake fires at the current instant (no lost-wakeup
    /// window between a producer's send and this registration).
    pub fn chan_wait_readable(&mut self, chan: ChanId) {
        if !self.inner.chans[chan.0 as usize].buf.is_empty() {
            let now = self.inner.sched.now();
            self.inner.push_event(
                now,
                Event::Wake {
                    node: self.me,
                    wake: Wake::ChanReadable(chan),
                },
            );
            return;
        }
        self.inner.chans[chan.0 as usize]
            .read_waiters
            .insert(self.me.0);
    }

    /// Registers this proc for a [`Wake::ChanWritable`] — the explicit
    /// *blocked send*. Level-triggered like
    /// [`chan_wait_readable`](Self::chan_wait_readable).
    pub fn chan_wait_writable(&mut self, chan: ChanId) {
        let c = &self.inner.chans[chan.0 as usize];
        if c.buf.len() < c.cap {
            let now = self.inner.sched.now();
            self.inner.push_event(
                now,
                Event::Wake {
                    node: self.me,
                    wake: Wake::ChanWritable(chan),
                },
            );
            return;
        }
        self.inner.chans[chan.0 as usize]
            .write_waiters
            .insert(self.me.0);
    }

    /// Appends bytes to a disk (volatile until fsynced).
    pub fn disk_write(&mut self, disk: DiskId, bytes: &[u8]) {
        let d = &mut self.inner.disks[disk.0 as usize];
        d.bytes.extend_from_slice(bytes);
        self.inner.io.disk_bytes_written += bytes.len() as u64;
    }

    /// Requests an fsync covering everything written so far; the owning
    /// proc gets a [`Wake::FsyncDone`] when the disk's latency elapses —
    /// the explicit *fsync* blocking point. A request while one is in
    /// flight extends its coverage to the current length without
    /// changing its completion time.
    pub fn disk_fsync(&mut self, disk: DiskId) {
        let di = disk.0 as usize;
        let len = self.inner.disks[di].bytes.len();
        if self.inner.disks[di].inflight.is_some() {
            self.inner.disks[di].inflight = Some(len);
            return;
        }
        self.inner.disks[di].inflight = Some(len);
        let at = self
            .inner
            .sched
            .now()
            .after(self.inner.disks[di].fsync_latency_us.max(1));
        self.inner.push_event(at, Event::FsyncDone { disk });
    }

    /// A disk's durable prefix length.
    pub fn disk_synced(&self, disk: DiskId) -> usize {
        self.inner.disks[disk.0 as usize].synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crash, FaultPlan, LinkConfig, Partition};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    struct Pipe {
        chan: ChanId,
        to_send: u32,
        sent: u32,
    }
    impl Pipe {
        fn pump(&mut self, ctx: &mut WorldCtx<'_>) {
            while self.sent < self.to_send {
                if ctx.chan_try_send(self.chan, vec![self.sent as u8]).is_err() {
                    ctx.chan_wait_writable(self.chan);
                    return;
                }
                self.sent += 1;
            }
        }
    }
    impl Proc for Pipe {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            self.pump(ctx);
        }
        fn on_wake(&mut self, _w: Wake, ctx: &mut WorldCtx<'_>) {
            self.pump(ctx);
        }
    }

    struct Drain {
        chan: ChanId,
        got: Rc<RefCell<Vec<u8>>>,
    }
    impl Proc for Drain {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            ctx.chan_wait_readable(self.chan);
        }
        fn on_wake(&mut self, _w: Wake, ctx: &mut WorldCtx<'_>) {
            while let Some(m) = ctx.chan_try_recv(self.chan) {
                self.got.borrow_mut().push(m[0]);
            }
            ctx.chan_wait_readable(self.chan);
        }
    }

    #[test]
    fn bounded_channel_blocks_and_wakes_in_fifo_order() {
        let mut w = World::new(SimConfig::default());
        let chan = w.add_chan(3);
        let got = Rc::new(RefCell::new(Vec::new()));
        w.add_proc(Box::new(Pipe {
            chan,
            to_send: 10,
            sent: 0,
        }));
        w.add_proc(Box::new(Drain {
            chan,
            got: got.clone(),
        }));
        w.run();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<u8>>());
        let io = w.io_stats();
        assert_eq!(io.chan_sends, 10);
        assert_eq!(io.chan_recvs, 10);
        assert!(io.chan_full >= 1, "capacity 3 must block a burst of 10");
    }

    struct Journaler {
        disk: DiskId,
        synced_seen: Rc<Cell<usize>>,
    }
    impl Proc for Journaler {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            ctx.disk_write(self.disk, b"hello ");
            ctx.disk_fsync(self.disk);
            ctx.disk_write(self.disk, b"world"); // after the sync point
        }
        fn on_wake(&mut self, w: Wake, ctx: &mut WorldCtx<'_>) {
            assert_eq!(w, Wake::FsyncDone(self.disk));
            self.synced_seen.set(ctx.disk_synced(self.disk));
        }
    }

    #[test]
    fn fsync_covers_only_bytes_written_before_the_request() {
        let mut w = World::new(SimConfig::default());
        let synced_seen = Rc::new(Cell::new(0));
        let owner = Addr(0);
        let disk = w.add_disk(owner, 500);
        w.add_proc(Box::new(Journaler {
            disk,
            synced_seen: synced_seen.clone(),
        }));
        w.run();
        assert_eq!(synced_seen.get(), 6, "only the pre-fsync prefix");
        assert_eq!(w.disk_bytes(disk), b"hello world");
        assert_eq!(w.io_stats().fsyncs, 1);
    }

    struct CrashyWriter {
        disk: DiskId,
    }
    impl Proc for CrashyWriter {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            ctx.disk_write(self.disk, b"durable");
            ctx.disk_fsync(self.disk);
            ctx.set_timer(10_000, 1);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut WorldCtx<'_>) {
            ctx.disk_write(self.disk, b" volatile");
        }
    }

    #[test]
    fn crash_truncates_disks_to_the_synced_prefix() {
        let mut w = World::new(SimConfig {
            faults: FaultPlan {
                crashes: vec![Crash {
                    node: Addr(0),
                    at_us: 50_000,
                    restart_us: 60_000,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        let disk = w.add_disk(Addr(0), 100);
        w.add_proc(Box::new(CrashyWriter { disk }));
        w.run();
        assert_eq!(w.disk_bytes(disk), b"durable");
        assert_eq!(w.io_stats().disk_bytes_lost, 9);
        assert_eq!(w.net_stats().crashes, 1);
    }

    #[test]
    fn disk_faults_fire_at_exact_instants() {
        struct W {
            disk: DiskId,
        }
        impl Proc for W {
            fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
                ctx.disk_write(self.disk, &[0u8; 8]);
                ctx.disk_fsync(self.disk);
            }
        }
        let mut w = World::new(SimConfig::default());
        let disk = w.add_disk(Addr(0), 10);
        w.add_proc(Box::new(W { disk }));
        w.schedule_disk_fault(
            SimTime(1_000),
            disk,
            DiskCrashPoint::TruncateWalTail { drop_bytes: 3 },
        );
        w.schedule_disk_fault(
            SimTime(2_000),
            disk,
            DiskCrashPoint::FlipWalBit { back_offset: 0 },
        );
        w.run();
        assert_eq!(w.disk_bytes(disk).len(), 5);
        assert_eq!(w.disk_bytes(disk)[4], 1, "lowest bit of the tail flipped");
        assert_eq!(w.io_stats().disk_faults, 2);
    }

    #[test]
    fn fuel_exhaustion_stops_a_runaway_world() {
        struct PingPong {
            peer: Option<Addr>,
        }
        impl Proc for PingPong {
            fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
                if let Some(p) = self.peer {
                    ctx.send(p, vec![0]);
                }
            }
            fn on_message(&mut self, from: Addr, p: Vec<u8>, ctx: &mut WorldCtx<'_>) {
                ctx.send(from, p);
            }
        }
        let mut w = World::new(SimConfig {
            max_events: 500,
            ..SimConfig::default()
        });
        let a = w.add_proc(Box::new(PingPong { peer: None }));
        w.add_proc(Box::new(PingPong { peer: Some(a) }));
        let processed = w.run();
        assert_eq!(processed, 500);
        assert!(w.fuel_exhausted());
        let again = w.run();
        assert_eq!(again, 0, "an exhausted world refuses to dispatch");
    }

    // --- the link/fault model -------------------------------------------

    struct Counter {
        hits: Rc<Cell<u64>>,
    }
    impl Proc for Counter {
        fn on_message(&mut self, _f: Addr, _p: Vec<u8>, _c: &mut WorldCtx<'_>) {
            self.hits.set(self.hits.get() + 1);
        }
    }

    struct Sender {
        to: Addr,
        n: u32,
    }
    impl Proc for Sender {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            for i in 0..self.n {
                ctx.send(self.to, vec![i as u8]);
            }
        }
    }

    /// `n` messages from a fresh sender to a counter under `config`:
    /// (delivered, final clock, net stats).
    fn send_burst(config: SimConfig, n: u32) -> (u64, SimTime, SimStats) {
        let mut w = World::new(config);
        let hits = Rc::new(Cell::new(0));
        let c = w.add_proc(Box::new(Counter { hits: hits.clone() }));
        w.add_proc(Box::new(Sender { to: c, n }));
        w.run();
        (hits.get(), w.now(), w.net_stats())
    }

    #[test]
    fn messages_are_delivered_with_latency() {
        let (hits, now, net) = send_burst(SimConfig::default(), 5);
        assert_eq!(hits, 5);
        assert!(now.0 >= 1_000, "latency must advance time");
        assert_eq!(net.delivered, 5);
    }

    #[test]
    fn total_loss_drops_everything() {
        let config = SimConfig {
            link: LinkConfig {
                loss_per_mille: 1000,
                ..LinkConfig::default()
            },
            ..SimConfig::default()
        };
        let (hits, _, net) = send_burst(config, 10);
        assert_eq!(hits, 0);
        assert_eq!(net.dropped, 10);
    }

    #[test]
    fn partial_loss_is_seeded_and_partial() {
        let run = |seed| {
            let config = SimConfig {
                seed,
                link: LinkConfig {
                    loss_per_mille: 500,
                    ..LinkConfig::default()
                },
                ..SimConfig::default()
            };
            send_burst(config, 100).0
        };
        let a = run(1);
        assert_eq!(a, run(1), "same seed, same delivery");
        assert!(a > 10 && a < 90, "roughly half delivered, got {a}");
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let config = SimConfig {
            faults: FaultPlan {
                dup_per_mille: 1000,
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        let (hits, _, net) = send_burst(config, 10);
        assert_eq!(hits, 20, "every message doubled");
        assert_eq!(net.duplicated, 10);
    }

    #[test]
    fn reordering_window_shuffles_arrival_order() {
        struct OrderProbe {
            got: Rc<RefCell<Vec<u8>>>,
        }
        impl Proc for OrderProbe {
            fn on_message(&mut self, _f: Addr, p: Vec<u8>, _c: &mut WorldCtx<'_>) {
                self.got.borrow_mut().push(p[0]);
            }
        }
        let run = |reorder_pm| {
            let mut w = World::new(SimConfig {
                seed: 7,
                link: LinkConfig {
                    jitter_us: 0,
                    ..LinkConfig::default()
                },
                faults: FaultPlan {
                    reorder_per_mille: reorder_pm,
                    reorder_window_us: if reorder_pm > 0 { 50_000 } else { 0 },
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            });
            let got = Rc::new(RefCell::new(Vec::new()));
            let probe = w.add_proc(Box::new(OrderProbe { got: got.clone() }));
            w.add_proc(Box::new(Sender { to: probe, n: 30 }));
            w.run();
            let order = got.borrow().clone();
            order
        };
        let in_order = run(0);
        assert!(in_order.windows(2).all(|w| w[0] <= w[1]), "no jitter, FIFO");
        let shuffled = run(500);
        assert_eq!(shuffled.len(), 30, "reordering never loses messages");
        assert!(
            shuffled.windows(2).any(|w| w[0] > w[1]),
            "a 50ms window over 1ms latency must overtake: {shuffled:?}"
        );
    }

    /// Sends one message to `to` at each listed instant.
    struct TimedSender {
        to: Addr,
        at: Vec<u64>,
    }
    impl Proc for TimedSender {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            for (i, t) in self.at.iter().enumerate() {
                ctx.set_timer(*t, i as u64);
            }
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut WorldCtx<'_>) {
            ctx.send(self.to, vec![1]);
        }
    }

    #[test]
    fn partition_blocks_both_directions_then_heals() {
        // Node 0 sends to node 1 and node 1 to node 0, once inside the
        // window and once after it heals.
        let mut w = World::new(SimConfig {
            faults: FaultPlan {
                partitions: vec![Partition {
                    a: Addr(0),
                    b: Addr(1),
                    from_us: 0,
                    until_us: 100_000,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        w.add_proc(Box::new(TimedSender {
            to: Addr(1),
            at: vec![10, 200_000],
        }));
        w.add_proc(Box::new(TimedSender {
            to: Addr(0),
            at: vec![20, 200_000],
        }));
        w.run();
        let net = w.net_stats();
        assert_eq!(net.partition_dropped, 2, "one per direction");
        assert_eq!(net.delivered, 2, "only the post-heal messages land");
    }

    #[test]
    fn outage_drops_messages_then_recovers() {
        let mut w = World::new(SimConfig {
            faults: FaultPlan {
                crashes: vec![Crash {
                    node: Addr(0),
                    at_us: 0,
                    restart_us: 10_000,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        let hits = Rc::new(Cell::new(0));
        let c = w.add_proc(Box::new(Counter { hits: hits.clone() }));
        assert_eq!(c, Addr(0), "the crash plan names the counter");
        w.add_proc(Box::new(TimedSender {
            to: c,
            at: vec![10, 50_000],
        }));
        w.run();
        assert_eq!(hits.get(), 1, "only the post-recovery message lands");
        assert_eq!(w.net_stats().dropped, 1);
    }

    #[test]
    fn scheduled_crash_fires_callbacks_and_discards_timers() {
        struct Crashy {
            crashes: Rc<Cell<u32>>,
            restarts: Rc<Cell<u32>>,
            ticks: Rc<Cell<u32>>,
        }
        impl Proc for Crashy {
            fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
                ctx.set_timer(10_000, 0); // comes due while down: discarded
            }
            fn on_timer(&mut self, _t: u64, _c: &mut WorldCtx<'_>) {
                self.ticks.set(self.ticks.get() + 1);
            }
            fn on_crash(&mut self) {
                self.crashes.set(self.crashes.get() + 1);
            }
            fn on_restart(&mut self, ctx: &mut WorldCtx<'_>) {
                self.restarts.set(self.restarts.get() + 1);
                ctx.set_timer(10, 99); // recovery path can re-arm timers
            }
        }
        let crashes = Rc::new(Cell::new(0));
        let restarts = Rc::new(Cell::new(0));
        let ticks = Rc::new(Cell::new(0));
        let mut w = World::new(SimConfig {
            faults: FaultPlan {
                crashes: vec![Crash {
                    node: Addr(0),
                    at_us: 5_000,
                    restart_us: 20_000,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        w.add_proc(Box::new(Crashy {
            crashes: crashes.clone(),
            restarts: restarts.clone(),
            ticks: ticks.clone(),
        }));
        w.run();
        assert_eq!(crashes.get(), 1);
        assert_eq!(restarts.get(), 1);
        assert_eq!(ticks.get(), 1, "only the re-armed timer fires");
        assert_eq!(w.net_stats().crashes, 1);
        assert_eq!(w.net_stats().timers, 1);
        assert_eq!(w.now(), SimTime(20_010));
    }

    #[test]
    fn faulty_runs_stay_deterministic() {
        let run = || {
            let mut w = World::new(SimConfig {
                seed: 11,
                link: LinkConfig {
                    loss_per_mille: 100,
                    ..LinkConfig::default()
                },
                faults: FaultPlan {
                    dup_per_mille: 200,
                    reorder_per_mille: 300,
                    reorder_window_us: 30_000,
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            });
            let hits = Rc::new(Cell::new(0));
            let c = w.add_proc(Box::new(Counter { hits: hits.clone() }));
            w.add_proc(Box::new(Sender { to: c, n: 64 }));
            w.run();
            (hits.get(), w.now(), w.net_stats(), w.sched_stats())
        };
        let (hits, now, net, sched) = run();
        assert_eq!((hits, now, net, sched), run());
        assert!(
            net.dropped > 0 && net.duplicated > 0,
            "faults fired: {net:?}"
        );
    }

    struct Ticker {
        ticks: Rc<Cell<u64>>,
        delay_us: u64,
        remaining: u32,
    }
    impl Proc for Ticker {
        fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
            ctx.set_timer(self.delay_us, 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
            self.ticks.set(self.ticks.get() + 1);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(self.delay_us, 0);
            }
        }
    }

    #[test]
    fn zero_delay_timer_fires_one_microsecond_later() {
        let mut w = World::new(SimConfig::default());
        let ticks = Rc::new(Cell::new(0));
        w.add_proc(Box::new(Ticker {
            ticks: ticks.clone(),
            delay_us: 0,
            remaining: 0,
        }));
        w.run();
        assert_eq!(ticks.get(), 1);
        assert_eq!(w.now(), SimTime(1), "clamped to ≥ 1µs");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w = World::new(SimConfig::default());
        let ticks = Rc::new(Cell::new(0));
        w.add_proc(Box::new(Ticker {
            ticks: ticks.clone(),
            delay_us: 100,
            remaining: 100,
        }));
        w.run_until(SimTime(250));
        assert_eq!(ticks.get(), 2, "only timers before 250us fire");
        w.run();
        assert_eq!(ticks.get(), 101);
        assert_eq!(w.now(), SimTime(10_100));
    }
}
