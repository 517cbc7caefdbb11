//! Reliable pod→hive transport: ack/retry/backoff sessions over the
//! network simulator, feeding the staged ingest pipeline through the
//! write-ahead journal.
//!
//! The paper's hive is "mostly end-user machines communicating over a
//! potentially unreliable network" (§4). This module is the layer that
//! makes ingest survive that network:
//!
//! * A [`PodClient`] owns one *session*: it assigns per-session
//!   monotonic sequence numbers to its batch frames, sends a go-back-N
//!   window, retransmits on ack timeout with capped exponential backoff
//!   plus deterministic jitter, and honors explicit hive backpressure —
//!   a `Busy` nack slows it down, and after a pressure budget it sheds
//!   its lowest-priority frames (as *tombstones*, so the sequence space
//!   stays contiguous and cumulative acks keep working).
//! * A [`HiveServer`] accepts in-order frames, appends them to the
//!   write-ahead journal ([`crate::journal`]), and acks **only after the
//!   journal sync barrier** — so an acked frame is always recoverable.
//!   Redelivered frames (network duplicates or retransmits racing acks)
//!   are deduplicated by `(session, seq)` and re-acked; out-of-order
//!   frames are answered with the current cumulative ack so the sender
//!   rewinds. On a scheduled crash the server loses its volatile state
//!   (sessions, unsynced journal tail) and rebuilds from the synced
//!   journal prefix on restart.
//! * [`run_reliable_ingest`] wires both into [`Hive::ingest_frames`]:
//!   the server node *is* the producer, claiming a slot for each frame
//!   at the moment its journal record is synced, in journal order; the
//!   claimed frames are ingested when the world has run.
//!
//! The end-to-end invariant (exercised by `tests/transport_fault.rs`):
//! under any fault plan the hive's final state, the journal replay
//! ([`Hive::recover`]), and a fault-free serial ingest of the delivered
//! traces all agree.

use crate::hive::Hive;
use crate::journal::{self, JournalIoError, JournalStore, MemJournal, REC_FRAME, REC_TOMBSTONE};
use softborg_ingest::{FrameSender, IngestConfig, IngestStats};
use softborg_netsim::{
    Addr, FaultPlan, FaultPlanError, LinkConfig, Proc, SchedStats, SimClock, SimConfig, SimStats,
    World, WorldCtx,
};
use softborg_obs::{fnv1a_step, EventSink, ObsHandles, Severity, FNV_OFFSET};
use softborg_program::codec::{self, Reader};
use softborg_program::ProgramId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Message tag: a data frame (or tombstone) from pod to hive.
const MSG_DATA: u8 = 0;
/// Message tag: a cumulative ack from hive to pod.
const MSG_ACK: u8 = 1;
/// Message tag: a backpressure nack from hive to pod.
const MSG_BUSY: u8 = 2;

/// The server's sync-tick timer tag (clients tag timers with epochs).
const TICK_TAG: u64 = u64::MAX;

/// Hard cap on the exponential backoff shift.
const MAX_BACKOFF_EXP: u32 = 16;

/// `MSG_DATA | u8 kind | u64 session | u64 seq | frame`.
fn data_msg(kind: u8, session: u64, seq: u64, frame: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(18 + frame.len());
    codec::put_u8(&mut v, MSG_DATA);
    codec::put_u8(&mut v, kind);
    codec::put_u64(&mut v, session);
    codec::put_u64(&mut v, seq);
    v.extend_from_slice(frame);
    v
}

/// `kind, session, seq, frame` of a [`data_msg`]; `None` for any other
/// message.
fn read_data(payload: &[u8]) -> Option<(u8, u64, u64, &[u8])> {
    let mut r = Reader::new(payload);
    if r.u8("message tag").ok()? != MSG_DATA {
        return None;
    }
    let (kind, session, seq) = (
        r.u8("kind").ok()?,
        r.u64("session").ok()?,
        r.u64("seq").ok()?,
    );
    Some((kind, session, seq, r.take(r.remaining(), "frame").ok()?))
}

/// `u8 tag | u64 session | u64 value`: an ack or a nack.
fn ctl_msg(tag: u8, session: u64, value: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(17);
    codec::put_u8(&mut v, tag);
    codec::put_u64(&mut v, session);
    codec::put_u64(&mut v, value);
    v
}

/// `tag, session, value` of a [`ctl_msg`]; `None` unless the payload
/// is exactly one.
fn read_ctl(payload: &[u8]) -> Option<(u8, u64, u64)> {
    let mut r = Reader::new(payload);
    let msg = (
        r.u8("tag").ok()?,
        r.u64("session").ok()?,
        r.u64("value").ok()?,
    );
    r.is_empty().then_some(msg)
}

/// Counters shared by every node in one transport run.
#[derive(Debug, Default)]
struct Metrics {
    delivered: u64,
    tombstones: u64,
    duplicates: u64,
    retransmits: u64,
    busy_nacks: u64,
    shed: u64,
    recoveries: u64,
    sessions_done: u64,
    recovery_tail_dropped: u64,
    journal_error: Option<JournalIoError>,
}

/// A deliberately injectable platform bug, for exercising the fault
/// search's find-and-shrink path end to end (`softborg-search`). Each
/// canary is a real bug class this transport's invariants exist to
/// prevent, reintroduced behind a config flag: with `canary: None`
/// (the default) the code path is byte-for-byte the correct protocol,
/// and every canary is *dormant until a server crash* — a fault-free
/// run behaves identically, so the search's fault-free baseline stays
/// valid and any minimal reproducer must contain a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanaryBug {
    /// On restart, skip rebuilding the session dedup floors from the
    /// synced journal. The recovered server insists on `seq 0` while
    /// every client is already past it and ignores the stale ack —
    /// sessions that had acked progress livelock and the run never
    /// completes (and early-crash sessions double-ingest).
    SkipFloorReseed,
    /// Ack a frame the moment it is accepted, before the journal sync
    /// barrier. A crash between accept and sync loses the frame, but
    /// the client — already acked — never retransmits it: a silent
    /// drop that still reports a completed run.
    AckBeforeSync,
    /// Rebuild recovery floors one frame too high. The client's
    /// retransmit of the frame *at* the true floor is "deduplicated"
    /// without ever having been journaled or merged: one frame
    /// silently vanishes per recovered session.
    FloorOffByOne,
}

impl CanaryBug {
    /// Every canary, for sweeps over the whole set.
    pub const ALL: [CanaryBug; 3] = [
        CanaryBug::SkipFloorReseed,
        CanaryBug::AckBeforeSync,
        CanaryBug::FloorOffByOne,
    ];

    /// Stable identifier (CLI flags, corpus entries, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            CanaryBug::SkipFloorReseed => "skip_floor_reseed",
            CanaryBug::AckBeforeSync => "ack_before_sync",
            CanaryBug::FloorOffByOne => "floor_off_by_one",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<CanaryBug> {
        CanaryBug::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl std::fmt::Display for CanaryBug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Transport tuning knobs. Network behaviour (latency, loss, duplication,
/// reordering, partitions, server crashes) lives in `link` and `faults`;
/// the rest parameterizes the session protocol itself.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Link model between every pair of nodes.
    pub link: LinkConfig,
    /// Injected faults. Node addresses: pods are `0..n_pods`, the hive
    /// server is `n_pods`. Only the server tolerates being crash
    /// scheduled (pods model end-user machines that simply stop).
    pub faults: FaultPlan,
    /// Base ack timeout before the first retransmit (µs).
    pub ack_timeout_us: u64,
    /// Cap on the exponentially backed-off retransmit delay (µs).
    pub max_backoff_us: u64,
    /// Go-back-N window: unacked frames in flight per session.
    pub window: u64,
    /// Server backlog budget: unsynced journal records it accepts before
    /// answering `Busy`.
    pub busy_budget: usize,
    /// Client pressure events (timeouts + `Busy` nacks) tolerated before
    /// one lowest-priority frame is shed. `u32::MAX` disables shedding.
    pub shed_budget: u32,
    /// Journal fsync-batching interval (µs): accepted frames are synced,
    /// submitted to the pipeline, and acked at this cadence.
    pub sync_interval_us: u64,
    /// The world's fuel: the run stops after this many dispatched
    /// events (a safety cap, and the prefix length of a bisection probe).
    pub max_events: u64,
    /// Injected platform bug for fault-search canary testing
    /// ([`CanaryBug`]). `None` (the default) is the correct protocol.
    pub canary: Option<CanaryBug>,
    /// Telemetry sinks: session/server flight-recorder events
    /// (`transport.client.<n>` / `transport.server` sources) and
    /// post-run `transport.*` registry counters. Default records
    /// nothing; recovery warnings then fall back to the process-wide
    /// ops recorder so they are never silently lost.
    pub obs: ObsHandles,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            seed: 0,
            link: LinkConfig::default(),
            faults: FaultPlan::default(),
            ack_timeout_us: 30_000,
            max_backoff_us: 1_000_000,
            window: 8,
            busy_budget: 64,
            shed_budget: u32::MAX,
            sync_interval_us: 5_000,
            max_events: 4_000_000,
            canary: None,
            obs: ObsHandles::default(),
        }
    }
}

/// What one reliable-ingest run did.
#[derive(Debug, Clone)]
pub struct TransportReport {
    /// Every session delivered (or shed) its whole frame sequence and
    /// saw it acked.
    pub completed: bool,
    /// Frames accepted first-time by the server (journaled as frames).
    pub delivered: u64,
    /// Tombstoned slots accepted (frames shed by clients).
    pub tombstones: u64,
    /// Redeliveries discarded by `(session, seq)` dedup.
    pub duplicates: u64,
    /// Client retransmissions (frames sent more than once).
    pub retransmits: u64,
    /// `Busy` nacks the server sent under backlog pressure.
    pub busy_nacks: u64,
    /// Frames clients shed after exhausting the pressure budget.
    pub shed: u64,
    /// Frames covered by the synced journal (== acked, by the
    /// ack-after-sync invariant).
    pub acked: u64,
    /// Server crash→restart recoveries performed.
    pub recoveries: u64,
    /// Journal sync barriers issued (fsync batches).
    pub journal_syncs: u64,
    /// Journal bytes dropped by crashes (accepted but never synced, so
    /// never acked — clients retransmitted them).
    pub journal_lost_bytes: u64,
    /// Unsynced/corrupt journal-tail bytes the server discarded while
    /// rebuilding session floors after crashes. Never silently dropped:
    /// each recovery that discards a tail also logs a warning line.
    pub recovery_tail_dropped: u64,
    /// First fatal journal I/O error (e.g. `ENOSPC`) the server hit, if
    /// any. Affected frames were refused (nacked `Busy`), never acked.
    pub journal_error: Option<JournalIoError>,
    /// The synced journal at the end of the run — feed it to
    /// [`Hive::recover`] to rebuild the hive from scratch.
    pub journal: Vec<u8>,
    /// Network-level counters.
    pub net: SimStats,
    /// Scheduler counters and the dispatch-trace hash — the run's
    /// replay identity.
    pub sched: SchedStats,
}

struct OutFrame {
    priority: u8,
    bytes: Vec<u8>,
    shed: bool,
}

/// The pod side of one ingest session: a [`Proc`] that reliably
/// streams pre-encoded batch frames to the hive server.
pub struct PodClient {
    server: Addr,
    session: u64,
    frames: Vec<OutFrame>,
    /// Cumulative ack received: all `seq < base` are durable at the hive.
    base: u64,
    /// High-water mark of sequences ever sent (for retransmit counting).
    sent_upto: u64,
    window: u64,
    ack_timeout_us: u64,
    max_backoff_us: u64,
    backoff_exp: u32,
    /// Timer-generation tag: a fired timer with a stale epoch is ignored.
    epoch: u64,
    pressure: u32,
    shed_budget: u32,
    done: bool,
    metrics: Rc<RefCell<Metrics>>,
    events: EventSink,
}

impl PodClient {
    /// Creates the client for session `session` (by convention also its
    /// node address), streaming `frames` as `(priority, encoded batch)`
    /// pairs. Higher priority values survive shedding longer.
    pub fn new(
        session: u64,
        server: Addr,
        frames: Vec<(u8, Vec<u8>)>,
        cfg: &TransportConfig,
    ) -> Self {
        PodClient {
            server,
            session,
            frames: frames
                .into_iter()
                .map(|(priority, bytes)| OutFrame {
                    priority,
                    bytes,
                    shed: false,
                })
                .collect(),
            base: 0,
            sent_upto: 0,
            window: cfg.window.max(1),
            ack_timeout_us: cfg.ack_timeout_us.max(1),
            max_backoff_us: cfg.max_backoff_us.max(cfg.ack_timeout_us),
            backoff_exp: 0,
            epoch: 0,
            pressure: 0,
            shed_budget: cfg.shed_budget,
            done: false,
            metrics: Rc::new(RefCell::new(Metrics::default())),
            events: cfg
                .obs
                .recorder
                .source(&format!("transport.client.{session}")),
        }
    }

    fn with_metrics(mut self, metrics: Rc<RefCell<Metrics>>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Current retransmit delay: capped exponential backoff plus a
    /// deterministic jitter drawn from the session and epoch (no shared
    /// RNG — two clients never sync their retry storms).
    fn rto(&self) -> u64 {
        let backed = self
            .ack_timeout_us
            .saturating_mul(1u64 << self.backoff_exp.min(MAX_BACKOFF_EXP))
            .min(self.max_backoff_us);
        let jitter_span = (self.ack_timeout_us / 2).max(1);
        let jitter = fnv1a_step(
            FNV_OFFSET,
            &[self.session.to_le_bytes(), self.epoch.to_le_bytes()].concat(),
        ) % jitter_span;
        backed + jitter
    }

    fn arm(&mut self, ctx: &mut WorldCtx<'_>) {
        self.epoch += 1;
        ctx.set_timer(self.rto(), self.epoch);
    }

    /// Sends the go-back-N window `[base, base+window)`. On the normal
    /// path (`rewind == false`) only frames not yet sent go out; a
    /// timeout rewinds to `base` and resends everything unacked.
    fn send_window(&mut self, ctx: &mut WorldCtx<'_>, rewind: bool) {
        let total = self.frames.len() as u64;
        let end = (self.base + self.window).min(total);
        let start = if rewind {
            self.base
        } else {
            self.base.max(self.sent_upto)
        };
        for seq in start..end {
            let f = &self.frames[seq as usize];
            if seq < self.sent_upto {
                self.metrics.borrow_mut().retransmits += 1;
                self.events.record(
                    Severity::Debug,
                    "retransmit",
                    &[("seq", seq), ("backoff_exp", u64::from(self.backoff_exp))],
                    format_args!("session {} resent seq {seq}", self.session),
                );
            }
            let (kind, bytes) = if f.shed {
                (REC_TOMBSTONE, &[][..])
            } else {
                (REC_FRAME, f.bytes.as_slice())
            };
            ctx.send(self.server, data_msg(kind, self.session, seq, bytes));
        }
        self.sent_upto = self.sent_upto.max(end);
    }

    /// One pressure event (ack timeout or `Busy`): slow down, and once
    /// the budget is exhausted shed the lowest-priority unacked frame —
    /// as a tombstone, so the sequence space stays contiguous and
    /// cumulative acks are unaffected.
    fn under_pressure(&mut self) {
        self.pressure = self.pressure.saturating_add(1);
        self.backoff_exp = (self.backoff_exp + 1).min(MAX_BACKOFF_EXP);
        if self.pressure <= self.shed_budget {
            return;
        }
        let total = self.frames.len() as u64;
        let mut pick: Option<(u8, u64)> = None;
        for seq in self.base..total {
            let f = &self.frames[seq as usize];
            if f.shed {
                continue;
            }
            // Lowest priority loses; among equals, the newest goes first.
            let better = match pick {
                None => true,
                Some((p, s)) => f.priority < p || (f.priority == p && seq > s),
            };
            if better {
                pick = Some((f.priority, seq));
            }
        }
        if let Some((priority, seq)) = pick {
            self.frames[seq as usize].shed = true;
            self.metrics.borrow_mut().shed += 1;
            self.events.warn(
                "shed",
                &[("seq", seq), ("priority", u64::from(priority))],
                format_args!(
                    "session {} shed seq {seq} (priority {priority}) under pressure",
                    self.session
                ),
            );
        }
        self.pressure = 0;
    }

    fn finish_if_done(&mut self) -> bool {
        if !self.done && self.base >= self.frames.len() as u64 {
            self.done = true;
            self.metrics.borrow_mut().sessions_done += 1;
            self.events.info(
                "session_done",
                &[("frames", self.frames.len() as u64)],
                format_args!("session {} fully acked", self.session),
            );
        }
        self.done
    }
}

impl Proc for PodClient {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        if self.finish_if_done() {
            return; // nothing to stream
        }
        self.send_window(ctx, false);
        self.arm(ctx);
    }

    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        let Some((tag, session, value)) = read_ctl(&payload) else {
            return;
        };
        if self.done || session != self.session {
            return;
        }
        match tag {
            MSG_ACK if value > self.base => {
                self.base = value;
                self.backoff_exp = 0;
                self.pressure = 0;
                if self.finish_if_done() {
                    return;
                }
                self.send_window(ctx, false);
                self.arm(ctx);
            }
            MSG_ACK => {} // stale or duplicate ack
            MSG_BUSY => {
                // The hive told us to slow down: back off without
                // retransmitting; the pushed-out timer drives the retry.
                self.under_pressure();
                self.arm(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut WorldCtx<'_>) {
        if self.done || tag != self.epoch {
            return; // finished, or a stale timer from a superseded epoch
        }
        self.under_pressure();
        self.send_window(ctx, true);
        self.arm(ctx);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SessionState {
    /// Next expected sequence (everything below is journaled).
    accepted: u64,
    /// Cumulative ack floor: everything below is journaled *and synced*.
    synced: u64,
    /// A sync/ack is owed since the last tick.
    dirty: bool,
}

/// The hive side: a [`Proc`] that accepts session frames, journals
/// them ahead of merge, acks after sync, and claims an ingest slot for
/// each synced frame ([`FrameSender`]).
pub struct HiveServer {
    tx: FrameSender,
    /// The hive's program: every frame claims a slot in its lane.
    program: ProgramId,
    journal: Rc<RefCell<MemJournal>>,
    /// Per-session state. BTreeMap: ack emission order must be
    /// deterministic for reproducible runs.
    sessions: BTreeMap<u64, SessionState>,
    /// Accepted-but-unsynced records, in journal order, awaiting the
    /// next sync tick (the fsync batch).
    pending: Vec<(u8, Vec<u8>)>,
    tick_armed: bool,
    sync_interval_us: u64,
    busy_budget: usize,
    lost_bytes: u64,
    canary: Option<CanaryBug>,
    metrics: Rc<RefCell<Metrics>>,
    events: EventSink,
    recorder: softborg_obs::FlightRecorder,
}

impl HiveServer {
    /// Creates the server feeding `tx` (a live pipeline's sender) in
    /// `program`'s lane. The journal is shared so the orchestrator can
    /// read it back after the simulation ends.
    pub fn new(
        tx: FrameSender,
        program: ProgramId,
        journal: Rc<RefCell<MemJournal>>,
        cfg: &TransportConfig,
    ) -> Self {
        HiveServer {
            tx,
            program,
            journal,
            sessions: BTreeMap::new(),
            pending: Vec::new(),
            tick_armed: false,
            sync_interval_us: cfg.sync_interval_us.max(1),
            busy_budget: cfg.busy_budget.max(1),
            lost_bytes: 0,
            canary: cfg.canary,
            metrics: Rc::new(RefCell::new(Metrics::default())),
            events: cfg.obs.recorder.source("transport.server"),
            recorder: cfg.obs.recorder.clone(),
        }
    }

    fn with_metrics(mut self, metrics: Rc<RefCell<Metrics>>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Raises every session's dedup floor to cover `journal` (a scanned
    /// journal image — this process's own after a crash, or a *prior
    /// process's* synced journal when resuming a campaign). Frames below
    /// the floor are re-acked as duplicates instead of re-ingested, so
    /// retransmits that cross a process restart cannot double-count.
    ///
    /// A corrupt or unsynced tail is dropped — but counted and warned
    /// about, never silently.
    fn seed_sessions(&mut self, journal: &[u8]) {
        let (records, scan) = journal::scan(journal);
        if let Some(err) = scan.tail_error {
            self.recorder.warn_or_ops(
                "transport.server",
                "recovery_tail_dropped",
                &[
                    ("tail_bytes", scan.tail_dropped as u64),
                    ("intact_records", scan.records as u64),
                ],
                format_args!(
                    "hive transport recovery dropped {} journal tail byte(s) \
                     after {} intact record(s): {err}",
                    scan.tail_dropped, scan.records
                ),
            );
            self.metrics.borrow_mut().recovery_tail_dropped += scan.tail_dropped as u64;
        }
        for (session, floor) in journal::session_floors(&records) {
            // CANARY FloorOffByOne: claim one more frame than the journal
            // holds — the client's frame at the true floor will be
            // "deduplicated" without ever having been ingested.
            let floor = match self.canary {
                Some(CanaryBug::FloorOffByOne) if floor > 0 => floor + 1,
                _ => floor,
            };
            let state = self.sessions.entry(session).or_default();
            state.accepted = state.accepted.max(floor);
            state.synced = state.accepted;
        }
    }
}

impl Proc for HiveServer {
    fn on_message(&mut self, from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        let Some((kind, session, seq, frame)) = read_data(&payload) else {
            return;
        };
        if kind != REC_FRAME && kind != REC_TOMBSTONE {
            return;
        }
        let state = self.sessions.entry(session).or_default();
        if seq < state.accepted {
            // Redelivery (network duplicate, or a retransmit racing an
            // ack): idempotent — discard and re-ack the synced floor.
            self.metrics.borrow_mut().duplicates += 1;
            self.events.record(
                Severity::Debug,
                "dedup",
                &[("session", session), ("seq", seq)],
                format_args!("duplicate frame {session}/{seq} discarded, re-acked"),
            );
            ctx.send(from, ctl_msg(MSG_ACK, session, state.synced));
            return;
        }
        if seq > state.accepted {
            // Go-back-N gap: remind the sender where we actually are.
            ctx.send(from, ctl_msg(MSG_ACK, session, state.synced));
            return;
        }
        if self.pending.len() >= self.busy_budget {
            // Backlog full: push back instead of buffering unboundedly.
            self.metrics.borrow_mut().busy_nacks += 1;
            self.events.record(
                Severity::Debug,
                "busy_nack",
                &[("session", session), ("seq", seq)],
                format_args!("backlog full, nacked {session}/{seq}"),
            );
            ctx.send(from, ctl_msg(MSG_BUSY, session, seq));
            return;
        }
        // Accept: journal ahead of merge. The ack waits for the sync
        // tick — never promise durability before the barrier.
        let mut rec = Vec::new();
        journal::append_record(&mut rec, kind, session, seq, frame);
        if let Err(err) = self.journal.borrow_mut().append(&rec) {
            // Disk refused the record (ENOSPC and friends): the frame is
            // NOT accepted — nack `Busy` so the client backs off and
            // retries, and latch the first error for the report.
            let mut m = self.metrics.borrow_mut();
            m.busy_nacks += 1;
            if m.journal_error.is_none() {
                self.events.record(
                    Severity::Error,
                    "journal_error",
                    &[("session", session), ("seq", seq)],
                    format_args!("journal refused frame {session}/{seq}: {err}"),
                );
                m.journal_error = Some(err);
            }
            drop(m);
            ctx.send(from, ctl_msg(MSG_BUSY, session, seq));
            return;
        }
        state.accepted += 1;
        state.dirty = true;
        // CANARY AckBeforeSync: promise durability the journal cannot yet
        // back — a crash before the sync tick loses this frame for good.
        if self.canary == Some(CanaryBug::AckBeforeSync) {
            state.synced = state.accepted;
            state.dirty = false;
            ctx.send(from, ctl_msg(MSG_ACK, session, state.synced));
        }
        self.pending.push((kind, frame.to_vec()));
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.set_timer(self.sync_interval_us, TICK_TAG);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        // Sync tick: one fsync batch covers every frame accepted since
        // the last tick. Only now do the frames enter the pipeline and
        // the acks go out — the ack-after-sync invariant.
        self.tick_armed = false;
        if let Err(err) = self.journal.borrow_mut().sync() {
            // The barrier failed: nothing new is durable, so nothing may
            // be submitted or acked. Keep the backlog, latch the error,
            // and retry the barrier at the next tick.
            let mut m = self.metrics.borrow_mut();
            if m.journal_error.is_none() {
                m.journal_error = Some(err);
            }
            drop(m);
            self.tick_armed = true;
            ctx.set_timer(self.sync_interval_us, TICK_TAG);
            return;
        }
        self.events.record(
            Severity::Debug,
            "fsync",
            &[("records", self.pending.len() as u64)],
            format_args!("sync barrier covered {} record(s)", self.pending.len()),
        );
        for (kind, frame) in self.pending.drain(..) {
            // Delivery metrics count here, at the barrier: a frame
            // accepted but crashed away before sync was never delivered
            // (its client re-sends it and it is counted on the retry).
            if kind == REC_FRAME {
                self.metrics.borrow_mut().delivered += 1;
                self.tx
                    .submit_for(self.program, frame)
                    .expect("the hive's own program has a lane");
            } else {
                self.metrics.borrow_mut().tombstones += 1;
            }
        }
        for (&session, state) in self.sessions.iter_mut() {
            if state.dirty {
                state.synced = state.accepted;
                state.dirty = false;
                ctx.send(
                    Addr(session as u32),
                    ctl_msg(MSG_ACK, session, state.synced),
                );
            }
        }
    }

    fn on_crash(&mut self) {
        // Process death: volatile state is gone. The journal's unsynced
        // tail goes with it (the OS never promised those bytes), and
        // since unsynced frames were never acked, clients still own them.
        let lost = self.journal.borrow_mut().crash() as u64;
        self.lost_bytes += lost;
        self.events.warn(
            "crash",
            &[
                ("unsynced_bytes_lost", lost),
                ("pending_records", self.pending.len() as u64),
            ],
            format_args!("server crashed: {lost} unsynced journal byte(s) lost"),
        );
        self.pending.clear();
        self.sessions.clear();
        self.tick_armed = false;
    }

    fn on_restart(&mut self, _ctx: &mut WorldCtx<'_>) {
        // Recovery is a journal scan: rebuild every session's cumulative
        // floor from the synced prefix. Synced frames were already
        // submitted to the pipeline (sync and submit are one atomic tick
        // here), so replay feeds only the dedup state, not the merger.
        self.metrics.borrow_mut().recoveries += 1;
        self.events.info(
            "recovery",
            &[("recoveries", self.metrics.borrow().recoveries)],
            "server restarted, rebuilding session floors from synced journal",
        );
        // CANARY SkipFloorReseed: recover without rebuilding the dedup
        // floors — the server demands seq 0 from clients already past it.
        if self.canary != Some(CanaryBug::SkipFloorReseed) {
            let bytes = self.journal.borrow().bytes().to_vec();
            self.seed_sessions(&bytes);
        }
        // Clients' retransmit timers re-drive the stream; the server is
        // purely reactive and needs no timer of its own until data
        // arrives.
    }
}

/// Streams every pod's frames to the hive over the simulated network
/// with the full session protocol, claiming an ingest slot for each
/// frame as it becomes durable. Pods are procs `0..pods.len()`,
/// the server is proc `pods.len()` (address fault plans accordingly).
///
/// The whole network runs in one [`World`] inside the ingest run's
/// producer, on the calling thread. The engine's gauges and the caller's flight recorders
/// (`ingest_cfg.obs`, `cfg.obs`) are driven by the world's [`SimClock`]
/// for the duration of the run, so latency and event stamps read in
/// virtual time; the recorders' previous clocks are restored afterwards.
/// `cfg.max_events` is the world's fuel: a run cut at `k` events reports
/// the dispatch-trace hash of the full run's first `k` dispatches in
/// [`TransportReport::sched`], which is what a divergence bisection
/// probes.
///
/// The server's session dedup floors start seeded from `prior_journal` —
/// the synced journal of a *previous process*
/// ([`TransportReport::journal`]; empty for a fresh campaign). Clients
/// that re-send frames the prior process already acked (retransmits
/// racing a restart, or replays of an entire session) see them
/// deduplicated and re-acked instead of double-ingested.
///
/// # Errors
///
/// Returns a [`FaultPlanError`] when the fault plan fails validation
/// against the node count.
pub fn run_reliable_ingest(
    hive: &mut Hive<'_>,
    pods: Vec<Vec<(u8, Vec<u8>)>>,
    ingest_cfg: &IngestConfig,
    cfg: &TransportConfig,
    prior_journal: &[u8],
) -> Result<(TransportReport, IngestStats), FaultPlanError> {
    let n_pods = pods.len() as u32;
    cfg.faults.validate(n_pods + 1)?;
    let clock = SimClock::new();
    let mut ingest_cfg = ingest_cfg.clone();
    ingest_cfg.clock = Arc::new(clock.clone());
    let prev_transport_clock = cfg.obs.recorder.clock();
    let prev_ingest_clock = ingest_cfg.obs.recorder.clock();
    cfg.obs.recorder.set_clock(Arc::new(clock.clone()));
    ingest_cfg.obs.recorder.set_clock(Arc::new(clock.clone()));
    let program = hive.tree().program();
    let (report, stats) = hive.ingest_frames(&ingest_cfg, move |tx| {
        // The producer thread hosts the whole simulated network; only
        // `tx` crosses back into the pipeline.
        let metrics = Rc::new(RefCell::new(Metrics::default()));
        let journal = Rc::new(RefCell::new(MemJournal::new()));
        let mut world = World::new(SimConfig {
            seed: cfg.seed,
            link: cfg.link,
            max_events: cfg.max_events,
            faults: cfg.faults.clone(),
        });
        world.drive_clock(clock);
        let server_addr = Addr(n_pods);
        let n_sessions = pods.len() as u64;
        for (i, frames) in pods.into_iter().enumerate() {
            world.add_proc(Box::new(
                PodClient::new(i as u64, server_addr, frames, cfg).with_metrics(metrics.clone()),
            ));
        }
        let mut server =
            HiveServer::new(tx, program, journal.clone(), cfg).with_metrics(metrics.clone());
        server.seed_sessions(prior_journal); // no-op for a fresh campaign
        let placed = world.add_proc(Box::new(server));
        debug_assert_eq!(placed, server_addr, "server must sit at Addr(n_pods)");
        world.run();

        let m = metrics.borrow();
        let j = journal.borrow();
        let synced = j.synced_bytes().to_vec();
        let (records, scan) = journal::scan(&synced);
        debug_assert_eq!(scan.tail_error, None, "synced prefix is always intact");
        TransportReport {
            completed: m.sessions_done == n_sessions,
            delivered: m.delivered,
            tombstones: m.tombstones,
            duplicates: m.duplicates,
            retransmits: m.retransmits,
            busy_nacks: m.busy_nacks,
            shed: m.shed,
            acked: records.len() as u64,
            recoveries: m.recoveries,
            journal_syncs: j.syncs,
            journal_lost_bytes: (j.bytes().len() - synced.len()) as u64,
            recovery_tail_dropped: m.recovery_tail_dropped,
            journal_error: m.journal_error.clone(),
            journal: synced,
            net: world.net_stats(),
            sched: world.sched_stats(),
        }
    });
    if let Some(prev) = prev_transport_clock {
        cfg.obs.recorder.set_clock(prev);
    }
    if let Some(prev) = prev_ingest_clock {
        ingest_cfg.obs.recorder.set_clock(prev);
    }
    publish_transport_telemetry(&cfg.obs, &report);
    Ok((report, stats))
}

/// Mirrors a finished run's [`TransportReport`] counters into the shared
/// registry (when one is attached). Pure accumulation — never feeds back
/// into transport behaviour.
fn publish_transport_telemetry(obs: &ObsHandles, report: &TransportReport) {
    let Some(reg) = obs.registry.as_ref() else {
        return;
    };
    reg.counter("transport.delivered").add(report.delivered);
    reg.counter("transport.tombstones").add(report.tombstones);
    reg.counter("transport.duplicates").add(report.duplicates);
    reg.counter("transport.retransmits").add(report.retransmits);
    reg.counter("transport.busy_nacks").add(report.busy_nacks);
    reg.counter("transport.shed").add(report.shed);
    reg.counter("transport.recoveries").add(report.recoveries);
    reg.counter("transport.journal_syncs")
        .add(report.journal_syncs);
    reg.counter("transport.journal_lost_bytes")
        .add(report.journal_lost_bytes);
    reg.counter("transport.recovery_tail_dropped")
        .add(report.recovery_tail_dropped);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_encodings_roundtrip() {
        let d = data_msg(REC_FRAME, 3, 9, b"xyz");
        assert_eq!(d[0], MSG_DATA);
        assert_eq!(read_data(&d), Some((REC_FRAME, 3, 9, &b"xyz"[..])));
        assert_eq!(read_data(&d[..17]), None, "cut inside the header");
        assert_eq!(read_ctl(&d), None);
        let a = ctl_msg(MSG_ACK, 5, 7);
        assert_eq!(a.len(), 17);
        assert_eq!(read_ctl(&a), Some((MSG_ACK, 5, 7)));
        assert_eq!(read_ctl(&a[..16]), None);
    }

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let mut c = PodClient::new(
            0,
            Addr(1),
            vec![(0, vec![1, 2, 3])],
            &TransportConfig {
                ack_timeout_us: 10_000,
                max_backoff_us: 80_000,
                ..TransportConfig::default()
            },
        );
        let r0 = c.rto();
        assert!((10_000..15_000).contains(&r0), "base + jitter: {r0}");
        for _ in 0..40 {
            c.backoff_exp = (c.backoff_exp + 1).min(MAX_BACKOFF_EXP);
        }
        let r = c.rto();
        assert!((80_000..85_000).contains(&r), "capped + jitter: {r}");
        assert_eq!(c.rto(), c.rto(), "jitter is a pure function of state");
    }

    #[test]
    fn pressure_sheds_lowest_priority_newest_first() {
        let mut c = PodClient::new(
            0,
            Addr(1),
            vec![(5, vec![0]), (1, vec![1]), (1, vec![2]), (9, vec![3])],
            &TransportConfig {
                shed_budget: 1,
                ..TransportConfig::default()
            },
        );
        c.under_pressure(); // within budget
        assert!(c.frames.iter().all(|f| !f.shed));
        c.under_pressure(); // over budget: sheds seq 2 (prio 1, newest)
        let shed: Vec<usize> = c
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.shed)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(shed, vec![2]);
        c.under_pressure();
        c.under_pressure(); // next: seq 1 (prio 1)
        let shed: Vec<usize> = c
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.shed)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(shed, vec![1, 2]);
    }
}
