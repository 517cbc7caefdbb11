//! The staged ingest pipeline: producers → one bounded frame queue →
//! one decode+reconstruct worker pool → per-shard merge queues →
//! per-shard sequence-ordered mergers.
//!
//! ```text
//! producers ──submit_for(prog, frame)──▶ [frame queue] ──▶ worker 0 ─┬─▶ [merge q 0] ─▶ merger 0 ─▶ sink 0
//!   (per-program seq claimed here)           │             worker 1 ─┼─▶ [merge q 1] ─▶ merger 1 ─▶ sink 1
//!                                            └──▶ …        worker N ─┘        …            …
//! ```
//!
//! One hive is the one-program, one-shard case; a sharded hive passes
//! one sink per shard. Properties the shape buys:
//!
//! * **Determinism.** Producers claim per-program sequence numbers at
//!   submit; each merger keeps one reorder lane (heap + next counter) per
//!   program and releases program *P*'s slot only when it is *P*'s next,
//!   so every sink observes each program's traces in exactly the serial
//!   ingest order no matter how threads interleave. Dropped, corrupt and
//!   unroutable frames consume their slot.
//! * **Backpressure.** Every queue is bounded ([`BoundedQueue`]);
//!   [`BackpressurePolicy::Block`] propagates pressure to producers,
//!   [`BackpressurePolicy::DropOldest`] sheds the oldest queued frame and
//!   counts it.
//! * **Recycling.** Each worker memoizes, keyed on the exact encoded
//!   trace bytes ([`wire::batch_payloads`] hands the slices out without
//!   decoding), the [`MergeRecord`] it prepared for a trace: the decoded
//!   and reconstructed trace stripped to what the merger folds, with its
//!   path hash and failure-mode key derived once. Popular executions —
//!   by design the common case, since a deployed population re-executes
//!   the same paths constantly — cost one decode, reconstruction and
//!   preparation per worker per [`run`] (the memo is the worker's and
//!   lives as long as the run), not one per arrival. This is the paper's
//!   information recycling applied to the hive's own ingest path.
//!
//! Routing is **content-authoritative**: every trace payload begins with
//! its program id, so a worker classifies a frame from the payload
//! slices it validated once ([`wire::payloads_program_id`]) — the claim
//! a producer made at submit time is just a *slot reservation* in that
//! program's sequence. The claim and the content agree on every healthy
//! frame; the disagreement cases are the router-hardening matrix:
//!
//! * **corrupt / mixed-program frame** — cannot be classified: the
//!   claimed slot is consumed (ordering never stalls), the frame is
//!   counted, never panicked on.
//! * **unknown content program** — classifiable but unroutable: typed
//!   [`ShardError::UnknownProgram`] sample + counter, claimed slot
//!   consumed, nothing merged.
//! * **rerouted** — healthy but claimed against the wrong program (a
//!   misconfigured producer): the claimed slot is consumed, the traces
//!   are delivered to the content program's sink *after* in-order
//!   traffic, in deterministic (claimed program, seq) order.

use crate::clock::{Clock, MonotonicClock};
use crate::map::{ShardError, ShardMap};
use crate::memo::{Entry, MemoCache};
use crate::queue::{BackpressurePolicy, BoundedQueue, PushOutcome};
use crate::stats::{IngestStats, StatsCore};
use softborg_analysis::failure_key;
use softborg_obs::ObsHandles;
use softborg_program::interp::Outcome;
use softborg_program::overlay::Overlay;
use softborg_program::taint::InputDependence;
use softborg_program::{BranchSiteId, Program, ProgramId};
use softborg_trace::record::GlobalAccessSummary;
use softborg_trace::{reconstruct, wire, ExecutionTrace};
use softborg_tree::path_hash;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Decode + reconstruct workers (minimum 1).
    pub workers: usize,
    /// Frame-queue capacity (producer-side backpressure bound).
    pub queue_capacity: usize,
    /// Merge-queue capacity, per shard (worker→merger bound; always
    /// lossless).
    pub merge_capacity: usize,
    /// What producers do when the frame queue is full.
    pub policy: BackpressurePolicy,
    /// Memo entries for recycling reconstructions, per worker (each
    /// worker owns a private, shared-nothing cache); at capacity the
    /// cache evicts with a second-chance (clock) sweep (0 disables the
    /// cache).
    pub memo_capacity: usize,
    /// Time source for the latency/throughput gauges. Defaults to the
    /// monotonic wall clock; a virtual-time scheduler injects its own so
    /// `wall_ns`, `worker_busy_ns`, and `frame_latency_ns` stay
    /// meaningful under simulation.
    pub clock: Arc<dyn Clock>,
    /// Telemetry sinks: an optional shared metrics registry (attaching
    /// one also enables the per-frame stage histograms) and a flight
    /// recorder for run events. The default records nothing beyond the
    /// counters that back [`IngestStats`].
    pub obs: ObsHandles,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            workers: 2,
            queue_capacity: 64,
            merge_capacity: 64,
            policy: BackpressurePolicy::Block,
            memo_capacity: 4096,
            clock: Arc::new(MonotonicClock::new()),
            obs: ObsHandles::default(),
        }
    }
}

/// Read-only reconstruction inputs for one program. The overlay history
/// must be frozen for the duration of a run (the hive only promotes
/// fixes between rounds, never mid-ingest).
#[derive(Debug, Clone, Copy)]
pub struct ReconstructContext<'a> {
    /// The program the traces were produced by.
    pub program: &'a Program,
    /// Its input-dependence (taint) analysis.
    pub deps: &'a InputDependence,
    /// Every overlay version ever distributed (index = version).
    pub overlays: &'a [Overlay],
}

impl ReconstructContext<'_> {
    /// The trace's reconstructed branch decisions, or `None` when it
    /// cannot be reconstructed (unknown overlay version or any
    /// `ReconstructError`) — the one rule serial and pipelined ingest
    /// share.
    pub fn decisions(&self, trace: &ExecutionTrace) -> Option<Vec<(BranchSiteId, bool)>> {
        let overlay = self.overlays.get(trace.overlay_version as usize)?;
        reconstruct(self.program, self.deps, overlay, trace)
            .ok()
            .map(|path| path.decisions)
    }
}

/// One decoded trace plus its reconstruction result. `decisions` is
/// `None` exactly when serial ingest would count the trace
/// unreconstructed (unknown overlay version or any `ReconstructError`).
#[derive(Debug)]
pub struct ProcessedTrace {
    /// The decoded trace (detectors always consume it).
    pub trace: ExecutionTrace,
    /// Reconstructed branch decisions, when the trace is exact.
    pub decisions: Option<Vec<(BranchSiteId, bool)>>,
}

/// One trace as a merger's sink folds it: what the tree and the
/// detectors read, plus the two facts they would otherwise re-derive on
/// every arrival. Workers prepare one per distinct trace and memoize it.
#[derive(Debug)]
pub struct MergeRecord {
    /// The reconstructed decisions and their [`path_hash`], when the
    /// trace is exact.
    pub path: Option<(Vec<(BranchSiteId, bool)>, u64)>,
    /// The outcome's [`failure_key`] (`None` for a success).
    pub failure_key: Option<Box<str>>,
    /// The execution's outcome.
    pub outcome: Outcome,
    /// Observed lock-order pairs.
    pub lock_pairs: Vec<(u32, u32)>,
    /// Per-global access summaries.
    pub global_summaries: Vec<GlobalAccessSummary>,
}

impl MergeRecord {
    /// Prepares a processed trace for merging: derives the path hash and
    /// failure-mode key with the same functions serial ingest calls, and
    /// frees the replay-only buffers (bits, guard bits, syscall returns,
    /// schedule).
    pub fn prepare(pt: ProcessedTrace) -> Self {
        let ExecutionTrace {
            outcome,
            lock_pairs,
            global_summaries,
            ..
        } = pt.trace;
        MergeRecord {
            path: (pt.decisions).map(|d| {
                let hash = path_hash(&d, &outcome);
                (d, hash)
            }),
            failure_key: failure_key(&outcome).map(String::into_boxed_str),
            outcome,
            lock_pairs,
            global_summaries,
        }
    }
}

/// A frame plus the (program, seq) slot its producer claimed.
struct FrameItem {
    claimed: ProgramId,
    seq: u64,
    bytes: Vec<u8>,
    /// [`Clock::now_ns`] at submit, for the submit→merge latency gauge.
    enqueued_at_ns: u64,
}

/// What a worker made of one frame.
enum WorkerOut {
    /// Healthy, content agrees with the claim: traces for the claimed
    /// program (possibly empty for an empty batch).
    Frame(Vec<Arc<MergeRecord>>),
    /// Unclassifiable (wire corruption or mixed-program payloads).
    Corrupt,
    /// Classifiable but no shard owns the content program.
    Unknown,
    /// Healthy but content ≠ claim; traces travel out-of-band in a
    /// [`Rerouted`], this slot just advances the claimed lane.
    Rerouted,
}

/// One merge-queue entry: a processed frame bound for the claimed
/// program's reorder lane.
struct MergeItem {
    program: ProgramId,
    seq: u64,
    enqueued_at_ns: u64,
    out: WorkerOut,
}

/// A healthy frame whose content program differed from its claimed
/// slot. Collected during the run; delivered to the content program's
/// sink after all in-order traffic, sorted by the (unique) claimed slot
/// so delivery order is deterministic.
struct Rerouted {
    claimed: ProgramId,
    seq: u64,
    to: ProgramId,
    entries: Vec<Arc<MergeRecord>>,
}

/// Claimed slots that will never reach a merger (displaced by
/// DropOldest or submitted after shutdown).
#[derive(Default)]
struct DroppedSlots {
    slots: Mutex<BTreeSet<(ProgramId, u64)>>,
    /// `slots.len()`, readable without the lock: under `Block` a slot is
    /// dropped only after shutdown, so a merger almost always finds zero
    /// and skips the lock. Updated under the lock (`Release`) and read
    /// before taking it (`Acquire`). A read that misses a concurrent
    /// drop only defers the skip: the merger looks again after its next
    /// item, and its final drain starts after every producer has
    /// returned, which orders every drop before it.
    len: AtomicUsize,
}

impl DroppedSlots {
    fn insert(&self, program: ProgramId, seq: u64) {
        let mut slots = self.slots.lock().expect("drop set");
        if slots.insert((program, seq)) {
            self.len.fetch_add(1, Ordering::Release);
        }
    }

    /// Advances `next` past every dropped slot of `program`.
    fn skip(&self, program: ProgramId, next: &mut u64) {
        if self.len.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut slots = self.slots.lock().expect("drop set");
        while slots.remove(&(program, *next)) {
            self.len.fetch_sub(1, Ordering::Release);
            *next += 1;
        }
    }
}

/// State shared by every stage of one run.
struct Shared {
    frames: BoundedQueue<FrameItem>,
    merge: Vec<BoundedQueue<MergeItem>>,
    dropped: DroppedSlots,
    rerouted: Mutex<Vec<Rerouted>>,
    /// Per-program claimed-sequence counters.
    counters: BTreeMap<ProgramId, AtomicU64>,
    stats: StatsCore,
    senders: AtomicUsize,
    clock: Arc<dyn Clock>,
}

/// A clonable producer handle. The frame queue closes when the last
/// clone is dropped, so producer panics still shut the pipeline down
/// cleanly.
pub struct FrameSender {
    shared: Arc<Shared>,
}

impl Clone for FrameSender {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        FrameSender {
            shared: self.shared.clone(),
        }
    }
}

impl Drop for FrameSender {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.frames.close();
        }
    }
}

impl FrameSender {
    /// Submits one encoded batch frame, claiming the next sequence slot
    /// of `program`. Returns the claimed sequence number.
    ///
    /// The claim is a slot reservation, not the routing decision:
    /// workers route by the program id embedded in the frame bytes, and
    /// a mismatch is counted and rerouted rather than trusted.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when `program` is not in the shard
    /// map — there is no sequence lane to claim a slot in. (This is a
    /// producer-side configuration error, distinct from the
    /// `frames_unknown_program` counter, which tracks unroutable frame
    /// *content*.)
    pub fn submit_for(&self, program: ProgramId, frame: Vec<u8>) -> Result<u64, ShardError> {
        let counter = self
            .shared
            .counters
            .get(&program)
            .ok_or(ShardError::UnknownProgram { program })?;
        let seq = counter.fetch_add(1, Ordering::Relaxed);
        self.submit_for_at(program, seq, frame)?;
        Ok(seq)
    }

    /// Submits one frame into an explicitly claimed `(program, seq)`
    /// slot. Lets several producer threads pre-partition a program's
    /// sequence space (pod *i* owns slots `i*k..(i+1)*k`) so merge order
    /// is deterministic regardless of thread interleaving. Over one run
    /// the slots claimed for a program must be exactly `0..n` with no
    /// gaps or duplicates; do not mix with
    /// [`submit_for`](Self::submit_for) on the same program.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when `program` is not in the shard
    /// map.
    pub fn submit_for_at(
        &self,
        program: ProgramId,
        seq: u64,
        frame: Vec<u8>,
    ) -> Result<(), ShardError> {
        let sh = &self.shared;
        if !sh.counters.contains_key(&program) {
            return Err(ShardError::UnknownProgram { program });
        }
        sh.stats.frames_submitted.incr();
        match sh.frames.push(FrameItem {
            claimed: program,
            seq,
            bytes: frame,
            enqueued_at_ns: sh.clock.now_ns(),
        }) {
            PushOutcome::Accepted => {}
            PushOutcome::Displaced(old) | PushOutcome::Closed(old) => {
                sh.dropped.insert(old.claimed, old.seq);
                sh.stats.frames_dropped.incr();
            }
        }
        Ok(())
    }
}

/// Last worker out (including by panic) closes every merge queue so the
/// mergers can finish their final drains.
struct WorkerGuard<'a> {
    active: &'a AtomicUsize,
    merge: &'a [BoundedQueue<MergeItem>],
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            for q in self.merge {
                q.close();
            }
        }
    }
}

/// Closes everything when a merger exits. On the normal path every
/// queue is already closed (no-op); on a sink panic this unblocks
/// producers and workers so the scope can unwind instead of deadlock.
struct MergerGuard<'a> {
    shared: &'a Shared,
}

impl Drop for MergerGuard<'_> {
    fn drop(&mut self) {
        self.shared.frames.close();
        for q in &self.shared.merge {
            q.close();
        }
    }
}

/// Validates one frame once, classifies it by content, and decodes,
/// reconstructs and prepares its payloads through the memo. Returns what
/// the claimed lane should see; rerouted traces are stashed in
/// `shared.rerouted` as a side effect.
fn process_frame(
    shared: &Shared,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo: &mut MemoCache<Arc<MergeRecord>>,
    item: &FrameItem,
) -> WorkerOut {
    let stats = &shared.stats;
    let classified = wire::batch_payloads(&item.bytes)
        .and_then(|payloads| Ok((wire::payloads_program_id(&payloads)?, payloads)));
    let (content, payloads) = match classified {
        Err(_) => {
            stats.frames_corrupt.incr();
            return WorkerOut::Corrupt;
        }
        // An empty batch carries no traces for anyone; the claimed slot
        // simply advances.
        Ok((None, _)) => return WorkerOut::Frame(Vec::new()),
        Ok((Some(id), payloads)) => (id, payloads),
    };
    let Some(ctx) = ctxs.get(&content) else {
        stats.frames_unknown_program.incr();
        stats.sample_error(ShardError::UnknownProgram { program: content });
        return WorkerOut::Unknown;
    };
    let mut entries = Vec::with_capacity(payloads.len());
    for p in payloads {
        let vacancy = match memo.entry(p) {
            Entry::Hit(hit) => {
                stats.cache_hits.incr();
                entries.push(Arc::clone(hit));
                continue;
            }
            Entry::Miss(vacancy) => vacancy,
        };
        stats.cache_misses.incr();
        let Ok(trace) = wire::decode(p) else {
            stats.frames_corrupt.incr();
            return WorkerOut::Corrupt;
        };
        let decisions = ctx.decisions(&trace);
        let record = Arc::new(MergeRecord::prepare(ProcessedTrace { trace, decisions }));
        vacancy.insert(Arc::clone(&record));
        entries.push(record);
    }
    if content == item.claimed {
        return WorkerOut::Frame(entries);
    }
    stats.frames_rerouted.incr();
    shared.rerouted.lock().expect("reroute set").push(Rerouted {
        claimed: item.claimed,
        seq: item.seq,
        to: content,
        entries,
    });
    WorkerOut::Rerouted
}

fn worker_loop(
    shared: &Shared,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo_capacity: usize,
    active: &AtomicUsize,
) {
    let _guard = WorkerGuard {
        active,
        merge: &shared.merge,
    };
    let mut memo: MemoCache<Arc<MergeRecord>> = MemoCache::new(memo_capacity);
    while let Some(item) = shared.frames.pop() {
        let t0 = shared.clock.now_ns();
        let out = process_frame(shared, ctxs, &mut memo, &item);
        let busy_ns = shared.clock.now_ns().saturating_sub(t0);
        shared.stats.worker_busy_ns.add(busy_ns);
        if let Some(h) = &shared.stats.stage_work_ns {
            h.record(busy_ns);
        }
        let shard = map
            .shard_of(item.claimed)
            .expect("claimed program validated at submit");
        // If the merger died (sink panic) the queue is closed; the item
        // is discarded while the scope unwinds.
        let _ = shared.merge[shard].push(MergeItem {
            program: item.claimed,
            seq: item.seq,
            enqueued_at_ns: item.enqueued_at_ns,
            out,
        });
    }
    shared.stats.cache_evictions.add(memo.evictions());
}

/// Heap entry ordered by ascending claimed sequence number.
struct BySeq(MergeItem);

impl PartialEq for BySeq {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for BySeq {}
impl PartialOrd for BySeq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BySeq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.seq.cmp(&other.0.seq)
    }
}

/// One program's reorder lane inside a merger.
#[derive(Default)]
struct Lane {
    next: u64,
    pending: BinaryHeap<Reverse<BySeq>>,
}

fn merger_loop<S: FnMut(ProgramId, &MergeRecord)>(shared: &Shared, shard: usize, sink: &mut S) {
    let _guard = MergerGuard { shared };
    let (stats, shard_stats) = (&shared.stats, &shared.stats.per_shard[shard]);
    let mut lanes: BTreeMap<ProgramId, Lane> = BTreeMap::new();
    let emit = |item: MergeItem, sink: &mut S| {
        match &item.out {
            WorkerOut::Frame(entries) => {
                for entry in entries {
                    sink(item.program, entry);
                }
                let n = entries.len() as u64;
                stats.traces_merged.add(n);
                shard_stats.traces_merged.add(n);
            }
            // Counted at the worker (pool-wide) and here (per shard); the
            // slot is consumed so ordering stays intact.
            WorkerOut::Corrupt => shard_stats.frames_corrupt.incr(),
            WorkerOut::Unknown | WorkerOut::Rerouted => {}
        }
        stats.frames_merged.incr();
        shard_stats.frames_merged.incr();
        let latency_ns = shared.clock.now_ns().saturating_sub(item.enqueued_at_ns);
        stats.frame_latency_ns.add(latency_ns);
        if let Some(h) = &stats.stage_merge_wait_ns {
            h.record(latency_ns);
        }
    };
    // `pop` returns `None` once the workers are done: every surviving
    // slot is then in some lane, every gap in the drop set.
    while let Some(item) = shared.merge[shard].pop() {
        let program = item.program;
        let lane = lanes.entry(program).or_default();
        lane.pending.push(Reverse(BySeq(item)));
        loop {
            shared.dropped.skip(program, &mut lane.next);
            match lane.pending.peek() {
                Some(Reverse(BySeq(it))) if it.seq == lane.next => {
                    let Reverse(BySeq(it)) = lane.pending.pop().expect("peeked");
                    emit(it, sink);
                    lane.next += 1;
                }
                _ => break,
            }
        }
    }
    // Final drain, lane by lane in program-id order.
    for (program, lane) in &mut lanes {
        while let Some(Reverse(BySeq(it))) = lane.pending.pop() {
            shared.dropped.skip(*program, &mut lane.next);
            debug_assert_eq!(it.seq, lane.next, "merger saw a non-dropped gap");
            lane.next = it.seq + 1;
            emit(it, sink);
        }
    }
}

fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// Runs the pipeline to completion.
///
/// `producer` runs on its own thread and claims (program, seq) slots
/// through the [`FrameSender`] it is given (clone it to fan production
/// out). `sinks[i]` is shard *i*'s merger sink, with exclusive access to
/// whatever mutable state it captured (a hive passes its merge state;
/// the sharded hive one closure per shard over that shard's hives); it
/// observes each program's traces in exact claimed-sequence order.
/// Shard 0's merger runs on the calling thread, every other shard's on
/// its own. `ctxs` holds the reconstruction inputs of every program in
/// `map`. Rerouted traffic is delivered to its content program's sink
/// once every merger is done.
///
/// # Panics
///
/// Propagates producer, worker, and sink panics (none can deadlock the
/// run). Panics if `sinks.len() != map.n_shards()`.
pub fn run<R, P, S>(
    config: &IngestConfig,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    producer: P,
    sinks: Vec<S>,
) -> (R, IngestStats)
where
    P: FnOnce(FrameSender) -> R + Send,
    R: Send,
    S: FnMut(ProgramId, &MergeRecord) + Send,
{
    assert_eq!(sinks.len(), map.n_shards(), "one sink per shard");
    let started = config.clock.now_ns();
    let shared = Arc::new(Shared {
        frames: BoundedQueue::new(config.queue_capacity, config.policy),
        merge: (0..map.n_shards())
            .map(|_| BoundedQueue::new(config.merge_capacity, BackpressurePolicy::Block))
            .collect(),
        dropped: DroppedSlots::default(),
        rerouted: Mutex::new(Vec::new()),
        counters: (map.assignments().keys())
            .map(|&p| (p, AtomicU64::new(0)))
            .collect(),
        stats: StatsCore::new(config.obs.registry.as_ref(), map.n_shards()),
        senders: AtomicUsize::new(1),
        clock: config.clock.clone(),
    });
    let sender = FrameSender {
        shared: shared.clone(),
    };
    let n_workers = config.workers.max(1);
    let active = AtomicUsize::new(n_workers);
    let memo_capacity = config.memo_capacity;
    let (result, mut sinks) = std::thread::scope(|s| {
        let shared = &shared;
        let producer_handle = s.spawn(move || producer(sender));
        let worker_handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let active = &active;
                s.spawn(move || worker_loop(shared, map, ctxs, memo_capacity, active))
            })
            .collect();
        let mut sinks = sinks.into_iter();
        let mut first = sinks.next().expect("at least one shard");
        let merger_handles: Vec<_> = (1..)
            .zip(sinks)
            .map(|(i, mut sink)| {
                s.spawn(move || {
                    merger_loop(shared, i, &mut sink);
                    sink
                })
            })
            .collect();
        merger_loop(shared, 0, &mut first);
        let sinks: Vec<S> = std::iter::once(first)
            .chain(merger_handles.into_iter().map(join))
            .collect();
        worker_handles.into_iter().for_each(join);
        (join(producer_handle), sinks)
    });
    let mut rerouted = std::mem::take(&mut *shared.rerouted.lock().expect("reroute set"));
    // The claimed slot is unique per frame: a total, deterministic
    // delivery order regardless of worker interleaving.
    rerouted.sort_by_key(|d| (d.claimed, d.seq));
    let stats = &shared.stats;
    for d in rerouted {
        let shard = map.shard_of(d.to).expect("content validated by worker");
        for entry in &d.entries {
            sinks[shard](d.to, entry);
        }
        let n = d.entries.len() as u64;
        stats.traces_merged.add(n);
        stats.per_shard[shard].traces_merged.add(n);
        stats.per_shard[shard].frames_rerouted_in.incr();
    }
    let mut stats = stats.snapshot(
        n_workers,
        shared.frames.high_water(),
        config.clock.now_ns().saturating_sub(started),
    );
    for s in &mut stats.per_shard {
        s.programs = map.programs_on(s.shard).len();
        s.merge_queue_high_water = shared.merge[s.shard].high_water();
    }
    // Only content-determined fields go in the event payload (frame
    // routing is content-authoritative and frame and trace counts are
    // fixed by the sequence-ordered merge contract); cache hits and
    // queue depths vary with thread interleaving and would break the
    // events-hash stability guarantee.
    config.obs.recorder.info(
        "ingest",
        "run_done",
        &[
            ("frames_merged", stats.frames_merged),
            ("traces_merged", stats.traces_merged),
            ("frames_corrupt", stats.frames_corrupt),
            ("frames_rerouted", stats.frames_rerouted),
            ("frames_unknown_program", stats.frames_unknown_program),
        ],
        format_args!(
            "ingest run merged {} traces over {} frames ({} corrupt, {} rerouted, {} unknown) in {}ns",
            stats.traces_merged,
            stats.frames_merged,
            stats.frames_corrupt,
            stats.frames_rerouted,
            stats.frames_unknown_program,
            stats.wall_ns
        ),
    );
    (result, stats)
}
