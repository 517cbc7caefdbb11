//! The staged ingest pipeline: producers → bounded frame queue → decode +
//! reconstruct worker pool → single ordered merger.
//!
//! ```text
//! producers ──submit_at(seq, frame)──▶ [frame queue] ──▶ worker 0 ─┐
//!   (pods, network receivers, …)           │            worker 1 ─┼─▶ [merge queue] ─▶ merger ─▶ sink
//!                                          └──▶ …       worker N ─┘     (reorders        (owns the
//!                                                                        by seq)          tree)
//! ```
//!
//! Three properties the shape buys:
//!
//! * **Determinism.** Every frame carries a sequence number; the merger
//!   releases frames to the sink strictly in sequence order, so the sink
//!   observes exactly the serial ingest order no matter how threads
//!   interleave. Dropped and corrupt frames consume their slot.
//! * **Backpressure.** Both queues are bounded ([`BoundedQueue`]);
//!   [`BackpressurePolicy::Block`] propagates pressure to producers,
//!   [`BackpressurePolicy::DropOldest`] sheds the oldest queued frame and
//!   counts it.
//! * **Recycling.** Workers memoize decode+reconstruction results keyed
//!   on the exact encoded trace bytes ([`wire::batch_payloads`] hands the
//!   slices out without decoding). Popular executions — by design the
//!   common case, since a deployed population re-executes the same paths
//!   constantly — cost one reconstruction total, not one per arrival.
//!   This is the paper's information recycling applied to the hive's own
//!   ingest path.

use crate::clock::{Clock, MonotonicClock};
use crate::memo::MemoCache;
use crate::queue::{BackpressurePolicy, BoundedQueue, PushOutcome};
use crate::stats::{IngestStats, StatsCore};
use softborg_obs::ObsHandles;
use softborg_program::overlay::Overlay;
use softborg_program::taint::InputDependence;
use softborg_program::{BranchSiteId, Program};
use softborg_trace::{reconstruct, wire, ExecutionTrace};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Decode + reconstruct workers (minimum 1).
    pub workers: usize,
    /// Frame-queue capacity (producer-side backpressure bound).
    pub queue_capacity: usize,
    /// Merge-queue capacity (worker→merger bound; always lossless).
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

/// Read-only reconstruction inputs shared by every worker. The overlay
/// history must be frozen for the duration of a run (the hive only
/// promotes fixes between rounds, never mid-ingest).
#[derive(Debug, Clone, Copy)]
pub struct ReconstructContext<'a> {
    /// The program the traces were produced by.
    pub program: &'a Program,
    /// Its input-dependence (taint) analysis.
    pub deps: &'a InputDependence,
    /// Every overlay version ever distributed (index = version).
    pub overlays: &'a [Overlay],
}

/// One decoded trace plus its reconstruction result, as delivered to the
/// merger's sink. `decisions` is `None` exactly when the serial
/// [`softborg_hive`-style] path would count the trace unreconstructed
/// (unknown overlay version or any `ReconstructError`).
#[derive(Debug)]
pub struct ProcessedTrace {
    /// The decoded trace (detectors always consume it).
    pub trace: ExecutionTrace,
    /// Reconstructed branch decisions, when the trace is exact.
    pub decisions: Option<Vec<(BranchSiteId, bool)>>,
}

struct FrameItem {
    seq: u64,
    bytes: Vec<u8>,
    /// [`Clock::now_ns`] at submit, for the submit→merge latency gauge.
    enqueued_at_ns: u64,
}

enum WorkerOut {
    Frame(Vec<Arc<ProcessedTrace>>),
    Corrupt,
}

struct MergeItem {
    seq: u64,
    enqueued_at_ns: u64,
    out: WorkerOut,
}

struct Shared {
    frames: BoundedQueue<FrameItem>,
    merged: BoundedQueue<MergeItem>,
    /// Sequence numbers that will never reach the merger (displaced by
    /// DropOldest or submitted after shutdown).
    dropped: Mutex<BTreeSet<u64>>,
    stats: StatsCore,
    next_seq: AtomicU64,
    senders: AtomicUsize,
    clock: Arc<dyn Clock>,
}

/// A clonable handle producers use to feed frames into a running
/// pipeline. The frame queue closes when the last clone is dropped, so
/// producer panics still shut the pipeline down cleanly.
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
    /// Submits a frame with an explicit sequence number. The merger
    /// releases frames in sequence order, so over one run the submitted
    /// numbers must be exactly `0..n` (pre-partition ranges among
    /// producers when several threads submit). Do not mix with
    /// [`submit`](Self::submit).
    pub fn submit_at(&self, seq: u64, frame: Vec<u8>) {
        let sh = &self.shared;
        sh.stats.frames_submitted.incr();
        match sh.frames.push(FrameItem {
            seq,
            bytes: frame,
            enqueued_at_ns: sh.clock.now_ns(),
        }) {
            PushOutcome::Accepted => {}
            PushOutcome::Displaced(old) => {
                sh.dropped.lock().expect("drop set").insert(old.seq);
                sh.stats.frames_dropped.incr();
            }
            PushOutcome::Closed(item) => {
                sh.dropped.lock().expect("drop set").insert(item.seq);
                sh.stats.frames_dropped.incr();
            }
        }
    }

    /// Submits a frame with an auto-assigned sequence number (shared by
    /// all clones of this sender). Returns the number used.
    pub fn submit(&self, frame: Vec<u8>) -> u64 {
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        self.submit_at(seq, frame);
        seq
    }
}

/// Decrements the live-worker count; the last worker out (including by
/// panic) closes the merge queue so the merger can finish.
struct WorkerGuard<'a> {
    active: &'a AtomicUsize,
    merged: &'a BoundedQueue<MergeItem>,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.merged.close();
        }
    }
}

/// Closes both queues when the merger exits — on the normal path this is
/// a no-op (everything is already closed), on a sink panic it unblocks
/// workers and producers so the scope can unwind instead of deadlocking.
struct MergerGuard<'a> {
    shared: &'a Shared,
}

impl Drop for MergerGuard<'_> {
    fn drop(&mut self) {
        self.shared.frames.close();
        self.shared.merged.close();
    }
}

fn reconstruct_decisions(
    ctx: &ReconstructContext<'_>,
    trace: &ExecutionTrace,
) -> Option<Vec<(BranchSiteId, bool)>> {
    let overlay = ctx.overlays.get(trace.overlay_version as usize)?;
    reconstruct(ctx.program, ctx.deps, overlay, trace)
        .ok()
        .map(|p| p.decisions)
}

fn worker_loop(
    shared: &Shared,
    ctx: ReconstructContext<'_>,
    memo_capacity: usize,
    active: &AtomicUsize,
) {
    let _guard = WorkerGuard {
        active,
        merged: &shared.merged,
    };
    let mut memo: MemoCache<Arc<ProcessedTrace>> = MemoCache::new(memo_capacity);
    while let Some(frame) = shared.frames.pop() {
        let t0 = shared.clock.now_ns();
        let out = match wire::batch_payloads(&frame.bytes) {
            Err(_) => WorkerOut::Corrupt,
            Ok(payloads) => {
                let mut entries = Vec::with_capacity(payloads.len());
                let mut corrupt = false;
                for p in payloads {
                    if let Some(hit) = memo.get(p) {
                        shared.stats.cache_hits.incr();
                        entries.push(hit);
                        continue;
                    }
                    shared.stats.cache_misses.incr();
                    match wire::decode(p) {
                        Err(_) => {
                            corrupt = true;
                            break;
                        }
                        Ok(trace) => {
                            let decisions = reconstruct_decisions(&ctx, &trace);
                            let entry = Arc::new(ProcessedTrace { trace, decisions });
                            memo.insert(p.to_vec(), entry.clone());
                            entries.push(entry);
                        }
                    }
                }
                if corrupt {
                    WorkerOut::Corrupt
                } else {
                    WorkerOut::Frame(entries)
                }
            }
        };
        let busy_ns = shared.clock.now_ns().saturating_sub(t0);
        shared.stats.worker_busy_ns.add(busy_ns);
        if let Some(h) = &shared.stats.stage_work_ns {
            h.record(busy_ns);
        }
        if matches!(out, WorkerOut::Corrupt) {
            shared.stats.frames_corrupt.incr();
        }
        // If the merger died (sink panic) the queue is closed; the item
        // is simply discarded while the scope unwinds.
        let _ = shared.merged.push(MergeItem {
            seq: frame.seq,
            enqueued_at_ns: frame.enqueued_at_ns,
            out,
        });
    }
    shared.stats.cache_evictions.add(memo.evictions());
}

/// Heap entry ordered by ascending sequence number.
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

fn merger_loop<F: FnMut(&ProcessedTrace)>(shared: &Shared, sink: &mut F) {
    let _guard = MergerGuard { shared };
    let mut next: u64 = 0;
    let mut pending: BinaryHeap<Reverse<BySeq>> = BinaryHeap::new();
    let emit = |item: MergeItem, sink: &mut F| {
        match &item.out {
            WorkerOut::Frame(entries) => {
                for entry in entries {
                    sink(entry);
                }
                shared.stats.traces_merged.add(entries.len() as u64);
            }
            WorkerOut::Corrupt => {
                // Already counted by the worker; the slot is consumed so
                // ordering stays intact.
            }
        }
        shared.stats.frames_merged.incr();
        let latency_ns = shared.clock.now_ns().saturating_sub(item.enqueued_at_ns);
        shared.stats.frame_latency_ns.add(latency_ns);
        if let Some(h) = &shared.stats.stage_merge_wait_ns {
            h.record(latency_ns);
        }
    };
    let skip_dropped = |next: &mut u64| {
        let mut dropped = shared.dropped.lock().expect("drop set");
        while dropped.remove(next) {
            *next += 1;
        }
    };
    loop {
        skip_dropped(&mut next);
        while pending
            .peek()
            .is_some_and(|Reverse(BySeq(item))| item.seq == next)
        {
            let Reverse(BySeq(item)) = pending.pop().expect("peeked");
            emit(item, sink);
            next += 1;
            skip_dropped(&mut next);
        }
        match shared.merged.pop() {
            Some(item) => pending.push(Reverse(BySeq(item))),
            // Workers are done: every surviving frame is in `pending`,
            // every gap is in the drop set. Drain in order.
            None => break,
        }
    }
    while let Some(Reverse(BySeq(item))) = pending.pop() {
        skip_dropped(&mut next);
        debug_assert_eq!(item.seq, next, "merger saw a non-dropped gap");
        next = item.seq + 1;
        emit(item, sink);
    }
}

/// Runs the pipeline to completion.
///
/// `producer` runs on its own thread and feeds encoded batch frames
/// through the [`FrameSender`] it is given (clone it to fan production
/// out over more threads); its return value is handed back. `sink` runs
/// on the calling thread and receives every surviving trace in exact
/// sequence order — it is the single merger and may freely own mutable
/// state (the hive passes closures over its execution tree and
/// detectors).
///
/// Worker, producer, and sink panics all shut the pipeline down and
/// propagate; none of them can deadlock the run.
pub fn run<R, P, F>(
    config: &IngestConfig,
    ctx: ReconstructContext<'_>,
    producer: P,
    mut sink: F,
) -> (R, IngestStats)
where
    P: FnOnce(FrameSender) -> R + Send,
    R: Send,
    F: FnMut(&ProcessedTrace),
{
    let shared = Arc::new(Shared {
        frames: BoundedQueue::new(config.queue_capacity, config.policy),
        merged: BoundedQueue::new(config.merge_capacity, BackpressurePolicy::Block),
        dropped: Mutex::new(BTreeSet::new()),
        stats: StatsCore::new(config.obs.registry.as_ref()),
        next_seq: AtomicU64::new(0),
        senders: AtomicUsize::new(1),
        clock: config.clock.clone(),
    });
    let sender = FrameSender {
        shared: shared.clone(),
    };
    let n_workers = config.workers.max(1);
    let active = AtomicUsize::new(n_workers);
    let memo_capacity = config.memo_capacity;
    let started = config.clock.now_ns();
    let result = std::thread::scope(|s| {
        let producer_handle = s.spawn(move || producer(sender));
        let worker_handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let shared = &shared;
                let active = &active;
                s.spawn(move || worker_loop(shared, ctx, memo_capacity, active))
            })
            .collect();
        merger_loop(&shared, &mut sink);
        for h in worker_handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
        match producer_handle.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    });
    let stats = shared.stats.snapshot(
        n_workers,
        shared.frames.high_water(),
        config.clock.now_ns().saturating_sub(started),
    );
    // Only content-determined fields go in the event payload (frame and
    // trace counts are fixed by the sequence-ordered merge contract);
    // cache hits and queue depths vary with thread interleaving and
    // would break the events-hash stability guarantee.
    config.obs.recorder.info(
        "ingest",
        "run_done",
        &[
            ("frames_merged", stats.frames_merged),
            ("traces_merged", stats.traces_merged),
            ("frames_corrupt", stats.frames_corrupt),
        ],
        format_args!(
            "ingest run merged {} traces over {} frames ({} corrupt) in {}ns",
            stats.traces_merged, stats.frames_merged, stats.frames_corrupt, stats.wall_ns
        ),
    );
    (result, stats)
}
