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
//!   ingest order no matter how threads interleave. Corrupt and refused
//!   frames consume their slot.
//! * **Backpressure.** Every queue is bounded by the one
//!   [`IngestConfig::queue_capacity`] ([`BoundedQueue`]); a full queue
//!   parks its producer, so pressure propagates to the pods and nothing
//!   is ever shed.
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
//! The contract is one sentence: every claimed slot `0..n` of a program
//! merges into that program's sink, in order. Every trace payload begins
//! with its program id, so a worker checks each frame's content against
//! its claim from the payload slices it validated once
//! ([`wire::payloads_program_id`]); a frame that breaks the contract is
//! counted, its slot consumed (ordering never stalls) and nothing of it
//! merged — never a panic:
//!
//! * **corrupt / mixed-program frame** — cannot be classified.
//! * **unknown content program** — no sink serves it: typed
//!   [`ShardError::UnknownProgram`] sample + counter.
//! * **misclaimed** — healthy, but claimed in another program's lane (a
//!   misconfigured producer): counted in `frames_rerouted`.

use crate::clock::{Clock, MonotonicClock};
use crate::map::{ShardError, ShardMap};
use crate::memo::{Entry, MemoCache};
use crate::queue::BoundedQueue;
use crate::stats::{IngestStats, StatsCore};
use softborg_analysis::failure_key;
use softborg_obs::ObsHandles;
use softborg_program::interp::LoweredProgram;
use softborg_program::interp::Outcome;
use softborg_program::overlay::Overlay;
use softborg_program::{BranchSiteId, ProgramId};
use softborg_trace::record::GlobalAccessSummary;
use softborg_trace::{replay, wire, ExecutionTrace, ReplayScratch};
use softborg_tree::path_hash;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Decode + reconstruct workers (minimum 1).
    pub workers: usize,
    /// Capacity of the frame queue and of every shard's merge queue: a
    /// full queue blocks its producer.
    pub queue_capacity: usize,
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
    /// The program the traces were produced by, lowered once.
    pub code: &'a LoweredProgram,
    /// Every overlay version ever distributed (index = version).
    pub overlays: &'a [Overlay],
}

impl ReconstructContext<'_> {
    /// The trace's reconstructed branch decisions, or `None` when it
    /// cannot be reconstructed (unknown overlay version or any
    /// `ReconstructError`) — the one rule serial and pipelined ingest
    /// share. `scratch` holds the replay's tables between calls.
    pub fn decisions(
        &self,
        trace: &ExecutionTrace,
        scratch: &mut ReplayScratch,
    ) -> Option<Vec<(BranchSiteId, bool)>> {
        let overlay = self.overlays.get(trace.overlay_version as usize)?;
        replay(self.code, overlay, trace, scratch)
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
    /// Classifiable, but its content program is unknown or is not the
    /// claimed one.
    Refused,
}

/// One merge-queue entry: a processed frame bound for the claimed
/// program's reorder lane.
struct MergeItem {
    program: ProgramId,
    seq: u64,
    enqueued_at_ns: u64,
    out: WorkerOut,
}

/// State shared by every stage of one run.
struct Shared {
    frames: BoundedQueue<FrameItem>,
    merge: Vec<BoundedQueue<MergeItem>>,
    /// Set by a stage that dies by panic, before its guard closes any
    /// queue: the run is lost, so no merger drains it.
    died: AtomicBool,
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
        self.shared.note_death();
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.frames.close();
        }
    }
}

impl FrameSender {
    /// Submits one encoded batch frame, claiming the next sequence slot
    /// of `program`. Returns the claimed sequence number.
    ///
    /// Workers check the claim against the program id embedded in the
    /// frame bytes: a frame of another program is counted and refused.
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
        let item = FrameItem {
            claimed: program,
            seq,
            bytes: frame,
            enqueued_at_ns: sh.clock.now_ns(),
        };
        // Closed only once a stage has died: the run will panic.
        if sh.frames.push(item).is_err() {
            sh.stats.frames_dropped.incr();
        }
        Ok(())
    }
}

impl Shared {
    /// Records a stage's death when called while its thread unwinds.
    fn note_death(&self) {
        if std::thread::panicking() {
            self.died.store(true, Ordering::SeqCst);
        }
    }
}

/// Last worker out (including by panic) closes every merge queue so the
/// mergers can finish their final drains.
struct WorkerGuard<'a> {
    active: &'a AtomicUsize,
    shared: &'a Shared,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.shared.note_death();
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            for q in &self.shared.merge {
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
        self.shared.note_death();
        self.shared.frames.close();
        for q in &self.shared.merge {
            q.close();
        }
    }
}

/// Validates one frame once, checks its content program against the
/// claim, and decodes, reconstructs and prepares its payloads through
/// the memo. Returns what the claimed lane should see.
fn process_frame(
    stats: &StatsCore,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo: &mut MemoCache<Arc<MergeRecord>>,
    scratch: &mut ReplayScratch,
    item: &FrameItem,
) -> WorkerOut {
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
        return WorkerOut::Refused;
    };
    if content != item.claimed {
        stats.frames_rerouted.incr();
        return WorkerOut::Refused;
    }
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
        let decisions = ctx.decisions(&trace, scratch);
        let record = Arc::new(MergeRecord::prepare(ProcessedTrace { trace, decisions }));
        vacancy.insert(Arc::clone(&record));
        entries.push(record);
    }
    WorkerOut::Frame(entries)
}

fn worker_loop(
    shared: &Shared,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo_capacity: usize,
    active: &AtomicUsize,
) {
    let _guard = WorkerGuard { active, shared };
    let mut memo: MemoCache<Arc<MergeRecord>> = MemoCache::new(memo_capacity);
    let mut scratch = ReplayScratch::default();
    while let Some(item) = shared.frames.pop() {
        let t0 = shared.clock.now_ns();
        let out = process_frame(&shared.stats, ctxs, &mut memo, &mut scratch, &item);
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
            WorkerOut::Refused => {}
        }
        stats.frames_merged.incr();
        shard_stats.frames_merged.incr();
        let latency_ns = shared.clock.now_ns().saturating_sub(item.enqueued_at_ns);
        stats.frame_latency_ns.add(latency_ns);
        if let Some(h) = &stats.stage_merge_wait_ns {
            h.record(latency_ns);
        }
    };
    // `pop` returns `None` once the workers are done: every slot is then
    // in some lane, unless a stage died.
    while let Some(item) = shared.merge[shard].pop() {
        let lane = lanes.entry(item.program).or_default();
        lane.pending.push(Reverse(BySeq(item)));
        loop {
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
    // A dead stage lost slots and the run will panic: nothing to drain.
    if shared.died.load(Ordering::SeqCst) {
        return;
    }
    // Final drain, lane by lane in program-id order.
    for lane in lanes.values_mut() {
        while let Some(Reverse(BySeq(it))) = lane.pending.pop() {
            debug_assert_eq!(it.seq, lane.next, "a claimed slot never arrived");
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
/// `map`.
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
        frames: BoundedQueue::new(config.queue_capacity),
        merge: (0..map.n_shards())
            .map(|_| BoundedQueue::new(config.queue_capacity))
            .collect(),
        died: AtomicBool::new(false),
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
    let result = std::thread::scope(|s| {
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
            .map(|(i, mut sink)| s.spawn(move || merger_loop(shared, i, &mut sink)))
            .collect();
        merger_loop(shared, 0, &mut first);
        merger_handles.into_iter().for_each(join);
        worker_handles.into_iter().for_each(join);
        join(producer_handle)
    });
    let mut stats = shared.stats.snapshot(
        n_workers,
        shared.frames.high_water(),
        config.clock.now_ns().saturating_sub(started),
    );
    for s in &mut stats.per_shard {
        s.programs = map.programs_on(s.shard).len();
        s.merge_queue_high_water = shared.merge[s.shard].high_water();
    }
    // Only content-determined fields go in the event payload (a frame's
    // verdict depends on its bytes and claim alone, and frame and trace
    // counts are fixed by the sequence-ordered merge contract); cache
    // hits and queue depths vary with thread interleaving and would
    // break the events-hash stability guarantee.
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

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_pod::{Pod, PodConfig};
    use softborg_program::scenarios::{self, Scenario};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// Four programs on two shards, both shards populated.
    fn two_shard_setup() -> (Vec<Scenario>, ShardMap) {
        let scs = vec![
            scenarios::token_parser(),
            scenarios::triangle(),
            scenarios::record_processor(),
            scenarios::bank_transfer(),
        ];
        let ids: Vec<ProgramId> = scs.iter().map(|s| s.program.id()).collect();
        let map = ShardMap::new(&ids, 2).expect("distinct programs");
        assert!((0..2).all(|shard| !map.programs_on(shard).is_empty()));
        (scs, map)
    }

    /// `per_program` one-trace frames for every program, interleaved.
    fn frames(scs: &[Scenario], per_program: usize) -> Vec<(ProgramId, Vec<u8>)> {
        let mut pods: Vec<Pod<'_>> = (scs.iter())
            .map(|s| {
                let cfg = PodConfig {
                    input_range: s.input_range,
                    seed: 3,
                    ..PodConfig::default()
                };
                Pod::new(&s.program, cfg)
            })
            .collect();
        let mut out = Vec::new();
        for _ in 0..per_program {
            for (s, pod) in scs.iter().zip(&mut pods) {
                let trace = pod.run_once().trace;
                out.push((s.program.id(), wire::encode_batch([&trace])));
            }
        }
        out
    }

    /// Runs the pipeline on a 2-shard map with `producer` and a shard-1
    /// sink that panics on record `die_at` (never when `None`), on its
    /// own thread, and returns the panic message the run propagated.
    fn panic_message<P>(producer: P, die_at: Option<u64>) -> String
    where
        P: FnOnce(FrameSender, &[(ProgramId, Vec<u8>)]) + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (scs, map) = two_shard_setup();
            let codes: Vec<LoweredProgram> = (scs.iter())
                .map(|s| LoweredProgram::new(&s.program))
                .collect();
            let overlays = [Overlay::empty()];
            let ctxs: BTreeMap<ProgramId, ReconstructContext<'_>> = (scs.iter().zip(&codes))
                .map(|(s, code)| {
                    let ctx = ReconstructContext {
                        code,
                        overlays: &overlays,
                    };
                    (s.program.id(), ctx)
                })
                .collect();
            let frames = frames(&scs, 40);
            let config = IngestConfig {
                workers: 4,
                queue_capacity: 2,
                ..IngestConfig::default()
            };
            let sink = |shard: usize| {
                let mut seen = 0u64;
                move |_: ProgramId, _: &MergeRecord| {
                    seen += 1;
                    if shard == 1 && Some(seen) == die_at {
                        panic!("shard 1's sink died on record {seen}");
                    }
                }
            };
            let sinks = vec![sink(0), sink(1)];
            let result = catch_unwind(AssertUnwindSafe(|| {
                run(&config, &map, &ctxs, |tx| producer(tx, &frames), sinks)
            }));
            let msg = match result {
                Ok(_) => "no panic".to_string(),
                Err(payload) => (payload.downcast_ref::<String>().cloned())
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "a non-string panic".to_string()),
            };
            let _ = tx.send(msg);
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run deadlocked instead of propagating its panic")
    }

    fn submit_all(tx: &FrameSender, frames: &[(ProgramId, Vec<u8>)]) {
        for (program, frame) in frames {
            tx.submit_for(*program, frame.clone()).expect("placed");
        }
    }

    #[test]
    fn a_producer_panic_propagates_its_own_message() {
        for _ in 0..10 {
            let msg = panic_message(
                |tx, frames| {
                    submit_all(&tx, &frames[..frames.len() / 2]);
                    panic!("the producer died");
                },
                None,
            );
            assert_eq!(msg, "the producer died");
        }
    }

    #[test]
    fn a_sink_panic_propagates_its_own_message() {
        for _ in 0..10 {
            let msg = panic_message(|tx, frames| submit_all(&tx, frames), Some(3));
            assert_eq!(msg, "shard 1's sink died on record 3");
        }
    }
}
