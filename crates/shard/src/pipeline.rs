//! The sharded ingest pipeline: many producers → one shared frame queue
//! → one shared decode+reconstruct worker pool → per-shard merge queues
//! → per-shard sequence-ordered mergers.
//!
//! ```text
//! producers ──submit_for(prog, frame)──▶ [frame queue] ──▶ worker 0 ─┬─▶ [merge q 0] ─▶ merger 0 ─▶ shard 0 hives
//!   (per-program seq claimed here)           │             worker 1 ─┼─▶ [merge q 1] ─▶ merger 1 ─▶ shard 1 hives
//!                                            └──▶ …        worker N ─┘        …            …
//! ```
//!
//! Routing is **content-authoritative**: every trace payload begins with
//! its program id, so workers classify a frame from its bytes
//! ([`wire::frame_program_id`]) without decoding — the claim a producer
//! made at submit time is just a *slot reservation* in that program's
//! sequence. The claim and the content agree on every healthy frame; the
//! disagreement cases are exactly the router-hardening matrix:
//!
//! * **corrupt / mixed-program frame** — cannot be classified: the
//!   claimed slot is consumed (ordering never stalls), the frame is
//!   counted, never panicked on.
//! * **unknown content program** — classifiable but unroutable: typed
//!   [`ShardError::UnknownProgram`] sample + counter, claimed slot
//!   consumed.
//! * **rerouted** — healthy but claimed against the wrong program (a
//!   misconfigured producer): the claimed slot is consumed, the traces
//!   are delivered to the content program's shard *after* in-order
//!   traffic, in deterministic (claimed program, seq) order.
//!
//! Ordering: producers claim per-program sequence numbers at submit;
//! each shard merger keeps one reorder lane (heap + next counter) per
//! program and releases program *P*'s slot only when it is *P*'s next —
//! so per-program ingest order is byte-identical to serial ingest while
//! frames of different programs (and different shards) flow fully
//! concurrently through the shared pool.

use crate::map::{ShardError, ShardMap};
use crate::stats::{RunCore, ShardCore};
use softborg_ingest::Clock;
use softborg_ingest::{
    BackpressurePolicy, BoundedQueue, IngestConfig, MemoCache, ProcessedTrace, PushOutcome,
    ReconstructContext,
};
use softborg_program::ProgramId;
use softborg_trace::wire;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A frame plus the (program, seq) slot its producer claimed.
struct ShardFrameItem {
    claimed: ProgramId,
    seq: u64,
    bytes: Vec<u8>,
}

/// What a worker made of one frame.
enum ShardWorkerOut {
    /// Healthy, content agrees with the claim: traces for the claimed
    /// program (possibly empty for an empty batch).
    Frame(Vec<Arc<ProcessedTrace>>),
    /// Unclassifiable (wire corruption or mixed-program payloads).
    Corrupt,
    /// Classifiable but no shard owns the content program.
    Unknown,
    /// Healthy but content ≠ claim; traces travel out-of-band in a
    /// [`ReroutedDelivery`], this slot just advances the claimed lane.
    Rerouted,
}

/// One merge-queue entry: a processed frame bound for the claimed
/// program's reorder lane.
struct ShardMergeItem {
    program: ProgramId,
    seq: u64,
    out: ShardWorkerOut,
}

/// A healthy frame whose content program differed from its claimed
/// slot. Collected during the run; applied to the content shard after
/// all in-order traffic, sorted by the (unique) claimed slot so
/// delivery order is deterministic.
pub(crate) struct ReroutedDelivery {
    pub claimed: ProgramId,
    pub seq: u64,
    pub to: ProgramId,
    pub entries: Vec<Arc<ProcessedTrace>>,
}

/// State shared by every stage of one sharded run.
pub(crate) struct ShardShared {
    frames: BoundedQueue<ShardFrameItem>,
    merge: Vec<BoundedQueue<ShardMergeItem>>,
    /// Claimed slots that will never reach a merger (displaced by
    /// DropOldest or submitted after shutdown), as (program id, seq).
    dropped: Mutex<BTreeSet<(u64, u64)>>,
    rerouted: Mutex<Vec<ReroutedDelivery>>,
    /// Per-program claimed-sequence counters.
    counters: BTreeMap<ProgramId, AtomicU64>,
    pub(crate) core: RunCore,
    pub(crate) shard_cores: Vec<ShardCore>,
    senders: AtomicUsize,
    clock: Arc<dyn Clock>,
}

impl ShardShared {
    pub(crate) fn merge_high_water(&self, shard: usize) -> usize {
        self.merge[shard].high_water()
    }

    pub(crate) fn frame_high_water(&self) -> usize {
        self.frames.high_water()
    }
}

/// A clonable producer handle. The frame queue closes when the last
/// clone is dropped, so producer panics still shut the pool down
/// cleanly.
pub struct ShardFrameSender {
    shared: Arc<ShardShared>,
}

impl Clone for ShardFrameSender {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        ShardFrameSender {
            shared: self.shared.clone(),
        }
    }
}

impl Drop for ShardFrameSender {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.frames.close();
        }
    }
}

impl ShardFrameSender {
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
        sh.core.add(&sh.core.frames_submitted, 1);
        match sh.frames.push(ShardFrameItem {
            claimed: program,
            seq,
            bytes: frame,
        }) {
            PushOutcome::Accepted => {}
            PushOutcome::Displaced(old) | PushOutcome::Closed(old) => {
                sh.dropped
                    .lock()
                    .expect("drop set")
                    .insert((old.claimed.0, old.seq));
                sh.core.add(&sh.core.frames_dropped, 1);
            }
        }
        Ok(())
    }
}

/// Last worker out (including by panic) closes every merge queue so the
/// mergers can finish their final drains.
struct WorkerGuard<'a> {
    active: &'a AtomicUsize,
    merge: &'a [BoundedQueue<ShardMergeItem>],
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
    shared: &'a ShardShared,
}

impl Drop for MergerGuard<'_> {
    fn drop(&mut self) {
        self.shared.frames.close();
        for q in &self.shared.merge {
            q.close();
        }
    }
}

/// Classifies one frame and decodes/reconstructs its payloads through
/// the memo. Returns what the claimed lane should see; rerouted traces
/// are stashed in `shared.rerouted` as a side effect.
fn process_frame(
    shared: &ShardShared,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo: &mut MemoCache<Arc<ProcessedTrace>>,
    item: &ShardFrameItem,
) -> ShardWorkerOut {
    let core = &shared.core;
    let content = match wire::frame_program_id(&item.bytes) {
        Err(_) => {
            core.add(&core.frames_corrupt, 1);
            return ShardWorkerOut::Corrupt;
        }
        // An empty batch carries no traces for anyone; the claimed slot
        // simply advances.
        Ok(None) => return ShardWorkerOut::Frame(Vec::new()),
        Ok(Some(id)) => id,
    };
    if let Err(e) = map.shard_of(content) {
        core.add(&core.frames_unknown_program, 1);
        core.sample_error(e);
        return ShardWorkerOut::Unknown;
    }
    let ctx = &ctxs[&content];
    let payloads = wire::batch_payloads(&item.bytes).expect("validated by frame_program_id");
    let mut entries = Vec::with_capacity(payloads.len());
    for p in payloads {
        if let Some(hit) = memo.get(p) {
            core.add(&core.cache_hits, 1);
            entries.push(hit);
            continue;
        }
        core.add(&core.cache_misses, 1);
        match wire::decode(p) {
            Err(_) => {
                core.add(&core.frames_corrupt, 1);
                return ShardWorkerOut::Corrupt;
            }
            Ok(trace) => {
                let decisions =
                    ctx.overlays
                        .get(trace.overlay_version as usize)
                        .and_then(|overlay| {
                            softborg_trace::reconstruct(ctx.program, ctx.deps, overlay, &trace)
                                .ok()
                                .map(|path| path.decisions)
                        });
                let entry = Arc::new(ProcessedTrace { trace, decisions });
                memo.insert(p.to_vec(), entry.clone());
                entries.push(entry);
            }
        }
    }
    if content == item.claimed {
        ShardWorkerOut::Frame(entries)
    } else {
        core.add(&core.frames_rerouted, 1);
        shared
            .rerouted
            .lock()
            .expect("reroute set")
            .push(ReroutedDelivery {
                claimed: item.claimed,
                seq: item.seq,
                to: content,
                entries,
            });
        ShardWorkerOut::Rerouted
    }
}

fn worker_loop(
    shared: &ShardShared,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo_capacity: usize,
    active: &AtomicUsize,
) {
    let _guard = WorkerGuard {
        active,
        merge: &shared.merge,
    };
    let mut memo: MemoCache<Arc<ProcessedTrace>> = MemoCache::new(memo_capacity);
    while let Some(item) = shared.frames.pop() {
        let t0 = shared.clock.now_ns();
        let out = process_frame(shared, map, ctxs, &mut memo, &item);
        shared.core.add(
            &shared.core.worker_busy_ns,
            shared.clock.now_ns().saturating_sub(t0),
        );
        let shard = map
            .shard_of(item.claimed)
            .expect("claimed program validated at submit");
        // If the merger died (sink panic) the queue is closed; the item
        // is discarded while the scope unwinds.
        let _ = shared.merge[shard].push(ShardMergeItem {
            program: item.claimed,
            seq: item.seq,
            out,
        });
    }
    shared
        .core
        .add(&shared.core.cache_evictions, memo.evictions());
}

/// Heap entry ordered by ascending claimed sequence number.
struct BySeq(ShardMergeItem);

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

/// One program's reorder lane inside a shard merger.
#[derive(Default)]
struct Lane {
    next: u64,
    pending: BinaryHeap<Reverse<BySeq>>,
}

fn shard_merger_loop<S: FnMut(ProgramId, &ProcessedTrace)>(
    shared: &ShardShared,
    shard: usize,
    sink: &mut S,
) {
    let _guard = MergerGuard { shared };
    let shard_core = &shared.shard_cores[shard];
    let mut lanes: BTreeMap<ProgramId, Lane> = BTreeMap::new();
    let skip_dropped = |program: ProgramId, next: &mut u64| {
        let mut dropped = shared.dropped.lock().expect("drop set");
        while dropped.remove(&(program.0, *next)) {
            *next += 1;
        }
    };
    let emit = |item: ShardMergeItem, sink: &mut S| {
        match &item.out {
            ShardWorkerOut::Frame(entries) => {
                for entry in entries {
                    sink(item.program, entry);
                }
                let n = entries.len() as u64;
                shared.core.add(&shared.core.traces_merged, n);
                shared.core.add(&shard_core.traces_merged, n);
            }
            // Counted at the worker (globally) and here (per shard for
            // corrupt); the slot is consumed so ordering stays intact.
            ShardWorkerOut::Corrupt => {
                shared.core.add(&shard_core.frames_corrupt, 1);
            }
            ShardWorkerOut::Unknown | ShardWorkerOut::Rerouted => {}
        }
        shared.core.add(&shared.core.frames_merged, 1);
        shared.core.add(&shard_core.frames_merged, 1);
    };
    // `pop` returns `None` once the workers are done: every surviving
    // slot is then in some lane, every gap in the drop set.
    while let Some(item) = shared.merge[shard].pop() {
        let program = item.program;
        let lane = lanes.entry(program).or_default();
        lane.pending.push(Reverse(BySeq(item)));
        loop {
            skip_dropped(program, &mut lane.next);
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
            skip_dropped(*program, &mut lane.next);
            debug_assert_eq!(it.seq, lane.next, "merger saw a non-dropped gap");
            lane.next = it.seq + 1;
            emit(it, sink);
        }
    }
}

/// Runs the sharded pipeline to completion.
///
/// `producer` runs on its own thread and claims (program, seq) slots
/// through the [`ShardFrameSender`] it is given (clone it to fan
/// production out). `sinks[i]` becomes shard *i*'s merger sink, running
/// on its own thread with exclusive access to whatever mutable state it
/// captured (the sharded hive passes closures over shard *i*'s hives);
/// it observes each program's traces in exact claimed-sequence order.
///
/// Returns the producer's result plus the shared state (for stats
/// snapshotting) and the rerouted deliveries the caller must apply —
/// sorted deterministically — once it regains access to the hives.
///
/// # Panics
///
/// Propagates producer, worker, and sink panics (none can deadlock the
/// run). Panics if `sinks.len() != map.n_shards()`.
pub(crate) fn run_sharded<R, P, S>(
    config: &IngestConfig,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    producer: P,
    sinks: Vec<S>,
) -> (R, Arc<ShardShared>, Vec<ReroutedDelivery>)
where
    P: FnOnce(ShardFrameSender) -> R + Send,
    R: Send,
    S: FnMut(ProgramId, &ProcessedTrace) + Send,
{
    assert_eq!(sinks.len(), map.n_shards(), "one sink per shard");
    let shared = Arc::new(ShardShared {
        frames: BoundedQueue::new(config.queue_capacity, config.policy),
        merge: (0..map.n_shards())
            .map(|_| BoundedQueue::new(config.merge_capacity, BackpressurePolicy::Block))
            .collect(),
        dropped: Mutex::new(BTreeSet::new()),
        rerouted: Mutex::new(Vec::new()),
        counters: map
            .assignments()
            .keys()
            .map(|&p| (p, AtomicU64::new(0)))
            .collect(),
        core: RunCore::default(),
        shard_cores: (0..map.n_shards()).map(|_| ShardCore::default()).collect(),
        senders: AtomicUsize::new(1),
        clock: config.clock.clone(),
    });
    let sender = ShardFrameSender {
        shared: shared.clone(),
    };
    let n_workers = config.workers.max(1);
    let active = AtomicUsize::new(n_workers);
    let memo_capacity = config.memo_capacity;
    let result = std::thread::scope(|s| {
        let producer_handle = s.spawn(move || producer(sender));
        let worker_handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let shared = &shared;
                let active = &active;
                s.spawn(move || worker_loop(shared, map, ctxs, memo_capacity, active))
            })
            .collect();
        let merger_handles: Vec<_> = sinks
            .into_iter()
            .enumerate()
            .map(|(i, mut sink)| {
                let shared = &shared;
                s.spawn(move || shard_merger_loop(shared, i, &mut sink))
            })
            .collect();
        for h in merger_handles.into_iter().chain(worker_handles) {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
        match producer_handle.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    });
    let rerouted = {
        let mut r = shared.rerouted.lock().expect("reroute set");
        let mut r = std::mem::take(&mut *r);
        // The claimed slot is unique per frame: a total, deterministic
        // delivery order regardless of worker interleaving.
        r.sort_by_key(|d| (d.claimed.0, d.seq));
        r
    };
    (result, shared, rerouted)
}
