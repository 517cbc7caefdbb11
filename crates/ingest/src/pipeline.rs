//! The ordered-units ingest engine. A run is `n` units in hand; unit `i`
//! yields the frames of its claimed slots. The calling thread and
//! `workers − 1` pooled jobs claim units by index and prepare every
//! frame on the thread that ran its unit; the calling thread merges unit
//! `i` into the per-shard sinks as soon as units `0..=i` are ready,
//! between units of its own.
//!
//! ```text
//!               claim          run the unit, prepare each frame         merge, calling thread only
//! units 0..n ─┬─▶ caller   ─▶ unit i ─▶ classify·memo·decode·reconstruct ─▶ ready[i] ─┐
//!             ├─▶ pooled 1 ─▶ unit j ─▶        (one shared memo)          ─▶ ready[j] ─┼─▶ unit order ─▶ sink[shard]
//!             └─▶ …                                                                   ─┘
//! ```
//!
//! One hive is the one-program, one-shard case; a sharded hive passes
//! one sink per shard. Properties the shape buys:
//!
//! * **Determinism.** A unit yields its frames in slot order, and the
//!   caller lays its units out so that their frames, in unit order, are
//!   each program's claimed slots in order (pod *j* of a fleet owns
//!   slots `j*k..(j+1)*k`; frames in hand are sorted by claimed
//!   `(program, seq)`). The merge releases units in index order
//!   whichever thread prepared them, so every sink observes each
//!   program's traces in exactly the serial ingest order. Corrupt and
//!   refused frames consume their slot.
//! * **Frames in hand.** A pod unit makes its frames as it runs and a
//!   frame unit holds one, so there is no queue to bound and nothing to
//!   shed: in flight are at most one unit per participant plus the
//!   prepared units that wait for an earlier one.
//! * **Recycling.** One memo, shared by every participant, keeps the
//!   [`MergeRecord`] prepared for a trace keyed on its exact encoded
//!   bytes ([`wire::read_batch`] hands the slices out without decoding):
//!   the decoded and reconstructed trace stripped to what the sink folds,
//!   with its path hash and failure-mode key derived once. Popular
//!   executions — by design the common case, since a deployed population
//!   re-executes the same paths constantly — cost one decode,
//!   reconstruction and preparation for the life of the memo, whichever
//!   participant meets them, not one per arrival. A participant holds the
//!   memo's lock only to probe it or to insert; decode and replay run
//!   unlocked, on its own replay tables. A frame carries each distinct
//!   payload once, so a participant looks each up once per frame and the
//!   merge folds the frame's executions by index, in execution order. The
//!   memo is an [`IngestMemo`], which the caller keeps and [`run`]
//!   borrows, so it outlives the run: a hive keeps it for its whole life,
//!   and a trace prepared in one round is a hit in the next. That holds
//!   because a prepared record is a function of the program, the trace
//!   bytes (which name the overlay version) and that version's overlay,
//!   and overlay history only grows by appending: a trace whose version
//!   does not exist yet is never memoized, and a context whose
//!   [`epoch`](ReconstructContext::epoch) changed — its owner's state was
//!   replaced — clears the memo. This is the paper's information
//!   recycling applied to the hive's own ingest path.
//! * **No per-run threads, no hand-off.** The pooled jobs run on the
//!   process-wide [`pool`], so after warm-up a run creates no OS thread,
//!   and a frame never changes thread between being made and prepared.
//!
//! The contract is one sentence: every claimed slot `0..n` of a program
//! merges into that program's sink, in order. Every trace payload begins
//! with its program id, so a participant checks each frame's content
//! against its claim from the payload slices it validated once
//! ([`wire::BatchView::program_id`]); a frame that breaks the contract is
//! counted, its slot consumed (ordering never stalls) and nothing of it
//! merged — never a panic:
//!
//! * **corrupt / mixed-program frame** — cannot be classified.
//! * **unknown content program** — no sink serves it: typed
//!   [`ShardError::UnknownProgram`] sample + counter.
//! * **misclaimed** — healthy, but claimed in another program's lane (a
//!   misconfigured producer): counted in `frames_rerouted`.
//!
//! A panic in a unit or a sink propagates from [`run`] with its own
//! payload once every participant has stopped; nothing waits on a unit
//! that will never be ready, so no panic can deadlock a run.

use crate::clock::{Clock, MonotonicClock};
use crate::map::{ShardError, ShardMap};
use crate::memo::MemoCache;
use crate::pool;
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
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Participants that run and prepare units (minimum 1): the calling
    /// thread plus `workers − 1` pooled jobs.
    pub workers: usize,
    /// Memo entries for recycling reconstructions, in total: the one
    /// memo every participant of a run shares, which the hive keeps
    /// across runs. At capacity it evicts with a second-chance (clock)
    /// sweep over all of them (0 disables the memo).
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
            memo_capacity: 8192,
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
    /// Names `overlays` up to appends: it must change whenever a version
    /// already in `overlays` may have changed, and a run whose contexts'
    /// epochs differ from the ones its [`IngestMemo`] was filled under
    /// clears it.
    pub epoch: u64,
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

/// Branch decisions as a memo keeps them: exactly sized.
type Decisions = Box<[(BranchSiteId, bool)]>;

/// One trace as a merger's sink folds it: what the tree and the
/// detectors read, plus the two facts they would otherwise re-derive on
/// every arrival. Workers prepare one per distinct trace and memoize it.
#[derive(Debug)]
pub struct MergeRecord {
    /// The reconstructed decisions and their [`path_hash`], when the
    /// trace is exact.
    pub path: Option<(Decisions, u64)>,
    /// The outcome's [`failure_key`] (`None` for a success).
    pub failure_key: Option<Box<str>>,
    /// The execution's outcome.
    pub outcome: Outcome,
    /// Observed lock-order pairs.
    pub lock_pairs: Box<[(u32, u32)]>,
    /// Per-global access summaries.
    pub global_summaries: Box<[GlobalAccessSummary]>,
}

impl MergeRecord {
    /// Prepares a processed trace for merging: derives the path hash and
    /// failure-mode key with the same functions serial ingest calls,
    /// frees the replay-only buffers (bits, guard bits, syscall returns,
    /// schedule) and keeps every kept buffer at its exact size, since a
    /// memo may hold the record for the life of a hive.
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
                (d.into_boxed_slice(), hash)
            }),
            failure_key: failure_key(&outcome).map(String::into_boxed_str),
            outcome,
            lock_pairs: lock_pairs.into_boxed_slice(),
            global_summaries: global_summaries.into_boxed_slice(),
        }
    }
}

/// What preparing one frame made of it.
enum Prepared {
    /// Healthy, content agrees with the claim: the frame's distinct
    /// traces for the claimed program and, per execution in order, the
    /// index of its trace (both empty for an empty batch).
    Frame {
        records: Vec<Arc<MergeRecord>>,
        order: Vec<u32>,
    },
    /// Unclassifiable (wire corruption or mixed-program payloads).
    Corrupt,
    /// Classifiable, but its content program is unknown or is not the
    /// claimed one.
    Refused,
}

/// One prepared frame, waiting for its unit's turn to merge.
struct ReadyFrame {
    program: ProgramId,
    shard: usize,
    out: Prepared,
    /// [`Clock::now_ns`] when it was prepared, for the latency gauge.
    prepared_at_ns: u64,
}

/// What a participant needs to prepare frames, shared by all of them.
struct Prep<'r, 'c> {
    stats: &'r StatsCore,
    map: &'r ShardMap,
    ctxs: &'r BTreeMap<ProgramId, ReconstructContext<'c>>,
    memo: &'r Memo,
    clock: &'r dyn Clock,
}

/// Where a unit yields the frames of its claimed slots, in slot order.
/// Each frame is prepared on the spot, through the shared memo and the
/// replay tables of the participant running the unit, so the unit keeps
/// its bytes.
pub struct UnitFrames<'r, 'c> {
    prep: &'r Prep<'r, 'c>,
    scratch: &'r mut ReplayScratch,
    out: Vec<ReadyFrame>,
}

impl UnitFrames<'_, '_> {
    /// Prepares one encoded batch frame ([`wire::encode_batch`]) claimed
    /// in `program`'s lane, as the unit's next slot.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when `program` is not in the shard
    /// map: there is no lane to claim a slot in. (This is a producer-side
    /// configuration error, distinct from the `frames_unknown_program`
    /// counter, which tracks unroutable frame *content*.)
    pub fn push(&mut self, program: ProgramId, frame: &[u8]) -> Result<(), ShardError> {
        let Prep {
            stats, map, clock, ..
        } = *self.prep;
        let shard = map.shard_of(program)?;
        stats.frames_submitted.incr();
        let t0 = clock.now_ns();
        let out = process_frame(self.prep, self.scratch, program, frame);
        let prepared_at_ns = clock.now_ns();
        let busy_ns = prepared_at_ns.saturating_sub(t0);
        stats.worker_busy_ns.add(busy_ns);
        if let Some(h) = &stats.stage_work_ns {
            h.record(busy_ns);
        }
        self.out.push(ReadyFrame {
            program,
            shard,
            out,
            prepared_at_ns,
        });
        Ok(())
    }
}

/// The claims a producer makes, collected so that the frames run as
/// units after it returns (see [`run_producer`]).
pub struct FrameSender {
    claims: Arc<Mutex<Claims>>,
}

struct Claims {
    /// Next sequence number per placed program.
    next: BTreeMap<ProgramId, u64>,
    frames: Vec<(ProgramId, u64, Vec<u8>)>,
}

impl FrameSender {
    /// Submits one encoded batch frame, claiming the next sequence slot
    /// of `program`. Returns the claimed sequence number.
    ///
    /// The run checks the claim against the program id embedded in the
    /// frame bytes: a frame of another program is counted and refused.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when `program` is not in the shard
    /// map — there is no sequence lane to claim a slot in.
    pub fn submit_for(&self, program: ProgramId, frame: Vec<u8>) -> Result<u64, ShardError> {
        let mut claims = lock(&self.claims);
        let next = (claims.next.get_mut(&program)).ok_or(ShardError::UnknownProgram { program })?;
        let seq = *next;
        *next += 1;
        claims.frames.push((program, seq, frame));
        Ok(seq)
    }
}

/// No lock here guards an invariant a panic could break mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Prepared records by the exact bytes of their trace payload.
type Memo = MemoCache<Arc<MergeRecord>>;

/// The one reconstruction memo a run's participants share, and each
/// participant's replay tables, which whoever calls [`run`] keeps across
/// runs (a hive keeps them for its life). A run rebuilds the memo empty
/// when [`IngestConfig::memo_capacity`] differs from its capacity, or
/// when a context's [`epoch`](ReconstructContext::epoch) differs from
/// the one it was filled under; another worker count only adds or drops
/// replay tables.
#[derive(Default)]
pub struct IngestMemo {
    memo: Memo,
    scratch: Vec<ReplayScratch>,
    epochs: Vec<(ProgramId, u64)>,
}

impl std::fmt::Debug for IngestMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestMemo")
            .field("capacity", &self.memo.capacity())
            .field("entries", &self.entries())
            .field("participants", &self.scratch.len())
            .finish()
    }
}

impl IngestMemo {
    /// Entries the memo holds.
    pub fn entries(&self) -> usize {
        self.memo.len()
    }

    /// The memo and one participant's replay tables each for a run of
    /// `workers` over `ctxs`; the memo is rebuilt when it was filled at
    /// another capacity or under other contexts.
    fn fit(
        &mut self,
        workers: usize,
        capacity: usize,
        ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    ) -> (&Memo, &mut [ReplayScratch]) {
        let epochs: Vec<_> = ctxs.iter().map(|(&id, c)| (id, c.epoch)).collect();
        if (self.memo.capacity(), &self.epochs) != (capacity, &epochs) {
            self.memo = MemoCache::new(capacity);
            self.epochs = epochs;
        }
        self.scratch.resize_with(workers, ReplayScratch::default);
        (&self.memo, &mut self.scratch)
    }
}

/// Validates one frame once, checks its content program against the
/// claim, and decodes, reconstructs and prepares each distinct payload
/// through the memo. Returns what the claimed lane should see.
///
/// An execution that repeats a payload earlier in its frame counts as a
/// memo hit, and a payload the memo missed goes in with its reference
/// bit set when the frame repeats it, as that repeat's lookup would
/// have left it.
fn process_frame(
    prep: &Prep<'_, '_>,
    scratch: &mut ReplayScratch,
    claimed: ProgramId,
    bytes: &[u8],
) -> Prepared {
    let Prep { stats, memo, .. } = *prep;
    let classified = wire::read_batch(bytes).and_then(|batch| Ok((batch.program_id()?, batch)));
    let (content, batch) = match classified {
        Err(_) => {
            stats.frames_corrupt.incr();
            return Prepared::Corrupt;
        }
        // An empty batch carries no traces for anyone; the claimed slot
        // simply advances.
        Ok((None, _)) => {
            return Prepared::Frame {
                records: Vec::new(),
                order: Vec::new(),
            }
        }
        Ok((Some(id), batch)) => (id, batch),
    };
    let Some(ctx) = prep.ctxs.get(&content) else {
        stats.frames_unknown_program.incr();
        stats.sample_error(ShardError::UnknownProgram { program: content });
        return Prepared::Refused;
    };
    if content != claimed {
        stats.frames_rerouted.incr();
        return Prepared::Refused;
    }
    let order: Vec<u32> = batch.indices().map(|i| i as u32).collect();
    // How often the frame names each payload, up to twice (empty when
    // nothing repeats).
    let mut named = Vec::new();
    if batch.len() > batch.distinct() {
        named.resize(batch.distinct(), 0u8);
        for &i in &order {
            named[i as usize] = named[i as usize].saturating_add(1);
        }
    }
    // One probe of the memo for every distinct payload; the misses are
    // decoded and replayed after it, with the memo unlocked.
    let keys: Vec<_> = batch.payloads().map(|p| (memo.key_hash(p), p)).collect();
    let mut records = memo.get_all(&keys);
    let mut misses = 0;
    for (k, (&(hash, p), record)) in keys.iter().zip(&mut records).enumerate() {
        if record.is_some() {
            continue;
        }
        misses += 1;
        let Ok(trace) = wire::decode(p) else {
            stats.cache_misses.add(misses);
            stats.frames_corrupt.incr();
            return Prepared::Corrupt;
        };
        // A later run may know the version: its result is not final.
        let known = (trace.overlay_version as usize) < ctx.overlays.len();
        let decisions = ctx.decisions(&trace, scratch);
        let prepared = Arc::new(MergeRecord::prepare(ProcessedTrace { trace, decisions }));
        let repeated = named.get(k).is_some_and(|&n| n > 1);
        if known && memo.insert(hash, p, Arc::clone(&prepared), repeated) {
            stats.cache_evictions.incr();
        }
        *record = Some(prepared);
    }
    stats.cache_misses.add(misses);
    (stats.cache_hits).add((batch.len() - batch.distinct()) as u64 + (keys.len() as u64 - misses));
    let records = (records.into_iter())
        .map(|r| r.expect("every miss was prepared"))
        .collect();
    Prepared::Frame { records, order }
}

/// A unit's result and its prepared frames, once it has run.
type Done<R> = (R, Vec<ReadyFrame>);

/// The calling thread's side of a run: it folds units into the sinks in
/// index order and keeps their results.
struct Merger<'r, R, S> {
    stats: &'r StatsCore,
    clock: &'r dyn Clock,
    sinks: Vec<S>,
    results: Vec<R>,
}

impl<R, S: FnMut(ProgramId, &MergeRecord)> Merger<'_, R, S> {
    /// Merges every ready unit whose predecessors have all merged.
    fn merge_ready(&mut self, ready: &Mutex<Vec<Option<Done<R>>>>) {
        loop {
            let next = lock(ready)
                .get_mut(self.results.len())
                .and_then(Option::take);
            let Some((result, frames)) = next else {
                return;
            };
            self.merge(frames);
            self.results.push(result);
        }
    }

    fn merge(&mut self, frames: Vec<ReadyFrame>) {
        let stats = self.stats;
        let now = self.clock.now_ns();
        for frame in frames {
            let shard_stats = &stats.per_shard[frame.shard];
            match frame.out {
                Prepared::Frame { records, order } => {
                    let sink = &mut self.sinks[frame.shard];
                    for &i in &order {
                        sink(frame.program, &records[i as usize]);
                    }
                    let n = order.len() as u64;
                    stats.traces_merged.add(n);
                    shard_stats.traces_merged.add(n);
                }
                // Counted when prepared (run-wide) and here (per shard);
                // the slot is consumed so ordering stays intact.
                Prepared::Corrupt => shard_stats.frames_corrupt.incr(),
                Prepared::Refused => {}
            }
            stats.frames_merged.incr();
            shard_stats.frames_merged.incr();
            let latency_ns = now.saturating_sub(frame.prepared_at_ns);
            stats.frame_latency_ns.add(latency_ns);
            if let Some(h) = &stats.stage_merge_wait_ns {
                h.record(latency_ns);
            }
        }
    }
}

/// Runs `units` to completion and returns each unit's result, in unit
/// order, with the run's stats.
///
/// `unit(units[i], frames)` runs unit `i`, yielding the frames of its
/// claimed slots through `frames`; its frames are prepared on the thread
/// that runs it. The units are claimed by index by `config.workers`
/// participants: the calling thread and up to `workers − 1` jobs on the
/// [`pool`] (never more participants than units, so `workers = 1` or a
/// one-unit run spawns no job). `sinks[i]` is shard *i*'s sink, with
/// exclusive access to whatever mutable state it captured (a hive passes
/// its merge state; the sharded hive one closure per shard over that
/// shard's hives); every sink runs on the calling thread, which merges
/// unit `i` once units `0..=i` are ready. `ctxs` holds the
/// reconstruction inputs of every program in `map`; `memo` is the memo
/// the participants share and their replay tables, kept by the caller
/// across runs.
///
/// # Panics
///
/// Propagates unit and sink panics with their own payloads, after every
/// participant stopped (none can deadlock the run). Panics if
/// `sinks.len() != map.n_shards()`.
pub fn run<T, R, S>(
    config: &IngestConfig,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo: &mut IngestMemo,
    units: Vec<T>,
    unit: impl Fn(T, &mut UnitFrames<'_, '_>) -> R + Sync,
    sinks: Vec<S>,
) -> (Vec<R>, IngestStats)
where
    T: Send,
    R: Send,
    S: FnMut(ProgramId, &MergeRecord),
{
    assert_eq!(sinks.len(), map.n_shards(), "one sink per shard");
    let started = config.clock.now_ns();
    let stats = StatsCore::new(config.obs.registry.as_ref(), map.n_shards());
    let n_workers = config.workers.max(1);
    let n_units = units.len();
    let (memo, scratch) = memo.fit(n_workers, config.memo_capacity, ctxs);
    let prep = Prep {
        stats: &stats,
        map,
        ctxs,
        memo,
        clock: &*config.clock,
    };
    let todo = Mutex::new(units.into_iter().enumerate());
    let ready: Mutex<Vec<Option<Done<R>>>> = Mutex::new((0..n_units).map(|_| None).collect());
    let mut merger = Merger {
        stats: &stats,
        clock: &*config.clock,
        sinks,
        results: Vec::with_capacity(n_units),
    };
    // Claims units until none is left; `between` runs after each one.
    let participate = |scratch: &mut ReplayScratch, between: &mut dyn FnMut()| loop {
        let claimed = lock(&todo).next();
        let Some((i, t)) = claimed else { break };
        let mut frames = UnitFrames {
            prep: &prep,
            scratch: &mut *scratch,
            out: Vec::new(),
        };
        let result = unit(t, &mut frames);
        lock(&ready)[i] = Some((result, frames.out));
        between();
    };
    let (own, pooled) = scratch.split_first_mut().expect("at least one participant");
    let participate = &participate;
    pool::scope(|s| {
        for scratch in pooled
            .iter_mut()
            .take(n_units.min(n_workers).saturating_sub(1))
        {
            s.spawn(move || participate(scratch, &mut || {}));
        }
        participate(own, &mut || merger.merge_ready(&ready));
    });
    // Every participant has stopped, so every unit is ready.
    merger.merge_ready(&ready);
    debug_assert_eq!(merger.results.len(), n_units, "every unit merged");
    let mut stats = stats.snapshot(n_workers, config.clock.now_ns().saturating_sub(started));
    for s in &mut stats.per_shard {
        s.programs = map.programs_on(s.shard).len();
    }
    // Only content-determined fields go in the event payload (a frame's
    // verdict depends on its bytes and claim alone, and frame and trace
    // counts are fixed by the in-order merge contract); cache hits vary
    // with which participant meets a payload first and would break the
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
    (merger.results, stats)
}

/// Runs `producer`, then the frames it claimed through its
/// [`FrameSender`] as one-frame units, each program's in claimed
/// sequence order. The producer runs on the calling thread before any
/// frame is prepared; the rest is [`run`].
///
/// # Panics
///
/// As [`run`]; a producer panic propagates before any frame merges.
pub fn run_producer<R, P, S>(
    config: &IngestConfig,
    map: &ShardMap,
    ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
    memo: &mut IngestMemo,
    producer: P,
    sinks: Vec<S>,
) -> (R, IngestStats)
where
    P: FnOnce(FrameSender) -> R,
    S: FnMut(ProgramId, &MergeRecord),
{
    let claims = Arc::new(Mutex::new(Claims {
        next: map.assignments().keys().map(|&p| (p, 0)).collect(),
        frames: Vec::new(),
    }));
    let result = producer(FrameSender {
        claims: Arc::clone(&claims),
    });
    let mut frames = std::mem::take(&mut lock(&claims).frames);
    frames.sort_by_key(|&(program, seq, _)| (program, seq));
    let (_, stats) = run(
        config,
        map,
        ctxs,
        memo,
        frames,
        |(program, _, frame), out| {
            (out.push(program, &frame)).expect("a claim is placed when it is made");
        },
        sinks,
    );
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_pod::{Pod, PodConfig};
    use softborg_program::scenarios::{self, Scenario};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

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

    /// What a sink saw of one record.
    type Seen = (ProgramId, Option<u64>, Option<Box<str>>);

    fn seen(program: ProgramId, r: &MergeRecord) -> Seen {
        (program, r.path.as_ref().map(|p| p.1), r.failure_key.clone())
    }

    /// Runs `body` with the two-shard setup's map, contexts and 40
    /// frames per program on its own thread, and returns what it
    /// returned or the message of the panic it propagated.
    fn on_two_shards<F>(body: F) -> Result<(), String>
    where
        F: FnOnce(&ShardMap, &BTreeMap<ProgramId, ReconstructContext<'_>>, &[(ProgramId, Vec<u8>)])
            + Send
            + 'static,
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
                        epoch: 0,
                    };
                    (s.program.id(), ctx)
                })
                .collect();
            let frames = frames(&scs, 40);
            let result = catch_unwind(AssertUnwindSafe(|| body(&map, &ctxs, &frames)));
            let _ = tx.send(result.map_err(|payload| {
                (payload.downcast_ref::<String>().cloned())
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "a non-string panic".to_string())
            }));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run deadlocked instead of propagating its panic")
    }

    fn config(workers: usize) -> IngestConfig {
        IngestConfig {
            workers,
            ..IngestConfig::default()
        }
    }

    /// Shard `shard`'s sink, which panics on its record `die_at`.
    fn dying_sink(shard: usize, die_at: Option<u64>) -> impl FnMut(ProgramId, &MergeRecord) {
        let mut seen = 0u64;
        move |_, _| {
            seen += 1;
            if shard == 1 && Some(seen) == die_at {
                panic!("shard 1's sink died on record {seen}");
            }
        }
    }

    fn submit_all(tx: &FrameSender, frames: &[(ProgramId, Vec<u8>)]) {
        for (program, frame) in frames {
            tx.submit_for(*program, frame.clone()).expect("placed");
        }
    }

    /// Spins until `flag` is set: a participant that waits here lets
    /// the others claim units first.
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !flag.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "no other participant ran a unit");
            std::thread::yield_now();
        }
    }

    /// Runs the frames as one-frame units on 4 participants; the unit
    /// of whichever participant `dies` picks panics, once another
    /// participant has run a unit.
    fn unit_panic(dies: fn(ThreadId, ThreadId) -> bool) -> Result<(), String> {
        on_two_shards(move |map, ctxs, frames| {
            let caller = std::thread::current().id();
            let (caller_ran, pooled_ran) = (AtomicBool::new(false), AtomicBool::new(false));
            let memo = &mut IngestMemo::default();
            let sinks = vec![dying_sink(0, None), dying_sink(1, None)];
            let unit = |(program, frame): &(ProgramId, Vec<u8>), out: &mut UnitFrames| {
                let me = std::thread::current().id();
                let (mine, theirs) = match me == caller {
                    true => (&caller_ran, &pooled_ran),
                    false => (&pooled_ran, &caller_ran),
                };
                mine.store(true, Ordering::SeqCst);
                wait_for(theirs);
                if dies(me, caller) {
                    panic!(
                        "a unit died on {}",
                        if me == caller {
                            "the caller"
                        } else {
                            "a pooled participant"
                        }
                    );
                }
                out.push(*program, frame).expect("placed");
            };
            run(
                &config(4),
                map,
                ctxs,
                memo,
                frames.iter().collect(),
                unit,
                sinks,
            );
        })
    }

    #[test]
    fn a_producer_panic_propagates_its_own_message() {
        for _ in 0..10 {
            let msg = on_two_shards(|map, ctxs, frames| {
                let memo = &mut IngestMemo::default();
                let sinks = vec![dying_sink(0, None), dying_sink(1, None)];
                let producer = |tx: FrameSender| {
                    submit_all(&tx, &frames[..frames.len() / 2]);
                    panic!("the producer died");
                };
                run_producer(&config(4), map, ctxs, memo, producer, sinks);
            });
            assert_eq!(msg, Err("the producer died".to_string()));
        }
    }

    #[test]
    fn a_sink_panic_propagates_its_own_message() {
        for _ in 0..10 {
            let msg = on_two_shards(|map, ctxs, frames| {
                let memo = &mut IngestMemo::default();
                let sinks = vec![dying_sink(0, Some(3)), dying_sink(1, Some(3))];
                let producer = |tx: FrameSender| submit_all(&tx, frames);
                run_producer(&config(4), map, ctxs, memo, producer, sinks);
            });
            assert_eq!(msg, Err("shard 1's sink died on record 3".to_string()));
        }
    }

    #[test]
    fn a_unit_panic_on_a_pooled_participant_propagates_its_own_message() {
        for _ in 0..10 {
            let msg = unit_panic(|me, caller| me != caller);
            assert_eq!(msg, Err("a unit died on a pooled participant".to_string()));
        }
    }

    #[test]
    fn a_unit_panic_on_the_calling_thread_propagates_its_own_message() {
        for _ in 0..10 {
            let msg = unit_panic(|me, caller| me == caller);
            assert_eq!(msg, Err("a unit died on the caller".to_string()));
        }
    }

    /// Every record each shard's sink must see, in order, when the
    /// frames are merged in the order given: prepared serially.
    fn serial_order(
        map: &ShardMap,
        ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
        frames: &[(ProgramId, Vec<u8>)],
    ) -> Vec<Vec<Seen>> {
        let mut want = vec![Vec::new(); map.n_shards()];
        let scratch = &mut ReplayScratch::default();
        for (program, frame) in frames {
            let ctx = &ctxs[program];
            for trace in wire::decode_batch(frame).expect("a pod's frame") {
                let decisions = ctx.decisions(&trace, scratch);
                let record = MergeRecord::prepare(ProcessedTrace { trace, decisions });
                want[map.shard_of(*program).expect("placed")].push(seen(*program, &record));
            }
        }
        want
    }

    #[test]
    fn units_merge_in_slot_order_for_any_worker_count() {
        on_two_shards(|map, ctxs, frames| {
            let want = serial_order(map, ctxs, frames);
            // Units of 0, 1, 2 and 3 frames in turn: an empty unit claims
            // nothing, and later units often finish first.
            let mut units = Vec::new();
            let mut rest = frames;
            for size in (0..4).cycle() {
                if rest.is_empty() {
                    break;
                }
                let (unit, tail) = rest.split_at(size.min(rest.len()));
                units.push(unit);
                rest = tail;
            }
            let n_units = units.len();
            for workers in 1..=4 {
                let memo = &mut IngestMemo::default();
                let mut got = vec![Vec::new(); 2];
                let sinks: Vec<_> = (got.iter_mut())
                    .map(|got| move |p: ProgramId, r: &MergeRecord| got.push(seen(p, r)))
                    .collect();
                let unit = |unit: &[(ProgramId, Vec<u8>)], out: &mut UnitFrames| {
                    if unit.len() == 2 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    for (program, frame) in unit {
                        out.push(*program, frame).expect("placed");
                    }
                    unit.len()
                };
                let (sizes, stats) = run(
                    &config(workers),
                    map,
                    ctxs,
                    memo,
                    units.clone(),
                    unit,
                    sinks,
                );
                assert!(
                    got == want,
                    "records merged out of slot order at workers={workers}"
                );
                let want_sizes: Vec<usize> = units.iter().map(|u| u.len()).collect();
                assert_eq!(sizes, want_sizes, "results in unit order");
                assert_eq!(sizes.len(), n_units);
                assert_eq!(stats.frames_merged, frames.len() as u64);
                assert_eq!(stats.frames_submitted, frames.len() as u64);
                assert_eq!(stats.traces_merged, frames.len() as u64);
            }
        })
        .expect("no panic");
    }

    #[test]
    fn zero_frame_units_return_their_results_and_merge_nothing() {
        on_two_shards(|map, ctxs, _| {
            for workers in 1..=3 {
                let memo = &mut IngestMemo::default();
                let sinks = vec![dying_sink(1, Some(1)), dying_sink(1, Some(1))];
                let (results, stats) = run(
                    &config(workers),
                    map,
                    ctxs,
                    memo,
                    (0..9).collect(),
                    |i: u32, _: &mut UnitFrames| i * 2,
                    sinks,
                );
                assert_eq!(results, (0..9).map(|i| i * 2).collect::<Vec<_>>());
                assert_eq!((stats.frames_submitted, stats.frames_merged), (0, 0));
                let (results, _) = run(
                    &config(workers),
                    map,
                    ctxs,
                    memo,
                    Vec::<u32>::new(),
                    |i, _: &mut UnitFrames| i,
                    vec![dying_sink(0, None), dying_sink(1, None)],
                );
                assert!(results.is_empty());
            }
        })
        .expect("no panic");
    }

    #[test]
    fn one_worker_runs_every_unit_on_the_calling_thread() {
        on_two_shards(|map, ctxs, frames| {
            let caller = std::thread::current().id();
            let memo = &mut IngestMemo::default();
            let sinks = vec![dying_sink(0, None), dying_sink(1, None)];
            let unit = |(program, frame): &(ProgramId, Vec<u8>), out: &mut UnitFrames| {
                out.push(*program, frame).expect("placed");
                std::thread::current().id()
            };
            let (ran_on, _) = run(
                &config(1),
                map,
                ctxs,
                memo,
                frames.iter().collect(),
                unit,
                sinks,
            );
            assert!(ran_on.iter().all(|&t| t == caller));
        })
        .expect("no panic");
    }

    #[test]
    fn a_producers_claims_merge_in_claimed_order() {
        on_two_shards(|map, ctxs, frames| {
            let want = serial_order(map, ctxs, frames);
            let memo = &mut IngestMemo::default();
            let mut got = vec![Vec::new(); 2];
            let sinks: Vec<_> = (got.iter_mut())
                .map(|got| move |p: ProgramId, r: &MergeRecord| got.push(seen(p, r)))
                .collect();
            // Programs' claims interleaved, each program's in order.
            let producer = |tx: FrameSender| {
                for (program, frame) in frames {
                    tx.submit_for(*program, frame.clone()).expect("placed");
                }
                let stranger = ProgramId(u64::MAX);
                tx.submit_for(stranger, Vec::new())
            };
            let (refused, stats) = run_producer(&config(3), map, ctxs, memo, producer, sinks);
            assert_eq!(
                refused,
                Err(ShardError::UnknownProgram {
                    program: ProgramId(u64::MAX)
                })
            );
            // Only each program's own order is claimed.
            let per_program = |seen: Vec<Vec<Seen>>| {
                let mut by = BTreeMap::<ProgramId, Vec<Seen>>::new();
                for s in seen.into_iter().flatten() {
                    by.entry(s.0).or_default().push(s);
                }
                by
            };
            assert!(
                per_program(got) == per_program(want),
                "a program's claims merged out of order"
            );
            assert_eq!(stats.frames_merged, frames.len() as u64);
        })
        .expect("no panic");
    }

    #[test]
    fn in_frame_repeats_are_hits_and_fold_in_execution_order() {
        on_two_shards(|map, ctxs, frames| {
            // Each program's traces, four at a time, batched with repeats.
            let mut by_program = BTreeMap::<ProgramId, Vec<ExecutionTrace>>::new();
            for (program, frame) in frames {
                let traces = wire::decode_batch(frame).expect("a pod's frame");
                by_program.entry(*program).or_default().extend(traces);
            }
            let mut repeating = Vec::new();
            for (program, traces) in &by_program {
                for t in traces.chunks(4) {
                    let batch = [0, 1, 0, 0, 2, 1, 3, 3].map(|i| &t[i % t.len()]);
                    repeating.push((*program, wire::encode_batch(batch)));
                }
            }
            let want = serial_order(map, ctxs, &repeating);
            for (workers, memo_capacity) in [(1, 4096), (3, 4096), (2, 0)] {
                let config = IngestConfig {
                    workers,
                    memo_capacity,
                    ..IngestConfig::default()
                };
                let memo = &mut IngestMemo::default();
                let mut got = vec![Vec::new(); 2];
                let sinks: Vec<_> = (got.iter_mut())
                    .map(|got| move |p: ProgramId, r: &MergeRecord| got.push(seen(p, r)))
                    .collect();
                let producer = |tx: FrameSender| submit_all(&tx, &repeating);
                let (_, stats) = run_producer(&config, map, ctxs, memo, producer, sinks);
                assert!(got == want, "records merged out of execution order");
                assert_eq!(stats.traces_merged, 8 * repeating.len() as u64);
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    stats.traces_merged,
                    "workers={workers} memo={memo_capacity}"
                );
                assert!(stats.cache_hits >= 4 * repeating.len() as u64);
            }
        })
        .expect("no panic");
    }

    /// Runs `frames` as one-frame units and returns the run's stats.
    fn run_frames(
        config: &IngestConfig,
        map: &ShardMap,
        ctxs: &BTreeMap<ProgramId, ReconstructContext<'_>>,
        memo: &mut IngestMemo,
        frames: &[(ProgramId, Vec<u8>)],
    ) -> IngestStats {
        let sinks = vec![dying_sink(0, None), dying_sink(1, None)];
        let unit = |(program, frame): &(ProgramId, Vec<u8>), out: &mut UnitFrames| {
            out.push(*program, frame).expect("placed");
        };
        run(
            config,
            map,
            ctxs,
            memo,
            frames.iter().collect(),
            unit,
            sinks,
        )
        .1
    }

    /// The one-trace frames whose payload no earlier frame carried.
    fn first_of_each_payload(frames: &[(ProgramId, Vec<u8>)]) -> Vec<(ProgramId, Vec<u8>)> {
        let mut seen = std::collections::HashSet::new();
        (frames.iter())
            .filter(|(_, f)| {
                let batch = wire::read_batch(f).expect("a pod's frame");
                batch.payloads().all(|p| seen.insert(p.to_vec()))
            })
            .cloned()
            .collect()
    }

    #[test]
    fn a_second_run_at_another_worker_count_is_all_hits() {
        on_two_shards(|map, ctxs, frames| {
            for (first, second) in [(1, 3), (4, 1), (2, 2)] {
                let memo = &mut IngestMemo::default();
                let cold = run_frames(&config(first), map, ctxs, memo, frames);
                assert!(cold.cache_misses > 0);
                assert_eq!(cold.cache_evictions, 0, "the payloads fit the budget");
                let warm = run_frames(&config(second), map, ctxs, memo, frames);
                assert_eq!(
                    (warm.cache_hits, warm.cache_misses),
                    (frames.len() as u64, 0),
                    "workers {first} then {second}"
                );
                // Two participants may miss one payload at once; the
                // memo keeps it once.
                assert_eq!(memo.entries(), first_of_each_payload(frames).len());
                assert!(cold.cache_misses >= memo.entries() as u64);
                // Another budget starts a new memo.
                let resized = IngestConfig {
                    memo_capacity: 4096,
                    ..config(second)
                };
                let rebuilt = run_frames(&resized, map, ctxs, memo, frames);
                assert!(rebuilt.cache_misses > 0);
            }
        })
        .expect("no panic");
    }

    #[test]
    fn an_overflowing_run_counts_each_eviction_once() {
        on_two_shards(|map, ctxs, frames| {
            // Each distinct payload once: every trace misses, and every
            // insert past the budget evicts one entry.
            let distinct = first_of_each_payload(frames);
            assert_eq!(distinct.len(), 73, "the fixture's distinct payloads");
            for workers in [1, 2, 4] {
                let config = IngestConfig {
                    memo_capacity: 32,
                    ..config(workers)
                };
                let memo = &mut IngestMemo::default();
                let stats = run_frames(&config, map, ctxs, memo, &distinct);
                assert_eq!(
                    (stats.cache_misses, stats.cache_evictions),
                    (73, 73 - 32),
                    "workers={workers}"
                );
                assert_eq!(memo.entries(), 32);
            }
        })
        .expect("no panic");
    }
}
