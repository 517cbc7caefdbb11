//! The sharded multi-program hive: N independent [`Hive`] shards behind
//! one router and one shared decode+reconstruct worker pool.
//!
//! A single hive serves a single program; a fleet running several
//! programs previously needed one fully separate ingest pipeline per
//! program, each with its own worker pool and its own memo cache. The
//! [`ShardedHive`] instead places every program on one of `n_shards`
//! shards ([`ShardMap`], explicit deterministic hash placement), runs
//! **one** worker pool over all traffic (so idle capacity from a quiet
//! program is immediately usable by a busy one, and each worker's memo
//! recycles reconstructions across the whole fleet), and gives each
//! shard its own sequence-ordered merger — preserving the per-program
//! byte-identity-with-serial-ingest invariant the single-program
//! pipeline established, while cross-program work runs concurrently.

use crate::map::{ShardError, ShardMap};
use crate::pipeline::{run_sharded, ShardFrameSender};
use crate::stats::{ShardRunStats, ShardStats};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{IngestConfig, ProcessedTrace, ReconstructContext};
use softborg_obs::ObsHandles;
use softborg_program::codec::{self, CodecError};
use softborg_program::overlay::Overlay;
use softborg_program::taint::InputDependence;
use softborg_program::{Program, ProgramId};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Mirrors a finished run's counters into the attached telemetry sinks:
/// pool-wide and per-shard (`shard.<i>.…`) registry counters, plus one
/// `run_done` flight-recorder event. Post-run and additive, so the hot
/// path never touches the registry; event fields are restricted to
/// content-determined counts (frame routing is content-authoritative,
/// so reroutes/unknowns/corruption are interleaving-independent) to
/// keep the events hash replay-stable.
fn publish_run_telemetry(obs: &ObsHandles, stats: &ShardRunStats) {
    if let Some(reg) = &obs.registry {
        reg.counter("shard.frames_submitted")
            .add(stats.frames_submitted);
        reg.counter("shard.frames_dropped")
            .add(stats.frames_dropped);
        reg.counter("shard.frames_corrupt")
            .add(stats.frames_corrupt);
        reg.counter("shard.frames_rerouted")
            .add(stats.frames_rerouted);
        reg.counter("shard.frames_unknown_program")
            .add(stats.frames_unknown_program);
        reg.counter("shard.frames_merged").add(stats.frames_merged);
        reg.counter("shard.traces_merged").add(stats.traces_merged);
        reg.counter("shard.cache_hits").add(stats.cache_hits);
        reg.counter("shard.cache_misses").add(stats.cache_misses);
        reg.gauge("shard.queue_high_water")
            .set_max(stats.queue_high_water as u64);
        for s in &stats.per_shard {
            let path = |name: &str| format!("shard.{}.{name}", s.shard);
            reg.counter(&path("frames_merged")).add(s.frames_merged);
            reg.counter(&path("traces_merged")).add(s.traces_merged);
            reg.counter(&path("frames_corrupt")).add(s.frames_corrupt);
            reg.counter(&path("reroutes")).add(s.frames_rerouted_in);
        }
    }
    obs.recorder.info(
        "shard",
        "run_done",
        &[
            ("frames_merged", stats.frames_merged),
            ("traces_merged", stats.traces_merged),
            ("frames_corrupt", stats.frames_corrupt),
            ("frames_rerouted", stats.frames_rerouted),
            ("frames_unknown_program", stats.frames_unknown_program),
        ],
        format_args!(
            "sharded run merged {} traces over {} frames ({} rerouted, {} unknown) in {}ns",
            stats.traces_merged,
            stats.frames_merged,
            stats.frames_rerouted,
            stats.frames_unknown_program,
            stats.wall_ns
        ),
    );
}

/// Errors from per-shard state snapshot/restore.
#[derive(Debug)]
pub enum ShardStateError {
    /// A sharding/routing failure (bad shard index, unknown program).
    Shard(ShardError),
    /// Malformed or mismatched state bytes.
    Codec(CodecError),
}

impl std::fmt::Display for ShardStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardStateError::Shard(e) => write!(f, "shard state: {e}"),
            ShardStateError::Codec(e) => write!(f, "shard state: {e}"),
        }
    }
}

impl std::error::Error for ShardStateError {}

impl From<ShardError> for ShardStateError {
    fn from(e: ShardError) -> Self {
        ShardStateError::Shard(e)
    }
}

impl From<CodecError> for ShardStateError {
    fn from(e: CodecError) -> Self {
        ShardStateError::Codec(e)
    }
}

/// N hive shards, a router, and a shared ingest worker pool.
#[derive(Debug)]
pub struct ShardedHive<'p> {
    map: ShardMap,
    programs: BTreeMap<ProgramId, &'p Program>,
    /// Per-program input-dependence, owned here (not borrowed from the
    /// hives) so worker contexts can be built while the per-shard
    /// mergers hold the hives mutably.
    deps: BTreeMap<ProgramId, InputDependence>,
    /// `shards[i]` holds the hives of every program placed on shard `i`.
    shards: Vec<BTreeMap<ProgramId, Hive<'p>>>,
}

impl<'p> ShardedHive<'p> {
    /// Builds a sharded hive over `programs` with `n_shards` shards,
    /// each program getting a fresh [`Hive`] with `config`.
    ///
    /// # Errors
    ///
    /// [`ShardError::NoShards`] / [`ShardError::DuplicateProgram`] from
    /// placement.
    pub fn new(
        programs: &[&'p Program],
        n_shards: usize,
        config: &HiveConfig,
    ) -> Result<Self, ShardError> {
        let ids: Vec<ProgramId> = programs.iter().map(|p| p.id()).collect();
        let map = ShardMap::new(&ids, n_shards)?;
        let mut shards: Vec<BTreeMap<ProgramId, Hive<'p>>> =
            (0..n_shards).map(|_| BTreeMap::new()).collect();
        let mut by_id = BTreeMap::new();
        let mut deps = BTreeMap::new();
        for &program in programs {
            let id = program.id();
            let hive = Hive::new(program, config.clone());
            deps.insert(id, hive.deps().clone());
            let shard = map.shard_of(id).expect("just placed");
            shards[shard].insert(id, hive);
            by_id.insert(id, program);
        }
        Ok(ShardedHive {
            map,
            programs: by_id,
            deps,
            shards,
        })
    }

    /// The placement map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.map.n_shards()
    }

    /// The hive serving `program`.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when no shard owns it.
    pub fn hive(&self, program: ProgramId) -> Result<&Hive<'p>, ShardError> {
        let shard = self.map.shard_of(program)?;
        self.shards[shard]
            .get(&program)
            .ok_or(ShardError::UnknownProgram { program })
    }

    /// Mutable access to the hive serving `program`.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when no shard owns it.
    pub fn hive_mut(&mut self, program: ProgramId) -> Result<&mut Hive<'p>, ShardError> {
        let shard = self.map.shard_of(program)?;
        self.shards[shard]
            .get_mut(&program)
            .ok_or(ShardError::UnknownProgram { program })
    }

    /// Iterates `(program, hive)` over every shard, in program-id order
    /// within each shard, shard 0 first.
    pub fn hives(&self) -> impl Iterator<Item = (ProgramId, &Hive<'p>)> {
        self.shards
            .iter()
            .flat_map(|m| m.iter().map(|(&id, h)| (id, h)))
    }

    /// Runs the sharded pipeline: `producer` claims (program, seq)
    /// slots through its [`ShardFrameSender`]; the shared worker pool
    /// classifies frames by content, decodes and reconstructs them
    /// through its per-worker memo; per-shard mergers apply each
    /// program's traces in exact claimed-sequence order. Returns the
    /// producer's result and the run's stats.
    pub fn ingest_frames<R, P>(&mut self, config: &IngestConfig, producer: P) -> (R, ShardRunStats)
    where
        P: FnOnce(ShardFrameSender) -> R + Send,
        R: Send,
    {
        let started = config.clock.now_ns();
        let ShardedHive {
            map,
            programs,
            deps,
            shards,
        } = self;
        // Freeze per-program overlay histories (hives only promote
        // between rounds, never mid-ingest) so reconstruct contexts can
        // outlive the mutable borrow the mergers take on the hives.
        let overlays: BTreeMap<ProgramId, Vec<Overlay>> = shards
            .iter()
            .flat_map(|m| m.iter())
            .map(|(&id, h)| (id, h.overlays().to_vec()))
            .collect();
        let ctxs: BTreeMap<ProgramId, ReconstructContext<'_>> = programs
            .iter()
            .map(|(&id, &program)| {
                (
                    id,
                    ReconstructContext {
                        program,
                        deps: &deps[&id],
                        overlays: &overlays[&id],
                    },
                )
            })
            .collect();
        let sinks: Vec<_> = shards
            .iter_mut()
            .map(|hives| {
                move |program: ProgramId, pt: &ProcessedTrace| {
                    hives
                        .get_mut(&program)
                        .expect("merger only sees programs placed on its shard")
                        .apply_processed(pt);
                }
            })
            .collect();
        let (result, shared, rerouted) = run_sharded(config, map, &ctxs, producer, sinks);
        // Rerouted traffic: the claimed slots are consumed; deliver the
        // traces to their content program now, in the deterministic
        // (claimed program, seq) order run_sharded sorted them into.
        for d in &rerouted {
            let shard = map.shard_of(d.to).expect("content validated by worker");
            let hive = shards[shard]
                .get_mut(&d.to)
                .expect("content program placed");
            for entry in &d.entries {
                hive.apply_processed(entry);
            }
            let core = &shared.core;
            core.add(&core.traces_merged, d.entries.len() as u64);
            let sc = &shared.shard_cores[shard];
            core.add(&sc.traces_merged, d.entries.len() as u64);
            core.add(&sc.frames_rerouted_in, 1);
        }
        let ld = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let core = &shared.core;
        let per_shard = shared
            .shard_cores
            .iter()
            .enumerate()
            .map(|(i, sc)| ShardStats {
                shard: i,
                programs: map.programs_on(i).len(),
                frames_merged: ld(&sc.frames_merged),
                traces_merged: ld(&sc.traces_merged),
                frames_corrupt: ld(&sc.frames_corrupt),
                frames_rerouted_in: ld(&sc.frames_rerouted_in),
                merge_queue_high_water: shared.merge_high_water(i),
            })
            .collect();
        let stats = ShardRunStats {
            frames_submitted: ld(&core.frames_submitted),
            frames_dropped: ld(&core.frames_dropped),
            frames_corrupt: ld(&core.frames_corrupt),
            frames_rerouted: ld(&core.frames_rerouted),
            frames_unknown_program: ld(&core.frames_unknown_program),
            frames_merged: ld(&core.frames_merged),
            traces_merged: ld(&core.traces_merged),
            cache_hits: ld(&core.cache_hits),
            cache_misses: ld(&core.cache_misses),
            cache_evictions: ld(&core.cache_evictions),
            worker_busy_ns: ld(&core.worker_busy_ns),
            queue_high_water: shared.frame_high_water(),
            // Clamp like IngestStats: a run that submitted frames inside
            // one clock tick must not report zero elapsed time.
            wall_ns: softborg_obs::rates::clamp_wall_ns(
                config.clock.now_ns().saturating_sub(started),
                ld(&core.frames_submitted) > 0,
            ),
            workers: config.workers.max(1),
            per_shard,
            error_samples: core.errors.lock().expect("error samples").clone(),
        };
        publish_run_telemetry(&config.obs, &stats);
        (result, stats)
    }

    /// Convenience wrapper: submits pre-claimed `(program, frame)`
    /// pairs in order and runs the pipeline to completion.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when a *claimed* program is not in
    /// the shard map (frames whose *content* is unknown are counted in
    /// [`ShardRunStats::frames_unknown_program`] instead — a claim needs
    /// a sequence lane, content does not).
    pub fn ingest_batch(
        &mut self,
        frames: Vec<(ProgramId, Vec<u8>)>,
        config: &IngestConfig,
    ) -> Result<ShardRunStats, ShardError> {
        let (res, stats) = self.ingest_frames(config, move |tx| {
            for (program, frame) in frames {
                tx.submit_for(program, frame)?;
            }
            Ok::<(), ShardError>(())
        });
        res.map(|()| stats)
    }

    /// Serializes shard `shard`'s full state — every hive on it, keyed
    /// by program id — for snapshotting. Deterministic: programs are
    /// encoded in id order.
    ///
    /// # Errors
    ///
    /// [`ShardError::BadShard`] for an out-of-range index.
    pub fn encode_shard_state(&self, shard: usize) -> Result<Vec<u8>, ShardError> {
        let hives = self
            .shards
            .get(shard)
            .ok_or(ShardError::BadShard { shard })?;
        let mut buf = Vec::new();
        codec::put_u8(&mut buf, 1); // shard-state format version
        codec::put_u64(&mut buf, hives.len() as u64);
        for (id, hive) in hives {
            codec::put_u64(&mut buf, id.0);
            codec::put_bytes(&mut buf, &hive.encode_state());
        }
        Ok(buf)
    }

    /// Serializes shard `shard`'s state *delta* — every hive's changes
    /// since its last [`mark_shard_clean`](Self::mark_shard_clean) (or
    /// decode), keyed by program id in id order. Applying it with
    /// [`apply_shard_state_delta`](Self::apply_shard_state_delta) onto
    /// the base state reproduces [`encode_shard_state`]
    /// (Self::encode_shard_state) byte-identically.
    ///
    /// # Errors
    ///
    /// [`ShardError::BadShard`] for an out-of-range index.
    pub fn encode_shard_state_delta(&self, shard: usize) -> Result<Vec<u8>, ShardError> {
        let hives = self
            .shards
            .get(shard)
            .ok_or(ShardError::BadShard { shard })?;
        let mut buf = Vec::new();
        codec::put_u8(&mut buf, 1); // shard-delta format version
        codec::put_u64(&mut buf, hives.len() as u64);
        for (id, hive) in hives {
            codec::put_u64(&mut buf, id.0);
            codec::put_bytes(&mut buf, &hive.encode_state_delta());
        }
        Ok(buf)
    }

    /// Applies a delta produced by
    /// [`encode_shard_state_delta`](Self::encode_shard_state_delta) to
    /// the hives already on shard `shard`. Total: malformed bytes, an
    /// unknown program, or a base mismatch inside a hive delta return a
    /// typed error, never panic.
    ///
    /// # Errors
    ///
    /// [`ShardStateError`] on a bad shard index, malformed bytes, or a
    /// program this shard does not hold.
    pub fn apply_shard_state_delta(
        &mut self,
        shard: usize,
        bytes: &[u8],
    ) -> Result<(), ShardStateError> {
        if shard >= self.shards.len() {
            return Err(ShardError::BadShard { shard }.into());
        }
        let mut r = codec::Reader::new(bytes);
        let version = r.u8("ShardDelta.version")?;
        if version != 1 {
            return Err(CodecError::BadTag {
                what: "ShardDelta.version",
                tag: version,
            }
            .into());
        }
        let n = r.u64("ShardDelta.n_hives")?;
        for _ in 0..n {
            let id = ProgramId(r.u64("ShardDelta.program_id")?);
            let delta = r.bytes("ShardDelta.hive_delta")?;
            let hive = self.shards[shard]
                .get_mut(&id)
                .ok_or(ShardError::UnknownProgram { program: id })?;
            hive.apply_state_delta(delta)?;
        }
        if !r.is_empty() {
            return Err(CodecError::BadLen {
                what: "ShardDelta.trailing",
                len: r.remaining(),
            }
            .into());
        }
        Ok(())
    }

    /// Resets every hive on shard `shard`'s delta tracking: the next
    /// [`encode_shard_state_delta`](Self::encode_shard_state_delta)
    /// covers only changes made after this call.
    pub fn mark_shard_clean(&mut self, shard: usize) {
        if let Some(hives) = self.shards.get_mut(shard) {
            for hive in hives.values_mut() {
                hive.mark_clean();
            }
        }
    }

    /// Restores shard `shard` from bytes produced by
    /// [`encode_shard_state`](Self::encode_shard_state), replacing every
    /// hive on the shard. Round-trips byte-identically.
    ///
    /// # Errors
    ///
    /// [`ShardStateError`] on a bad shard index, malformed bytes, a
    /// program the map doesn't place on this shard, or a program-id
    /// mismatch inside a hive's state.
    pub fn decode_shard_state(
        &mut self,
        shard: usize,
        bytes: &[u8],
        config: &HiveConfig,
    ) -> Result<(), ShardStateError> {
        if shard >= self.shards.len() {
            return Err(ShardError::BadShard { shard }.into());
        }
        let mut r = codec::Reader::new(bytes);
        let version = r.u8("ShardState.version")?;
        if version != 1 {
            return Err(CodecError::BadTag {
                what: "ShardState.version",
                tag: version,
            }
            .into());
        }
        let n = r.u64("ShardState.n_hives")?;
        let mut restored: BTreeMap<ProgramId, Hive<'p>> = BTreeMap::new();
        for _ in 0..n {
            let id = ProgramId(r.u64("ShardState.program_id")?);
            if self.map.shard_of(id)? != shard {
                return Err(ShardError::UnknownProgram { program: id }.into());
            }
            let program = *self
                .programs
                .get(&id)
                .ok_or(ShardError::UnknownProgram { program: id })?;
            let state = r.bytes("ShardState.hive_state")?;
            restored.insert(id, Hive::decode_state(program, config.clone(), state)?);
        }
        self.shards[shard] = restored;
        Ok(())
    }
}
