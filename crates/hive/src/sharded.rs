//! The sharded multi-program hive: N independent [`Hive`] shards behind
//! one router and one ingest engine.
//!
//! A single hive serves a single program. The [`ShardedHive`] places
//! every program of a fleet on one of `n_shards` shards ([`ShardMap`],
//! explicit deterministic hash placement), runs **one** set of ingest
//! participants over all traffic (so idle capacity from a quiet program
//! is immediately usable by a busy one, and their one shared memo
//! recycles reconstructions across the whole fleet), and gives each
//! shard its own sink, fed in claimed order on the calling thread — so
//! every program's hive ends byte-identical to serial ingest of its
//! traces, while cross-program work runs concurrently. It is the same
//! engine a lone [`Hive`] ingests through, with one sink per shard
//! instead of one.

use crate::hive::{Hive, HiveConfig};
use softborg_ingest::{
    FrameSender, IngestConfig, IngestMemo, IngestStats, MergeRecord, ReconstructContext,
    ShardError, ShardMap, UnitFrames,
};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Program, ProgramId};
use std::collections::BTreeMap;

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

/// N hive shards, a router, and one ingest engine over all of them.
#[derive(Debug)]
pub struct ShardedHive<'p> {
    map: ShardMap,
    programs: BTreeMap<ProgramId, &'p Program>,
    /// `shards[i]` holds the hives of every program placed on shard `i`.
    shards: Vec<BTreeMap<ProgramId, Hive<'p>>>,
    /// The reconstruction memo the ingest participants share, one for
    /// every program, kept across
    /// [`ingest_units`](ShardedHive::ingest_units) runs. A hive whose
    /// state is replaced (decode, delta) brings a new epoch into the
    /// next run, which clears it.
    memo: IngestMemo,
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
        for &program in programs {
            let id = program.id();
            let hive = Hive::new(program, config.clone());
            let shard = map.shard_of(id).expect("just placed");
            shards[shard].insert(id, hive);
            by_id.insert(id, program);
        }
        Ok(ShardedHive {
            map,
            programs: by_id,
            shards,
            memo: IngestMemo::default(),
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

    /// Entries in the reconstruction memo its ingest runs share: at most
    /// the last run's [`IngestConfig::memo_capacity`].
    pub fn memo_entries(&self) -> usize {
        self.memo.entries()
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

    /// Runs the one engine ([`softborg_ingest::run`]) over `units`
    /// with one sink per shard: `unit(units[i], frames)` yields the
    /// frames of unit `i`'s claimed slots, which are classified by
    /// content, decoded and reconstructed on the thread that ran the unit
    /// (through the memo every participant shares, kept by the sharded
    /// hive from one run to the next); each shard's sink applies each program's traces in unit
    /// order on the calling thread. Lay the units out so that, in unit
    /// order, each program's frames are its claimed slots in order.
    /// Returns each unit's result, in unit order, and the run's stats.
    pub fn ingest_units<T, R>(
        &mut self,
        config: &IngestConfig,
        units: Vec<T>,
        unit: impl Fn(T, &mut UnitFrames<'_, '_>) -> R + Sync,
    ) -> (Vec<R>, IngestStats)
    where
        T: Send,
        R: Send,
    {
        let (map, memo, ctxs, sinks) = self.split();
        softborg_ingest::run(config, map, &ctxs, memo, units, unit, sinks)
    }

    /// Runs `producer`, which claims (program, seq) slots through its
    /// [`FrameSender`], then the claimed frames as one-frame units
    /// ([`softborg_ingest::run_producer`]). Returns the producer's
    /// result and the run's stats.
    pub fn ingest_frames<R, P>(&mut self, config: &IngestConfig, producer: P) -> (R, IngestStats)
    where
        P: FnOnce(FrameSender) -> R + Send,
        R: Send,
    {
        let (map, memo, ctxs, sinks) = self.split();
        softborg_ingest::run_producer(config, map, &ctxs, memo, producer, sinks)
    }

    /// Borrows the sharded hive apart for one run: each hive lends its
    /// reconstruction inputs to the participants and its merge state to
    /// its shard's sink; promotion needs the whole hive, so overlay
    /// histories stay frozen for the run.
    #[allow(clippy::type_complexity)]
    fn split(
        &mut self,
    ) -> (
        &ShardMap,
        &mut IngestMemo,
        BTreeMap<ProgramId, ReconstructContext<'_>>,
        Vec<impl FnMut(ProgramId, &MergeRecord) + '_>,
    ) {
        let mut ctxs = BTreeMap::new();
        let sinks: Vec<_> = (self.shards.iter_mut())
            .map(|hives| {
                let mut sinks: BTreeMap<_, _> = (hives.iter_mut())
                    .map(|(&id, hive)| {
                        let (ctx, sink) = hive.split();
                        ctxs.insert(id, ctx);
                        (id, sink)
                    })
                    .collect();
                move |program: ProgramId, r: &MergeRecord| {
                    sinks
                        .get_mut(&program)
                        .expect("a sink only sees programs placed on its shard")
                        .apply(r);
                }
            })
            .collect();
        (&self.map, &mut self.memo, ctxs, sinks)
    }

    /// Convenience wrapper: submits pre-claimed `(program, frame)`
    /// pairs in order and runs the engine to completion.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when a *claimed* program is not in
    /// the shard map (frames whose *content* is unknown are counted in
    /// [`IngestStats::frames_unknown_program`] instead — a claim needs
    /// a sequence lane, content does not).
    pub fn ingest_batch(
        &mut self,
        frames: Vec<(ProgramId, Vec<u8>)>,
        config: &IngestConfig,
    ) -> Result<IngestStats, ShardError> {
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
    /// the base state reproduces
    /// [`encode_shard_state`](Self::encode_shard_state) byte-identically.
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
