//! One durable store: a campaign (or shard) directory's write-ahead
//! journal plus its checkpoint store — classic `hive.snap` generations
//! or a delta chain — and every decision about what is written there
//! and what a resume trusts.
//!
//! [`Platform`](crate::Platform) holds one [`DurableStore`];
//! [`MultiPlatform`](crate::MultiPlatform) holds one per shard and adds
//! only what is genuinely its own (lane→shard routing, the two-phase
//! commit, the minimum-committed-round rule). Everything else lives
//! here exactly once: fresh-open and campaign-exists detection,
//! checkpoint load (newest valid generation, or chain full→deltas),
//! the journal [`SegmentWalker`], the compaction trigger, the
//! checkpoint write, and scrub dispatch.

use softborg_hive::journal::{
    self, JournalRecord, REC_ABORT, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND, REC_TOMBSTONE,
    SESSION_ROUND,
};
use softborg_hive::{
    scrub_campaign, scrub_chained_campaign, FileJournal, HiveSnapshot, JournalIoError,
    JournalStore, LoadReport, ScrubError, ScrubReport, SnapshotSource, SnapshotStore,
};
use softborg_obs::FlightRecorder;
use softborg_program::codec::{self, CodecError};
use softborg_program::Overlay;
use softborg_store::{ChainReport, ChainSource, ChainStore, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where and how a durable campaign persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the campaign's `hive.wal`, `hive.snap`, and
    /// `hive.snap.prev` files (created if absent).
    pub dir: PathBuf,
    /// Snapshot compaction trigger: compact when the journal is at
    /// least this many times larger than the live serialized hive
    /// state. `0` disables compaction.
    pub compact_ratio: u64,
    /// Journal size below which compaction never triggers, so tiny
    /// campaigns don't churn snapshots every round.
    pub min_compact_wal_bytes: u64,
    /// Incremental snapshot chains: when set, checkpoints append
    /// checksummed full/delta records to a `chain/` subdirectory instead
    /// of rewriting `hive.snap` whole — a compaction writes O(changes
    /// since the last checkpoint), not O(hive). `None` keeps the classic
    /// two-generation full-snapshot store, byte-for-byte.
    pub chain: Option<ChainSettings>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default compaction policy
    /// (compact once the journal exceeds 4× the live state and 64 KiB).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            compact_ratio: 4,
            min_compact_wal_bytes: 64 * 1024,
            chain: None,
        }
    }

    /// Same policy, with delta-snapshot chains enabled at the default
    /// rebase ratio.
    pub fn chained(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            chain: Some(ChainSettings::default()),
            ..DurabilityConfig::new(dir)
        }
    }
}

/// Delta-snapshot chain policy.
#[derive(Debug, Clone)]
pub struct ChainSettings {
    /// Full-rebase trigger: append a fresh full record once accumulated
    /// delta payload bytes exceed this many times the newest full's
    /// size, bounding chain length and recovery work. `0` = never rebase
    /// (deltas forever; only sensible in fault harnesses).
    pub rebase_ratio: u64,
    /// **Injected bug** — resume silently drops the newest delta record
    /// when folding the chain, rebuilding state one checkpoint stale
    /// while trusting the head's metadata (the `skip_delta` canary for
    /// the durable fault-search campaign). Must stay `false` outside
    /// fault harnesses.
    pub skip_last_delta: bool,
}

impl Default for ChainSettings {
    fn default() -> Self {
        ChainSettings {
            rebase_ratio: 4,
            skip_last_delta: false,
        }
    }
}

/// Why a durable platform could not be created or resumed, or why a
/// durable round commit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// The operation requires a durability configuration to be set.
    NotConfigured,
    /// A fresh start found campaign state already on disk; resume it
    /// instead of silently clobbering it.
    CampaignExists(PathBuf),
    /// An underlying journal or snapshot I/O operation failed.
    Io(JournalIoError),
    /// A durable record decoded to garbage (wrong program, torn bytes
    /// that passed no checksum, or a version this build cannot read),
    /// or the directory holds a campaign in the other checkpoint format.
    Corrupt(String),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::NotConfigured => {
                write!(f, "platform has no durability configuration")
            }
            DurabilityError::CampaignExists(dir) => write!(
                f,
                "campaign state already exists in {} (resume it instead)",
                dir.display()
            ),
            DurabilityError::Io(e) => write!(f, "durability I/O failure: {e}"),
            DurabilityError::Corrupt(what) => write!(f, "durable state corrupt: {what}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<JournalIoError> for DurabilityError {
    fn from(e: JournalIoError) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Corrupt(e.to_string())
    }
}

impl From<ScrubError> for DurabilityError {
    fn from(e: ScrubError) -> Self {
        match e {
            ScrubError::Io(io) => DurabilityError::Io(io),
            ScrubError::NothingRecoverable => {
                DurabilityError::Corrupt(ScrubError::NothingRecoverable.to_string())
            }
        }
    }
}

pub(crate) fn io_err(op: &'static str, e: &std::io::Error) -> DurabilityError {
    DurabilityError::Io(JournalIoError {
        op,
        kind: e.kind(),
        msg: e.to_string(),
    })
}

/// The chain subdirectory under a store's directory.
fn chain_dir(dir: &Path) -> PathBuf {
    dir.join("chain")
}

/// Whether `dir` holds delta-chain record files (live or quarantined) —
/// the mark of a chained campaign. Read-only: a classic-mode open must
/// be able to ask without creating `chain/`.
fn holds_chain_records(dir: &Path) -> Result<bool, DurabilityError> {
    match std::fs::read_dir(chain_dir(dir)) {
        Ok(entries) => Ok(entries
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with("chain-"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err("chain-dir", &e)),
    }
}

fn open_chain(cfg: &DurabilityConfig) -> Result<Option<ChainStore>, DurabilityError> {
    match cfg.chain {
        Some(_) => ChainStore::open(&chain_dir(&cfg.dir))
            .map(Some)
            .map_err(|e| io_err("chain-dir", &e)),
        None => Ok(None),
    }
}

/// What [`DurableStore::resume`] loaded: the newest valid checkpoint and
/// the journal bytes behind it.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// Encoded hive states to rebuild from, oldest first: one full
    /// state, then the deltas to fold on top in order. Empty on a cold
    /// start.
    pub(crate) states: Vec<Vec<u8>>,
    /// The head checkpoint's `app_meta` (`None` on a cold start).
    pub(crate) app_meta: Option<Vec<u8>>,
    /// The whole journal.
    pub(crate) wal: Vec<u8>,
    /// Offset in `wal` where the suffix the head checkpoint does not
    /// cover begins.
    pub(crate) replay_from: usize,
    /// How the checkpoint load went; in chain mode this mirrors the
    /// chain walk (primary / fallback lineage, or cold).
    pub(crate) snapshot: LoadReport,
    /// The chain walk itself (`None` in classic mode).
    pub(crate) chain: Option<ChainReport>,
}

impl Recovered {
    /// Delta records folded on top of the chain's full record.
    pub(crate) fn deltas_applied(&self) -> u64 {
        self.states.len().saturating_sub(1) as u64
    }
}

/// One open durable store. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct DurableStore {
    /// This store's policy; `cfg.dir` is its own directory.
    cfg: DurabilityConfig,
    store: SnapshotStore,
    /// Delta-snapshot chain, open iff [`DurabilityConfig::chain`] is
    /// set. With a chain, checkpoints append here and `hive.snap` is
    /// never written.
    chain: Option<ChainStore>,
    journal: FileJournal,
    /// Frame floors (`session → next seq`) of every frame journaled
    /// here, carried into checkpoints so transports resuming against
    /// this campaign can deduplicate across the restart.
    frame_floors: BTreeMap<u64, u64>,
    /// Scratch buffer for encoding journal records.
    rec: Vec<u8>,
}

impl DurableStore {
    /// Opens `cfg.dir` for a *fresh* campaign.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when the directory already
    /// holds a snapshot, a non-empty journal, or chain records — in
    /// either checkpoint format, whichever one `cfg` asks for;
    /// [`DurabilityError::Io`] when a file cannot be opened.
    pub(crate) fn create(cfg: DurabilityConfig) -> Result<Self, DurabilityError> {
        let store = SnapshotStore::open(&cfg.dir).map_err(|e| io_err("snapshot-dir", &e))?;
        let exists = || DurabilityError::CampaignExists(cfg.dir.clone());
        if store.snap_path().exists() || store.prev_path().exists() {
            return Err(exists());
        }
        if cfg.chain.is_none() && holds_chain_records(&cfg.dir)? {
            return Err(exists());
        }
        let journal = FileJournal::open(store.wal_path()).map_err(|e| io_err("wal-open", &e))?;
        if !journal.is_empty() {
            return Err(exists());
        }
        let chain = open_chain(&cfg)?;
        if chain
            .as_ref()
            .is_some_and(|c| c.head_generation().is_some())
        {
            return Err(exists());
        }
        Ok(DurableStore {
            cfg,
            store,
            chain,
            journal,
            frame_floors: BTreeMap::new(),
            rec: Vec::new(),
        })
    }

    /// Opens `cfg.dir` to continue a campaign and loads its newest valid
    /// checkpoint: the classic store's newest valid generation, or the
    /// chain's newest valid lineage (a full record plus every delta
    /// after it). An empty directory is a cold start. The format check
    /// runs before the journal is opened for writing.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] when the directory holds a campaign
    /// in the *other* checkpoint format (resuming would silently
    /// cold-start over it and discard its journal), or when a chain
    /// record's payload is not a snapshot; [`DurabilityError::Io`] on
    /// filesystem failures.
    pub(crate) fn resume(cfg: DurabilityConfig) -> Result<(Self, Recovered), DurabilityError> {
        let store = SnapshotStore::open(&cfg.dir).map_err(|e| io_err("snapshot-dir", &e))?;
        // Refusals name the directory (for a fleet, the shard's).
        let corrupt =
            |what: &str| DurabilityError::Corrupt(format!("{}: {what}", cfg.dir.display()));
        let (chain, mut snaps, snapshot, chain_report) = if cfg.chain.is_none() {
            if holds_chain_records(&cfg.dir)? {
                return Err(corrupt(
                    "classic mode found chain records (chained campaign); resume it with chain \
                     settings",
                ));
            }
            let (snap, load) = store.load();
            (None, Vec::from_iter(snap), load, None)
        } else {
            // Chain mode never reads `hive.snap` — the chain is the
            // checkpoint store of record.
            let chain = open_chain(&cfg)?.expect("chain settings are set");
            let load = chain.load();
            let mut snaps = Vec::with_capacity(load.records.len());
            for rec in &load.records {
                let snap = HiveSnapshot::decode(&rec.payload)
                    .map_err(|e| corrupt(&format!("chain record {}: {e}", rec.generation)))?;
                snaps.push(snap);
            }
            if snaps.is_empty() && (store.snap_path().exists() || store.prev_path().exists()) {
                return Err(corrupt(
                    "chain mode found no chain records but a hive.snap exists (legacy campaign); \
                     resume it without chain settings",
                ));
            }
            let snapshot = LoadReport {
                source: match load.report.source {
                    ChainSource::Primary => SnapshotSource::Primary,
                    ChainSource::Fallback => SnapshotSource::Fallback,
                    ChainSource::None => SnapshotSource::None,
                },
                primary_error: None,
                fallback_error: None,
            };
            (Some(chain), snaps, snapshot, Some(load.report))
        };
        let journal = FileJournal::open(store.wal_path()).map_err(|e| io_err("wal-open", &e))?;
        let wal = journal.read().map_err(|e| io_err("wal-read", &e))?;
        // The lineage starts at a full record; every later record is a
        // delta against its predecessor, and the last one is the head
        // whose metadata describes the whole checkpoint.
        let mut states: Vec<Vec<u8>> = snaps
            .iter_mut()
            .map(|s| std::mem::take(&mut s.state))
            .collect();
        if cfg.chain.as_ref().is_some_and(|c| c.skip_last_delta) && states.len() > 1 {
            // Planted bug (`skip_delta` canary): the head's metadata is
            // trusted below while its state changes are silently
            // dropped.
            states.pop();
        }
        let head = snaps.pop();
        let replay_from = head.as_ref().map_or(0, |h| h.replay_offset(&wal));
        let (frame_floors, app_meta) = match head {
            Some(h) => (h.sessions, Some(h.app_meta)),
            None => (BTreeMap::new(), None),
        };
        Ok((
            DurableStore {
                cfg,
                store,
                chain,
                journal,
                frame_floors,
                rec: Vec::new(),
            },
            Recovered {
                states,
                app_meta,
                wal,
                replay_from,
                snapshot,
                chain: chain_report,
            },
        ))
    }

    /// Appends one record to the journal (buffered; [`sync`](Self::sync)
    /// makes it durable).
    pub(crate) fn append(
        &mut self,
        kind: u8,
        session: u64,
        seq: u64,
        body: &[u8],
    ) -> Result<(), DurabilityError> {
        self.rec.clear();
        journal::append_record(&mut self.rec, kind, session, seq, body);
        Ok(self.journal.append(&self.rec)?)
    }

    /// Appends one batch frame and raises its session's frame floor.
    pub(crate) fn append_frame(
        &mut self,
        session: u64,
        seq: u64,
        frame: &[u8],
    ) -> Result<(), DurabilityError> {
        self.append(REC_FRAME, session, seq, frame)?;
        self.raise_floor(session, seq);
        Ok(())
    }

    /// Records that frame `seq` of `session` is journaled here (appended
    /// now, or replayed from the journal by a resume).
    pub(crate) fn raise_floor(&mut self, session: u64, seq: u64) {
        let floor = self.frame_floors.entry(session).or_insert(0);
        *floor = (*floor).max(seq + 1);
    }

    /// Fsyncs the journal: everything appended so far is durable.
    pub(crate) fn sync(&mut self) -> Result<(), DurabilityError> {
        self.journal.sync()?;
        Ok(())
    }

    /// Cuts the journal at `len` — a damaged tail, a disconnected
    /// suffix, or rounds that were never acked.
    pub(crate) fn truncate_wal(&mut self, len: u64) -> Result<(), DurabilityError> {
        Ok(self.journal.truncate(len)?)
    }

    /// Fences a trailing partial segment (the process died mid-round, so
    /// those records were never acked) behind one durable `REC_ABORT`
    /// record: this and every future replay discards them.
    pub(crate) fn fence(&mut self, round: u64) -> Result<(), DurabilityError> {
        self.append(REC_ABORT, SESSION_ROUND, round, &[])?;
        self.sync()
    }

    /// Current journal size in bytes.
    pub(crate) fn wal_len(&self) -> u64 {
        self.journal.len()
    }

    /// Generation of the chain head (`None` in classic mode or on a
    /// cold chain).
    pub(crate) fn chain_head_generation(&self) -> Option<u64> {
        self.chain.as_ref().and_then(ChainStore::head_generation)
    }

    /// Whether checkpoints go to a delta chain — in which case the
    /// caller resets its delta tracking after each one, so the next
    /// delta covers exactly the changes since.
    pub(crate) fn is_chained(&self) -> bool {
        self.chain.is_some()
    }

    /// The compaction trigger, asked after every committed round: is the
    /// journal at least `compact_ratio` times the live state footprint
    /// (and big enough to matter)? Classic mode measures the footprint
    /// by encoding the full state with `encode_full` and hands that
    /// encoding back for [`write_checkpoint`](Self::write_checkpoint) to
    /// reuse; chain mode reads it off the chain's own bookkeeping (last
    /// full + deltas since), so the check never pays an O(hive) encode.
    /// `None` = not due.
    pub(crate) fn checkpoint_due(
        &self,
        encode_full: impl FnOnce() -> Vec<u8>,
    ) -> Option<Option<Vec<u8>>> {
        let (ratio, wal_len) = (self.cfg.compact_ratio, self.journal.len());
        if ratio == 0 || wal_len < self.cfg.min_compact_wal_bytes {
            return None;
        }
        let (footprint, full) = match &self.chain {
            Some(chain) => (
                chain
                    .last_full_payload_bytes()
                    .saturating_add(chain.delta_payload_bytes_since_full())
                    .max(1),
                None,
            ),
            None => {
                let state = encode_full();
                (state.len() as u64, Some(state))
            }
        };
        (wal_len >= ratio.saturating_mul(footprint)).then_some(full)
    }

    /// Writes one checkpoint covering the whole journal, then (when
    /// `truncate`) empties the journal. Classic mode swaps a full
    /// [`HiveSnapshot`] into `hive.snap`; chain mode appends a full or
    /// delta record ([`ChainStore::rebase_due`] decides). `encode`
    /// produces whichever state encoding is needed, unless `full_state`
    /// already holds the full one. Returns the bytes written.
    ///
    /// Without `truncate` the disk is left exactly as a crash between
    /// the checkpoint rename and the journal truncate leaves it.
    pub(crate) fn write_checkpoint(
        &mut self,
        full_state: Option<Vec<u8>>,
        encode: impl FnOnce(RecordKind) -> Vec<u8>,
        app_meta: Vec<u8>,
        truncate: bool,
    ) -> Result<u64, DurabilityError> {
        let rebase_ratio = self.cfg.chain.as_ref().map_or(0, |c| c.rebase_ratio);
        let kind = match &self.chain {
            Some(chain) if !chain.rebase_due(rebase_ratio) => RecordKind::Delta,
            _ => RecordKind::Full,
        };
        let state = match (kind, full_state) {
            (RecordKind::Full, Some(state)) => state,
            _ => encode(kind),
        };
        let wal_bytes = self.journal.read().map_err(|e| io_err("wal-read", &e))?;
        let snap = HiveSnapshot {
            state,
            sessions: self.frame_floors.clone(),
            wal_covered: wal_bytes.len() as u64,
            wal_covered_hash: wire::fnv1a(&wal_bytes),
            app_meta,
        };
        let written = match self.chain.as_mut() {
            Some(chain) => {
                let payload = snap.encode();
                chain
                    .append(kind, &payload)
                    .map_err(|e| io_err("chain-append", &e))?;
                payload.len() as u64
            }
            None => self.store.write_snapshot(&snap)?,
        };
        if truncate {
            self.journal.truncate(0)?;
        }
        Ok(written)
    }

    /// Scrubs the store at `cfg.dir` for bit rot *before* a resume, in
    /// whichever checkpoint format `cfg` names (see
    /// [`softborg_hive::scrub`]).
    pub(crate) fn scrub(
        cfg: &DurabilityConfig,
        obs: &FlightRecorder,
    ) -> Result<ScrubReport, DurabilityError> {
        let store = SnapshotStore::open(&cfg.dir).map_err(|e| io_err("snapshot-dir", &e))?;
        Ok(match open_chain(cfg)? {
            Some(chain) => scrub_chained_campaign(&store, &chain, obs)?,
            None => scrub_campaign(&store, obs)?,
        })
    }
}

/// Encodes a `REC_PROMOTE` body: the failure-mode signature and the
/// overlay that was distributed for it.
pub(crate) fn put_promotion(buf: &mut Vec<u8>, signature: &str, overlay: &Overlay) {
    codec::put_str(buf, signature);
    overlay.encode_into(buf);
}

/// Decodes what [`put_promotion`] wrote.
pub(crate) fn read_promotion(
    r: &mut codec::Reader<'_>,
) -> Result<(String, Overlay), DurabilityError> {
    let signature = r.str("promote.signature")?.to_string();
    Ok((signature, Overlay::decode(r)?))
}

/// One committed round's worth of journal records: everything buffered
/// since the previous `REC_ROUND` / `REC_ABORT`, closed by its
/// `REC_ROUND` record.
#[derive(Debug)]
pub(crate) struct Segment<'a> {
    /// Batch frames in merge order (`(session, seq)`).
    pub(crate) frames: Vec<&'a JournalRecord>,
    /// Fix promotions, in journal order.
    pub(crate) promotes: Vec<&'a JournalRecord>,
    /// Pod-population records, in journal order.
    pub(crate) pods: Vec<&'a JournalRecord>,
    /// The `REC_ROUND` record closing the segment (the caller owns the
    /// report codec).
    pub(crate) round: &'a JournalRecord,
    /// Byte offset and record index where the segment starts — the cut
    /// point if its round turns out not to continue the recovered state.
    pub(crate) start: usize,
    pub(crate) start_idx: usize,
    /// Byte offset and record index just past its `REC_ROUND` record.
    pub(crate) end: usize,
    pub(crate) end_idx: usize,
}

/// Walks a scanned journal suffix one committed round at a time:
/// buffers `REC_FRAME` / `REC_PROMOTE` / `REC_PODS` records until the
/// `REC_ROUND` that commits them, and drops whatever an earlier
/// recovery fenced behind a `REC_ABORT`. The caller decodes each
/// segment's round record, decides whether it continues the recovered
/// state, and applies it; what is left buffered at the end is the
/// uncommitted partial segment.
#[derive(Debug)]
pub(crate) struct SegmentWalker<'a> {
    records: &'a [JournalRecord],
    idx: usize,
    /// Byte offset (in the whole journal) of `records[idx]`.
    offset: usize,
    start: usize,
    start_idx: usize,
    frames: Vec<&'a JournalRecord>,
    promotes: Vec<&'a JournalRecord>,
    pods: Vec<&'a JournalRecord>,
}

impl<'a> SegmentWalker<'a> {
    /// A walker over `records`, which were scanned from byte offset
    /// `replay_from` of the journal.
    pub(crate) fn new(records: &'a [JournalRecord], replay_from: usize) -> Self {
        SegmentWalker {
            records,
            idx: 0,
            offset: replay_from,
            start: replay_from,
            start_idx: 0,
            frames: Vec::new(),
            promotes: Vec::new(),
            pods: Vec::new(),
        }
    }

    /// The next committed segment, or `None` once the records run out.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] on a record kind no platform
    /// journals.
    pub(crate) fn next_segment(&mut self) -> Result<Option<Segment<'a>>, DurabilityError> {
        while let Some(rec) = self.records.get(self.idx) {
            self.idx += 1;
            self.offset += rec.encoded_len();
            match rec.kind {
                REC_FRAME => self.frames.push(rec),
                REC_PROMOTE => self.promotes.push(rec),
                REC_PODS => self.pods.push(rec),
                REC_TOMBSTONE => {} // transport-only; platforms journal no tombstones
                REC_ABORT => {
                    // A previous resume fenced these: an uncommitted
                    // partial round that must never be applied.
                    self.frames.clear();
                    self.promotes.clear();
                    self.pods.clear();
                    (self.start, self.start_idx) = (self.offset, self.idx);
                }
                REC_ROUND => {
                    let mut frames = std::mem::take(&mut self.frames);
                    frames.sort_by_key(|r| (r.session, r.seq));
                    let segment = Segment {
                        frames,
                        promotes: std::mem::take(&mut self.promotes),
                        pods: std::mem::take(&mut self.pods),
                        round: rec,
                        start: self.start,
                        start_idx: self.start_idx,
                        end: self.offset,
                        end_idx: self.idx,
                    };
                    (self.start, self.start_idx) = (self.offset, self.idx);
                    return Ok(Some(segment));
                }
                other => {
                    return Err(DurabilityError::Corrupt(format!(
                        "unknown journal record kind {other}"
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Records buffered but not committed: after
    /// [`next_segment`](Self::next_segment) returned `None`, the size of
    /// the trailing partial segment.
    pub(crate) fn partial_records(&self) -> u64 {
        (self.frames.len() + self.promotes.len() + self.pods.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds journal bytes from `(kind, session, seq)` triples.
    fn journal_of(records: &[(u8, u64, u64)]) -> Vec<u8> {
        let mut wal = Vec::new();
        for &(kind, session, seq) in records {
            journal::append_record(&mut wal, kind, session, seq, &[kind]);
        }
        wal
    }

    /// `(frame seqs, promotes, pods, round seq)` of one segment.
    type Shape = (Vec<u64>, usize, usize, u64);

    /// The shape of every segment, plus the trailing partial-record
    /// count.
    fn walk(records: &[JournalRecord]) -> (Vec<Shape>, u64) {
        let mut walker = SegmentWalker::new(records, 0);
        let mut out = Vec::new();
        while let Some(seg) = walker.next_segment().expect("known kinds only") {
            let frames = seg.frames.iter().map(|r| r.seq).collect();
            out.push((frames, seg.promotes.len(), seg.pods.len(), seg.round.seq));
        }
        (out, walker.partial_records())
    }

    #[test]
    fn walker_groups_records_by_committing_round_in_merge_order() {
        let wal = journal_of(&[
            (REC_FRAME, 1, 3),
            (REC_FRAME, 0, 1),
            (REC_TOMBSTONE, 0, 2),
            (REC_FRAME, 0, 0),
            (REC_PROMOTE, 9, 0),
            (REC_PODS, 0, 0),
            (REC_ROUND, SESSION_ROUND, 0),
            (REC_FRAME, 0, 4),
            (REC_PODS, 0, 1),
            (REC_ROUND, SESSION_ROUND, 1),
        ]);
        let (records, scan) = journal::scan(&wal);
        assert_eq!(scan.tail_error, None);
        let (segments, partial) = walk(&records);
        // Frames sorted by (session, seq); the tombstone is skipped.
        assert_eq!(segments, vec![(vec![0, 1, 3], 1, 1, 0), (vec![4], 0, 1, 1)]);
        assert_eq!(partial, 0);

        // Offsets: a segment starts where the previous one ended, and
        // the last one ends at the end of the journal.
        let mut walker = SegmentWalker::new(&records, 0);
        let first = walker.next_segment().unwrap().unwrap();
        let second = walker.next_segment().unwrap().unwrap();
        assert_eq!((first.start, first.start_idx), (0, 0));
        assert_eq!((second.start, second.start_idx), (first.end, first.end_idx));
        assert_eq!((second.end, second.end_idx), (wal.len(), records.len()));
    }

    #[test]
    fn walker_drops_what_an_abort_fenced() {
        let wal = journal_of(&[
            (REC_ROUND, SESSION_ROUND, 0),
            (REC_FRAME, 0, 7), // uncommitted: fenced by the abort below
            (REC_PODS, 0, 1),
            (REC_ABORT, SESSION_ROUND, 1),
            (REC_FRAME, 0, 8),
            (REC_ROUND, SESSION_ROUND, 1),
        ]);
        let (records, _) = journal::scan(&wal);
        let (segments, partial) = walk(&records);
        assert_eq!(segments, vec![(vec![], 0, 0, 0), (vec![8], 0, 0, 1)]);
        assert_eq!(partial, 0);
        // The re-run round's segment starts *after* the fence.
        let mut walker = SegmentWalker::new(&records, 0);
        walker.next_segment().unwrap();
        let rerun = walker.next_segment().unwrap().unwrap();
        assert_eq!(rerun.start_idx, 4);
    }

    #[test]
    fn walker_sees_only_what_survives_a_torn_tail() {
        let mut wal = journal_of(&[
            (REC_FRAME, 0, 0),
            (REC_ROUND, SESSION_ROUND, 0),
            (REC_FRAME, 0, 1),
            (REC_ROUND, SESSION_ROUND, 1),
        ]);
        wal.truncate(wal.len() - 3); // tear the last round record
        let (records, scan) = journal::scan(&wal);
        assert!(scan.tail_error.is_some() && scan.tail_dropped > 0);
        let (segments, partial) = walk(&records);
        assert_eq!(segments, vec![(vec![0], 0, 0, 0)]);
        assert_eq!(partial, 1, "round 1's frame lost its commit record");
    }

    #[test]
    fn walker_hands_a_disconnected_round_its_cut_point() {
        // The checkpoint fell back to round 0 but the journal continues
        // at round 7: the caller sees `round.seq`, refuses the segment,
        // and cuts at its start — here the very beginning.
        let wal = journal_of(&[(REC_FRAME, 0, 0), (REC_ROUND, SESSION_ROUND, 7)]);
        let (records, _) = journal::scan(&wal);
        let mut walker = SegmentWalker::new(&records, 100);
        let seg = walker.next_segment().unwrap().unwrap();
        assert_eq!(seg.round.seq, 7);
        assert_eq!((seg.start, seg.start_idx), (100, 0));
        assert_eq!(seg.end, 100 + wal.len());
        // Having handed the segment over, the walker buffers nothing:
        // a disconnected suffix is cut, never fenced.
        assert_eq!(walker.partial_records(), 0);
    }

    #[test]
    fn walker_rejects_an_unknown_record_kind_with_a_typed_error() {
        let records = vec![JournalRecord {
            kind: 99,
            session: 0,
            seq: 0,
            frame: Vec::new(),
        }];
        match SegmentWalker::new(&records, 0).next_segment() {
            Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("kind 99"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_trailing_partial_segment_is_fenced_exactly_once() {
        let dir = std::env::temp_dir().join(format!("softborg-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig::new(&dir);
        {
            let mut store = DurableStore::create(cfg.clone()).unwrap();
            store.append(REC_ROUND, SESSION_ROUND, 0, &[]).unwrap();
            store.append_frame(0, 0, b"frame").unwrap();
            store.append(REC_PODS, 0, 1, b"pods").unwrap();
            store.sync().unwrap();
        } // killed mid-round 1
        let aborts = |wal: &[u8]| {
            let (records, _) = journal::scan(wal);
            records.iter().filter(|r| r.kind == REC_ABORT).count()
        };
        for pass in 0..2 {
            let (mut store, rec) = DurableStore::resume(cfg.clone()).unwrap();
            assert_eq!(aborts(&rec.wal), pass, "fences on disk before pass {pass}");
            let (records, _) = journal::scan(&rec.wal[rec.replay_from..]);
            let mut walker = SegmentWalker::new(&records, rec.replay_from);
            let mut rounds = 0;
            while walker.next_segment().unwrap().is_some() {
                rounds += 1;
            }
            assert_eq!(rounds, 1);
            // First pass: two uncommitted records to fence. Second pass:
            // the fence already discards them, so nothing is appended.
            let partial = walker.partial_records();
            assert_eq!(partial, if pass == 0 { 2 } else { 0 });
            if partial > 0 {
                store.fence(1).unwrap();
            }
        }
        let (_, rec) = DurableStore::resume(cfg).unwrap();
        assert_eq!(aborts(&rec.wal), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
