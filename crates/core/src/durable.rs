//! One durable store: a shard directory's write-ahead journal
//! (`hive.wal`) plus its delta-chain checkpoint records (`chain/`), and
//! every decision about what is written there and what a resume trusts;
//! plus the campaign's one append-only round log (`rounds.log`).
//!
//! The campaign core ([`MultiPlatform`](crate::MultiPlatform)) holds one
//! [`DurableStore`] per shard and adds only what is its own (lane→shard
//! routing, the two-phase commit, the minimum-committed-round rule).
//! Everything else lives here exactly once: fresh-open and
//! campaign-exists detection, the legacy-layout refusal, checkpoint load
//! (the chain's newest valid lineage, full→deltas), the journal's split
//! into committed [`segments`], the compaction trigger, the checkpoint
//! write, and the scrub's one read of a shard.

use softborg_hive::journal::{
    self, JournalRecord, ScanReport, EMPTY_WAL_HASH, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND,
    REC_TOMBSTONE, SESSION_ROUND,
};
use softborg_hive::{
    FileJournal, HiveSnapshot, JournalIoError, JournalStore, ScrubError, ShardFiles,
};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Overlay, ProgramId};
use softborg_store::{ChainLoad, ChainReport, ChainStore, EnvelopeError, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where and how a durable campaign persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Campaign root (created if absent). Shard `i` keeps its
    /// `hive.wal` journal and `chain/` checkpoint records under
    /// `shard-<i>/`.
    pub dir: PathBuf,
    /// Compaction trigger: checkpoint once the journal is at least this
    /// many times what a checkpoint writes — the newest full chain
    /// record's payload (hive state, frame floors, and app-meta: the
    /// committed-round counter and the shard's full pod images; round
    /// history lives in `rounds.log`, not in checkpoints). `0` disables
    /// compaction.
    pub compact_ratio: u64,
    /// Journal size below which compaction never triggers, so tiny
    /// campaigns don't churn checkpoints every round.
    pub min_compact_wal_bytes: u64,
    /// Full-rebase trigger: append a fresh full record once accumulated
    /// delta payload bytes exceed this many times the newest full's
    /// size, bounding chain length and recovery work. `0` = never rebase
    /// (deltas forever; only sensible in fault harnesses).
    pub rebase_ratio: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default policy: compact once
    /// the journal exceeds 4× the newest full checkpoint and 64 KiB, and
    /// rebase the chain once its deltas outweigh that full 4×.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            compact_ratio: 4,
            min_compact_wal_bytes: 64 * 1024,
            rebase_ratio: 4,
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
    /// An underlying journal or checkpoint I/O operation failed.
    Io(JournalIoError),
    /// A durable record decoded to garbage (wrong program, torn bytes
    /// that passed no checksum), or the directory holds a layout this
    /// build cannot read.
    Corrupt(String),
    /// A resume would start over at round 0 while the round log or a
    /// shard journal shows the campaign committed rounds `0..committed`:
    /// every acked round would be lost quietly, so nothing is touched.
    RoundsLost {
        /// Rounds the campaign's files show committed.
        committed: u64,
    },
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
            DurabilityError::RoundsLost { committed } => write!(
                f,
                "resume would start over at round 0, losing committed rounds 0..{committed}"
            ),
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
            e @ (ScrubError::NothingRecoverable | ScrubError::OlderLayout(_)) => {
                DurabilityError::Corrupt(e.to_string())
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

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("hive.wal")
}

/// The campaign's round log, at its root.
pub(crate) fn round_log_path(root: &Path) -> PathBuf {
    root.join("rounds.log")
}

/// The round log's bytes (none when there is no log), read without
/// opening anything for writing.
pub(crate) fn read_round_log(root: &Path) -> Result<Vec<u8>, DurabilityError> {
    match std::fs::read(round_log_path(root)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err("round-log-read", &e)),
    }
}

/// The campaign's append-only round log, `<root>/rounds.log`: one
/// `REC_ROUND` journal record per committed round, from round 0 with no
/// gap. Only compaction writes it — every committed round it lacks, then
/// an fsync, before the chain append that relies on it — so a round
/// that does not compact pays nothing here. Resume reads it back with
/// shard 0's replayed round records; scrub quarantines a torn tail.
#[derive(Debug)]
pub(crate) struct RoundLog {
    root: PathBuf,
    /// Opened on the first append.
    file: Option<FileJournal>,
    /// Rounds the log holds: `0..rounds`.
    rounds: u64,
}

impl RoundLog {
    /// The log of a fresh campaign at `root`.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when a log with records is
    /// already there.
    pub(crate) fn create(root: &Path) -> Result<Self, DurabilityError> {
        if !read_round_log(root)?.is_empty() {
            return Err(DurabilityError::CampaignExists(root.to_path_buf()));
        }
        Ok(Self::holding(root, 0))
    }

    /// The log at `root`, holding rounds `0..rounds`.
    pub(crate) fn holding(root: &Path, rounds: u64) -> Self {
        RoundLog {
            root: root.to_path_buf(),
            file: None,
            rounds,
        }
    }

    /// Cuts the log file back to its first `len` bytes, the end of the
    /// last round a resume keeps.
    pub(crate) fn truncate(&mut self, len: u64) -> Result<(), DurabilityError> {
        Ok(self.open()?.truncate(len)?)
    }

    fn open(&mut self) -> Result<&mut FileJournal, DurabilityError> {
        if self.file.is_none() {
            let file = FileJournal::open(round_log_path(&self.root))
                .map_err(|e| io_err("round-log-open", &e))?;
            self.file = Some(file);
        }
        Ok(self.file.as_mut().expect("opened above"))
    }

    /// Appends a round record for each round from [`rounds`](Self::rounds)
    /// up to `upto`, `body` writing round `r`'s body, and fsyncs them —
    /// nothing at all when the log already holds them.
    pub(crate) fn append_synced(
        &mut self,
        upto: u64,
        mut body: impl FnMut(u64, &mut Vec<u8>),
    ) -> Result<(), DurabilityError> {
        if self.rounds >= upto {
            return Ok(());
        }
        let (mut rec, mut frame) = (Vec::new(), Vec::new());
        for round in self.rounds..upto {
            frame.clear();
            body(round, &mut frame);
            journal::append_record(&mut rec, REC_ROUND, SESSION_ROUND, round, &frame);
        }
        let file = self.open()?;
        file.append(&rec)?;
        file.sync()?;
        self.rounds = upto;
        Ok(())
    }
}

/// Opens (creating if needed) the chain under `dir`, with the walk the
/// open already did.
fn open_chain(dir: &Path) -> Result<(ChainStore, ChainLoad), DurabilityError> {
    ChainStore::open(&dir.join("chain")).map_err(|e| io_err("chain-dir", &e))
}

/// What older builds left in a campaign root: a single-program campaign
/// kept its journal and checkpoints there rather than under `shard-0/`.
pub(crate) const LEGACY_ROOT: &[&str] = &["hive.wal", "chain", "hive.snap", "hive.snap.prev"];

/// What the retired full-snapshot checkpoint format left in a shard
/// directory.
const LEGACY_SHARD: &[&str] = &["hive.snap", "hive.snap.prev"];

/// Refuses a directory holding any of `names` — an older layout this
/// build would silently cold-start beside — before anything is opened.
pub(crate) fn refuse_legacy(dir: &Path, names: &[&str]) -> Result<(), DurabilityError> {
    match names.iter().find(|f| dir.join(f).exists()) {
        Some(f) => Err(DurabilityError::Corrupt(format!(
            "{}: legacy campaign layout ({f}); this build keeps every campaign as \
             shard-<i>/{{hive.wal, chain/}} and cannot resume it",
            dir.display()
        ))),
        None => Ok(()),
    }
}

/// Refuses a journaled frame in an older batch layout: this build
/// cannot fold it, and it is no damage to count and cut past.
pub(crate) fn refuse_older_frame(rec: &JournalRecord<'_>) -> Result<(), DurabilityError> {
    match wire::older_layout(rec.frame) {
        Some(what) if rec.kind == REC_FRAME => Err(DurabilityError::Corrupt(format!(
            "journal frame (lane {}, seq {}) is in the older {what} batch layout; this \
             build cannot resume it",
            rec.session, rec.seq
        ))),
        _ => Ok(()),
    }
}

/// The refusal of the older-layout record at byte `at` of `path`.
pub(crate) fn older_records(path: &Path, at: usize) -> DurabilityError {
    DurabilityError::Corrupt(format!(
        "{}: the record at byte {at} is in an older layout (an FNV-1a checksum); \
         this build cannot resume it",
        path.display()
    ))
}

/// Refuses a chain holding a record in an older layout.
fn refuse_older_chain(dir: &Path, report: &ChainReport) -> Result<(), DurabilityError> {
    match report.older_layout() {
        Some(d) => Err(DurabilityError::Corrupt(format!(
            "{}: chain record {} is in an older layout; this build cannot resume it",
            dir.display(),
            d.file
        ))),
        None => Ok(()),
    }
}

/// Refuses a campaign root whose `shard-<i>` directories do not fit
/// `n_shards` — one at `i >= n_shards`, or one missing while another
/// holds a journal or chain record — before anything is opened: the
/// resume would silently lose a shard's hives or reset the others.
pub(crate) fn refuse_shard_count(root: &Path, n_shards: usize) -> Result<(), DurabilityError> {
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(io_err("root-read", &e)),
    };
    let shards: Vec<(usize, PathBuf)> = (entries.filter_map(Result::ok))
        .filter(|e| e.path().is_dir())
        .filter_map(|e| {
            let name = e.file_name();
            let i = name.to_str()?.strip_prefix("shard-")?.parse().ok()?;
            Some((i, e.path()))
        })
        .collect();
    let holds_data = |dir: &PathBuf| {
        std::fs::metadata(wal_path(dir)).is_ok_and(|m| m.len() > 0)
            || std::fs::read_dir(dir.join("chain")).is_ok_and(|mut d| d.next().is_some())
    };
    let beyond = shards.iter().any(|&(i, _)| i >= n_shards);
    if beyond || (shards.len() < n_shards && shards.iter().any(|(_, d)| holds_data(d))) {
        return Err(DurabilityError::Corrupt(format!(
            "{}: the campaign has {} shard(s) on disk, the config {n_shards}; \
             resuming would lose or reset shards",
            root.display(),
            shards.len()
        )));
    }
    Ok(())
}

/// What [`DurableStore::resume`] loaded: the newest valid checkpoint and
/// the journal bytes behind it.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// Encoded states to rebuild from: one full, then its deltas in
    /// order. Empty on a cold start.
    pub(crate) states: Vec<Vec<u8>>,
    /// The head checkpoint, its state moved into `states` and its frame
    /// floors into the store (`None` on a cold start).
    pub(crate) head: Option<HiveSnapshot>,
    /// The whole journal.
    wal: Vec<u8>,
    /// The journal's path, for naming it in a refusal.
    wal_path: PathBuf,
    /// The chain walk: the lineage adopted and every damaged record.
    pub(crate) chain: ChainReport,
}

impl Recovered {
    /// Delta records folded on top of the chain's full record.
    pub(crate) fn deltas_applied(&self) -> u64 {
        self.states.len().saturating_sub(1) as u64
    }

    /// Scans the journal once: its intact records, borrowed in place,
    /// the scan's report, and how many of the records the head
    /// checkpoint covers — replay starts past them.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] on a journal in an older layout.
    pub(crate) fn scan(
        &self,
    ) -> Result<(Vec<JournalRecord<'_>>, ScanReport, usize), DurabilityError> {
        let (records, scan) = journal::scan(&self.wal);
        if scan.tail_error == Some(EnvelopeError::OlderLayout) {
            return Err(older_records(&self.wal_path, scan.valid_len));
        }
        let covered = self.head.as_ref().map_or(0, |h| h.replay_offset(&records));
        Ok((records, scan, covered))
    }
}

/// One open durable store. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct DurableStore {
    /// This store's policy; `cfg.dir` is its own directory.
    cfg: DurabilityConfig,
    /// Each checkpoint appends a full or delta record here.
    chain: ChainStore,
    journal: FileJournal,
    /// The journal's running hash ([`journal::fold_record`] over its
    /// records), kept current, so a checkpoint can stamp the prefix it
    /// covers without reading the journal back.
    wal_hash: u64,
    /// Frame floors (`session → next seq`), carried into checkpoints so
    /// a resuming transport can deduplicate across the restart.
    frame_floors: BTreeMap<u64, u64>,
    /// Records staged since the last [`sync`](Self::sync), which writes
    /// them to the journal in one call.
    staged: Vec<u8>,
}

impl DurableStore {
    /// Opens `cfg.dir` for a *fresh* campaign.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::CampaignExists`] when the directory already
    /// holds a campaign; [`DurabilityError::Io`] when a file cannot be
    /// opened.
    pub(crate) fn create(cfg: DurabilityConfig) -> Result<Self, DurabilityError> {
        let exists = || DurabilityError::CampaignExists(cfg.dir.clone());
        refuse_legacy(&cfg.dir, LEGACY_SHARD).map_err(|_| exists())?;
        let (chain, load) = open_chain(&cfg.dir)?;
        if load.report.records > 0 || !load.report.defects.is_empty() {
            return Err(exists());
        }
        let journal = FileJournal::open(wal_path(&cfg.dir)).map_err(|e| io_err("wal-open", &e))?;
        if !journal.is_empty() {
            return Err(exists());
        }
        Ok(DurableStore {
            cfg,
            chain,
            journal,
            wal_hash: EMPTY_WAL_HASH,
            frame_floors: BTreeMap::new(),
            staged: Vec::new(),
        })
    }

    /// Opens `cfg.dir` to continue a campaign and loads its newest valid
    /// checkpoint lineage (a full record plus every delta after it). An
    /// empty directory is a cold start. The caller scans the journal
    /// ([`Recovered::scan`]) and hands back the records it keeps
    /// ([`keep`](Self::keep)) before staging anything.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] on an older layout (refused before
    /// anything is opened) or a chain payload that is not a snapshot;
    /// [`DurabilityError::Io`] on filesystem failures.
    pub(crate) fn resume(cfg: DurabilityConfig) -> Result<(Self, Recovered), DurabilityError> {
        refuse_legacy(&cfg.dir, LEGACY_SHARD)?;
        let (chain, ChainLoad { records, report }) = open_chain(&cfg.dir)?;
        refuse_older_chain(&cfg.dir, &report)?;
        // A full record, then deltas; only the head's metadata is kept.
        let mut states = Vec::with_capacity(records.len());
        let mut head = None;
        for rec in records {
            let mut snap = HiveSnapshot::decode(&rec.payload).map_err(|e| {
                DurabilityError::Corrupt(format!(
                    "{}: chain record {}: {e}",
                    cfg.dir.display(),
                    rec.generation
                ))
            })?;
            states.push(std::mem::take(&mut snap.state));
            head = Some(snap);
        }
        let journal = FileJournal::open(wal_path(&cfg.dir)).map_err(|e| io_err("wal-open", &e))?;
        let wal = journal.read().map_err(|e| io_err("wal-read", &e))?;
        let frame_floors =
            (head.as_mut()).map_or_else(BTreeMap::new, |h| std::mem::take(&mut h.sessions));
        let wal_path = wal_path(&cfg.dir);
        Ok((
            DurableStore {
                cfg,
                chain,
                journal,
                wal_hash: EMPTY_WAL_HASH, // set by `keep`
                frame_floors,
                staged: Vec::new(),
            },
            Recovered {
                states,
                head,
                wal,
                wal_path,
                chain: report,
            },
        ))
    }

    /// Stages one journal record; [`sync`](Self::sync) writes every
    /// staged record in one call and makes them durable.
    pub(crate) fn stage(&mut self, kind: u8, session: u64, seq: u64, body: &[u8]) {
        let start = self.staged.len();
        let checksum = journal::append_record(&mut self.staged, kind, session, seq, body);
        let len = self.staged.len() - start;
        self.wal_hash = journal::fold_record(self.wal_hash, checksum, len);
    }

    /// Stages one batch frame and raises its session's frame floor.
    pub(crate) fn stage_frame(&mut self, session: u64, seq: u64, frame: &[u8]) {
        self.stage(REC_FRAME, session, seq, frame);
        self.raise_floor(session, seq);
    }

    /// Records that frame `seq` of `session` is journaled here (appended
    /// now, or replayed from the journal by a resume).
    pub(crate) fn raise_floor(&mut self, session: u64, seq: u64) {
        let floor = self.frame_floors.entry(session).or_insert(0);
        *floor = (*floor).max(seq + 1);
    }

    /// Writes the staged records and fsyncs the journal: everything
    /// staged so far is durable. A failed write leaves the running hash
    /// ahead of the file; the caller's commit fails and the process
    /// must not go on.
    pub(crate) fn sync(&mut self) -> Result<(), DurabilityError> {
        if !self.staged.is_empty() {
            self.journal.append(&self.staged)?;
            self.staged.clear();
        }
        self.journal.sync()?;
        Ok(())
    }

    /// Keeps `kept`, the journal's first records as a resume scanned
    /// them, cutting whatever the file holds past them — a partial
    /// round, a damaged tail, rounds past the campaign's minimum — and
    /// dropping anything staged.
    pub(crate) fn keep(&mut self, kept: &[JournalRecord<'_>]) -> Result<(), DurabilityError> {
        let len: usize = kept.iter().map(JournalRecord::encoded_len).sum();
        self.staged.clear();
        if (len as u64) < self.journal.len() {
            self.journal.truncate(len as u64)?;
        }
        self.wal_hash = journal::wal_hash(kept);
        Ok(())
    }

    /// Current journal size in bytes, staged records included.
    pub(crate) fn wal_len(&self) -> u64 {
        self.journal.len() + self.staged.len() as u64
    }

    /// The compaction trigger: is the journal at least `compact_ratio`
    /// times the newest full record's payload, and past
    /// `min_compact_wal_bytes`? (A cold chain weighs nothing, so the
    /// first checkpoint comes at the minimum.)
    pub(crate) fn checkpoint_due(&self) -> bool {
        let ratio = self.cfg.compact_ratio;
        let full = self.chain.last_full_payload_bytes().max(1);
        ratio > 0
            && self.wal_len()
                >= ratio
                    .saturating_mul(full)
                    .max(self.cfg.min_compact_wal_bytes)
    }

    /// Appends a checkpoint covering the whole journal to the chain — a
    /// full record when [`ChainStore::rebase_due`] says so, else a delta,
    /// `encode` producing that kind's state — then (when `truncate`)
    /// empties the journal; without it the disk is left as a crash
    /// between the two leaves it. Returns the payload bytes written; the
    /// caller then resets its delta tracking.
    pub(crate) fn write_checkpoint(
        &mut self,
        encode: impl FnOnce(RecordKind) -> Vec<u8>,
        app_meta: Vec<u8>,
        truncate: bool,
    ) -> Result<u64, DurabilityError> {
        if !self.staged.is_empty() {
            self.sync()?; // a checkpoint covers only durable journal bytes
        }
        let kind = if self.chain.rebase_due(self.cfg.rebase_ratio) {
            RecordKind::Full
        } else {
            RecordKind::Delta
        };
        let payload = HiveSnapshot {
            state: encode(kind),
            sessions: self.frame_floors.clone(),
            wal_covered: self.journal.len(),
            wal_covered_hash: self.wal_hash,
            app_meta,
        }
        .encode();
        self.chain
            .append(kind, &payload)
            .map_err(|e| io_err("chain-append", &e))?;
        if truncate {
            self.journal.truncate(0)?;
            self.wal_hash = EMPTY_WAL_HASH;
        }
        Ok(payload.len() as u64)
    }
}

/// Reads the store at `cfg.dir` once for a scrub, creating nothing and
/// refusing an older layout as [`DurableStore::resume`] does.
pub(crate) fn scrub_files(cfg: &DurabilityConfig) -> Result<ShardFiles, DurabilityError> {
    refuse_legacy(&cfg.dir, LEGACY_SHARD)?;
    Ok(ShardFiles::read(
        &wal_path(&cfg.dir),
        &cfg.dir.join("chain"),
    )?)
}

/// Encodes a `REC_PROMOTE` body: the program, the failure-mode
/// signature, and the overlay distributed for it.
pub(crate) fn put_promotion(buf: &mut Vec<u8>, program: u64, signature: &str, overlay: &Overlay) {
    codec::put_u64(buf, program);
    codec::put_str(buf, signature);
    overlay.encode_into(buf);
}

/// Decodes what [`put_promotion`] wrote.
pub(crate) fn read_promotion(
    bytes: &[u8],
) -> Result<(ProgramId, String, Overlay), DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let program = ProgramId(r.u64("promote.program")?);
    let signature = r.str("promote.signature")?.to_string();
    Ok((program, signature, Overlay::decode(&mut r)?))
}

/// One committed round's worth of journal records: everything since the
/// previous `REC_ROUND`, closed by its own `REC_ROUND` record.
#[derive(Debug)]
pub(crate) struct Segment<'w> {
    /// Batch frames in merge order (`(session, seq)`).
    pub(crate) frames: Vec<JournalRecord<'w>>,
    /// Fix promotions, in journal order.
    pub(crate) promotes: Vec<JournalRecord<'w>>,
    /// Pod-population records, in journal order.
    pub(crate) pods: Vec<JournalRecord<'w>>,
    /// The `REC_ROUND` record closing the segment (the caller owns the
    /// report codec).
    pub(crate) round: JournalRecord<'w>,
    /// Record index just past its `REC_ROUND` record: the cut point if
    /// nothing after it is applied.
    pub(crate) end_idx: usize,
}

/// Splits scanned journal records (the suffix a checkpoint does not
/// cover) into committed rounds: `REC_FRAME` / `REC_PROMOTE` /
/// `REC_PODS` records are grouped under the `REC_ROUND` that commits
/// them. The caller decodes each segment's round record, decides whether
/// it continues the recovered state, and applies it; records after the
/// last segment it applies — an uncommitted partial round among them —
/// are cut.
///
/// # Errors
///
/// [`DurabilityError::Corrupt`] on a record kind no platform journals,
/// and on a frame in an older batch layout.
pub(crate) fn segments<'w>(
    records: &[JournalRecord<'w>],
) -> Result<Vec<Segment<'w>>, DurabilityError> {
    let mut out = Vec::new();
    let (mut frames, mut promotes, mut pods) = (Vec::new(), Vec::new(), Vec::new());
    for (idx, &rec) in records.iter().enumerate() {
        match rec.kind {
            REC_FRAME => {
                refuse_older_frame(&rec)?;
                frames.push(rec);
            }
            REC_PROMOTE => promotes.push(rec),
            REC_PODS => pods.push(rec),
            REC_TOMBSTONE => {} // transport-only; platforms journal no tombstones
            REC_ROUND => {
                frames.sort_by_key(|r| (r.session, r.seq));
                out.push(Segment {
                    frames: std::mem::take(&mut frames),
                    promotes: std::mem::take(&mut promotes),
                    pods: std::mem::take(&mut pods),
                    round: rec,
                    end_idx: idx + 1,
                });
            }
            other => {
                return Err(DurabilityError::Corrupt(format!(
                    "unknown journal record kind {other}"
                )));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The shape of every segment, plus how many records trail the last
    /// one (an uncommitted partial round).
    fn walk(records: &[JournalRecord<'_>]) -> (Vec<Shape>, usize) {
        let segs = segments(records).expect("known kinds only");
        let shape = |seg: &Segment<'_>| {
            let frames = seg.frames.iter().map(|r| r.seq).collect();
            (frames, seg.promotes.len(), seg.pods.len(), seg.round.seq)
        };
        let end_idx = segs.last().map_or(0, |s| s.end_idx);
        (segs.iter().map(shape).collect(), records.len() - end_idx)
    }

    #[test]
    fn segments_group_records_by_committing_round_in_merge_order() {
        let wal = journal_of(&[
            (REC_FRAME, 1, 3),
            (REC_FRAME, 0, 1),
            (REC_TOMBSTONE, 0, 2),
            (REC_FRAME, 0, 0),
            (REC_PROMOTE, 9, 0),
            (REC_PODS, 0, 0),
            (REC_ROUND, 0, 0),
            (REC_FRAME, 0, 4),
            (REC_PODS, 0, 1),
            (REC_ROUND, 0, 1),
        ]);
        let (records, scan) = journal::scan(&wal);
        assert_eq!(scan.tail_error, None);
        let (shapes, partial) = walk(&records);
        // Frames sorted by (session, seq); the tombstone is skipped.
        assert_eq!(shapes, vec![(vec![0, 1, 3], 1, 1, 0), (vec![4], 0, 1, 1)]);
        assert_eq!(partial, 0);

        // The last segment ends where the journal does.
        let segs = segments(&records).unwrap();
        assert_eq!(segs[0].end_idx, 7);
        assert_eq!(segs[1].end_idx, records.len());
    }

    #[test]
    fn segments_hold_only_what_survives_a_torn_tail() {
        let mut wal = journal_of(&[
            (REC_FRAME, 0, 0),
            (REC_ROUND, 0, 0),
            (REC_FRAME, 0, 1),
            (REC_ROUND, 0, 1),
        ]);
        wal.truncate(wal.len() - 3); // tear the last round record
        let (records, scan) = journal::scan(&wal);
        assert!(scan.tail_error.is_some() && scan.tail_dropped > 0);
        let (shapes, partial) = walk(&records);
        assert_eq!(shapes, vec![(vec![0], 0, 0, 0)]);
        assert_eq!(partial, 1, "round 1's frame lost its commit record");
    }

    #[test]
    fn segments_reject_an_unknown_record_kind_with_a_typed_error() {
        let records = vec![JournalRecord {
            kind: 99,
            session: 0,
            seq: 0,
            frame: &[],
            checksum: 0,
        }];
        match segments(&records) {
            Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("kind 99"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The running hash a checkpoint stamps as `wal_covered_hash`
        /// equals the fold of the journal file's records after any
        /// sequence of appends, crashes that tear the file at any byte
        /// (each followed by a resume that cuts the torn tail),
        /// checkpoints with and without the truncate, and resumes — and
        /// the checkpoint's coverage matches the journal it covered.
        #[test]
        fn the_running_wal_hash_is_the_hash_of_the_file(
            ops in collection::vec((any::<u8>(), any::<u16>()), 0..24),
        ) {
            let n = NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("softborg-walhash-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = DurabilityConfig::new(&dir);
            let file = || std::fs::read(wal_path(&dir)).unwrap();
            let resume = || {
                let (mut store, rec) = DurableStore::resume(cfg.clone()).unwrap();
                let (records, _, _) = rec.scan().unwrap();
                store.keep(&records).unwrap();
                store
            };
            let mut store = DurableStore::create(cfg.clone()).unwrap();
            for (op, arg) in ops {
                match op % 5 {
                    0 | 1 => {
                        store.stage(REC_FRAME, 0, u64::from(arg), &vec![op; usize::from(arg % 300)]);
                        store.sync().unwrap();
                    }
                    2 => {
                        drop(store);
                        let len = file().len() as u64;
                        let f = std::fs::OpenOptions::new().write(true).open(wal_path(&dir)).unwrap();
                        f.set_len(u64::from(arg) % (len + 1)).unwrap();
                        store = resume();
                    }
                    3 => {
                        let truncate = arg % 2 == 0;
                        let before = file();
                        store.write_checkpoint(|_| vec![op], Vec::new(), truncate).unwrap();
                        let (_, load) = ChainStore::open(store.chain.dir()).unwrap();
                        let head = load.records.last().unwrap();
                        let snap = HiveSnapshot::decode(&head.payload).unwrap();
                        let (records, scan) = journal::scan(&before);
                        prop_assert_eq!(scan.tail_dropped, 0);
                        prop_assert_eq!(snap.replay_offset(&records), records.len());
                    }
                    _ => {
                        drop(store);
                        store = resume();
                    }
                }
                let bytes = file();
                let (records, scan) = journal::scan(&bytes);
                prop_assert_eq!(scan.tail_dropped, 0);
                prop_assert_eq!(store.wal_hash, journal::wal_hash(&records));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
