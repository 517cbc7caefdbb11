//! One durable store: a shard directory's write-ahead journal
//! (`hive.wal`) plus its delta-chain checkpoint records (`chain/`); the
//! campaign's one append-only round log (`rounds.log`); and the one
//! recovery [`plan`] that judges what a campaign directory holds.
//!
//! The campaign core ([`MultiPlatform`](crate::MultiPlatform)) holds one
//! [`DurableStore`] per shard and adds only what is its own (lane→shard
//! routing, the two-phase commit, the replay of a plan). Everything else
//! lives here exactly once: fresh-open and campaign-exists detection,
//! the legacy-layout refusal, the journal's split into committed
//! [`segments`], the compaction trigger, the checkpoint write, and the
//! plan that both resume and scrub execute.

use crate::fleet;
use crate::multi::{decode_app_meta, decode_round_log, LanePods, MultiRoundReport};
use softborg_hive::journal::{
    self, JournalRecord, EMPTY_WAL_HASH, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND,
    REC_TOMBSTONE, SESSION_ROUND,
};
use softborg_hive::{FileJournal, HiveSnapshot, JournalIoError, JournalStore};
use softborg_obs::FlightRecorder;
use softborg_pod::{PodDelta, PodState};
use softborg_program::codec::{self, CodecError};
use softborg_program::{Overlay, ProgramId};
use softborg_store::{record, ChainLoad, ChainReport, ChainStore, EnvelopeError, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// shard journal shows the campaign committed rounds `0..committed`,
    /// or a shard holds chain records no lineage restores: every acked
    /// round would be lost quietly, so nothing is touched.
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

pub(crate) fn io_err(op: &'static str, e: &std::io::Error) -> DurabilityError {
    DurabilityError::Io(JournalIoError {
        op,
        kind: e.kind(),
        msg: e.to_string(),
    })
}

pub(crate) fn corrupt(what: &str, e: impl std::fmt::Display) -> DurabilityError {
    DurabilityError::Corrupt(format!("{what}: {e}"))
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("hive.wal")
}

/// Shard `shard`'s directory under the campaign root.
pub(crate) fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// The campaign's round log, at its root.
fn round_log_path(root: &Path) -> PathBuf {
    root.join("rounds.log")
}

/// The bytes of the file at `path` (none when there is no file), read
/// without opening anything for writing.
fn read_or_empty(path: &Path, op: &'static str) -> Result<Vec<u8>, DurabilityError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err(op, &e)),
    }
}

/// The campaign's append-only round log, `<root>/rounds.log`: one
/// `REC_ROUND` journal record per committed round, from round 0 with no
/// gap. Only compaction writes it — every committed round it lacks, then
/// an fsync, before the chain append that relies on it — so a round
/// that does not compact pays nothing here. The [`plan`] reads it back
/// with shard 0's replayed round records and cuts a torn tail.
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
        if !read_or_empty(&round_log_path(root), "round-log-read")?.is_empty() {
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
fn refuse_older_frame(rec: &JournalRecord<'_>) -> Result<(), DurabilityError> {
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

/// Refuses a campaign root whose `shard-<i>` directories do not fit
/// `n_shards` — one at `i >= n_shards`, or one missing while another
/// holds a journal or chain record — before anything is opened: the
/// resume would silently lose a shard's hives or reset the others.
fn refuse_shard_count(root: &Path, n_shards: usize) -> Result<(), DurabilityError> {
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

/// Raises `session`'s frame floor past `seq`.
fn raise_floor(floors: &mut BTreeMap<u64, u64>, session: u64, seq: u64) {
    let floor = floors.entry(session).or_insert(0);
    *floor = (*floor).max(seq + 1);
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

    /// Opens `cfg.dir` to continue a campaign whose [`plan`] was
    /// repaired and replayed: `chain` is the plan's open chain (opened
    /// here when the shard had no chain directory), `frame_floors` what
    /// the replay left, and the journal is cut to `keep`, the records
    /// the resume keeps — a partial round or rounds past the campaign's
    /// target go.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failures.
    pub(crate) fn reopen(
        cfg: DurabilityConfig,
        chain: Option<ChainStore>,
        frame_floors: BTreeMap<u64, u64>,
        keep: Cut,
    ) -> Result<Self, DurabilityError> {
        let chain = match chain {
            Some(chain) => chain,
            None => open_chain(&cfg.dir)?.0,
        };
        let mut journal =
            FileJournal::open(wal_path(&cfg.dir)).map_err(|e| io_err("wal-open", &e))?;
        if keep.bytes < journal.len() {
            journal.truncate(keep.bytes)?;
        }
        Ok(DurableStore {
            cfg,
            chain,
            journal,
            wal_hash: keep.hash,
            frame_floors,
            staged: Vec::new(),
        })
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
        raise_floor(&mut self.frame_floors, session, seq);
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

/// Encodes a `REC_PROMOTE` body: the program, the failure-mode
/// signature, and the overlay distributed for it.
pub(crate) fn put_promotion(buf: &mut Vec<u8>, program: u64, signature: &str, overlay: &Overlay) {
    codec::put_u64(buf, program);
    codec::put_str(buf, signature);
    overlay.encode_into(buf);
}

/// Decodes what [`put_promotion`] wrote.
fn read_promotion(bytes: &[u8]) -> Result<(ProgramId, String, Overlay), DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let program = ProgramId(r.u64("promote.program")?);
    let signature = r.str("promote.signature")?.to_string();
    Ok((program, signature, Overlay::decode(&mut r)?))
}

/// One committed round's worth of journal records: everything since the
/// previous `REC_ROUND`, closed by its own `REC_ROUND` record.
#[derive(Debug)]
struct Segment<'w> {
    /// Batch frames in merge order (`(session, seq)`).
    frames: Vec<JournalRecord<'w>>,
    /// Fix promotions, in journal order.
    promotes: Vec<JournalRecord<'w>>,
    /// Pod-population records, in journal order.
    pods: Vec<JournalRecord<'w>>,
    /// The `REC_ROUND` record closing the segment (the caller owns the
    /// report codec).
    round: JournalRecord<'w>,
    /// Record index just past its `REC_ROUND` record: the cut point if
    /// nothing after it is applied.
    end_idx: usize,
}

/// Splits scanned journal records (the suffix a checkpoint does not
/// cover) into committed rounds: `REC_FRAME` / `REC_PROMOTE` /
/// `REC_PODS` records are grouped under the `REC_ROUND` that commits
/// them. The [`plan`] decodes each segment's round record, decides
/// whether it continues the recovered state, and a resume applies it;
/// records after the last segment it applies — an uncommitted partial
/// round among them — are cut.
///
/// # Errors
///
/// [`DurabilityError::Corrupt`] on a record kind no platform journals,
/// and on a frame in an older batch layout.
fn segments<'w>(records: &[JournalRecord<'w>]) -> Result<Vec<Segment<'w>>, DurabilityError> {
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

/// How a repair leaves a shard's journal: the recovery plan's region
/// judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalAction {
    /// Every record verified, or there is no journal: nothing moves.
    Clean,
    /// The bytes from the first damaged record on move to
    /// `hive.wal.quarantined` and the journal is cut there.
    TailCut,
    /// Damage inside the checkpoint-covered prefix: the prefix moves to
    /// `hive.wal.quarantined` and the journal is rewritten to the intact
    /// suffix the checkpoint does not cover.
    PrefixDropped,
}

/// Where a journal is kept to: its first `records` records, `bytes`
/// long, of running hash `hash` (the default, an empty journal's).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cut {
    records: usize,
    bytes: u64,
    hash: u64,
}

const _: () = assert!(
    EMPTY_WAL_HASH == 0,
    "Cut::default is an empty journal's cut"
);

impl Cut {
    /// The cut one record further on.
    fn past(self, rec: &JournalRecord<'_>) -> Self {
        let len = rec.encoded_len();
        Cut {
            records: self.records + 1,
            bytes: self.bytes + len as u64,
            hash: journal::fold_record(self.hash, rec.checksum, len),
        }
    }
}

/// One committed round past a checkpoint, decoded once: what a resume
/// replays.
#[derive(Debug)]
pub(crate) struct Round {
    pub(crate) report: MultiRoundReport,
    /// Batch frames in merge order: lane, seq, and where the frame lies
    /// in its shard's journal bytes.
    pub(crate) frames: Vec<(u64, u64, Range<usize>)>,
    /// Fix promotions in journal order: record seq, program, signature,
    /// overlay.
    pub(crate) promotions: Vec<(u64, ProgramId, String, Overlay)>,
    /// Each lane's pod deltas.
    pub(crate) pods: LanePods<PodDelta>,
    /// The journal kept through this round.
    cut: Cut,
}

/// What executing one shard's plan takes: the shard's files, read once,
/// and what they decoded to. A resume consumes it.
#[derive(Debug, Default)]
pub(crate) struct ShardWork {
    /// The open chain (none without a chain directory).
    pub(crate) chain: Option<ChainStore>,
    /// The journal's bytes as read.
    pub(crate) wal: Vec<u8>,
    /// Checkpoint states to rebuild from: the lineage's full, then its
    /// deltas.
    pub(crate) states: Vec<Vec<u8>>,
    /// Each of the shard's lanes' pod images in the checkpoint.
    pub(crate) lane_images: LanePods<PodState>,
    /// Frame floors after the replay.
    pub(crate) frame_floors: BTreeMap<u64, u64>,
    /// The rounds a resume replays, in order.
    pub(crate) rounds: Vec<Round>,
    /// The journal a resume keeps.
    pub(crate) keep: Cut,
    /// Where the repair cuts the journal: the start of a damaged tail,
    /// or the end of the covered prefix a prefix drop moves.
    wal_cut: usize,
    /// Intact records the journal holds after the repair.
    records: usize,
}

/// One shard's part of a [`CampaignPlan`].
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard index.
    pub shard: usize,
    /// The chain's judgement: the lineage restored and every defect,
    /// each a file the repair quarantines.
    pub chain: ChainReport,
    /// Delta records applied on top of the lineage's full record.
    pub chain_deltas_applied: u64,
    /// How the repair leaves the journal.
    pub wal_action: WalAction,
    /// Journal bytes the repair moves to `hive.wal.quarantined`: a
    /// damaged or torn tail, or a damaged covered prefix.
    pub wal_quarantined_bytes: u64,
    /// Committed rounds restored from the checkpoint alone.
    pub rounds_from_snapshot: u64,
    /// Committed rounds replayed from the journal past the checkpoint.
    pub rounds_replayed: u64,
    /// Intact records a resume cuts because they lie past the target:
    /// an uncommitted partial round, a round another shard never
    /// fsynced (never acked), or a suffix disconnected from a fallback
    /// lineage.
    pub records_discarded: u64,
    /// Rounds this shard's files show committed: the round log's, and
    /// `0..r` for each round record `r` in its journal.
    pub committed: u64,
    /// `committed` rounds the target does not reach.
    pub rounds_lost: u64,
}

/// The campaign's one recovery plan: what one read of a campaign
/// directory holds, the repair it makes, and where a resume lands.
/// [`MultiPlatform::resume`](crate::MultiPlatform::resume) and
/// [`MultiPlatform::scrub`](crate::MultiPlatform::scrub) return the plan
/// they executed.
#[derive(Debug)]
pub struct CampaignPlan {
    /// The verdict: resume at this committed round, the minimum any
    /// shard restores (a round is acked only once every shard fsynced
    /// it). Every refusal is an `Err` of the plan instead.
    pub target_round: u64,
    /// Rounds the campaign's files show committed: the largest of the
    /// shards' [`ShardPlan::committed`].
    pub committed: u64,
    /// `committed` rounds the target does not reach.
    pub rounds_lost: u64,
    /// Bytes of a torn `rounds.log` tail the repair moves to
    /// `rounds.log.quarantined`.
    pub round_log_quarantined_bytes: u64,
    /// Per-shard judgement, in shard order.
    pub shards: Vec<ShardPlan>,
    /// What executing the plan takes; emptied once it ran.
    pub(crate) work: CampaignWork,
}

/// The campaign-wide half of what executing a plan takes.
#[derive(Debug, Default)]
pub(crate) struct CampaignWork {
    root: PathBuf,
    /// The round log's bytes as read.
    pub(crate) log: Vec<u8>,
    /// The rounds of the log a resume keeps, and their bytes.
    pub(crate) log_keep: (u64, usize),
    /// The resumed campaign's round history.
    pub(crate) history: Vec<MultiRoundReport>,
    /// Per shard, in shard order.
    pub(crate) shards: Vec<ShardWork>,
}

impl CampaignPlan {
    /// `true` when the repair moves nothing.
    pub fn is_clean(&self) -> bool {
        self.round_log_quarantined_bytes == 0
            && (self.shards.iter()).all(|s| s.chain.is_clean() && s.wal_action == WalAction::Clean)
    }

    /// Makes the plan's repair, each move a Warn event on `obs`: every
    /// chain file a defect names is renamed to `<file>.quarantined`, and
    /// a damaged journal region or a torn round-log tail moves to the
    /// file's `.quarantined` twin. Quarantine never deletes. After it,
    /// planning again finds the same target with nothing to repair.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] on filesystem failures.
    pub(crate) fn repair(&mut self, obs: &FlightRecorder) -> Result<(), DurabilityError> {
        let work = &mut self.work;
        for (s, w) in self.shards.iter().zip(&mut work.shards) {
            let shard = s.shard as u64;
            for d in &s.chain.defects {
                let chain = w.chain.as_mut().expect("a defect comes from an open chain");
                let q = chain
                    .quarantine(&d.file)
                    .map_err(|e| io_err("chain-quarantine", &e))?;
                obs.warn_or_ops(
                    REPAIR_SOURCE,
                    "chain_record_quarantined",
                    &[("shard", shard), ("generation", d.generation)],
                    format!("{}: {}; moved to {}", d.file, d.error, q.display()),
                );
            }
            let path = wal_path(&shard_dir(&work.root, s.shard));
            let kind = match s.wal_action {
                WalAction::Clean => continue,
                WalAction::TailCut => {
                    cut_tail(&path, &w.wal, w.wal_cut)?;
                    "wal_tail_cut"
                }
                WalAction::PrefixDropped => {
                    quarantine(&path, &w.wal[..w.wal_cut])?;
                    let tmp = path.with_extension("wal.repair-tmp");
                    (record::replace(&path, &tmp, &w.wal[w.wal_cut..]))
                        .map_err(|e| io_err("wal-rewrite", &e))?;
                    "wal_prefix_dropped"
                }
            };
            let moved = s.wal_quarantined_bytes;
            obs.warn_or_ops(
                REPAIR_SOURCE,
                kind,
                &[("shard", shard), ("quarantined_bytes", moved)],
                format_args!(
                    "{}: {moved} damaged byte(s) moved to quarantine",
                    path.display()
                ),
            );
        }
        let torn = self.round_log_quarantined_bytes;
        if torn > 0 {
            let valid = work.log.len() - torn as usize;
            cut_tail(&round_log_path(&work.root), &work.log, valid)?;
            obs.warn_or_ops(
                REPAIR_SOURCE,
                "round_log_tail_cut",
                &[("bytes", torn)],
                format_args!("a torn {torn}-byte tail of the round log moved to quarantine"),
            );
        }
        Ok(())
    }
}

/// Flight-recorder source of every repair move.
const REPAIR_SOURCE: &str = "campaign.repair";

/// Appends `bytes` to `<path>.quarantined`, next to the file they came
/// from so the damage stays inspectable, and syncs it.
fn quarantine(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantined");
    let mut q = (FileJournal::open(path.with_file_name(name)))
        .map_err(|e| io_err("quarantine-open", &e))?;
    q.append(bytes)?;
    q.sync()?;
    Ok(())
}

/// The tail cut of a journal and of the round log: moves `bytes[at..]`
/// of the file at `path` (holding `bytes`) to quarantine and cuts the
/// file to `at` bytes.
fn cut_tail(path: &Path, bytes: &[u8], at: usize) -> Result<(), DurabilityError> {
    quarantine(path, &bytes[at..])?;
    let mut file = FileJournal::open(path).map_err(|e| io_err("cut-open", &e))?;
    Ok(file.truncate(at as u64)?)
}

/// Where `part`, a slice of `whole`, lies in it.
fn span(whole: &[u8], part: &[u8]) -> Range<usize> {
    let start = part.as_ptr() as usize - whole.as_ptr() as usize;
    start..start + part.len()
}

/// The campaign's one recovery plan: judges the campaign at `root` with
/// `n_shards` shards over one read of its files, creating and moving
/// nothing. What it reads is each shard's chain (`ChainStore::open`'s
/// lineage and defects, each lineage payload decoded once), each
/// shard's journal (one scan, and the committed rounds past the
/// checkpoint decoded once), and the round log.
///
/// `Ok` is the verdict "resume at [`CampaignPlan::target_round`]":
/// [`MultiPlatform::scrub`](crate::MultiPlatform::scrub) makes its
/// repair; [`MultiPlatform::resume`](crate::MultiPlatform::resume)
/// makes the same repair, then restores, replays and cuts what lies
/// past the target. An `Err` is a typed refusal, and neither moves a
/// byte.
///
/// # The repair
///
/// A repair never reconstructs lost data; it moves bytes verification
/// already rejected into `*.quarantined` files (see
/// [`CampaignPlan::repair`]):
///
/// * every chain file the chain's one lineage rule condemns (damage, a
///   broken link, an orphan, a non-canonical name) — the lineage the
///   plan restores is the one a fresh open adopts afterwards;
/// * a torn round-log tail (damage mid-log, with intact records after
///   it, is refused);
/// * a damaged journal region, judged against the restored
///   checkpoint's claimed coverage `wal_covered`.
///
/// `wal_covered` cannot be taken at face value: after a *completed*
/// compaction the journal restarts at byte 0 while `wal_covered` still
/// describes the pre-truncate file, so a journal damaged before
/// `wal_covered` may be freshly live from byte 0 (stale coverage) or a
/// genuinely covered prefix that the damage itself un-hashed. The plan
/// acts only on verifiable evidence:
///
/// * The damage is inside the claimed prefix, the file reaches
///   `wal_covered`, and `bytes[wal_covered..]` scans as whole
///   checksummed records: the covered offset lands on a true record
///   boundary, which a regrown journal would only offer by 2⁻⁶⁴
///   accident, so the prefix is summarized by the checkpoint. It moves
///   to quarantine and the journal is rewritten to the suffix
///   ([`WalAction::PrefixDropped`]), which replays onto the checkpoint
///   exactly as it would have before the damage.
/// * Otherwise everything from the damage on moves to quarantine
///   ([`WalAction::TailCut`]): replaying across a hole would merge a
///   different history than was acknowledged. The records before the
///   damage stay, and only those that continue the checkpoint's rounds
///   replay: a covered record's round precedes the checkpoint's, so a
///   prefix that cannot be told covered is never applied twice.
///
/// # The target and the loss rule
///
/// A shard restores its checkpoint's rounds plus the connected rounds
/// its journal commits past them; the target is the minimum over
/// shards. The files show rounds `0..committed` committed: the round
/// log's, and `0..r` for a round record `r` in any journal (a round
/// record is written only after every shard acked the rounds before
/// it). [`CampaignPlan::rounds_lost`] names what the target leaves out.
///
/// # Errors
///
/// [`DurabilityError::RoundsLost`] when the target is round 0 while the
/// files show a committed round, or a shard holds chain records no
/// lineage restores; [`DurabilityError::Corrupt`] on an older layout,
/// another shard count, damage mid-round-log, a checksummed record that
/// does not decode, a checkpoint ahead of the target, or a round log
/// that disagrees with shard 0's journal or lacks rounds its checkpoint
/// holds; [`DurabilityError::Io`] on a failed read.
pub(crate) fn plan(root: &Path, n_shards: usize) -> Result<CampaignPlan, DurabilityError> {
    refuse_legacy(root, LEGACY_ROOT)?;
    refuse_shard_count(root, n_shards)?;
    let log = read_or_empty(&round_log_path(root), "round-log-read")?;
    let log_scan = decode_round_log(&log)?;
    let log_rounds = log_scan.reports.len() as u64;
    let (mut shards, mut works): (Vec<ShardPlan>, Vec<ShardWork>) = (0..n_shards)
        .map(|i| plan_shard(i, &shard_dir(root, i)))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();

    let restorable =
        |(s, w): (&ShardPlan, &ShardWork)| s.rounds_from_snapshot + w.rounds.len() as u64;
    let target = shards.iter().zip(&works).map(restorable).min().unwrap_or(0);
    if let Some(s) = shards.iter().find(|s| s.rounds_from_snapshot > target) {
        // Phase B follows phase A on every shard: impossible.
        return Err(DurabilityError::Corrupt(format!(
            "shard {} checkpoint is at round {} but the campaign minimum is {target}",
            s.shard, s.rounds_from_snapshot
        )));
    }
    for s in &mut shards {
        s.committed = s.committed.max(log_rounds);
        s.rounds_lost = s.committed.saturating_sub(target);
    }
    let committed = shards
        .iter()
        .map(|s| s.committed)
        .max()
        .unwrap_or(log_rounds);
    let unrestored = |(s, w): (&ShardPlan, &ShardWork)| {
        s.chain.records == 0 && w.chain.as_ref().is_some_and(|c| !c.files().is_empty())
    };
    if target == 0 && (committed > 0 || shards.iter().zip(&works).any(unrestored)) {
        return Err(DurabilityError::RoundsLost { committed });
    }

    // History: the round log's rounds, then shard 0's replayed rounds
    // past them. Where both hold a round they must agree.
    let kept = log_rounds.min(target);
    let snap0 = shards.first().map_or(0, |s| s.rounds_from_snapshot);
    if kept < snap0 {
        return Err(DurabilityError::Corrupt(format!(
            "the round log holds rounds 0..{kept} but shard 0's checkpoint is at round {snap0}: \
             rounds {kept}..{snap0} are lost"
        )));
    }
    let replayed = works
        .first()
        .map_or(&[][..], |w| &w.rounds[..(target - snap0) as usize]);
    for round in replayed.iter().filter(|r| r.report.round < kept) {
        if log_scan.reports[round.report.round as usize] != round.report {
            return Err(DurabilityError::Corrupt(format!(
                "the round log and shard 0's journal disagree on round {}",
                round.report.round
            )));
        }
    }
    let mut history = log_scan.reports;
    history.truncate(kept as usize);
    let newer = replayed.iter().filter(|r| r.report.round >= kept);
    history.extend(newer.map(|r| r.report.clone()));

    // Every shard replays up to the target and keeps its journal
    // through the last round it replays.
    for (s, w) in shards.iter_mut().zip(&mut works) {
        w.rounds
            .truncate((target - s.rounds_from_snapshot) as usize);
        if let Some(last) = w.rounds.last() {
            w.keep = last.cut;
        }
        for &(lane, seq, _) in w.rounds.iter().flat_map(|r| &r.frames) {
            raise_floor(&mut w.frame_floors, lane, seq);
        }
        s.rounds_replayed = w.rounds.len() as u64;
        s.records_discarded = (w.records - w.keep.records) as u64;
    }
    Ok(CampaignPlan {
        target_round: target,
        committed,
        rounds_lost: committed.saturating_sub(target),
        round_log_quarantined_bytes: (log.len() - log_scan.valid_len) as u64,
        shards,
        work: CampaignWork {
            root: root.to_path_buf(),
            log_keep: (kept, round_log_prefix(&log, kept)),
            log,
            history,
            shards: works,
        },
    })
}

/// Byte length of the first `rounds` records of an intact round log.
fn round_log_prefix(bytes: &[u8], rounds: u64) -> usize {
    let mut at = 0;
    for _ in 0..rounds {
        match journal::FRAMING.read_at(bytes, at) {
            Ok(rec) => at = rec.end,
            Err(_) => break,
        }
    }
    at
}

/// One shard's part of [`plan`], before the campaign's target is known.
fn plan_shard(shard: usize, dir: &Path) -> Result<(ShardPlan, ShardWork), DurabilityError> {
    refuse_legacy(dir, LEGACY_SHARD)?;
    let chain_dir = dir.join("chain");
    let (chain, ChainLoad { records, report }) = if chain_dir.is_dir() {
        let (chain, load) = open_chain(dir)?;
        (Some(chain), load)
    } else {
        (None, ChainLoad::default())
    };
    if let Some(d) = report.older_layout() {
        return Err(DurabilityError::Corrupt(format!(
            "{}: chain record {} is in an older layout; this build cannot resume it",
            dir.display(),
            d.file
        )));
    }
    let mut work = ShardWork {
        chain,
        ..ShardWork::default()
    };
    // A full record, then deltas; only the head's metadata is kept.
    let mut head = None;
    for rec in records {
        let mut snap = HiveSnapshot::decode(&rec.payload).map_err(|e| {
            let what = format!("{}: chain record {}", dir.display(), rec.generation);
            corrupt(&what, e)
        })?;
        work.states.push(std::mem::take(&mut snap.state));
        head = Some(snap);
    }
    let mut snap_round = 0;
    if let Some(head) = &mut head {
        (snap_round, work.lane_images) = decode_app_meta(&head.app_meta)?;
        work.frame_floors = std::mem::take(&mut head.sessions);
    }

    // The journal: one scan, then the region judgement.
    let path = wal_path(dir);
    let wal = read_or_empty(&path, "wal-read")?;
    let (records, scan) = journal::scan(&wal);
    if scan.tail_error == Some(EnvelopeError::OlderLayout) {
        return Err(older_records(&path, scan.valid_len));
    }
    let last_round = |records: &[JournalRecord<'_>]| {
        let rounds = records.iter().filter(|r| r.kind == REC_ROUND);
        rounds.map(|r| r.seq).max().unwrap_or(0)
    };
    let mut committed = last_round(&records);
    let covered_bytes = head.as_ref().map_or(0, |h| h.wal_covered as usize);
    let (wal_action, live) = if scan.tail_dropped == 0 {
        (WalAction::Clean, records)
    } else {
        work.wal_cut = scan.valid_len;
        let (suffix, rest) = match wal.get(covered_bytes..) {
            Some(suffix) if scan.valid_len < covered_bytes => journal::scan(suffix),
            _ => Default::default(),
        };
        if rest.tail_dropped == 0 && !suffix.is_empty() {
            work.wal_cut = covered_bytes;
            committed = committed.max(last_round(&suffix));
            (WalAction::PrefixDropped, suffix)
        } else {
            (WalAction::TailCut, records)
        }
    };
    let wal_quarantined_bytes = match wal_action {
        WalAction::Clean => 0,
        WalAction::TailCut => wal.len() - work.wal_cut,
        WalAction::PrefixDropped => work.wal_cut,
    } as u64;

    // The committed rounds past the checkpoint, decoded once, each with
    // the journal cut just past it.
    let covered = head.as_ref().map_or(0, |h| h.replay_offset(&live));
    let (mut cut, mut at) = (Cut::default(), 0);
    let mut cut_to = |n: usize| {
        cut = live[at..n].iter().fold(cut, Cut::past);
        at = n;
        cut
    };
    work.keep = cut_to(covered);
    for seg in segments(&live[covered..])? {
        let report = MultiRoundReport::decode(seg.round.frame)?;
        if report.round != snap_round + work.rounds.len() as u64 {
            break; // disconnected: the checkpoint fell back a generation
        }
        let what = format!("shard {shard} round {} pods", report.round);
        let pods = (seg.pods.iter())
            .map(|r| Ok((r.session, fleet::decode_pod_deltas(r.frame)?)))
            .collect::<Result<_, DurabilityError>>()
            .map_err(|e| corrupt(&what, e))?;
        let promotions = (seg.promotes.iter())
            .map(|r| read_promotion(r.frame).map(|(p, s, o)| (r.seq, p, s, o)))
            .collect::<Result<_, _>>()?;
        let frames = (seg.frames.iter())
            .map(|r| (r.session, r.seq, span(&wal, r.frame)))
            .collect();
        work.rounds.push(Round {
            report,
            frames,
            promotions,
            pods,
            cut: cut_to(covered + seg.end_idx),
        });
    }
    work.records = live.len();
    work.wal = wal;
    let plan = ShardPlan {
        shard,
        chain: report,
        chain_deltas_applied: work.states.len().saturating_sub(1) as u64,
        wal_action,
        wal_quarantined_bytes,
        rounds_from_snapshot: snap_round,
        rounds_replayed: 0,
        records_discarded: 0,
        committed,
        rounds_lost: 0,
    };
    Ok((plan, work))
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

    /// A report for round `round` with no program in it, encoded.
    fn round_body(round: u64) -> Vec<u8> {
        let mut body = Vec::new();
        let report = MultiRoundReport {
            round,
            executions: 0,
            failures: 0,
            failure_rate_per_10k: 0.0,
            fixes_promoted: 0,
            programs: Vec::new(),
        };
        report.encode_into(&mut body);
        body
    }

    /// A one-shard campaign written by hand: round 0 in the round log
    /// and a full checkpoint at round 1 covering the journal's first
    /// `covered` bytes (round 0's records); the journal holds round 1
    /// past them.
    struct Seeded {
        root: PathBuf,
        wal: Vec<u8>,
        covered: usize,
    }

    impl Seeded {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("softborg-plan-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let mut wal = Vec::new();
            journal::append_record(&mut wal, REC_FRAME, 0, 0, &[0xAA; 40]);
            journal::append_record(&mut wal, REC_ROUND, SESSION_ROUND, 0, &round_body(0));
            let covered = wal.len();
            journal::append_record(&mut wal, REC_FRAME, 0, 1, &[0xBB; 40]);
            journal::append_record(&mut wal, REC_ROUND, SESSION_ROUND, 1, &round_body(1));
            let mut log = Vec::new();
            journal::append_record(&mut log, REC_ROUND, SESSION_ROUND, 0, &round_body(0));
            let seeded = Seeded { root, wal, covered };
            let (mut chain, _) = open_chain(&seeded.shard()).unwrap();
            chain
                .append(RecordKind::Full, &seeded.snapshot(covered))
                .unwrap();
            std::fs::write(round_log_path(&seeded.root), log).unwrap();
            std::fs::write(seeded.wal_path(), &seeded.wal).unwrap();
            seeded
        }

        fn shard(&self) -> PathBuf {
            shard_dir(&self.root, 0)
        }

        fn wal_path(&self) -> PathBuf {
            wal_path(&self.shard())
        }

        /// A checkpoint at round 1 covering the journal's first `covered` bytes.
        fn snapshot(&self, covered: usize) -> Vec<u8> {
            let mut app_meta = crate::multi::APP_META_TAG.to_vec();
            codec::put_u64(&mut app_meta, 1);
            codec::put_u32(&mut app_meta, 0);
            let snap = HiveSnapshot {
                state: vec![1, 2, 3],
                sessions: [(0, 1)].into_iter().collect(),
                wal_covered: covered as u64,
                wal_covered_hash: journal::wal_hash(&journal::scan(&self.wal[..covered]).0),
                app_meta,
            };
            snap.encode()
        }

        fn plan(&self) -> Result<CampaignPlan, DurabilityError> {
            plan(&self.root, 1)
        }

        /// Flips `mask` into journal byte `at` on disk; returns the bytes.
        fn damage(&self, at: &[usize]) -> Vec<u8> {
            let mut bytes = self.wal.clone();
            for &at in at {
                bytes[at] ^= 0x80;
            }
            std::fs::write(self.wal_path(), &bytes).unwrap();
            bytes
        }

        fn quarantined(&self, path: &Path) -> Vec<u8> {
            let mut name = path.file_name().unwrap().to_os_string();
            name.push(".quarantined");
            std::fs::read(path.with_file_name(name)).unwrap_or_default()
        }

        /// Repairs by the plan, then plans again: the same target with
        /// nothing left to repair.
        fn repair(&self, obs: &FlightRecorder) -> CampaignPlan {
            let mut plan = self.plan().unwrap();
            plan.repair(obs).unwrap();
            let again = self.plan().unwrap();
            assert!(again.is_clean(), "{again:?}");
            assert_eq!(again.target_round, plan.target_round);
            plan
        }
    }

    #[test]
    fn plan_of_a_clean_campaign_replays_past_its_checkpoint_and_moves_nothing() {
        let s = Seeded::new("clean");
        let plan = s.plan().unwrap();
        assert!(plan.is_clean(), "{plan:?}");
        assert_eq!(
            (plan.target_round, plan.committed, plan.rounds_lost),
            (2, 1, 0)
        );
        let shard = &plan.shards[0];
        assert_eq!((shard.rounds_from_snapshot, shard.rounds_replayed), (1, 1));
        assert_eq!(plan.work.history.len(), 2);
        assert_eq!(std::fs::read(s.wal_path()).unwrap(), s.wal);
    }

    #[test]
    fn plan_of_an_empty_root_is_a_cold_start_that_creates_nothing() {
        let root = std::env::temp_dir().join(format!("softborg-plan-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let plan = plan(&root, 2).unwrap();
        assert!(plan.is_clean());
        assert_eq!((plan.target_round, plan.shards.len()), (0, 2));
        assert!(!root.exists(), "planning created the root");
    }

    #[test]
    fn plan_cuts_a_damaged_live_tail_into_quarantine() {
        let s = Seeded::new("tail");
        let bytes = s.damage(&[s.covered + 10]);
        let plan = s.repair(&FlightRecorder::disabled());
        assert_eq!(plan.shards[0].wal_action, WalAction::TailCut);
        assert_eq!(
            plan.shards[0].wal_quarantined_bytes,
            (s.wal.len() - s.covered) as u64
        );
        assert_eq!(
            plan.target_round, 1,
            "round 1's records were behind the hole"
        );
        assert_eq!(std::fs::read(s.wal_path()).unwrap(), &s.wal[..s.covered]);
        assert_eq!(s.quarantined(&s.wal_path()), &bytes[s.covered..]);
    }

    #[test]
    fn plan_drops_a_damaged_covered_prefix_and_replays_the_suffix() {
        let s = Seeded::new("prefix");
        let bytes = s.damage(&[5]);
        let plan = s.repair(&FlightRecorder::disabled());
        assert_eq!(plan.shards[0].wal_action, WalAction::PrefixDropped);
        assert_eq!((plan.target_round, plan.rounds_lost), (2, 0));
        assert_eq!(std::fs::read(s.wal_path()).unwrap(), &s.wal[s.covered..]);
        assert_eq!(s.quarantined(&s.wal_path()), &bytes[..s.covered]);
    }

    #[test]
    fn plan_cuts_at_the_first_hole_when_both_regions_are_damaged() {
        let s = Seeded::new("span");
        s.damage(&[5, s.covered + 10]);
        let plan = s.repair(&FlightRecorder::disabled());
        assert_eq!(plan.shards[0].wal_action, WalAction::TailCut);
        assert_eq!(plan.shards[0].wal_quarantined_bytes, s.wal.len() as u64);
        assert_eq!(
            plan.target_round, 1,
            "the checkpoint alone resumes the campaign"
        );
        assert!(std::fs::read(s.wal_path()).unwrap().is_empty());
    }

    #[test]
    fn plan_refuses_an_older_layout_journal_untouched() {
        let s = Seeded::new("older");
        let mut bytes = s.wal.clone();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let fnv = softborg_obs::fnv1a_step(softborg_obs::FNV_OFFSET, &bytes[12..12 + len]);
        bytes[4..12].copy_from_slice(&fnv.to_le_bytes());
        std::fs::write(s.wal_path(), &bytes).unwrap();
        match s.plan() {
            Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("older layout"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(std::fs::read(s.wal_path()).unwrap(), bytes);
    }

    #[test]
    fn plan_quarantines_a_corrupt_chain_record_never_deletes_it() {
        let s = Seeded::new("record-rot");
        // A newer delta covering the whole journal, then rot in it.
        let (mut chain, _) = open_chain(&s.shard()).unwrap();
        let g = chain
            .append(RecordKind::Delta, &s.snapshot(s.wal.len()))
            .unwrap();
        let path = chain.dir().join(format!("chain-{g:020}.delta"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let plan = s.repair(&FlightRecorder::disabled());
        let chain = &plan.shards[0].chain;
        assert_eq!(chain.defects.len(), 1);
        assert_eq!(chain.head_generation, Some(0), "the full's lineage resumes");
        assert_eq!(plan.target_round, 2, "the journal replays onto the full");
        assert!(!path.exists(), "corrupt record left in place");
        assert_eq!(
            s.quarantined(&path),
            bytes,
            "quarantine keeps the bytes exactly"
        );
    }

    #[test]
    fn plan_refuses_a_chain_payload_that_is_no_snapshot_untouched() {
        let s = Seeded::new("bad-payload");
        let (mut chain, _) = open_chain(&s.shard()).unwrap();
        chain.append(RecordKind::Delta, b"not a snapshot").unwrap();
        assert!(matches!(s.plan(), Err(DurabilityError::Corrupt(_))));
        assert_eq!(ChainStore::open(chain.dir()).unwrap().1.records.len(), 2);
    }

    #[test]
    fn plan_repair_records_a_warn_event_for_every_move() {
        use softborg_obs::{ManualClock, Severity};
        let s = Seeded::new("events");
        std::fs::write(s.shard().join("chain").join("chain-7.delta"), b"junk").unwrap();
        s.damage(&[s.covered + 10]);
        let rec = FlightRecorder::new(std::sync::Arc::new(ManualClock::new(0)), 64);
        s.repair(&rec);
        let events = rec.events();
        for kind in ["chain_record_quarantined", "wal_tail_cut"] {
            let warned = |e: &&softborg_obs::Event| e.kind == kind && e.severity == Severity::Warn;
            assert!(
                events.iter().any(|e| warned(&e)),
                "no Warn {kind} event: {events:?}"
            );
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
            // A resume keeps the journal's intact records.
            let resume = || {
                let bytes = file();
                let keep = journal::scan(&bytes).0.iter().fold(Cut::default(), Cut::past);
                DurableStore::reopen(cfg.clone(), None, BTreeMap::new(), keep).unwrap()
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
