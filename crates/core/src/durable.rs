//! One durable store: a campaign (or shard) directory's write-ahead
//! journal (`hive.wal`) plus its delta-chain checkpoint records
//! (`chain/`), and every decision about what is written there and what
//! a resume trusts.
//!
//! [`Platform`](crate::Platform) holds one [`DurableStore`];
//! [`MultiPlatform`](crate::MultiPlatform) holds one per shard and adds
//! only what is genuinely its own (lane→shard routing, the two-phase
//! commit, the minimum-committed-round rule). Everything else lives
//! here exactly once: fresh-open and campaign-exists detection, the
//! legacy-directory refusal, checkpoint load (the chain's newest valid
//! lineage, full→deltas), the journal [`SegmentWalker`], the compaction
//! trigger, the checkpoint write, and scrub dispatch.

use softborg_hive::journal::{
    self, JournalRecord, REC_ABORT, REC_FRAME, REC_PODS, REC_PROMOTE, REC_ROUND, REC_TOMBSTONE,
    SESSION_ROUND,
};
use softborg_hive::{
    scrub_campaign, FileJournal, HiveSnapshot, JournalIoError, JournalStore, ScrubError,
    ScrubReport,
};
use softborg_obs::{fnv1a_step, FlightRecorder, FNV_OFFSET};
use softborg_program::codec::{self, CodecError};
use softborg_program::Overlay;
use softborg_store::{ChainLoad, ChainReport, ChainStore, RecordKind};
use softborg_trace::wire;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where and how a durable campaign persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the campaign's `hive.wal` journal and its
    /// `chain/` checkpoint records (created if absent).
    pub dir: PathBuf,
    /// Compaction trigger: checkpoint once the journal is at least this
    /// many times what a checkpoint writes — the newest full chain
    /// record's payload (hive state, frame floors, and app-meta: round
    /// history and pod state). `0` disables compaction.
    pub compact_ratio: u64,
    /// Journal size below which compaction never triggers, so tiny
    /// campaigns don't churn checkpoints every round.
    pub min_compact_wal_bytes: u64,
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
    /// An underlying journal or checkpoint I/O operation failed.
    Io(JournalIoError),
    /// A durable record decoded to garbage (wrong program, torn bytes
    /// that passed no checksum, or a version this build cannot read),
    /// or the directory holds a legacy full-snapshot campaign.
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

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("hive.wal")
}

/// Opens (creating if needed) the chain under `dir`, with the walk the
/// open already did.
fn open_chain(dir: &Path) -> Result<(ChainStore, ChainLoad), DurabilityError> {
    ChainStore::open(&dir.join("chain")).map_err(|e| io_err("chain-dir", &e))
}

/// Refuses a directory left by the retired full-snapshot checkpoint
/// format (`hive.snap` generations): this build would silently
/// cold-start over it and discard its journal. Runs before anything in
/// the directory is opened or created.
fn refuse_legacy(dir: &Path) -> Result<(), DurabilityError> {
    if ["hive.snap", "hive.snap.prev"]
        .iter()
        .any(|f| dir.join(f).exists())
    {
        return Err(DurabilityError::Corrupt(format!(
            "{}: legacy full-snapshot campaign (hive.snap); this build checkpoints only to \
             delta chains and cannot resume it",
            dir.display()
        )));
    }
    Ok(())
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
    /// The chain walk: which lineage was adopted (primary, fallback, or
    /// none — a cold start) and every damaged record found.
    pub(crate) chain: ChainReport,
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
    /// The checkpoint store: each checkpoint appends a full or delta
    /// record here.
    chain: ChainStore,
    journal: FileJournal,
    /// FNV-1a of every byte in the journal, kept current as records are
    /// appended and the journal is cut, so a checkpoint can stamp the
    /// prefix it covers without reading the journal back.
    wal_hash: u64,
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
    /// holds chain records, a non-empty journal, or a legacy
    /// full-snapshot campaign;
    /// [`DurabilityError::Io`] when a file cannot be opened.
    pub(crate) fn create(cfg: DurabilityConfig) -> Result<Self, DurabilityError> {
        let exists = || DurabilityError::CampaignExists(cfg.dir.clone());
        refuse_legacy(&cfg.dir).map_err(|_| exists())?;
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
            wal_hash: FNV_OFFSET,
            frame_floors: BTreeMap::new(),
            rec: Vec::new(),
        })
    }

    /// Opens `cfg.dir` to continue a campaign and loads its newest valid
    /// checkpoint: the chain's newest valid lineage (a full record plus
    /// every delta after it), from the one walk the chain open makes. An
    /// empty directory is a cold start.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Corrupt`] when the directory holds a legacy
    /// full-snapshot campaign (refused before anything is opened), or
    /// when a chain record's payload is not a snapshot;
    /// [`DurabilityError::Io`] on filesystem failures.
    pub(crate) fn resume(cfg: DurabilityConfig) -> Result<(Self, Recovered), DurabilityError> {
        refuse_legacy(&cfg.dir)?;
        let (chain, ChainLoad { records, report }) = open_chain(&cfg.dir)?;
        // The lineage starts at a full record; every later record is a
        // delta against its predecessor, and the last one is the head
        // whose metadata describes the whole checkpoint. Only the head's
        // metadata is kept.
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
        if cfg.skip_last_delta && states.len() > 1 {
            // Planted bug (`skip_delta` canary): the head's metadata is
            // trusted below while its state changes are silently
            // dropped.
            states.pop();
        }
        let replay_from = head.as_ref().map_or(0, |h| h.replay_offset(&wal));
        let (frame_floors, app_meta) = match head {
            Some(h) => (h.sessions, Some(h.app_meta)),
            None => (BTreeMap::new(), None),
        };
        Ok((
            DurableStore {
                cfg,
                chain,
                journal,
                wal_hash: wire::fnv1a(&wal),
                frame_floors,
                rec: Vec::new(),
            },
            Recovered {
                states,
                app_meta,
                wal,
                replay_from,
                chain: report,
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
        self.journal.append(&self.rec)?;
        self.wal_hash = fnv1a_step(self.wal_hash, &self.rec);
        Ok(())
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

    /// Cuts the journal back to `kept`, a prefix of the journal as a
    /// resume read it (or nothing, after a checkpoint) — dropping a
    /// damaged tail, a disconnected suffix, or rounds that were never
    /// acked.
    pub(crate) fn truncate_wal(&mut self, kept: &[u8]) -> Result<(), DurabilityError> {
        self.journal.truncate(kept.len() as u64)?;
        self.wal_hash = wire::fnv1a(kept);
        Ok(())
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

    /// Generation of the chain head (`None` on a cold chain).
    pub(crate) fn chain_head_generation(&self) -> Option<u64> {
        self.chain.head_generation()
    }

    /// The compaction trigger, asked after every committed round: is the
    /// journal at least `compact_ratio` times what a checkpoint writes —
    /// the newest full record's payload — and past
    /// `min_compact_wal_bytes`? Read off the chain's bookkeeping, so the
    /// check costs nothing; a cold chain weighs nothing, so the first
    /// checkpoint comes at the minimum.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let ratio = self.cfg.compact_ratio;
        let full = self.chain.last_full_payload_bytes().max(1);
        ratio > 0
            && self.journal.len()
                >= ratio
                    .saturating_mul(full)
                    .max(self.cfg.min_compact_wal_bytes)
    }

    /// Appends one checkpoint covering the whole journal to the chain —
    /// a full record when [`ChainStore::rebase_due`] says so, else a
    /// delta, with `encode` producing that kind's state encoding — then
    /// (when `truncate`) empties the journal. Returns the payload bytes
    /// written. The caller then resets its delta tracking, so the next
    /// delta covers exactly the changes since.
    ///
    /// Without `truncate` the disk is left exactly as a crash between
    /// the chain append and the journal truncate leaves it.
    pub(crate) fn write_checkpoint(
        &mut self,
        encode: impl FnOnce(RecordKind) -> Vec<u8>,
        app_meta: Vec<u8>,
        truncate: bool,
    ) -> Result<u64, DurabilityError> {
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
            self.truncate_wal(&[])?;
        }
        Ok(payload.len() as u64)
    }

    /// Scrubs the store at `cfg.dir` for bit rot *before* a resume (see
    /// [`softborg_hive::scrub`]). A legacy full-snapshot directory is
    /// refused, as [`resume`](Self::resume) refuses it.
    pub(crate) fn scrub(
        cfg: &DurabilityConfig,
        obs: &FlightRecorder,
    ) -> Result<ScrubReport, DurabilityError> {
        refuse_legacy(&cfg.dir)?;
        let (chain, _) = open_chain(&cfg.dir)?;
        Ok(scrub_campaign(&wal_path(&cfg.dir), &chain, obs)?)
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

    static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The running hash a checkpoint stamps as `wal_covered_hash`
        /// equals FNV-1a of the journal file after any sequence of
        /// appends, cuts (at any byte), checkpoints with and without the
        /// truncate, and resumes.
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
            let mut store = DurableStore::create(cfg.clone()).unwrap();
            for (op, arg) in ops {
                match op % 5 {
                    0 | 1 => store.append(REC_FRAME, 0, u64::from(arg), &vec![op; usize::from(arg % 300)]).unwrap(),
                    2 => {
                        let bytes = file();
                        store.truncate_wal(&bytes[..usize::from(arg) % (bytes.len() + 1)]).unwrap();
                    }
                    3 => {
                        let truncate = arg % 2 == 0;
                        let before = file();
                        store.write_checkpoint(|_| vec![op], Vec::new(), truncate).unwrap();
                        let head = store.chain.load().records.pop().unwrap();
                        let snap = HiveSnapshot::decode(&head.payload).unwrap();
                        prop_assert_eq!(snap.replay_offset(&before), before.len());
                    }
                    _ => {
                        drop(store);
                        store = DurableStore::resume(cfg.clone()).unwrap().0;
                    }
                }
                prop_assert_eq!(store.wal_hash, wire::fnv1a(&file()));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
