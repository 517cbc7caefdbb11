//! The hive's write-ahead journal: accepted frames hit durable storage
//! *before* they are merged, so a crashed hive rebuilds exact state by
//! replay (Candea's crash-only lineage: recovery is the normal startup
//! path, not a special case).
//!
//! # Record format
//!
//! Every record is the shared record envelope
//! ([`softborg_store::record`]) with no magic, length-prefixed and
//! checksummed with the [`softborg_obs::checksum`] every stored record
//! shares:
//!
//! ```text
//! u32 body_len | u64 checksum(body) | body
//! body = u8 kind | u64 session | u64 seq | frame bytes
//! ```
//!
//! `kind` is [`REC_FRAME`] (the frame bytes are a wire batch frame,
//! [`wire::encode_batch`]), [`REC_TOMBSTONE`] (a shed frame: the sender
//! gave up on this sequence number under backpressure; the record holds
//! the slot so per-session sequence accounting survives recovery, but
//! contributes no traces), [`REC_PROMOTE`] (a fix promotion: the frame
//! bytes carry the promoted signature + overlay so replay re-applies the
//! fix pipeline's *decision* rather than re-running its search),
//! [`REC_ROUND`] (a platform round boundary: the frame bytes carry the
//! caller's opaque round metadata), or [`REC_PODS`] (a platform lane's
//! pod population). Kind 4, a retired abort fence, still scans; the
//! platform's replay refuses it.
//!
//! # Durability model
//!
//! Appends go to a store ([`JournalStore`]) whose `sync` is the fsync
//! barrier: on a crash, everything after the last sync is lost
//! ([`MemJournal::crash`] truncates to the synced prefix — exactly what
//! a kernel would do to an unsynced file tail). [`scan`] tolerates that
//! by design: a truncated or corrupt tail is detected, counted, and
//! dropped — never panicked on — and every record *before* the tail is
//! recovered intact. A journal an older build wrote, its records
//! checksummed with FNV-1a, stops the scan at its first record with
//! [`EnvelopeError::OlderLayout`]: callers refuse it, never cut it.
//!
//! # The running hash
//!
//! A checkpoint stamps the journal prefix it covers with a hash, so a
//! resume can tell an untruncated journal from a regrown one. That hash
//! folds each record's envelope checksum and length ([`fold_record`]),
//! which [`append_record`] returns and [`scan`] hands back, so no journal
//! byte is hashed twice.
//!
//! [`wire::encode_batch`]: softborg_trace::wire::encode_batch

pub use softborg_store::record::fsync_parent_dir;
use softborg_store::record::{EnvelopeError, Framing};
use std::fmt;
use std::io::Write;

/// Record kind: the body carries a wire batch frame.
pub const REC_FRAME: u8 = 0;
/// Record kind: a shed (tombstoned) sequence slot; no frame bytes.
pub const REC_TOMBSTONE: u8 = 1;
/// Record kind: a fix promotion (signature + overlay bytes); written on
/// the [`SESSION_PROMOTE`] pseudo-session.
pub const REC_PROMOTE: u8 = 2;
/// Record kind: a platform round boundary carrying opaque caller
/// metadata; written on the [`SESSION_ROUND`] pseudo-session.
pub const REC_ROUND: u8 = 3;
/// Record kind: a durable pod-state record for one platform lane
/// (`session` = lane index, `seq` = round index; the frame bytes carry
/// the platform's encoded pod deltas for that round). Written inside
/// the committed segment, before its [`REC_ROUND`], so replay restores
/// every pod mid-stream exactly as it was when the round committed.
pub const REC_PODS: u8 = 5;
/// Journal records: no magic, kinds up to [`REC_PODS`]; [`scan`]
/// rejects anything above it. `rounds.log` holds the same records.
pub const FRAMING: Framing = Framing {
    magic: b"",
    max_kind: REC_PODS,
};

/// Pseudo-session carrying [`REC_ROUND`] records. Real
/// transport sessions are small pod indices, so the top of the `u64`
/// space is free.
pub const SESSION_ROUND: u64 = u64::MAX;
/// Pseudo-session carrying [`REC_PROMOTE`] records.
pub const SESSION_PROMOTE: u64 = u64::MAX - 1;

/// One recovered journal record, borrowed from the scanned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord<'a> {
    /// Record kind ([`REC_FRAME`] or [`REC_TOMBSTONE`]).
    pub kind: u8,
    /// Session the frame arrived on.
    pub session: u64,
    /// Per-session sequence number.
    pub seq: u64,
    /// The wire batch frame (empty for tombstones).
    pub frame: &'a [u8],
    /// The record's envelope checksum.
    pub checksum: u64,
}

impl JournalRecord<'_> {
    /// On-disk size of this record (header + body), letting callers map
    /// a [`scan`] position back to a byte offset in the journal.
    pub fn encoded_len(&self) -> usize {
        FRAMING.record_len(self.frame.len())
    }
}

/// The running hash of a journal that holds no record.
pub const EMPTY_WAL_HASH: u64 = 0;

/// The running hash of a journal one record longer: `hash` is the
/// journal's before the record, which enters by its envelope checksum
/// and byte length.
pub fn fold_record(hash: u64, checksum: u64, len: usize) -> u64 {
    let mut words = [0u8; 24];
    words[..8].copy_from_slice(&hash.to_le_bytes());
    words[8..16].copy_from_slice(&checksum.to_le_bytes());
    words[16..].copy_from_slice(&(len as u64).to_le_bytes());
    softborg_obs::checksum(&words)
}

/// The running hash of a journal holding `records`, in order.
pub fn wal_hash(records: &[JournalRecord<'_>]) -> u64 {
    (records.iter()).fold(EMPTY_WAL_HASH, |h, r| {
        fold_record(h, r.checksum, r.encoded_len())
    })
}

/// What a [`scan`] recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanReport {
    /// Records recovered intact.
    pub records: usize,
    /// Bytes of valid journal prefix (safe truncation point).
    pub valid_len: usize,
    /// Bytes dropped from the tail (truncated or corrupt).
    pub tail_dropped: usize,
    /// Why the tail was dropped, when it was.
    pub tail_error: Option<EnvelopeError>,
}

/// Appends one record to `buf` in the journal format and returns its
/// envelope checksum.
pub fn append_record(buf: &mut Vec<u8>, kind: u8, session: u64, seq: u64, frame: &[u8]) -> u64 {
    FRAMING.seal(buf, kind, [session, seq], frame)
}

/// Scans journal bytes, recovering every intact record, borrowed in
/// place, and dropping the truncated or corrupt tail. Total: never
/// panics; allocates the record list once, sized by the records'
/// length fields.
pub fn scan(bytes: &[u8]) -> (Vec<JournalRecord<'_>>, ScanReport) {
    let room = bytes.len() / FRAMING.record_len(0);
    let mut records = Vec::with_capacity(FRAMING.count(bytes).min(room));
    let (mut pos, mut tail_error) = (0, None);
    while pos < bytes.len() {
        match FRAMING.read_at(bytes, pos) {
            Ok(r) => {
                let [session, seq] = r.words;
                records.push(JournalRecord {
                    kind: r.kind,
                    session,
                    seq,
                    frame: r.payload,
                    checksum: r.checksum,
                });
                pos = r.end;
            }
            Err(e) => {
                tail_error = Some(e);
                break;
            }
        }
    }
    let report = ScanReport {
        records: records.len(),
        valid_len: pos,
        tail_dropped: bytes.len() - pos,
        tail_error,
    };
    (records, report)
}

/// Per-session next-expected sequence numbers implied by scanned
/// records: for every real transport session (frames and tombstones;
/// pseudo-sessions are skipped), the highest journaled `seq + 1`. This
/// is the dedup floor a freshly started server must honor so a
/// retransmit of an already-journaled frame is re-acked, not re-merged.
pub fn session_floors(records: &[JournalRecord<'_>]) -> std::collections::BTreeMap<u64, u64> {
    let mut floors = std::collections::BTreeMap::new();
    for r in records {
        if r.kind == REC_FRAME || r.kind == REC_TOMBSTONE {
            let f = floors.entry(r.session).or_insert(0u64);
            *f = (*f).max(r.seq + 1);
        }
    }
    floors
}

/// A failed journal I/O operation: which operation, the OS-level error
/// kind (e.g. `StorageFull` for ENOSPC), and the rendered message.
/// Cloneable so a server can latch the first fatal error and keep
/// refusing work with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalIoError {
    /// The operation that failed (`"append"`, `"sync"`, …).
    pub op: &'static str,
    /// The underlying [`std::io::ErrorKind`].
    pub kind: std::io::ErrorKind,
    /// The rendered OS error message.
    pub msg: String,
}

impl JournalIoError {
    pub(crate) fn from_io(op: &'static str, e: &std::io::Error) -> Self {
        JournalIoError {
            op,
            kind: e.kind(),
            msg: e.to_string(),
        }
    }
}

impl fmt::Display for JournalIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal {} failed ({:?}): {}",
            self.op, self.kind, self.msg
        )
    }
}

impl std::error::Error for JournalIoError {}

/// Where journal bytes durably live. `sync` is the fsync barrier:
/// implementations guarantee everything appended before the last `sync`
/// survives a crash; anything after it may be lost.
///
/// Both mutating operations are fallible: a full disk (ENOSPC) or a
/// failed fsync is an *observed loss of durability* and must surface as
/// a typed [`JournalIoError`], never a panic and never a silent no-op —
/// the caller decides whether to refuse further acks.
pub trait JournalStore {
    /// Appends raw record bytes (not yet durable).
    ///
    /// # Errors
    ///
    /// Returns a [`JournalIoError`] when the bytes could not be staged
    /// (e.g. ENOSPC); on error none of `bytes` count toward [`len`](Self::len).
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError>;
    /// Durability barrier; returns the synced length.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalIoError`] when the barrier itself failed —
    /// after which *nothing* appended since the last successful sync may
    /// be assumed durable.
    fn sync(&mut self) -> Result<u64, JournalIoError>;
    /// Total bytes appended (synced or not).
    fn len(&self) -> u64;
    /// `true` when nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory store with an explicit crash model, used by the netsim
/// transport: [`MemJournal::crash`] discards the unsynced tail, exactly
/// as an OS would for an unsynced file.
#[derive(Debug, Clone, Default)]
pub struct MemJournal {
    buf: Vec<u8>,
    synced: usize,
    /// Number of sync barriers issued (an fsync-batching gauge).
    pub syncs: u64,
}

impl MemJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// All bytes, including the unsynced tail.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The prefix guaranteed to survive a crash.
    pub fn synced_bytes(&self) -> &[u8] {
        &self.buf[..self.synced]
    }

    /// Simulates a crash: the unsynced tail is lost. Returns how many
    /// bytes were dropped.
    pub fn crash(&mut self) -> usize {
        let lost = self.buf.len() - self.synced;
        self.buf.truncate(self.synced);
        lost
    }
}

impl JournalStore for MemJournal {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<u64, JournalIoError> {
        if self.synced < self.buf.len() {
            self.syncs += 1;
        }
        self.synced = self.buf.len();
        Ok(self.synced as u64)
    }

    fn len(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// A file-backed store for real deployments: appends buffer in the OS,
/// `sync` issues `File::sync_data`. Load it back with
/// [`FileJournal::read`] + [`scan`] — a torn tail from a real crash is
/// dropped by the same scan logic the simulator exercises.
#[derive(Debug)]
pub struct FileJournal {
    file: std::fs::File,
    path: std::path::PathBuf,
    len: u64,
}

impl FileJournal {
    /// Opens (creating or appending to) the journal at `path`. If the
    /// file did not exist, the parent directory is fsynced so the new
    /// directory entry survives a machine crash.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn open(path: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let existed = path.exists();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if !existed {
            fsync_parent_dir(&path)?;
        }
        let len = file.metadata()?.len();
        Ok(FileJournal { file, path, len })
    }

    /// The path this journal lives at.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Reads the whole journal back for a [`scan`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn read(&self) -> std::io::Result<Vec<u8>> {
        std::fs::read(&self.path)
    }

    /// Truncates the journal to `len` bytes and syncs — used after a
    /// snapshot made the prefix redundant (compaction) and by recovery
    /// to cut a damaged tail at the last valid record boundary.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalIoError`] when truncation or the following
    /// sync fails; the in-memory length is only updated on success.
    pub fn truncate(&mut self, len: u64) -> Result<(), JournalIoError> {
        self.file
            .set_len(len)
            .map_err(|e| JournalIoError::from_io("truncate", &e))?;
        self.file
            .sync_data()
            .map_err(|e| JournalIoError::from_io("truncate-sync", &e))?;
        self.len = len;
        Ok(())
    }
}

impl JournalStore for FileJournal {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        // An append failure (ENOSPC, EIO) is an observed loss of
        // durability: report it and leave `len` untouched so the caller
        // refuses to ack anything relying on these bytes.
        self.file
            .write_all(bytes)
            .map_err(|e| JournalIoError::from_io("append", &e))?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<u64, JournalIoError> {
        self.file
            .sync_data()
            .map_err(|e| JournalIoError::from_io("sync", &e))?;
        Ok(self.len)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(u8, u64, u64, Vec<u8>)> {
        vec![
            (REC_FRAME, 1, 0, vec![0xAA; 20]),
            (REC_FRAME, 1, 1, vec![0xBB; 5]),
            (REC_TOMBSTONE, 1, 2, vec![]),
            (REC_FRAME, 7, 0, vec![1, 2, 3]),
        ]
    }

    fn build() -> Vec<u8> {
        let mut buf = Vec::new();
        for (k, s, q, f) in sample_records() {
            append_record(&mut buf, k, s, q, &f);
        }
        buf
    }

    #[test]
    fn roundtrip_all_records() {
        let buf = build();
        let (recs, report) = scan(&buf);
        assert_eq!(recs.len(), 4);
        assert_eq!(report.records, 4);
        assert_eq!(report.valid_len, buf.len());
        assert_eq!(report.tail_dropped, 0);
        assert_eq!(report.tail_error, None);
        for (rec, (k, s, q, f)) in recs.iter().zip(sample_records()) {
            assert_eq!(
                (rec.kind, rec.session, rec.seq, rec.frame),
                (k, s, q, &f[..])
            );
        }
    }

    #[test]
    fn every_truncation_recovers_the_valid_prefix() {
        let buf = build();
        let (full, _) = scan(&buf);
        for cut in 0..buf.len() {
            let (recs, report) = scan(&buf[..cut]);
            assert!(recs.len() <= full.len());
            assert_eq!(&recs[..], &full[..recs.len()], "prefix property at {cut}");
            assert_eq!(report.valid_len + report.tail_dropped, cut);
            if report.tail_dropped > 0 {
                assert!(report.tail_error.is_some());
            }
        }
    }

    #[test]
    fn corrupt_byte_drops_tail_not_head() {
        let buf = build();
        // Corrupt a byte inside the third record's body.
        let mut corrupt = buf.clone();
        let third_start = {
            let (recs, _) = scan(&buf);
            (0..buf.len())
                .find(|&i| {
                    let (r, _) = scan(&buf[..i]);
                    r.len() == 2
                })
                .unwrap_or(0)
                .max(recs.len().min(1)) // silence unused warnings conservatively
        };
        corrupt[third_start + 12 + 2] ^= 0xFF;
        let (recs, report) = scan(&corrupt);
        assert_eq!(recs.len(), 2, "records before the corruption survive");
        assert!(matches!(
            report.tail_error,
            Some(EnvelopeError::ChecksumMismatch { .. })
        ));
        assert!(report.tail_dropped > 0);
    }

    #[test]
    fn bad_kind_is_detected() {
        let mut buf = Vec::new();
        // Hand-build a record with kind 9 and a *valid* checksum.
        let mut body = vec![9u8];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&softborg_obs::checksum(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        let (recs, report) = scan(&buf);
        assert!(recs.is_empty());
        assert_eq!(report.tail_error, Some(EnvelopeError::BadKind(9)));
    }

    #[test]
    fn a_journal_checksummed_with_fnv1a_stops_the_scan_as_an_older_layout() {
        let mut buf = Vec::new();
        append_record(&mut buf, REC_FRAME, 1, 0, b"older");
        let fnv = softborg_obs::fnv1a_step(softborg_obs::FNV_OFFSET, &buf[12..]);
        buf[4..12].copy_from_slice(&fnv.to_le_bytes());
        buf.extend(build());
        let (recs, report) = scan(&buf);
        assert!(recs.is_empty());
        assert_eq!(report.tail_error, Some(EnvelopeError::OlderLayout));
    }

    #[test]
    fn the_running_hash_folds_what_append_returns() {
        let mut buf = Vec::new();
        let mut hash = EMPTY_WAL_HASH;
        for (k, s, q, f) in sample_records() {
            let at = buf.len();
            let sum = append_record(&mut buf, k, s, q, &f);
            hash = fold_record(hash, sum, buf.len() - at);
        }
        let (recs, _) = scan(&buf);
        assert_eq!(wal_hash(&recs), hash);
        assert_ne!(wal_hash(&recs[..3]), hash, "a prefix hashes apart");
        assert_eq!(wal_hash(&[]), EMPTY_WAL_HASH);
    }

    #[test]
    fn garbage_never_panics() {
        for seed in 0u8..32 {
            let junk: Vec<u8> = (0..257)
                .map(|i| (i as u8).wrapping_mul(seed ^ 0x5F))
                .collect();
            let _ = scan(&junk);
        }
    }

    #[test]
    fn mem_journal_crash_loses_only_unsynced_tail() {
        let mut j = MemJournal::new();
        let mut rec = Vec::new();
        append_record(&mut rec, REC_FRAME, 1, 0, b"abc");
        j.append(&rec).unwrap();
        j.sync().unwrap();
        let mut rec2 = Vec::new();
        append_record(&mut rec2, REC_FRAME, 1, 1, b"def");
        j.append(&rec2).unwrap();
        assert_eq!(j.len() as usize, rec.len() + rec2.len());
        let lost = j.crash();
        assert_eq!(lost, rec2.len());
        let (recs, report) = scan(j.bytes());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(report.tail_dropped, 0);
        assert_eq!(j.syncs, 1);
    }

    #[test]
    fn sync_is_idempotent_and_counts_batches() {
        let mut j = MemJournal::new();
        j.sync().unwrap();
        j.sync().unwrap();
        assert_eq!(j.syncs, 0, "empty syncs are free");
        j.append(b"x").unwrap();
        j.sync().unwrap();
        j.sync().unwrap();
        assert_eq!(j.syncs, 1, "no-op syncs are not batches");
    }

    #[test]
    fn platform_record_kinds_roundtrip() {
        let mut buf = Vec::new();
        append_record(&mut buf, REC_PROMOTE, SESSION_PROMOTE, 0, b"overlay");
        append_record(&mut buf, REC_ROUND, SESSION_ROUND, 0, b"round-meta");
        append_record(&mut buf, REC_PODS, 0, 2, b"pod-states");
        let (recs, report) = scan(&buf);
        assert_eq!(report.records, 3);
        assert_eq!(report.tail_error, None);
        assert_eq!(recs[0].kind, REC_PROMOTE);
        assert_eq!(recs[0].session, SESSION_PROMOTE);
        assert_eq!(recs[1].kind, REC_ROUND);
        assert_eq!(recs[1].frame, b"round-meta");
        assert_eq!(recs[2].kind, REC_PODS);
        assert_eq!(recs[2].frame, b"pod-states");
    }

    #[test]
    fn session_floors_track_frames_not_pseudo_sessions() {
        let mut buf = Vec::new();
        append_record(&mut buf, REC_FRAME, 0, 0, b"a");
        append_record(&mut buf, REC_FRAME, 0, 3, b"b");
        append_record(&mut buf, REC_TOMBSTONE, 2, 5, &[]);
        append_record(&mut buf, REC_ROUND, SESSION_ROUND, 9, b"m");
        append_record(&mut buf, REC_PROMOTE, SESSION_PROMOTE, 9, b"o");
        let (recs, _) = scan(&buf);
        let floors = session_floors(&recs);
        assert_eq!(floors.get(&0), Some(&4), "max seq + 1");
        assert_eq!(floors.get(&2), Some(&6), "tombstones hold their slot");
        assert!(!floors.contains_key(&SESSION_ROUND));
        assert!(!floors.contains_key(&SESSION_PROMOTE));
    }

    #[test]
    fn file_journal_truncate_cuts_and_survives_reopen() {
        let path =
            std::env::temp_dir().join(format!("softborg-journal-trunc-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut rec = Vec::new();
        append_record(&mut rec, REC_FRAME, 1, 0, b"keep");
        {
            let mut j = FileJournal::open(&path).expect("open");
            j.append(&rec).unwrap();
            let mut rec2 = Vec::new();
            append_record(&mut rec2, REC_FRAME, 1, 1, b"cut");
            j.append(&rec2).unwrap();
            j.sync().unwrap();
            j.truncate(rec.len() as u64).unwrap();
            assert_eq!(j.len(), rec.len() as u64);
        }
        {
            let j = FileJournal::open(&path).expect("reopen");
            assert_eq!(j.len(), rec.len() as u64, "length survives reopen");
            let bytes = j.read().unwrap();
            let (recs, report) = scan(&bytes);
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].frame, b"keep");
            assert_eq!(report.tail_dropped, 0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_journal_append_after_truncate_to_zero_starts_fresh() {
        let path =
            std::env::temp_dir().join(format!("softborg-journal-reset-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = FileJournal::open(&path).expect("open");
            let mut rec = Vec::new();
            append_record(&mut rec, REC_FRAME, 1, 0, b"old");
            j.append(&rec).unwrap();
            j.sync().unwrap();
            j.truncate(0).unwrap();
            let mut rec2 = Vec::new();
            append_record(&mut rec2, REC_FRAME, 2, 0, b"new");
            j.append(&rec2).unwrap();
            j.sync().unwrap();
            let bytes = j.read().unwrap();
            let (recs, _) = scan(&bytes);
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].session, 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_journal_roundtrips_through_disk() {
        let path =
            std::env::temp_dir().join(format!("softborg-journal-test-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = FileJournal::open(&path).expect("open");
            let mut rec = Vec::new();
            append_record(&mut rec, REC_FRAME, 3, 0, b"frame-bytes");
            j.append(&rec).unwrap();
            j.sync().unwrap();
            let bytes = j.read().expect("read");
            let (recs, report) = scan(&bytes);
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].session, 3);
            assert_eq!(recs[0].frame, b"frame-bytes");
            assert_eq!(report.tail_dropped, 0);
        }
        let _ = std::fs::remove_file(&path);
    }
}
