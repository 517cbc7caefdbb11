//! The checkpoint payload: one checksummed, length-prefixed record of
//! everything a process needs to resume a durable campaign.
//!
//! A durable campaign's write-ahead journal grows without bound; once it
//! dwarfs the live hive state, recovery time and disk usage are wasted
//! on history the state already summarizes. Compaction fixes that: the
//! hive (tree, proofs, outcome labels, session table) is serialized into
//! a [`HiveSnapshot`], appended to the delta chain (`softborg_store::chain`)
//! as a full or delta record, and the journal is truncated.
//!
//! A crash *between the chain append and the journal truncate* leaves a
//! journal that still contains records the checkpoint already covers;
//! the snapshot records the covered length and the journal's running
//! hash at that length ([`HiveSnapshot::wal_covered`] /
//! [`HiveSnapshot::wal_covered_hash`]) so [`HiveSnapshot::replay_offset`]
//! can tell "journal not yet truncated" apart from "journal truncated
//! and regrown".
//!
//! A snapshot is only ever read from inside a chain record, whose
//! checksum covers it, so it carries no checksum of its own: its bytes
//! are [`SNAPSHOT_MAGIC`] and then the body.

use crate::journal::{self, JournalRecord};
use softborg_program::codec::{self, CodecError};
use std::collections::BTreeMap;
use std::fmt;

/// Magic prefix identifying a snapshot (version in the last byte).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SBSNAP\x00\x02";
/// Magic prefix of a snapshot in the older layout, sealed in its own
/// FNV-1a envelope inside the chain record.
const OLDER_SNAPSHOT_MAGIC: &[u8; 8] = b"SBSNAP\x00\x01";

/// Why a snapshot failed to decode. Total: decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not open with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// A snapshot in the older, separately sealed layout.
    OlderLayout,
    /// The body is malformed, or bytes trail it.
    Codec(CodecError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic"),
            SnapshotError::OlderLayout => write!(f, "snapshot in an older layout"),
            SnapshotError::Codec(e) => write!(f, "snapshot body: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// Everything a process needs to resume a durable campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiveSnapshot {
    /// The hive's serialized state (`Hive::encode_state`).
    pub state: Vec<u8>,
    /// Per-session dedup floors (`session → next expected seq`), so
    /// transport retransmits across the restart are recognized.
    pub sessions: BTreeMap<u64, u64>,
    /// Journal bytes this snapshot covers: on recovery, replay starts
    /// after this offset *if* the journal's prefix still matches
    /// [`wal_covered_hash`](Self::wal_covered_hash).
    pub wal_covered: u64,
    /// The journal's running hash ([`journal::fold_record`]) over the
    /// covered prefix at snapshot time.
    pub wal_covered_hash: u64,
    /// Application metadata (the platform stores its round counter and
    /// encoded round history here).
    pub app_meta: Vec<u8>,
}

impl HiveSnapshot {
    /// Serializes the snapshot: [`SNAPSHOT_MAGIC`], then the body. The
    /// chain record it is stored in checksums it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        codec::put_bytes(&mut out, &self.state);
        codec::put_u32(&mut out, self.sessions.len() as u32);
        for (&session, &floor) in &self.sessions {
            codec::put_u64(&mut out, session);
            codec::put_u64(&mut out, floor);
        }
        codec::put_u64(&mut out, self.wal_covered);
        codec::put_u64(&mut out, self.wal_covered_hash);
        codec::put_bytes(&mut out, &self.app_meta);
        out
    }

    /// Decodes a snapshot. Total function: truncated, malformed, or
    /// trailing-garbage input returns an error, never panics. Damage is
    /// the enclosing chain record's checksum to catch.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] describing the first violation found.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = codec::Reader::new(bytes);
        match r.take(SNAPSHOT_MAGIC.len(), "snapshot.magic")? {
            magic if magic == SNAPSHOT_MAGIC => {}
            magic if magic == OLDER_SNAPSHOT_MAGIC => return Err(SnapshotError::OlderLayout),
            _ => return Err(SnapshotError::BadMagic),
        }
        let state = r.bytes("snapshot.state")?.to_vec();
        let n = r.seq_len("snapshot.sessions", 16)?;
        let mut sessions = BTreeMap::new();
        for _ in 0..n {
            let session = r.u64("snapshot.session")?;
            sessions.insert(session, r.u64("snapshot.floor")?);
        }
        let wal_covered = r.u64("snapshot.wal_covered")?;
        let wal_covered_hash = r.u64("snapshot.wal_covered_hash")?;
        let app_meta = r.bytes("snapshot.app_meta")?.to_vec();
        if !r.is_empty() {
            return Err(CodecError::BadLen {
                what: "snapshot.trailing",
                len: r.remaining(),
            }
            .into());
        }
        Ok(HiveSnapshot {
            state,
            sessions,
            wal_covered,
            wal_covered_hash,
            app_meta,
        })
    }

    /// Where journal replay should start given the records scanned
    /// from the journal on disk, as a count of records: past the covered
    /// prefix when that prefix is still in place (crash before the
    /// post-snapshot truncate), else 0 (the journal was truncated and
    /// everything in it is newer than this snapshot). Folds the records'
    /// checksums; reads no journal byte.
    pub fn replay_offset(&self, records: &[JournalRecord<'_>]) -> usize {
        let (mut at, mut hash, mut n) = (0u64, journal::EMPTY_WAL_HASH, 0);
        while at < self.wal_covered && n < records.len() {
            let len = records[n].encoded_len();
            (at, hash) = (
                at + len as u64,
                journal::fold_record(hash, records[n].checksum, len),
            );
            n += 1;
        }
        if at == self.wal_covered && hash == self.wal_covered_hash {
            n
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{append_record, scan, REC_FRAME};
    use softborg_store::chain::{decode_record, encode_record, RecordKind};

    /// A journal of three records and the snapshot covering its first two.
    fn sample() -> (Vec<u8>, HiveSnapshot) {
        let mut wal = Vec::new();
        append_record(&mut wal, REC_FRAME, 0, 0, b"journal-prefix");
        append_record(&mut wal, REC_FRAME, 0, 1, b"bytes");
        let (records, _) = scan(&wal);
        let snap = HiveSnapshot {
            state: vec![1, 2, 3, 4, 5],
            sessions: [(0u64, 7u64), (3, 2)].into_iter().collect(),
            wal_covered: wal.len() as u64,
            wal_covered_hash: journal::wal_hash(&records),
            app_meta: b"meta".to_vec(),
        };
        append_record(&mut wal, REC_FRAME, 0, 2, b"suffix");
        (wal, snap)
    }

    #[test]
    fn encode_decode_roundtrip_and_refuse_every_cut() {
        let snap = sample().1;
        let bytes = snap.encode();
        assert_eq!(HiveSnapshot::decode(&bytes).expect("decode"), snap);
        for cut in 0..bytes.len() {
            assert!(HiveSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(HiveSnapshot::decode(&padded).is_err());
        let mut older = bytes.clone();
        older[..8].copy_from_slice(OLDER_SNAPSHOT_MAGIC);
        assert_eq!(
            HiveSnapshot::decode(&older),
            Err(SnapshotError::OlderLayout)
        );
        older[0] ^= 1;
        assert_eq!(HiveSnapshot::decode(&older), Err(SnapshotError::BadMagic));
    }

    /// A snapshot carries no checksum of its own: the chain record it is
    /// stored in refuses every flip and every cut of it.
    #[test]
    fn the_enclosing_chain_record_refuses_every_flip_and_cut() {
        let payload = sample().1.encode();
        let bytes = encode_record(RecordKind::Delta, 3, 99, &payload);
        assert_eq!(decode_record(&bytes).unwrap().payload, &payload[..]);
        for i in 0..bytes.len() {
            for flip in [0x01, 0x40, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                assert!(decode_record(&bad).is_err(), "flip {flip:#x} at {i}");
            }
            assert!(decode_record(&bytes[..i]).is_err(), "cut {i}");
        }
    }

    #[test]
    fn replay_offset_distinguishes_untruncated_from_regrown_wal() {
        let (wal, snap) = sample();
        let (records, _) = scan(&wal);
        // Crash before truncate: covered prefix intact, suffix appended.
        assert_eq!(snap.replay_offset(&records), 2);
        assert_eq!(snap.replay_offset(&records[..2]), 2);
        // Truncated and regrown: prefix differs -> replay everything.
        let mut regrown = Vec::new();
        append_record(&mut regrown, REC_FRAME, 1, 0, b"completely-different");
        append_record(&mut regrown, REC_FRAME, 1, 1, b"fresh-log!!");
        append_record(&mut regrown, REC_FRAME, 1, 2, b"records");
        assert_eq!(snap.replay_offset(&scan(&regrown).0), 0);
        // Truncated to empty, or shorter than covered -> replay from 0.
        assert_eq!(snap.replay_offset(&[]), 0);
        assert_eq!(snap.replay_offset(&records[..1]), 0);
    }
}
