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
//! the snapshot records the covered length and a hash of that prefix
//! ([`HiveSnapshot::wal_covered`] / [`HiveSnapshot::wal_covered_hash`])
//! so [`HiveSnapshot::replay_offset`] can tell "journal not yet
//! truncated" apart from "journal truncated and regrown".

use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::codec::{self, CodecError};
use softborg_store::record::{self, EnvelopeError};
use std::collections::BTreeMap;
use std::fmt;

/// Magic prefix identifying a snapshot record (version in the last byte).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SBSNAP\x00\x01";

/// Why a snapshot record failed to decode. Total: decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The record envelope is torn, lacks [`SNAPSHOT_MAGIC`] or fails
    /// its checksum.
    Envelope(EnvelopeError),
    /// The checksum-valid body is malformed, or bytes trail the record.
    Codec(CodecError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Envelope(e) => write!(f, "snapshot record: {e}"),
            SnapshotError::Codec(e) => write!(f, "snapshot body: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<EnvelopeError> for SnapshotError {
    fn from(e: EnvelopeError) -> Self {
        SnapshotError::Envelope(e)
    }
}

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
    /// FNV-1a hash of the covered journal prefix at snapshot time.
    pub wal_covered_hash: u64,
    /// Application metadata (the platform stores its round counter and
    /// encoded round history here).
    pub app_meta: Vec<u8>,
}

impl HiveSnapshot {
    /// Serializes the snapshot into its on-disk record, the shared
    /// envelope ([`record::seal`]) with [`SNAPSHOT_MAGIC`]:
    /// `magic | u32 body_len | u64 fnv1a(body) | body`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        record::seal(&mut out, SNAPSHOT_MAGIC, |body| {
            codec::put_bytes(body, &self.state);
            codec::put_u32(body, self.sessions.len() as u32);
            for (&session, &floor) in &self.sessions {
                codec::put_u64(body, session);
                codec::put_u64(body, floor);
            }
            codec::put_u64(body, self.wal_covered);
            codec::put_u64(body, self.wal_covered_hash);
            codec::put_bytes(body, &self.app_meta);
        });
        out
    }

    /// Decodes and checksum-verifies an on-disk snapshot record. Total
    /// function: torn, truncated, bit-flipped, or trailing-garbage input
    /// returns an error, never panics.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] describing the first violation found.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (body, rest) = record::open(bytes, SNAPSHOT_MAGIC)?;
        if !rest.is_empty() {
            return Err(CodecError::BadLen {
                what: "snapshot.trailing",
                len: rest.len(),
            }
            .into());
        }
        let mut r = codec::Reader::new(body);
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

    /// Where journal replay should start given the journal image found
    /// on disk: after the covered prefix when that prefix is still in
    /// place (crash before the post-snapshot truncate), else from byte 0
    /// (the journal was truncated and everything in it is newer than
    /// this snapshot).
    pub fn replay_offset(&self, wal: &[u8]) -> usize {
        let covered = self.wal_covered as usize;
        if wal.len() >= covered && fnv1a_step(FNV_OFFSET, &wal[..covered]) == self.wal_covered_hash
        {
            covered
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HiveSnapshot {
        let wal = b"journal-prefix-bytes".to_vec();
        HiveSnapshot {
            state: vec![1, 2, 3, 4, 5],
            sessions: [(0u64, 7u64), (3, 2)].into_iter().collect(),
            wal_covered: wal.len() as u64,
            wal_covered_hash: fnv1a_step(FNV_OFFSET, &wal),
            app_meta: b"meta".to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip_and_reject_every_corruption() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(HiveSnapshot::decode(&bytes).expect("decode"), snap);
        // Truncation at every cut point fails cleanly.
        for cut in 0..bytes.len() {
            assert!(HiveSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A bit flip anywhere fails cleanly (checksum or header check).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(HiveSnapshot::decode(&bad).is_err(), "flip at {i}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(HiveSnapshot::decode(&padded).is_err());
    }

    #[test]
    fn replay_offset_distinguishes_untruncated_from_regrown_wal() {
        let wal = b"journal-prefix-bytes".to_vec();
        let snap = sample();
        // Crash before truncate: covered prefix intact, suffix appended.
        let mut untruncated = wal.clone();
        untruncated.extend_from_slice(b"suffix");
        assert_eq!(snap.replay_offset(&untruncated), wal.len());
        assert_eq!(snap.replay_offset(&wal), wal.len());
        // Truncated and regrown: prefix differs -> replay everything.
        let regrown = b"completely-different-fresh-log!!".to_vec();
        assert_eq!(snap.replay_offset(&regrown), 0);
        // Truncated to empty -> shorter than covered -> replay from 0.
        assert_eq!(snap.replay_offset(b""), 0);
    }
}
