//! The one checksummed envelope every durable record shares, and the
//! file replace every rewrite goes through.
//!
//! ```text
//! [magic] | u32 body_len | u64 checksum(body) | body
//! ```
//!
//! The checksum is [`softborg_obs::checksum`]. The magic is empty for
//! journal records (`hive.wal`, `rounds.log`) and `SBCHAIN\x02` for chain
//! records. Journal and chain bodies open with the same prefix, a
//! kind byte and two little-endian words, before their payload:
//!
//! ```text
//! body = u8 kind | u64 | u64 | payload
//! ```
//!
//! [`seal`] writes an envelope in place at the end of the caller's
//! buffer; [`open`] checks one, and a [`Framing`] reads and writes the
//! kind-plus-two-words records of one format. Reading is total and
//! allocation-free: damage is a typed [`EnvelopeError`], never a panic.
//!
//! Older builds checksummed the same envelope with FNV-1a. A journal has
//! no magic to tell its layout by, so a body that fails its checksum is
//! probed once with FNV-1a: a match is [`EnvelopeError::OlderLayout`],
//! which the caller refuses, never damage it cuts or quarantines.

use softborg_obs::{checksum, fnv1a_step, FNV_OFFSET};
use softborg_program::codec::{self, Reader};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Envelope bytes after the magic: body length and checksum.
const HEADER: usize = 4 + 8;
/// Record body bytes before the payload: kind and two words.
const BODY_PREFIX: usize = 1 + 8 + 8;

/// Why an envelope was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The input ends before the header or the body it declares (a torn
    /// write), or the body is too short for its record prefix.
    Truncated,
    /// The input does not open with the format's magic.
    BadMagic,
    /// The body does not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum of the body actually read.
        actual: u64,
    },
    /// A record's kind byte is past the format's highest kind.
    BadKind(u8),
    /// The record was written in an older layout: an older format's
    /// magic, or a body that matches its stored checksum under FNV-1a.
    OlderLayout,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "truncated record"),
            EnvelopeError::BadMagic => write!(f, "bad magic"),
            EnvelopeError::ChecksumMismatch { stored, actual } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, body {actual:#018x}"
            ),
            EnvelopeError::BadKind(kind) => write!(f, "unknown record kind {kind}"),
            EnvelopeError::OlderLayout => write!(f, "record in an older layout"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Appends `magic | u32 len | u64 checksum(body) | body` to `buf`, `body`
/// writing the body in place, and returns the body's checksum.
#[inline]
pub fn seal(buf: &mut Vec<u8>, magic: &[u8], body: impl FnOnce(&mut Vec<u8>)) -> u64 {
    buf.extend_from_slice(magic);
    let at = buf.len();
    buf.extend_from_slice(&[0; HEADER]); // length and checksum, patched below
    body(buf);
    let len = (buf.len() - at - HEADER) as u32;
    let sum = checksum(&buf[at + HEADER..]);
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..at + HEADER].copy_from_slice(&sum.to_le_bytes());
    sum
}

/// Checks the envelope at the front of `bytes` and returns its body and
/// the bytes after it.
///
/// # Errors
///
/// [`EnvelopeError::Truncated`], [`EnvelopeError::BadMagic`],
/// [`EnvelopeError::ChecksumMismatch`] or [`EnvelopeError::OlderLayout`];
/// an input too short for its header is truncated when it is a prefix
/// of `magic`.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8]) -> Result<(&'a [u8], &'a [u8]), EnvelopeError> {
    open_min(bytes, magic, 0).map(|(body, _, rest)| (body, rest))
}

/// [`open`], refusing a body shorter than `min_body` as truncated before
/// its checksum is read; also returns the body's checksum.
fn open_min<'a>(
    bytes: &'a [u8],
    magic: &[u8],
    min_body: usize,
) -> Result<(&'a [u8], u64, &'a [u8]), EnvelopeError> {
    let mut r = Reader::new(bytes);
    let Ok(found) = r.take(magic.len(), "magic") else {
        return Err(if magic.starts_with(bytes) {
            EnvelopeError::Truncated
        } else {
            EnvelopeError::BadMagic
        });
    };
    let header = (r.u32("body length"), r.u64("body checksum"));
    let (Ok(len), Ok(stored)) = header else {
        return Err(if found == magic {
            EnvelopeError::Truncated
        } else {
            EnvelopeError::BadMagic
        });
    };
    if found != magic {
        return Err(EnvelopeError::BadMagic);
    }
    let body = match r.take(len as usize, "body") {
        Ok(body) if body.len() >= min_body => body,
        _ => return Err(EnvelopeError::Truncated),
    };
    let actual = checksum(body);
    if actual != stored {
        // The older-layout probe: only a refused body pays for it.
        return Err(if fnv1a_step(FNV_OFFSET, body) == stored {
            EnvelopeError::OlderLayout
        } else {
            EnvelopeError::ChecksumMismatch { stored, actual }
        });
    }
    Ok((body, actual, &bytes[r.position()..]))
}

/// One record read in place by [`Framing::read_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The kind byte.
    pub kind: u8,
    /// The two words after it: a journal's session and sequence number,
    /// a chain record's generation and parent checksum.
    pub words: [u64; 2],
    /// The payload after the words.
    pub payload: &'a [u8],
    /// The body's checksum.
    pub checksum: u64,
    /// Byte offset just past the record.
    pub end: usize,
}

/// The records of one format: the magic each opens with and the highest
/// kind byte the format knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Bytes every record opens with (empty for the journal).
    pub magic: &'static [u8],
    /// The highest valid kind byte.
    pub max_kind: u8,
}

impl Framing {
    /// Appends one record to `buf` and returns its body's checksum.
    #[inline]
    pub fn seal(&self, buf: &mut Vec<u8>, kind: u8, words: [u64; 2], payload: &[u8]) -> u64 {
        buf.reserve(self.record_len(payload.len()));
        seal(buf, self.magic, |buf| {
            codec::put_u8(buf, kind);
            codec::put_u64(buf, words[0]);
            codec::put_u64(buf, words[1]);
            buf.extend_from_slice(payload);
        })
    }

    /// Bytes a record of `payload_len` payload bytes takes.
    pub fn record_len(&self, payload_len: usize) -> usize {
        self.magic.len() + HEADER + BODY_PREFIX + payload_len
    }

    /// Reads the record that starts at byte `pos` of `bytes`, without
    /// copying it.
    ///
    /// # Errors
    ///
    /// The [`EnvelopeError`] of a damaged, torn or unknown record.
    pub fn read_at<'a>(&self, bytes: &'a [u8], pos: usize) -> Result<Record<'a>, EnvelopeError> {
        let rest = bytes.get(pos..).unwrap_or_default();
        let (body, checksum, _) = open_min(rest, self.magic, BODY_PREFIX)?;
        let mut r = Reader::new(body);
        let (Ok(kind), Ok(a), Ok(b)) = (r.u8("kind"), r.u64("word"), r.u64("word")) else {
            return Err(EnvelopeError::Truncated);
        };
        if kind > self.max_kind {
            return Err(EnvelopeError::BadKind(kind));
        }
        Ok(Record {
            kind,
            words: [a, b],
            payload: &body[BODY_PREFIX..],
            checksum,
            end: pos + self.magic.len() + HEADER + body.len(),
        })
    }

    /// Whether a record [`read_at`](Self::read_at) refused at `pos` is
    /// a torn final append — its header or its declared body runs to the
    /// end of `bytes`, so no intact record can follow it — rather than
    /// damage with bytes after it.
    pub fn torn_at(&self, bytes: &[u8], pos: usize) -> bool {
        let mut r = Reader::new(bytes.get(pos..).unwrap_or_default());
        let len = r
            .take(self.magic.len(), "magic")
            .and_then(|_| r.u32("body length"));
        match (len, r.u64("body checksum")) {
            (Ok(len), Ok(_)) => len as usize >= r.remaining(),
            _ => true,
        }
    }

    /// How many records `bytes` holds by their length fields alone, the
    /// last perhaps torn: a bound for reserving before reading them.
    pub fn count(&self, bytes: &[u8]) -> usize {
        let mut r = Reader::new(bytes);
        let mut n = 0;
        while r.take(self.magic.len(), "magic").is_ok() {
            let Ok(len) = r.u32("body length") else { break };
            n += 1;
            if r.take(8 + len as usize, "body").is_err() {
                break;
            }
        }
        n
    }
}

/// Fsyncs the directory containing `path`, making a just-created,
/// renamed or removed directory entry itself durable — without this, a
/// machine crash can lose the *file*, not merely its tail.
///
/// # Errors
///
/// Propagates the open or sync failure.
pub fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Replaces `path` with `bytes` crash-safely: write `tmp`, fsync it,
/// rename it over `path`, fsync the directory. A crash leaves the old
/// file or the new one, never a mix.
///
/// # Errors
///
/// Propagates the first filesystem failure.
pub fn replace(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(tmp, path)?;
    fsync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN: Framing = Framing {
        magic: b"SBCHAIN\x02",
        max_kind: 1,
    };
    const JOURNAL: Framing = Framing {
        magic: b"",
        max_kind: 5,
    };

    fn record(framing: Framing) -> Vec<u8> {
        let mut buf = Vec::new();
        framing.seal(&mut buf, 1, [7, 99], b"payload");
        buf
    }

    #[test]
    fn sealed_records_read_back() {
        for framing in [CHAIN, JOURNAL] {
            let bytes = record(framing);
            assert_eq!(bytes.len(), framing.record_len(7));
            let rec = framing.read_at(&bytes, 0).unwrap();
            assert_eq!(
                (rec.kind, rec.words, rec.payload),
                (1, [7, 99], &b"payload"[..])
            );
            assert_eq!(rec.end, bytes.len());
            assert_eq!(framing.count(&bytes), 1);
            let (body, rest) = open(&bytes, framing.magic).unwrap();
            assert_eq!((body.len(), rest.len()), (17 + 7, 0));
        }
    }

    #[test]
    fn every_cut_is_truncated_and_torn() {
        for framing in [CHAIN, JOURNAL] {
            let bytes = record(framing);
            for cut in 0..bytes.len() {
                assert_eq!(
                    framing.read_at(&bytes[..cut], 0),
                    Err(EnvelopeError::Truncated),
                    "cut {cut}"
                );
                assert!(framing.torn_at(&bytes[..cut], 0), "cut {cut}");
            }
        }
    }

    #[test]
    fn damage_is_typed() {
        let bytes = record(CHAIN);
        let mut magic = bytes.clone();
        magic[0] ^= 1;
        assert_eq!(CHAIN.read_at(&magic, 0), Err(EnvelopeError::BadMagic));
        assert_eq!(CHAIN.read_at(&magic[..3], 0), Err(EnvelopeError::BadMagic));
        let mut body = bytes.clone();
        *body.last_mut().unwrap() ^= 1;
        assert!(matches!(
            CHAIN.read_at(&body, 0),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
        let mut kind = Vec::new();
        JOURNAL.seal(&mut kind, 6, [0, 0], b"");
        assert_eq!(JOURNAL.read_at(&kind, 0), Err(EnvelopeError::BadKind(6)));
        // Damage with a whole record after it is not a torn append.
        let mut two = record(JOURNAL);
        two[13] ^= 1;
        two.extend(record(JOURNAL));
        assert!(JOURNAL.read_at(&two, 0).is_err());
        assert!(!JOURNAL.torn_at(&two, 0));
    }

    #[test]
    fn a_record_checksummed_with_fnv1a_is_an_older_layout() {
        for framing in [CHAIN, JOURNAL] {
            let mut bytes = record(framing);
            let at = framing.magic.len();
            let fnv = fnv1a_step(FNV_OFFSET, &bytes[at + HEADER..]);
            bytes[at + 4..at + HEADER].copy_from_slice(&fnv.to_le_bytes());
            assert_eq!(framing.read_at(&bytes, 0), Err(EnvelopeError::OlderLayout));
            // Damage under the older checksum is damage, not a layout.
            *bytes.last_mut().unwrap() ^= 1;
            assert!(matches!(
                framing.read_at(&bytes, 0),
                Err(EnvelopeError::ChecksumMismatch { .. })
            ));
        }
    }
}
