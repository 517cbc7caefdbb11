//! The delta-snapshot chain: one checksummed record file per
//! generation, each either a **full** snapshot payload or a **delta**
//! against the previous generation.
//!
//! ## On-disk format
//!
//! A generation `g` lives in `chain-<g:020>.full` or
//! `chain-<g:020>.delta` inside the chain directory:
//!
//! ```text
//! magic "SBCHAIN\x02" (8 bytes)
//! u32   body_len
//! u64   checksum(body)
//! body: u8 kind (0 full, 1 delta) | u64 generation | u64 parent | payload
//! ```
//!
//! That is the [`record`] envelope every durable record
//! shares, around the kind-plus-two-words body the journal shares.
//!
//! `parent` is the checksum of the *previous* generation's body
//! (0 for a full record), which is what makes the chain a chain: a
//! delta only applies to the exact bytes it was diffed against, and a
//! swapped, stale, or re-ordered record breaks the link loudly.
//!
//! ## Validation and fallback
//!
//! [`ChainStore::load`] walks back from the newest full record and
//! validates forward: checksums, generation continuity (`+1` each
//! step), and parent links. The first invalid record ends the lineage —
//! later records are reported as defects, never applied. If the newest
//! full itself is damaged, loading falls back to the previous full's
//! lineage (exactly one is retained); if that fails too, the chain
//! reports [`ChainSource::None`] and the caller treats the campaign as
//! cold.
//!
//! ## Rebase policy
//!
//! Deltas accumulate; [`ChainStore::rebase_due`] says when the next
//! snapshot should be a full instead: once the delta bytes written
//! since the last full exceed `rebase_ratio` times the last full's
//! size. Writing a full prunes every generation older than the
//! *previous* full, so disk usage is bounded by two lineages.
//!
//! Decoding is total: any byte-level damage produces a typed
//! [`RecordError`], never a panic. A record in the older layout, under
//! the older magic with an FNV-1a checksum, is
//! [`EnvelopeError::OlderLayout`]: the caller refuses the directory.

use crate::record::{self, fsync_parent_dir, EnvelopeError, Framing};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of every chain record file.
pub const CHAIN_MAGIC: &[u8; 8] = b"SBCHAIN\x02";
/// Magic prefix of a chain record in the older, FNV-1a-checksummed
/// layout.
const OLDER_CHAIN_MAGIC: &[u8; 8] = b"SBCHAIN\x01";

/// Chain records: [`CHAIN_MAGIC`], kinds full (0) and delta (1).
pub const FRAMING: Framing = Framing {
    magic: CHAIN_MAGIC,
    max_kind: 1,
};

/// What a chain record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A complete snapshot payload — a chain restart point.
    Full,
    /// A delta against the previous generation's state.
    Delta,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Full => 0,
            RecordKind::Delta => 1,
        }
    }

    fn ext(self) -> &'static str {
        match self {
            RecordKind::Full => "full",
            RecordKind::Delta => "delta",
        }
    }
}

/// One validated record loaded from the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecord {
    /// Generation number (also encoded in the filename).
    pub generation: u64,
    /// Full or delta.
    pub kind: RecordKind,
    /// The caller's payload bytes.
    pub payload: Vec<u8>,
}

/// Why a record failed validation. Total — corrupt bytes produce one of
/// these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Filesystem failure reading the record.
    Io(String),
    /// The envelope is damaged: torn, without [`CHAIN_MAGIC`], failing
    /// its checksum, or of an unknown kind.
    Envelope(EnvelopeError),
    /// The generation inside the body disagrees with the filename.
    GenerationMismatch {
        /// Generation from the filename.
        file: u64,
        /// Generation from the body.
        body: u64,
    },
    /// The record's parent checksum does not match the previous
    /// record's body — a broken generation link.
    BrokenLink {
        /// The previous record's body checksum.
        expected: u64,
        /// The parent checksum this record claims.
        found: u64,
    },
    /// Bytes follow the record's envelope in its file.
    TrailingBytes(usize),
    /// A generation was skipped (hole in the chain).
    MissingGeneration {
        /// The generation that should exist next.
        expected: u64,
    },
    /// A delta appeared where a full was required (or vice versa).
    WrongKind,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io(e) => write!(f, "io: {e}"),
            RecordError::Envelope(e) => write!(f, "{e}"),
            RecordError::GenerationMismatch { file, body } => {
                write!(f, "generation {body} in body but {file} in filename")
            }
            RecordError::BrokenLink { expected, found } => {
                write!(
                    f,
                    "parent link {found:#018x} does not match previous record {expected:#018x}"
                )
            }
            RecordError::TrailingBytes(n) => write!(f, "{n} byte(s) after the record"),
            RecordError::MissingGeneration { expected } => {
                write!(f, "generation {expected} missing from the chain")
            }
            RecordError::WrongKind => write!(f, "record kind does not fit its chain position"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<EnvelopeError> for RecordError {
    fn from(e: EnvelopeError) -> Self {
        RecordError::Envelope(e)
    }
}

/// Which lineage a load used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainSource {
    /// The newest full's lineage validated.
    Primary,
    /// The newest full's lineage was damaged; the previous full's
    /// lineage was used instead.
    Fallback,
    /// No valid lineage exists (cold campaign, or everything damaged).
    #[default]
    None,
}

/// One damaged or unusable record file found during validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainDefect {
    /// Generation from the filename.
    pub generation: u64,
    /// Kind from the filename.
    pub kind: RecordKind,
    /// The record's filename.
    pub file: String,
    /// What was wrong with it.
    pub error: RecordError,
}

impl ChainDefect {
    fn new(generation: u64, kind: RecordKind, path: &Path, error: RecordError) -> Self {
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        let file = file.into_owned();
        ChainDefect {
            generation,
            kind,
            file,
            error,
        }
    }
}

/// What a chain walk found; the default is a cold chain's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChainReport {
    /// Which lineage validated.
    pub source: ChainSource,
    /// Generation of the full record the lineage starts at.
    pub full_generation: Option<u64>,
    /// Generation of the last validated record (the head).
    pub head_generation: Option<u64>,
    /// Validated records in the lineage (full + deltas).
    pub records: u64,
    /// Every record file that failed validation or fell outside the
    /// adopted lineage's reachable suffix.
    pub defects: Vec<ChainDefect>,
}

impl ChainReport {
    /// `true` when nothing was damaged or dropped.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }

    /// The first record file written in an older layout: no damage to
    /// repair around, but a directory this build must refuse.
    pub fn older_layout(&self) -> Option<&ChainDefect> {
        let older = RecordError::Envelope(EnvelopeError::OlderLayout);
        self.defects.iter().find(|d| d.error == older)
    }
}

/// A load: the validated records (full first) plus the walk report.
#[derive(Debug, Clone)]
pub struct ChainLoad {
    /// The lineage, full record first, deltas in generation order.
    pub records: Vec<ChainRecord>,
    /// The walk report.
    pub report: ChainReport,
}

/// Encodes one record's file bytes.
pub fn encode_record(kind: RecordKind, generation: u64, parent: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    FRAMING.seal(&mut out, kind.tag(), [generation, parent], payload);
    out
}

/// Decoded view of one record: kind, generation, parent checksum, body
/// checksum, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRecord<'a> {
    /// Full or delta.
    pub kind: RecordKind,
    /// Generation from the body.
    pub generation: u64,
    /// Parent body checksum (0 for fulls).
    pub parent: u64,
    /// Checksum of this record's body (what children link to).
    pub body_checksum: u64,
    /// The caller payload.
    pub payload: &'a [u8],
}

/// Decodes one record's file bytes: one envelope, nothing after it.
/// Total: damage yields a typed [`RecordError`].
pub fn decode_record(bytes: &[u8]) -> Result<DecodedRecord<'_>, RecordError> {
    if bytes.starts_with(OLDER_CHAIN_MAGIC) {
        return Err(EnvelopeError::OlderLayout.into());
    }
    let rec = FRAMING.read_at(bytes, 0)?;
    if rec.end < bytes.len() {
        return Err(RecordError::TrailingBytes(bytes.len() - rec.end));
    }
    let [generation, parent] = rec.words;
    Ok(DecodedRecord {
        kind: match rec.kind {
            0 => RecordKind::Full,
            _ => RecordKind::Delta,
        },
        generation,
        parent,
        body_checksum: rec.checksum,
        payload: rec.payload,
    })
}

/// The chain store: a directory of generation record files plus the
/// append-side bookkeeping (head link, rebase accounting).
#[derive(Debug)]
pub struct ChainStore {
    dir: PathBuf,
    /// `(generation, body checksum)` of the record the next delta must
    /// link to.
    head: Option<(u64, u64)>,
    /// Generation of the newest full on disk.
    newest_full: Option<u64>,
    /// Generation of the full before that (fallback lineage start).
    prev_full: Option<u64>,
    /// Payload bytes written as deltas since the newest full.
    delta_bytes_since_full: u64,
    /// Payload bytes of the newest full.
    last_full_bytes: u64,
}

impl ChainStore {
    /// Opens (creating if needed) the chain directory and recovers the
    /// append-side bookkeeping from whatever lineage validates. Returns
    /// that walk too — the same as a [`load`](Self::load) right after —
    /// so a resume reads and checksums the directory once.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<(ChainStore, ChainLoad)> {
        fs::create_dir_all(dir)?;
        let mut store = ChainStore {
            dir: dir.to_path_buf(),
            head: None,
            newest_full: None,
            prev_full: None,
            delta_bytes_since_full: 0,
            last_full_bytes: 0,
        };
        let (load, head_checksum) = store.walk();
        if let Some(full) = load.report.full_generation {
            store.newest_full = Some(full);
            store.prev_full = store
                .list_files()
                .into_iter()
                .filter(|(g, k, _)| *k == RecordKind::Full && *g < full)
                .map(|(g, _, _)| g)
                .max();
            for rec in &load.records {
                match rec.kind {
                    RecordKind::Full => store.last_full_bytes = rec.payload.len() as u64,
                    RecordKind::Delta => store.delta_bytes_since_full += rec.payload.len() as u64,
                }
            }
            store.head = load.records.last().map(|r| (r.generation, head_checksum));
        }
        Ok((store, load))
    }

    /// The chain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generation of the current head (`None` on a cold chain).
    pub fn head_generation(&self) -> Option<u64> {
        self.head.map(|(g, _)| g)
    }

    /// Payload bytes of the newest full record (0 on a cold chain).
    pub fn last_full_payload_bytes(&self) -> u64 {
        self.last_full_bytes
    }

    /// The file generation `generation` of `kind` lives in.
    pub fn record_path(&self, generation: u64, kind: RecordKind) -> PathBuf {
        self.dir
            .join(format!("chain-{generation:020}.{}", kind.ext()))
    }

    /// `true` when the next snapshot should be a full rebase: cold
    /// chain, or accumulated delta payload bytes exceed `rebase_ratio`
    /// times the newest full's payload size.
    pub fn rebase_due(&self, rebase_ratio: u64) -> bool {
        if self.head.is_none() {
            return true;
        }
        if rebase_ratio == 0 {
            return false;
        }
        self.delta_bytes_since_full >= rebase_ratio.saturating_mul(self.last_full_bytes.max(1))
    }

    /// Appends the next generation. `kind` must be
    /// [`RecordKind::Full`] on a cold chain; deltas link to the current
    /// head. The write is crash-safe (tmp + fsync + rename + dir
    /// fsync); a full additionally prunes every generation older than
    /// the previous full.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; a delta on a cold chain is
    /// [`io::ErrorKind::InvalidInput`].
    pub fn append(&mut self, kind: RecordKind, payload: &[u8]) -> io::Result<u64> {
        let (generation, parent) = match (kind, self.head) {
            (RecordKind::Full, head) => (head.map_or(0, |(g, _)| g + 1), 0),
            (RecordKind::Delta, Some((g, h))) => (g + 1, h),
            (RecordKind::Delta, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "delta record on a cold chain",
                ));
            }
        };
        let mut bytes = Vec::new();
        let body_checksum = FRAMING.seal(&mut bytes, kind.tag(), [generation, parent], payload);
        let tmp = self.dir.join("chain.tmp");
        record::replace(&self.record_path(generation, kind), &tmp, &bytes)?;
        self.head = Some((generation, body_checksum));
        match kind {
            RecordKind::Full => {
                let retired = self.newest_full;
                self.prev_full = retired;
                self.newest_full = Some(generation);
                self.last_full_bytes = payload.len() as u64;
                self.delta_bytes_since_full = 0;
                if let Some(keep_from) = retired {
                    self.prune_before(keep_from)?;
                }
            }
            RecordKind::Delta => {
                self.delta_bytes_since_full += payload.len() as u64;
            }
        }
        Ok(generation)
    }

    /// Removes every record file with a generation below `keep_from`.
    fn prune_before(&self, keep_from: u64) -> io::Result<()> {
        for (g, _, path) in self.list_files() {
            if g < keep_from {
                fs::remove_file(path)?;
            }
        }
        fsync_parent_dir(&self.record_path(keep_from, RecordKind::Full))
    }

    /// Every record file present, sorted by generation (fulls before
    /// deltas at equal generation, which only happens on damage).
    fn list_files(&self) -> Vec<(u64, RecordKind, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for e in entries.filter_map(Result::ok) {
            let path = e.path();
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("chain-") else {
                continue;
            };
            let (gen_str, kind) = if let Some(g) = rest.strip_suffix(".full") {
                (g, RecordKind::Full)
            } else if let Some(g) = rest.strip_suffix(".delta") {
                (g, RecordKind::Delta)
            } else {
                continue;
            };
            let Ok(g) = gen_str.parse::<u64>() else {
                continue;
            };
            out.push((g, kind, path));
        }
        out.sort_by_key(|(g, k, _)| (*g, k.tag()));
        out
    }

    /// Loads the newest valid lineage: walk back from the newest full,
    /// validate forward (checksums, `+1` generations, parent links),
    /// fall back to the previous full's lineage when the newest fails.
    pub fn load(&self) -> ChainLoad {
        self.walk().0
    }

    /// The walk behind [`load`](Self::load), plus the body checksum of
    /// the adopted lineage's head (what the next delta links to).
    fn walk(&self) -> (ChainLoad, u64) {
        let files = self.list_files();
        let mut defects: Vec<ChainDefect> = Vec::new();
        let mut fulls: Vec<u64> = files
            .iter()
            .filter(|(_, k, _)| *k == RecordKind::Full)
            .map(|(g, _, _)| *g)
            .collect();
        fulls.sort_unstable();
        fulls.reverse();

        let mut chosen: Option<(u64, Vec<ChainRecord>, u64)> = None;
        let mut source = ChainSource::None;
        for (try_idx, &full_gen) in fulls.iter().take(2).enumerate() {
            let mut records = Vec::new();
            let mut prev_checksum = 0u64;
            let mut lineage_ok = false;
            let mut g = full_gen;
            loop {
                let kind = if g == full_gen {
                    RecordKind::Full
                } else {
                    RecordKind::Delta
                };
                let path = self.record_path(g, kind);
                if g != full_gen && !path.exists() {
                    break; // end of the lineage
                }
                match read_and_check(&path, g, kind, prev_checksum) {
                    Ok((rec, body_checksum)) => {
                        prev_checksum = body_checksum;
                        lineage_ok = true;
                        records.push(rec);
                    }
                    Err(err) => {
                        defects.push(ChainDefect::new(g, kind, &path, err));
                        if g == full_gen {
                            lineage_ok = false;
                        }
                        break;
                    }
                }
                g += 1;
            }
            if lineage_ok {
                source = if try_idx == 0 {
                    ChainSource::Primary
                } else {
                    ChainSource::Fallback
                };
                chosen = Some((full_gen, records, prev_checksum));
                break;
            }
        }

        let (full_generation, records, head_checksum) = match chosen {
            Some((f, r, c)) => (Some(f), r, c),
            None => (None, Vec::new(), 0),
        };
        // Sweep every file the lineage walk did not visit: at-rest
        // damage anywhere (including the retained fallback lineage) and
        // orphaned records beyond the head must never go unreported.
        let head = records.last().map(|r| r.generation);
        for (g, k, path) in &files {
            let in_lineage = matches!((full_generation, head), (Some(f), Some(h))
                if *g >= f && *g <= h
                    && *k == if *g == f { RecordKind::Full } else { RecordKind::Delta });
            if in_lineage || defects.iter().any(|d| d.generation == *g) {
                continue;
            }
            let individual = fs::read(path)
                .map_err(|e| RecordError::Io(e.to_string()))
                .and_then(|b| decode_record(&b).map(|d| d.generation));
            let error = match individual {
                Err(e) => e,
                Ok(body_gen) if body_gen != *g => RecordError::GenerationMismatch {
                    file: *g,
                    body: body_gen,
                },
                // Beyond the adopted head a record can never be
                // applied, however intact: orphaned by the defect (or
                // hole) that ended the lineage.
                Ok(_) => match head {
                    Some(h) if *g > h => RecordError::MissingGeneration { expected: h + 1 },
                    _ => continue, // healthy fallback-lineage record
                },
            };
            defects.push(ChainDefect::new(*g, *k, path, error));
        }
        let load = ChainLoad {
            report: ChainReport {
                source,
                full_generation,
                head_generation: records.last().map(|r| r.generation),
                records: records.len() as u64,
                defects,
            },
            records,
        };
        (load, head_checksum)
    }

    /// Quarantines generation `generation`'s record file by renaming it
    /// to `<name>.quarantined` (the scrubber's repair action). Returns
    /// the quarantine path if the file existed.
    ///
    /// # Errors
    ///
    /// Propagates the rename failure.
    pub fn quarantine(&self, generation: u64, kind: RecordKind) -> io::Result<Option<PathBuf>> {
        let path = self.record_path(generation, kind);
        if !path.exists() {
            return Ok(None);
        }
        let mut q = path.clone().into_os_string();
        q.push(".quarantined");
        let q = PathBuf::from(q);
        fs::rename(&path, &q)?;
        fsync_parent_dir(&q)?;
        Ok(Some(q))
    }
}

fn read_and_check(
    path: &Path,
    expected_gen: u64,
    expected_kind: RecordKind,
    expected_parent: u64,
) -> Result<(ChainRecord, u64), RecordError> {
    let bytes = fs::read(path).map_err(|e| RecordError::Io(e.to_string()))?;
    let d = decode_record(&bytes)?;
    if d.kind != expected_kind {
        return Err(RecordError::WrongKind);
    }
    if d.generation != expected_gen {
        return Err(RecordError::GenerationMismatch {
            file: expected_gen,
            body: d.generation,
        });
    }
    if d.kind == RecordKind::Delta && d.parent != expected_parent {
        return Err(RecordError::BrokenLink {
            expected: expected_parent,
            found: d.parent,
        });
    }
    Ok((
        ChainRecord {
            generation: d.generation,
            kind: d.kind,
            payload: d.payload.to_vec(),
        },
        d.body_checksum,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("softborg-chain-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn full_then_deltas_load_in_order() {
        let dir = tmp_dir("basic");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        assert!(c.rebase_due(2));
        c.append(RecordKind::Full, b"state-0").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        c.append(RecordKind::Delta, b"d2").unwrap();
        let load = ChainStore::open(&dir).unwrap().1;
        assert_eq!(load.report.source, ChainSource::Primary);
        assert_eq!(load.records.len(), 3);
        assert_eq!(load.records[0].payload, b"state-0");
        assert_eq!(load.records[2].payload, b"d2");
        assert!(load.report.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_on_cold_chain_is_refused() {
        let dir = tmp_dir("cold");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        assert!(c.append(RecordKind::Delta, b"d").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_delta_truncates_the_lineage() {
        // A flipped payload byte, and bytes appended after the envelope.
        type Damage = fn(&mut Vec<u8>);
        type Expected = fn(&RecordError) -> bool;
        let damages: [(Damage, Expected); 2] = [
            (
                |b| *b.last_mut().unwrap() ^= 0xff,
                |e| {
                    matches!(
                        e,
                        RecordError::Envelope(EnvelopeError::ChecksumMismatch { .. })
                    )
                },
            ),
            (
                |b| b.extend_from_slice(&[0; 16]),
                |e| *e == RecordError::TrailingBytes(16),
            ),
        ];
        for (damage, expected) in damages {
            let dir = tmp_dir("rot");
            let (mut c, _) = ChainStore::open(&dir).unwrap();
            c.append(RecordKind::Full, b"state").unwrap();
            c.append(RecordKind::Delta, b"d1").unwrap();
            c.append(RecordKind::Delta, b"d2").unwrap();
            let p = dir.join(format!("chain-{:020}.delta", 1));
            let mut bytes = fs::read(&p).unwrap();
            damage(&mut bytes);
            fs::write(&p, &bytes).unwrap();
            let load = ChainStore::open(&dir).unwrap().1;
            assert_eq!(load.records.len(), 1, "only the full survives");
            assert!(!load.report.is_clean());
            assert!(
                load.report
                    .defects
                    .iter()
                    .any(|d| d.generation == 1 && expected(&d.error)),
                "{:?}",
                load.report
            );
            // d2 is unreachable past the damage — also a defect.
            assert!(load.report.defects.iter().any(|d| d.generation == 2));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn damaged_newest_full_falls_back_to_previous_lineage() {
        let dir = tmp_dir("fallback");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, b"gen0").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        c.append(RecordKind::Full, b"gen2").unwrap();
        let p = dir.join(format!("chain-{:020}.full", 2));
        let mut bytes = fs::read(&p).unwrap();
        bytes[30] ^= 0x40;
        fs::write(&p, &bytes).unwrap();
        let load = ChainStore::open(&dir).unwrap().1;
        assert_eq!(load.report.source, ChainSource::Fallback);
        assert_eq!(load.report.full_generation, Some(0));
        assert_eq!(load.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebase_prunes_generations_before_the_previous_full() {
        let dir = tmp_dir("prune");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, b"gen0").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        c.append(RecordKind::Full, b"gen2").unwrap();
        c.append(RecordKind::Delta, b"d3").unwrap();
        c.append(RecordKind::Full, b"gen4").unwrap();
        let gens: Vec<u64> = c.list_files().into_iter().map(|(g, _, _)| g).collect();
        assert_eq!(gens, vec![2, 3, 4], "only two lineages retained");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebase_ratio_trips_on_accumulated_delta_bytes() {
        let dir = tmp_dir("ratio");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, &[0u8; 100]).unwrap();
        assert!(!c.rebase_due(2));
        c.append(RecordKind::Delta, &[0u8; 150]).unwrap();
        assert!(!c.rebase_due(2));
        c.append(RecordKind::Delta, &[0u8; 60]).unwrap();
        assert!(c.rebase_due(2), "210 delta bytes >= 2 * 100 full bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_delta_ends_the_lineage_loudly() {
        let dir = tmp_dir("hole");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, b"state").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        c.append(RecordKind::Delta, b"d2").unwrap();
        fs::remove_file(dir.join(format!("chain-{:020}.delta", 1))).unwrap();
        let load = ChainStore::open(&dir).unwrap().1;
        assert_eq!(load.records.len(), 1, "the loader stops at the hole");
        assert!(load.report.defects.iter().any(
            |d| d.generation == 2 && d.error == RecordError::MissingGeneration { expected: 1 }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_hands_back_the_walk_a_load_would_take() {
        let dir = tmp_dir("open-walk");
        let (mut c, cold) = ChainStore::open(&dir).unwrap();
        assert_eq!(cold.report.source, ChainSource::None);
        c.append(RecordKind::Full, b"gen0").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        let (reopened, walk) = ChainStore::open(&dir).unwrap();
        let again = reopened.load();
        assert_eq!(walk.records, again.records);
        assert_eq!(walk.report, again.report);
        assert_eq!(reopened.head_generation(), Some(1));
        assert_eq!(reopened.last_full_payload_bytes(), 4);
        // The recovered head link is live: a delta appended after the
        // reopen chains on cleanly.
        let mut reopened = reopened;
        reopened.append(RecordKind::Delta, b"d2").unwrap();
        let load = ChainStore::open(&dir).unwrap().1;
        assert_eq!(load.records.len(), 3);
        assert!(load.report.is_clean(), "{:?}", load.report);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_of_the_older_layout_is_reported_by_name() {
        let dir = tmp_dir("older");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, b"state").unwrap();
        let p = dir.join(format!("chain-{:020}.full", 0));
        let mut bytes = fs::read(&p).unwrap();
        bytes[..8].copy_from_slice(OLDER_CHAIN_MAGIC);
        fs::write(&p, &bytes).unwrap();
        let report = ChainStore::open(&dir).unwrap().1.report;
        assert_eq!(report.source, ChainSource::None);
        assert_eq!(report.older_layout().map(|d| d.generation), Some(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_is_total_on_arbitrary_damage() {
        let good = encode_record(RecordKind::Delta, 7, 99, b"payload-bytes");
        assert!(decode_record(&good).is_ok());
        for cut in 0..good.len() {
            let _ = decode_record(&good[..cut]); // must not panic
        }
        for i in 0..good.len() {
            let mut b = good.clone();
            b[i] ^= 0x10;
            let _ = decode_record(&b); // must not panic
        }
    }
}
