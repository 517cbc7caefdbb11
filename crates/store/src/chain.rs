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
//! [`ChainStore::open`] lists the directory once and reads and decodes
//! every `chain-<digits>.{full,delta}` file once, into an index of
//! metadata ([`ChainFile`]). A file is *intact* when its name is the
//! canonical `chain-<g:020>.<kind>` and its record decodes with that
//! generation and kind. One rule over the index then decides everything:
//!
//! * The lineage of an intact full is that full, then each next
//!   generation's intact delta whose parent is the record before it.
//! * Of the two newest canonical fulls, the newest intact one's lineage
//!   is adopted ([`ChainSource::Primary`], or [`ChainSource::Fallback`]
//!   when the newest full is damaged) and the other's, when intact, is
//!   retained as the next fallback. With neither, the chain is
//!   [`ChainSource::None`] and the caller treats the campaign as cold.
//! * Every other file can never be applied and is a [`ChainDefect`]:
//!   damaged records, a non-canonical name, a delta whose link broke,
//!   records past the adopted head, behind a damaged full or in an older
//!   lineage, and every intact delta when no lineage validates.
//!
//! Quarantining every defect therefore leaves a directory that opens
//! clean onto the same lineage.
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

/// One record of the adopted lineage, payload included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecord {
    /// The record's file name inside the chain directory.
    pub file: String,
    /// Generation number (also encoded in the filename).
    pub generation: u64,
    /// Full or delta.
    pub kind: RecordKind,
    /// Body checksum of the record before it (0 for a full).
    pub parent: u64,
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
    /// The kind inside the body disagrees with the filename.
    WrongKind,
    /// The file name is not the canonical `chain-<g:020>.<kind>`.
    NonCanonicalName,
    /// No lineage the chain can adopt reaches this intact record.
    Orphaned,
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
            RecordError::NonCanonicalName => {
                write!(f, "file name is not chain-<generation:020>.<kind>")
            }
            RecordError::Orphaned => write!(f, "no lineage the chain can adopt reaches it"),
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
    /// Every record file that can never be applied (see the
    /// [module docs](self)).
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

/// An open: the adopted lineage (full first) plus the report; the
/// default is a cold chain's.
#[derive(Debug, Clone, Default)]
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

/// What an intact record file holds besides its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Body checksum of the record before it (0 for a full).
    pub parent: u64,
    /// Checksum of this record's body (what the next delta links to).
    pub body_checksum: u64,
    /// Payload bytes.
    pub payload_len: u64,
}

/// One `chain-<digits>.{full,delta}` file of the chain directory, as
/// [`ChainStore::open`] found it (or [`ChainStore::append`] wrote it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFile {
    /// The file's name inside the chain directory.
    pub name: String,
    /// Generation from the name.
    pub generation: u64,
    /// Kind from the name.
    pub kind: RecordKind,
    /// The record's metadata when the file is intact, else why not.
    pub check: Result<RecordMeta, RecordError>,
}

impl ChainFile {
    /// Reads and decodes the file at `path`, judging it against its
    /// name; returns the payload of an intact record too (else empty).
    fn read(path: &Path, name: String) -> Option<(ChainFile, Vec<u8>)> {
        let rest = name.strip_prefix("chain-")?;
        let (digits, kind) = match rest.strip_suffix(".full") {
            Some(d) => (d, RecordKind::Full),
            None => (rest.strip_suffix(".delta")?, RecordKind::Delta),
        };
        let generation = digits.parse::<u64>().ok()?;
        let (check, mut bytes) = if name != record_name(generation, kind) {
            (Err(RecordError::NonCanonicalName), Vec::new())
        } else {
            match fs::read(path) {
                Ok(bytes) => (check(&bytes, generation, kind), bytes),
                Err(e) => (Err(RecordError::Io(e.to_string())), Vec::new()),
            }
        };
        // The payload ends an intact record's file: keep it, not the envelope.
        let keep = check.as_ref().map_or(0, |m| m.payload_len as usize);
        bytes.drain(..bytes.len() - keep);
        let file = ChainFile {
            name,
            generation,
            kind,
            check,
        };
        Some((file, bytes))
    }

    fn meta(&self) -> Option<&RecordMeta> {
        self.check.as_ref().ok()
    }

    fn canonical(&self) -> bool {
        self.check != Err(RecordError::NonCanonicalName)
    }
}

/// Decodes a record file's `bytes` and checks them against the
/// generation and kind its name carries.
fn check(bytes: &[u8], generation: u64, kind: RecordKind) -> Result<RecordMeta, RecordError> {
    let d = decode_record(bytes)?;
    if d.kind != kind {
        return Err(RecordError::WrongKind);
    }
    let (file, body) = (generation, d.generation);
    if body != file {
        return Err(RecordError::GenerationMismatch { file, body });
    }
    Ok(RecordMeta {
        parent: d.parent,
        body_checksum: d.body_checksum,
        payload_len: d.payload.len() as u64,
    })
}

/// The canonical name of generation `generation`'s `kind` record.
fn record_name(generation: u64, kind: RecordKind) -> String {
    format!("chain-{generation:020}.{}", kind.ext())
}

/// The one lineage rule (see the [module docs](self)), over the index
/// alone: which lineage is adopted, its index positions (full first),
/// and every defect.
fn judge(files: &[ChainFile]) -> (ChainSource, Vec<usize>, Vec<ChainDefect>) {
    let find = |generation: u64, kind: RecordKind| {
        (files.iter()).position(|f| f.generation == generation && f.kind == kind && f.canonical())
    };
    let lineage_of = |full: usize| {
        let mut lineage = vec![full];
        let mut at = full;
        while let Some(next) = find(files[at].generation + 1, RecordKind::Delta) {
            match (files[at].meta(), files[next].meta()) {
                (Some(a), Some(b)) if b.parent == a.body_checksum => lineage.push(next),
                _ => break,
            }
            at = next;
        }
        lineage
    };
    let mut fulls: Vec<usize> = (0..files.len())
        .filter(|&i| files[i].kind == RecordKind::Full && files[i].canonical())
        .collect();
    fulls.sort_by_key(|&i| std::cmp::Reverse(files[i].generation));
    fulls.truncate(2);
    let mut intact = (fulls.iter()).filter(|&&i| files[i].check.is_ok());
    let lineage = intact.next().map_or_else(Vec::new, |&i| lineage_of(i));
    let retained = intact.next().map_or_else(Vec::new, |&i| lineage_of(i));
    let source = match lineage.first() {
        None => ChainSource::None,
        Some(&full) if full == fulls[0] => ChainSource::Primary,
        Some(_) => ChainSource::Fallback,
    };
    let head = lineage.last().map(|&i| files[i].generation);
    let ends = [lineage.last(), retained.last()];
    let defects = (files.iter().enumerate())
        .filter(|(i, _)| !lineage.contains(i) && !retained.contains(i))
        .map(|(_, f)| {
            let before = (ends.iter().flatten()).map(|&&i| &files[i]);
            let end = before
                .filter(|e| e.generation + 1 == f.generation)
                .find_map(ChainFile::meta);
            let error = match (&f.check, end, head) {
                (Err(e), ..) => e.clone(),
                (Ok(m), Some(e), _) if f.kind == RecordKind::Delta => RecordError::BrokenLink {
                    expected: e.body_checksum,
                    found: m.parent,
                },
                (Ok(_), _, Some(h)) if f.generation > h => {
                    RecordError::MissingGeneration { expected: h + 1 }
                }
                (Ok(_), ..) => RecordError::Orphaned,
            };
            let (generation, kind, file) = (f.generation, f.kind, f.name.clone());
            ChainDefect {
                generation,
                kind,
                file,
                error,
            }
        })
        .collect();
    (source, lineage, defects)
}

/// The chain store: a directory of generation record files, its index,
/// and the append-side bookkeeping (head link, rebase accounting).
#[derive(Debug)]
pub struct ChainStore {
    dir: PathBuf,
    /// Every record file in the directory, sorted by name; kept current
    /// by [`append`](Self::append) and its prune.
    files: Vec<ChainFile>,
    /// `(generation, body checksum)` of the record the next delta must
    /// link to.
    head: Option<(u64, u64)>,
    /// Generation of the adopted lineage's full.
    newest_full: Option<u64>,
    /// Payload bytes written as deltas since the newest full.
    delta_bytes_since_full: u64,
    /// Payload bytes of the newest full.
    last_full_bytes: u64,
}

impl ChainStore {
    /// Opens (creating if needed) the chain directory: lists it once,
    /// reads and decodes each record file once, and judges the index
    /// (see the [module docs](self)). Returns the adopted lineage with
    /// its payloads and the report; the store keeps metadata only.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and listing failures.
    pub fn open(dir: &Path) -> io::Result<(ChainStore, ChainLoad)> {
        fs::create_dir_all(dir)?;
        let mut read = Vec::new();
        for entry in fs::read_dir(dir)?.filter_map(Result::ok) {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            read.extend(ChainFile::read(&entry.path(), name));
        }
        read.sort_by(|(a, _), (b, _)| a.name.cmp(&b.name));
        let (files, mut payloads): (Vec<ChainFile>, Vec<Vec<u8>>) = read.into_iter().unzip();
        let (source, lineage, defects) = judge(&files);
        let records: Vec<ChainRecord> = (lineage.iter())
            .map(|&i| ChainRecord {
                file: files[i].name.clone(),
                generation: files[i].generation,
                kind: files[i].kind,
                parent: files[i].meta().map_or(0, |m| m.parent),
                payload: std::mem::take(&mut payloads[i]),
            })
            .collect();
        let payload_len = |&i: &usize| files[i].meta().map_or(0, |m| m.payload_len);
        let store = ChainStore {
            dir: dir.to_path_buf(),
            head: (lineage.last())
                .and_then(|&i| Some((files[i].generation, files[i].meta()?.body_checksum))),
            newest_full: lineage.first().map(|&i| files[i].generation),
            delta_bytes_since_full: lineage.iter().skip(1).map(payload_len).sum(),
            last_full_bytes: lineage.first().map_or(0, payload_len),
            files,
        };
        let report = ChainReport {
            source,
            full_generation: store.newest_full,
            head_generation: store.head_generation(),
            records: records.len() as u64,
            defects,
        };
        Ok((store, ChainLoad { records, report }))
    }

    /// The chain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The index: every record file, sorted by name.
    pub fn files(&self) -> &[ChainFile] {
        &self.files
    }

    /// Generation of the current head (`None` on a cold chain).
    pub fn head_generation(&self) -> Option<u64> {
        self.head.map(|(g, _)| g)
    }

    /// Payload bytes of the newest full record (0 on a cold chain).
    pub fn last_full_payload_bytes(&self) -> u64 {
        self.last_full_bytes
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
        let name = record_name(generation, kind);
        let tmp = self.dir.join("chain.tmp");
        record::replace(&self.dir.join(&name), &tmp, &bytes)?;
        let file = ChainFile {
            check: Ok(RecordMeta {
                parent,
                body_checksum,
                payload_len: payload.len() as u64,
            }),
            name,
            generation,
            kind,
        };
        match self.files.binary_search_by(|f| f.name.cmp(&file.name)) {
            Ok(i) => self.files[i] = file,
            Err(i) => self.files.insert(i, file),
        }
        self.head = Some((generation, body_checksum));
        match kind {
            RecordKind::Full => {
                let retired = self.newest_full.replace(generation);
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
    fn prune_before(&mut self, keep_from: u64) -> io::Result<()> {
        for f in self.files.iter().filter(|f| f.generation < keep_from) {
            fs::remove_file(self.dir.join(&f.name))?;
        }
        self.files.retain(|f| f.generation >= keep_from);
        fsync_parent_dir(&self.dir.join("chain.tmp"))
    }

    /// Quarantines the record file `file` (a [`ChainDefect::file`]) by
    /// renaming it to `<file>.quarantined` — a repair's one chain move —
    /// drops it from the index, and returns the new path. Quarantining
    /// every defect leaves the index a fresh open would build, on the
    /// same lineage.
    ///
    /// # Errors
    ///
    /// Propagates the rename failure.
    pub fn quarantine(&mut self, file: &str) -> io::Result<PathBuf> {
        let q = self.dir.join(format!("{file}.quarantined"));
        fs::rename(self.dir.join(file), &q)?;
        fsync_parent_dir(&q)?;
        self.files.retain(|f| f.name != file);
        Ok(q)
    }
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
        let gens: Vec<u64> = c.files().iter().map(|f| f.generation).collect();
        assert_eq!(gens, vec![2, 3, 4], "only two lineages retained");
        let on_disk = ChainStore::open(&dir).unwrap().0;
        assert_eq!(on_disk.files(), c.files(), "the index is the directory");
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
    fn open_recovers_the_append_side_bookkeeping() {
        let dir = tmp_dir("open-walk");
        let (mut c, cold) = ChainStore::open(&dir).unwrap();
        assert_eq!(cold.report.source, ChainSource::None);
        c.append(RecordKind::Full, b"gen0").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        let (reopened, walk) = ChainStore::open(&dir).unwrap();
        assert_eq!(reopened.files(), c.files());
        assert_eq!(
            walk.records[1].parent,
            c.files()[0].check.as_ref().unwrap().body_checksum
        );
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
    fn intact_deltas_without_a_lineage_are_orphans() {
        let dir = tmp_dir("orphans");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, b"state").unwrap();
        c.append(RecordKind::Delta, b"d1").unwrap();
        let p = dir.join(format!("chain-{:020}.full", 0));
        let mut bytes = fs::read(&p).unwrap();
        bytes[30] ^= 0x40;
        fs::write(&p, &bytes).unwrap();
        let report = ChainStore::open(&dir).unwrap().1.report;
        assert_eq!(report.source, ChainSource::None);
        assert!(report
            .defects
            .iter()
            .any(|d| d.generation == 1 && d.error == RecordError::Orphaned));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_non_canonical_name_is_a_defect_that_quarantine_moves() {
        let dir = tmp_dir("name");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        c.append(RecordKind::Full, b"state").unwrap();
        fs::write(dir.join("chain-7.delta"), b"junk").unwrap();
        let (mut c, load) = ChainStore::open(&dir).unwrap();
        let defect = &load.report.defects[..];
        assert_eq!(defect.len(), 1, "{defect:?}");
        assert_eq!(defect[0].file, "chain-7.delta");
        assert_eq!(defect[0].error, RecordError::NonCanonicalName);
        let q = c.quarantine(&defect[0].file).unwrap();
        assert_eq!(fs::read(q).unwrap(), b"junk");
        let again = ChainStore::open(&dir).unwrap().1;
        assert!(again.report.is_clean(), "{:?}", again.report);
        assert_eq!(again.records.len(), 1);
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
