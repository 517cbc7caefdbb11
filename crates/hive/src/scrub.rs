//! Bit-rot scrubber for a campaign's durable files: detect media
//! damage in the delta-chain checkpoint records and the write-ahead
//! journal, quarantine the damaged bytes, and repair around them where
//! a valid older lineage or journal suffix makes that sound — failing
//! loudly (typed [`ScrubError`], Warn flight-recorder events) in every
//! case, never silently ingesting garbage.
//!
//! One read of a shard ([`ShardFiles`]: the chain's open, each lineage
//! payload decoded once, the journal's bytes and their one scan) serves
//! both the caller's refusals and [`scrub_campaign`]; the chain is opened
//! again only after a quarantine moved a file. Damage is what the record
//! envelope (`Framing::read_at`/`torn_at`) refuses in any file, plus
//! every chain file the chain's one lineage rule condemns (a broken
//! link, an orphan, a non-canonical name) and a non-snapshot payload;
//! only the repair witnesses below are per kind.
//!
//! # What "repair" may and may not do
//!
//! The scrubber never reconstructs lost data; it only ever *discards*
//! bytes that verification already rejected, moving them into
//! `*.quarantined` files so the damage stays inspectable. The
//! interesting decision is where the cut is sound:
//!
//! * A condemned **chain file** is renamed to `<file>.quarantined`, and
//!   so is every lineage record after one whose payload is not a
//!   snapshot; recovery then proceeds from the surviving lineage,
//!   exactly as the chain open's own fallback would.
//! * Damage in an append-only file's **unsynced tail** (the classic torn
//!   append) is cut at the last valid record boundary — the same prefix
//!   [`journal::scan`] recovers — with the dropped bytes preserved in
//!   `<file>.quarantined` ([`cut_tail`]). That is the round log's one
//!   repair; the campaign core calls it.
//! * Damage **inside the checkpoint-covered prefix** — journal bytes
//!   the chain head already summarizes, kept only because the
//!   post-compaction truncate hadn't happened yet — is repaired by
//!   *dropping the prefix*: the journal is atomically rewritten to the
//!   intact suffix the checkpoint does not cover, which replays onto the
//!   checkpoint exactly as it would have before the damage. Without
//!   this, the covered-prefix hash check fails and recovery discards the
//!   whole journal, losing every round committed after the checkpoint.
//! * Damage in the **live replay region** with valid records beyond it
//!   cannot be repaired around — replaying across a hole would merge a
//!   different history than was acknowledged — so everything from the
//!   hole onward is quarantined, and the loss is reported.
//!
//! # Deciding which region the damage is in
//!
//! The head's `wal_covered` cannot be taken at face value: after a
//! *completed* compaction the journal restarts at byte 0 while
//! `wal_covered` still describes the pre-truncate file, so a journal
//! whose prefix hash does not match may be either freshly live from
//! byte 0 (stale coverage) or a genuinely covered prefix that the
//! bit rot itself un-hashed. The two interpretations demand opposite
//! repairs, so the scrubber only acts on *verifiable* evidence:
//!
//! * The journal is *shorter* than `wal_covered` → coverage is
//!   provably stale: under true coverage the file only ever grows
//!   (appends), and the truncate that shrinks it is the very event
//!   that makes coverage stale. Every byte is live → tail cut.
//! * The hole is at or past `wal_covered` → the records recovery will
//!   replay (from the covered offset if the prefix hash matches, from
//!   0 otherwise) all precede the hole → tail cut.
//! * The hole is inside the claimed prefix but `bytes[wal_covered..]`
//!   scans as whole checksummed records → the covered offset lands on
//!   a true record boundary, which a regrown journal would only offer
//!   by 2⁻⁶⁴ accident → the prefix is summarized, drop it.
//! * Otherwise the prefix can be neither trusted (replaying it may
//!   double-apply records the checkpoint holds) nor skipped (the suffix
//!   is damaged too) → discard the journal, resume from the checkpoint.
//!
//! A directory that held durable data but retains *nothing* valid
//! after scrubbing is a [`ScrubError::NothingRecoverable`]: resuming
//! would silently cold-start over an existing campaign, which is the
//! one thing a crash-only system must never do quietly.
//!
//! Records an older build wrote are no damage: a chain record or a
//! journal record in an older layout is [`ScrubError::OlderLayout`],
//! refused by the read or the scan, before anything is moved or cut.

use crate::journal::{self, FileJournal, JournalIoError, JournalRecord, JournalStore, ScanReport};
use crate::snapshot::{HiveSnapshot, SnapshotError};
use softborg_obs::FlightRecorder;
use softborg_store::record::{self, EnvelopeError};
use softborg_store::{ChainRecord, ChainReport, ChainStore};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Flight-recorder source every scrub event is recorded under.
pub const SCRUB_SOURCE: &str = "hive.scrub";

/// How the scrubber left the write-ahead journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalScrubAction {
    /// Every record verified (or the journal is absent/empty).
    Clean,
    /// A damaged tail was cut at the last valid record boundary.
    TailCut,
    /// Damage inside the checkpoint-covered prefix: the journal was
    /// rewritten to the intact post-checkpoint suffix.
    PrefixDropped,
    /// Damage in the live region made everything from the first hole
    /// onward unusable; the journal was truncated there and recovery
    /// falls back to the checkpoint alone.
    Discarded,
}

/// What the scrubber found in a delta-snapshot chain directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainScrub {
    /// The chain walk *after* every condemned record was moved aside —
    /// the lineage resume will actually use.
    pub report: ChainReport,
    /// Record files renamed to `*.quarantined` (names only, relative to
    /// the chain directory).
    pub quarantined: Vec<String>,
}

impl ChainScrub {
    /// `true` when every record on disk validated in place.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.report.is_clean()
    }
}

/// The scrubber's findings for one campaign directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// What happened to `hive.wal`.
    pub wal_action: WalScrubAction,
    /// Journal bytes retained as verified-valid.
    pub wal_valid_bytes: u64,
    /// Journal bytes moved into `hive.wal.quarantined`.
    pub wal_quarantined_bytes: u64,
    /// What happened to the delta chain.
    pub chain: ChainScrub,
    /// Bytes of a torn `rounds.log` tail moved into its quarantine file:
    /// set by the campaign core on shard 0's report only.
    pub round_log_quarantined_bytes: u64,
}

impl ScrubReport {
    /// `true` when the scrub found no damage anywhere.
    pub fn is_clean(&self) -> bool {
        self.wal_action == WalScrubAction::Clean
            && self.chain.is_clean()
            && self.round_log_quarantined_bytes == 0
    }
}

/// Why a scrub could not complete (or could not leave anything to
/// resume from).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubError {
    /// A filesystem operation failed mid-scrub.
    Io(JournalIoError),
    /// The directory held durable campaign data, but nothing valid
    /// survived scrubbing: every chain record and every journal record
    /// failed verification. Resuming would cold-start over an existing
    /// campaign, so the scrub refuses instead.
    NothingRecoverable,
    /// A chain or journal record is in a layout an older build wrote:
    /// not damage to repair around, and nothing was touched.
    OlderLayout(String),
}

impl fmt::Display for ScrubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScrubError::Io(e) => write!(f, "scrub I/O failure: {e}"),
            ScrubError::NothingRecoverable => write!(
                f,
                "campaign directory held durable data but nothing valid survived the scrub"
            ),
            ScrubError::OlderLayout(what) => write!(f, "{what} is in an older layout"),
        }
    }
}

impl std::error::Error for ScrubError {}

impl From<JournalIoError> for ScrubError {
    fn from(e: JournalIoError) -> Self {
        ScrubError::Io(e)
    }
}

fn io_err(op: &'static str, e: &std::io::Error) -> ScrubError {
    ScrubError::Io(JournalIoError::from_io(op, e))
}

/// A lineage record's file name and generation, and its payload decoded.
type Decoded = (String, u64, Result<HiveSnapshot, SnapshotError>);

fn decode(records: Vec<ChainRecord>) -> Vec<Decoded> {
    let decode = |r: ChainRecord| (r.file, r.generation, HiveSnapshot::decode(&r.payload));
    records.into_iter().map(decode).collect()
}

/// One shard directory as a single read found it.
#[derive(Debug)]
pub struct ShardFiles {
    wal_path: PathBuf,
    /// The journal's bytes; empty when there is no journal.
    pub wal: Vec<u8>,
    /// The chain and its walk (none without a chain directory), then
    /// the walk's lineage, full record first.
    chain: Option<(ChainStore, ChainReport)>,
    lineage: Vec<Decoded>,
}

impl ShardFiles {
    /// Reads the journal at `wal_path` (none: empty) and opens the chain
    /// in `chain_dir` if there is one; creates nothing.
    ///
    /// # Errors
    ///
    /// [`ScrubError::Io`]; [`ScrubError::OlderLayout`] on a chain record
    /// an older build wrote.
    pub fn read(wal_path: &Path, chain_dir: &Path) -> Result<Self, ScrubError> {
        let wal = match fs::read(wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("scrub-read-wal", &e)),
        };
        let (chain, lineage) = if chain_dir.is_dir() {
            let (chain, load) =
                ChainStore::open(chain_dir).map_err(|e| io_err("scrub-open-chain", &e))?;
            if let Some(defect) = load.report.older_layout() {
                return Err(ScrubError::OlderLayout(defect.file.clone()));
            }
            (Some((chain, load.report)), decode(load.records))
        } else {
            (None, Vec::new())
        };
        Ok(ShardFiles {
            wal_path: wal_path.to_path_buf(),
            wal,
            chain,
            lineage,
        })
    }

    /// The journal's one scan: its records and the report
    /// [`scrub_campaign`] judges.
    ///
    /// # Errors
    ///
    /// [`ScrubError::OlderLayout`] at a record an older build wrote.
    pub fn scan(&self) -> Result<(Vec<JournalRecord<'_>>, ScanReport), ScrubError> {
        let (records, scan) = journal::scan(&self.wal);
        if scan.tail_error == Some(EnvelopeError::OlderLayout) {
            return Err(ScrubError::OlderLayout(self.wal_path.display().to_string()));
        }
        Ok((records, scan))
    }

    /// The lineage's snapshots that decoded, full record first.
    pub fn snapshots(&self) -> impl Iterator<Item = &HiveSnapshot> {
        self.lineage.iter().filter_map(|(_, _, s)| s.as_ref().ok())
    }
}

/// `<path>.quarantined` — where condemned bytes are moved, next to the
/// file they came from, so post-mortems can inspect the exact damage.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantined");
    path.with_file_name(name)
}

/// Appends `bytes` to the quarantine file of `path` and syncs it.
fn quarantine_bytes(path: &Path, bytes: &[u8]) -> Result<(), ScrubError> {
    let mut q = FileJournal::open(quarantine_path(path))
        .map_err(|e| io_err("scrub-quarantine-open", &e))?;
    q.append(bytes)?;
    q.sync()?;
    Ok(())
}

/// The one tail repair of a journal and of the round log: moves
/// `bytes[at..]` of the file at `path` (holding `bytes`) into
/// `<path>.quarantined` and cuts the file to `at` bytes. Returns the
/// bytes moved.
///
/// # Errors
///
/// [`ScrubError::Io`] on filesystem failures.
pub fn cut_tail(path: &Path, bytes: &[u8], at: usize) -> Result<u64, ScrubError> {
    quarantine_bytes(path, &bytes[at..])?;
    let mut file = FileJournal::open(path).map_err(|e| io_err("scrub-truncate-open", &e))?;
    file.truncate(at as u64)?;
    Ok((bytes.len() - at) as u64)
}

/// The chain's repair: moves aside every file the open condemned and
/// every lineage record from the first non-snapshot payload on, each
/// with a Warn event, opening the chain again after each pass that
/// moved one until nothing moves. Returns the last report and the
/// head's snapshot.
fn condemn(
    mut chain: ChainStore,
    mut report: ChainReport,
    mut lineage: Vec<Decoded>,
    obs: &FlightRecorder,
    quarantined: &mut Vec<String>,
) -> Result<(ChainReport, Option<HiveSnapshot>), ScrubError> {
    loop {
        let bad = (lineage.iter().position(|(.., s)| s.is_err())).unwrap_or(lineage.len());
        let condemned: Vec<(String, u64, String)> = (report.defects.drain(..))
            .map(|d| (d.file, d.generation, d.error.to_string()))
            .chain(lineage.drain(bad..).map(|(file, generation, snap)| {
                let why = snap.map_or_else(|e| e.to_string(), |_| "after a non-snapshot".into());
                (file, generation, why)
            }))
            .collect();
        if condemned.is_empty() {
            return Ok((report, lineage.pop().and_then(|(.., s)| s.ok())));
        }
        for (file, generation, why) in condemned {
            let q = (chain.quarantine(&file)).map_err(|e| io_err("scrub-quarantine-chain", &e))?;
            obs.warn_or_ops(
                SCRUB_SOURCE,
                "chain_record_quarantined",
                &[("generation", generation)],
                format!("{file}: {why}; moved to {}", q.display()),
            );
            quarantined.push(file);
        }
        let load;
        (chain, load) =
            ChainStore::open(chain.dir()).map_err(|e| io_err("scrub-open-chain", &e))?;
        (report, lineage) = (load.report, decode(load.records));
    }
}

/// Scrubs one campaign directory read by [`ShardFiles::read`], judging
/// its journal by `scan` ([`ShardFiles::scan`]'s): condemned chain
/// records are renamed to `*.quarantined`, then the journal is scrubbed
/// against the surviving chain head's coverage (see the
/// [module docs](self)). Every detection records a Warn event under
/// [`SCRUB_SOURCE`].
///
/// # Errors
///
/// [`ScrubError::Io`] on filesystem failures;
/// [`ScrubError::NothingRecoverable`] when chain files or journal bytes
/// existed but no chain record and no journal record survived — resuming
/// would silently cold-start, so the caller must decide explicitly.
pub fn scrub_campaign(
    files: ShardFiles,
    scan: &ScanReport,
    obs: &FlightRecorder,
) -> Result<ScrubReport, ScrubError> {
    let mut quarantined = Vec::new();
    let (had_chain_files, report, head) = match files.chain {
        None => (false, ChainReport::default(), None),
        Some((chain, report)) => {
            let had = report.records > 0 || !report.defects.is_empty();
            let (report, head) = condemn(chain, report, files.lineage, obs, &mut quarantined)?;
            (had, report, head)
        }
    };

    let (wal_action, wal_valid_bytes, wal_quarantined_bytes) =
        scrub_wal(&files.wal_path, &files.wal, scan, head.as_ref(), obs)?;
    if (had_chain_files || !files.wal.is_empty()) && head.is_none() && wal_valid_bytes == 0 {
        return Err(ScrubError::NothingRecoverable);
    }
    Ok(ScrubReport {
        wal_action,
        wal_valid_bytes,
        wal_quarantined_bytes,
        chain: ChainScrub {
            report,
            quarantined,
        },
        round_log_quarantined_bytes: 0,
    })
}

/// The journal half of a campaign scrub over its bytes `wal` and their
/// `scan`: `snap` (the newest valid checkpoint) decides whether damage
/// lies in the covered prefix. Returns the action and the journal bytes
/// kept and quarantined.
fn scrub_wal(
    wal_path: &Path,
    wal: &[u8],
    scan: &ScanReport,
    snap: Option<&HiveSnapshot>,
    obs: &FlightRecorder,
) -> Result<(WalScrubAction, u64, u64), ScrubError> {
    let damage_at = scan.valid_len;
    if scan.tail_dropped == 0 {
        return Ok((WalScrubAction::Clean, damage_at as u64, 0));
    }
    let covered = snap.map_or(0, |s| s.wal_covered as usize);
    // A file shorter than `covered` proves coverage is stale (the
    // post-compaction truncate completed; true coverage only ever
    // appends): every byte is live. Module docs walk through why each
    // arm is the only sound action in its region.
    let (action, kind, valid, moved) = if damage_at >= covered || wal.len() < covered {
        // Everything recovery replays precedes the hole: cut at the
        // last valid record boundary. Records beyond the hole (if any)
        // cannot be replayed across it soundly.
        let moved = cut_tail(wal_path, wal, damage_at)?;
        (WalScrubAction::TailCut, "wal_tail_cut", damage_at, moved)
    } else {
        let suffix = &wal[covered..];
        let (srecs, srep) = journal::scan(suffix);
        if srep.tail_dropped == 0 && !srecs.is_empty() {
            // The covered offset lands on a checksummed record
            // boundary: the prefix is genuinely summarized by the
            // checkpoint, and the intact suffix carries everything the
            // checkpoint lacks.
            quarantine_bytes(wal_path, &wal[..covered])?;
            let tmp = wal_path.with_extension("wal.scrub-tmp");
            record::replace(wal_path, &tmp, suffix).map_err(|e| io_err("scrub-rewrite", &e))?;
            let action = WalScrubAction::PrefixDropped;
            (action, "wal_prefix_dropped", suffix.len(), covered as u64)
        } else {
            // The prefix may double-apply and the suffix is damaged
            // too: the checkpoint alone is the only state recovery can
            // trust.
            let moved = cut_tail(wal_path, wal, 0)?;
            (WalScrubAction::Discarded, "wal_discarded", 0, moved)
        }
    };
    obs.warn_or_ops(
        SCRUB_SOURCE,
        kind,
        &[("valid_bytes", valid as u64), ("quarantined_bytes", moved)],
        format!(
            "{}: {}",
            wal_path.display(),
            scan.tail_error
                .map_or_else(|| "damaged region".to_string(), |e| e.to_string())
        ),
    );
    Ok((action, valid as u64, moved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{append_record, REC_FRAME, REC_ROUND, SESSION_ROUND};
    use softborg_store::{ChainSource, RecordKind};

    /// A fresh campaign directory: its journal path and opened chain.
    fn campaign(tag: &str) -> (PathBuf, ChainStore) {
        let d = std::env::temp_dir().join(format!("softborg-scrub-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        (
            d.join("hive.wal"),
            ChainStore::open(&d.join("chain")).unwrap().0,
        )
    }

    /// Reads and scrubs the campaign whose journal is at `wal_path`, as
    /// the campaign core does.
    fn scrub_at(wal_path: &Path, obs: &FlightRecorder) -> Result<ScrubReport, ScrubError> {
        let files = ShardFiles::read(wal_path, &wal_path.with_file_name("chain"))?;
        let (_, scan) = files.scan()?;
        scrub_campaign(files, &scan, obs)
    }

    fn record(kind: u8, session: u64, seq: u64, frame: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        append_record(&mut buf, kind, session, seq, frame);
        buf
    }

    fn snapshot_covering(wal: &[u8]) -> HiveSnapshot {
        HiveSnapshot {
            state: vec![1, 2, 3],
            sessions: [(1u64, 1u64)].into_iter().collect(),
            wal_covered: wal.len() as u64,
            wal_covered_hash: journal::wal_hash(&journal::scan(wal).0),
            app_meta: b"meta".to_vec(),
        }
    }

    /// A campaign whose chain head (one full record) covers the first
    /// `covered` journal bytes; the journal holds one more round.
    struct Seeded {
        wal_path: PathBuf,
        chain: ChainStore,
        wal: Vec<u8>,
        covered: usize,
    }

    impl Seeded {
        fn new(tag: &str) -> Self {
            let (wal_path, mut chain) = campaign(tag);
            let mut wal = Vec::new();
            wal.extend_from_slice(&record(REC_FRAME, 1, 0, &[0xAA; 40]));
            wal.extend_from_slice(&record(REC_ROUND, SESSION_ROUND, 0, b"round-0"));
            let covered = wal.len();
            wal.extend_from_slice(&record(REC_FRAME, 1, 1, &[0xBB; 40]));
            wal.extend_from_slice(&record(REC_ROUND, SESSION_ROUND, 1, b"round-1"));
            chain
                .append(
                    RecordKind::Full,
                    &snapshot_covering(&wal[..covered]).encode(),
                )
                .unwrap();
            fs::write(&wal_path, &wal).unwrap();
            Seeded {
                wal_path,
                chain,
                wal,
                covered,
            }
        }

        fn scrub(&self, obs: &FlightRecorder) -> Result<ScrubReport, ScrubError> {
            scrub_at(&self.wal_path, obs)
        }

        fn quiet_scrub(&self) -> ScrubReport {
            self.scrub(&FlightRecorder::disabled()).unwrap()
        }

        /// The snapshot a resume would adopt.
        fn head(&self) -> Option<HiveSnapshot> {
            let load = ChainStore::open(self.chain.dir()).unwrap().1;
            load.records
                .last()
                .map(|r| HiveSnapshot::decode(&r.payload).unwrap())
        }

        fn damage(&self, at: usize, mask: u8) -> Vec<u8> {
            let mut bytes = self.wal.clone();
            bytes[at] ^= mask;
            fs::write(&self.wal_path, &bytes).unwrap();
            bytes
        }
    }

    #[test]
    fn clean_campaign_scrubs_clean() {
        let s = Seeded::new("clean");
        let report = s.quiet_scrub();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.wal_valid_bytes, s.wal.len() as u64);
        assert_eq!(report.chain.report.records, 1);
        assert_eq!(fs::read(&s.wal_path).unwrap(), s.wal);
        assert!(!quarantine_path(&s.wal_path).exists());
    }

    #[test]
    fn empty_directory_scrubs_clean() {
        let (wal_path, _chain) = campaign("empty");
        let report = scrub_at(&wal_path, &FlightRecorder::disabled()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.chain.report.source, ChainSource::None);
    }

    #[test]
    fn corrupt_chain_record_is_quarantined_not_deleted() {
        let mut s = Seeded::new("record-rot");
        // A newer delta head covering the whole journal, then rot in it.
        let delta = snapshot_covering(&s.wal).encode();
        let g = s.chain.append(RecordKind::Delta, &delta).unwrap();
        let name = format!("chain-{g:020}.delta");
        let path = s.chain.dir().join(&name);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let report = s.quiet_scrub();
        assert!(!report.is_clean());
        assert_eq!(report.chain.quarantined, vec![name]);
        assert!(!path.exists(), "corrupt record left in place");
        assert_eq!(
            fs::read(quarantine_path(&path)).unwrap(),
            bytes,
            "quarantine must preserve the damaged bytes exactly"
        );
        // Resume falls back to the full, whose coverage still matches
        // the untouched journal.
        assert_eq!(report.chain.report.head_generation, Some(0));
        assert_eq!(report.wal_action, WalScrubAction::Clean);
        assert_eq!(s.head().unwrap().wal_covered, s.covered as u64);
    }

    #[test]
    fn a_record_whose_payload_is_not_a_snapshot_is_quarantined_too() {
        let mut s = Seeded::new("bad-payload");
        // Framing and checksum are valid; the payload is not a snapshot.
        let g = s
            .chain
            .append(RecordKind::Delta, b"not a snapshot")
            .unwrap();
        let report = s.quiet_scrub();
        assert_eq!(
            report.chain.quarantined,
            vec![format!("chain-{g:020}.delta")]
        );
        assert_eq!(report.chain.report.head_generation, Some(0));
        assert!(s.head().is_some(), "the full still resumes the campaign");
    }

    #[test]
    fn damaged_tail_is_cut_and_quarantined() {
        let s = Seeded::new("tail");
        let (wal, covered) = (&s.wal, s.covered);
        let bytes = s.damage(covered + 10, 0xFF); // the live region's first record
        let report = s.quiet_scrub();
        assert_eq!(report.wal_action, WalScrubAction::TailCut);
        assert_eq!(report.wal_valid_bytes, covered as u64);
        assert_eq!(report.wal_quarantined_bytes, (wal.len() - covered) as u64);
        let left = fs::read(&s.wal_path).unwrap();
        assert_eq!(left, &wal[..covered]);
        let (_, rep) = journal::scan(&left);
        assert_eq!(rep.tail_dropped, 0, "scrubbed journal must scan clean");
        assert_eq!(
            fs::read(quarantine_path(&s.wal_path)).unwrap(),
            &bytes[covered..]
        );
    }

    #[test]
    fn hole_in_covered_prefix_is_repaired_around() {
        let s = Seeded::new("prefix");
        let (wal, covered) = (&s.wal, s.covered);
        s.damage(5, 0x80); // first record: squarely inside the covered prefix
        let report = s.quiet_scrub();
        assert_eq!(report.wal_action, WalScrubAction::PrefixDropped);
        assert_eq!(report.wal_valid_bytes, (wal.len() - covered) as u64);
        let left = fs::read(&s.wal_path).unwrap();
        assert_eq!(
            left,
            &wal[covered..],
            "journal must hold exactly the suffix"
        );
        let (recs, rep) = journal::scan(&left);
        assert_eq!(rep.tail_dropped, 0);
        assert_eq!(recs.len(), 2, "the uncovered round survives intact");
        // The checkpoint + rewritten journal still form a consistent
        // pair: the covered-prefix hash no longer matches, so replay
        // starts at 0 — which is exactly where the suffix now begins.
        assert_eq!(s.head().unwrap().replay_offset(&recs), 0);
    }

    #[test]
    fn hole_spanning_into_the_live_region_discards_the_journal() {
        let s = Seeded::new("span");
        let mut bytes = s.damage(5, 0x80); // covered prefix…
        bytes[s.covered + 10] ^= 0x80; // …and the live region
        fs::write(&s.wal_path, &bytes).unwrap();
        let report = s.quiet_scrub();
        assert_eq!(report.wal_action, WalScrubAction::Discarded);
        assert_eq!(report.wal_valid_bytes, 0);
        assert_eq!(report.wal_quarantined_bytes, s.wal.len() as u64);
        assert_eq!(fs::read(&s.wal_path).unwrap().len(), 0);
        // The checkpoint still resumes the campaign: not NothingRecoverable.
        assert!(s.head().is_some());
    }

    #[test]
    fn an_older_layout_journal_is_refused_untouched() {
        let s = Seeded::new("older");
        let mut bytes = s.wal.clone();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let fnv = softborg_obs::fnv1a_step(softborg_obs::FNV_OFFSET, &bytes[12..12 + len]);
        bytes[4..12].copy_from_slice(&fnv.to_le_bytes());
        fs::write(&s.wal_path, &bytes).unwrap();
        assert!(matches!(
            s.scrub(&FlightRecorder::disabled()),
            Err(ScrubError::OlderLayout(_))
        ));
        assert_eq!(fs::read(&s.wal_path).unwrap(), bytes);
        assert!(!quarantine_path(&s.wal_path).exists());
    }

    #[test]
    fn total_loss_is_a_loud_error_not_a_cold_start() {
        let (wal_path, chain) = campaign("total");
        let record = chain.dir().join(format!("chain-{:020}.full", 0));
        fs::write(&record, b"checkpoint-shaped garbage").unwrap();
        fs::write(&wal_path, b"journal-shaped garbage").unwrap();
        assert_eq!(
            scrub_at(&wal_path, &FlightRecorder::disabled()),
            Err(ScrubError::NothingRecoverable)
        );
        // The evidence was still quarantined before the refusal.
        assert!(quarantine_path(&record).exists());
        assert!(quarantine_path(&wal_path).exists());
    }

    #[test]
    fn scrub_records_warn_events_for_every_detection() {
        use softborg_obs::{ManualClock, Severity};
        use std::sync::Arc;
        let mut s = Seeded::new("events");
        s.chain.append(RecordKind::Delta, b"rotten").unwrap();
        s.damage(s.covered + 10, 0xFF);
        let rec = FlightRecorder::new(Arc::new(ManualClock::new(0)), 64);
        s.scrub(&rec).unwrap();
        let events = rec.events();
        for kind in ["chain_record_quarantined", "wal_tail_cut"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == kind && e.severity == Severity::Warn),
                "no Warn {kind} event: {events:?}"
            );
        }
    }
}
