//! Bit-rot scrubber for a campaign's durable files: detect media
//! damage in the delta-chain checkpoint records and the write-ahead
//! journal, quarantine the damaged bytes, and repair around them where
//! a valid older lineage or journal suffix makes that sound — failing
//! loudly (typed [`ScrubError`], Warn flight-recorder events) in every
//! case, never silently ingesting garbage.
//!
//! # What "repair" may and may not do
//!
//! The scrubber never reconstructs lost data; it only ever *discards*
//! bytes that verification already rejected, moving them into
//! `*.quarantined` files so the damage stays inspectable. The
//! interesting decision is where the cut is sound:
//!
//! * A corrupt **chain record** (bad magic, torn body, checksum
//!   mismatch, broken lineage link, or a payload that no longer decodes
//!   as a [`HiveSnapshot`]) is renamed to `<record>.quarantined`;
//!   recovery then proceeds from the surviving lineage, exactly as the
//!   chain load's own fallback would.
//! * Damage in the journal's **unsynced tail** (the classic torn
//!   append) is cut at the last valid record boundary — the same
//!   prefix [`journal::scan`] recovers — with the dropped bytes
//!   preserved in `hive.wal.quarantined`.
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
//! refused before anything is moved or cut.

use crate::journal::{self, JournalIoError};
use crate::snapshot::HiveSnapshot;
use softborg_obs::FlightRecorder;
use softborg_store::record::EnvelopeError;
use softborg_store::record::{self, fsync_parent_dir};
use softborg_store::{ChainReport, ChainStore, RecordKind};
use std::fmt;
use std::fs;
use std::io::Write;
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
}

impl ScrubReport {
    /// `true` when the scrub found no damage anywhere.
    pub fn is_clean(&self) -> bool {
        self.wal_action == WalScrubAction::Clean && self.chain.is_clean()
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

/// `<path>.quarantined` — where condemned bytes are moved, next to the
/// file they came from, so post-mortems can inspect the exact damage.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantined");
    path.with_file_name(name)
}

/// Appends `bytes` to the journal's quarantine file and syncs it.
fn quarantine_wal_bytes(wal_path: &Path, bytes: &[u8]) -> Result<(), ScrubError> {
    let q = quarantine_path(wal_path);
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&q)
        .map_err(|e| io_err("scrub-quarantine-open", &e))?;
    f.write_all(bytes)
        .map_err(|e| io_err("scrub-quarantine-write", &e))?;
    f.sync_all()
        .map_err(|e| io_err("scrub-quarantine-sync", &e))?;
    fsync_parent_dir(&q).map_err(|e| io_err("scrub-dir-fsync", &e))?;
    Ok(())
}

/// Atomically replaces the journal's contents with `bytes`: write a
/// temp file, fsync, rename over `hive.wal`, fsync the directory.
fn rewrite_wal(wal_path: &Path, bytes: &[u8]) -> Result<(), ScrubError> {
    let tmp = wal_path.with_extension("wal.scrub-tmp");
    record::replace(wal_path, &tmp, bytes).map_err(|e| io_err("scrub-rewrite", &e))
}

/// Truncates the journal in place to `len` bytes and syncs.
fn truncate_wal(wal_path: &Path, len: u64) -> Result<(), ScrubError> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(wal_path)
        .map_err(|e| io_err("scrub-truncate-open", &e))?;
    f.set_len(len).map_err(|e| io_err("scrub-truncate", &e))?;
    f.sync_all()
        .map_err(|e| io_err("scrub-truncate-sync", &e))?;
    Ok(())
}

/// Moves one condemned chain record aside and records a Warn event.
fn quarantine_record(
    chain: &ChainStore,
    generation: u64,
    kind: RecordKind,
    why: &dyn fmt::Display,
    obs: &FlightRecorder,
    quarantined: &mut Vec<String>,
) -> Result<(), ScrubError> {
    let Some(q) = chain
        .quarantine(generation, kind)
        .map_err(|e| io_err("scrub-quarantine-chain", &e))?
    else {
        return Ok(());
    };
    // `<record>.quarantined`: the stem is the record's own file name.
    let name = q
        .file_stem()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    obs.warn_or_ops(
        SCRUB_SOURCE,
        "chain_record_quarantined",
        &[("generation", generation)],
        format!("{name}: {why}; moved to {}", q.display()),
    );
    quarantined.push(name);
    Ok(())
}

/// Scrubs one campaign: every chain record that fails validation (bad
/// magic, torn body, checksum mismatch, broken lineage link) is renamed
/// to `*.quarantined`, a record whose payload passes the chain checksum
/// but no longer decodes as a [`HiveSnapshot`] is condemned the same
/// way, and the journal at `wal_path` is then scrubbed against the
/// surviving chain head's coverage (see the [module docs](self)). Every
/// detection records a Warn event under [`SCRUB_SOURCE`].
///
/// # Errors
///
/// [`ScrubError::Io`] on filesystem failures;
/// [`ScrubError::NothingRecoverable`] when chain files or journal bytes
/// existed but no chain record and no journal record survived — resuming
/// would silently cold-start, so the caller must decide explicitly.
pub fn scrub_campaign(
    wal_path: &Path,
    chain: &ChainStore,
    obs: &FlightRecorder,
) -> Result<ScrubReport, ScrubError> {
    let mut quarantined = Vec::new();
    let before = chain.validate();
    if let Some(defect) = before.older_layout() {
        return Err(ScrubError::OlderLayout(defect.file.clone()));
    }
    let had_chain_files = before.records > 0 || !before.defects.is_empty();
    for defect in &before.defects {
        // The filename carries the kind; `ChainDefect::file` is the
        // name validation condemned.
        let kind = if defect.file.ends_with(".full") {
            RecordKind::Full
        } else {
            RecordKind::Delta
        };
        quarantine_record(
            chain,
            defect.generation,
            kind,
            &defect.error,
            obs,
            &mut quarantined,
        )?;
    }
    // The chain layer only vouches for framing and lineage; the payload
    // must still decode as a snapshot. A record that fails that is just
    // as condemned — quarantine and re-walk until the head is usable.
    let (snap, report) = loop {
        let load = chain.load();
        let Some(rec) = load.records.last() else {
            break (None, load.report);
        };
        match HiveSnapshot::decode(&rec.payload) {
            Ok(snap) => break (Some(snap), load.report),
            Err(e) => {
                quarantine_record(chain, rec.generation, rec.kind, &e, obs, &mut quarantined)?;
            }
        }
    };

    let wal = scrub_wal(wal_path, snap.as_ref(), obs)?;
    if (had_chain_files || wal.had_bytes) && snap.is_none() && wal.valid_bytes == 0 {
        return Err(ScrubError::NothingRecoverable);
    }
    Ok(ScrubReport {
        wal_action: wal.action,
        wal_valid_bytes: wal.valid_bytes,
        wal_quarantined_bytes: wal.quarantined_bytes,
        chain: ChainScrub {
            report,
            quarantined,
        },
    })
}

/// What [`scrub_wal`] did to one journal file.
struct WalScrub {
    action: WalScrubAction,
    valid_bytes: u64,
    quarantined_bytes: u64,
    had_bytes: bool,
}

/// The journal half of a campaign scrub: `snap` (the newest valid
/// checkpoint) decides whether damage lies in the covered prefix.
fn scrub_wal(
    wal_path: &Path,
    snap: Option<&HiveSnapshot>,
    obs: &FlightRecorder,
) -> Result<WalScrub, ScrubError> {
    let wal_bytes = match fs::read(wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("scrub-read-wal", &e)),
    };
    let (_, scan) = journal::scan(&wal_bytes);
    if scan.tail_error == Some(EnvelopeError::OlderLayout) {
        return Err(ScrubError::OlderLayout(wal_path.display().to_string()));
    }
    let mut report = WalScrub {
        action: WalScrubAction::Clean,
        valid_bytes: scan.valid_len as u64,
        quarantined_bytes: 0,
        had_bytes: !wal_bytes.is_empty(),
    };
    if scan.tail_dropped > 0 {
        let damage_at = scan.valid_len;
        let covered = snap.map_or(0, |s| s.wal_covered as usize);
        // A file shorter than `covered` proves coverage is stale (the
        // post-compaction truncate completed; true coverage only ever
        // appends): every byte is live. Module docs walk through why
        // each arm is the only sound action in its region.
        if damage_at >= covered || wal_bytes.len() < covered {
            // Everything recovery replays precedes the hole: cut at
            // the last valid record boundary. Records beyond the hole
            // (if any) cannot be replayed across it soundly.
            quarantine_wal_bytes(wal_path, &wal_bytes[damage_at..])?;
            truncate_wal(wal_path, damage_at as u64)?;
            report.action = WalScrubAction::TailCut;
            report.quarantined_bytes = (wal_bytes.len() - damage_at) as u64;
        } else {
            let suffix = &wal_bytes[covered..];
            let (srecs, srep) = journal::scan(suffix);
            if srep.tail_dropped == 0 && !srecs.is_empty() {
                // The covered offset lands on a checksummed record
                // boundary: the prefix is genuinely summarized by the
                // checkpoint, and the intact suffix carries everything
                // the checkpoint lacks.
                quarantine_wal_bytes(wal_path, &wal_bytes[..covered])?;
                rewrite_wal(wal_path, suffix)?;
                report.action = WalScrubAction::PrefixDropped;
                report.valid_bytes = suffix.len() as u64;
                report.quarantined_bytes = covered as u64;
            } else {
                // The prefix may double-apply and the suffix is
                // damaged too: the checkpoint alone is the only state
                // recovery can trust.
                quarantine_wal_bytes(wal_path, &wal_bytes)?;
                truncate_wal(wal_path, 0)?;
                report.action = WalScrubAction::Discarded;
                report.valid_bytes = 0;
                report.quarantined_bytes = wal_bytes.len() as u64;
            }
        }
        let kind = match report.action {
            WalScrubAction::TailCut => "wal_tail_cut",
            WalScrubAction::PrefixDropped => "wal_prefix_dropped",
            WalScrubAction::Discarded => "wal_discarded",
            WalScrubAction::Clean => unreachable!("damage was detected"),
        };
        obs.warn_or_ops(
            SCRUB_SOURCE,
            kind,
            &[
                ("valid_bytes", report.valid_bytes),
                ("quarantined_bytes", report.quarantined_bytes),
            ],
            format!(
                "{}: {}",
                wal_path.display(),
                scan.tail_error
                    .map_or_else(|| "damaged region".to_string(), |e| e.to_string())
            ),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{append_record, REC_FRAME, REC_ROUND, SESSION_ROUND};
    use softborg_store::ChainSource;

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
            scrub_campaign(&self.wal_path, &self.chain, obs)
        }

        fn quiet_scrub(&self) -> ScrubReport {
            self.scrub(&FlightRecorder::disabled()).unwrap()
        }

        /// The snapshot a resume would adopt.
        fn head(&self) -> Option<HiveSnapshot> {
            let load = self.chain.load();
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
        let (wal_path, chain) = campaign("empty");
        let report = scrub_campaign(&wal_path, &chain, &FlightRecorder::disabled()).unwrap();
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
            scrub_campaign(&wal_path, &chain, &FlightRecorder::disabled()),
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
