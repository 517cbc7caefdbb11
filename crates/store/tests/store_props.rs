//! Property suites for the delta-chain format: records round-trip
//! exactly, every byte-level damage mode — torn tails, flipped bits,
//! truncated chains — produces a typed error, never a panic, and
//! quarantining what an open reports leaves a chain that opens clean.
//! Runs at `PROPTEST_CASES` like the snapshot suites.

use proptest::prelude::*;
use softborg_store::chain::{decode_record, encode_record, ChainSource, ChainStore, RecordKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Every file in `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap().filter_map(Result::ok);
    let mut files: Vec<PathBuf> = entries.map(|e| e.path()).collect();
    files.sort();
    files
}

fn scratch(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "softborg-store-props-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #[test]
    fn chain_record_roundtrips(
        full in any::<bool>(),
        generation in any::<u64>(),
        parent in any::<u64>(),
        payload in collection::vec(any::<u8>(), 0..256),
    ) {
        let kind = if full { RecordKind::Full } else { RecordKind::Delta };
        let bytes = encode_record(kind, generation, parent, &payload);
        let d = decode_record(&bytes).expect("clean record decodes");
        prop_assert_eq!(d.kind, kind);
        prop_assert_eq!(d.generation, generation);
        prop_assert_eq!(d.parent, parent);
        prop_assert_eq!(d.payload, &payload[..]);
    }

    #[test]
    fn torn_chain_record_is_a_typed_error(
        payload in collection::vec(any::<u8>(), 0..128),
        cut_seed in any::<u32>(),
    ) {
        let bytes = encode_record(RecordKind::Delta, 3, 17, &payload);
        let cut = cut_seed as usize % bytes.len();
        prop_assert!(decode_record(&bytes[..cut]).is_err());
    }

    #[test]
    fn flipped_chain_record_is_rejected(
        payload in collection::vec(any::<u8>(), 0..128),
        pos_seed in any::<u32>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode_record(RecordKind::Full, 9, 0, &payload);
        let pos = pos_seed as usize % bytes.len();
        bytes[pos] ^= mask;
        prop_assert!(decode_record(&bytes).is_err());
    }

    /// A chain with one record file damaged at an arbitrary byte never
    /// panics on load; what loads is always a validated prefix (a full
    /// followed by consecutively-linked deltas, payloads intact); and
    /// the damage is always reported — never silent.
    #[test]
    fn damaged_chain_loads_a_validated_prefix(
        payloads in collection::vec(collection::vec(any::<u8>(), 1..48), 1..8),
        rebase_every in 1usize..4,
        victim_seed in any::<u32>(),
        pos_seed in any::<u32>(),
        mask in 1u8..=255,
    ) {
        let dir = scratch("prefix");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            let kind = if i % rebase_every == 0 { RecordKind::Full } else { RecordKind::Delta };
            c.append(kind, p).unwrap();
        }
        // Damage one surviving record file.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap()
            .filter_map(Result::ok).map(|e| e.path()).collect();
        files.sort();
        let victim = &files[victim_seed as usize % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        let pos = pos_seed as usize % bytes.len();
        bytes[pos] ^= mask;
        std::fs::write(victim, &bytes).unwrap();

        let load = ChainStore::open(&dir).unwrap().1;
        if let Some(first) = load.records.first() {
            prop_assert_eq!(first.kind, RecordKind::Full);
            for w in load.records.windows(2) {
                prop_assert_eq!(w[1].kind, RecordKind::Delta);
                prop_assert_eq!(w[1].generation, w[0].generation + 1);
            }
            // Whatever loaded matches what was appended at those
            // generations (pruning keeps generation numbers aligned).
            for r in &load.records {
                prop_assert_eq!(&r.payload, &payloads[r.generation as usize]);
            }
        } else {
            prop_assert_eq!(load.report.source, ChainSource::None);
        }
        prop_assert!(!load.report.is_clean(), "damage is never silent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Generation fallback: tear the newest full record at any byte and
    /// the load adopts the previous full's lineage — every record of it,
    /// payloads intact — while reporting the torn record.
    #[test]
    fn torn_newest_full_falls_back_to_the_previous_lineage(
        older in collection::vec(collection::vec(any::<u8>(), 1..48), 1..5),
        newest in collection::vec(any::<u8>(), 1..48),
        cut_seed in any::<u32>(),
    ) {
        let dir = scratch("fallback");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        for (i, p) in older.iter().enumerate() {
            let kind = if i == 0 { RecordKind::Full } else { RecordKind::Delta };
            c.append(kind, p).unwrap();
        }
        let g = c.append(RecordKind::Full, &newest).unwrap();
        let path = dir.join(format!("chain-{g:020}.full"));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut_seed as usize % bytes.len()]).unwrap();

        let load = ChainStore::open(&dir).unwrap().1;
        prop_assert_eq!(load.report.source, ChainSource::Fallback);
        prop_assert_eq!(load.report.full_generation, Some(0));
        let loaded: Vec<&Vec<u8>> = load.records.iter().map(|r| &r.payload).collect();
        prop_assert_eq!(loaded, older.iter().collect::<Vec<_>>());
        prop_assert!(load.report.defects.iter().any(|d| d.generation == g));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-opening after quarantine is clean: a random chain (fulls,
    /// deltas, rebases) under a random set of damage — bit flips, cuts,
    /// removals, extra files, renames to a non-canonical name — opens
    /// without a panic, and once every reported defect is quarantined a
    /// fresh open reads clean, adopts the same lineage and builds the
    /// index the quarantining store kept.
    #[test]
    fn reopening_after_quarantine_is_clean(
        fulls in collection::vec(any::<bool>(), 1..10),
        damage in collection::vec((0u8..5, any::<u32>(), any::<u32>(), 1u8..=255), 0..5),
    ) {
        let dir = scratch("quarantine");
        let (mut c, _) = ChainStore::open(&dir).unwrap();
        for (i, full) in fulls.iter().enumerate() {
            let kind = if i == 0 || *full { RecordKind::Full } else { RecordKind::Delta };
            c.append(kind, &(i as u64).to_le_bytes()).unwrap();
        }
        for (what, a, b, mask) in damage {
            let files = listing(&dir);
            let victim = files.get(a as usize % files.len().max(1));
            match (what, victim) {
                (0, Some(v)) => {
                    let mut bytes = std::fs::read(v).unwrap();
                    let len = bytes.len().max(1);
                    if let Some(byte) = bytes.get_mut(b as usize % len) {
                        *byte ^= mask;
                    }
                    std::fs::write(v, bytes).unwrap();
                }
                (1, Some(v)) => {
                    let bytes = std::fs::read(v).unwrap();
                    std::fs::write(v, &bytes[..b as usize % bytes.len().max(1)]).unwrap();
                }
                (2, Some(v)) => std::fs::remove_file(v).unwrap(),
                (3, _) => {
                    // An extra file: junk, an intact full (parent 0) or
                    // delta, or a copy of another record's bytes.
                    let g = u64::from(a % 12);
                    let kind = if mask % 2 == 0 { RecordKind::Full } else { RecordKind::Delta };
                    let bytes = match (b % 3, victim) {
                        (1, _) => encode_record(kind, g, u64::from(b % 2) * u64::from(a), b"extra"),
                        (2, Some(v)) => std::fs::read(v).unwrap(),
                        _ => vec![mask; b as usize % 40],
                    };
                    let ext = if kind == RecordKind::Full { "full" } else { "delta" };
                    std::fs::write(dir.join(format!("chain-{g:020}.{ext}")), bytes).unwrap();
                }
                (4, Some(v)) => {
                    // The same generation and kind, without the padding.
                    let name = v.file_name().unwrap().to_str().unwrap();
                    let (g, ext) = name["chain-".len()..].split_once('.').unwrap();
                    let g: u64 = g.parse().unwrap();
                    std::fs::rename(v, dir.join(format!("chain-{g}.{ext}"))).unwrap();
                }
                _ => {}
            }
        }

        let (mut c, load) = ChainStore::open(&dir).unwrap();
        for d in &load.report.defects {
            c.quarantine(&d.file).unwrap();
        }
        let (reopened, again) = ChainStore::open(&dir).unwrap();
        prop_assert_eq!(c.files(), reopened.files(), "the index after quarantine is a fresh open's");
        prop_assert!(again.report.is_clean(), "{:?} after {:?}", again.report, load.report);
        prop_assert_eq!(again.report.full_generation, load.report.full_generation);
        prop_assert_eq!(again.report.head_generation, load.report.head_generation);
        prop_assert_eq!(again.records, load.records);
        // Without a lineage no record file can ever apply: none is left.
        let quarantined = |p: &PathBuf| p.extension().is_some_and(|x| x == "quarantined");
        let left = listing(&dir).iter().filter(|p| !quarantined(p)).count();
        prop_assert!(again.report.source != ChainSource::None || left == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
