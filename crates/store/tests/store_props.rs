//! Property suites for the delta-chain format: records round-trip
//! exactly, and every byte-level damage mode — torn tails, flipped
//! bits, truncated chains — produces a typed error, never a panic. Runs at `PROPTEST_CASES` like the snapshot suites.

use proptest::prelude::*;
use softborg_store::chain::{decode_record, encode_record, ChainSource, ChainStore, RecordKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

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
}
