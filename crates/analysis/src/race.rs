//! Lockset-based data-race candidate detection over aggregated traces.
//!
//! Each trace carries per-global access summaries (reader/writer thread
//! masks + lockset intersection). Aggregating across the population, a
//! global with multi-thread access, at least one writer, and an empty
//! combined lockset is a race candidate (the Eraser discipline).

use serde::{Deserialize, Serialize};
use softborg_program::codec::{self, CodecError};
use softborg_program::GlobalId;
use softborg_trace::record::GlobalAccessSummary;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated access discipline of one global across a trace population.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GlobalDiscipline {
    reader_mask: u32,
    writer_mask: u32,
    /// Running intersection of per-trace locksets; `None` before the
    /// first contributing trace.
    lockset: Option<BTreeSet<u32>>,
    evidence: u64,
}

/// A data-race candidate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceReport {
    /// The racy global.
    pub global: GlobalId,
    /// Threads that wrote it (bitmask).
    pub writer_mask: u32,
    /// Threads that read it (bitmask).
    pub reader_mask: u32,
    /// Traces contributing evidence.
    pub evidence: u64,
}

/// The population-level race detector.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RaceDetector {
    globals: BTreeMap<u32, GlobalDiscipline>,
}

impl RaceDetector {
    /// An empty detector.
    pub fn new() -> Self {
        RaceDetector::default()
    }

    /// Ingests one trace's global-access summaries. A global's lockset
    /// is allocated on its first summary and intersected in place after
    /// that.
    pub fn ingest(&mut self, summaries: &[GlobalAccessSummary]) {
        for s in summaries {
            let d = self
                .globals
                .entry(s.global)
                .or_insert_with(|| GlobalDiscipline {
                    reader_mask: 0,
                    writer_mask: 0,
                    lockset: None,
                    evidence: 0,
                });
            d.reader_mask |= s.reader_mask;
            d.writer_mask |= s.writer_mask;
            d.evidence += 1;
            match &mut d.lockset {
                None => d.lockset = Some(s.lockset.iter().copied().collect()),
                Some(held) => held.retain(|l| s.lockset.contains(l)),
            }
        }
    }

    /// Serializes the aggregate for the durable-snapshot byte format.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.globals.len() as u32);
        for (&g, d) in &self.globals {
            codec::put_u32(buf, g);
            codec::put_u32(buf, d.reader_mask);
            codec::put_u32(buf, d.writer_mask);
            match &d.lockset {
                None => codec::put_u8(buf, 0),
                Some(set) => {
                    codec::put_u8(buf, 1);
                    codec::put_u32(buf, set.len() as u32);
                    for &l in set {
                        codec::put_u32(buf, l);
                    }
                }
            }
            codec::put_u64(buf, d.evidence);
        }
    }

    /// Decodes an aggregate written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len("RaceDetector.globals", 21)?;
        let mut globals = BTreeMap::new();
        for _ in 0..n {
            let g = r.u32("RaceDetector.global")?;
            let reader_mask = r.u32("GlobalDiscipline.reader_mask")?;
            let writer_mask = r.u32("GlobalDiscipline.writer_mask")?;
            let lockset = match r.u8("GlobalDiscipline.lockset")? {
                0 => None,
                1 => {
                    let k = r.seq_len("GlobalDiscipline.lockset", 4)?;
                    let mut set = BTreeSet::new();
                    for _ in 0..k {
                        set.insert(r.u32("GlobalDiscipline.lock")?);
                    }
                    Some(set)
                }
                tag => {
                    return Err(CodecError::BadTag {
                        what: "GlobalDiscipline.lockset",
                        tag,
                    })
                }
            };
            globals.insert(
                g,
                GlobalDiscipline {
                    reader_mask,
                    writer_mask,
                    lockset,
                    evidence: r.u64("GlobalDiscipline.evidence")?,
                },
            );
        }
        Ok(RaceDetector { globals })
    }

    /// Current race candidates: multi-thread access, ≥1 writer, empty
    /// combined lockset.
    pub fn candidates(&self) -> Vec<RaceReport> {
        self.globals
            .iter()
            .filter(|(_, d)| {
                let threads = d.reader_mask | d.writer_mask;
                d.writer_mask != 0
                    && threads.count_ones() >= 2
                    && d.lockset.as_ref().is_some_and(|s| s.is_empty())
            })
            .map(|(g, d)| RaceReport {
                global: GlobalId::new(*g),
                writer_mask: d.writer_mask,
                reader_mask: d.reader_mask,
                evidence: d.evidence,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(global: u32, readers: u32, writers: u32, lockset: Vec<u32>) -> GlobalAccessSummary {
        GlobalAccessSummary {
            global,
            reader_mask: readers,
            writer_mask: writers,
            lockset,
        }
    }

    #[test]
    fn locked_discipline_is_not_a_race() {
        let mut d = RaceDetector::new();
        d.ingest(&[summary(0, 0b11, 0b11, vec![5])]);
        assert!(d.candidates().is_empty());
    }

    #[test]
    fn single_thread_access_is_not_a_race() {
        let mut d = RaceDetector::new();
        d.ingest(&[summary(0, 0b01, 0b01, vec![])]);
        assert!(d.candidates().is_empty());
    }

    #[test]
    fn read_only_sharing_is_not_a_race() {
        let mut d = RaceDetector::new();
        d.ingest(&[summary(0, 0b11, 0, vec![])]);
        assert!(d.candidates().is_empty());
    }

    #[test]
    fn unlocked_multithread_write_is_a_race() {
        let mut d = RaceDetector::new();
        d.ingest(&[summary(0, 0b10, 0b01, vec![])]);
        let c = d.candidates();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].global, GlobalId::new(0));
    }

    #[test]
    fn discipline_violation_emerges_across_traces() {
        // Trace 1: thread 0 writes under lock 5.
        // Trace 2: thread 1 writes under lock 6.
        // Intersection of locksets is empty -> candidate.
        let mut d = RaceDetector::new();
        d.ingest(&[summary(3, 0, 0b01, vec![5])]);
        assert!(d.candidates().is_empty(), "single thread so far");
        d.ingest(&[summary(3, 0, 0b10, vec![6])]);
        let c = d.candidates();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].evidence, 2);
    }

    #[test]
    fn codec_roundtrip_preserves_disciplines() {
        let mut d = RaceDetector::new();
        d.ingest(&[summary(3, 0b01, 0b01, vec![5])]);
        d.ingest(&[summary(3, 0b10, 0b10, vec![6])]);
        d.ingest(&[summary(7, 0b11, 0, vec![])]);
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        let mut r = codec::Reader::new(&buf);
        let back = RaceDetector::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back.candidates(), d.candidates());
        // The running lockset intersection (None vs Some(∅)) survives.
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn consistent_lock_across_traces_stays_clean() {
        let mut d = RaceDetector::new();
        d.ingest(&[summary(3, 0, 0b01, vec![5, 6])]);
        d.ingest(&[summary(3, 0, 0b10, vec![5])]);
        assert!(d.candidates().is_empty(), "lock 5 protects all accesses");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The in-place lockset intersection equals the set-intersection
        /// reference: the first summary of a global sets its lockset,
        /// every later one intersects it. Locksets may repeat a lock.
        #[test]
        fn in_place_intersection_matches_the_set_reference(
            traces in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..4, 0u32..4, 0u32..4, proptest::collection::vec(0u32..6, 0..5)),
                    0..4,
                ),
                0..24,
            ),
        ) {
            let mut d = RaceDetector::new();
            let mut reference: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for trace in &traces {
                let summaries: Vec<GlobalAccessSummary> = trace
                    .iter()
                    .map(|(g, r, w, locks)| summary(*g, *r, *w, locks.clone()))
                    .collect();
                d.ingest(&summaries);
                for s in &summaries {
                    let set: BTreeSet<u32> = s.lockset.iter().copied().collect();
                    let merged = match reference.get(&s.global) {
                        None => set,
                        Some(prev) => prev.intersection(&set).copied().collect(),
                    };
                    reference.insert(s.global, merged);
                }
            }
            let got: BTreeMap<u32, BTreeSet<u32>> = d
                .globals
                .iter()
                .map(|(&g, disc)| (g, disc.lockset.clone().expect("seen at least once")))
                .collect();
            proptest::prop_assert_eq!(got, reference);
        }
    }
}
