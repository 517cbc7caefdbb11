//! SoftBorg's own diagnosis: exact failure sites from outcomes plus
//! trigger localization from the execution tree.
//!
//! Because pods label outcomes and ship full (reconstructible) paths, a
//! single failing trace already pins the crash site. What the execution
//! tree adds is the *trigger*: the branch arm that best separates
//! failing subtrees from passing ones — the condition a fix guard should
//! test (paper §3.3: bugs are "program behaviors that must be corrected
//! in order to make the proof possible").

use serde::{Deserialize, Serialize};
use softborg_program::cfg::Loc;
use softborg_program::codec::{self, CodecError};
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::{BranchSiteId, LockId, ThreadId};
use softborg_tree::{ExecutionTree, NodeId};
use std::collections::BTreeMap;

/// One diagnosed failure mode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Failure class label.
    pub class: String,
    /// Exact crash site (crashes only).
    pub loc: Option<Loc>,
    /// Crash kind (crashes only).
    pub kind: Option<CrashKind>,
    /// Locks involved (deadlocks only).
    pub locks: Vec<LockId>,
    /// Stuck locations (hangs only).
    pub stuck: Vec<Loc>,
    /// Failing traces attributed to this mode.
    pub count: u64,
    /// Index (in ingestion order) of the first failing trace.
    pub first_seen: u64,
}

/// The signature a failing outcome's mode is filed under — the key
/// [`FailureLedger::encode_into`] writes — or `None` for a success.
pub fn failure_key(outcome: &Outcome) -> Option<String> {
    match outcome {
        Outcome::Success => None,
        Outcome::Crash { loc, kind } => Some(format!("crash:{loc}:{kind:?}")),
        Outcome::Deadlock { cycle } => Some(format!("deadlock:{:?}", cycle_locks(cycle))),
        Outcome::Hang { stuck } => Some(format!("hang:{stuck:?}")),
    }
}

/// A deadlock cycle's locks, sorted and deduplicated: the same locks in
/// any thread order are one mode.
fn cycle_locks(cycle: &[(ThreadId, LockId)]) -> Vec<LockId> {
    let mut locks: Vec<LockId> = cycle.iter().map(|(_, l)| *l).collect();
    locks.sort();
    locks.dedup();
    locks
}

/// Aggregates failures into diagnoses keyed by their precise signature.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailureLedger {
    modes: BTreeMap<String, Diagnosis>,
    executions: u64,
    failures: u64,
}

impl FailureLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        FailureLedger::default()
    }

    /// Ingests one execution's outcome, filed under `key`, which must be
    /// [`failure_key`]`(outcome)`: callers derive it once per distinct
    /// trace (the ingest memo keeps it). A known mode is found by key
    /// without allocating; only a mode's first failure allocates its key
    /// and diagnosis.
    pub fn ingest(&mut self, outcome: &Outcome, key: Option<&str>) {
        debug_assert_eq!(key.is_some(), outcome.is_failure());
        self.executions += 1;
        let Some(key) = key else {
            return;
        };
        let first_seen = self.failures;
        self.failures += 1;
        if let Some(d) = self.modes.get_mut(key) {
            d.count += 1;
            return;
        }
        let (class, loc, kind, locks, stuck) = match outcome {
            Outcome::Crash { loc, kind } => ("crash", Some(*loc), Some(*kind), vec![], vec![]),
            Outcome::Deadlock { cycle } => ("deadlock", None, None, cycle_locks(cycle), vec![]),
            Outcome::Hang { stuck } => ("hang", None, None, vec![], stuck.clone()),
            Outcome::Success => unreachable!("a success has no key"),
        };
        let diagnosis = Diagnosis {
            class: class.into(),
            loc,
            kind,
            locks,
            stuck,
            count: 1,
            first_seen,
        };
        self.modes.insert(key.to_owned(), diagnosis);
    }

    /// All diagnoses, most frequent first.
    pub fn diagnoses(&self) -> Vec<&Diagnosis> {
        let mut v: Vec<&Diagnosis> = self.modes.values().collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.first_seen.cmp(&b.first_seen)));
        v
    }

    /// Total executions / failures seen.
    pub fn totals(&self) -> (u64, u64) {
        (self.executions, self.failures)
    }

    /// Serializes the ledger for the durable-snapshot byte format.
    /// Deterministic: modes live in a `BTreeMap` keyed by signature.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.modes.len() as u32);
        for (key, d) in &self.modes {
            codec::put_str(buf, key);
            codec::put_str(buf, &d.class);
            match &d.loc {
                None => codec::put_u8(buf, 0),
                Some(loc) => {
                    codec::put_u8(buf, 1);
                    loc.encode_into(buf);
                }
            }
            match &d.kind {
                None => codec::put_u8(buf, 0),
                Some(kind) => {
                    codec::put_u8(buf, 1);
                    kind.encode_into(buf);
                }
            }
            codec::put_u32(buf, d.locks.len() as u32);
            for l in &d.locks {
                codec::put_u32(buf, l.0);
            }
            codec::put_u32(buf, d.stuck.len() as u32);
            for loc in &d.stuck {
                loc.encode_into(buf);
            }
            codec::put_u64(buf, d.count);
            codec::put_u64(buf, d.first_seen);
        }
        codec::put_u64(buf, self.executions);
        codec::put_u64(buf, self.failures);
    }

    /// Decodes a ledger written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len("FailureLedger.modes", 40)?;
        let mut modes = BTreeMap::new();
        for _ in 0..n {
            let key = r.str("FailureLedger.key")?.to_string();
            let class = r.str("Diagnosis.class")?.to_string();
            let loc = match r.u8("Diagnosis.loc")? {
                0 => None,
                1 => Some(Loc::decode(r)?),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "Diagnosis.loc",
                        tag,
                    })
                }
            };
            let kind = match r.u8("Diagnosis.kind")? {
                0 => None,
                1 => Some(CrashKind::decode(r)?),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "Diagnosis.kind",
                        tag,
                    })
                }
            };
            let n_locks = r.seq_len("Diagnosis.locks", 4)?;
            let mut locks = Vec::with_capacity(n_locks);
            for _ in 0..n_locks {
                locks.push(LockId::new(r.u32("Diagnosis.lock")?));
            }
            let n_stuck = r.seq_len("Diagnosis.stuck", 12)?;
            let mut stuck = Vec::with_capacity(n_stuck);
            for _ in 0..n_stuck {
                stuck.push(Loc::decode(r)?);
            }
            let count = r.u64("Diagnosis.count")?;
            let first_seen = r.u64("Diagnosis.first_seen")?;
            modes.insert(
                key,
                Diagnosis {
                    class,
                    loc,
                    kind,
                    locks,
                    stuck,
                    count,
                    first_seen,
                },
            );
        }
        Ok(FailureLedger {
            modes,
            executions: r.u64("FailureLedger.executions")?,
            failures: r.u64("FailureLedger.failures")?,
        })
    }
}

/// A branch arm ranked by failure discrimination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuspiciousArm {
    /// Node in the execution tree.
    pub node: NodeId,
    /// Site of the discriminating branch.
    pub site: BranchSiteId,
    /// Failing direction.
    pub taken: bool,
    /// Failure rate inside the arm's subtree.
    pub arm_failure_rate: f64,
    /// Failure rate of the sibling arm's subtree.
    pub sibling_failure_rate: f64,
    /// Executions through the arm.
    pub support: u64,
}

impl SuspiciousArm {
    /// The discrimination score: arm failure rate minus sibling failure
    /// rate.
    pub fn score(&self) -> f64 {
        self.arm_failure_rate - self.sibling_failure_rate
    }
}

/// Ranks tree arms by how sharply they separate failing from passing
/// subtrees. The top arm is the bug's *trigger condition* candidate.
pub fn suspicious_arms(tree: &ExecutionTree, min_support: u64) -> Vec<SuspiciousArm> {
    let mut out = Vec::new();
    for i in 0..tree.node_count() {
        let id = NodeId(i as u32);
        let node = tree.node(id);
        for site in node.sites() {
            let children = [false, true].map(|d| (d, node.child(site, d)));
            for (dir, child) in &children {
                let Some(child) = child else { continue };
                let child_visits = tree.node(*child).visits;
                if child_visits < min_support {
                    continue;
                }
                let arm_failures = tree.subtree_failures(*child);
                let sibling = children
                    .iter()
                    .find(|(d, _)| d != dir)
                    .and_then(|(_, c)| *c);
                let (sib_failures, sib_visits) = match sibling {
                    Some(s) => (tree.subtree_failures(s), tree.node(s).visits),
                    None => (0, 0),
                };
                let arm_rate = arm_failures as f64 / child_visits as f64;
                let sib_rate = if sib_visits > 0 {
                    sib_failures as f64 / sib_visits as f64
                } else {
                    0.0
                };
                if arm_rate > sib_rate {
                    out.push(SuspiciousArm {
                        node: id,
                        site,
                        taken: *dir,
                        arm_failure_rate: arm_rate,
                        sibling_failure_rate: sib_rate,
                        support: child_visits,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.support.cmp(&a.support))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::{BlockId, ProgramId};

    fn s(i: u32) -> BranchSiteId {
        BranchSiteId::new(i)
    }

    fn crash_outcome(block: u32) -> Outcome {
        Outcome::Crash {
            loc: Loc {
                thread: ThreadId::new(0),
                block: BlockId::new(block),
                stmt: 0,
            },
            kind: CrashKind::AssertFailed,
        }
    }

    fn ingest(l: &mut FailureLedger, outcome: Outcome) {
        l.ingest(&outcome, failure_key(&outcome).as_deref());
    }

    #[test]
    fn ledger_groups_by_exact_signature() {
        let mut l = FailureLedger::new();
        ingest(&mut l, Outcome::Success);
        ingest(&mut l, crash_outcome(3));
        ingest(&mut l, crash_outcome(3));
        ingest(&mut l, crash_outcome(4));
        let d = l.diagnoses();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].count, 2);
        assert_eq!(d[0].loc.unwrap().block, BlockId::new(3));
        assert_eq!(l.totals(), (4, 3));
    }

    #[test]
    fn deadlock_signature_uses_lock_set() {
        let mut l = FailureLedger::new();
        ingest(
            &mut l,
            Outcome::Deadlock {
                cycle: vec![
                    (ThreadId::new(0), LockId::new(1)),
                    (ThreadId::new(1), LockId::new(0)),
                ],
            },
        );
        // Same locks, different thread order -> same mode.
        ingest(
            &mut l,
            Outcome::Deadlock {
                cycle: vec![
                    (ThreadId::new(1), LockId::new(0)),
                    (ThreadId::new(0), LockId::new(1)),
                ],
            },
        );
        let d = l.diagnoses();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].count, 2);
        assert_eq!(d[0].locks, vec![LockId::new(0), LockId::new(1)]);
    }

    #[test]
    fn codec_roundtrip_preserves_ledger() {
        let mut l = FailureLedger::new();
        ingest(&mut l, Outcome::Success);
        ingest(&mut l, crash_outcome(3));
        ingest(
            &mut l,
            Outcome::Deadlock {
                cycle: vec![
                    (ThreadId::new(0), LockId::new(1)),
                    (ThreadId::new(1), LockId::new(0)),
                ],
            },
        );
        ingest(
            &mut l,
            Outcome::Hang {
                stuck: vec![Loc {
                    thread: ThreadId::new(1),
                    block: BlockId::new(2),
                    stmt: 5,
                }],
            },
        );
        let mut buf = Vec::new();
        l.encode_into(&mut buf);
        let mut r = codec::Reader::new(&buf);
        let back = FailureLedger::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back.totals(), l.totals());
        assert_eq!(back.diagnoses(), l.diagnoses());
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
    }

    /// The one mode key `encode_into` writes after ingesting `outcome`
    /// twice (the second ingest must find the first's mode).
    fn encoded_key(outcome: Outcome) -> String {
        let mut l = FailureLedger::new();
        ingest(&mut l, outcome.clone());
        ingest(&mut l, outcome);
        let mut buf = Vec::new();
        l.encode_into(&mut buf);
        let mut r = codec::Reader::new(&buf);
        assert_eq!(r.u32("modes").unwrap(), 1);
        r.str("key").unwrap().to_string()
    }

    #[test]
    fn crash_key_is_pinned() {
        let outcome = Outcome::Crash {
            loc: Loc {
                thread: ThreadId::new(1),
                block: BlockId::new(3),
                stmt: 2,
            },
            kind: CrashKind::DivByZero,
        };
        assert_eq!(encoded_key(outcome), "crash:t1:bb3:2:DivByZero");
    }

    #[test]
    fn hang_key_is_pinned() {
        let loc = |thread, block, stmt| Loc {
            thread: ThreadId::new(thread),
            block: BlockId::new(block),
            stmt,
        };
        let outcome = Outcome::Hang {
            stuck: vec![loc(1, 4, 0), loc(0, 2, 7)],
        };
        assert_eq!(
            encoded_key(outcome),
            "hang:[Loc { thread: ThreadId(1), block: BlockId(4), stmt: 0 }, \
             Loc { thread: ThreadId(0), block: BlockId(2), stmt: 7 }]"
        );
    }

    #[test]
    fn deadlock_key_sorts_and_dedups_cycle_locks() {
        let outcome = Outcome::Deadlock {
            cycle: vec![
                (ThreadId::new(0), LockId::new(5)),
                (ThreadId::new(1), LockId::new(2)),
                (ThreadId::new(2), LockId::new(5)),
                (ThreadId::new(3), LockId::new(0)),
            ],
        };
        assert_eq!(
            encoded_key(outcome),
            "deadlock:[LockId(0), LockId(2), LockId(5)]"
        );
    }

    #[test]
    fn suspicious_arm_separates_failing_subtree() {
        let mut tree = ExecutionTree::new(ProgramId(1));
        // Arm (0,true) fails 8/10; arm (0,false) fails 0/30.
        for _ in 0..8 {
            tree.merge_path(&[(s(0), true)], &crash_outcome(1));
        }
        for _ in 0..2 {
            tree.merge_path(&[(s(0), true)], &Outcome::Success);
        }
        for _ in 0..30 {
            tree.merge_path(&[(s(0), false)], &Outcome::Success);
        }
        let arms = suspicious_arms(&tree, 1);
        assert!(!arms.is_empty());
        assert_eq!(arms[0].site, s(0));
        assert!(arms[0].taken);
        assert!(arms[0].score() > 0.7, "score {}", arms[0].score());
    }

    #[test]
    fn min_support_filters_noise() {
        let mut tree = ExecutionTree::new(ProgramId(1));
        tree.merge_path(&[(s(0), true)], &crash_outcome(1));
        tree.merge_path(&[(s(0), false)], &Outcome::Success);
        assert!(suspicious_arms(&tree, 5).is_empty());
        assert!(!suspicious_arms(&tree, 1).is_empty());
    }

    #[test]
    fn deeper_trigger_outranks_shallow_noise() {
        let mut tree = ExecutionTree::new(ProgramId(1));
        // Failures only under (0,true)->(1,false).
        for _ in 0..10 {
            tree.merge_path(&[(s(0), true), (s(1), false)], &crash_outcome(2));
        }
        for _ in 0..10 {
            tree.merge_path(&[(s(0), true), (s(1), true)], &Outcome::Success);
        }
        for _ in 0..20 {
            tree.merge_path(&[(s(0), false)], &Outcome::Success);
        }
        let arms = suspicious_arms(&tree, 1);
        assert_eq!(arms[0].site, s(1));
        assert!(!arms[0].taken);
        assert!((arms[0].score() - 1.0).abs() < 1e-9);
    }
}
