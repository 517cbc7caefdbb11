//! Deadlock detection and *prediction* from aggregated lock-order pairs.
//!
//! The paper's motivating example (§2): "traces of lock
//! acquisitions/releases in a program's threads can be used to reason
//! about the presence/absence of deadlocks". Each trace contributes its
//! observed `(held → acquired)` pairs; a cycle in the aggregated
//! lock-order graph is a *potential* deadlock even if no execution has
//! deadlocked yet — which is what lets the hive synthesize a
//! deadlock-immunity fix before users are bitten at scale.

use serde::{Deserialize, Serialize};
use softborg_program::codec::{self, CodecError};
use softborg_program::interp::Outcome;
use softborg_program::LockId;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated lock-order graph for one program.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LockOrderGraph {
    /// Edge `(a, b)` with the number of traces that exhibited it.
    edges: BTreeMap<(u32, u32), u64>,
    /// Confirmed deadlock cycles observed in outcomes.
    observed_deadlocks: u64,
    traces_seen: u64,
}

/// A potential or confirmed deadlock pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockPattern {
    /// The locks forming the cycle, in cycle order.
    pub locks: Vec<LockId>,
    /// Traces supporting each edge of the cycle (minimum over edges).
    pub support: u64,
    /// Whether an actual deadlock outcome with these locks was observed.
    pub confirmed: bool,
}

impl LockOrderGraph {
    /// An empty graph.
    pub fn new() -> Self {
        LockOrderGraph::default()
    }

    /// Ingests one trace's lock-order pairs and outcome.
    pub fn ingest(&mut self, lock_pairs: &[(u32, u32)], outcome: &Outcome) {
        self.traces_seen += 1;
        for &(a, b) in lock_pairs {
            *self.edges.entry((a, b)).or_insert(0) += 1;
        }
        if matches!(outcome, Outcome::Deadlock { .. }) {
            self.observed_deadlocks += 1;
        }
    }

    /// Number of traces ingested.
    pub fn traces_seen(&self) -> u64 {
        self.traces_seen
    }

    /// Distinct lock-order edges observed.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Enumerates elementary cycles in the lock-order graph (bounded DFS;
    /// cycles are canonicalized to start at their smallest lock and
    /// deduplicated). Every returned pattern is a potential deadlock.
    pub fn cycles(&self, max_len: usize) -> Vec<DeadlockPattern> {
        let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(a, b) in self.edges.keys() {
            adj.entry(a).or_default().push(b);
        }
        let mut found: BTreeSet<Vec<u32>> = BTreeSet::new();
        let nodes: Vec<u32> = adj.keys().copied().collect();
        for &start in &nodes {
            let mut path = vec![start];
            self.dfs_cycles(&adj, start, start, &mut path, max_len, &mut found);
        }
        found
            .into_iter()
            .map(|cycle| {
                let support = cycle
                    .iter()
                    .zip(cycle.iter().cycle().skip(1))
                    .map(|(a, b)| self.edges.get(&(*a, *b)).copied().unwrap_or(0))
                    .min()
                    .unwrap_or(0);
                DeadlockPattern {
                    locks: cycle.iter().map(|l| LockId::new(*l)).collect(),
                    support,
                    confirmed: self.observed_deadlocks > 0,
                }
            })
            .collect()
    }

    /// Serializes the aggregate for the durable-snapshot byte format.
    /// Deterministic: the edge map is a `BTreeMap`, so iteration order is
    /// stable.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.edges.len() as u32);
        for (&(a, b), &count) in &self.edges {
            codec::put_u32(buf, a);
            codec::put_u32(buf, b);
            codec::put_u64(buf, count);
        }
        codec::put_u64(buf, self.observed_deadlocks);
        codec::put_u64(buf, self.traces_seen);
    }

    /// Decodes an aggregate written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len("LockOrderGraph.edges", 16)?;
        let mut edges = BTreeMap::new();
        for _ in 0..n {
            let a = r.u32("LockOrderGraph.edge.a")?;
            let b = r.u32("LockOrderGraph.edge.b")?;
            edges.insert((a, b), r.u64("LockOrderGraph.edge.count")?);
        }
        Ok(LockOrderGraph {
            edges,
            observed_deadlocks: r.u64("LockOrderGraph.observed_deadlocks")?,
            traces_seen: r.u64("LockOrderGraph.traces_seen")?,
        })
    }

    fn dfs_cycles(
        &self,
        adj: &BTreeMap<u32, Vec<u32>>,
        start: u32,
        cur: u32,
        path: &mut Vec<u32>,
        max_len: usize,
        found: &mut BTreeSet<Vec<u32>>,
    ) {
        if path.len() > max_len {
            return;
        }
        if let Some(nexts) = adj.get(&cur) {
            for &n in nexts {
                if n == start && path.len() >= 2 {
                    // Canonical form: rotate so the smallest lock leads.
                    let min_pos = path
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, v)| **v)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    let mut canon = path[min_pos..].to_vec();
                    canon.extend_from_slice(&path[..min_pos]);
                    found.insert(canon);
                } else if n > start && !path.contains(&n) {
                    // `n > start` ensures each cycle is discovered only
                    // from its smallest node (Johnson-style pruning).
                    path.push(n);
                    self.dfs_cycles(adj, start, n, path, max_len, found);
                    path.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest(g: &mut LockOrderGraph, pairs: &[(u32, u32)], deadlocked: bool) {
        let outcome = if deadlocked {
            Outcome::Deadlock { cycle: vec![] }
        } else {
            Outcome::Success
        };
        g.ingest(pairs, &outcome);
    }

    #[test]
    fn no_pairs_no_cycles() {
        let mut g = LockOrderGraph::new();
        ingest(&mut g, &[], false);
        assert!(g.cycles(4).is_empty());
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let mut g = LockOrderGraph::new();
        ingest(&mut g, &[(0, 1), (1, 2)], false);
        ingest(&mut g, &[(0, 2)], false);
        assert!(g.cycles(4).is_empty());
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn inversion_predicted_without_any_deadlock_outcome() {
        let mut g = LockOrderGraph::new();
        // One user saw 0 -> 1, another saw 1 -> 0: potential deadlock,
        // even though neither execution deadlocked.
        ingest(&mut g, &[(0, 1)], false);
        ingest(&mut g, &[(1, 0)], false);
        let cycles = g.cycles(4);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec![LockId::new(0), LockId::new(1)]);
        assert_eq!(cycles[0].support, 1);
        assert!(!cycles[0].confirmed);
    }

    #[test]
    fn confirmed_flag_set_after_observed_deadlock() {
        let mut g = LockOrderGraph::new();
        ingest(&mut g, &[(0, 1)], false);
        ingest(&mut g, &[(1, 0)], true);
        let cycles = g.cycles(4);
        assert!(cycles[0].confirmed);
        assert_eq!(g.observed_deadlocks, 1);
    }

    #[test]
    fn three_cycle_found_once() {
        let mut g = LockOrderGraph::new();
        ingest(&mut g, &[(0, 1), (1, 2), (2, 0)], false);
        let cycles = g.cycles(4);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks.len(), 3);
        assert_eq!(cycles[0].locks[0], LockId::new(0), "canonical rotation");
    }

    #[test]
    fn support_is_min_edge_count() {
        let mut g = LockOrderGraph::new();
        for _ in 0..5 {
            ingest(&mut g, &[(0, 1)], false);
        }
        ingest(&mut g, &[(1, 0)], false);
        let cycles = g.cycles(4);
        assert_eq!(cycles[0].support, 1);
    }

    #[test]
    fn codec_roundtrip_preserves_aggregate() {
        let mut g = LockOrderGraph::new();
        ingest(&mut g, &[(0, 1), (1, 2)], false);
        ingest(&mut g, &[(1, 0)], true);
        let mut buf = Vec::new();
        g.encode_into(&mut buf);
        let mut r = codec::Reader::new(&buf);
        let back = LockOrderGraph::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.traces_seen(), g.traces_seen());
        assert_eq!(back.observed_deadlocks, g.observed_deadlocks);
        assert_eq!(back.cycles(4), g.cycles(4));
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn max_len_bounds_search() {
        let mut g = LockOrderGraph::new();
        ingest(&mut g, &[(0, 1), (1, 2), (2, 3), (3, 0)], false);
        assert!(g.cycles(3).is_empty(), "4-cycle invisible at max_len 3");
        assert_eq!(g.cycles(4).len(), 1);
    }
}
