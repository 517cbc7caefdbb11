//! The collective execution tree (paper §3.2, Figures 2 & 3).
//!
//! Every program encodes a decision tree; each execution materializes one
//! root-to-leaf path. The hive aggregates naturally-occurring paths into
//! an (incomplete) execution tree: merging a path walks the existing tree
//! from the root, finds the lowest common ancestor — the first divergence
//! point — and splices the new suffix in. Because every merged path came
//! from a real execution, every node is *feasible by construction*; no
//! constraint solving is needed (the paper's key observation).
//!
//! Nodes carry visit and outcome tallies; arms can be marked *infeasible*
//! by symbolic analysis, which is what lets finite exploration close a
//! subtree (and ultimately yield a proof, §3.3).
//!
//! The arena is a plain in-memory `Vec` of nodes, kept small by proving
//! subtrees complete rather than by spilling it to disk. The tree also
//! tracks which nodes changed since the last
//! [`mark_clean`](ExecutionTree::mark_clean), which is what lets the
//! durability layer snapshot a *delta*
//! ([`encode_delta_into`](ExecutionTree::encode_delta_into)) instead of
//! the whole arena.

use serde::{Deserialize, Serialize};
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::codec::{self, CodecError};
use softborg_program::interp::Outcome;
use softborg_program::{BranchSiteId, ProgramId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Index of a node in the tree arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node's id.
    pub const ROOT: NodeId = NodeId(0);

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Counts of execution outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeTally {
    /// Successful terminations.
    pub success: u64,
    /// Crashes.
    pub crash: u64,
    /// Deadlocks.
    pub deadlock: u64,
    /// Hangs.
    pub hang: u64,
}

impl OutcomeTally {
    /// Adds one outcome.
    pub fn add(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Success => self.success += 1,
            Outcome::Crash { .. } => self.crash += 1,
            Outcome::Deadlock { .. } => self.deadlock += 1,
            Outcome::Hang { .. } => self.hang += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &OutcomeTally) {
        self.success += other.success;
        self.crash += other.crash;
        self.deadlock += other.deadlock;
        self.hang += other.hang;
    }

    /// Total outcomes counted.
    pub fn total(&self) -> u64 {
        self.success + self.crash + self.deadlock + self.hang
    }

    /// Non-success outcomes counted.
    pub fn failures(&self) -> u64 {
        self.crash + self.deadlock + self.hang
    }
}

/// One decision edge out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct EdgeRec {
    site: BranchSiteId,
    taken: bool,
    child: NodeId,
}

/// A node of the execution tree: the state "after this decision prefix".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Incoming edge (parent, site, taken); `None` for the root.
    parent: Option<(NodeId, BranchSiteId, bool)>,
    /// Outgoing decision edges (usually one site with up to two arms;
    /// thread interleavings can surface different sites at one prefix).
    edges: Vec<EdgeRec>,
    /// Arms proven infeasible by symbolic analysis.
    infeasible: Vec<(BranchSiteId, bool)>,
    /// Executions that passed through this node.
    pub visits: u64,
    /// Executions that *ended* at this node, by outcome.
    pub terminal: OutcomeTally,
}

impl Node {
    fn new(parent: Option<(NodeId, BranchSiteId, bool)>) -> Self {
        Node {
            parent,
            edges: Vec::new(),
            infeasible: Vec::new(),
            visits: 0,
            terminal: OutcomeTally::default(),
        }
    }

    /// The child along `(site, taken)`, if explored.
    pub fn child(&self, site: BranchSiteId, taken: bool) -> Option<NodeId> {
        self.edges
            .iter()
            .find(|e| e.site == site && e.taken == taken)
            .map(|e| e.child)
    }

    /// Branch sites observed at this node.
    pub fn sites(&self) -> Vec<BranchSiteId> {
        let mut s: Vec<BranchSiteId> = self.edges.iter().map(|e| e.site).collect();
        s.sort();
        s.dedup();
        s
    }

    /// Whether `(site, taken)` has been proven infeasible here.
    pub fn is_infeasible(&self, site: BranchSiteId, taken: bool) -> bool {
        self.infeasible.contains(&(site, taken))
    }

    /// `true` when at least one execution terminated here.
    pub fn is_terminal(&self) -> bool {
        self.terminal.total() > 0
    }

    /// The one branch site every outgoing edge shares, if there are
    /// edges and they agree (the allocation-free common case of
    /// [`sites`](Self::sites)).
    fn single_site(&self) -> Option<BranchSiteId> {
        let site = self.edges.first()?.site;
        self.edges.iter().all(|e| e.site == site).then_some(site)
    }

    /// Calls `f` for every arm of an observed site that is neither
    /// explored nor infeasible, sites ascending, `false` before `true`.
    fn for_each_open_arm(&self, mut f: impl FnMut(BranchSiteId, bool)) {
        let mut arms_of = |site| {
            for taken in [false, true] {
                if self.child(site, taken).is_none() && !self.is_infeasible(site, taken) {
                    f(site, taken);
                }
            }
        };
        match self.single_site() {
            Some(site) => arms_of(site),
            None => self.sites().into_iter().for_each(arms_of),
        }
    }

    /// Whether this node's subtree is closed, given the closure of every
    /// child (the rule [`ExecutionTree::is_closed`] applies per node).
    fn closed_given(&self, closed: &[bool]) -> bool {
        if self.edges.is_empty() {
            return self.is_terminal();
        }
        // Interleaving-divergent nodes (multiple sites) cannot be
        // declared closed: unseen schedules may surface yet more arms.
        let Some(site) = self.single_site() else {
            return false;
        };
        [false, true].into_iter().all(|taken| {
            self.is_infeasible(site, taken)
                || self.child(site, taken).is_some_and(|c| closed[c.index()])
        })
    }
}

/// Writes one node in the durable byte format (shared by full snapshots
/// and delta records — one codec, two containers).
fn encode_node_into(n: &Node, buf: &mut Vec<u8>) {
    match n.parent {
        None => codec::put_u8(buf, 0),
        Some((parent, site, taken)) => {
            codec::put_u8(buf, 1);
            codec::put_u32(buf, parent.0);
            codec::put_u32(buf, site.0);
            codec::put_u8(buf, u8::from(taken));
        }
    }
    codec::put_u32(buf, n.edges.len() as u32);
    for e in &n.edges {
        codec::put_u32(buf, e.site.0);
        codec::put_u8(buf, u8::from(e.taken));
        codec::put_u32(buf, e.child.0);
    }
    codec::put_u32(buf, n.infeasible.len() as u32);
    for (site, taken) in &n.infeasible {
        codec::put_u32(buf, site.0);
        codec::put_u8(buf, u8::from(*taken));
    }
    codec::put_u64(buf, n.visits);
    codec::put_u64(buf, n.terminal.success);
    codec::put_u64(buf, n.terminal.crash);
    codec::put_u64(buf, n.terminal.deadlock);
    codec::put_u64(buf, n.terminal.hang);
}

/// Reads one node written by [`encode_node_into`]; total (typed errors,
/// never panics).
fn decode_node(r: &mut codec::Reader<'_>) -> Result<Node, CodecError> {
    let parent = match r.u8("Node.parent")? {
        0 => None,
        1 => {
            let p = NodeId(r.u32("Node.parent.id")?);
            let site = BranchSiteId::new(r.u32("Node.parent.site")?);
            let taken = r.u8("Node.parent.taken")? != 0;
            Some((p, site, taken))
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "Node.parent",
                tag,
            })
        }
    };
    let n_edges = r.seq_len("Node.edges", 9)?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        edges.push(EdgeRec {
            site: BranchSiteId::new(r.u32("Edge.site")?),
            taken: r.u8("Edge.taken")? != 0,
            child: NodeId(r.u32("Edge.child")?),
        });
    }
    let n_inf = r.seq_len("Node.infeasible", 5)?;
    let mut infeasible = Vec::with_capacity(n_inf);
    for _ in 0..n_inf {
        let site = BranchSiteId::new(r.u32("Infeasible.site")?);
        infeasible.push((site, r.u8("Infeasible.taken")? != 0));
    }
    Ok(Node {
        parent,
        edges,
        infeasible,
        visits: r.u64("Node.visits")?,
        terminal: OutcomeTally {
            success: r.u64("Tally.success")?,
            crash: r.u64("Tally.crash")?,
            deadlock: r.u64("Tally.deadlock")?,
            hang: r.u64("Tally.hang")?,
        },
    })
}

/// Statistics from one path merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeStats {
    /// Nodes created by the splice (0 for an already-known path).
    pub new_nodes: u64,
    /// Depth at which the path diverged from the tree (the LCA depth).
    pub lca_depth: u64,
    /// Total path length merged.
    pub path_len: u64,
    /// Whether this exact path (decisions + terminal) was new.
    pub new_path: bool,
}

/// The distinct-path identity of one merged path: its decisions plus its
/// outcome class. Pure, and the value the tree stores (and snapshots)
/// for [`ExecutionTree::distinct_paths`].
pub fn path_hash(decisions: &[(BranchSiteId, bool)], outcome: &Outcome) -> u64 {
    let mut h = DefaultHasher::new();
    decisions.hash(&mut h);
    std::mem::discriminant(outcome).hash(&mut h);
    h.finish()
}

/// An unexplored arm at the tree frontier — a candidate for guidance
/// (paper §3.3: "identify directions toward which to guide the pods").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierArm {
    /// Node with the unexplored arm.
    pub node: NodeId,
    /// Branch site whose arm is unexplored.
    pub site: BranchSiteId,
    /// The unexplored direction.
    pub missing_taken: bool,
    /// Depth of the node.
    pub depth: u64,
    /// How many executions reached the node (more visits with the other
    /// arm only = rarer arm).
    pub visits: u64,
}

/// Coverage summary for experiment E2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Total tree nodes.
    pub nodes: u64,
    /// Distinct complete paths observed.
    pub distinct_paths: u64,
    /// Distinct branch sites seen anywhere in the tree.
    pub sites_seen: u64,
    /// Total paths merged (including duplicates).
    pub paths_merged: u64,
    /// Unexplored frontier arms.
    pub frontier_arms: u64,
    /// Fraction of nodes inside closed (fully explored) subtrees,
    /// in [0, 1].
    pub closed_fraction: f64,
}

/// Why applying a tree delta was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta payload itself was malformed.
    Codec(CodecError),
    /// The delta was encoded for a different program's tree.
    ProgramMismatch {
        /// Program of the tree being patched.
        expected: u64,
        /// Program recorded in the delta.
        found: u64,
    },
    /// The delta's base node count does not match this tree — the chain
    /// is out of order or a record was skipped.
    BaseMismatch {
        /// Node count the delta was encoded against.
        expected: u32,
        /// Node count of the tree being patched.
        found: u32,
    },
}

impl From<CodecError> for DeltaError {
    fn from(e: CodecError) -> Self {
        DeltaError::Codec(e)
    }
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Codec(e) => write!(f, "malformed tree delta: {e}"),
            DeltaError::ProgramMismatch { expected, found } => {
                write!(
                    f,
                    "tree delta for program {found}, tree is program {expected}"
                )
            }
            DeltaError::BaseMismatch { expected, found } => write!(
                f,
                "tree delta encoded against {expected} nodes, tree has {found}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Per-node facts about a tree, derived from the whole arena in two
/// linear sweeps ([`ExecutionTree::summary`]) instead of one walk per
/// node. A summary describes the tree at the moment it was computed: it
/// is transient, never serialised, and never kept across a mutation.
#[derive(Debug, PartialEq, Eq)]
pub struct TreeSummary {
    depth: Vec<u32>,
    subtree_nodes: Vec<u32>,
    subtree_failures: Vec<u64>,
    closed: Vec<bool>,
}

impl TreeSummary {
    /// Depth of `node` ([`ExecutionTree::depth`]).
    pub fn depth(&self, node: NodeId) -> u64 {
        u64::from(self.depth[node.index()])
    }

    /// Nodes in the subtree rooted at `node`, itself included.
    pub fn subtree_nodes(&self, node: NodeId) -> u64 {
        u64::from(self.subtree_nodes[node.index()])
    }

    /// Failure outcomes recorded in the subtree of `node`
    /// ([`ExecutionTree::subtree_failures`]).
    pub fn subtree_failures(&self, node: NodeId) -> u64 {
        self.subtree_failures[node.index()]
    }

    /// Whether the subtree of `node` is closed
    /// ([`ExecutionTree::is_closed`]).
    pub fn is_closed(&self, node: NodeId) -> bool {
        self.closed[node.index()]
    }

    /// Fraction of nodes inside closed subtrees.
    pub fn closed_fraction(&self) -> f64 {
        let closed_nodes = self.closed.iter().filter(|c| **c).count();
        closed_nodes as f64 / self.closed.len() as f64
    }
}

/// The collective execution tree. See the [module docs](self).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionTree {
    program: ProgramId,
    nodes: Vec<Node>,
    paths_merged: u64,
    distinct_paths: u64,
    path_hashes: HashSet<u64>,
    /// Arena length at the last [`mark_clean`](Self::mark_clean); nodes
    /// beyond it are new since the last snapshot.
    clean_len: usize,
    /// Pre-existing nodes mutated since the last snapshot.
    dirty: BTreeSet<u32>,
    /// Path hashes first seen since the last snapshot.
    fresh_hashes: Vec<u64>,
}

impl ExecutionTree {
    /// An empty tree for `program`.
    pub fn new(program: ProgramId) -> Self {
        ExecutionTree {
            program,
            nodes: vec![Node::new(None)],
            paths_merged: 0,
            distinct_paths: 0,
            path_hashes: HashSet::new(),
            clean_len: 1,
            dirty: BTreeSet::new(),
            fresh_hashes: Vec::new(),
        }
    }

    /// The program this tree describes.
    pub fn program(&self) -> ProgramId {
        self.program
    }

    /// Number of nodes (≥ 1; the root always exists).
    pub fn node_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Total paths merged, including duplicates.
    pub fn paths_merged(&self) -> u64 {
        self.paths_merged
    }

    /// Distinct (path, outcome-class) combinations merged.
    pub fn distinct_paths(&self) -> u64 {
        self.distinct_paths
    }

    /// The node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Records that a pre-snapshot node is about to change.
    fn touch(&mut self, id: NodeId) {
        if id.index() < self.clean_len {
            self.dirty.insert(id.0);
        }
    }

    /// Merges one execution path (global decision sequence + outcome).
    ///
    /// Walks from the root until the first unexplored decision (the LCA of
    /// the new path and the tree), then splices the remaining suffix as
    /// fresh nodes — Figure 3 of the paper.
    pub fn merge_path(
        &mut self,
        decisions: &[(BranchSiteId, bool)],
        outcome: &Outcome,
    ) -> MergeStats {
        self.merge_path_hashed(decisions, outcome, path_hash(decisions, outcome))
    }

    /// [`merge_path`](Self::merge_path) with the path's [`path_hash`]
    /// already computed, so a caller that merges the same path many
    /// times (the ingest memo) hashes it once.
    pub fn merge_path_hashed(
        &mut self,
        decisions: &[(BranchSiteId, bool)],
        outcome: &Outcome,
        hash: u64,
    ) -> MergeStats {
        debug_assert_eq!(hash, path_hash(decisions, outcome));
        self.paths_merged += 1;
        let mut cur = NodeId::ROOT;
        let mut new_nodes = 0u64;
        let mut lca_depth = 0u64;
        self.touch(cur);
        self.nodes[cur.index()].visits += 1;
        for (depth, (site, taken)) in decisions.iter().enumerate() {
            match self.nodes[cur.index()].child(*site, *taken) {
                Some(child) => {
                    cur = child;
                    lca_depth = depth as u64 + 1;
                }
                None => {
                    let child = NodeId(self.nodes.len() as u32);
                    self.nodes.push(Node::new(Some((cur, *site, *taken))));
                    self.touch(cur);
                    self.nodes[cur.index()].edges.push(EdgeRec {
                        site: *site,
                        taken: *taken,
                        child,
                    });
                    new_nodes += 1;
                    cur = child;
                }
            }
            self.touch(cur);
            self.nodes[cur.index()].visits += 1;
        }
        self.touch(cur);
        self.nodes[cur.index()].terminal.add(outcome);

        let new_path = self.path_hashes.insert(hash);
        if new_path {
            self.distinct_paths += 1;
            self.fresh_hashes.push(hash);
        }
        MergeStats {
            new_nodes,
            lca_depth,
            path_len: decisions.len() as u64,
            new_path,
        }
    }

    /// Marks an arm as proven infeasible (from symbolic analysis).
    pub fn mark_infeasible(&mut self, node: NodeId, site: BranchSiteId, taken: bool) {
        self.touch(node);
        let n = &mut self.nodes[node.index()];
        if !n.infeasible.contains(&(site, taken)) {
            n.infeasible.push((site, taken));
        }
    }

    /// The decision prefix leading to `node` (root-first).
    pub fn prefix(&self, node: NodeId) -> Vec<(BranchSiteId, bool)> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some((parent, site, taken)) = self.nodes[cur.index()].parent {
            out.push((site, taken));
            cur = parent;
        }
        out.reverse();
        out
    }

    /// Depth of a node.
    pub fn depth(&self, node: NodeId) -> u64 {
        let mut d = 0;
        let mut cur = node;
        while let Some((parent, ..)) = self.nodes[cur.index()].parent {
            d += 1;
            cur = parent;
        }
        d
    }

    /// Derives depth, subtree size, subtree failures and closure for
    /// every node. Children are always allocated after their parents (an
    /// invariant [`decode`](Self::decode) and
    /// [`apply_delta`](Self::apply_delta) enforce on outside bytes), so
    /// one sweep from the last node to the root sees every child before
    /// its parent, and one sweep from the root down sees every parent
    /// before its child: O(nodes).
    pub fn summary(&self) -> TreeSummary {
        let len = self.nodes.len();
        let mut s = TreeSummary {
            depth: vec![0; len],
            subtree_nodes: vec![1; len],
            subtree_failures: vec![0; len],
            closed: vec![false; len],
        };
        for (i, n) in self.nodes.iter().enumerate().rev() {
            let mut failures = n.terminal.failures();
            for e in &n.edges {
                let c = e.child.index();
                s.subtree_nodes[i] += s.subtree_nodes[c];
                failures = failures.saturating_add(s.subtree_failures[c]);
            }
            s.subtree_failures[i] = failures;
            s.closed[i] = n.closed_given(&s.closed);
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some((parent, ..)) = n.parent {
                s.depth[i] = s.depth[parent.index()] + 1;
            }
        }
        s
    }

    /// Enumerates unexplored arms: nodes where one direction of an
    /// observed site has been taken but the other is neither explored nor
    /// infeasible.
    pub fn frontier(&self) -> Vec<FrontierArm> {
        let summary = self.summary();
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            n.for_each_open_arm(|site, missing_taken| {
                out.push(FrontierArm {
                    node,
                    site,
                    missing_taken,
                    depth: summary.depth(node),
                    visits: n.visits,
                });
            });
        }
        out
    }

    /// Whether the subtree rooted at `node` is *closed*: every observed
    /// site has both arms explored-and-closed or infeasible, and leaves
    /// are genuine terminals. A closed, failure-free subtree is provable
    /// (paper §3.3).
    pub fn is_closed(&self, node: NodeId) -> bool {
        let mut closed = vec![None::<bool>; self.nodes.len()];
        self.closed_rec(node, &mut closed)
    }

    /// Iterative post-order closure computation (paths can be tens of
    /// thousands of decisions deep — hang traces — so recursion would
    /// overflow the stack).
    fn closed_rec(&self, root: NodeId, memo: &mut [Option<bool>]) -> bool {
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if memo[node.index()].is_some() {
                continue;
            }
            let n = &self.nodes[node.index()];
            // A leaf closes iff it is a genuine terminal; an
            // interleaving-divergent node (multiple sites) never closes:
            // unseen schedules may surface yet more arms.
            let Some(site) = n.single_site() else {
                memo[node.index()] = Some(n.edges.is_empty() && n.is_terminal());
                continue;
            };
            if !expanded {
                stack.push((node, true));
                for taken in [false, true] {
                    match n.child(site, taken) {
                        Some(c) if !n.is_infeasible(site, taken) => stack.push((c, false)),
                        _ => {}
                    }
                }
                continue;
            }
            let closed = [false, true].into_iter().all(|taken| {
                n.is_infeasible(site, taken)
                    || n.child(site, taken)
                        .is_some_and(|c| memo[c.index()] == Some(true))
            });
            memo[node.index()] = Some(closed);
        }
        memo[root.index()].unwrap_or(false)
    }

    /// Fraction of nodes inside closed subtrees.
    pub fn closed_fraction(&self) -> f64 {
        self.summary().closed_fraction()
    }

    /// Sum of failure outcomes recorded anywhere in the subtree of `node`.
    pub fn subtree_failures(&self, node: NodeId) -> u64 {
        let mut sum = 0;
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id.index()];
            sum += n.terminal.failures();
            stack.extend(n.edges.iter().map(|e| e.child));
        }
        sum
    }

    /// Coverage summary.
    pub fn coverage(&self) -> CoverageStats {
        let mut sites: HashSet<BranchSiteId> = HashSet::new();
        let mut frontier_arms = 0u64;
        for n in &self.nodes {
            for e in &n.edges {
                sites.insert(e.site);
            }
            n.for_each_open_arm(|_, _| frontier_arms += 1);
        }
        CoverageStats {
            nodes: self.node_count(),
            distinct_paths: self.distinct_paths,
            sites_seen: sites.len() as u64,
            paths_merged: self.paths_merged,
            frontier_arms,
            closed_fraction: self.closed_fraction(),
        }
    }

    /// A structural digest (ignores tallies): two replicas that explored
    /// the same decision structure agree. Iterative pre-order with
    /// push/pop markers (trees can be very deep). FNV-1a over explicit
    /// little-endian bytes, so the value is stable across Rust releases
    /// and platforms — it is stored in proof certificates and compared
    /// across replicas.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        enum Item {
            Enter(NodeId),
            Exit,
        }
        let mut stack = vec![Item::Enter(NodeId::ROOT)];
        while let Some(item) = stack.pop() {
            match item {
                Item::Exit => h = fnv1a_step(h, &0xE21Du16.to_le_bytes()),
                Item::Enter(node) => {
                    let n = &self.nodes[node.index()];
                    let mut edges: Vec<&EdgeRec> = n.edges.iter().collect();
                    edges.sort_by_key(|e| (e.site, e.taken));
                    h = fnv1a_step(h, &[u8::from(n.is_terminal())]);
                    h = fnv1a_step(h, &(edges.len() as u64).to_le_bytes());
                    stack.push(Item::Exit);
                    // Hash labels in sorted order; push children in
                    // reverse so traversal visits edges in sorted order.
                    for e in &edges {
                        h = fnv1a_step(h, &e.site.0.to_le_bytes());
                        h = fnv1a_step(h, &[u8::from(e.taken)]);
                    }
                    stack.extend(edges.iter().rev().map(|e| Item::Enter(e.child)));
                }
            }
        }
        h
    }

    /// Merges another tree for the same program into this one (used by
    /// distributed hive synchronization): structure is unioned, tallies
    /// are summed.
    pub fn absorb(&mut self, other: &ExecutionTree) {
        // Iterative pairing walk (deep trees would overflow a recursive
        // version's stack).
        let mut stack: Vec<(NodeId, NodeId)> = vec![(NodeId::ROOT, NodeId::ROOT)];
        while let Some((mine, theirs)) = stack.pop() {
            let their_node = &other.nodes[theirs.index()];
            self.touch(mine);
            let n = &mut self.nodes[mine.index()];
            n.visits += their_node.visits;
            n.terminal.merge(&their_node.terminal);
            for inf in &their_node.infeasible {
                if !n.infeasible.contains(inf) {
                    n.infeasible.push(*inf);
                }
            }
            for e in &their_node.edges {
                let child = match self.nodes[mine.index()].child(e.site, e.taken) {
                    Some(c) => c,
                    None => {
                        let c = NodeId(self.nodes.len() as u32);
                        self.nodes.push(Node::new(Some((mine, e.site, e.taken))));
                        self.nodes[mine.index()].edges.push(EdgeRec {
                            site: e.site,
                            taken: e.taken,
                            child: c,
                        });
                        c
                    }
                };
                stack.push((child, e.child));
            }
        }
        self.paths_merged += other.paths_merged;
        for h in &other.path_hashes {
            if self.path_hashes.insert(*h) {
                self.distinct_paths += 1;
                self.fresh_hashes.push(*h);
            }
        }
    }

    /// Serializes the full tree (structure *and* tallies, unlike
    /// [`digest`](Self::digest)) into the durable-snapshot byte format.
    /// Deterministic: `path_hashes` is emitted in sorted order so two
    /// trees with identical logical state encode identically.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.program.0);
        codec::put_u32(buf, self.nodes.len() as u32);
        for n in &self.nodes {
            encode_node_into(n, buf);
        }
        codec::put_u64(buf, self.paths_merged);
        codec::put_u64(buf, self.distinct_paths);
        let mut hashes: Vec<u64> = self.path_hashes.iter().copied().collect();
        hashes.sort_unstable();
        codec::put_u32(buf, hashes.len() as u32);
        for h in hashes {
            codec::put_u64(buf, h);
        }
    }

    /// Decodes a tree previously written by [`encode_into`](Self::encode_into).
    ///
    /// The result is clean: a following
    /// [`encode_delta_into`](Self::encode_delta_into) describes exactly
    /// what changed since this snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input; never
    /// panics.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<Self, CodecError> {
        let program = ProgramId(r.u64("Tree.program")?);
        let n_nodes = r.seq_len("Tree.nodes", 42)?;
        if n_nodes == 0 {
            return Err(CodecError::BadLen {
                what: "Tree.nodes",
                len: 0,
            });
        }
        let nodes = (0..n_nodes)
            .map(|_| decode_node(r))
            .collect::<Result<Vec<_>, _>>()?;
        let paths_merged = r.u64("Tree.paths_merged")?;
        let distinct_paths = r.u64("Tree.distinct_paths")?;
        let n_hashes = r.seq_len("Tree.path_hashes", 8)?;
        let mut path_hashes = HashSet::with_capacity(n_hashes);
        for _ in 0..n_hashes {
            path_hashes.insert(r.u64("Tree.path_hash")?);
        }
        let tree = ExecutionTree {
            program,
            clean_len: nodes.len(),
            nodes,
            paths_merged,
            distinct_paths,
            path_hashes,
            dirty: BTreeSet::new(),
            fresh_hashes: Vec::new(),
        };
        for i in 0..n_nodes {
            tree.check_links(i)?;
        }
        Ok(tree)
    }

    /// Checks node `i` of an arena read from outside bytes against the
    /// forward-allocation invariant every traversal relies on: only the
    /// root lacks a parent, a parent precedes its child, and every edge
    /// is the only one for its arm and points forward to an existing
    /// node that names this node, site and arm as its parent. Without it
    /// a forged id indexes past the arena or makes a parent walk loop.
    fn check_links(&self, i: usize) -> Result<(), CodecError> {
        let bad = |what, id: NodeId| {
            Err(CodecError::BadLen {
                what,
                len: id.index(),
            })
        };
        let Node { parent, edges, .. } = &self.nodes[i];
        let parent = *parent;
        match parent {
            None if i == 0 => {}
            Some((p, ..)) if p.index() < i => {}
            _ => return bad("Node.parent.id", parent.map_or(NodeId::ROOT, |(p, ..)| p)),
        }
        for (k, e) in edges.iter().enumerate() {
            if e.child.index() <= i || e.child.index() >= self.nodes.len() {
                return bad("Edge.child", e.child);
            }
            if edges[..k]
                .iter()
                .any(|d| (d.site, d.taken) == (e.site, e.taken))
            {
                return bad("Edge.arm", e.child);
            }
            if self.nodes[e.child.index()].parent != Some((NodeId(i as u32), e.site, e.taken)) {
                return bad("Edge.child.parent", e.child);
            }
        }
        Ok(())
    }

    /// Nodes mutated or created since the last
    /// [`mark_clean`](Self::mark_clean) — the size of the next delta.
    pub fn pending_nodes(&self) -> u64 {
        self.dirty.len() as u64 + (self.nodes.len() - self.clean_len) as u64
    }

    /// Forgets change tracking: the current state becomes the delta base.
    /// Called by the durability layer right after it persists a snapshot
    /// (full or delta) of this tree.
    pub fn mark_clean(&mut self) {
        self.clean_len = self.nodes.len();
        self.dirty.clear();
        self.fresh_hashes.clear();
    }

    /// Serializes only what changed since the last
    /// [`mark_clean`](Self::mark_clean): mutated pre-existing nodes (by
    /// index), appended nodes, absolute counters, and path hashes first
    /// seen since. Deterministic (dirty set and hashes emitted sorted).
    /// Applying with [`apply_delta`](Self::apply_delta) onto a tree in
    /// the base state reproduces this tree exactly.
    pub fn encode_delta_into(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.program.0);
        codec::put_u32(buf, self.clean_len as u32);
        codec::put_u32(buf, self.nodes.len() as u32);
        codec::put_u32(buf, self.dirty.len() as u32);
        for &i in &self.dirty {
            codec::put_u32(buf, i);
            encode_node_into(&self.nodes[i as usize], buf);
        }
        for n in &self.nodes[self.clean_len..] {
            encode_node_into(n, buf);
        }
        codec::put_u64(buf, self.paths_merged);
        codec::put_u64(buf, self.distinct_paths);
        let mut fresh = self.fresh_hashes.clone();
        fresh.sort_unstable();
        codec::put_u32(buf, fresh.len() as u32);
        for h in fresh {
            codec::put_u64(buf, h);
        }
    }

    /// Applies a delta written by
    /// [`encode_delta_into`](Self::encode_delta_into). The tree must be at the delta's base
    /// state (same program, same node count); afterwards it is clean at
    /// the delta's head state.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DeltaError`] on malformed input, a program
    /// mismatch, or a base mismatch; the tree is left unchanged only on
    /// the pre-checks (program/base) — a codec error mid-apply leaves it
    /// partially patched, so callers discard the tree on error.
    pub fn apply_delta(&mut self, r: &mut codec::Reader<'_>) -> Result<(), DeltaError> {
        let program = r.u64("TreeDelta.program")?;
        if program != self.program.0 {
            return Err(DeltaError::ProgramMismatch {
                expected: self.program.0,
                found: program,
            });
        }
        let from_len = r.u32("TreeDelta.from_len")?;
        if from_len as usize != self.nodes.len() {
            return Err(DeltaError::BaseMismatch {
                expected: from_len,
                found: self.nodes.len() as u32,
            });
        }
        let to_len = r.u32("TreeDelta.to_len")?;
        if to_len < from_len {
            return Err(DeltaError::Codec(CodecError::BadLen {
                what: "TreeDelta.to_len",
                len: to_len as usize,
            }));
        }
        let n_dirty = r.seq_len("TreeDelta.dirty", 46)?;
        let mut patched = Vec::with_capacity(n_dirty);
        for _ in 0..n_dirty {
            let idx = r.u32("TreeDelta.dirty.index")?;
            if idx >= from_len {
                return Err(DeltaError::Codec(CodecError::BadLen {
                    what: "TreeDelta.dirty.index",
                    len: idx as usize,
                }));
            }
            let node = decode_node(r)?;
            // A node never changes parents, so edges of unpatched nodes
            // that point at this one stay true.
            let slot = &mut self.nodes[idx as usize];
            if slot.parent != node.parent {
                return Err(DeltaError::Codec(CodecError::BadLen {
                    what: "TreeDelta.dirty.parent",
                    len: idx as usize,
                }));
            }
            *slot = node;
            patched.push(idx as usize);
        }
        for _ in from_len..to_len {
            self.nodes.push(decode_node(r)?);
        }
        for i in patched
            .into_iter()
            .chain(from_len as usize..to_len as usize)
        {
            self.check_links(i)?;
        }
        self.paths_merged = r.u64("TreeDelta.paths_merged")?;
        self.distinct_paths = r.u64("TreeDelta.distinct_paths")?;
        let n_fresh = r.seq_len("TreeDelta.fresh_hashes", 8)?;
        for _ in 0..n_fresh {
            self.path_hashes.insert(r.u64("TreeDelta.fresh_hash")?);
        }
        self.mark_clean();
        Ok(())
    }

    /// Approximate logical size of the tree in bytes (experiment E9).
    pub fn approx_bytes(&self) -> usize {
        let nodes: usize = self
            .nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.edges.len() * std::mem::size_of::<EdgeRec>()
                    + n.infeasible.len() * std::mem::size_of::<(BranchSiteId, bool)>()
            })
            .sum();
        nodes + self.path_hashes.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::cfg::Loc;
    use softborg_program::interp::CrashKind;

    fn s(i: u32) -> BranchSiteId {
        BranchSiteId::new(i)
    }

    fn path(bits: &[(u32, bool)]) -> Vec<(BranchSiteId, bool)> {
        bits.iter().map(|(i, b)| (s(*i), *b)).collect()
    }

    fn crash() -> Outcome {
        Outcome::Crash {
            loc: Loc::default(),
            kind: CrashKind::AssertFailed,
        }
    }

    fn child_of(t: &ExecutionTree, id: NodeId, site: u32, taken: bool) -> NodeId {
        t.node(id).child(s(site), taken).unwrap()
    }

    #[test]
    fn digest_is_pinned_across_releases() {
        // FNV-1a over the documented byte layout, computed by hand: a
        // change here invalidates every stored certificate digest.
        assert_eq!(
            ExecutionTree::new(ProgramId(1)).digest(),
            0xc823_9cdc_0345_f0ac
        );
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        t.merge_path(&path(&[(0, true), (1, true)]), &crash());
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        t.merge_path(&path(&[(0, false)]), &Outcome::Success); // tallies ignored
        assert_eq!(t.digest(), 0x2226_f6b0_c799_2ee5);
    }

    #[test]
    fn empty_tree_has_only_root() {
        let t = ExecutionTree::new(ProgramId(1));
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.distinct_paths(), 0);
        assert!(t.frontier().is_empty());
    }

    #[test]
    fn first_merge_creates_full_chain() {
        let mut t = ExecutionTree::new(ProgramId(1));
        let st = t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        assert_eq!(st.new_nodes, 2);
        assert_eq!(st.lca_depth, 0);
        assert!(st.new_path);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn lca_splice_shares_prefix() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        let st = t.merge_path(&path(&[(0, true), (1, true)]), &Outcome::Success);
        // Shares the (0,true) edge; only one new node.
        assert_eq!(st.new_nodes, 1);
        assert_eq!(st.lca_depth, 1);
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn duplicate_path_adds_no_nodes_and_is_not_new() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        let st = t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        assert_eq!(st.new_nodes, 0);
        assert!(!st.new_path);
        assert_eq!(t.distinct_paths(), 1);
        assert_eq!(t.paths_merged(), 2);
    }

    #[test]
    fn same_path_different_outcome_counts_as_distinct() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        let st = t.merge_path(&path(&[(0, false)]), &crash());
        assert!(st.new_path);
        assert_eq!(t.distinct_paths(), 2);
        let leaf = child_of(&t, NodeId::ROOT, 0, false);
        assert_eq!(t.node(leaf).terminal.success, 1);
        assert_eq!(t.node(leaf).terminal.crash, 1);
    }

    #[test]
    fn merge_order_does_not_change_structure() {
        let paths = [
            path(&[(0, true), (1, true)]),
            path(&[(0, true), (1, false)]),
            path(&[(0, false), (2, true)]),
            path(&[(0, false), (2, false)]),
        ];
        let mut a = ExecutionTree::new(ProgramId(1));
        for p in &paths {
            a.merge_path(p, &Outcome::Success);
        }
        let mut b = ExecutionTree::new(ProgramId(1));
        for p in paths.iter().rev() {
            b.merge_path(p, &Outcome::Success);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.node_count(), b.node_count());
    }

    #[test]
    fn frontier_lists_missing_arms() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        let f = t.frontier();
        // Missing: (0,false) at root, (1,true) at depth 1.
        assert_eq!(f.len(), 2);
        assert!(f
            .iter()
            .any(|a| a.node == NodeId::ROOT && a.site == s(0) && !a.missing_taken));
        assert!(f.iter().any(|a| a.site == s(1) && a.missing_taken));
    }

    #[test]
    fn infeasible_arm_leaves_frontier_and_enables_closure() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true)]), &Outcome::Success);
        assert!(!t.is_closed(NodeId::ROOT));
        t.mark_infeasible(NodeId::ROOT, s(0), false);
        assert!(t.frontier().is_empty());
        assert!(t.is_closed(NodeId::ROOT));
    }

    #[test]
    fn closure_requires_both_arms() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true)]), &Outcome::Success);
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        assert!(t.is_closed(NodeId::ROOT));
        assert!((t.closed_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_terminal_leaf_blocks_closure() {
        let mut t = ExecutionTree::new(ProgramId(1));
        // Merge a path but pretend a longer one later shows the leaf was
        // not terminal-only: a leaf with no terminal tally cannot close.
        t.merge_path(&path(&[(0, true), (1, true)]), &Outcome::Success);
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        // Node after (0,true) has a child and is fine, but its (1,false)
        // arm is unexplored.
        assert!(!t.is_closed(NodeId::ROOT));
    }

    #[test]
    fn multi_site_nodes_never_close() {
        let mut t = ExecutionTree::new(ProgramId(1));
        // Two different interleavings surface different sites first.
        t.merge_path(&path(&[(0, true)]), &Outcome::Success);
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        t.merge_path(&path(&[(5, true)]), &Outcome::Success);
        t.merge_path(&path(&[(5, false)]), &Outcome::Success);
        assert!(!t.is_closed(NodeId::ROOT));
    }

    #[test]
    fn prefix_and_depth_walk_parents() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(
            &path(&[(0, true), (3, false), (7, true)]),
            &Outcome::Success,
        );
        let n1 = child_of(&t, NodeId::ROOT, 0, true);
        let n2 = child_of(&t, n1, 3, false);
        let n3 = child_of(&t, n2, 7, true);
        assert_eq!(t.depth(n3), 3);
        assert_eq!(t.prefix(n3), path(&[(0, true), (3, false), (7, true)]));
    }

    #[test]
    fn subtree_failures_sums_descendants() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true), (1, true)]), &crash());
        t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        t.merge_path(&path(&[(0, false)]), &crash());
        assert_eq!(t.subtree_failures(NodeId::ROOT), 2);
        let right = child_of(&t, NodeId::ROOT, 0, true);
        assert_eq!(t.subtree_failures(right), 1);
    }

    #[test]
    fn absorb_unions_structure_and_sums_tallies() {
        let mut a = ExecutionTree::new(ProgramId(1));
        a.merge_path(&path(&[(0, true)]), &Outcome::Success);
        let mut b = ExecutionTree::new(ProgramId(1));
        b.merge_path(&path(&[(0, true)]), &Outcome::Success);
        b.merge_path(&path(&[(0, false)]), &crash());
        a.absorb(&b);
        assert_eq!(a.node_count(), 3);
        assert_eq!(a.paths_merged(), 3);
        assert_eq!(a.distinct_paths(), 2);
        let left = child_of(&a, NodeId::ROOT, 0, true);
        assert_eq!(a.node(left).terminal.success, 2);
    }

    #[test]
    fn absorb_is_idempotent_on_structure() {
        let mut a = ExecutionTree::new(ProgramId(1));
        a.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        let snapshot = a.clone();
        a.absorb(&snapshot);
        assert_eq!(a.digest(), snapshot.digest());
        assert_eq!(a.node_count(), snapshot.node_count());
    }

    #[test]
    fn coverage_stats_are_consistent() {
        let mut t = ExecutionTree::new(ProgramId(1));
        t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        t.merge_path(&path(&[(0, false)]), &crash());
        let c = t.coverage();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.distinct_paths, 2);
        assert_eq!(c.sites_seen, 2);
        assert_eq!(c.paths_merged, 2);
        assert_eq!(c.frontier_arms, 1); // (1,true)
        assert!(c.closed_fraction > 0.0 && c.closed_fraction < 1.0);
    }

    #[test]
    fn codec_roundtrip_preserves_everything() {
        let mut t = ExecutionTree::new(ProgramId(42));
        t.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        t.merge_path(&path(&[(0, true), (1, true)]), &crash());
        t.merge_path(&path(&[(0, false)]), &Outcome::Success);
        t.mark_infeasible(NodeId::ROOT, s(9), true);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let mut r = codec::Reader::new(&buf);
        let back = ExecutionTree::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back.program(), t.program());
        assert_eq!(back.digest(), t.digest());
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.paths_merged(), t.paths_merged());
        assert_eq!(back.distinct_paths(), t.distinct_paths());
        assert_eq!(back.path_hashes, t.path_hashes);
        // Tallies and infeasible marks survive too (digest ignores them).
        let leaf = child_of(&back, NodeId::ROOT, 0, false);
        assert_eq!(back.node(leaf).terminal.success, 1);
        assert!(back.node(NodeId::ROOT).is_infeasible(s(9), true));
        // Re-encoding the decoded tree is byte-identical.
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn codec_rejects_truncation_without_panic() {
        let mut t = ExecutionTree::new(ProgramId(7));
        t.merge_path(&path(&[(0, true)]), &Outcome::Success);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        for cut in 0..buf.len() {
            let mut r = codec::Reader::new(&buf[..cut]);
            assert!(ExecutionTree::decode(&mut r).is_err());
        }
    }

    #[test]
    fn codec_roundtrip_then_merge_matches_uninterrupted() {
        // A decoded tree must be a *live* tree: merging the same extra
        // path into the original and the roundtripped copy agrees.
        let mut a = ExecutionTree::new(ProgramId(3));
        a.merge_path(&path(&[(0, true), (2, false)]), &Outcome::Success);
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        let mut b = ExecutionTree::decode(&mut codec::Reader::new(&buf)).unwrap();
        let extra = path(&[(0, true), (2, true)]);
        let sa = a.merge_path(&extra, &crash());
        let sb = b.merge_path(&extra, &crash());
        assert_eq!(sa, sb);
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        a.encode_into(&mut ba);
        b.encode_into(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn approx_bytes_grows_with_nodes() {
        let mut t = ExecutionTree::new(ProgramId(1));
        let before = t.approx_bytes();
        for i in 0..100u32 {
            t.merge_path(&path(&[(0, true), (i + 1, i % 2 == 0)]), &Outcome::Success);
        }
        assert!(t.approx_bytes() > before);
    }

    #[test]
    fn delta_reproduces_full_snapshot_exactly() {
        // Base state → full snapshot; more activity → delta; applying the
        // delta to the decoded base equals the live tree byte-for-byte.
        let mut live = ExecutionTree::new(ProgramId(5));
        live.merge_path(&path(&[(0, true), (1, false)]), &Outcome::Success);
        live.merge_path(&path(&[(0, false)]), &crash());
        let mut full = Vec::new();
        live.encode_into(&mut full);
        live.mark_clean();

        let mut resumed = ExecutionTree::decode(&mut codec::Reader::new(&full)).unwrap();

        // Post-snapshot activity touches old nodes AND creates new ones.
        live.merge_path(&path(&[(0, true), (1, true), (2, false)]), &crash());
        live.merge_path(&path(&[(0, false)]), &crash()); // dup path, tally only
        live.mark_infeasible(NodeId::ROOT, s(8), false);

        let mut delta = Vec::new();
        live.encode_delta_into(&mut delta);
        resumed
            .apply_delta(&mut codec::Reader::new(&delta))
            .expect("delta applies");

        let mut a = Vec::new();
        let mut b = Vec::new();
        live.encode_into(&mut a);
        resumed.encode_into(&mut b);
        assert_eq!(a, b, "delta-resumed tree must equal the live tree");
        assert_eq!(live.digest(), resumed.digest());
        assert_eq!(resumed.pending_nodes(), 0, "apply leaves the tree clean");
    }

    #[test]
    fn delta_is_smaller_than_full_for_localized_change() {
        let mut t = ExecutionTree::new(ProgramId(6));
        let long: Vec<(u32, bool)> = (0..400u32).map(|i| (i, true)).collect();
        t.merge_path(&path(&long), &Outcome::Success);
        t.mark_clean();
        // Tally-only bump near the root: dirties two small nodes out of 401.
        t.merge_path(&path(&[(0, true)]), &Outcome::Success);
        let mut full = Vec::new();
        t.encode_into(&mut full);
        let mut delta = Vec::new();
        t.encode_delta_into(&mut delta);
        assert!(
            delta.len() * 10 < full.len(),
            "delta ({}) should be far smaller than full ({})",
            delta.len(),
            full.len()
        );
    }

    #[test]
    fn delta_rejects_wrong_base_and_program() {
        let mut a = ExecutionTree::new(ProgramId(1));
        a.merge_path(&path(&[(0, true)]), &Outcome::Success);
        a.mark_clean();
        a.merge_path(&path(&[(0, false)]), &Outcome::Success);
        let mut delta = Vec::new();
        a.encode_delta_into(&mut delta);

        let mut wrong_program = ExecutionTree::new(ProgramId(2));
        assert!(matches!(
            wrong_program.apply_delta(&mut codec::Reader::new(&delta)),
            Err(DeltaError::ProgramMismatch { .. })
        ));

        let mut wrong_base = ExecutionTree::new(ProgramId(1));
        assert!(matches!(
            wrong_base.apply_delta(&mut codec::Reader::new(&delta)),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn delta_decode_is_total_on_truncation() {
        let mut a = ExecutionTree::new(ProgramId(1));
        a.merge_path(&path(&[(0, true)]), &Outcome::Success);
        a.mark_clean();
        a.merge_path(&path(&[(0, false), (1, true)]), &crash());
        let mut delta = Vec::new();
        a.encode_delta_into(&mut delta);
        for cut in 0..delta.len() {
            let mut base = ExecutionTree::new(ProgramId(1));
            base.merge_path(&path(&[(0, true)]), &Outcome::Success);
            base.mark_clean();
            assert!(base
                .apply_delta(&mut codec::Reader::new(&delta[..cut]))
                .is_err());
        }
    }
}
