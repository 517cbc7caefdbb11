//! Cumulative proofs from natural executions (paper §3.3).
//!
//! "A complete exploration of all paths leads to a proof, while a test is
//! just a weaker proof that covers a smaller subset of the paths." The
//! hive continuously scans the execution tree for *closed* subtrees —
//! every arm explored or proven infeasible — whose leaves are all
//! failure-free, and publishes a [`ProofCertificate`] for each maximal
//! one. Certificates are checked by an independent [`verify`] pass so a
//! buggy assembler cannot publish a bogus proof silently.

use serde::{Deserialize, Serialize};
use softborg_program::{BranchSiteId, ProgramId};
use softborg_tree::{ExecutionTree, NodeId};
use std::fmt;

/// The property a certificate asserts over a subtree.
pub const PROPERTY_NO_FAILURE: &str = "no-crash-deadlock-or-hang";

/// A published proof over a (sub)tree of the program's executions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProofCertificate {
    /// The program the proof is about.
    pub program: ProgramId,
    /// Decision prefix identifying the proven subtree (empty = whole
    /// program).
    pub prefix: Vec<(BranchSiteId, bool)>,
    /// The property proven.
    pub property: std::borrow::Cow<'static, str>,
    /// Nodes covered by the subtree.
    pub nodes: u64,
    /// Executions witnessed inside the subtree.
    pub visits: u64,
    /// Structural digest of the whole tree at publication time.
    pub tree_digest: u64,
}

impl ProofCertificate {
    /// `true` when the certificate covers the entire program.
    pub fn is_whole_program(&self) -> bool {
        self.prefix.is_empty()
    }
}

impl fmt::Display for ProofCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_whole_program() {
            write!(
                f,
                "proof[{}]: {} over the whole program ({} nodes, {} executions)",
                self.program, self.property, self.nodes, self.visits
            )
        } else {
            write!(
                f,
                "proof[{}]: {} under prefix of depth {} ({} nodes)",
                self.program,
                self.property,
                self.prefix.len(),
                self.nodes
            )
        }
    }
}

/// Why verification rejected a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The prefix does not exist in the tree.
    UnknownPrefix,
    /// The subtree has unexplored, non-infeasible arms.
    NotClosed,
    /// The subtree recorded failing executions.
    HasFailures(u64),
    /// The tree changed structurally since publication.
    DigestMismatch,
    /// Wrong program.
    WrongProgram,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::UnknownPrefix => f.write_str("prefix not present in tree"),
            ProofError::NotClosed => f.write_str("subtree is not closed"),
            ProofError::HasFailures(n) => write!(f, "subtree has {n} failing executions"),
            ProofError::DigestMismatch => f.write_str("tree digest mismatch"),
            ProofError::WrongProgram => f.write_str("certificate is for another program"),
        }
    }
}

impl std::error::Error for ProofError {}

/// Roots of the *maximal* closed, failure-free, witnessed subtrees (a
/// closed parent subsumes its children) with their visit counts, in
/// publication order: a walk from the root that stops at every proven
/// subtree (the tree counts them; this walk orders them).
fn proven_roots(tree: &ExecutionTree) -> Vec<(NodeId, u64)> {
    let mut roots = Vec::new();
    let mut stack = vec![NodeId::ROOT];
    while let Some(id) = stack.pop() {
        let provable = tree.subtree_failures(id) == 0 && tree.is_closed(id);
        let n = tree.node(id);
        if provable && n.visits > 0 {
            roots.push((id, n.visits)); // maximality: don't descend
            continue;
        }
        n.for_each_arm(|_, _, child| stack.extend(child));
    }
    debug_assert_eq!(roots.len() as u64, tree.proven_subtrees());
    roots
}

/// Scans the tree and assembles certificates for the *maximal* closed,
/// failure-free subtrees.
pub fn assemble(tree: &ExecutionTree) -> Vec<ProofCertificate> {
    let digest = tree.digest();
    proven_roots(tree)
        .into_iter()
        .map(|(id, visits)| ProofCertificate {
            program: tree.program(),
            prefix: tree.prefix(id),
            property: PROPERTY_NO_FAILURE.into(),
            nodes: tree.subtree_nodes(id),
            visits,
            tree_digest: digest,
        })
        .collect()
}

/// Independently re-checks a certificate against the tree.
///
/// # Errors
///
/// Returns the first [`ProofError`] found; `Ok(())` means the proof
/// still holds for this tree.
pub fn verify(cert: &ProofCertificate, tree: &ExecutionTree) -> Result<(), ProofError> {
    if cert.program != tree.program() {
        return Err(ProofError::WrongProgram);
    }
    if cert.tree_digest != tree.digest() {
        return Err(ProofError::DigestMismatch);
    }
    // Walk the prefix.
    let mut node = NodeId::ROOT;
    for (site, taken) in &cert.prefix {
        node = tree
            .node(node)
            .child(*site, *taken)
            .ok_or(ProofError::UnknownPrefix)?;
    }
    if !tree.closed_by_walk(node) {
        return Err(ProofError::NotClosed);
    }
    let failures = tree.failures_by_walk(node);
    if failures > 0 {
        return Err(ProofError::HasFailures(failures));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::cfg::Loc;
    use softborg_program::interp::{CrashKind, Outcome};

    fn s(i: u32) -> BranchSiteId {
        BranchSiteId::new(i)
    }

    fn crash() -> Outcome {
        Outcome::Crash {
            loc: Loc::default(),
            kind: CrashKind::AssertFailed,
        }
    }

    #[test]
    fn fully_explored_clean_tree_yields_whole_program_proof() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        tree.merge_path(&[(s(0), true)], &Outcome::Success);
        tree.merge_path(&[(s(0), false)], &Outcome::Success);
        let certs = assemble(&tree);
        assert_eq!(certs.len(), 1);
        assert!(certs[0].is_whole_program());
        verify(&certs[0], &tree).unwrap();
        assert!(certs[0].to_string().contains("whole program"));
    }

    #[test]
    fn failing_subtree_blocks_but_sibling_is_proven() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        // (0,true) subtree: closed and clean.
        tree.merge_path(&[(s(0), true), (s(1), true)], &Outcome::Success);
        tree.merge_path(&[(s(0), true), (s(1), false)], &Outcome::Success);
        // (0,false) subtree: crashes.
        tree.merge_path(&[(s(0), false)], &crash());
        let certs = assemble(&tree);
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].prefix, vec![(s(0), true)]);
        verify(&certs[0], &tree).unwrap();
    }

    #[test]
    fn open_frontier_blocks_whole_program_proof() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        tree.merge_path(&[(s(0), true)], &Outcome::Success);
        // (0,false) unexplored and not infeasible: only the explored leaf
        // subtree is provable, not the whole program.
        let certs = assemble(&tree);
        assert_eq!(certs.len(), 1);
        assert!(!certs[0].is_whole_program());
        assert_eq!(certs[0].prefix, vec![(s(0), true)]);
        // Marking the other arm infeasible unlocks the whole-program
        // proof (and subsumes the leaf one).
        tree.mark_infeasible(NodeId::ROOT, s(0), false);
        let certs = assemble(&tree);
        assert_eq!(certs.len(), 1);
        assert!(certs[0].is_whole_program());
    }

    #[test]
    fn verify_rejects_stale_digest() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        tree.merge_path(&[(s(0), true)], &Outcome::Success);
        tree.merge_path(&[(s(0), false)], &Outcome::Success);
        let cert = assemble(&tree).remove(0);
        // Tree grows a new path => structural change => stale cert.
        tree.merge_path(&[(s(0), true), (s(2), true)], &Outcome::Success);
        assert_eq!(verify(&cert, &tree), Err(ProofError::DigestMismatch));
    }

    #[test]
    fn verify_rejects_wrong_program() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        tree.merge_path(&[(s(0), true)], &Outcome::Success);
        tree.merge_path(&[(s(0), false)], &Outcome::Success);
        let mut cert = assemble(&tree).remove(0);
        cert.program = ProgramId(10);
        assert_eq!(verify(&cert, &tree), Err(ProofError::WrongProgram));
    }

    #[test]
    fn verify_catches_forged_clean_claim() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        tree.merge_path(&[(s(0), true)], &crash());
        tree.merge_path(&[(s(0), false)], &Outcome::Success);
        // Forge a whole-program certificate.
        let forged = ProofCertificate {
            program: ProgramId(9),
            prefix: vec![],
            property: PROPERTY_NO_FAILURE.into(),
            nodes: 3,
            visits: 2,
            tree_digest: tree.digest(),
        };
        assert_eq!(verify(&forged, &tree), Err(ProofError::HasFailures(1)));
    }

    #[test]
    fn proofs_are_maximal() {
        let mut tree = ExecutionTree::new(ProgramId(9));
        tree.merge_path(&[(s(0), true), (s(1), true)], &Outcome::Success);
        tree.merge_path(&[(s(0), true), (s(1), false)], &Outcome::Success);
        tree.merge_path(&[(s(0), false)], &Outcome::Success);
        let certs = assemble(&tree);
        // One whole-program proof, not three nested ones.
        assert_eq!(certs.len(), 1);
        assert!(certs[0].is_whole_program());
        assert_eq!(certs[0].nodes, 5);
    }
}
