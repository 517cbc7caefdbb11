//! `proofs::assemble` reads the facts the tree keeps current where it
//! used to walk a subtree per dequeued node. One property holds it there: it
//! publishes exactly what the walk-per-node assembler published (same
//! certificates, same order, each accepted by the from-scratch
//! `verify`), on the live tree and on a delta-chained replica.

#[path = "../../tree/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;
use softborg_hive::proofs::{self, ProofCertificate, PROPERTY_NO_FAILURE};
use softborg_tree::{ExecutionTree, Node, NodeId};

fn children_of(n: &Node) -> Vec<NodeId> {
    let mut out = Vec::new();
    for site in n.sites() {
        for taken in [false, true] {
            out.extend(n.child(site, taken));
        }
    }
    out
}

fn subtree_nodes(tree: &ExecutionTree, root: NodeId) -> u64 {
    let mut count = 0;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        count += 1;
        stack.extend(children_of(tree.node(id)));
    }
    count
}

/// `proofs::assemble` as it was before the kept facts: every dequeued node
/// pays a full subtree walk for its failures and another for closure.
fn reference_assemble(tree: &ExecutionTree) -> Vec<ProofCertificate> {
    let digest = tree.digest();
    let mut certs = Vec::new();
    let mut queue = vec![NodeId::ROOT];
    while let Some(id) = queue.pop() {
        let clean = tree.failures_by_walk(id) == 0;
        let visits = tree.node(id).visits;
        if clean && tree.closed_by_walk(id) && visits > 0 {
            certs.push(ProofCertificate {
                program: tree.program(),
                prefix: tree.prefix(id),
                property: PROPERTY_NO_FAILURE.into(),
                nodes: subtree_nodes(tree, id),
                visits,
                tree_digest: digest,
            });
            continue;
        }
        queue.extend(children_of(tree.node(id)));
    }
    certs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn assemble_equals_the_walk_per_node_assembler(
        seed in any::<u64>(),
        n_ops in 1usize..60,
        shape in 0u32..16,
    ) {
        let trees = common::build(seed, n_ops, shape == 0);
        let expected = reference_assemble(&trees.mem);
        for (kind, tree) in [
            ("memory", &trees.mem),
            ("delta-chained", &trees.chained),
        ] {
            let certs = proofs::assemble(tree);
            prop_assert_eq!(&certs, &expected, "{}", kind);
            prop_assert_eq!(tree.proven_subtrees(), expected.len() as u64, "{}", kind);
            for cert in &certs {
                prop_assert_eq!(proofs::verify(cert, tree), Ok(()), "{}", kind);
            }
        }
    }
}
