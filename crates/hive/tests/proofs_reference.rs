//! `proofs::assemble` reads one summary of the tree where it used to
//! walk a subtree per dequeued node. Two checks hold it there: it
//! publishes exactly what the walk-per-node assembler published (same
//! certificates, same order, each accepted by the from-scratch
//! `verify`), and on a paged tree the hive's per-round reads cost a
//! bounded number of page faults per page.

#[path = "../../tree/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;
use softborg_hive::proofs::{self, ProofCertificate, PROPERTY_NO_FAILURE};
use softborg_program::interp::Outcome;
use softborg_program::BranchSiteId;
use softborg_store::PagedConfig;
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
        stack.extend(tree.with_node(id, children_of));
    }
    count
}

/// `proofs::assemble` as it was before the summary: every dequeued node
/// pays a full subtree walk for its failures and another for closure.
fn reference_assemble(tree: &ExecutionTree) -> Vec<ProofCertificate> {
    let digest = tree.digest();
    let mut certs = Vec::new();
    let mut queue = vec![NodeId::ROOT];
    while let Some(id) = queue.pop() {
        let clean = tree.subtree_failures(id) == 0;
        let visits = tree.with_node(id, |n| n.visits);
        if clean && tree.is_closed(id) && visits > 0 {
            certs.push(ProofCertificate {
                program: tree.program(),
                prefix: tree.prefix(id),
                property: PROPERTY_NO_FAILURE.to_string(),
                nodes: subtree_nodes(tree, id),
                visits,
                tree_digest: digest,
            });
            continue;
        }
        queue.extend(tree.with_node(id, children_of));
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
            ("paged", &trees.paged),
            ("delta-chained", &trees.chained),
        ] {
            let certs = proofs::assemble(tree);
            prop_assert_eq!(&certs, &expected, "{}", kind);
            prop_assert_eq!(proofs::count(tree), expected.len() as u64, "{}", kind);
            for cert in &certs {
                prop_assert_eq!(proofs::verify(cert, tree), Ok(()), "{}", kind);
            }
        }
    }
}

/// Counters first, wall time second: a hang path 4,096 decisions deep
/// in a paged tree with four resident pages. Each read sweeps the arena
/// a fixed number of times, so it faults each page a fixed number of
/// times (312 faults here); a walk per node faults O(pages) per *node*
/// (398,461 before the summary).
#[test]
fn paged_reads_fault_each_page_a_bounded_number_of_times() {
    let dir = common::scratch("read-gate");
    let mut tree =
        ExecutionTree::new_paged(common::PROGRAM, PagedConfig::new(&dir, 64, 4)).expect("dir");
    let spin: Vec<_> = (0..4_096)
        .map(|d| (BranchSiteId::new(d % 3), true))
        .collect();
    tree.merge_path(&spin, &Outcome::Hang { stuck: vec![] });
    tree.merge_path(&spin[..4_000], &Outcome::Success);

    let before = tree.page_stats();
    assert!(before.total_pages >= 64, "{before:?}");
    let certs = proofs::assemble(&tree);
    let coverage = tree.coverage();
    let frontier = tree.frontier();
    let faults = tree.page_stats().faults - before.faults;

    assert!(
        certs.is_empty(),
        "every subtree holds the hang or an open arm"
    );
    assert_eq!(frontier.len(), 4_096);
    assert_eq!(coverage.frontier_arms, 4_096);
    assert!(
        faults <= 8 * before.total_pages,
        "{faults} faults reading {} pages",
        before.total_pages
    );
    std::fs::remove_dir_all(&dir).expect("scratch dir");
}
