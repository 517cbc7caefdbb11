//! `ExecutionTree::{is_closed, subtree_failures, subtree_nodes}` read
//! facts the tree keeps current in place of three per-node walks
//! (`closed_by_walk`, `failures_by_walk`, a counted subtree), and
//! `frontier` reads its index in place of a per-node depth walk. The walks stay in the crate as the small trusted reference;
//! this suite holds the kept-current facts to them after arbitrary
//! sequences of every operation that changes a tree, on live and
//! delta-chained trees.

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_tree::{ExecutionTree, FrontierArm, NodeId};

/// Nodes under `root`, itself included, by walking.
fn counted_subtree(tree: &ExecutionTree, root: NodeId) -> u64 {
    let mut count = 0;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        count += 1;
        let n = tree.node(id);
        for site in n.sites() {
            stack.extend([false, true].into_iter().filter_map(|t| n.child(site, t)));
        }
    }
    count
}

/// `ExecutionTree::frontier` as it was defined before the kept facts: one
/// walk to the root per node with an open arm.
fn reference_frontier(tree: &ExecutionTree) -> Vec<FrontierArm> {
    let mut out = Vec::new();
    for i in 0..tree.node_count() {
        let id = NodeId(i as u32);
        let n = tree.node(id);
        let mut missing = Vec::new();
        for site in n.sites() {
            for taken in [false, true] {
                if n.child(site, taken).is_none() && !n.is_infeasible(site, taken) {
                    missing.push((site, taken));
                }
            }
        }
        if missing.is_empty() {
            continue;
        }
        let depth = tree.prefix(id).len() as u64;
        for (site, missing_taken) in missing {
            out.push(FrontierArm {
                node: id,
                site,
                missing_taken,
                depth,
                visits: n.visits,
            });
        }
    }
    out
}

/// Every node of a small tree; the root, the last node and a seeded
/// sample of a big one (the per-node reference functions are
/// O(subtree), so checking all of a 4,000-node chain is quadratic).
fn nodes_to_check(tree: &ExecutionTree, seed: u64) -> Vec<NodeId> {
    let n = tree.node_count() as u32;
    if n <= 400 {
        return (0..n).map(NodeId).collect();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ids = vec![NodeId::ROOT, NodeId(n - 1)];
    ids.extend((0..96).map(|_| NodeId(rng.gen_range(0..n))));
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One case in sixteen starts from the shape the sweeps were written
    /// for: hang paths thousands of decisions deep, where every per-node
    /// walk is O(depth).
    #[test]
    fn summary_equals_the_per_node_reference(
        seed in any::<u64>(),
        n_ops in 1usize..60,
        shape in 0u32..16,
    ) {
        let trees = common::build(seed, n_ops, shape == 0);
        let tree = &trees.mem;
        let checked = nodes_to_check(tree, seed);
        for &id in &checked {
            prop_assert_eq!(tree.is_closed(id), tree.closed_by_walk(id), "{:?}", id);
            prop_assert_eq!(tree.subtree_failures(id), tree.failures_by_walk(id), "{:?}", id);
            prop_assert_eq!(tree.subtree_nodes(id), counted_subtree(tree, id), "{:?}", id);
        }
        let frontier = tree.frontier();
        prop_assert_eq!(&frontier, &reference_frontier(tree));
        let coverage = tree.coverage();
        prop_assert_eq!(coverage.frontier_arms, frontier.len() as u64);
        if checked.len() as u64 == tree.node_count() {
            let closed = checked.iter().filter(|id| tree.closed_by_walk(**id)).count();
            prop_assert_eq!(coverage.closed_fraction, closed as f64 / checked.len() as f64);
        }
        // The delta-chained replica reads the same.
        let other = &trees.chained;
        prop_assert!(other.same_facts(tree));
        prop_assert_eq!(&other.frontier(), &frontier);
        prop_assert_eq!(other.coverage(), coverage);
    }
}
