//! # softborg-tree — the collective execution tree
//!
//! Implements the paper's §3.2: dynamic construction of a program's
//! execution tree by merging naturally-occurring execution paths
//! (lowest-common-ancestor splicing, Figure 3), coverage and completeness
//! accounting, frontier enumeration for guidance, infeasibility marks from
//! symbolic analysis, and replica merging for the distributed hive.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod tree;

pub use tree::{
    path_hash, CoverageStats, DeltaError, ExecutionTree, FrontierArm, MergeStats, Node, NodeId,
    OutcomeTally, TreeSummary,
};

#[cfg(test)]
mod integration {
    use super::*;
    use softborg_program::interp::{Executor, Observer, Outcome};
    use softborg_program::overlay::Overlay;
    use softborg_program::scenarios;
    use softborg_program::sched::RoundRobin;
    use softborg_program::syscall::DefaultEnv;
    use softborg_program::{BranchSiteId, ThreadId};

    #[derive(Default)]
    struct PathObs(Vec<(BranchSiteId, bool)>);
    impl Observer for PathObs {
        fn on_branch(&mut self, _t: ThreadId, s: BranchSiteId, taken: bool, _d: bool) {
            self.0.push((s, taken));
        }
    }

    /// Exhaustive triangle exploration closes the whole tree — the
    /// precondition for a proof in the hive.
    #[test]
    fn exhaustive_triangle_tree_closes() {
        let s = scenarios::triangle();
        let mut exec = Executor::new(&s.program);
        let mut tree = ExecutionTree::new(s.program.id());
        for a in 1..=6 {
            for b in 1..=6 {
                for c in 1..=6 {
                    let mut obs = PathObs::default();
                    let r = exec
                        .run(
                            &[a, b, c],
                            &mut DefaultEnv::seeded(0),
                            &mut RoundRobin::new(),
                            &Overlay::empty(),
                            &mut obs,
                        )
                        .unwrap();
                    assert_eq!(r.outcome, Outcome::Success);
                    tree.merge_path(&obs.0, &r.outcome);
                }
            }
        }
        let cov = tree.coverage();
        assert!(cov.distinct_paths >= 4, "triangle has ≥4 outcome classes");
        assert_eq!(
            cov.frontier_arms, 0,
            "exhaustive exploration leaves no frontier"
        );
        assert!(tree.is_closed(NodeId::ROOT));
        assert_eq!(tree.subtree_failures(NodeId::ROOT), 0);
    }
}
