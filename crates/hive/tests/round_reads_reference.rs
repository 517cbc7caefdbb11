//! A round report reads each tree in O(1): the tree keeps the sites,
//! the open frontier arms, the closed nodes and the maximal proven
//! subtrees current as it changes, and guidance ranks only the arms it
//! targets. This suite holds those reads to their old
//! definitions, kept here as the reference: a `HashSet` of sites, an
//! open-arm count over `sites()`, the proof walk from the root, and a
//! stable sort of the whole frontier then truncate — for a
//! multi-threaded program too, whose ranked arms were only counted.

#[path = "../../tree/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;
use softborg_guidance::frontier::plan_with_crash_seeds;
use softborg_guidance::{arm_score, Directive, PlanStats, PlannerConfig};
use softborg_hive::{proofs, Hive, HiveConfig};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios::{self, Scenario};
use softborg_program::sched::ScheduleHint;
use softborg_program::{Program, ThreadId};
use softborg_symex::{arm_feasibility, Feasibility};
use softborg_tree::{ExecutionTree, FrontierArm, NodeId};
use std::collections::HashSet;

/// `coverage()`'s sites and open arms as they were counted: a `HashSet`
/// of every observed site, and every arm of one that is neither
/// explored nor infeasible.
fn reference_sites_and_open_arms(tree: &ExecutionTree) -> (u64, u64) {
    let mut sites = HashSet::new();
    let mut open = 0;
    for i in 0..tree.node_count() {
        let n = tree.node(NodeId(i as u32));
        for site in n.sites() {
            sites.insert(site);
            for taken in [false, true] {
                open += u64::from(n.child(site, taken).is_none() && !n.is_infeasible(site, taken));
            }
        }
    }
    (sites.len() as u64, open)
}

/// The proof count as it was: walk from the root, stop at every closed,
/// failure-free, visited node and count it.
fn reference_proof_count(tree: &ExecutionTree) -> u64 {
    let mut count = 0;
    let mut stack = vec![NodeId::ROOT];
    while let Some(id) = stack.pop() {
        let n = tree.node(id);
        if tree.subtree_failures(id) == 0 && tree.is_closed(id) && n.visits > 0 {
            count += 1;
            continue;
        }
        for site in n.sites() {
            stack.extend([false, true].into_iter().filter_map(|t| n.child(site, t)));
        }
    }
    count
}

/// The planner's targets as they were picked: a stable sort of the
/// whole frontier by score, then truncate.
fn reference_targets(tree: &ExecutionTree, max_targets: usize) -> Vec<FrontierArm> {
    let mut frontier = tree.frontier();
    frontier.sort_by(|a, b| {
        arm_score(b)
            .partial_cmp(&arm_score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    frontier.truncate(max_targets);
    frontier
}

/// `plan_with_crash_seeds` with no crash seeds, over
/// [`reference_targets`]: a single-threaded program's targets are
/// seeded or marked; a multi-threaded program's are each counted
/// unknown, and both thread priority orders requested.
fn reference_plan(
    program: &Program,
    tree: &mut ExecutionTree,
    config: &PlannerConfig,
) -> (Vec<Directive>, PlanStats) {
    let mut directives = Vec::new();
    let mut stats = PlanStats::default();
    let single_threaded = program.threads.len() == 1;
    for arm in reference_targets(tree, config.max_targets) {
        if !single_threaded {
            stats.unknown += 1;
            continue;
        }
        let prefix = tree.prefix(arm.node);
        match arm_feasibility(program, &prefix, arm.site, arm.missing_taken, &config.sym) {
            Ok(Feasibility::Feasible(model)) => {
                directives.push(Directive::InputSeed {
                    inputs: model[..program.n_inputs as usize].to_vec(),
                    target: (arm.site, arm.missing_taken),
                });
                stats.seeds += 1;
            }
            Ok(Feasibility::Infeasible) => {
                tree.mark_infeasible(arm.node, arm.site, arm.missing_taken);
                stats.infeasible_marked += 1;
            }
            _ => stats.unknown += 1,
        }
    }
    if !single_threaded {
        let n = program.threads.len() as u32;
        for order in [
            (0..n).map(ThreadId::new).collect(),
            (0..n).rev().map(ThreadId::new).collect(),
        ] {
            directives.push(Directive::Schedule(ScheduleHint {
                order,
                bias_per_mille: 700,
            }));
        }
    }
    if stats.unknown > 0 && config.fault_per_mille > 0 {
        directives.push(Directive::FaultInjection {
            forced: vec![],
            short_read_per_mille: config.fault_per_mille,
        });
    }
    (directives, stats)
}

/// The tree a hive holds after `execs` natural executions of `s`.
fn explored(s: &Scenario, seed: u64, execs: usize) -> ExecutionTree {
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let config = PodConfig {
        input_range: s.input_range,
        seed,
        ..PodConfig::default()
    };
    let mut pod = Pod::new(&s.program, config);
    for _ in 0..execs {
        hive.ingest(&pod.run_once().trace);
    }
    hive.tree().clone()
}

/// Plans `max_targets` arms of `tree` both ways and compares directive
/// for directive, stats and the marks left in the tree. Returns whether
/// the cut fell inside a run of tied scores, where only the tie order
/// decides which arms are targeted.
fn plans_agree(s: &Scenario, tree: &ExecutionTree, max_targets: usize) -> bool {
    let config = PlannerConfig {
        max_targets,
        ..HiveConfig::default().planner
    };
    let (mut planned, mut referenced) = (tree.clone(), tree.clone());
    let (plan, stats) = plan_with_crash_seeds(&s.program, &mut planned, &config, &[]);
    let (directives, expected) = reference_plan(&s.program, &mut referenced, &config);
    assert_eq!(plan.directives, directives, "{} k={max_targets}", s.name);
    assert_eq!(stats, expected, "{} k={max_targets}", s.name);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    planned.encode_into(&mut a);
    referenced.encode_into(&mut b);
    assert_eq!(
        a, b,
        "{} k={max_targets}: infeasibility marks differ",
        s.name
    );
    let ranked = reference_targets(tree, usize::MAX);
    ranked.len() > max_targets
        && max_targets > 0
        && arm_score(&ranked[max_targets - 1]) == arm_score(&ranked[max_targets])
}

#[test]
fn the_property_meets_ties_at_the_cut() {
    // `record_processor` is the benchmark's wide tree: twelve
    // independent branches, so many arms share a depth and a visit
    // count.
    let s = scenarios::record_processor();
    let tree = explored(&s, 1, 200);
    assert!((1..24).any(|k| plans_agree(&s, &tree, k)));
}

#[test]
fn multi_threaded_plans_count_the_ranked_arms() {
    // `spin_wait` is the benchmark's deep tree; `racy_counter` runs
    // two workers on one counter.
    for s in [scenarios::spin_wait(), scenarios::racy_counter()] {
        assert!(s.program.threads.len() > 1, "{}", s.name);
        for (seed, execs) in [(1, 1), (2, 40), (3, 200)] {
            let tree = explored(&s, seed, execs);
            assert!(tree.coverage().frontier_arms > 0, "{}", s.name);
            for max_targets in [0, 1, 16, 5_000] {
                plans_agree(&s, &tree, max_targets);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One case in sixteen carries two ≥ 2,000-decision hang paths.
    #[test]
    fn summary_counts_equal_the_reference_reads(
        seed in any::<u64>(),
        n_ops in 1usize..60,
        shape in 0u32..16,
    ) {
        let trees = common::build(seed, n_ops, shape == 0);
        let (sites, open) = reference_sites_and_open_arms(&trees.mem);
        let proofs_expected = reference_proof_count(&trees.mem);
        for (kind, tree) in [("memory", &trees.mem), ("delta-chained", &trees.chained)] {
            let closed = (0..tree.node_count())
                .filter(|&i| tree.is_closed(NodeId(i as u32)))
                .count();
            let coverage = tree.coverage();
            prop_assert_eq!(coverage.sites_seen, sites, "{}", kind);
            prop_assert_eq!(coverage.frontier_arms, open, "{}", kind);
            prop_assert_eq!(coverage.closed_fraction, closed as f64 / tree.node_count() as f64);
            prop_assert_eq!(tree.proven_subtrees(), proofs_expected, "{}", kind);
            prop_assert_eq!(proofs::assemble(tree).len() as u64, proofs_expected, "{}", kind);
        }
    }

    #[test]
    fn top_k_plans_equal_stable_sort_then_truncate(
        seed in any::<u64>(),
        execs in 1usize..160,
        max_targets in 0usize..24,
        program in 0u32..2,
    ) {
        let s = if program == 0 { scenarios::record_processor() } else { scenarios::token_parser() };
        plans_agree(&s, &explored(&s, seed, execs), max_targets);
    }
}
