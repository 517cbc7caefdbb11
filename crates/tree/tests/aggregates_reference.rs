//! The tree keeps its facts current as it changes: per node, subtree
//! size, subtree failures, closure, depth and the proven-subtree count;
//! per tree, closed nodes, open arms, sites seen and the frontier index.
//! This suite holds them, after every operation on a tree, to three
//! references:
//! - a fresh full derivation: an `encode_into` → `decode` round trip,
//!   which derives every fact from scratch (nothing derived is stored);
//! - the crate's per-node walks (`closed_by_walk`, `failures_by_walk`), on a
//!   sample of nodes;
//! - definitions written here from the public node API: closure,
//!   failures and size of every subtree, the proof set (the walk from
//!   the root that stops at every closed, failure-free, visited node),
//!   and the frontier as the old sweep listed it (node order, depths
//!   from the root down).
//!
//! Trees grow by merges of single- and multi-site paths, passing and
//! failing, re-merges of known paths, and in one case in eight two
//! chains over 2,000 decisions deep that fork near their ends. They are
//! changed by single and bulk infeasibility marks, batches of short
//! paths merged in a row, `decode`, and delta chains (the replica is
//! checked after every applied delta).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_program::cfg::Loc;
use softborg_program::codec;
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::{BranchSiteId, ProgramId};
use softborg_tree::{ExecutionTree, FrontierArm, NodeId};

const PROGRAM: ProgramId = ProgramId(41);

fn outcome(rng: &mut SmallRng) -> Outcome {
    match rng.gen_range(0..16) {
        0..=2 => Outcome::Crash {
            loc: Loc::default(),
            kind: CrashKind::AssertFailed,
        },
        3 => Outcome::Hang { stuck: vec![] },
        4 => Outcome::Deadlock { cycle: vec![] },
        _ => Outcome::Success,
    }
}

type Path = Vec<(BranchSiteId, bool)>;

/// A path whose site is a function of depth (single-site nodes, so
/// subtrees fill up and close), or with `multi`, any of six sites at
/// every decision (interleaving-divergent nodes).
fn path(rng: &mut SmallRng, len: usize, multi: bool) -> Path {
    (0..len)
        .map(|d| {
            let site = if multi { rng.gen_range(0..6) } else { d % 4 };
            (BranchSiteId::new(site as u32), rng.gen_bool(0.5))
        })
        .collect()
}

/// A chain over 2,000 decisions deep: every arm `true` but one near the
/// end, so two chains share most of their length and fork deep down.
fn deep_path(rng: &mut SmallRng) -> Path {
    let len = rng.gen_range(2_000..2_400);
    let fork = rng.gen_range(len - 50..len);
    (0..len)
        .map(|d| (BranchSiteId::new((d % 4) as u32), d != fork))
        .collect()
}

fn encode(t: &ExecutionTree) -> Vec<u8> {
    let mut buf = Vec::new();
    t.encode_into(&mut buf);
    buf
}

/// Closure, failures and size of every subtree, from the definitions
/// over the public node API: a leaf closes iff it is terminal; an inner
/// node iff it has one site and each arm is infeasible or explored and
/// closed. Children are allocated after their parents, so one pass
/// from the last node sees every child first.
struct Reference {
    closed: Vec<bool>,
    failures: Vec<u64>,
    nodes: Vec<u64>,
}

fn children(tree: &ExecutionTree, id: NodeId) -> Vec<NodeId> {
    let n = tree.node(id);
    n.sites()
        .into_iter()
        .flat_map(|site| [false, true].map(|taken| n.child(site, taken)))
        .flatten()
        .collect()
}

impl Reference {
    fn of(tree: &ExecutionTree) -> Self {
        let len = tree.node_count() as usize;
        let mut r = Reference {
            closed: vec![false; len],
            failures: vec![0; len],
            nodes: vec![1; len],
        };
        for i in (0..len).rev() {
            let id = NodeId(i as u32);
            let n = tree.node(id);
            r.failures[i] = n.terminal.failures();
            for c in children(tree, id) {
                r.failures[i] += r.failures[c.0 as usize];
                r.nodes[i] += r.nodes[c.0 as usize];
            }
            let sites = n.sites();
            r.closed[i] = match sites[..] {
                [] => n.is_terminal(),
                [site] => [false, true].into_iter().all(|taken| {
                    n.is_infeasible(site, taken)
                        || n.child(site, taken).is_some_and(|c| r.closed[c.0 as usize])
                }),
                _ => false,
            };
        }
        r
    }

    /// Roots of the maximal closed, failure-free, visited subtrees.
    fn proof_set(&self, tree: &ExecutionTree) -> Vec<NodeId> {
        let mut roots = Vec::new();
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            if self.closed[i] && self.failures[i] == 0 && tree.node(id).visits > 0 {
                roots.push(id);
                continue;
            }
            stack.extend(children(tree, id));
        }
        roots
    }
}

/// The frontier as the old sweep listed it: every node in index order,
/// its open arms sites ascending and `false` first, depths counted from
/// the root down.
fn swept_frontier(tree: &ExecutionTree) -> Vec<FrontierArm> {
    let len = tree.node_count() as usize;
    let mut depth = vec![0u64; len];
    let mut out = Vec::new();
    for i in 0..len {
        let id = NodeId(i as u32);
        let n = tree.node(id);
        for c in children(tree, id) {
            depth[c.0 as usize] = depth[i] + 1;
        }
        for site in n.sites() {
            for taken in [false, true] {
                if n.child(site, taken).is_none() && !n.is_infeasible(site, taken) {
                    out.push(FrontierArm {
                        node: id,
                        site,
                        missing_taken: taken,
                        depth: depth[i],
                        visits: n.visits,
                    });
                }
            }
        }
    }
    out
}

/// Holds every kept-current fact of `tree` to the three references.
fn check(tree: &ExecutionTree, rng: &mut SmallRng, what: &str) {
    let fresh = ExecutionTree::decode(&mut codec::Reader::new(&encode(tree))).expect("decode");
    assert_eq!(tree.coverage(), fresh.coverage(), "{what}");
    assert!(tree.same_facts(&fresh), "{what}: vs a fresh derivation");

    let r = Reference::of(tree);
    let len = tree.node_count();
    for i in 0..len {
        let id = NodeId(i as u32);
        let j = i as usize;
        assert_eq!(tree.is_closed(id), r.closed[j], "{what}: closure of {id:?}");
        assert_eq!(
            tree.subtree_failures(id),
            r.failures[j],
            "{what}: failures of {id:?}"
        );
        assert_eq!(tree.subtree_nodes(id), r.nodes[j], "{what}: size of {id:?}");
    }
    assert_eq!(
        tree.proven_subtrees(),
        r.proof_set(tree).len() as u64,
        "{what}: proofs"
    );
    let coverage = tree.coverage();
    let closed = r.closed.iter().filter(|c| **c).count();
    assert_eq!(
        coverage.closed_fraction,
        closed as f64 / len as f64,
        "{what}"
    );
    let mut sites: Vec<_> = (0..len)
        .flat_map(|i| tree.node(NodeId(i as u32)).sites())
        .collect();
    sites.sort();
    sites.dedup();
    assert_eq!(coverage.sites_seen, sites.len() as u64, "{what}: sites");

    // The crate's per-node walks are O(subtree) each: all of a small
    // tree, the root and a sample of a big one.
    let sample: Vec<u32> = if len <= 200 {
        (0..len as u32).collect()
    } else {
        (0..24)
            .map(|_| rng.gen_range(0..len as u32))
            .chain([0])
            .collect()
    };
    for id in sample.into_iter().map(NodeId) {
        assert_eq!(
            tree.is_closed(id),
            tree.closed_by_walk(id),
            "{what}: {id:?}"
        );
        assert_eq!(
            tree.subtree_failures(id),
            tree.failures_by_walk(id),
            "{what}: {id:?}"
        );
    }

    let frontier = tree.frontier();
    assert_eq!(frontier, swept_frontier(tree), "{what}: frontier");
    assert_eq!(coverage.frontier_arms, frontier.len() as u64, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kept_current_facts_equal_a_fresh_derivation_and_the_walks(
        seed in any::<u64>(),
        n_ops in 1usize..48,
        shape in 0u32..8,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mem = ExecutionTree::new(PROGRAM);
        let mut chained = ExecutionTree::new(PROGRAM);
        let mut known: Vec<Path> = Vec::new();
        if shape == 0 {
            for _ in 0..2 {
                let p = deep_path(&mut rng);
                mem.merge_path(&p, &outcome(&mut rng));
                check(&mem, &mut rng, "deep merge");
                known.push(p);
            }
        }
        for op in 0..n_ops {
            let what = match rng.gen_range(0..12) {
                0..=2 => {
                    let len = rng.gen_range(0..8);
                    let p = path(&mut rng, len, false);
                    mem.merge_path(&p, &outcome(&mut rng));
                    known.push(p);
                    "merge"
                }
                3 => {
                    let len = rng.gen_range(0..8);
                    let p = path(&mut rng, len, true);
                    mem.merge_path(&p, &outcome(&mut rng));
                    known.push(p);
                    "multi-site merge"
                }
                4 if !known.is_empty() => {
                    let p = &known[rng.gen_range(0..known.len())];
                    mem.merge_path(p, &outcome(&mut rng));
                    "known-path merge"
                }
                4 | 5 => {
                    let node = NodeId(rng.gen_range(0..mem.node_count()) as u32);
                    // Mostly an arm of the site the node branches on, so
                    // the mark can close it; sometimes one it never saw.
                    let site = mem
                        .node(node)
                        .sites()
                        .first()
                        .copied()
                        .filter(|_| rng.gen_range(0..4) != 0)
                        .unwrap_or(BranchSiteId::new(rng.gen_range(0..6)));
                    mem.mark_infeasible(node, site, rng.gen_bool(0.5));
                    "mark"
                }
                6 => {
                    // A planner's round of marks: some or all open arms.
                    let per_mille = if rng.gen_bool(0.25) { 1_000 } else { rng.gen_range(0..1_000) };
                    for arm in mem.frontier() {
                        if rng.gen_range(0..1_000) < per_mille {
                            mem.mark_infeasible(arm.node, arm.site, arm.missing_taken);
                        }
                    }
                    "bulk marks"
                }
                7 => {
                    for _ in 0..rng.gen_range(1..8) {
                        let (len, multi) = (rng.gen_range(0..7), rng.gen_range(0..4) == 0);
                        let p = path(&mut rng, len, multi);
                        mem.merge_path(&p, &outcome(&mut rng));
                        known.push(p);
                    }
                    "batch merge"
                }
                8 => {
                    mem = ExecutionTree::decode(&mut codec::Reader::new(&encode(&mem)))
                        .expect("decode");
                    // A full snapshot re-bases the delta chain too.
                    chained = mem.clone();
                    "decode"
                }
                _ => {
                    let mut delta = Vec::new();
                    mem.encode_delta_into(&mut delta);
                    chained
                        .apply_delta(&mut codec::Reader::new(&delta))
                        .expect("delta applies");
                    mem.mark_clean();
                    check(&chained, &mut rng, &format!("op {op}: delta-chained replica"));
                    "delta"
                }
            };
            check(&mem, &mut rng, &format!("op {op}: {what}"));
        }
    }
}
