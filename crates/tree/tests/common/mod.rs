//! Seeded execution-tree workloads shared by the summary ≡ reference
//! suites (`summary_reference.rs` here, `proofs_reference.rs` in
//! `softborg-hive`, which includes this file by path): arbitrary
//! sequences of every operation that changes a tree, applied to a live
//! tree and to a replica kept current only through deltas.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_program::cfg::Loc;
use softborg_program::codec;
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::{BranchSiteId, ProgramId};
use softborg_tree::{ExecutionTree, NodeId};

pub const PROGRAM: ProgramId = ProgramId(77);

fn outcome(rng: &mut SmallRng) -> Outcome {
    match rng.gen_range(0..8) {
        0 => Outcome::Crash {
            loc: Loc::default(),
            kind: CrashKind::AssertFailed,
        },
        1 => Outcome::Hang { stuck: vec![] },
        _ => Outcome::Success,
    }
}

/// A decision path the way a program produces them: the site at a node
/// is a function of its depth, so nodes are single-site and shallow
/// subtrees fill up and close; one decision in sixteen names another
/// site, as a different interleaving would.
fn path(rng: &mut SmallRng, len: usize, p_true: u32) -> Vec<(BranchSiteId, bool)> {
    (0..len)
        .map(|d| {
            let site = if rng.gen_range(0..16) == 0 { 9 } else { d % 3 };
            (
                BranchSiteId::new(site as u32),
                rng.gen_range(0..100) < p_true,
            )
        })
        .collect()
}

fn encode(t: &ExecutionTree) -> Vec<u8> {
    let mut buf = Vec::new();
    t.encode_into(&mut buf);
    buf
}

/// The trees one case ends with, all in the same logical state.
pub struct Trees {
    pub mem: ExecutionTree,
    /// A replica kept current only through `encode_delta → apply_delta`.
    pub chained: ExecutionTree,
}

/// Applies `n_ops` seeded operations — `merge_path` (failing outcomes
/// included; with `deep`, two ≥ 2,000-decision paths that share most of
/// their length), `mark_infeasible`, a batch of short paths merged in a
/// row, `encode → decode`, and `encode_delta → apply_delta` — to a
/// memory tree.
pub fn build(seed: u64, n_ops: usize, deep: bool) -> Trees {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mem = ExecutionTree::new(PROGRAM);
    let mut chained = ExecutionTree::new(PROGRAM);
    if deep {
        for _ in 0..2 {
            let len = rng.gen_range(2_000..2_400);
            let (p, o) = (path(&mut rng, len, 100), outcome(&mut rng));
            mem.merge_path(&p, &o);
        }
    }
    for _ in 0..n_ops {
        match rng.gen_range(0..10) {
            0..=4 => {
                let len = rng.gen_range(0..7);
                let (p, o) = (path(&mut rng, len, 50), outcome(&mut rng));
                mem.merge_path(&p, &o);
            }
            5..=6 => {
                let node = NodeId(rng.gen_range(0..mem.node_count()) as u32);
                // Mostly an arm of the site the node branches on, so the
                // mark can close it; sometimes a site it never saw.
                let site = mem
                    .node(node)
                    .sites()
                    .first()
                    .copied()
                    .filter(|_| rng.gen_range(0..4) != 0)
                    .unwrap_or(BranchSiteId::new(rng.gen_range(0..4)));
                let taken = rng.gen_range(0..2) == 0;
                mem.mark_infeasible(node, site, taken);
            }
            7 => {
                for _ in 0..rng.gen_range(1..6) {
                    let len = rng.gen_range(0..5);
                    let (p, o) = (path(&mut rng, len, 50), outcome(&mut rng));
                    mem.merge_path(&p, &o);
                }
            }
            8 => {
                let bytes = encode(&mem);
                mem = ExecutionTree::decode(&mut codec::Reader::new(&bytes)).expect("decode");
                // A full snapshot re-bases the delta chain too.
                chained = mem.clone();
            }
            _ => {
                let mut delta = Vec::new();
                mem.encode_delta_into(&mut delta);
                chained
                    .apply_delta(&mut codec::Reader::new(&delta))
                    .expect("delta applies");
                mem.mark_clean();
            }
        }
    }
    let mut delta = Vec::new();
    mem.encode_delta_into(&mut delta);
    chained
        .apply_delta(&mut codec::Reader::new(&delta))
        .expect("delta applies");
    assert_eq!(encode(&mem), encode(&chained), "delta chain diverged");
    Trees { mem, chained }
}
