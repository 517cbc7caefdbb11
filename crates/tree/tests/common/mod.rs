//! Seeded execution-tree workloads shared by the summary ≡ reference
//! suites (`summary_reference.rs` here, `proofs_reference.rs` in
//! `softborg-hive`, which includes this file by path): arbitrary
//! sequences of every operation that changes a tree, applied to a memory
//! tree and a paged tree in lock-step.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_program::cfg::Loc;
use softborg_program::codec;
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::{BranchSiteId, ProgramId};
use softborg_store::PagedConfig;
use softborg_tree::{ExecutionTree, NodeId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub const PROGRAM: ProgramId = ProgramId(77);

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

pub fn scratch(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("softborg-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn random_tree(rng: &mut SmallRng) -> ExecutionTree {
    let mut t = ExecutionTree::new(PROGRAM);
    for _ in 0..rng.gen_range(1..6) {
        let len = rng.gen_range(0..5);
        t.merge_path(&path(rng, len, 50), &outcome(rng));
    }
    t
}

fn encode(t: &ExecutionTree) -> Vec<u8> {
    let mut buf = Vec::new();
    t.encode_into(&mut buf);
    buf
}

/// The trees one case ends with, all in the same logical state.
pub struct Trees {
    pub mem: ExecutionTree,
    pub paged: ExecutionTree,
    /// A replica kept current only through `encode_delta → apply_delta`.
    pub chained: ExecutionTree,
    page_dirs: Vec<PathBuf>,
}

impl Drop for Trees {
    fn drop(&mut self) {
        for dir in &self.page_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Applies `n_ops` seeded operations — `merge_path` (failing outcomes
/// included; with `deep`, two ≥ 2,000-decision paths that share most of
/// their length), `mark_infeasible`, `absorb`, `encode → decode`, and
/// `encode_delta → apply_delta` — to a memory tree and a paged tree.
pub fn build(seed: u64, n_ops: usize, deep: bool) -> Trees {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (page_len, resident) = if deep { (128, 3) } else { (4, 2) };
    let mut page_dirs = vec![scratch("summary")];
    let mut mem = ExecutionTree::new(PROGRAM);
    let mut paged =
        ExecutionTree::new_paged(PROGRAM, PagedConfig::new(&page_dirs[0], page_len, resident))
            .expect("page dir");
    let mut chained = ExecutionTree::new(PROGRAM);
    if deep {
        for _ in 0..2 {
            let len = rng.gen_range(2_000..2_400);
            let (p, o) = (path(&mut rng, len, 100), outcome(&mut rng));
            mem.merge_path(&p, &o);
            paged.merge_path(&p, &o);
        }
    }
    for _ in 0..n_ops {
        match rng.gen_range(0..10) {
            0..=4 => {
                let len = rng.gen_range(0..7);
                let (p, o) = (path(&mut rng, len, 50), outcome(&mut rng));
                assert_eq!(mem.merge_path(&p, &o), paged.merge_path(&p, &o));
            }
            5..=6 => {
                let node = NodeId(rng.gen_range(0..mem.node_count()) as u32);
                // Mostly an arm of the site the node branches on, so the
                // mark can close it; sometimes a site it never saw.
                let site = mem
                    .with_node(node, |n| n.sites().first().copied())
                    .filter(|_| rng.gen_range(0..4) != 0)
                    .unwrap_or(BranchSiteId::new(rng.gen_range(0..4)));
                let taken = rng.gen_range(0..2) == 0;
                mem.mark_infeasible(node, site, taken);
                paged.mark_infeasible(node, site, taken);
            }
            7 => {
                let other = random_tree(&mut rng);
                mem.absorb(&other);
                paged.absorb(&other);
            }
            8 => {
                let bytes = encode(&mem);
                assert_eq!(bytes, encode(&paged), "paging changed the state bytes");
                mem = ExecutionTree::decode(&mut codec::Reader::new(&bytes)).expect("decode");
                paged = mem.clone();
                page_dirs.push(scratch("summary"));
                let cfg = PagedConfig::new(page_dirs.last().expect("pushed"), page_len, resident);
                paged.enable_paging(cfg).expect("page dir");
                // A full snapshot re-bases the delta chain too.
                chained = mem.clone();
            }
            _ => {
                let mut delta = Vec::new();
                paged.encode_delta_into(&mut delta);
                let mut mem_delta = Vec::new();
                mem.encode_delta_into(&mut mem_delta);
                assert_eq!(delta, mem_delta, "paging changed the delta bytes");
                chained
                    .apply_delta(&mut codec::Reader::new(&delta))
                    .expect("delta applies");
                mem.mark_clean();
                paged.mark_clean();
            }
        }
    }
    let mut delta = Vec::new();
    mem.encode_delta_into(&mut delta);
    chained
        .apply_delta(&mut codec::Reader::new(&delta))
        .expect("delta applies");
    assert_eq!(encode(&mem), encode(&chained), "delta chain diverged");
    Trees {
        mem,
        paged,
        chained,
        page_dirs,
    }
}
