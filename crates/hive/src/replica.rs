//! Hive replica synchronization: a *physically distributed* hive
//! (paper §3: the hive "may be … entirely distributed, running on
//! end-users' machines, or hybrid").
//!
//! Each replica ingests the traces of its own pod shard into a local
//! execution tree and gossips newly-learned distinct paths to its peers
//! over the (lossy) network simulator. Anti-entropy: un-acknowledged
//! paths are re-gossiped on every round, so replicas converge to the
//! same tree digest despite message loss — the structural merge is
//! [`softborg_tree::ExecutionTree::absorb`]-equivalent but streamed
//! path-by-path.

use softborg_netsim::{Addr, Proc, SimConfig, SimTime, World, WorldCtx};
use softborg_program::interp::Outcome;
use softborg_program::{BranchSiteId, ProgramId};
use softborg_tree::ExecutionTree;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// A path with its outcome class, as gossiped between replicas.
pub type OutcomePath = (Vec<(BranchSiteId, bool)>, Outcome);

/// Replica-synchronization configuration.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Number of hive replicas.
    pub replicas: u32,
    /// Network loss, parts per 1000.
    pub loss_per_mille: u32,
    /// Gossip period in µs.
    pub gossip_us: u64,
    /// Maximum paths per gossip message.
    pub batch: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Simulation horizon in µs.
    pub horizon_us: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            replicas: 4,
            loss_per_mille: 0,
            gossip_us: 10_000,
            batch: 64,
            seed: 0,
            horizon_us: 30_000_000,
        }
    }
}

/// Result of a replica-sync run.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Tree digests per replica at the end of the run.
    pub digests: Vec<u64>,
    /// Whether all replicas converged to one digest.
    pub converged: bool,
    /// Distinct paths in each replica's tree.
    pub paths_per_replica: Vec<u64>,
    /// Gossip messages sent / dropped.
    pub messages_sent: u64,
    /// Messages dropped.
    pub messages_dropped: u64,
}

/// Compact path encoding: u32 count, then per decision u32 site + u8
/// taken, then a u8 outcome class (structure is all the tree needs; rich
/// outcome payloads travel pod→replica, not replica→replica).
fn encode_paths(paths: &[OutcomePath]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(paths.len() as u32).to_le_bytes());
    for (decisions, outcome) in paths {
        out.extend_from_slice(&(decisions.len() as u32).to_le_bytes());
        for (site, taken) in decisions {
            out.extend_from_slice(&site.0.to_le_bytes());
            out.push(u8::from(*taken));
        }
        out.push(match outcome {
            Outcome::Success => 0,
            Outcome::Crash { .. } => 1,
            Outcome::Deadlock { .. } => 2,
            Outcome::Hang { .. } => 3,
        });
    }
    out
}

fn decode_paths(data: &[u8]) -> Option<Vec<OutcomePath>> {
    let mut pos = 0usize;
    let take_u32 = |pos: &mut usize| -> Option<u32> {
        let v = u32::from_le_bytes(data.get(*pos..*pos + 4)?.try_into().ok()?);
        *pos += 4;
        Some(v)
    };
    let n = take_u32(&mut pos)? as usize;
    if n > 1_000_000 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = take_u32(&mut pos)? as usize;
        if len > 1_000_000 {
            return None;
        }
        let mut decisions = Vec::with_capacity(len);
        for _ in 0..len {
            let site = take_u32(&mut pos)?;
            let taken = *data.get(pos)? != 0;
            pos += 1;
            decisions.push((BranchSiteId::new(site), taken));
        }
        let outcome = match *data.get(pos)? {
            0 => Outcome::Success,
            1 => Outcome::Crash {
                loc: softborg_program::Loc::default(),
                kind: softborg_program::interp::CrashKind::AssertFailed,
            },
            2 => Outcome::Deadlock { cycle: vec![] },
            _ => Outcome::Hang { stuck: vec![] },
        };
        pos += 1;
        out.push((decisions, outcome));
    }
    Some(out)
}

fn path_key(p: &OutcomePath) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    p.0.hash(&mut h);
    std::mem::discriminant(&p.1).hash(&mut h);
    h.finish()
}

struct Replica {
    peers: Vec<Addr>,
    tree: Rc<RefCell<ExecutionTree>>,
    /// Everything this replica knows, by key (for dedup on receive).
    known: HashSet<u64>,
    /// Full store for anti-entropy re-gossip.
    store: Vec<OutcomePath>,
    /// Per-peer high-water mark into `store` (optimistic; loss is healed
    /// by periodic full-rotation re-sends).
    sent_to: Vec<usize>,
    gossip_us: u64,
    batch: usize,
    /// Rotates which slice of the store gets re-sent for anti-entropy.
    rotate: usize,
    next_peer: usize,
}

impl Replica {
    fn learn(&mut self, paths: Vec<OutcomePath>) {
        for p in paths {
            if self.known.insert(path_key(&p)) {
                self.tree.borrow_mut().merge_path(&p.0, &p.1);
                self.store.push(p);
            }
        }
    }

    fn gossip(&mut self, ctx: &mut WorldCtx<'_>) {
        if self.peers.is_empty() || self.store.is_empty() {
            return;
        }
        let peer_idx = self.next_peer % self.peers.len();
        self.next_peer += 1;
        let peer = self.peers[peer_idx];
        // New paths first; top up with an anti-entropy rotation slice.
        let hwm = self.sent_to[peer_idx];
        let mut batch: Vec<OutcomePath> = self.store[hwm.min(self.store.len())..]
            .iter()
            .take(self.batch)
            .cloned()
            .collect();
        self.sent_to[peer_idx] = (hwm + batch.len()).min(self.store.len());
        let mut i = self.rotate;
        while batch.len() < self.batch && i < self.rotate + self.batch {
            if let Some(p) = self.store.get(i % self.store.len().max(1)) {
                batch.push(p.clone());
            }
            i += 1;
        }
        self.rotate = i % self.store.len().max(1);
        if !batch.is_empty() {
            ctx.send(peer, encode_paths(&batch));
        }
    }
}

impl Proc for Replica {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        ctx.set_timer(self.gossip_us, 0);
    }

    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, _ctx: &mut WorldCtx<'_>) {
        if let Some(paths) = decode_paths(&payload) {
            self.learn(paths);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut WorldCtx<'_>) {
        self.gossip(ctx);
        ctx.set_timer(self.gossip_us, 0);
    }
}

/// Runs replica synchronization: `shards[i]` is the path stream replica
/// `i` ingests locally (its pod shard); the report captures whether the
/// replicas' trees converged.
pub fn run_replica_sync(
    program: ProgramId,
    shards: Vec<Vec<OutcomePath>>,
    config: &ReplicaConfig,
) -> ReplicaReport {
    let n = config.replicas as usize;
    assert!(
        shards.len() == n,
        "one shard per replica ({} shards, {} replicas)",
        shards.len(),
        n
    );
    let mut world = World::new(SimConfig {
        seed: config.seed,
        link: softborg_netsim::LinkConfig {
            loss_per_mille: config.loss_per_mille,
            ..Default::default()
        },
        max_events: 5_000_000,
        ..SimConfig::default()
    });
    let addrs: Vec<Addr> = (0..n).map(|i| Addr(i as u32)).collect();
    let trees: Vec<Rc<RefCell<ExecutionTree>>> = (0..n)
        .map(|_| Rc::new(RefCell::new(ExecutionTree::new(program))))
        .collect();
    for (i, shard) in shards.into_iter().enumerate() {
        let peers: Vec<Addr> = addrs
            .iter()
            .copied()
            .filter(|a| a.0 as usize != i)
            .collect();
        let mut replica = Replica {
            peers,
            tree: trees[i].clone(),
            known: HashSet::new(),
            store: Vec::new(),
            sent_to: vec![0; n - 1],
            gossip_us: config.gossip_us,
            batch: config.batch,
            rotate: 0,
            next_peer: i, // stagger peer rotation
        };
        replica.learn(shard);
        let addr = world.add_proc(Box::new(replica));
        debug_assert_eq!(addr.0 as usize, i);
    }
    world.run_until(SimTime(config.horizon_us));
    let digests: Vec<u64> = trees.iter().map(|t| t.borrow().digest()).collect();
    let converged = digests.windows(2).all(|w| w[0] == w[1]);
    ReplicaReport {
        converged,
        paths_per_replica: trees.iter().map(|t| t.borrow().distinct_paths()).collect(),
        digests,
        messages_sent: world.net_stats().sent,
        messages_dropped: world.net_stats().dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_shards(n: usize, paths_per_shard: usize, seed: u64) -> Vec<Vec<OutcomePath>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..paths_per_shard)
                    .map(|_| {
                        let depth = rng.gen_range(1..8);
                        let decisions = (0..depth)
                            .map(|d| (BranchSiteId::new(d), rng.gen_bool(0.6)))
                            .collect();
                        (decisions, Outcome::Success)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn replicas_converge_on_a_lossless_network() {
        let cfg = ReplicaConfig::default();
        let shards = synthetic_shards(4, 50, 1);
        let report = run_replica_sync(ProgramId(1), shards, &cfg);
        assert!(report.converged, "{report:?}");
        assert!(report.paths_per_replica.iter().all(|p| *p > 0));
        // Every replica holds the union.
        let first = report.paths_per_replica[0];
        assert!(report.paths_per_replica.iter().all(|p| *p == first));
    }

    #[test]
    fn replicas_converge_despite_heavy_loss() {
        let cfg = ReplicaConfig {
            loss_per_mille: 300,
            seed: 7,
            ..ReplicaConfig::default()
        };
        let shards = synthetic_shards(4, 40, 2);
        let report = run_replica_sync(ProgramId(1), shards, &cfg);
        assert!(
            report.converged,
            "anti-entropy must heal 30% loss: {report:?}"
        );
        assert!(report.messages_dropped > 0, "loss must actually occur");
    }

    #[test]
    fn converged_replicas_match_a_centralized_tree() {
        let shards = synthetic_shards(3, 30, 3);
        let mut central = ExecutionTree::new(ProgramId(1));
        let mut seen = HashSet::new();
        for shard in &shards {
            for p in shard {
                if seen.insert(path_key(p)) {
                    central.merge_path(&p.0, &p.1);
                }
            }
        }
        let cfg = ReplicaConfig {
            replicas: 3,
            ..ReplicaConfig::default()
        };
        let report = run_replica_sync(ProgramId(1), shards, &cfg);
        assert!(report.converged);
        assert_eq!(
            report.digests[0],
            central.digest(),
            "distributed union must equal the centralized tree"
        );
    }

    #[test]
    fn path_codec_roundtrips() {
        let paths: Vec<OutcomePath> = vec![
            (vec![(BranchSiteId::new(0), true)], Outcome::Success),
            (
                vec![(BranchSiteId::new(5), false), (BranchSiteId::new(9), true)],
                Outcome::Deadlock { cycle: vec![] },
            ),
            (vec![], Outcome::Hang { stuck: vec![] }),
        ];
        let enc = encode_paths(&paths);
        let dec = decode_paths(&enc).expect("roundtrip");
        assert_eq!(dec.len(), 3);
        assert_eq!(dec[0].0, paths[0].0);
        assert!(matches!(dec[1].1, Outcome::Deadlock { .. }));
    }

    #[test]
    fn garbage_payloads_are_rejected() {
        assert!(decode_paths(&[1, 2, 3]).is_none());
        assert!(decode_paths(&u32::MAX.to_le_bytes()).is_none());
    }
}
