//! Deterministic fault-plan generation: case `i` of a seeded sweep is a
//! pure function of `(seed, i, GenConfig, workload shape)` — no wall
//! clock, no process entropy, no shared RNG state between cases. Any
//! case of any sweep can therefore be regenerated in isolation, which
//! is what lets a divergence report say "seed 7, case 1042" and mean
//! something forever.
//!
//! Plans are *survivable by construction*: crashes target only the hive
//! server (pods model end-user machines whose client sessions do not
//! restart — crashing one would stall its session and fail the
//! completion oracle vacuously), partitions pair a pod with the server
//! over bounded windows, rates stay within validated bounds, and every
//! emitted plan passes [`FaultPlan::validate`] for the workload's node
//! count. A correct platform must digest any of them; whatever the
//! oracles catch is a real robustness bug (or an armed canary).

use crate::workload::Workload;
use softborg_netsim::{
    Addr, Crash, DiskCrashPoint, FaultPlan, Partition, SectorCorruption, SECTOR_BYTES,
};

/// Bounds of the generated fault space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Most server crash windows per plan.
    pub max_crashes: usize,
    /// Most pod↔server partition windows per plan.
    pub max_partitions: usize,
    /// Upper bound on message duplication (‰).
    pub max_dup_per_mille: u32,
    /// Upper bound on message reordering (‰).
    pub max_reorder_per_mille: u32,
    /// Upper bound on the reorder delay window (µs).
    pub max_reorder_window_us: u64,
    /// Fault windows start within `[0, fault_horizon_us)` — roughly the
    /// virtual span of the workload's active streaming phase.
    pub fault_horizon_us: u64,
    /// Longest server downtime per crash window (µs).
    pub max_crash_down_us: u64,
    /// Longest partition window (µs).
    pub max_partition_len_us: u64,
    /// Most disk crash/corruption points per plan. `0` (the default)
    /// disables disk faults entirely *and* consumes no RNG draws, so
    /// every plan of a disk-free sweep is byte-identical to what the
    /// same `(seed, case)` produced before disk faults existed.
    pub max_disk_points: usize,
    /// Generated [`DiskCrashPoint::AtRoundBoundary`] kills land in
    /// rounds `1..=disk_round_horizon` of the durable campaign.
    pub disk_round_horizon: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_crashes: 2,
            max_partitions: 2,
            max_dup_per_mille: 80,
            max_reorder_per_mille: 150,
            max_reorder_window_us: 30_000,
            fault_horizon_us: 60_000,
            max_crash_down_us: 20_000,
            max_partition_len_us: 20_000,
            max_disk_points: 0,
            disk_round_horizon: 8,
        }
    }
}

impl GenConfig {
    /// Bounds for sweeping the durable multi-program campaign: only
    /// disk faults (round-boundary kills plus journal/checkpoint-record
    /// sector corruption) — network-level knobs are inert there and
    /// would only pad plan weight.
    pub fn disk_only(rounds: u64) -> Self {
        GenConfig {
            max_crashes: 0,
            max_partitions: 0,
            max_dup_per_mille: 0,
            max_reorder_per_mille: 0,
            max_disk_points: 3,
            disk_round_horizon: rounds.max(1),
            ..GenConfig::default()
        }
    }
}

/// splitmix64: the standard 64-bit finalizer-based PRNG step. Chosen
/// for the same reason `FaultPlan::for_link` uses it — stateless,
/// seedable from arithmetic on identifiers, and good enough diffusion
/// that consecutive cases explore uncorrelated corners of the space.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct CaseRng(u64);

impl CaseRng {
    fn new(seed: u64, case: u64) -> Self {
        // Fold the case index through the mixer before xoring so cases
        // 0 and 1 of the same seed share no low-bit structure.
        CaseRng(splitmix64(seed) ^ splitmix64(!case))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform-ish draw in `[0, bound]` (`bound + 1` buckets).
    fn up_to(&mut self, bound: u64) -> u64 {
        self.next() % (bound + 1)
    }
}

/// Generates case `case` of the sweep seeded by `seed`. The returned
/// plan always passes [`FaultPlan::validate`] for `workload`'s node
/// count.
pub fn generate_plan(seed: u64, case: u64, cfg: &GenConfig, workload: &Workload) -> FaultPlan {
    let mut rng = CaseRng::new(seed, case);
    let server = Addr(workload.pods as u32);
    let horizon = cfg.fault_horizon_us.max(1);

    let dup_per_mille = rng.up_to(u64::from(cfg.max_dup_per_mille.min(1000))) as u32;
    let reorder_per_mille = rng.up_to(u64::from(cfg.max_reorder_per_mille.min(1000))) as u32;
    let reorder_window_us = if reorder_per_mille > 0 {
        1 + rng.up_to(cfg.max_reorder_window_us.saturating_sub(1))
    } else {
        0
    };

    let n_crashes = rng.up_to(cfg.max_crashes as u64) as usize;
    let mut crashes = Vec::with_capacity(n_crashes);
    // Crash windows are laid out left to right without overlap: each
    // window starts after the previous restart, so every scheduled
    // NodeDown actually takes the server down (overlapping windows are
    // tolerated by the simulator but explore nothing new).
    let mut cursor = 0u64;
    for _ in 0..n_crashes {
        let at_us = cursor + rng.up_to(horizon);
        let down = 1 + rng.up_to(cfg.max_crash_down_us.saturating_sub(1));
        crashes.push(Crash {
            node: server,
            at_us,
            restart_us: at_us + down,
        });
        cursor = at_us + down + 1;
    }

    let n_partitions = rng.up_to(cfg.max_partitions as u64) as usize;
    let mut partitions = Vec::with_capacity(n_partitions);
    for _ in 0..n_partitions {
        let pod = Addr(rng.up_to(workload.pods.saturating_sub(1) as u64) as u32);
        let from_us = rng.up_to(horizon);
        let len = 1 + rng.up_to(cfg.max_partition_len_us.saturating_sub(1));
        partitions.push(Partition {
            a: pod,
            b: server,
            from_us,
            until_us: from_us + len,
        });
    }

    // Disk draws come strictly after every network draw, so enabling
    // them never perturbs the network half of an existing sweep.
    let mut disk = Vec::new();
    if cfg.max_disk_points > 0 {
        let rounds = cfg.disk_round_horizon.max(1);
        let n_disk = rng.up_to(cfg.max_disk_points as u64) as usize;
        for _ in 0..n_disk {
            disk.push(match rng.up_to(2) {
                0 => DiskCrashPoint::AtRoundBoundary {
                    round: 1 + rng.up_to(rounds - 1),
                },
                1 => DiskCrashPoint::CorruptWal {
                    sector: rng.up_to(63),
                    kind: corruption(&mut rng),
                },
                _ => DiskCrashPoint::CorruptChainRecord {
                    back: rng.up_to(3),
                    sector: rng.up_to(7),
                    kind: corruption(&mut rng),
                },
            });
        }
    }

    let plan = FaultPlan {
        dup_per_mille,
        reorder_per_mille,
        reorder_window_us,
        partitions,
        crashes,
        disk,
    };
    debug_assert_eq!(plan.validate(workload.node_count()), Ok(()));
    plan
}

/// One sector-corruption kind, uniformly over the three rot models.
fn corruption(rng: &mut CaseRng) -> SectorCorruption {
    match rng.up_to(2) {
        0 => SectorCorruption::FlipBit {
            bit: rng.up_to(SECTOR_BYTES * 8 - 1) as u32,
        },
        1 => SectorCorruption::ZeroRange {
            sectors: 1 + rng.up_to(3) as u32,
        },
        _ => SectorCorruption::TornWrite {
            keep_bytes: rng.up_to(SECTOR_BYTES - 1) as u32,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_seed_and_case() {
        let w = Workload::default();
        let cfg = GenConfig::default();
        for case in 0..64 {
            assert_eq!(
                generate_plan(9, case, &cfg, &w),
                generate_plan(9, case, &cfg, &w)
            );
        }
    }

    #[test]
    fn every_generated_plan_is_valid_and_server_only() {
        let w = Workload::default();
        let cfg = GenConfig::default();
        for seed in [0, 1, 0xDEAD] {
            for case in 0..256 {
                let p = generate_plan(seed, case, &cfg, &w);
                assert_eq!(
                    p.validate(w.node_count()),
                    Ok(()),
                    "seed {seed} case {case}"
                );
                for c in &p.crashes {
                    assert_eq!(c.node, Addr(w.pods as u32), "only the server may crash");
                }
            }
        }
    }

    #[test]
    fn distinct_cases_explore_distinct_plans() {
        let w = Workload::default();
        let cfg = GenConfig::default();
        let plans: Vec<_> = (0..32).map(|c| generate_plan(3, c, &cfg, &w)).collect();
        let distinct = plans
            .iter()
            .enumerate()
            .filter(|(i, p)| plans[..*i].iter().all(|q| &q != p))
            .count();
        assert!(distinct >= 30, "sweep collapsed: {distinct}/32 distinct");
    }

    #[test]
    fn disk_faults_are_opt_in_and_leave_the_network_half_untouched() {
        let w = Workload::default();
        let base = GenConfig::default();
        let disky = GenConfig {
            max_disk_points: 3,
            ..base.clone()
        };
        let mut saw_disk = false;
        for case in 0..128 {
            let p = generate_plan(7, case, &base, &w);
            assert!(p.disk.is_empty(), "disk faults generated while disabled");
            let q = generate_plan(7, case, &disky, &w);
            // Same network schedule: disk draws happen strictly last.
            assert_eq!(p.dup_per_mille, q.dup_per_mille);
            assert_eq!(p.reorder_per_mille, q.reorder_per_mille);
            assert_eq!(p.crashes, q.crashes);
            assert_eq!(p.partitions, q.partitions);
            assert_eq!(q.validate(w.node_count()), Ok(()), "case {case}");
            saw_disk |= !q.disk.is_empty();
        }
        assert!(saw_disk, "sweep never produced a disk fault");
    }

    #[test]
    fn disk_only_sweeps_cover_kills_and_both_corruption_targets() {
        let w = Workload::default();
        let cfg = GenConfig::disk_only(5);
        let (mut kills, mut wal, mut chain) = (0, 0, 0);
        for case in 0..256 {
            let p = generate_plan(11, case, &cfg, &w);
            assert!(p.crashes.is_empty() && p.partitions.is_empty());
            assert_eq!(p.dup_per_mille, 0);
            assert_eq!(p.validate(w.node_count()), Ok(()), "case {case}");
            for d in &p.disk {
                match d {
                    DiskCrashPoint::AtRoundBoundary { round } => {
                        assert!((1..=5).contains(round));
                        kills += 1;
                    }
                    DiskCrashPoint::CorruptWal { .. } => wal += 1,
                    DiskCrashPoint::CorruptChainRecord { back, .. } => {
                        assert!(*back <= 3);
                        chain += 1;
                    }
                    other => panic!("unexpected disk point {other:?}"),
                }
            }
        }
        assert!(
            kills > 10 && wal > 10 && chain > 10,
            "{kills}/{wal}/{chain}"
        );
    }

    #[test]
    fn crash_windows_never_overlap() {
        let w = Workload::default();
        let cfg = GenConfig::default();
        for case in 0..256 {
            let p = generate_plan(5, case, &cfg, &w);
            for pair in p.crashes.windows(2) {
                assert!(pair[0].restart_us < pair[1].at_us);
            }
        }
    }
}
