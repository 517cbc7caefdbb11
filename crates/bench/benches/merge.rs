//! Criterion bench for E9 (§3.2): path-merge throughput into execution
//! trees of increasing size — and `tree_reads`, what the hive reads back
//! from a tree every round (proofs, coverage, frontier, guidance plan,
//! and `round_reads`: all a round report pays) on the two shapes the
//! repository benchmark serves: a pair of hang paths ~1,333 decisions
//! deep and a wide tree of ~20k nodes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_guidance::{frontier, Directive};
use softborg_hive::{proofs, Hive, HiveConfig};
use softborg_pod::{Pod, PodConfig};
use softborg_program::interp::{LoweredProgram, Outcome};
use softborg_program::scenarios::{self, Scenario};
use softborg_program::{BranchSiteId, ProgramId};
use softborg_tree::ExecutionTree;

/// Synthetic path stream: depth-`depth` paths over `sites` branch sites
/// with skewed decisions (realistic shared prefixes).
fn paths(n: usize, depth: usize, sites: u32, seed: u64) -> Vec<Vec<(BranchSiteId, bool)>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..depth)
                .map(|d| {
                    (
                        BranchSiteId::new((d as u32) % sites),
                        rng.gen_bool(0.8), // skew => prefix sharing
                    )
                })
                .collect()
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_merge");
    for &(n, depth) in &[(1_000usize, 30usize), (10_000, 30), (10_000, 100)] {
        let stream = paths(n, depth, 64, 7);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("merge_path", format!("{n}x{depth}")),
            &stream,
            |b, stream| {
                b.iter(|| {
                    let mut tree = ExecutionTree::new(ProgramId(1));
                    for p in stream {
                        tree.merge_path(p, &Outcome::Success);
                    }
                    tree.node_count()
                })
            },
        );
    }
    group.finish();
}

/// The tree a hive holds after `execs` natural executions of `s`, plus
/// `hangs` executions (one pod each, so the schedules differ) steered
/// into `spin_wait`'s hang: each burns the 4,000-step budget and leaves
/// a path ~1,333 decisions deep.
fn explored_tree(s: &Scenario, execs: u32, hangs: u32) -> ExecutionTree {
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    let pod = |seed| {
        Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed,
                exec: softborg_program::interp::ExecConfig { max_steps: 4_000 },
                ..PodConfig::default()
            },
        )
    };
    for seed in 0..u64::from(hangs) {
        let mut pod = pod(seed);
        pod.receive_guidance([Directive::InputSeed {
            inputs: vec![42],
            target: (BranchSiteId::new(0), false),
        }]);
        hive.ingest(&pod.run_once().trace);
    }
    let mut pod = pod(u64::from(hangs));
    for _ in 0..execs {
        hive.ingest(&pod.run_once().trace);
    }
    hive.tree().clone()
}

fn bench_tree_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_reads");
    let planner = HiveConfig::default().planner;
    for (shape, s, execs, hangs) in [
        ("deep", scenarios::spin_wait(), 300, 2),
        ("wide", scenarios::record_processor(), 36_000, 0),
    ] {
        let mut tree = explored_tree(&s, execs, hangs);
        let nodes = tree.node_count();
        let id = |read: &str| format!("{read}/{shape}_{nodes}_nodes");
        group.bench_function(id("proofs"), |b| b.iter(|| proofs::assemble(&tree).len()));
        // The count without the certificates.
        group.bench_function(id("proof_count"), |b| b.iter(|| tree.proven_subtrees()));
        group.bench_function(id("coverage"), |b| b.iter(|| tree.coverage()));
        group.bench_function(id("frontier"), |b| b.iter(|| tree.frontier().len()));
        // As `Hive::guidance` plans: the program lowered and the crash
        // hunt once, the frontier part every round (the first call's
        // infeasibility marks stay).
        let code = LoweredProgram::new(&s.program);
        let crash_seeds = frontier::crash_seeds(&code, &planner);
        group.bench_function(id("plan"), |b| {
            b.iter(|| {
                frontier::plan_with_crash_seeds(&code, &mut tree, &planner, &crash_seeds)
                    .0
                    .directives
                    .len()
            })
        });
        // What `MultiPlatform::finish_round` pays per lane: the plan,
        // then the report's coverage and proof count.
        group.bench_function(id("round_reads"), |b| {
            b.iter(|| {
                let (plan, _) =
                    frontier::plan_with_crash_seeds(&code, &mut tree, &planner, &crash_seeds);
                let proofs = tree.proven_subtrees();
                (plan.directives.len(), tree.coverage(), proofs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge, bench_tree_reads);
criterion_main!(benches);
