//! Frontier targeting: turn unexplored tree arms into directives.
//!
//! The planner scores frontier arms (rarity-weighted), asks the symbolic
//! executor for each target's feasibility, marks proven-infeasible arms in
//! the tree (enabling closure/proofs), and emits input seeds for the
//! feasible ones. For multi-threaded programs — where tree prefixes bake
//! in a schedule the single-unit executor cannot reproduce — it falls
//! back to schedule-perturbation and fault-injection directives.

use crate::directive::{Directive, GuidancePlan};
use softborg_program::interp::LoweredProgram;
use softborg_program::sched::ScheduleHint;
use softborg_program::{BranchSiteId, Loc, ThreadId};
use softborg_symex::{arm_feasibility, explore, Feasibility, SymConfig, SymOutcome, SymPath};
use softborg_tree::{ExecutionTree, FrontierArm};
use std::collections::BTreeMap;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Maximum frontier arms targeted per round.
    pub max_targets: usize,
    /// Symbolic-execution configuration (input box etc.).
    pub sym: SymConfig,
    /// Short-read probability to request when environment-dependent
    /// frontier remains, in parts per 1000.
    pub fault_per_mille: u32,
    /// Maximum symbolic *crash* counterexamples turned into seeds per
    /// round (§3.3: the hive "can also produce specific test cases" —
    /// crash forks found by the symbolic executor become directed
    /// inputs that a pod confirms with a real execution). 0 disables
    /// the hunt.
    pub max_crash_seeds: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_targets: 16,
            sym: SymConfig::default(),
            fault_per_mille: 200,
            max_crash_seeds: 8,
        }
    }
}

/// Per-round planning outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Arms proven infeasible and marked in the tree.
    pub infeasible_marked: u64,
    /// Input seeds synthesized for frontier coverage.
    pub seeds: u64,
    /// Input seeds synthesized from symbolic crash counterexamples.
    pub crash_seeds: u64,
    /// Arms left unknown.
    pub unknown: u64,
}

/// Scores a frontier arm: deeper and rarer arms score higher (they are
/// the ones natural executions will not reach soon).
pub fn arm_score(arm: &FrontierArm) -> f64 {
    let rarity = 1.0 / (1.0 + arm.visits as f64);
    arm.depth as f64 + 10.0 * rarity
}

/// The symbolic crash hunt — the cooperative prover's counterexample
/// search. Crash forks found symbolically are solved into concrete
/// inputs and dispatched so a pod *confirms* the bug with a real
/// execution (whose trace then drives diagnosis + fixing). A pure
/// function of its arguments: a caller that plans every round computes
/// it once and passes it to [`plan_with_crash_seeds`].
pub fn crash_seeds(code: &LoweredProgram, config: &PlannerConfig) -> Vec<Directive> {
    let mut seeds = Vec::new();
    if code.n_threads() != 1 || config.max_crash_seeds == 0 {
        return seeds;
    }
    let Ok(exploration) = explore(code, &config.sym) else {
        return seeds;
    };
    // One counterexample per distinct crash *site*: several symbolic
    // paths can reach the same crash and some of them are contradictory
    // (e.g. a fork taken under a conflicting earlier arm), so keep
    // solving alternatives per site until one yields a model.
    let mut by_site: BTreeMap<Loc, Vec<&SymPath>> = BTreeMap::new();
    for path in exploration.crashing() {
        if let SymOutcome::Crash { loc, .. } = &path.outcome {
            by_site.entry(*loc).or_default().push(path);
        }
    }
    let mut solve_attempts = 0usize;
    for (_, paths) in by_site {
        if seeds.len() >= config.max_crash_seeds {
            break;
        }
        for path in paths {
            solve_attempts += 1;
            if solve_attempts > 128 {
                break;
            }
            if let Feasibility::Feasible(model) =
                path.solve(&config.sym.input_box, config.sym.solve_budget)
            {
                let inputs = model[..code.n_inputs() as usize].to_vec();
                let target = path
                    .decisions
                    .last()
                    .copied()
                    .unwrap_or((BranchSiteId::new(0), true));
                seeds.push(Directive::InputSeed { inputs, target });
                break; // next site
            }
        }
    }
    seeds
}

/// Produces a guidance plan for the lowered program `code` from its
/// current tree, marking proven-infeasible arms as a side effect.
pub fn plan(
    code: &LoweredProgram,
    tree: &mut ExecutionTree,
    config: &PlannerConfig,
) -> (GuidancePlan, PlanStats) {
    plan_with_crash_seeds(code, tree, config, &crash_seeds(code, config))
}

/// The top `k` arms by (finite) score, ties in frontier order (what a
/// stable sort then truncate picks), kept ranked in one walk of the
/// tree's frontier index. The rank is a total order, so the walk's order
/// changes only how many arms are inserted.
fn top_arms(tree: &ExecutionTree, k: usize) -> Vec<FrontierArm> {
    let by_rank = |a: &FrontierArm, b: &FrontierArm| {
        let key = |x: &FrontierArm| (x.node, x.site, x.missing_taken);
        arm_score(b)
            .total_cmp(&arm_score(a))
            .then(key(a).cmp(&key(b)))
    };
    let mut top: Vec<FrontierArm> = Vec::new();
    tree.for_each_frontier_arm_rev(|arm| {
        // No room, or ranked below the last arm kept.
        if top.len() == k && top.last().is_none_or(|last| by_rank(last, &arm).is_lt()) {
            return;
        }
        let at = top.partition_point(|t| by_rank(t, &arm).is_lt());
        top.insert(at, arm);
        top.truncate(k);
    });
    top
}

/// [`plan`] with the tree-independent part, [`crash_seeds`], supplied by
/// the caller.
pub fn plan_with_crash_seeds(
    code: &LoweredProgram,
    tree: &mut ExecutionTree,
    config: &PlannerConfig,
    crash_seeds: &[Directive],
) -> (GuidancePlan, PlanStats) {
    let mut plan = GuidancePlan::new(tree.program());
    plan.directives.extend_from_slice(crash_seeds);
    let mut stats = PlanStats {
        crash_seeds: crash_seeds.len() as u64,
        ..PlanStats::default()
    };
    if code.n_threads() == 1 {
        for arm in top_arms(tree, config.max_targets) {
            let prefix = tree.prefix(arm.node);
            match arm_feasibility(code, &prefix, arm.site, arm.missing_taken, &config.sym) {
                Ok(Feasibility::Feasible(model)) => {
                    let inputs = model[..code.n_inputs() as usize].to_vec();
                    plan.directives.push(Directive::InputSeed {
                        inputs,
                        target: (arm.site, arm.missing_taken),
                    });
                    stats.seeds += 1;
                }
                Ok(Feasibility::Infeasible) => {
                    tree.mark_infeasible(arm.node, arm.site, arm.missing_taken);
                    stats.infeasible_marked += 1;
                }
                Ok(Feasibility::Unknown) | Err(_) => stats.unknown += 1,
            }
        }
    } else {
        // Symbolic seeding needs one thread, so every arm it would
        // target stays unknown: only their count is kept, read off the
        // tree's current open-arm count instead of ranking them.
        let open = tree.coverage().frontier_arms;
        stats.unknown = open.min(config.max_targets as u64);
        // Schedule perturbation: request both priority orders so rare
        // interleavings (e.g. lock inversions) get provoked.
        let n = code.n_threads() as u32;
        let fwd: Vec<_> = (0..n).map(ThreadId::new).collect();
        let rev: Vec<_> = (0..n).rev().map(ThreadId::new).collect();
        for order in [fwd, rev] {
            plan.directives.push(Directive::Schedule(ScheduleHint {
                order,
                bias_per_mille: 700,
            }));
        }
    }
    if stats.unknown > 0 && config.fault_per_mille > 0 {
        plan.directives.push(Directive::FaultInjection {
            forced: vec![],
            short_read_per_mille: config.fault_per_mille,
        });
    }
    (plan, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::interp::{Executor, Observer};
    use softborg_program::scenarios;
    use softborg_program::{BranchSiteId, ThreadId};
    use softborg_symex::InputBox;

    #[derive(Default)]
    struct PathObs(Vec<(BranchSiteId, bool)>);
    impl Observer for PathObs {
        fn on_branch(&mut self, _t: ThreadId, s: BranchSiteId, taken: bool, _d: bool) {
            self.0.push((s, taken));
        }
    }

    fn run_and_merge(
        program: &softborg_program::Program,
        inputs: &[i64],
        tree: &mut ExecutionTree,
    ) {
        let mut obs = PathObs::default();
        let r = Executor::new(program)
            .run(
                inputs,
                &mut softborg_program::syscall::DefaultEnv::seeded(0),
                &mut softborg_program::sched::RoundRobin::new(),
                &softborg_program::Overlay::empty(),
                &mut obs,
            )
            .unwrap();
        tree.merge_path(&obs.0, &r.outcome);
    }

    #[test]
    fn arm_score_prefers_rare_deep_arms() {
        let a = FrontierArm {
            node: softborg_tree::NodeId(1),
            site: BranchSiteId::new(0),
            missing_taken: true,
            depth: 5,
            visits: 1,
        };
        let b = FrontierArm {
            node: softborg_tree::NodeId(2),
            site: BranchSiteId::new(1),
            missing_taken: true,
            depth: 1,
            visits: 1000,
        };
        assert!(arm_score(&a) > arm_score(&b));
    }

    #[test]
    fn planner_seeds_rare_parser_arms() {
        let s = scenarios::token_parser();
        let mut tree = ExecutionTree::new(s.program.id());
        // Only common executions so far: the extended-header arm (in0 ==
        // 13) is unexplored.
        for i in 0..20 {
            run_and_merge(&s.program, &[i % 10, 20, 3, 4, 5, 6], &mut tree);
        }
        let cfg = PlannerConfig {
            sym: SymConfig {
                input_box: InputBox::uniform(6, 0, 99),
                ..SymConfig::default()
            },
            ..PlannerConfig::default()
        };
        let (plan, stats) = plan(&LoweredProgram::new(&s.program), &mut tree, &cfg);
        assert!(stats.seeds > 0, "expected input seeds, got {stats:?}");
        // Every seed must actually flip its target arm when executed.
        for d in plan.input_seeds() {
            if let Directive::InputSeed { inputs, target } = d {
                let mut obs = PathObs::default();
                Executor::new(&s.program)
                    .run(
                        inputs,
                        &mut softborg_program::syscall::DefaultEnv::seeded(0),
                        &mut softborg_program::sched::RoundRobin::new(),
                        &softborg_program::Overlay::empty(),
                        &mut obs,
                    )
                    .unwrap();
                assert!(
                    obs.0.contains(target),
                    "seed {inputs:?} did not exercise {target:?}; path {:?}",
                    obs.0
                );
            }
        }
    }

    #[test]
    fn planner_marks_infeasible_arms() {
        use softborg_program::builder::ProgramBuilder;
        use softborg_program::expr::{BinOp, Expr};
        let mut pb = ProgramBuilder::new("one-sided");
        pb.inputs(1);
        pb.thread(|t| {
            t.if_else(
                Expr::bin(BinOp::Ge, Expr::input(0), Expr::Const(0)),
                |t| {
                    t.emit(Expr::Const(1));
                },
                |t| {
                    t.emit(Expr::Const(0));
                },
            );
        });
        let p = pb.build().unwrap();
        let mut tree = ExecutionTree::new(p.id());
        run_and_merge(&p, &[5], &mut tree);
        assert_eq!(tree.frontier().len(), 1);
        let cfg = PlannerConfig {
            sym: SymConfig {
                input_box: InputBox::uniform(1, 0, 9),
                ..SymConfig::default()
            },
            ..PlannerConfig::default()
        };
        let (_, stats) = plan(&LoweredProgram::new(&p), &mut tree, &cfg);
        assert_eq!(stats.infeasible_marked, 1);
        assert!(tree.frontier().is_empty());
        assert!(tree.is_closed(softborg_tree::NodeId::ROOT));
    }

    #[test]
    fn crash_hunt_synthesizes_the_div_bug_trigger() {
        // The parser's div-by-zero needs in0==13 && in1>=90 && in2==7 —
        // never a coverage target (the crash is not behind its own
        // branch), so only the symbolic crash hunt can seed it.
        let s = scenarios::token_parser();
        let mut tree = ExecutionTree::new(s.program.id());
        run_and_merge(&s.program, &[1, 2, 3, 4, 5, 6], &mut tree);
        let cfg = PlannerConfig {
            sym: SymConfig {
                input_box: InputBox::uniform(6, 0, 99),
                ..SymConfig::default()
            },
            ..PlannerConfig::default()
        };
        let (plan, stats) = plan(&LoweredProgram::new(&s.program), &mut tree, &cfg);
        assert!(stats.crash_seeds > 0, "no crash seeds: {stats:?}");
        // At least one seed must actually crash the program.
        let mut crashed = false;
        for d in plan.input_seeds() {
            if let Directive::InputSeed { inputs, .. } = d {
                let r = Executor::new(&s.program)
                    .run(
                        inputs,
                        &mut softborg_program::syscall::DefaultEnv::seeded(0),
                        &mut softborg_program::sched::RoundRobin::new(),
                        &softborg_program::Overlay::empty(),
                        &mut softborg_program::interp::NopObserver,
                    )
                    .unwrap();
                if r.outcome.is_failure() {
                    crashed = true;
                    break;
                }
            }
        }
        assert!(crashed, "no synthesized seed reproduced a crash");
    }

    #[test]
    fn multithreaded_programs_get_schedule_directives() {
        let s = scenarios::bank_transfer();
        let mut tree = ExecutionTree::new(s.program.id());
        run_and_merge(&s.program, &[10, 20], &mut tree);
        let (plan, _) = plan(
            &LoweredProgram::new(&s.program),
            &mut tree,
            &PlannerConfig::default(),
        );
        let schedules = plan
            .directives
            .iter()
            .filter(|d| matches!(d, Directive::Schedule(_)))
            .count();
        assert_eq!(schedules, 2, "forward and reverse priority orders");
    }
}
