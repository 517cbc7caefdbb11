//! Ground truth for the symbolic executor: `explore` and `arm_feasibility`
//! are held to the interpreter they mirror, on generated programs whose
//! input cube (at most 4,096 points) is run exhaustively under fuel.
//!
//! - (a) each completed path of a budgeted `explore` whose condition
//!   mentions only real inputs has a model that, run concretely, takes
//!   exactly that path and ends the same way (a condition over syscall
//!   returns or abstracted residuals has no concrete input as a model);
//! - (b) for prefixes cut from concrete runs, no input in the cube takes
//!   an arm that `arm_feasibility` calls `Infeasible`, the concrete arm is
//!   never called so, and a smaller step budget gives either `Unknown`
//!   or the same verdict, never a new `Infeasible`;
//! - (c) an `explore` bounded only by loop-header visits covers every
//!   concrete path that ends before its fuel does: an explored path with
//!   the same decisions and end, or a truncated one it extends;
//! - (d) on two-thread programs, `RelaxedUnit(t)` covers, in the same
//!   sense, each thread's projection of concrete runs under random
//!   schedules.
//!
//! The planner's marks on the triangle after 12 guided rounds are one
//! more input to (b).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg::platform::{Platform, PlatformConfig};
use softborg::pod::PodConfig;
use softborg_guidance::PlannerConfig;
use softborg_hive::HiveConfig;
use softborg_program::builder::ProgramBuilder;
use softborg_program::expr::{BinOp, Expr};
use softborg_program::gen::{generate, BugKind, GenConfig};
use softborg_program::interp::{ExecConfig, ExecResult, Executor, Observer, Outcome};
use softborg_program::sched::{RandomSched, RoundRobin, Scheduler};
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{scenarios, BranchSiteId, Overlay, Program, ThreadId};
use softborg_symex::{
    arm_feasibility, explore, Consistency, Feasibility, InputBox, SymConfig, SymOutcome, SymPath,
};
use std::collections::HashSet;

type Decisions = Vec<(BranchSiteId, bool)>;

/// Scheduler steps before a concrete run counts as a hang.
const FUEL: u64 = 20_000;

/// Bug kinds one thread can host alone.
const ONE_THREAD_BUGS: [BugKind; 5] = [
    BugKind::AssertMagic,
    BugKind::DivByInputDelta,
    BugKind::InfiniteLoop,
    BugKind::ShortRead,
    BugKind::ResourceLeak,
];

/// Input shapes `(n_inputs, range)` whose cube has at most 4,096 points.
const CUBES: [(u32, (i64, i64)); 4] = [
    (1, (-1000, 1000)),
    (2, (-20, 43)),
    (3, (0, 15)),
    (2, (0, 9)),
];

/// An exploration that stops only at `max_loop_iters` header visits
/// (the assertions check that no generated program reaches `max_paths`).
fn unbudgeted(consistency: Consistency, max_loop_iters: u32, box_: &InputBox) -> SymConfig {
    SymConfig {
        max_paths: 1 << 14,
        max_loop_iters,
        max_steps: 1_000_000,
        consistency,
        input_box: box_.clone(),
        ..SymConfig::default()
    }
}

/// Every point of `[lo, hi]^n`, in lexicographic order.
fn cube(n: u32, (lo, hi): (i64, i64)) -> Vec<Vec<i64>> {
    let mut points = vec![Vec::new()];
    for _ in 0..n {
        points = points
            .into_iter()
            .flat_map(|p| {
                (lo..=hi).map(move |v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect();
    }
    points
}

/// The branch decisions of a run, tagged with their thread.
#[derive(Default)]
struct Branches(Vec<(ThreadId, BranchSiteId, bool)>);

impl Observer for Branches {
    const READS_LOCKSETS: bool = false;
    fn on_branch(&mut self, t: ThreadId, s: BranchSiteId, taken: bool, _dep: bool) {
        self.0.push((t, s, taken));
    }
}

/// One concrete run: its per-thread branch decisions and its result.
struct Run {
    branches: Vec<(ThreadId, BranchSiteId, bool)>,
    result: ExecResult,
}

impl Run {
    fn of(
        exec: &mut Executor<'_>,
        inputs: &[i64],
        env_seed: u64,
        sched: &mut dyn Scheduler,
    ) -> Run {
        let mut obs = Branches::default();
        let result = exec
            .run(
                inputs,
                &mut DefaultEnv::new(EnvConfig {
                    seed: env_seed,
                    short_read_per_mille: 300,
                    ..EnvConfig::default()
                }),
                sched,
                &Overlay::empty(),
                &mut obs,
            )
            .expect("arity matches");
        Run {
            branches: obs.0,
            result,
        }
    }

    /// The decisions thread `t` made.
    fn of_thread(&self, t: ThreadId) -> Decisions {
        (self.branches.iter())
            .filter(|(u, ..)| *u == t)
            .map(|&(_, s, taken)| (s, taken))
            .collect()
    }
}

/// Runs every point of the cube on one thread's program.
fn run_cube(program: &Program, points: &[Vec<i64>]) -> Vec<Run> {
    let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: FUEL });
    (points.iter().enumerate())
        .map(|(i, p)| Run::of(&mut exec, p, i as u64, &mut RoundRobin::new()))
        .collect()
}

/// Whether a symbolic outcome is the concrete one.
fn same_end(sym: &SymOutcome, concrete: &Outcome) -> bool {
    match (sym, concrete) {
        (SymOutcome::Success, Outcome::Success) => true,
        (SymOutcome::Crash { loc, kind }, Outcome::Crash { loc: l, kind: k }) => {
            loc == l && kind == k
        }
        (SymOutcome::Deadlock, Outcome::Deadlock { .. }) => true,
        _ => false,
    }
}

/// Whether `paths` account for a concrete thread path: a truncated path
/// it extends, a path with the same decisions when the thread
/// `finished`, or else a path it was cut short of.
fn covered(paths: &[SymPath], decisions: &[(BranchSiteId, bool)], finished: bool) -> bool {
    paths.iter().any(|p| {
        (p.outcome == SymOutcome::Truncated && decisions.starts_with(&p.decisions))
            || if finished {
                p.decisions == decisions
            } else {
                p.decisions.starts_with(decisions)
            }
    })
}

/// An arm `arm_feasibility` calls infeasible: no run of the cube may
/// take `prefix` and then `(site, taken)`.
fn assert_unreached(
    runs: &[Run],
    prefix: &[(BranchSiteId, bool)],
    site: BranchSiteId,
    taken: bool,
) {
    let mut arm = prefix.to_vec();
    arm.push((site, taken));
    let t0 = ThreadId::new(0);
    if let Some(r) = runs.iter().find(|r| r.of_thread(t0).starts_with(&arm)) {
        panic!(
            "arm marked infeasible but reached: prefix {prefix:?}, arm ({site:?}, {taken}), run {:?}",
            r.result.outcome
        );
    }
}

/// (a) on a budgeted exploration of a one-thread program.
fn models_take_their_paths(program: &Program, box_: &InputBox) {
    let config = SymConfig {
        input_box: box_.clone(),
        ..SymConfig::default()
    };
    let ex = explore(program, &config).expect("one thread");
    let n = program.n_inputs as usize;
    let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: FUEL });
    for path in &ex.paths {
        let pinned =
            (path.constraints.iter()).all(|c| c.expr.inputs().iter().all(|i| i.index() < n));
        if path.outcome == SymOutcome::Truncated || !pinned {
            continue;
        }
        if let Feasibility::Feasible(model) = path.solve(box_, config.solve_budget) {
            let run = Run::of(&mut exec, &model[..n], 0, &mut RoundRobin::new());
            assert_eq!(
                run.of_thread(ThreadId::new(0)),
                path.decisions,
                "model {:?} leaves its path",
                &model[..n]
            );
            assert!(
                same_end(&path.outcome, &run.result.outcome),
                "model {:?} ends {:?}, its path {:?}",
                &model[..n],
                run.result.outcome,
                path.outcome
            );
        }
    }
}

/// (b) on prefixes cut from the cube's runs.
fn follow_verdicts_hold(program: &Program, box_: &InputBox, runs: &[Run], rng: &mut SmallRng) {
    let config = SymConfig {
        input_box: box_.clone(),
        ..SymConfig::default()
    };
    let t0 = ThreadId::new(0);
    for _ in 0..12 {
        let run = &runs[rng.gen_range(0..runs.len())];
        let d = run.of_thread(t0);
        if d.is_empty() {
            continue;
        }
        let j = rng.gen_range(0..d.len());
        let (prefix, site) = (&d[..j], d[j].0);
        for taken in [false, true] {
            let verdict = arm_feasibility(program, prefix, site, taken, &config);
            assert!(verdict.is_ok(), "a concrete prefix mismatched: {verdict:?}");
            if verdict == Ok(Feasibility::Infeasible) {
                assert_ne!(taken, d[j].1, "the concrete arm called infeasible");
                assert_unreached(runs, prefix, site, taken);
            }
            let short = SymConfig {
                max_steps: rng.gen_range(0..40),
                ..config.clone()
            };
            let cut = arm_feasibility(program, prefix, site, taken, &short);
            assert!(
                cut == Ok(Feasibility::Unknown) || cut == verdict,
                "budget {} gives {cut:?}, the full budget {verdict:?}",
                short.max_steps
            );
        }
    }
}

/// (c): every concrete run that ended within its fuel is an explored path
/// with the same end, or extends a truncated one.
fn explore_covers_the_cube(program: &Program, box_: &InputBox, runs: &[Run]) {
    let config = unbudgeted(Consistency::Strict, 64, box_);
    let ex = explore(program, &config).expect("one thread");
    assert!(
        ex.paths.len() < config.max_paths,
        "explore was not unbudgeted"
    );
    let t0 = ThreadId::new(0);
    let ended: HashSet<(Decisions, &Outcome)> = (runs.iter())
        .filter(|r| !matches!(r.result.outcome, Outcome::Hang { .. }))
        .map(|r| (r.of_thread(t0), &r.result.outcome))
        .collect();
    for (d, outcome) in ended {
        assert!(
            ex.paths.iter().any(|p| match p.outcome {
                SymOutcome::Truncated => d.starts_with(&p.decisions),
                _ => p.decisions == d && same_end(&p.outcome, outcome),
            }),
            "concrete path {d:?} ({outcome:?}) not explored"
        );
    }
}

/// (d): each thread's projection of a concrete run under a random
/// schedule is covered by the thread's relaxed exploration.
fn relaxed_units_cover_threads(
    program: &Program,
    box_: &InputBox,
    points: &[Vec<i64>],
    rng: &mut SmallRng,
) {
    let units: Vec<Vec<SymPath>> = (0..program.threads.len() as u32)
        .map(|t| {
            let config = unbudgeted(Consistency::RelaxedUnit(ThreadId::new(t)), 8, box_);
            let ex = explore(program, &config).expect("the thread exists");
            assert!(
                ex.paths.len() < config.max_paths,
                "explore was not unbudgeted"
            );
            ex.paths
        })
        .collect();
    let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: FUEL });
    for _ in 0..64 {
        let p = &points[rng.gen_range(0..points.len())];
        let run = Run::of(&mut exec, p, rng.gen(), &mut RandomSched::seeded(rng.gen()));
        let finished = run.result.outcome == Outcome::Success;
        for (t, paths) in units.iter().enumerate() {
            let d = run.of_thread(ThreadId::new(t as u32));
            assert!(
                covered(paths, &d, finished),
                "thread {t}'s path {d:?} under inputs {p:?} ({:?}) not explored",
                run.result.outcome
            );
        }
    }
}

fn bugs_of(mask: usize, kinds: &[BugKind]) -> Vec<BugKind> {
    (kinds.iter().enumerate())
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, k)| *k)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_symex_agrees_with_the_interpreter(
        gen_seed in 0u64..1_000_000,
        shape in 0usize..4,
        constructs in 2u32..7,
        max_depth in 1u32..3,
        bug_mask in 0usize..32,
        rng_seed in any::<u64>(),
    ) {
        let (n_inputs, input_range) = CUBES[shape];
        let gp = generate(&GenConfig {
            seed: gen_seed,
            n_threads: 1,
            n_inputs,
            input_range,
            constructs_per_thread: constructs,
            max_depth,
            bugs: bugs_of(bug_mask, &ONE_THREAD_BUGS),
            ..GenConfig::default()
        });
        let program = &gp.program;
        let box_ = InputBox::uniform(n_inputs, input_range.0, input_range.1);
        let points = cube(n_inputs, input_range);
        let runs = run_cube(program, &points);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        models_take_their_paths(program, &box_);
        follow_verdicts_hold(program, &box_, &runs, &mut rng);
        explore_covers_the_cube(program, &box_, &runs);
    }

    #[test]
    fn prop_relaxed_units_overapproximate_threads(
        gen_seed in 0u64..1_000_000,
        shape in 0usize..4,
        constructs in 2u32..6,
        bug_mask in 0usize..256,
        rng_seed in any::<u64>(),
    ) {
        let (n_inputs, input_range) = CUBES[shape];
        let gp = generate(&GenConfig {
            seed: gen_seed,
            n_threads: 2,
            n_inputs,
            input_range,
            constructs_per_thread: constructs,
            max_depth: 2,
            bugs: bugs_of(bug_mask, &BugKind::ALL),
            ..GenConfig::default()
        });
        let box_ = InputBox::uniform(n_inputs, input_range.0, input_range.1);
        let points = cube(n_inputs, input_range);
        relaxed_units_cover_threads(&gp.program, &box_, &points, &mut SmallRng::seed_from_u64(rng_seed));
    }
}

/// (d)'s first counterexample: thread 1 writes `g0` while thread 0
/// tests `g0 <= 0` once per loop iteration, so the unit's tests of it
/// can disagree; a relaxed unit that read `g0` as one symbol saw only
/// runs where they all agree.
#[test]
fn pinned_relaxed_unit_rereads_what_other_threads_write() {
    let gp = generate(&GenConfig {
        seed: 970_923,
        n_threads: 2,
        n_inputs: 2,
        input_range: (0, 9),
        constructs_per_thread: 5,
        max_depth: 2,
        bugs: bugs_of(88, &BugKind::ALL),
        ..GenConfig::default()
    });
    relaxed_units_cover_threads(
        &gp.program,
        &InputBox::uniform(2, 0, 9),
        &cube(2, (0, 9)),
        &mut SmallRng::seed_from_u64(13_819_942_161_700_769_161),
    );
}

/// Runs a guided platform for 12 rounds and checks each arm its planner
/// marked infeasible against the program's whole input cube. Returns the
/// number of marks checked.
fn planner_marks_are_sound(program: &Program, n_inputs: u32, range: (i64, i64)) -> usize {
    let mut platform = Platform::new(
        program,
        PlatformConfig {
            n_pods: 15,
            pod: PodConfig {
                input_range: range,
                ..PodConfig::default()
            },
            hive: HiveConfig {
                planner: PlannerConfig {
                    sym: SymConfig {
                        input_box: InputBox::uniform(n_inputs, range.0, range.1),
                        ..SymConfig::default()
                    },
                    max_targets: 64,
                    ..PlannerConfig::default()
                },
                ..HiveConfig::default()
            },
            seed: 7,
            ..PlatformConfig::default()
        },
    );
    platform.run(12, 20);
    let tree = platform.hive().tree();
    let runs = run_cube(program, &cube(n_inputs, range));
    let mut checked = 0;
    for i in 0..tree.node_count() {
        let id = softborg_tree::NodeId(i as u32);
        let node = tree.node(id);
        for site in node.sites() {
            for taken in [false, true] {
                if node.is_infeasible(site, taken) {
                    assert_unreached(&runs, &tree.prefix(id), site, taken);
                    checked += 1;
                }
            }
        }
    }
    for cert in softborg_hive::assemble(tree) {
        softborg_hive::verify(&cert, tree).expect("verifies");
    }
    checked
}

/// The planner's marks on the triangle over its 20³ cube. Every arm of
/// the triangle is feasible there, so it is marked nowhere; a program
/// with an arm its prefix rules out (`in0 < 10` then `in0 + in1 > 80`,
/// inputs in `[0, 63]`) makes sure that marks are checked at all.
#[test]
fn planner_marks_are_sound_on_the_triangle_and_a_dead_arm() {
    let s = scenarios::triangle();
    let on_triangle = planner_marks_are_sound(&s.program, 3, (1, 20));
    let mut pb = ProgramBuilder::new("dead-arm");
    pb.inputs(2);
    pb.thread(|t| {
        t.if_else(
            Expr::lt(Expr::input(0), Expr::Const(10)),
            |t| {
                t.if_else(
                    Expr::bin(
                        BinOp::Gt,
                        Expr::bin(BinOp::Add, Expr::input(0), Expr::input(1)),
                        Expr::Const(80),
                    ),
                    |t| {
                        t.emit(Expr::Const(1));
                    },
                    |t| {
                        t.emit(Expr::Const(2));
                    },
                );
            },
            |t| {
                t.emit(Expr::Const(3));
            },
        );
    });
    let dead_arm = pb.build().expect("well-formed");
    let on_dead_arm = planner_marks_are_sound(&dead_arm, 2, (0, 63));
    assert!(
        on_triangle + on_dead_arm > 0,
        "the planner marked no arm, so nothing was checked"
    );
}
