//! Pins what the symbolic executor computes, byte for byte: a change to
//! how `explore` or `arm_feasibility` steps a program, folds a term,
//! numbers a symbol or orders its worklist moves a digest here.
//!
//! - `explore`: every single-threaded program under `Strict`, every
//!   thread of every multi-threaded one under `RelaxedUnit(t)`; the
//!   programs are the scenarios, E8's unit-in-system program and seven
//!   generated ones. Per path: its decisions, each
//!   `Constraint`'s residual as displayed and its wanted truth, its
//!   outcome and `n_symbols`; then the `ExploreStats`.
//! - follow runs: on a tree grown from 40 seeded concrete runs of each
//!   single-threaded program, the verdict and model of
//!   `arm_feasibility` for every frontier arm (a superset of the arms
//!   `plan` targets).
//!
//! Each case runs at the default `SymConfig` (an empty input box: every
//! input is `TOP`) and with the scenario's `input_range` as the box.
//! Each digest is FNV-1a over the case's rendering (`render_*` below).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg::obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::{global, local};
use softborg_program::expr::{BinOp, Expr};
use softborg_program::gen::{generate, BugKind, GenConfig};
use softborg_program::interp::{ExecConfig, Executor, LoweredProgram, Observer};
use softborg_program::sched::RoundRobin;
use softborg_program::syscall::DefaultEnv;
use softborg_program::{scenarios, BranchSiteId, Overlay, Program, ThreadId};
use softborg_symex::{
    arm_feasibility, explore, Consistency, Exploration, Feasibility, InputBox, SymConfig,
};
use softborg_tree::ExecutionTree;
use std::fmt::Write;

/// E8's unit-in-system program (`crates/bench/src/bin/e8_consistency.rs`).
fn unit_in_system() -> Program {
    let mut pb = ProgramBuilder::new("unit-in-system");
    pb.inputs(1).globals(1).locals(2);
    pb.thread(|t| {
        t.assign(local(0), Expr::global(0));
        t.if_then(
            Expr::bin(
                BinOp::And,
                Expr::eq(Expr::local(0), Expr::Const(3)),
                Expr::eq(Expr::input(0), Expr::Const(77)),
            ),
            |t| {
                t.assert_(Expr::Const(0));
            },
        );
        t.if_then(Expr::eq(Expr::local(0), Expr::Const(9000)), |t| {
            t.assert_(Expr::Const(0));
        });
        t.emit(Expr::local(0));
    });
    pb.thread(|t| {
        t.assign(
            global(0),
            Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(6)),
        );
    });
    pb.build().expect("well-formed")
}

/// Every program the cases run on, with the range its inputs come from.
fn programs() -> Vec<(String, Program, (i64, i64))> {
    let mut programs: Vec<_> = scenarios::all()
        .into_iter()
        .map(|s| (s.name.to_string(), s.program, s.input_range))
        .collect();
    programs.push(("unit-in-system".into(), unit_in_system(), (0, 999)));
    // Four one-thread programs with every bug one thread can host, three
    // two-thread ones with every bug.
    let one_thread = [
        BugKind::AssertMagic,
        BugKind::DivByInputDelta,
        BugKind::InfiniteLoop,
        BugKind::ShortRead,
        BugKind::ResourceLeak,
    ];
    let shapes = (1..=4u64).map(|seed| (seed, 1, one_thread.to_vec()));
    for (seed, n_threads, bugs) in
        shapes.chain((1..=3).map(|seed| (seed, 2, BugKind::ALL.to_vec())))
    {
        let gp = generate(&GenConfig {
            seed,
            n_threads,
            n_inputs: 2,
            input_range: (0, 9),
            constructs_per_thread: 5,
            max_depth: 2,
            bugs,
            ..GenConfig::default()
        });
        programs.push((
            format!("gen-{n_threads}t-{seed}"),
            gp.program,
            gp.input_range,
        ));
    }
    programs
}

fn decisions(out: &mut String, d: &[(BranchSiteId, bool)]) {
    for (site, taken) in d {
        let _ = write!(out, " {}{}", site.0, if *taken { 'T' } else { 'F' });
    }
}

fn render_exploration(ex: &Exploration) -> String {
    let mut out = String::new();
    for p in &ex.paths {
        out.push_str("path");
        decisions(&mut out, &p.decisions);
        let _ = writeln!(out, " | {:?} | symbols {}", p.outcome, p.n_symbols);
        for c in &p.constraints {
            let _ = writeln!(out, "  {} {}", c.want, c.expr);
        }
    }
    let _ = writeln!(out, "{:?}", ex.stats);
    out
}

fn digest(text: &str) -> u64 {
    fnv1a_step(FNV_OFFSET, text.as_bytes())
}

/// The two boxes each case runs under: the default (empty) one and the
/// scenario's input range.
fn configs(n_inputs: u32, (lo, hi): (i64, i64)) -> [(&'static str, SymConfig); 2] {
    [
        ("default", SymConfig::default()),
        (
            "range",
            SymConfig {
                input_box: InputBox::uniform(n_inputs, lo, hi),
                ..SymConfig::default()
            },
        ),
    ]
}

/// `(case, paths or arms, digest)` for every exploration.
fn explorations() -> Vec<(String, usize, u64)> {
    let mut rows = Vec::new();
    for (name, program, range) in &programs() {
        let code = LoweredProgram::new(program);
        let n = program.threads.len() as u32;
        let units: Vec<Consistency> = if n == 1 {
            vec![Consistency::Strict]
        } else {
            (0..n)
                .map(|t| Consistency::RelaxedUnit(ThreadId::new(t)))
                .collect()
        };
        for consistency in units {
            for (label, config) in configs(program.n_inputs, *range) {
                let config = SymConfig {
                    consistency,
                    ..config
                };
                let ex = explore(&code, &config).expect("a defined exploration");
                let case = format!("explore {name} {consistency:?} {label}");
                rows.push((case, ex.paths.len(), digest(&render_exploration(&ex))));
            }
        }
    }
    rows
}

#[derive(Default)]
struct PathObs(Vec<(BranchSiteId, bool)>);

impl Observer for PathObs {
    fn on_branch(&mut self, _: ThreadId, site: BranchSiteId, taken: bool, _: bool) {
        self.0.push((site, taken));
    }
}

/// A tree of 40 concrete runs on inputs drawn from `range` (seed 7), a
/// run that takes 1,000 steps counting as a hang.
fn grown_tree(program: &Program, range: (i64, i64)) -> ExecutionTree {
    let mut tree = ExecutionTree::new(program.id());
    let mut rng = SmallRng::seed_from_u64(7);
    let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: 1_000 });
    for run in 0..40 {
        let inputs: Vec<i64> = (0..program.n_inputs)
            .map(|_| rng.gen_range(range.0..=range.1))
            .collect();
        let mut obs = PathObs::default();
        let r = exec
            .run(
                &inputs,
                &mut DefaultEnv::seeded(run),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut obs,
            )
            .expect("inputs match");
        tree.merge_path(&obs.0, &r.outcome);
    }
    tree
}

/// `(case, arms, digest)` for the follow runs of every single-threaded
/// program.
fn follow_runs() -> Vec<(String, usize, u64)> {
    let mut rows = Vec::new();
    for (name, program, range) in programs() {
        if program.threads.len() != 1 {
            continue;
        }
        let (tree, code) = (grown_tree(&program, range), LoweredProgram::new(&program));
        let arms = tree.frontier();
        for (label, config) in configs(program.n_inputs, range) {
            let mut out = String::new();
            for arm in &arms {
                let prefix = tree.prefix(arm.node);
                let verdict = arm_feasibility(&code, &prefix, arm.site, arm.missing_taken, &config);
                let _ = write!(out, "arm {}{}", arm.site.0, arm.missing_taken);
                decisions(&mut out, &prefix);
                let _ = match verdict {
                    Ok(Feasibility::Feasible(model)) => writeln!(out, " | feasible {model:?}"),
                    other => writeln!(out, " | {other:?}"),
                };
            }
            let case = format!("follow {name} {label}");
            rows.push((case, arms.len(), digest(&out)));
        }
    }
    rows
}

/// Prints rows in the literal's own form, for re-pinning.
fn table(rows: &[(String, usize, u64)]) -> String {
    rows.iter()
        .map(|(case, n, d)| format!("        ({case:?}, {n}, {d:#018x}),\n"))
        .collect()
}

fn check(rows: Vec<(String, usize, u64)>, want: &[(&str, usize, u64)]) {
    let got: Vec<(&str, usize, u64)> = rows.iter().map(|(c, n, d)| (c.as_str(), *n, *d)).collect();
    assert_eq!(got, want, "re-pin only with a reason:\n{}", table(&rows));
}

#[test]
fn explore_is_pinned() {
    check(explorations(), EXPLORE);
}

#[test]
fn follow_runs_are_pinned() {
    check(follow_runs(), FOLLOW);
}

const EXPLORE: &[(&str, usize, u64)] = &[
    ("explore triangle Strict default", 4, 0x9639d1edf8f84449),
    ("explore triangle Strict range", 4, 0x9639d1edf8f84449),
    (
        "explore token-parser Strict default",
        13,
        0x700b6f63ba32c191,
    ),
    ("explore token-parser Strict range", 13, 0x700b6f63ba32c191),
    (
        "explore record-processor Strict default",
        257,
        0x0febe930640a6f04,
    ),
    (
        "explore record-processor Strict range",
        257,
        0x0febe930640a6f04,
    ),
    (
        "explore dining RelaxedUnit(ThreadId(0)) default",
        1,
        0xc9891625f8a6159e,
    ),
    (
        "explore dining RelaxedUnit(ThreadId(0)) range",
        1,
        0xc9891625f8a6159e,
    ),
    (
        "explore dining RelaxedUnit(ThreadId(1)) default",
        1,
        0xc9891625f8a6159e,
    ),
    (
        "explore dining RelaxedUnit(ThreadId(1)) range",
        1,
        0xc9891625f8a6159e,
    ),
    (
        "explore dining RelaxedUnit(ThreadId(2)) default",
        1,
        0xc9891625f8a6159e,
    ),
    (
        "explore dining RelaxedUnit(ThreadId(2)) range",
        1,
        0xc9891625f8a6159e,
    ),
    (
        "explore bank RelaxedUnit(ThreadId(0)) default",
        1,
        0x12bdac527152969a,
    ),
    (
        "explore bank RelaxedUnit(ThreadId(0)) range",
        1,
        0x12bdac527152969a,
    ),
    (
        "explore bank RelaxedUnit(ThreadId(1)) default",
        2,
        0xff1a752e9a3b5999,
    ),
    (
        "explore bank RelaxedUnit(ThreadId(1)) range",
        2,
        0xff1a752e9a3b5999,
    ),
    (
        "explore racy-counter RelaxedUnit(ThreadId(0)) default",
        2,
        0xda50a537538f77e0,
    ),
    (
        "explore racy-counter RelaxedUnit(ThreadId(0)) range",
        2,
        0xda50a537538f77e0,
    ),
    (
        "explore racy-counter RelaxedUnit(ThreadId(1)) default",
        2,
        0xcf1d60349b06eb4c,
    ),
    (
        "explore racy-counter RelaxedUnit(ThreadId(1)) range",
        2,
        0xcf1d60349b06eb4c,
    ),
    (
        "explore short-read-client Strict default",
        4,
        0x80b397bd4b8e1280,
    ),
    (
        "explore short-read-client Strict range",
        4,
        0x80b397bd4b8e1280,
    ),
    ("explore fd-leaker Strict default", 5, 0xf0ffb96b8b681b9a),
    ("explore fd-leaker Strict range", 5, 0xf0ffb96b8b681b9a),
    (
        "explore spin-wait RelaxedUnit(ThreadId(0)) default",
        2,
        0xfba5957a185e4c60,
    ),
    (
        "explore spin-wait RelaxedUnit(ThreadId(0)) range",
        2,
        0xfba5957a185e4c60,
    ),
    (
        "explore spin-wait RelaxedUnit(ThreadId(1)) default",
        5,
        0x755763edf15a2433,
    ),
    (
        "explore spin-wait RelaxedUnit(ThreadId(1)) range",
        5,
        0x755763edf15a2433,
    ),
    (
        "explore livelock-pair RelaxedUnit(ThreadId(0)) default",
        2,
        0x5579499f4aeaae15,
    ),
    (
        "explore livelock-pair RelaxedUnit(ThreadId(0)) range",
        2,
        0x5579499f4aeaae15,
    ),
    (
        "explore livelock-pair RelaxedUnit(ThreadId(1)) default",
        2,
        0x7808213000f5412a,
    ),
    (
        "explore livelock-pair RelaxedUnit(ThreadId(1)) range",
        2,
        0x7808213000f5412a,
    ),
    (
        "explore unit-in-system RelaxedUnit(ThreadId(0)) default",
        3,
        0xf5c370d06cbd52e3,
    ),
    (
        "explore unit-in-system RelaxedUnit(ThreadId(0)) range",
        3,
        0xf5c370d06cbd52e3,
    ),
    (
        "explore unit-in-system RelaxedUnit(ThreadId(1)) default",
        1,
        0x46afee25c51b80a4,
    ),
    (
        "explore unit-in-system RelaxedUnit(ThreadId(1)) range",
        1,
        0x46afee25c51b80a4,
    ),
    ("explore gen-1t-1 Strict default", 5, 0x1e471cc6d2376c7a),
    ("explore gen-1t-1 Strict range", 5, 0x1e471cc6d2376c7a),
    ("explore gen-1t-2 Strict default", 9, 0x3367f2ec172affe7),
    ("explore gen-1t-2 Strict range", 9, 0x3367f2ec172affe7),
    ("explore gen-1t-3 Strict default", 16, 0xb0edd6cbc73c70c9),
    ("explore gen-1t-3 Strict range", 16, 0xb0edd6cbc73c70c9),
    ("explore gen-1t-4 Strict default", 13, 0x9a8423593f0256b6),
    ("explore gen-1t-4 Strict range", 13, 0x9a8423593f0256b6),
    (
        "explore gen-2t-1 RelaxedUnit(ThreadId(0)) default",
        6,
        0x327efe13e035f913,
    ),
    (
        "explore gen-2t-1 RelaxedUnit(ThreadId(0)) range",
        6,
        0x327efe13e035f913,
    ),
    (
        "explore gen-2t-1 RelaxedUnit(ThreadId(1)) default",
        12,
        0xef6e1fd060e8c6eb,
    ),
    (
        "explore gen-2t-1 RelaxedUnit(ThreadId(1)) range",
        12,
        0xef6e1fd060e8c6eb,
    ),
    (
        "explore gen-2t-2 RelaxedUnit(ThreadId(0)) default",
        10,
        0x749f374690b4255d,
    ),
    (
        "explore gen-2t-2 RelaxedUnit(ThreadId(0)) range",
        10,
        0x749f374690b4255d,
    ),
    (
        "explore gen-2t-2 RelaxedUnit(ThreadId(1)) default",
        33,
        0x065c09325bdb1887,
    ),
    (
        "explore gen-2t-2 RelaxedUnit(ThreadId(1)) range",
        41,
        0xd9ad6f289e75240e,
    ),
    (
        "explore gen-2t-3 RelaxedUnit(ThreadId(0)) default",
        5,
        0xb9671b101935f540,
    ),
    (
        "explore gen-2t-3 RelaxedUnit(ThreadId(0)) range",
        5,
        0xb9671b101935f540,
    ),
    (
        "explore gen-2t-3 RelaxedUnit(ThreadId(1)) default",
        12,
        0x6cc5ac66d1a57f35,
    ),
    (
        "explore gen-2t-3 RelaxedUnit(ThreadId(1)) range",
        12,
        0x6cc5ac66d1a57f35,
    ),
];

const FOLLOW: &[(&str, usize, u64)] = &[
    ("follow triangle default", 1, 0x19c264ae8c56eb35),
    ("follow triangle range", 1, 0xcb69926c41b2c180),
    ("follow token-parser default", 9, 0xa2f3afdf5a029200),
    ("follow token-parser range", 9, 0xa2f3afdf5a029200),
    ("follow record-processor default", 303, 0xacc75a1e0b4e1d49),
    ("follow record-processor range", 303, 0x23814eb35005bbad),
    ("follow short-read-client default", 4, 0xfc3f7888db692702),
    ("follow short-read-client range", 4, 0xfc3f7888db692702),
    ("follow fd-leaker default", 7, 0x6efb4329d9b85c02),
    ("follow fd-leaker range", 7, 0x6efb4329d9b85c02),
    ("follow gen-1t-1 default", 247, 0x9c223ac230c05f85),
    ("follow gen-1t-1 range", 247, 0x9c223ac230c05f85),
    ("follow gen-1t-2 default", 258, 0x7fb8141cffc745db),
    ("follow gen-1t-2 range", 258, 0x7fb8141cffc745db),
    ("follow gen-1t-3 default", 258, 0x7c8550c96963927f),
    ("follow gen-1t-3 range", 258, 0x7c8550c96963927f),
    ("follow gen-1t-4 default", 246, 0xe30b31e02bdc88d9),
    ("follow gen-1t-4 range", 246, 0x69c6df4c858c0529),
];
