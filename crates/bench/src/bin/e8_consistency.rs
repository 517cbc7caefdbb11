//! E8 — relaxed execution consistency (§4, S2E): unit-level
//! over-approximate exploration vs strict whole-system exploration.
//!
//! Workload: "unit-in-system" programs — a two-thread program whose
//! *unit* (thread 0) contains a crash reachable only for certain values
//! of a shared global. Strict symbolic exploration cannot even run
//! (multi-threaded); the realistic strict alternative is concrete
//! whole-system testing. RelaxedUnit explores the unit with the global
//! unconstrained: it covers a superset of feasible unit paths — finding
//! the bug immediately — at the cost of *false alarms* on paths the
//! system can never produce. We also report the strict/relaxed contrast
//! on an equivalent single-threaded program where both are defined.

use softborg_bench::{banner, cell, table_header};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::{global, local};
use softborg_program::expr::{BinOp, Expr};
use softborg_program::interp::LoweredProgram;
use softborg_program::ThreadId;
use softborg_symex::{
    explore, Consistency, Feasibility, InputBox, SolveBudget, SymConfig, SymOutcome,
};

/// Unit-in-system: thread 1 writes g0 in 0..=5; thread 0 (the unit)
/// crashes when g0 == 3 and in0 == 77; a second "impossible" assert
/// fires only when g0 == 9000 — unreachable in the real system.
fn unit_in_system() -> softborg_program::Program {
    let mut pb = ProgramBuilder::new("unit-in-system");
    pb.inputs(1).globals(1).locals(2);
    // The unit under analysis.
    pb.thread(|t| {
        t.assign(local(0), Expr::global(0));
        t.if_then(
            Expr::bin(
                BinOp::And,
                Expr::eq(Expr::local(0), Expr::Const(3)),
                Expr::eq(Expr::input(0), Expr::Const(77)),
            ),
            |t| {
                t.assert_(Expr::Const(0)); // real bug
            },
        );
        t.if_then(Expr::eq(Expr::local(0), Expr::Const(9000)), |t| {
            t.assert_(Expr::Const(0)); // unreachable in the system
        });
        t.emit(Expr::local(0));
    });
    // The environment thread: writes only small values.
    pb.thread(|t| {
        t.assign(
            global(0),
            Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(6)),
        );
    });
    pb.build().expect("well-formed")
}

fn main() {
    banner(
        "E8",
        "relaxed execution consistency: unit overapproximation vs strict",
        "§4 (S2E-style consistency levels, in-vivo unit analysis)",
    );
    let p = unit_in_system();
    let code = LoweredProgram::new(&p);
    let box_ = InputBox::uniform(1, 0, 999);

    // Strict on the multi-threaded program: undefined.
    let strict_err = explore(
        &code,
        &SymConfig {
            consistency: Consistency::Strict,
            input_box: box_.clone(),
            ..SymConfig::default()
        },
    )
    .unwrap_err();
    println!("strict whole-system symbolic exploration: {strict_err}\n");

    // Strict *concrete* testing: how many random whole-system executions
    // does it take to hit the real bug?
    let mut strict_execs_to_bug = None;
    for i in 0..2_000_000u64 {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(i);
        let inputs = vec![rng.gen_range(0..=999)];
        let (_, outcome) = softborg_bench::collect_path(&p, &inputs, i);
        if outcome.is_failure() {
            strict_execs_to_bug = Some(i + 1);
            break;
        }
        if i == 200_000 {
            break; // cap the search
        }
    }

    // Relaxed unit exploration.
    let relaxed = explore(
        &code,
        &SymConfig {
            consistency: Consistency::RelaxedUnit(ThreadId::new(0)),
            input_box: box_.clone(),
            ..SymConfig::default()
        },
    )
    .expect("relaxed exploration works on units");

    // Classify crash paths: realizable in the system (g0 in 0..=5) vs
    // false alarms.
    let mut real = 0;
    let mut false_alarms = 0;
    for path in relaxed.crashing() {
        // The unit's pseudo-input 1 (after the real input 0) is g0.
        let mut with_system_box = InputBox::uniform(1, 0, 999);
        with_system_box.push(softborg_symex::Interval::new(0, 5)); // system range of g0
        match softborg_symex::solve::check(
            &path.constraints,
            &with_system_box,
            path.n_symbols,
            SolveBudget::default(),
        ) {
            Feasibility::Feasible(_) => real += 1,
            _ => false_alarms += 1,
        }
    }

    table_header(&[
        ("approach", 26),
        ("paths", 7),
        ("bugs", 6),
        ("false alarms", 13),
        ("cost", 16),
    ]);
    println!(
        "{}{}{}{}{}",
        cell("strict (concrete testing)", 26),
        cell("-", 7),
        cell(if strict_execs_to_bug.is_some() { 1 } else { 0 }, 6),
        cell(0, 13),
        cell(
            strict_execs_to_bug
                .map(|n| format!("{n} executions"))
                .unwrap_or_else(|| ">200k executions".into()),
            16
        )
    );
    println!(
        "{}{}{}{}{}",
        cell("relaxed unit (symbolic)", 26),
        cell(relaxed.paths.len(), 7),
        cell(real, 6),
        cell(false_alarms, 13),
        cell(format!("{} sym paths", relaxed.stats.paths), 16)
    );
    let truncated = relaxed
        .paths
        .iter()
        .filter(|p| p.outcome == SymOutcome::Truncated)
        .count();
    println!(
        "\nrelaxed exploration detail: {} forks, {} pruned, {} truncated",
        relaxed.stats.forks, relaxed.stats.pruned, truncated
    );
    println!("\nexpected shape: the relaxed unit analysis finds the real bug");
    println!("with a handful of symbolic paths (vs ~thousands of concrete");
    println!("whole-system executions: the trigger needs g0==3 AND in0==77),");
    println!("but over-approximation also reports the g0==9000 alarm that no");
    println!("system execution can produce — the paper's precision/cost dial.");
}
