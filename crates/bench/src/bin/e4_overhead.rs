//! E4 — capture cost vs recording granularity (§3.1): run-time overhead
//! and bytes shipped per execution for each recording policy, against a
//! no-observer baseline. The paper's cost reduction — record only
//! input-dependent branches — shows up as fewer bits with identical
//! reconstructability (E2/E6 consume such traces).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg_bench::{banner, cell, table_header};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::local;
use softborg_program::expr::{BinOp, Expr};
use softborg_program::gen::sample_inputs;
use softborg_program::interp::{ExecConfig, Executor, NopObserver};
use softborg_program::overlay::Overlay;
use softborg_program::sched::RandomSched;
use softborg_program::syscall::DefaultEnv;
use softborg_program::taint::InputDependence;
use softborg_trace::{wire, RecordingPolicy, TraceRecorder};
use std::time::Instant;

/// Timed runs per policy, each paired with a baseline run.
const ROUNDS: usize = 7;

/// A branch-heavy workload: 400 loop iterations, each with three
/// input-dependent conditionals — ~1600 dynamic branches per execution,
/// a quarter of them deterministic (the loop header).
fn workload() -> softborg_program::Program {
    let mut pb = ProgramBuilder::new("e4-branchy");
    pb.inputs(3).locals(3);
    pb.thread(|t| {
        t.assign(local(0), Expr::Const(0));
        t.while_loop(Expr::lt(Expr::local(0), Expr::Const(400)), |t| {
            for i in 0..3u32 {
                t.if_else(
                    Expr::lt(
                        Expr::bin(BinOp::Add, Expr::input(i), Expr::local(0)),
                        Expr::Const(500),
                    ),
                    |t| {
                        t.assign(
                            local(1),
                            Expr::bin(BinOp::Add, Expr::local(1), Expr::Const(1)),
                        );
                    },
                    |t| {
                        t.assign(
                            local(2),
                            Expr::bin(BinOp::BitXor, Expr::local(2), Expr::local(0)),
                        );
                    },
                );
            }
            t.assign(
                local(0),
                Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
            );
        });
        t.emit(Expr::local(1));
    });
    pb.build().expect("well-formed")
}

fn main() {
    banner(
        "E4",
        "recording overhead vs granularity",
        "§3.1 capture cost ('one bit per branch', input-dependent-only, sampling)",
    );
    let program = &workload();
    let deps = InputDependence::compute(program);
    println!(
        "workload: branch-heavy loop, {} branch sites ({} input-dependent), ~1600 dynamic branches/exec",
        deps.site_count(),
        deps.dependent_count()
    );
    let n_execs = 2_000u64;
    let mut exec = Executor::new(program).with_config(ExecConfig { max_steps: 50_000 });
    let mut rng = SmallRng::seed_from_u64(9);
    let inputs: Vec<Vec<i64>> = (0..n_execs)
        .map(|_| sample_inputs(program.n_inputs, (0, 999), &mut rng))
        .collect();

    // Baseline: no observer at all.
    let baseline = |exec: &mut Executor<'_>| {
        let t0 = Instant::now();
        let mut branches = 0u64;
        for (i, inp) in inputs.iter().enumerate() {
            let r = exec
                .run(
                    inp,
                    &mut DefaultEnv::seeded(i as u64),
                    &mut RandomSched::seeded(i as u64),
                    &Overlay::empty(),
                    &mut NopObserver,
                )
                .expect("arity");
            branches += r.n_branches;
        }
        (t0.elapsed(), branches)
    };
    // Hashing the IR is not recording: the id is taken once, off the
    // clock, and so is the wire encoding of the recorded traces.
    let id = program.id();
    let record = |exec: &mut Executor<'_>, policy| {
        let t0 = Instant::now();
        let traces: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| {
                let mut rec = TraceRecorder::new(id, policy, 0, false);
                let r = exec
                    .run(
                        inp,
                        &mut DefaultEnv::seeded(i as u64),
                        &mut RandomSched::seeded(i as u64),
                        &Overlay::empty(),
                        &mut rec,
                    )
                    .expect("arity");
                rec.finish(r.outcome, r.steps)
            })
            .collect();
        (t0.elapsed(), traces)
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (base, total_branches) = baseline(&mut exec);
    println!(
        "baseline (no observer): {:.1} ms total, {:.1} ns/branch",
        base.as_secs_f64() * 1e3,
        base.as_nanos() as f64 / total_branches as f64
    );
    println!(
        "each policy: median of {ROUNDS} runs, each against the baseline run just before it\n"
    );

    table_header(&[
        ("policy", 18),
        ("overhead%", 10),
        ("ns/branch", 10),
        ("bits/exec", 10),
        ("bytes/exec", 11),
        ("exact?", 7),
    ]);
    let policies = [
        ("outcome-only", RecordingPolicy::OutcomeOnly),
        ("full-branch", RecordingPolicy::FullBranch),
        ("input-dependent", RecordingPolicy::InputDependent),
        (
            "sampled-1/100",
            RecordingPolicy::Sampled {
                period: 100,
                phase: 0,
            },
        ),
    ];
    for (name, policy) in policies {
        let (mut overheads, mut walls, mut traces) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let (base, _) = baseline(&mut exec);
            let (wall, t) = record(&mut exec, policy);
            overheads.push((wall.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0);
            walls.push(wall.as_nanos() as f64 / total_branches as f64);
            traces = t;
        }
        let bits: u64 = traces.iter().map(|t| t.bits.len() as u64).sum();
        let bytes: u64 = traces.iter().map(|t| wire::encode(t).len() as u64).sum();
        println!(
            "{}{}{}{}{}{}",
            cell(name, 18),
            cell(format!("{:.1}", median(overheads)), 10),
            cell(format!("{:.1}", median(walls)), 10),
            cell(format!("{:.1}", bits as f64 / n_execs as f64), 10),
            cell(format!("{:.1}", bytes as f64 / n_execs as f64), 11),
            cell(if policy.is_exact() { "yes" } else { "no" }, 7)
        );
    }
    println!("\nexpected shape: input-dependent records a strict subset of");
    println!("full-branch bits at similar runtime cost; sampling trades");
    println!("exactness (path families, §3.1) for another order of magnitude");
    println!("fewer bits; outcome-only is the floor.");
}
