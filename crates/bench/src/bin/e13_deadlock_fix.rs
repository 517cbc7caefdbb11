//! E13 — deadlock-immunity fix efficacy (§3.3, ref. \[16\]): deadlock
//! recurrence before vs after the synthesized gate, plus the semantic-
//! preservation check on passing executions.

use softborg_analysis::deadlock::LockOrderGraph;
use softborg_bench::{banner, cell, table_header};
use softborg_fix::{deadlock_immunity, validate, LabConfig, TestCase, Verdict};
use softborg_program::gen::{generate, BugKind, GenConfig};
use softborg_program::interp::{ExecConfig, Executor, NopObserver, Outcome};
use softborg_program::overlay::Overlay;
use softborg_program::scenarios;
use softborg_program::sched::RandomSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_trace::{RecordingPolicy, TraceRecorder};

struct Workload {
    name: String,
    program: softborg_program::Program,
    inputs: Vec<i64>,
}

fn workloads() -> Vec<Workload> {
    let mut out = vec![
        Workload {
            name: "bank".into(),
            program: scenarios::bank_transfer().program,
            inputs: vec![10, 20],
        },
        Workload {
            name: "dining-3".into(),
            program: scenarios::dining_philosophers(3).program,
            inputs: vec![],
        },
        Workload {
            name: "dining-5".into(),
            program: scenarios::dining_philosophers(5).program,
            inputs: vec![],
        },
    ];
    for seed in 0..2 {
        let gp = generate(&GenConfig {
            seed: 200 + seed,
            constructs_per_thread: 4,
            bugs: vec![BugKind::LockInversion],
            ..GenConfig::default()
        });
        out.push(Workload {
            name: format!("gen-inversion-{seed}"),
            inputs: vec![500; gp.program.n_inputs as usize],
            program: gp.program,
        });
    }
    out
}

fn deadlock_rate(
    program: &softborg_program::Program,
    inputs: &[i64],
    overlay: &Overlay,
    n: u64,
) -> (u64, u64) {
    let exec = Executor::new(program).with_config(ExecConfig { max_steps: 50_000 });
    let mut deadlocks = 0;
    for seed in 0..n {
        let r = exec
            .run(
                inputs,
                &mut DefaultEnv::seeded(seed),
                &mut RandomSched::seeded(seed),
                overlay,
                &mut NopObserver,
            )
            .expect("arity");
        if matches!(r.outcome, Outcome::Deadlock { .. }) {
            deadlocks += 1;
        }
    }
    (deadlocks, n)
}

fn main() {
    banner(
        "E13",
        "deadlock immunity: recurrence before/after the synthesized gate",
        "§3.3 ('avoid the conditions under which that deadlock occurs', ref [16])",
    );
    println!();
    table_header(&[
        ("program", 18),
        ("before", 12),
        ("after", 12),
        ("lab verdict", 12),
        ("preserved", 10),
    ]);
    let n = 500u64;
    for w in workloads() {
        // Detect the cycle from lock-order pairs, exactly as the hive does.
        let exec = Executor::new(&w.program).with_config(ExecConfig { max_steps: 50_000 });
        let mut graph = LockOrderGraph::new();
        let mut failing = Vec::new();
        let mut passing = Vec::new();
        for seed in 0..200u64 {
            let mut rec =
                TraceRecorder::new(w.program.id(), RecordingPolicy::InputDependent, 0, true);
            let mut sched = RandomSched::seeded(seed);
            let r = exec
                .run(
                    &w.inputs,
                    &mut DefaultEnv::seeded(seed),
                    &mut sched,
                    &Overlay::empty(),
                    &mut rec,
                )
                .expect("arity");
            let case = TestCase {
                inputs: w.inputs.clone(),
                schedule: sched.into_picks(),
                env: EnvConfig {
                    seed,
                    ..EnvConfig::default()
                },
            };
            if r.outcome.is_failure() {
                if failing.len() < 10 {
                    failing.push(case);
                }
            } else if passing.len() < 10 {
                passing.push(case);
            }
            let trace = rec.finish(r.outcome, r.steps);
            graph.ingest(&trace.lock_pairs, &trace.outcome);
        }
        let cycles = graph.cycles(8);
        let Some(cycle) = cycles.first() else {
            println!("{}: no cycle detected", w.name);
            continue;
        };
        let fix = deadlock_immunity(cycle, &Overlay::empty());
        let validation = validate(
            &w.program,
            &Overlay::empty(),
            &fix,
            &failing,
            &passing,
            LabConfig::default(),
        );
        let (before, _) = deadlock_rate(&w.program, &w.inputs, &Overlay::empty(), n);
        let (after, _) = deadlock_rate(&w.program, &w.inputs, &fix.overlay, n);
        println!(
            "{}{}{}{}{}",
            cell(&w.name, 18),
            cell(format!("{before}/{n}"), 12),
            cell(format!("{after}/{n}"), 12),
            cell(format!("{:?}", validation.verdict), 12),
            cell(
                format!(
                    "{}/{}",
                    validation.passing_preserved, validation.passing_total
                ),
                10
            )
        );
        assert_eq!(after, 0, "{}: gate failed to remove the deadlock", w.name);
        assert_ne!(
            validation.verdict,
            Verdict::Reject,
            "{}: lab rejected",
            w.name
        );
    }
    println!("\nexpected shape: recurrence drops from a sizable fraction of");
    println!("schedules to exactly 0/{n} after the gate, with 100% of passing");
    println!("behaviour preserved — the deadlock-immunity property of [16].");
}
