//! Self-healing concurrency: predict a deadlock from lock-order
//! by-products, synthesize a deadlock-immunity gate, prove it safe in the
//! repair lab, and watch recurrence drop to zero.
//!
//! This walks the pipeline manually (no `Platform`), so every stage of
//! Figure 1 is visible: by-products → lock-order graph → cycle →
//! candidate gate → repair-lab trial → distribution → immunity.
//!
//! Run with: `cargo run --release --example selfhealing_bank`

use softborg::analysis::deadlock::LockOrderGraph;
use softborg::fix::{deadlock_immunity, validate, LabConfig, TestCase};
use softborg::program::interp::{Executor, NopObserver, Outcome};
use softborg::program::overlay::Overlay;
use softborg::program::scenarios;
use softborg::program::sched::RandomSched;
use softborg::program::syscall::{DefaultEnv, EnvConfig};
use softborg::trace::{RecordingPolicy, TraceRecorder};

fn main() {
    let scenario = scenarios::bank_transfer();
    let program = &scenario.program;
    let mut exec = Executor::new(program);

    // --- Stage 1: users run the bank; pods ship by-products. ------------
    let mut graph = LockOrderGraph::new();
    let mut failing = Vec::new();
    let mut passing = Vec::new();
    let mut deadlocks_before = 0;
    for seed in 0..300u64 {
        let mut recorder =
            TraceRecorder::new(program.id(), RecordingPolicy::InputDependent, 0, true);
        let mut sched = RandomSched::seeded(seed);
        let result = exec
            .run(
                &[10, 20],
                &mut DefaultEnv::seeded(seed),
                &mut sched,
                &Overlay::empty(),
                &mut recorder,
            )
            .expect("inputs match");
        let case = TestCase {
            inputs: vec![10, 20],
            schedule: sched.into_picks(),
            env: EnvConfig {
                seed,
                ..EnvConfig::default()
            },
        };
        if matches!(result.outcome, Outcome::Deadlock { .. }) {
            deadlocks_before += 1;
            if failing.len() < 10 {
                failing.push(case);
            }
        } else if passing.len() < 10 {
            passing.push(case);
        }
        let trace = recorder.finish(result.outcome, result.steps);
        graph.ingest(&trace.lock_pairs, &trace.outcome);
    }
    println!(
        "stage 1 — population ran 300 times: {deadlocks_before} deadlocks, {} lock-order edges",
        graph.edge_count()
    );

    // --- Stage 2: the hive spots the cycle. ------------------------------
    let cycles = graph.cycles(4);
    let cycle = cycles.first().expect("the bank has a lock-order cycle");
    println!(
        "stage 2 — lock-order cycle detected: {:?} (support {}, confirmed: {})",
        cycle.locks, cycle.support, cycle.confirmed
    );

    // --- Stage 3: synthesize + validate the gate. -------------------------
    let candidate = deadlock_immunity(cycle, &Overlay::empty());
    println!("stage 3 — candidate fix: {}", candidate.description);
    let verdict = validate(
        program,
        &Overlay::empty(),
        &candidate,
        &failing,
        &passing,
        LabConfig::default(),
    );
    println!(
        "          repair lab: {:?} ({} of {} failures averted, {} of {} passing preserved)",
        verdict.verdict,
        verdict.failing_fixed,
        verdict.failing_total,
        verdict.passing_preserved,
        verdict.passing_total
    );

    // --- Stage 4: distribute and measure recurrence. ----------------------
    let mut deadlocks_after = 0;
    for seed in 300..600u64 {
        let result = exec
            .run(
                &[10, 20],
                &mut DefaultEnv::seeded(seed),
                &mut RandomSched::seeded(seed),
                &candidate.overlay,
                &mut NopObserver,
            )
            .expect("inputs match");
        if matches!(result.outcome, Outcome::Deadlock { .. }) {
            deadlocks_after += 1;
        }
    }
    println!(
        "stage 4 — with the gate installed: {deadlocks_after} deadlocks in 300 fresh schedules"
    );
    assert_eq!(deadlocks_after, 0, "the gate must confer immunity");
    println!("\nthe bank is deadlock-immune; no human read a stack trace.");
}
