//! E6 — SoftBorg vs the §5 baselines: executions until a confident
//! diagnosis, per bug class.
//!
//! * **SoftBorg**: full (reconstructible) traces with labeled outcomes —
//!   a crash is localized the moment the first failing trace arrives,
//!   and the trigger arm follows from the tree.
//! * **WER**: crash bucketing — also needs one failing execution for the
//!   site, but carries no path/trigger information and never observes
//!   successes.
//! * **CBI**: sparse (1/100) predicate sampling — needs enough failing
//!   *and* passing samples of the right predicate before the Increase
//!   score separates; we report executions until the true trigger
//!   predicate reaches rank 1.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg_analysis::{failure_key, sample_path, CbiServer, FailureLedger, WerBuckets};
use softborg_bench::{banner, cell, collect_path, table_header};
use softborg_program::gen::{generate, sample_inputs, BugKind, GenConfig};
use softborg_program::taint::InputDependence;
use softborg_trace::{reconstruct, RecordingPolicy, TraceRecorder};
use softborg_tree::ExecutionTree;

struct Workload {
    name: String,
    program: softborg_program::Program,
    range: (i64, i64),
    /// Probability boost: mix in triggering inputs at 1/this rate.
    trigger_inputs: Vec<i64>,
}

fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for (i, kind) in [BugKind::AssertMagic, BugKind::DivByInputDelta]
        .into_iter()
        .enumerate()
    {
        let gp = generate(&GenConfig {
            seed: 50 + i as u64,
            n_threads: 1,
            bugs: vec![kind],
            ..GenConfig::default()
        });
        let baseline = vec![500; gp.program.n_inputs as usize];
        let trigger = gp.bugs[0]
            .triggering_inputs(&baseline)
            .expect("input-triggered bug");
        out.push(Workload {
            name: format!("{kind}"),
            program: gp.program,
            range: gp.input_range,
            trigger_inputs: trigger,
        });
    }
    out
}

fn main() {
    banner(
        "E6",
        "executions-to-diagnosis: SoftBorg vs WER vs CBI",
        "§5 related work (WER [11], cooperative bug isolation [18])",
    );
    println!("bug frequency: trigger mixed in at 1/50 executions; CBI samples 1/100 predicates\n");
    table_header(&[
        ("bug", 16),
        ("softborg", 10),
        ("wer", 10),
        ("cbi", 10),
        ("sb predicate?", 14),
    ]);
    for w in workloads() {
        let deps = InputDependence::compute(&w.program);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut tree = ExecutionTree::new(w.program.id());
        let mut ledger = FailureLedger::new();
        let mut wer = WerBuckets::new();
        let mut cbi = CbiServer::new();
        let (mut sb_at, mut wer_at, mut cbi_at) = (None, None, None);
        let max_execs = 200_000u64;
        // Identify the trigger predicate once (the last decision unique
        // to failing paths): run the trigger once offline.
        let (fail_path, _) = collect_path(&w.program, &w.trigger_inputs, 0);

        for i in 0..max_execs {
            let inputs = if i % 50 == 7 {
                w.trigger_inputs.clone()
            } else {
                sample_inputs(w.program.n_inputs, w.range, &mut rng)
            };
            // Execute once; all three consumers share the same run.
            let mut rec =
                TraceRecorder::new(w.program.id(), RecordingPolicy::InputDependent, 0, false);
            let r = softborg_program::interp::Executor::new(&w.program)
                .run(
                    &inputs,
                    &mut softborg_program::syscall::DefaultEnv::seeded(i),
                    &mut softborg_program::sched::RoundRobin::new(),
                    &softborg_program::Overlay::empty(),
                    &mut rec,
                )
                .expect("arity");
            let trace = rec.finish(r.outcome.clone(), r.steps);
            let failed = trace.is_failure();

            // SoftBorg: reconstruct + merge + ledger.
            if sb_at.is_none() {
                if let Ok(p) = reconstruct(
                    &w.program,
                    &deps,
                    &softborg_program::Overlay::empty(),
                    &trace,
                ) {
                    tree.merge_path(&p.decisions, &trace.outcome);
                }
                ledger.ingest(&trace.outcome, failure_key(&trace.outcome).as_deref());
                if !ledger.diagnoses().is_empty() {
                    sb_at = Some(i + 1);
                }
            }
            // WER.
            if wer_at.is_none() {
                wer.ingest(&trace);
                if wer.bucket_count() > 0 {
                    wer_at = Some(i + 1);
                }
            }
            // CBI: sample the *full* path sparsely.
            if cbi_at.is_none() {
                let (path, _) = (
                    // reuse the reconstructed path when possible; cheap
                    // re-derivation otherwise
                    reconstruct(
                        &w.program,
                        &deps,
                        &softborg_program::Overlay::empty(),
                        &trace,
                    )
                    .map(|p| p.decisions)
                    .unwrap_or_default(),
                    (),
                );
                cbi.ingest(&sample_path(&path, failed, 100, i));
                // Diagnosed when the last failing-path decision tops the
                // ranking.
                if failed {
                    if let Some(&(site, taken)) = fail_path.last() {
                        if cbi.rank_of(site, taken) == Some(1) {
                            cbi_at = Some(i + 1);
                        }
                    }
                }
            }
            if sb_at.is_some() && wer_at.is_some() && cbi_at.is_some() {
                break;
            }
        }
        // Does SoftBorg also synthesize the trigger predicate for the
        // diagnosed site (the input to fix synthesis)?
        let trigger_found = ledger
            .diagnoses()
            .first()
            .and_then(|d| d.loc)
            .and_then(|loc| softborg_fix::crash_predicate(&w.program, loc))
            .is_some();
        let _ = &tree;
        let show = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| ">2e5".into());
        println!(
            "{}{}{}{}{}",
            cell(&w.name, 16),
            cell(show(sb_at), 10),
            cell(show(wer_at), 10),
            cell(show(cbi_at), 10),
            cell(if trigger_found { "yes" } else { "no" }, 14)
        );
    }
    println!("\nexpected shape: SoftBorg and WER localize the *site* at the");
    println!("first failure (~tens of executions at 1/50 trigger frequency);");
    println!("only SoftBorg also derives the trigger *predicate* that feeds");
    println!("fix synthesis. CBI needs orders of magnitude more executions");
    println!("because each run reveals only 1/100 of its predicates — the");
    println!("price of its (stronger) sampling-based privacy stance.");
}
