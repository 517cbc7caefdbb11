//! Fleet triage: one stream of field executions, three consumers —
//! SoftBorg's failure ledger + execution tree, a WER-style bucket
//! service, and a CBI-style sampled-predicate server — side by side on a
//! freshly *generated* buggy program (so nothing is hand-tuned to the
//! detectors).
//!
//! Run with: `cargo run --release --example fleet_triage`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg::analysis::{
    failure_key, sample_path, suspicious_arms, CbiServer, FailureLedger, WerBuckets,
};
use softborg::program::gen::{generate, sample_inputs, BugKind, GenConfig};
use softborg::program::interp::Executor;
use softborg::program::overlay::Overlay;
use softborg::program::sched::RoundRobin;
use softborg::program::syscall::DefaultEnv;
use softborg::program::taint::InputDependence;
use softborg::trace::{reconstruct, RecordingPolicy, TraceRecorder};
use softborg::tree::ExecutionTree;

fn main() {
    // A generated single-threaded program with two injected crash bugs.
    let gp = generate(&GenConfig {
        seed: 99,
        n_threads: 1,
        input_range: (0, 299), // bugs fire naturally around 1/300
        bugs: vec![BugKind::AssertMagic, BugKind::DivByInputDelta],
        ..GenConfig::default()
    });
    let program = &gp.program;
    println!(
        "generated program: {} sites, {} injected bugs",
        program.n_branch_sites,
        gp.bugs.len()
    );
    for b in &gp.bugs {
        println!("  ground truth: {}", b.description);
    }

    let deps = InputDependence::compute(program);
    let exec = Executor::new(program);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut tree = ExecutionTree::new(program.id());
    let mut ledger = FailureLedger::new();
    let mut wer = WerBuckets::new();
    let mut cbi = CbiServer::new();

    let n = 30_000u64;
    for i in 0..n {
        let inputs = sample_inputs(program.n_inputs, gp.input_range, &mut rng);
        let mut rec = TraceRecorder::new(program.id(), RecordingPolicy::InputDependent, 0, false);
        let r = exec
            .run(
                &inputs,
                &mut DefaultEnv::seeded(i),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut rec,
            )
            .expect("arity");
        let trace = rec.finish(r.outcome.clone(), r.steps);
        ledger.ingest(&trace.outcome, failure_key(&trace.outcome).as_deref());
        wer.ingest(&trace);
        if let Ok(path) = reconstruct(program, &deps, &Overlay::empty(), &trace) {
            cbi.ingest(&sample_path(&path.decisions, trace.is_failure(), 100, i));
            tree.merge_path(&path.decisions, &trace.outcome);
        }
    }
    let (execs, failures) = ledger.totals();
    println!("\nran {execs} executions, {failures} failures\n");

    println!("— SoftBorg ledger (exact signatures, first-failure localization):");
    for d in ledger.diagnoses() {
        println!(
            "    {}x {} at {:?} (first seen as failure #{})",
            d.count, d.class, d.loc, d.first_seen
        );
    }
    println!("\n— SoftBorg trigger synthesis (crash predicates derived from the");
    println!("  diagnosed statements — the direct input to fix synthesis):");
    for d in ledger.diagnoses() {
        if let Some(loc) = d.loc {
            if let Some(pred) = softborg::fix::crash_predicate(program, loc) {
                println!("    at {loc}: fires when {pred}");
            }
        }
    }
    // Control-flow triggers (when a bug hides behind a rare branch) show
    // up as high-score arms; these generated bugs are straight-line, so
    // the arms rightly score ~0 and the predicate above carries the
    // diagnosis.
    if let Some(top) = suspicious_arms(&tree, 5).first() {
        println!(
            "    (top tree arm score: {:.2} — no control-flow trigger here)",
            top.score()
        );
    }
    println!("\n— WER buckets (volume-ranked):");
    for b in wer.ranked().into_iter().take(3) {
        println!(
            "    {:>4} reports  {} at {:?}",
            b.count, b.key.class, b.key.loc
        );
    }
    println!("\n— CBI top predicates (Increase score over 1/100 samples):");
    for p in cbi.ranked().into_iter().take(3) {
        println!(
            "    site {:?} taken={} increase {:.2} (support {})",
            p.site, p.taken, p.increase, p.support
        );
    }
    println!("\nall three triage the same field data; only SoftBorg's view is");
    println!("rich enough to hand the fix synthesizer an exact site plus a");
    println!("trigger predicate — WER stops at buckets, CBI at correlations.");
}
