//! Criterion bench for E4 (§3.1): per-execution cost of each recording
//! policy on the interpreter, plus trace wire encode/decode, plus the
//! interpreter-versus-pod split of one `token_parser` execution, plus the
//! hive-side cost of reconstructing one trace of each E17 program and of
//! folding one prepared trace into its hive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{MergeRecord, ProcessedTrace, ReconstructContext};
use softborg_pod::{Pod, PodConfig};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::local;
use softborg_program::expr::Expr;
use softborg_program::gen::{generate, GenConfig};
use softborg_program::interp::LoweredProgram;
use softborg_program::interp::{ExecConfig, Executor, NopObserver};
use softborg_program::overlay::Overlay;
use softborg_program::scenarios::{self, Scenario};
use softborg_program::sched::{RandomSched, ScriptSched};
use softborg_program::syscall::DefaultEnv;
use softborg_trace::{
    reconstruct, wire, ExecutionTrace, RecordingPolicy, ReplayScratch, TraceRecorder,
};

fn bench_recording(c: &mut Criterion) {
    let gp = generate(&GenConfig {
        seed: 5,
        n_threads: 1,
        constructs_per_thread: 24,
        max_depth: 4,
        ..GenConfig::default()
    });
    let program = gp.program.clone();
    let mut exec = Executor::new(&program).with_config(ExecConfig { max_steps: 50_000 });
    let inputs = vec![500; program.n_inputs as usize];
    // Hashing the IR is not recording: take the id off the clock.
    let id = program.id();

    let mut group = c.benchmark_group("e4_recording");
    group.bench_function("baseline_no_observer", |b| {
        b.iter(|| {
            exec.run(
                &inputs,
                &mut DefaultEnv::seeded(1),
                &mut RandomSched::seeded(1),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .expect("arity")
        })
    });
    for (name, policy) in [
        ("outcome_only", RecordingPolicy::OutcomeOnly),
        ("full_branch", RecordingPolicy::FullBranch),
        ("input_dependent", RecordingPolicy::InputDependent),
        (
            "sampled_1_100",
            RecordingPolicy::Sampled {
                period: 100,
                phase: 0,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("record", name), &policy, |b, policy| {
            b.iter(|| {
                let mut rec = TraceRecorder::new(id, *policy, 0, false);
                let r = exec
                    .run(
                        &inputs,
                        &mut DefaultEnv::seeded(1),
                        &mut RandomSched::seeded(1),
                        &Overlay::empty(),
                        &mut rec,
                    )
                    .expect("arity");
                rec.finish(r.outcome, r.steps)
            })
        });
    }

    // Wire round-trip.
    let mut rec = TraceRecorder::new(program.id(), RecordingPolicy::FullBranch, 0, false);
    let r = exec
        .run(
            &inputs,
            &mut DefaultEnv::seeded(1),
            &mut RandomSched::seeded(1),
            &Overlay::empty(),
            &mut rec,
        )
        .expect("arity");
    let trace = rec.finish(r.outcome, r.steps);
    group.bench_function("wire_encode", |b| b.iter(|| wire::encode(&trace)));
    let encoded = wire::encode(&trace);
    group.bench_function("wire_decode", |b| {
        b.iter(|| wire::decode(&encoded).expect("valid"))
    });
    group.finish();
}

/// The cost split of one more execution on the benchmark's `closed_loop`
/// program: the bare interpreter (no-op observer, fixed schedule) against
/// a whole pod run (recorder, RNG, anonymizer, case retention). The
/// interpreter also runs `record_processor` and `bank_transfer`, and
/// `setup` runs a one-statement program: what a run costs before its
/// steps, so the other rows split into set-up plus per-step work.
fn bench_attribution(c: &mut Criterion) {
    let s = scenarios::token_parser();
    let config = PodConfig {
        input_range: s.input_range,
        ..PodConfig::default()
    };
    let mut pod = Pod::new(&s.program, config.clone());
    let mut group = c.benchmark_group("pod_run_once");
    group.bench_function("token_parser", |b| b.iter(|| pod.run_once()));
    group.finish();

    let mut pb = ProgramBuilder::new("one-statement");
    pb.locals(1);
    pb.thread(|t| {
        t.assign(local(0), Expr::Const(1));
    });
    let setup = Scenario {
        name: "setup",
        program: pb.build().expect("well-formed"),
        bugs: Vec::new(),
        input_range: (0, 0),
    };
    let mut group = c.benchmark_group("interp_run");
    for (name, s) in [
        ("setup", setup),
        ("token_parser", s),
        ("record_processor", scenarios::record_processor()),
        ("bank_transfer", scenarios::bank_transfer()),
    ] {
        let mut exec = Executor::new(&s.program).with_config(config.exec);
        let inputs = vec![s.input_range.1 / 2; s.program.n_inputs as usize];
        let mut sched = RandomSched::seeded(1);
        exec.run(
            &inputs,
            &mut DefaultEnv::seeded(1),
            &mut sched,
            &Overlay::empty(),
            &mut NopObserver,
        )
        .expect("arity");
        let mut script = ScriptSched::new(sched.into_picks());
        group.bench_function(name, |b| {
            b.iter(|| {
                script.rewind();
                exec.run(
                    &inputs,
                    &mut DefaultEnv::seeded(1),
                    &mut script,
                    &Overlay::empty(),
                    &mut NopObserver,
                )
                .expect("arity")
            })
        });
    }
    group.finish();
}

/// E17's eight programs, in E17's order.
fn e17_programs() -> [Scenario; 8] {
    [
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::short_read_client(),
        scenarios::bank_transfer(),
        scenarios::spin_wait(),
        scenarios::racy_counter(),
        scenarios::dining_philosophers(3),
        scenarios::record_processor(),
    ]
}

/// Replay over E17's eight-program corpus, as an ingest worker does it
/// (one lowering per program, one scratch reused): one row per program,
/// each iteration replaying the next of 256 pod traces, so a row reads
/// as ns per trace. The `one_shot` row replays the first program's
/// traces through the per-call `reconstruct`, which lowers the program
/// on every call.
fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct");
    let mut scratch = ReplayScratch::default();
    for (i, s) in e17_programs().iter().enumerate() {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 1000 * (i as u64 + 1),
                ..PodConfig::default()
            },
        );
        let traces: Vec<ExecutionTrace> = (0..256).map(|_| pod.run_once().trace).collect();
        let code = LoweredProgram::new(&s.program);
        let overlays = [Overlay::empty()];
        let ctx = ReconstructContext {
            code: &code,
            overlays: &overlays,
        };
        let mut next = 0;
        group.bench_function(s.name, |b| {
            b.iter(|| {
                next = (next + 1) % traces.len();
                ctx.decisions(&traces[next], &mut scratch)
            })
        });
        if i == 0 {
            group.bench_function("one_shot", |b| {
                b.iter(|| {
                    next = (next + 1) % traces.len();
                    reconstruct(&s.program, code.dependence(), &overlays[0], &traces[next])
                })
            });
        }
    }
    group.finish();
}

/// The merger's per-arrival work on E17's corpus (its eight programs ×
/// 4 pods × 1,200 executions, E17's seeds): one row per program, each
/// iteration folding the next prepared record into the program's hive
/// (`Hive::apply_record`, what the pipeline's sink does for a memo hit
/// or miss alike), so a row reads as ns per trace. The corpus cycles, so
/// the rows are steady state: nearly every path is already in the tree.
fn bench_hive_sink(c: &mut Criterion) {
    let mut group = c.benchmark_group("hive_sink");
    for (i, s) in e17_programs().iter().enumerate() {
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let ctx = ReconstructContext {
            code: hive.lowered(),
            overlays: hive.overlays(),
        };
        let mut scratch = ReplayScratch::default();
        let records: Vec<MergeRecord> = (0..4)
            .flat_map(|p| {
                let mut pod = Pod::new(
                    &s.program,
                    PodConfig {
                        input_range: s.input_range,
                        seed: 1000 * (i as u64 + 1) + p,
                        ..PodConfig::default()
                    },
                );
                (0..1200).map(move |_| pod.run_once().trace)
            })
            .map(|trace| {
                let decisions = ctx.decisions(&trace, &mut scratch);
                MergeRecord::prepare(ProcessedTrace { trace, decisions })
            })
            .collect();
        let mut next = 0;
        group.bench_function(s.name, |b| {
            b.iter(|| {
                next = (next + 1) % records.len();
                hive.apply_record(&records[next]);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_recording,
    bench_attribution,
    bench_reconstruct,
    bench_hive_sink
);
criterion_main!(benches);
