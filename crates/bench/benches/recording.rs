//! Criterion bench for E4 (§3.1): per-execution cost of each recording
//! policy on the interpreter, plus trace wire encode/decode, plus the
//! interpreter-versus-pod split of one `token_parser` execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softborg_pod::{Pod, PodConfig};
use softborg_program::gen::{generate, GenConfig};
use softborg_program::interp::{ExecConfig, Executor, NopObserver};
use softborg_program::overlay::Overlay;
use softborg_program::scenarios;
use softborg_program::sched::{RandomSched, ScriptSched};
use softborg_program::syscall::DefaultEnv;
use softborg_trace::{wire, RecordingPolicy, TraceRecorder};

fn bench_recording(c: &mut Criterion) {
    let gp = generate(&GenConfig {
        seed: 5,
        n_threads: 1,
        constructs_per_thread: 24,
        max_depth: 4,
        ..GenConfig::default()
    });
    let program = gp.program.clone();
    let exec = Executor::new(&program).with_config(ExecConfig { max_steps: 50_000 });
    let inputs = vec![500; program.n_inputs as usize];

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
                let mut rec = TraceRecorder::new(program.id(), *policy, 0, false);
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
/// a whole pod run (recorder, RNG, anonymizer, case retention).
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

    let exec = Executor::new(&s.program).with_config(config.exec);
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
    let script = sched.into_picks();
    let mut group = c.benchmark_group("interp_run");
    group.bench_function("token_parser", |b| {
        b.iter(|| {
            exec.run(
                &inputs,
                &mut DefaultEnv::seeded(1),
                &mut ScriptSched::new(script.clone()),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .expect("arity")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_recording, bench_attribution);
criterion_main!(benches);
