//! Criterion bench for the ingest engine (E14): serial
//! per-trace ingest vs `Hive::ingest_batch` at several worker counts,
//! with and without reconstruction recycling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios;
use softborg_trace::{wire, ExecutionTrace};

fn bench_ingest(c: &mut Criterion) {
    let s = scenarios::token_parser();
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed: 2024,
            ..PodConfig::default()
        },
    );
    let traces: Vec<ExecutionTrace> = (0..2000).map(|_| pod.run_once().trace).collect();
    let singles: Vec<Vec<u8>> = traces.iter().map(wire::encode).collect();
    let frames: Vec<Vec<u8>> = traces.chunks(32).map(wire::encode_batch).collect();

    let mut group = c.benchmark_group("e14_ingest");
    group.throughput(Throughput::Elements(traces.len() as u64));
    group.sample_size(10);

    group.bench_function("serial_per_trace", |b| {
        b.iter(|| {
            let mut hive = Hive::new(&s.program, HiveConfig::default());
            for payload in &singles {
                let t = wire::decode(payload).expect("valid");
                hive.ingest(&t);
            }
            hive.stats()
        })
    });

    for (name, workers, memo) in [
        ("1w_memo", 1usize, 4096usize),
        ("4w_memo", 4, 4096),
        ("4w_nomemo", 4, 0),
    ] {
        let cfg = IngestConfig {
            workers,
            memo_capacity: memo,
            ..IngestConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("pipelined", name), &cfg, |b, cfg| {
            b.iter(|| {
                let mut hive = Hive::new(&s.program, HiveConfig::default());
                hive.ingest_batch(frames.clone(), cfg);
                hive.stats()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
