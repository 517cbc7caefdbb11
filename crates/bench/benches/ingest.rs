//! Criterion bench for the ingest engine (E14): serial
//! per-trace ingest vs `Hive::ingest_batch` at several worker counts,
//! with and without reconstruction recycling; the batch frame codec on
//! a frame of 30 distinct `record_processor` traces, the frame that has
//! no repeat to drop (`explore_wide`'s case), and on a 64-trace frame of
//! E17's corpus (`fanin_replay`'s unit), read as ns per byte of frame;
//! and the record checksum against FNV-1a on 4 KiB.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::IngestConfig;
use softborg_obs::{checksum, fnv1a_step, FNV_OFFSET};
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

fn bench_frame_codec(c: &mut Criterion) {
    let s = scenarios::record_processor();
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed: 2024,
            ..PodConfig::default()
        },
    );
    let mut distinct: Vec<ExecutionTrace> = Vec::new();
    while distinct.len() < 30 {
        let trace = pod.run_once().trace;
        if !distinct.contains(&trace) {
            distinct.push(trace);
        }
    }
    let frame = wire::encode_batch(&distinct);
    let mut group = c.benchmark_group("frame_codec");
    group.throughput(Throughput::Elements(distinct.len() as u64));
    group.bench_function("encode_30_distinct", |b| {
        b.iter(|| wire::encode_batch(&distinct))
    });
    group.bench_function("decode_30_distinct", |b| {
        b.iter(|| wire::decode_batch(&frame).expect("valid"))
    });
    group.bench_function("encode_decode_30_distinct", |b| {
        b.iter(|| wire::decode_batch(&wire::encode_batch(&distinct)).expect("valid"))
    });
    // E17's first `record_processor` frame under `--seed 1`: the pod
    // seed is E17's `seed_base * 8` (`record_processor` is its eighth
    // program), and a frame is 64 consecutive executions.
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed: 1000 * 8,
            ..PodConfig::default()
        },
    );
    let e17: Vec<ExecutionTrace> = (0..64).map(|_| pod.run_once().trace).collect();
    let frame = wire::encode_batch(&e17);
    group.throughput(Throughput::Bytes(frame.len() as u64));
    println!("e17_64_traces frame: {} bytes", frame.len());
    group.bench_function("encode_e17_64_traces", |b| {
        b.iter(|| wire::encode_batch(&e17))
    });
    group.bench_function("decode_e17_64_traces", |b| {
        b.iter(|| wire::decode_batch(&frame).expect("valid"))
    });
    group.bench_function("read_e17_64_traces", |b| {
        b.iter(|| wire::read_batch(&frame).map(|v| v.len()).expect("valid"))
    });
    group.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 167 + 13) as u8).collect();
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("checksum/4KiB", |b| {
        b.iter(|| checksum(std::hint::black_box(&bytes)))
    });
    group.bench_function("fnv1a/4KiB", |b| {
        b.iter(|| fnv1a_step(FNV_OFFSET, std::hint::black_box(&bytes)))
    });
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_frame_codec, bench_checksum);
criterion_main!(benches);
