//! Workload helpers shared by the hive's ingest and transport suites
//! (and the root `obs_determinism.rs`, which includes this file
//! by path): the canonical scenarios, seeded pod traces, transport
//! sessions, and [`serial_hive`], the one serial reference every
//! ingest equivalence check compares against.

#![allow(dead_code)] // each suite uses a subset

use softborg_hive::{Hive, HiveConfig};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios::{self, Scenario};
use softborg_trace::{wire, ExecutionTrace};

pub fn scenario(idx: usize) -> Scenario {
    match idx % 4 {
        0 => scenarios::token_parser(),
        1 => scenarios::triangle(),
        2 => scenarios::record_processor(),
        _ => scenarios::bank_transfer(),
    }
}

pub fn pod_traces(s: &Scenario, seed: u64, n: usize) -> Vec<ExecutionTrace> {
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed,
            ..PodConfig::default()
        },
    );
    (0..n).map(|_| pod.run_once().trace).collect()
}

/// Splits `traces` into `pods` sessions of batch frames (priority 1).
pub fn sessions_of(
    traces: &[ExecutionTrace],
    pods: usize,
    batch: usize,
) -> Vec<Vec<(u8, Vec<u8>)>> {
    let mut out = vec![Vec::new(); pods.max(1)];
    for (i, chunk) in traces.chunks(batch.max(1)).enumerate() {
        out[i % pods.max(1)].push((1u8, wire::encode_batch(chunk)));
    }
    out
}

/// The serial reference: every trace through `Hive::ingest`, the
/// memo-less single-trace fold no production path calls.
pub fn serial_hive<'p>(s: &'p Scenario, traces: &[ExecutionTrace]) -> Hive<'p> {
    let mut hive = Hive::new(&s.program, HiveConfig::default());
    for t in traces {
        hive.ingest(t);
    }
    hive
}

pub fn assert_same_state(what: &str, a: &Hive<'_>, b: &Hive<'_>) {
    assert_eq!(a.stats(), b.stats(), "{what}: HiveStats diverged");
    assert_eq!(
        a.tree().digest(),
        b.tree().digest(),
        "{what}: tree digest diverged"
    );
    assert_eq!(a.coverage(), b.coverage(), "{what}: coverage diverged");
    assert_eq!(
        a.diagnoses().len(),
        b.diagnoses().len(),
        "{what}: diagnosis count diverged"
    );
}
