//! After warm-up a campaign round creates no OS thread: the ingest
//! engine's pooled participants (which run the pods) and its fix trials
//! all run on the process-wide pool of parked threads
//! (`softborg_ingest::pool`).
//!
//! A monitor samples `Threads:` in `/proc/self/status` while the rounds
//! run, so a thread that lives for part of a round counts too. This is
//! the binary's only test, because that line counts every thread of the
//! process, the test harness's own included.

#![cfg(target_os = "linux")]

use softborg::{FleetSpec, MultiPlatform, MultiPlatformConfig, Platform, PlatformConfig};
use softborg_ingest::pool;
use softborg_pod::PodConfig;
use softborg_program::scenarios;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The process's OS threads, as the kernel counts them.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = (status.lines())
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// The most threads the process had at once while `f` ran, and before.
fn peak_threads_during(f: impl FnOnce()) -> (usize, usize) {
    let stop = &AtomicBool::new(false);
    std::thread::scope(|s| {
        let (started_tx, started) = std::sync::mpsc::channel();
        let monitor = s.spawn(move || {
            let _ = started_tx.send(());
            let mut peak = 0;
            while !stop.load(Ordering::SeqCst) {
                peak = peak.max(os_threads());
                std::thread::sleep(Duration::from_micros(50));
            }
            peak
        });
        started.recv().expect("the monitor started");
        let before = os_threads();
        f();
        stop.store(true, Ordering::SeqCst);
        (before, monitor.join().expect("the monitor finished"))
    })
}

#[test]
fn rounds_after_warm_up_create_no_thread() {
    let s = scenarios::token_parser();
    let config = PlatformConfig {
        n_pods: 8,
        seed: 3,
        ..PlatformConfig::default()
    };
    let mut platform = Platform::new(&s.program, config);
    platform.run(3, 10);
    let pooled = pool::threads();
    let (before, peak) = peak_threads_during(|| {
        platform.run(100, 10);
    });
    assert_eq!(peak, before, "Platform rounds started threads");
    assert_eq!(pool::threads(), pooled);

    let scs = [
        scenarios::token_parser(),
        scenarios::record_processor(),
        scenarios::bank_transfer(),
    ];
    let specs: Vec<FleetSpec<'_>> = (scs.iter())
        .map(|s| FleetSpec {
            program: &s.program,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
        })
        .collect();
    let config = MultiPlatformConfig {
        n_pods: 4,
        n_shards: 2,
        seed: 3,
        ..MultiPlatformConfig::default()
    };
    let mut multi = MultiPlatform::new(&specs, config);
    for _ in 0..3 {
        multi.round(10);
    }
    let pooled = pool::threads();
    let (before, peak) = peak_threads_during(|| {
        for _ in 0..100 {
            multi.round(10);
        }
    });
    assert_eq!(peak, before, "MultiPlatform rounds started threads");
    assert_eq!(pool::threads(), pooled);
}
