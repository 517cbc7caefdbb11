//! The contract of the process-wide thread pool (`softborg_ingest::pool`).
//!
//! The pool is shared by the whole process, so these tests live in a
//! binary of their own and take `SERIAL` one at a time: each sees the
//! pool alone. No test here runs more than 5 jobs at once, which is
//! what bounds the pool's size over the whole binary.

use softborg_ingest::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits at its barrier when dropped: a panicking job or closure
/// holding one lets its siblings go on only once it is unwinding.
struct ReleaseOnUnwind<'a>(&'a Barrier);

impl Drop for ReleaseOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string panic".to_string())
}

#[test]
fn jobs_write_through_borrows_and_every_write_is_visible_on_return() {
    let _serial = serial();
    let base = vec![10u64, 20, 30, 40, 50];
    let mut out = [0u64; 5];
    let sum = AtomicUsize::new(0);
    pool::scope(|s| {
        for (slot, b) in out.iter_mut().zip(&base) {
            let sum = &sum;
            s.spawn(move || {
                *slot = b + 1;
                sum.fetch_add(*b as usize, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(out, [11, 21, 31, 41, 51]);
    assert_eq!(sum.load(Ordering::SeqCst), 150);
}

#[test]
fn a_job_panic_propagates_its_own_message_after_its_siblings_finished() {
    let _serial = serial();
    for _ in 0..5 {
        let finished = AtomicUsize::new(0);
        let released = Barrier::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool::scope(|s| {
                s.spawn(|| {
                    let _release = ReleaseOnUnwind(&released);
                    panic!("job 0 died")
                });
                for _ in 0..3 {
                    s.spawn(|| {
                        released.wait();
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        }));
        assert_eq!(message(result.unwrap_err()), "job 0 died");
        assert_eq!(finished.load(Ordering::SeqCst), 3, "siblings still running");
    }
}

#[test]
fn a_panicking_scope_closure_waits_for_its_jobs() {
    let _serial = serial();
    let finished = AtomicUsize::new(0);
    let released = Barrier::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool::scope(|s| {
            s.spawn(|| {
                released.wait();
                finished.fetch_add(1, Ordering::SeqCst);
            });
            let _release = ReleaseOnUnwind(&released);
            panic!("the closure died")
        })
    }));
    assert_eq!(message(result.unwrap_err()), "the closure died");
    assert_eq!(finished.load(Ordering::SeqCst), 1);
}

#[test]
fn a_job_that_opens_a_nested_scope_does_not_deadlock() {
    let _serial = serial();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut leaves = [0u32; 3];
        pool::scope(|s| {
            let (a, rest) = leaves.split_first_mut().expect("three leaves");
            s.spawn(move || {
                pool::scope(|s| {
                    s.spawn(move || *a = 1);
                    s.spawn(move || {
                        let (b, c) = rest.split_at_mut(1);
                        pool::scope(|s| s.spawn(move || b[0] = 2));
                        c[0] = 3;
                    });
                });
            });
        });
        let _ = tx.send(leaves);
    });
    let leaves = (rx.recv_timeout(Duration::from_secs(60))).expect("nested scopes deadlocked");
    assert_eq!(leaves, [1, 2, 3]);
}

#[test]
fn after_1000_scopes_of_at_most_5_jobs_the_pool_holds_at_most_5_threads() {
    let _serial = serial();
    let done = AtomicUsize::new(0);
    for i in 0..1000 {
        pool::scope(|s| {
            for _ in 0..=i % 5 {
                s.spawn(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    }
    assert_eq!(done.load(Ordering::SeqCst), 3000);
    let threads = pool::threads();
    assert!(
        (1..=5).contains(&threads),
        "the pool holds {threads} threads"
    );
}
