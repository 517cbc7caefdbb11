//! Injectable time source for every telemetry timestamp and gauge.
//!
//! Every stat the pipelines report (`wall_ns`, `worker_busy_ns`,
//! `frame_latency_ns`) and every flight-recorder event timestamp used to
//! read `std::time::Instant` directly, which makes them meaningless
//! under a virtual-time scheduler: the whole run completes in
//! microseconds of wall time while simulating hours. A [`Clock`]
//! decouples "what time is it" from the OS so a simulator can drive
//! telemetry with virtual time ([`ManualClock`], or the `softborg-netsim`
//! scheduler's clock handle) while production keeps the monotonic
//! default.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond counter. Implementations must be cheap to
/// query (the pipeline reads it on every frame) and monotonic over one
/// run; the absolute origin is arbitrary — only differences are used.
pub trait Clock: Debug + Send + Sync {
    /// Nanoseconds since this clock's (arbitrary) origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: wall time anchored at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-driven clock for tests and simulators: time moves only when
/// [`set`](ManualClock::set) or [`advance`](ManualClock::advance) is
/// called. Safe to share across the pipeline's threads.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `ns`.
    pub fn new(ns: u64) -> Self {
        ManualClock {
            ns: AtomicU64::new(ns),
        }
    }

    /// Jumps the clock to `ns` (never backwards — monotonicity is the
    /// caller's contract; `set` to an earlier value is clamped).
    pub fn set(&self, ns: u64) {
        self.ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Moves the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_hand_driven() {
        let c = ManualClock::new(10);
        assert_eq!(c.now_ns(), 10);
        c.advance(5);
        assert_eq!(c.now_ns(), 15);
        c.set(100);
        assert_eq!(c.now_ns(), 100);
        c.set(50); // backwards set is clamped
        assert_eq!(c.now_ns(), 100);
    }
}
