//! The deterministic event scheduler: a heap of `(virtual_time, key)`
//! events, a fuel bound, and a running hash of the dispatch sequence.
//!
//! Determinism rests on one contract: **dispatch order is a pure
//! function of the scheduled `(time, key)` pairs**, independent of the
//! order events were inserted. The heap orders by `(time, key)`; callers
//! must supply keys that are unique per virtual instant (the
//! [`World`](crate::World) uses a global monotonic counter, so
//! same-instant events dispatch in insertion order). Two
//! runs that schedule the same `(time, key, event)` set — in any order —
//! dispatch identically and produce the same [`SchedStats::trace_hash`].
//!
//! Fuel bounds runaway simulations deterministically: every dispatch
//! burns one unit, and an exhausted scheduler refuses to pop — the cut
//! happens at an exact event index, so a fuel-capped run is replayable
//! too.

use crate::SimTime;
use softborg_obs::{fnv1a_step, Clock, FNV_OFFSET};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters and the schedule-trace hash for one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Events dispatched (== fuel burned).
    pub events_dispatched: u64,
    /// Deepest the event heap ever got.
    pub peak_heap_depth: usize,
    /// Fuel remaining when the run ended.
    pub fuel_remaining: u64,
    /// `true` when the run stopped on fuel exhaustion rather than an
    /// empty heap.
    pub fuel_exhausted: bool,
    /// FNV-1a over the dispatch sequence's `(time, key)` pairs (16
    /// little-endian bytes per event). Two runs replayed identically iff
    /// their hashes match (modulo hash collisions); the replay harnesses
    /// additionally compare final state.
    pub trace_hash: u64,
    /// Virtual time when the run ended (µs).
    pub virtual_end_us: u64,
}

/// A shareable read handle on a scheduler's virtual clock. Implements
/// [`softborg_obs::Clock`], so pipelines running under the simulator
/// report *virtual* latency/throughput gauges instead of the
/// microseconds of wall time the whole simulation actually takes.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_us: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time in microseconds.
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed)
    }

    pub(crate) fn set_us(&self, us: u64) {
        self.now_us.store(us, Ordering::Relaxed);
    }
}

impl Clock for SimClock {
    fn now_ns(&self) -> u64 {
        self.now_us().saturating_mul(1_000)
    }
}

/// The deterministic event heap. See the [module docs](self).
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    fuel: u64,
    fuel_used: u64,
    exhausted: bool,
    trace_hash: u64,
    dispatched: u64,
    peak: usize,
    clock: SimClock,
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("dispatched", &self.dispatched)
            .field("fuel_used", &self.fuel_used)
            .finish()
    }
}

impl<E> Scheduler<E> {
    /// A scheduler with `fuel` dispatch budget.
    pub fn new(fuel: u64) -> Self {
        Scheduler {
            now: SimTime(0),
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            fuel,
            fuel_used: 0,
            exhausted: false,
            trace_hash: FNV_OFFSET,
            dispatched: 0,
            peak: 0,
            clock: SimClock::new(),
        }
    }

    /// Current virtual time (the timestamp of the last dispatched
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A clock handle tracking this scheduler's virtual time.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Adopts an externally created clock handle: it snaps to the
    /// current virtual time and subsequent dispatches update it. Lets a
    /// caller wire a [`SimClock`] into configuration (e.g. an
    /// `IngestConfig`) before the scheduler that drives it exists.
    pub fn drive_clock(&mut self, clock: SimClock) {
        clock.set_us(self.now.0);
        self.clock = clock;
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` when a pop was refused because the fuel budget ran out.
    pub fn fuel_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Schedules `event` at `(at, key)`.
    ///
    /// `key` is the tie-break among same-instant events and MUST be
    /// unique per instant (a global monotonic counter satisfies this
    /// globally). Scheduling in the past is a caller bug.
    ///
    /// # Panics
    ///
    /// Panics when `at` is before [`now`](Self::now).
    pub fn schedule(&mut self, at: SimTime, key: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: {at} < {}",
            self.now
        );
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(event);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(event));
                i
            }
        };
        self.heap.push(Reverse((at, key, idx)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Dispatches the next event: advances virtual time, burns one unit
    /// of fuel, and folds `(time, key)` into the trace hash. Returns
    /// `None` when the heap is empty or the fuel budget is spent (check
    /// [`fuel_exhausted`](Self::fuel_exhausted) to tell them apart).
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.fuel_used >= self.fuel {
            if !self.heap.is_empty() {
                self.exhausted = true;
            }
            return None;
        }
        let Reverse((at, key, idx)) = self.heap.pop()?;
        self.now = at;
        self.clock.set_us(at.0);
        self.fuel_used += 1;
        self.dispatched += 1;
        self.trace_hash = fnv1a_step(self.trace_hash, &at.0.to_le_bytes());
        self.trace_hash = fnv1a_step(self.trace_hash, &key.to_le_bytes());
        let event = self.slots[idx as usize]
            .take()
            .expect("event consumed once");
        self.free.push(idx);
        Some((at, key, event))
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            events_dispatched: self.dispatched,
            peak_heap_depth: self.peak,
            fuel_remaining: self.fuel - self.fuel_used,
            fuel_exhausted: self.exhausted,
            trace_hash: self.trace_hash,
            virtual_end_us: self.now.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_time_then_key_ordered() {
        let mut s: Scheduler<&str> = Scheduler::new(u64::MAX);
        s.schedule(SimTime(20), 0, "c");
        s.schedule(SimTime(10), 5, "b");
        s.schedule(SimTime(10), 1, "a");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(s.now(), SimTime(20));
        assert!(!s.fuel_exhausted());
    }

    #[test]
    fn fuel_cuts_at_an_exact_event() {
        let mut s: Scheduler<u32> = Scheduler::new(2);
        for i in 0..5 {
            s.schedule(SimTime(i), i, i as u32);
        }
        assert_eq!(s.pop().map(|(_, _, e)| e), Some(0));
        assert_eq!(s.pop().map(|(_, _, e)| e), Some(1));
        assert_eq!(s.pop(), None);
        assert!(s.fuel_exhausted());
        assert_eq!(s.stats().events_dispatched, 2);
        assert_eq!(s.stats().fuel_remaining, 0);
    }

    #[test]
    fn trace_hash_ignores_insertion_order() {
        let run = |perm: &[usize]| {
            let evs = [(SimTime(5), 1u64), (SimTime(5), 2), (SimTime(9), 0)];
            let mut s: Scheduler<()> = Scheduler::new(u64::MAX);
            for &i in perm {
                let (at, key) = evs[i];
                s.schedule(at, key, ());
            }
            while s.pop().is_some() {}
            s.stats().trace_hash
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 1, 0]));
        assert_eq!(run(&[1, 0, 2]), run(&[2, 0, 1]));
    }

    #[test]
    fn clock_tracks_virtual_time_in_ns() {
        let mut s: Scheduler<()> = Scheduler::new(u64::MAX);
        let clock = s.clock();
        s.schedule(SimTime(1_500), 0, ());
        assert_eq!(clock.now_ns(), 0);
        s.pop();
        assert_eq!(clock.now_ns(), 1_500_000);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new(u64::MAX);
        s.schedule(SimTime(10), 0, ());
        s.pop();
        s.schedule(SimTime(5), 1, ());
    }
}
