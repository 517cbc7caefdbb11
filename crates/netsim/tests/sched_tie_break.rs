//! The scheduler's tie-break hardening (satellite): dispatch order and
//! `sched_trace_hash` must be a pure function of the scheduled
//! `(time, key)` set — two runs inserting the *same* events in
//! *different* orders (including many events at identical virtual
//! times) dispatch identically and hash identically.

use proptest::prelude::*;
use softborg_netsim::{Scheduler, SimTime};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates driven by splitmix64.
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = splitmix64(state);
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

/// Inserts `events` in the given order, runs to empty, and returns the
/// full dispatch sequence plus the trace hash.
fn dispatch_all(events: &[(u64, u64, u32)]) -> (Vec<(u64, u64, u32)>, u64) {
    let mut s: Scheduler<u32> = Scheduler::new(u64::MAX);
    for &(at, key, payload) in events {
        s.schedule(SimTime(at), key, payload);
    }
    let mut order = Vec::new();
    while let Some((at, key, payload)) = s.pop() {
        order.push((at.0, key, payload));
    }
    (order, s.stats().trace_hash)
}

proptest! {
    /// Identical event sets inserted in different orders — with heavy
    /// same-instant collisions (times drawn from a tiny range) — produce
    /// identical dispatch order and identical trace hash.
    #[test]
    fn insertion_order_never_changes_dispatch_order(
        times in proptest::collection::vec(0u64..8, 2..64),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // Unique keys per event (the scheduler's caller contract); times
        // collide constantly, so the tie-break is doing all the work.
        let events: Vec<(u64, u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64, i as u32))
            .collect();
        let permuted = shuffled(&events, shuffle_seed);
        let (order_a, hash_a) = dispatch_all(&events);
        let (order_b, hash_b) = dispatch_all(&permuted);
        prop_assert_eq!(&order_a, &order_b, "dispatch order depends on insertion order");
        prop_assert_eq!(hash_a, hash_b, "trace hash depends on insertion order");
        // And the order actually is (time, key)-sorted.
        let mut sorted = order_a.clone();
        sorted.sort_by_key(|&(t, k, _)| (t, k));
        prop_assert_eq!(order_a, sorted);
    }

    /// The trace hash separates runs that genuinely differ: perturbing
    /// one event's time or key changes the hash.
    #[test]
    fn trace_hash_detects_divergent_schedules(
        times in proptest::collection::vec(0u64..1_000, 2..32),
        victim in 0usize..32,
    ) {
        let events: Vec<(u64, u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64, i as u32))
            .collect();
        let victim = victim % events.len();
        let mut perturbed = events.clone();
        perturbed[victim].0 += 1_000_000; // move far outside the time range
        let (_, hash_a) = dispatch_all(&events);
        let (_, hash_b) = dispatch_all(&perturbed);
        prop_assert_ne!(hash_a, hash_b, "a moved event must change the trace hash");
    }
}
