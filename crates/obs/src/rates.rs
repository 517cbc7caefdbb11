//! Shared snapshot/rate derivations used by every per-run stats view
//! (`IngestStats`, …), so the wall-clock clamp and the rate formulas
//! live in exactly one place.

/// Clamps a run's wall duration for rate derivation: a run that did
/// work but finished inside one clock tick (coarse clock, or a virtual
/// clock nobody advanced) would report `wall_ns == 0` and a throughput
/// of 0 — nonsense for a run that merged traces. Clamp to 1ns so rates
/// stay finite.
pub fn clamp_wall_ns(wall_ns: u64, did_work: bool) -> u64 {
    if wall_ns == 0 && did_work {
        1
    } else {
        wall_ns
    }
}

/// `count` events over `wall_ns` nanoseconds, as a per-second rate
/// (0.0 when the duration is zero).
pub fn per_sec(count: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        count as f64 * 1e9 / wall_ns as f64
    }
}

/// `hits / (hits + misses)` in `[0, 1]` (0.0 when nothing was looked
/// up).
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Integer mean `total / count` (0 when empty).
pub fn mean(total: u64, count: u64) -> u64 {
    total.checked_div(count).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_only_bites_on_busy_zero_duration_runs() {
        assert_eq!(clamp_wall_ns(0, true), 1);
        assert_eq!(clamp_wall_ns(0, false), 0);
        assert_eq!(clamp_wall_ns(42, true), 42);
    }

    #[test]
    fn rates_are_finite_and_exact() {
        assert_eq!(per_sec(10, 0), 0.0);
        assert_eq!(per_sec(10, 1_000_000_000), 10.0);
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(mean(10, 4), 2);
        assert_eq!(mean(10, 0), 0);
    }
}
