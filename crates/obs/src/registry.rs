//! The metrics registry: named atomic counters, gauges, and fixed-bucket
//! histograms, snapshotable into a stable, sorted [`MetricsReport`].
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are interned once by
//! path and then updated lock-free — the hot path is a single relaxed
//! atomic RMW, the same cost as the hand-rolled per-crate stat structs
//! the registry replaces. Paths are dotted component names
//! (`ingest.frames_merged`, `shard.0.reroutes`,
//! `transport.retransmits`); a snapshot walks them in sorted order so
//! two reports over the same final counts are identical regardless of
//! update interleaving.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets. Bucket `i` counts values
/// `v` with `bucket_index(v) == i`, i.e. `v == 0` lands in bucket 0 and
/// otherwise bucket `i` holds `[2^(i-1), 2^i)`; the last bucket absorbs
/// everything larger. 48 buckets cover u64 nanosecond values up to ~3.2
/// days.
pub const HISTOGRAM_BUCKETS: usize = 48;

fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// A monotonically increasing counter handle (cheap to clone).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water gauge handle (cheap to clone).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (high-water semantics).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket (power-of-two) histogram handle (cheap to clone).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram's distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket counts (length [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The registry: interns metric paths and hands out shareable handles.
/// Cloning shares the underlying store.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered at `path` (created on first use). Callers
    /// cache the handle; updates through it never touch the registry
    /// again.
    pub fn counter(&self, path: &str) -> Counter {
        let mut m = self.inner.counters.lock().expect("counters");
        match m.get(path) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                m.insert(path.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge registered at `path` (created on first use).
    pub fn gauge(&self, path: &str) -> Gauge {
        let mut m = self.inner.gauges.lock().expect("gauges");
        match m.get(path) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::default();
                m.insert(path.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram registered at `path` (created on first use).
    pub fn histogram(&self, path: &str) -> Histogram {
        let mut m = self.inner.histograms.lock().expect("histograms");
        match m.get(path) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::default();
                m.insert(path.to_string(), h.clone());
                h
            }
        }
    }

    /// A stable snapshot of every registered metric, sorted by path.
    /// Two snapshots taken over the same final counts are equal no
    /// matter how the updates interleaved.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            counters: self
                .inner
                .counters
                .lock()
                .expect("counters")
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("gauges")
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("histograms")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A stable, path-sorted snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// `(path, value)` for every counter, sorted by path.
    pub counters: Vec<(String, u64)>,
    /// `(path, value)` for every gauge, sorted by path.
    pub gauges: Vec<(String, u64)>,
    /// `(path, snapshot)` for every histogram, sorted by path.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsReport {
    /// The counter value at `path`, if registered.
    pub fn counter(&self, path: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(path))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The gauge value at `path`, if registered.
    pub fn gauge(&self, path: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(path))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// The histogram snapshot at `path`, if registered.
    pub fn histogram(&self, path: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(path))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Serializes the report as a JSON object (hand-rolled; the build is
    /// offline and has no JSON dependency). Histogram bucket vectors are
    /// trimmed of trailing zero buckets to keep the output readable.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    ");
            crate::escape_json(k, &mut out);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    ");
            crate::escape_json(k, &mut out);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    ");
            crate::escape_json(k, &mut out);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"buckets\": [",
                h.count,
                h.sum,
                h.mean()
            );
            let last = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            for (j, b) in h.buckets[..last].iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_interned_by_path() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.y");
        let b = reg.counter("x.y");
        a.add(2);
        b.incr();
        assert_eq!(reg.counter("x.y").get(), 3);
        assert_eq!(reg.snapshot().counter("x.y"), Some(3));
        assert_eq!(reg.snapshot().counter("missing"), None);
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("q.high_water");
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1010);
        assert_eq!(snap.mean(), 168);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 2);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b").incr();
        reg.counter("a").add(2);
        reg.gauge("z").set(9);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
        assert_eq!(snap, reg.snapshot());
    }

    #[test]
    fn json_is_well_formed_ish() {
        let reg = MetricsRegistry::new();
        reg.counter("ingest.frames_merged").add(7);
        reg.histogram("lat").record(5);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"ingest.frames_merged\": 7"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }
}
