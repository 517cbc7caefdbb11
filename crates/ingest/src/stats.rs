//! Engine observability: registry-backed counters updated by every
//! participant, snapshotted into an [`IngestStats`] when a run completes.
//!
//! The pool-wide counters live in a `softborg-obs` [`MetricsRegistry`]
//! under `ingest.*` paths. When the caller attaches a shared registry
//! ([`IngestConfig::obs`](crate::IngestConfig)), the same handles feed
//! fleet-wide metrics *and* the per-run [`IngestStats`] view (the
//! snapshot subtracts a baseline captured at run start, so per-run
//! stats stay per-run even when the registry accumulates across
//! rounds); without one, the run keeps a private registry and the cost
//! is identical — one relaxed atomic add per update. The per-shard
//! breakdown and the typed-error samples are per-run only.

use crate::map::ShardError;
use softborg_obs::{rates, Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Mutex;

/// How many router-error samples a run retains (counters are exact;
/// samples are capped so a firehose of bad frames can't balloon memory).
pub const ERROR_SAMPLE_CAP: usize = 8;

/// The pool-wide counters, in [`StatsCore::counters`] order.
const COUNTERS: [&str; 11] = [
    "ingest.frames_submitted",
    "ingest.frames_corrupt",
    "ingest.frames_rerouted",
    "ingest.frames_unknown_program",
    "ingest.frames_merged",
    "ingest.traces_merged",
    "ingest.cache_hits",
    "ingest.cache_misses",
    "ingest.cache_evictions",
    "ingest.worker_busy_ns",
    "ingest.frame_latency_ns",
];

/// One shard's counters, updated as its sink merges.
#[derive(Debug, Default)]
pub(crate) struct ShardCore {
    pub frames_merged: Counter,
    pub traces_merged: Counter,
    pub frames_corrupt: Counter,
}

/// Shared counters the participants update concurrently, interned in a
/// metrics registry under `ingest.*`.
#[derive(Debug)]
pub(crate) struct StatsCore {
    pub frames_submitted: Counter,
    pub frames_corrupt: Counter,
    pub frames_rerouted: Counter,
    pub frames_unknown_program: Counter,
    pub frames_merged: Counter,
    pub traces_merged: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_evictions: Counter,
    /// Total participant time spent classifying, decoding and
    /// reconstructing frames, in ns.
    pub worker_busy_ns: Counter,
    /// Total prepared→merged latency over merged frames, in ns.
    pub frame_latency_ns: Counter,
    /// Per-frame decode+reconstruct stage histogram (attached registry
    /// only — `None` is the telemetry-off fast path).
    pub stage_work_ns: Option<Histogram>,
    /// Per-frame prepared→merged latency histogram (attached registry
    /// only).
    pub stage_merge_wait_ns: Option<Histogram>,
    pub per_shard: Vec<ShardCore>,
    errors: Mutex<Vec<ShardError>>,
    wall_ns: Gauge,
    workers: Gauge,
    /// Counter values at run start, subtracted at snapshot time.
    base: [u64; 11],
}

impl StatsCore {
    /// Handles into `registry`, or a private registry when `None`.
    /// Histogram spans are only recorded into an attached registry.
    pub(crate) fn new(registry: Option<&MetricsRegistry>, n_shards: usize) -> Self {
        let attached = registry.is_some();
        let private;
        let reg = match registry {
            Some(r) => r,
            None => {
                private = MetricsRegistry::new();
                &private
            }
        };
        let [frames_submitted, frames_corrupt, frames_rerouted, frames_unknown_program, frames_merged, traces_merged, cache_hits, cache_misses, cache_evictions, worker_busy_ns, frame_latency_ns] =
            COUNTERS.map(|path| reg.counter(path));
        let mut core = StatsCore {
            frames_submitted,
            frames_corrupt,
            frames_rerouted,
            frames_unknown_program,
            frames_merged,
            traces_merged,
            cache_hits,
            cache_misses,
            cache_evictions,
            worker_busy_ns,
            frame_latency_ns,
            stage_work_ns: attached.then(|| reg.histogram("ingest.stage.work_ns")),
            stage_merge_wait_ns: attached.then(|| reg.histogram("ingest.stage.merge_wait_ns")),
            per_shard: (0..n_shards).map(|_| ShardCore::default()).collect(),
            errors: Mutex::new(Vec::new()),
            wall_ns: reg.gauge("ingest.wall_ns"),
            workers: reg.gauge("ingest.workers"),
            base: [0; 11],
        };
        core.base = core.counters().map(Counter::get);
        core
    }

    fn counters(&self) -> [&Counter; 11] {
        [
            &self.frames_submitted,
            &self.frames_corrupt,
            &self.frames_rerouted,
            &self.frames_unknown_program,
            &self.frames_merged,
            &self.traces_merged,
            &self.cache_hits,
            &self.cache_misses,
            &self.cache_evictions,
            &self.worker_busy_ns,
            &self.frame_latency_ns,
        ]
    }

    /// Records a router error: exact count via the caller's counter,
    /// plus a capped sample for diagnostics.
    pub(crate) fn sample_error(&self, err: ShardError) {
        let mut errors = self.errors.lock().expect("error samples");
        if errors.len() < ERROR_SAMPLE_CAP {
            errors.push(err);
        }
    }

    /// The run's stats. Per-shard `programs` is the caller's to fill in.
    pub(crate) fn snapshot(&self, workers: usize, wall_ns: u64) -> IngestStats {
        self.wall_ns.set(wall_ns);
        self.workers.set(workers as u64);
        let now = self.counters().map(Counter::get);
        let [frames_submitted, frames_corrupt, frames_rerouted, frames_unknown_program, frames_merged, traces_merged, cache_hits, cache_misses, cache_evictions, worker_busy_ns, frame_latency_ns] =
            std::array::from_fn(|i| now[i] - self.base[i]);
        IngestStats {
            frames_submitted,
            frames_dropped: 0,
            frames_corrupt,
            frames_rerouted,
            frames_unknown_program,
            frames_merged,
            traces_merged,
            cache_hits,
            cache_misses,
            cache_evictions,
            worker_busy_ns,
            frame_latency_ns,
            queue_high_water: 0,
            // A run that submitted frames inside one clock tick must not
            // report zero elapsed time.
            wall_ns: rates::clamp_wall_ns(wall_ns, frames_submitted > 0),
            workers,
            per_shard: (self.per_shard.iter().enumerate())
                .map(|(shard, s)| ShardStats {
                    shard,
                    programs: 0,
                    frames_merged: s.frames_merged.get(),
                    traces_merged: s.traces_merged.get(),
                    frames_corrupt: s.frames_corrupt.get(),
                })
                .collect(),
            error_samples: self.errors.lock().expect("error samples").clone(),
        }
    }
}

/// One shard's share of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Programs placed on this shard.
    pub programs: usize,
    /// Frames whose slot merged into this shard's sink (healthy, corrupt,
    /// unknown and misclaimed frames all count — they all advance the
    /// shard's per-program sequence).
    pub frames_merged: u64,
    /// Traces applied to this shard's sinks.
    pub traces_merged: u64,
    /// Corrupt frames charged to this shard (by claimed program).
    pub frames_corrupt: u64,
}

/// Counters and gauges for one engine run — the per-run derived view
/// over the `ingest.*` registry metrics, plus the per-shard breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames a unit yielded.
    pub frames_submitted: u64,
    /// Always 0: a run's frames are in hand and none is ever shed.
    pub frames_dropped: u64,
    /// Frames rejected by wire validation (bad magic, truncation,
    /// checksum mismatch, …) or carrying payloads from more than one
    /// program. Counted and skipped — never a panic.
    pub frames_corrupt: u64,
    /// Misclaimed frames, refused: healthy, but their content program
    /// differs from the claimed one. Counted, slot consumed — never a
    /// panic, never merged.
    pub frames_rerouted: u64,
    /// Healthy frames whose content program the run does not serve:
    /// typed error, counted, slot consumed — never a panic, never merged.
    pub frames_unknown_program: u64,
    /// Frames whose slot merged (corrupt, unknown and misclaimed
    /// included: their slot is consumed to preserve ordering).
    pub frames_merged: u64,
    /// Traces delivered to the sinks, over all shards.
    pub traces_merged: u64,
    /// Traces neither decoded nor reconstructed: their payload was in
    /// the memo cache, or repeats one earlier in the same frame (a frame
    /// carries each distinct payload once). Over healthy frames,
    /// `cache_hits + cache_misses == traces_merged`.
    pub cache_hits: u64,
    /// Traces whose payload a participant decoded and reconstructed:
    /// one per distinct payload of a frame that the memo missed.
    pub cache_misses: u64,
    /// Memo entries rotated out by the second-chance sweep, each counted
    /// once, by the insert that made room.
    pub cache_evictions: u64,
    /// Total participant time spent classifying, decoding and
    /// reconstructing frames, in ns (a unit's own work, such as running
    /// a pod, is not counted).
    pub worker_busy_ns: u64,
    /// Total prepared→merged latency across merged frames, in ns: how
    /// long a prepared frame waited for its unit's turn to merge.
    pub frame_latency_ns: u64,
    /// Always 0: there is no queue; a run's frames are in hand.
    pub queue_high_water: usize,
    /// Wall-clock duration of the whole run, in ns.
    pub wall_ns: u64,
    /// Participants the run was configured with (`IngestConfig::workers`).
    pub workers: usize,
    /// Per-shard breakdown, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Up to [`ERROR_SAMPLE_CAP`] typed router errors (counters above
    /// are exact; these are samples).
    pub error_samples: Vec<ShardError>,
}

impl IngestStats {
    /// Mean prepared→merged latency per merged frame, in ns.
    pub fn mean_frame_latency_ns(&self) -> u64 {
        rates::mean(self.frame_latency_ns, self.frames_merged)
    }

    /// Sink throughput in traces per second.
    pub fn throughput_traces_per_sec(&self) -> f64 {
        rates::per_sec(self.traces_merged, self.wall_ns)
    }

    /// Share of traces neither decoded nor reconstructed (memo hits and
    /// in-frame repeats), in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        rates::hit_rate(self.cache_hits, self.cache_misses)
    }

    /// Work imbalance across shards: max per-shard `traces_merged`
    /// divided by the mean (1.0 = perfectly even; 0.0 when nothing
    /// merged). The gauge that tells an operator hash placement has
    /// concentrated hot programs on one shard.
    pub fn imbalance_ratio(&self) -> f64 {
        if self.per_shard.is_empty() || self.traces_merged == 0 {
            return 0.0;
        }
        let max = self
            .per_shard
            .iter()
            .map(|s| s.traces_merged)
            .max()
            .unwrap_or(0) as f64;
        let mean = self.traces_merged as f64 / self.per_shard.len() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::ProgramId;

    #[test]
    fn attached_registry_snapshots_are_per_run_deltas() {
        let reg = MetricsRegistry::new();
        let run1 = StatsCore::new(Some(&reg), 1);
        run1.frames_submitted.add(3);
        run1.traces_merged.add(7);
        assert_eq!(run1.snapshot(1, 10).traces_merged, 7);
        // A second run over the same registry sees only its own counts…
        let run2 = StatsCore::new(Some(&reg), 1);
        run2.frames_submitted.add(1);
        run2.traces_merged.add(2);
        let s2 = run2.snapshot(1, 10);
        assert_eq!(s2.frames_submitted, 1);
        assert_eq!(s2.traces_merged, 2);
        // …while the registry accumulates fleet-wide totals.
        assert_eq!(reg.snapshot().counter("ingest.traces_merged"), Some(9));
    }

    #[test]
    fn private_registry_has_no_histograms() {
        let core = StatsCore::new(None, 1);
        assert!(core.stage_work_ns.is_none());
        let attached = StatsCore::new(Some(&MetricsRegistry::new()), 1);
        assert!(attached.stage_work_ns.is_some());
    }

    #[test]
    fn zero_wall_clamps_only_when_busy() {
        let core = StatsCore::new(None, 1);
        assert_eq!(core.snapshot(1, 0).wall_ns, 0);
        core.frames_submitted.incr();
        assert_eq!(core.snapshot(1, 0).wall_ns, 1);
    }

    #[test]
    fn error_samples_are_capped_but_counting_is_callers() {
        let core = StatsCore::new(None, 1);
        for i in 0..100 {
            core.sample_error(ShardError::UnknownProgram {
                program: ProgramId(i),
            });
        }
        assert_eq!(core.snapshot(1, 0).error_samples.len(), ERROR_SAMPLE_CAP);
    }

    #[test]
    fn imbalance_ratio_reads_skew() {
        let core = StatsCore::new(None, 2);
        core.traces_merged.add(100);
        core.per_shard[0].traces_merged.add(90);
        core.per_shard[1].traces_merged.add(10);
        assert!((core.snapshot(1, 1).imbalance_ratio() - 1.8).abs() < 1e-9);
        assert_eq!(IngestStats::default().imbalance_ratio(), 0.0);
    }
}
