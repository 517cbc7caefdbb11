//! `softborg-obs` — the unified observability layer: a metrics registry
//! of cheap atomic counters/gauges/histograms, a flight recorder of
//! structured events, span timers for the hot stages, and a divergence
//! explainer for simulator runs.
//!
//! The layer is **deterministic under the simulator** by construction:
//!
//! * Timestamps come from the injectable [`Clock`] abstraction — wall
//!   time on real threads, virtual time under the `softborg-netsim`
//!   scheduler's clock — so telemetry from a simulated fleet day is in
//!   fleet time, not host time.
//! * Every flight-recorder [`Event`] carries a monotonic per-source
//!   sequence number, and [`FlightRecorder::events_hash`] folds only the
//!   *stable* fields (source, sequence, severity, kind, payload) in
//!   sorted source order — never timestamps, never thread interleaving.
//!   Two runs with the same semantics hash identically even when one is
//!   threaded and one is simulated; a simulated run replays to the same
//!   hash always.
//! * Telemetry is passive: recording never branches the code under
//!   observation, draws randomness, or writes to journals, so
//!   telemetry-on and telemetry-off runs are byte-identical in hive and
//!   platform state.
//!
//! When two simulator runs diverge (`sched_trace_hash` or state bytes
//! differ), [`explain::explain`] diffs their flight-recorder streams and
//! reports the first divergent event — source, virtual instant, payload
//! — instead of a bare hash mismatch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod explain;
pub mod rates;
pub mod recorder;
pub mod registry;
pub mod span;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use explain::{explain, explain_recorders, Divergence, DivergenceKind};
pub use recorder::{Event, EventSink, FlightRecorder, Severity};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsReport, HISTOGRAM_BUCKETS,
};
pub use span::SpanTimer;

use std::sync::{Mutex, OnceLock};

/// FNV-1a offset basis. `fnv1a_step(FNV_OFFSET, data)` is the one hash
/// behind every stored checksum (wire frames, journal and chain records,
/// pod images), shard placement, and the simulator's `sched_trace_hash`.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash.
pub fn fnv1a_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Appends `s` to `out` as a double-quoted JSON string (the build is
/// offline and has no JSON dependency, so serialization is hand-rolled
/// here once for metrics reports and JSONL event export).
pub fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A bundle of telemetry sinks a subsystem threads through its config:
/// an optional shared [`MetricsRegistry`] (when absent the subsystem
/// keeps a private one, and skips the optional histogram spans) and a
/// [`FlightRecorder`] handle (disabled by default, so the zero-config
/// path records nothing).
#[derive(Debug, Clone, Default)]
pub struct ObsHandles {
    /// Registry to publish counters/gauges/histograms into. `None`
    /// means "metrics stay private to the run" — counters still back
    /// the per-run stats structs, but no histograms are recorded.
    pub registry: Option<MetricsRegistry>,
    /// Flight recorder for structured events. Disabled by default.
    pub recorder: FlightRecorder,
}

impl ObsHandles {
    /// Handles that publish into `registry` and record into `recorder`.
    pub fn new(registry: MetricsRegistry, recorder: FlightRecorder) -> Self {
        ObsHandles {
            registry: Some(registry),
            recorder,
        }
    }

    /// `true` when either sink is live (used to gate span timers).
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some() || self.recorder.is_enabled()
    }

    /// The clock spans and derived timings should be measured against:
    /// the recorder's clock when one is attached (virtual time under the
    /// simulator), otherwise a fresh wall-clock anchor.
    pub fn span_clock(&self) -> std::sync::Arc<dyn Clock> {
        self.recorder
            .clock()
            .unwrap_or_else(|| std::sync::Arc::new(MonotonicClock::new()))
    }
}

static OPS: OnceLock<Mutex<FlightRecorder>> = OnceLock::new();

fn ops_cell() -> &'static Mutex<FlightRecorder> {
    OPS.get_or_init(|| {
        // The default operational recorder replaces the ad-hoc
        // `eprintln!` warnings that used to live in the recovery paths:
        // events are retained in a small ring for inspection AND echoed
        // to stderr at Warn severity and above, so operator visibility
        // is unchanged until someone installs a capture recorder.
        Mutex::new(
            FlightRecorder::new(std::sync::Arc::new(MonotonicClock::new()), 256)
                .with_stderr_echo(true),
        )
    })
}

/// The process-wide operational flight recorder. Library code records
/// recovery/operational warnings here (journal tail drops, truncated
/// resumes, …) instead of writing to stderr directly; by default Warn+
/// events are still echoed to stderr.
pub fn ops() -> FlightRecorder {
    ops_cell().lock().expect("ops recorder").clone()
}

/// Replaces the process-wide operational recorder (e.g. with a silent
/// capture recorder in tests, or a virtual-time recorder under the
/// simulator). Returns the previous one.
pub fn set_ops(recorder: FlightRecorder) -> FlightRecorder {
    std::mem::replace(&mut *ops_cell().lock().expect("ops recorder"), recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of "a" from the reference implementation.
        assert_eq!(fnv1a_step(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv1a_is_pinned_across_releases() {
        // Computed by hand: every checksum on disk and every shard
        // placement depends on this function, so a change here
        // invalidates every stored byte.
        assert_eq!(fnv1a_step(FNV_OFFSET, b"softborg"), 0x11b2_1a8e_1477_0a49);
    }

    #[test]
    fn ops_recorder_is_swappable() {
        let capture = FlightRecorder::new(std::sync::Arc::new(ManualClock::new(7)), 16);
        let prev = set_ops(capture.clone());
        ops().warn("test.ops", "swapped", &[("x", 1)], "swapped in");
        assert_eq!(capture.events().len(), 1);
        assert_eq!(capture.events()[0].at_ns, 7);
        set_ops(prev);
    }
}
