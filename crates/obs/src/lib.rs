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
//!
//! The crate also holds the workspace's two hashes: [`checksum`], a
//! word-at-a-time hash behind every stored or shipped checksum (batch
//! frames, journal, round-log and chain records), and FNV-1a
//! ([`fnv1a_step`]) for digests, identities and placement.

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

use std::sync::OnceLock;

/// FNV-1a offset basis. `fnv1a_step(FNV_OFFSET, data)` is the hash of
/// digests, identities and placement: the execution tree's digest, shard
/// placement, the simulator's `sched_trace_hash` and the flight
/// recorder's events hash. Stored and shipped checksums use [`checksum`].
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

/// The checksum behind every stored or shipped record: wire batch
/// frames, journal, round-log and chain records.
///
/// Two multiply-rotate lanes take alternate little-endian `u64` words;
/// the last partial word is zero-padded, so no byte is read twice, and
/// the length is folded in at the finish, a splitmix64 mix. Every step
/// is a bijection of the lane it feeds, so any change confined to one
/// aligned 8-byte word always changes the checksum, as a one-byte
/// change always changes FNV-1a.
#[inline]
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    #[inline(always)]
    fn lane(acc: u64, word: u64) -> u64 {
        (acc ^ word).wrapping_mul(K).rotate_left(31)
    }
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte word"));
    let (mut a, mut b) = (K, K.rotate_left(32));
    let mut pairs = bytes.chunks_exact(16);
    for pair in &mut pairs {
        a = lane(a, word(&pair[..8]));
        b = lane(b, word(&pair[8..]));
    }
    let mut rest = pairs.remainder();
    if rest.len() >= 8 {
        a = lane(a, word(&rest[..8]));
        rest = &rest[8..];
    }
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        b = lane(b, u64::from_le_bytes(last));
    }
    let mut h = a ^ b.rotate_left(17) ^ (bytes.len() as u64).wrapping_mul(K);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
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

static OPS: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide operational flight recorder. Library code records
/// recovery/operational warnings here (journal tail drops, truncated
/// resumes, …) instead of writing to stderr directly: events are
/// retained in a small ring for inspection and Warn+ events are echoed
/// to stderr.
pub fn ops() -> FlightRecorder {
    OPS.get_or_init(|| {
        FlightRecorder::new(std::sync::Arc::new(MonotonicClock::new()), 256).with_stderr_echo(true)
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of "a" from the reference implementation.
        assert_eq!(fnv1a_step(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// `n` bytes of a fixed pattern.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
            .collect()
    }

    #[test]
    fn checksum_is_pinned_across_releases() {
        // Every stored record and shipped frame carries this function's
        // value, so a change here invalidates every byte on disk. The
        // lengths cover the empty input, a lone partial word, whole
        // words, both lanes, and a tail after whole pairs.
        let pinned: [(usize, u64); 9] = [
            (0, 0xe217_b978_b9ab_a936),
            (1, 0xca40_0c40_1c0d_2ac5),
            (7, 0xf65d_14af_06d1_b8f3),
            (8, 0xd539_93fe_1d98_1120),
            (9, 0xcc8f_e55c_4d7d_ae89),
            (15, 0xd84b_0fb5_70d0_1fb5),
            (16, 0xc359_aec6_c309_7b3c),
            (17, 0x2903_1d1d_2a0f_55a2),
            (4096, 0xd62c_77c7_c91a_9fd6),
        ];
        let got: Vec<(usize, u64)> = pinned
            .iter()
            .map(|&(n, _)| (n, checksum(&pattern(n))))
            .collect();
        assert_eq!(got, pinned, "now: {got:#018x?}");
    }

    #[test]
    fn a_change_inside_one_word_always_changes_the_checksum() {
        for n in [1, 7, 8, 13, 16, 24, 31, 40] {
            let base = pattern(n);
            let sum = checksum(&base);
            for at in 0..n {
                for flip in [1u8, 0x80, 0xFF] {
                    let mut bytes = base.clone();
                    bytes[at] ^= flip;
                    assert_ne!(checksum(&bytes), sum, "len {n}, byte {at}, xor {flip:#x}");
                }
            }
            // Every byte of a word at once.
            for word in 0..n.div_ceil(8) {
                let mut bytes = base.clone();
                let end = (word * 8 + 8).min(n);
                bytes[word * 8..end].iter_mut().for_each(|b| *b = !*b);
                assert_ne!(checksum(&bytes), sum, "len {n}, word {word}");
            }
            // A zero byte appended is not the same input.
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {n} + 1");
        }
    }

    #[test]
    fn fnv1a_is_pinned_across_releases() {
        // Computed by hand: every shard placement and tree digest
        // depends on this function.
        assert_eq!(fnv1a_step(FNV_OFFSET, b"softborg"), 0x11b2_1a8e_1477_0a49);
    }
}
