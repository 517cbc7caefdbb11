//! The flight recorder: bounded per-source ring buffers of structured
//! [`Event`]s, stamped with the injectable [`Clock`] and a monotonic
//! per-source sequence number.
//!
//! ## Determinism contract
//!
//! An event has *stable* fields — source, sequence number, severity,
//! kind, and the `(name, u64)` payload pairs — and *unstable* ones: the
//! timestamp (wall time on real threads) and the human message (which
//! may embed wall-clock quantities). [`FlightRecorder::events_hash`]
//! folds only the stable fields, walking sources in sorted name order
//! and events in sequence order, so the hash is independent of thread
//! interleaving and host speed: a threaded run and a simulated run with
//! the same semantics hash identically, and a simulated run replays to
//! the same hash always. Under the simulator the timestamps themselves
//! are virtual and therefore replay-stable too — the JSONL export of a
//! sim run is byte-identical across replays.
//!
//! Rings are bounded: at capacity the oldest event of that source is
//! discarded and counted in `dropped` (which the hash also folds, so
//! silent truncation cannot masquerade as an identical run).

use crate::clock::Clock;
use crate::{fnv1a_step, FNV_OFFSET};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fine-grained diagnostic events.
    Debug,
    /// Normal operational milestones (round committed, session done).
    Info,
    /// Something was lost or degraded but the run continues (journal
    /// tail dropped, records truncated). Replaces the old `eprintln!`s.
    Warn,
    /// An operation failed.
    Error,
}

impl Severity {
    /// Lower-case name, as used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event. See the [module docs](self) for which fields are
/// hash-stable.
#[derive(Debug, Clone)]
pub struct Event {
    /// Component that recorded the event (`hive.journal`,
    /// `transport.client.3`, `sim.node.7`, …).
    pub source: Arc<str>,
    /// Monotonic per-source sequence number, starting at 0.
    pub seq: u64,
    /// [`Clock::now_ns`] at record time (virtual under the simulator).
    /// NOT folded into the events hash.
    pub at_ns: u64,
    /// Severity level.
    pub severity: Severity,
    /// Static event kind (`retransmit`, `journal_tail_dropped`, …).
    pub kind: &'static str,
    /// Structured payload: `(name, value)` pairs.
    pub fields: Vec<(&'static str, u64)>,
    /// Human-readable message. NOT folded into the events hash.
    pub msg: String,
}

impl Event {
    /// `true` when the hash-stable fields of `self` and `other` match
    /// (timestamps and messages are ignored).
    pub fn same_stable(&self, other: &Event) -> bool {
        self.source == other.source
            && self.seq == other.seq
            && self.severity == other.severity
            && self.kind == other.kind
            && self.fields == other.fields
    }

    /// One JSONL line for this event (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"source\": ");
        crate::escape_json(&self.source, &mut out);
        let _ = write!(
            out,
            ", \"seq\": {}, \"at_ns\": {}, \"severity\": \"{}\", \"kind\": ",
            self.seq, self.at_ns, self.severity
        );
        crate::escape_json(self.kind, &mut out);
        out.push_str(", \"fields\": {");
        for (i, (name, v)) in self.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(sep);
            crate::escape_json(name, &mut out);
            let _ = write!(out, ": {v}");
        }
        out.push_str("}, \"msg\": ");
        crate::escape_json(&self.msg, &mut out);
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct SourceState {
    next_seq: u64,
    dropped: u64,
    ring: VecDeque<Event>,
}

#[derive(Debug)]
struct Inner {
    /// Swappable in place (shared by every clone) so a simulator run
    /// can retime an already-threaded recorder onto its virtual clock.
    clock: Mutex<Arc<dyn Clock>>,
    capacity: usize,
    stderr_echo: bool,
    sources: Mutex<BTreeMap<Arc<str>, Arc<Mutex<SourceState>>>>,
}

/// The flight recorder. Cloning shares the underlying rings; the
/// [`Default`]/[`disabled`](FlightRecorder::disabled) recorder drops
/// every event at zero cost, so handles can be threaded through configs
/// unconditionally.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// A live recorder stamping events with `clock`, retaining up to
    /// `capacity` events per source.
    pub fn new(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                clock: Mutex::new(clock),
                capacity: capacity.max(1),
                stderr_echo: false,
                sources: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A recorder that records nothing (the default).
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// Rebuilds the recorder with stderr echo on/off: echoed recorders
    /// print Warn+ events to stderr as they are recorded (existing
    /// rings are kept — only the flag changes).
    pub fn with_stderr_echo(self, echo: bool) -> Self {
        match self.inner {
            None => self,
            Some(inner) => FlightRecorder {
                inner: Some(Arc::new(Inner {
                    clock: Mutex::new(inner.clock.lock().expect("clock").clone()),
                    capacity: inner.capacity,
                    stderr_echo: echo,
                    sources: Mutex::new(inner.sources.lock().expect("sources").clone()),
                })),
            },
        }
    }

    /// `true` when events are actually retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The clock events are stamped with (`None` when disabled).
    pub fn clock(&self) -> Option<Arc<dyn Clock>> {
        self.inner
            .as_ref()
            .map(|i| i.clock.lock().expect("clock").clone())
    }

    /// Swaps the stamping clock in place, visible to every clone of
    /// this recorder. The simulator paths use this to retime a
    /// recorder the caller built on wall time onto the run's virtual
    /// clock (`softborg-netsim`'s `SimClock`): events recorded inside
    /// the simulation then carry virtual instants. Already-recorded
    /// timestamps are untouched. No-op on a disabled recorder.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        if let Some(inner) = &self.inner {
            *inner.clock.lock().expect("clock") = clock;
        }
    }

    /// A cached handle for one source: skips the source-map lookup on
    /// every record, for sources that emit from hot paths.
    pub fn source(&self, name: &str) -> EventSink {
        match &self.inner {
            None => EventSink { inner: None },
            Some(inner) => {
                let name: Arc<str> = Arc::from(name);
                let state = inner
                    .sources
                    .lock()
                    .expect("sources")
                    .entry(name.clone())
                    .or_default()
                    .clone();
                EventSink {
                    inner: Some(SinkInner {
                        recorder: inner.clone(),
                        source: name,
                        state,
                    }),
                }
            }
        }
    }

    /// Records one event under `source`. Equivalent to
    /// `self.source(source).record(..)` without the handle caching.
    pub fn record(
        &self,
        source: &str,
        severity: Severity,
        kind: &'static str,
        fields: &[(&'static str, u64)],
        msg: impl fmt::Display,
    ) {
        if self.inner.is_some() {
            self.source(source).record(severity, kind, fields, msg);
        }
    }

    /// Records a [`Severity::Info`] event.
    pub fn info(
        &self,
        source: &str,
        kind: &'static str,
        fields: &[(&'static str, u64)],
        msg: impl fmt::Display,
    ) {
        self.record(source, Severity::Info, kind, fields, msg);
    }

    /// Records a [`Severity::Warn`] event.
    pub fn warn(
        &self,
        source: &str,
        kind: &'static str,
        fields: &[(&'static str, u64)],
        msg: impl fmt::Display,
    ) {
        self.record(source, Severity::Warn, kind, fields, msg);
    }

    /// Records a [`Severity::Error`] event.
    pub fn error(
        &self,
        source: &str,
        kind: &'static str,
        fields: &[(&'static str, u64)],
        msg: impl fmt::Display,
    ) {
        self.record(source, Severity::Error, kind, fields, msg);
    }

    /// Every retained event, sorted by `(source, seq)`.
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let sources = inner.sources.lock().expect("sources").clone();
        let mut out = Vec::new();
        for state in sources.values() {
            out.extend(state.lock().expect("source").ring.iter().cloned());
        }
        out
    }

    /// Total events discarded by ring overflow, over all sources.
    pub fn dropped(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let sources = inner.sources.lock().expect("sources").clone();
        sources
            .values()
            .map(|s| s.lock().expect("source").dropped)
            .sum()
    }

    /// FNV-1a over the stable fields of every retained event plus each
    /// source's overflow count, walking sources in sorted name order.
    /// See the [module docs](self) for what the hash does and does not
    /// cover.
    pub fn events_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let Some(inner) = &self.inner else { return h };
        let sources = inner.sources.lock().expect("sources").clone();
        for (name, state) in &sources {
            let state = state.lock().expect("source");
            h = fnv1a_step(h, name.as_bytes());
            h = fnv1a_step(h, &state.dropped.to_le_bytes());
            for ev in &state.ring {
                h = fnv1a_step(h, &ev.seq.to_le_bytes());
                h = fnv1a_step(h, &[ev.severity as u8]);
                h = fnv1a_step(h, ev.kind.as_bytes());
                for (name, v) in &ev.fields {
                    h = fnv1a_step(h, name.as_bytes());
                    h = fnv1a_step(h, &v.to_le_bytes());
                }
            }
        }
        h
    }

    /// Records a [`Severity::Warn`] event here when enabled, otherwise
    /// into the process-wide [`ops`](crate::ops) recorder (which echoes
    /// Warn+ to stderr by default) — so operational warnings are never
    /// silently lost when no capture recorder is attached.
    pub fn warn_or_ops(
        &self,
        source: &str,
        kind: &'static str,
        fields: &[(&'static str, u64)],
        msg: impl fmt::Display,
    ) {
        if self.is_enabled() {
            self.warn(source, kind, fields, msg);
        } else {
            crate::ops().warn(source, kind, fields, msg);
        }
    }

    /// JSONL export: one event object per line, sorted by
    /// `(source, seq)`. Byte-identical across replays of the same
    /// simulated run.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug, Clone)]
struct SinkInner {
    recorder: Arc<Inner>,
    source: Arc<str>,
    state: Arc<Mutex<SourceState>>,
}

/// A cached per-source recording handle (see
/// [`FlightRecorder::source`]). Cheap to clone; a sink from a disabled
/// recorder drops everything.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    inner: Option<SinkInner>,
}

impl EventSink {
    /// `true` when events recorded here are retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event.
    pub fn record(
        &self,
        severity: Severity,
        kind: &'static str,
        fields: &[(&'static str, u64)],
        msg: impl fmt::Display,
    ) {
        let Some(sink) = &self.inner else { return };
        let at_ns = sink.recorder.clock.lock().expect("clock").now_ns();
        let mut state = sink.state.lock().expect("source");
        let seq = state.next_seq;
        state.next_seq += 1;
        let ev = Event {
            source: sink.source.clone(),
            seq,
            at_ns,
            severity,
            kind,
            fields: fields.to_vec(),
            msg: msg.to_string(),
        };
        if sink.recorder.stderr_echo && severity >= Severity::Warn {
            eprintln!("{}: [{}] {}", severity, ev.source, ev.msg);
        }
        if state.ring.len() >= sink.recorder.capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(ev);
    }

    /// Records a [`Severity::Info`] event.
    pub fn info(&self, kind: &'static str, fields: &[(&'static str, u64)], msg: impl fmt::Display) {
        self.record(Severity::Info, kind, fields, msg);
    }

    /// Records a [`Severity::Warn`] event.
    pub fn warn(&self, kind: &'static str, fields: &[(&'static str, u64)], msg: impl fmt::Display) {
        self.record(Severity::Warn, kind, fields, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn rec(cap: usize) -> (FlightRecorder, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(0));
        (FlightRecorder::new(clock.clone(), cap), clock)
    }

    #[test]
    fn seq_is_monotonic_per_source() {
        let (r, clock) = rec(16);
        r.info("a", "tick", &[], "");
        clock.advance(5);
        r.info("b", "tick", &[], "");
        r.info("a", "tick", &[], "");
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            (evs[0].source.as_ref(), evs[0].seq, evs[0].at_ns),
            ("a", 0, 0)
        );
        assert_eq!(
            (evs[1].source.as_ref(), evs[1].seq, evs[1].at_ns),
            ("a", 1, 5)
        );
        assert_eq!(
            (evs[2].source.as_ref(), evs[2].seq, evs[2].at_ns),
            ("b", 0, 5)
        );
    }

    #[test]
    fn ring_overflow_drops_oldest_and_is_hashed() {
        let (r, _) = rec(2);
        for i in 0..4u64 {
            r.info("s", "tick", &[("i", i)], "");
        }
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].fields, vec![("i", 2)]);
        assert_eq!(r.dropped(), 2);
        // A run that dropped differently hashes differently.
        let (r2, _) = rec(3);
        for i in 0..4u64 {
            r2.info("s", "tick", &[("i", i)], "");
        }
        assert_ne!(r.events_hash(), r2.events_hash());
    }

    #[test]
    fn events_hash_ignores_timestamps_and_msg_but_not_payload() {
        let (a, ca) = rec(16);
        let (b, cb) = rec(16);
        ca.advance(100);
        a.info("s", "tick", &[("n", 1)], "at 100ns");
        cb.advance(999);
        b.info("s", "tick", &[("n", 1)], "at 999ns");
        assert_eq!(a.events_hash(), b.events_hash());
        b.info("s", "tick", &[("n", 2)], "");
        assert_ne!(a.events_hash(), b.events_hash());
    }

    #[test]
    fn events_hash_is_interleaving_independent_across_sources() {
        let (a, _) = rec(16);
        a.info("x", "e", &[], "");
        a.info("y", "e", &[], "");
        a.info("x", "e", &[], "");
        let (b, _) = rec(16);
        b.info("x", "e", &[], "");
        b.info("x", "e", &[], "");
        b.info("y", "e", &[], "");
        assert_eq!(a.events_hash(), b.events_hash());
    }

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let r = FlightRecorder::disabled();
        r.warn("s", "k", &[("x", 1)], "dropped");
        assert!(!r.is_enabled());
        assert!(r.events().is_empty());
        assert_eq!(r.events_hash(), FNV_OFFSET);
        assert!(r.export_jsonl().is_empty());
        let sink = r.source("s");
        assert!(!sink.is_enabled());
        sink.warn("k", &[], "");
    }

    #[test]
    fn jsonl_escapes_and_sorts() {
        let (r, clock) = rec(16);
        clock.advance(42);
        r.warn("b", "k2", &[], "line\nbreak \"quoted\"");
        r.info("a", "k1", &[("count", 3)], "ok");
        let jsonl = r.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"source\": \"a\""));
        assert!(lines[0].contains("\"fields\": {\"count\": 3}"));
        assert!(lines[1].contains("\\n"));
        assert!(lines[1].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\"at_ns\": 42"));
    }

    #[test]
    fn sink_and_recorder_paths_are_equivalent() {
        let (a, _) = rec(16);
        let (b, _) = rec(16);
        let sink = a.source("s");
        sink.info("k", &[("v", 9)], "m");
        b.info("s", "k", &[("v", 9)], "m");
        assert_eq!(a.events_hash(), b.events_hash());
    }
}
