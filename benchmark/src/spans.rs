//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the crates under
//! test is instrumented. They are kept in memory and written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that was open when
/// this one started (0 = none); spans of one round share `round`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

/// Handle returned by [`Spans::start`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(u32);

/// Single-threaded span recorder (the harness is one thread).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Round number stamped on spans started from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn start(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(0),
            round: self.round,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open` (which must be the innermost open span) and returns
    /// its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        let now = self.now_ns();
        let span = &mut self.spans[open.0 as usize - 1];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Times `f` under a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.start(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Indexed like [`all`](Self::all).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per round, the self time of every span name, in ns. Only rounds in
    /// `rounds` (the measured window) are returned.
    pub fn self_ns_by_round(
        &self,
        rounds: std::ops::Range<u32>,
    ) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if rounds.contains(&s.round) {
                *out.entry(s.round).or_default().entry(s.name).or_default() += ns;
            }
        }
        out
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let _ = writeln!(
                line,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.round
            );
            file.write_all(line.as_bytes())?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_is_duration_minus_children_and_groups_by_round() {
        let mut s = Spans::default();
        s.set_round(3);
        let round = s.start("round");
        let a = s.start("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(a);
        s.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let total = s.end(round);
        let own = s.self_times_ns();
        let (a_ns, b_ns) = (own[1], own[2]);
        assert!(a_ns >= 2_000_000 && b_ns >= 1_000_000);
        assert_eq!(own[0] + a_ns + b_ns, total);
        assert_eq!(s.all()[1].parent, 1);
        assert_eq!(s.all()[0].parent, 0);

        let by_round = s.self_ns_by_round(3..4);
        let sum: u64 = by_round[&3].values().sum();
        assert_eq!(sum, total, "self times of a round add up to its wall time");
        assert!(s.self_ns_by_round(0..3).is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut s = Spans::default();
        s.time("x", || ());
        let path =
            std::env::temp_dir().join(format!("softborg-bm-spans-{}.jsonl", std::process::id()));
        s.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let v = Json::parse(lines[0]).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        for key in ["id", "start_ns", "end_ns", "parent", "round"] {
            assert!(v.get(key).and_then(Json::as_f64).is_some(), "{key} missing");
        }
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut s = Spans::default();
        let a = s.start("a");
        let _b = s.start("b");
        s.end(a);
    }
}
