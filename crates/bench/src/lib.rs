//! # softborg-bench — experiment harnesses
//!
//! One runnable binary per experiment in `EXPERIMENTS.md` (E1–E20) plus
//! Criterion micro-benchmarks (`portfolio`, `merge`, `recording`). Each
//! binary prints the table/series its experiment defines;
//! `cargo run -p softborg-bench --release --bin <name>` regenerates it.

#![warn(missing_docs)]

pub mod fleet;

use softborg_program::interp::{ExecConfig, Executor, Observer, Outcome};
use softborg_program::overlay::Overlay;
use softborg_program::sched::RandomSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{BranchSiteId, Program, ThreadId};

/// Observer that captures the full decision path.
#[derive(Default)]
pub struct PathObserver {
    /// Decisions in dynamic order.
    pub decisions: Vec<(BranchSiteId, bool)>,
}

impl Observer for PathObserver {
    fn on_branch(&mut self, _t: ThreadId, s: BranchSiteId, taken: bool, _dep: bool) {
        self.decisions.push((s, taken));
    }
}

/// Runs `program` once with a seeded random schedule, returning the full
/// decision path and outcome.
pub fn collect_path(
    program: &Program,
    inputs: &[i64],
    seed: u64,
) -> (Vec<(BranchSiteId, bool)>, Outcome) {
    let mut obs = PathObserver::default();
    let r = Executor::new(program)
        .with_config(ExecConfig { max_steps: 50_000 })
        .run(
            inputs,
            &mut DefaultEnv::new(EnvConfig {
                seed,
                ..EnvConfig::default()
            }),
            &mut RandomSched::seeded(seed),
            &Overlay::empty(),
            &mut obs,
        )
        .expect("bench inputs match program arity");
    (obs.decisions, r.outcome)
}

/// Parses `--<flag> N` from argv, returning `default` when absent.
/// Panics (with the flag name) on a non-integer value.
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{flag} wants an integer"));
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} wants an integer, got {v:?}"))
        }
    }
}

/// Parses the shared `--seed N` flag, returning `default` when absent.
/// Every harness seed routes through here (or a literal passed to a
/// config) — never the wall clock or process entropy — so any reported
/// number can be regenerated from the command line that produced it.
pub fn arg_seed(default: u64) -> u64 {
    arg_u64("--seed", default)
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, source: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper source: {source}");
    println!("================================================================");
}

/// Prints a table header row followed by a separator.
pub fn table_header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$}  ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().min(100)));
}

/// Formats one table cell right-aligned.
pub fn cell(value: impl ToString, width: usize) -> String {
    format!("{:>width$}  ", value.to_string(), width = width)
}

/// Geometric mean of positive samples (0 when empty).
pub fn geo_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s: f64 = samples.iter().map(|x| x.max(1e-12).ln()).sum();
    (s / samples.len() as f64).exp()
}

/// Median of samples (0 when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

/// Merges `part` — a JSON object holding one experiment's top-level
/// entries — into the JSON object in the file at `path`: each of
/// `part`'s keys replaces the same key where it stands, new keys go
/// last, and every other entry is kept. Experiments sharing one ledger
/// file (E16, E21 and E22 in `BENCH_durability.json`) write it this
/// way, in any order.
///
/// # Panics
///
/// When the file cannot be written.
pub fn write_json_part(path: &str, part: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, merge_json_part(&existing, part))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nmerged into {path}");
}

/// What [`write_json_part`] writes: `existing` (empty for a new file)
/// with `part`'s entries merged in, one top-level entry per line group.
fn merge_json_part(existing: &str, part: &str) -> String {
    let mut merged = json_entries(existing);
    for (key, entry) in json_entries(part) {
        match merged.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = entry,
            None => merged.push((key, entry)),
        }
    }
    let entries: Vec<String> = merged.iter().map(|(_, e)| format!("  {e}")).collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// The top-level `"key": value` entries of a JSON object's text, each
/// trimmed, with its key (none when the text is not an object).
fn json_entries(object: &str) -> Vec<(&str, &str)> {
    let body = object.trim();
    let Some(body) = body.strip_prefix('{').and_then(|b| b.strip_suffix('}')) else {
        return Vec::new();
    };
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    let mut cuts = Vec::new();
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => cuts.push(i),
            _ => {}
        }
    }
    let starts = std::iter::once(0).chain(cuts.iter().map(|c| c + 1));
    let ends = cuts.iter().copied().chain(std::iter::once(body.len()));
    starts
        .zip(ends)
        .map(|(a, b)| body[a..b].trim())
        .filter_map(|entry| Some((entry.strip_prefix('"')?.split('"').next()?, entry)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::scenarios;

    #[test]
    fn collect_path_returns_decisions() {
        let s = scenarios::token_parser();
        let (path, outcome) = collect_path(&s.program, &[1, 2, 3, 4, 5, 6], 0);
        assert!(!path.is_empty());
        assert_eq!(outcome, Outcome::Success);
    }

    #[test]
    fn geo_mean_and_median_behave() {
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(geo_mean(&[]), 0.0);
        assert_eq!(median(&mut []), 0.0);
    }

    /// E16's fields, then E21's and E22's sections, as the binaries
    /// write them.
    const LEDGER: &str = "{
  \"experiment\": \"e16_durability\",
  \"boundary_kills\": {\"total\": 50, \"byte_identical\": 50},
  \"crash_points\": [
    {\"boundary\": 50, \"point\": \"Torn { a: 1, b: \\\"}\\\" }\"},
    {\"boundary\": 43, \"point\": \"x\"}
  ],
  \"note\": \"byte-for-byte, [sic]\",
  \"e21\": {
    \"experiment\": \"E21\", \"smoke\": false,
    \"all_ok\": true
  },
  \"e22\": {
    \"chain\": {\"ratio\": 6.10},
    \"all_ok\": true
  }
}
";

    #[test]
    fn merging_a_part_keeps_every_other_part() {
        assert_eq!(merge_json_part(LEDGER, "{}"), LEDGER);
        assert_eq!(merge_json_part(LEDGER, LEDGER), LEDGER);
        let keys = |text: &str| {
            let keys: Vec<&str> = json_entries(text).into_iter().map(|(k, _)| k).collect();
            keys.join(" ")
        };
        let all = "experiment boundary_kills crash_points note e21 e22";
        assert_eq!(keys(LEDGER), all);

        // Re-running E21 replaces its section where it stands and keeps
        // E22's after it.
        let e21 = "{\n  \"e21\": {\"smoke\": true}\n}\n";
        let merged = merge_json_part(LEDGER, e21);
        assert_eq!(keys(&merged), all);
        assert!(merged.contains("  \"e21\": {\"smoke\": true},\n  \"e22\": {"));
        assert!(merged.contains("\"ratio\": 6.10"));

        // Re-running E16 replaces its fields and keeps both sections.
        let e16 = "{\n  \"experiment\": \"e16_durability\",\n  \"boundary_kills\": {\"total\": 9},\n  \"crash_points\": [],\n  \"note\": \"n\"\n}\n";
        let merged = merge_json_part(LEDGER, e16);
        assert_eq!(keys(&merged), all);
        assert!(merged.contains("\"boundary_kills\": {\"total\": 9}"));
        assert!(merged.contains("\"all_ok\": true\n  },\n  \"e22\""));

        // A new file is just the part; a new key goes last.
        assert_eq!(merge_json_part("", e16), e16);
        assert_eq!(
            keys(&merge_json_part(e16, e21)),
            "experiment boundary_kills crash_points note e21"
        );
    }
}
