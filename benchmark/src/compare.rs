//! `compare A B`: do two results — or two sets of results — of the
//! benchmark agree within the bounds `BENCHMARK.json` fixes?
//!
//! `A` and `B` are each a `result.json` or a directory of them (one set
//! of runs). Per workload and end-to-end metric the set medians are
//! compared against the metric's bound; counts the program makes are
//! compared for equality across every run of the same seed.

use crate::json::Json;
use crate::metrics::Bench;
use crate::stats::{iqr_over_median, median};
use std::collections::BTreeMap;
use std::path::Path;

pub const SCHEMA: &str = "softborg-benchmark/2";

/// Per-layer metrics that are counts made by the program and repeat
/// exactly for a seed: `compare` demands equality for these. (What
/// `BENCHMARK.json` cannot say about a metric; a test keeps every name
/// here one it lists.)
const EXACT_PER_LAYER: [&str; 13] = [
    "program.steps_per_exec",
    "pod.state_bytes_per_round",
    "trace.wire_bytes_per_trace",
    "trace.unreconstructed_share",
    "tree.nodes_final",
    "tree.max_depth",
    "tree.new_nodes_per_kexec",
    "hive.state_bytes_final",
    "hive.wal_bytes_per_round",
    "fix.promoted_total",
    "fix.rounds_to_first_promotion",
    "guidance.directed_share",
    "store.disk_mb_final",
];

/// Loads one result file, or every `*.json` result in a directory
/// (sorted by name).
fn load_set(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    let mut set = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{}: not a {SCHEMA} result", file.display()));
        }
        set.push(doc);
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(set)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn values(set: &[Json], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .get(workload)?
                .get(section)?
                .get(metric)?
                .as_f64()
        })
        .collect()
}

/// The outcome of comparing two sets: the report text and whether every
/// pairing agreed.
pub fn compare_sets(a: &[Json], b: &[Json], bench: &Bench) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let smoke = |doc: &Json| doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let all = || a.iter().chain(b);
    if all().any(|d| smoke(d) != smoke(&a[0])) {
        return Err("refusing to compare smoke results with full results".into());
    }
    let workloads = &bench.workloads;

    let mut out = String::new();
    let mut agree = true;
    let _ = writeln!(
        out,
        "compare: A = {} run(s), B = {} run(s){}",
        a.len(),
        b.len(),
        if smoke(&a[0]) { " (SMOKE results)" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "gap", "bound", "spread A", "spread B"
    );
    for w in workloads {
        for m in &bench.end_to_end {
            let (metric, bound) = (&m.name, m.bound.unwrap_or(0.0));
            let (va, vb) = (
                values(a, w, "end_to_end", metric),
                values(b, w, "end_to_end", metric),
            );
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{w:<14} {metric:<18} missing from one side  DISAGREE");
                agree = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Agreement is symmetric: neither side may be worse than the
            // other by more than the bound.
            let gap =
                worsening(ma, mb, m.higher_is_better).max(worsening(mb, ma, m.higher_is_better));
            let ok = gap <= bound && ma != 0.0 && mb != 0.0;
            agree &= ok;
            // Quartile spread of each set as a share of its median ("-"
            // for a single run): a gap inside the spread is noise.
            let spread = |v: &[f64]| {
                iqr_over_median(v).map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0))
            };
            let _ = writeln!(
                out,
                "{w:<14} {metric:<18} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.0}% {:>9} {:>9}  {}",
                gap * 100.0,
                bound * 100.0,
                spread(&va),
                spread(&vb),
                if ok { "within bound" } else { "DISAGREE" }
            );
        }
    }

    // Exact counts: every run of one seed, on either side, must agree.
    let mut by_seed: BTreeMap<u64, Vec<&Json>> = BTreeMap::new();
    for doc in all() {
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        by_seed.entry(seed).or_default().push(doc);
    }
    let mut exact_compared = 0usize;
    let mut exact_mismatches = Vec::new();
    for (seed, docs) in &by_seed {
        for w in workloads {
            let counts = |doc: &Json| -> BTreeMap<String, Json> {
                let wl = doc.get("workloads").and_then(|x| x.get(w));
                let mut m: BTreeMap<String, Json> = wl
                    .and_then(|x| x.get("exact"))
                    .and_then(Json::as_obj)
                    .cloned()
                    .unwrap_or_default();
                for name in EXACT_PER_LAYER {
                    if let Some(v) = wl
                        .and_then(|x| x.get("per_layer"))
                        .and_then(|x| x.get(name))
                    {
                        m.insert(name.to_string(), v.clone());
                    }
                }
                for name in ["attempted", "failed", "blocks", "rounds"] {
                    if let Some(v) = wl.and_then(|x| x.get(name)) {
                        m.insert(name.to_string(), v.clone());
                    }
                }
                m
            };
            let first = counts(docs[0]);
            for doc in &docs[1..] {
                let other = counts(doc);
                for (name, value) in &first {
                    exact_compared += 1;
                    if other.get(name) != Some(value) {
                        exact_mismatches.push(format!(
                            "seed {seed} {w} {name}: {} vs {}",
                            value.to_line(),
                            other.get(name).map_or("missing".into(), Json::to_line)
                        ));
                    }
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "exact counts: {exact_compared} comparisons across runs of the same seed, {} mismatch(es)",
        exact_mismatches.len()
    );
    for m in &exact_mismatches {
        let _ = writeln!(out, "  MISMATCH {m}");
    }
    agree &= exact_mismatches.is_empty();

    let incorrect = all()
        .flat_map(|d| {
            d.get("workloads")
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
        })
        .filter(|(_, w)| w.get("correct").and_then(Json::as_bool) != Some(true))
        .count();
    if incorrect > 0 {
        let _ = writeln!(
            out,
            "{incorrect} workload result(s) failed their output checks"
        );
        agree = false;
    }
    let _ = writeln!(out, "verdict: {}", if agree { "AGREE" } else { "DISAGREE" });
    Ok((out, agree))
}

pub fn main(args: &[String], bench: &Bench) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(crate::USAGE.to_string());
    };
    let (report, agree) = compare_sets(&load_set(Path::new(a))?, &load_set(Path::new(b))?, bench)?;
    print!("{report}");
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(smoke: bool, seed: u64, execs_per_s: f64, nodes: f64) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("smoke", Json::Bool(smoke)),
            ("seed", Json::Num(seed as f64)),
            (
                "workloads",
                Json::obj([(
                    "closed_loop",
                    Json::obj([
                        ("correct", Json::Bool(true)),
                        ("attempted", Json::Num(10.0)),
                        ("failed", Json::Num(0.0)),
                        (
                            "end_to_end",
                            Json::obj([("execs_per_s", Json::Num(execs_per_s))]),
                        ),
                        (
                            "per_layer",
                            Json::obj([("tree.nodes_final", Json::Num(nodes))]),
                        ),
                        ("exact", Json::obj([("tree_nodes", Json::Num(nodes))])),
                    ]),
                )]),
            ),
        ])
    }

    /// A contract of one workload and one metric bounded at 10%.
    fn bounds() -> Bench {
        Bench {
            run_seconds: 1.0,
            workloads: vec!["closed_loop".into()],
            end_to_end: vec![crate::metrics::Metric {
                name: "execs_per_s".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: Some(0.10),
            }],
            per_layer: Vec::new(),
        }
    }

    #[test]
    fn every_exact_metric_is_one_benchmark_json_lists() {
        let bench = Bench::load();
        for name in EXACT_PER_LAYER {
            assert!(bench.per_layer.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert_eq!(worsening(0.0, 1.0, false), f64::INFINITY);
    }

    #[test]
    fn medians_within_bound_and_equal_counts_agree() {
        let a = [result(false, 1, 100.0, 31.0), result(false, 2, 104.0, 31.0)];
        let b = [result(false, 1, 95.0, 31.0), result(false, 2, 101.0, 31.0)];
        let (report, agree) = compare_sets(&a, &b, &bounds()).unwrap();
        assert!(agree, "{report}");
        assert!(report.contains("within bound") && report.contains("verdict: AGREE"));
    }

    #[test]
    fn a_gap_beyond_the_bound_or_a_count_mismatch_disagrees() {
        let a = [result(false, 1, 100.0, 31.0)];
        let slow = [result(false, 1, 80.0, 31.0)];
        assert!(!compare_sets(&a, &slow, &bounds()).unwrap().1);
        // Symmetric: a faster B also fails to *agree* with A.
        assert!(!compare_sets(&slow, &a, &bounds()).unwrap().1);
        let drifted = [result(false, 1, 100.0, 32.0)];
        let (report, agree) = compare_sets(&a, &drifted, &bounds()).unwrap();
        assert!(!agree);
        assert!(report.contains("MISMATCH seed 1 closed_loop"), "{report}");
        // A different seed is free to count differently.
        let other_seed = [result(false, 2, 100.0, 32.0)];
        assert!(compare_sets(&a, &other_seed, &bounds()).unwrap().1);
    }

    #[test]
    fn smoke_and_full_results_are_never_mixed() {
        let err = compare_sets(
            &[result(true, 1, 1.0, 1.0)],
            &[result(false, 1, 1.0, 1.0)],
            &bounds(),
        );
        assert!(err.unwrap_err().contains("smoke"));
    }
}
