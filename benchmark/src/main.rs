//! `softborg-benchmark` — the repository's benchmark (see `README.md`
//! beside `Cargo.toml` and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! softborg-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! softborg-benchmark run [--seed N] [--smoke] [--out DIR]                every workload, one child process each
//! softborg-benchmark compare A B                                         do two results (or sets) agree?
//! softborg-benchmark spread [--seeds N] [--out DIR]                       run-to-run spread, as the contract measures it
//! ```

mod anatomy;
mod compare;
mod json;
mod metrics;
mod spans;
mod stats;
mod twin;
mod workloads;

use json::Json;
use metrics::{Bench, Metric};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Verdicts};

const USAGE: &str = "usage:
  softborg-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  softborg-benchmark run [--seed N] [--smoke] [--out DIR]
  softborg-benchmark compare A B
  softborg-benchmark spread [--seeds N] [--out DIR]
workloads are the ones BENCHMARK.json lists";

/// Parsed `run` options.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

impl RunArgs {
    /// Blocks of `workload` in this run: its frozen count at
    /// `run_seconds`, in proportion for another `--seconds`, one under
    /// `--smoke`. Never a function of how long anything took.
    fn blocks(&self, workload: &str, bench: &Bench) -> u32 {
        if self.smoke {
            return 1;
        }
        let frozen = f64::from(workloads::frozen_blocks(workload));
        ((frozen * self.seconds / bench.run_seconds).round() as u32).max(1)
    }
}

fn parse_run(args: &[String], bench: &Bench) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: bench.run_seconds,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !bench.workloads.contains(name) {
                    return Err(format!(
                        "unknown workload {name}; BENCHMARK.json lists {}",
                        bench.workloads.join(" ")
                    ));
                }
                run.workload = Some(name.clone());
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&run.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = Bench::load();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..], &bench).and_then(|run| match run.workload.clone() {
            Some(workload) => run_one(&workload, &run, &bench),
            None => run_all(&run, &bench),
        }),
        Some("compare") => compare::main(&args[1..], &bench),
        Some("spread") => spread(&args[1..], &bench),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Median over blocks of `f(block)`.
fn over_blocks<T>(blocks: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&blocks.iter().map(f).collect::<Vec<_>>())
}

/// Everything one workload run produced, ready to print.
struct Outcome {
    /// Every metric this run computed, by its `BENCHMARK.json` name.
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    verdicts: Verdicts,
    /// Extra facts for `result.json` (exact counts, shares, block count).
    detail: BTreeMap<String, Json>,
}

fn numbers<K: ToString>(pairs: impl IntoIterator<Item = (K, f64)>) -> Json {
    Json::obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v))),
    )
}

/// Runs `count` identical blocks, each in an empty scratch directory of
/// its own.
fn run_blocks<T>(
    run: &RunArgs,
    count: u32,
    scratch: &Path,
    mut block: impl FnMut(&Ctx) -> T,
) -> Vec<T> {
    (0..count)
        .map(|i| {
            let dir = scratch.join(format!("block-{i}"));
            std::fs::create_dir_all(&dir).expect("create block scratch directory");
            let result = block(&Ctx {
                seed: run.seed,
                smoke: run.smoke,
                scratch: &dir,
            });
            let _ = std::fs::remove_dir_all(&dir);
            result
        })
        .collect()
}

/// The untraced run.
fn measure(workload: &str, run: &RunArgs, count: u32, scratch: &Path) -> Outcome {
    let mut resume_ms = Vec::new();
    let mut blocks = run_blocks(run, count, scratch, |ctx| match workload {
        "fanin_replay" => workloads::fanin_window(ctx),
        "fleet_durable" => {
            let (window, resumes) = workloads::fleet_window(ctx);
            resume_ms.extend(resumes);
            window
        }
        platform => workloads::platform_window(platform, ctx),
    });

    // Blocks are identical work, so their rounds pool into one sample and
    // their windows into one window.
    let pooled: Vec<f64> = blocks
        .iter()
        .flat_map(|w| w.round_ms.iter().copied())
        .collect();
    let sum = |f: fn(&workloads::Window) -> f64| blocks.iter().map(f).sum::<f64>();
    let executions = sum(|w| w.executions as f64);
    let values = BTreeMap::from([
        ("execs_per_s", executions / sum(|w| w.wall_s)),
        ("round_ms_p50", median(&pooled)),
        ("cpu_ms_per_kexec", sum(|w| w.cpu_s) * 1e6 / executions),
        // Later blocks inherit the high-water mark of earlier blocks'
        // checks; the first block's reading is the clean one.
        ("peak_rss_mb", blocks[0].rss_mb),
        ("setup_s", over_blocks(&blocks, |w| w.setup_s)),
    ]);
    let mut verdicts = Verdicts::default();
    let repeatable = blocks
        .iter()
        .all(|w| w.exact == blocks[0].exact && w.executions == blocks[0].executions);
    verdicts.checks.push((
        "every block repeats the first block's counts exactly".into(),
        repeatable,
    ));
    let mut detail = BTreeMap::new();
    detail.insert("blocks".into(), Json::Num(blocks.len() as f64));
    detail.insert("rounds".into(), Json::Num(pooled.len() as f64));
    detail.insert("window_s".into(), Json::Num(sum(|w| w.wall_s)));
    detail.insert(
        "exact".into(),
        numbers(blocks[0].exact.iter().map(|(k, v)| (*k, *v as f64))),
    );
    // How far the host moved inside this run: each block's own reading.
    let each = |f: &dyn Fn(&workloads::Window) -> f64| {
        Json::Arr(blocks.iter().map(|w| Json::Num(f(w))).collect())
    };
    detail.insert(
        "per_block".into(),
        Json::obj([
            ("execs_per_s", each(&|w| w.executions as f64 / w.wall_s)),
            ("round_ms_p50", each(&|w| median(&w.round_ms))),
            (
                "round_ms_p90",
                each(&|w| percentile(&w.round_ms, 90.0).unwrap_or(0.0)),
            ),
            (
                "cpu_ms_per_kexec",
                each(&|w| w.cpu_s * 1e6 / w.executions as f64),
            ),
            ("setup_s", each(&|w| w.setup_s)),
        ]),
    );
    if !resume_ms.is_empty() {
        detail.insert("resume_ms_p50".into(), Json::Num(median(&resume_ms)));
        detail.insert("resume_samples".into(), Json::Num(resume_ms.len() as f64));
    }
    for w in &mut blocks {
        verdicts.checks.append(&mut w.verdicts.checks);
        verdicts.guards.append(&mut w.verdicts.guards);
    }
    Outcome {
        values,
        attempted: blocks.iter().map(|w| w.attempted).sum(),
        failed: blocks.iter().map(|w| w.failed).sum(),
        verdicts,
        detail,
    }
}

/// The traced run: every block is the platform plus its anatomy twin;
/// the spans of the first block go to `spans-<workload>.jsonl`.
fn trace(workload: &str, run: &RunArgs, count: u32, scratch: &Path) -> Outcome {
    let mut first_spans = None;
    let mut blocks = run_blocks(run, count, scratch, |ctx| {
        let mut spans = spans::Spans::default();
        let anatomy = match workload {
            "fanin_replay" => workloads::fanin_anatomy(ctx, &mut spans),
            "fleet_durable" => workloads::fleet_anatomy(ctx, &mut spans),
            platform => workloads::platform_anatomy(platform, ctx, &mut spans),
        };
        first_spans.get_or_insert(spans);
        anatomy
    });

    let mut verdicts = Verdicts::default();
    let spans_path = run.out.join(format!("spans-{workload}.jsonl"));
    let spans = first_spans.expect("at least one block ran");
    let written = spans.write_jsonl(&spans_path);
    verdicts.checks.push((
        format!(
            "{} spans written to {}",
            spans.all().len(),
            spans_path.display()
        ),
        written.is_ok(),
    ));
    // Median over blocks of every name any block reported.
    fn medians(
        blocks: &[anatomy::Anatomy],
        pick: fn(&anatomy::Anatomy) -> &BTreeMap<&'static str, f64>,
    ) -> BTreeMap<&'static str, f64> {
        let names: std::collections::BTreeSet<&'static str> = blocks
            .iter()
            .flat_map(|a| pick(a).keys().copied())
            .collect();
        names
            .into_iter()
            .map(|name| {
                (
                    name,
                    over_blocks(blocks, |a| pick(a).get(name).copied().unwrap_or(0.0)),
                )
            })
            .collect()
    }
    let mut detail = BTreeMap::new();
    detail.insert("blocks".into(), Json::Num(blocks.len() as f64));
    detail.insert(
        "stage_share".into(),
        numbers(medians(&blocks, |a| &a.stage_share)),
    );
    detail.insert(
        "group_share".into(),
        numbers(medians(&blocks, |a| &a.group_share)),
    );
    let values = medians(&blocks, |a| &a.layers);
    for a in &mut blocks {
        verdicts.checks.append(&mut a.verdicts.checks);
        verdicts.guards.append(&mut a.verdicts.guards);
    }
    Outcome {
        values,
        attempted: blocks.iter().map(|a| a.attempted).sum(),
        failed: blocks.iter().map(|a| a.failed).sum(),
        verdicts,
        detail,
    }
}

/// Runs one workload in this process and prints its result; the last
/// line of standard output is the result object of the benchmark
/// contract. `Ok(false)` when an output check failed.
fn run_one(workload: &str, run: &RunArgs, bench: &Bench) -> Result<bool, String> {
    let blocks = run.blocks(workload, bench);
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let scratch = run
        .out
        .join(format!("work-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (nproc, kernel, fs) = stats::host_description(&scratch);
    println!(
        "softborg-benchmark {workload}: seed {} seconds {} ({blocks} block(s)) trace {} smoke {} | host: {nproc} cpu(s), kernel {kernel}, scratch on {fs}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.smoke
    );

    let (mut outcome, listed) = if run.trace {
        (trace(workload, run, blocks, &scratch), &bench.per_layer)
    } else {
        (measure(workload, run, blocks, &scratch), &bench.end_to_end)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    // Printed in the order, and with the units, `BENCHMARK.json` gives.
    let metrics: Vec<(&Metric, f64)> = listed
        .iter()
        .map(|m| {
            let value = outcome
                .values
                .get(m.name.as_str())
                .ok_or_else(|| format!("BENCHMARK.json lists {}, which no run computes", m.name))?;
            Ok((m, *value))
        })
        .collect::<Result<_, String>>()?;
    for (m, value) in &metrics {
        println!("  {:<36} {value:>16.4} {}", m.name, m.unit);
    }
    outcome.verdicts.checks.push((
        "the run attempted at least one operation".into(),
        outcome.attempted > 0,
    ));
    let failed_checks = outcome.verdicts.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let flagged = outcome.verdicts.guards.iter().any(|(_, ok)| !ok);
    let mut seen = std::collections::BTreeSet::new();
    for (kind, list) in [
        ("check", &outcome.verdicts.checks),
        ("guard", &outcome.verdicts.guards),
    ] {
        for (what, ok) in list {
            // Blocks repeat the same verdicts; print each once unless it failed.
            if !ok || seen.insert(what.clone()) {
                let word = match (kind, *ok) {
                    (_, true) => "ok",
                    ("check", false) => "FAILED",
                    _ => "FLAGGED",
                };
                println!("  {kind}: {what}: {word}");
            }
        }
    }

    let verdict_list = |list: &[(String, bool)]| {
        let mut failed: Vec<&str> = list
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(w, _)| w.as_str())
            .collect();
        failed.dedup();
        Json::Arr(failed.into_iter().map(Json::str).collect())
    };
    outcome.detail.extend([
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::Num(run.seed as f64)),
        ("smoke".to_string(), Json::Bool(run.smoke)),
        ("trace".to_string(), Json::Bool(run.trace)),
        ("flagged".to_string(), Json::Bool(flagged)),
        (
            "failed_checks".to_string(),
            verdict_list(&outcome.verdicts.checks),
        ),
        (
            "failed_guards".to_string(),
            verdict_list(&outcome.verdicts.guards),
        ),
        (
            "host".to_string(),
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("kernel", Json::str(kernel)),
                ("scratch_fs", Json::str(fs)),
            ]),
        ),
    ]);
    println!("detail {}", Json::Obj(outcome.detail).to_line());

    let failed = outcome.failed + failed_checks;
    let correct = failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(m, value)| {
                (
                    m.name.as_str(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(m.unit.as_str())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_line());
    Ok(correct)
}

/// Runs `run --workload W` in a child process and returns its standard
/// output, its parsed result line and its parsed detail line.
fn child(
    workload: &str,
    run: &RunArgs,
    seconds: f64,
    trace: bool,
) -> Result<(String, Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &run.seed.to_string(),
    ])
    .args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .arg("--out")
    .arg(&run.out);
    if run.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: result line: {e}")))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload}: no detail line"))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: detail line: {e}")))?;
    Ok((stdout, result, detail))
}

/// `{metric: value}` out of a result line's `metrics` object.
fn metric_values(result: &Json) -> Json {
    let metrics = result.get("metrics").and_then(Json::as_obj);
    Json::obj(
        metrics
            .into_iter()
            .flatten()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null))),
    )
}

/// Runs every workload (untraced, then traced at a third of the blocks),
/// each in its own child process, prints every metric, and writes
/// `result.json` under `--out`.
fn run_all(run: &RunArgs, bench: &Bench) -> Result<bool, String> {
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let started = std::time::Instant::now();
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    let mut host = Json::Null;
    for workload in &bench.workloads {
        let (printed, untraced, detail) = child(workload, run, run.seconds, false)?;
        print!("{printed}");
        let (printed, traced, traced_detail) = child(workload, run, run.seconds / 3.0, true)?;
        print!("{printed}");
        let flag = |j: &Json, key: &str| j.get(key).and_then(Json::as_bool).unwrap_or(false);
        let count = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let correct = flag(&untraced, "correct") && flag(&traced, "correct");
        all_correct &= correct;
        host = detail.get("host").cloned().unwrap_or(Json::Null);
        let keep = |d: &Json, key: &str| d.get(key).cloned().unwrap_or(Json::Null);
        // A list both the untraced and the traced run report, joined.
        let both_runs = |key: &str| {
            Json::Arr(
                [&detail, &traced_detail]
                    .iter()
                    .flat_map(|d| d.get(key).and_then(Json::as_arr).unwrap_or(&[]))
                    .cloned()
                    .collect(),
            )
        };
        workloads.insert(
            workload.clone(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(count(&untraced, "attempted"))),
                (
                    "failed",
                    Json::Num(count(&untraced, "failed") + count(&traced, "failed")),
                ),
                (
                    "flagged",
                    Json::Bool(flag(&detail, "flagged") || flag(&traced_detail, "flagged")),
                ),
                ("end_to_end", metric_values(&untraced)),
                ("per_layer", metric_values(&traced)),
                ("exact", keep(&detail, "exact")),
                ("blocks", keep(&detail, "blocks")),
                ("rounds", keep(&detail, "rounds")),
                ("window_s", keep(&detail, "window_s")),
                ("group_share", keep(&traced_detail, "group_share")),
                ("stage_share", keep(&traced_detail, "stage_share")),
                ("failed_checks", both_runs("failed_checks")),
                ("failed_guards", both_runs("failed_guards")),
            ]),
        );
    }
    let result = Json::obj([
        ("schema", Json::str(compare::SCHEMA)),
        ("smoke", Json::Bool(run.smoke)),
        ("seed", Json::Num(run.seed as f64)),
        ("run_seconds", Json::Num(run.seconds)),
        ("host", host),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = run.out.join("result.json");
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {} in {:.1} s{} — {}",
        path.display(),
        started.elapsed().as_secs_f64(),
        if run.smoke {
            " (SMOKE: not comparable with full runs)"
        } else {
            ""
        },
        if all_correct {
            "every output check passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// `spread`: the acceptance protocol of the benchmark contract, run by
/// the benchmark itself. Two sets back to back, each one untraced run per
/// workload and seed in `1..=seeds`; per workload and end-to-end metric
/// the quartile spread of each set as a share of its median, and by how
/// much the second median is worse than the first. Steady means every
/// spread (except that of `setup_s`, which the contract exempts) and
/// every shift is within the metric's bound.
fn spread(args: &[String], bench: &Bench) -> Result<bool, String> {
    let mut seeds = 10u64;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--seeds" {
            let n = it.next().ok_or("--seeds needs a value")?;
            seeds = n.parse().map_err(|e| format!("--seeds: {e}"))?;
        } else {
            rest.push(arg.clone());
        }
    }
    let mut run = parse_run(&rest, bench)?;
    if seeds < 2 || run.workload.is_some() || run.smoke {
        return Err(USAGE.to_string());
    }
    // values[set][workload][metric] = one reading per seed.
    let mut values = vec![vec![vec![Vec::new(); bench.end_to_end.len()]; bench.workloads.len()]; 2];
    for set in &mut values {
        for (workload, readings) in bench.workloads.iter().zip(set.iter_mut()) {
            for seed in 1..=seeds {
                run.seed = seed;
                let (_, result, _) = child(workload, &run, bench.run_seconds, false)?;
                if result.get("correct").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("{workload} seed {seed}: output checks failed"));
                }
                for (m, into) in bench.end_to_end.iter().zip(readings.iter_mut()) {
                    let value = result
                        .get("metrics")
                        .and_then(|x| x.get(&m.name))
                        .and_then(|x| x.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{workload} seed {seed}: no {}", m.name))?;
                    into.push(value);
                }
            }
            eprintln!("{workload}: {seeds} seeds done");
        }
    }
    println!(
        "spread: 2 sets x {seeds} seeds x `run --workload W --seed n --seconds {} --trace 0`",
        bench.run_seconds
    );
    println!(
        "{:<14} {:<18} {:>14} {:>9} {:>14} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median 1", "spread 1", "median 2", "spread 2", "shift", "bound"
    );
    let mut steady = true;
    for (w, workload) in bench.workloads.iter().enumerate() {
        for (i, m) in bench.end_to_end.iter().enumerate() {
            let (first, second) = (&values[0][w][i], &values[1][w][i]);
            let spreads =
                [first, second].map(|v| stats::iqr_over_median(v).unwrap_or(f64::INFINITY));
            let shift = compare::worsening(median(first), median(second), m.higher_is_better);
            let bound = m.bound.unwrap_or(0.0);
            let exempt = m.name == "setup_s";
            let ok = shift <= bound && (exempt || spreads.iter().all(|s| *s <= bound));
            steady &= ok;
            println!(
                "{workload:<14} {:<18} {:>14.4} {:>8.2}% {:>14.4} {:>8.2}% {:>+8.2}% {:>5.0}%  {}",
                m.name,
                median(first),
                spreads[0] * 100.0,
                median(second),
                spreads[1] * 100.0,
                shift * 100.0,
                bound * 100.0,
                match (ok, exempt) {
                    (true, false) => "steady",
                    (true, true) => "steady (spread exempt)",
                    (false, _) => "NOISY",
                }
            );
        }
    }
    println!("verdict: {}", if steady { "STEADY" } else { "NOISY" });
    Ok(steady)
}
