//! The five workloads. Each runs in *blocks*: one block sets the system
//! up (program build, corpus, platform, warm-up — all charged to
//! `setup_s`), then measures a frozen number of rounds. A run is a frozen
//! number of identical blocks, so every count repeats exactly and wall
//! time is the only thing that varies between runs of the same seed.
//!
//! Configs are built only through `::default()`, `DurabilityConfig::new`
//! and struct-update syntax, so fields this file does
//! not name can be added or removed without editing the benchmark.

use crate::anatomy::{self, Anatomy, PlatformSide};
use crate::spans::Spans;
use crate::stats::{dir_bytes, peak_rss_mb, process_cpu_seconds};
use crate::twin::{Twin, TwinConfig};
use softborg::guidance::Directive;
use softborg::hive::{Hive, HiveConfig};
use softborg::ingest::IngestConfig;
use softborg::obs::{MetricsRegistry, ObsHandles};
use softborg::pod::{Pod, PodConfig};
use softborg::program::scenarios::{self, Scenario};
use softborg::program::{BranchSiteId, ProgramId};
use softborg::shard::ShardedHive;
use softborg::trace::wire;
use softborg::{
    DrivenExecution, DurabilityConfig, FleetSpec, MultiPlatform, MultiPlatformConfig, Platform,
    PlatformConfig,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Blocks in one run of `run_seconds`, tuned once so that a run measures
/// for about that long on the reference host, then frozen. `--seconds`
/// scales the count in proportion, so the work of a run never depends on
/// how fast the host happens to be.
pub fn frozen_blocks(workload: &str) -> u32 {
    match workload {
        "closed_loop" => 7,
        "explore_wide" => 6,
        "explore_deep" => 9,
        "fanin_replay" => 8,
        "fleet_durable" => 7,
        other => unreachable!("{other} is not a workload"),
    }
}

/// What one block is asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    pub smoke: bool,
    /// An empty directory this block may fill (the durable campaign).
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    /// Frozen round counts shrink 20× under `--smoke` (never below 2).
    fn rounds(&self, full: u32) -> u32 {
        if self.smoke {
            (full / 20).max(2)
        } else {
            full
        }
    }

    /// Warm-ups shrink less: the checks still need the steady state.
    fn warmup(&self, full: u32) -> u32 {
        if self.smoke {
            (full / 4).max(2)
        } else {
            full
        }
    }
}

/// Named pass/fail verdicts of one block.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Output checks: a failure makes the run incorrect (nonzero exit).
    pub checks: Vec<(String, bool)>,
    /// Steady-state properties the workload's rationale depends on: a
    /// failure is flagged in the output, not fatal (another `--seed` may
    /// legitimately miss one).
    pub guards: Vec<(String, bool)>,
}

impl Verdicts {
    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
    fn guard(&mut self, what: impl Into<String>, ok: bool) {
        self.guards.push((what.into(), ok));
    }
}

/// One untraced block: the raw material of the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Window {
    pub setup_s: f64,
    /// Wall time of every measured round, ms.
    pub round_ms: Vec<f64>,
    /// Wall time of everything on the clock (rounds, plus resumes for
    /// `fleet_durable`), s.
    pub wall_s: f64,
    /// Process CPU over the same intervals, s.
    pub cpu_s: f64,
    /// Executions completed in the window (traces for `fanin_replay`).
    pub executions: u64,
    /// Operations attempted / failed (frames for `fanin_replay`).
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` when the window closed, before any check allocated.
    pub rss_mb: f64,
    /// Counts that must repeat exactly for a seed.
    pub exact: BTreeMap<&'static str, u64>,
    pub verdicts: Verdicts,
}

/// A stopwatch for wall and CPU time that can be paused around checks.
struct OnClock {
    wall_s: f64,
    cpu_s: f64,
}

impl OnClock {
    fn new() -> Self {
        OnClock {
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    /// Runs `f` on the clock and returns its result and wall time in ms.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        // The /proc reads stay outside the wall-clock interval.
        let cpu = process_cpu_seconds();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        self.wall_s += wall;
        self.cpu_s += process_cpu_seconds() - cpu;
        (out, wall * 1e3)
    }
}

fn leak<T>(value: T) -> &'static T {
    // A block's programs live as long as the process: platforms borrow
    // them, and a few KB per block is cheaper than threading lifetimes
    // through every result type.
    Box::leak(Box::new(value))
}

// ───────────────────────── Platform family ─────────────────────────

/// The three single-program workloads differ only in these settings.
struct PlatformSpec {
    scenario: fn() -> Scenario,
    pods: u32,
    execs: u32,
    warmup: u32,
    rounds: u32,
    /// Hang paths the warm-up injects before anything else (explore_deep).
    hang_paths: u32,
    /// Interpreter step budget — the hang threshold (0 = keep default).
    max_steps: u64,
}

/// The hang trigger of `scenarios::spin_wait()`: thread 0 skips setting
/// the flag when input 0 equals this, and thread 1 spins to the step
/// budget.
const SPIN_WAIT_TRIGGER: i64 = 42;

fn platform_spec(workload: &str) -> PlatformSpec {
    let base = PlatformSpec {
        scenario: scenarios::token_parser,
        pods: 100,
        execs: 30,
        warmup: 50,
        rounds: 400,
        hang_paths: 0,
        max_steps: 0,
    };
    match workload {
        "closed_loop" => base,
        "explore_wide" => PlatformSpec {
            scenario: scenarios::record_processor,
            pods: 40,
            warmup: 30,
            rounds: 60,
            ..base
        },
        "explore_deep" => PlatformSpec {
            scenario: scenarios::spin_wait,
            pods: 10,
            warmup: 6,
            rounds: 45,
            hang_paths: 2,
            max_steps: 4_000,
            ..base
        },
        other => unreachable!("{other} is not a Platform workload"),
    }
}

fn platform_config(spec: &PlatformSpec, s: &Scenario, ctx: &Ctx) -> PlatformConfig {
    let mut pod = PodConfig {
        input_range: s.input_range,
        ..PodConfig::default()
    };
    if spec.max_steps > 0 {
        pod.exec.max_steps = spec.max_steps;
    }
    if spec.hang_paths > 0 {
        // Natural inputs never hit the trigger, so the tree holds exactly
        // the hang paths the warm-up injects — the same shape under every
        // seed, where natural arrival would make round cost jump by 2x
        // at a seed-dependent round.
        pod.input_range = (SPIN_WAIT_TRIGGER + 1, s.input_range.1);
    }
    PlatformConfig {
        n_pods: spec.pods,
        pod,
        seed: ctx.seed,
        ..PlatformConfig::default()
    }
}

/// Runs every pod `execs` times and frames the traces in the sequence
/// layout `Platform::round_driven` expects (`seq = pod * frames_per_pod + k`).
fn drive(pods: &mut [Pod<'_>], batch: u64, execs: u32) -> DrivenExecution {
    let frames_per_pod = u64::from(execs).div_ceil(batch);
    let mut out = DrivenExecution::default();
    for (i, pod) in pods.iter_mut().enumerate() {
        let traces: Vec<_> = (0..execs)
            .map(|_| {
                let run = pod.run_once();
                out.executions += 1;
                out.failures += u64::from(run.result.outcome.is_failure());
                out.directed += u64::from(run.directed);
                run.trace
            })
            .collect();
        for (k, chunk) in traces.chunks(batch as usize).enumerate() {
            let seq = i as u64 * frames_per_pod + k as u64;
            out.frames.push((i as u64, seq, wire::encode_batch(chunk)));
        }
    }
    out
}

fn hang_directive() -> Directive {
    Directive::InputSeed {
        inputs: vec![SPIN_WAIT_TRIGGER],
        target: (BranchSiteId::new(0), false),
    }
}

/// Warm-up of a Platform workload. Returns, per injection round, how
/// many pods were handed a hang input, so the anatomy twin can replay
/// the schedule.
fn warm_platform(platform: &mut Platform<'_>, spec: &PlatformSpec, ctx: &Ctx) -> Vec<usize> {
    // Hang executions are injected until `hang_paths` distinct paths are
    // merged (a new path shows as a jump of about max_steps/3 nodes):
    // one input per missing path per round, so a round can never merge
    // more paths than are still wanted.
    let mut injected = Vec::new();
    let mut paths = 0;
    let jump = spec.max_steps / 4;
    while paths < spec.hang_paths && injected.len() < 64 {
        let wanted = (spec.hang_paths - paths) as usize;
        let before = platform.hive().tree().node_count();
        platform.round_driven(|pods, batch| {
            for pod in &mut pods[..wanted] {
                pod.receive_guidance([hang_directive()]);
            }
            drive(pods, batch, spec.execs)
        });
        injected.push(wanted);
        paths += ((platform.hive().tree().node_count() - before) / jump) as u32;
    }
    for _ in 0..ctx.warmup(spec.warmup) {
        platform.round(spec.execs);
    }
    injected
}

pub fn platform_window(workload: &str, ctx: &Ctx) -> Window {
    let spec = platform_spec(workload);
    let rounds = ctx.rounds(spec.rounds);
    let started = Instant::now();
    let s = leak((spec.scenario)());
    let mut platform = Platform::new(&s.program, platform_config(&spec, s, ctx));
    warm_platform(&mut platform, &spec, ctx);
    let mut w = Window {
        setup_s: started.elapsed().as_secs_f64(),
        ..Window::default()
    };

    let nodes_before = platform.hive().tree().node_count();
    let history_before = platform.history().len();
    let mut clock = OnClock::new();
    for _ in 0..rounds {
        let (report, ms) = clock.time(|| platform.round(spec.execs));
        w.round_ms.push(ms);
        w.executions += report.executions;
    }
    (w.wall_s, w.cpu_s, w.rss_mb) = (clock.wall_s, clock.cpu_s, peak_rss_mb());

    w.attempted = u64::from(rounds) * u64::from(spec.pods) * u64::from(spec.execs);
    w.failed = w.attempted.saturating_sub(w.executions);
    let v = &mut w.verdicts;
    v.check(
        "executions == rounds x pods x execs",
        w.executions == w.attempted,
    );
    let nodes = platform.hive().tree().node_count();
    w.exact.insert("tree_nodes", nodes);
    w.exact
        .insert("proofs", platform.history().last().map_or(0, |r| r.proofs));
    match workload {
        "closed_loop" => {
            let history = platform.history();
            let promoted: u64 = history.iter().map(|r| r.fixes_promoted).sum();
            v.check("at least one fix promoted", promoted >= 1);
            let rate = |rs: &[softborg::RoundReport]| {
                rs.iter().map(|r| r.failures).sum::<u64>() as f64
                    / rs.iter().map(|r| r.executions).sum::<u64>().max(1) as f64
            };
            let n = (history.len() / 4).max(1);
            v.check(
                "late failure rate <= early failure rate",
                rate(&history[history.len() - n..]) <= rate(&history[..n]),
            );
            let hit = platform.last_ingest().map_or(0.0, |s| s.cache_hit_rate());
            v.guard(format!("memo hit rate {hit:.4} >= 0.99"), hit >= 0.99);
            v.guard("tree unchanged over the window", nodes == nodes_before);
        }
        "explore_wide" => v.guard("tree still growing", nodes > nodes_before),
        "explore_deep" => {
            let merged = nodes >= u64::from(spec.hang_paths) * spec.max_steps / 4;
            v.guard(format!("{} hang paths merged", spec.hang_paths), merged);
            let hangs = platform.history()[history_before..]
                .iter()
                .map(|r| r.failures)
                .sum::<u64>();
            v.guard("no hang arrives inside the window", hangs == 0);
        }
        _ => {}
    }
    w
}

pub fn platform_anatomy(workload: &str, ctx: &Ctx, spans: &mut Spans) -> Anatomy {
    let spec = platform_spec(workload);
    let rounds = ctx.rounds(spec.rounds).div_ceil(3).max(2);
    let s = leak((spec.scenario)());
    let registry = MetricsRegistry::new();
    let cfg = PlatformConfig {
        obs: ObsHandles {
            registry: Some(registry.clone()),
            ..ObsHandles::default()
        },
        ..platform_config(&spec, s, ctx)
    };
    let mut platform = Platform::new(&s.program, cfg.clone());
    let mut twin = Twin::new(
        vec![(&s.program, cfg.pod.clone(), platform.export_pod_states())],
        &cfg.hive,
        TwinConfig {
            batch_size: cfg.ingest.batch_size,
            fixes_enabled: cfg.fixes_enabled,
            guidance_enabled: cfg.guidance_enabled,
            min_preservation_cases: cfg.min_preservation_cases,
            report_reads: true,
        },
    );

    // The platform: warm up, then measure with its telemetry attached.
    let injected = warm_platform(&mut platform, &spec, ctx);
    let mut side = PlatformSide::default();
    let history_before = platform.history().len();
    for _ in 0..rounds {
        let t = Instant::now();
        let report = platform.round(spec.execs);
        side.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        side.executions += report.executions;
        side.directed += report.directed;
        if let Some(stats) = platform.last_ingest() {
            side.add_ingest(stats);
        }
    }
    side.telemetry = platform.round_telemetry()[history_before..].to_vec();
    side.read_stage_histograms(&registry);
    side.state_bytes_final = platform.hive_state().len() as u64;
    side.nodes_final = platform.hive().tree().node_count();

    // The twin: the same rounds, every stage under a span.
    for pods in &injected {
        for pod in 0..*pods {
            twin.inject(0, pod, hang_directive());
        }
        twin.round(spec.execs, spans);
    }
    for _ in 0..ctx.warmup(spec.warmup) {
        twin.round(spec.execs, spans);
    }
    let window_start = injected.len() as u32 + ctx.warmup(spec.warmup);
    let counts_before = (twin.counts.clone(), twin.hive_totals());
    let twin_round_ns: Vec<u64> = (0..rounds).map(|_| twin.round(spec.execs, spans)).collect();

    let mut verdicts = Verdicts::default();
    verdicts.check(
        "twin hive state == platform hive state",
        twin.lanes[0].hive.encode_state() == platform.hive_state(),
    );
    verdicts.check(
        "executions == rounds x pods x execs",
        side.executions == u64::from(rounds) * u64::from(spec.pods) * u64::from(spec.execs),
    );
    anatomy::assemble(
        spans,
        window_start..window_start + rounds,
        &twin,
        &counts_before,
        &twin_round_ns,
        &side,
        verdicts,
    )
}

// ───────────────────────── fanin_replay ─────────────────────────

const FANIN_PODS: u64 = 4;
const FANIN_EXECS_PER_POD: usize = 1200;
const FANIN_BATCH: usize = 64;
const FANIN_SHARDS: usize = 2;
const FANIN_PASSES: u32 = 60;

/// E17's eight programs, ordered from most to least redundant traffic.
fn fanin_scenarios() -> Vec<Scenario> {
    vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::short_read_client(),
        scenarios::bank_transfer(),
        scenarios::spin_wait(),
        scenarios::racy_counter(),
        scenarios::dining_philosophers(3),
        scenarios::record_processor(),
    ]
}

/// The recorded corpus: per program its frames, plus the round-robin
/// interleaved stream a shared deployment would see.
struct Corpus {
    scenarios: &'static [Scenario],
    frames: Vec<Vec<Vec<u8>>>,
    stream: Vec<(ProgramId, Vec<u8>)>,
    traces: u64,
}

fn record_corpus(ctx: &Ctx) -> Corpus {
    let scenarios: &'static [Scenario] = leak(fanin_scenarios());
    let per_pod = if ctx.smoke {
        FANIN_EXECS_PER_POD / 10
    } else {
        FANIN_EXECS_PER_POD
    };
    // E17's pod seeds, rebased so that --seed 1 records E17's corpus.
    let seed_base = 999 + ctx.seed;
    let frames: Vec<Vec<Vec<u8>>> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut traces = Vec::with_capacity(FANIN_PODS as usize * per_pod);
            for p in 0..FANIN_PODS {
                let mut pod = Pod::new(
                    &s.program,
                    PodConfig {
                        input_range: s.input_range,
                        seed: seed_base * (i as u64 + 1) + p,
                        ..PodConfig::default()
                    },
                );
                traces.extend((0..per_pod).map(|_| pod.run_once().trace));
            }
            traces.chunks(FANIN_BATCH).map(wire::encode_batch).collect()
        })
        .collect();
    let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
    let mut stream = Vec::new();
    for i in 0..longest {
        for (s, program_frames) in scenarios.iter().zip(&frames) {
            if let Some(frame) = program_frames.get(i) {
                stream.push((s.program.id(), frame.clone()));
            }
        }
    }
    Corpus {
        scenarios,
        frames,
        stream,
        traces: (scenarios.len() * FANIN_PODS as usize * per_pod) as u64,
    }
}

/// Whether every lane of `twin` (lane `i` runs `scenarios[i]`) ended in
/// the same state bytes as that program's hive in `sharded`.
fn twin_matches(twin: &Twin<'_>, scenarios: &[Scenario], sharded: &ShardedHive<'_>) -> bool {
    scenarios.iter().zip(&twin.lanes).all(|(s, lane)| {
        sharded
            .hive(s.program.id())
            .is_ok_and(|h| h.encode_state() == lane.hive.encode_state())
    })
}

fn fanin_sharded(corpus: &Corpus) -> ShardedHive<'static> {
    let programs: Vec<_> = corpus.scenarios.iter().map(|s| &s.program).collect();
    ShardedHive::new(&programs, FANIN_SHARDS, &HiveConfig::default())
        .expect("distinct scenario programs place cleanly")
}

/// A digest of one hive state, so the pass-1 states need not be held
/// (4 MB) while the window is measured.
fn state_digest(state: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(state);
    h.finish()
}

pub fn fanin_window(ctx: &Ctx) -> Window {
    let passes = ctx.rounds(FANIN_PASSES);
    let started = Instant::now();
    let corpus = record_corpus(ctx);
    let mut sharded = fanin_sharded(&corpus);
    let cfg = IngestConfig::default();
    // Pass 1 fills the trees; it is the warm-up and, below, the output check.
    sharded
        .ingest_batch(corpus.stream.clone(), &cfg)
        .expect("every claimed program is placed");
    let after_pass_1: Vec<u64> = corpus
        .scenarios
        .iter()
        .map(|s| {
            sharded
                .hive(s.program.id())
                .map_or(0, |h| state_digest(&h.encode_state()))
        })
        .collect();
    let mut w = Window {
        setup_s: started.elapsed().as_secs_f64(),
        ..Window::default()
    };

    let mut clock = OnClock::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for _ in 0..passes {
        // Cloned off the clock: the pipeline is measured, not the
        // harness's copy of its input.
        let stream = corpus.stream.clone();
        let (stats, ms) = clock.time(|| {
            sharded
                .ingest_batch(stream, &cfg)
                .expect("every claimed program is placed")
        });
        w.round_ms.push(ms);
        w.executions += stats.traces_merged;
        w.attempted += stats.frames_submitted;
        w.failed += stats.frames_dropped + stats.frames_corrupt + stats.frames_unknown_program;
        hits += stats.cache_hits;
        misses += stats.cache_misses;
    }
    (w.wall_s, w.cpu_s, w.rss_mb) = (clock.wall_s, clock.cpu_s, peak_rss_mb());

    // Reference, built off the clock and after the memory reading: every
    // program's traffic once through serial `Hive::ingest`.
    let reference = corpus
        .scenarios
        .iter()
        .zip(&corpus.frames)
        .map(|(s, frames)| {
            let mut hive = Hive::new(&s.program, HiveConfig::default());
            for frame in frames {
                for trace in wire::decode_batch(frame).expect("self-produced frame") {
                    hive.ingest(&trace);
                }
            }
            state_digest(&hive.encode_state())
        });
    w.verdicts.check(
        "per-program state after pass 1 == serial reference",
        reference.eq(after_pass_1),
    );
    w.verdicts.check(
        "every recorded trace merged in every pass",
        w.executions == u64::from(passes) * corpus.traces,
    );
    let hit = hits as f64 / (hits + misses).max(1) as f64;
    w.verdicts.guard(
        format!("memo hit rate {hit:.3} in 0.6..0.9"),
        (0.6..=0.9).contains(&hit),
    );
    // Memo hits are not an exact count: which worker (and so which
    // per-worker memo) takes a frame depends on thread timing.
    w.exact.insert(
        "tree_nodes",
        sharded.hives().map(|(_, h)| h.tree().node_count()).sum(),
    );
    w
}

pub fn fanin_anatomy(ctx: &Ctx, spans: &mut Spans) -> Anatomy {
    let passes = ctx.rounds(FANIN_PASSES).div_ceil(3).max(2);
    let corpus = record_corpus(ctx);
    let registry = MetricsRegistry::new();
    let cfg = IngestConfig {
        obs: ObsHandles {
            registry: Some(registry.clone()),
            ..ObsHandles::default()
        },
        ..IngestConfig::default()
    };
    let mut sharded = fanin_sharded(&corpus);
    let mut side = PlatformSide::default();
    for pass in 0..=passes {
        let stream = corpus.stream.clone();
        let t = Instant::now();
        let stats = sharded
            .ingest_batch(stream, &cfg)
            .expect("every claimed program is placed");
        if pass > 0 {
            side.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
            side.executions += stats.traces_merged;
            side.add_shard_run(&stats);
        }
    }
    side.state_bytes_final = sharded
        .hives()
        .map(|(_, h)| h.encode_state().len() as u64)
        .sum();
    side.nodes_final = sharded.hives().map(|(_, h)| h.tree().node_count()).sum();

    // The twin: the same passes through serial hives, stage by stage.
    let mut twin = Twin::new(
        corpus
            .scenarios
            .iter()
            .map(|s| (&s.program, PodConfig::default(), Vec::new()))
            .collect(),
        &HiveConfig::default(),
        TwinConfig {
            batch_size: FANIN_BATCH,
            fixes_enabled: false,
            guidance_enabled: false,
            min_preservation_cases: 0,
            report_reads: false,
        },
    );
    twin.replay(&corpus.frames, spans);
    let counts_before = (twin.counts.clone(), twin.hive_totals());
    let twin_round_ns: Vec<u64> = (0..passes)
        .map(|_| twin.replay(&corpus.frames, spans))
        .collect();

    let mut verdicts = Verdicts::default();
    verdicts.check(
        "twin hive states == sharded hive states",
        twin_matches(&twin, corpus.scenarios, &sharded),
    );
    verdicts.check(
        "every recorded trace merged in every pass",
        side.executions == u64::from(passes) * corpus.traces,
    );
    anatomy::assemble(
        spans,
        1..1 + passes,
        &twin,
        &counts_before,
        &twin_round_ns,
        &side,
        verdicts,
    )
}

// ───────────────────────── fleet_durable ─────────────────────────

const FLEET_PODS: u32 = 10;
const FLEET_EXECS: u32 = 30;
const FLEET_SHARDS: usize = 2;
const FLEET_WARMUP: u32 = 30;
const FLEET_ROUNDS: u32 = 300;
/// The platform is dropped and resumed after every this many rounds.
const FLEET_RESUME_EVERY: u32 = 75;

/// The four programs of the durable fleet, in lane order (by program id).
fn fleet_scenarios() -> &'static [Scenario] {
    let mut all = vec![
        scenarios::token_parser(),
        scenarios::triangle(),
        scenarios::short_read_client(),
        scenarios::bank_transfer(),
    ];
    all.sort_by_key(|s| s.program.id());
    leak(all)
}

fn fleet_specs(scenarios: &'static [Scenario]) -> Vec<FleetSpec<'static>> {
    scenarios
        .iter()
        .map(|s| FleetSpec {
            program: &s.program,
            pod: PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
        })
        .collect()
}

fn fleet_config(ctx: &Ctx, obs: ObsHandles) -> MultiPlatformConfig {
    MultiPlatformConfig {
        n_pods: FLEET_PODS,
        n_shards: FLEET_SHARDS,
        seed: ctx.seed,
        durability: Some(DurabilityConfig::new(ctx.scratch.join("campaign"))),
        obs,
        ..MultiPlatformConfig::default()
    }
}

/// What a resume must bring back: every shard's state bytes and the
/// committed round, captured just before the platform is dropped.
struct BeforeDrop {
    shard_states: Vec<Vec<u8>>,
    committed: u64,
}

impl BeforeDrop {
    fn capture(platform: &MultiPlatform<'_>) -> Self {
        BeforeDrop {
            shard_states: (0..FLEET_SHARDS).map(|i| platform.shard_state(i)).collect(),
            committed: platform.committed_rounds(),
        }
    }

    fn verify(&self, resumed: &MultiPlatform<'_>, verdicts: &mut Verdicts) {
        let at = self.committed;
        verdicts.check(
            format!("shard states after resume at round {at} == before the drop"),
            (0..FLEET_SHARDS).all(|i| resumed.shard_state(i) == self.shard_states[i]),
        );
        verdicts.check(
            format!("committed_rounds continuous across resume at round {at}"),
            resumed.committed_rounds() == at,
        );
    }
}

fn resume(specs: &[FleetSpec<'static>], cfg: &MultiPlatformConfig) -> MultiPlatform<'static> {
    MultiPlatform::resume(specs, cfg.clone())
        .expect("resume of a cleanly dropped campaign")
        .0
}

pub fn fleet_window(ctx: &Ctx) -> (Window, Vec<f64>) {
    let rounds = ctx.rounds(FLEET_ROUNDS);
    let every = ctx.rounds(FLEET_RESUME_EVERY);
    let started = Instant::now();
    let scenarios = fleet_scenarios();
    let specs = fleet_specs(scenarios);
    let cfg = fleet_config(ctx, ObsHandles::default());
    let mut platform = MultiPlatform::new(&specs, cfg.clone());
    platform.run(ctx.warmup(FLEET_WARMUP), FLEET_EXECS);
    let mut w = Window {
        setup_s: started.elapsed().as_secs_f64(),
        ..Window::default()
    };

    let mut clock = OnClock::new();
    let mut resume_ms = Vec::new();
    for r in 1..=rounds {
        let (report, ms) = clock.time(|| platform.round(FLEET_EXECS));
        w.round_ms.push(ms);
        w.executions += report.executions;
        if r % every == 0 {
            let before = BeforeDrop::capture(&platform);
            drop(platform);
            let (resumed, ms) = clock.time(|| resume(&specs, &cfg));
            before.verify(&resumed, &mut w.verdicts);
            platform = resumed;
            resume_ms.push(ms);
        }
    }
    (w.wall_s, w.cpu_s, w.rss_mb) = (clock.wall_s, clock.cpu_s, peak_rss_mb());

    w.attempted =
        u64::from(rounds) * scenarios.len() as u64 * u64::from(FLEET_PODS) * u64::from(FLEET_EXECS);
    w.failed = w.attempted.saturating_sub(w.executions);
    w.verdicts.check(
        "executions == rounds x programs x pods x execs",
        w.executions == w.attempted,
    );
    w.verdicts.check(
        "committed_rounds == warm-up + measured rounds",
        platform.committed_rounds() == u64::from(ctx.warmup(FLEET_WARMUP) + rounds),
    );
    w.exact
        .insert("disk_bytes", dir_bytes(&ctx.scratch.join("campaign")));
    w.exact.insert(
        "tree_nodes",
        platform
            .sharded()
            .hives()
            .map(|(_, h)| h.tree().node_count())
            .sum(),
    );
    (w, resume_ms)
}

pub fn fleet_anatomy(ctx: &Ctx, spans: &mut Spans) -> Anatomy {
    let rounds = ctx.rounds(FLEET_ROUNDS).div_ceil(3).max(2);
    let every = ctx.rounds(FLEET_RESUME_EVERY).div_ceil(3).max(1);
    let warmup = ctx.warmup(FLEET_WARMUP);
    let scenarios = fleet_scenarios();
    let specs = fleet_specs(scenarios);
    let registry = MetricsRegistry::new();
    let cfg = fleet_config(
        ctx,
        ObsHandles {
            registry: Some(registry.clone()),
            ..ObsHandles::default()
        },
    );
    let mut platform = MultiPlatform::new(&specs, cfg.clone());
    let states = platform.export_pod_states();
    let mut twin = Twin::new(
        specs
            .iter()
            .zip(states)
            .map(|(spec, states)| (spec.program, spec.pod.clone(), states))
            .collect(),
        &cfg.hive,
        TwinConfig {
            batch_size: cfg.ingest.batch_size,
            fixes_enabled: cfg.fixes_enabled,
            guidance_enabled: cfg.guidance_enabled,
            min_preservation_cases: cfg.min_preservation_cases,
            report_reads: false,
        },
    )
    .with_journal(&ctx.scratch.join("twin"), FLEET_SHARDS)
    .expect("twin journal directory");

    let mut verdicts = Verdicts::default();
    let mut side = PlatformSide::default();
    platform.run(warmup, FLEET_EXECS);
    let mut telemetry_from = platform.round_telemetry().len();
    for r in 1..=rounds {
        let t = Instant::now();
        let report = platform.round(FLEET_EXECS);
        side.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        side.executions += report.executions;
        side.directed += report.programs.iter().map(|p| p.directed).sum::<u64>();
        if let Some(stats) = platform.last_run() {
            side.add_shard_run(stats);
        }
        if r % every == 0 || r == rounds {
            side.telemetry
                .extend_from_slice(&platform.round_telemetry()[telemetry_from..]);
            telemetry_from = 0;
        }
        if r % every == 0 {
            let before = BeforeDrop::capture(&platform);
            drop(platform);
            let t = Instant::now();
            platform = resume(&specs, &cfg);
            side.resume_ms.push(t.elapsed().as_secs_f64() * 1e3);
            before.verify(&platform, &mut verdicts);
        }
    }
    side.state_bytes_final = (0..FLEET_SHARDS)
        .map(|i| platform.shard_state(i).len() as u64)
        .sum();
    side.nodes_final = platform
        .sharded()
        .hives()
        .map(|(_, h)| h.tree().node_count())
        .sum();
    side.disk_bytes = dir_bytes(&ctx.scratch.join("campaign"));

    for _ in 0..warmup {
        twin.round(FLEET_EXECS, spans);
    }
    let counts_before = (twin.counts.clone(), twin.hive_totals());
    let twin_round_ns: Vec<u64> = (0..rounds)
        .map(|_| twin.round(FLEET_EXECS, spans))
        .collect();

    verdicts.check(
        "twin hive states == platform hive states",
        twin_matches(&twin, scenarios, platform.sharded()),
    );
    verdicts.check(
        "executions == rounds x programs x pods x execs",
        side.executions
            == u64::from(rounds)
                * scenarios.len() as u64
                * u64::from(FLEET_PODS)
                * u64::from(FLEET_EXECS),
    );
    anatomy::assemble(
        spans,
        warmup..warmup + rounds,
        &twin,
        &counts_before,
        &twin_round_ns,
        &side,
        verdicts,
    )
}
