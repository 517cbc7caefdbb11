//! Turns one traced block — the twin's spans and counts plus the stats
//! the crates export from the real platform — into the per-layer
//! metrics and the layer-group shares of a round.

use crate::spans::Spans;
use crate::stats::median;
use crate::twin::{Twin, TwinCounts};
use crate::workloads::Verdicts;
use softborg::ingest::IngestStats;
use softborg::obs::MetricsRegistry;
use softborg::shard::ShardRunStats;
use softborg::RoundTelemetry;
use std::collections::BTreeMap;
use std::ops::Range;

/// What the real platform reported over the measured rounds of a traced
/// block (`last_ingest`, `last_run`, `round_telemetry`, and the
/// `ingest.stage.*` histograms of an attached registry).
#[derive(Debug, Default)]
pub struct PlatformSide {
    pub round_ms: Vec<f64>,
    pub executions: u64,
    pub directed: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    frames_submitted: u64,
    frames_lost: u64,
    traces_merged: u64,
    queue_high_water: usize,
    worker_busy_ns: u64,
    pipeline_wall_ns: u64,
    workers: usize,
    stage_work_ns_mean: f64,
    merge_wait_ns_mean: f64,
    rerouted_or_unknown: u64,
    imbalance: Vec<f64>,
    shard_run_ms: Vec<f64>,
    pub telemetry: Vec<RoundTelemetry>,
    pub resume_ms: Vec<f64>,
    pub disk_bytes: u64,
    pub state_bytes_final: u64,
    pub nodes_final: u64,
}

impl PlatformSide {
    /// Folds in one round's single-hive pipeline stats.
    pub fn add_ingest(&mut self, s: &IngestStats) {
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.cache_evictions += s.cache_evictions;
        self.frames_submitted += s.frames_submitted;
        self.frames_lost += s.frames_dropped + s.frames_corrupt;
        self.traces_merged += s.traces_merged;
        self.queue_high_water = self.queue_high_water.max(s.queue_high_water);
        self.worker_busy_ns += s.worker_busy_ns;
        self.pipeline_wall_ns += s.wall_ns;
        self.workers = s.workers;
    }

    /// Folds in one run of the sharded pipeline.
    pub fn add_shard_run(&mut self, s: &ShardRunStats) {
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.cache_evictions += s.cache_evictions;
        self.frames_submitted += s.frames_submitted;
        self.frames_lost += s.frames_dropped + s.frames_corrupt;
        self.traces_merged += s.traces_merged;
        self.queue_high_water = self.queue_high_water.max(s.queue_high_water);
        self.worker_busy_ns += s.worker_busy_ns;
        self.pipeline_wall_ns += s.wall_ns;
        self.workers = s.workers;
        self.rerouted_or_unknown += s.frames_rerouted + s.frames_unknown_program;
        self.imbalance.push(s.imbalance_ratio());
        self.shard_run_ms.push(s.wall_ns as f64 / 1e6);
        // The sharded pipeline keeps no per-frame histograms; its work
        // per frame is the workers' busy time over the frames merged.
        if self.frames_submitted > 0 {
            self.stage_work_ns_mean = self.worker_busy_ns as f64 / self.frames_submitted as f64;
        }
    }

    /// Reads the per-frame stage histograms the single-hive pipeline
    /// records when a registry is attached.
    pub fn read_stage_histograms(&mut self, registry: &MetricsRegistry) {
        let report = registry.snapshot();
        let mean = |path: &str| report.histogram(path).map_or(0.0, |h| h.mean() as f64);
        self.stage_work_ns_mean = mean("ingest.stage.work_ns");
        self.merge_wait_ns_mean = mean("ingest.stage.merge_wait_ns");
    }
}

/// One traced block's results.
#[derive(Debug)]
pub struct Anatomy {
    /// Per-layer metric values, by their `BENCHMARK.json` names.
    pub layers: BTreeMap<&'static str, f64>,
    /// Share of the twin's round wall time per span name (self time).
    pub stage_share: BTreeMap<&'static str, f64>,
    /// The same, folded into the layer groups of the README.
    pub group_share: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub verdicts: Verdicts,
}

/// The layer group a twin stage belongs to.
fn group_of(stage: &str) -> &'static str {
    match stage {
        "pod.run_once" | "trace.encode_batch" => "pod+trace",
        "hive.proofs" | "guidance.plan" | "tree.coverage" => "tree_reads",
        "trace.decode_batch" | "trace.reconstruct" | "tree.merge_path" | "hive.apply_processed" => {
            "ingest+tree_writes"
        }
        "pod.export_state"
        | "hive.journal_append"
        | "hive.journal_sync"
        | "hive.encode_state"
        | "store.checkpoint" => "durability",
        "fix.propose" | "fix.rank" | "hive.promote" => "fix",
        _ => "core",
    }
}

pub fn assemble(
    spans: &Spans,
    window: Range<u32>,
    twin: &Twin<'_>,
    before: &(TwinCounts, (u64, u64, u64)),
    twin_round_ns: &[u64],
    side: &PlatformSide,
    mut verdicts: Verdicts,
) -> Anatomy {
    let rounds = twin_round_ns.len().max(1) as f64;
    let by_round = spans.self_ns_by_round(window.clone());
    let all_rounds = spans.self_ns_by_round(0..window.end);
    let round_wall_ns: f64 = twin_round_ns.iter().sum::<u64>() as f64;

    // Window totals of self time per stage, and per-round samples.
    let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
    for stages in by_round.values() {
        for (name, ns) in stages {
            *total.entry(name).or_default() += *ns as f64;
        }
    }
    let stage = |name: &str| total.get(name).copied().unwrap_or(0.0);
    let samples_ms =
        |rounds: &BTreeMap<u32, BTreeMap<&'static str, u64>>, name: &str| -> Vec<f64> {
            rounds
                .values()
                .filter_map(|stages| stages.get(name))
                .map(|ns| *ns as f64 / 1e6)
                .collect()
        };

    let (c0, (recon0, unrecon0, new0)) = before;
    let c1 = &twin.counts;
    let (recon1, unrecon1, new1) = twin.hive_totals();
    let execs = (c1.executions - c0.executions) as f64;
    let traces = ((c1.traces - c0.traces) as f64).max(1.0);
    let merged_paths = ((recon1 - recon0) as f64).max(1.0);
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let stage_sum: f64 = total
        .iter()
        .filter(|(n, _)| **n != "round")
        .map(|(_, v)| v)
        .sum();
    let glue_ms: Vec<f64> = by_round
        .values()
        .map(|s| {
            let ns = |n: &str| s.get(n).copied().unwrap_or(0);
            (ns("round") + ns("core.distribute_overlay")) as f64 / 1e6
        })
        .collect();
    // Rounds whose timer never ran (no registry, nothing to commit) read 0.
    let telemetry_ms = |f: fn(&RoundTelemetry) -> u64| -> Vec<f64> {
        side.telemetry
            .iter()
            .map(f)
            .filter(|ns| *ns > 0)
            .map(|ns| ns as f64 / 1e6)
            .collect()
    };
    let checkpoints: Vec<&RoundTelemetry> = side.telemetry.iter().filter(|t| t.compacted).collect();
    let twin_p50_ms = median(
        &twin_round_ns
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let platform_p50_ms = median(&side.round_ms);

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        layers.insert(name, if value.is_finite() { value } else { 0.0 });
    };
    put(
        "program.steps_per_exec",
        div((c1.steps - c0.steps) as f64, execs),
    );
    put(
        "pod.run_us_p50",
        div(
            median(&samples_ms(&by_round, "pod.run_once")) * 1e3,
            execs / rounds,
        ),
    );
    put(
        "pod.share_of_round",
        div(stage("pod.run_once"), round_wall_ns),
    );
    put(
        "pod.state_bytes_per_round",
        (c1.pod_state_bytes - c0.pod_state_bytes) as f64 / rounds,
    );
    put(
        "trace.encode_ns_per_trace",
        stage("trace.encode_batch") / traces,
    );
    put(
        "trace.decode_ns_per_trace",
        stage("trace.decode_batch") / traces,
    );
    put(
        "trace.reconstruct_us_p50",
        median(&samples_ms(&by_round, "trace.reconstruct")) * 1e3 / (traces / rounds),
    );
    put(
        "trace.wire_bytes_per_trace",
        (c1.wire_bytes - c0.wire_bytes) as f64 / traces,
    );
    put(
        "trace.unreconstructed_share",
        (unrecon1 - unrecon0) as f64 / traces,
    );
    put(
        "ingest.memo_hit_rate",
        div(
            side.cache_hits as f64,
            (side.cache_hits + side.cache_misses) as f64,
        ),
    );
    put(
        "ingest.memo_evictions_per_ktrace",
        div(
            side.cache_evictions as f64 * 1000.0,
            side.traces_merged as f64,
        ),
    );
    put("ingest.stage_work_us_mean", side.stage_work_ns_mean / 1e3);
    put("ingest.merge_wait_us_mean", side.merge_wait_ns_mean / 1e3);
    put("ingest.queue_high_water", side.queue_high_water as f64);
    put(
        "ingest.worker_busy_frac",
        div(
            side.worker_busy_ns as f64,
            side.pipeline_wall_ns as f64 * side.workers.max(1) as f64,
        ),
    );
    put("ingest.frames_lost", side.frames_lost as f64);
    put("shard.imbalance_ratio", median(&side.imbalance));
    put(
        "shard.rerouted_or_unknown_frames",
        side.rerouted_or_unknown as f64,
    );
    put("shard.run_ms_p50", median(&side.shard_run_ms));
    put(
        "tree.merge_ns_per_path",
        stage("tree.merge_path") / merged_paths,
    );
    put(
        "tree.coverage_ms_p50",
        median(&samples_ms(&by_round, "tree.coverage")),
    );
    put("tree.nodes_final", side.nodes_final as f64);
    put("tree.max_depth", c1.max_path_len as f64);
    put(
        "tree.new_nodes_per_kexec",
        div((new1 - new0) as f64 * 1000.0, execs),
    );
    put(
        "analysis.detectors_us_per_trace",
        (stage("hive.apply_processed") - stage("tree.merge_path")).max(0.0) / traces / 1e3,
    );
    put(
        "hive.ingest_us_per_trace",
        (stage("trace.reconstruct") + stage("hive.apply_processed")) / traces / 1e3,
    );
    put(
        "hive.proofs_ms_p50",
        median(&samples_ms(&by_round, "hive.proofs")),
    );
    put(
        "hive.proofs_share_of_round",
        div(stage("hive.proofs"), round_wall_ns),
    );
    put(
        "hive.encode_state_ms_p50",
        median(&samples_ms(&by_round, "hive.encode_state")),
    );
    put("hive.state_bytes_final", side.state_bytes_final as f64);
    put(
        "hive.wal_bytes_per_round",
        (c1.wal_bytes - c0.wal_bytes) as f64 / rounds,
    );
    put("hive.fsync_ms_p50", median(&telemetry_ms(|t| t.fsync_ns)));
    put(
        "hive.fsyncs_per_round",
        (c1.fsyncs - c0.fsyncs) as f64 / rounds,
    );
    put("hive.commit_ms_p50", median(&telemetry_ms(|t| t.commit_ns)));
    // Fixes land in the warm-up, so the fix stages are read over every
    // round the twin ran, not only the measured window.
    put(
        "fix.propose_ms_p50",
        median(&samples_ms(&all_rounds, "fix.propose")),
    );
    put(
        "fix.rank_ms_p50",
        median(&samples_ms(&all_rounds, "fix.rank")),
    );
    put("fix.promoted_total", c1.promoted as f64);
    put(
        "fix.rounds_to_first_promotion",
        c1.first_promotion_round.map_or(0.0, |r| f64::from(r) + 1.0),
    );
    put(
        "guidance.plan_ms_p50",
        median(&samples_ms(&by_round, "guidance.plan")),
    );
    put(
        "guidance.directed_share",
        div((c1.directed - c0.directed) as f64, execs),
    );
    put(
        "store.ckpt_bytes_p50",
        median(
            &checkpoints
                .iter()
                .map(|t| t.checkpoint_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "store.ckpt_ms_p50",
        median(
            &checkpoints
                .iter()
                .map(|t| t.checkpoint_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "store.ckpts_per_kround",
        div(
            checkpoints.len() as f64 * 1000.0,
            side.telemetry.len() as f64,
        ),
    );
    put("store.resume_ms_p50", median(&side.resume_ms));
    put("store.disk_mb_final", side.disk_bytes as f64 / 1e6);
    // The platform's own rounds (registry attached): the tail no bound
    // could be put on (README, *Noise*).
    put(
        "core.round_ms_p90",
        crate::stats::percentile(&side.round_ms, 90.0).unwrap_or(0.0),
    );
    put("core.round_overhead_ms_p50", median(&glue_ms));
    put("core.stage_sum_over_round", div(stage_sum, round_wall_ns));
    put(
        "core.trace_overhead_frac",
        div(twin_p50_ms, platform_p50_ms) - 1.0,
    );

    // Shares of the twin's round, by stage and by layer group.
    let mut stage_share = BTreeMap::new();
    let mut group_share: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, ns) in &total {
        let share = div(*ns, round_wall_ns);
        stage_share.insert(*name, share);
        *group_share.entry(group_of(name)).or_default() += share;
    }
    let reconciled = div(stage_sum, round_wall_ns);
    verdicts.guards.push((
        format!("twin stage self-times sum to {reconciled:.3} of the twin round (>= 0.9)"),
        reconciled >= 0.9,
    ));
    Anatomy {
        layers,
        stage_share,
        group_share,
        attempted: side.executions,
        failed: 0,
        verdicts,
    }
}
