//! The fixed workload a fault plan is judged against: one reliable
//! ingest campaign (pods streaming batched traces to the hive over the
//! session protocol) run under the virtual-time scheduler.
//!
//! Everything about the workload is pinned by the struct's fields —
//! scenario, trace seed, pod count, batching, link model, sim seed,
//! event fuel — so a [`RunOutcome`] is a pure function of
//! `(workload, plan)`. That purity is what the whole search rests on:
//! the oracles compare a faulty run against the same workload's
//! fault-free run, the shrinker re-runs candidate plans, and the corpus
//! replays minimized plans years later expecting the same
//! `sched_trace_hash` byte for byte.

use softborg_hive::{run_reliable_ingest, CanaryBug, Hive, HiveConfig, TransportConfig};
use softborg_ingest::IngestConfig;
use softborg_netsim::{FaultPlan, FaultPlanError, LinkConfig, SchedStats};
use softborg_obs::{FlightRecorder, ManualClock, ObsHandles};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios::{self, Scenario};
use softborg_trace::wire;
use std::sync::Arc;

/// The campaign a fault plan runs against. Node addresses follow the
/// transport convention: pods are `0..pods`, the hive server is `pods`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Which canonical scenario program the pods execute (index into
    /// the `softborg_program::scenarios` set, modulo 4).
    pub scenario: usize,
    /// Pod (client session) count.
    pub pods: usize,
    /// Total traces streamed across all pods.
    pub traces: usize,
    /// Traces per encoded batch frame.
    pub batch: usize,
    /// Seed for the pods' trace generation.
    pub traces_seed: u64,
    /// Simulation seed (link jitter, loss, fault draws).
    pub sim_seed: u64,
    /// Link model between every pair of nodes.
    pub link: LinkConfig,
    /// Event fuel per run. Must leave a correct run generous headroom:
    /// a run cut by fuel reports `completed = false`, which the oracle
    /// treats as a divergence (that is exactly how livelock bugs are
    /// caught, so the margin must never be tight for healthy runs).
    pub max_events: u64,
    /// Flight-recorder ring capacity per source (affects only the
    /// explain report, never the schedule).
    pub recorder_cap: usize,
    /// Injected platform bug, if any ([`CanaryBug`]). Every canary is
    /// dormant until a server crash, so the fault-free baseline stays
    /// valid under the same setting.
    pub canary: Option<CanaryBug>,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            scenario: 0,
            pods: 3,
            traces: 36,
            batch: 4,
            traces_seed: 0xB0 ^ 21,
            sim_seed: 11,
            link: LinkConfig {
                base_latency_us: 800,
                jitter_us: 500,
                loss_per_mille: 50,
            },
            max_events: 300_000,
            recorder_cap: 4096,
            canary: None,
        }
    }
}

/// Everything observable about one run of the workload under a plan.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The hive's order-invariant merge state: execution-tree digest,
    /// `HiveStats`, and coverage, encoded as bytes — the
    /// byte-identity oracle's subject. Deliberately *not*
    /// [`Hive::encode_state`]: the full encoding pins insertion order
    /// (overlay history, node ids), which faults legitimately permute.
    pub state: Vec<u8>,
    /// Scheduler statistics, including the dispatch-trace hash.
    pub sched: SchedStats,
    /// Every session delivered its whole sequence and saw it acked.
    pub completed: bool,
    /// Frames accepted first-time by the server.
    pub delivered: u64,
    /// Tombstoned slots accepted (client-shed frames).
    pub tombstones: u64,
    /// Frames clients shed under pressure.
    pub shed: u64,
    /// Records covered by the synced journal (== acked frames).
    pub acked: u64,
    /// Server crash→restart recoveries.
    pub recoveries: u64,
    /// Traces that reached the merge sink.
    pub traces_merged: u64,
    /// The run's transport flight recorder (for `explain_recorders`).
    pub recorder: FlightRecorder,
}

impl Workload {
    /// The scenario program this workload runs.
    fn scenario_def(&self) -> Scenario {
        match self.scenario % 4 {
            0 => scenarios::token_parser(),
            1 => scenarios::triangle(),
            2 => scenarios::record_processor(),
            _ => scenarios::bank_transfer(),
        }
    }

    /// Node count of the simulated network (`pods` clients + 1 server).
    pub fn node_count(&self) -> u32 {
        self.pods as u32 + 1
    }

    /// Frames the campaign streams in total (`ceil(traces / batch)`).
    pub fn frames(&self) -> u64 {
        (self.traces as u64).div_ceil(self.batch as u64)
    }

    fn sessions(&self, s: &Scenario) -> Vec<Vec<(u8, Vec<u8>)>> {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: self.traces_seed,
                ..PodConfig::default()
            },
        );
        let traces: Vec<_> = (0..self.traces).map(|_| pod.run_once().trace).collect();
        let mut out = vec![Vec::new(); self.pods.max(1)];
        for (i, chunk) in traces.chunks(self.batch.max(1)).enumerate() {
            out[i % self.pods.max(1)].push((1u8, wire::encode_batch(chunk)));
        }
        out
    }

    fn transport_config(
        &self,
        plan: &FaultPlan,
        max_events: u64,
        recorder: FlightRecorder,
    ) -> TransportConfig {
        TransportConfig {
            seed: self.sim_seed,
            link: self.link,
            faults: plan.clone(),
            max_events,
            canary: self.canary,
            obs: ObsHandles {
                registry: None,
                recorder,
            },
            ..TransportConfig::default()
        }
    }

    /// Runs the workload under `plan` and returns the full outcome.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] when `plan` fails validation
    /// against this workload's node count.
    pub fn run(&self, plan: &FaultPlan) -> Result<RunOutcome, FaultPlanError> {
        let s = self.scenario_def();
        let recorder = FlightRecorder::new(Arc::new(ManualClock::new(0)), self.recorder_cap);
        let cfg = self.transport_config(plan, self.max_events, recorder.clone());
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let (report, stats) = run_reliable_ingest(
            &mut hive,
            self.sessions(&s),
            &IngestConfig::default(),
            &cfg,
            &[],
        )?;
        let state = format!(
            "{:016x}|{:?}|{:?}",
            hive.tree().digest(),
            hive.stats(),
            hive.coverage()
        )
        .into_bytes();
        Ok(RunOutcome {
            state,
            sched: report.sched,
            completed: report.completed,
            delivered: report.delivered,
            tombstones: report.tombstones,
            shed: report.shed,
            acked: report.acked,
            recoveries: report.recoveries,
            traces_merged: stats.traces_merged,
            recorder,
        })
    }

    /// A prefix probe: the same run with its fuel cut to `max_events`
    /// dispatches. The dispatch-trace hash folds events in dispatch
    /// order, so the probe yields the hash of the full run's first
    /// `max_events` dispatches; the bisector binary-searches these to
    /// localize two runs' first divergent dispatch.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] when `plan` fails validation
    /// against this workload's node count.
    pub fn run_prefix(
        &self,
        plan: &FaultPlan,
        max_events: u64,
    ) -> Result<SchedStats, FaultPlanError> {
        let s = self.scenario_def();
        let cfg = self.transport_config(plan, max_events, FlightRecorder::disabled());
        let mut hive = Hive::new(&s.program, HiveConfig::default());
        let (report, _) = run_reliable_ingest(
            &mut hive,
            self.sessions(&s),
            &IngestConfig::default(),
            &cfg,
            &[],
        )?;
        Ok(report.sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_runs_replay_identically() {
        let w = Workload {
            traces: 12,
            max_events: 150_000,
            ..Workload::default()
        };
        let a = w.run(&FaultPlan::default()).expect("valid");
        let b = w.run(&FaultPlan::default()).expect("valid");
        assert!(a.completed);
        assert_eq!(a.sched.trace_hash, b.sched.trace_hash);
        assert_eq!(a.state, b.state);
        assert_eq!(a.traces_merged, 12);
        assert_eq!(a.acked, w.frames());
    }

    #[test]
    fn prefix_probe_hashes_the_dispatch_prefix() {
        let w = Workload {
            traces: 12,
            max_events: 150_000,
            ..Workload::default()
        };
        let full = w.run(&FaultPlan::default()).expect("valid");
        let again = w
            .run_prefix(&FaultPlan::default(), full.sched.events_dispatched)
            .expect("valid");
        assert_eq!(again.trace_hash, full.sched.trace_hash);
        let half = w
            .run_prefix(&FaultPlan::default(), full.sched.events_dispatched / 2)
            .expect("valid");
        assert_ne!(half.trace_hash, full.sched.trace_hash);
        let half2 = w
            .run_prefix(&FaultPlan::default(), full.sched.events_dispatched / 2)
            .expect("valid");
        assert_eq!(half.trace_hash, half2.trace_hash, "prefix probes replay");
    }
}
