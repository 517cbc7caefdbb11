//! The distributed hive: cooperative exploration over an unreliable
//! network (paper §4).
//!
//! "One way … is to statically split the execution tree and farm off
//! subtrees to worker nodes. Unfortunately, the contents and shape of the
//! execution tree remain unknown until the tree is actually explored …
//! Instead, SoftBorg partitions the execution tree dynamically." This
//! module models both strategies on top of [`softborg_netsim`]:
//! exploration work is abstracted into *chunks* (subtree workloads); a
//! coordinator farms chunks to workers over a lossy network with node
//! outages, and experiment E10 measures completion time and duplicated
//! work as loss and churn grow.
//!
//! * **Static** partitioning pins every chunk to one worker up front;
//!   timeouts can only retransmit to that same worker.
//! * **Dynamic** partitioning hands workers one chunk at a time and
//!   reassigns timed-out chunks to *other* workers — tolerating stragglers
//!   and outages at the cost of occasional duplicated work.

use serde::{Deserialize, Serialize};
use softborg_netsim::{Addr, FaultPlanError, Proc, SimConfig, SimTime, World, WorldCtx};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Partitioning {
    /// Chunks pinned to workers up front.
    Static,
    /// Chunks pulled/reassigned dynamically.
    Dynamic,
}

/// A scheduled worker outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// Worker index (0-based).
    pub worker: u32,
    /// Outage start (µs).
    pub at_us: u64,
    /// Recovery time (µs).
    pub until_us: u64,
}

/// Distributed-exploration configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistConfig {
    /// Number of worker nodes.
    pub workers: u32,
    /// Number of work chunks (subtree workloads).
    pub n_chunks: u32,
    /// Virtual work time per chunk (µs).
    pub work_us_per_chunk: u64,
    /// Coordinator retransmission timeout (µs).
    pub timeout_us: u64,
    /// Strategy.
    pub partitioning: Partitioning,
    /// Network loss, in parts per 1000.
    pub loss_per_mille: u32,
    /// Simulation seed.
    pub seed: u64,
    /// Worker outages.
    pub outages: Vec<Outage>,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 8,
            n_chunks: 64,
            work_us_per_chunk: 20_000,
            timeout_us: 120_000,
            partitioning: Partitioning::Dynamic,
            loss_per_mille: 0,
            seed: 0,
            outages: Vec::new(),
        }
    }
}

impl DistConfig {
    /// Validates the outage schedule and loss rate up front, so a bad
    /// sweep fails at config time instead of silently skipping entries.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] when an outage window is inverted
    /// (`until_us <= at_us`), an outage names a worker index out of
    /// range, or `loss_per_mille` exceeds 1000.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if self.loss_per_mille > 1000 {
            return Err(FaultPlanError::RateOutOfRange {
                what: "loss_per_mille",
                per_mille: self.loss_per_mille,
            });
        }
        for o in &self.outages {
            if o.until_us <= o.at_us {
                return Err(FaultPlanError::WindowInverted {
                    what: "outage",
                    start_us: o.at_us,
                    end_us: o.until_us,
                });
            }
            if o.worker >= self.workers {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "outage",
                    node: Addr(o.worker),
                    nodes: self.workers,
                });
            }
        }
        Ok(())
    }
}

/// Result of one distributed exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistReport {
    /// Whether every chunk completed within the simulation horizon.
    pub completed: bool,
    /// Virtual time when the last chunk completed (µs).
    pub completion_time_us: u64,
    /// Total chunk executions performed by workers.
    pub chunk_executions: u64,
    /// Executions beyond the first per chunk (wasted work).
    pub duplicated_executions: u64,
    /// Messages sent / dropped on the network.
    pub messages_sent: u64,
    /// Messages dropped by loss or dead nodes.
    pub messages_dropped: u64,
}

#[derive(Debug, Default)]
struct Shared {
    executions_per_chunk: Vec<u64>,
    done: Vec<bool>,
    completion_time: Option<u64>,
}

const TAG_TASK: u8 = 1;
const TAG_DONE: u8 = 2;

fn msg(tag: u8, chunk: u32) -> Vec<u8> {
    let mut v = vec![tag];
    v.extend_from_slice(&chunk.to_le_bytes());
    v
}

fn parse(payload: &[u8]) -> Option<(u8, u32)> {
    if payload.len() != 5 {
        return None;
    }
    Some((
        payload[0],
        u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]),
    ))
}

struct Worker {
    coordinator: Addr,
    work_us: u64,
    completed: HashSet<u32>,
    queue: std::collections::VecDeque<u32>,
    current: Option<u32>,
    shared: Rc<RefCell<Shared>>,
}

impl Worker {
    fn start_next(&mut self, ctx: &mut WorldCtx<'_>) {
        if self.current.is_none() {
            if let Some(next) = self.queue.pop_front() {
                self.current = Some(next);
                ctx.set_timer(self.work_us, u64::from(next));
            }
        }
    }
}

impl Proc for Worker {
    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        let Some((TAG_TASK, chunk)) = parse(&payload) else {
            return;
        };
        if self.completed.contains(&chunk) {
            // Already did it (the Done was probably lost): answer cheaply.
            ctx.send(self.coordinator, msg(TAG_DONE, chunk));
            return;
        }
        if self.current == Some(chunk) {
            // Retransmission of the in-flight chunk — and the recovery
            // path after an outage discarded the work timer: restart it.
            // (A duplicate fire is harmless; stale fires are ignored.)
            ctx.set_timer(self.work_us, u64::from(chunk));
            return;
        }
        if !self.queue.contains(&chunk) {
            self.queue.push_back(chunk);
        }
        match self.current {
            None => self.start_next(ctx),
            Some(cur) => {
                // Kick the in-flight chunk in case its timer was lost to
                // an outage; guarded against double-completion below.
                ctx.set_timer(self.work_us, u64::from(cur));
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut WorldCtx<'_>) {
        let chunk = tag as u32;
        if self.completed.contains(&chunk) || self.current != Some(chunk) {
            return; // stale duplicate
        }
        self.completed.insert(chunk);
        self.shared.borrow_mut().executions_per_chunk[chunk as usize] += 1;
        ctx.send(self.coordinator, msg(TAG_DONE, chunk));
        self.current = None;
        self.start_next(ctx);
    }
}

struct Coordinator {
    workers: Vec<Addr>,
    n_chunks: u32,
    timeout_us: u64,
    partitioning: Partitioning,
    /// Static: fixed owner per chunk. Dynamic: last assignee.
    assignee: Vec<usize>,
    queue: Vec<u32>,
    done_count: u32,
    reassign_rr: usize,
    shared: Rc<RefCell<Shared>>,
}

impl Coordinator {
    fn assign(&mut self, chunk: u32, worker_idx: usize, ctx: &mut WorldCtx<'_>) {
        self.assignee[chunk as usize] = worker_idx;
        ctx.send(self.workers[worker_idx], msg(TAG_TASK, chunk));
        ctx.set_timer(self.timeout_us, u64::from(chunk));
    }
}

impl Proc for Coordinator {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        match self.partitioning {
            Partitioning::Static => {
                for chunk in 0..self.n_chunks {
                    let w = (chunk as usize) % self.workers.len();
                    self.assign(chunk, w, ctx);
                }
            }
            Partitioning::Dynamic => {
                self.queue = (0..self.n_chunks).rev().collect();
                // Two-deep prefetch: keep each worker's local queue
                // non-empty across the Done/Task round trip.
                for _ in 0..2 {
                    for w in 0..self.workers.len() {
                        if let Some(chunk) = self.queue.pop() {
                            self.assign(chunk, w, ctx);
                        }
                    }
                }
            }
        }
    }

    fn on_message(&mut self, from: Addr, payload: Vec<u8>, ctx: &mut WorldCtx<'_>) {
        let Some((TAG_DONE, chunk)) = parse(&payload) else {
            return;
        };
        {
            let mut s = self.shared.borrow_mut();
            if !s.done[chunk as usize] {
                s.done[chunk as usize] = true;
                self.done_count += 1;
                if self.done_count == self.n_chunks {
                    s.completion_time = Some(ctx.now().0);
                }
            }
        }
        if self.partitioning == Partitioning::Dynamic {
            if let Some(next) = self.queue.pop() {
                let w = self.workers.iter().position(|a| *a == from).unwrap_or(0);
                self.assign(next, w, ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut WorldCtx<'_>) {
        let chunk = tag as u32;
        if self.shared.borrow().done[chunk as usize] {
            return;
        }
        match self.partitioning {
            Partitioning::Static => {
                // Can only retry the pinned owner.
                let w = self.assignee[chunk as usize];
                self.assign(chunk, w, ctx);
            }
            Partitioning::Dynamic => {
                // Reassign to the next worker round-robin (skipping the
                // current assignee).
                self.reassign_rr += 1;
                let mut w = self.reassign_rr % self.workers.len();
                if w == self.assignee[chunk as usize] {
                    w = (w + 1) % self.workers.len();
                }
                self.assign(chunk, w, ctx);
            }
        }
    }
}

/// Runs one distributed exploration and reports completion/duplication
/// metrics.
///
/// # Errors
///
/// Returns a [`FaultPlanError`] when [`DistConfig::validate`] rejects the
/// outage schedule or loss rate.
pub fn run_exploration(config: &DistConfig) -> Result<DistReport, FaultPlanError> {
    config.validate()?;
    let shared = Rc::new(RefCell::new(Shared {
        executions_per_chunk: vec![0; config.n_chunks as usize],
        done: vec![false; config.n_chunks as usize],
        completion_time: None,
    }));
    let mut world = World::new(SimConfig {
        seed: config.seed,
        link: softborg_netsim::LinkConfig {
            base_latency_us: 2_000,
            jitter_us: 1_000,
            loss_per_mille: config.loss_per_mille,
        },
        max_events: 2_000_000,
        ..SimConfig::default()
    });
    // Reserve the coordinator's address first so workers can know it.
    // Workers are added first; coordinator last (it needs their addrs).
    let worker_addrs: Vec<Addr> = (0..config.workers)
        .map(|_| {
            world.add_proc(Box::new(Worker {
                coordinator: Addr(config.workers), // the next node added
                work_us: config.work_us_per_chunk,
                completed: HashSet::new(),
                queue: std::collections::VecDeque::new(),
                current: None,
                shared: shared.clone(),
            }))
        })
        .collect();
    let coordinator = world.add_proc(Box::new(Coordinator {
        workers: worker_addrs.clone(),
        n_chunks: config.n_chunks,
        timeout_us: config.timeout_us,
        partitioning: config.partitioning,
        assignee: vec![0; config.n_chunks as usize],
        queue: Vec::new(),
        done_count: 0,
        reassign_rr: 0,
        shared: shared.clone(),
    }));
    debug_assert_eq!(coordinator, Addr(config.workers));
    for o in &config.outages {
        // validate() already rejected out-of-range workers and inverted
        // windows; every entry schedules.
        world.schedule_outage(Addr(o.worker), SimTime(o.at_us), SimTime(o.until_us));
    }
    // Horizon: generous multiple of the serial time.
    let serial = config.work_us_per_chunk * u64::from(config.n_chunks);
    world.run_until(SimTime(serial * 20 + 10_000_000));

    let s = shared.borrow();
    let executions: u64 = s.executions_per_chunk.iter().sum();
    let duplicated: u64 = s
        .executions_per_chunk
        .iter()
        .map(|&e| e.saturating_sub(1))
        .sum();
    Ok(DistReport {
        completed: s.completion_time.is_some(),
        completion_time_us: s.completion_time.unwrap_or(world.now().0),
        chunk_executions: executions,
        duplicated_executions: duplicated,
        messages_sent: world.net_stats().sent,
        messages_dropped: world.net_stats().dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(partitioning: Partitioning) -> DistConfig {
        DistConfig {
            workers: 4,
            n_chunks: 32,
            partitioning,
            ..DistConfig::default()
        }
    }

    #[test]
    fn lossless_runs_complete_without_duplication() {
        for p in [Partitioning::Static, Partitioning::Dynamic] {
            let r = run_exploration(&base(p)).expect("valid config");
            assert!(r.completed, "{p:?} did not complete");
            assert_eq!(r.duplicated_executions, 0, "{p:?} duplicated work");
            assert_eq!(r.chunk_executions, 32);
        }
    }

    #[test]
    fn dynamic_scales_with_workers() {
        let few = run_exploration(&DistConfig {
            workers: 2,
            ..base(Partitioning::Dynamic)
        })
        .expect("valid config");
        let many = run_exploration(&DistConfig {
            workers: 16,
            ..base(Partitioning::Dynamic)
        })
        .expect("valid config");
        assert!(few.completed && many.completed);
        assert!(
            many.completion_time_us < few.completion_time_us,
            "more workers should finish sooner: {} vs {}",
            many.completion_time_us,
            few.completion_time_us
        );
    }

    #[test]
    fn lossy_network_still_completes() {
        for p in [Partitioning::Static, Partitioning::Dynamic] {
            let r = run_exploration(&DistConfig {
                loss_per_mille: 150,
                ..base(p)
            })
            .expect("valid config");
            assert!(r.completed, "{p:?} under loss did not complete: {r:?}");
            assert!(r.messages_dropped > 0);
        }
    }

    #[test]
    fn outage_hurts_static_more_than_dynamic() {
        let outages = vec![Outage {
            worker: 0,
            at_us: 1_000,
            until_us: 2_000_000,
        }];
        let stat = run_exploration(&DistConfig {
            outages: outages.clone(),
            ..base(Partitioning::Static)
        })
        .expect("valid config");
        let dyn_ = run_exploration(&DistConfig {
            outages,
            ..base(Partitioning::Dynamic)
        })
        .expect("valid config");
        assert!(stat.completed && dyn_.completed);
        assert!(
            dyn_.completion_time_us < stat.completion_time_us,
            "dynamic should route around the outage: {} vs {}",
            dyn_.completion_time_us,
            stat.completion_time_us
        );
    }

    #[test]
    fn dynamic_reassignment_can_duplicate_work() {
        // Aggressive timeout + loss: dynamic reassigns chunks whose Done
        // messages were merely lost.
        let r = run_exploration(&DistConfig {
            loss_per_mille: 300,
            timeout_us: 30_000,
            seed: 3,
            ..base(Partitioning::Dynamic)
        })
        .expect("valid config");
        assert!(r.completed);
        assert!(
            r.duplicated_executions > 0,
            "expected duplicated work under loss: {r:?}"
        );
    }

    #[test]
    fn invalid_outages_fail_loudly_at_config_time() {
        let inverted = DistConfig {
            outages: vec![Outage {
                worker: 0,
                at_us: 5_000,
                until_us: 5_000,
            }],
            ..base(Partitioning::Dynamic)
        };
        assert!(matches!(
            run_exploration(&inverted),
            Err(FaultPlanError::WindowInverted { what: "outage", .. })
        ));
        let ghost = DistConfig {
            outages: vec![Outage {
                worker: 99,
                at_us: 0,
                until_us: 1,
            }],
            ..base(Partitioning::Dynamic)
        };
        assert!(matches!(
            run_exploration(&ghost),
            Err(FaultPlanError::NodeOutOfRange { what: "outage", .. })
        ));
        let drowned = DistConfig {
            loss_per_mille: 1500,
            ..base(Partitioning::Static)
        };
        assert!(matches!(
            run_exploration(&drowned),
            Err(FaultPlanError::RateOutOfRange {
                what: "loss_per_mille",
                per_mille: 1500
            })
        ));
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = DistConfig {
            loss_per_mille: 100,
            seed: 9,
            ..base(Partitioning::Dynamic)
        };
        assert_eq!(run_exploration(&cfg), run_exploration(&cfg));
    }
}
