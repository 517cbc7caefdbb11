//! Thread schedulers for the guest interpreter.
//!
//! The schedule is a source of non-determinism that pods record (paper,
//! §3.1) and that guidance can steer (paper, §3.3: "guide P in exploring
//! previously unseen thread schedules"). A schedule is simply the sequence
//! of thread picks; [`ScriptSched`] replays one, [`RandomSched`] samples
//! them, and [`PrioritySched`] biases toward a thread order — the mechanism
//! guidance directives use to provoke rare interleavings.

use crate::ids::ThreadId;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Picks the next thread to run among the runnable ones.
///
/// `runnable` is never empty and is sorted by thread id. Implementations
/// must be deterministic functions of their own state.
pub trait Scheduler {
    /// Chooses one element of `runnable` to execute the next step.
    fn pick(&mut self, runnable: &[ThreadId], step: u64) -> ThreadId;
}

/// Deterministic round-robin over thread ids.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: Option<ThreadId>,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at the lowest thread id.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    #[inline]
    fn pick(&mut self, runnable: &[ThreadId], _step: u64) -> ThreadId {
        let next = match self.last {
            None => runnable[0],
            Some(last) => *runnable.iter().find(|t| **t > last).unwrap_or(&runnable[0]),
        };
        self.last = Some(next);
        next
    }
}

/// Seeded uniform-random scheduling — the model of "natural" end-user
/// interleavings.
#[derive(Debug, Clone)]
pub struct RandomSched {
    rng: SmallRng,
    /// Every pick is appended here so the pod can record the schedule.
    picks: Vec<ThreadId>,
}

impl RandomSched {
    /// Creates a random scheduler from a seed.
    pub fn seeded(seed: u64) -> Self {
        Self::with_picks(seed, Vec::new())
    }

    /// Like [`seeded`](Self::seeded), recording picks into `picks`
    /// (cleared first) so a caller can reuse one buffer across runs.
    pub fn with_picks(seed: u64, mut picks: Vec<ThreadId>) -> Self {
        picks.clear();
        RandomSched {
            rng: SmallRng::seed_from_u64(seed),
            picks,
        }
    }

    /// The sequence of picks made so far.
    pub fn picks(&self) -> &[ThreadId] {
        &self.picks
    }

    /// Consumes the scheduler and returns the recorded schedule.
    pub fn into_picks(self) -> Vec<ThreadId> {
        self.picks
    }
}

impl Scheduler for RandomSched {
    #[inline]
    fn pick(&mut self, runnable: &[ThreadId], _step: u64) -> ThreadId {
        let t = uniform(&mut self.rng, runnable);
        self.picks.push(t);
        t
    }
}

/// `runnable[rng.gen_range(0..runnable.len())]`; a forced pick still
/// draws, keeping the stream aligned, but skips the division.
#[inline]
fn uniform(rng: &mut SmallRng, runnable: &[ThreadId]) -> ThreadId {
    match runnable {
        [only] => {
            rng.next_u64();
            *only
        }
        _ => runnable[rng.gen_range(0..runnable.len())],
    }
}

/// Replays a recorded schedule; falls back to round-robin when the script
/// runs out or the scripted thread is not currently runnable.
#[derive(Debug, Clone)]
pub struct ScriptSched {
    script: Vec<ThreadId>,
    pos: usize,
    fallback: RoundRobin,
}

impl ScriptSched {
    /// Creates a replay scheduler from a recorded pick sequence.
    pub fn new(script: Vec<ThreadId>) -> Self {
        ScriptSched {
            script,
            pos: 0,
            fallback: RoundRobin::new(),
        }
    }

    /// Starts the script over, as a fresh [`ScriptSched::new`] would.
    pub fn rewind(&mut self) {
        self.pos = 0;
        self.fallback = RoundRobin::new();
    }

    /// Number of scripted picks consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl Scheduler for ScriptSched {
    #[inline]
    fn pick(&mut self, runnable: &[ThreadId], step: u64) -> ThreadId {
        if let Some(t) = self.script.get(self.pos) {
            self.pos += 1;
            if runnable.contains(t) {
                return *t;
            }
        }
        self.fallback.pick(runnable, step)
    }
}

/// A schedule-steering hint: run threads in `order` preference with
/// probability `bias_per_mille`/1000 per pick, otherwise uniformly.
///
/// This is how guidance directives provoke specific interleavings without
/// full control of the schedule (pods still run autonomously).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleHint {
    /// Preferred thread priority order (earlier = more urgent).
    pub order: Vec<ThreadId>,
    /// How strongly to follow the order, in parts per 1000.
    pub bias_per_mille: u32,
}

/// Scheduler honoring a [`ScheduleHint`].
#[derive(Debug, Clone)]
pub struct PrioritySched {
    hint: ScheduleHint,
    rng: SmallRng,
    picks: Vec<ThreadId>,
}

impl PrioritySched {
    /// Creates a biased scheduler from a hint and a seed.
    pub fn new(hint: ScheduleHint, seed: u64) -> Self {
        PrioritySched {
            hint,
            rng: SmallRng::seed_from_u64(seed),
            picks: Vec::new(),
        }
    }

    /// The sequence of picks made so far.
    pub fn picks(&self) -> &[ThreadId] {
        &self.picks
    }

    /// Consumes the scheduler and returns the recorded schedule.
    pub fn into_picks(self) -> Vec<ThreadId> {
        self.picks
    }
}

impl Scheduler for PrioritySched {
    fn pick(&mut self, runnable: &[ThreadId], _step: u64) -> ThreadId {
        let follow = self.rng.gen_range(0..1000) < self.hint.bias_per_mille;
        let t = if follow {
            *self
                .hint
                .order
                .iter()
                .find(|t| runnable.contains(t))
                .unwrap_or(&runnable[0])
        } else {
            uniform(&mut self.rng, runnable)
        };
        self.picks.push(t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> Vec<ThreadId> {
        ids.iter().map(|&i| ThreadId::new(i)).collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let r = ts(&[0, 1, 2]);
        let picks: Vec<u32> = (0..6).map(|s| rr.pick(&r, s).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_blocked_threads() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&ts(&[0, 1, 2]), 0).0, 0);
        // Thread 1 blocked: runnable = {0, 2}; next after 0 is 2.
        assert_eq!(rr.pick(&ts(&[0, 2]), 1).0, 2);
        assert_eq!(rr.pick(&ts(&[0, 2]), 2).0, 0);
    }

    #[test]
    fn random_sched_is_reproducible_and_records() {
        let r = ts(&[0, 1]);
        let mut a = RandomSched::seeded(7);
        let mut b = RandomSched::seeded(7);
        for s in 0..20 {
            assert_eq!(a.pick(&r, s), b.pick(&r, s));
        }
        assert_eq!(a.picks().len(), 20);
    }

    #[test]
    fn script_sched_replays_exactly_then_falls_back() {
        let script = ts(&[1, 1, 0]);
        let mut s = ScriptSched::new(script);
        let r = ts(&[0, 1]);
        assert_eq!(s.pick(&r, 0).0, 1);
        assert_eq!(s.pick(&r, 1).0, 1);
        assert_eq!(s.pick(&r, 2).0, 0);
        assert_eq!(s.consumed(), 3);
        // Script exhausted: round-robin takes over deterministically.
        let t = s.pick(&r, 3);
        assert!(r.contains(&t));
    }

    #[test]
    fn script_sched_skips_unrunnable_scripted_thread() {
        let mut s = ScriptSched::new(ts(&[2]));
        let r = ts(&[0, 1]);
        let t = s.pick(&r, 0);
        assert!(r.contains(&t));
    }

    #[test]
    fn priority_sched_fully_biased_follows_order() {
        let hint = ScheduleHint {
            order: ts(&[1, 0]),
            bias_per_mille: 1000,
        };
        let mut s = PrioritySched::new(hint, 5);
        let r = ts(&[0, 1]);
        for step in 0..10 {
            assert_eq!(s.pick(&r, step).0, 1);
        }
        // When thread 1 is not runnable, next preference applies.
        assert_eq!(s.pick(&ts(&[0]), 10).0, 0);
    }

    #[test]
    fn priority_sched_unbiased_behaves_randomly_but_valid() {
        let hint = ScheduleHint {
            order: ts(&[1]),
            bias_per_mille: 0,
        };
        let mut s = PrioritySched::new(hint, 5);
        let r = ts(&[0, 1, 2]);
        for step in 0..50 {
            assert!(r.contains(&s.pick(&r, step)));
        }
    }
}
