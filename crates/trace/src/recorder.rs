//! The recording observer a pod installs under the interpreter.
//!
//! [`TraceRecorder`] implements [`Observer`] and captures exactly what the
//! active [`RecordingPolicy`] asks for; [`TraceRecorder::finish`] seals the
//! run into an [`ExecutionTrace`]. A pod keeps one recorder for its whole
//! life: [`TraceRecorder::reset`] starts the next run on the buffers the
//! last one grew, and [`TraceRecorder::finish_into`] seals a run into a
//! trace the caller keeps by swapping buffers with it, so a warm recorder
//! allocates nothing.

use crate::bitvec::BitVec;
use crate::record::{ExecutionTrace, GlobalAccessSummary, RecordingPolicy};
use softborg_program::cfg::{Loc, SyscallKind};
use softborg_program::interp::{Observer, Outcome};
use softborg_program::{BranchSiteId, GlobalId, LockId, ProgramId, ThreadId};

#[derive(Debug, Default)]
struct GlobalStats {
    reader_mask: u32,
    writer_mask: u32,
    /// The running intersection (ascending) of the locks held at each
    /// access; meaningful once a mask is non-zero.
    lockset: Vec<u32>,
}

/// Records by-products during one execution. See the [module docs](self).
#[derive(Debug)]
pub struct TraceRecorder {
    program: ProgramId,
    policy: RecordingPolicy,
    overlay_version: u64,
    multi_threaded: bool,
    bits: BitVec,
    guard_bits: BitVec,
    syscall_rets: Vec<i64>,
    schedule: Vec<u32>,
    dep_counter: u64,
    n_branches: u64,
    /// Distinct `(held, then acquired)` pairs, ascending.
    lock_pairs: Vec<(u32, u32)>,
    /// Indexed by global id; a global not accessed this run has both
    /// masks zero.
    globals: Vec<GlobalStats>,
    /// Lockset buffers of summaries a shorter trace dropped, for the
    /// next longer one.
    spare_locksets: Vec<Vec<u32>>,
}

impl TraceRecorder {
    /// Starts recording for `program` under `policy`.
    ///
    /// `multi_threaded` controls whether schedule picks are recorded (a
    /// single-threaded schedule is trivial and recording it would charge
    /// the experiments for bytes the paper's design never ships).
    pub fn new(
        program: ProgramId,
        policy: RecordingPolicy,
        overlay_version: u64,
        multi_threaded: bool,
    ) -> Self {
        TraceRecorder {
            program,
            policy,
            overlay_version,
            multi_threaded,
            bits: BitVec::new(),
            guard_bits: BitVec::new(),
            syscall_rets: Vec::new(),
            schedule: Vec::new(),
            dep_counter: 0,
            n_branches: 0,
            lock_pairs: Vec::new(),
            globals: Vec::new(),
            spare_locksets: Vec::new(),
        }
    }

    /// Starts a new recording under `overlay_version`, as a fresh
    /// [`new`](Self::new) would, keeping every buffer's capacity.
    pub fn reset(&mut self, overlay_version: u64) {
        self.overlay_version = overlay_version;
        self.bits.clear();
        self.guard_bits.clear();
        self.syscall_rets.clear();
        self.schedule.clear();
        self.dep_counter = 0;
        self.n_branches = 0;
        self.lock_pairs.clear();
        for g in &mut self.globals {
            g.reader_mask = 0;
            g.writer_mask = 0;
        }
    }

    /// Seals the recording into a trace.
    pub fn finish(mut self, outcome: Outcome, steps: u64) -> ExecutionTrace {
        let mut trace = ExecutionTrace::empty(self.program, self.policy);
        self.finish_into(outcome, steps, &mut trace);
        trace
    }

    /// Seals the recording into `trace`, overwriting all of it: the
    /// recorded buffers are swapped in, so the recorder keeps `trace`'s
    /// old ones for its next run, and each global summary reuses an
    /// earlier one's lockset. Call [`reset`](Self::reset) before
    /// recording again.
    pub fn finish_into(&mut self, outcome: Outcome, steps: u64, trace: &mut ExecutionTrace) {
        use std::mem::swap;
        trace.program = self.program;
        trace.policy = self.policy;
        swap(&mut trace.bits, &mut self.bits);
        swap(&mut trace.guard_bits, &mut self.guard_bits);
        swap(&mut trace.syscall_rets, &mut self.syscall_rets);
        swap(&mut trace.schedule, &mut self.schedule);
        swap(&mut trace.lock_pairs, &mut self.lock_pairs);
        trace.steps = steps;
        trace.outcome = outcome;
        trace.overlay_version = self.overlay_version;
        let summaries = &mut trace.global_summaries;
        let mut n = 0;
        for (g, global) in self.globals.iter().zip(0..) {
            if g.reader_mask | g.writer_mask == 0 {
                continue;
            }
            if n == summaries.len() {
                summaries.push(GlobalAccessSummary {
                    global,
                    reader_mask: 0,
                    writer_mask: 0,
                    lockset: self.spare_locksets.pop().unwrap_or_default(),
                });
            }
            let s = &mut summaries[n];
            s.global = global;
            s.reader_mask = g.reader_mask;
            s.writer_mask = g.writer_mask;
            s.lockset.clear();
            s.lockset.extend_from_slice(&g.lockset);
            n += 1;
        }
        (self.spare_locksets).extend(summaries.drain(n..).map(|s| s.lockset));
    }
}

impl Observer for TraceRecorder {
    #[inline]
    fn on_branch(
        &mut self,
        _thread: ThreadId,
        _site: BranchSiteId,
        taken: bool,
        input_dependent: bool,
    ) {
        self.n_branches += 1;
        match self.policy {
            RecordingPolicy::OutcomeOnly => {}
            RecordingPolicy::FullBranch => self.bits.push(taken),
            RecordingPolicy::InputDependent => {
                if input_dependent {
                    self.bits.push(taken);
                }
            }
            RecordingPolicy::Sampled { period, phase } => {
                if input_dependent {
                    if period > 0
                        && self.dep_counter % u64::from(period) == u64::from(phase % period)
                    {
                        self.bits.push(taken);
                    }
                    self.dep_counter += 1;
                }
            }
        }
    }

    #[inline]
    fn on_schedule(&mut self, thread: ThreadId) {
        if self.multi_threaded && self.policy != RecordingPolicy::OutcomeOnly {
            self.schedule.push(thread.0);
        }
    }

    fn on_syscall(&mut self, _thread: ThreadId, _kind: SyscallKind, _arg: i64, ret: i64) {
        if self.policy != RecordingPolicy::OutcomeOnly {
            self.syscall_rets.push(ret);
        }
    }

    fn on_guard_eval(&mut self, _thread: ThreadId, _loc: Loc, fired: bool) {
        if self.policy != RecordingPolicy::OutcomeOnly {
            self.guard_bits.push(fired);
        }
    }

    fn on_lock_acquired(&mut self, _thread: ThreadId, lock: LockId, _loc: Loc, held: &[LockId]) {
        for h in held {
            if let Err(at) = self.lock_pairs.binary_search(&(h.0, lock.0)) {
                self.lock_pairs.insert(at, (h.0, lock.0));
            }
        }
    }

    fn on_global_access(
        &mut self,
        thread: ThreadId,
        global: GlobalId,
        is_write: bool,
        _loc: Loc,
        locks_held: &[LockId],
    ) {
        if self.globals.len() <= global.index() {
            self.globals
                .resize_with(global.index() + 1, GlobalStats::default);
        }
        let g = &mut self.globals[global.index()];
        if g.reader_mask | g.writer_mask == 0 {
            g.lockset.clear();
            g.lockset.extend(locks_held.iter().map(|l| l.0));
        } else {
            g.lockset.retain(|&l| locks_held.contains(&LockId::new(l)));
        }
        let bit = 1u32 << (thread.0 % 32);
        if is_write {
            g.writer_mask |= bit;
        } else {
            g.reader_mask |= bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> ThreadId {
        ThreadId::new(0)
    }

    fn site(i: u32) -> BranchSiteId {
        BranchSiteId::new(i)
    }

    #[test]
    fn full_branch_records_every_bit() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::FullBranch, 0, false);
        r.on_branch(t0(), site(0), true, true);
        r.on_branch(t0(), site(1), false, false);
        let t = r.finish(Outcome::Success, 2);
        assert_eq!(t.bits.iter().collect::<Vec<_>>(), vec![true, false]);
    }

    #[test]
    fn input_dependent_skips_deterministic_sites() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 0, false);
        r.on_branch(t0(), site(0), true, false); // deterministic: skipped
        r.on_branch(t0(), site(1), false, true);
        r.on_branch(t0(), site(2), true, true);
        assert_eq!(r.n_branches, 3);
        let t = r.finish(Outcome::Success, 3);
        assert_eq!(t.bits.iter().collect::<Vec<_>>(), vec![false, true]);
    }

    #[test]
    fn outcome_only_records_nothing() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::OutcomeOnly, 0, true);
        r.on_branch(t0(), site(0), true, true);
        r.on_schedule(t0());
        r.on_syscall(t0(), SyscallKind::Read, 64, 64);
        let t = r.finish(Outcome::Success, 1);
        assert!(t.bits.is_empty());
        assert!(t.schedule.is_empty());
        assert!(t.syscall_rets.is_empty());
    }

    #[test]
    fn sampled_records_one_in_period() {
        let mut r = TraceRecorder::new(
            ProgramId(1),
            RecordingPolicy::Sampled {
                period: 3,
                phase: 1,
            },
            0,
            false,
        );
        // dep occurrences: indices 0..9; phase 1 -> records 1, 4, 7.
        for i in 0..9 {
            r.on_branch(t0(), site(0), i % 2 == 0, true);
        }
        let t = r.finish(Outcome::Success, 9);
        assert_eq!(t.bits.len(), 3);
        assert_eq!(
            t.bits.iter().collect::<Vec<_>>(),
            vec![false, true, false] // taken at occurrences 1, 4, 7
        );
    }

    #[test]
    fn schedule_recorded_only_when_multithreaded() {
        let mut single =
            TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 0, false);
        single.on_schedule(t0());
        assert!(single.finish(Outcome::Success, 1).schedule.is_empty());

        let mut multi = TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 0, true);
        multi.on_schedule(ThreadId::new(1));
        multi.on_schedule(t0());
        assert_eq!(multi.finish(Outcome::Success, 2).schedule, vec![1, 0]);
    }

    #[test]
    fn lock_pairs_record_held_then_acquired() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 0, true);
        let (t, l0, l1) = (t0(), LockId::new(0), LockId::new(1));
        r.on_lock_acquired(t, l0, Loc::default(), &[]);
        r.on_lock_acquired(t, l1, Loc::default(), &[l0]); // 0 -> 1
        r.on_lock_acquired(t, l1, Loc::default(), &[]);
        r.on_lock_acquired(t, l0, Loc::default(), &[l1]); // 1 -> 0
        r.on_lock_acquired(t, l0, Loc::default(), &[l1]); // again: kept once
        let trace = r.finish(Outcome::Success, 6);
        assert_eq!(trace.lock_pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn global_summary_intersects_locksets() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 0, true);
        let with_lock = [LockId::new(3)];
        r.on_global_access(t0(), GlobalId::new(0), true, Loc::default(), &with_lock);
        r.on_global_access(
            ThreadId::new(1),
            GlobalId::new(0),
            false,
            Loc::default(),
            &[],
        );
        let trace = r.finish(Outcome::Success, 2);
        assert_eq!(trace.global_summaries.len(), 1);
        let g = &trace.global_summaries[0];
        assert_eq!(g.writer_mask, 0b01);
        assert_eq!(g.reader_mask, 0b10);
        assert!(g.lockset.is_empty(), "intersection must be empty");
    }

    #[test]
    fn consistent_lockset_survives_intersection() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 0, true);
        let with_lock = [LockId::new(3)];
        r.on_global_access(t0(), GlobalId::new(2), true, Loc::default(), &with_lock);
        r.on_global_access(
            ThreadId::new(1),
            GlobalId::new(2),
            true,
            Loc::default(),
            &with_lock,
        );
        let trace = r.finish(Outcome::Success, 2);
        assert_eq!(trace.global_summaries[0].lockset, vec![3]);
    }

    /// Records one run of every by-product: `round` picks which
    /// threads, locks and globals it touches.
    fn record(r: &mut TraceRecorder, round: u32) {
        for i in 0..round + 2 {
            r.on_branch(t0(), site(i), i.is_multiple_of(2), !i.is_multiple_of(3));
            r.on_schedule(ThreadId::new(i % 2));
        }
        r.on_syscall(t0(), SyscallKind::Read, 64, i64::from(round));
        r.on_guard_eval(t0(), Loc::default(), round.is_multiple_of(2));
        let (l0, l1) = (LockId::new(0), LockId::new(1 + round % 2));
        r.on_lock_acquired(t0(), l1, Loc::default(), &[l0]);
        for g in 0..3 - round % 3 {
            let held = [l0, l1];
            let held = &held[..(g as usize + round as usize) % 3];
            r.on_global_access(
                ThreadId::new(g),
                GlobalId::new(2 * g),
                g == 1,
                Loc::default(),
                held,
            );
            r.on_global_access(t0(), GlobalId::new(2 * g), false, Loc::default(), &[l0]);
        }
    }

    #[test]
    fn a_reset_recorder_seals_what_a_fresh_one_would() {
        let policy = RecordingPolicy::Sampled {
            period: 2,
            phase: 1,
        };
        let mut reused = TraceRecorder::new(ProgramId(1), policy, 0, true);
        let mut held = ExecutionTrace::empty(ProgramId(9), RecordingPolicy::OutcomeOnly);
        for round in 0..7 {
            let mut fresh = TraceRecorder::new(ProgramId(1), policy, u64::from(round), true);
            record(&mut fresh, round);
            let outcome = Outcome::Hang { stuck: vec![] };
            let want = fresh.finish(outcome.clone(), u64::from(round));
            reused.reset(u64::from(round));
            record(&mut reused, round);
            reused.finish_into(outcome, u64::from(round), &mut held);
            assert_eq!(held, want, "round {round}");
        }
    }

    #[test]
    fn guard_bits_recorded_in_order() {
        let mut r = TraceRecorder::new(ProgramId(1), RecordingPolicy::InputDependent, 4, false);
        r.on_guard_eval(t0(), Loc::default(), false);
        r.on_guard_eval(t0(), Loc::default(), true);
        let t = r.finish(Outcome::Success, 2);
        assert_eq!(t.guard_bits.iter().collect::<Vec<_>>(), vec![false, true]);
        assert_eq!(t.overlay_version, 4);
    }
}
