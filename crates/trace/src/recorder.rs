//! The recording observer a pod installs under the interpreter.
//!
//! [`TraceRecorder`] implements [`Observer`] and captures exactly what the
//! active [`RecordingPolicy`] asks for; [`TraceRecorder::finish`] seals the
//! run into an [`ExecutionTrace`].

use crate::bitvec::BitVec;
use crate::record::{ExecutionTrace, GlobalAccessSummary, RecordingPolicy};
use softborg_program::cfg::{Loc, SyscallKind};
use softborg_program::interp::{Observer, Outcome};
use softborg_program::{BranchSiteId, GlobalId, LockId, ProgramId, ThreadId};

#[derive(Debug, Default)]
struct GlobalStats {
    reader_mask: u32,
    writer_mask: u32,
    /// `None` until the first access, then the running intersection
    /// (ascending).
    lockset: Option<Vec<u32>>,
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
    /// Indexed by global id; a global never accessed has both masks zero.
    globals: Vec<GlobalStats>,
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
        }
    }

    /// Dynamic branches seen so far (recorded or not).
    pub fn branches_seen(&self) -> u64 {
        self.n_branches
    }

    /// Seals the recording into a trace.
    pub fn finish(self, outcome: Outcome, steps: u64) -> ExecutionTrace {
        ExecutionTrace {
            program: self.program,
            policy: self.policy,
            bits: self.bits,
            guard_bits: self.guard_bits,
            syscall_rets: self.syscall_rets,
            schedule: self.schedule,
            steps,
            outcome,
            overlay_version: self.overlay_version,
            lock_pairs: self.lock_pairs,
            global_summaries: (self.globals.into_iter().zip(0..))
                .filter(|(g, _)| g.reader_mask | g.writer_mask != 0)
                .map(|(g, global)| GlobalAccessSummary {
                    global,
                    reader_mask: g.reader_mask,
                    writer_mask: g.writer_mask,
                    lockset: g.lockset.unwrap_or_default(),
                })
                .collect(),
        }
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
        let bit = 1u32 << (thread.0 % 32);
        if is_write {
            g.writer_mask |= bit;
        } else {
            g.reader_mask |= bit;
        }
        match &mut g.lockset {
            None => g.lockset = Some(locks_held.iter().map(|l| l.0).collect()),
            Some(prev) => prev.retain(|&l| locks_held.contains(&LockId::new(l))),
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
        assert_eq!(r.branches_seen(), 3);
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
