//! Allocation gate: neither one pod execution nor the hive's replay of
//! its trace may allocate per guest step, and the hive's merger may not
//! allocate per arrival of a trace it has seen before.
//!
//! A counting global allocator tallies this thread's allocations while
//! `Pod::run_once` executes a loop for 10 and for 1,000 iterations — one
//! thread alone, and two threads contending for one lock so blocking
//! acquires run inside the gate — and while `reconstruct` replays the
//! single-thread loop's traces. Only the amortised doubling of growing
//! buffers (schedule picks, trace bits, reconstructed decisions) may
//! separate the two counts. Folding one prepared merge record into a
//! hive 10 and 1,000 times must allocate exactly as often.

use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{MergeRecord, ProcessedTrace};
use softborg_pod::{Pod, PodConfig};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::{global, local, Stmt};
use softborg_program::expr::{BinOp, Expr, Place};
use softborg_program::interp::{CrashKind, ExecConfig, Executor, Observer, Outcome};
use softborg_program::overlay::{GuardAction, LockGate, Overlay, SiteGuard, GHOST_LOCK_BASE};
use softborg_program::sched::RandomSched;
use softborg_program::syscall::DefaultEnv;
use softborg_program::taint::InputDependence;
use softborg_program::{BlockId, BranchSiteId, Loc, LockId, Program, ThreadId};
use softborg_trace::record::GlobalAccessSummary;
use softborg_trace::{reconstruct, BitVec, ExecutionTrace, RecordingPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so counting itself never allocates or reenters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `for i in 0..input0 { lock 0; g0 := g0 + i; unlock 0; if i % 3 == input0 % 3 { l1 := i } }`
fn looping_program() -> Program {
    let mut pb = ProgramBuilder::new("alloc-gate-loop");
    pb.inputs(1).locals(2).globals(1).locks(1);
    pb.thread(|t| {
        t.assign(local(0), Expr::Const(0));
        t.while_loop(Expr::lt(Expr::local(0), Expr::input(0)), |t| {
            t.lock(0);
            t.assign(
                global(0),
                Expr::bin(BinOp::Add, Expr::global(0), Expr::local(0)),
            );
            t.unlock(0);
            let rem = |e| Expr::bin(BinOp::Rem, e, Expr::Const(3));
            t.if_then(Expr::eq(rem(Expr::local(0)), rem(Expr::input(0))), |t| {
                t.assign(local(1), Expr::local(0));
            });
            t.assign(
                local(0),
                Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
            );
        });
    });
    pb.build().expect("well-formed")
}

/// Two threads, each `for i in 0..input0 { lock 0; g0 := g0 + 1; yield; unlock 0 }`:
/// the yield inside the critical section makes the other thread's
/// acquire block.
fn contended_program() -> Program {
    let mut pb = ProgramBuilder::new("alloc-gate-contended");
    pb.inputs(1).locals(1).globals(1).locks(1);
    for _ in 0..2 {
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(0));
            t.while_loop(Expr::lt(Expr::local(0), Expr::input(0)), |t| {
                t.lock(0);
                t.assign(
                    global(0),
                    Expr::bin(BinOp::Add, Expr::global(0), Expr::Const(1)),
                );
                t.yield_();
                t.unlock(0);
                t.assign(
                    local(0),
                    Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
                );
            });
        });
    }
    pb.build().expect("well-formed")
}

/// A guard that fires on every global store, plus a gate over lock 0.
fn guard_and_gate(program: &Program) -> Overlay {
    let loc = program
        .blocks()
        .find_map(|(thread, block, blk)| {
            let stmt = blk
                .stmts
                .iter()
                .position(|s| matches!(s, Stmt::Assign(Place::Global(_), _)))?;
            Some(Loc {
                thread,
                block,
                stmt: stmt as u32,
            })
        })
        .expect("the loop stores a global");
    Overlay {
        guards: vec![SiteGuard {
            loc,
            when: Expr::Const(1),
            action: GuardAction::SetPlace(local(1), 7),
        }],
        lock_gates: vec![LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: [LockId::new(0)].into_iter().collect(),
        }],
        ..Overlay::empty()
    }
}

/// Allocations made by one `run_once` of the loop at `iterations`, with
/// the run's step count and trace.
fn allocs_per_run(
    program: &Program,
    overlay: Option<&Overlay>,
    iterations: i64,
) -> (u64, u64, ExecutionTrace) {
    let mut pod = Pod::new(
        program,
        PodConfig {
            input_range: (iterations, iterations),
            ..PodConfig::default()
        },
    );
    if let Some(o) = overlay {
        pod.install_fix(o.clone(), 1);
    }
    let before = ALLOCS.with(Cell::get);
    let run = pod.run_once();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(run.result.outcome, Outcome::Success);
    if overlay.is_some() {
        assert!(run.result.overlay_hits >= 2 * iterations as u64);
    }
    (allocs, run.result.steps, run.trace)
}

fn assert_flat(overlay: Option<&Overlay>, program: &Program) {
    let (small, small_steps, _) = allocs_per_run(program, overlay, 10);
    let (large, large_steps, _) = allocs_per_run(program, overlay, 1_000);
    assert!(
        large_steps > 50 * small_steps,
        "{small_steps} vs {large_steps} steps"
    );
    assert!(
        large <= small + 32,
        "run_once allocated {small} times for {small_steps} steps but {large} for {large_steps}"
    );
}

#[test]
fn pod_run_once_allocations_do_not_scale_with_steps() {
    assert_flat(None, &looping_program());
}

#[test]
fn pod_run_once_allocations_do_not_scale_with_steps_under_an_overlay() {
    let program = looping_program();
    assert_flat(Some(&guard_and_gate(&program)), &program);
}

/// Counts blocking acquires.
struct Blocks(u64);

impl Observer for Blocks {
    fn on_lock_blocked(&mut self, _: ThreadId, _: LockId, _: ThreadId) {
        self.0 += 1;
    }
}

#[test]
fn pod_run_once_allocations_do_not_scale_with_blocking_acquires() {
    let program = contended_program();
    // The loop contends: under a random schedule, acquires block often.
    let mut blocks = Blocks(0);
    Executor::new(&program)
        .with_config(ExecConfig { max_steps: 100_000 })
        .run(
            &[1_000],
            &mut DefaultEnv::seeded(1),
            &mut RandomSched::seeded(1),
            &Overlay::empty(),
            &mut blocks,
        )
        .expect("arity");
    assert!(blocks.0 >= 100, "only {} blocking acquires", blocks.0);
    assert_flat(None, &program);
}

/// Allocations made by reconstructing the loop's trace at `iterations`,
/// with the path length.
fn allocs_per_reconstruct(overlay: Option<&Overlay>, iterations: i64) -> (u64, usize) {
    let program = looping_program();
    let (_, _, trace) = allocs_per_run(&program, overlay, iterations);
    let deps = InputDependence::compute(&program);
    let empty = Overlay::empty();
    let overlay = overlay.unwrap_or(&empty);
    let before = ALLOCS.with(Cell::get);
    let path = reconstruct(&program, &deps, overlay, &trace).expect("exact trace");
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, path.decisions.len())
}

fn assert_reconstruct_flat(overlay: Option<&Overlay>) {
    let (small, small_len) = allocs_per_reconstruct(overlay, 10);
    let (large, large_len) = allocs_per_reconstruct(overlay, 1_000);
    assert!(large_len > 50 * small_len, "{small_len} vs {large_len}");
    // `decisions` may double its way from one length to the other.
    let doublings = u64::from((large_len / small_len).ilog2() + 1);
    assert!(
        large <= small + doublings,
        "reconstruct allocated {small} times for {small_len} decisions but {large} for {large_len}"
    );
}

#[test]
fn reconstruct_allocations_do_not_scale_with_steps() {
    assert_reconstruct_flat(None);
}

#[test]
fn reconstruct_allocations_do_not_scale_with_steps_under_an_overlay() {
    let program = looping_program();
    assert_reconstruct_flat(Some(&guard_and_gate(&program)));
}

/// A crashing trace with lock-order pairs and a global touched under a
/// non-empty lockset, prepared for the merger: it exercises the tree,
/// the failure ledger, the lock-order graph and the race detector.
fn failing_record(program: &Program) -> MergeRecord {
    let trace = ExecutionTrace {
        program: program.id(),
        policy: RecordingPolicy::InputDependent,
        bits: BitVec::new(),
        guard_bits: BitVec::new(),
        syscall_rets: vec![3],
        schedule: vec![0, 1, 0],
        steps: 3,
        outcome: Outcome::Crash {
            loc: Loc {
                thread: ThreadId::new(1),
                block: BlockId::new(2),
                stmt: 0,
            },
            kind: CrashKind::AssertFailed,
        },
        overlay_version: 0,
        lock_pairs: vec![(0, 1), (1, 2)],
        global_summaries: vec![GlobalAccessSummary {
            global: 0,
            reader_mask: 0b11,
            writer_mask: 0b01,
            lockset: vec![0, 1],
        }],
    };
    let decisions = (0..8).map(|i| (BranchSiteId::new(i), i % 3 == 0)).collect();
    MergeRecord::prepare(ProcessedTrace {
        trace,
        decisions: Some(decisions),
    })
}

/// Allocations made by folding `record` into a fresh hive `times` times.
fn allocs_per_fold(program: &Program, record: &MergeRecord, times: u64) -> u64 {
    let mut hive = Hive::new(program, HiveConfig::default());
    let before = ALLOCS.with(Cell::get);
    for _ in 0..times {
        hive.apply_record(record);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(hive.stats().traces, times);
    assert_eq!(hive.diagnoses()[0].count, times);
    assert_eq!(hive.lock_graph().traces_seen(), times);
    allocs
}

#[test]
fn merge_record_folds_do_not_allocate_per_arrival() {
    let program = looping_program();
    let record = failing_record(&program);
    let small = allocs_per_fold(&program, &record, 10);
    let large = allocs_per_fold(&program, &record, 1_000);
    assert_eq!(
        small, large,
        "folding allocated {small} times for 10 arrivals but {large} for 1,000"
    );
}
