//! Allocation gate: one pod execution must not allocate per guest step.
//!
//! A counting global allocator tallies this thread's allocations while
//! `Pod::run_once` executes a loop for 10 and for 1,000 iterations. Only
//! the amortised doubling of the growing schedule-pick and trace-bit
//! buffers may separate the two counts.

use softborg_pod::{Pod, PodConfig};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::{global, local, Stmt};
use softborg_program::expr::{BinOp, Expr, Place};
use softborg_program::interp::Outcome;
use softborg_program::overlay::{GuardAction, LockGate, Overlay, SiteGuard, GHOST_LOCK_BASE};
use softborg_program::{Loc, LockId, Program};
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

/// Allocations made by one `run_once` of the loop at `iterations`.
fn allocs_per_run(program: &Program, overlay: Option<&Overlay>, iterations: i64) -> (u64, u64) {
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
    (allocs, run.result.steps)
}

fn assert_flat(overlay: Option<&Overlay>, program: &Program) {
    let (small, small_steps) = allocs_per_run(program, overlay, 10);
    let (large, large_steps) = allocs_per_run(program, overlay, 1_000);
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
