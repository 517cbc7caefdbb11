//! Fix synthesis: turn diagnoses into candidate instrumentation overlays.
//!
//! Three synthesizers mirror the paper's §3.3 fix classes:
//!
//! * [`deadlock_immunity`] — from a lock-order cycle, a ghost *gate* that
//!   serializes the involved critical regions (ref. \[16\], Jula et al.).
//! * [`crash_guards`] — from an exact crash site, guards whose predicate
//!   is derived from the crashing statement itself: the negated assert
//!   condition, or "some divisor is zero" (ref. \[24\], Perkins et al.,
//!   ClearView-style).
//! * [`hang_bounds`] — from a hang's stuck locations, iteration bounds on
//!   the enclosing loop headers.
//!
//! Synthesizers produce *candidates*; the repair lab ([`crate::repair`])
//! decides which candidate is safe to distribute.

use softborg_analysis::deadlock::DeadlockPattern;
use softborg_program::cfg::{Loc, Program, Stmt, Terminator};
use softborg_program::expr::{BinOp, Expr, UnOp};
use softborg_program::overlay::{GuardAction, LockGate, LoopBound, Overlay, SiteGuard};
use softborg_program::{BlockId, ThreadId};
use std::collections::BTreeSet;

/// A synthesized fix candidate awaiting validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixCandidate {
    /// The instrumentation to apply.
    pub overlay: Overlay,
    /// Human-readable description for the repair lab report.
    pub description: String,
}

/// Synthesizes a deadlock-immunity gate for a lock cycle: any thread must
/// hold a fresh ghost gate before acquiring any lock of the cycle, which
/// serializes the cycle's critical regions and removes the circular wait.
pub fn deadlock_immunity(pattern: &DeadlockPattern, existing: &Overlay) -> FixCandidate {
    let gate = existing.fresh_ghost_lock();
    let locks: BTreeSet<_> = pattern.locks.iter().copied().collect();
    let mut overlay = Overlay {
        name: format!("gate-{}", gate),
        ..Overlay::empty()
    };
    overlay.lock_gates.push(LockGate {
        gate,
        locks: locks.clone(),
    });
    FixCandidate {
        overlay,
        description: format!(
            "deadlock immunity: serialize {:?} behind ghost gate {gate}",
            pattern.locks
        ),
    }
}

/// Looks up the statement at `loc` (`None` when `loc` names a
/// terminator or is out of range).
fn stmt_at(program: &Program, loc: Loc) -> Option<&Stmt> {
    program
        .threads
        .get(loc.thread.index())?
        .blocks
        .get(loc.block.index())?
        .stmts
        .get(loc.stmt as usize)
}

/// Collects the divisor sub-expressions of `e`.
fn divisors(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    e.visit(&mut |x| {
        if let Expr::Bin(BinOp::Div | BinOp::Rem, _, d) = x {
            out.push((**d).clone());
        }
    });
    out
}

/// Builds "would this statement crash?" as an expression over program
/// state, or `None` when the statement's crash condition is not
/// expressible (e.g. `UnlockNotHeld`).
pub fn crash_predicate(program: &Program, loc: Loc) -> Option<Expr> {
    let stmt = stmt_at(program, loc)?;
    let mut conds: Vec<Expr> = Vec::new();
    let exprs: Vec<&Expr> = match stmt {
        Stmt::Assert(e) => {
            conds.push(Expr::un(UnOp::Not, e.clone()));
            vec![e]
        }
        Stmt::Assign(_, e) | Stmt::Emit(e) => vec![e],
        Stmt::Syscall { arg, .. } => vec![arg],
        Stmt::Lock(_) | Stmt::Unlock(_) | Stmt::Yield => return None,
    };
    for e in exprs {
        for d in divisors(e) {
            conds.push(Expr::eq(d, Expr::Const(0)));
        }
    }
    conds.into_iter().reduce(|a, b| Expr::bin(BinOp::Or, a, b))
}

/// Synthesizes crash-guard candidates for a crash at `loc`: the guard
/// fires exactly when the statement would crash, and either skips the
/// statement (failure-oblivious) or exits the thread (safe shutdown).
pub fn crash_guards(program: &Program, loc: Loc) -> Vec<FixCandidate> {
    let Some(when) = crash_predicate(program, loc) else {
        return Vec::new();
    };
    [
        (GuardAction::SkipStmt, "skip the crashing statement"),
        (GuardAction::ExitThread, "exit the thread before the crash"),
    ]
    .into_iter()
    .map(|(action, how)| {
        let mut overlay = Overlay {
            name: format!("guard-{loc}-{how}"),
            ..Overlay::empty()
        };
        overlay.guards.push(SiteGuard {
            loc,
            when: when.clone(),
            action,
        });
        FixCandidate {
            overlay,
            description: format!("crash guard at {loc}: {how} when ({when})"),
        }
    })
    .collect()
}

/// Finds loop-header blocks of a thread (branch blocks that are the
/// target of a back edge in a DFS from the entry).
pub fn loop_headers(program: &Program, thread: ThreadId) -> Vec<BlockId> {
    let body = match program.threads.get(thread.index()) {
        Some(b) => b,
        None => return Vec::new(),
    };
    let n = body.blocks.len();
    let succs = |b: usize| -> Vec<usize> {
        match &body.blocks[b].term {
            Terminator::Goto(t) => vec![t.index()],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                vec![then_bb.index(), else_bb.index()]
            }
            Terminator::Exit => vec![],
        }
    };
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut headers: BTreeSet<usize> = BTreeSet::new();
    // Iterative DFS with an explicit stack of (node, next-successor).
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = 1;
    while let Some((node, next)) = stack.last_mut() {
        let ss = succs(*node);
        if *next < ss.len() {
            let s = ss[*next];
            *next += 1;
            match color[s] {
                0 => {
                    color[s] = 1;
                    stack.push((s, 0));
                }
                1 => {
                    // Back edge to a gray node: s is a loop header if it
                    // branches.
                    if matches!(body.blocks[s].term, Terminator::Branch { .. }) {
                        headers.insert(s);
                    }
                }
                _ => {}
            }
        } else {
            color[*node] = 2;
            stack.pop();
        }
    }
    headers
        .into_iter()
        .map(|b| BlockId::new(b as u32))
        .collect()
}

/// Synthesizes hang-bound candidates: iteration caps on every loop header
/// of each stuck thread. The repair lab rejects bounds that alter passing
/// behaviour.
pub fn hang_bounds(program: &Program, stuck: &[Loc], max_iters: u64) -> Vec<FixCandidate> {
    let mut threads: BTreeSet<ThreadId> = stuck.iter().map(|l| l.thread).collect();
    // A hang can also stall sibling threads (e.g. spinning on a flag that
    // a finished thread never set); bound loops in all stuck threads.
    if threads.is_empty() {
        threads.extend((0..program.threads.len()).map(|i| ThreadId::new(i as u32)));
    }
    let mut out = Vec::new();
    for t in threads {
        let headers = loop_headers(program, t);
        if headers.is_empty() {
            continue;
        }
        let mut overlay = Overlay {
            name: format!("loop-bound-{t}"),
            ..Overlay::empty()
        };
        for h in &headers {
            overlay.loop_bounds.push(LoopBound {
                thread: t,
                header: *h,
                max_iters,
            });
        }
        out.push(FixCandidate {
            overlay,
            description: format!(
                "hang bound: cap {} loop header(s) of {t} at {max_iters} iterations",
                headers.len()
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::gen::find_assert_loc;
    use softborg_program::scenarios;
    use softborg_program::LockId;

    #[test]
    fn deadlock_gate_covers_cycle_locks() {
        let pattern = DeadlockPattern {
            locks: vec![LockId::new(0), LockId::new(1)],
            support: 3,
            confirmed: true,
        };
        let fix = deadlock_immunity(&pattern, &Overlay::empty());
        assert_eq!(fix.overlay.lock_gates.len(), 1);
        let gate = &fix.overlay.lock_gates[0];
        assert!(gate.locks.contains(&LockId::new(0)));
        assert!(gate.locks.contains(&LockId::new(1)));
        assert!(gate.gate.0 >= softborg_program::overlay::GHOST_LOCK_BASE);
    }

    #[test]
    fn gates_get_distinct_ghost_locks() {
        let pattern = DeadlockPattern {
            locks: vec![LockId::new(0), LockId::new(1)],
            support: 1,
            confirmed: false,
        };
        let first = deadlock_immunity(&pattern, &Overlay::empty());
        let second = deadlock_immunity(&pattern, &first.overlay);
        assert_ne!(
            first.overlay.lock_gates[0].gate,
            second.overlay.lock_gates[0].gate
        );
    }

    #[test]
    fn crash_predicate_for_assert_is_negation() {
        let s = scenarios::token_parser();
        let loc = find_assert_loc(&s.program, 66).expect("assert loc");
        let p = crash_predicate(&s.program, loc).expect("predicate");
        // Fires exactly when in5 == 66 (the negated assert).
        assert!(p.to_string().contains("66"));
    }

    #[test]
    fn crash_predicate_for_division_tests_divisor() {
        let s = scenarios::token_parser();
        let loc = softborg_program::gen::find_div_loc(&s.program).expect("div loc");
        let p = crash_predicate(&s.program, loc).expect("predicate");
        assert!(p.to_string().contains("== 0"), "{p}");
    }

    #[test]
    fn crash_guards_come_in_two_flavors() {
        let s = scenarios::token_parser();
        let loc = find_assert_loc(&s.program, 66).unwrap();
        let cands = crash_guards(&s.program, loc);
        assert_eq!(cands.len(), 2);
        assert!(cands
            .iter()
            .any(|c| c.overlay.guards[0].action == GuardAction::SkipStmt));
        assert!(cands
            .iter()
            .any(|c| c.overlay.guards[0].action == GuardAction::ExitThread));
    }

    #[test]
    fn lock_statements_have_no_crash_predicate() {
        let s = scenarios::bank_transfer();
        // Loc of the first Lock stmt of thread 0.
        let loc = Loc {
            thread: ThreadId::new(0),
            block: BlockId::new(0),
            stmt: 0,
        };
        assert!(matches!(stmt_at(&s.program, loc), Some(Stmt::Lock(_))));
        assert!(crash_predicate(&s.program, loc).is_none());
    }

    #[test]
    fn loop_headers_found_in_spin_wait() {
        let s = scenarios::spin_wait();
        let headers = loop_headers(&s.program, ThreadId::new(1));
        assert_eq!(headers.len(), 1, "spin thread has exactly one loop");
        let none = loop_headers(&s.program, ThreadId::new(0));
        assert!(none.is_empty(), "setter thread has no loops");
    }

    #[test]
    fn hang_bounds_target_stuck_threads() {
        let s = scenarios::spin_wait();
        let stuck = vec![Loc {
            thread: ThreadId::new(1),
            block: BlockId::new(0),
            stmt: 0,
        }];
        let cands = hang_bounds(&s.program, &stuck, 1000);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].overlay.loop_bounds.len(), 1);
        assert_eq!(cands[0].overlay.loop_bounds[0].thread, ThreadId::new(1));
    }

    #[test]
    fn straight_line_thread_yields_no_bound_candidates() {
        let s = scenarios::bank_transfer();
        let cands = hang_bounds(
            &s.program,
            &[Loc {
                thread: ThreadId::new(0),
                block: BlockId::new(0),
                stmt: 0,
            }],
            100,
        );
        assert!(cands.is_empty());
    }
}
