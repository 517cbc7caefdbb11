//! Instrumentation overlays: the vehicle for distributed fixes.
//!
//! The paper (§3.3) fixes programs not by editing source but by
//! "runtime-based mechanism or minor instrumentation" that the hive
//! distributes to pods. An [`Overlay`] is exactly that: a serializable
//! bundle of interception rules the interpreter consults at specific
//! events. Three rule families cover the paper's fix classes:
//!
//! * [`LockGate`] — *deadlock immunity* (ref. \[16\] Jula et al.): serialize
//!   the critical regions participating in an observed deadlock cycle by
//!   requiring a ghost gate lock before any lock of the cycle.
//! * [`SiteGuard`] — *crash guards* (ref. \[24\] Perkins et al.): before a
//!   crashing statement, evaluate a predicate derived from the failure's
//!   path condition and divert execution (skip / exit / sanitize).
//! * [`LoopBound`] — *hang bounds*: cap iterations of a loop observed to
//!   diverge, exiting the thread gracefully.
//!
//! Overlays compose via [`Overlay::merge`] and carry no references into the
//! program, so they travel over the (simulated) network as plain data.

use crate::cfg::Loc;
use crate::expr::{Expr, Place};
use crate::ids::{BlockId, LockId, ThreadId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Lock ids at or above this value are ghost locks created by overlays.
pub const GHOST_LOCK_BASE: u32 = 1_000_000;

/// Serializes the critical regions that use any lock in `locks`: a thread
/// must hold `gate` before acquiring any of them; the gate is released
/// automatically once the thread holds none of them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockGate {
    /// The ghost gate lock (id `>=` [`GHOST_LOCK_BASE`]).
    pub gate: LockId,
    /// The program locks protected by the gate.
    pub locks: BTreeSet<LockId>,
}

/// What a triggered [`SiteGuard`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardAction {
    /// Skip the guarded statement entirely.
    SkipStmt,
    /// Terminate the thread gracefully (safe exit).
    ExitThread,
    /// Overwrite `place` with `value`, then execute the statement
    /// (input sanitization).
    SetPlace(Place, i64),
}

/// A conditional interception installed immediately before one statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteGuard {
    /// The guarded statement location.
    pub loc: Loc,
    /// Fires when this expression evaluates to nonzero in the thread's
    /// current state.
    pub when: Expr,
    /// What to do when the guard fires.
    pub action: GuardAction,
}

/// Caps the number of times a thread may enter a loop header block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopBound {
    /// Thread whose loop is bounded.
    pub thread: ThreadId,
    /// The loop header block (branch block with the back edge).
    pub header: BlockId,
    /// Maximum header entries before the thread is exited gracefully.
    pub max_iters: u64,
}

/// A composable bundle of interception rules (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Overlay {
    /// Human-readable provenance (which fix produced this overlay).
    pub name: String,
    /// Deadlock-immunity gates.
    pub lock_gates: Vec<LockGate>,
    /// Crash guards.
    pub guards: Vec<SiteGuard>,
    /// Hang bounds.
    pub loop_bounds: Vec<LoopBound>,
}

impl Overlay {
    /// An overlay with no rules (the common case for unfixed programs).
    pub fn empty() -> Self {
        Overlay::default()
    }

    /// `true` when the overlay intercepts nothing.
    pub fn is_empty(&self) -> bool {
        self.lock_gates.is_empty() && self.guards.is_empty() && self.loop_bounds.is_empty()
    }

    /// Number of rules across all families.
    pub fn rule_count(&self) -> usize {
        self.lock_gates.len() + self.guards.len() + self.loop_bounds.len()
    }

    /// Merges another overlay's rules into this one (duplicates are kept
    /// out; gates with the same ghost id merge their lock sets).
    pub fn merge(&mut self, other: &Overlay) {
        for g in &other.lock_gates {
            if let Some(existing) = self.lock_gates.iter_mut().find(|x| x.gate == g.gate) {
                existing.locks.extend(g.locks.iter().copied());
            } else {
                self.lock_gates.push(g.clone());
            }
        }
        for g in &other.guards {
            if !self.guards.contains(g) {
                self.guards.push(g.clone());
            }
        }
        for b in &other.loop_bounds {
            if !self.loop_bounds.contains(b) {
                self.loop_bounds.push(b.clone());
            }
        }
        if !other.name.is_empty() {
            if self.name.is_empty() {
                self.name = other.name.clone();
            } else if self.name != other.name {
                self.name = format!("{}+{}", self.name, other.name);
            }
        }
    }

    /// Returns the gates (if any) that must be held before acquiring
    /// `lock`.
    pub fn gates_for(&self, lock: LockId) -> impl Iterator<Item = &LockGate> {
        self.lock_gates
            .iter()
            .filter(move |g| g.locks.contains(&lock))
    }

    /// The index in `loop_bounds` of the first bound for
    /// `(thread, header)` — the one that counts — if any.
    #[inline]
    pub fn bound_for(&self, thread: ThreadId, header: BlockId) -> Option<usize> {
        self.loop_bounds
            .iter()
            .position(|b| b.thread == thread && b.header == header)
    }

    /// Allocates a fresh ghost lock id not used by any existing gate.
    pub fn fresh_ghost_lock(&self) -> LockId {
        let max = self
            .lock_gates
            .iter()
            .map(|g| g.gate.0)
            .max()
            .unwrap_or(GHOST_LOCK_BASE - 1);
        LockId::new(max.max(GHOST_LOCK_BASE - 1) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(id: u32, locks: &[u32]) -> LockGate {
        LockGate {
            gate: LockId::new(GHOST_LOCK_BASE + id),
            locks: locks.iter().map(|&l| LockId::new(l)).collect(),
        }
    }

    #[test]
    fn empty_overlay_intercepts_nothing() {
        let o = Overlay::empty();
        assert!(o.is_empty());
        assert_eq!(o.rule_count(), 0);
        assert!(o.gates_for(LockId::new(0)).next().is_none());
    }

    #[test]
    fn gates_for_matches_member_locks_only() {
        let mut o = Overlay::empty();
        o.lock_gates.push(gate(0, &[1, 2]));
        assert_eq!(o.gates_for(LockId::new(1)).count(), 1);
        assert_eq!(o.gates_for(LockId::new(3)).count(), 0);
    }

    #[test]
    fn merge_unions_gate_lock_sets() {
        let mut a = Overlay::empty();
        a.lock_gates.push(gate(0, &[1]));
        let mut b = Overlay::empty();
        b.lock_gates.push(gate(0, &[2]));
        b.lock_gates.push(gate(1, &[3]));
        a.merge(&b);
        assert_eq!(a.lock_gates.len(), 2);
        assert_eq!(a.lock_gates[0].locks.len(), 2);
    }

    #[test]
    fn merge_deduplicates_guards() {
        let g = SiteGuard {
            loc: Loc::default(),
            when: Expr::Const(1),
            action: GuardAction::ExitThread,
        };
        let mut a = Overlay::empty();
        a.guards.push(g.clone());
        let mut b = Overlay::empty();
        b.guards.push(g);
        a.merge(&b);
        assert_eq!(a.guards.len(), 1);
    }

    #[test]
    fn merge_combines_names() {
        let mut a = Overlay {
            name: "fix-a".into(),
            ..Overlay::empty()
        };
        let b = Overlay {
            name: "fix-b".into(),
            ..Overlay::empty()
        };
        a.merge(&b);
        assert_eq!(a.name, "fix-a+fix-b");
    }

    #[test]
    fn fresh_ghost_lock_is_above_base_and_unique() {
        let mut o = Overlay::empty();
        let g1 = o.fresh_ghost_lock();
        assert!(g1.0 >= GHOST_LOCK_BASE);
        o.lock_gates.push(LockGate {
            gate: g1,
            locks: BTreeSet::new(),
        });
        let g2 = o.fresh_ghost_lock();
        assert!(g2 > g1);
    }

    #[test]
    fn bound_lookup_is_thread_specific() {
        let mut o = Overlay::empty();
        o.loop_bounds.push(LoopBound {
            thread: ThreadId::new(1),
            header: BlockId::new(4),
            max_iters: 100,
        });
        assert!(o.bound_for(ThreadId::new(1), BlockId::new(4)).is_some());
        assert!(o.bound_for(ThreadId::new(0), BlockId::new(4)).is_none());
    }
}
