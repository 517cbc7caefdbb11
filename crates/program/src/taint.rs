//! Static input-dependence ("taint") analysis over guest programs.
//!
//! The paper (§3.1) reduces recording cost by capturing only branches "that
//! depend on program-external events; once they are fixed, the rest of the
//! program execution is deterministic". This module computes, once per
//! program, the set of branch sites whose condition may depend on inputs or
//! syscall returns; pods record one bit per dynamic occurrence of those
//! sites only, and the hive reconstructs every other branch by replay.
//!
//! The analysis is a flow-insensitive fixpoint over places: a place is
//! tainted if any statement may assign it a value derived from an input, a
//! syscall return, or another tainted place. Flow-insensitivity makes it a
//! sound over-approximation — a site marked clean is guaranteed
//! reconstructible; a site marked tainted merely costs one recording bit.

use crate::cfg::{Program, Stmt, Terminator};
use crate::expr::{Expr, Place};
use crate::ids::BranchSiteId;
use serde::{Deserialize, Serialize};

/// The result of the input-dependence analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputDependence {
    /// `site_dependent[s]` is `true` when branch site `s` may depend on
    /// program-external values.
    site_dependent: Vec<bool>,
}

impl InputDependence {
    /// Runs the analysis on `program`.
    pub fn compute(program: &Program) -> Self {
        let n_threads = program.threads.len();
        let mut tainted_globals = vec![false; program.n_globals as usize];
        let mut tainted_locals = vec![vec![false; program.n_locals as usize]; n_threads];

        // Fixpoint: repeat until no statement adds taint.
        let mut changed = true;
        while changed {
            changed = false;
            for (t, _b, blk) in program.blocks() {
                let ti = t.index();
                for stmt in &blk.stmts {
                    match stmt {
                        Stmt::Assign(place, expr) => {
                            if expr_tainted(expr, &tainted_globals, &tainted_locals[ti]) {
                                changed |= set_taint(
                                    *place,
                                    ti,
                                    &mut tainted_globals,
                                    &mut tainted_locals,
                                );
                            }
                        }
                        Stmt::Syscall { ret, .. } => {
                            // Syscall returns are always program-external.
                            changed |=
                                set_taint(*ret, ti, &mut tainted_globals, &mut tainted_locals);
                        }
                        Stmt::Lock(_)
                        | Stmt::Unlock(_)
                        | Stmt::Assert(_)
                        | Stmt::Emit(_)
                        | Stmt::Yield => {}
                    }
                }
            }
        }

        let mut site_dependent = vec![false; program.n_branch_sites as usize];
        for (t, _b, blk) in program.blocks() {
            if let Terminator::Branch { site, cond, .. } = &blk.term {
                site_dependent[site.index()] =
                    expr_tainted(cond, &tainted_globals, &tainted_locals[t.index()]);
            }
        }

        InputDependence { site_dependent }
    }

    /// Whether branch site `site` may depend on program-external values.
    pub fn is_dependent(&self, site: BranchSiteId) -> bool {
        self.site_dependent
            .get(site.index())
            .copied()
            .unwrap_or(true)
    }

    /// Number of input-dependent sites.
    pub fn dependent_count(&self) -> usize {
        self.site_dependent.iter().filter(|b| **b).count()
    }

    /// Total number of branch sites considered.
    pub fn site_count(&self) -> usize {
        self.site_dependent.len()
    }
}

fn set_taint(place: Place, thread: usize, globals: &mut [bool], locals: &mut [Vec<bool>]) -> bool {
    let slot = match place {
        Place::Global(g) => globals.get_mut(g.index()),
        Place::Local(l) => locals[thread].get_mut(l.index()),
    };
    match slot {
        Some(s) if !*s => {
            *s = true;
            true
        }
        _ => false,
    }
}

fn expr_tainted(expr: &Expr, globals: &[bool], locals: &[bool]) -> bool {
    let mut tainted = false;
    expr.visit(&mut |e| match e {
        Expr::Input(_) => tainted = true,
        Expr::Load(Place::Global(g)) => {
            tainted |= globals.get(g.index()).copied().unwrap_or(true);
        }
        Expr::Load(Place::Local(l)) => {
            tainted |= locals.get(l.index()).copied().unwrap_or(true);
        }
        _ => {}
    });
    tainted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cfg::{global, local, SyscallKind};
    use crate::expr::BinOp;

    #[test]
    fn constant_branch_is_clean() {
        let mut pb = ProgramBuilder::new("clean");
        pb.locals(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(5));
            t.if_then(Expr::lt(Expr::local(0), Expr::Const(10)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert_eq!(dep.dependent_count(), 0);
        assert_eq!(dep.site_count(), 1);
    }

    #[test]
    fn direct_input_branch_is_dependent() {
        let mut pb = ProgramBuilder::new("dep");
        pb.inputs(1);
        pb.thread(|t| {
            t.if_then(Expr::lt(Expr::input(0), Expr::Const(0)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert!(dep.is_dependent(BranchSiteId::new(0)));
    }

    #[test]
    fn taint_flows_through_locals() {
        let mut pb = ProgramBuilder::new("flow");
        pb.inputs(1).locals(2);
        pb.thread(|t| {
            t.assign(local(0), Expr::input(0));
            t.assign(
                local(1),
                Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
            );
            t.if_then(Expr::lt(Expr::local(1), Expr::Const(0)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert!(dep.is_dependent(BranchSiteId::new(0)));
    }

    #[test]
    fn taint_flows_through_globals_across_threads() {
        let mut pb = ProgramBuilder::new("cross");
        pb.inputs(1).globals(1).locals(1);
        pb.thread(|t| {
            t.assign(global(0), Expr::input(0));
        });
        pb.thread(|t| {
            t.assign(local(0), Expr::global(0));
            t.if_then(Expr::lt(Expr::local(0), Expr::Const(3)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert!(dep.is_dependent(BranchSiteId::new(0)));
    }

    #[test]
    fn syscall_return_is_tainted() {
        let mut pb = ProgramBuilder::new("sys");
        pb.locals(1);
        pb.thread(|t| {
            t.syscall(SyscallKind::Read, Expr::Const(64), local(0));
            t.if_then(Expr::eq(Expr::local(0), Expr::Const(64)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert!(dep.is_dependent(BranchSiteId::new(0)));
    }

    #[test]
    fn clean_loop_counter_stays_clean() {
        let mut pb = ProgramBuilder::new("counter");
        pb.locals(1).inputs(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(0));
            t.while_loop(Expr::lt(Expr::local(0), Expr::Const(4)), |t| {
                t.assign(
                    local(0),
                    Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
                );
            });
            // A second, input-dependent branch for contrast.
            t.if_then(Expr::eq(Expr::input(0), Expr::Const(0)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert_eq!(dep.dependent_count(), 1);
        // Loop header (first site) is clean, the if is dependent.
        assert!(!dep.is_dependent(BranchSiteId::new(0)));
        assert!(dep.is_dependent(BranchSiteId::new(1)));
    }

    #[test]
    fn locals_do_not_leak_across_threads() {
        let mut pb = ProgramBuilder::new("no-leak");
        pb.inputs(1).locals(1);
        pb.thread(|t| {
            t.assign(local(0), Expr::input(0));
        });
        pb.thread(|t| {
            t.if_then(Expr::lt(Expr::local(0), Expr::Const(1)), |t| {
                t.emit(Expr::Const(1));
            });
        });
        let p = pb.build().unwrap();
        let dep = InputDependence::compute(&p);
        assert!(!dep.is_dependent(BranchSiteId::new(0)));
    }
}
