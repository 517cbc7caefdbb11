//! The guest program representation: control-flow graphs of basic blocks.
//!
//! A [`Program`] is a fixed set of static threads, each a CFG over a shared
//! global store plus thread-local variables, with mutex locks and modeled
//! system calls. Every program *encodes an execution tree* (paper, Fig. 2):
//! each conditional branch site is numbered, and an execution materializes
//! one root-to-leaf path through that tree.

use crate::expr::{Expr, Place};
use crate::ids::{BlockId, BranchSiteId, GlobalId, LocalId, LockId, ProgramId, ThreadId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The kind of a modeled system call.
///
/// Syscall return values come from the environment model supplied at run
/// time ([`crate::syscall::EnvModel`]); they are the second class of
/// program-external non-determinism after inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyscallKind {
    /// `read(fd, n)`-like: returns number of bytes read, `0..=n`; a *short
    /// read* (`< n`) is legal and programs must handle it.
    Read,
    /// `write(fd, n)`-like: returns bytes written or `-1` on error.
    Write,
    /// `open(path)`-like: returns a descriptor `>= 0` or `-1` on error.
    Open,
    /// Wall-clock-like monotone counter.
    Time,
    /// Environment randomness (e.g. ASLR, PIDs).
    Random,
}

impl SyscallKind {
    /// All syscall kinds, for iteration in tests and generators.
    pub const ALL: [SyscallKind; 5] = [
        SyscallKind::Read,
        SyscallKind::Write,
        SyscallKind::Open,
        SyscallKind::Time,
        SyscallKind::Random,
    ];
}

impl fmt::Display for SyscallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyscallKind::Read => "read",
            SyscallKind::Write => "write",
            SyscallKind::Open => "open",
            SyscallKind::Time => "time",
            SyscallKind::Random => "random",
        };
        f.write_str(s)
    }
}

/// A non-branching statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stmt {
    /// `place := expr`.
    Assign(Place, Expr),
    /// Acquire a mutex; blocks while held by another thread.
    Lock(LockId),
    /// Release a mutex; faults if not held by this thread.
    Unlock(LockId),
    /// Perform a modeled system call; the return value is stored in `ret`.
    Syscall {
        /// Which call.
        kind: SyscallKind,
        /// Argument expression (e.g. requested byte count for `Read`).
        arg: Expr,
        /// Destination for the return value.
        ret: Place,
    },
    /// Crash the program if the expression evaluates to zero.
    Assert(Expr),
    /// Append the value to the program's observable output stream.
    ///
    /// The output stream is the semantic yardstick used by the repair lab to
    /// check that a fix does not change behaviour on passing executions.
    Emit(Expr),
    /// Scheduling hint; no state change.
    Yield,
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch. `site` is unique program-wide and is the
    /// unit of by-product recording.
    Branch {
        /// Static branch-site identifier.
        site: BranchSiteId,
        /// Condition; nonzero takes `then_bb`.
        cond: Expr,
        /// Successor when the condition is nonzero.
        then_bb: BlockId,
        /// Successor when the condition is zero.
        else_bb: BlockId,
    },
    /// Thread finishes normally.
    Exit,
}

/// A basic block: straight-line statements plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Block {
    /// Straight-line statements executed in order.
    pub stmts: Vec<Stmt>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl Block {
    /// A block holding only a terminator.
    pub fn just(term: Terminator) -> Block {
        Block {
            stmts: Vec::new(),
            term,
        }
    }
}

/// One static thread: a CFG rooted at block 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ThreadBody {
    /// Blocks addressed by [`BlockId`]; entry is block 0.
    pub blocks: Vec<Block>,
}

impl ThreadBody {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Looks up a block.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index())
    }
}

/// A code location: thread, block, statement index within the block.
///
/// `stmt` equal to the block's statement count designates the terminator.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Loc {
    /// Thread containing the location.
    pub thread: ThreadId,
    /// Block within the thread.
    pub block: BlockId,
    /// Statement index; `== stmts.len()` means the terminator.
    pub stmt: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.thread, self.block, self.stmt)
    }
}

/// A complete guest program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable tag (scenario name or generator spec).
    pub name: String,
    /// Static threads; all are started at program launch.
    pub threads: Vec<ThreadBody>,
    /// Number of shared global variables (zero-initialized).
    pub n_globals: u32,
    /// Number of thread-local variables per thread (zero-initialized).
    pub n_locals: u32,
    /// Number of program-declared locks (ghost locks come on top).
    pub n_locks: u32,
    /// Number of input cells the program reads.
    pub n_inputs: u32,
    /// Total number of static branch sites (they are numbered densely,
    /// `0..n_branch_sites`, across threads in order).
    pub n_branch_sites: u32,
}

/// A structural defect found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A jump target is out of range.
    DanglingBlock {
        /// Location of the offending terminator.
        thread: ThreadId,
        /// Block whose terminator is bad.
        block: BlockId,
        /// The missing target.
        target: BlockId,
    },
    /// A branch site id is `>= n_branch_sites` or duplicated.
    BadBranchSite(BranchSiteId),
    /// A variable/input/lock index exceeds the declared count.
    IndexOutOfRange {
        /// Which namespace overflowed (for diagnostics).
        what: &'static str,
        /// Offending raw index.
        index: u32,
        /// Declared count.
        declared: u32,
    },
    /// A thread has no blocks.
    EmptyThread(ThreadId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DanglingBlock {
                thread,
                block,
                target,
            } => write!(f, "{thread}/{block}: jump to missing block {target}"),
            ValidationError::BadBranchSite(s) => write!(f, "bad or duplicate branch site {s}"),
            ValidationError::IndexOutOfRange {
                what,
                index,
                declared,
            } => write!(f, "{what} index {index} out of range (declared {declared})"),
            ValidationError::EmptyThread(t) => write!(f, "thread {t} has no blocks"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// A stable identifier derived from the program's structure.
    ///
    /// Two structurally identical programs share an id; the id is what pods
    /// stamp on traces so the hive can route them to the right tree.
    pub fn id(&self) -> ProgramId {
        let mut h = DefaultHasher::new();
        self.name.hash(&mut h);
        self.threads.hash(&mut h);
        self.n_globals.hash(&mut h);
        self.n_locals.hash(&mut h);
        self.n_locks.hash(&mut h);
        self.n_inputs.hash(&mut h);
        ProgramId(h.finish())
    }

    /// Iterates over `(thread, block_id, block)` in deterministic order.
    pub fn blocks(&self) -> impl Iterator<Item = (ThreadId, BlockId, &Block)> {
        self.threads.iter().enumerate().flat_map(|(t, body)| {
            body.blocks
                .iter()
                .enumerate()
                .map(move |(b, blk)| (ThreadId::new(t as u32), BlockId::new(b as u32), blk))
        })
    }

    /// Returns every static branch site with its owning location and
    /// condition.
    pub fn branch_sites(&self) -> Vec<(BranchSiteId, ThreadId, BlockId, &Expr)> {
        let mut out = Vec::new();
        for (t, b, blk) in self.blocks() {
            if let Terminator::Branch { site, cond, .. } = &blk.term {
                out.push((*site, t, b, cond));
            }
        }
        out.sort_by_key(|(s, ..)| *s);
        out
    }

    /// Checks structural well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] encountered: dangling block
    /// targets, out-of-range variable/lock/input indices, duplicate or
    /// out-of-range branch sites, or empty threads.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let mut seen_sites = vec![false; self.n_branch_sites as usize];
        for (ti, body) in self.threads.iter().enumerate() {
            let thread = ThreadId::new(ti as u32);
            if body.blocks.is_empty() {
                return Err(ValidationError::EmptyThread(thread));
            }
            let n_blocks = body.blocks.len() as u32;
            let check_target = |block: BlockId, target: BlockId| {
                if target.0 >= n_blocks {
                    Err(ValidationError::DanglingBlock {
                        thread,
                        block,
                        target,
                    })
                } else {
                    Ok(())
                }
            };
            for (bi, blk) in body.blocks.iter().enumerate() {
                let block = BlockId::new(bi as u32);
                for stmt in &blk.stmts {
                    self.check_stmt(stmt)?;
                }
                match &blk.term {
                    Terminator::Goto(t) => check_target(block, *t)?,
                    Terminator::Branch {
                        site,
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        check_target(block, *then_bb)?;
                        check_target(block, *else_bb)?;
                        self.check_expr(cond)?;
                        match seen_sites.get_mut(site.index()) {
                            Some(slot) if !*slot => *slot = true,
                            _ => return Err(ValidationError::BadBranchSite(*site)),
                        }
                    }
                    Terminator::Exit => {}
                }
            }
        }
        Ok(())
    }

    fn check_place(&self, place: Place) -> Result<(), ValidationError> {
        match place {
            Place::Local(l) if l.0 >= self.n_locals => Err(ValidationError::IndexOutOfRange {
                what: "local",
                index: l.0,
                declared: self.n_locals,
            }),
            Place::Global(g) if g.0 >= self.n_globals => Err(ValidationError::IndexOutOfRange {
                what: "global",
                index: g.0,
                declared: self.n_globals,
            }),
            _ => Ok(()),
        }
    }

    fn check_expr(&self, expr: &Expr) -> Result<(), ValidationError> {
        let mut places = Ok(());
        expr.visit(&mut |e| {
            if let (Expr::Load(p), Ok(())) = (e, &places) {
                places = self.check_place(*p);
            }
        });
        places?;
        for i in expr.inputs() {
            if i.0 >= self.n_inputs {
                return Err(ValidationError::IndexOutOfRange {
                    what: "input",
                    index: i.0,
                    declared: self.n_inputs,
                });
            }
        }
        Ok(())
    }

    fn check_stmt(&self, stmt: &Stmt) -> Result<(), ValidationError> {
        match stmt {
            Stmt::Assign(p, e) => {
                self.check_place(*p)?;
                self.check_expr(e)
            }
            Stmt::Lock(l) | Stmt::Unlock(l) => {
                if l.0 >= self.n_locks {
                    Err(ValidationError::IndexOutOfRange {
                        what: "lock",
                        index: l.0,
                        declared: self.n_locks,
                    })
                } else {
                    Ok(())
                }
            }
            Stmt::Syscall { arg, ret, .. } => {
                self.check_expr(arg)?;
                self.check_place(*ret)
            }
            Stmt::Assert(e) | Stmt::Emit(e) => self.check_expr(e),
            Stmt::Yield => Ok(()),
        }
    }
}

/// Helper used throughout the crate and its dependents to name locals.
pub fn local(i: u32) -> Place {
    Place::Local(LocalId::new(i))
}

/// Helper used throughout the crate and its dependents to name globals.
pub fn global(i: u32) -> Place {
    Place::Global(GlobalId::new(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn tiny_program() -> Program {
        // t0: if (in0 < 5) { emit 1 } else { emit 0 }; exit
        let blocks = vec![
            Block::just(Terminator::Branch {
                site: BranchSiteId::new(0),
                cond: Expr::lt(Expr::input(0), Expr::Const(5)),
                then_bb: BlockId::new(1),
                else_bb: BlockId::new(2),
            }),
            Block {
                stmts: vec![Stmt::Emit(Expr::Const(1))],
                term: Terminator::Exit,
            },
            Block {
                stmts: vec![Stmt::Emit(Expr::Const(0))],
                term: Terminator::Exit,
            },
        ];
        Program {
            name: "tiny".into(),
            threads: vec![ThreadBody { blocks }],
            n_globals: 0,
            n_locals: 0,
            n_locks: 0,
            n_inputs: 1,
            n_branch_sites: 1,
        }
    }

    #[test]
    fn tiny_program_validates() {
        tiny_program().validate().unwrap();
    }

    #[test]
    fn ids_are_stable_and_structure_sensitive() {
        let a = tiny_program();
        let b = tiny_program();
        assert_eq!(a.id(), b.id());
        let mut c = tiny_program();
        c.name = "other".into();
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn dangling_target_rejected() {
        let mut p = tiny_program();
        p.threads[0].blocks[1].term = Terminator::Goto(BlockId::new(9));
        assert!(matches!(
            p.validate(),
            Err(ValidationError::DanglingBlock { .. })
        ));
    }

    #[test]
    fn duplicate_branch_site_rejected() {
        let mut p = tiny_program();
        p.threads[0].blocks[1].term = Terminator::Branch {
            site: BranchSiteId::new(0),
            cond: Expr::Const(1),
            then_bb: BlockId::new(2),
            else_bb: BlockId::new(2),
        };
        assert_eq!(
            p.validate(),
            Err(ValidationError::BadBranchSite(BranchSiteId::new(0)))
        );
    }

    #[test]
    fn out_of_range_input_rejected() {
        let mut p = tiny_program();
        p.threads[0].blocks[1].stmts[0] = Stmt::Emit(Expr::input(7));
        assert!(matches!(
            p.validate(),
            Err(ValidationError::IndexOutOfRange { what: "input", .. })
        ));
    }

    #[test]
    fn out_of_range_lock_rejected() {
        let mut p = tiny_program();
        p.threads[0].blocks[1]
            .stmts
            .push(Stmt::Lock(LockId::new(0)));
        assert!(matches!(
            p.validate(),
            Err(ValidationError::IndexOutOfRange { what: "lock", .. })
        ));
    }

    #[test]
    fn branch_sites_enumerated_in_order() {
        let p = tiny_program();
        let sites = p.branch_sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].0, BranchSiteId::new(0));
        assert_eq!(sites[0].1, ThreadId::new(0));
    }

    #[test]
    fn empty_thread_rejected() {
        let mut p = tiny_program();
        p.threads.push(ThreadBody { blocks: vec![] });
        assert_eq!(
            p.validate(),
            Err(ValidationError::EmptyThread(ThreadId::new(1)))
        );
    }

    #[test]
    fn expr_bin_eval_every_op_has_display() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
            BinOp::BitAnd,
            BinOp::BitOr,
            BinOp::BitXor,
            BinOp::Shl,
            BinOp::Shr,
        ] {
            assert!(!op.to_string().is_empty());
        }
        for k in SyscallKind::ALL {
            assert!(!k.to_string().is_empty());
        }
    }
}
