//! Partial evaluation of guest expressions into *residuals* over inputs.
//!
//! The symbolic executor runs the interpreter's `Machine` in a third
//! value domain: a value is known, or a term in an append-only,
//! hash-consed arena whose only leaves are constants and
//! inputs. The arena's constructors constant-fold, so a residual is what
//! substituting the run's state into a program expression and folding
//! gives. Residual growth is capped by the executor: a kept value whose
//! tree exceeds [`MAX_RESIDUAL_NODES`] nodes is abstracted to a fresh
//! pseudo-input (a sound over-approximation — the value becomes
//! unconstrained).

use softborg_program::expr::{apply_bin, apply_un, BinOp, Expr, Place, UnOp};
use softborg_program::ids::InputId;
use std::collections::HashMap;

/// Residuals larger than this many nodes are abstracted away.
pub const MAX_RESIDUAL_NODES: usize = 64;

/// A value of the symbolic domain: known, or a term of its run's
/// [`Terms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Sym {
    /// A known value.
    Known(i64),
    /// A term's id.
    Term(u32),
}

impl Default for Sym {
    fn default() -> Self {
        Sym::Known(0)
    }
}

impl From<i64> for Sym {
    fn from(v: i64) -> Self {
        Sym::Known(v)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Input(u32),
    Un(UnOp, u32),
    Bin(BinOp, Sym, Sym),
}

/// The term arena: each distinct term once, with its size as a tree.
#[derive(Debug, Default)]
pub(crate) struct Terms {
    nodes: Vec<(Node, usize)>,
    ids: HashMap<Node, u32>,
}

impl Terms {
    fn intern(&mut self, node: Node) -> u32 {
        let size = match node {
            Node::Input(_) => 1,
            Node::Un(_, x) => self.size(Sym::Term(x)).saturating_add(1),
            Node::Bin(_, a, b) => self.size(a).saturating_add(self.size(b)).saturating_add(1),
        };
        let next = self.nodes.len() as u32;
        let id = *self.ids.entry(node).or_insert(next);
        if id == next {
            self.nodes.push((node, size));
        }
        id
    }

    /// Input cell (or pseudo-input) `i`.
    pub fn input(&mut self, i: u32) -> Sym {
        Sym::Term(self.intern(Node::Input(i)))
    }

    /// `op x`, folded when `x` is known.
    pub fn un(&mut self, op: UnOp, x: Sym) -> Sym {
        match x {
            Sym::Known(c) => Sym::Known(apply_un(op, c)),
            Sym::Term(x) => Sym::Term(self.intern(Node::Un(op, x))),
        }
    }

    /// `a op b`, folded when both are known, except a division by zero,
    /// which stays a term (the executor makes it a crash point). A known
    /// side that decides `||` or `&&` folds it, and one that does not
    /// leaves the other side's truth; a few identities keep loop
    /// residuals small.
    pub fn bin(&mut self, op: BinOp, a: Sym, b: Sym) -> Sym {
        use Sym::Known;
        if let (Known(x), Known(y)) = (a, b) {
            if let Ok(v) = apply_bin(op, x, y) {
                return Known(v);
            }
        }
        match (op, a, b) {
            (BinOp::Or, Known(c), _) | (BinOp::Or, _, Known(c)) if c != 0 => Known(1),
            (BinOp::Or, Known(0), x) | (BinOp::Or, x, Known(0)) => self.truth(x),
            (BinOp::And, Known(c), x) | (BinOp::And, x, Known(c)) if c != 0 => self.truth(x),
            (BinOp::Add | BinOp::Sub | BinOp::BitOr | BinOp::BitXor, _, Known(0)) => a,
            (BinOp::Add | BinOp::BitOr | BinOp::BitXor, Known(0), _) => b,
            (BinOp::Mul, _, Known(1)) => a,
            (BinOp::Mul, Known(1), _) => b,
            (BinOp::Mul | BinOp::And | BinOp::BitAnd, _, Known(0)) => Known(0),
            (BinOp::Mul | BinOp::And | BinOp::BitAnd, Known(0), _) => Known(0),
            _ => Sym::Term(self.intern(Node::Bin(op, a, b))),
        }
    }

    /// `x != 0`, which is `x` itself when `x` is a comparison or logical
    /// operation (already 0 or 1).
    fn truth(&mut self, x: Sym) -> Sym {
        use BinOp::{And, Eq, Ge, Gt, Le, Lt, Ne, Or};
        let boolean = |n| matches!(n, Node::Bin(Lt | Le | Gt | Ge | Eq | Ne | And | Or, ..));
        match x {
            Sym::Term(id) if boolean(self.nodes[id as usize].0) => x,
            Sym::Term(id) if matches!(self.nodes[id as usize].0, Node::Un(UnOp::Not, _)) => x,
            _ => self.bin(Ne, x, Sym::Known(0)),
        }
    }

    /// How many nodes `v` has as a tree (saturating).
    pub fn size(&self, v: Sym) -> usize {
        match v {
            Sym::Known(_) => 1,
            Sym::Term(id) => self.nodes[id as usize].1,
        }
    }

    /// `v` as an expression tree.
    pub fn expr(&self, v: Sym) -> Expr {
        let id = match v {
            Sym::Known(c) => return Expr::Const(c),
            Sym::Term(id) => id,
        };
        match self.nodes[id as usize].0 {
            Node::Input(i) => Expr::Input(InputId::new(i)),
            Node::Un(op, x) => Expr::un(op, self.expr(Sym::Term(x))),
            Node::Bin(op, a, b) => Expr::bin(op, self.expr(a), self.expr(b)),
        }
    }
}

/// Evaluates a residual (leaves: `Const`/`Input`) under a concrete input
/// vector (indexed by `InputId`, including pseudo-inputs).
///
/// Returns `None` on arithmetic faults (div/rem by zero).
pub fn eval_residual(e: &Expr, inputs: &[i64]) -> Option<i64> {
    struct Env<'a>(&'a [i64]);
    impl softborg_program::expr::EvalEnv for Env<'_> {
        fn load(&self, _p: Place) -> i64 {
            unreachable!("residuals contain no places")
        }
        fn input(&self, i: InputId) -> i64 {
            self.0.get(i.index()).copied().unwrap_or(0)
        }
    }
    softborg_program::expr::eval(e, &Env(inputs)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(terms: &mut Terms, f: impl FnOnce(&mut Terms) -> Sym) -> Expr {
        let v = f(terms);
        terms.expr(v)
    }

    #[test]
    fn constants_fold() {
        let mut t = Terms::default();
        assert_eq!(
            t.bin(BinOp::Add, Sym::Known(2), Sym::Known(3)),
            Sym::Known(5)
        );
        assert_eq!(t.un(UnOp::Not, Sym::Known(0)), Sym::Known(1));
    }

    #[test]
    fn terms_are_hash_consed() {
        let mut t = Terms::default();
        let x = t.input(0);
        let a = t.bin(BinOp::Mul, x, Sym::Known(2));
        let b = t.bin(BinOp::Mul, x, Sym::Known(2));
        assert_eq!(a, b);
        assert_eq!(
            t.expr(a),
            Expr::bin(BinOp::Mul, Expr::input(0), Expr::Const(2))
        );
    }

    #[test]
    fn identities_shrink_residuals() {
        let mut t = Terms::default();
        let x = t.input(0);
        assert_eq!(t.bin(BinOp::Add, x, Sym::Known(0)), x);
        assert_eq!(t.bin(BinOp::Mul, x, Sym::Known(0)), Sym::Known(0));
    }

    #[test]
    fn a_known_side_that_decides_or_and_and_folds_them() {
        let mut t = Terms::default();
        let x = t.input(0);
        let cmp = t.bin(BinOp::Lt, x, Sym::Known(3));
        assert_eq!(t.bin(BinOp::Or, Sym::Known(7), x), Sym::Known(1));
        assert_eq!(t.bin(BinOp::And, x, Sym::Known(0)), Sym::Known(0));
        // Otherwise the other side's truth: a comparison is one already.
        assert_eq!(t.bin(BinOp::Or, Sym::Known(0), cmp), cmp);
        assert_eq!(t.bin(BinOp::And, cmp, Sym::Known(-2)), cmp);
        let e = expr(&mut t, |t| t.bin(BinOp::Or, x, Sym::Known(0)));
        assert_eq!(e, Expr::bin(BinOp::Ne, Expr::input(0), Expr::Const(0)));
    }

    #[test]
    fn div_by_zero_does_not_fold() {
        let mut t = Terms::default();
        let e = expr(&mut t, |t| t.bin(BinOp::Div, Sym::Known(1), Sym::Known(0)));
        assert_eq!(e, Expr::bin(BinOp::Div, Expr::Const(1), Expr::Const(0)));
    }

    #[test]
    fn size_counts_tree_nodes_not_shared_ones() {
        let mut t = Terms::default();
        let mut e = t.input(0);
        assert_eq!(t.size(e), 1);
        for _ in 0..8 {
            e = t.bin(BinOp::Add, e, e);
        }
        assert_eq!(t.size(e), 511, "a DAG of 9 terms is a tree of 511");
        assert_eq!(t.size(Sym::Known(3)), 1);
    }

    #[test]
    fn eval_residual_reads_pseudo_inputs() {
        let e = Expr::bin(BinOp::Add, Expr::input(0), Expr::input(3));
        assert_eq!(eval_residual(&e, &[10, 0, 0, 5]), Some(15));
        // Missing inputs default to 0.
        assert_eq!(eval_residual(&e, &[10]), Some(10));
    }

    #[test]
    fn eval_residual_faults_give_none() {
        let e = Expr::bin(BinOp::Div, Expr::Const(1), Expr::input(0));
        assert_eq!(eval_residual(&e, &[0]), None);
        assert_eq!(eval_residual(&e, &[2]), Some(0));
    }
}
