//! Integer expressions evaluated by the guest interpreter.
//!
//! Expressions are side-effect free; all state mutation happens through
//! statements ([`crate::cfg::Stmt`]). Arithmetic is wrapping two's-complement
//! over `i64`, except division/modulo by zero, which raise a runtime fault
//! that the interpreter turns into a [`crate::interp::Outcome::Crash`].

use crate::ids::{GlobalId, InputId, LocalId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A storage location: thread-local or shared global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Place {
    /// Thread-local slot; not visible to other threads.
    Local(LocalId),
    /// Shared slot; reads/writes are observable events (data-race candidates).
    Global(GlobalId),
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Place::Local(l) => write!(f, "{l}"),
            Place::Global(g) => write!(f, "{g}"),
        }
    }
}

/// Binary operators. Comparison operators yield `1` or `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; divisor `0` faults.
    Div,
    /// Remainder; divisor `0` faults.
    Rem,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Logical and: nonzero/nonzero.
    And,
    /// Logical or.
    Or,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise exclusive or.
    BitXor,
    /// Shift left; shift amount is masked to 0..64.
    Shl,
    /// Arithmetic shift right; shift amount is masked to 0..64.
    Shr,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Wrapping negation.
    Neg,
    /// Logical not: `0 -> 1`, nonzero -> `0`.
    Not,
    /// Bitwise complement.
    BitNot,
}

/// An integer expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A literal constant.
    Const(i64),
    /// Read a local or global variable.
    Load(Place),
    /// Read a program input cell.
    Input(InputId),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary operation.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Un(op, Box::new(e))
    }

    /// `lhs == rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, lhs, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, lhs, rhs)
    }

    /// Reads input cell `i`.
    pub fn input(i: u32) -> Expr {
        Expr::Input(InputId::new(i))
    }

    /// Reads local variable `i`.
    pub fn local(i: u32) -> Expr {
        Expr::Load(Place::Local(LocalId::new(i)))
    }

    /// Reads global variable `i`.
    pub fn global(i: u32) -> Expr {
        Expr::Load(Place::Global(GlobalId::new(i)))
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Un(_, e) => e.visit(f),
            Expr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Const(_) | Expr::Load(_) | Expr::Input(_) => {}
        }
    }

    /// Collects the input cells read by the expression.
    pub fn inputs(&self) -> Vec<InputId> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Input(i) = e {
                out.push(*i);
            }
        });
        out
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Load(p) => write!(f, "{p}"),
            Expr::Input(i) => write!(f, "{i}"),
            Expr::Un(op, e) => match op {
                UnOp::Neg => write!(f, "-({e})"),
                UnOp::Not => write!(f, "!({e})"),
                UnOp::BitNot => write!(f, "~({e})"),
            },
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
        }
    }
}

/// A runtime evaluation fault (turned into a crash by the interpreter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalFault {
    /// Division by zero.
    DivByZero,
    /// Remainder by zero.
    RemByZero,
}

impl fmt::Display for EvalFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalFault::DivByZero => f.write_str("division by zero"),
            EvalFault::RemByZero => f.write_str("remainder by zero"),
        }
    }
}

impl std::error::Error for EvalFault {}

/// Read access to the state the reference evaluator [`eval`] reads.
pub trait EvalEnv {
    /// Current value of `place`.
    fn load(&self, place: Place) -> i64;
    /// Current value of input cell `input`.
    fn input(&self, input: InputId) -> i64;
}

/// Evaluates `expr` in `env` using wrapping semantics: the recursive
/// reference that [`ExprCode::eval`], which every run steps, is checked
/// against.
///
/// # Errors
///
/// Returns [`EvalFault`] on division or remainder by zero.
pub fn eval(expr: &Expr, env: &impl EvalEnv) -> Result<i64, EvalFault> {
    Ok(match expr {
        Expr::Const(c) => *c,
        Expr::Load(p) => env.load(*p),
        Expr::Input(i) => env.input(*i),
        Expr::Un(op, e) => apply_un(*op, eval(e, env)?),
        Expr::Bin(op, a, b) => {
            let x = eval(a, env)?;
            let y = eval(b, env)?;
            apply_bin(*op, x, y)?
        }
    })
}

/// Applies a unary operator to a concrete value.
#[inline]
pub fn apply_un(op: UnOp, v: i64) -> i64 {
    match op {
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => i64::from(v == 0),
        UnOp::BitNot => !v,
    }
}

/// Applies a binary operator to two concrete values.
///
/// # Errors
///
/// Returns [`EvalFault`] on division or remainder by zero.
#[inline]
pub fn apply_bin(op: BinOp, x: i64, y: i64) -> Result<i64, EvalFault> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(EvalFault::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(EvalFault::RemByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::Lt => i64::from(x < y),
        BinOp::Le => i64::from(x <= y),
        BinOp::Gt => i64::from(x > y),
        BinOp::Ge => i64::from(x >= y),
        BinOp::Eq => i64::from(x == y),
        BinOp::Ne => i64::from(x != y),
        BinOp::And => i64::from(x != 0 && y != 0),
        BinOp::Or => i64::from(x != 0 || y != 0),
        BinOp::BitAnd => x & y,
        BinOp::BitOr => x | y,
        BinOp::BitXor => x ^ y,
        BinOp::Shl => x.wrapping_shl((y & 63) as u32),
        BinOp::Shr => x.wrapping_shr((y & 63) as u32),
    })
}

/// A leaf of lowered expression code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Const(i64),
    Local(u32),
    Global(u32),
    Input(u32),
}

/// One instruction of lowered expression code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CodeOp {
    Leaf(Operand),
    Un(UnOp),
    /// Pops the left operand; the right one is on top.
    Bin(BinOp),
}

/// Where one lowered expression lives in its [`ExprCode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExprRef {
    code: (u32, u32),
    loads: (u32, u32),
}

/// Expressions lowered once into one flat buffer of `Copy` instructions:
/// each is post-order stack code plus the pre-order list of the globals it
/// loads. [`eval`] is the reference it agrees with, fault for fault.
#[derive(Debug, Clone, Default)]
pub struct ExprCode {
    ops: Vec<CodeOp>,
    loads: Vec<GlobalId>,
    depth: usize,
}

impl ExprCode {
    /// Drops every lowered expression, keeping the buffers.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.loads.clear();
        self.depth = 0;
    }

    /// Appends `e`'s code and returns where it lives.
    pub fn lower(&mut self, e: &Expr) -> ExprRef {
        let (code, loads) = (self.ops.len() as u32, self.loads.len() as u32);
        let depth = self.emit(e);
        self.depth = self.depth.max(depth);
        ExprRef {
            code: (code, self.ops.len() as u32),
            loads: (loads, self.loads.len() as u32),
        }
    }

    /// Emits post-order code; returns the stack depth it needs. Leaves
    /// come out left to right, so the loads list is in pre-order too.
    fn emit(&mut self, e: &Expr) -> usize {
        let (op, depth) = match *e {
            Expr::Const(c) => (CodeOp::Leaf(Operand::Const(c)), 1),
            Expr::Load(Place::Local(l)) => (CodeOp::Leaf(Operand::Local(l.0)), 1),
            Expr::Load(Place::Global(g)) => {
                self.loads.push(g);
                (CodeOp::Leaf(Operand::Global(g.0)), 1)
            }
            Expr::Input(i) => (CodeOp::Leaf(Operand::Input(i.0)), 1),
            Expr::Un(op, ref a) => (CodeOp::Un(op), self.emit(a)),
            Expr::Bin(op, ref a, ref b) => {
                let left = self.emit(a);
                (CodeOp::Bin(op), left.max(1 + self.emit(b)))
            }
        };
        self.ops.push(op);
        depth
    }

    /// The most values any lowered expression holds at once: a stack of
    /// this many is enough for [`eval`](Self::eval).
    pub fn max_depth(&self) -> usize {
        self.depth
    }

    /// The globals `r` loads, in [`Expr::visit`]'s pre-order.
    #[inline]
    pub fn global_loads(&self, r: ExprRef) -> &[GlobalId] {
        &self.loads[r.loads.0 as usize..r.loads.1 as usize]
    }

    /// Evaluates `r` over dense state in the value domain `V`, whose
    /// operations read and extend `ctx`; `stack` is scratch space of at
    /// least [`max_depth`](Self::max_depth) values.
    ///
    /// # Errors
    ///
    /// Over `i64`, the [`EvalFault`] [`eval`] returns on the same
    /// expression and state; over known-or-⊥, see [`Value`].
    #[inline]
    pub fn eval<V: Value>(
        &self,
        r: ExprRef,
        locals: &[V],
        globals: &[V],
        inputs: &[i64],
        stack: &mut [V],
        ctx: &mut V::Ctx,
    ) -> Result<V, EvalFault> {
        let value = |ctx: &mut V::Ctx, x: Operand| match x {
            Operand::Const(c) => V::from(c),
            Operand::Local(l) => locals[l as usize],
            Operand::Global(g) => globals[g as usize],
            Operand::Input(x) => V::input(ctx, inputs, x as usize),
        };
        // Post-order code starts with a leaf. The top of the stack lives
        // in `top`; every later leaf spills it and a binary operation
        // takes its left operand back.
        let code = &self.ops[r.code.0 as usize..r.code.1 as usize];
        let Some((&CodeOp::Leaf(first), rest)) = code.split_first() else {
            unreachable!("lowered code starts with a leaf")
        };
        let (mut top, mut spilled) = (value(ctx, first), 0);
        for op in rest {
            top = match *op {
                CodeOp::Leaf(x) => {
                    stack[spilled] = top;
                    spilled += 1;
                    value(ctx, x)
                }
                CodeOp::Un(op) => V::un(ctx, op, top),
                CodeOp::Bin(op) => {
                    spilled -= 1;
                    V::bin(ctx, op, stack[spilled], top)?
                }
            };
        }
        Ok(top)
    }
}

/// A domain [`ExprCode::eval`] computes in. `i64` is the pod's concrete
/// domain. `Option<i64>` is replay's known-or-⊥ domain, where every
/// input-derived value is ⊥ (`None`): `&&` and `||` stay known when one
/// known side decides them, a known zero divisor faults whatever the
/// dividend, and any other operation with a ⊥ operand gives ⊥. The
/// symbolic executor's domain builds terms over the inputs in its own
/// context.
pub trait Value: Copy + From<i64> {
    /// What the operations read and extend: nothing for the concrete
    /// domains, a term arena and the path for the symbolic one.
    type Ctx: ?Sized;
    /// Input cell `i` of a run given `inputs`.
    fn input(ctx: &mut Self::Ctx, inputs: &[i64], i: usize) -> Self;
    /// Applies a unary operator.
    fn un(ctx: &mut Self::Ctx, op: UnOp, v: Self) -> Self;
    /// Applies a binary operator.
    ///
    /// # Errors
    ///
    /// [`EvalFault`] on a division or remainder by a known zero.
    fn bin(ctx: &mut Self::Ctx, op: BinOp, x: Self, y: Self) -> Result<Self, EvalFault>;
    /// `v` as a value the run keeps: stored, tested or passed to a
    /// syscall. The concrete domains keep it as it is.
    #[inline]
    fn kept(_ctx: &mut Self::Ctx, v: Self) -> Self {
        v
    }
    /// Whether the value is nonzero, when known.
    fn truth(self) -> Option<bool>;
}

impl Value for i64 {
    type Ctx = ();
    #[inline]
    fn input(_: &mut (), inputs: &[i64], i: usize) -> Self {
        inputs[i]
    }
    #[inline]
    fn un(_: &mut (), op: UnOp, v: Self) -> Self {
        apply_un(op, v)
    }
    #[inline]
    fn bin(_: &mut (), op: BinOp, x: Self, y: Self) -> Result<Self, EvalFault> {
        apply_bin(op, x, y)
    }
    #[inline]
    fn truth(self) -> Option<bool> {
        Some(self != 0)
    }
}

impl Value for Option<i64> {
    type Ctx = ();
    #[inline]
    fn input(_: &mut (), _: &[i64], _: usize) -> Self {
        None
    }
    #[inline]
    fn un(_: &mut (), op: UnOp, v: Self) -> Self {
        v.map(|v| apply_un(op, v))
    }
    #[inline]
    fn bin(_: &mut (), op: BinOp, x: Self, y: Self) -> Result<Self, EvalFault> {
        match (op, x, y) {
            (_, Some(x), Some(y)) => apply_bin(op, x, y).map(Some),
            (BinOp::And, Some(0), _) | (BinOp::And, _, Some(0)) => Ok(Some(0)),
            (BinOp::Or, Some(v), _) if v != 0 => Ok(Some(1)),
            (BinOp::Or, _, Some(v)) if v != 0 => Ok(Some(1)),
            (BinOp::Div, _, Some(0)) => Err(EvalFault::DivByZero),
            (BinOp::Rem, _, Some(0)) => Err(EvalFault::RemByZero),
            _ => Ok(None),
        }
    }
    #[inline]
    fn truth(self) -> Option<bool> {
        self.map(|v| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MapEnv {
        locals: Vec<i64>,
        globals: Vec<i64>,
        inputs: Vec<i64>,
    }

    impl EvalEnv for MapEnv {
        fn load(&self, place: Place) -> i64 {
            match place {
                Place::Local(l) => self.locals[l.index()],
                Place::Global(g) => self.globals[g.index()],
            }
        }
        fn input(&self, input: InputId) -> i64 {
            self.inputs[input.index()]
        }
    }

    fn env() -> MapEnv {
        MapEnv {
            locals: vec![10, 20],
            globals: vec![-5],
            inputs: vec![7, 0],
        }
    }

    #[test]
    fn arithmetic_wraps() {
        let e = Expr::bin(BinOp::Add, Expr::Const(i64::MAX), Expr::Const(1));
        assert_eq!(eval(&e, &env()).unwrap(), i64::MIN);
        let m = Expr::bin(BinOp::Mul, Expr::Const(i64::MAX), Expr::Const(2));
        assert_eq!(eval(&m, &env()).unwrap(), -2);
    }

    #[test]
    fn div_by_zero_faults() {
        let e = Expr::bin(BinOp::Div, Expr::Const(1), Expr::input(1));
        assert_eq!(eval(&e, &env()), Err(EvalFault::DivByZero));
        let r = Expr::bin(BinOp::Rem, Expr::Const(1), Expr::Const(0));
        assert_eq!(eval(&r, &env()), Err(EvalFault::RemByZero));
    }

    #[test]
    fn comparisons_yield_bool_ints() {
        assert_eq!(
            eval(&Expr::lt(Expr::local(0), Expr::local(1)), &env()).unwrap(),
            1
        );
        assert_eq!(
            eval(&Expr::eq(Expr::global(0), Expr::Const(-5)), &env()).unwrap(),
            1
        );
        assert_eq!(
            eval(
                &Expr::bin(BinOp::Ge, Expr::Const(1), Expr::Const(2)),
                &env()
            )
            .unwrap(),
            0
        );
    }

    #[test]
    fn logic_treats_nonzero_as_true() {
        let e = Expr::bin(BinOp::And, Expr::Const(-3), Expr::Const(2));
        assert_eq!(eval(&e, &env()).unwrap(), 1);
        let o = Expr::bin(BinOp::Or, Expr::Const(0), Expr::Const(0));
        assert_eq!(eval(&o, &env()).unwrap(), 0);
        let n = Expr::un(UnOp::Not, Expr::Const(0));
        assert_eq!(eval(&n, &env()).unwrap(), 1);
    }

    #[test]
    fn shifts_mask_amount() {
        let e = Expr::bin(BinOp::Shl, Expr::Const(1), Expr::Const(65));
        assert_eq!(eval(&e, &env()).unwrap(), 2);
        let s = Expr::bin(BinOp::Shr, Expr::Const(-8), Expr::Const(1));
        assert_eq!(eval(&s, &env()).unwrap(), -4);
    }

    #[test]
    fn inputs_collected() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::local(1),
            Expr::bin(BinOp::Mul, Expr::global(0), Expr::input(2)),
        );
        assert_eq!(e.inputs(), vec![InputId::new(2)]);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::bin(BinOp::Add, Expr::input(0), Expr::Const(3));
        assert_eq!(e.to_string(), "(in0 + 3)");
    }
}
