//! Sound interval analysis over residual expressions.
//!
//! The quick feasibility filter: every input symbol ranges over a box;
//! the interval of a residual over-approximates its possible values, so a
//! constraint whose interval excludes the wanted truth value is provably
//! infeasible. (The reverse direction needs the search in
//! [`crate::solve`].)

use softborg_program::expr::{BinOp, Expr, UnOp};

/// A closed integer interval `[lo, hi]` (saturating arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Interval {
    /// The full `i64` range.
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A point interval.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// A range interval (panics if `lo > hi`).
    pub fn new(lo: i64, hi: i64) -> Interval {
        assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Whether `v` lies inside.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the interval is exactly one value.
    fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Can the value be nonzero?
    pub fn may_be_true(&self) -> bool {
        !(self.lo == 0 && self.hi == 0)
    }

    /// Can the value be zero?
    pub fn may_be_false(&self) -> bool {
        self.contains(0)
    }

    fn bool_any() -> Interval {
        Interval { lo: 0, hi: 1 }
    }
}

/// The input box: per-symbol ranges (real inputs first, pseudo-inputs
/// after; symbols beyond the vector default to [`Interval::TOP`]).
#[derive(Debug, Clone, Default)]
pub struct InputBox {
    ranges: Vec<Interval>,
}

impl InputBox {
    /// A box giving each of `n` real inputs the range `[lo, hi]`.
    pub fn uniform(n: u32, lo: i64, hi: i64) -> Self {
        InputBox {
            ranges: vec![Interval::new(lo, hi); n as usize],
        }
    }

    /// Range of symbol `i` (TOP when unspecified — pseudo-inputs).
    pub fn range(&self, i: usize) -> Interval {
        self.ranges.get(i).copied().unwrap_or(Interval::TOP)
    }

    /// Number of explicitly-ranged symbols.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when no ranges are specified.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Extends the box with one more symbol range.
    pub fn push(&mut self, iv: Interval) {
        self.ranges.push(iv);
    }

    /// Overwrites symbol `i`'s range (the box must already cover `i`).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range; use [`InputBox::push`] to grow.
    pub fn set(&mut self, i: usize, iv: Interval) {
        self.ranges[i] = iv;
    }
}

/// Interval of a residual expression over `box_`.
pub fn eval(e: &Expr, box_: &InputBox) -> Interval {
    match e {
        Expr::Const(c) => Interval::point(*c),
        Expr::Input(i) => box_.range(i.index()),
        Expr::Load(_) => Interval::TOP, // residuals should not contain loads
        Expr::Un(op, x) => {
            let ix = eval(x, box_);
            match op {
                UnOp::Neg => {
                    if ix == Interval::TOP {
                        Interval::TOP
                    } else {
                        Interval::new(
                            ix.hi.checked_neg().unwrap_or(i64::MAX),
                            ix.lo.checked_neg().unwrap_or(i64::MAX),
                        )
                    }
                }
                UnOp::Not => {
                    if !ix.may_be_false() {
                        Interval::point(0)
                    } else if !ix.may_be_true() {
                        Interval::point(1)
                    } else {
                        Interval::bool_any()
                    }
                }
                UnOp::BitNot => Interval::TOP,
            }
        }
        Expr::Bin(op, a, b) => {
            let ia = eval(a, box_);
            let ib = eval(b, box_);
            bin_interval(*op, ia, ib)
        }
    }
}

fn sat_add(a: i64, b: i64) -> i64 {
    a.saturating_add(b)
}

fn bin_interval(op: BinOp, a: Interval, b: Interval) -> Interval {
    match op {
        BinOp::Add => Interval::new(sat_add(a.lo, b.lo), sat_add(a.hi, b.hi)),
        BinOp::Sub => Interval::new(a.lo.saturating_sub(b.hi), a.hi.saturating_sub(b.lo)),
        BinOp::Mul => {
            let candidates = [
                a.lo.saturating_mul(b.lo),
                a.lo.saturating_mul(b.hi),
                a.hi.saturating_mul(b.lo),
                a.hi.saturating_mul(b.hi),
            ];
            Interval::new(
                *candidates.iter().min().expect("non-empty"),
                *candidates.iter().max().expect("non-empty"),
            )
        }
        BinOp::Div => {
            // Conservative: refuse to reason when the divisor may be 0 or
            // the magnitudes are extreme.
            if b.contains(0) {
                Interval::TOP
            } else {
                let candidates = [
                    a.lo.wrapping_div(b.lo),
                    a.lo.wrapping_div(b.hi),
                    a.hi.wrapping_div(b.lo),
                    a.hi.wrapping_div(b.hi),
                ];
                Interval::new(
                    *candidates.iter().min().expect("non-empty"),
                    *candidates.iter().max().expect("non-empty"),
                )
            }
        }
        BinOp::Rem => {
            if b.contains(0) {
                Interval::TOP
            } else {
                let m = b.lo.abs().max(b.hi.abs());
                if a.lo >= 0 {
                    Interval::new(0, m - 1)
                } else {
                    Interval::new(-(m - 1), m - 1)
                }
            }
        }
        BinOp::Lt => cmp_interval(a, b, |x, y| x < y),
        BinOp::Le => cmp_interval(a, b, |x, y| x <= y),
        BinOp::Gt => cmp_interval(b, a, |x, y| x < y),
        BinOp::Ge => cmp_interval(b, a, |x, y| x <= y),
        BinOp::Eq => {
            if a.is_point() && b.is_point() {
                Interval::point(i64::from(a.lo == b.lo))
            } else if a.hi < b.lo || b.hi < a.lo {
                Interval::point(0)
            } else {
                Interval::bool_any()
            }
        }
        BinOp::Ne => {
            if a.is_point() && b.is_point() {
                Interval::point(i64::from(a.lo != b.lo))
            } else if a.hi < b.lo || b.hi < a.lo {
                Interval::point(1)
            } else {
                Interval::bool_any()
            }
        }
        BinOp::And => {
            if !a.may_be_true() || !b.may_be_true() {
                Interval::point(0)
            } else if !a.may_be_false() && !b.may_be_false() {
                Interval::point(1)
            } else {
                Interval::bool_any()
            }
        }
        BinOp::Or => {
            if !a.may_be_false() || !b.may_be_false() {
                Interval::point(1)
            } else if !a.may_be_true() && !b.may_be_true() {
                Interval::point(0)
            } else {
                Interval::bool_any()
            }
        }
        // Bit operations: precise only on points; otherwise coarse but
        // sound bounds for non-negative operands.
        BinOp::BitAnd => {
            if a.is_point() && b.is_point() {
                Interval::point(a.lo & b.lo)
            } else if a.lo >= 0 && b.lo >= 0 {
                Interval::new(0, a.hi.min(b.hi))
            } else {
                Interval::TOP
            }
        }
        BinOp::BitOr | BinOp::BitXor => {
            if a.is_point() && b.is_point() {
                Interval::point(if op == BinOp::BitOr {
                    a.lo | b.lo
                } else {
                    a.lo ^ b.lo
                })
            } else if a.lo >= 0 && b.lo >= 0 {
                let bound = ((a.hi.max(b.hi) as u64).next_power_of_two() as i64)
                    .saturating_mul(2)
                    .saturating_sub(1);
                Interval::new(0, bound.max(0))
            } else {
                Interval::TOP
            }
        }
        BinOp::Shl | BinOp::Shr => {
            if a.is_point() && b.is_point() {
                Interval::point(
                    softborg_program::expr::apply_bin(op, a.lo, b.lo).expect("shifts cannot fault"),
                )
            } else {
                Interval::TOP
            }
        }
    }
}

fn cmp_interval(a: Interval, b: Interval, lt: fn(i64, i64) -> bool) -> Interval {
    // result of `a < b` (or <= via closure).
    if lt(a.hi, b.lo) {
        Interval::point(1)
    } else if !lt(a.lo, b.hi) {
        Interval::point(0)
    } else {
        Interval::bool_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use softborg_program::expr::Expr;

    fn bx() -> InputBox {
        InputBox::uniform(2, 0, 10)
    }

    #[test]
    fn constants_are_points() {
        assert_eq!(eval(&Expr::Const(5), &bx()), Interval::point(5));
    }

    #[test]
    fn inputs_take_box_ranges() {
        assert_eq!(eval(&Expr::input(0), &bx()), Interval::new(0, 10));
        // Pseudo-input beyond the box: TOP.
        assert_eq!(eval(&Expr::input(7), &bx()), Interval::TOP);
    }

    #[test]
    fn addition_adds_bounds() {
        let e = Expr::bin(BinOp::Add, Expr::input(0), Expr::input(1));
        assert_eq!(eval(&e, &bx()), Interval::new(0, 20));
    }

    #[test]
    fn comparison_decides_when_disjoint() {
        // in0 < 100 is always true on [0,10].
        let e = Expr::lt(Expr::input(0), Expr::Const(100));
        assert_eq!(eval(&e, &bx()), Interval::point(1));
        // in0 > 100 is always false.
        let e2 = Expr::bin(BinOp::Gt, Expr::input(0), Expr::Const(100));
        assert_eq!(eval(&e2, &bx()), Interval::point(0));
        // in0 < 5 is undecided.
        let e3 = Expr::lt(Expr::input(0), Expr::Const(5));
        assert_eq!(eval(&e3, &bx()), Interval::new(0, 1));
    }

    #[test]
    fn equality_excluded_when_ranges_disjoint() {
        let e = Expr::eq(Expr::input(0), Expr::Const(50));
        assert_eq!(eval(&e, &bx()), Interval::point(0));
        let e2 = Expr::eq(Expr::input(0), Expr::Const(5));
        assert_eq!(eval(&e2, &bx()), Interval::new(0, 1));
    }

    #[test]
    fn rem_bounds() {
        let e = Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(3));
        assert_eq!(eval(&e, &bx()), Interval::new(0, 2));
    }

    #[test]
    fn div_with_possibly_zero_divisor_is_top() {
        let e = Expr::bin(BinOp::Div, Expr::Const(100), Expr::input(0));
        assert_eq!(eval(&e, &bx()), Interval::TOP);
    }

    proptest! {
        /// Soundness: concrete evaluation always lies inside the interval.
        #[test]
        fn prop_interval_is_sound(
            a in 0i64..=10, b in 0i64..=10,
            op_idx in 0usize..12,
        ) {
            let ops = [
                BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Rem,
                BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge,
                BinOp::Eq, BinOp::Ne, BinOp::And, BinOp::Or,
            ];
            let op = ops[op_idx];
            let e = Expr::bin(op, Expr::input(0),
                Expr::bin(BinOp::Add, Expr::input(1), Expr::Const(1)));
            let iv = eval(&e, &bx());
            if let Some(v) = crate::partial::eval_residual(&e, &[a, b]) {
                prop_assert!(iv.contains(v), "{op:?}: {v} not in [{}, {}]", iv.lo, iv.hi);
            }
        }
    }
}
