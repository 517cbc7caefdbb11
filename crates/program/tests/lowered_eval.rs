//! The lowered expression code the interpreter steps agrees with the
//! recursive reference evaluator: the same value or the same first
//! `EvalFault`, and the same global loads in `Expr::visit`'s pre-order,
//! over random nested expressions full of zero divisors and wrapping
//! edge values.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_program::expr::{eval, BinOp, EvalEnv, Expr, ExprCode, Place, UnOp};
use softborg_program::{GlobalId, InputId};

const BIN_OPS: [BinOp; 18] = [
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
];
const UN_OPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];
const SLOTS: u32 = 4;

/// Mostly small values (so divisors are often zero), sometimes an edge.
fn value(rng: &mut SmallRng) -> i64 {
    const EDGES: [i64; 5] = [i64::MIN, i64::MAX, -1, 63, 64];
    if rng.gen_range(0..4) == 0 {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(-2i64..=2)
    }
}

fn expr(rng: &mut SmallRng, depth: u32) -> Expr {
    let slot = |rng: &mut SmallRng| rng.gen_range(0..SLOTS);
    match rng.gen_range(0..8) {
        _ if depth == 0 => Expr::Const(value(rng)),
        0 => Expr::Const(value(rng)),
        1 => Expr::local(slot(rng)),
        2 => Expr::global(slot(rng)),
        3 => Expr::input(slot(rng)),
        4 => Expr::un(UN_OPS[rng.gen_range(0..3)], expr(rng, depth - 1)),
        _ => {
            let op = BIN_OPS[rng.gen_range(0..BIN_OPS.len())];
            Expr::bin(op, expr(rng, depth - 1), expr(rng, depth - 1))
        }
    }
}

struct State {
    locals: Vec<i64>,
    globals: Vec<i64>,
    inputs: Vec<i64>,
}

impl EvalEnv for State {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lowered_code_agrees_with_the_reference_evaluator(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exprs: Vec<Expr> = (0..24).map(|i| expr(&mut rng, i % 7)).collect();
        // One buffer for all of them, as the interpreter lowers a program.
        let mut code = ExprCode::default();
        let refs: Vec<_> = exprs.iter().map(|e| code.lower(e)).collect();
        let mut stack = vec![0; code.max_depth()];
        for _ in 0..4 {
            let mut slots = || (0..SLOTS).map(|_| value(&mut rng)).collect::<Vec<_>>();
            let state = State {
                locals: slots(),
                globals: slots(),
                inputs: slots(),
            };
            for (e, &r) in exprs.iter().zip(&refs) {
                let lowered = code.eval(r, &state.locals, &state.globals, &state.inputs, &mut stack, &mut ());
                prop_assert_eq!(lowered, eval(e, &state), "{}", e);
            }
        }
        for (e, &r) in exprs.iter().zip(&refs) {
            let mut loads: Vec<GlobalId> = Vec::new();
            e.visit(&mut |x| {
                if let Expr::Load(Place::Global(g)) = x {
                    loads.push(*g);
                }
            });
            prop_assert_eq!(code.global_loads(r), &loads[..], "{}", e);
        }
    }
}
