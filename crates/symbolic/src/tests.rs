use std::collections::BTreeMap;

use crate::{Rel, SymCtx, SymExpr, Truth};

#[test]
fn constant_arithmetic() {
    let a = SymExpr::constant(3) + SymExpr::constant(4);
    assert_eq!(a.as_const(), Some(7));
    let b = SymExpr::constant(10) - SymExpr::constant(4);
    assert_eq!(b.as_const(), Some(6));
    let c = SymExpr::constant(5) * 3;
    assert_eq!(c.as_const(), Some(15));
    let d = -SymExpr::constant(5);
    assert_eq!(d.as_const(), Some(-5));
}

#[test]
fn constant_queries_are_exact() {
    let ctx = SymCtx::new();
    let two = SymExpr::constant(2);
    let three = SymExpr::constant(3);
    assert_eq!(ctx.check(&two, Rel::Lt, &three), Truth::Proved);
    assert_eq!(ctx.check(&two, Rel::Eq, &three), Truth::Refuted);
    assert_eq!(ctx.check(&two, Rel::Ne, &three), Truth::Proved);
    assert_eq!(ctx.check(&three, Rel::Le, &three), Truth::Proved);
    assert_eq!(ctx.check(&three, Rel::Gt, &three), Truth::Refuted);
}

#[test]
fn var_interning_by_name() {
    let mut ctx = SymCtx::new();
    let a1 = ctx.var("a");
    let a2 = ctx.var("a");
    assert_eq!(a1, a2);
    let b = ctx.var("b");
    assert_ne!(a1, b);
}

#[test]
fn vars_cancel() {
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let e = a.clone() - a.clone();
    assert_eq!(e.as_const(), Some(0));
    // x - x == 0 is decidable without any assumptions.
    assert_eq!(ctx.check(&e, Rel::Eq, &SymExpr::zero()), Truth::Proved);
}

#[test]
fn equality_assumption_propagates() {
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    ctx.assume(a.clone(), Rel::Eq, b.clone());
    assert_eq!(ctx.check_eq(&a, &b), Truth::Proved);
    assert_eq!(
        ctx.check_eq(
            &(a.clone() + SymExpr::constant(5)),
            &(b.clone() + SymExpr::constant(5))
        ),
        Truth::Proved
    );
    assert_eq!(
        ctx.check_eq(&(a * 2), &(b * 2 + SymExpr::constant(1))),
        Truth::Refuted
    );
}

#[test]
fn chained_inequalities() {
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    let c = ctx.var("c");
    ctx.assume(a.clone(), Rel::Lt, b.clone());
    ctx.assume(b.clone(), Rel::Lt, c.clone());
    assert_eq!(ctx.check(&a, Rel::Lt, &c), Truth::Proved);
    assert_eq!(ctx.check(&c, Rel::Le, &a), Truth::Refuted);
    assert_eq!(ctx.check(&a, Rel::Ne, &c), Truth::Proved);
}

#[test]
fn unconstrained_is_unknown() {
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    assert_eq!(ctx.check_eq(&a, &b), Truth::Unknown);
    assert_eq!(ctx.check(&a, Rel::Le, &b), Truth::Unknown);
}

#[test]
fn halved_dims() {
    // The doc-example scenario: h is half of n.
    let mut ctx = SymCtx::new();
    let n = ctx.var("n");
    let h = ctx.var("h");
    ctx.assume(h.clone() * 2, Rel::Eq, n.clone());
    ctx.assume(n.clone(), Rel::Ge, SymExpr::constant(2));
    assert_eq!(ctx.check_eq(&(h.clone() + h.clone()), &n), Truth::Proved);
    assert_eq!(ctx.check(&h, Rel::Lt, &n), Truth::Proved);
    assert_eq!(ctx.check(&h, Rel::Ge, &SymExpr::constant(1)), Truth::Proved);
}

#[test]
fn sharded_sequence_offsets() {
    // SP rank offsets: rank r owns [r*chunk, (r+1)*chunk); seams must align.
    let mut ctx = SymCtx::new();
    let chunk = ctx.var("chunk");
    ctx.assume(chunk.clone(), Rel::Gt, SymExpr::constant(0));
    let end0 = chunk.clone();
    let start1 = chunk.clone();
    assert_eq!(ctx.check_eq(&end0, &start1), Truth::Proved);
    // A buggy offset (start1 = chunk - 1) is refutable.
    let bad = chunk.clone() - SymExpr::constant(1);
    assert_eq!(ctx.check_eq(&end0, &bad), Truth::Refuted);
}

#[test]
fn infeasible_assumptions_prove_anything() {
    // Classic vacuous truth: with contradictory assumptions, everything is
    // provable. Callers never build contradictory contexts, but the solver
    // must not crash or loop.
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    ctx.assume(a.clone(), Rel::Lt, SymExpr::constant(0));
    ctx.assume(a.clone(), Rel::Gt, SymExpr::constant(0));
    assert_eq!(ctx.check_eq(&a, &SymExpr::constant(42)), Truth::Proved);
}

#[test]
fn eval_with_assignment() {
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    let e = a.clone() * 3 + b.clone() - SymExpr::constant(2);
    let mut assignment = BTreeMap::new();
    for v in e.vars() {
        // a is variable index 0, b is 1.
        assignment.insert(v, (v.index() as i64 + 1) * 10);
    }
    // 3*10 + 20 - 2
    assert_eq!(e.eval(&assignment), 48);
    let _ = (a, b);
}

#[test]
fn display_formats() {
    let mut ctx = SymCtx::new();
    let a = ctx.var("alpha");
    let e = a.clone() * 2 - SymExpr::constant(3);
    // Display uses anonymous names at the expression level.
    assert_eq!(e.to_string(), "2*s0 - 3");
    assert_eq!(ctx.name(a.vars().next().unwrap()), Some("alpha"));
    assert_eq!(SymExpr::constant(-7).to_string(), "-7");
}

#[test]
fn rel_flip_negate() {
    assert_eq!(Rel::Lt.flip(), Rel::Gt);
    assert_eq!(Rel::Le.negate(), Rel::Gt);
    assert_eq!(Rel::Eq.negate(), Rel::Ne);
    assert_eq!(Rel::Ne.flip(), Rel::Ne);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_expr(nvars: usize) -> impl Strategy<Value = (Vec<i64>, i64)> {
        (proptest::collection::vec(-5i64..=5, nvars), -20i64..=20)
    }

    fn to_expr(ctx: &mut SymCtx, coeffs: &[i64], constant: i64) -> SymExpr {
        let mut e = SymExpr::constant(constant);
        for (i, c) in coeffs.iter().enumerate() {
            let v = ctx.var(&format!("v{i}"));
            e = e + v * *c;
        }
        e
    }

    proptest! {
        /// If the solver proves `lhs rel rhs` from assumptions, then every
        /// concrete assignment satisfying the assumptions must satisfy the
        /// conclusion: soundness of `Proved`.
        #[test]
        fn proved_implies_concrete(
            (ac, a0) in small_expr(3),
            (bc, b0) in small_expr(3),
            assignment in proptest::collection::vec(-10i64..=10, 3),
        ) {
            let mut ctx = SymCtx::new();
            let lhs = to_expr(&mut ctx, &ac, a0);
            let rhs = to_expr(&mut ctx, &bc, b0);
            // Assume the assignment's facts: v_i == assignment[i].
            for (i, val) in assignment.iter().enumerate() {
                let v = ctx.var(&format!("v{i}"));
                ctx.assume(v, Rel::Eq, SymExpr::constant(*val));
            }
            let mut env = std::collections::BTreeMap::new();
            for (i, val) in assignment.iter().enumerate() {
                let var = ctx.var(&format!("v{i}")).vars().next().unwrap();
                env.insert(var, *val);
            }
            let l = lhs.eval(&env);
            let r = rhs.eval(&env);
            for rel in [Rel::Eq, Rel::Ne, Rel::Le, Rel::Lt, Rel::Ge, Rel::Gt] {
                let concrete = match rel {
                    Rel::Eq => l == r,
                    Rel::Ne => l != r,
                    Rel::Le => l <= r,
                    Rel::Lt => l < r,
                    Rel::Ge => l >= r,
                    Rel::Gt => l > r,
                };
                match ctx.check(&lhs, rel, &rhs) {
                    Truth::Proved => prop_assert!(concrete, "{lhs} {rel} {rhs} proved but false"),
                    Truth::Refuted => prop_assert!(!concrete, "{lhs} {rel} {rhs} refuted but true"),
                    Truth::Unknown => {}
                }
            }
        }

        /// Expression algebra matches i64 arithmetic under evaluation.
        #[test]
        fn expr_algebra_matches_eval(
            (ac, a0) in small_expr(4),
            (bc, b0) in small_expr(4),
            assignment in proptest::collection::vec(-100i64..=100, 4),
            k in -7i64..=7,
        ) {
            let mut ctx = SymCtx::new();
            let lhs = to_expr(&mut ctx, &ac, a0);
            let rhs = to_expr(&mut ctx, &bc, b0);
            let mut env = std::collections::BTreeMap::new();
            for (i, val) in assignment.iter().enumerate() {
                let var = ctx.var(&format!("v{i}")).vars().next().unwrap();
                env.insert(var, *val);
            }
            let l = lhs.eval(&env);
            let r = rhs.eval(&env);
            prop_assert_eq!((lhs.clone() + rhs.clone()).eval(&env), l + r);
            prop_assert_eq!((lhs.clone() - rhs.clone()).eval(&env), l - r);
            prop_assert_eq!((-lhs.clone()).eval(&env), -l);
            prop_assert_eq!((lhs.clone() * k).eval(&env), l * k);
        }
    }
}

#[test]
fn strict_and_nonstrict_mix() {
    // a < b together with b <= a is contradictory: anything is provable,
    // and the solver must not loop.
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    ctx.assume(a.clone(), Rel::Lt, b.clone());
    ctx.assume(b.clone(), Rel::Le, a.clone());
    assert_eq!(ctx.check_eq(&a, &b), Truth::Proved);
}

#[test]
fn strictness_matters() {
    // a <= b does NOT prove a < b, but a+1 <= b does.
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    ctx.assume(a.clone(), Rel::Le, b.clone());
    assert_eq!(ctx.check(&a, Rel::Lt, &b), Truth::Unknown);
    let mut ctx2 = SymCtx::new();
    let a = ctx2.var("a");
    let b = ctx2.var("b");
    ctx2.assume(a.clone() + SymExpr::constant(1), Rel::Le, b.clone());
    assert_eq!(ctx2.check(&a, Rel::Lt, &b), Truth::Proved);
}

#[test]
fn coefficient_scaling_is_sound() {
    // 2a <= 2b entails a <= b over the rationals.
    let mut ctx = SymCtx::new();
    let a = ctx.var("a");
    let b = ctx.var("b");
    ctx.assume(a.clone() * 2, Rel::Le, b.clone() * 2);
    assert_eq!(ctx.check(&a, Rel::Le, &b), Truth::Proved);
}

#[test]
fn many_variable_elimination_terminates() {
    // A ring of constraints over 10 variables; the FM heuristic keeps the
    // intermediate systems small and the query decides quickly.
    let mut ctx = SymCtx::new();
    let vars: Vec<SymExpr> = (0..10).map(|i| ctx.var(&format!("x{i}"))).collect();
    for w in vars.windows(2) {
        ctx.assume(w[0].clone(), Rel::Le, w[1].clone());
    }
    assert_eq!(ctx.check(&vars[0], Rel::Le, &vars[9]), Truth::Proved);
    assert_eq!(ctx.check(&vars[9], Rel::Le, &vars[0]), Truth::Unknown);
}
