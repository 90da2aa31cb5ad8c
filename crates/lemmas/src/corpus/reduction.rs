//! Reduction and loss lemmas: sums, means, softmax, MSE, cross-entropy and
//! rational scaling. The scaling lemmas are the algebra behind the
//! auxiliary-loss (Bug 2) and gradient-accumulation (Bug 6) detections:
//! `scalar_mul` is *not* a clean operator, so a distributed loss that can
//! only be related to the sequential one through a leftover scale factor
//! fails refinement.

use entangle_egraph::{Rewrite, Var};
use entangle_symbolic::SymExpr;

use crate::analysis::cond::{add_op, add_scalar, int, rank, shape};
use crate::corpus::{Builder, Category};
use crate::term::mint_ones_leaf;

fn v(name: &str) -> Var {
    Var::new(name)
}

/// The greatest common divisor; `None` where a step leaves `i64` (an
/// operand of `i64::MIN`), and an applier that needs it then declines.
fn gcd(a: i64, b: i64) -> Option<i64> {
    if b == 0 {
        a.checked_abs()
    } else {
        gcd(b, a.checked_rem(b)?)
    }
}

/// Reduces `n/d` to lowest terms (fractions in relations are canonical).
fn reduced(n: i64, d: i64) -> Option<(i64, i64)> {
    let g = gcd(n, d)?.max(1);
    Some((n / g, d / g))
}

/// The product `a/b · c/e`, reduced.
fn product((a, b): (i64, i64), (c, e): (i64, i64)) -> Option<(i64, i64)> {
    reduced(a.checked_mul(c)?, b.checked_mul(e)?)
}

/// The sum `a/b + c/e`, reduced.
fn sum((a, b): (i64, i64), (c, e): (i64, i64)) -> Option<(i64, i64)> {
    reduced(
        a.checked_mul(e)?.checked_add(c.checked_mul(b)?)?,
        b.checked_mul(e)?,
    )
}

/// The weights `a/(a+b)` and `b/(a+b)` of two parts, each reduced.
fn weights(a: i64, b: i64) -> Option<((i64, i64), (i64, i64))> {
    let n = a.checked_add(b)?;
    Some((reduced(a, n)?, reduced(b, n)?))
}

pub(crate) fn install(b: &mut Builder) {
    // Summing over the concatenated dim adds the per-part sums (this is
    // what all-reduce ultimately is).
    b.uni(
        "sum_dim-of-concat-same",
        "(sum_dim (concat ?a ?b ?d) ?d ?k)",
        "(add (sum_dim ?a ?d ?k) (sum_dim ?b ?d ?k))",
        Category::General,
        &[],
    );

    // Summing over another dim distributes over the concat, with the concat
    // dim re-indexed when the reduced dim disappears.
    let rw = Rewrite::parse_dyn(
        "sum_dim-of-concat-other",
        "(sum_dim (concat ?a ?b ?d1) ?d2 ?k)",
        |eg, _id, subst| {
            let (Some(d1), Some(d2), Some(k)) = (
                int(eg, subst[v("d1")]),
                int(eg, subst[v("d2")]),
                int(eg, subst[v("k")]),
            ) else {
                return vec![];
            };
            if d1 == d2 {
                return vec![];
            }
            let (d2c, kc) = (subst[v("d2")], subst[v("k")]);
            let sa = add_op(eg, "sum_dim", vec![subst[v("a")], d2c, kc]);
            let sb = add_op(eg, "sum_dim", vec![subst[v("b")], d2c, kc]);
            let dout = if k == 0 && d2 < d1 { d1 - 1 } else { d1 };
            let doutc = add_scalar(eg, SymExpr::constant(dout));
            vec![add_op(eg, "concat", vec![sa, sb, doutc])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 18, 4, &[]);

    // Mean over a dim untouched by the concat distributes (the reduced-dim
    // case is a weighted sum and is intentionally *not* a lemma — that is
    // how unscaled accumulations get caught).
    let rw = Rewrite::parse_dyn(
        "mean_dim-of-concat-other",
        "(mean_dim (concat ?a ?b ?d1) ?d2 ?k)",
        |eg, _id, subst| {
            let (Some(d1), Some(d2), Some(k)) = (
                int(eg, subst[v("d1")]),
                int(eg, subst[v("d2")]),
                int(eg, subst[v("k")]),
            ) else {
                return vec![];
            };
            if d1 == d2 {
                return vec![];
            }
            let (d2c, kc) = (subst[v("d2")], subst[v("k")]);
            let ma = add_op(eg, "mean_dim", vec![subst[v("a")], d2c, kc]);
            let mb = add_op(eg, "mean_dim", vec![subst[v("b")], d2c, kc]);
            let dout = if k == 0 && d2 < d1 { d1 - 1 } else { d1 };
            let doutc = add_scalar(eg, SymExpr::constant(dout));
            vec![add_op(eg, "concat", vec![ma, mb, doutc])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 18, 4, &["llama3"]);

    // Slicing along a non-reduced dim commutes with mean_dim (dims shift
    // when the reduction dropped an earlier axis).
    let rw = Rewrite::parse_dyn(
        "mean_dim-of-slice",
        "(mean_dim (slice ?x ?d ?lo ?hi) ?d2 ?k)",
        |eg, _id, subst| {
            let (Some(d), Some(d2), Some(k)) = (
                int(eg, subst[v("d")]),
                int(eg, subst[v("d2")]),
                int(eg, subst[v("k")]),
            ) else {
                return vec![];
            };
            if d == d2 {
                return vec![];
            }
            // Constrained: the full-tensor mean must already exist.
            let target = entangle_egraph::ENode::op(
                "mean_dim",
                vec![subst[v("x")], subst[v("d2")], subst[v("k")]],
            );
            if eg.lookup(&target).is_none() {
                return vec![];
            }
            let m = add_op(
                eg,
                "mean_dim",
                vec![subst[v("x")], subst[v("d2")], subst[v("k")]],
            );
            let dout = if k == 0 && d2 < d { d - 1 } else { d };
            let doutc = add_scalar(eg, SymExpr::constant(dout));
            vec![add_op(
                eg,
                "slice",
                vec![m, doutc, subst[v("lo")], subst[v("hi")]],
            )]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 24, 3, &["llama3"]);

    b.uni(
        "sum_all-of-concat",
        "(sum_all (concat ?a ?b ?d))",
        "(add (sum_all ?a) (sum_all ?b))",
        Category::General,
        &[],
    );

    // Mean of a concat is the numel-weighted mean of the parts.
    let rw = Rewrite::parse_dyn(
        "mean_all-of-concat",
        "(mean_all (concat ?a ?b ?d))",
        |eg, _id, subst| {
            let (Some(sa), Some(sb)) = (shape(eg, subst[v("a")]), shape(eg, subst[v("b")])) else {
                return vec![];
            };
            let (Some(na), Some(nb)) = (sa.numel(), sb.numel()) else {
                return vec![];
            };
            let Some(((na_r, nda), (nb_r, ndb))) = weights(na, nb) else {
                return vec![];
            };
            let ma = add_op(eg, "mean_all", vec![subst[v("a")]]);
            let mb = add_op(eg, "mean_all", vec![subst[v("b")]]);
            let (nac, nca) = (
                add_scalar(eg, SymExpr::constant(na_r)),
                add_scalar(eg, SymExpr::constant(nda)),
            );
            let (nbc, ncb) = (
                add_scalar(eg, SymExpr::constant(nb_r)),
                add_scalar(eg, SymExpr::constant(ndb)),
            );
            let wa = add_op(eg, "scalar_mul", vec![ma, nac, nca]);
            let wb = add_op(eg, "scalar_mul", vec![mb, nbc, ncb]);
            vec![add_op(eg, "add", vec![wa, wb])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 20, 6, &[]);

    // Softmax along a dim untouched by the concat distributes.
    let rw = Rewrite::parse_if(
        "softmax-of-concat",
        "(softmax (concat ?a ?b ?d1) ?d2)",
        "(concat (softmax ?a ?d2) (softmax ?b ?d2) ?d1)",
        |eg, _id, subst| {
            matches!(
                (int(eg, subst[v("d1")]), int(eg, subst[v("d2")])),
                (Some(d1), Some(d2)) if d1 != d2
            )
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 10, 5, &[]);

    let rw = Rewrite::parse_if(
        "softmax-of-slice",
        "(softmax (slice ?x ?d ?lo ?hi) ?d2)",
        "(slice (softmax ?x ?d2) ?d ?lo ?hi)",
        |eg, _id, subst| {
            let same_dim = matches!(
                (int(eg, subst[v("d")]), int(eg, subst[v("d2")])),
                (Some(d), Some(d2)) if d != d2
            );
            same_dim
                && eg
                    .lookup(&entangle_egraph::ENode::op(
                        "softmax",
                        vec![subst[v("x")], subst[v("d2")]],
                    ))
                    .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 12, 3, &[]);

    // MSE over a batch concat is the numel-weighted sum of part losses —
    // the gradient-accumulation identity (Bug 6).
    let rw = Rewrite::parse_dyn(
        "mse-of-concat",
        "(mse_loss (concat ?p0 ?p1 ?d) (concat ?t0 ?t1 ?d))",
        |eg, _id, subst| {
            let (Some(sp0), Some(sp1), Some(st0)) = (
                shape(eg, subst[v("p0")]),
                shape(eg, subst[v("p1")]),
                shape(eg, subst[v("t0")]),
            ) else {
                return vec![];
            };
            if sp0 != st0 {
                return vec![]; // prediction/target seams must align
            }
            let (Some(n0), Some(n1)) = (sp0.numel(), sp1.numel()) else {
                return vec![];
            };
            let Some(((n0_r, d0), (n1_r, d1))) = weights(n0, n1) else {
                return vec![];
            };
            let l0 = add_op(eg, "mse_loss", vec![subst[v("p0")], subst[v("t0")]]);
            let l1 = add_op(eg, "mse_loss", vec![subst[v("p1")], subst[v("t1")]]);
            let (n0c, d0c) = (
                add_scalar(eg, SymExpr::constant(n0_r)),
                add_scalar(eg, SymExpr::constant(d0)),
            );
            let (n1c, d1c) = (
                add_scalar(eg, SymExpr::constant(n1_r)),
                add_scalar(eg, SymExpr::constant(d1)),
            );
            let w0 = add_op(eg, "scalar_mul", vec![l0, n0c, d0c]);
            let w1 = add_op(eg, "scalar_mul", vec![l1, n1c, d1c]);
            vec![add_op(eg, "add", vec![w0, w1])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 24, 6, &["regression"]);

    // Cross-entropy over a batch concat: row-weighted sum of part losses
    // (valid when the concat is not on the vocab dim).
    let rw = Rewrite::parse_dyn(
        "cross_entropy-of-concat",
        "(cross_entropy (concat ?l0 ?l1 ?d) (concat ?t0 ?t1 ?d))",
        |eg, _id, subst| {
            let (Some(d), Some(rl)) = (int(eg, subst[v("d")]), rank(eg, subst[v("l0")])) else {
                return vec![];
            };
            if d == rl as i64 - 1 {
                return vec![]; // vocab-dim split is not batch accumulation
            }
            let (Some(sl0), Some(sl1)) = (shape(eg, subst[v("l0")]), shape(eg, subst[v("l1")]))
            else {
                return vec![];
            };
            let (Some(v0), Some(v1)) = (sl0.dim(rl - 1).as_const(), sl1.dim(rl - 1).as_const())
            else {
                return vec![];
            };
            let (Some(n0), Some(n1)) = (sl0.numel(), sl1.numel()) else {
                return vec![];
            };
            // Row counts.
            let (Some(r0), Some(r1)) = (n0.checked_div(v0), n1.checked_div(v1)) else {
                return vec![];
            };
            let Some(((r0_r, e0), (r1_r, e1))) = weights(r0, r1) else {
                return vec![];
            };
            let c0 = add_op(eg, "cross_entropy", vec![subst[v("l0")], subst[v("t0")]]);
            let c1 = add_op(eg, "cross_entropy", vec![subst[v("l1")], subst[v("t1")]]);
            let (r0c, e0c) = (
                add_scalar(eg, SymExpr::constant(r0_r)),
                add_scalar(eg, SymExpr::constant(e0)),
            );
            let (r1c, e1c) = (
                add_scalar(eg, SymExpr::constant(r1_r)),
                add_scalar(eg, SymExpr::constant(e1)),
            );
            let w0 = add_op(eg, "scalar_mul", vec![c0, r0c, e0c]);
            let w1 = add_op(eg, "scalar_mul", vec![c1, r1c, e1c]);
            vec![add_op(eg, "add", vec![w0, w1])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 28, 6, &["gpt"]);

    // ----- rational scaling algebra -----

    let rw = Rewrite::parse_dyn(
        "scalar_mul-compose",
        "(scalar_mul (scalar_mul ?x ?a ?b) ?c ?e)",
        |eg, _id, subst| {
            let (Some(a), Some(bb), Some(c), Some(e)) = (
                int(eg, subst[v("a")]),
                int(eg, subst[v("b")]),
                int(eg, subst[v("c")]),
                int(eg, subst[v("e")]),
            ) else {
                return vec![];
            };
            // Unreduced products can leave i64 under adversarial corpora
            // (unbounded fraction chains); composition past that range
            // simply isn't representable, so the rule does not fire.
            let Some((n, d)) = product((a, bb), (c, e)) else {
                return vec![];
            };
            let nc = add_scalar(eg, SymExpr::constant(n));
            let dc = add_scalar(eg, SymExpr::constant(d));
            vec![add_op(eg, "scalar_mul", vec![subst[v("x")], nc, dc])]
        },
    )
    .expect("parses")
    // Static sketch for the rule analyzer: the applier mints a fresh
    // gcd-reduced fraction (?fn ?fd are unbound on purpose).
    .with_rhs_hint("(scalar_mul ?x ?fn ?fd)")
    .expect("hint parses");
    b.push(rw, Category::General, 14, 2, &[]);

    // Fractions in relations are canonical: 2/8 rewrites to 1/4, so scale
    // factors produced by different derivation paths meet in one e-class.
    let rw = Rewrite::parse_dyn(
        "scalar_mul-normalize",
        "(scalar_mul ?x ?n ?m)",
        |eg, _id, subst| {
            let (Some(n), Some(m)) = (int(eg, subst[v("n")]), int(eg, subst[v("m")])) else {
                return vec![];
            };
            let Some(g) = gcd(n, m).filter(|&g| g > 1) else {
                return vec![];
            };
            let nc = add_scalar(eg, SymExpr::constant(n / g));
            let mc = add_scalar(eg, SymExpr::constant(m / g));
            vec![add_op(eg, "scalar_mul", vec![subst[v("x")], nc, mc])]
        },
    )
    .expect("parses")
    .with_rhs_hint("(scalar_mul ?x ?fn ?fd)")
    .expect("hint parses");
    b.push(rw, Category::General, 12, 1, &[]);

    let rw = Rewrite::parse_if(
        "scalar_mul-one",
        "(scalar_mul ?x ?n ?n)",
        "?x",
        |eg, _id, subst| int(eg, subst[v("n")]).is_some_and(|n| n != 0),
    )
    .expect("parses");
    b.push(rw, Category::General, 6, 1, &[]);

    b.uni(
        "scalar_mul-distribute",
        "(scalar_mul (add ?x ?y) ?n ?m)",
        "(add (scalar_mul ?x ?n ?m) (scalar_mul ?y ?n ?m))",
        Category::General,
        &[],
    );
    b.uni(
        "scalar_mul-factor",
        "(add (scalar_mul ?x ?n ?m) (scalar_mul ?y ?n ?m))",
        "(scalar_mul (add ?x ?y) ?n ?m)",
        Category::General,
        &[],
    );

    // Adding two scalings of the *same* tensor sums the fractions — how a
    // correctly 1/T-scaled auxiliary loss collapses back to the sequential
    // loss after its all-reduce (Bug 2's correct variant).
    let rw = Rewrite::parse_dyn(
        "scalar_mul-add-same",
        "(add (scalar_mul ?x ?a ?b) (scalar_mul ?x ?c ?e))",
        |eg, _id, subst| {
            let (Some(a), Some(bb), Some(c), Some(e)) = (
                int(eg, subst[v("a")]),
                int(eg, subst[v("b")]),
                int(eg, subst[v("c")]),
                int(eg, subst[v("e")]),
            ) else {
                return vec![];
            };
            let Some((n, d)) = sum((a, bb), (c, e)) else {
                return vec![];
            };
            let nc = add_scalar(eg, SymExpr::constant(n));
            let dc = add_scalar(eg, SymExpr::constant(d));
            vec![add_op(eg, "scalar_mul", vec![subst[v("x")], nc, dc])]
        },
    )
    .expect("parses")
    .with_rhs_hint("(scalar_mul ?x ?fn ?fd)")
    .expect("hint parses");
    b.push(rw, Category::General, 16, 3, &["bytedance-moe"]);

    // x + x = 2x: makes a missing 1/T scale visible as a leftover
    // (non-clean) scalar_mul.
    b.uni(
        "add-self",
        "(add ?x ?x)",
        "(scalar_mul ?x 2 1)",
        Category::General,
        &["bytedance-moe"],
    );

    // ----- linearity: scalar_mul commutes with linear operators -----
    // Backward graphs produced by autodiff are full of `(2/N)·(…)` factors
    // that must float to a canonical position to meet their distributed
    // counterparts.

    b.uni(
        "matmul-scalar-rhs",
        "(matmul ?a (scalar_mul ?b ?n ?m))",
        "(scalar_mul (matmul ?a ?b) ?n ?m)",
        Category::General,
        &["dp-training"],
    );
    b.uni(
        "matmul-scalar-lhs",
        "(matmul (scalar_mul ?a ?n ?m) ?b)",
        "(scalar_mul (matmul ?a ?b) ?n ?m)",
        Category::General,
        &["dp-training"],
    );
    b.uni(
        "mul-scalar-left",
        "(mul (scalar_mul ?x ?n ?m) ?y)",
        "(scalar_mul (mul ?x ?y) ?n ?m)",
        Category::General,
        &["dp-training"],
    );
    b.uni(
        "sum_dim-of-scalar_mul",
        "(sum_dim (scalar_mul ?x ?n ?m) ?d ?k)",
        "(scalar_mul (sum_dim ?x ?d ?k) ?n ?m)",
        Category::General,
        &["dp-training"],
    );
    b.uni(
        "sum_all-of-scalar_mul",
        "(sum_all (scalar_mul ?x ?n ?m))",
        "(scalar_mul (sum_all ?x) ?n ?m)",
        Category::General,
        &["dp-training"],
    );
    b.uni(
        "neg-as-scalar-mul",
        "(neg ?x)",
        "(scalar_mul ?x -1 1)",
        Category::General,
        &["dp-training"],
    );
    b.uni(
        "sub-as-add-neg",
        "(sub ?a ?b)",
        "(add ?a (neg ?b))",
        Category::General,
        &["dp-training"],
    );

    // ones_like is input-oblivious: every ones_like with the same output
    // shape denotes the same constant tensor. Canonicalize through a
    // shape-keyed representative so autodiff gradient seeds taken from
    // different tensors (e.g. the full loss vs a replica loss) unify.
    let rw = Rewrite::parse_dyn("ones_like-canonical", "(ones_like ?x)", |eg, _id, subst| {
        let Some(s) = shape(eg, subst[v("x")]) else {
            return vec![];
        };
        vec![add_op(eg, &mint_ones_leaf(s), vec![])]
    })
    .expect("parses");
    b.push(rw, Category::General, 10, 1, &["dp-training"]);

    // Multiplying by a ones-tensor that broadcasts away is the identity —
    // autodiff's scalar gradient seed (`ones_like(loss)`) and reduction
    // expansions hinge on this.
    let rw = Rewrite::parse_if(
        "mul-ones-like",
        "(mul ?x (ones_like ?y))",
        "?x",
        |eg, _id, subst| {
            let (Some(sx), Some(sy)) = (shape(eg, subst[v("x")]), shape(eg, subst[v("y")])) else {
                return false;
            };
            // ones_like(y) must broadcast into x's shape without growing it.
            sx.broadcast(sy).as_ref() == Some(sx)
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 12, 2, &["dp-training"]);
}
