//! Element-wise lemmas: unary and binary operators distribute over the
//! clean rearrangement operators. These carry most sequence-parallel and
//! data-layout proofs.

use entangle_egraph::{Rewrite, Var};

use crate::analysis::cond::{int, rank, shape};
use crate::analysis::TensorAnalysis;
use crate::corpus::{Builder, Category};

fn v(name: &str) -> Var {
    Var::new(name)
}

/// Unary ops that distribute elementwise over concat and slice. SiLU is
/// installed separately under the vLLM category (it entered the corpus with
/// Qwen2), and GELU is attributed to GPT.
const UNARY_BASE: &[&str] = &[
    "neg",
    "exp",
    "sqrt",
    "rsqrt",
    "tanh",
    "relu",
    "sigmoid",
    "cos",
    "sin",
    "step",
    "ones_like",
];

fn unary_family(b: &mut Builder, op: &str, category: Category, models: &[&'static str]) {
    b.uni(
        &format!("{op}-of-concat"),
        &format!("({op} (concat ?a ?b ?d))"),
        &format!("(concat ({op} ?a) ({op} ?b) ?d)"),
        category,
        models,
    );
    // Pushing a slice inside is always sound for elementwise ops.
    b.uni(
        &format!("slice-of-{op}"),
        &format!("(slice ({op} ?x) ?d ?lo ?hi)"),
        &format!("({op} (slice ?x ?d ?lo ?hi))"),
        category,
        models,
    );
    // Pulling a slice out is generative (mints the full-tensor term), so it
    // is *constrained*: it only fires when the full-tensor application
    // already exists as an e-node (§4.3.2).
    let name = format!("{op}-of-slice");
    let lhs = format!("({op} (slice ?x ?d ?lo ?hi))");
    let rhs = format!("(slice ({op} ?x) ?d ?lo ?hi)");
    let opname = op.to_owned();
    let rw = Rewrite::parse_if(
        &name,
        &lhs,
        &rhs,
        move |eg: &entangle_egraph::EGraph<TensorAnalysis>, _id, subst| {
            let target = entangle_egraph::ENode::op(&opname, vec![subst[v("x")]]);
            eg.lookup(&target).is_some()
        },
    )
    .expect("parses");
    b.push(rw, category, 6, 2, models);
}

fn binary_family(b: &mut Builder, op: &'static str, models: &[&'static str]) {
    // Two concats with aligned seams split into per-part applications.
    let rw = Rewrite::parse_if(
        &format!("{op}-of-concats"),
        &format!("({op} (concat ?a ?b ?d) (concat ?c ?e ?d))"),
        &format!("(concat ({op} ?a ?c) ({op} ?b ?e) ?d)"),
        |eg, _id, subst| {
            // Seams must align on the shared concat axis; the parts may
            // broadcast against each other on *other* axes (e.g.
            // [2,6] x [2,1]), but a size-1 broadcast axis cannot also be
            // the concat seam.
            let (Some(d), Some(sa), Some(sc)) = (
                int(eg, subst[v("d")]),
                shape(eg, subst[v("a")]),
                shape(eg, subst[v("c")]),
            ) else {
                return false;
            };
            let d = d as usize;
            sa.rank() == sc.rank()
                && d < sa.rank()
                && sa.dim(d) == sc.dim(d)
                && sa.broadcast(sc).is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 18, 5, models);

    // Slice pushes into both operands of an equal-shape binary op.
    let rw = Rewrite::parse_if(
        &format!("slice-of-{op}"),
        &format!("(slice ({op} ?x ?y) ?d ?lo ?hi)"),
        &format!("({op} (slice ?x ?d ?lo ?hi) (slice ?y ?d ?lo ?hi))"),
        |eg, _id, subst| match (shape(eg, subst[v("x")]), shape(eg, subst[v("y")])) {
            (Some(sx), Some(sy)) => sx == sy,
            _ => false,
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 12, 4, models);

    // Pulling a shared slice out is constrained on the full-tensor term.
    let rw = Rewrite::parse_if(
        &format!("{op}-of-slices"),
        &format!("({op} (slice ?x ?d ?lo ?hi) (slice ?y ?d ?lo ?hi))"),
        &format!("(slice ({op} ?x ?y) ?d ?lo ?hi)"),
        move |eg, _id, subst| {
            let same = match (shape(eg, subst[v("x")]), shape(eg, subst[v("y")])) {
                (Some(sx), Some(sy)) => sx == sy,
                _ => false,
            };
            same && eg
                .lookup(&entangle_egraph::ENode::op(
                    op,
                    vec![subst[v("x")], subst[v("y")]],
                ))
                .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 14, 4, models);
}

/// Broadcast-aware distribution: splitting the bigger operand along a dim
/// the smaller one broadcasts over.
fn broadcast_family(b: &mut Builder, op: &'static str) {
    let broadcast_ok = move |eg: &entangle_egraph::EGraph<TensorAnalysis>,
                             subst: &entangle_egraph::Subst,
                             big: &str,
                             small: &str|
          -> bool {
        let (Some(d), Some(rbig), Some(sm)) = (
            int(eg, subst[v("d")]),
            rank(eg, subst[v(big)]),
            shape(eg, subst[v(small)]),
        ) else {
            return false;
        };
        // Right-aligned broadcast: the small operand either lacks dim `d`
        // or has size 1 there — splitting the big operand along `d` then
        // applies the small operand unchanged to both parts.
        let aligned = d - (rbig as i64 - sm.rank() as i64);
        aligned < 0 || sm.dim(aligned as usize).as_const() == Some(1)
    };
    let rw = Rewrite::parse_if(
        &format!("{op}-concat-broadcast-left"),
        &format!("({op} (concat ?a ?b ?d) ?c)"),
        &format!("(concat ({op} ?a ?c) ({op} ?b ?c) ?d)"),
        move |eg, _id, subst| broadcast_ok(eg, subst, "a", "c"),
    )
    .expect("parses");
    b.push(rw, Category::General, 14, 4, &["bytedance-moe"]);

    let rw = Rewrite::parse_if(
        &format!("{op}-concat-broadcast-right"),
        &format!("({op} ?c (concat ?a ?b ?d))"),
        &format!("(concat ({op} ?c ?a) ({op} ?c ?b) ?d)"),
        move |eg, _id, subst| broadcast_ok(eg, subst, "a", "c"),
    )
    .expect("parses");
    b.push(rw, Category::General, 14, 4, &["bytedance-moe"]);
}

pub(crate) fn install(b: &mut Builder) {
    for op in UNARY_BASE {
        unary_family(b, op, Category::General, &[]);
    }
    unary_family(b, "gelu", Category::General, &["gpt"]);
    unary_family(b, "gelu_grad", Category::General, &["gpt"]);
    unary_family(b, "silu", Category::Vllm, &["qwen2", "llama3"]);
    unary_family(b, "silu_grad", Category::Vllm, &["qwen2", "llama3"]);

    // scalar_mul behaves like a unary op with two attribute scalars.
    b.uni(
        "scalar_mul-of-concat",
        "(scalar_mul (concat ?a ?b ?d) ?n ?m)",
        "(concat (scalar_mul ?a ?n ?m) (scalar_mul ?b ?n ?m) ?d)",
        Category::General,
        &[],
    );
    b.uni(
        "slice-of-scalar_mul",
        "(slice (scalar_mul ?x ?n ?m) ?d ?lo ?hi)",
        "(scalar_mul (slice ?x ?d ?lo ?hi) ?n ?m)",
        Category::General,
        &[],
    );
    let rw = Rewrite::parse_if(
        "scalar_mul-of-slice",
        "(scalar_mul (slice ?x ?d ?lo ?hi) ?n ?m)",
        "(slice (scalar_mul ?x ?n ?m) ?d ?lo ?hi)",
        |eg, _id, subst| {
            let target = entangle_egraph::ENode::op(
                "scalar_mul",
                vec![subst[v("x")], subst[v("n")], subst[v("m")]],
            );
            eg.lookup(&target).is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 6, 2, &[]);

    for op in ["add", "sub", "mul", "div", "maximum"] {
        binary_family(b, op, &[]);
    }
    broadcast_family(b, "mul");
    broadcast_family(b, "add");

    // Concats on *different* dims of operands with different ranks still
    // split when the dims are the same right-aligned broadcast axis — e.g.
    // a hidden-sharded activation `[B,S,H/t]` plus a hidden-sharded bias
    // `[H/t]` (the Qwen2 QKV-bias pattern).
    for op in ["add", "mul"] {
        let rw = Rewrite::parse_if(
            &format!("{op}-of-concats-aligned"),
            &format!("({op} (concat ?a ?b ?d) (concat ?c ?e ?d2))"),
            &format!("(concat ({op} ?a ?c) ({op} ?b ?e) ?d)"),
            |eg, _id, subst| {
                let (Some(d), Some(d2), Some(ra), Some(sc)) = (
                    int(eg, subst[v("d")]),
                    int(eg, subst[v("d2")]),
                    rank(eg, subst[v("a")]),
                    shape(eg, subst[v("c")]),
                ) else {
                    return false;
                };
                let rc = sc.rank() as i64;
                // The first operand must be the strictly higher-rank one:
                // the rewrite emits ?d (the first operand's axis) as the
                // output concat dim, which is only the broadcast-result
                // axis when rank(a) > rank(c). (add-comm also presents the
                // swapped operand order; without this check the rule would
                // emit the smaller operand's axis — unsound.)
                if (ra as i64) <= rc {
                    return false;
                }
                if d == d2 || ra as i64 - d != rc - d2 {
                    return false;
                }
                // Seams align and the smaller operand broadcasts over the
                // leading dims (guaranteed when its rank is smaller and all
                // its other dims match — checked by shape equality on the
                // concat axis; remaining mismatches would fail shape
                // inference upstream).
                let (Some(sa), Some(sc_dim)) = (
                    shape(eg, subst[v("a")]),
                    sc.dims().get(d2 as usize).cloned(),
                ) else {
                    return false;
                };
                sa.dims().get(d as usize) == Some(&sc_dim)
            },
        )
        .expect("parses");
        b.push(rw, Category::General, 22, 5, &["qwen2"]);
    }

    // Add is associative and commutative — the algebra of distributed
    // reductions (expert-parallel partial sums, gradient accumulation).
    // Like concat, free association over n-way reduction trees saturates
    // into ~2^n subset classes, so association is *constrained* to regroup
    // only toward subterms that already exist (§4.3.2).
    let rw = Rewrite::parse_if(
        "add-assoc",
        "(add (add ?a ?b) ?c)",
        "(add ?a (add ?b ?c))",
        |eg, _id, subst| {
            eg.lookup(&entangle_egraph::ENode::op(
                "add",
                vec![subst[v("b")], subst[v("c")]],
            ))
            .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 8, 3, &[]);
    let rw = Rewrite::parse_if(
        "add-assoc-left",
        "(add ?a (add ?b ?c))",
        "(add (add ?a ?b) ?c)",
        |eg, _id, subst| {
            eg.lookup(&entangle_egraph::ENode::op(
                "add",
                vec![subst[v("a")], subst[v("b")]],
            ))
            .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 8, 3, &[]);
    b.uni(
        "add-comm",
        "(add ?a ?b)",
        "(add ?b ?a)",
        Category::General,
        &[],
    );
    b.uni(
        "mul-comm",
        "(mul ?a ?b)",
        "(mul ?b ?a)",
        Category::General,
        &[],
    );
}
