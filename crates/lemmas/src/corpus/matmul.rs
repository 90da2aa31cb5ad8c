//! Matmul lemmas: the block-matrix identities of the paper's running
//! example (Figure 2), generalized to batched matmul. These carry tensor-
//! parallel proofs (column/row-parallel linear layers).

use entangle_egraph::{ENode, Rewrite, Var};
use entangle_symbolic::SymExpr;

use crate::analysis::cond::{add_op, add_scalar, int, rank, shape, sym_eq};
use crate::analysis::TensorAnalysis;
use crate::corpus::{Builder, Category};

fn v(name: &str) -> Var {
    Var::new(name)
}

/// For `matmul(a, b)`: the output rank and the mapping of an `a`-dim (or
/// `b`-dim) to the output dim. Output rank is `max(ra, rb)`, right-aligned.
fn out_dim(d: i64, r_in: usize, ra: usize, rb: usize) -> i64 {
    let rout = ra.max(rb) as i64;
    d + rout - r_in as i64
}

/// Is splitting operand dim `d` of the `r_split`-rank operand compatible
/// with the other operand (rank `r_other`, shape `other`)? True for the
/// m/n dim (index `r_split - 2` or `r_split - 1` respectively — checked by
/// the caller) and for batch dims the other operand broadcasts over.
fn batch_split_ok(
    eg: &dyn entangle_egraph::TermStore<TensorAnalysis>,
    d: i64,
    r_split: usize,
    other: entangle_egraph::Id,
) -> bool {
    let Some(so) = shape(eg, other) else {
        return false;
    };
    let r_other = so.rank();
    // Align batch dims right-to-left, skipping the last two matrix dims.
    let aligned = d - (r_split as i64 - r_other as i64);
    aligned < 0 || so.dim(aligned as usize).as_const() == Some(1)
}

pub(crate) fn install(b: &mut Builder) {
    // Splitting the left operand along its m dim or a broadcast batch dim:
    // (matmul (concat ?a0 ?a1 ?d) ?b) => (concat (matmul ?a0 ?b) (matmul ?a1 ?b) ?d')
    let rw = Rewrite::parse_dyn(
        "matmul-concat-lhs",
        "(matmul (concat ?a0 ?a1 ?d) ?b)",
        |eg, _id, subst| {
            let (a0, a1, bb) = (subst[v("a0")], subst[v("a1")], subst[v("b")]);
            let (Some(d), Some(ra)) = (int(eg, subst[v("d")]), rank(eg, a0)) else {
                return vec![];
            };
            let Some(rb) = rank(eg, bb) else {
                return vec![];
            };
            // The contraction dim (ra-1) cannot be split on one side only.
            if d == ra as i64 - 1 {
                return vec![];
            }
            if d < ra as i64 - 2 && !batch_split_ok(eg, d, ra, bb) {
                return vec![];
            }
            let m0 = add_op(eg, "matmul", vec![a0, bb]);
            let m1 = add_op(eg, "matmul", vec![a1, bb]);
            let dout = add_scalar(eg, SymExpr::constant(out_dim(d, ra, ra, rb)));
            vec![add_op(eg, "concat", vec![m0, m1, dout])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 22, 4, &[]);

    // Splitting the right operand along its n dim or a broadcast batch dim.
    let rw = Rewrite::parse_dyn(
        "matmul-concat-rhs",
        "(matmul ?a (concat ?b0 ?b1 ?d))",
        |eg, _id, subst| {
            let (a, b0, b1) = (subst[v("a")], subst[v("b0")], subst[v("b1")]);
            let (Some(d), Some(rb)) = (int(eg, subst[v("d")]), rank(eg, b0)) else {
                return vec![];
            };
            let Some(ra) = rank(eg, a) else {
                return vec![];
            };
            // The contraction dim (rb-2) cannot be split on one side only.
            if d == rb as i64 - 2 {
                return vec![];
            }
            if d < rb as i64 - 2 && !batch_split_ok(eg, d, rb, a) {
                return vec![];
            }
            let m0 = add_op(eg, "matmul", vec![a, b0]);
            let m1 = add_op(eg, "matmul", vec![a, b1]);
            let dout = add_scalar(eg, SymExpr::constant(out_dim(d, rb, ra, rb)));
            vec![add_op(eg, "concat", vec![m0, m1, dout])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 22, 4, &[]);

    // The block contraction: splitting *both* operands along the shared k
    // dim sums the partial products — Figure 2's key step, and the fact
    // row-parallel linear layers (with their trailing all-reduce) rely on.
    let rw = Rewrite::parse_dyn(
        "matmul-concat-contraction",
        "(matmul (concat ?a0 ?a1 ?da) (concat ?b0 ?b1 ?db))",
        |eg, _id, subst| {
            let (a0, a1) = (subst[v("a0")], subst[v("a1")]);
            let (b0, b1) = (subst[v("b0")], subst[v("b1")]);
            let (Some(da), Some(db), Some(ra), Some(rb)) = (
                int(eg, subst[v("da")]),
                int(eg, subst[v("db")]),
                rank(eg, a0),
                rank(eg, b0),
            ) else {
                return vec![];
            };
            if da != ra as i64 - 1 || db != rb as i64 - 2 {
                return vec![];
            }
            // The split points must agree: |k of a0| == |k of b0|.
            let (Some(ka), Some(kb)) = (
                shape(eg, a0).map(|s| s.dim(da as usize).0.clone()),
                shape(eg, b0).map(|s| s.dim(db as usize).0.clone()),
            ) else {
                return vec![];
            };
            if !sym_eq(eg, &ka, &kb) {
                return vec![];
            }
            let m0 = add_op(eg, "matmul", vec![a0, b0]);
            let m1 = add_op(eg, "matmul", vec![a1, b1]);
            vec![add_op(eg, "add", vec![m0, m1])]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 26, 5, &["gpt"]);

    // Slice of a matmul output pushes into the corresponding operand.
    let rw = Rewrite::parse_dyn(
        "slice-of-matmul",
        "(slice (matmul ?a ?b) ?d ?lo ?hi)",
        |eg, _id, subst| {
            let (a, bb) = (subst[v("a")], subst[v("b")]);
            let (loc, hic) = (subst[v("lo")], subst[v("hi")]);
            let (Some(d), Some(ra), Some(rb)) = (int(eg, subst[v("d")]), rank(eg, a), rank(eg, bb))
            else {
                return vec![];
            };
            let rout = ra.max(rb) as i64;
            if d == rout - 2 {
                // m dim: slice the left operand's m dim.
                let da = add_scalar(eg, SymExpr::constant(ra as i64 - 2));
                let sa = add_op(eg, "slice", vec![a, da, loc, hic]);
                return vec![add_op(eg, "matmul", vec![sa, bb])];
            }
            if d == rout - 1 {
                // n dim: slice the right operand's n dim.
                let db = add_scalar(eg, SymExpr::constant(rb as i64 - 1));
                let sb = add_op(eg, "slice", vec![bb, db, loc, hic]);
                return vec![add_op(eg, "matmul", vec![a, sb])];
            }
            // Batch dim: push into whichever operand actually has it (the
            // other operand must broadcast over it).
            let da = d - (rout - ra as i64);
            let mut out = Vec::new();
            if da >= 0 && batch_split_ok(eg, d, rout as usize, bb) {
                let dac = add_scalar(eg, SymExpr::constant(da));
                let sa = add_op(eg, "slice", vec![a, dac, loc, hic]);
                out.push(add_op(eg, "matmul", vec![sa, bb]));
            }
            let dbv = d - (rout - rb as i64);
            if dbv >= 0 && batch_split_ok(eg, d, rout as usize, a) {
                let dbc = add_scalar(eg, SymExpr::constant(dbv));
                let sb = add_op(eg, "slice", vec![bb, dbc, loc, hic]);
                out.push(add_op(eg, "matmul", vec![a, sb]));
            }
            out
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 30, 4, &[]);

    // Reverse: matmul of a sliced operand is a slice of the full matmul —
    // *constrained* on the full matmul already existing. This is the lemma
    // sequence parallelism leans on (activations arrive as slices of a
    // reduce-scattered tensor).
    let rw = Rewrite::parse_dyn(
        "matmul-of-sliced-lhs",
        "(matmul (slice ?a ?d ?lo ?hi) ?b)",
        |eg, _id, subst| {
            let (a, bb) = (subst[v("a")], subst[v("b")]);
            let (Some(d), Some(ra), Some(rb)) = (int(eg, subst[v("d")]), rank(eg, a), rank(eg, bb))
            else {
                return vec![];
            };
            if d == ra as i64 - 1 {
                return vec![]; // contraction dim
            }
            if d < ra as i64 - 2 && !batch_split_ok(eg, d, ra, bb) {
                return vec![];
            }
            if eg.lookup(&ENode::op("matmul", vec![a, bb])).is_none() {
                return vec![]; // constrained: full product must exist
            }
            let m = add_op(eg, "matmul", vec![a, bb]);
            let dout = add_scalar(eg, SymExpr::constant(out_dim(d, ra, ra, rb)));
            vec![add_op(
                eg,
                "slice",
                vec![m, dout, subst[v("lo")], subst[v("hi")]],
            )]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 24, 3, &[]);

    let rw = Rewrite::parse_dyn(
        "matmul-of-sliced-rhs",
        "(matmul ?a (slice ?b ?d ?lo ?hi))",
        |eg, _id, subst| {
            let (a, bb) = (subst[v("a")], subst[v("b")]);
            let (Some(d), Some(ra), Some(rb)) = (int(eg, subst[v("d")]), rank(eg, a), rank(eg, bb))
            else {
                return vec![];
            };
            if d == rb as i64 - 2 {
                return vec![]; // contraction dim
            }
            if d < rb as i64 - 2 && !batch_split_ok(eg, d, rb, a) {
                return vec![];
            }
            if eg.lookup(&ENode::op("matmul", vec![a, bb])).is_none() {
                return vec![];
            }
            let m = add_op(eg, "matmul", vec![a, bb]);
            let dout = add_scalar(eg, SymExpr::constant(out_dim(d, rb, ra, rb)));
            vec![add_op(
                eg,
                "slice",
                vec![m, dout, subst[v("lo")], subst[v("hi")]],
            )]
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 24, 3, &[]);

    // Embedding lemmas: a gather distributes over its index tensor.
    b.uni(
        "embedding-of-concat-ids",
        "(embedding ?w (concat ?i0 ?i1 ?d))",
        "(concat (embedding ?w ?i0) (embedding ?w ?i1) ?d)",
        Category::General,
        &["gpt"],
    );
    let rw = Rewrite::parse_if(
        "embedding-of-sliced-ids",
        "(embedding ?w (slice ?i ?d ?lo ?hi))",
        "(slice (embedding ?w ?i) ?d ?lo ?hi)",
        |eg, _id, subst| {
            eg.lookup(&ENode::op("embedding", vec![subst[v("w")], subst[v("i")]]))
                .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 8, 3, &["gpt"]);
    // The scatter-add gradient of embedding distributes over a shared
    // batch/sequence split of ids and upstream grads — how SP weight
    // gradients recombine in backward graphs.
    let rw = Rewrite::parse_if(
        "embedding_grad-of-concats",
        "(embedding_grad (concat ?i0 ?i1 ?d) (concat ?g0 ?g1 ?d2) ?v)",
        "(add (embedding_grad ?i0 ?g0 ?v) (embedding_grad ?i1 ?g1 ?v))",
        |eg, _id, subst| {
            let (Some(d), Some(d2), Some(ri)) = (
                int(eg, subst[v("d")]),
                int(eg, subst[v("d2")]),
                rank(eg, subst[v("i0")]),
            ) else {
                return false;
            };
            // The grad has one extra trailing dim; the splits must be the
            // same axis and land on the same seam.
            if d != d2 || d >= ri as i64 {
                return false;
            }
            match (shape(eg, subst[v("i0")]), shape(eg, subst[v("g0")])) {
                (Some(si), Some(sg)) => si.dim(d as usize) == sg.dim(d as usize),
                _ => false,
            }
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 20, 4, &["gpt"]);

    let rw = Rewrite::parse_if(
        "slice-of-embedding",
        "(slice (embedding ?w ?i) ?d ?lo ?hi)",
        "(embedding ?w (slice ?i ?d ?lo ?hi))",
        |eg, _id, subst| {
            // Valid only when slicing an index dim, not the appended hidden
            // dim.
            match (int(eg, subst[v("d")]), rank(eg, subst[v("i")])) {
                (Some(d), Some(ri)) => d < ri as i64,
                _ => false,
            }
        },
    )
    .expect("parses");
    b.push(rw, Category::General, 10, 3, &["gpt"]);
}
