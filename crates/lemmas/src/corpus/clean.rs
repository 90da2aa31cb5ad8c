//! Clean-operator lemmas (`c` in Figure 6): the slice/concat/transpose/pad
//! algebra. These are the most frequently applied lemmas in the paper's
//! heatmap — every distribution strategy moves data with them.

use entangle_egraph::{ENode, Rewrite, Var};
use entangle_symbolic::SymExpr;

use crate::analysis::cond::{add_op, add_scalar, dim_size, int, scalar, sym_eq, sym_le};
use crate::corpus::{Builder, Category};

fn v(name: &str) -> Var {
    Var::new(name)
}

pub(crate) fn install(b: &mut Builder) {
    // Adjacent slices of the same tensor merge back into one slice.
    b.uni(
        "concat-of-slices-merge",
        "(concat (slice ?x ?d ?a ?b) (slice ?x ?d ?b ?c) ?d)",
        "(slice ?x ?d ?a ?c)",
        Category::Clean,
        &[],
    );

    // A slice covering the whole dimension is the tensor itself.
    let rw = Rewrite::parse_if(
        "slice-full-identity",
        "(slice ?x ?d ?a ?b)",
        "?x",
        |eg, _id, subst| {
            let (Some(d), Some(a), Some(bb)) = (
                int(eg, subst[v("d")]),
                scalar(eg, subst[v("a")]),
                scalar(eg, subst[v("b")]),
            ) else {
                return false;
            };
            let Some(size) = dim_size(eg, subst[v("x")], d as usize) else {
                return false;
            };
            sym_eq(eg, &a, &SymExpr::zero()) && sym_eq(eg, &bb, &size)
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 10, 1, &[]);

    // Slice of slice composes by offset arithmetic (symbolic-capable).
    let rw = Rewrite::parse_dyn(
        "slice-of-slice",
        "(slice (slice ?x ?d ?a ?b) ?d ?e ?f)",
        |eg, _id, subst| {
            let x = subst[v("x")];
            let d = subst[v("d")];
            let (Some(a), Some(e), Some(f)) = (
                scalar(eg, subst[v("a")]),
                scalar(eg, subst[v("e")]),
                scalar(eg, subst[v("f")]),
            ) else {
                return vec![];
            };
            let lo = add_scalar(eg, a.clone() + e);
            let hi = add_scalar(eg, a + f);
            vec![add_op(eg, "slice", vec![x, d, lo, hi])]
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 14, 2, &[]);

    // The paper's Listing 4 conditioned lemma: slice of concat. Cases on
    // whether the slice crosses the concat seam, decided symbolically.
    let rw = Rewrite::parse_dyn(
        "slice-of-concat",
        "(slice (concat ?t1 ?t2 ?d1) ?d2 ?lo ?hi)",
        |eg, _id, subst| {
            let (t1, t2) = (subst[v("t1")], subst[v("t2")]);
            let (d1c, d2c) = (subst[v("d1")], subst[v("d2")]);
            let (loc, hic) = (subst[v("lo")], subst[v("hi")]);
            let (Some(d1), Some(d2)) = (int(eg, d1c), int(eg, d2c)) else {
                return vec![];
            };
            if d1 != d2 {
                // Slice along a different dim pushes into both parts.
                let s1 = add_op(eg, "slice", vec![t1, d2c, loc, hic]);
                let s2 = add_op(eg, "slice", vec![t2, d2c, loc, hic]);
                return vec![add_op(eg, "concat", vec![s1, s2, d1c])];
            }
            let (Some(lo), Some(hi)) = (scalar(eg, loc), scalar(eg, hic)) else {
                return vec![];
            };
            let Some(seam) = dim_size(eg, t1, d1 as usize) else {
                return vec![];
            };
            if sym_le(eg, &hi, &seam) {
                // Entirely within the first part.
                return vec![add_op(eg, "slice", vec![t1, d1c, loc, hic])];
            }
            if sym_le(eg, &seam, &lo) {
                // Entirely within the second part, shifted by the seam.
                let lo2 = add_scalar(eg, lo - seam.clone());
                let hi2 = add_scalar(eg, hi - seam);
                return vec![add_op(eg, "slice", vec![t2, d1c, lo2, hi2])];
            }
            if sym_le(eg, &lo, &seam) && sym_le(eg, &seam, &hi) {
                // Crosses the seam: a slice from each part.
                let seam_id = add_scalar(eg, seam.clone());
                let zero = add_scalar(eg, SymExpr::zero());
                let hi2 = add_scalar(eg, hi - seam);
                let s1 = add_op(eg, "slice", vec![t1, d1c, loc, seam_id]);
                let s2 = add_op(eg, "slice", vec![t2, d1c, zero, hi2]);
                return vec![add_op(eg, "concat", vec![s1, s2, d1c])];
            }
            vec![]
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 34, 4, &[]);

    // Concat is associative. Free association over an n-way shard chain
    // saturates into ~2^n subset classes, so both directions are
    // *constrained* (§4.3.2): they only fire when the regrouped subterm
    // already exists as an e-node — which is exactly when a proof needs it.
    let rw = Rewrite::parse_if(
        "concat-assoc-left",
        "(concat (concat ?a ?b ?d) ?c ?d)",
        "(concat ?a (concat ?b ?c ?d) ?d)",
        |eg, _id, subst| {
            eg.lookup(&ENode::op(
                "concat",
                vec![subst[v("b")], subst[v("c")], subst[v("d")]],
            ))
            .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 8, 4, &[]);
    let rw = Rewrite::parse_if(
        "concat-assoc-right",
        "(concat ?a (concat ?b ?c ?d) ?d)",
        "(concat (concat ?a ?b ?d) ?c ?d)",
        |eg, _id, subst| {
            eg.lookup(&ENode::op(
                "concat",
                vec![subst[v("a")], subst[v("b")], subst[v("d")]],
            ))
            .is_some()
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 8, 4, &[]);

    b.uni(
        "transpose-involution",
        "(transpose (transpose ?x ?i ?j) ?i ?j)",
        "?x",
        Category::Clean,
        &[],
    );

    // Transpose distributes over concat with the dim remapped.
    let rw = Rewrite::parse_dyn(
        "transpose-of-concat",
        "(transpose (concat ?a ?b ?d) ?i ?j)",
        |eg, _id, subst| {
            let (Some(d), Some(i), Some(j)) = (
                int(eg, subst[v("d")]),
                int(eg, subst[v("i")]),
                int(eg, subst[v("j")]),
            ) else {
                return vec![];
            };
            let d2 = if d == i {
                j
            } else if d == j {
                i
            } else {
                d
            };
            let (ic, jc) = (subst[v("i")], subst[v("j")]);
            let ta = add_op(eg, "transpose", vec![subst[v("a")], ic, jc]);
            let tb = add_op(eg, "transpose", vec![subst[v("b")], ic, jc]);
            let d2c = add_scalar(eg, SymExpr::constant(d2));
            vec![add_op(eg, "concat", vec![ta, tb, d2c])]
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 16, 4, &[]);

    // Transpose commutes with slice (dim remapped).
    let rw = Rewrite::parse_dyn(
        "transpose-of-slice",
        "(transpose (slice ?x ?d ?a ?b) ?i ?j)",
        |eg, _id, subst| {
            let (Some(d), Some(i), Some(j)) = (
                int(eg, subst[v("d")]),
                int(eg, subst[v("i")]),
                int(eg, subst[v("j")]),
            ) else {
                return vec![];
            };
            let d2 = if d == i {
                j
            } else if d == j {
                i
            } else {
                d
            };
            let tx = add_op(
                eg,
                "transpose",
                vec![subst[v("x")], subst[v("i")], subst[v("j")]],
            );
            let d2c = add_scalar(eg, SymExpr::constant(d2));
            vec![add_op(
                eg,
                "slice",
                vec![tx, d2c, subst[v("a")], subst[v("b")]],
            )]
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 16, 3, &[]);

    b.uni("identity-elim", "(identity ?x)", "?x", Category::Clean, &[]);

    // Slicing the padding back off recovers (a slice of) the original —
    // the algebra behind Bug 3's pad/slice mismatch.
    let rw = Rewrite::parse_dyn(
        "slice-of-pad",
        "(slice (pad ?x ?d ?before ?after) ?d ?lo ?hi)",
        |eg, _id, subst| {
            let x = subst[v("x")];
            let dc = subst[v("d")];
            let (Some(d), Some(before), Some(lo), Some(hi)) = (
                int(eg, dc),
                scalar(eg, subst[v("before")]),
                scalar(eg, subst[v("lo")]),
                scalar(eg, subst[v("hi")]),
            ) else {
                return vec![];
            };
            let Some(size) = dim_size(eg, x, d as usize) else {
                return vec![];
            };
            let inner_end = before.clone() + size;
            // Only rewrite when the slice stays inside the un-padded region.
            if sym_le(eg, &before, &lo) && sym_le(eg, &hi, &inner_end) {
                let lo2 = add_scalar(eg, lo - before.clone());
                let hi2 = add_scalar(eg, hi - before);
                return vec![add_op(eg, "slice", vec![x, dc, lo2, hi2])];
            }
            vec![]
        },
    )
    .expect("parses");
    b.push(rw, Category::Clean, 22, 3, &[]);

    // Constrained generative lemma (§4.3.2): a tensor equals the concat of
    // already-existing slices that cover it. This is what lets the checker
    // report the `concat(D1, D2)` mapping for `C` in Figure 2 — the
    // reduce-scatter shards exist as slice e-nodes, and this lemma stitches
    // them together.
    let rw = Rewrite::parse_dyn("slices-cover-concat", "?x", |eg, _id, subst| {
        let x = subst[v("x")];
        // Only tensor classes with known shapes can be covered by slices;
        // this guard also keeps the rule from scanning the (huge) parent
        // lists of scalar attribute classes like `0`.
        if crate::analysis::cond::shape(eg, x).is_none() {
            return vec![];
        }
        // Collect existing slice parents of x: (dim, start, end) triples.
        let mut slices: Vec<(i64, SymExpr, SymExpr, ENode)> = Vec::new();
        for node in eg.parents(x) {
            let ENode::Op(sym, ch) = node else { continue };
            if sym.as_str() != "slice" || ch.len() != 4 || eg.find(ch[0]) != eg.find(x) {
                continue;
            }
            let (Some(d), Some(a), Some(bb)) =
                (int(eg, ch[1]), scalar(eg, ch[2]), scalar(eg, ch[3]))
            else {
                continue;
            };
            slices.push((d, a, bb, node.clone()));
        }
        // Chain adjacent slices from 0 to the full size (depth-first, since
        // several slices may share a start), emitting a left-folded concat
        // for each complete cover — reduce-scatter at world size n leaves n
        // shard slices to stitch.
        let mut out = Vec::new();
        let dims: Vec<i64> = {
            let mut ds: Vec<i64> = slices.iter().map(|(d, ..)| *d).collect();
            ds.sort_unstable();
            ds.dedup();
            ds
        };
        for d in dims {
            let Some(size) = dim_size(eg, x, d as usize) else {
                continue;
            };
            let group: Vec<&(i64, SymExpr, SymExpr, ENode)> =
                slices.iter().filter(|(sd, ..)| *sd == d).collect();
            // DFS over chains; cap work to keep the rule cheap.
            let mut stack: Vec<(SymExpr, Vec<usize>)> = vec![(SymExpr::zero(), Vec::new())];
            let mut emitted = 0usize;
            let mut steps = 0usize;
            while let Some((cursor, chain)) = stack.pop() {
                steps += 1;
                if steps > 256 || emitted >= 4 {
                    break;
                }
                if !chain.is_empty() && sym_eq(eg, &cursor, &size) {
                    if chain.len() >= 2 {
                        let mut acc = eg.add(group[chain[0]].3.clone());
                        let dc = add_scalar(eg, SymExpr::constant(d));
                        for &i in &chain[1..] {
                            let next = eg.add(group[i].3.clone());
                            acc = add_op(eg, "concat", vec![acc, next, dc]);
                        }
                        out.push(acc);
                        emitted += 1;
                    }
                    continue;
                }
                for (i, (_, a, bb, _)) in group.iter().enumerate() {
                    if chain.contains(&i) {
                        continue;
                    }
                    if sym_eq(eg, a, &cursor) {
                        let mut next = chain.clone();
                        next.push(i);
                        stack.push((bb.clone(), next));
                    }
                }
            }
        }
        out
    })
    .expect("parses");
    b.push(rw, Category::Clean, 38, 2, &[]);
}
