use std::collections::HashMap;
use std::rc::Rc;

use entangle_egraph::{ENode, ProofStep, RecExpr};
use entangle_ir::Op;
use entangle_runtime::{eval_op, reassoc_rel_bound, Tolerance, Value};

use crate::eval::{const_dims, eval_op_sym, leaf_tensor, TermTable};
use crate::sym::{classify_tensors, Arena, ExprId, Node, NumClass, Rat, SymTensor, Verdict};

// ---------------------------------------------------------------------------
// Rational layer

#[test]
fn rat_guards_zero_denominator() {
    assert!(Rat::new(1, 0).is_none());
    assert_eq!(Rat::new(2, 8), Rat::new(1, 4));
    assert_eq!(Rat::new(4, 6), Rat::new(2, 3));
    assert_eq!(Rat::new(-1, -2), Rat::new(1, 2));
}

#[test]
fn rat_pow2_detection() {
    assert!(Rat::new(1, 4).unwrap().is_pow2());
    assert!(Rat::new(2, 1).unwrap().is_pow2());
    assert!(Rat::new(-1, 8).unwrap().is_pow2());
    assert!(!Rat::new(1, 3).unwrap().is_pow2());
    assert!(!Rat::new(3, 4).unwrap().is_pow2());
    assert!(!Rat::zero().is_pow2());
}

// ---------------------------------------------------------------------------
// Canonicalization laws (each must be an IEEE bitwise identity)

#[test]
fn add_canonicalizations() {
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);
    let y = a.leaf(n, 1);
    let zero = a.rat(Rat::zero());
    assert_eq!(a.add(x, zero), x, "x + 0 = x");
    assert_eq!(a.add(zero, x), x, "0 + x = x");
    assert_eq!(a.add(x, y), a.add(y, x), "IEEE + is commutative");
    let doubled = a.add(x, x);
    assert_eq!(doubled, a.scale_mul(x, Rat::int(2)), "x + x = 2x exactly");
}

#[test]
fn neg_and_scale_canonicalizations() {
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);
    let nx = a.neg(x);
    assert_eq!(a.neg(nx), x, "-(-x) = x");
    assert_eq!(a.scale_mul(x, Rat::one()), x, "1*x = x");
    assert_eq!(a.scale_mul(x, Rat::int(-1)), nx, "(-1)*x = -x");
    assert_eq!(a.scale_div(x, 1), x, "x/1 = x");
    let half = a.scale_mul(x, Rat::new(1, 2).unwrap());
    let neg_half = a.neg(half);
    assert_eq!(
        neg_half,
        a.scale_mul(x, Rat::new(-1, 2).unwrap()),
        "-(c*x) = (-c)*x"
    );
}

#[test]
fn mul_commutative_and_constant_folding() {
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);
    let y = a.leaf(n, 1);
    assert_eq!(a.mul(x, y), a.mul(y, x), "IEEE * is commutative");
    let two = a.rat(Rat::int(2));
    let twox = a.mul(two, x);
    assert_eq!(twox, a.scale_mul(x, Rat::int(2)), "const operand lifts");
    let four = a.rat(Rat::int(4));
    assert_eq!(a.mul(two, four), a.rat(Rat::int(8)), "exact const fold");
}

#[test]
fn reduced_fractions_share_nodes() {
    // fl(2/8) == fl(1/4): ScalarMul constants are correctly rounded from
    // the reduced ratio, so equal rationals intern to one node.
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);
    let s1 = a.scale_mul(x, Rat::new(2, 8).unwrap());
    let s2 = a.scale_mul(x, Rat::new(1, 4).unwrap());
    assert_eq!(s1, s2);
}

#[test]
fn interned_ids_survive_table_growth() {
    // 200k nodes from the 64-slot start: a dozen doublings. Every node,
    // re-requested after the last one, must still answer its first id.
    let mut a = Arena::new();
    let n = a.name("x");
    let leaves: Vec<_> = (0..100_000).map(|i| a.leaf(n, i)).collect();
    let sums: Vec<_> = leaves.windows(2).map(|w| a.add(w[0], w[1])).collect();
    let funs: Vec<_> = sums.iter().map(|&s| a.fun("exp", &[s])).collect();
    assert_eq!(a.len(), leaves.len() + sums.len() + funs.len());
    for (i, &id) in leaves.iter().enumerate() {
        assert_eq!(a.leaf(n, i as u64), id);
    }
    for (w, (&sum, &fun)) in leaves.windows(2).zip(sums.iter().zip(&funs)) {
        assert_eq!(a.add(w[1], w[0]), sum);
        assert_eq!(a.fun("exp", &[sum]), fun);
    }
    assert_eq!(a.len(), leaves.len() + sums.len() + funs.len());
}

#[test]
fn nodes_are_sixteen_bytes_and_side_tables_intern() {
    assert_eq!(std::mem::size_of::<Node>(), 16);
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);

    // Rationals: equal values share a node (so a `RatId`), 10k distinct
    // ones come back as themselves, before and after the table regrows.
    assert_eq!(
        a.rat(Rat::new(2, 8).unwrap()),
        a.rat(Rat::new(1, 4).unwrap())
    );
    let rats: Vec<Rat> = (1..=10_000).map(|i| Rat::new(i, 10_007).unwrap()).collect();
    let consts: Vec<ExprId> = rats.iter().map(|&r| a.rat(r)).collect();
    let scaled: Vec<ExprId> = rats.iter().map(|&r| a.scale_mul(x, r)).collect();
    for (i, &r) in rats.iter().enumerate() {
        assert_eq!(a.constant(consts[i]), Some(r));
        assert_eq!(a.rat(r), consts[i]);
        assert_eq!(a.scale_mul(x, r), scaled[i]);
    }
    let distinct: std::collections::HashSet<_> = consts.iter().chain(&scaled).collect();
    assert_eq!(distinct.len(), 20_000);

    // Fun names compare by content, not by address.
    let exp = String::from("exp");
    let leaked: &'static str = Box::leak(exp.into_boxed_str());
    assert_eq!(a.fun("exp", &[x]), a.fun(leaked, &[x]));
    assert_ne!(a.fun("exp", &[x]), a.fun("ln", &[x]));

    // Argument lists: 10k distinct windows of one to five leaves; equal
    // lists get the handle back, and a handle reads as its ids.
    let leaves: Vec<ExprId> = (0..10_005).map(|i| a.leaf(n, i)).collect();
    let windows: Vec<&[ExprId]> = (0..10_000).map(|i| &leaves[i..i + 1 + i % 5]).collect();
    let handles: Vec<_> = windows.iter().map(|w| a.list_id(w)).collect();
    for (w, &h) in windows.iter().zip(&handles) {
        assert_eq!(a.list(h), *w);
        assert_eq!(a.list_id(w), h);
    }
    let distinct: std::collections::HashSet<_> = handles.iter().collect();
    assert_eq!(distinct.len(), handles.len());
    let before = a.len();
    assert_eq!(a.fun("row", &leaves[..7]), a.fun("row", &leaves[..7]));
    assert_eq!(a.len(), before + 1);
}

// ---------------------------------------------------------------------------
// Classification

/// Left-fold sum of `elems` the way the runtime reduces (zero seed).
fn fold_sum(a: &mut Arena, elems: &[crate::sym::ExprId]) -> crate::sym::ExprId {
    let mut acc = a.rat(Rat::zero());
    for &e in elems {
        acc = a.add(acc, e);
    }
    acc
}

/// The split-sum pair: one flat left fold over `n` leaves vs `p` chunked
/// folds combined left-to-right (the all-reduce shape).
fn split_sum_pair(n: usize, p: usize) -> (NumClass, u64) {
    let mut a = Arena::new();
    let name = a.name("x");
    let leaves: Vec<_> = (0..n).map(|i| a.leaf(name, i as u64)).collect();
    let whole = fold_sum(&mut a, &leaves);
    let chunk = n / p;
    let partials: Vec<_> = (0..p)
        .map(|c| fold_sum(&mut a, &leaves[c * chunk..(c + 1) * chunk]))
        .collect();
    let split = fold_sum(&mut a, &partials);
    a.classify_pair(whole, split)
}

#[test]
fn split_sum_is_reassociation_with_finite_k() {
    let (class, k) = split_sum_pair(8, 2);
    assert_eq!(class, NumClass::Reassoc);
    assert!(k > 0 && k < 32, "k = {k}");
    let (class1, k1) = split_sum_pair(8, 1);
    assert_eq!(
        (class1, k1),
        (NumClass::BitExact, 0),
        "p=1 is the same fold"
    );
}

#[test]
fn dropped_scale_is_value_changing() {
    // mean(x ++ y) vs mean(x) + mean(y): the forged-lemma shape (missing
    // the 1/p correction).
    let mut a = Arena::new();
    let name = a.name("x");
    let leaves: Vec<_> = (0..8).map(|i| a.leaf(name, i as u64)).collect();
    let whole_sum = fold_sum(&mut a, &leaves);
    let whole_mean = a.scale_div(whole_sum, 8);
    let m1s = fold_sum(&mut a, &leaves[..4]);
    let m1 = a.scale_div(m1s, 4);
    let m2s = fold_sum(&mut a, &leaves[4..]);
    let m2 = a.scale_div(m2s, 4);
    let forged = a.add(m1, m2);
    let (class, _) = a.classify_pair(whole_mean, forged);
    assert_eq!(class, NumClass::ValueChanging);

    // The sound version halves the partial means and is reassoc-only.
    let h1 = a.scale_div(m1, 2);
    let h2 = a.scale_div(m2, 2);
    let sound = a.add(h1, h2);
    let (class, k) = a.classify_pair(whole_mean, sound);
    assert_eq!(class, NumClass::Reassoc);
    assert!(k > 0);
}

#[test]
fn opaque_fun_equality_is_bit_exact_only_on_identity() {
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);
    let e1 = a.fun("exp", &[x]);
    let e2 = a.fun("exp", &[x]);
    assert_eq!(a.classify_pair(e1, e2), (NumClass::BitExact, 0));
    let y = a.leaf(n, 1);
    let e3 = a.fun("exp", &[y]);
    assert_eq!(a.classify_pair(e1, e3).0, NumClass::ValueChanging);
}

#[test]
fn verdict_lattice_operations() {
    let exact = Verdict::exact();
    let re = Verdict {
        class: NumClass::Reassoc,
        k: 5,
    };
    let vc = Verdict {
        class: NumClass::ValueChanging,
        k: 0,
    };
    assert_eq!(exact.compose(&re), re);
    assert_eq!(re.compose(&re).k, 10, "site counts add on composition");
    assert_eq!(re.compose(&vc).class, NumClass::ValueChanging);
    assert_eq!(re.join(&exact), re);
    assert_eq!(re.meet(&exact), exact);
    assert_eq!(exact.tolerance(), Some(Tolerance::Exact));
    assert!(matches!(re.tolerance(), Some(Tolerance::Relative(b)) if b > 0.0));
    assert_eq!(vc.tolerance(), None);
}

// ---------------------------------------------------------------------------
// Operator evaluation: symbolic vs concrete cross-validation

/// Concrete mirror of a leaf environment: each symbolic leaf element gets
/// a deterministic, non-symmetric value.
fn concrete(shape: &[usize], salt: f64) -> Value {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| ((i as f64) * 0.37 + salt).sin() * 0.9)
        .collect();
    Value::new(shape.to_vec(), data).unwrap()
}

#[test]
fn concat_of_slices_is_bit_exact() {
    let mut a = Arena::new();
    let x = leaf_tensor(&mut a, "x", vec![4, 4]).unwrap();
    let top = eval_op_sym(
        &mut a,
        &Op::Slice {
            dim: 0,
            start: 0.into(),
            end: 2.into(),
        },
        &[&x],
    )
    .unwrap();
    let bot = eval_op_sym(
        &mut a,
        &Op::Slice {
            dim: 0,
            start: 2.into(),
            end: 4.into(),
        },
        &[&x],
    )
    .unwrap();
    let glued = eval_op_sym(&mut a, &Op::Concat { dim: 0 }, &[&top, &bot]).unwrap();
    let v = classify_tensors(&mut a, &x, &glued);
    assert_eq!(v, Verdict::exact());
}

#[test]
fn transpose_roundtrip_is_bit_exact() {
    let mut a = Arena::new();
    let x = leaf_tensor(&mut a, "x", vec![2, 4]).unwrap();
    let t = eval_op_sym(&mut a, &Op::Transpose { d0: 0, d1: 1 }, &[&x]).unwrap();
    let tt = eval_op_sym(&mut a, &Op::Transpose { d0: 0, d1: 1 }, &[&t]).unwrap();
    assert_eq!(classify_tensors(&mut a, &x, &tt), Verdict::exact());
}

#[test]
fn row_matmul_split_matches_runtime_bitwise() {
    // Column split of the RHS: each output element is the *same* dot
    // product fold => symbolic says bit-exact, runtime agrees bitwise.
    let a_v = concrete(&[2, 4], 0.1);
    let b_v = concrete(&[4, 4], 0.2);
    let whole = eval_op(&Op::Matmul, &[&a_v, &b_v]).unwrap();
    let b_l = eval_op(
        &Op::Slice {
            dim: 1,
            start: 0.into(),
            end: 2.into(),
        },
        &[&b_v],
    )
    .unwrap();
    let b_r = eval_op(
        &Op::Slice {
            dim: 1,
            start: 2.into(),
            end: 4.into(),
        },
        &[&b_v],
    )
    .unwrap();
    let p_l = eval_op(&Op::Matmul, &[&a_v, &b_l]).unwrap();
    let p_r = eval_op(&Op::Matmul, &[&a_v, &b_r]).unwrap();
    let glued = eval_op(&Op::Concat { dim: 1 }, &[&p_l, &p_r]).unwrap();
    assert_eq!(whole.data(), glued.data(), "runtime is bitwise equal");

    let mut ar = Arena::new();
    let a_s = leaf_tensor(&mut ar, "a", vec![2, 4]).unwrap();
    let b_s = leaf_tensor(&mut ar, "b", vec![4, 4]).unwrap();
    let whole_s = eval_op_sym(&mut ar, &Op::Matmul, &[&a_s, &b_s]).unwrap();
    let bl_s = eval_op_sym(
        &mut ar,
        &Op::Slice {
            dim: 1,
            start: 0.into(),
            end: 2.into(),
        },
        &[&b_s],
    )
    .unwrap();
    let br_s = eval_op_sym(
        &mut ar,
        &Op::Slice {
            dim: 1,
            start: 2.into(),
            end: 4.into(),
        },
        &[&b_s],
    )
    .unwrap();
    let pl_s = eval_op_sym(&mut ar, &Op::Matmul, &[&a_s, &bl_s]).unwrap();
    let pr_s = eval_op_sym(&mut ar, &Op::Matmul, &[&a_s, &br_s]).unwrap();
    let glued_s = eval_op_sym(&mut ar, &Op::Concat { dim: 1 }, &[&pl_s, &pr_s]).unwrap();
    assert_eq!(
        classify_tensors(&mut ar, &whole_s, &glued_s),
        Verdict::exact()
    );
}

#[test]
fn inner_matmul_split_bound_covers_runtime_divergence() {
    // Inner (k-dim) split: partial products are *added*, reassociating the
    // dot-product fold. The derived bound must cover the real divergence.
    let a_v = concrete(&[2, 4], 0.3);
    let b_v = concrete(&[4, 2], 0.4);
    let whole = eval_op(&Op::Matmul, &[&a_v, &b_v]).unwrap();
    let slice = |v: &Value, dim: usize, s: i64, e: i64| {
        eval_op(
            &Op::Slice {
                dim,
                start: s.into(),
                end: e.into(),
            },
            &[v],
        )
        .unwrap()
    };
    let a_l = slice(&a_v, 1, 0, 2);
    let a_r = slice(&a_v, 1, 2, 4);
    let b_t = slice(&b_v, 0, 0, 2);
    let b_b = slice(&b_v, 0, 2, 4);
    let p1 = eval_op(&Op::Matmul, &[&a_l, &b_t]).unwrap();
    let p2 = eval_op(&Op::Matmul, &[&a_r, &b_b]).unwrap();
    let summed = eval_op(&Op::Add, &[&p1, &p2]).unwrap();

    let mut ar = Arena::new();
    let a_s = leaf_tensor(&mut ar, "a", vec![2, 4]).unwrap();
    let b_s = leaf_tensor(&mut ar, "b", vec![4, 2]).unwrap();
    let whole_s = eval_op_sym(&mut ar, &Op::Matmul, &[&a_s, &b_s]).unwrap();
    let ssym = |ar: &mut Arena, t: &SymTensor, dim: usize, s: i64, e: i64| {
        eval_op_sym(
            ar,
            &Op::Slice {
                dim,
                start: s.into(),
                end: e.into(),
            },
            &[t],
        )
        .unwrap()
    };
    let al_s = ssym(&mut ar, &a_s, 1, 0, 2);
    let ar_s = ssym(&mut ar, &a_s, 1, 2, 4);
    let bt_s = ssym(&mut ar, &b_s, 0, 0, 2);
    let bb_s = ssym(&mut ar, &b_s, 0, 2, 4);
    let p1_s = eval_op_sym(&mut ar, &Op::Matmul, &[&al_s, &bt_s]).unwrap();
    let p2_s = eval_op_sym(&mut ar, &Op::Matmul, &[&ar_s, &bb_s]).unwrap();
    let summed_s = eval_op_sym(&mut ar, &Op::Add, &[&p1_s, &p2_s]).unwrap();
    let v = classify_tensors(&mut ar, &whole_s, &summed_s);
    assert_eq!(v.class, NumClass::Reassoc);
    assert!(v.k > 0);
    let tol = v.tolerance().unwrap();
    assert!(whole.within(&summed, &tol), "derived bound must hold");
    assert!(
        matches!(tol, Tolerance::Relative(b) if b < 1e-9),
        "bound stays far below the old 1e-6 blanket epsilon"
    );
}

#[test]
fn term_evaluator_resolves_leaves_and_ones() {
    let mut a = Arena::new();
    let expr: RecExpr = "(mul X ~ones[2,2])".parse().unwrap();
    let mut shapes: HashMap<String, Vec<usize>> = HashMap::new();
    shapes.insert("X".to_owned(), vec![2, 2]);
    let t = TermTable::default()
        .eval(&mut a, &expr, &mut |arena, name| {
            let dims = shapes
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unknown {name}"))?;
            leaf_tensor(arena, name, dims).map(Rc::new)
        })
        .unwrap();
    let x = leaf_tensor(&mut a, "X", vec![2, 2]).unwrap();
    // mul by exact ones is 1*x = x bitwise.
    assert_eq!(classify_tensors(&mut a, &t, &x), Verdict::exact());
}

/// The terms the chain walk evaluates: before/after of every rule step,
/// congruence sub-proofs included, in certificate order.
fn step_terms(cert: &entangle_cert::Certificate) -> Vec<&RecExpr> {
    fn walk<'a>(steps: &'a [ProofStep], terms: &mut Vec<&'a RecExpr>) {
        for step in steps {
            match step {
                ProofStep::Rule { before, after, .. } => terms.extend([before, after]),
                ProofStep::Congruence { children, .. } => {
                    for child in children {
                        walk(&child.steps, terms);
                    }
                }
                ProofStep::Given { .. } => {}
            }
        }
    }
    let mut terms = Vec::new();
    for mc in &cert.mappings {
        walk(&mc.proof.steps, &mut terms);
    }
    terms
}

/// A `G_d` tensor leaf as the chain walk sees it: an opaque atom tensor of
/// the tensor's shape.
fn gd_leaf(arena: &mut Arena, gd: &entangle_ir::Graph, name: &str) -> Result<SymTensor, String> {
    let t = gd.tensor_by_name(name).ok_or("unknown G_d tensor")?;
    leaf_tensor(arena, name, const_dims(&t.shape).ok_or("symbolic shape")?)
}

/// One zoo pair with the certificate of its (numeric-free) check.
struct ZooCert {
    name: String,
    gd: entangle_ir::Graph,
    cert: entangle_cert::Certificate,
}

/// Every zoo workload, certified once for all the tests below.
fn zoo_certs() -> &'static [ZooCert] {
    static CERTS: std::sync::OnceLock<Vec<ZooCert>> = std::sync::OnceLock::new();
    CERTS.get_or_init(|| {
        entangle_bench::zoo()
            .into_iter()
            .map(|case| {
                let ri = case.dist.relation(&case.gs).expect("relation builds");
                let opts = entangle::CheckOptions {
                    numeric: false,
                    ..entangle::CheckOptions::default()
                };
                let cert = entangle::check_refinement(&case.gs, &case.dist.graph, &ri, &opts)
                    .unwrap_or_else(|e| panic!("{} fails to verify: {e}", case.name))
                    .certificate
                    .expect("certify is on by default");
                ZooCert {
                    name: case.name,
                    gd: case.dist.graph,
                    cert,
                }
            })
            .collect()
    })
}

#[test]
fn memoised_evaluation_matches_from_scratch_evaluation_on_the_zoo() {
    // The subterm table must be indistinguishable from evaluating every
    // term from scratch: same tensors, and — because skipped work would
    // only have re-derived existing ids — the same arena.
    for case in zoo_certs() {
        let (mut shared, mut scratch) = (Arena::new(), Arena::new());
        let mut table = TermTable::default();
        for term in step_terms(&case.cert) {
            let memoised = table.eval(&mut shared, term, &mut |arena, name| {
                gd_leaf(arena, &case.gd, name).map(Rc::new)
            });
            let fresh = TermTable::default().eval(&mut scratch, term, &mut |arena, name| {
                gd_leaf(arena, &case.gd, name).map(Rc::new)
            });
            assert_eq!(memoised, fresh, "{}: {term}", case.name);
        }
        assert_eq!(
            shared.len(),
            scratch.len(),
            "{}: arenas diverged",
            case.name
        );
        assert!(table.hits() > table.subterms(), "{}: table idle", case.name);
    }
}

#[test]
fn folded_dots_classify_every_zoo_step_like_the_eager_fold() {
    // A `Dot` stands for the multiply-add chain `eager_dots` interns in its
    // place. Every rule step of every zoo certificate must read the same
    // class and the same `k` either way, and the operations the folded
    // arena says it models must cover the nodes the eager one really holds
    // (what keeps `ARENA_CAP` pessimistic, never wrong).
    for case in zoo_certs() {
        let mut sides = [false, true].map(|eager| {
            let mut arena = Arena::new();
            arena.eager_dots = eager;
            (arena, TermTable::default())
        });
        for step in step_terms(&case.cert).chunks(2) {
            let verdicts = sides.each_mut().map(|(arena, table)| {
                let mut eval = |term: &RecExpr| {
                    let leaves = &mut |arena: &mut Arena, name: &str| {
                        gd_leaf(arena, &case.gd, name).map(Rc::new)
                    };
                    table.eval(arena, term, leaves).expect("step term")
                };
                let (before, after) = (eval(step[0]), eval(step[1]));
                classify_tensors(arena, &before, &after)
            });
            assert_eq!(
                verdicts[0], verdicts[1],
                "{}: {} vs {}",
                case.name, step[0], step[1]
            );
        }
        let [(folded, _), (eager, _)] = &sides;
        assert!(folded.modelled() >= eager.len(), "{}", case.name);
        assert!(folded.len() < eager.len(), "{}", case.name);
        assert!(folded.stats().dots_unfolded > 0, "{}", case.name);
        assert_eq!(eager.stats().dots, 0, "{}", case.name);
    }
}

/// `G_s` and `G_d` both `y = relu(x)` over `x[4, 4]`, and a certificate
/// whose one mapping rewrites `(mul x ~ones[4, 4])` to `x` by a lemma
/// whose substitution binds `a` to `x` and `o` to the ones leaf when
/// `with_ones`, and is empty otherwise.
fn ones_certificate(
    with_ones: bool,
) -> (
    entangle_ir::Graph,
    entangle_ir::Graph,
    entangle_cert::Certificate,
) {
    use entangle_ir::{DType, GraphBuilder};
    let graph = |name: &str| {
        let mut b = GraphBuilder::new(name);
        let x = b.input("x", &[4, 4], DType::F32);
        let y = b.apply("y", Op::Relu, &[x]).expect("infers");
        b.mark_output(y);
        b.finish().expect("valid")
    };
    let (gs, gd) = (graph("gs"), graph("gd"));
    let term = |t: &str| -> RecExpr { t.parse().expect("term") };
    // The ones leaf's name holds a space, so it is built, not parsed.
    let ones = "~ones[4, 4]";
    let mut product = RecExpr::new();
    let x = product.add(ENode::leaf("x"));
    let o = product.add(ENode::leaf(ones));
    product.add(ENode::op("mul", vec![x, o]));
    let mut one = RecExpr::new();
    one.add(ENode::leaf(ones));
    let step = ProofStep::Rule {
        name: "mul-by-ones".to_owned(),
        forward: true,
        subst: if with_ones {
            vec![("a".to_owned(), term("x")), ("o".to_owned(), one)]
        } else {
            Vec::new()
        },
        before: product,
        after: term("x"),
    };
    let cert = entangle_cert::Certificate {
        gs: "gs".to_owned(),
        gd: "gd".to_owned(),
        inputs: vec![("x".to_owned(), vec![term("x")])],
        mappings: vec![entangle_cert::MappingCert {
            tensor: "y".to_owned(),
            operator: "y".to_owned(),
            inputs: vec![term("x")],
            expr: term("x"),
            proof: entangle_egraph::Proof { steps: vec![step] },
        }],
        outputs: vec![("y".to_owned(), term("x"))],
        numeric: Vec::new(),
    };
    (gs, gd, cert)
}

#[test]
fn a_binding_of_exact_ones_is_classified_with_its_leaves() {
    // A step `(mul x ~ones[4, 4]) → x` under bindings `a ↦ x`, `o ↦
    // ~ones[4, 4]`. Over opaque bindings, `a · o` against `a` is a
    // different real: the abstraction hid that `o` is exact ones. The step
    // must be classified again with only its leaves abstracted, where the
    // ones are ones and the product is `x` itself.
    let (gs, gd, cert) = ones_certificate(true);
    let analysis = crate::analyze_certificate(&cert, &gs, &gd);
    assert!(analysis.is_clean(), "{}", analysis.render());
    assert_eq!(analysis.output_verdict("y"), Some(&Verdict::exact()));
    assert_eq!((analysis.rule_steps, analysis.rule_keys), (1, 1));
}

#[test]
fn the_analysis_memo_tells_substitutions_apart() {
    // A rule step's key abstracts the bindings of its substitution, so two
    // certificates that differ only there are two analyses, not a replay.
    let (gs, gd, bound) = ones_certificate(true);
    let (_, _, unbound) = ones_certificate(false);
    assert!(!crate::analyze_certificate_cached(&bound, &gs, &gd).replayed);
    assert!(crate::analyze_certificate_cached(&bound, &gs, &gd).replayed);
    assert!(!crate::analyze_certificate_cached(&unbound, &gs, &gd).replayed);
}

#[test]
fn cross_entropy_on_zero_rows_is_rejected_not_panicking() {
    let mut a = Arena::new();
    let logits = leaf_tensor(&mut a, "l", vec![0, 4]).unwrap();
    let targets = leaf_tensor(&mut a, "t", vec![0]).unwrap();
    assert!(eval_op_sym(&mut a, &Op::CrossEntropy, &[&logits, &targets]).is_err());
}

#[test]
fn width_zero_reduction_is_finite() {
    let mut a = Arena::new();
    let x = leaf_tensor(&mut a, "x", vec![0, 4]).unwrap();
    let s = eval_op_sym(
        &mut a,
        &Op::SumDim {
            dim: 0,
            keepdim: false,
        },
        &[&x],
    )
    .unwrap();
    assert_eq!(s.shape, vec![4]);
    // Every element is the exact zero seed.
    let zero = a.rat(Rat::zero());
    assert!(s.elems.iter().all(|&e| e == zero));
    let m = eval_op_sym(
        &mut a,
        &Op::MeanDim {
            dim: 0,
            keepdim: true,
        },
        &[&x],
    )
    .unwrap();
    assert_eq!(m.shape, vec![1, 4]);
}

// ---------------------------------------------------------------------------
// The difference classifier against its `BTreeMap` oracle

/// `x` scaled alternately by `r` and `1/r`, `links` times: a chain the
/// classifier unfolds one node per expansion while the difference stays
/// two monomials wide and its coefficients stay small.
fn scale_chain(a: &mut Arena, x: ExprId, r: i64, links: usize) -> ExprId {
    let (up, down) = (Rat::int(r), Rat::new(1, i128::from(r)).unwrap());
    (0..links).fold(x, |e, i| a.scale_mul(e, if i % 2 == 0 { up } else { down }))
}

/// `(l₀ + l₁)(l₂ + l₃)…`, `factors` binomials over fresh leaves.
fn binomial_product(a: &mut Arena, name: &str, factors: u64) -> ExprId {
    let n = a.name(name);
    let sums: Vec<ExprId> = (0..factors)
        .map(|i| {
            let (l, r) = (a.leaf(n, 2 * i), a.leaf(n, 2 * i + 1));
            a.add(l, r)
        })
        .collect();
    sums[1..].iter().fold(sums[0], |p, &s| a.mul(p, s))
}

#[test]
fn classifier_agrees_with_the_oracle_at_the_caps() {
    let mut a = Arena::new();
    let n = a.name("x");
    let x = a.leaf(n, 0);

    // EXPAND_CAP is 100 000 expansions: 80 000 cancel, 120 000 do not.
    let (s3, s5) = (
        scale_chain(&mut a, x, 3, 40_000),
        scale_chain(&mut a, x, 5, 40_000),
    );
    let under = a.classify_pair(s3, s5);
    assert_eq!(under, (NumClass::Reassoc, 80_000));
    assert_eq!(under, a.classify_pair_oracle(s3, s5));
    let (l3, l5) = (
        scale_chain(&mut a, x, 3, 60_000),
        scale_chain(&mut a, x, 5, 60_000),
    );
    let over = a.classify_pair(l3, l5);
    assert_eq!(over, (NumClass::Unknown, 0));
    assert_eq!(over, a.classify_pair_oracle(l3, l5));

    // POLY_CAP is 4096 monomials: eleven binomials expand to half that
    // (and then differ from a leaf for real), thirteen overflow.
    let p11 = binomial_product(&mut a, "p", 11);
    let fits = a.classify_pair(p11, x);
    assert_eq!(fits.0, NumClass::ValueChanging);
    assert_eq!(fits, a.classify_pair_oracle(p11, x));
    let p13 = binomial_product(&mut a, "q", 13);
    let spills = a.classify_pair(p13, x);
    assert_eq!(spills, (NumClass::Unknown, 0));
    assert_eq!(spills, a.classify_pair_oracle(p13, x));
}

/// One verdict per output element.
type Verdicts = Vec<(NumClass, u64)>;

/// A contraction split into shards of `widths`, the way a `G_d` holds it —
/// each shard's operands leaves of their own, the shards evaluated one
/// after another in `order` and summed in that order — against the same
/// contraction over the left-nested concatenation of those operands, the
/// way a `G_s` mapping reads it. `interleaved` evaluates each shard's
/// operands, product and running sum before the next shard's (as `G_d`
/// evaluates the `gpt_tp8_l2` chains); otherwise every operand comes
/// first, then every product, then the sum. Returns each output element's
/// verdict from the classifier and from the oracle, and the `Sum` atoms
/// the classifier wrote.
fn split_contraction(
    widths: &[usize],
    order: &[usize],
    (m, n): (usize, usize),
    interleaved: bool,
    eager: bool,
) -> (Verdicts, Verdicts, u64) {
    let a = &mut Arena::new();
    a.eager_dots = eager;
    let op = |a: &mut Arena, op: Op, ins: &[&SymTensor]| eval_op_sym(a, &op, ins).unwrap();
    let mut operands = vec![None; widths.len()];
    let mut shard = |a: &mut Arena, i: usize| -> (SymTensor, SymTensor) {
        let x = leaf_tensor(a, &format!("x.{i}"), vec![m, widths[i]]).unwrap();
        let w = leaf_tensor(a, &format!("w.{i}"), vec![widths[i], n]).unwrap();
        operands[i] = Some((x.clone(), w.clone()));
        (x, w)
    };
    let mut sum = None::<SymTensor>;
    let mut add = |a: &mut Arena, partial: SymTensor| {
        sum = Some(match sum.take() {
            Some(sum) => op(a, Op::Add, &[&sum, &partial]),
            None => partial,
        });
    };
    if interleaved {
        for &i in order {
            let (x, w) = shard(a, i);
            let partial = op(a, Op::Matmul, &[&x, &w]);
            add(a, partial);
        }
    } else {
        let shards: Vec<_> = order.iter().map(|&i| shard(a, i)).collect();
        let partials: Vec<_> = shards
            .iter()
            .map(|(x, w)| op(a, Op::Matmul, &[x, w]))
            .collect();
        partials.into_iter().for_each(|partial| add(a, partial));
    }
    let (xs, ws): (Vec<SymTensor>, Vec<SymTensor>) = operands.into_iter().flatten().unzip();
    let concat = |a: &mut Arena, parts: &[SymTensor], dim: usize| {
        parts[1..].iter().fold(parts[0].clone(), |acc, t| {
            op(a, Op::Concat { dim }, &[&acc, t])
        })
    };
    let (x, w) = (concat(a, &xs, 1), concat(a, &ws, 0));
    let full = op(a, Op::Matmul, &[&x, &w]);
    let sum = sum.expect("one shard or more");
    let pairs = full.elems.iter().zip(&sum.elems);
    let oracle = pairs
        .clone()
        .map(|(&f, &s)| a.classify_pair_oracle(f, s))
        .collect();
    let classifier = pairs.map(|(&f, &s)| a.classify_pair(f, s)).collect();
    (classifier, oracle, a.stats().sum_atoms)
}

/// [`split_contraction`] folded and eager: the classifier must read what
/// the oracle reads on both arenas, every element `reassoc`. Returns the
/// two arenas' verdicts and the `Sum` atoms the folded one wrote.
fn split_both_ways(
    widths: &[usize],
    order: &[usize],
    (m, n): (usize, usize),
    interleaved: bool,
) -> (Verdicts, Verdicts, u64) {
    let (folded, oracle, sums) = split_contraction(widths, order, (m, n), interleaved, false);
    let (eager, eager_oracle, _) = split_contraction(widths, order, (m, n), interleaved, true);
    let shape = format!("{widths:?} summed {order:?}, interleaved {interleaved}");
    assert_eq!(folded, oracle, "{shape}");
    assert_eq!(eager, eager_oracle, "{shape}");
    assert!(folded.iter().all(|v| v.0 == NumClass::Reassoc), "{shape}");
    (folded, eager, sums)
}

/// The pairs of a contraction over two leaf vectors `y` and `z`.
struct Pairs(Vec<ExprId>, Vec<ExprId>);

impl Pairs {
    fn new(a: &mut Arena, len: usize) -> Pairs {
        let y = leaf_tensor(a, "y", vec![len]).unwrap().elems;
        Pairs(y, leaf_tensor(a, "z", vec![len]).unwrap().elems)
    }

    /// The `Dot` over the pairs in `range`.
    fn dot(&self, a: &mut Arena, range: std::ops::Range<usize>) -> ExprId {
        let (r, c) = (a.list_id(&self.0[range.clone()]), a.list_id(&self.1[range]));
        a.dot(r, c)
    }
}

#[test]
fn split_contractions_of_every_shape_read_what_product_unfolding_reads() {
    // Uneven shard widths, shards summed out of order, both at once: the
    // covered runs are not the shards' positions in the sum. The classifier
    // reads what the oracle reads, and, with the shards summed after the
    // last is evaluated, what the eager fold reads.
    for (widths, order) in [
        (&[3, 5, 2][..], &[0, 1, 2][..]),
        (&[3, 3, 3], &[2, 0, 1]),
        (&[2, 4, 3, 2], &[1, 3, 0, 2]),
    ] {
        for interleaved in [false, true] {
            let (folded, eager, sums) = split_both_ways(widths, order, (2, 2), interleaved);
            if !interleaved {
                assert_eq!(folded, eager, "{widths:?} summed {order:?}");
            }
            assert!(
                sums > 0,
                "{widths:?} summed {order:?}: no run cancelled whole"
            );
        }
    }

    // A match on the prefix only: the pairs after the shared first shard
    // are single products on the other side, and a shard overlapping that
    // prefix covers no run after it. Neither writes a `Sum`.
    let mut a = Arena::new();
    let pairs = Pairs::new(&mut a, 6);
    let whole = pairs.dot(&mut a, 0..6);
    let head = pairs.dot(&mut a, 0..3);
    let tail = pairs.dot(&mut a, 2..6);
    let products = (3..6).fold(head, |acc, k| {
        let p = a.mul(pairs.0[k], pairs.1[k]);
        a.add(acc, p)
    });
    let overlapping = a.add(head, tail);
    for other in [products, overlapping] {
        let expected = a.classify_pair_oracle(whole, other);
        assert_eq!(a.classify_pair(whole, other), expected);
    }
    assert_eq!(a.classify_pair(whole, products).0, NumClass::Reassoc);
    assert_eq!(
        a.classify_pair(whole, overlapping).0,
        NumClass::ValueChanging
    );
    assert_eq!(a.stats().sum_atoms, 0);
}

#[test]
fn a_sum_counts_as_its_products_at_the_poly_cap_and_not_as_an_expansion() {
    // POLY_CAP is 4096 monomials. A contraction split in two halves leaves
    // the second half's products in the difference once the full fold has
    // unfolded: 2050 of them fit, 4100 do not, whether they are written
    // one by one or as one `Sum`.
    for (len, class) in [(4100, NumClass::Reassoc), (8200, NumClass::Unknown)] {
        let mut a = Arena::new();
        let pairs = Pairs::new(&mut a, len);
        let whole = pairs.dot(&mut a, 0..len);
        let (head, tail) = (
            pairs.dot(&mut a, 0..len / 2),
            pairs.dot(&mut a, len / 2..len),
        );
        let split = a.add(head, tail);
        let expected = a.classify_pair_oracle(whole, split);
        let got = a.classify_pair(whole, split);
        assert_eq!(got, expected, "{len} pairs");
        assert_eq!(got.0, class, "{len} pairs");
        if class == NumClass::Reassoc {
            // The add, the full fold and the second half, which cancels
            // as the `Sum` the full fold wrote (one `Sum` atom each); the
            // products never surface.
            assert_eq!(got.1, len as u64);
            assert_eq!((a.stats().sum_atoms, a.stats().expansions), (2, 3));
        }
    }

    // A `Sum` that does not cancel expands into its products at no site
    // and is no expansion: the add, the scaling, the full fold, the second
    // half and its two products make six.
    let mut a = Arena::new();
    let pairs = Pairs::new(&mut a, 4);
    let whole = pairs.dot(&mut a, 0..4);
    let (head, tail) = (pairs.dot(&mut a, 0..2), pairs.dot(&mut a, 2..4));
    let doubled = a.scale_mul(tail, Rat::int(2));
    let split = a.add(head, doubled);
    let expected = a.classify_pair_oracle(whole, split);
    assert_eq!(a.classify_pair(whole, split), expected);
    assert_eq!(expected.0, NumClass::ValueChanging);
    assert_eq!((a.stats().sum_atoms, a.stats().expansions), (2, 6));
}

// ---------------------------------------------------------------------------
// Corpus analysis

#[test]
fn registry_has_no_numeric_errors() {
    let analysis = crate::corpus::analyze_registry();
    assert!(
        analysis.is_clean(),
        "registered corpus must be numerically sound: {:?}",
        analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == entangle_lint::Severity::Error)
            .map(|d| &d.message)
            .collect::<Vec<_>>()
    );
    // Commutativity is bitwise; associativity is reassociation-only.
    let comm = analysis.entry("add-comm").expect("add-comm registered");
    assert_eq!(comm.verdict.class, NumClass::BitExact);
    assert!(analysis.count_class(NumClass::Reassoc) > 0);
    assert!(analysis.count_class(NumClass::BitExact) > 10);
}

#[test]
fn forged_rule_is_flagged_value_changing() {
    use entangle_egraph::Rewrite;
    use entangle_lemmas::TensorAnalysis;
    let rw: Rewrite<TensorAnalysis> = Rewrite::parse(
        "forged-mean-split",
        "(mean_all (concat ?a ?b 0))",
        "(add (mean_all ?a) (mean_all ?b))",
    )
    .unwrap();
    let lemma = forge_lemma(rw);
    let analysis = crate::corpus::analyze_corpus(&[lemma]);
    assert_eq!(analysis.error_count(), 1);
    let e = &analysis.entries[0];
    assert_eq!(e.verdict.class, NumClass::ValueChanging);
    assert_eq!(e.verdict.tolerance(), None, "no tolerance may be derived");
    assert!(analysis
        .diagnostics
        .iter()
        .any(|d| d.code == entangle_lint::codes::NUM_RULE_VALUE_CHANGING));
}

/// Builds a one-off Lemma wrapper for a rewrite (test only).
fn forge_lemma(
    rw: entangle_egraph::Rewrite<entangle_lemmas::TensorAnalysis>,
) -> entangle_lemmas::Lemma {
    let mut all = entangle_lemmas::registry();
    let mut l = all.swap_remove(0);
    l.name = rw.name().to_owned();
    l.rewrite = rw;
    l
}

// ---------------------------------------------------------------------------
// Proptests: bound monotonicity

mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Resolves the leaves of [`build_terms`]: `X`, `Y` are 2x2, `Z` is 2x3
    /// (so mixing it in is a shape error), anything else is unknown.
    fn small_leaves(arena: &mut Arena, name: &str) -> Result<SymTensor, String> {
        match name {
            "X" | "Y" => leaf_tensor(arena, name, vec![2, 2]),
            "Z" => leaf_tensor(arena, name, vec![2, 3]),
            _ => Err(format!("unknown leaf {name}")),
        }
    }

    /// Grows a pool of terms bottom-up: instruction `(op, i, j)` applies a
    /// binary operator to two earlier pool entries, so later terms repeat
    /// earlier ones as subterms and an erroring subterm can sit on either
    /// side of its parent.
    fn build_terms(program: &[(usize, usize, usize)]) -> Vec<RecExpr> {
        let mut pool: Vec<String> = ["X", "Y", "Z", "Q"].map(str::to_owned).to_vec();
        for &(op, i, j) in program {
            let op = ["add", "mul", "matmul", "sub"][op % 4];
            let (l, r) = (&pool[i % pool.len()], &pool[j % pool.len()]);
            pool.push(format!("({op} {l} {r})"));
        }
        pool.iter()
            .map(|t| t.parse().expect("well-formed term"))
            .collect()
    }

    /// Random bytes read as a recipe, wrapping around at the end.
    struct Tape<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl Tape<'_> {
        fn next(&mut self) -> usize {
            self.at += 1;
            usize::from(self.bytes[(self.at - 1) % self.bytes.len()])
        }
    }

    /// Builds the expression the tape describes: sums and products of two
    /// to four subterms, squares, products nine factors wide (one atom more
    /// than a monomial keeps inline, times whatever multiplies it),
    /// constant scalings, rounding and exact funs of one and two
    /// arguments, dot products, over four leaves. `flip` folds every sum
    /// and product right to left instead of left to right, and a dot
    /// product shard by shard: the same real number, rounded at different
    /// sites — and funs of such pairs, for congruence lifting to merge.
    fn realize(a: &mut Arena, tape: &mut Tape, depth: usize, flip: bool) -> ExprId {
        let fold =
            |a: &mut Arena, terms: Vec<ExprId>, op: fn(&mut Arena, ExprId, ExprId) -> ExprId| {
                let mut terms = terms.into_iter();
                if flip {
                    let last = terms.next_back().expect("two terms or more");
                    terms.rev().fold(last, |acc, t| op(a, t, acc))
                } else {
                    let first = terms.next().expect("two terms or more");
                    terms.fold(first, |acc, t| op(a, acc, t))
                }
            };
        let kind = if depth == 0 { 0 } else { tape.next() % 11 };
        match kind {
            0 => {
                let n = a.name("v");
                a.leaf(n, tape.next() as u64 % 4)
            }
            1..=3 => {
                let count = 2 + tape.next() % 3;
                let terms = (0..count)
                    .map(|_| realize(a, tape, depth - 1, flip))
                    .collect();
                fold(a, terms, if kind == 3 { Arena::mul } else { Arena::add })
            }
            4 => {
                let d = realize(a, tape, depth - 1, flip);
                a.mul(d, d)
            }
            5 => {
                let factors = (0..9)
                    .map(|_| realize(a, tape, depth.min(2) - 1, flip))
                    .collect();
                fold(a, factors, Arena::mul)
            }
            6 => {
                let r = Rat::new(tape.next() as i128 % 7 - 3, 3).expect("nonzero denominator");
                let x = realize(a, tape, depth - 1, flip);
                a.scale_mul(x, r)
            }
            7 => {
                let n = tape.next() as u64 % 4 + 1;
                let x = realize(a, tape, depth - 1, flip);
                a.scale_div(x, n)
            }
            8 => {
                let name = ["exp", "relu"][tape.next() % 2];
                let x = realize(a, tape, depth - 1, flip);
                a.fun(name, &[x])
            }
            9 => {
                let name = ["div", "max"][tape.next() % 2];
                let x = realize(a, tape, depth - 1, flip);
                let y = realize(a, tape, depth - 1, flip);
                a.fun(name, &[x, y])
            }
            _ => {
                let (shards, width) = (1 + tape.next() % 3, 1 + tape.next() % 3);
                let mut list = || -> Vec<ExprId> {
                    (0..shards * width)
                        .map(|_| realize(a, tape, depth.min(2) - 1, flip))
                        .collect()
                };
                let (row, col) = (list(), list());
                let run = if flip { width } else { shards * width };
                let partials = row
                    .chunks(run)
                    .zip(col.chunks(run))
                    .map(|(r, c)| {
                        let (r, c) = (a.list_id(r), a.list_id(c));
                        a.dot(r, c)
                    })
                    .collect();
                fold(a, partials, Arena::add)
            }
        }
    }

    /// Two expressions, the classifier's verdict on them and the oracle's.
    type Compared = ((ExprId, ExprId), (NumClass, u64), (NumClass, u64));

    /// The expression `bytes` describes, its reassociation, and both for
    /// the recipe with byte `at` set to `to`: every pair of them, compared.
    fn recipe_verdicts(bytes: &[u8], depth: usize, (at, to): (usize, u8)) -> Vec<Compared> {
        let mut a = Arena::new();
        let mut other = bytes.to_vec();
        other[at % bytes.len()] = to;
        let exprs = [
            (bytes, false),
            (bytes, true),
            (&other, false),
            (&other, true),
        ]
        .map(|(bytes, flip)| realize(&mut a, &mut Tape { bytes, at: 0 }, depth, flip));
        let mut verdicts = Vec::new();
        for (i, &x) in exprs.iter().enumerate() {
            for &y in &exprs[..i] {
                let expected = a.classify_pair_oracle(x, y);
                verdicts.push(((x, y), a.classify_pair(x, y), expected));
            }
        }
        verdicts
    }

    #[test]
    fn a_sum_is_written_only_where_its_dot_stands_alone() {
        // Two recipes the proptest below reaches at 20 000 cases. Writing a
        // `Sum` wherever a cover is alive reads `k` 7 where the oracle
        // reads 6 on the first (the cover is a cofactor of the unfolding
        // `Dot`); writing it wherever the cover shares the `Dot`'s
        // monomials reads 30 against 28 on the second (a squared
        // contraction). Either keeps an atom alive whose cofactor cancels
        // only once its `Sum`s are written out.
        let recipes: [(&[u8], usize, (usize, u8)); 2] = [
            (
                &[
                    185, 193, 15, 187, 87, 168, 115, 15, 77, 119, 98, 23, 117, 255, 75, 186, 127,
                    195,
                ],
                3,
                (20, 87),
            ),
            (
                &[49, 0, 98, 31, 8, 252, 11, 152, 177, 23, 76, 89, 230, 133],
                3,
                (0, 171),
            ),
        ];
        for (bytes, depth, edit) in recipes {
            for ((x, y), got, expected) in recipe_verdicts(bytes, depth, edit) {
                assert_eq!(got, expected, "{x} vs {y} of {bytes:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The allocation-free classifier and the `BTreeMap` oracle give
        /// every pair the same class and the same `k`: an expression
        /// against its reassociation, and against a neighbour whose recipe
        /// differs in one byte.
        #[test]
        fn classifier_equals_oracle(
            bytes in proptest::collection::vec(0u8..=255, 8..48),
            (depth, at, to) in (1usize..5, 0usize..48, 0u8..=255),
        ) {
            for ((x, y), got, expected) in recipe_verdicts(&bytes, depth, (at, to)) {
                prop_assert_eq!(got, expected, "{} vs {}", x, y);
            }
        }
    }

    proptest! {
        /// An `[m, K] × [K, n]` matmul against its splits, with its dot
        /// products folded into one node each and with every multiply-add
        /// interned: `p` row-parallel shards summed reassociate it at
        /// exactly the sites a shared first shard leaves — the rest of the
        /// full fold, the sum, and the other shards' own folds — and
        /// column shards, batch slices and tiled repeats are it bit for
        /// bit.
        #[test]
        fn matmul_splits_classify_alike_folded_and_eager(
            (m, n, p, width, batch) in (1usize..4, 2usize..4, 2usize..5, 2usize..5, 1usize..3),
        ) {
            let k = p * width;
            let op = |a: &mut Arena, op: Op, ins: &[&SymTensor]| eval_op_sym(a, &op, ins).unwrap();
            let slice = |a: &mut Arena, t: &SymTensor, dim: usize, start: usize, end: usize| {
                let (start, end) = ((start as i64).into(), (end as i64).into());
                op(a, Op::Slice { dim, start, end }, &[t])
            };
            let reassoc = Verdict {
                class: NumClass::Reassoc,
                k: ((k - width) + (p - 1) + (p - 1) * (width - 1)) as u64,
            };
            for eager in [false, true] {
                let a = &mut Arena::new();
                a.eager_dots = eager;
                let x = leaf_tensor(a, "x", vec![m, k]).unwrap();
                let w = leaf_tensor(a, "w", vec![k, n]).unwrap();
                let full = op(a, Op::Matmul, &[&x, &w]);

                let shards: Vec<SymTensor> = (0..p)
                    .map(|i| {
                        let xs = slice(a, &x, 1, i * width, (i + 1) * width);
                        let ws = slice(a, &w, 0, i * width, (i + 1) * width);
                        op(a, Op::Matmul, &[&xs, &ws])
                    })
                    .collect();
                let mut sum = shards[0].clone();
                for shard in &shards[1..] {
                    sum = op(a, Op::Add, &[&sum, shard]);
                }
                prop_assert_eq!(classify_tensors(a, &full, &sum), reassoc, "eager: {}", eager);

                let (left, right) = (slice(a, &w, 1, 0, 1), slice(a, &w, 1, 1, n));
                let (left, right) = (op(a, Op::Matmul, &[&x, &left]), op(a, Op::Matmul, &[&x, &right]));
                prop_assert_eq!(op(a, Op::Concat { dim: 1 }, &[&left, &right]), full.clone());

                let xb = leaf_tensor(a, "b", vec![batch, m, k]).unwrap();
                let slices: Vec<SymTensor> = (0..batch)
                    .map(|i| {
                        let xi = slice(a, &xb, 0, i, i + 1);
                        op(a, Op::Matmul, &[&xi, &w])
                    })
                    .collect();
                let slices: Vec<&SymTensor> = slices.iter().collect();
                prop_assert_eq!(op(a, Op::Concat { dim: 0 }, &slices), op(a, Op::Matmul, &[&xb, &w]));

                let xx = op(a, Op::Concat { dim: 0 }, &[&x, &x]);
                let ww = op(a, Op::Concat { dim: 1 }, &[&w, &w]);
                let wide = op(a, Op::Concat { dim: 1 }, &[&full, &full]);
                prop_assert_eq!(op(a, Op::Matmul, &[&xx, &ww]), op(a, Op::Concat { dim: 0 }, &[&wide, &wide]));

                let row = a.list_id(&x.elems[..k]);
                let col: Vec<ExprId> = (0..k).map(|i| w.elems[i * n]).collect();
                let col = a.list_id(&col);
                prop_assert_eq!(a.dot(row, col), full.elems[0]);
                prop_assert_eq!(a.dot(col, row), full.elems[0]);

                // Shards whose lists were interned column first keep their
                // handles the other way round than the full fold does, and
                // the first is still the prefix the two share.
                let y = leaf_tensor(a, "y", vec![k]).unwrap().elems;
                let z = leaf_tensor(a, "z", vec![k]).unwrap().elems;
                let (row, col) = (a.list_id(&y), a.list_id(&z));
                let whole = a.dot(row, col);
                let mut sum = None;
                for at in (0..k).step_by(width) {
                    let (col, row) = (a.list_id(&z[at..][..width]), a.list_id(&y[at..][..width]));
                    let shard = a.dot(row, col);
                    sum = Some(sum.map_or(shard, |sum| a.add(sum, shard)));
                }
                let split = a.classify_pair(whole, sum.unwrap());
                prop_assert_eq!(split, (reassoc.class, reassoc.k), "eager: {}", eager);
                prop_assert_eq!(a.stats().dots == 0, eager);
            }
        }

        /// A contraction over up to eight shards against the contraction
        /// over their left-nested concatenation: the classifier reads on
        /// every element what the oracle reads, and a covered run of the
        /// full fold cancels as one `Sum`. Summed after the last shard is
        /// evaluated, that is the eager fold's `k`, exactly
        /// `(K − K/p) + (p − 1) + (p − 1)(K/p − 1)`; summed shard by shard,
        /// as `G_d` evaluates the `gpt_tp8_l2` chains, the full fold
        /// unfolds before the first shard surfaces from inside the sum
        /// (DESIGN, *Classification*) and reads at least that.
        #[test]
        fn p_way_splits_read_what_product_unfolding_reads(
            (p, width, m, n, interleaved) in (2usize..9, 2usize..5, 1usize..3, 1usize..3, 0u8..2),
        ) {
            let interleaved = interleaved == 1;
            let (widths, order) = (vec![width; p], (0..p).collect::<Vec<_>>());
            let (folded, eager, sums) = split_both_ways(&widths, &order, (m, n), interleaved);
            let k = p * width;
            let split = ((k - width) + (p - 1) + (p - 1) * (width - 1)) as u64;
            for ((_, folded), (_, eager)) in folded.iter().zip(&eager) {
                prop_assert_eq!(*eager, split);
                prop_assert!(if interleaved { *folded >= split } else { *folded == split });
            }
            prop_assert!(sums > 0);
        }

        /// One table over a run of overlapping terms answers every term —
        /// first visit and all-hits revisit alike — exactly as the
        /// from-scratch walk does, error strings included.
        #[test]
        fn cached_results_equal_uncached(
            program in proptest::collection::vec((0usize..4, 0usize..16, 0usize..16), 1..12),
        ) {
            let (mut shared, mut scratch) = (Arena::new(), Arena::new());
            let mut table = TermTable::default();
            for term in build_terms(&program) {
                let leaves = &mut |a: &mut Arena, n: &str| small_leaves(a, n).map(Rc::new);
                let fresh = TermTable::default().eval(&mut scratch, &term, leaves);
                for _ in 0..2 {
                    let cached = table.eval(&mut shared, &term, leaves);
                    prop_assert_eq!(&cached, &fresh, "{}", term);
                }
            }
            prop_assert_eq!(shared.len(), scratch.len());
        }

        /// Horner over the shape is the strides dot product, on every
        /// shape including size-1 dims and rank 0.
        #[test]
        fn offset_equals_strides_form(
            dims in proptest::collection::vec((1usize..5, 0usize..5), 0..5),
        ) {
            let shape: Vec<usize> = dims.iter().map(|&(d, _)| d).collect();
            let index: Vec<usize> = dims.iter().map(|&(d, i)| i % d).collect();
            let t = SymTensor::new(shape.clone(), vec![0; shape.iter().product()]);
            let by_strides: usize = index.iter().zip(t.strides()).map(|(i, s)| i * s).sum();
            prop_assert_eq!(t.offset(&index), by_strides);
            prop_assert!(by_strides < t.numel());
        }

        /// Derived k grows (weakly) with shard count: finer splits can
        /// only move more rounding sites. Chunks must hold >= 2 elements:
        /// a 1-element "partial sum" is the leaf itself, so p == n
        /// degenerates to the identical fold (k = 0).
        #[test]
        fn k_monotone_in_shard_count(log_n in 2u32..6, p1 in 1usize..8, p2 in 1usize..8) {
            let n = 1usize << log_n; // powers of two divide evenly
            let (p1, p2) = (p1.min(p2), p1.max(p2));
            prop_assume!(n.is_multiple_of(p1) && n.is_multiple_of(p2) && n / p2 >= 2);
            let (c1, k1) = split_sum_pair(n, p1);
            let (c2, k2) = split_sum_pair(n, p2);
            prop_assert!(c1 <= NumClass::Reassoc && c2 <= NumClass::Reassoc);
            prop_assert!(k1 <= k2, "k({n},{p1})={k1} > k({n},{p2})={k2}");
        }

        /// Derived k grows (weakly) with reduction width at fixed shards.
        #[test]
        fn k_monotone_in_chain_length(log_n1 in 2u32..5, log_n2 in 2u32..5) {
            let (a, b) = (log_n1.min(log_n2), log_n1.max(log_n2));
            let (n1, n2) = (1usize << a, 1usize << b);
            let (_, k1) = split_sum_pair(n1, 2);
            let (_, k2) = split_sum_pair(n2, 2);
            prop_assert!(k1 <= k2);
        }

        /// Composition only loosens: the composed tolerance covers both
        /// parts (bound monotone in k, classes join upward).
        #[test]
        fn compose_is_monotone(k1 in 0u64..10_000, k2 in 0u64..10_000) {
            let a = Verdict { class: NumClass::Reassoc, k: k1 };
            let b = Verdict { class: NumClass::Reassoc, k: k2 };
            let c = a.compose(&b);
            prop_assert_eq!(c.k, k1 + k2);
            prop_assert!(reassoc_rel_bound(c.k) >= reassoc_rel_bound(k1));
            prop_assert!(reassoc_rel_bound(c.k) >= reassoc_rel_bound(k2));
        }

        /// The relative bound itself is monotone and finite over the
        /// practically reachable range.
        #[test]
        fn bound_monotone_in_k(k in 0u64..1_000_000) {
            let b = reassoc_rel_bound(k);
            let b1 = reassoc_rel_bound(k + 1);
            prop_assert!(b.is_finite() && b >= 0.0);
            prop_assert!(b1 >= b);
        }
    }
}
