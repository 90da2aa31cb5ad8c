use crate::*;

fn expr(s: &str) -> RecExpr {
    s.parse().expect("parse")
}

#[test]
fn parse_roundtrip() {
    for s in [
        "x",
        "42",
        "-3",
        "(matmul A B)",
        "(concat (slice X 0 0 16) (slice X 0 16 32) 0)",
        "(add (matmul A1 B1) (matmul A2 B2))",
    ] {
        assert_eq!(expr(s).to_string(), s);
    }
}

#[test]
fn parse_errors() {
    assert!("(".parse::<RecExpr>().is_err());
    assert!(")".parse::<RecExpr>().is_err());
    assert!("(f a) b".parse::<RecExpr>().is_err());
    assert!("(?x a)".parse::<RecExpr>().is_err());
    assert!("?x".parse::<RecExpr>().is_err()); // vars not allowed in ground exprs
    assert!("((f) a)".parse::<RecExpr>().is_err());
}

#[test]
fn parse_depth_is_bounded_at_the_limit() {
    // `links` applications over a leaf: a term of depth `links + 1`.
    let chain = |links: usize| format!("{}x{}", "(neg ".repeat(links), ")".repeat(links));
    let at = chain(MAX_TERM_DEPTH - 1);
    assert_eq!(expr(&at).to_string(), at);
    assert!(at.parse::<Pattern>().is_ok());
    let over = chain(MAX_TERM_DEPTH);
    let err = over.parse::<RecExpr>().unwrap_err().to_string();
    assert!(err.contains("nests deeper than 512"), "{err}");
    assert!(over.parse::<Pattern>().is_err());
    // What would overflow the stack is refused like one level too many.
    assert!(chain(200_000).parse::<RecExpr>().is_err());
}

#[test]
fn add_on_a_clone_copies_and_leaves_the_original() {
    let original = expr("(matmul A B)");
    let mut grown = original.clone();
    assert_eq!(
        grown.storage_key(),
        original.storage_key(),
        "a clone shares"
    );
    let a = grown.add(ENode::leaf("C"));
    let root = grown.root_id();
    grown.add(ENode::op("add", vec![root, a]));
    assert_ne!(grown.storage_key(), original.storage_key(), "add copied");
    assert_eq!(original.to_string(), "(matmul A B)");
    assert_eq!(original.len(), 3);
    assert_eq!(grown.len(), 5);
    assert_eq!(&grown.nodes()[..3], original.nodes());
    // A sole owner grows in place.
    let key = grown.storage_key();
    grown.add(ENode::Int(0));
    assert_eq!(grown.storage_key(), key);
}

#[test]
fn shared_and_parsed_copies_compare_and_hash_equal() {
    use std::hash::{BuildHasher, RandomState};
    let text = "(concat (slice X 0 0 16) (slice X 0 16 32) 0)";
    let original = expr(text);
    let shared = original.clone();
    let parsed = expr(text);
    assert_eq!(shared.storage_key(), original.storage_key());
    assert_ne!(parsed.storage_key(), original.storage_key());
    let hasher = RandomState::new();
    for copy in [&shared, &parsed] {
        assert_eq!(copy, &original);
        assert_eq!(hasher.hash_one(copy), hasher.hash_one(&original));
        assert_eq!(copy.to_string(), text);
        assert_eq!(format!("{copy:?}"), format!("{original:?}"));
    }
    assert_ne!(
        shared,
        expr("(concat (slice X 0 0 16) (slice X 0 16 32) 1)")
    );
}

#[test]
fn hashcons_dedup() {
    let mut eg = EGraph::<()>::default();
    let a1 = eg.add(ENode::leaf("a"));
    let a2 = eg.add(ENode::leaf("a"));
    assert_eq!(a1, a2);
    let f1 = eg.add(ENode::op("f", vec![a1]));
    let f2 = eg.add(ENode::op("f", vec![a2]));
    assert_eq!(f1, f2);
    assert_eq!(eg.total_nodes(), 2);
}

#[test]
fn union_and_congruence() {
    let mut eg = EGraph::<()>::default();
    let x = eg.add(ENode::leaf("x"));
    let y = eg.add(ENode::leaf("y"));
    let fx = eg.add(ENode::op("f", vec![x]));
    let fy = eg.add(ENode::op("f", vec![y]));
    let gfx = eg.add(ENode::op("g", vec![fx]));
    let gfy = eg.add(ENode::op("g", vec![fy]));
    assert_ne!(eg.find(gfx), eg.find(gfy));
    eg.union(x, y);
    eg.rebuild();
    assert_eq!(eg.find(fx), eg.find(fy));
    assert_eq!(
        eg.find(gfx),
        eg.find(gfy),
        "congruence must propagate upward"
    );
}

#[test]
fn deep_congruence_chain() {
    let mut eg = EGraph::<()>::default();
    let mut a = eg.add(ENode::leaf("a"));
    let mut b = eg.add(ENode::leaf("b"));
    let (a0, b0) = (a, b);
    for _ in 0..20 {
        a = eg.add(ENode::op("f", vec![a]));
        b = eg.add(ENode::op("f", vec![b]));
    }
    eg.union(a0, b0);
    eg.rebuild();
    assert_eq!(eg.find(a), eg.find(b));
}

#[test]
fn lookup_does_not_insert() {
    let mut eg = EGraph::<()>::default();
    let x = eg.add(ENode::leaf("x"));
    assert_eq!(eg.lookup(&ENode::leaf("x")), Some(x));
    assert_eq!(eg.lookup(&ENode::op("f", vec![x])), None);
    let n = eg.total_nodes();
    let _ = eg.lookup(&ENode::op("g", vec![x]));
    assert_eq!(eg.total_nodes(), n);
}

/// `add_op` is `add` without the allocation: the same sequence through
/// either gives the same ids and the same graph — present, stale-child
/// (before and after its alias exists) and new nodes alike.
#[test]
fn add_op_answers_like_add() {
    let build = |via_op: bool| {
        let mut eg = EGraph::<()>::default();
        let add = |eg: &mut EGraph<()>, head: &str, children: &[Id]| {
            if via_op {
                eg.add_op(Symbol::new(head), children)
            } else {
                eg.add(ENode::op(head, children.to_vec()))
            }
        };
        let x = add(&mut eg, "x", &[]);
        let y = add(&mut eg, "y", &[]);
        let mut ids = vec![add(&mut eg, "f", &[x]), add(&mut eg, "g", &[x, y])];
        eg.union(x, y); // one of x, y is stale until the rebuild
        for _ in 0..2 {
            ids.push(add(&mut eg, "f", &[x]));
            ids.push(add(&mut eg, "f", &[y]));
            ids.push(add(&mut eg, "g", &[y, x]));
        }
        ids.push(add(&mut eg, "h", &[y]));
        eg.rebuild();
        ids.push(add(&mut eg, "f", &[x]));
        ids.push(add(&mut eg, "g", &[x, x]));
        let alias = eg.term_of(ids[3]);
        (ids, eg.total_nodes(), eg.num_classes(), alias)
    };
    assert_eq!(build(false), build(true));
}

#[test]
fn lookup_expr_constrained() {
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(f (g a))"));
    assert!(eg.lookup_expr(&expr("(f (g a))")).is_some());
    assert!(eg.lookup_expr(&expr("(g a)")).is_some());
    assert!(eg.lookup_expr(&expr("(f a)")).is_none());
}

#[test]
fn pattern_matching_basics() {
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(matmul A B)"));
    eg.add_expr(&expr("(matmul C D)"));
    let pat: Pattern = "(matmul ?x ?y)".parse().unwrap();
    let matches = pat.search(&eg);
    assert_eq!(matches.len(), 2);
    // Nonlinear pattern: ?x repeated must match the same class.
    let pat2: Pattern = "(matmul ?x ?x)".parse().unwrap();
    assert_eq!(pat2.search(&eg).len(), 0);
    eg.add_expr(&expr("(matmul E E)"));
    assert_eq!(pat2.search(&eg).len(), 1);
}

#[test]
fn pattern_with_int_literal() {
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(concat A B 0)"));
    eg.add_expr(&expr("(concat C D 1)"));
    let pat: Pattern = "(concat ?a ?b 0)".parse().unwrap();
    assert_eq!(pat.search(&eg).len(), 1);
    let pat_any: Pattern = "(concat ?a ?b ?d)".parse().unwrap();
    assert_eq!(pat_any.search(&eg).len(), 2);
}

#[test]
fn rewrite_block_matmul() {
    // The paper's Figure 2 derivation.
    let lemma: Rewrite<()> = Rewrite::parse(
        "matmul-block",
        "(matmul (concat ?a0 ?a1 1) (concat ?b0 ?b1 0))",
        "(add (matmul ?a0 ?b0) (matmul ?a1 ?b1))",
    )
    .unwrap();
    let mut eg = EGraph::<()>::default();
    let l = eg.add_expr(&expr("(matmul (concat A1 A2 1) (concat B1 B2 0))"));
    let r = eg.add_expr(&expr("(add (matmul A1 B1) (matmul A2 B2))"));
    let mut runner = Runner::new(eg);
    let report = runner.run(&[lemma]);
    assert_eq!(runner.egraph.find(l), runner.egraph.find(r));
    assert_eq!(report.stop_reason, StopReason::Saturated);
}

/// A goal ends the run at the first iteration after which it holds, with
/// `StopReason::Goal`, which is not a limit; a goal that never holds leaves
/// the run exactly as `run_with` does.
#[test]
fn run_until_stops_when_the_goal_holds() {
    let rules: Vec<Rewrite<()>> = vec![
        Rewrite::parse("add-comm", "(add ?a ?b)", "(add ?b ?a)").unwrap(),
        Rewrite::parse("add-assoc", "(add (add ?a ?b) ?c)", "(add ?a (add ?b ?c))").unwrap(),
    ];
    let matcher = CompiledMatcher::compile(&rules);
    let graph = || {
        let mut eg = EGraph::<()>::default();
        let root = eg.add_expr(&expr("(add (add a b) (add c d))"));
        (eg, root)
    };

    let (eg, root) = graph();
    let target = expr("(add d (add c (add b a)))");
    let mut goal_runner = Runner::new(eg);
    let mut calls = 0;
    let report = goal_runner.run_until(&rules, &matcher, |eg| {
        calls += 1;
        eg.lookup_expr(&target)
            .is_some_and(|id| eg.find(id) == eg.find(root))
    });
    assert_eq!(report.stop_reason, StopReason::Goal);
    assert!(!report.stop_reason.is_limit());
    assert_eq!(report.iterations, calls, "checked once per iteration");

    let (eg, _) = graph();
    let mut plain = Runner::new(eg);
    let saturated = plain.run_with(&rules, &matcher);
    assert_eq!(saturated.stop_reason, StopReason::Saturated);
    assert!(report.iterations < saturated.iterations);
    let (eg, _) = graph();
    let never = Runner::new(eg).run_until(&rules, &matcher, |_| false);
    assert_eq!(never.stop_reason, saturated.stop_reason);
    assert_eq!(never.iterations, saturated.iterations);
    assert_eq!(never.egraph_nodes, saturated.egraph_nodes);
}

#[test]
fn conditional_rewrite_only_fires_when_condition_holds() {
    // slice of concat commutes only when dims differ; encode dims as Int
    // children and check them in the condition.
    let rw: Rewrite<()> = Rewrite::parse_if(
        "slice-dim-guard",
        "(slice (concat ?a ?b ?d1) ?d2 ?lo ?hi)",
        "(concat (slice ?a ?d2 ?lo ?hi) (slice ?b ?d2 ?lo ?hi) ?d1)",
        |eg, _id, subst| {
            // Distinct integers are distinct classes.
            eg.find(subst[Var::new("d1")]) != eg.find(subst[Var::new("d2")])
        },
    )
    .unwrap();

    let mut eg = EGraph::<()>::default();
    let same = eg.add_expr(&expr("(slice (concat A B 0) 0 0 4)"));
    let diff = eg.add_expr(&expr("(slice (concat A B 0) 1 0 4)"));
    let mut runner = Runner::new(eg);
    runner.run(&[rw]);
    let eg = &runner.egraph;
    let same_rhs = eg.lookup_expr(&expr("(concat (slice A 0 0 4) (slice B 0 0 4) 0)"));
    assert!(same_rhs.is_none() || eg.find(same_rhs.unwrap()) != eg.find(same));
    let diff_rhs = eg
        .lookup_expr(&expr("(concat (slice A 1 0 4) (slice B 1 0 4) 0)"))
        .expect("rhs must have been added");
    assert_eq!(eg.find(diff_rhs), eg.find(diff));
}

#[test]
fn dynamic_applier() {
    // x * 2 → x + x, built dynamically.
    let rw: Rewrite<()> = Rewrite::parse_dyn("mul2-to-add", "(mul ?x 2)", |eg, _id, subst| {
        let x = subst[Var::new("x")];
        vec![eg.add(ENode::op("add", vec![x, x]))]
    })
    .unwrap();
    let mut eg = EGraph::<()>::default();
    let l = eg.add_expr(&expr("(mul a 2)"));
    let mut runner = Runner::new(eg);
    runner.run(&[rw]);
    let r = runner.egraph.lookup_expr(&expr("(add a a)")).unwrap();
    assert_eq!(runner.egraph.find(l), runner.egraph.find(r));
}

#[test]
fn saturation_with_commutativity_and_assoc_terminates() {
    let rules: Vec<Rewrite<()>> = vec![
        Rewrite::parse("comm", "(add ?a ?b)", "(add ?b ?a)").unwrap(),
        Rewrite::parse("assoc", "(add (add ?a ?b) ?c)", "(add ?a (add ?b ?c))").unwrap(),
    ];
    let mut eg = EGraph::<()>::default();
    let l = eg.add_expr(&expr("(add (add a b) (add c d))"));
    let r = eg.add_expr(&expr("(add (add d c) (add b a))"));
    let mut runner = Runner::new(eg).with_iter_limit(10).with_node_limit(10_000);
    let report = runner.run(&rules);
    assert_eq!(runner.egraph.find(l), runner.egraph.find(r));
    assert!(report.iterations <= 10);
}

#[test]
fn extraction_picks_smallest() {
    let rules: Vec<Rewrite<()>> = vec![
        Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap(),
        Rewrite::parse("mul-one", "(mul ?x 1)", "?x").unwrap(),
    ];
    let mut eg = EGraph::<()>::default();
    let id = eg.add_expr(&expr("(mul (add y 0) 1)"));
    let mut runner = Runner::new(eg);
    runner.run(&rules);
    let ex = Extractor::new(&runner.egraph, AstSize);
    let (cost, best) = ex.find_best(id).unwrap();
    assert_eq!(best.to_string(), "y");
    assert_eq!(cost, 1.0);
}

#[test]
fn extraction_with_infinite_costs() {
    // Only `concat`, `slice` and leaves are allowed; `matmul` is forbidden.
    let cost = |node: &ENode, children: &[f64]| -> f64 {
        let own = match node {
            ENode::Int(_) | ENode::Sym(_) => 0.0,
            ENode::Op(sym, ch) => {
                if ch.is_empty() {
                    1.0
                } else {
                    match sym.as_str() {
                        "concat" | "slice" | "add" => 1.0,
                        _ => f64::INFINITY,
                    }
                }
            }
        };
        own + children.iter().sum::<f64>()
    };
    let mut eg = EGraph::<()>::default();
    let m = eg.add_expr(&expr("(matmul A B)"));
    let c = eg.add_expr(&expr("(add C1 C2)"));
    // matmul(A,B) == add(C1,C2): the clean side must be extracted.
    eg.union(m, c);
    eg.rebuild();
    let ex = Extractor::new(&eg, cost);
    let (_, best) = ex.find_best(m).unwrap();
    assert_eq!(best.to_string(), "(add C1 C2)");

    // A class with no clean representative extracts to None.
    let lone = eg.add_expr(&expr("(matmul X Y)"));
    let ex = Extractor::new(&eg, cost);
    assert!(ex.find_best(lone).is_none());
}

#[test]
fn extraction_handles_cycles() {
    // After union(x, f(x)) the class is cyclic; extraction must still
    // terminate and produce the leaf.
    let mut eg = EGraph::<()>::default();
    let x = eg.add(ENode::leaf("x"));
    let fx = eg.add(ENode::op("f", vec![x]));
    eg.union(x, fx);
    eg.rebuild();
    let ex = Extractor::new(&eg, AstSize);
    let (cost, best) = ex.find_best(fx).unwrap();
    assert_eq!(best.to_string(), "x");
    assert_eq!(cost, 1.0);
}

#[test]
fn runner_node_limit_respected() {
    // An explosive rule: f(x) → f(g(x)) (unconstrained generative rewrite,
    // exactly the §4.3.2 blow-up scenario — each firing mints a fresh
    // g-chain class, so the graph grows without bound).
    let rw: Rewrite<()> = Rewrite::parse("explode", "(f ?x)", "(f (g ?x))").unwrap();
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(f a)"));
    let mut runner = Runner::new(eg).with_node_limit(200).with_iter_limit(1000);
    let report = runner.run(&[rw]);
    assert_eq!(report.stop_reason, StopReason::NodeLimit);
}

#[test]
fn application_counts_reported() {
    let rules: Vec<Rewrite<()>> = vec![
        Rewrite::parse("comm", "(add ?a ?b)", "(add ?b ?a)").unwrap(),
        Rewrite::parse("never", "(zzz ?a)", "(zzz ?a)").unwrap(),
    ];
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(add p q)"));
    let mut runner = Runner::new(eg);
    let report = runner.run(&rules);
    assert!(report.saturation.rules["comm"].applications >= 1);
    assert_eq!(report.saturation.rules["never"].applications, 0);
}

#[test]
fn subst_binding_semantics() {
    let mut eg = EGraph::<()>::default();
    let a = eg.add(ENode::leaf("a"));
    let b = eg.add(ENode::leaf("b"));
    let mut s = Subst::new();
    s.insert(Var::new("x"), a);
    assert_eq!(s.get(Var::new("x")), Some(a));
    assert_eq!(s.get(Var::new("y")), None);
    s.insert(Var::new("x"), b);
    assert_eq!(s.get(Var::new("x")), Some(b));
    assert_eq!(s[Var::new("x")], b);
}

#[test]
fn equivs_checks_without_mutation() {
    let mut eg = EGraph::<()>::default();
    let l = eg.add_expr(&expr("(f a)"));
    let r = eg.add_expr(&expr("(g a)"));
    assert!(!eg.equivs(&expr("(f a)"), &expr("(g a)")));
    eg.union(l, r);
    eg.rebuild();
    assert!(eg.equivs(&expr("(f a)"), &expr("(g a)")));
    assert!(!eg.equivs(&expr("(f a)"), &expr("(h a)")));
}

#[test]
fn symbol_interning() {
    let a = Symbol::new("hello");
    let b = Symbol::new("hello");
    let c = Symbol::new("world");
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(a.as_str(), "hello");
    assert_eq!(format!("{c}"), "world");
}

#[test]
fn recexpr_subtree_and_leaves() {
    let e = expr("(concat (matmul A B) (matmul A C) 0)");
    let leaves: Vec<_> = e.leaf_symbols().iter().map(|s| s.as_str()).collect();
    assert_eq!(leaves, vec!["A", "B", "C"]);
    // concat + 2 matmul + 4 leaf occurrences (RecExpr does not hash-cons,
    // so `A` appears twice); the Int is excluded.
    assert_eq!(e.ast_size(), 7);
}

#[test]
fn bare_var_pattern_matches_every_class() {
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(f a)"));
    eg.add_expr(&expr("(g b)"));
    let pat: Pattern = "?x".parse().unwrap();
    // Classes: a, b, (f a), (g b).
    assert_eq!(pat.search(&eg).len(), 4);
}

#[test]
fn pattern_matching_through_unions() {
    // After a union, a pattern must match via either representative.
    let mut eg = EGraph::<()>::default();
    let fa = eg.add_expr(&expr("(f a)"));
    let b = eg.add_expr(&expr("b"));
    eg.union(fa, b);
    eg.rebuild();
    let pat: Pattern = "(g (f ?x))".parse().unwrap();
    let gb = eg.add_expr(&expr("(g b)"));
    // (g b) contains (g [class of f a]) by congruence of the union.
    let matches = pat.search(&eg);
    assert_eq!(matches.len(), 1);
    assert_eq!(eg.find(matches[0].eclass), eg.find(gb));
}

#[test]
fn rewrite_rejects_unbound_rhs_vars() {
    assert!(Rewrite::<()>::parse("bad", "(f ?x)", "(g ?y)").is_err());
    assert!(Rewrite::<()>::parse("ok", "(f ?x)", "(g ?x)").is_ok());
}

#[test]
fn runner_respects_time_limit() {
    let rw: Rewrite<()> = Rewrite::parse("explode", "(f ?x)", "(f (g ?x))").unwrap();
    let mut eg = EGraph::<()>::default();
    eg.add_expr(&expr("(f a)"));
    let mut runner = Runner::new(eg)
        .with_node_limit(usize::MAX)
        .with_iter_limit(usize::MAX)
        .with_time_limit(std::time::Duration::from_millis(50));
    let report = runner.run(&[rw]);
    assert_eq!(report.stop_reason, StopReason::TimeLimit);
}

#[test]
fn extractor_prefers_cheap_scalar_free_size() {
    // AstSize ignores scalar attribute leaves: (slice x 0 0 4) costs 2.
    let mut eg = EGraph::<()>::default();
    let id = eg.add_expr(&expr("(slice x 0 0 4)"));
    let ex = Extractor::new(&eg, AstSize);
    assert_eq!(ex.best_cost(id), Some(2.0));
}

#[test]
fn sym_scalar_nodes_roundtrip() {
    use entangle_symbolic::SymExpr;
    let mut eg = EGraph::<()>::default();
    let mut ctx = entangle_symbolic::SymCtx::new();
    let n = ctx.var("n");
    let s1 = eg.add(ENode::Sym(n.clone()));
    let s2 = eg.add(ENode::Sym(n.clone()));
    // Structurally identical symbolic scalars hash-cons together.
    assert_eq!(s1, s2);
    let other = eg.add(ENode::Sym(n + SymExpr::constant(1)));
    assert_ne!(s1, other);
}

mod analysis_tests {
    use super::*;

    /// A constant-folding analysis over an `add/mul/Int` toy language.
    #[derive(Default)]
    struct ConstFold;

    impl Analysis for ConstFold {
        type Data = Option<i64>;

        fn make(egraph: &EGraph<Self>, enode: &ENode) -> Option<i64> {
            match enode {
                ENode::Int(i) => Some(*i),
                ENode::Op(sym, ch) if ch.len() == 2 => {
                    let a = *egraph[ch[0]].data.as_ref()?;
                    let b = *egraph[ch[1]].data.as_ref()?;
                    match sym.as_str() {
                        "add" => Some(a + b),
                        "mul" => Some(a * b),
                        _ => None,
                    }
                }
                _ => None,
            }
        }

        fn merge(a: &mut Option<i64>, b: Option<i64>) -> (bool, bool) {
            match (&a, b) {
                (None, Some(v)) => {
                    *a = Some(v);
                    (true, false)
                }
                (Some(x), Some(y)) => {
                    assert_eq!(*x, y, "constant-folding merge conflict");
                    (false, false)
                }
                (_, None) => (false, true),
            }
        }

        fn modify(egraph: &mut EGraph<Self>, id: Id) {
            if let Some(v) = *egraph.data_mut(id) {
                let c = egraph.add(ENode::Int(v));
                egraph.union(id, c);
            }
        }
    }

    #[test]
    fn const_fold_analysis() {
        let mut eg = EGraph::<ConstFold>::default();
        let id = eg.add_expr(&"(add (mul 3 4) 5)".parse().unwrap());
        eg.rebuild();
        assert_eq!(eg[id].data, Some(17));
        // The folded constant node is unioned in by `modify`.
        let seventeen = eg.lookup(&ENode::Int(17)).unwrap();
        assert_eq!(eg.find(seventeen), eg.find(id));
    }

    #[test]
    fn analysis_data_propagates_through_unions() {
        let mut eg = EGraph::<ConstFold>::default();
        let x = eg.add(ENode::leaf("x"));
        let expr_id = eg.add_expr(&"(add x 1)".parse().unwrap());
        assert_eq!(eg[expr_id].data, None);
        // Learn that x == 41.
        let c = eg.add(ENode::Int(41));
        eg.union(x, c);
        eg.rebuild();
        assert_eq!(eg[expr_id].data, Some(42));
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random sequences of adds and unions keep the e-graph congruent.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
        proptest::collection::vec((0u8..4, 0u8..8, 0u8..8), 1..40)
    }

    proptest! {
        #[test]
        fn random_unions_maintain_congruence(ops in arb_ops()) {
            let mut eg = EGraph::<()>::default();
            let mut ids: Vec<Id> = (0..4).map(|i| eg.add(ENode::leaf(&format!("l{i}")))).collect();
            for (kind, a, b) in ops {
                let x = ids[a as usize % ids.len()];
                let y = ids[b as usize % ids.len()];
                match kind {
                    0 => ids.push(eg.add(ENode::op("f", vec![x]))),
                    1 => ids.push(eg.add(ENode::op("g", vec![x, y]))),
                    2 => {
                        eg.union(x, y);
                        eg.rebuild();
                    }
                    _ => ids.push(eg.add(ENode::op("h", vec![y]))),
                }
            }
            eg.rebuild();
            // Congruence invariant: identical canonical nodes are in the
            // same class.
            let mut seen: std::collections::HashMap<ENode, Id> = Default::default();
            for class in eg.classes() {
                for node in &class.nodes {
                    let canon = node.map_children(|c| eg.find(c));
                    if let Some(prev) = seen.insert(canon, eg.find(class.id)) {
                        prop_assert_eq!(prev, eg.find(class.id));
                    }
                }
            }
        }

        #[test]
        fn extraction_cost_is_optimal_for_trees(depth in 1usize..5) {
            // Build a perfect binary tree, union the root with a single leaf,
            // and check extraction returns cost 1.
            let mut eg = EGraph::<()>::default();
            let mut layer: Vec<Id> = (0..(1 << depth))
                .map(|i| eg.add(ENode::leaf(&format!("t{i}"))))
                .collect();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|p| eg.add(ENode::op("add", vec![p[0], p[1]])))
                    .collect();
            }
            let root = layer[0];
            let cheap = eg.add(ENode::leaf("cheap"));
            eg.union(root, cheap);
            eg.rebuild();
            let ex = Extractor::new(&eg, AstSize);
            let (cost, best) = ex.find_best(root).unwrap();
            prop_assert_eq!(cost, 1.0);
            prop_assert_eq!(best.to_string(), "cheap");
        }
    }
}

mod explain_tests {
    use super::*;

    #[test]
    fn explain_returns_rule_chain() {
        let rules: Vec<Rewrite<()>> = vec![
            Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap(),
            Rewrite::parse("mul-one", "(mul ?x 1)", "?x").unwrap(),
        ];
        let mut eg = EGraph::<()>::default();
        let l = eg.add_expr(&expr("(mul (add y 0) 1)"));
        let r = eg.add_expr(&expr("y"));
        assert_eq!(eg.explain(l, r), None, "not yet proven");
        let mut runner = Runner::new(eg);
        runner.run(&rules);
        let reasons = runner.egraph.explain(l, r).expect("proven");
        assert!(!reasons.is_empty());
        assert!(reasons
            .iter()
            .all(|r| matches!(r, Justification::Rule { .. } | Justification::Congruence)));
        assert!(reasons
            .iter()
            .any(|r| matches!(r, Justification::Rule { name, .. } if name == "mul-one")));
    }

    #[test]
    fn term_of_is_faithful_to_caller_terms() {
        let mut eg = EGraph::<()>::default();
        let l = eg.add_expr(&expr("(add q 0)"));
        assert_eq!(eg.term_of(l).to_string(), "(add q 0)");
        let rules: Vec<Rewrite<()>> = vec![Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap()];
        let mut runner = Runner::new(eg);
        runner.run(&rules);
        // Even after `q` joined the class, the id renders the literal term
        // it was created with, not a class representative.
        assert_eq!(runner.egraph.term_of(l).to_string(), "(add q 0)");
    }

    /// Asserts the proof is a connected chain and returns its endpoints.
    fn chain_endpoints(proof: &Proof) -> (RecExpr, RecExpr) {
        assert!(!proof.is_empty());
        for w in proof.steps.windows(2) {
            assert_eq!(w[0].after(), w[1].before(), "steps must chain");
        }
        for step in &proof.steps {
            if let ProofStep::Congruence { children, .. } = step {
                for child in children {
                    if !child.is_empty() {
                        chain_endpoints(child);
                    }
                }
            }
        }
        (
            proof.steps.first().unwrap().before().clone(),
            proof.steps.last().unwrap().after().clone(),
        )
    }

    #[test]
    fn explain_equivalence_chains_terms() {
        let rules: Vec<Rewrite<()>> = vec![
            Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap(),
            Rewrite::parse("mul-one", "(mul ?x 1)", "?x").unwrap(),
        ];
        let mut eg = EGraph::<()>::default();
        let l = eg.add_expr(&expr("(mul (add y 0) 1)"));
        let r = eg.add_expr(&expr("y"));
        assert!(eg.explain_equivalence(l, r).is_none(), "not yet proven");
        let mut runner = Runner::new(eg);
        runner.run(&rules);
        let eg = &runner.egraph;
        let proof = eg.explain_equivalence(l, r).expect("proven");
        let (start, end) = chain_endpoints(&proof);
        assert_eq!(start, eg.term_of(l));
        assert_eq!(end, eg.term_of(r));
        assert!(proof
            .steps
            .iter()
            .any(|s| matches!(s, ProofStep::Rule { name, .. } if name == "mul-one")));
    }

    #[test]
    fn explain_equivalence_congruence_carries_child_proofs() {
        let rules: Vec<Rewrite<()>> = vec![Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap()];
        let mut eg = EGraph::<()>::default();
        let l = eg.add_expr(&expr("(f (add y 0))"));
        let r = eg.add_expr(&expr("(f y)"));
        let mut runner = Runner::new(eg);
        runner.run(&rules);
        let eg = &runner.egraph;
        let proof = eg.explain_equivalence(l, r).expect("congruent");
        let (start, end) = chain_endpoints(&proof);
        assert_eq!(start, eg.term_of(l));
        assert_eq!(end, eg.term_of(r));
        // Somewhere in the chain a congruence step must justify the
        // argument rewrite with a nested add-zero proof.
        fn has_rule(proof: &Proof, rule: &str) -> bool {
            proof.steps.iter().any(|s| match s {
                ProofStep::Rule { name, .. } => name == rule,
                ProofStep::Congruence { children, .. } => {
                    children.iter().any(|c| has_rule(c, rule))
                }
                _ => false,
            })
        }
        assert!(has_rule(&proof, "add-zero"), "{proof}");
    }

    #[test]
    fn explain_equivalence_records_substitutions() {
        let rules: Vec<Rewrite<()>> =
            vec![Rewrite::parse("add-comm", "(add ?a ?b)", "(add ?b ?a)").unwrap()];
        let mut eg = EGraph::<()>::default();
        let l = eg.add_expr(&expr("(add u v)"));
        let r = eg.add_expr(&expr("(add v u)"));
        let mut runner = Runner::new(eg);
        runner.run(&rules);
        let proof = runner.egraph.explain_equivalence(l, r).expect("proven");
        let step = proof
            .steps
            .iter()
            .find_map(|s| match s {
                ProofStep::Rule { name, subst, .. } if name == "add-comm" => Some(subst),
                _ => None,
            })
            .expect("rule step present");
        let mut bound: Vec<(&str, String)> = step
            .iter()
            .map(|(v, t)| (v.as_str(), t.to_string()))
            .collect();
        bound.sort();
        assert!(
            bound == [("a", "u".to_owned()), ("b", "v".to_owned())]
                || bound == [("a", "v".to_owned()), ("b", "u".to_owned())]
        );
    }

    #[test]
    fn explain_includes_congruence_steps() {
        let mut eg = EGraph::<()>::default();
        let x = eg.add(ENode::leaf("x"));
        let y = eg.add(ENode::leaf("y"));
        let fx = eg.add(ENode::op("f", vec![x]));
        let fy = eg.add(ENode::op("f", vec![y]));
        eg.union_with(x, y, Justification::Given("axiom x=y".to_owned()));
        eg.rebuild();
        let reasons = eg.explain(fx, fy).expect("congruent");
        assert!(reasons.contains(&Justification::Congruence), "{reasons:?}");
    }

    #[test]
    fn explain_identity_is_empty() {
        let mut eg = EGraph::<()>::default();
        let x = eg.add(ENode::leaf("x"));
        assert_eq!(eg.explain(x, x), Some(vec![]));
    }

    #[test]
    fn explain_carries_given_facts() {
        let mut eg = EGraph::<()>::default();
        let a = eg.add(ENode::leaf("a"));
        let b = eg.add(ENode::leaf("b"));
        let c = eg.add(ENode::leaf("c"));
        eg.union_with(a, b, Justification::Given("def b".to_owned()));
        eg.union_with(b, c, Justification::Given("def c".to_owned()));
        eg.rebuild();
        let reasons = eg.explain(a, c).unwrap();
        assert_eq!(
            reasons,
            vec![
                Justification::Given("def b".to_owned()),
                Justification::Given("def c".to_owned())
            ]
        );
    }

    #[test]
    fn explain_survives_many_unions() {
        // Chains through re-rooted trees stay connected and acyclic.
        let mut eg = EGraph::<()>::default();
        let ids: Vec<Id> = (0..20)
            .map(|i| eg.add(ENode::leaf(&format!("n{i}"))))
            .collect();
        // Union in a scattered order.
        for (i, j) in [(0, 5), (7, 3), (5, 7), (10, 0), (12, 10), (19, 12), (3, 19)] {
            eg.union_with(ids[i], ids[j], Justification::Given(format!("{i}-{j}")));
        }
        eg.rebuild();
        for (i, j) in [(0usize, 19usize), (5, 12), (7, 10)] {
            let r = eg.explain(ids[i], ids[j]).expect("same tree");
            assert!(!r.is_empty());
        }
        assert_eq!(eg.explain(ids[0], ids[1]), None);
    }
}

mod backoff_tests {
    use super::expr;
    use crate::*;

    fn comm_assoc() -> Vec<Rewrite<()>> {
        vec![
            Rewrite::parse("comm", "(add ?a ?b)", "(add ?b ?a)").unwrap(),
            Rewrite::parse("assoc", "(add (add ?a ?b) ?c)", "(add ?a (add ?b ?c))").unwrap(),
        ]
    }

    fn run(schedule: Option<BackoffSchedule>) -> (Runner<()>, RunReport) {
        let mut eg = EGraph::<()>::default();
        eg.add_expr(&expr("(add (add a b) (add c d))"));
        eg.add_expr(&expr("(add (add d c) (add b a))"));
        let mut runner = Runner::new(eg)
            .with_iter_limit(64)
            .with_node_limit(100_000)
            .with_backoff(schedule);
        let report = runner.run(&comm_assoc());
        (runner, report)
    }

    /// The verdict contract: a throttled run only reports `Saturated`
    /// after a full iteration with every rule active and no union, so the
    /// final e-graph is closed under the whole rule set — identical to
    /// the unthrottled fixpoint.
    #[test]
    fn throttled_saturation_reaches_the_unthrottled_fixpoint() {
        let (base, base_report) = run(None);
        // An aggressive schedule: everything throttled, one match allowed.
        let schedule = BackoffSchedule::new(["comm".to_owned(), "assoc".to_owned()])
            .with_match_budget(1)
            .with_ban_length(1);
        let (throttled, report) = run(Some(schedule));

        assert_eq!(base_report.stop_reason, StopReason::Saturated);
        assert_eq!(report.stop_reason, StopReason::Saturated);
        assert_eq!(base.egraph.total_nodes(), throttled.egraph.total_nodes());
        assert_eq!(
            base.egraph.classes().count(),
            throttled.egraph.classes().count()
        );
        for (l, r) in [
            ("(add (add a b) (add c d))", "(add (add d c) (add b a))"),
            ("(add a b)", "(add b a)"),
        ] {
            let eg = &throttled.egraph;
            let (l, r) = (
                eg.lookup_expr(&expr(l)).expect("lhs present"),
                eg.lookup_expr(&expr(r)).expect("rhs present"),
            );
            assert_eq!(eg.find(l), eg.find(r));
        }
    }

    /// Bans actually skip search: the throttled run searches strictly
    /// fewer substitutions than the unthrottled one, while still reaching
    /// saturation (the previous test pins the fixpoint).
    #[test]
    fn bans_skip_search() {
        let (_, base) = run(None);
        let schedule = BackoffSchedule::new(["comm".to_owned()])
            .with_match_budget(1)
            .with_ban_length(2);
        let (_, throttled) = run(Some(schedule));
        assert!(
            throttled.saturation.rules["comm"].matches < base.saturation.rules["comm"].matches,
            "banned iterations must not search ({} vs {})",
            throttled.saturation.rules["comm"].matches,
            base.saturation.rules["comm"].matches,
        );
        // The throttled run needs extra iterations (bans defer work and a
        // final full-activity pass confirms saturation).
        assert!(throttled.iterations >= base.iterations);
    }

    /// A quiet iteration under bans never reaches the goal: the bans are
    /// lifted and the next iteration, every rule active, decides. Here the
    /// only rule is banned after iteration 1, iteration 2 is quiet, and
    /// iteration 3 saturates; a goal of "no new e-node since the last
    /// call" would have held trivially after iteration 2.
    #[test]
    fn a_quiet_iteration_under_bans_never_reaches_the_goal() {
        let rules = vec![Rewrite::parse("comm", "(add ?a ?b)", "(add ?b ?a)").unwrap()];
        let matcher = CompiledMatcher::compile(&rules);
        let mut eg = EGraph::<()>::default();
        eg.add_expr(&expr("(add a b)"));
        eg.add_expr(&expr("(add c d)"));
        let schedule = BackoffSchedule::new(["comm".to_owned()])
            .with_match_budget(1)
            .with_ban_length(4);
        let mut runner = Runner::new(eg).with_backoff(Some(schedule));
        let (mut calls, mut last) = (0, None);
        let report = runner.run_until(&rules, &matcher, |eg| {
            calls += 1;
            let now = eg.total_nodes();
            last.replace(now) == Some(now)
        });
        assert_eq!(report.stop_reason, StopReason::Saturated);
        assert_eq!(report.iterations, 3);
        assert_eq!(calls, 1, "only iteration 1 changed the e-graph");
    }

    /// Rules outside the schedule are never throttled, whatever their
    /// match volume.
    #[test]
    fn schedule_membership_is_exact() {
        let schedule = BackoffSchedule::new(["comm".to_owned()]);
        assert!(schedule.is_throttled("comm"));
        assert!(!schedule.is_throttled("assoc"));
        assert_eq!(schedule.len(), 1);
        assert!(!schedule.is_empty());
        assert!(BackoffSchedule::default().is_empty());
    }
}

mod shared_matcher {
    use super::*;

    /// Identity rewrites let us drive the full `Rewrite` search surface
    /// from bare patterns.
    fn idr(name: &str, lhs: &str) -> Rewrite<()> {
        Rewrite::parse(name, lhs, lhs).expect("valid identity rewrite")
    }

    /// A graph with shared operator structure, unions (so canonical ids
    /// diverge from minted ids), repeated subterms, and integer literals.
    fn rich_graph() -> EGraph<()> {
        let mut eg = EGraph::<()>::default();
        for s in [
            "(matmul (concat A1 A2 1) (concat B1 B2 0))",
            "(add (matmul A1 B1) (matmul A2 B2))",
            "(add (add a b) (add c d))",
            "(add x x)",
            "(mul x y)",
            "(mul x x)",
            "(slice (concat t1 t2 1) 1 0 4)",
            "(relu (relu z))",
            "(concat q r)",
        ] {
            eg.add_expr(&s.parse::<RecExpr>().expect("valid expr"));
        }
        let l = eg.add_expr(&"(add a b)".parse::<RecExpr>().expect("valid expr"));
        let r = eg.add_expr(&"(add b a)".parse::<RecExpr>().expect("valid expr"));
        eg.union(l, r);
        eg.rebuild();
        eg
    }

    /// A corpus exercising every token kind and sharing shape: common
    /// prefixes, renaming-equivalent patterns, repeated variables, int
    /// literals, same symbol at different arities, a nullary leaf op, and
    /// a bare-variable pattern (the legacy fallback path).
    fn corpus() -> Vec<Rewrite<()>> {
        vec![
            idr("mm-concat", "(matmul (concat ?a ?b 1) (concat ?c ?d 0))"),
            idr("mm-concat2", "(matmul (concat ?x ?y 1) ?z)"),
            idr("add-comm", "(add ?a ?b)"),
            idr("add-renamed", "(add ?x ?y)"),
            idr("add-same", "(add ?a ?a)"),
            idr("mul-same", "(mul ?a ?a)"),
            idr("slice-lit", "(slice (concat ?a ?b 1) 1 ?lo ?hi)"),
            idr("relu-nest", "(relu (relu ?x))"),
            idr("concat-2", "(concat ?a ?b)"),
            idr("concat-3", "(concat ?a ?b ?c)"),
            idr("leaf-a1", "(matmul A1 ?b)"),
            idr("absent-op", "(softmax (relu ?x))"),
            idr("any", "?x"),
            idr("int-root", "1"),
        ]
    }

    /// Asserts the compiled matcher reproduces the reference searcher
    /// *exactly* — same matches in the same order with equal
    /// substitutions, and the same visited/skipped accounting.
    fn assert_identical(eg: &EGraph<()>, rws: &[Rewrite<()>], active: &[bool]) {
        let m = CompiledMatcher::compile(rws);
        let mut shared = SharedSearch::default();
        m.search_all(eg, active, &mut shared);
        let mut visited = 0u64;
        let mut skipped = 0u64;
        let mut yields = 0u64;
        for (i, rw) in rws.iter().enumerate() {
            if !active[i] {
                assert!(shared.matches[i].is_empty(), "banned rule must not yield");
                continue;
            }
            let (reference, v, s) = rw.search_with_stats(eg);
            visited += v;
            skipped += s;
            let compiled: Vec<(Id, Vec<Subst>)> = shared.matches[i]
                .classes()
                .map(|(class, yields)| {
                    let substs = yields
                        .map(|ids| {
                            let mut s = Subst::new();
                            s.refill(m.vars(i), ids);
                            s
                        })
                        .collect();
                    (class, substs)
                })
                .collect();
            let reference: Vec<(Id, Vec<Subst>)> = reference
                .into_iter()
                .map(|r| (r.eclass, r.substs))
                .collect();
            assert_eq!(reference, compiled, "matches differ for {}", rw.name());
            yields += shared.matches[i].len() as u64;
        }
        assert_eq!(shared.visited, visited, "visited accounting differs");
        assert_eq!(shared.skipped, skipped, "skipped accounting differs");
        assert_eq!(shared.yields, yields, "yield accounting differs");
    }

    /// Searching twice into one [`SharedSearch`] gives what a fresh one
    /// gives: the buffers are cleared, not accumulated.
    #[test]
    fn reused_search_buffers_are_cleared() {
        let eg = rich_graph();
        let rws = corpus();
        let m = CompiledMatcher::compile(&rws);
        let active = vec![true; rws.len()];
        let mut fresh = SharedSearch::default();
        m.search_all(&eg, &active, &mut fresh);
        let mut reused = SharedSearch::default();
        m.search_all(&eg, &vec![false; rws.len()], &mut reused);
        m.search_all(&eg, &active, &mut reused);
        m.search_all(&eg, &active, &mut reused);
        assert_eq!(
            (fresh.visited, fresh.skipped, fresh.candidates, fresh.yields),
            (
                reused.visited,
                reused.skipped,
                reused.candidates,
                reused.yields
            )
        );
        for (f, r) in fresh.matches.iter().zip(&reused.matches) {
            assert!(f.iter().eq(r.iter()));
        }
    }

    #[test]
    fn differential_oracle_all_rules_active() {
        let rws = corpus();
        assert_identical(&rich_graph(), &rws, &vec![true; rws.len()]);
    }

    #[test]
    fn differential_oracle_under_bans() {
        let rws = corpus();
        // Ban every other rule; the rest must still match exactly.
        let active: Vec<bool> = (0..rws.len()).map(|i| i % 2 == 0).collect();
        assert_identical(&rich_graph(), &rws, &active);
    }

    #[test]
    fn renaming_equivalent_patterns_share_trie_paths() {
        let shared = CompiledMatcher::compile(&[idr("a", "(add ?a ?b)"), idr("b", "(add ?x ?y)")]);
        // Op(add,2) → Var(0) → Var(1): both rules live on one 3-node path.
        assert_eq!(shared.trie_nodes(), 3);
        let diverging =
            CompiledMatcher::compile(&[idr("a", "(add ?a ?b)"), idr("b", "(add ?x ?x)")]);
        // The repeated-variable pattern forks at the second token.
        assert_eq!(diverging.trie_nodes(), 4);
    }

    #[test]
    fn repeated_variable_short_circuits() {
        let eg = rich_graph();
        let rws = vec![idr("mul-same", "(mul ?a ?a)")];
        let m = CompiledMatcher::compile(&rws);
        let mut shared = SharedSearch::default();
        m.search_all(&eg, &[true], &mut shared);
        // (mul x x) matches, (mul x y) must not.
        assert_eq!(shared.matches[0].classes().count(), 1);
        assert_eq!(shared.matches[0].len(), 1);
    }

    #[test]
    fn banned_rules_prune_candidate_work() {
        let eg = rich_graph();
        let rws = vec![idr("deep", "(matmul (concat ?a ?b 1) (concat ?c ?d 0))")];
        let m = CompiledMatcher::compile(&rws);
        let mut full = SharedSearch::default();
        m.search_all(&eg, &[true], &mut full);
        let mut banned = SharedSearch::default();
        m.search_all(&eg, &[false], &mut banned);
        assert!(full.candidates > 0);
        assert_eq!(banned.candidates, 0, "banned subtrees must be pruned");
        assert_eq!(banned.yields, 0);
    }
}
