use entangle_lemmas::registry;

use crate::interact::interaction_edges_all_pairs;
use crate::{
    analyze, backoff_schedule, backoff_schedule_counted, classify, codes, interaction_graph,
    GrowthClass,
};

type Rw = entangle_egraph::Rewrite<entangle_lemmas::TensorAnalysis>;

fn corpus() -> Vec<Rw> {
    registry().into_iter().map(|l| l.rewrite).collect()
}

#[test]
fn classification_anchors() {
    let rewrites = corpus();
    let by_name = |name: &str| {
        let rw = rewrites
            .iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("{name} not in corpus"));
        classify(rw)
    };
    // The measured blowup driver duplicates its scalar attributes.
    let distribute = by_name("scalar_mul-distribute");
    assert_eq!(distribute.class, GrowthClass::Generative);
    assert!(distribute.duplicating && !distribute.conditioned);
    // Its inverse erases the duplication: strictly simplifying.
    let factor = by_name("scalar_mul-factor");
    assert_eq!(factor.class, GrowthClass::Simplifying);
    assert!(!factor.expanding);
    // The hinted gcd-folding applier mints fresh scalars but does not
    // duplicate — generative member, never a driver.
    let compose = by_name("scalar_mul-compose");
    assert_eq!(compose.class, GrowthClass::Generative);
    assert!(compose.expanding && !compose.duplicating);
    assert!(compose.dynamic && !compose.opaque);
}

#[test]
fn distribute_compose_cycle_is_flagged() {
    let rewrites = corpus();
    let analysis = analyze(&rewrites);
    let cycle = analysis
        .cycles
        .iter()
        .find(|cy| {
            cy.members
                .iter()
                .any(|&i| analysis.classes[i].name == "scalar_mul-distribute")
        })
        .expect("the distribute cycle must be found statically");
    let member_names: Vec<&str> = cycle
        .members
        .iter()
        .map(|&i| analysis.classes[i].name.as_str())
        .collect();
    assert!(
        member_names.contains(&"scalar_mul-compose"),
        "distribute and compose must land in one cycle, got {member_names:?}"
    );
    assert!(cycle
        .drivers
        .iter()
        .any(|&i| analysis.classes[i].name == "scalar_mul-distribute"));
    // And it surfaces as an RL02 diagnostic naming the driver.
    let rl02 =
        analysis.report.diagnostics.iter().find(|d| {
            d.code == codes::GENERATIVE_CYCLE && d.message.contains("scalar_mul-distribute")
        });
    assert!(rl02.is_some(), "RL02 must name the distribute driver");
}

#[test]
fn throttle_set_spares_simplifying_rules() {
    let rewrites = corpus();
    let analysis = analyze(&rewrites);
    assert!(
        analysis
            .throttled
            .iter()
            .any(|n| n == "scalar_mul-distribute"),
        "the blowup driver must be throttled"
    );
    // Only the duplicating drivers are throttled: simplifying rules and
    // non-driver cycle members (the folds that contain the drivers'
    // output) must run at full effort.
    for name in ["scalar_mul-factor", "scalar_mul-one", "scalar_mul-compose"] {
        assert!(
            !analysis.throttled.iter().any(|n| n == name),
            "{name} is not a cycle driver and must run unthrottled"
        );
    }
    let schedule = backoff_schedule(&rewrites).expect("corpus has a generative cycle");
    for name in &analysis.throttled {
        assert!(schedule.is_throttled(name));
    }
    assert_eq!(schedule.len(), analysis.throttled.len());
}

/// The schedule reads rule bodies, not names: a corpus that keeps a
/// driver's name and swaps its body for an inert one (what the `ablations`
/// bin does with `add-assoc`, what any `CheckOptions.rewrites` override may
/// do) gets its own schedule — nothing is remembered between derivations.
#[test]
fn schedule_tells_same_named_corpora_apart() {
    let shipped = corpus();
    let mut defused = shipped.clone();
    for rw in &mut defused {
        if rw.name() == "scalar_mul-distribute" {
            *rw = parse(rw.name(), "(cos (sin ?x))", "(sin ?x)");
        }
    }
    let agrees = |rewrites: &[Rw]| {
        let fresh = analyze(rewrites).throttled;
        let schedule = backoff_schedule(rewrites);
        assert_eq!(schedule.as_ref().map_or(0, |s| s.len()), fresh.len());
        for name in &fresh {
            assert!(
                schedule.as_ref().is_some_and(|s| s.is_throttled(name)),
                "{name} is throttled by the full analysis, not by the schedule"
            );
        }
        fresh
    };
    assert_ne!(agrees(&shipped), agrees(&defused));
}

fn parse(name: &str, lhs: &str, rhs: &str) -> Rw {
    entangle_egraph::Rewrite::parse(name, lhs, rhs).expect("test rule parses")
}

/// The two corpora of `subsumption_instantiates_in_one_pass`.
fn double_negation_corpus() -> Vec<Rw> {
    let mut rewrites = corpus();
    rewrites.push(parse("neg-neg", "(neg (neg ?x))", "?x"));
    rewrites
}

fn free_assoc_corpus() -> Vec<Rw> {
    let mut rewrites = corpus();
    for rw in &mut rewrites {
        if rw.name() == "add-assoc" {
            *rw = parse("add-assoc", "(add (add ?a ?b) ?c)", "(add ?a (add ?b ?c))");
        }
    }
    rewrites
}

/// The bucketed graph is the all-pairs graph, edge for edge.
#[test]
fn interaction_graph_equals_the_all_pairs_reference() {
    for rewrites in [corpus(), double_negation_corpus(), free_assoc_corpus()] {
        assert_eq!(
            interaction_graph(&rewrites).edges,
            interaction_edges_all_pairs(&rewrites)
        );
    }
}

/// What the shipped corpus's derivation yields, and what it costs — as a
/// count, which repeats exactly: the all-pairs loop ran ≈ 50 000
/// unifications (each cloning both sides) for the same four names.
#[test]
fn shipped_schedule_is_pinned_and_cheap() {
    let rewrites = corpus();
    let (schedule, unifications) = backoff_schedule_counted(&rewrites);
    let schedule = schedule.expect("corpus has a generative cycle");
    let throttled = [
        "embedding-of-concat-ids",
        "scalar_mul-distribute",
        "scalar_mul-of-concat",
        "sum_dim-of-concat-same",
    ];
    assert_eq!(schedule.len(), throttled.len());
    for name in throttled {
        assert!(schedule.is_throttled(name), "{name} must be throttled");
    }
    assert_eq!(analyze(&rewrites).throttled, throttled);
    assert!(
        unifications <= 3_000,
        "{unifications} full unifications per schedule derivation"
    );
}

#[test]
fn shipped_corpus_has_no_errors() {
    let rewrites = corpus();
    let analysis = analyze(&rewrites);
    // RL01 / RL05 are errors; the shipped corpus must be clean of both —
    // and the structural warnings RL03/RL04 too (warnings we ship are only
    // RL02 cycles and RL06 opaque dynamics, which are factual).
    for d in &analysis.report.diagnostics {
        assert!(
            d.code == codes::GENERATIVE_CYCLE || d.code == codes::OPAQUE_DYNAMIC,
            "unexpected corpus finding: {}",
            d.render(None)
        );
    }
    assert!(analysis.report.is_clean());
}

/// RL04 instantiates one rule's right-hand side with its match onto
/// another's left-hand side, and the two spell their variables alike: a
/// rule over `(neg ?x)` matches `(neg (neg ?x))` with `x ↦ (neg ?x)`,
/// `add-comm` matches a free `add-assoc` with `a ↦ (add ?a ?b)`. Applying
/// such a binding to its own image never ends.
#[test]
fn subsumption_instantiates_in_one_pass() {
    let findings = |rewrites: &[Rw]| {
        let analysis = analyze(rewrites);
        let rendered = analysis.report.diagnostics.iter().map(|d| d.render(None));
        rendered.collect::<Vec<String>>()
    };
    let shipped = findings(&corpus());
    assert_eq!(findings(&double_negation_corpus()), shipped);
    // What `ablations` does: the constrained association, freed.
    assert_eq!(findings(&free_assoc_corpus()), shipped);
}

#[test]
fn json_is_stable_and_complete() {
    let rewrites = corpus();
    let analysis = analyze(&rewrites);
    let a = analysis.to_json();
    let b = analyze(&rewrites).to_json();
    assert_eq!(a, b, "analysis must be deterministic");
    for key in [
        "\"rules\":",
        "\"simplifying\":",
        "\"size_preserving\":",
        "\"generative\":",
        "\"opaque\":",
        "\"classes\":[",
        "\"cycles\":[",
        "\"throttled\":[",
        "\"report\":{",
    ] {
        assert!(a.contains(key), "missing {key} in {a:.120}");
    }
}

mod random_corpora {
    use proptest::prelude::*;

    use super::Rw;
    use crate::interact::interaction_edges_all_pairs;
    use crate::interaction_graph;

    /// Decodes bytes into a pattern over a small vocabulary chosen to
    /// collide: three variables, two integers, and operators that share a
    /// symbol across arities (`f/1`, `f/2`). `root` picks the root kind
    /// outright, so variable- and integer-rooted sides are common.
    fn pattern(bytes: &mut std::slice::Iter<u8>, depth: usize, root: Option<u8>) -> String {
        let b = root.unwrap_or_else(|| bytes.next().copied().unwrap_or(0));
        let leaf = |b: u8| match b % 5 {
            0 => "?a".to_owned(),
            1 => "?b".to_owned(),
            2 => "?c".to_owned(),
            k => (k - 3).to_string(),
        };
        if depth == 0 || b.is_multiple_of(3) {
            return leaf(b / 3);
        }
        let (sym, arity) = [("f", 1), ("f", 2), ("g", 2), ("h", 1)][(b / 3 % 4) as usize];
        let children: Vec<String> = (0..arity)
            .map(|_| pattern(bytes, depth - 1, None))
            .collect();
        format!("({sym} {})", children.join(" "))
    }

    fn corpus(rules: &[(u8, Vec<u8>)]) -> Vec<Rw> {
        rules
            .iter()
            .enumerate()
            .map(|(i, (root, bytes))| {
                let mut bytes = bytes.iter();
                let lhs = pattern(&mut bytes, 3, Some(*root));
                let rhs = pattern(&mut bytes, 3, None);
                // A hinted dynamic rule: its sketch may mint variables.
                entangle_egraph::Rewrite::parse_dyn(&format!("r{i}"), &lhs, |_, _, _| Vec::new())
                    .and_then(|rw| rw.with_rhs_hint(&rhs))
                    .expect("generated patterns parse")
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn bucketed_graph_equals_all_pairs(
            rules in collection::vec((0u8..=255, collection::vec(0u8..=255, 0..24)), 1..10)
        ) {
            let rewrites = corpus(&rules);
            prop_assert_eq!(
                interaction_graph(&rewrites).edges,
                interaction_edges_all_pairs(&rewrites)
            );
        }
    }
}

mod pattern_util {
    use crate::{alpha_eq, match_onto, op_count, substitute, unifiable, var_counts};
    use entangle_egraph::PatternAst;

    fn p(s: &str) -> PatternAst {
        s.parse::<entangle_egraph::Pattern>()
            .expect("pattern parses")
            .ast()
            .clone()
    }

    #[test]
    fn op_count_ignores_leaves() {
        assert_eq!(op_count(&p("?x")), 0);
        assert_eq!(op_count(&p("(add ?x (mul ?y ?z))")), 2);
    }

    #[test]
    fn var_counts_track_multiplicity() {
        let counts = var_counts(&p("(add (scalar_mul ?x ?n ?m) (scalar_mul ?y ?n ?m))"));
        assert_eq!(counts[&"?n".parse().unwrap()], 2);
        assert_eq!(counts[&"?x".parse().unwrap()], 1);
    }

    #[test]
    fn unification_is_syntactic_with_occurs_check() {
        assert!(unifiable(&p("(add ?a ?b)"), &p("(add (mul ?c ?d) ?e)")));
        assert!(!unifiable(&p("(add ?a ?a)"), &p("(add ?b (mul ?b ?c))")));
        assert!(!unifiable(&p("(add ?a ?b)"), &p("(mul ?a ?b)")));
    }

    #[test]
    fn matching_is_one_way() {
        let subst = match_onto(&p("(add ?a ?b)"), &p("(add (mul ?x ?y) ?z)"))
            .expect("general matches specific");
        assert_eq!(
            substitute(&p("(add ?b ?a)"), &subst),
            p("(add ?z (mul ?x ?y))")
        );
        assert!(match_onto(&p("(add ?a 1)"), &p("(add ?x ?y)")).is_none());
    }

    #[test]
    fn alpha_equivalence_is_joint() {
        assert!(alpha_eq(
            &[&p("(add ?a ?b)"), &p("(add ?b ?a)")],
            &[&p("(add ?x ?y)"), &p("(add ?y ?x)")]
        ));
        // Same sides individually, different variable linkage.
        assert!(!alpha_eq(
            &[&p("(add ?a ?b)"), &p("?a")],
            &[&p("(add ?x ?y)"), &p("?y")]
        ));
    }
}
