use entangle_lemmas::registry;

use crate::{analyze, backoff_schedule, classify, codes, GrowthClass};

fn corpus() -> Vec<entangle_egraph::Rewrite<entangle_lemmas::TensorAnalysis>> {
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

/// The schedule memo is keyed by rule bodies, not names: a corpus that
/// keeps a driver's name and swaps its body for an inert one (what the
/// `ablations` bin does with `add-assoc`, what any `CheckOptions.rewrites`
/// override may do) gets its own schedule, whichever of the two is derived
/// first. The memo is process-wide, so the second call order needs a
/// second pair of corpora; an inert extra rule makes one.
#[test]
fn schedule_memo_tells_same_named_corpora_apart() {
    let parse = |name: &str, lhs: &str, rhs: &str| {
        entangle_egraph::Rewrite::parse(name, lhs, rhs).expect("test rule parses")
    };
    let pair = |extra: Option<&str>| {
        let mut shipped = corpus();
        shipped.extend(extra.map(|name| parse(name, "(sin (cos ?x))", "(cos ?x)")));
        let mut defused = shipped.clone();
        for rw in &mut defused {
            if rw.name() == "scalar_mul-distribute" {
                *rw = parse(rw.name(), "(cos (sin ?x))", "(sin ?x)");
            }
        }
        (shipped, defused)
    };
    let agrees = |rewrites: &[entangle_egraph::Rewrite<entangle_lemmas::TensorAnalysis>]| {
        let fresh = analyze(rewrites).throttled;
        let schedule = backoff_schedule(rewrites);
        assert_eq!(schedule.as_ref().map_or(0, |s| s.len()), fresh.len());
        for name in &fresh {
            assert!(
                schedule.as_ref().is_some_and(|s| s.is_throttled(name)),
                "{name} is throttled by a fresh analysis, not by the memoized schedule"
            );
        }
        fresh
    };
    let (shipped, defused) = pair(None);
    assert_ne!(agrees(&shipped), agrees(&defused));
    let (shipped, defused) = pair(Some("schedule-memo-test-pad"));
    assert_ne!(agrees(&defused), agrees(&shipped));
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
    let parse = |name: &str, lhs: &str, rhs: &str| {
        entangle_egraph::Rewrite::parse(name, lhs, rhs).expect("test rule parses")
    };
    let findings = |rewrites: &[entangle_egraph::Rewrite<entangle_lemmas::TensorAnalysis>]| {
        let analysis = analyze(rewrites);
        let rendered = analysis.report.diagnostics.iter().map(|d| d.render(None));
        rendered.collect::<Vec<String>>()
    };
    let shipped = findings(&corpus());

    let mut double_negation = corpus();
    double_negation.push(parse("neg-neg", "(neg (neg ?x))", "?x"));
    assert_eq!(findings(&double_negation), shipped);

    // What `ablations` does: the constrained association, freed.
    let mut free_assoc = corpus();
    for rw in &mut free_assoc {
        if rw.name() == "add-assoc" {
            *rw = parse("add-assoc", "(add (add ?a ?b) ?c)", "(add ?a (add ?b ?c))");
        }
    }
    assert_eq!(findings(&free_assoc), shipped);
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
