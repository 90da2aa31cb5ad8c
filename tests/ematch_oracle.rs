//! The differential matcher oracle, at zoo scale: the compiled
//! discrimination-tree matcher the runner searches with and the per-rule
//! reference searcher (`Pattern::search_with_stats`) are the same search.
//!
//! For every lemma in the registry, reference and compiled search over
//! e-graphs built (and saturated) from each zoo workload's graphs yield
//! *identical* matches — same classes in the same order with equal
//! substitutions, and the same visited/skipped accounting. Equal match
//! sets in equal order make every downstream apply, union and verdict
//! equal by construction.
//!
//! And the matcher is a function of the corpus alone: a saturation run
//! handed one matcher compiled up front (`Runner::run_with`, what a check
//! does) reports what a run that compiles its own (`Runner::run`) reports.

use entangle_bench::zoo;
use entangle_egraph::{CompiledMatcher, EGraph, RunReport, Runner};
use entangle_ir::Graph;
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};

/// A runner over an e-graph loaded with every node of `g`.
fn loaded_runner(g: &Graph) -> Runner<TensorAnalysis> {
    let mut analysis = TensorAnalysis::default();
    for t in g.tensors() {
        analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
    }
    let mut eg = EGraph::with_analysis(analysis);
    for n in g.nodes() {
        entangle::encode_node(&mut eg, g, n);
    }
    eg.rebuild();
    Runner::new(eg).with_iter_limit(3).with_node_limit(20_000)
}

/// `g`'s e-graph grown by a short saturation run, giving the matchers a
/// realistic mid-check graph: merged classes, alias ids, rewrite-produced
/// terms.
fn saturated_egraph(g: &Graph) -> EGraph<TensorAnalysis> {
    let mut runner = loaded_runner(g);
    runner.run(&rewrites_of(&registry()));
    runner.egraph
}

#[test]
fn registry_match_sets_identical_on_zoo_egraphs() {
    let rewrites = rewrites_of(&registry());
    let matcher = CompiledMatcher::compile(&rewrites);
    let active = vec![true; rewrites.len()];
    for case in zoo() {
        for g in [&case.gs, &case.dist.graph] {
            let eg = saturated_egraph(g);
            let shared = matcher.search_all(&eg, &rewrites, &active);
            let mut visited = 0u64;
            let mut skipped = 0u64;
            for (i, rw) in rewrites.iter().enumerate() {
                let (legacy, v, s) = rw.search_with_stats(&eg);
                visited += v;
                skipped += s;
                assert_eq!(
                    legacy.len(),
                    shared.matches[i].len(),
                    "{} / {}: matched-class count differs for lemma {}",
                    case.name,
                    g.name(),
                    rw.name()
                );
                for (l, c) in legacy.iter().zip(&shared.matches[i]) {
                    assert_eq!(
                        l.eclass,
                        c.eclass,
                        "{} / {}: class order differs for lemma {}",
                        case.name,
                        g.name(),
                        rw.name()
                    );
                    assert_eq!(
                        l.substs,
                        c.substs,
                        "{} / {}: substitutions differ for lemma {} in class {}",
                        case.name,
                        g.name(),
                        rw.name(),
                        l.eclass
                    );
                }
            }
            assert_eq!(
                shared.visited,
                visited,
                "{} / {}: visited accounting differs",
                case.name,
                g.name()
            );
            assert_eq!(
                shared.skipped,
                skipped,
                "{} / {}: skipped accounting differs",
                case.name,
                g.name()
            );
        }
    }
}

/// Everything of a [`RunReport`] that is a count, not a clock.
fn counts(report: &RunReport) -> String {
    let mut rules: Vec<_> = report.saturation.rules.iter().collect();
    rules.sort_by_key(|(name, _)| name.as_str());
    let rules: Vec<_> = rules
        .iter()
        .map(|(name, r)| (name.as_str(), r.matches, r.applications))
        .collect();
    let iterations: Vec<_> = report
        .saturation
        .iterations
        .iter()
        .map(|i| (i.nodes, i.classes, i.memo, i.unions))
        .collect();
    format!(
        "{:?} {} {} {} {} {} {} {} {} {} {iterations:?} {rules:?}",
        report.stop_reason,
        report.iterations,
        report.egraph_nodes,
        report.egraph_classes,
        report.bans,
        report.ematch_candidates,
        report.ematch_yields,
        report.trie_nodes,
        report.saturation.searched_classes,
        report.saturation.skipped_classes,
    )
}

#[test]
fn shared_matcher_runs_report_the_counts_of_self_compiled_runs() {
    let rewrites = rewrites_of(&registry());
    // One matcher for every run of the test, as one serves every run of a
    // check.
    let matcher = CompiledMatcher::compile(&rewrites);
    for case in zoo() {
        for g in [&case.gs, &case.dist.graph] {
            let own = loaded_runner(g).run(&rewrites);
            let shared = loaded_runner(g).run_with(&rewrites, &matcher);
            assert_eq!(
                counts(&own),
                counts(&shared),
                "{} / {}",
                case.name,
                g.name()
            );
        }
    }
}
