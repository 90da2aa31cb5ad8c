//! The differential matcher oracle, at zoo scale: the compiled
//! discrimination-tree matcher the runner searches with and the per-rule
//! reference searcher (`Pattern::search_with_stats`) are the same search.
//!
//! For every lemma in the registry — the bare-variable root included —
//! reference and compiled search over e-graphs built (and saturated) from
//! each zoo workload's graphs yield *identical* matches: same classes in
//! the same order with equal substitutions (the compiled side's flat
//! register files read against the rule's variables), and the same
//! visited/skipped/yield accounting. Equal match
//! sets in equal order make every downstream apply, union and verdict
//! equal by construction.
//!
//! And the matcher is a function of the corpus alone: a saturation run
//! handed one matcher compiled up front (`Runner::run_with`, what a check
//! does) reports what a run that compiles its own (`Runner::run`) reports.

use entangle_bench::zoo;
use entangle_egraph::{
    CompiledMatcher, EGraph, Id, PatternAst, RunReport, Runner, SharedSearch, Var,
};
use entangle_ir::Graph;
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};

/// One rule's matches, comparable across both matchers: per matched class,
/// its substitutions as `(variable, class)` bindings in binding order.
type Matches = Vec<(Id, Vec<Vec<(Var, Id)>>)>;

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
    // The registry's bare-variable root (`slices-cover-concat`, `?x`) is
    // compiled like every other rule: it is held to the reference here too.
    assert!(rewrites
        .iter()
        .any(|rw| matches!(rw.searcher().ast(), PatternAst::Var(_))));
    let matcher = CompiledMatcher::compile(&rewrites);
    let active = vec![true; rewrites.len()];
    // One search buffer for every graph, as one serves every iteration of a
    // run: each search must clear what the previous one left.
    let mut shared = SharedSearch::default();
    for case in zoo() {
        for g in [&case.gs, &case.dist.graph] {
            let eg = saturated_egraph(g);
            matcher.search_all(&eg, &active, &mut shared);
            let mut visited = 0u64;
            let mut skipped = 0u64;
            let mut yields = 0u64;
            for (i, rw) in rewrites.iter().enumerate() {
                let (reference, v, s) = rw.search_with_stats(&eg);
                visited += v;
                skipped += s;
                yields += reference.iter().map(|m| m.substs.len() as u64).sum::<u64>();
                // The reference's (class, substitutions) against the
                // compiled (class, register files), each register file read
                // as bindings of the rule's variables in register order.
                let reference: Matches = reference
                    .iter()
                    .map(|m| {
                        (
                            m.eclass,
                            m.substs.iter().map(|s| s.iter().collect()).collect(),
                        )
                    })
                    .collect();
                let vars = matcher.vars(i);
                let compiled: Matches = shared.matches[i]
                    .classes()
                    .map(|(class, regs)| {
                        let substs = regs
                            .map(|ids| vars.iter().copied().zip(ids.iter().copied()).collect())
                            .collect();
                        (class, substs)
                    })
                    .collect();
                assert_eq!(
                    reference,
                    compiled,
                    "{} / {}: matches (classes, order or bindings) differ for lemma {}",
                    case.name,
                    g.name(),
                    rw.name()
                );
            }
            assert_eq!(
                (shared.visited, shared.skipped, shared.yields),
                (visited, skipped, yields),
                "{} / {}: visited/skipped/yield accounting differs",
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
