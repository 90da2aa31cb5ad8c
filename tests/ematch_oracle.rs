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

use entangle_bench::zoo;
use entangle_egraph::{CompiledMatcher, EGraph, Runner};
use entangle_ir::Graph;
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};

/// An e-graph loaded with every node of `g` and grown by a short
/// saturation run, giving the matchers a realistic mid-check graph:
/// merged classes, alias ids, rewrite-produced terms.
fn saturated_egraph(g: &Graph) -> EGraph<TensorAnalysis> {
    let mut analysis = TensorAnalysis::default();
    for t in g.tensors() {
        analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
    }
    let mut eg = EGraph::with_analysis(analysis);
    for n in g.nodes() {
        entangle::encode_node(&mut eg, g, n);
    }
    eg.rebuild();
    let mut runner = Runner::new(eg).with_iter_limit(3).with_node_limit(20_000);
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
