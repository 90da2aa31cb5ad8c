//! The saturation match budget against the live engine: every rule is
//! budgeted alike (`entangle_egraph::DEFAULT_MATCH_BUDGET`), and on raw
//! saturation runs of the MoE operators' problems — no goal, so the
//! generative blowup the checker's own runs stop short of is reached — no
//! rule sustains the application volume that the unbudgeted cycle drivers
//! did (`scalar_mul-compose` made more than 30k applications before every
//! rule had the budget).

use std::collections::HashSet;

use entangle::{check_refinement, encode_def, encode_node, CheckOptions};
use entangle_bench::zoo;
use entangle_egraph::{EGraph, Runner, SaturationReport};
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};

/// Applications no rule may exceed over the whole raw MoE saturation.
const APPLICATION_CEILING: u64 = 4096;

/// Raw saturation of every operator problem of the MoE zoo case, merged
/// into one report: per `G_s` operator, its inputs' verified mappings and
/// its `G_d` frontier encoded in one e-graph, run with no goal for 12
/// iterations (the checker's own runs stop at their answer, well before
/// the blowup). Also returns the bans the runs made.
fn moe_raw_saturation() -> (SaturationReport, u64) {
    let case = zoo()
        .into_iter()
        .find(|c| c.name == "moe_tpsp2")
        .expect("the zoo has the MoE case");
    let (gs, gd) = (&case.gs, &case.dist.graph);
    let ri = case.dist.relation(gs).expect("relation builds");
    let outcome = check_refinement(gs, gd, &ri, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("moe_tpsp2 failed: {e}"));
    let rewrites = rewrites_of(&registry());
    let mut merged = SaturationReport::default();
    let mut bans = 0;
    for node in gs.nodes() {
        let mut analysis = TensorAnalysis::default();
        for t in gd.tensors() {
            analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
        }
        // `G_s` tensors get names of their own: one may share a name with a
        // `G_d` tensor that holds another value.
        let output = gs.tensor(node.output);
        analysis.register_leaf("$out", output.shape.clone(), output.dtype);
        let mut eg = EGraph::with_analysis(analysis);
        let mut related: HashSet<String> = HashSet::new();
        let mut inputs = Vec::new();
        for (k, &t) in node.inputs.iter().enumerate() {
            let name = format!("$in{k}");
            let tensor = gs.tensor(t);
            eg.analysis
                .register_leaf(&name, tensor.shape.clone(), tensor.dtype);
            let leaf = eg.add_expr(&name.parse().expect("a leaf parses"));
            for m in outcome.full_relation.mappings(t).expect("input is mapped") {
                related.extend(m.leaf_symbols().iter().map(|s| s.as_str().to_owned()));
                let id = eg.add_expr(m);
                eg.union(leaf, id);
            }
            inputs.push(name);
        }
        let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        encode_def(&mut eg, &node.op, &inputs, "$out", &node.name);
        // The Listing 3 frontier: every `G_d` definition whose inputs are
        // all related, to a fixpoint.
        let mut added = vec![false; gd.nodes().len()];
        loop {
            let mut grew = false;
            for (i, n) in gd.nodes().iter().enumerate() {
                if !added[i]
                    && n.inputs
                        .iter()
                        .all(|&t| related.contains(&gd.tensor(t).name))
                {
                    encode_node(&mut eg, gd, n);
                    related.insert(gd.tensor(n.output).name.clone());
                    added[i] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        eg.rebuild();
        let mut runner = Runner::new(eg).with_iter_limit(12).with_node_limit(30_000);
        let report = runner.run(&rewrites);
        merged.merge(&report.saturation);
        bans += report.bans;
    }
    (merged, bans)
}

#[test]
fn the_budget_bounds_every_rule() {
    let (saturation, bans) = moe_raw_saturation();
    for (rule, stats) in &saturation.rules {
        assert!(
            stats.applications <= APPLICATION_CEILING,
            "{rule} made {} applications ({} matches) under the budget",
            stats.applications,
            stats.matches,
        );
    }
    // Not vacuous: the runs reach the match volume that bans a rule.
    assert!(bans > 0, "no rule exceeded its match budget");
}
