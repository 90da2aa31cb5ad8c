//! Workspace-level Table 3 check: all nine bugs detected, no false alarms —
//! the §6.2 claim, via the public API.

use entangle::CheckOptions;
use entangle_parallel::bugs::{all_bugs, BugVerdict};

#[test]
fn table3_all_bugs_detected_and_no_false_alarms() {
    let opts = CheckOptions::default();
    for case in all_bugs(true) {
        assert!(
            case.run(&opts).detected(),
            "bug {} ({}) escaped detection",
            case.id,
            case.name
        );
    }
    for case in all_bugs(false) {
        let verdict = case.run(&opts);
        assert!(
            !verdict.detected(),
            "fixed twin of bug {} raised a false alarm: {verdict:?}",
            case.id
        );
    }
}

#[test]
fn refinement_errors_render_actionable_reports() {
    let opts = CheckOptions::default();
    for case in all_bugs(true) {
        let text = match case.run(&opts) {
            BugVerdict::Clean => unreachable!("bug {} must be detected", case.id),
            BugVerdict::RefinementBug(e) => e.to_string(),
            BugVerdict::ExpectationBug(e) => e.to_string(),
        };
        assert!(
            text.len() > 40,
            "bug {} report is too terse: {text}",
            case.id
        );
    }
}

/// The reports of the three bugs that fail in or after the map stage: the
/// failing operator or output, its input mappings and why the search
/// stopped.
const MAP_STAGE_FAILURES: [(usize, &str); 3] = [
    (
        2,
        "G_s output \"aux\" (produced by \"aux\") cannot be reconstructed from G_d's \
         outputs alone\n\
         clean mappings exist only over G_d intermediates (values the deployment never emits):\n  \
         aux -> aux.0\n  \
         aux -> aux.1\n\
         a combining step (e.g. an all-reduce or all-gather) is likely missing before G_d's outputs",
    ),
    (
        4,
        "could not map outputs for operator \"xa\" (matmul, n0); the distributed \
         implementation does not refine the model here.\n\
         input mappings at this operator:\n  \
         x -> (concat x.0 x.1 0)\n  \
         a -> a.0\n\
         saturation ran the lemma corpus dry (stop reason: saturated), so no clean mapping \
         exists under the current lemmas\n\
         inspect this operator, its inputs' mappings, and the G_d operators feeding them to \
         localize the bug",
    ),
    (
        6,
        "could not map outputs for operator \"loss\" (mse_loss, n2); the distributed \
         implementation does not refine the model here.\n\
         input mappings at this operator:\n  \
         pred -> (concat pred.0 pred.1 0)\n  \
         pred -> (add (concat xw.0 xw.1 0) b)\n  \
         pred -> (add b (concat xw.0 xw.1 0))\n  \
         y -> (concat y.0 y.1 0)\n\
         saturation ran the lemma corpus dry (stop reason: saturated), so no clean mapping \
         exists under the current lemmas\n\
         inspect this operator, its inputs' mappings, and the G_d operators feeding them to \
         localize the bug",
    ),
];

/// A round that finds no mapping never meets its goal, so on these tiny
/// graphs it runs the lemma corpus dry and the report says so, word for
/// word.
#[test]
fn map_stage_failures_render_their_pinned_reports() {
    let opts = CheckOptions::default();
    for (id, report) in MAP_STAGE_FAILURES {
        let case = all_bugs(true)
            .into_iter()
            .find(|c| c.id == id)
            .expect("bug exists");
        let BugVerdict::RefinementBug(e) = case.run(&opts) else {
            panic!("bug {id} must be a refinement bug");
        };
        assert_eq!(e.to_string(), report, "bug {id}");
    }
}

/// An MoE expert weighted by its neighbour's gate (`L0.e4_weighted`
/// multiplies by `gate3`, not `gate4`) has no mapping, so its round never
/// meets its goal. The round runs to its iteration guard and the check
/// reports the operator, as the fixed limit did. Without a guard the round
/// reaches, at iteration 34, a class of about 2 500 `scalar_mul` e-nodes
/// whose e-matching does not end, and the time guard, checked between
/// iterations, never runs again.
#[test]
fn a_round_without_an_answer_stops_at_its_iteration_guard() {
    use entangle::{check_refinement, RefinementError};
    use entangle_egraph::StopReason;
    use entangle_ir::Graph;

    let case = entangle_bench::zoo()
        .into_iter()
        .find(|c| c.name == "moe_tpsp2")
        .expect("zoo has the MoE case");
    let gd = &case.dist.graph;
    let id = |name: &str| gd.tensor_by_name(name).expect("tensor exists").id;
    let (gate3, gate4) = (id("L0.gate3"), id("L0.gate4"));
    let mut nodes = gd.nodes().to_vec();
    let weighted = nodes
        .iter_mut()
        .find(|n| n.name == "L0.e4_weighted")
        .expect("expert 4's weighting exists");
    for input in &mut weighted.inputs {
        if *input == gate4 {
            *input = gate3;
        }
    }
    let wrong = Graph::from_parts_unchecked(
        gd.name().to_owned(),
        gd.tensors().to_vec(),
        nodes,
        gd.inputs().to_vec(),
        gd.outputs().to_vec(),
    );
    let ri = case.dist.relation(&case.gs).expect("relation builds");
    match check_refinement(&case.gs, &wrong, &ri, &CheckOptions::default()) {
        Err(RefinementError::OperatorUnmapped { operator, stop, .. }) => {
            assert_eq!(operator, "L0.e4_weighted");
            assert_eq!(stop, Some(StopReason::IterLimit));
        }
        other => panic!("expected L0.e4_weighted to be unmapped, got {other:?}"),
    }
}
