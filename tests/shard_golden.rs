//! Golden localization tests for the sharding-propagation analysis over the
//! Table 3 bug corpus.
//!
//! Every *buggy* case must either be flagged by the shard pass at the exact
//! faulty operator (an `SH##` error anchored at a named node) or cleanly
//! defer — no shard errors, with the bug still caught downstream by
//! refinement or expectation checking. Every *fixed* case must produce zero
//! shard errors and verify end to end: the analysis may be imprecise
//! (`unknown` layouts) but never wrong.

use entangle::CheckOptions;
use entangle_egraph::RecExpr;
use entangle_lint::Anchor;
use entangle_parallel::bugs::{all_bugs, BugCase};
use entangle_shard::{analyze_pair, ShardAnalysis};

fn analyze(case: &BugCase) -> ShardAnalysis {
    let maps: Vec<(String, RecExpr)> = case
        .dist
        .input_maps
        .iter()
        .map(|(name, expr)| (name.clone(), expr.parse().expect("map parses")))
        .collect();
    analyze_pair(&case.gs, &case.dist.graph, &maps, &case.dist.declared)
}

/// The node name the first shard error anchors at, if any.
fn first_error_node(case: &BugCase, analysis: &ShardAnalysis) -> Option<(String, &'static str)> {
    let d = analysis.report.errors().next()?;
    match d.anchor {
        Anchor::Node(id) => Some((case.dist.graph.node(id).name.clone(), d.code)),
        _ => None,
    }
}

/// Expected localization per buggy case: `Some((code, node_prefix))` when
/// the shard pass must flag it pre-saturation, `None` when it defers.
fn expected_localization(id: usize) -> Option<(&'static str, &'static str)> {
    match id {
        // Misaligned rotary tables: both ranks apply rank-0's cos/sin rows.
        1 => Some(("SH02", "apply_rotary")),
        // The un-pad slice straddles the padding the all-gather introduced.
        3 => Some(("SH03", "unpad")),
        // Missing all-reduce: the second matmul consumes a partial sum.
        7 => Some(("SH04", "y.")),
        // Bugs 2/5/8/9 are scaling/aggregation faults (every rank's value is
        // a *consistent* layout, just the wrong math) and bug 4/6 are
        // structural: all defer to refinement/expectation checking.
        _ => None,
    }
}

#[test]
fn buggy_cases_localize_or_defer() {
    for case in all_bugs(true) {
        let analysis = analyze(&case);
        match expected_localization(case.id) {
            Some((code, prefix)) => {
                let (node, got) = first_error_node(&case, &analysis).unwrap_or_else(|| {
                    panic!(
                        "bug {}: expected {code} at {prefix}*, got no shard error",
                        case.id
                    )
                });
                assert_eq!(got, code, "bug {}: wrong code (at {node})", case.id);
                assert!(
                    node.starts_with(prefix),
                    "bug {}: {code} anchored at {node}, expected {prefix}*",
                    case.id
                );
            }
            None => {
                assert!(
                    analysis.is_clean(),
                    "bug {}: shard pass must defer cleanly, got:\n{}",
                    case.id,
                    analysis.report.render(Some(&case.dist.graph))
                );
                // Deferring is only acceptable because the rest of the
                // pipeline still catches the fault.
                assert!(
                    case.run(&CheckOptions::default()).detected(),
                    "bug {}: deferred by shard pass AND missed downstream",
                    case.id
                );
            }
        }
    }
}

#[test]
fn fixed_cases_have_no_false_positives() {
    for case in all_bugs(false) {
        let analysis = analyze(&case);
        assert!(
            analysis.is_clean(),
            "fixed case {}: shard false positive:\n{}",
            case.id,
            analysis.report.render(Some(&case.dist.graph))
        );
        assert!(
            !case.run(&CheckOptions::default()).detected(),
            "fixed case {}: pipeline regression",
            case.id
        );
    }
}

#[test]
fn buggy_cases_all_detected_with_hints_on_and_off() {
    // The pre-pass must never *mask* a bug: every Table 3 fault is
    // detected with it (fail-fast SH## or saturation) and without it
    // (saturation alone).
    for case in all_bugs(true) {
        assert!(
            case.run(&CheckOptions::default()).detected(),
            "bug {} undetected with the shard pre-pass",
            case.id
        );
        let opts = CheckOptions {
            shard: false,
            ..CheckOptions::default()
        };
        assert!(
            case.run(&opts).detected(),
            "bug {} undetected without the shard pre-pass",
            case.id
        );
    }
}
