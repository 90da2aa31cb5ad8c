//! End-to-end pins for the structural template analysis (`entangle-iso` +
//! the template-lifted saturation memo).
//!
//! Three contracts:
//!
//! 1. **Transparency** — verdicts, output relations and full relations are
//!    bit-identical with templates on and off, across the whole workload
//!    zoo and the Table 3 bug corpus. Template reuse may only remove work,
//!    never change an answer.
//! 2. **Engagement** — instantiation is the only work templates save: on
//!    every zoo case, fresh saturation runs with templates on equal those
//!    with templates off minus the kernel-instantiated members. On the MoE
//!    workload (eight experts re-posing the same per-expert problems under
//!    different slice bounds) that difference is non-zero.
//! 3. **Determinism at depth** — the deep-model builders produce
//!    identical outcomes at `jobs` = 1 and 4, and deeper models replay
//!    earlier layers instead of posing new saturation problems.

use entangle::{check_refinement, CheckOptions, CheckOutcome, RefinementError};
use entangle_bench::{llama_workload, moe_deep_workload, qwen2_workload, zoo, Workload};
use entangle_parallel::bugs::{all_bugs, BugVerdict};

fn opts(templates: bool) -> CheckOptions {
    CheckOptions {
        templates,
        ..CheckOptions::default()
    }
}

/// Deterministic fingerprint of a check result: verdict, both relations,
/// per-operator reports. Timing and scheduling stats are excluded.
fn signature(gs: &entangle_ir::Graph, result: &Result<CheckOutcome, RefinementError>) -> String {
    match result {
        Err(e) => format!("FAILED\n{e:?}\n"),
        Ok(o) => {
            let mut out = String::from("VERIFIED\n");
            out.push_str(&o.output_relation.display(gs).to_string());
            out.push_str(&o.full_relation.display(gs).to_string());
            for r in &o.op_reports {
                out.push_str(&format!("{} mappings={}\n", r.name, r.mappings));
            }
            out
        }
    }
}

#[test]
fn zoo_verdicts_identical_with_and_without_templates() {
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        let on = check_refinement(&case.gs, &case.dist.graph, &ri, &opts(true));
        let off = check_refinement(&case.gs, &case.dist.graph, &ri, &opts(false));
        assert_eq!(
            signature(&case.gs, &on),
            signature(&case.gs, &off),
            "{}: verdict differs with templates on vs off",
            case.name
        );
        let (on, off) = (on.expect("zoo verifies"), off.expect("zoo verifies"));
        let instantiated = usize::try_from(on.par.template_instantiated).unwrap();
        assert_eq!(
            on.saturation.fresh_runs() + instantiated,
            off.saturation.fresh_runs(),
            "{}: fresh runs with templates on + instantiations != fresh runs off",
            case.name
        );
    }
}

#[test]
fn table3_bug_verdicts_identical_with_and_without_templates() {
    for case in all_bugs(true).into_iter().chain(all_bugs(false)) {
        let render = |v: BugVerdict| match v {
            BugVerdict::Clean => "clean".to_owned(),
            BugVerdict::RefinementBug(e) => format!("refinement: {e:?}"),
            BugVerdict::ExpectationBug(e) => format!("expectation: {e:?}"),
        };
        let on = render(case.run(&opts(true)));
        let off = render(case.run(&opts(false)));
        assert_eq!(
            on, off,
            "bug {} ({}, buggy={}): verdict differs with templates on vs off",
            case.id, case.name, case.buggy
        );
    }
}

#[test]
fn moe_templates_engage_through_kernel_instantiation() {
    let case = zoo()
        .into_iter()
        .find(|c| c.name == "moe_tpsp2")
        .expect("moe_tpsp2 is in the workload zoo");
    let ri = case.dist.relation(&case.gs).expect("relation builds");
    let on = check_refinement(&case.gs, &case.dist.graph, &ri, &opts(true))
        .expect("moe_tpsp2 verifies with templates");
    let off = check_refinement(&case.gs, &case.dist.graph, &ri, &opts(false))
        .expect("moe_tpsp2 verifies without templates");

    let p = &on.par;
    assert!(p.template_classes > 0, "no repeated classes found in MoE");
    assert!(
        p.template_hits > 0,
        "expected template hits on the repeated per-expert ops, got 0 \
         ({} misses)",
        p.template_misses
    );
    // The eight experts' gate slices differ only in slice bounds, which
    // defeats the concrete memo; instantiating the representative's
    // certificate under the member's bounds replaces some of those solves.
    assert!(
        p.template_instantiated > 0,
        "expected certificate-instantiated members across expert slice \
         bounds, got 0 ({} fallbacks)",
        p.template_fallbacks
    );
    assert!(
        p.cache_misses < off.par.cache_misses,
        "templates did not reduce concrete solves: {} on vs {} off",
        p.cache_misses,
        off.par.cache_misses
    );

    // Transparency on this workload specifically (certificates included via
    // the default certify=true options).
    assert_eq!(
        on.full_relation.display(&case.gs).to_string(),
        off.full_relation.display(&case.gs).to_string(),
        "moe_tpsp2: relation differs with templates on vs off"
    );
}

#[test]
fn deep_builders_deterministic_across_jobs() {
    let deep: [Workload; 4] = [
        llama_workload(8, 8),
        llama_workload(8, 4),
        qwen2_workload(8, 8),
        moe_deep_workload(2, 2),
    ];
    // Per workload: (concrete-memo misses, template hits) at `jobs = 1`.
    let mut sequential_par = Vec::new();
    for w in &deep {
        let ri = w.dist.relation(&w.gs).expect("relation builds");
        let mut baseline: Option<String> = None;
        for jobs in [1usize, 4] {
            let o = check_refinement(
                &w.gs,
                &w.dist.graph,
                &ri,
                &CheckOptions {
                    jobs,
                    ..CheckOptions::default()
                },
            );
            if let (1, Ok(o)) = (jobs, &o) {
                sequential_par.push((o.par.cache_misses, o.par.template_hits));
            }
            let sig = signature(&w.gs, &o);
            match &baseline {
                None => baseline = Some(sig),
                Some(s0) => assert_eq!(
                    s0, &sig,
                    "{}: outcome differs between jobs=1 and jobs={jobs}",
                    w.name
                ),
            }
        }
    }
    // Depth adds replays, not saturation problems: twice the layers pose
    // no new canonical problem (equal misses) and every added operator is
    // a template hit. Fails if the template or the concrete memo stops
    // amortising across layers.
    let (l8, l4) = (sequential_par[0], sequential_par[1]);
    assert_eq!(l8.0, l4.0, "Llama tp8: 8 layers solve more than 4 do");
    assert!(l8.1 > l4.1, "Llama tp8: template hits {l4:?} -> {l8:?}");
}
