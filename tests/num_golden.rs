//! Golden-file pin of the numeric-soundness analysis. The exact
//! `entangle-num-cert-v1` JSON derived for every zoo workload, and for the
//! benchmark's `gpt_tp8` input (par 8, two layers: the one whose
//! row-parallel contractions fold over eight shards), is checked in under
//! `tests/golden/num/`. Any analysis change — a class flip, a
//! different composed `k`, a new NU diagnostic — shows up as a diff here
//! and must be reviewed deliberately.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test num_golden`

use entangle::{CheckOptions, NumClass};
use entangle_bench::{gpt_workload, zoo, ZooCase};

/// The zoo plus `gpt_tp8_l2`, the `gpt_workload` the benchmark runs.
fn golden_cases() -> Vec<ZooCase> {
    let mut cases = zoo();
    let tp8 = gpt_workload(8, 2);
    cases.push(ZooCase {
        name: "gpt_tp8_l2".to_owned(),
        gs: tp8.gs,
        dist: tp8.dist,
    });
    cases
}

fn case_json(case: &ZooCase) -> String {
    let ri = case.dist.relation(&case.gs).expect("relation");
    let outcome =
        entangle::check_refinement(&case.gs, &case.dist.graph, &ri, &CheckOptions::default())
            .expect("golden case checks");
    let mut json = outcome.numeric.expect("numeric analysis ran").to_json();
    json.push('\n');
    json
}

#[test]
fn zoo_numeric_verdicts_match_golden() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/num");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(dir).expect("golden dir");
    }
    for case in &golden_cases() {
        let got = case_json(case);
        let path = format!("{dir}/{}.json", case.name);
        if update {
            std::fs::write(&path, &got).expect("golden written");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("{path} missing — run UPDATE_GOLDEN=1 cargo test --test num_golden")
        });
        assert_eq!(
            got, want,
            "numeric analysis for {} drifted from the golden; if intentional, \
             regenerate with UPDATE_GOLDEN=1 cargo test --test num_golden",
            case.name
        );
    }
}

#[test]
fn zoo_numeric_verdicts_are_deterministic() {
    let case = &zoo()[0];
    assert_eq!(case_json(case), case_json(case));
}

/// The headline facts the paper's numeric analysis must deliver: every
/// tensor-parallel reduction workload gets a *finite* composed relative
/// bound (reassociation-only, never value-changing), and the analysis is
/// clean — no NU errors — over the whole zoo.
#[test]
fn zoo_reductions_get_finite_reassoc_bounds() {
    for case in &zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation");
        let outcome =
            entangle::check_refinement(&case.gs, &case.dist.graph, &ri, &CheckOptions::default())
                .expect("zoo case checks");
        let num = outcome.numeric.expect("numeric analysis ran");
        assert!(
            num.is_clean(),
            "{}: numeric analysis raised errors:\n{}",
            case.name,
            num.render()
        );
        for o in &num.outputs {
            assert!(
                matches!(o.verdict.class, NumClass::BitExact | NumClass::Reassoc),
                "{}: output {} is {:?}, not bit-exact/reassoc",
                case.name,
                o.tensor,
                o.verdict
            );
            if o.verdict.class == NumClass::Reassoc {
                assert!(o.verdict.k > 0, "{}: reassoc with k=0", case.name);
                let tol = o.verdict.tolerance().expect("reassoc has a tolerance");
                match tol {
                    entangle_runtime::Tolerance::Relative(b) => {
                        assert!(b.is_finite() && b > 0.0, "{}: bound {b}", case.name);
                    }
                    other => panic!("{}: unexpected tolerance {other:?}", case.name),
                }
            }
        }
        // Early (pre-reduction) mappings stay bit-exact: the analysis
        // distinguishes rearrangement from reassociation.
        assert!(
            num.mappings
                .iter()
                .any(|(_, v)| v.class == NumClass::BitExact),
            "{}: no bit-exact mapping at all",
            case.name
        );
    }
}
