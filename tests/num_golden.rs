//! Golden-file pin of the numeric-soundness analysis. The exact
//! `entangle-num-cert-v1` JSON derived for every zoo workload, and for the
//! benchmark's `gpt_tp8` input (par 8, two layers: the one whose
//! row-parallel contractions fold over eight shards), is checked in under
//! `tests/golden/num/`, beside the registry sweep's `entangle-num-corpus-v1`
//! JSON (`corpus.json`: every lemma's class, `k`, evaluated and skipped
//! palette bindings, and every NU diagnostic). Any analysis change — a
//! class flip, a different composed `k`, a new NU diagnostic — shows up as
//! a diff here and must be reviewed deliberately.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test num_golden`

use entangle::{CertAnalysis, CheckOptions, NumClass};
use entangle_bench::{gpt_workload, llama_workload, zoo, ZooCase};

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

/// Holds `got` to `tests/golden/num/{name}.json`, or writes it there under
/// `UPDATE_GOLDEN`.
fn check_golden(name: &str, got: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/num");
    let path = format!("{dir}/{name}.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(dir).expect("golden dir");
        std::fs::write(&path, got).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing — run UPDATE_GOLDEN=1 cargo test --test num_golden")
    });
    assert_eq!(
        got, want,
        "numeric analysis for {name} drifted from the golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test --test num_golden"
    );
}

#[test]
fn zoo_numeric_verdicts_match_golden() {
    for case in &golden_cases() {
        check_golden(&case.name, &case_json(case));
    }
}

#[test]
fn registry_numeric_verdicts_match_golden() {
    let mut json = entangle_num::analyze_registry().to_json();
    json.push('\n');
    check_golden("corpus", &json);
}

/// An analysis with its timings zeroed: what two runs must agree on.
fn untimed(analysis: CertAnalysis) -> CertAnalysis {
    CertAnalysis {
        key_us: 0,
        eval_us: 0,
        classify_us: 0,
        compose_us: 0,
        ..analysis
    }
}

#[test]
fn the_check_and_the_standalone_analysis_agree() {
    // One analysis by two routes: the check's numeric stage walks the
    // kernel's own resolution of the certificate, `analyze_certificate`
    // resolves the emitted certificate itself. Everything but the time
    // must be the same: verdicts, diagnostics, every count. The deep Llama
    // runs in release builds only.
    let mut cases = golden_cases();
    if !cfg!(debug_assertions) {
        let deep = llama_workload(8, 16);
        cases.push(ZooCase {
            name: "llama3_tp8_l16".to_owned(),
            gs: deep.gs,
            dist: deep.dist,
        });
    }
    for case in &cases {
        let ri = case.dist.relation(&case.gs).expect("relation");
        let outcome =
            entangle::check_refinement(&case.gs, &case.dist.graph, &ri, &CheckOptions::default())
                .expect("case checks");
        let cert = outcome.certificate.expect("certify is on by default");
        let alone = entangle_num::analyze_certificate(&cert, &case.gs, &case.dist.graph);
        let checked = outcome.numeric.expect("numeric analysis ran");
        assert_eq!(untimed(checked), untimed(alone), "{}", case.name);
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

/// A product's relative error is the sum of its factors', so where two
/// inputs of an operator carry errors from one upstream mapping, that
/// mapping counts once per input: Llama's `mlp_mul = silu(gate) · up`
/// reads the second norm twice, and attention reads the first norm three
/// times (`q`, `k`, `v`). Their `k` is the sum of their inputs' `k`, not
/// the largest.
#[test]
fn a_product_counts_a_shared_upstream_once_per_factor() {
    let cases = golden_cases();
    // The `k` of each mapping's first verdict, by tensor, for one case.
    let ks = |name: &str| -> Vec<(String, u64)> {
        let case = cases.iter().find(|c| c.name == name).expect("golden case");
        let ri = case.dist.relation(&case.gs).expect("relation");
        let outcome =
            entangle::check_refinement(&case.gs, &case.dist.graph, &ri, &CheckOptions::default())
                .expect("golden case checks");
        let num = outcome.numeric.expect("numeric analysis ran");
        num.mappings.into_iter().map(|(t, v)| (t, v.k)).collect()
    };
    let k = |ks: &[(String, u64)], tensor: &str| -> u64 {
        ks.iter()
            .find(|(t, _)| t == tensor)
            .unwrap_or_else(|| panic!("no mapping of {tensor}"))
            .1
    };
    let llama = ks("llama3_tp2");
    let (silu, up) = (k(&llama, "L0.mlp_silu"), k(&llama, "L0.mlp_upproj"));
    assert!(silu > 0 && up > 0, "{silu}, {up}");
    assert_eq!(k(&llama, "L0.mlp_mul"), silu + up);
    let gpt = ks("gpt_tp8_l2");
    let qkv = ["L1.q", "L1.k", "L1.v"].map(|t| k(&gpt, t));
    assert!(qkv.iter().all(|&k| k > 0), "{qkv:?}");
    assert_eq!(k(&gpt, "L1.attn"), qkv.iter().sum::<u64>(), "{qkv:?}");
}
