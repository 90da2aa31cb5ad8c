//! Golden stable-output test for the rule-corpus analyzer: the exact JSON
//! `entangle rules --json` prints for the shipped corpus is checked in at
//! `tests/golden/rules.json`. Any corpus change — a new rule, a class
//! flip, a new RL diagnostic, a cycle-driver change — shows up as a diff
//! here and must be reviewed deliberately.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test rules_golden`

use entangle_rules::{analyze, GrowthClass};

fn corpus_json() -> String {
    let rewrites: Vec<_> = entangle_lemmas::registry()
        .into_iter()
        .map(|l| l.rewrite)
        .collect();
    let mut json = analyze(&rewrites).to_json();
    json.push('\n');
    json
}

#[test]
fn corpus_analysis_matches_golden() {
    let got = corpus_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rules.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "tests/golden/rules.json missing — run UPDATE_GOLDEN=1 cargo test --test rules_golden",
    );
    assert_eq!(
        got, want,
        "rule-corpus analysis drifted from the golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test --test rules_golden"
    );
}

#[test]
fn corpus_analysis_is_deterministic() {
    assert_eq!(corpus_json(), corpus_json());
}

#[test]
fn corpus_headline_facts() {
    let rewrites: Vec<_> = entangle_lemmas::registry()
        .into_iter()
        .map(|l| l.rewrite)
        .collect();
    let analysis = analyze(&rewrites);
    assert_eq!(analysis.classes.len(), 136);
    assert_eq!(analysis.count(GrowthClass::Simplifying), 16);
    assert_eq!(analysis.count(GrowthClass::SizePreserving), 60);
    assert_eq!(analysis.count(GrowthClass::Generative), 60);
    assert_eq!(analysis.cycles.len(), 2, "two generative cycles");
    assert_eq!(
        analysis.drivers,
        vec![
            "embedding-of-concat-ids",
            "scalar_mul-distribute",
            "scalar_mul-of-concat",
            "sum_dim-of-concat-same",
        ],
        "the cycle drivers"
    );
    assert_eq!(
        analysis.report.error_count(),
        0,
        "zero RL errors on the shipped corpus"
    );
    assert!(analysis.report.is_clean());
}
