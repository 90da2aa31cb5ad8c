//! The paper's §6 claims, checked against `results/reproduce.tsv`: the
//! exact counts the `reproduce` binary writes. The file is tracked and
//! `scripts/ci.sh` regenerates it in release and fails on any diff, so
//! these tests read what the tree computes without re-running the
//! evaluation in a debug build.
//!
//! Regenerate with `cargo run --release -p entangle-bench --bin reproduce`.

use std::collections::BTreeMap;

/// `(section, row, key) → value`.
type Table = BTreeMap<(String, String, String), String>;

fn table() -> Table {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/reproduce.tsv");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut table = Table::new();
    for (n, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [section, row, key, value] = fields[..] else {
            panic!("line {}: not four tab-separated fields: {line:?}", n + 1);
        };
        let at = (section.to_owned(), row.to_owned(), key.to_owned());
        assert!(
            table.insert(at, value.to_owned()).is_none(),
            "line {}: repeated",
            n + 1
        );
    }
    table
}

fn get<'t>(t: &'t Table, section: &str, row: &str, key: &str) -> Option<&'t str> {
    t.get(&(section.to_owned(), row.to_owned(), key.to_owned()))
        .map(String::as_str)
}

fn count(t: &Table, section: &str, row: &str, key: &str) -> u64 {
    let v = get(t, section, row, key).unwrap_or_else(|| panic!("{section} / {row}: no {key}"));
    v.parse()
        .unwrap_or_else(|_| panic!("{section} / {row} / {key}: {v:?} is not a count"))
}

/// The rows of `section`, in file order.
fn rows<'t>(t: &'t Table, section: &str) -> Vec<&'t str> {
    let mut rows: Vec<&str> = t
        .keys()
        .filter(|(s, _, _)| s == section)
        .map(|(_, r, _)| r.as_str())
        .collect();
    rows.dedup();
    rows
}

fn verdict<'t>(t: &'t Table, section: &str, row: &str) -> &'t str {
    get(t, section, row, "verdict").unwrap_or_else(|| panic!("{section} / {row}: no verdict"))
}

#[test]
fn the_file_is_sorted_and_every_section_is_present() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/reproduce.tsv");
    let text = std::fs::read_to_string(path).expect("results/reproduce.tsv is tracked");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.windows(2).all(|w| w[0] < w[1]),
        "lines are not sorted"
    );
    let t = table();
    for section in [
        "ablations",
        "dp_pp",
        "fig3",
        "fig4",
        "fig5a",
        "fig5b",
        "fig6",
        "table3",
    ] {
        assert!(!rows(&t, section).is_empty(), "no {section} rows");
    }
}

/// Table 3: every buggy program is flagged, bugs 5, 8 and 9 through the
/// §4.4 user expectation, each where it is flagged today; no fixed twin is.
#[test]
fn table3_flags_every_bug_where_it_is_and_no_fixed_twin() {
    let t = table();
    let expected = [
        (1, "refinement-fails", "shard-violation SH02"),
        (2, "refinement-fails", "output-unmapped aux"),
        (3, "refinement-fails", "shard-violation SH03"),
        (4, "refinement-fails", "operator-unmapped xa"),
        (5, "expectation-violated", "grad.0"),
        (6, "refinement-fails", "operator-unmapped loss"),
        (7, "refinement-fails", "shard-violation SH04"),
        (8, "expectation-violated", "wr_grad.0"),
        (9, "expectation-violated", "rms_w_grad.0"),
    ];
    assert_eq!(rows(&t, "table3").len(), expected.len());
    for (id, how, at) in expected {
        let row = format!("bug{id}");
        assert_eq!(get(&t, "table3", &row, "buggy"), Some(how), "bug {id}");
        assert_eq!(get(&t, "table3", &row, "at"), Some(at), "bug {id}");
        assert_eq!(
            get(&t, "table3", &row, "fixed"),
            Some("verified"),
            "bug {id}'s twin"
        );
    }
}

/// Figure 3 and the DP/PP strategies beyond it: every correct program
/// verifies, and the DP gradient summed instead of averaged does not.
#[test]
fn figure3_and_dp_pp_rows_verify_and_the_unscaled_sum_fails() {
    let t = table();
    let fig3 = rows(&t, "fig3");
    assert_eq!(fig3.len(), 6);
    for row in fig3 {
        assert_eq!(verdict(&t, "fig3", row), "verified", "{row}");
    }
    let dp_pp = rows(&t, "dp_pp");
    assert_eq!(dp_pp.len(), 6);
    for row in dp_pp {
        let expected = if row == "DP-explicit(unscaled-sum)" {
            "FAILS"
        } else {
            "verified"
        };
        assert_eq!(verdict(&t, "dp_pp", row), expected, "{row}");
    }
}

/// Figure 4: every cell of GPT and Llama-3 over parallelism {2, 4, 8, 16} ×
/// layers {1, 2, 4} verifies except the known false alarms, each of which
/// still fails where it does. Per-operator work grows with depth: among a
/// row's verifying cells, lemma applications (replays included) do not
/// fall as layers are added.
#[test]
fn figure4_verifies_but_its_known_false_alarms_and_work_grows_with_depth() {
    // ROADMAP item 1 (depth-stable relations): GPT at parallelism 16 stops
    // verifying from 4 layers on. Mend it and this list empties.
    let false_alarms = [("GPT(tp16,l4)", "L2.ln2", "iter-limit")];
    let t = table();
    assert_eq!(rows(&t, "fig4").len(), 24);
    for (row, operator, stop) in false_alarms {
        assert_eq!(
            verdict(&t, "fig4", row),
            "FAILS",
            "{row} is a known false alarm"
        );
        assert_eq!(get(&t, "fig4", row, "operator"), Some(operator), "{row}");
        assert_eq!(get(&t, "fig4", row, "stop"), Some(stop), "{row}");
    }
    for arch in ["GPT", "Llama-3"] {
        for par in [2, 4, 8, 16] {
            let mut last = 0;
            for layers in [1, 2, 4] {
                let row = format!("{arch}(tp{par},l{layers})");
                if false_alarms.iter().any(|(r, _, _)| *r == row) {
                    continue;
                }
                assert_eq!(verdict(&t, "fig4", &row), "verified", "{row}");
                let apps = count(&t, "fig4", &row, "lemma_apps");
                assert!(
                    apps >= last,
                    "{row}: {apps} lemma applications, fewer than {last}"
                );
                last = apps;
            }
        }
    }
}

/// Figure 5b: every lemma is under 40 lines of code.
#[test]
fn figure5_every_lemma_is_under_40_loc() {
    let t = table();
    let lemmas = rows(&t, "fig5b");
    assert!(lemmas.len() > 100, "only {} lemmas", lemmas.len());
    for lemma in lemmas {
        let loc = count(&t, "fig5b", lemma, "loc");
        assert!(loc < 40, "{lemma}: {loc} LOC");
    }
}

/// Figure 6: higher GPT parallelism applies more lemmas.
#[test]
fn figure6_gpt_applies_more_lemmas_at_higher_parallelism() {
    let t = table();
    let total = |row: &str| -> u64 {
        assert_eq!(verdict(&t, "fig6", row), "verified", "{row}");
        t.iter()
            .filter(|((s, r, k), _)| s == "fig6" && r == row && k != "verdict")
            .map(|(_, v)| v.parse::<u64>().expect("a count"))
            .sum()
    };
    let (p2, p4, p8) = (
        total("GPT(tp2,l1)"),
        total("GPT(tp4,l1)"),
        total("GPT(tp8,l1)"),
    );
    assert!(
        p2 < p4 && p4 < p8,
        "GPT lemma applications at p = 2/4/8: {p2}/{p4}/{p8}"
    );
}

/// Ablations: how many mappings are kept changes no verdict, and the
/// corpus's constrained association builds smaller e-graphs at
/// parallelism 8 than the free rule.
#[test]
fn ablations_keep_verdicts_and_constrained_association_stays_smaller() {
    let t = table();
    let default = verdict(&t, "ablations", "GPT(tp2,l2)/default");
    for row in ["GPT(tp2,l2)/keep-16", "GPT(tp2,l2)/keep-1"] {
        assert_eq!(verdict(&t, "ablations", row), default, "{row}");
    }
    let constrained = "GPT(tp8,l1)/constrained-assoc";
    let free = "GPT(tp8,l1)/free-assoc";
    assert_eq!(verdict(&t, "ablations", constrained), "verified");
    let small = count(&t, "ablations", constrained, "max_enodes_per_op");
    match get(&t, "ablations", free, "max_enodes_per_op") {
        Some(large) => assert!(
            small < large.parse().expect("a count"),
            "constrained {small} e-nodes/op, free {large}"
        ),
        None => assert_eq!(verdict(&t, "ablations", free), "FAILS"),
    }
}
