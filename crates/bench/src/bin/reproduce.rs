//! The paper's §6 evaluation in one process: Figures 3–6, Table 3, the DP
//! and PP strategies the paper could not capture, and the DESIGN.md
//! ablations.
//!
//! Each section prints its table, wall times included, to stdout. Every
//! value that repeats exactly from run to run — verdicts, failing operators
//! and stop reasons, operator and saturation-run counts, lemma
//! applications, e-matches, iterations, e-graph sizes, lemma metadata —
//! goes to `results/reproduce.tsv` as sorted `section<TAB>row<TAB>key<TAB>value`
//! lines; no wall time does. A check that fails is a row, not a panic:
//! `tests/reproduce.rs` checks the paper's claims against the file, and
//! `scripts/ci.sh` regenerates it and fails on a diff. Takes no flags:
//!
//! ```console
//! $ cargo run --release -p entangle-bench --bin reproduce
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use entangle::{CheckOptions, ExpectationError, RefinementError};
use entangle_bench::{
    bench_config, figure3_suite, format_table, gpt_workload, gpt_workload_of, llama_workload,
    llama_workload_of, moe_workload, qwen2_workload, regression_workload, saturation_opts,
    scaled_config, secs, Workload,
};
use entangle_lemmas::{registry, rewrites_of, Category};
use entangle_models::{gpt, llama3, regression_sum_loss, Arch, ModelConfig, RegressionConfig};
use entangle_parallel::bugs::{all_bugs, BugVerdict};
use entangle_parallel::{data_parallel, data_parallel_training, pipeline};

/// `(section, row, key) → value`, written sorted, one line each.
#[derive(Default)]
struct Tsv(BTreeMap<(String, String, String), String>);

impl Tsv {
    fn put(&mut self, section: &str, row: &str, key: &str, value: impl ToString) {
        let at = (section.to_owned(), row.to_owned(), key.to_owned());
        let old = self.0.insert(at, value.to_string());
        assert!(old.is_none(), "{section} / {row} / {key} recorded twice");
    }
}

/// Checks `w` under `opts`, records its verdict and counts as row `w.name`
/// of `section`, and returns the row of the section's printed table.
///
/// `fresh_runs`, `iterations`, `ematches` and `peak_enodes` come from the
/// check's metrics snapshot (what executed, failed checks included); the
/// rest exist only for a verified check and count memo replays too, the
/// way the paper's figures count per operator.
fn check_row(tsv: &mut Tsv, section: &str, w: &Workload, opts: &CheckOptions) -> Vec<String> {
    let (result, metrics, elapsed) = w.check(opts);
    let mut keys = vec![
        ("ops", w.total_ops().to_string()),
        ("fresh_runs", metrics.counter("egraph.runs").to_string()),
        (
            "iterations",
            metrics.counter("egraph.iterations").to_string(),
        ),
        (
            "ematches",
            metrics.counter("ematch.matches.yielded").to_string(),
        ),
        (
            "peak_enodes",
            metrics.gauge("egraph.peak_nodes").to_string(),
        ),
    ];
    let (verdict, apps, nodes) = match &result {
        Ok(outcome) => {
            let sizes: Vec<usize> = outcome.op_reports.iter().map(|r| r.egraph_nodes).collect();
            let mean = sizes.iter().sum::<usize>() / sizes.len().max(1);
            let max = sizes.iter().copied().max().unwrap_or(0);
            let sat = &outcome.saturation;
            let fresh: u64 = sat.fresh.rules.values().map(|r| r.applications).sum();
            keys.extend([
                ("verdict", "verified".to_owned()),
                ("operators", sizes.len().to_string()),
                ("runs", sat.runs().to_string()),
                ("lemma_apps", sat.lemma_total().to_string()),
                ("fresh_lemma_apps", fresh.to_string()),
                ("mean_enodes_per_op", mean.to_string()),
                ("max_enodes_per_op", max.to_string()),
            ]);
            let apps = sat.lemma_total().to_string();
            ("verified".to_owned(), apps, format!("{mean}/{max}"))
        }
        Err(e) => {
            keys.extend([("verdict", "FAILS".into()), ("failure", e.kind().into())]);
            let mut verdict = format!("FAILS ({})", e.kind());
            if let RefinementError::OperatorUnmapped { operator, stop, .. } = e {
                let stop = stop.map_or("none", |s| s.as_str());
                keys.extend([("operator", operator.clone()), ("stop", stop.into())]);
                verdict = format!("FAILS at {operator} ({stop})");
            }
            (verdict, "-".into(), "-".into())
        }
    };
    for (key, value) in keys {
        tsv.put(section, &w.name, key, value);
    }
    vec![
        w.name.clone(),
        w.strategies.into(),
        w.total_ops().to_string(),
        secs(elapsed),
        verdict,
        apps,
        nodes,
    ]
}

/// Checks every workload of a section and prints the section's table.
fn check_section(tsv: &mut Tsv, section: &str, title: &str, cases: &[(Workload, CheckOptions)]) {
    println!("\n{title}\n");
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|(w, opts)| check_row(tsv, section, w, opts))
        .collect();
    let headers = [
        "row",
        "strategies",
        "#ops(Gs+Gd)",
        "time(s)",
        "verdict",
        "lemma apps",
        "e-nodes/op mean/max",
    ];
    print!("{}", format_table(&headers, &rows));
}

fn figure3(tsv: &mut Tsv) {
    let cases: Vec<_> = figure3_suite()
        .into_iter()
        .map(|w| (w, saturation_opts()))
        .collect();
    check_section(
        tsv,
        "fig3",
        "Figure 3: end-to-end verification time (parallelism 2, 1 layer; \
         'Bwd*' is a 2-layer forward graph standing in for the backward capture)",
        &cases,
    );
}

/// GPT (TP+SP+VP) and Llama-3 (TP) over parallelism {2, 4, 8, 16} × layers
/// {1, 2, 4}. Parallelism 16 runs on [`scaled_config`]: 16 does not divide
/// [`bench_config`]'s 8 heads.
fn figure4(tsv: &mut Tsv) {
    let mut cases = Vec::new();
    for make in [gpt_workload_of, llama_workload_of] {
        for par in [2usize, 4, 8, 16] {
            let cfg = if par <= 8 {
                bench_config()
            } else {
                scaled_config(par)
            };
            for layers in [1usize, 2, 4] {
                cases.push((make(&cfg.with_layers(layers), par), saturation_opts()));
            }
        }
    }
    check_section(
        tsv,
        "fig4",
        "Figure 4: scalability in parallelism and depth (par=16 on scaled_config(16): \
         batch 2, seq 32, hidden 64, 16 heads, vocab 64, ffn 128)",
        &cases,
    );
}

/// Lemma metadata: per-model operator and added-lemma counts (5a) and each
/// lemma's lines of code, complexity, category and models (5b).
fn figure5(tsv: &mut Tsv) {
    let lemmas = registry();
    println!(
        "\nFigure 5: lemma effort ({} lemmas in the corpus)\n",
        lemmas.len()
    );
    let models = [
        ("GPT", "gpt", gpt_workload(2, 1)),
        ("Qwen2", "qwen2", qwen2_workload(2, 1)),
        ("Llama-3", "llama3", llama_workload(2, 1)),
        ("ByteDance", "bytedance-moe", moe_workload(2, false)),
        ("Regression", "regression", regression_workload(2)),
    ];
    let mut rows = Vec::new();
    for (display, tag, w) in &models {
        let added: Vec<_> = lemmas.iter().filter(|l| l.models.contains(tag)).collect();
        let complexity: usize = added.iter().map(|l| l.complexity).sum();
        tsv.put("fig5a", display, "ops", w.total_ops());
        tsv.put("fig5a", display, "lemmas_added", added.len());
        tsv.put("fig5a", display, "complexity_sum", complexity);
        rows.push(vec![
            display.to_string(),
            w.total_ops().to_string(),
            added.len().to_string(),
            format!("{:.1}", complexity as f64 / added.len().max(1) as f64),
        ]);
    }
    print!(
        "{}",
        format_table(
            &["model", "#operators", "#lemmas added", "avg ops/lemma"],
            &rows,
        )
    );

    for l in &lemmas {
        let category = format!("{:?}", l.category).to_lowercase();
        tsv.put("fig5b", &l.name, "id", l.id);
        tsv.put("fig5b", &l.name, "category", category);
        tsv.put("fig5b", &l.name, "loc", l.loc);
        tsv.put("fig5b", &l.name, "complexity", l.complexity);
        let models = l.models.join(",");
        tsv.put(
            "fig5b",
            &l.name,
            "models",
            if models.is_empty() { "-" } else { &models },
        );
    }
    println!("\n(b) CDF of lines of code per lemma\n");
    let rows: Vec<Vec<String>> = [2usize, 5, 10, 15, 20, 25, 30, 40]
        .iter()
        .map(|&t| {
            let within = lemmas.iter().filter(|l| l.loc <= t).count();
            let share = within as f64 * 100.0 / lemmas.len() as f64;
            vec![format!("<= {t} LOC"), format!("{share:.0}%")]
        })
        .collect();
    print!("{}", format_table(&["LOC", "fraction of lemmas"], &rows));
    let max = lemmas.iter().map(|l| l.loc).max().unwrap_or(0);
    println!("max LOC: {max}");
}

/// Per-lemma application counts (replays included) per model and
/// parallelism; the printed table sums them by lemma category (the paper's
/// `c` / `v` / `h` column tags).
fn figure6(tsv: &mut Tsv) {
    println!("\nFigure 6: lemma applications per model/parallelism (1 layer)\n");
    let lemmas = registry();
    let categories = [
        Category::Clean,
        Category::General,
        Category::Vllm,
        Category::Hlo,
    ];
    let mut rows = Vec::new();
    for w in [
        gpt_workload(2, 1),
        gpt_workload(4, 1),
        gpt_workload(8, 1),
        qwen2_workload(4, 1),
        llama_workload(4, 1),
    ] {
        let (result, _, _) = w.check(&saturation_opts());
        let verdict = if result.is_ok() { "verified" } else { "FAILS" };
        tsv.put("fig6", &w.name, "verdict", verdict);
        let mut sums = [0u64; 4];
        for l in &lemmas {
            let n = result
                .as_ref()
                .map_or(0, |o| o.saturation.lemma_count(&l.name));
            if n > 0 {
                tsv.put("fig6", &w.name, &l.name, n);
                sums[categories
                    .iter()
                    .position(|&c| c == l.category)
                    .expect("a category")] += n;
            }
        }
        let mut row = vec![
            w.name.clone(),
            verdict.into(),
            sums.iter().sum::<u64>().to_string(),
        ];
        row.extend(sums.iter().map(u64::to_string));
        rows.push(row);
    }
    let headers = [
        "model",
        "verdict",
        "total",
        "clean (c)",
        "general",
        "vLLM (v)",
        "HLO (h)",
    ];
    print!("{}", format_table(&headers, &rows));
}

/// How a Table 3 program was flagged, and where: the failing operator,
/// the shard pass's diagnostic codes, the output or the expectation.
fn bug_verdict(v: &BugVerdict) -> (&'static str, String) {
    match v {
        BugVerdict::Clean => ("verified", "-".into()),
        BugVerdict::RefinementBug(e) => {
            let at = match e {
                RefinementError::OperatorUnmapped { operator, .. } => operator.clone(),
                RefinementError::OutputUnmapped { tensor, .. } => tensor.clone(),
                RefinementError::ShardViolation { diagnostics, .. } => {
                    let mut codes: Vec<&str> = diagnostics.iter().map(|d| d.code).collect();
                    codes.dedup();
                    codes.join(",")
                }
                other => other.kind().into(),
            };
            ("refinement-fails", format!("{} {at}", e.kind()))
        }
        BugVerdict::ExpectationBug(ExpectationError::Violated { expected, .. }) => {
            ("expectation-violated", expected.clone())
        }
        BugVerdict::ExpectationBug(_) => ("expectation-violated", "-".into()),
    }
}

fn table3(tsv: &mut Tsv) {
    println!("\nTable 3: the nine bugs and their fixed twins\n");
    let opts = CheckOptions::default();
    let mut rows = Vec::new();
    for (buggy, fixed) in all_bugs(true).iter().zip(&all_bugs(false)) {
        let row = format!("bug{}", buggy.id);
        let start = Instant::now();
        let found = buggy.run(&opts);
        let elapsed = start.elapsed();
        let (verdict, at) = bug_verdict(&found);
        let (fixed_verdict, _) = bug_verdict(&fixed.run(&opts));
        tsv.put("table3", &row, "name", buggy.name);
        tsv.put("table3", &row, "buggy", verdict);
        tsv.put("table3", &row, "at", &at);
        tsv.put("table3", &row, "fixed", fixed_verdict);
        rows.push(vec![
            buggy.id.to_string(),
            buggy.name.to_owned(),
            secs(elapsed),
            verdict.to_owned(),
            at,
            fixed_verdict.to_owned(),
        ]);
    }
    print!(
        "{}",
        format_table(&["#", "bug", "time(s)", "buggy", "at", "fixed twin"], &rows)
    );
}

/// DP over an autodiff-generated training step, hand-written DP with
/// gradient averaging and its unscaled-sum bug, and microbatched PP: the
/// strategies §6.1 could not capture.
fn dp_pp(tsv: &mut Tsv) {
    let cfg = RegressionConfig {
        batch: 8,
        features: 4,
    };
    let fwd = regression_sum_loss(&cfg);
    let mut cases = Vec::new();
    for replicas in [2usize, 4] {
        let dp = data_parallel_training(&fwd, fwd.outputs()[0], &["x", "y"], replicas, false)
            .expect("generated DP builds");
        let w = Workload {
            name: format!("DP-autodiff(r{replicas})"),
            strategies: "DP (autodiff)",
            gs: dp.sequential.graph,
            dist: dp.distributed,
        };
        cases.push((w, CheckOptions::default()));
    }
    for (average, name) in [
        (true, "DP-explicit(averaged)"),
        (false, "DP-explicit(unscaled-sum)"),
    ] {
        let w = Workload {
            name: name.into(),
            strategies: "DP",
            gs: entangle_models::regression_training(&cfg),
            dist: data_parallel(&cfg, 2, average),
        };
        cases.push((w, CheckOptions::default()));
    }
    let mcfg = ModelConfig::tiny();
    for (arch, gs) in [(Arch::Gpt, gpt(&mcfg)), (Arch::Llama, llama3(&mcfg))] {
        let w = Workload {
            name: format!("PP({arch:?})"),
            strategies: "PP (2 microbatches)",
            gs,
            dist: pipeline(&mcfg, arch, 2),
        };
        cases.push((w, CheckOptions::default()));
    }
    check_section(
        tsv,
        "dp_pp",
        "Beyond the paper: DP and PP (§6.1's uncaptured strategies; full check options)",
        &cases,
    );
}

/// Relation pruning (mappings kept per tensor) on GPT at parallelism 2,
/// and the corpus's constrained `add-assoc` against the free rule at 8.
fn ablations(tsv: &mut Tsv) {
    let keep = |n: usize| CheckOptions {
        max_mappings: n,
        ..saturation_opts()
    };
    let mut free_assoc = rewrites_of(&registry());
    for rw in &mut free_assoc {
        if rw.name() == "add-assoc" {
            *rw = entangle::__bench_parse_rewrite(
                "add-assoc",
                "(add (add ?a ?b) ?c)",
                "(add ?a (add ?b ?c))",
            );
        }
    }
    let free = CheckOptions {
        rewrites: Some(free_assoc),
        ..saturation_opts()
    };
    let cases = [
        ("default", 2, 2, saturation_opts()),
        ("keep-16", 2, 2, keep(16)),
        ("keep-1", 2, 2, keep(1)),
        ("constrained-assoc", 8, 1, saturation_opts()),
        ("free-assoc", 8, 1, free),
    ];
    let cases: Vec<_> = cases
        .into_iter()
        .map(|(variant, par, layers, opts)| {
            let w = gpt_workload(par, layers);
            let name = format!("{}/{variant}", w.name);
            (Workload { name, ..w }, opts)
        })
        .collect();
    check_section(
        tsv,
        "ablations",
        "Ablations (DESIGN.md design decisions)",
        &cases,
    );
}

fn main() {
    let start = Instant::now();
    let mut tsv = Tsv::default();
    figure3(&mut tsv);
    figure4(&mut tsv);
    figure5(&mut tsv);
    figure6(&mut tsv);
    table3(&mut tsv);
    dp_pp(&mut tsv);
    ablations(&mut tsv);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/reproduce.tsv");
    let text: String = tsv
        .0
        .iter()
        .map(|((section, row, key), value)| format!("{section}\t{row}\t{key}\t{value}\n"))
        .collect();
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "\nwrote results/reproduce.tsv ({} lines) in {} s",
        tsv.0.len(),
        secs(start.elapsed())
    );
}
