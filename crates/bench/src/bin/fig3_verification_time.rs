//! Figure 3: end-to-end verification time across models.
//!
//! The paper's setup (§6.3): parallelism size 2, a single model layer,
//! forward passes (plus the ByteDance backward graph, which this
//! reproduction substitutes with a deeper forward graph — see
//! EXPERIMENTS.md). Expected shape: all models verify in seconds, times
//! positively correlated with the total operator count; the regression
//! model takes well under a second.

use entangle_bench::{figure3_suite, print_table, secs};

fn main() {
    println!("Figure 3: end-to-end verification time (parallelism 2, 1 layer)\n");
    let opts = entangle_bench::saturation_opts();
    let mut rows = Vec::new();
    for w in figure3_suite() {
        let (outcome, elapsed) = w.check(&opts);
        rows.push(vec![
            w.name.clone(),
            w.strategies.to_owned(),
            format!("{}", w.total_ops()),
            secs(elapsed),
            format!("{}", outcome.saturation.lemma_total()),
        ]);
    }
    print_table(
        &[
            "model",
            "strategies",
            "#ops(Gs+Gd)",
            "time(s)",
            "lemma apps",
        ],
        &rows,
    );
    println!("\n'Bwd*' substitutes the backward capture with a 2-layer forward graph.");
    println!("Expected shape: time grows with #ops; every model finishes in seconds.");
}
