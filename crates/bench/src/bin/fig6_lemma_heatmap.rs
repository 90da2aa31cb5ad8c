//! Figure 6: how often each lemma is applied, per model and parallelism.
//!
//! The paper's heatmap rows are GPT(2/4/8), Qwen2(4) and Llama-3(4); columns
//! are lemma ids, annotated `c` (clean-expression operators), `v` (vLLM
//! operators) and `h` (HLO operators). Expected observations: the
//! clean-operator lemmas dominate, HLO models reuse most ATen lemmas, and
//! higher parallelism applies more lemmas.

use entangle_bench::{gpt_workload, llama_workload, qwen2_workload, Workload};
use entangle_lemmas::registry;

fn main() {
    println!("Figure 6: lemma application counts per model/parallelism\n");
    let lemmas = registry();
    let opts = entangle_bench::saturation_opts();
    let rows: Vec<(String, Workload)> = vec![
        ("GPT(2)".into(), gpt_workload(2, 1)),
        ("GPT(4)".into(), gpt_workload(4, 1)),
        ("GPT(8)".into(), gpt_workload(8, 1)),
        ("Qwen2(4)".into(), qwen2_workload(4, 1)),
        ("Llama-3(4)".into(), llama_workload(4, 1)),
    ];

    let mut counts: Vec<(String, Vec<u64>)> = Vec::new();
    for (label, w) in rows {
        let (outcome, _) = w.check(&opts);
        let per_lemma: Vec<u64> = lemmas
            .iter()
            .map(|l| outcome.saturation.lemma_count(&l.name))
            .collect();
        counts.push((label, per_lemma));
    }

    // Print only lemmas applied at least once somewhere (the paper's x-axis
    // shows the full corpus; we compress for terminal legibility).
    let used: Vec<usize> = (0..lemmas.len())
        .filter(|&i| counts.iter().any(|(_, c)| c[i] > 0))
        .collect();

    print!("{:<12}", "");
    for &i in &used {
        print!("{:>5}", format!("{}{}", i, lemmas[i].category.tag()));
    }
    println!();
    for (label, c) in &counts {
        print!("{label:<12}");
        for &i in &used {
            // Log-scale buckets, like the paper's log-color heatmap.
            let v = c[i];
            let cell = match v {
                0 => ".".to_owned(),
                _ => format!("{:.0}", (v as f64).log2().max(0.0) + 1.0),
            };
            print!("{cell:>5}");
        }
        println!();
    }

    println!("\nlegend: cells show 1+log2(applications); '.' = unused");
    println!("column suffix: c = clean-op lemma, v = vLLM-style fused, h = HLO-style");
    let mut totals: Vec<(String, u64)> = counts
        .iter()
        .map(|(l, c)| (l.clone(), c.iter().sum()))
        .collect();
    totals.sort_by_key(|(_, t)| *t);
    println!("\ntotal applications per row (expect GPT counts to grow with parallelism):");
    for (l, t) in totals {
        println!("  {l:<12} {t}");
    }

    // Name index for the used lemmas.
    println!("\nlemma id -> name:");
    for &i in &used {
        println!("  {:>3}{}  {}", i, lemmas[i].category.tag(), lemmas[i].name);
    }
}
