//! Lemma registry: the full ordered corpus with per-lemma metadata.

use std::collections::HashSet;

use entangle_egraph::{PatternAst, Rewrite};

use crate::analysis::TensorAnalysis;

mod clean;
mod elementwise;
mod fused;
mod matmul;
mod norm;
mod reduction;

/// Lemma category, matching the x-axis annotations of the paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Operators that can appear in *clean* expressions (slice, concat,
    /// transpose, identity, pad) — marked `c` in Figure 6.
    Clean,
    /// General ATen-style lemmas (unmarked in Figure 6).
    General,
    /// Fused kernels in the style of vLLM's (attention, SiLU) — marked `v`.
    Vllm,
    /// HLO-flavoured operators used by the NeuronX Llama-3 path (RoPE,
    /// RMSNorm) — marked `h`.
    Hlo,
}

impl Category {
    /// The single-letter Figure 6 tag.
    pub fn tag(self) -> char {
        match self {
            Category::Clean => 'c',
            Category::General => ' ',
            Category::Vllm => 'v',
            Category::Hlo => 'h',
        }
    }
}

/// A lemma: a rewrite rule plus the metadata reported in §6.5–6.6.
#[derive(Clone)]
pub struct Lemma {
    /// Stable index in the registry (the Figure 6 x-axis).
    pub id: usize,
    /// Unique lemma name.
    pub name: String,
    /// Category tag.
    pub category: Category,
    /// Source lines used to define the lemma (Figure 5b's CDF).
    pub loc: usize,
    /// Number of operators appearing in the lemma (Figure 5a's complexity).
    pub complexity: usize,
    /// Models that required adding this lemma beyond the base ATen set
    /// (empty slice = base corpus); drives Figure 5a's per-model counts.
    pub models: Vec<&'static str>,
    /// The rewrite rule itself.
    pub rewrite: Rewrite<TensorAnalysis>,
}

impl std::fmt::Debug for Lemma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Lemma#{} {} [{}]",
            self.id,
            self.name,
            self.category.tag()
        )
    }
}

/// Counts operator applications in a pattern (the paper's complexity
/// measure: "the number of operators appearing in the lemma").
pub(crate) fn pattern_ops(ast: &PatternAst) -> usize {
    match ast {
        PatternAst::Op(_, ch) if !ch.is_empty() => 1 + ch.iter().map(pattern_ops).sum::<usize>(),
        _ => 0,
    }
}

pub(crate) struct Builder {
    lemmas: Vec<Lemma>,
    /// Names registered so far (the duplicate check of [`Builder::push`]).
    names: HashSet<String>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            lemmas: Vec::new(),
            names: HashSet::new(),
        }
    }

    /// An empty builder for registration-invariant tests.
    #[cfg(test)]
    pub(crate) fn new_for_tests() -> Builder {
        Builder::new()
    }

    /// Registers a lemma, assigning the next id.
    ///
    /// # Panics
    ///
    /// Panics when a lemma with the same name is already registered: a
    /// duplicate would silently shadow the earlier lemma in every
    /// name-keyed consumer (Figure 6 stats, the audit, certificates, the
    /// backoff schedule), so the registry rejects it outright.
    pub(crate) fn push(
        &mut self,
        rewrite: Rewrite<TensorAnalysis>,
        category: Category,
        loc: usize,
        complexity: usize,
        models: &[&'static str],
    ) {
        assert!(
            self.names.insert(rewrite.name().to_owned()),
            "duplicate lemma name registered: {:?}",
            rewrite.name()
        );
        self.lemmas.push(Lemma {
            id: self.lemmas.len(),
            name: rewrite.name().to_owned(),
            category,
            loc,
            complexity,
            models: models.to_vec(),
            rewrite,
        });
    }

    /// Universal lemma: complexity derived from both pattern sides.
    pub(crate) fn uni(
        &mut self,
        name: &str,
        lhs: &str,
        rhs: &str,
        category: Category,
        models: &[&'static str],
    ) {
        let rw = Rewrite::parse(name, lhs, rhs).unwrap_or_else(|e| panic!("lemma {name}: {e}"));
        let parsed_rhs = rw
            .rhs()
            .expect("a parsed rewrite keeps its right-hand side");
        let complexity = pattern_ops(rw.searcher().ast()) + pattern_ops(parsed_rhs.ast());
        // Universal lemmas are one-to-two-liners in the DSL (§5).
        self.push(rw, category, 2, complexity, models);
    }
}

/// Builds the full lemma corpus in its canonical order.
///
/// The order is stable: lemma ids index the Figure 6 heatmap columns.
pub fn registry() -> Vec<Lemma> {
    let mut b = Builder::new();
    clean::install(&mut b);
    elementwise::install(&mut b);
    matmul::install(&mut b);
    reduction::install(&mut b);
    norm::install(&mut b);
    fused::install(&mut b);
    b.lemmas
}

/// Extracts the plain rewrites from a lemma slice (what the runner takes).
pub fn rewrites_of(lemmas: &[Lemma]) -> Vec<Rewrite<TensorAnalysis>> {
    lemmas.iter().map(|l| l.rewrite.clone()).collect()
}
