//! Whole-corpus numeric classification: every registered lemma is swept
//! over the shared ground palette of `entangle_rules::ground` and
//! classified with the symbolic domain.
//!
//! Static pattern rules are instantiated binding by binding (variables
//! become fresh leaf tensors of the palette shapes, or the palette ints)
//! and both sides are evaluated symbolically:
//!
//! - an **unconditioned** rule must be sound under *every* instantiation,
//!   so its verdict is the worst class over the evaluable bindings — a
//!   value-changing binding is a forged lemma
//!   ([`codes::NUM_RULE_VALUE_CHANGING`]);
//! - a **conditioned** rule only fires where its guard holds, which the
//!   palette cannot model, so its verdict is the *best* class over the
//!   evaluable bindings (the guard is assumed to select the sound ones —
//!   that assumption is exactly what the kernel re-checks per chain step);
//! - bindings the operator vocabulary rejects (shape errors, zero
//!   denominators) are skipped silently: they cannot occur in a checked
//!   graph.
//!
//! Dynamic (programmatic) appliers have no static right-hand side. Ones
//! carrying an `rhs_hint` sketch are classified structurally as
//! reassociation with a site count derived from the operator applications
//! on both sides; hint-less ones are opaque
//! ([`codes::NUM_OPAQUE_DYNAMIC`]) and classified pessimistically.

use std::collections::HashMap;

use entangle_egraph::{PatternAst, Var};
use entangle_lemmas::{registry, Lemma, Meta};
use entangle_lint::{codes, Anchor, Diagnostic};

use crate::chain::K_LOOSE;
use crate::eval::{apply_op, leaf_tensor, synthetic_leaf, tensor_meta};
use crate::sym::{classify_tensors, Arena, NumClass, SymTensor, Verdict};

/// How a rule was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleMode {
    /// Static pattern rule, swept over the ground palette.
    Static,
    /// Dynamic applier with an `rhs_hint` sketch: structural bound.
    HintedDynamic,
    /// Dynamic applier without a hint: opaque.
    OpaqueDynamic,
}

impl RuleMode {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            RuleMode::Static => "static",
            RuleMode::HintedDynamic => "hinted-dynamic",
            RuleMode::OpaqueDynamic => "opaque-dynamic",
        }
    }
}

/// Per-lemma classification result.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleNumEntry {
    /// Registry id.
    pub id: usize,
    /// Lemma name.
    pub name: String,
    /// How the classification was obtained.
    pub mode: RuleMode,
    /// The classification.
    pub verdict: Verdict,
    /// Palette bindings both sides evaluated under.
    pub evaluated: usize,
    /// Palette bindings skipped (shape-invalid or outside the model).
    pub skipped: usize,
}

/// The whole-corpus analysis result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorpusNumAnalysis {
    /// One entry per lemma, in registry order.
    pub entries: Vec<RuleNumEntry>,
    /// NU diagnostics.
    pub diagnostics: Vec<Diagnostic>,
}

impl CorpusNumAnalysis {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == entangle_lint::Severity::Error)
            .count()
    }

    /// `true` when no error-severity diagnostics were raised.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Entry for a named lemma.
    pub fn entry(&self, name: &str) -> Option<&RuleNumEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Count of entries with a given class.
    pub fn count_class(&self, class: NumClass) -> usize {
        self.entries
            .iter()
            .filter(|e| e.verdict.class == class)
            .count()
    }
}

/// A ground binding for one pattern variable.
#[derive(Debug, Clone)]
enum Binding {
    Tensor(SymTensor),
    Int(i64),
}

/// Evaluates a pattern bottom-up under a ground binding, mirroring the
/// term evaluator of [`crate::eval`]. Returns the tensor plus the metadata
/// needed by `decode_op` at each application.
fn eval_pattern(
    arena: &mut Arena,
    ast: &PatternAst,
    env: &HashMap<Var, Binding>,
) -> Result<(Meta, Option<SymTensor>), String> {
    match ast {
        PatternAst::Var(v) => match env.get(v) {
            Some(Binding::Tensor(t)) => Ok((tensor_meta(t), Some(t.clone()))),
            Some(Binding::Int(i)) => Ok((Meta::scalar((*i).into()), None)),
            None => Err(format!("unbound pattern variable {v}")),
        },
        PatternAst::Int(i) => Ok((Meta::scalar((*i).into()), None)),
        PatternAst::Op(sym, ch) if ch.is_empty() => {
            let name = sym.as_str();
            let t = synthetic_leaf(arena, name)?
                .ok_or_else(|| format!("concrete leaf {name:?} in pattern"))?;
            Ok((tensor_meta(&t), Some(t)))
        }
        PatternAst::Op(sym, ch) => {
            let mut metas = Vec::with_capacity(ch.len());
            let mut tensors = Vec::with_capacity(ch.len());
            for c in ch {
                let (m, t) = eval_pattern(arena, c, env)?;
                metas.push(m);
                tensors.push(t);
            }
            let tensors: Vec<Option<&SymTensor>> = tensors.iter().map(Option::as_ref).collect();
            let (m, t) = apply_op(arena, sym.as_str(), &metas, &tensors)?;
            Ok((m, Some(t)))
        }
    }
}

/// Counts operator applications in a pattern — the structural
/// rounding-site budget for hinted dynamic rules (each application rounds
/// each element at most a bounded number of times; the REASSOC_SLACK
/// constant in `entangle-runtime` absorbs the per-op multiplicity).
fn pattern_app_count(ast: &PatternAst) -> u64 {
    match ast {
        PatternAst::Op(_, ch) if !ch.is_empty() => {
            1 + ch.iter().map(pattern_app_count).sum::<u64>()
        }
        _ => 0,
    }
}

/// Sweeps one static rule over the palette; returns
/// `(evaluated, skipped, worst, best)` verdicts.
fn sweep_static(lemma: &Lemma) -> (usize, usize, Option<Verdict>, Option<Verdict>) {
    let rw = &lemma.rewrite;
    let rhs = rw.rhs().expect("static rule has an rhs");
    let lhs = rw.searcher().ast();
    let vars = lhs.vars();

    let mut evaluated = 0usize;
    let mut skipped = 0usize;
    let mut worst: Option<Verdict> = None;
    let mut best: Option<Verdict> = None;

    // The palette: each variable is a fresh leaf tensor of one of the
    // shared shapes, or one of the shared ints. The symbolic domain is
    // dtype-blind (elements are opaque leaves either way), so a single
    // sweep covers both dtypes of the shape/dtype pass.
    let shape_count = entangle_rules::ground::SHAPES.len();
    let choice_count = shape_count + entangle_rules::ground::INTS.len();
    for picks in entangle_rules::ground::assignments(vars.len(), choice_count) {
        let mut arena = Arena::new();
        let mut env = HashMap::new();
        let mut ok = true;
        for (slot, (&v, &p)) in vars.iter().zip(&picks).enumerate() {
            if p < shape_count {
                let dims: Vec<usize> = entangle_rules::ground::SHAPES[p]
                    .iter()
                    .map(|&d| d as usize)
                    .collect();
                let name = format!("v{slot}");
                match leaf_tensor(&mut arena, &name, dims) {
                    Ok(t) => {
                        env.insert(v, Binding::Tensor(t));
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            } else {
                env.insert(
                    v,
                    Binding::Int(entangle_rules::ground::INTS[p - shape_count]),
                );
            }
        }
        if !ok {
            skipped += 1;
            continue;
        }
        let l = eval_pattern(&mut arena, lhs, &env);
        let r = eval_pattern(&mut arena, rhs.ast(), &env);
        match (l, r) {
            (Ok((_, Some(lt))), Ok((_, Some(rt)))) => {
                let v = classify_tensors(&mut arena, &lt, &rt);
                evaluated += 1;
                worst = Some(match worst {
                    Some(w) => w.join(&v),
                    None => v,
                });
                best = Some(match best {
                    Some(b) => b.meet(&v),
                    None => v,
                });
            }
            _ => skipped += 1,
        }
    }
    (evaluated, skipped, worst, best)
}

/// Classifies one lemma.
fn classify_lemma(lemma: &Lemma, diagnostics: &mut Vec<Diagnostic>) -> RuleNumEntry {
    let rw = &lemma.rewrite;
    if rw.rhs().is_none() {
        // Dynamic applier.
        if let Some(hint) = rw.rhs_hint() {
            let k = pattern_app_count(rw.searcher().ast()) + pattern_app_count(hint.ast());
            let verdict = Verdict {
                class: NumClass::Reassoc,
                k,
            };
            return RuleNumEntry {
                id: lemma.id,
                name: lemma.name.clone(),
                mode: RuleMode::HintedDynamic,
                verdict,
                evaluated: 0,
                skipped: 0,
            };
        }
        diagnostics.push(
            Diagnostic::warning(
                codes::NUM_OPAQUE_DYNAMIC,
                Anchor::Lemma(lemma.name.clone()),
                "dynamic applier without an rhs_hint is opaque to the numeric analysis".to_owned(),
            )
            .with_suggestion(
                "attach a static sketch via with_rhs_hint so chains through this lemma \
             get a finite bound",
            ),
        );
        return RuleNumEntry {
            id: lemma.id,
            name: lemma.name.clone(),
            mode: RuleMode::OpaqueDynamic,
            verdict: Verdict::unknown(),
            evaluated: 0,
            skipped: 0,
        };
    }

    let (evaluated, skipped, worst, best) = sweep_static(lemma);
    let verdict = if evaluated == 0 {
        diagnostics.push(Diagnostic::warning(
            codes::NUM_UNCLASSIFIED,
            Anchor::Lemma(lemma.name.clone()),
            format!("no palette binding evaluates both sides ({skipped} skipped)"),
        ));
        Verdict::unknown()
    } else if rw.has_condition() {
        // The guard selects the sound instantiations; report the best
        // observed class. If even the best binding is value-changing, the
        // palette never witnessed the guard (e.g. `slice-full-identity`
        // needs `end == dim`): report "unclassified", not a forgery — the
        // chain analysis classifies actual guarded applications directly.
        let b = best.expect("evaluated > 0");
        if b.class == NumClass::ValueChanging {
            diagnostics.push(Diagnostic::warning(
                codes::NUM_UNCLASSIFIED,
                Anchor::Lemma(lemma.name.clone()),
                format!(
                    "no palette binding satisfies the rule's guard \
                     ({evaluated} evaluated, {skipped} skipped)"
                ),
            ));
            Verdict::unknown()
        } else {
            b
        }
    } else {
        let w = worst.expect("evaluated > 0");
        if w.class == NumClass::ValueChanging {
            diagnostics.push(
                Diagnostic::error(
                    codes::NUM_RULE_VALUE_CHANGING,
                    Anchor::Lemma(lemma.name.clone()),
                    "unconditioned rule changes the computed value on a palette binding".to_owned(),
                )
                .with_suggestion("the rewrite is numerically unsound; fix or remove it"),
            );
        }
        w
    };
    if verdict.class == NumClass::Reassoc && verdict.k > K_LOOSE {
        diagnostics.push(Diagnostic::warning(
            codes::NUM_LOOSE_BOUND,
            Anchor::Lemma(lemma.name.clone()),
            format!(
                "derived rounding-site count {} is not meaningful",
                verdict.k
            ),
        ));
    }
    RuleNumEntry {
        id: lemma.id,
        name: lemma.name.clone(),
        mode: RuleMode::Static,
        verdict,
        evaluated,
        skipped,
    }
}

/// Analyzes a lemma slice.
pub fn analyze_corpus(lemmas: &[Lemma]) -> CorpusNumAnalysis {
    let mut diagnostics = Vec::new();
    let entries = lemmas
        .iter()
        .map(|l| classify_lemma(l, &mut diagnostics))
        .collect();
    CorpusNumAnalysis {
        entries,
        diagnostics,
    }
}

/// Analyzes the full registered corpus.
pub fn analyze_registry() -> CorpusNumAnalysis {
    analyze_corpus(&registry())
}
