//! Pass 3: the lemma-corpus soundness audit.
//!
//! Every rewrite in the registry is exercised against a fixed corpus of
//! *ground* seed expressions (concrete shapes, no pattern variables):
//!
//! 1. each lemma's left-hand side is searched over an e-graph seeded with
//!    the ground corpus;
//! 2. every match is applied **without unioning**
//!    ([`entangle_egraph::Rewrite::apply_match`]), so the produced
//!    right-hand sides stay in distinct e-classes;
//! 3. **shape soundness**: the matched class and every produced class must
//!    agree in inferred shape and dtype;
//! 4. **numeric soundness**: ground terms are extracted from both classes
//!    and evaluated through `entangle-runtime` on random leaf tensors; the
//!    results must agree within a tolerance *derived* from the structure
//!    of the compared terms (`derive_tolerance`) — pairs that perform
//!    no rounding arithmetic on either side must compare **bit-exact**.
//!
//! A lemma that never fires on the corpus is reported as a coverage warning
//! (`W101`), not an error — conditions legitimately reject some seeds.

use std::collections::HashMap;

use entangle_egraph::{AstSize, EGraph, ENode, Extractor, RecExpr};
use entangle_ir::{DType, Dim, Shape};
use entangle_lemmas::{decode_op, parse_ones_leaf, registry, Lemma, Meta, TensorAnalysis};
use entangle_runtime::{eval_op, random_ids, random_value, reassoc_rel_bound, Tolerance, Value};
use entangle_symbolic::SymExpr;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{codes, Anchor, Diagnostic, Severity};

/// Upper bound on the width of any single reduction or contraction the
/// ground seed corpus exercises. The widest real reduction in [`leaf_env`]
/// is 16 elements (`sum_all` over a `[2,4] ++ [2,4]` concat); 128 leaves
/// an 8× margin so corpus growth does not silently tighten the audit.
const MAX_REDUCE_WIDTH: u64 = 128;

/// Operators that perform no rounding arithmetic: pure data movement,
/// sign flips, and exact selections. Everything *not* on this list is
/// conservatively treated as one rounding site per `MAX_REDUCE_WIDTH`
/// lanes. The conservative direction matters: misclassifying an exact op
/// as rounding only loosens a (still tiny) relative bound, while the
/// reverse would demand bit-exactness from genuinely rounding code.
const EXACT_OPS: &[&str] = &[
    "concat",
    "slice",
    "transpose",
    "permute",
    "reshape",
    "pad",
    "identity",
    "ones_like",
    "neg",
    "relu",
    "step",
    "maximum",
    "embedding",
];

/// Audit configuration.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// RNG seed for leaf tensor values.
    pub seed: u64,
    /// Cap on audited matches per lemma (search can yield many bindings of
    /// the same seed; past this many, further matches add no signal).
    pub max_matches_per_lemma: usize,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions {
            seed: 0xE17A,
            max_matches_per_lemma: 8,
        }
    }
}

/// Per-lemma audit accounting.
#[derive(Debug, Clone)]
pub struct LemmaAuditEntry {
    /// Lemma name.
    pub name: String,
    /// Matches whose condition accepted and whose applier produced terms.
    pub matches: usize,
    /// Match/production pairs whose shapes could be compared.
    pub shape_checked: usize,
    /// Pairs evaluated numerically end to end.
    pub numeric_checked: usize,
}

/// The audit result: per-lemma accounting plus diagnostics.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// One entry per audited lemma, in registry order.
    pub entries: Vec<LemmaAuditEntry>,
    /// Soundness errors (`E101`/`E102`) and coverage warnings (`W101`).
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// `true` when no lemma failed a soundness check.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Total pairs compared numerically across all lemmas.
    pub fn numeric_checked(&self) -> usize {
        self.entries.iter().map(|e| e.numeric_checked).sum()
    }

    /// Renders every diagnostic, one per line.
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(None))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// How a leaf's random value is drawn.
#[derive(Clone, Copy)]
enum LeafKind {
    /// Uniform floats in (-1, 1).
    Uniform,
    /// Integer ids in `[0, high)` (embedding / cross-entropy indices).
    Ids(i64),
}

/// The ground leaf environment: every name the seed corpus mentions, with
/// shape, dtype and value-sampling kind.
fn leaf_env() -> Vec<(&'static str, Vec<i64>, DType, LeafKind)> {
    use DType::{F32, I64};
    use LeafKind::{Ids, Uniform};
    vec![
        // Block matmul / reduce-scatter seeds (Figure 2).
        ("A1", vec![4, 4], F32, Uniform),
        ("A2", vec![4, 4], F32, Uniform),
        ("B1", vec![4, 4], F32, Uniform),
        ("B2", vec![4, 4], F32, Uniform),
        ("C1", vec![4, 4], F32, Uniform),
        ("C2", vec![4, 4], F32, Uniform),
        // Column/row-parallel linear.
        ("X", vec![2, 8], F32, Uniform),
        ("W1", vec![8, 4], F32, Uniform),
        ("W2", vec![8, 4], F32, Uniform),
        ("XB", vec![2, 3, 8], F32, Uniform),
        ("Wa", vec![8, 4], F32, Uniform),
        ("Wb", vec![8, 4], F32, Uniform),
        // Element-wise over concat.
        ("X1", vec![2, 4], F32, Uniform),
        ("X2", vec![2, 4], F32, Uniform),
        // Norms.
        ("XR1", vec![2, 8], F32, Uniform),
        ("XR2", vec![2, 8], F32, Uniform),
        ("WN", vec![8], F32, Uniform),
        ("LN1", vec![2, 8], F32, Uniform),
        ("LN2", vec![2, 8], F32, Uniform),
        ("LW", vec![8], F32, Uniform),
        ("LB", vec![8], F32, Uniform),
        // Slice / concat algebra.
        ("SA", vec![4, 2], F32, Uniform),
        ("SB", vec![4, 2], F32, Uniform),
        ("XS", vec![8, 2], F32, Uniform),
        ("XSEQ", vec![8, 4], F32, Uniform),
        ("WSEQ", vec![4, 4], F32, Uniform),
        ("PX", vec![6, 2], F32, Uniform),
        // RoPE / attention.
        ("R1", vec![2, 4, 8], F32, Uniform),
        ("R2", vec![2, 4, 8], F32, Uniform),
        ("COS", vec![8, 8], F32, Uniform),
        ("SIN", vec![8, 8], F32, Uniform),
        ("Q1", vec![2, 4, 8], F32, Uniform),
        ("Q2", vec![2, 4, 8], F32, Uniform),
        ("K1", vec![2, 4, 8], F32, Uniform),
        ("K2", vec![2, 4, 8], F32, Uniform),
        ("V1", vec![2, 4, 8], F32, Uniform),
        ("V2", vec![2, 4, 8], F32, Uniform),
        // Embedding / cross-entropy.
        ("EW", vec![100, 8], F32, Uniform),
        ("I1", vec![2, 4], I64, Ids(100)),
        ("I2", vec![2, 4], I64, Ids(100)),
        ("EG1", vec![2, 4, 8], F32, Uniform),
        ("EG2", vec![2, 4, 8], F32, Uniform),
        ("LOG1", vec![2, 10], F32, Uniform),
        ("LOG2", vec![2, 10], F32, Uniform),
        ("IT1", vec![2], I64, Ids(10)),
        ("IT2", vec![2], I64, Ids(10)),
        // Scalars and losses.
        ("AUX", vec![], F32, Uniform),
        ("XV", vec![4], F32, Uniform),
        ("P1", vec![2, 4], F32, Uniform),
        ("P2", vec![2, 4], F32, Uniform),
        ("T1", vec![2, 4], F32, Uniform),
        ("T2", vec![2, 4], F32, Uniform),
        // Binary over concats / broadcast gate.
        ("CA", vec![2, 4], F32, Uniform),
        ("CB", vec![2, 4], F32, Uniform),
        ("CC", vec![2, 4], F32, Uniform),
        ("CD", vec![2, 4], F32, Uniform),
        ("H1", vec![2, 3, 4], F32, Uniform),
        ("H2", vec![2, 3, 4], F32, Uniform),
        ("G", vec![2, 3, 1], F32, Uniform),
        // Transpose / reductions.
        ("TA", vec![2, 6], F32, Uniform),
        ("TB", vec![2, 6], F32, Uniform),
        ("TX", vec![4, 6], F32, Uniform),
        ("MA", vec![3, 2, 5], F32, Uniform),
        ("MB", vec![3, 4, 5], F32, Uniform),
        ("NA", vec![2, 3], F32, Uniform),
        ("NB", vec![6, 3], F32, Uniform),
        ("DA", vec![2, 4], F32, Uniform),
        ("DB", vec![3, 4], F32, Uniform),
        // Aligned bias-add concat.
        ("BX1", vec![2, 8, 4], F32, Uniform),
        ("BX2", vec![2, 8, 4], F32, Uniform),
        ("BB1", vec![4], F32, Uniform),
        ("BB2", vec![4], F32, Uniform),
        // ones_like seeds and scalar linearity.
        ("L1", vec![], F32, Uniform),
        ("MMA", vec![2, 4], F32, Uniform),
        ("MMB", vec![4, 3], F32, Uniform),
        // RoPE tables matching a lone [2, 4, 8] activation.
        ("COS4", vec![4, 8], F32, Uniform),
        ("SIN4", vec![4, 8], F32, Uniform),
    ]
}

/// Ground seed expressions, mirroring the idioms of the distributed models:
/// every lemma family in the registry has at least one seed shaped to match
/// its left- (or right-) hand side.
fn seed_corpus() -> Vec<String> {
    let mut seeds: Vec<String> = base_seeds().iter().map(|s| (*s).to_owned()).collect();
    // Element-wise families: every unary gets concat, slice-inside and
    // slice-outside seeds (the `u-of-concat`, `u-of-slice`, `slice-of-u`
    // lemma triples).
    const UNARY: &[&str] = &[
        "cos",
        "sin",
        "exp",
        "sqrt",
        "rsqrt",
        "gelu",
        "gelu_grad",
        "neg",
        "relu",
        "sigmoid",
        "silu",
        "silu_grad",
        "step",
        "tanh",
        "ones_like",
    ];
    for u in UNARY {
        seeds.push(format!("({u} (concat X1 X2 0))"));
        seeds.push(format!("({u} (slice X1 0 0 1))"));
        seeds.push(format!("(slice ({u} X1) 0 0 1)"));
    }
    // Binary families: aligned concats, matching slices, slice outside.
    const BINARY: &[&str] = &["add", "sub", "mul", "div", "maximum"];
    for b in BINARY {
        seeds.push(format!("({b} (concat CA CB 0) (concat CC CD 0))"));
        seeds.push(format!("({b} (slice CA 0 0 1) (slice CB 0 0 1))"));
        seeds.push(format!("(slice ({b} CA CB) 0 0 1)"));
    }
    seeds
}

fn base_seeds() -> &'static [&'static str] {
    &[
        // Block matmul (Figure 2) and the reduce-scatter cover.
        "(matmul (concat A1 A2 1) (concat B1 B2 0))",
        "(add (matmul A1 B1) (matmul A2 B2))",
        "(add C1 C2)",
        "(concat (slice (add C1 C2) 0 0 2) (slice (add C1 C2) 0 2 4) 0)",
        // Column-parallel linear, batched variant, MLP with activation.
        "(matmul X (concat W1 W2 1))",
        "(concat (matmul X W1) (matmul X W2) 1)",
        "(matmul XB (concat Wa Wb 1))",
        "(gelu (matmul X W1))",
        // Element-wise over concat, both axes.
        "(gelu (concat X1 X2 0))",
        "(silu (concat X1 X2 1))",
        "(relu (concat X1 X2 0))",
        "(tanh (concat X1 X2 0))",
        "(exp (concat X1 X2 0))",
        "(neg (concat X1 X2 0))",
        "(sigmoid (concat X1 X2 0))",
        "(step (concat X1 X2 0))",
        "(gelu_grad (concat X1 X2 0))",
        "(silu_grad (concat X1 X2 0))",
        "(softmax (concat X1 X2 0) 1)",
        // Norms.
        "(rms_norm (concat XR1 XR2 0) WN)",
        "(layer_norm (concat LN1 LN2 0) LW LB)",
        // Slice-of-concat in all relative positions; merges; multiway.
        "(slice (concat SA SB 0) 0 1 3)",
        "(slice (concat SA SB 0) 0 5 7)",
        "(slice (concat SA SB 0) 0 2 6)",
        "(slice (concat SA SB 0) 1 0 1)",
        "(concat (slice XS 0 0 3) (slice XS 0 3 8) 0)",
        "(slice XS 0 0 8)",
        "(concat (concat (concat (slice XS 0 0 2) (slice XS 0 2 4) 0) (slice XS 0 4 6) 0) (slice XS 0 6 8) 0)",
        "(concat (matmul (slice XSEQ 0 0 4) WSEQ) (matmul (slice XSEQ 0 4 8) WSEQ) 0)",
        "(slice (pad PX 0 2 3) 0 2 8)",
        // RoPE and attention head split.
        "(rope (concat R1 R2 1) COS SIN)",
        "(attention (concat Q1 Q2 2) (concat K1 K2 2) (concat V1 V2 2) 4 1)",
        // Embedding family.
        "(embedding EW (concat I1 I2 1))",
        "(embedding_grad (concat I1 I2 1) (concat EG1 EG2 1) 100)",
        "(cross_entropy (concat LOG1 LOG2 0) (concat IT1 IT2 0))",
        // Scalar algebra and losses.
        "(add (scalar_mul AUX 1 2) (scalar_mul AUX 1 2))",
        "(scalar_mul (scalar_mul XV 2 3) 3 2)",
        "(scalar_mul XV 2 8)",
        "(neg XV)",
        "(mse_loss (concat P1 P2 0) (concat T1 T2 0))",
        // Binary over concats; broadcast gate.
        "(add (concat CA CB 0) (concat CC CD 0))",
        "(sub (concat CA CB 0) (concat CC CD 0))",
        "(mul (concat CA CB 0) (concat CC CD 0))",
        "(div (concat CA CB 0) (concat CC CD 0))",
        "(maximum (concat CA CB 0) (concat CC CD 0))",
        "(mul (concat H1 H2 2) G)",
        "(add (concat BX1 BX2 2) (concat BB1 BB2 0))",
        // Transpose and reductions.
        "(transpose (transpose TX 0 1) 0 1)",
        "(transpose (concat TA TB 0) 0 1)",
        "(sum_dim (concat MA MB 1) 0 0)",
        "(sum_dim (concat MA MB 1) 0 1)",
        "(sum_all (concat X1 X2 0))",
        "(mean_all (concat NA NB 0))",
        "(mean_dim (concat DA DB 0) 1 1)",
        "(sum_dim (scalar_mul X1 3 2) 0 0)",
        // ones_like canonicalization and scalar linearity.
        "(ones_like L1)",
        "(ones_like X1)",
        "(mul X1 (ones_like X1))",
        "(mul (ones_like X1) X1)",
        "(matmul MMA (scalar_mul MMB 2 3))",
        "(matmul (scalar_mul MMA 2 3) MMB)",
        "(identity X1)",
        // Associativity.
        "(add (add CA CB) CC)",
        "(add CA (add CB CC))",
        "(concat (concat CA CB 0) CC 0)",
        "(concat CA (concat CB CC 0) 0)",
        // Broadcast gates on either side, and rank-mismatched concats.
        "(add (concat H1 H2 2) G)",
        "(add G (concat H1 H2 2))",
        "(mul G (concat H1 H2 2))",
        "(mul (concat BX1 BX2 2) (concat BB1 BB2 0))",
        // scalar_mul algebra.
        "(scalar_mul (concat X1 X2 0) 1 2)",
        "(scalar_mul (slice X1 0 0 1) 1 2)",
        "(slice (scalar_mul X1 1 2) 0 0 1)",
        "(scalar_mul (add CA CB) 1 2)",
        "(sum_all (scalar_mul X1 1 2))",
        "(mul (scalar_mul CA 2 3) CB)",
        // Attention: batch split and batch slices.
        "(attention (concat Q1 Q2 0) (concat K1 K2 0) (concat V1 V2 0) 4 1)",
        "(attention (slice Q1 0 0 1) (slice K1 0 0 1) (slice V1 0 0 1) 4 1)",
        // RoPE: batch/hidden concats and the slice duals.
        "(rope (concat R1 R2 0) COS4 SIN4)",
        "(rope (concat R1 R2 2) (concat COS4 COS4 1) (concat SIN4 SIN4 1))",
        "(rope (slice R1 0 0 1) COS4 SIN4)",
        "(rope (slice R1 1 0 2) (slice COS4 0 0 2) (slice SIN4 0 0 2))",
        "(rope (slice R1 2 0 4) (slice COS4 1 0 4) (slice SIN4 1 0 4))",
        // Embedding slices.
        "(embedding EW (slice I1 1 0 2))",
        "(slice (embedding EW I1) 0 0 1)",
        // Matmul: row split, slice duals.
        "(matmul (concat A1 A2 0) B1)",
        "(matmul (slice X 0 0 1) W1)",
        "(matmul X (slice W1 1 0 2))",
        "(slice (matmul X W1) 0 0 1)",
        // Norms over slices.
        "(layer_norm (slice LN1 0 0 1) LW LB)",
        "(slice (layer_norm LN1 LW LB) 0 0 1)",
        "(rms_norm (slice XR1 0 0 1) WN)",
        "(slice (rms_norm XR1 WN) 0 0 1)",
        // Reductions / movement over slices; sum over the concat dim.
        "(mean_dim (slice DA 0 0 1) 1 1)",
        "(softmax (slice X1 0 0 1) 1)",
        "(sum_dim (concat MA MB 1) 1 0)",
        "(transpose (slice TX 0 0 2) 0 1)",
        "(slice (slice XS 0 0 4) 0 1 3)",
        // Degenerate width-0 reductions: lemma matching, extraction and
        // ground evaluation must stay panic-free when there is nothing to
        // reduce (sum of empty = 0, mean of empty = 0 by convention).
        "(sum_dim (slice X1 0 0 0) 0 0)",
        "(mean_dim (slice X1 0 0 0) 0 1)",
        "(sum_all (slice X1 0 0 0))",
        "(mean_all (slice X1 0 0 0))",
    ]
}

/// Audits the full lemma registry with the given options.
pub fn audit_registry(opts: &AuditOptions) -> AuditReport {
    audit_lemmas(&registry(), opts)
}

/// Audits an arbitrary lemma slice against the ground seed corpus.
pub fn audit_lemmas(lemmas: &[Lemma], opts: &AuditOptions) -> AuditReport {
    let mut analysis = TensorAnalysis::default();
    let env = leaf_env();
    for (name, dims, dtype, _) in &env {
        analysis.register_leaf(name, Shape::of(dims), *dtype);
    }
    let mut eg: EGraph<TensorAnalysis> = EGraph::with_analysis(analysis);
    for seed in seed_corpus() {
        let expr: RecExpr = seed
            .parse()
            .unwrap_or_else(|e| panic!("seed {seed:?}: {e}"));
        eg.add_expr(&expr);
    }
    eg.rebuild();

    // Fixed random leaf values: the same tensor backs every occurrence of a
    // leaf, so both sides of a lemma see identical inputs.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut leaves: HashMap<&str, Value> = HashMap::new();
    for (name, dims, _, kind) in &env {
        let udims: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
        let value = match kind {
            LeafKind::Uniform => random_value(&mut rng, &udims),
            LeafKind::Ids(high) => random_ids(&mut rng, &udims, *high),
        };
        leaves.insert(name, value);
    }

    let mut report = AuditReport::default();
    for lemma in lemmas {
        let mut entry = LemmaAuditEntry {
            name: lemma.name.clone(),
            matches: 0,
            shape_checked: 0,
            numeric_checked: 0,
        };
        // Search iterates e-classes in hash order; sort by class id (seed
        // insertion order) so the per-lemma match cap selects the same
        // matches on every run.
        let mut matches = lemma.rewrite.search(&eg);
        matches.sort_by_key(|m| m.eclass.index());
        'matches: for m in &matches {
            for subst in &m.substs {
                if entry.matches >= opts.max_matches_per_lemma {
                    break 'matches;
                }
                let Some(produced) = lemma.rewrite.apply_match(&mut eg, m.eclass, subst) else {
                    continue; // condition rejected this binding
                };
                if produced.is_empty() {
                    continue; // dynamic applier declined
                }
                entry.matches += 1;
                eg.rebuild();
                let lhs_meta = eg[eg.find(m.eclass)].data.clone();
                let extractor = Extractor::new(&eg, AstSize);
                let lhs_term = extractor.find_best(m.eclass).map(|(_, t)| t);
                for rid in produced {
                    check_pair(
                        &mut report,
                        &mut entry,
                        lemma,
                        &eg,
                        &extractor,
                        &lhs_meta,
                        lhs_term.as_ref(),
                        rid,
                        &leaves,
                    );
                }
            }
        }
        if entry.matches == 0 {
            report.diagnostics.push(Diagnostic::warning(
                codes::LEMMA_UNCOVERED,
                Anchor::Lemma(lemma.name.clone()),
                "never exercised by the audit's ground seed corpus",
            ));
        }
        report.entries.push(entry);
    }
    report
}

/// Compares one (matched class, produced class) pair for shape and numeric
/// soundness.
#[allow(clippy::too_many_arguments)]
fn check_pair(
    report: &mut AuditReport,
    entry: &mut LemmaAuditEntry,
    lemma: &Lemma,
    eg: &EGraph<TensorAnalysis>,
    extractor: &Extractor<'_, TensorAnalysis, AstSize>,
    lhs_meta: &Meta,
    lhs_term: Option<&RecExpr>,
    rid: entangle_egraph::Id,
    leaves: &HashMap<&str, Value>,
) {
    let rhs_meta = eg[eg.find(rid)].data.clone();
    if let (Some(ls), Some(rs)) = (&lhs_meta.shape, &rhs_meta.shape) {
        entry.shape_checked += 1;
        if ls != rs || lhs_meta.dtype != rhs_meta.dtype {
            report.diagnostics.push(Diagnostic::error(
                codes::LEMMA_SHAPE_UNSOUND,
                Anchor::Lemma(lemma.name.clone()),
                format!(
                    "rewrites a {} {} term into a {} {} term",
                    ls,
                    lhs_meta.dtype.map_or("?".into(), |d| d.to_string()),
                    rs,
                    rhs_meta.dtype.map_or("?".into(), |d| d.to_string()),
                ),
            ));
            return; // a numeric comparison of mismatched shapes is noise
        }
    }
    let (Some(lhs_term), Some((_, rhs_term))) = (lhs_term, extractor.find_best(rid)) else {
        return;
    };
    let (Ok(lv), Ok(rv)) = (
        eval_ground(lhs_term, |name| leaves.get(name)),
        eval_ground(&rhs_term, |name| leaves.get(name)),
    ) else {
        return; // not evaluatable (symbolic scalars, unknown leaves)
    };
    if !lv.data().iter().all(|x| x.is_finite()) || !rv.data().iter().all(|x| x.is_finite()) {
        return; // NaN/inf noise, not a lemma soundness signal
    }
    entry.numeric_checked += 1;
    let tol = derive_tolerance(lhs_term, &rhs_term);
    if !lv.within(&rv, &tol) {
        let demanded = match &tol {
            Tolerance::Exact => "bit-exact (no rounding ops)".to_owned(),
            Tolerance::Relative(b) => format!("derived rel ≤ {b:.3e}"),
        };
        let diff = lv
            .max_abs_diff(&rv)
            .map_or("shape mismatch".to_owned(), |d| {
                format!("max |Δ| = {d:.3e}")
            });
        report.diagnostics.push(
            Diagnostic::error(
                codes::LEMMA_NUMERIC_UNSOUND,
                Anchor::Lemma(lemma.name.clone()),
                format!(
                    "numeric mismatch on random tensors ({diff}, demanded {demanded}): \
                     {lhs_term} vs {rhs_term}"
                ),
            )
            .with_suggestion("the rewrite changes the computed value; fix or remove the lemma"),
        );
    }
}

/// Derives the comparison tolerance for one term pair from term structure:
/// each op application outside [`EXACT_OPS`] on *either* side contributes
/// `MAX_REDUCE_WIDTH` rounding sites, and the pair must agree within
/// [`entangle_runtime::reassoc_rel_bound`] of the total. Zero rounding
/// sites means the pair is pure data movement and must agree **bit-exact**
/// ([`Tolerance::Exact`]).
fn derive_tolerance(lhs: &RecExpr, rhs: &RecExpr) -> Tolerance {
    let k = (rounding_ops(lhs) + rounding_ops(rhs)).saturating_mul(MAX_REDUCE_WIDTH);
    if k == 0 {
        Tolerance::Exact
    } else {
        Tolerance::Relative(reassoc_rel_bound(k))
    }
}

/// Counts op applications that may round: any applied operator not on the
/// [`EXACT_OPS`] list. Leaves (including synthetic `~ones[...]`) and
/// scalar attributes are free.
fn rounding_ops(expr: &RecExpr) -> u64 {
    expr.nodes()
        .iter()
        .filter(|node| {
            matches!(node, ENode::Op(sym, ch)
                if !ch.is_empty() && !EXACT_OPS.contains(&sym.as_str()))
        })
        .count() as u64
}

/// Evaluates a *ground* term (no pattern variables) bottom-up through the
/// runtime interpreter: the `f64` meaning of a clean expression. `leaf`
/// resolves a tensor name to its value; synthetic `~ones[...]` leaves
/// evaluate to ones tensors; scalar children are attributes, not values.
///
/// # Errors
///
/// Describes the first subterm, in postorder, without a value: an unknown
/// or malformed leaf, an undecodable application, operands the runtime
/// rejects, a scalar where a tensor is needed.
pub fn eval_ground<'v>(
    expr: &RecExpr,
    leaf: impl Fn(&str) -> Option<&'v Value>,
) -> Result<Value, String> {
    // A tensor slot: its value, and what `decode_op` reads off it as a child
    // (the runtime is dtype-erased; the decoder only reads scalars).
    let tensor = |v: Value| {
        let shape = Shape(v.shape().iter().map(|&d| Dim::from(d)).collect());
        (Meta::tensor(shape, DType::F32), Some(v))
    };
    let mut slots: Vec<(Meta, Option<Value>)> = Vec::with_capacity(expr.len());
    for node in expr.nodes() {
        let slot = match node {
            ENode::Int(i) => (Meta::scalar(SymExpr::constant(*i)), None),
            ENode::Sym(e) => (Meta::scalar(e.clone()), None),
            ENode::Op(sym, ch) if ch.is_empty() => {
                let name = sym.as_str();
                let ones = parse_ones_leaf(name)
                    .map_err(|_| format!("unparseable synthetic leaf {name:?}"))?;
                tensor(match ones {
                    Some(dims) => dims
                        .iter()
                        .try_fold(1usize, |n, &d| n.checked_mul(d))
                        .and_then(|n| Value::new(dims, vec![1.0; n]))
                        .ok_or_else(|| format!("{name:?} overflows"))?,
                    None => leaf(name)
                        .ok_or_else(|| format!("unknown leaf {name:?}"))?
                        .clone(),
                })
            }
            ENode::Op(sym, ch) => {
                let metas: Vec<&Meta> = ch.iter().map(|&c| &slots[c.index()].0).collect();
                let (op, tensor_count) = decode_op(sym.as_str(), &metas)
                    .ok_or_else(|| format!("cannot decode {}", sym.as_str()))?;
                let inputs: Vec<&Value> = ch[..tensor_count]
                    .iter()
                    .map(|&c| {
                        slots[c.index()]
                            .1
                            .as_ref()
                            .ok_or_else(|| "tensor child has no value".to_owned())
                    })
                    .collect::<Result<_, _>>()?;
                tensor(eval_op(&op, &inputs).map_err(|e| e.to_string())?)
            }
        };
        slots.push(slot);
    }
    slots
        .pop()
        .and_then(|(_, v)| v)
        .ok_or_else(|| "root has no value".to_owned())
}
