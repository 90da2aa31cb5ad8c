//! Growth classification: what each rule does to term size and variable
//! multiplicity, read off the patterns alone.

use entangle_egraph::{PatternAst, Rewrite, Var};
use entangle_lemmas::TensorAnalysis;

use crate::pattern_util::{count_vars, op_count};

/// Where a rule sits in the growth lattice.
///
/// The ordering is the scheduling contract: *simplifying* rules are never
/// throttled, *generative* rules in an interaction cycle are the backoff
/// candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrowthClass {
    /// RHS strictly smaller than LHS, no variable duplicated, nothing
    /// minted: applying it can only shrink extracted terms.
    Simplifying,
    /// Same operator count, no duplication, nothing minted (commutativity,
    /// associativity, operator swaps).
    SizePreserving,
    /// Adds operators, duplicates a variable, mints values the LHS does
    /// not bind, or is a dynamic applier without a static sketch.
    Generative,
}

impl GrowthClass {
    /// Stable lower-kebab name (JSON value / trace attribute).
    pub fn as_str(self) -> &'static str {
        match self {
            GrowthClass::Simplifying => "simplifying",
            GrowthClass::SizePreserving => "size-preserving",
            GrowthClass::Generative => "generative",
        }
    }
}

impl std::fmt::Display for GrowthClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The static classification of one rule.
#[derive(Debug, Clone)]
pub struct RuleClass {
    /// Rule name (registry lemma name).
    pub name: String,
    /// Growth class.
    pub class: GrowthClass,
    /// `true` when the rule carries a side condition.
    pub conditioned: bool,
    /// `true` when the right-hand side is a dynamic applier.
    pub dynamic: bool,
    /// `true` for a dynamic applier without an RHS sketch — invisible to
    /// every pattern-level pass (growth defaults to generative, the
    /// interaction graph gives it no out-edges).
    pub opaque: bool,
    /// `true` when the rule *expands* beyond its input structure: it
    /// duplicates an LHS variable or mints values the LHS does not bind.
    /// This — not mere operator-count growth — is the static blowup
    /// signature; structurally descending rules like `relu`-of-`concat`
    /// add an operator but recurse into strictly smaller arguments.
    pub expanding: bool,
    /// `true` when some LHS variable occurs more often in the RHS than in
    /// the LHS. Duplication is the *driver* criterion for generative
    /// cycles: each application multiplies the matched material, so a
    /// cycle through a duplicating rule re-feeds itself ever-larger terms.
    pub duplicating: bool,
    /// Operator applications in the LHS pattern.
    pub lhs_ops: usize,
    /// Operator applications in the effective RHS (`None` when opaque).
    pub rhs_ops: Option<usize>,
}

/// The effective right-hand side for static analysis: the real pattern
/// for universal/conditioned rules, the [`Rewrite::rhs_hint`] sketch for
/// hinted dynamic rules, `None` for opaque ones.
pub fn effective_rhs(rw: &Rewrite<TensorAnalysis>) -> Option<&entangle_egraph::Pattern> {
    rw.rhs().or_else(|| rw.rhs_hint())
}

/// Classifies one rule.
pub fn classify(rw: &Rewrite<TensorAnalysis>) -> RuleClass {
    let lhs: &PatternAst = rw.searcher().ast();
    let dynamic = rw.rhs().is_none();
    let lhs_ops = op_count(lhs);
    let Some(rhs) = effective_rhs(rw) else {
        return RuleClass {
            name: rw.name().to_owned(),
            class: GrowthClass::Generative,
            conditioned: rw.has_condition(),
            dynamic,
            opaque: true,
            expanding: true,
            duplicating: false,
            lhs_ops,
            rhs_ops: None,
        };
    };
    let rhs = rhs.ast();
    let rhs_ops = op_count(rhs);
    let (mut lhs_vars, mut rhs_vars) = (Vec::new(), Vec::new());
    count_vars(lhs, &mut lhs_vars);
    count_vars(rhs, &mut rhs_vars);
    let in_lhs = |v: &Var| lhs_vars.iter().find(|(w, _)| w == v).map(|&(_, n)| n);
    let duplicates = rhs_vars
        .iter()
        .any(|(v, n)| in_lhs(v).is_some_and(|m| *n > m));
    let mints = rhs_vars.iter().any(|(v, _)| in_lhs(v).is_none());
    let expanding = duplicates || mints;
    let class = if expanding || rhs_ops > lhs_ops {
        GrowthClass::Generative
    } else if rhs_ops == lhs_ops {
        GrowthClass::SizePreserving
    } else {
        GrowthClass::Simplifying
    };
    RuleClass {
        name: rw.name().to_owned(),
        class,
        conditioned: rw.has_condition(),
        dynamic,
        opaque: false,
        expanding,
        duplicating: duplicates,
        lhs_ops,
        rhs_ops: Some(rhs_ops),
    }
}
