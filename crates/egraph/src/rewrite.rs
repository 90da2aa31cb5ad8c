//! Rewrite rules (the paper's *lemmas*) and their appliers.

use std::fmt;
use std::sync::Arc;

use crate::egraph::{Analysis, EGraph};
use crate::explain::Justification;
use crate::machine::RuleMatches;
use crate::node::ParseExprError;
use crate::pattern::{Pattern, Subst, Var};
use crate::unionfind::Id;

use crate::hashing::{fold as fp_fold, FxHashSet};

/// The cross-iteration memo of already-applied match fingerprints kept by
/// [`Rewrite::apply_deduped`] (one per rule).
pub type AppliedMemo = FxHashSet<u64>;

/// The right-hand side of a rewrite: given a matched e-class and bindings,
/// produce the e-classes to union with it.
///
/// [`Pattern`] implements this by instantiation. Conditioned lemmas
/// (Listing 4, lines 10–21) use [`Rewrite::parse_dyn`], whose closure plays
/// the role of the paper's `|egraph, subst| { ... }` block.
pub trait Applier<A: Analysis>: Send + Sync {
    /// Applies to one match; returns ids to union with `eclass`.
    fn apply_one(&self, egraph: &mut EGraph<A>, eclass: Id, subst: &Subst) -> Vec<Id>;
}

impl<A: Analysis> Applier<A> for Pattern {
    fn apply_one(&self, egraph: &mut EGraph<A>, _eclass: Id, subst: &Subst) -> Vec<Id> {
        vec![self.ast().instantiate(egraph, subst)]
    }
}

/// A dynamic applier backed by a closure.
pub struct DynApplier<A: Analysis> {
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&mut EGraph<A>, Id, &Subst) -> Vec<Id> + Send + Sync>,
}

impl<A: Analysis> Applier<A> for DynApplier<A> {
    fn apply_one(&self, egraph: &mut EGraph<A>, eclass: Id, subst: &Subst) -> Vec<Id> {
        (self.f)(egraph, eclass, subst)
    }
}

/// A side condition gating a conditional rewrite.
///
/// Receives the e-graph (read-only), the matched e-class and the bindings.
pub type Condition<A> = Arc<dyn Fn(&EGraph<A>, Id, &Subst) -> bool + Send + Sync>;

/// A named rewrite rule: searcher pattern + optional condition + applier.
///
/// # Examples
///
/// A universal lemma in the paper's exact surface syntax:
///
/// ```
/// use entangle_egraph::Rewrite;
///
/// let rw: Rewrite<()> = Rewrite::parse(
///     "matmul-first-concat-commutative",
///     "(matmul (concat ?A0 ?A1 0) ?B)",
///     "(concat (matmul ?A0 ?B) (matmul ?A1 ?B) 0)",
/// ).unwrap();
/// assert_eq!(rw.name(), "matmul-first-concat-commutative");
/// ```
pub struct Rewrite<A: Analysis> {
    name: String,
    searcher: Pattern,
    condition: Option<Condition<A>>,
    applier: Arc<dyn Applier<A>>,
    /// The right-hand side as a pattern, when the applier is one (universal
    /// and conditioned lemmas); `None` for dynamic appliers. Lets proof
    /// checkers validate rule steps by pure pattern matching.
    rhs: Option<Pattern>,
    /// Static *sketch* of a dynamic applier's output, for rule analysis
    /// only ([`Rewrite::with_rhs_hint`]). Never used to apply or prove
    /// anything; variables not bound by the left-hand side stand for
    /// values the applier mints (folded scalar constants, synthetic
    /// leaves).
    rhs_hint: Option<Pattern>,
}

impl<A: Analysis> Clone for Rewrite<A> {
    fn clone(&self) -> Self {
        Rewrite {
            name: self.name.clone(),
            searcher: self.searcher.clone(),
            condition: self.condition.clone(),
            applier: self.applier.clone(),
            rhs: self.rhs.clone(),
            rhs_hint: self.rhs_hint.clone(),
        }
    }
}

impl<A: Analysis> fmt::Debug for Rewrite<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rewrite({} : {})", self.name, self.searcher)
    }
}

impl<A: Analysis> Rewrite<A> {
    /// Parses a *universal* lemma `lhs => rhs` (both sides are patterns).
    ///
    /// # Errors
    ///
    /// Returns an error when either side fails to parse or the right-hand
    /// side uses a variable not bound by the left.
    pub fn parse(name: &str, lhs: &str, rhs: &str) -> Result<Self, ParseExprError> {
        let searcher: Pattern = lhs.parse()?;
        let applier: Pattern = rhs.parse()?;
        let bound = searcher.vars();
        for v in applier.vars() {
            if !bound.contains(&v) {
                return Err(ParseExprError::new(format!(
                    "rewrite {name}: rhs variable {v} not bound by lhs"
                )));
            }
        }
        Ok(Rewrite {
            name: name.to_owned(),
            searcher,
            condition: None,
            rhs: Some(applier.clone()),
            rhs_hint: None,
            applier: Arc::new(applier),
        })
    }

    /// Parses a *conditioned* lemma: `lhs => rhs` gated by `condition`.
    pub fn parse_if(
        name: &str,
        lhs: &str,
        rhs: &str,
        condition: impl Fn(&EGraph<A>, Id, &Subst) -> bool + Send + Sync + 'static,
    ) -> Result<Self, ParseExprError> {
        let mut rw = Self::parse(name, lhs, rhs)?;
        rw.condition = Some(Arc::new(condition));
        Ok(rw)
    }

    /// Parses a lemma whose right-hand side is computed dynamically — the
    /// paper's `|egraph, subst| { ... }` form. The closure returns the ids
    /// to union with the matched class (empty = does not apply).
    pub fn parse_dyn(
        name: &str,
        lhs: &str,
        applier: impl Fn(&mut EGraph<A>, Id, &Subst) -> Vec<Id> + Send + Sync + 'static,
    ) -> Result<Self, ParseExprError> {
        Ok(Rewrite {
            name: name.to_owned(),
            searcher: lhs.parse()?,
            condition: None,
            rhs: None,
            rhs_hint: None,
            applier: Arc::new(DynApplier {
                f: Arc::new(applier),
            }),
        })
    }

    /// The rule's name (lemma id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The left-hand-side pattern.
    pub fn searcher(&self) -> &Pattern {
        &self.searcher
    }

    /// The right-hand side as a pattern, when the applier is one (`None`
    /// for dynamic appliers).
    pub fn rhs(&self) -> Option<&Pattern> {
        self.rhs.as_ref()
    }

    /// Attaches a static right-hand-side sketch to a dynamic rewrite, for
    /// the `entangle-rules` corpus analysis. Unlike [`Rewrite::parse`],
    /// variables not bound by the left-hand side are allowed: they stand
    /// for values the applier computes (e.g. a gcd-reduced scalar).
    ///
    /// # Errors
    ///
    /// Returns an error when the sketch fails to parse.
    pub fn with_rhs_hint(mut self, hint: &str) -> Result<Self, ParseExprError> {
        self.rhs_hint = Some(hint.parse()?);
        Ok(self)
    }

    /// The static sketch attached via [`Rewrite::with_rhs_hint`], if any.
    pub fn rhs_hint(&self) -> Option<&Pattern> {
        self.rhs_hint.as_ref()
    }

    /// `true` when the rewrite is gated by a side condition.
    pub fn has_condition(&self) -> bool {
        self.condition.is_some()
    }

    /// Searches the e-graph for matches of the left-hand side.
    pub fn search(&self, egraph: &EGraph<A>) -> Vec<crate::pattern::SearchMatches> {
        self.searcher.search(egraph)
    }

    /// Like [`Rewrite::search`], also reporting `(visited, skipped)` class
    /// counts from the per-symbol e-matching fast path.
    pub fn search_with_stats(
        &self,
        egraph: &EGraph<A>,
    ) -> (Vec<crate::pattern::SearchMatches>, u64, u64) {
        self.searcher.search_with_stats(egraph)
    }

    /// Applies the rule to a single match *without* unioning: checks the
    /// condition, runs the applier, and returns the ids it produced
    /// (`None` when the condition rejects the match).
    ///
    /// This is the instrumentation hook for lemma auditing — the produced
    /// right-hand sides can be inspected (extracted, evaluated) while they
    /// are still distinct classes from the matched left-hand side.
    pub fn apply_match(
        &self,
        egraph: &mut EGraph<A>,
        eclass: Id,
        subst: &Subst,
    ) -> Option<Vec<Id>> {
        if let Some(cond) = &self.condition {
            if !cond(egraph, eclass, subst) {
                return None;
            }
        }
        Some(self.applier.apply_one(egraph, eclass, subst))
    }

    /// Applies this rule's matches from one shared search ([`RuleMatches`],
    /// register files over `vars` — see [`crate::CompiledMatcher::vars`]);
    /// returns the number of unions that changed the e-graph (the
    /// per-lemma count behind Figure 6).
    ///
    /// `applied` is a cross-iteration memo of already-applied matches. The
    /// standard schedule re-searches the whole e-graph every iteration, so
    /// every match found in iteration `k` is found again in iterations
    /// `k+1..`; re-applying it is a pure no-op (the right-hand side is
    /// already present and the union is already made) that still pays
    /// condition evaluation, instantiation, and hash-cons lookups.
    /// `applied` carries fingerprints of matches this rule has successfully
    /// applied — under canonical class ids, so a fingerprint survives
    /// unions of its bindings — and those are skipped without allocating.
    ///
    /// Only *successful* applications are memoized: a match rejected by its
    /// condition, or whose dynamic applier produced nothing, is retried in
    /// later iterations (both can start succeeding as analysis data and the
    /// e-graph grow). Skipping is therefore behavior-preserving: the final
    /// e-graph, the per-rule `applications` counts, and the saturation
    /// fixpoint are those of applying every match — only wasted work is
    /// removed.
    ///
    /// `subst` is scratch: refilled per match that reaches the condition,
    /// so one allocation serves the whole run.
    pub fn apply_deduped(
        &self,
        egraph: &mut EGraph<A>,
        matches: &RuleMatches,
        vars: &[Var],
        applied: &mut AppliedMemo,
        subst: &mut Subst,
    ) -> usize {
        let mut changed = 0;
        for (eclass, ids) in matches.iter() {
            // The memo is per rule and a pattern binds its variables in a
            // fixed (first-occurrence) order, so the fingerprint only needs
            // the canonical class ids: matched class first, then each
            // binding in order. The fold is FxHash-style — this hash runs
            // once per (match, iteration) pair, millions of times on deep
            // models, where SipHash is measurable.
            let mut fp = fp_fold(0, egraph.find(eclass).index() as u64);
            for &id in ids {
                fp = fp_fold(fp, egraph.find(id).index() as u64);
            }
            if applied.contains(&fp) {
                continue;
            }
            subst.refill(vars, ids);
            if let Some(cond) = &self.condition {
                if !cond(egraph, eclass, subst) {
                    continue;
                }
            }
            let produced = self.applier.apply_one(egraph, eclass, subst);
            if produced.is_empty() {
                continue;
            }
            applied.insert(fp);
            // Union each produced id with the *instantiated left-hand side*
            // rather than the matched class id: both endpoints are then
            // term-faithful (the LHS instantiation is the literal term the
            // lemma matched, modulo canonical bindings), which is what proof
            // extraction needs. The instantiation lands in `eclass`'s class,
            // so the unions are semantically identical.
            let lhs = self.searcher.ast().instantiate(egraph, subst);
            for id in produced {
                // An already-equal pair is no union: build its
                // justification (a name and a substitution copy) only for a
                // union that happens.
                if egraph.find(lhs) == egraph.find(id) {
                    continue;
                }
                egraph.union_with(
                    lhs,
                    id,
                    Justification::Rule {
                        name: self.name.clone(),
                        subst: subst.clone(),
                    },
                );
                changed += 1;
            }
        }
        changed
    }
}
