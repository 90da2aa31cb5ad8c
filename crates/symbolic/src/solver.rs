//! Fourier–Motzkin-based decision procedure for the affine fragment.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{SymExpr, SymVar};

/// A comparison relation between two symbolic expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `lhs == rhs`
    Eq,
    /// `lhs != rhs`
    Ne,
    /// `lhs <= rhs`
    Le,
    /// `lhs < rhs`
    Lt,
    /// `lhs >= rhs`
    Ge,
    /// `lhs > rhs`
    Gt,
}

impl Rel {
    /// The relation with both sides swapped (`a R b` ⇔ `b R.flip() a`).
    pub fn flip(self) -> Rel {
        match self {
            Rel::Eq => Rel::Eq,
            Rel::Ne => Rel::Ne,
            Rel::Le => Rel::Ge,
            Rel::Lt => Rel::Gt,
            Rel::Ge => Rel::Le,
            Rel::Gt => Rel::Lt,
        }
    }

    /// The logical negation of the relation.
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Le => Rel::Gt,
            Rel::Lt => Rel::Ge,
            Rel::Ge => Rel::Lt,
            Rel::Gt => Rel::Le,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rel::Eq => "==",
            Rel::Ne => "!=",
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Ge => ">=",
            Rel::Gt => ">",
        };
        f.write_str(s)
    }
}

/// The verdict of a symbolic query.
///
/// Both `Proved` and `Refuted` are sound; `Unknown` means the affine fragment
/// could not settle the query and the caller must be conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    /// The relation holds under every assignment satisfying the assumptions.
    Proved,
    /// The negated relation holds under every satisfying assignment.
    Refuted,
    /// Neither could be established.
    Unknown,
}

impl Truth {
    /// `true` only when the query was positively proved.
    pub fn is_proved(self) -> bool {
        self == Truth::Proved
    }
}

/// A normalized linear constraint `expr ⩽ 0` (when `strict` is false) or
/// `expr < 0` (when `strict` is true), with `i128` coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LinIneq {
    coeffs: BTreeMap<SymVar, i128>,
    constant: i128,
    strict: bool,
}

impl LinIneq {
    fn from_expr(e: &SymExpr, strict: bool) -> Self {
        LinIneq {
            coeffs: e.terms.iter().map(|(v, c)| (*v, *c as i128)).collect(),
            constant: e.constant as i128,
            strict,
        }
    }

    fn is_trivial(&self) -> Option<bool> {
        if self.coeffs.is_empty() {
            Some(if self.strict {
                self.constant < 0
            } else {
                self.constant <= 0
            })
        } else {
            None
        }
    }

    fn reduce(&mut self) {
        self.coeffs.retain(|_, c| *c != 0);
        let mut g: i128 = self.constant.unsigned_abs() as i128;
        for c in self.coeffs.values() {
            g = gcd(g, c.unsigned_abs() as i128);
        }
        if g > 1 {
            for c in self.coeffs.values_mut() {
                *c /= g;
            }
            self.constant /= g;
        }
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The symbolic context: a variable interner plus a set of assumed linear
/// constraints, with a query interface.
///
/// This is the stand-in for the paper's SMT-LIB encoding (§5 "Handling
/// Symbolic Scalars"). Lemma conditions call [`SymCtx::check`] to decide
/// whether, e.g., a slice boundary coincides with a concat seam.
///
/// # Examples
///
/// ```
/// use entangle_symbolic::{SymCtx, SymExpr, Rel, Truth};
///
/// let mut ctx = SymCtx::new();
/// let a = ctx.var("a");
/// let b = ctx.var("b");
/// ctx.assume(a.clone(), Rel::Le, b.clone());
/// assert_eq!(
///     ctx.check(&(a + SymExpr::constant(1)), Rel::Le, &(b + SymExpr::constant(1))),
///     Truth::Proved
/// );
/// ```
#[derive(Debug, Default)]
pub struct SymCtx {
    names: Vec<String>,
    /// Assumed constraints, each `expr (<|<=) 0`.
    assumptions: Vec<LinIneq>,
    /// Verdict memo for non-constant queries, keyed by the normalized
    /// difference. With the assumptions fixed, `check` is a pure function
    /// of `(lhs - rhs, rel)`, and saturation re-asks the same seam/bound
    /// queries on every iteration — Fourier–Motzkin is the dominant cost
    /// of the conditional lemmas without this memo. Invalidated by
    /// [`SymCtx::assume`]. Behind a `Mutex` only so a context stays `Sync`
    /// (the checker runs on one thread, so the lock is uncontended).
    cache: std::sync::Mutex<std::collections::HashMap<(SymExpr, Rel), Truth>>,
}

impl Clone for SymCtx {
    fn clone(&self) -> Self {
        SymCtx {
            names: self.names.clone(),
            assumptions: self.assumptions.clone(),
            cache: std::sync::Mutex::new(self.cache.lock().expect("cache lock").clone()),
        }
    }
}

impl SymCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a fresh symbolic variable and returns it as an expression.
    ///
    /// Calling `var` twice with the same name returns the *same* variable, so
    /// graphs captured separately can share symbols by name.
    pub fn var(&mut self, name: &str) -> SymExpr {
        if let Some(idx) = self.names.iter().position(|n| n == name) {
            return SymExpr::from_var(SymVar(idx as u32));
        }
        let idx = self.names.len() as u32;
        self.names.push(name.to_owned());
        SymExpr::from_var(SymVar(idx))
    }

    /// The interned name of a variable, if it exists.
    pub fn name(&self, var: SymVar) -> Option<&str> {
        self.names.get(var.0 as usize).map(String::as_str)
    }

    /// Records the user constraint `lhs rel rhs`.
    ///
    /// `Ne` assumptions are not representable in the conjunctive fragment and
    /// are ignored (this only ever costs completeness, never soundness).
    pub fn assume(&mut self, lhs: SymExpr, rel: Rel, rhs: SymExpr) {
        let diff = lhs - rhs; // constraint is about `diff ⩽/⩾/== 0`
        match rel {
            Rel::Eq => {
                self.push(LinIneq::from_expr(&diff, false));
                self.push(LinIneq::from_expr(&(-diff), false));
            }
            Rel::Le => self.push(LinIneq::from_expr(&diff, false)),
            Rel::Lt => self.push(LinIneq::from_expr(&diff, true)),
            Rel::Ge => self.push(LinIneq::from_expr(&(-diff), false)),
            Rel::Gt => self.push(LinIneq::from_expr(&(-diff), true)),
            Rel::Ne => {}
        }
    }

    fn push(&mut self, mut c: LinIneq) {
        c.reduce();
        self.assumptions.push(c);
        self.cache.lock().expect("cache lock").clear();
    }

    /// Decides whether `lhs rel rhs` holds under the recorded assumptions.
    ///
    /// Constant-only queries are decided exactly. Symbolic queries are
    /// decided by refuting the negation with Fourier–Motzkin elimination:
    /// the answer is [`Truth::Proved`] if assumptions ∧ ¬(lhs rel rhs) is
    /// infeasible over the rationals, [`Truth::Refuted`] if assumptions ∧
    /// (lhs rel rhs) is infeasible, otherwise [`Truth::Unknown`].
    pub fn check(&self, lhs: &SymExpr, rel: Rel, rhs: &SymExpr) -> Truth {
        let diff = lhs.clone() - rhs.clone();
        if let Some(c) = diff.as_const() {
            let holds = match rel {
                Rel::Eq => c == 0,
                Rel::Ne => c != 0,
                Rel::Le => c <= 0,
                Rel::Lt => c < 0,
                Rel::Ge => c >= 0,
                Rel::Gt => c > 0,
            };
            return if holds { Truth::Proved } else { Truth::Refuted };
        }

        let key = (diff, rel);
        if let Some(t) = self.cache.lock().expect("cache lock").get(&key) {
            return *t;
        }
        let truth = if self.entails(&key.0, rel) {
            Truth::Proved
        } else if self.entails(&key.0, rel.negate()) {
            Truth::Refuted
        } else {
            Truth::Unknown
        };
        self.cache.lock().expect("cache lock").insert(key, truth);
        truth
    }

    /// Convenience: decides equality of two expressions.
    pub fn check_eq(&self, lhs: &SymExpr, rhs: &SymExpr) -> Truth {
        self.check(lhs, Rel::Eq, rhs)
    }

    /// Returns `true` if assumptions entail `diff rel 0`.
    fn entails(&self, diff: &SymExpr, rel: Rel) -> bool {
        // To entail `diff rel 0`, refute assumptions ∧ ¬(diff rel 0).
        // The negation of Eq is a disjunction (< 0 ∨ > 0): both disjuncts
        // must be infeasible.
        match rel.negate() {
            Rel::Le => self.infeasible_with(&[LinIneq::from_expr(diff, false)]),
            Rel::Lt => self.infeasible_with(&[LinIneq::from_expr(diff, true)]),
            Rel::Ge => self.infeasible_with(&[LinIneq::from_expr(&(-diff.clone()), false)]),
            Rel::Gt => self.infeasible_with(&[LinIneq::from_expr(&(-diff.clone()), true)]),
            Rel::Eq => self.infeasible_with(&[
                LinIneq::from_expr(diff, false),
                LinIneq::from_expr(&(-diff.clone()), false),
            ]),
            Rel::Ne => {
                // ¬(diff != 0) is diff == 0: refute both strict sides.
                self.infeasible_with(&[LinIneq::from_expr(diff, true)])
                    && self.infeasible_with(&[LinIneq::from_expr(&(-diff.clone()), true)])
            }
        }
    }

    /// Fourier–Motzkin: is `assumptions ∧ extra` infeasible over ℚ?
    fn infeasible_with(&self, extra: &[LinIneq]) -> bool {
        let mut system: Vec<LinIneq> = self.assumptions.clone();
        system.extend(extra.iter().cloned());
        // Bound the work: FM is worst-case exponential, but lemma-condition
        // systems are tiny. Bail out (answer "feasible", i.e. unproven) if
        // the system explodes.
        const MAX_CONSTRAINTS: usize = 4096;
        loop {
            // Check for trivial contradictions and drop trivially-true rows.
            let mut next = Vec::with_capacity(system.len());
            for c in system {
                match c.is_trivial() {
                    Some(true) => {}
                    Some(false) => return true,
                    None => next.push(c),
                }
            }
            system = next;
            // Pick the variable occurring in the fewest upper×lower pairs.
            let Some(var) = pick_variable(&system) else {
                return false; // no variables left, no contradiction found
            };
            let (mut lowers, mut uppers, mut rest) = (vec![], vec![], vec![]);
            for c in system {
                match c.coeffs.get(&var).copied().unwrap_or(0) {
                    0 => rest.push(c),
                    a if a > 0 => uppers.push(c), // a·v + … ≤ 0  ⇒ upper bound on v
                    _ => lowers.push(c),
                }
            }
            for u in &uppers {
                for l in &lowers {
                    if let Some(combined) = combine(u, l, var) {
                        rest.push(combined);
                    } else {
                        return false; // overflow — give up soundly
                    }
                }
            }
            if rest.len() > MAX_CONSTRAINTS {
                return false;
            }
            system = rest;
        }
    }
}

/// Chooses the elimination variable minimizing the pair product, a standard
/// FM heuristic that keeps the intermediate system small.
fn pick_variable(system: &[LinIneq]) -> Option<SymVar> {
    let mut counts: BTreeMap<SymVar, (usize, usize)> = BTreeMap::new();
    for c in system {
        for (v, a) in &c.coeffs {
            let entry = counts.entry(*v).or_insert((0, 0));
            if *a > 0 {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }
    counts
        .into_iter()
        .min_by_key(|(_, (u, l))| u * l)
        .map(|(v, _)| v)
}

/// Combines an upper-bound row (positive coefficient on `var`) with a
/// lower-bound row (negative coefficient), eliminating `var`.
fn combine(upper: &LinIneq, lower: &LinIneq, var: SymVar) -> Option<LinIneq> {
    let a = upper.coeffs[&var]; // > 0
    let b = -lower.coeffs[&var]; // > 0
    let mut coeffs: BTreeMap<SymVar, i128> = BTreeMap::new();
    for (v, c) in &upper.coeffs {
        if *v != var {
            *coeffs.entry(*v).or_insert(0) += c.checked_mul(b)?;
        }
    }
    for (v, c) in &lower.coeffs {
        if *v != var {
            *coeffs.entry(*v).or_insert(0) += c.checked_mul(a)?;
        }
    }
    let constant = upper
        .constant
        .checked_mul(b)?
        .checked_add(lower.constant.checked_mul(a)?)?;
    let mut out = LinIneq {
        coeffs,
        constant,
        strict: upper.strict || lower.strict,
    };
    out.reduce();
    Some(out)
}
