//! Pure pattern-level algorithms the analyzer is built on: term size,
//! variable multiplicity, syntactic unification, one-way
//! matching, and α-equivalence — all over [`PatternAst`], no e-graph.

use std::collections::HashMap;

use entangle_egraph::{PatternAst, Var};

/// Number of operator *applications* in a pattern (nullary ops are tensor
/// leaves, not applications — the same convention as the corpus'
/// complexity metric).
pub fn op_count(ast: &PatternAst) -> usize {
    match ast {
        PatternAst::Op(_, ch) if !ch.is_empty() => 1 + ch.iter().map(op_count).sum::<usize>(),
        _ => 0,
    }
}

/// Occurrence count of every variable in the pattern.
pub fn var_counts(ast: &PatternAst) -> HashMap<Var, usize> {
    let mut counts = Vec::new();
    count_vars(ast, &mut counts);
    counts.into_iter().collect()
}

/// [`var_counts`] into a scanned vector, in first-occurrence order: a rule
/// has a handful of variables, and the classifier counts two patterns per
/// rule per check.
pub(crate) fn count_vars(ast: &PatternAst, out: &mut Vec<(Var, usize)>) {
    match ast {
        PatternAst::Var(v) => match out.iter_mut().find(|(w, _)| w == v) {
            Some((_, n)) => *n += 1,
            None => out.push((*v, 1)),
        },
        PatternAst::Int(_) => {}
        PatternAst::Op(_, ch) => ch.iter().for_each(|c| count_vars(c, out)),
    }
}

/// Renames every variable by appending `suffix` — the renaming-apart the
/// all-pairs reference graph performs (the analyzer itself unifies over
/// side-tagged borrowed patterns, see [`unify_apart_in`]).
#[cfg(test)]
pub fn rename_vars(ast: &PatternAst, suffix: &str) -> PatternAst {
    match ast {
        PatternAst::Var(v) => PatternAst::Var(Var::new(&format!("{}{suffix}", v.as_str()))),
        PatternAst::Int(i) => PatternAst::Int(*i),
        PatternAst::Op(sym, ch) => {
            PatternAst::Op(*sym, ch.iter().map(|c| rename_vars(c, suffix)).collect())
        }
    }
}

/// Every operator-application subterm of the pattern (the pattern itself
/// included when it is one), in pre-order.
pub fn op_subterms(ast: &PatternAst) -> Vec<&PatternAst> {
    fn walk<'a>(ast: &'a PatternAst, out: &mut Vec<&'a PatternAst>) {
        if let PatternAst::Op(_, ch) = ast {
            if !ch.is_empty() {
                out.push(ast);
            }
            ch.iter().for_each(|c| walk(c, out));
        }
    }
    let mut out = Vec::new();
    walk(ast, &mut out);
    out
}

/// A borrowed pattern read on one side of a unification. The side tag is
/// the renaming-apart: `?x` on side `false` and `?x` on side `true` are
/// different variables, with no renamed copy of either pattern built.
type Sided<'a> = (&'a PatternAst, bool);

/// Bindings of side-tagged variables to side-tagged subterms. A handful of
/// entries per unification, so a scanned vector beats hashing — and one
/// vector can serve a whole corpus of unifications ([`unify_apart_in`]).
pub(crate) type Bindings<'a> = Vec<((Var, bool), Sided<'a>)>;

fn binding<'a>(v: (Var, bool), subst: &Bindings<'a>) -> Option<Sided<'a>> {
    subst.iter().find(|(w, _)| *w == v).map(|&(_, t)| t)
}

fn occurs(v: (Var, bool), t: Sided, subst: &Bindings) -> bool {
    match t.0 {
        PatternAst::Var(w) => {
            (*w, t.1) == v || binding((*w, t.1), subst).is_some_and(|b| occurs(v, b, subst))
        }
        PatternAst::Int(_) => false,
        PatternAst::Op(_, ch) => ch.iter().any(|c| occurs(v, (c, t.1), subst)),
    }
}

fn resolve<'a>(mut t: Sided<'a>, subst: &Bindings<'a>) -> Sided<'a> {
    while let PatternAst::Var(v) = t.0 {
        match binding((*v, t.1), subst) {
            Some(b) => t = b,
            None => break,
        }
    }
    t
}

fn unify_into<'a>(a: Sided<'a>, b: Sided<'a>, subst: &mut Bindings<'a>) -> bool {
    let (a, b) = (resolve(a, subst), resolve(b, subst));
    match (a.0, b.0) {
        (PatternAst::Var(v), PatternAst::Var(w)) if (v, a.1) == (w, b.1) => true,
        (PatternAst::Var(v), _) => bind((*v, a.1), b, subst),
        (_, PatternAst::Var(w)) => bind((*w, b.1), a, subst),
        (PatternAst::Int(i), PatternAst::Int(j)) => i == j,
        (PatternAst::Op(s1, c1), PatternAst::Op(s2, c2)) => {
            s1 == s2
                && c1.len() == c2.len()
                && c1
                    .iter()
                    .zip(c2)
                    .all(|(x, y)| unify_into((x, a.1), (y, b.1), subst))
        }
        _ => false,
    }
}

fn bind<'a>(v: (Var, bool), t: Sided<'a>, subst: &mut Bindings<'a>) -> bool {
    if occurs(v, t, subst) {
        return false;
    }
    subst.push((v, t));
    true
}

/// Syntactic unification with occurs check. Variables shared between `a`
/// and `b` are the same variable; two rules' patterns, whose equally
/// spelled variables are not, go through [`unify_apart_in`].
pub fn unifiable(a: &PatternAst, b: &PatternAst) -> bool {
    unify_into((a, false), (b, false), &mut Vec::new())
}

/// [`unifiable`] with the two patterns' variables renamed apart — without
/// renaming: nothing is cloned or interned, the patterns are only read.
/// `scratch` is cleared first; one vector serves a corpus of calls.
pub(crate) fn unify_apart_in<'a>(
    a: &'a PatternAst,
    b: &'a PatternAst,
    scratch: &mut Bindings<'a>,
) -> bool {
    scratch.clear();
    unify_into((a, false), (b, true), scratch)
}

/// One-way matching: binds variables of `general` (only) so that it equals
/// `specific`; `specific`'s variables are treated as constants. Returns
/// the substitution when `specific` is an instance of `general`.
pub fn match_onto(general: &PatternAst, specific: &PatternAst) -> Option<HashMap<Var, PatternAst>> {
    fn go(g: &PatternAst, s: &PatternAst, subst: &mut HashMap<Var, PatternAst>) -> bool {
        match g {
            PatternAst::Var(v) => match subst.get(v) {
                Some(bound) => bound == s,
                None => {
                    subst.insert(*v, s.clone());
                    true
                }
            },
            PatternAst::Int(i) => matches!(s, PatternAst::Int(j) if i == j),
            PatternAst::Op(sym, ch) => match s {
                PatternAst::Op(ssym, sch) => {
                    sym == ssym
                        && ch.len() == sch.len()
                        && ch.iter().zip(sch).all(|(x, y)| go(x, y, subst))
                }
                _ => false,
            },
        }
    }
    let mut subst = HashMap::new();
    go(general, specific, &mut subst).then_some(subst)
}

/// Canonical variable numbering (`?v0`, `?v1`, … in first-occurrence
/// order) over a *sequence* of patterns, so a rule's two sides share one
/// renaming.
fn canonicalize(asts: &[&PatternAst]) -> Vec<PatternAst> {
    fn walk(ast: &PatternAst, map: &mut HashMap<Var, Var>) -> PatternAst {
        match ast {
            PatternAst::Var(v) => {
                let n = map.len();
                let c = *map.entry(*v).or_insert_with(|| Var::new(&format!("v{n}")));
                PatternAst::Var(c)
            }
            PatternAst::Int(i) => PatternAst::Int(*i),
            PatternAst::Op(sym, ch) => {
                PatternAst::Op(*sym, ch.iter().map(|c| walk(c, map)).collect())
            }
        }
    }
    let mut map = HashMap::new();
    asts.iter().map(|a| walk(a, &mut map)).collect()
}

/// α-equivalence of two pattern sequences under a single consistent
/// renaming each (used on `[lhs, rhs]` pairs to detect duplicate rules).
pub fn alpha_eq(a: &[&PatternAst], b: &[&PatternAst]) -> bool {
    canonicalize(a) == canonicalize(b)
}

/// Instantiates `general`'s substitution into its right-hand side — used
/// by the subsumption check to verify that the more specific rule's RHS is
/// exactly what the general rule would have produced. One pass, unbound
/// variables left in place: a [`match_onto`] result binds `general`'s
/// variables to terms over `specific`'s, which are constants to it even
/// where the two rules spell them alike (`{a ↦ ?b, b ↦ ?c, c ↦ ?a}` when
/// an associativity rule meets its own rotation), so the image of a
/// variable is final and must not be substituted into again.
pub fn substitute(ast: &PatternAst, subst: &HashMap<Var, PatternAst>) -> PatternAst {
    match ast {
        PatternAst::Var(v) => subst.get(v).unwrap_or(ast).clone(),
        PatternAst::Int(i) => PatternAst::Int(*i),
        PatternAst::Op(sym, ch) => {
            PatternAst::Op(*sym, ch.iter().map(|c| substitute(c, subst)).collect())
        }
    }
}
