//! Pure pattern-level algorithms the analyzer is built on: term size,
//! variable multiplicity, renaming, syntactic unification, one-way
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
    fn walk(ast: &PatternAst, out: &mut HashMap<Var, usize>) {
        match ast {
            PatternAst::Var(v) => *out.entry(*v).or_insert(0) += 1,
            PatternAst::Int(_) => {}
            PatternAst::Op(_, ch) => ch.iter().for_each(|c| walk(c, out)),
        }
    }
    let mut out = HashMap::new();
    walk(ast, &mut out);
    out
}

/// Renames every variable by appending `suffix`, so two rules' patterns
/// can be unified without accidental capture.
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

fn occurs(v: Var, ast: &PatternAst, subst: &HashMap<Var, PatternAst>) -> bool {
    match ast {
        PatternAst::Var(w) => *w == v || subst.get(w).is_some_and(|t| occurs(v, t, subst)),
        PatternAst::Int(_) => false,
        PatternAst::Op(_, ch) => ch.iter().any(|c| occurs(v, c, subst)),
    }
}

fn resolve<'a>(mut ast: &'a PatternAst, subst: &'a HashMap<Var, PatternAst>) -> &'a PatternAst {
    while let PatternAst::Var(v) = ast {
        match subst.get(v) {
            Some(t) => ast = t,
            None => break,
        }
    }
    ast
}

fn unify_into(a: &PatternAst, b: &PatternAst, subst: &mut HashMap<Var, PatternAst>) -> bool {
    let a = resolve(a, subst).clone();
    let b = resolve(b, subst).clone();
    match (&a, &b) {
        (PatternAst::Var(v), PatternAst::Var(w)) if v == w => true,
        (PatternAst::Var(v), t) | (t, PatternAst::Var(v)) => {
            if occurs(*v, t, subst) {
                return false;
            }
            subst.insert(*v, (*t).clone());
            true
        }
        (PatternAst::Int(i), PatternAst::Int(j)) => i == j,
        (PatternAst::Op(s1, c1), PatternAst::Op(s2, c2)) => {
            s1 == s2
                && c1.len() == c2.len()
                && c1.iter().zip(c2).all(|(x, y)| unify_into(x, y, subst))
        }
        _ => false,
    }
}

/// Syntactic unification with occurs check. The caller is responsible for
/// renaming apart (see [`rename_vars`]); variables shared between `a` and
/// `b` are treated as the same variable.
pub fn unifiable(a: &PatternAst, b: &PatternAst) -> bool {
    let mut subst = HashMap::new();
    unify_into(a, b, &mut subst)
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
