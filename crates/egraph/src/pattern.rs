//! Patterns and e-matching.
//!
//! Patterns use the paper's s-expression surface syntax with `?x` variables:
//! `(slice (concat ?t1 ?t2 ?dim1) ?dim2 ?begin ?end)` (Listing 4).

use std::fmt;
use std::str::FromStr;

use crate::egraph::{Analysis, EGraph};
use crate::node::{parse_sexp, ENode, ParseExprError, Sexp};
use crate::symbol::Symbol;
use crate::unionfind::Id;

/// A pattern variable (`?name`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Symbol);

impl Var {
    /// Creates a variable; the leading `?` is optional.
    pub fn new(name: &str) -> Var {
        Var(Symbol::new(name.strip_prefix('?').unwrap_or(name)))
    }

    /// The variable's name, without the `?`.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl FromStr for Var {
    type Err = ParseExprError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('?') {
            if !rest.is_empty() {
                return Ok(Var::new(rest));
            }
        }
        Err(ParseExprError::new(format!("invalid variable {s:?}")))
    }
}

/// A variable binding produced by e-matching.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: Vec<(Var, Id)>,
}

impl Subst {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// The class bound to `var`, if any.
    pub fn get(&self, var: Var) -> Option<Id> {
        self.map.iter().find(|(v, _)| *v == var).map(|(_, id)| *id)
    }

    /// Binds `var` to `id`, overwriting any existing binding.
    pub fn insert(&mut self, var: Var, id: Id) {
        if let Some(slot) = self.map.iter_mut().find(|(v, _)| *v == var) {
            slot.1 = id;
        } else {
            self.map.push((var, id));
        }
    }

    /// Iterates over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Id)> + '_ {
        self.map.iter().copied()
    }

    /// Replaces every binding with `vars[k] ↦ ids[k]`, reusing the
    /// allocation — the runner's one substitution, refilled per match from
    /// the compiled matcher's register file. `vars` are in first-occurrence
    /// order with no duplicates, the order [`Subst::insert`] produces during
    /// a recursive match, so the result equals the reference searcher's.
    pub(crate) fn refill(&mut self, vars: &[Var], ids: &[Id]) {
        debug_assert_eq!(vars.len(), ids.len());
        debug_assert!((1..vars.len()).all(|i| !vars[..i].contains(&vars[i])));
        self.map.clear();
        self.map
            .extend(vars.iter().copied().zip(ids.iter().copied()));
    }
}

impl std::ops::Index<Var> for Subst {
    type Output = Id;
    fn index(&self, var: Var) -> &Id {
        self.map
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, id)| id)
            .unwrap_or_else(|| panic!("unbound pattern variable {var}"))
    }
}

/// Widest application whose children [`PatternAst::instantiate`] keeps on
/// the stack; a wider one collects them into a `Vec`.
const INLINE_ARITY: usize = 8;

/// The AST of a pattern: a tree over vars, scalars and operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternAst {
    /// A pattern variable matching any e-class.
    Var(Var),
    /// A literal integer scalar.
    Int(i64),
    /// An operator with sub-patterns; nullary ops are tensor leaves.
    Op(Symbol, Vec<PatternAst>),
}

impl PatternAst {
    fn from_sexp(sexp: &Sexp) -> Result<PatternAst, ParseExprError> {
        match sexp {
            Sexp::Atom(a) => {
                if let Ok(i) = a.parse::<i64>() {
                    Ok(PatternAst::Int(i))
                } else if a.starts_with('?') {
                    Ok(PatternAst::Var(a.parse()?))
                } else {
                    Ok(PatternAst::Op(Symbol::new(a), Vec::new()))
                }
            }
            Sexp::List(items) => {
                let Some(Sexp::Atom(head)) = items.first() else {
                    return Err(ParseExprError::new("pattern list must start with an atom"));
                };
                if head.starts_with('?') {
                    return Err(ParseExprError::new(
                        "pattern variables cannot be applied as operators",
                    ));
                }
                let children = items[1..]
                    .iter()
                    .map(PatternAst::from_sexp)
                    .collect::<Result<_, _>>()?;
                Ok(PatternAst::Op(Symbol::new(head), children))
            }
        }
    }

    /// All variables in the pattern, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            PatternAst::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            PatternAst::Int(_) => {}
            PatternAst::Op(_, ch) => ch.iter().for_each(|c| c.collect_vars(out)),
        }
    }

    /// Instantiates the pattern under `subst`, adding nodes to the e-graph.
    pub fn instantiate<A: Analysis>(&self, egraph: &mut EGraph<A>, subst: &Subst) -> Id {
        match self {
            PatternAst::Var(v) => subst[*v],
            PatternAst::Int(i) => egraph.add(ENode::Int(*i)),
            PatternAst::Op(sym, ch) => {
                // Children on the stack: instantiating a term that already
                // exists (a matched left-hand side) allocates nothing.
                if ch.len() > INLINE_ARITY {
                    let children = ch.iter().map(|c| c.instantiate(egraph, subst)).collect();
                    return egraph.add(ENode::Op(*sym, children));
                }
                let mut ids = [Id::from_index(0); INLINE_ARITY];
                for (id, c) in ids.iter_mut().zip(ch) {
                    *id = c.instantiate(egraph, subst);
                }
                egraph.add_op(*sym, &ids[..ch.len()])
            }
        }
    }
}

impl fmt::Display for PatternAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternAst::Var(v) => write!(f, "{v}"),
            PatternAst::Int(i) => write!(f, "{i}"),
            PatternAst::Op(sym, ch) if ch.is_empty() => write!(f, "{sym}"),
            PatternAst::Op(sym, ch) => {
                write!(f, "({sym}")?;
                for c in ch {
                    write!(f, " {c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A compiled pattern, searchable against an e-graph.
///
/// # Examples
///
/// ```
/// use entangle_egraph::{EGraph, Pattern, RecExpr};
///
/// let mut eg = EGraph::<()>::default();
/// let e: RecExpr = "(matmul A B)".parse().unwrap();
/// eg.add_expr(&e);
/// let pat: Pattern = "(matmul ?x ?y)".parse().unwrap();
/// let matches = pat.search(&eg);
/// assert_eq!(matches.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    ast: PatternAst,
}

/// All matches of a pattern within one e-class.
#[derive(Debug, Clone)]
pub struct SearchMatches {
    /// The matched e-class.
    pub eclass: Id,
    /// One substitution per distinct way the pattern matches.
    pub substs: Vec<Subst>,
}

impl Pattern {
    /// The underlying AST.
    pub fn ast(&self) -> &PatternAst {
        &self.ast
    }

    /// The pattern's variables.
    pub fn vars(&self) -> Vec<Var> {
        self.ast.vars()
    }

    /// Operator symbols that must be present for any match (non-leaf ops in
    /// the pattern).
    pub fn required_ops(&self) -> Vec<Symbol> {
        fn collect(ast: &PatternAst, out: &mut Vec<Symbol>) {
            if let PatternAst::Op(sym, ch) = ast {
                if !ch.is_empty() && !out.contains(sym) {
                    out.push(*sym);
                }
                ch.iter().for_each(|c| collect(c, out));
            }
        }
        let mut out = Vec::new();
        collect(&self.ast, &mut out);
        out
    }

    /// Searches the whole e-graph.
    pub fn search<A: Analysis>(&self, egraph: &EGraph<A>) -> Vec<SearchMatches> {
        self.search_with_stats(egraph).0
    }

    /// Searches the whole e-graph, also reporting `(visited, skipped)`
    /// class counts — the e-matching fast-path telemetry surfaced as
    /// [`crate::SaturationReport`]'s searched-vs-skipped counters.
    ///
    /// When the pattern is rooted at an operator, only classes containing
    /// that head symbol (per [`EGraph::classes_with_op`]) are visited;
    /// every other class is counted as skipped. Patterns rooted at a
    /// variable or integer scan every class.
    ///
    /// This recursive matcher is the reference the compiled matcher
    /// ([`crate::CompiledMatcher`]) is held to; saturation never calls it.
    pub fn search_with_stats<A: Analysis>(
        &self,
        egraph: &EGraph<A>,
    ) -> (Vec<SearchMatches>, u64, u64) {
        let total = egraph.num_classes() as u64;
        // Prefilter: a pattern whose operators never occur cannot match.
        if self.required_ops().iter().any(|&sym| !egraph.has_op(sym)) {
            return (Vec::new(), 0, total);
        }
        let ids = match &self.ast {
            // Head-symbol fast path: only classes holding a node with the
            // root operator can match.
            PatternAst::Op(sym, _) => {
                let mut ids = Vec::new();
                egraph.classes_with_op(*sym, &mut ids);
                ids
            }
            // Var/Int roots match structurally anywhere: full scan.
            _ => egraph.class_ids(),
        };
        let visited = ids.len() as u64;
        let mut out = Vec::new();
        for id in ids {
            if let Some(m) = self.search_eclass(egraph, id) {
                out.push(m);
            }
        }
        (out, visited, total.saturating_sub(visited))
    }

    /// Searches one e-class.
    pub fn search_eclass<A: Analysis>(
        &self,
        egraph: &EGraph<A>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        let substs = match_pattern(egraph, &self.ast, egraph.find(eclass), Subst::new());
        if substs.is_empty() {
            None
        } else {
            let mut dedup: Vec<Subst> = Vec::with_capacity(substs.len());
            for s in substs {
                if !dedup.contains(&s) {
                    dedup.push(s);
                }
            }
            Some(SearchMatches {
                eclass: egraph.find(eclass),
                substs: dedup,
            })
        }
    }
}

fn match_pattern<A: Analysis>(
    egraph: &EGraph<A>,
    pat: &PatternAst,
    id: Id,
    subst: Subst,
) -> Vec<Subst> {
    match pat {
        PatternAst::Var(v) => {
            if let Some(bound) = subst.get(*v) {
                if egraph.find(bound) == id {
                    vec![subst]
                } else {
                    vec![]
                }
            } else {
                let mut s = subst;
                s.insert(*v, id);
                vec![s]
            }
        }
        PatternAst::Int(i) => match egraph.lookup(&ENode::Int(*i)) {
            Some(found) if found == id => vec![subst],
            _ => vec![],
        },
        PatternAst::Op(sym, pats) => {
            let mut out = Vec::new();
            for node in &egraph[id].nodes {
                let ENode::Op(nsym, children) = node else {
                    continue;
                };
                if nsym != sym || children.len() != pats.len() {
                    continue;
                }
                let mut partials = vec![subst.clone()];
                for (p, &c) in pats.iter().zip(children.iter()) {
                    let mut next = Vec::new();
                    for s in partials {
                        next.extend(match_pattern(egraph, p, egraph.find(c), s));
                    }
                    partials = next;
                    if partials.is_empty() {
                        break;
                    }
                }
                out.extend(partials);
            }
            out
        }
    }
}

impl FromStr for Pattern {
    type Err = ParseExprError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sexp = parse_sexp(s)?;
        Ok(Pattern {
            ast: PatternAst::from_sexp(&sexp)?,
        })
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}
