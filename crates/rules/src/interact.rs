//! The rule-interaction graph: which rules can feed which, and which of
//! the resulting cycles are generative.
//!
//! Edge `A → B` means *output of `A` can trigger `B`*: some operator-rooted
//! subterm of `A`'s effective right-hand side unifies (after renaming
//! apart) with `B`'s left-hand-side **root** pattern. Root-only matching is
//! deliberate: matching against every LHS subpattern connects nearly the
//! whole corpus through shared connective tissue (`concat`, `add`) into one
//! uninformative mega-component, while the root is exactly what saturation
//! searches for.
//!
//! A strongly connected component with a cycle is *generative* when it
//! contains a **driver**: an unconditioned rule that duplicates a bound
//! variable. Such a cycle re-feeds itself strictly growing material —
//! statically, this is the `scalar_mul-distribute` ⇄ `scalar_mul-compose`
//! blowup the MoE trace measures dynamically.

use std::collections::HashMap;

use entangle_egraph::{PatternAst, Rewrite, Symbol};
use entangle_lemmas::TensorAnalysis;

use crate::classify::{effective_rhs, RuleClass};
use crate::pattern_util::{op_subterms, unify_apart_in};

/// The directed rule-interaction graph over the corpus (indices into the
/// rewrite slice it was built from).
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    /// `edges[i]` = sorted indices of rules whose LHS root unifies with an
    /// RHS subterm of rule `i`.
    pub edges: Vec<Vec<usize>>,
    /// Full unifications run to build `edges` — what the derivation costs,
    /// as a count (the head-symbol buckets answer every other pair).
    pub unifications: u64,
}

/// One generative cycle: a strongly connected component with at least one
/// driver. Indices are into the rewrite slice, sorted ascending.
#[derive(Debug, Clone)]
pub struct GenerativeCycle {
    /// Every rule in the component.
    pub members: Vec<usize>,
    /// The duplicating, unconditioned rules that make the cycle grow.
    pub drivers: Vec<usize>,
}

/// `true` for an operator applied to distinct variables (`(add ?a ?b)`).
/// Renamed apart, it unifies with every application of its symbol and
/// arity — each variable binds the child opposite — so no unifier is run.
fn applies_distinct_vars(ast: &PatternAst) -> bool {
    let PatternAst::Op(_, ch) = ast else {
        return false;
    };
    ch.iter().enumerate().all(|(k, c)| match c {
        PatternAst::Var(_) => !ch[..k].contains(c),
        _ => false,
    })
}

/// Builds the interaction graph for a rewrite slice.
///
/// An RHS subterm is an operator application, so only a left-hand side
/// with the same head symbol and arity — or a bare variable, which unifies
/// with anything once renamed apart — can unify with it: roots are bucketed
/// by `(symbol, arity)` and only a bucket's members are unified, over the
/// borrowed patterns ([`unify_apart_in`]), and only where
/// neither side [`applies_distinct_vars`].
pub fn interaction_graph(rewrites: &[Rewrite<TensorAnalysis>]) -> InteractionGraph {
    // Per `(symbol, arity)`: the rules rooted there, each with whether its
    // root applies distinct variables.
    let mut by_head: HashMap<(Symbol, usize), Vec<(usize, bool)>> = HashMap::new();
    let mut var_rooted: Vec<usize> = Vec::new();
    for (j, rw) in rewrites.iter().enumerate() {
        let lhs = rw.searcher().ast();
        match lhs {
            PatternAst::Op(sym, ch) => by_head
                .entry((*sym, ch.len()))
                .or_default()
                .push((j, applies_distinct_vars(lhs))),
            PatternAst::Var(_) => var_rooted.push(j),
            // An integer literal never unifies with an operator application.
            PatternAst::Int(_) => {}
        }
    }
    let mut unifications = 0u64;
    let mut scratch = Vec::new();
    let mut hit = vec![false; rewrites.len()];
    let edges = rewrites
        .iter()
        .map(|rw| {
            let subs = effective_rhs(rw).map_or_else(Vec::new, |rhs| op_subterms(rhs.ast()));
            let mut out: Vec<usize> = Vec::new();
            if !subs.is_empty() {
                out.extend(&var_rooted);
            }
            for sub in subs {
                let PatternAst::Op(sym, ch) = sub else {
                    unreachable!("op_subterms yields operator applications");
                };
                let free = applies_distinct_vars(sub);
                for &(j, lhs_free) in by_head.get(&(*sym, ch.len())).into_iter().flatten() {
                    if hit[j] {
                        continue;
                    }
                    let unifies = free || lhs_free || {
                        unifications += 1;
                        unify_apart_in(sub, rewrites[j].searcher().ast(), &mut scratch)
                    };
                    if unifies {
                        hit[j] = true;
                        out.push(j);
                    }
                }
            }
            for &j in &out {
                hit[j] = false;
            }
            out.sort_unstable();
            out
        })
        .collect();
    InteractionGraph {
        edges,
        unifications,
    }
}

/// The all-pairs construction [`interaction_graph`] replaced, kept as the
/// reference it is tested against: every RHS subterm against every LHS
/// root, both renamed apart into fresh copies.
#[cfg(test)]
pub(crate) fn interaction_edges_all_pairs(rewrites: &[Rewrite<TensorAnalysis>]) -> Vec<Vec<usize>> {
    use crate::pattern_util::{rename_vars, unifiable};
    let rhs_subterms: Vec<Vec<PatternAst>> = rewrites
        .iter()
        .map(|rw| match effective_rhs(rw) {
            Some(rhs) => op_subterms(rhs.ast())
                .into_iter()
                .map(|t| rename_vars(t, "·r"))
                .collect(),
            None => Vec::new(),
        })
        .collect();
    let lhs_roots: Vec<PatternAst> = rewrites
        .iter()
        .map(|rw| rename_vars(rw.searcher().ast(), "·l"))
        .collect();
    rhs_subterms
        .iter()
        .map(|subs| {
            lhs_roots
                .iter()
                .enumerate()
                .filter(|(_, lhs)| subs.iter().any(|sub| unifiable(sub, lhs)))
                .map(|(j, _)| j)
                .collect()
        })
        .collect()
}

/// Iterative Tarjan SCC. Components are returned with members sorted
/// ascending, and the component list itself sorted by smallest member, so
/// the output is deterministic regardless of traversal order.
fn sccs(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit call stack: (node, next child position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    out.sort_unstable_by_key(|c| c[0]);
    out
}

/// Finds every generative cycle: an SCC that actually cycles (size > 1, or
/// a self-loop) and contains at least one driver.
pub fn generative_cycles(graph: &InteractionGraph, classes: &[RuleClass]) -> Vec<GenerativeCycle> {
    sccs(&graph.edges)
        .into_iter()
        .filter(|comp| comp.len() > 1 || graph.edges[comp[0]].contains(&comp[0]))
        .filter_map(|comp| {
            let drivers: Vec<usize> = comp
                .iter()
                .copied()
                .filter(|&i| classes[i].duplicating && !classes[i].conditioned)
                .collect();
            (!drivers.is_empty()).then_some(GenerativeCycle {
                members: comp,
                drivers,
            })
        })
        .collect()
}
