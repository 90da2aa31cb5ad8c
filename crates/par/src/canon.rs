//! Canonical-space renaming for per-operator problems.
//!
//! The saturation memo only pays off if two structurally identical operators
//! (two transformer blocks, two MoE experts) produce the *same* cache key and
//! the cached value can be replayed for either. Both directions need a
//! renaming: tensor leaf names become `$t0, $t1, …` in first-occurrence
//! order before the engine runs, and every result — mapping expressions,
//! proof chains, the `Given` fact strings the certificate kernel validates —
//! is renamed back through the inverse map afterwards.
//!
//! Only *nullary* `Op` nodes are renamed: non-leaf operator symbols
//! (`matmul`, `concat`) and scalar nodes are part of the problem's
//! structure, not its naming. Fact strings are renamed by exact whole-string
//! lookup, because the trusted kernel matches them by exact prefix+name and
//! any partial substitution could corrupt an unrelated fact.

use std::collections::HashMap;

use entangle_egraph::{ENode, Proof, ProofStep, RecExpr, Symbol};

/// A one-direction renaming of tensor leaves and given-fact strings.
///
/// Build one renamer per direction: real→canonical for key construction and
/// engine input, canonical→real for replaying a memoized result.
///
/// # Examples
///
/// ```
/// use entangle_egraph::{RecExpr, Symbol};
/// use entangle_par::Renamer;
///
/// let mut to_canon = Renamer::new();
/// to_canon.leaf(Symbol::new("w_q"), Symbol::new("$t0"));
/// let e: RecExpr = "(matmul w_q x)".parse().unwrap();
/// assert_eq!(to_canon.rename_expr(&e).to_string(), "(matmul $t0 x)");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Renamer {
    leaves: HashMap<Symbol, Symbol>,
    facts: HashMap<String, String>,
}

impl Renamer {
    /// An empty renamer (identity on everything).
    pub fn new() -> Self {
        Renamer::default()
    }

    /// Registers a leaf renaming `from → to`.
    pub fn leaf(&mut self, from: Symbol, to: Symbol) {
        self.leaves.insert(from, to);
    }

    /// Registers a whole-fact-string renaming `from → to`.
    pub fn fact(&mut self, from: String, to: String) {
        self.facts.insert(from, to);
    }

    /// The renamed leaf symbol, or the input unchanged when unregistered
    /// (synthetic `~ones[...]` leaves, scalars lifted to leaves).
    pub fn rename_leaf(&self, sym: Symbol) -> Symbol {
        self.leaves.get(&sym).copied().unwrap_or(sym)
    }

    /// The renamed fact string, or the input unchanged when unregistered.
    pub fn rename_fact(&self, fact: &str) -> String {
        self.facts
            .get(fact)
            .cloned()
            .unwrap_or_else(|| fact.to_owned())
    }

    /// Renames every registered *leaf* occurrence in an expression;
    /// operator symbols and scalars pass through untouched.
    pub fn rename_expr(&self, expr: &RecExpr) -> RecExpr {
        let mut out = RecExpr::with_capacity(expr.len());
        for node in expr.nodes() {
            let renamed = match node {
                ENode::Op(sym, ch) if ch.is_empty() => {
                    ENode::Op(self.rename_leaf(*sym), Vec::new())
                }
                other => other.clone(),
            };
            out.add(renamed);
        }
        out
    }

    /// Renames a whole proof chain: every step's `before`/`after` terms,
    /// rule substitution bindings (the bound terms, not the variable names),
    /// congruence sub-proofs, and given-fact strings.
    pub fn rename_proof(&self, proof: &Proof) -> Proof {
        Proof {
            steps: proof.steps.iter().map(|s| self.rename_step(s)).collect(),
        }
    }

    fn rename_step(&self, step: &ProofStep) -> ProofStep {
        match step {
            ProofStep::Rule {
                name,
                forward,
                subst,
                before,
                after,
            } => ProofStep::Rule {
                name: name.clone(),
                forward: *forward,
                subst: subst
                    .iter()
                    .map(|(var, term)| (var.clone(), self.rename_expr(term)))
                    .collect(),
                before: self.rename_expr(before),
                after: self.rename_expr(after),
            },
            ProofStep::Congruence {
                before,
                after,
                children,
            } => ProofStep::Congruence {
                before: self.rename_expr(before),
                after: self.rename_expr(after),
                children: children.iter().map(|p| self.rename_proof(p)).collect(),
            },
            ProofStep::Given {
                fact,
                before,
                after,
            } => ProofStep::Given {
                fact: self.rename_fact(fact),
                before: self.rename_expr(before),
                after: self.rename_expr(after),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn renamer(pairs: &[(&str, &str)]) -> Renamer {
        let mut r = Renamer::new();
        for (from, to) in pairs {
            r.leaf(Symbol::new(from), Symbol::new(to));
        }
        r
    }

    #[test]
    fn renames_only_registered_leaves() {
        let r = renamer(&[("A", "$t0"), ("B", "$t1")]);
        let e: RecExpr = "(concat (slice A 0 0 16) B 0)".parse().unwrap();
        assert_eq!(
            r.rename_expr(&e).to_string(),
            "(concat (slice $t0 0 0 16) $t1 0)"
        );
    }

    #[test]
    fn operator_symbols_survive_even_when_a_leaf_shares_the_name() {
        // `add` appears both as a binary operator and (pathologically) as a
        // tensor leaf; only the nullary occurrence is renamed.
        let r = renamer(&[("add", "$t0")]);
        let e: RecExpr = "(add add add)".parse().unwrap();
        assert_eq!(r.rename_expr(&e).to_string(), "(add $t0 $t0)");
    }

    #[test]
    fn synthetic_leaves_pass_through() {
        let r = renamer(&[("X", "$t0")]);
        let e: RecExpr = "(add X ~ones[4x4])".parse().unwrap();
        assert_eq!(r.rename_expr(&e).to_string(), "(add $t0 ~ones[4x4])");
    }

    #[test]
    fn facts_rename_by_whole_string_only() {
        let mut r = renamer(&[("X", "$t0")]);
        r.fact(
            "G_d definition of layer0/out".to_owned(),
            "G_d definition of $n0".to_owned(),
        );
        assert_eq!(
            r.rename_fact("G_d definition of layer0/out"),
            "G_d definition of $n0"
        );
        // An unregistered fact — even one containing a registered name as a
        // substring — is left alone.
        assert_eq!(
            r.rename_fact("G_d definition of layer0/out2"),
            "G_d definition of layer0/out2"
        );
    }

    #[test]
    fn rename_proof_covers_all_step_kinds() {
        let mut r = renamer(&[("A", "$t0"), ("B", "$t1")]);
        r.fact(
            "mappings of G_s tensor q".to_owned(),
            "mappings of G_s tensor $i0".to_owned(),
        );
        let before: RecExpr = "(add A B)".parse().unwrap();
        let after: RecExpr = "(add B A)".parse().unwrap();
        let proof = Proof {
            steps: vec![
                ProofStep::Rule {
                    name: "add-comm".to_owned(),
                    forward: true,
                    subst: vec![
                        ("a".to_owned(), "A".parse().unwrap()),
                        ("b".to_owned(), "B".parse().unwrap()),
                    ],
                    before: before.clone(),
                    after: after.clone(),
                },
                ProofStep::Congruence {
                    before: after.clone(),
                    after: before.clone(),
                    children: vec![Proof {
                        steps: vec![ProofStep::Given {
                            fact: "mappings of G_s tensor q".to_owned(),
                            before: "B".parse().unwrap(),
                            after: "A".parse().unwrap(),
                        }],
                    }],
                },
            ],
        };
        let renamed = r.rename_proof(&proof);
        match &renamed.steps[0] {
            ProofStep::Rule { subst, before, .. } => {
                assert_eq!(before.to_string(), "(add $t0 $t1)");
                // Variable names untouched, bound terms renamed.
                assert_eq!(subst[0].0, "a");
                assert_eq!(subst[0].1.to_string(), "$t0");
            }
            other => panic!("expected Rule step, got {other:?}"),
        }
        match &renamed.steps[1] {
            ProofStep::Congruence { children, .. } => match &children[0].steps[0] {
                ProofStep::Given {
                    fact,
                    before,
                    after,
                } => {
                    assert_eq!(fact, "mappings of G_s tensor $i0");
                    assert_eq!(before.to_string(), "$t1");
                    assert_eq!(after.to_string(), "$t0");
                }
                other => panic!("expected Given step, got {other:?}"),
            },
            other => panic!("expected Congruence step, got {other:?}"),
        }
    }
}
