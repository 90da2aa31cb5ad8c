//! Cost-based term extraction from e-classes.

use crate::egraph::{Analysis, EGraph};
use crate::node::{ENode, RecExpr};
use crate::unionfind::Id;

/// A cost model over e-nodes.
///
/// `cost` receives the node and the best costs of its children; returning
/// [`f64::INFINITY`] excludes the node (and any term through it). The
/// refinement checker uses an infinite-cost model over non-clean operators to
/// extract *clean expressions only*.
pub trait CostFunction {
    /// Cost of `enode` given its children's best costs.
    fn cost(&self, enode: &ENode, child_costs: &[f64]) -> f64;
}

/// AST size, excluding scalar attribute leaves — the "smallest number of
/// nested expressions" measure the paper uses when pruning equivalent
/// expressions (§4.3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSize;

impl CostFunction for AstSize {
    fn cost(&self, enode: &ENode, child_costs: &[f64]) -> f64 {
        let own = match enode {
            ENode::Int(_) | ENode::Sym(_) => 0.0,
            ENode::Op(_, _) => 1.0,
        };
        own + child_costs.iter().sum::<f64>()
    }
}

impl<F> CostFunction for F
where
    F: Fn(&ENode, &[f64]) -> f64,
{
    fn cost(&self, enode: &ENode, child_costs: &[f64]) -> f64 {
        self(enode, child_costs)
    }
}

/// Extracts minimum-cost terms per e-class.
///
/// Costs are computed by fixpoint iteration, so cyclic e-classes (which
/// equality saturation routinely creates) are handled: a class only gets a
/// finite cost if some finite-cost term exists.
///
/// # Examples
///
/// ```
/// use entangle_egraph::{AstSize, EGraph, Extractor, RecExpr, Rewrite, Runner};
///
/// let mut eg = EGraph::<()>::default();
/// let id = eg.add_expr(&"(add x 0)".parse::<RecExpr>().unwrap());
/// let rw: Rewrite<()> = Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap();
/// let mut runner = Runner::new(eg);
/// runner.run(&[rw]);
/// let extractor = Extractor::new(&runner.egraph, AstSize);
/// let (cost, best) = extractor.find_best(id).unwrap();
/// assert_eq!(best.to_string(), "x");
/// assert_eq!(cost, 1.0);
/// ```
pub struct Extractor<'a, A: Analysis, C: CostFunction> {
    egraph: &'a EGraph<A>,
    cost_fn: C,
    /// Per canonical class, indexed by id: its best cost and the node that
    /// achieves it. The fixpoint runs once per goal check of a saturation
    /// round, so it reads a vector, not a map, and reuses one child-cost
    /// buffer.
    best: Vec<Option<(f64, ENode)>>,
}

impl<'a, A: Analysis, C: CostFunction> Extractor<'a, A, C> {
    /// Computes best costs for every class of `egraph` under `cost_fn`.
    pub fn new(egraph: &'a EGraph<A>, cost_fn: C) -> Self {
        let mut ex = Extractor {
            egraph,
            cost_fn,
            best: Vec::new(),
        };
        ex.fixpoint();
        ex
    }

    fn fixpoint(&mut self) {
        let egraph = self.egraph;
        let ids = egraph.class_ids();
        self.best = vec![None; ids.last().map_or(0, |id| id.index() + 1)];
        let mut child_costs = Vec::new();
        loop {
            let mut changed = false;
            for &id in &ids {
                for node in &egraph[id].nodes {
                    let Some(cost) = self.node_cost(node, &mut child_costs) else {
                        continue;
                    };
                    let slot = &mut self.best[id.index()];
                    match slot {
                        Some((c, _)) if *c <= cost => {}
                        _ => {
                            *slot = Some((cost, node.clone()));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn node_cost(&self, node: &ENode, child_costs: &mut Vec<f64>) -> Option<f64> {
        child_costs.clear();
        for &c in node.children() {
            let (cost, _) = self.best_of(c)?;
            child_costs.push(*cost);
        }
        let cost = self.cost_fn.cost(node, child_costs);
        if cost.is_finite() {
            Some(cost)
        } else {
            None
        }
    }

    fn best_of(&self, id: Id) -> Option<&(f64, ENode)> {
        self.best.get(self.egraph.find(id).index())?.as_ref()
    }

    /// The minimum-cost term for a class, if one exists.
    pub fn find_best(&self, id: Id) -> Option<(f64, RecExpr)> {
        let (cost, _) = self.best_of(id)?;
        let mut expr = RecExpr::new();
        let root = self.build(id, &mut expr)?;
        debug_assert_eq!(root, expr.root_id());
        Some((*cost, expr))
    }

    fn build(&self, id: Id, out: &mut RecExpr) -> Option<Id> {
        let (_, node) = self.best_of(id)?;
        let mut children = Vec::with_capacity(node.children().len());
        for &c in node.children() {
            children.push(self.build(c, out)?);
        }
        let mapped = match node {
            ENode::Op(sym, _) => ENode::Op(*sym, children),
            other => other.clone(),
        };
        Some(out.add(mapped))
    }
}
