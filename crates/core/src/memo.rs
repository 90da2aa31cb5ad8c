//! Canonical per-operator problems: the checker's one implementation of
//! Listing 2–3, and the key of the cross-operator saturation memo.
//!
//! Distributed ML graphs are towers of structurally identical blocks: every
//! transformer layer, every MoE expert re-poses the *same* per-operator
//! mapping problems over differently named tensors. This module extracts the
//! naming-independent core of one operator's search — the [`OpProblem`] —
//! and solves it entirely in a canonical namespace (`$t0, $t1, …` for `G_d`
//! tensor leaves, `$i0, $i1, …` for `G_s` input facts, `$n0, $n1, …` for
//! `G_d` definition facts), so two isomorphic operators produce the same
//! cache key *and* byte-identical [`Solved`] values. The checker renames a
//! solved result back through the inverse [`Renamer`] — including the proof
//! chains and the `Given` fact strings the trusted kernel re-validates — so
//! a cache hit is observationally identical to a miss.
//!
//! Canonical names are assigned in first-occurrence order of a traversal
//! that is itself canonical: input-mapping leaves in input/expression order,
//! then frontier-closure definition outputs in discovery order. Isomorphic
//! subproblems therefore canonicalize identically even when their real
//! tensors interleave differently in `G_d`.

use std::collections::{BTreeSet, HashMap, HashSet};

use entangle_egraph::{
    CompiledMatcher, EGraph, Id, Justification, Proof, RecExpr, Rewrite, RunReport, Runner,
    StopReason, Symbol,
};
use entangle_ir::{DType, Graph, Node, Op, Shape, TensorId};
use entangle_lemmas::TensorAnalysis;
use entangle_par::Renamer;

use crate::checker::{extract_clean_variants, CheckOptions, ITER_SLACK, NODE_LIMIT, TIME_LIMIT};
use crate::encode::{encode_def, encode_op};

/// One `G_d` operator definition pulled into the frontier, in canonical
/// names.
#[derive(Debug)]
pub(crate) struct CanonDef {
    /// Canonical node name (`$n{j}`) — only used in the `Given` fact string.
    pub name: String,
    pub op: Op,
    pub inputs: Vec<String>,
    pub output: String,
}

/// One canonical tensor leaf (`$t{i}`) with the analysis data the engine
/// needs (shape/dtype drive conditional lemmas and synthetic-leaf folding).
#[derive(Debug)]
pub(crate) struct CanonLeaf {
    pub name: String,
    pub shape: Shape,
    pub dtype: DType,
    /// `true` when the real tensor is a `G_d` *output* — extraction prefers
    /// these on cost ties (Listing 1 line 9 only keeps output-leaf mappings
    /// for `G_s` outputs).
    pub prefer: bool,
}

/// A naming-independent per-operator mapping problem: everything
/// [`solve_problem`] reads. Two operators of one check with equal problems
/// have byte-identical solutions.
#[derive(Debug)]
pub(crate) struct OpProblem {
    pub op: Op,
    /// Per `G_s` input, in operator order: the canonical input name
    /// (`$i{k}`, used only in the union fact string) and the canonicalized
    /// clean mappings.
    pub inputs: Vec<(String, Vec<RecExpr>)>,
    /// The Listing 3 frontier closure, one in-order scan of `G_d` per
    /// round: a definition joins the current round when all its inputs are
    /// related by the time the scan reaches it (round 1 may be empty — it
    /// still saturates the base term once).
    pub def_rounds: Vec<Vec<CanonDef>>,
    /// Canonical leaves in `$t` index order.
    pub leaves: Vec<CanonLeaf>,
}

/// Assigns `$t{i}` names in first-occurrence order and accumulates the
/// inverse renaming.
struct Canonizer<'g> {
    gd: &'g Graph,
    gd_output_set: HashSet<TensorId>,
    fwd: Renamer,
    back: Renamer,
    canon_of: HashMap<TensorId, String>,
    leaves: Vec<CanonLeaf>,
}

impl Canonizer<'_> {
    fn assign(&mut self, t: TensorId) -> String {
        if let Some(name) = self.canon_of.get(&t) {
            return name.clone();
        }
        let tensor = self.gd.tensor(t);
        let cname = format!("$t{}", self.leaves.len());
        self.fwd
            .leaf(Symbol::new(&tensor.name), Symbol::new(&cname));
        self.back
            .leaf(Symbol::new(&cname), Symbol::new(&tensor.name));
        self.leaves.push(CanonLeaf {
            name: cname.clone(),
            shape: tensor.shape.clone(),
            dtype: tensor.dtype,
            prefer: self.gd_output_set.contains(&t),
        });
        self.canon_of.insert(t, cname.clone());
        cname
    }
}

/// Per-check index over `G_d`: for every tensor id, the *positions* (not
/// ids — ids on unvalidated graphs may be misindexed) of the nodes that
/// consume it, ascending. Built once per `check_refinement` and shared by
/// every [`build_problem`] call so the frontier closure only re-examines
/// nodes whose inputs just became related, instead of rescanning the whole
/// graph each round.
pub(crate) struct GdConsumers {
    by_tensor: Vec<Vec<u32>>,
    /// Positions of nodes with no inputs — eligible from the first round.
    sourceless: Vec<u32>,
}

impl GdConsumers {
    pub(crate) fn new(gd: &Graph) -> GdConsumers {
        let mut by_tensor: Vec<Vec<u32>> = vec![Vec::new(); gd.tensors().len()];
        let mut sourceless = Vec::new();
        for (pos, n) in gd.nodes().iter().enumerate() {
            let pos = u32::try_from(pos).expect("graph larger than u32 positions");
            if n.inputs.is_empty() {
                sourceless.push(pos);
            }
            for &t in &n.inputs {
                let v = &mut by_tensor[t.0 as usize];
                // A node listing the same tensor twice appends back-to-back.
                if v.last() != Some(&pos) {
                    v.push(pos);
                }
            }
        }
        GdConsumers {
            by_tensor,
            sourceless,
        }
    }
}

/// Builds the canonical problem for one `G_s` operator given its inputs'
/// current mappings (`per_input`, in operator order), plus the
/// canonical→real [`Renamer`] that replays a solution.
///
/// The frontier closure (Listing 3) is computed here, ahead of saturation,
/// rather than discovered during it: the set of reachable `G_d` definitions
/// depends only on the input mappings' leaves and the graph, never on what
/// saturation derives, so the closure is a pure function of the problem.
pub(crate) fn build_problem(
    gs: &Graph,
    gd: &Graph,
    node: &Node,
    per_input: &[Vec<RecExpr>],
    consumers: &GdConsumers,
) -> (OpProblem, Renamer) {
    let mut cz = Canonizer {
        gd,
        gd_output_set: gd.outputs().iter().copied().collect(),
        fwd: Renamer::new(),
        back: Renamer::new(),
        canon_of: HashMap::new(),
        leaves: Vec::new(),
    };

    // Seed the related set (and the canonical namespace) from the input
    // mappings' G_d leaves, in input/expression/leaf order.
    let mut t_rel: HashSet<TensorId> = HashSet::new();
    for exprs in per_input {
        for e in exprs {
            for sym in e.leaf_symbols() {
                if let Some(t) = gd.tensor_by_name(sym.as_str()).map(|t| t.id) {
                    cz.assign(t);
                    t_rel.insert(t);
                }
            }
        }
    }

    let mut inputs = Vec::with_capacity(per_input.len());
    for (k, (&t, exprs)) in node.inputs.iter().zip(per_input).enumerate() {
        let cin = format!("$i{k}");
        cz.back.fact(
            format!("mappings of G_s tensor {cin}"),
            format!("mappings of G_s tensor {}", gs.tensor(t).name),
        );
        inputs.push((cin, exprs.iter().map(|e| cz.fwd.rename_expr(e)).collect()));
    }

    // Frontier closure with the exact round structure of an in-order
    // full-graph scan per round, driven by the consumer worklist instead: a
    // node re-enters the *current* round only when an input became related
    // at a smaller scan position (the in-order scan would still reach it),
    // otherwise the next round. The first round runs even when empty.
    let mut defs_added: HashSet<u32> = HashSet::new();
    let mut def_rounds: Vec<Vec<CanonDef>> = Vec::new();
    let mut def_counter = 0usize;
    let mut candidates: BTreeSet<u32> = consumers.sourceless.iter().copied().collect();
    for &t in &t_rel {
        candidates.extend(consumers.by_tensor[t.0 as usize].iter().copied());
    }
    let mut first_round = true;
    loop {
        let mut round = Vec::new();
        let mut next: BTreeSet<u32> = BTreeSet::new();
        while let Some(pos) = candidates.pop_first() {
            if defs_added.contains(&pos) {
                continue;
            }
            let n = &gd.nodes()[pos as usize];
            if !n.inputs.iter().all(|t| t_rel.contains(t)) {
                // Not ready — dropped, re-queued when another input becomes
                // related (exactly when the scan's verdict could change).
                continue;
            }
            defs_added.insert(pos);
            let inputs_c: Vec<String> = n.inputs.iter().map(|&t| cz.assign(t)).collect();
            t_rel.insert(n.output);
            let output_c = cz.assign(n.output);
            let cname = format!("$n{def_counter}");
            def_counter += 1;
            cz.back.fact(
                format!("G_d definition of {cname}"),
                format!("G_d definition of {}", n.name),
            );
            round.push(CanonDef {
                name: cname,
                op: n.op.clone(),
                inputs: inputs_c,
                output: output_c,
            });
            for &c in &consumers.by_tensor[n.output.0 as usize] {
                if c > pos {
                    candidates.insert(c);
                } else {
                    next.insert(c);
                }
            }
        }
        if round.is_empty() && !first_round {
            break;
        }
        first_round = false;
        def_rounds.push(round);
        candidates = next;
    }

    (
        OpProblem {
            op: node.op.clone(),
            inputs,
            def_rounds,
            leaves: cz.leaves,
        },
        cz.back,
    )
}

impl OpProblem {
    /// The cache key: the problem rendered canonically. The engine
    /// configuration (limits, clean set, lemma corpus) is deliberately not
    /// part of it: the memo is created inside one `check_refinement` call
    /// and dies with it, so every key it ever holds was posed under the
    /// same `opts` and rewrite set.
    pub(crate) fn key(&self) -> String {
        use std::fmt::Write;
        let mut k = String::with_capacity(256);
        let _ = write!(k, "op={:?};", self.op);
        for (name, exprs) in &self.inputs {
            let _ = write!(k, "in {name}:");
            for e in exprs {
                let _ = write!(k, "{e},");
            }
            k.push(';');
        }
        for (r, defs) in self.def_rounds.iter().enumerate() {
            let _ = write!(k, "round{r}:");
            for d in defs {
                let _ = write!(k, "{:?}({})->{};", d.op, d.inputs.join(","), d.output);
            }
        }
        for l in &self.leaves {
            let _ = write!(k, "leaf {}:{}:{:?}:{};", l.name, l.shape, l.dtype, l.prefer);
        }
        k
    }
}

/// A solved canonical problem — everything an operator's merge step needs,
/// expressed in canonical names. Stored once per key in the memo
/// and replayed (renamed back) by every structurally identical operator.
#[derive(Debug)]
pub(crate) struct Solved {
    /// Clean variants with extraction cost and (when certifying) the proof
    /// chain to the encoded base term, sorted by `(cost, canonical text)`
    /// and truncated to `max_mappings`.
    pub variants: Vec<(f64, RecExpr, Option<Proof>)>,
    /// Frontier rounds run.
    pub rounds: usize,
    /// Limit-sticky stop reason across rounds: the last limit a round hit,
    /// else the last round's reason.
    pub stop: Option<StopReason>,
    /// E-graph size after extraction and proof generation.
    pub egraph_nodes: usize,
    /// E-graph size right after base-term encoding (the `encode` span
    /// attribute).
    pub encode_nodes: usize,
    /// One report per saturation round — replayed into the check's lemma
    /// stats and saturation telemetry so hit and miss are indistinguishable.
    pub run_reports: Vec<RunReport>,
}

/// Solves a canonical problem from scratch: encode the base term, pull in
/// the pre-computed closure round by round with a saturation run per round,
/// then extract (and, when certifying, prove) the clean variants. A round
/// stops at its answer (DESIGN.md, *When a saturation round stops*).
///
/// Deterministic given `(problem, opts, rewrites)`, so a memo hit replays
/// exactly what a fresh solve would compute — up to `StopReason::TimeLimit`
/// cuts, which depend on wall clock (see DESIGN.md's determinism contract).
/// `matcher` is `rewrites` compiled (once per check, by the caller).
pub(crate) fn solve_problem(
    p: &OpProblem,
    opts: &CheckOptions,
    rewrites: &[Rewrite<TensorAnalysis>],
    matcher: &CompiledMatcher,
) -> Solved {
    let mut analysis = TensorAnalysis::with_ctx(opts.sym_ctx.clone());
    for l in &p.leaves {
        analysis.register_leaf(&l.name, l.shape.clone(), l.dtype);
    }
    let mut eg = EGraph::with_analysis(analysis);

    let mut input_ids: Vec<Id> = Vec::with_capacity(p.inputs.len());
    for (name, exprs) in &p.inputs {
        let mut rep: Option<Id> = None;
        for e in exprs {
            let id = eg.add_expr(e);
            match rep {
                None => rep = Some(id),
                Some(first) => {
                    eg.union_with(
                        first,
                        id,
                        Justification::Given(format!("mappings of G_s tensor {name}")),
                    );
                }
            }
        }
        input_ids.push(rep.expect("non-empty canonical mapping list"));
    }
    let base = encode_op(&mut eg, &p.op, &input_ids);
    eg.rebuild();
    let encode_nodes = eg.total_nodes();

    let prefer: HashSet<&str> = p
        .leaves
        .iter()
        .filter(|l| l.prefer)
        .map(|l| l.name.as_str())
        .collect();
    // Tie-breaking must not depend on tensor names (canonical renaming
    // scrambles string order): bias every `$t{k}` leaf by its
    // first-occurrence index, so equal-cost extraction ties resolve to the
    // most upstream leaf — keeping the leaf diversity downstream frontiers
    // seed from. The bias is far below the 1e-6 prefer margin.
    let leaf_bias = |name: &str| -> f64 {
        name.strip_prefix("$t")
            .and_then(|k| k.parse::<u64>().ok())
            .map_or(0.0, |k| k as f64 * 1e-12)
    };
    let clean_variants = |eg: &EGraph<TensorAnalysis>| {
        extract_clean_variants(
            eg,
            base,
            &opts.clean,
            &prefer,
            opts.max_mappings,
            &leaf_bias,
        )
    };

    // A round without an answer runs to this guard; the e-matching of an
    // iteration cannot be cut short, so an unbounded round on a wrong
    // program can reach a collapsed e-graph whose search never ends.
    let iter_limit = ITER_SLACK
        + p.inputs
            .iter()
            .flat_map(|(_, exprs)| exprs)
            .map(height)
            .max()
            .unwrap_or(0);
    let mut stop: Option<StopReason> = None;
    let mut run_reports = Vec::with_capacity(p.def_rounds.len());
    for defs in &p.def_rounds {
        for d in defs {
            let inputs: Vec<&str> = d.inputs.iter().map(String::as_str).collect();
            encode_def(&mut eg, &d.op, &inputs, &d.output, &d.name);
        }
        eg.rebuild();
        let owned = std::mem::replace(&mut eg, EGraph::with_analysis(TensorAnalysis::default()));
        let mut runner = Runner::new(owned)
            .with_iter_limit(iter_limit)
            .with_node_limit(NODE_LIMIT)
            .with_time_limit(TIME_LIMIT);
        // The round has its answer once what extraction would return holds
        // still across an iteration that grew the e-graph.
        let mut last: Option<Vec<(f64, RecExpr)>> = None;
        let report = runner.run_until(rewrites, matcher, |eg| {
            let now = clean_variants(eg);
            let settled = !now.is_empty() && last.as_ref() == Some(&now);
            last = Some(now);
            settled
        });
        eg = runner.egraph;
        // Limit-sticky: a cut-short round is what the operator reports,
        // otherwise the last round's reason.
        if report.stop_reason.is_limit() || !stop.is_some_and(|s| s.is_limit()) {
            stop = Some(report.stop_reason);
        }
        run_reports.push(report);
    }

    let with_cost = clean_variants(&eg);
    let variants = if opts.certify {
        with_cost
            .into_iter()
            .map(|(c, expr)| {
                let vid = eg.add_expr(&expr);
                let proof = eg.explain_equivalence(base, vid);
                (c, expr, proof)
            })
            .collect()
    } else {
        with_cost.into_iter().map(|(c, e)| (c, e, None)).collect()
    };
    Solved {
        variants,
        rounds: p.def_rounds.len(),
        stop,
        egraph_nodes: eg.total_nodes(),
        encode_nodes,
        run_reports,
    }
}

/// The number of levels of `e`: a leaf has height 1.
fn height(e: &RecExpr) -> usize {
    // Children precede their parents in a `RecExpr`, so one forward pass
    // sees every child's height first.
    let mut heights: Vec<usize> = Vec::with_capacity(e.len());
    for node in e.nodes() {
        let below = node.children().iter().map(|c| heights[c.index()]).max();
        heights.push(1 + below.unwrap_or(0));
    }
    heights.last().copied().unwrap_or(0)
}
