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
    BackoffSchedule, CompiledMatcher, EGraph, ENode, Id, Justification, Proof, RecExpr, Rewrite,
    RunReport, Runner, StopReason, Symbol,
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
    /// part of it: the memo and the template slots are created inside one
    /// `check_refinement` call and die with it, so every key they ever hold
    /// was posed under the same `opts` and rewrite set.
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

    /// The *template* cache key: the canonical problem re-normalized so that
    /// structurally corresponding members of an `entangle-iso` template
    /// class render identically even when their canonical forms differ:
    ///
    /// - every concrete integer slice bound becomes a *per-site* `$b`
    ///   placeholder (no value dedup — sibling instances disagree on which
    ///   values coincide); the concrete values are returned in render order
    ///   in [`TemplateKey::bounds`];
    /// - frontier-definition output tensors are renumbered `$c0, $c1, …` in
    ///   a structure-sorted order (per closure round, per readiness batch,
    ///   sorted by abstracted signature, then concrete bound values, then
    ///   original position). Definition outputs that are *also* input-mapping
    ///   leaves keep their `$t` names — the mapping-determined namespace is
    ///   member-invariant and anchors each member's "own" definitions to the
    ///   same slot.
    ///
    /// The original `$n{j}` fact labels and output tensor names are returned
    /// per normalized slot in [`TemplateKey::defs`], so a hit can translate
    /// the representative's solution into the member's canonical namespace
    /// with a [`Renamer`]. The key is prefixed with the structural class id
    /// so problems from different template classes can never collide — a
    /// cross-class collision would hand one class's solution to a member of
    /// another.
    ///
    /// Returns `None` when a closure round cannot be topologically ordered
    /// (never happens for frontier output — defensive only).
    pub(crate) fn template_key(&self, class: usize) -> Option<TemplateKey> {
        use std::fmt::Write;
        let mut bounds = Vec::new();
        let mut key = String::with_capacity(512);
        let _ = write!(key, "class={class};op=");
        abstract_op(&mut key, &self.op, &mut bounds);
        key.push(';');
        for (name, exprs) in &self.inputs {
            let _ = write!(key, "in {name}:");
            for e in exprs {
                abstract_expr(&mut key, e, e.root_id(), false, &mut bounds);
                key.push(',');
            }
            key.push(';');
        }

        let mapping_leaves: HashSet<String> = self
            .inputs
            .iter()
            .flat_map(|(_, es)| es.iter())
            .flat_map(|e| e.leaf_symbols())
            .map(|s| s.as_str().to_owned())
            .collect();
        let def_outputs: HashSet<&str> = self
            .def_rounds
            .iter()
            .flatten()
            .map(|d| d.output.as_str())
            .collect();
        // Maps renumbered definition outputs; mapping-determined names are
        // identity and need no entry.
        let mut norm: HashMap<String, String> = HashMap::new();
        let mut defs_meta: Vec<(String, String)> = Vec::new();
        let mut renumbered = 0usize;
        let resolve = |norm: &HashMap<String, String>, name: &str| -> Option<String> {
            if let Some(n) = norm.get(name) {
                Some(n.clone())
            } else if def_outputs.contains(name) && !mapping_leaves.contains(name) {
                None
            } else {
                Some(name.to_owned())
            }
        };
        for round in &self.def_rounds {
            key.push_str("round:");
            let mut remaining: Vec<&CanonDef> = round.iter().collect();
            while !remaining.is_empty() {
                // (signature, site values, original position, def)
                let mut ready: Vec<(String, Vec<i64>, usize, &CanonDef)> = Vec::new();
                let mut rest: Vec<&CanonDef> = Vec::new();
                for (pos, d) in remaining.into_iter().enumerate() {
                    let mut sig = String::new();
                    let mut vals = Vec::new();
                    abstract_op(&mut sig, &d.op, &mut vals);
                    sig.push('(');
                    let mut resolved = true;
                    for i in &d.inputs {
                        match resolve(&norm, i) {
                            Some(n) => {
                                sig.push_str(&n);
                                sig.push(',');
                            }
                            None => {
                                resolved = false;
                                break;
                            }
                        }
                    }
                    if !resolved {
                        rest.push(d);
                        continue;
                    }
                    sig.push(')');
                    if mapping_leaves.contains(&d.output) {
                        // Leaf-anchored output: part of the signature, so
                        // each member's "own" definitions sort to the same
                        // slot regardless of their concrete bounds.
                        let _ = write!(sig, "->{}", d.output);
                    }
                    ready.push((sig, vals, pos, d));
                }
                if ready.is_empty() {
                    return None;
                }
                ready.sort_by(|a, b| {
                    a.0.cmp(&b.0)
                        .then_with(|| a.1.cmp(&b.1))
                        .then(a.2.cmp(&b.2))
                });
                for (sig, vals, _, d) in ready {
                    let out = if mapping_leaves.contains(&d.output) {
                        d.output.clone()
                    } else {
                        let c = format!("$c{renumbered}");
                        renumbered += 1;
                        norm.insert(d.output.clone(), c.clone());
                        c
                    };
                    let _ = write!(key, "{sig}->{out};");
                    bounds.extend(vals);
                    defs_meta.push((d.name.clone(), d.output.clone()));
                }
                remaining = rest;
            }
        }

        // Leaves: mapping-determined ones in original (member-invariant)
        // order, then definition outputs in normalized slot order.
        let by_name: HashMap<&str, &CanonLeaf> =
            self.leaves.iter().map(|l| (l.name.as_str(), l)).collect();
        for l in &self.leaves {
            if def_outputs.contains(l.name.as_str()) && !mapping_leaves.contains(&l.name) {
                continue;
            }
            let _ = write!(
                key,
                "leaf {}:{}:{:?}:{};",
                l.name, l.shape, l.dtype, l.prefer
            );
        }
        for (_, out) in &defs_meta {
            if mapping_leaves.contains(out) {
                continue;
            }
            let l = by_name.get(out.as_str())?;
            let _ = write!(
                key,
                "leaf {}:{}:{:?}:{};",
                norm[out], l.shape, l.dtype, l.prefer
            );
        }
        Some(TemplateKey {
            key,
            bounds,
            defs: defs_meta,
        })
    }
}

/// A per-template cache key: see [`OpProblem::template_key`].
pub(crate) struct TemplateKey {
    pub key: String,
    /// Concrete slice-bound values, one per `$b` site, in render order.
    pub bounds: Vec<i64>,
    /// Per normalized definition slot: the (`$n{j}` fact label, output
    /// tensor name) pair in this problem's own canonical namespace. Two
    /// problems with equal keys pair slot-by-slot; differing entries become
    /// `Renamer` translations from the representative's namespace into the
    /// member's.
    pub defs: Vec<(String, String)>,
}

/// Renders an operator with concrete slice bounds abstracted to per-site
/// `$b` placeholders (values pushed onto `bounds`); every other attribute
/// (dims, scales, ranks) stays concrete — it is part of the template's
/// structure, not its parameterization.
fn abstract_op(out: &mut String, op: &Op, bounds: &mut Vec<i64>) {
    use std::fmt::Write;
    match op {
        Op::Slice { dim, start, end } if start.as_const().is_some() && end.as_const().is_some() => {
            bounds.push(start.as_const().unwrap());
            bounds.push(end.as_const().unwrap());
            let _ = write!(out, "Slice[dim={dim},start=$b,end=$b]");
        }
        op => {
            let _ = write!(out, "{op:?}");
        }
    }
}

/// Renders an expression in [`RecExpr`] display syntax with integers in
/// slice-bound positions (children 2 and 3 of a 4-argument `slice`)
/// abstracted to per-site `$b` placeholders; integers anywhere else —
/// dims, scalars — stay concrete.
fn abstract_expr(out: &mut String, e: &RecExpr, at: Id, bound_pos: bool, bounds: &mut Vec<i64>) {
    use std::fmt::Write;
    match e.node(at) {
        ENode::Int(i) if bound_pos => {
            bounds.push(*i);
            out.push_str("$b");
        }
        ENode::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ENode::Sym(s) => {
            let _ = write!(out, "{{{s}}}");
        }
        ENode::Op(sym, ch) if ch.is_empty() => {
            let _ = write!(out, "{sym}");
        }
        ENode::Op(sym, ch) => {
            let slice_bounds = sym.as_str() == "slice" && ch.len() == 4;
            let _ = write!(out, "({sym}");
            for (i, c) in ch.iter().enumerate() {
                out.push(' ');
                abstract_expr(out, e, *c, slice_bounds && i >= 2, bounds);
            }
            out.push(')');
        }
    }
}

/// A solved canonical problem — everything an operator's merge step needs,
/// expressed in canonical names. Stored once per key in the sharded cache
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
    backoff: Option<&BackoffSchedule>,
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
            .with_time_limit(TIME_LIMIT)
            .with_backoff(backoff.cloned());
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
