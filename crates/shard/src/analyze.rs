//! The analysis driver: seed abstract layouts from the input relation,
//! interpret `G_s` into logical terms, propagate through `G_d` in one
//! topological pass, and report violations / export hints.

use std::collections::{HashMap, HashSet};

use entangle_egraph::{ENode, RecExpr};
use entangle_ir::layout::Seg;
use entangle_ir::{DeclaredLayout, Graph, Op, TensorId};
use entangle_lint::{Anchor, Diagnostic, LintReport};

use crate::domain::{AbsVal, TermId, TermTable};
use crate::hints::{self, Hint};
use crate::transfer;

/// The result of a sharding-propagation analysis over one `G_d`.
#[derive(Debug)]
pub struct ShardAnalysis {
    /// The shared term table (for rendering values).
    pub table: TermTable,
    /// Abstract layout per `G_d` tensor, indexed by [`TensorId`].
    pub values: Vec<AbsVal>,
    /// Diagnostics: `SH##` errors in topological order, then warnings.
    pub report: LintReport,
    /// Relation hints: the mappings the layouts prove (empty in
    /// self-seeded mode).
    pub hints: Vec<Hint>,
}

impl ShardAnalysis {
    /// The abstract layout of a tensor.
    pub fn value(&self, t: TensorId) -> &AbsVal {
        &self.values[t.0 as usize]
    }

    /// `true` when no layout errors were found.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// Counts of `(replicated, window, partial, unknown)` tensors.
    pub fn form_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for v in &self.values {
            match v {
                AbsVal::Rep(_) => c.0 += 1,
                AbsVal::Window { .. } => c.1 += 1,
                AbsVal::Partial { .. } => c.2 += 1,
                AbsVal::Unknown => c.3 += 1,
            }
        }
        c
    }

    /// One-line summary for `entangle info`.
    pub fn summary(&self) -> String {
        let (r, w, p, u) = self.form_counts();
        format!(
            "{r} replicated / {w} windowed / {p} partial / {u} unknown; {}",
            self.report.summary()
        )
    }

    /// Renders the analysis as a JSON object with a stable field order:
    /// `graph`, `clean`, `forms` (`replicated`/`window`/`partial`/`unknown`
    /// counts), `layouts` (tensor name → rendered layout), `hints`
    /// (a list of `{tensor, expr}` proven mappings), `diagnostics`.
    pub fn to_json(&self, gd: &Graph) -> String {
        use entangle_lint::json_str;
        let (r, w, p, u) = self.form_counts();
        let mut out = String::from("{");
        out.push_str(&format!("\"graph\":{}", json_str(gd.name())));
        out.push_str(&format!(",\"clean\":{}", self.is_clean()));
        out.push_str(&format!(
            ",\"forms\":{{\"replicated\":{r},\"window\":{w},\"partial\":{p},\"unknown\":{u}}}"
        ));
        let layouts: Vec<String> = gd
            .tensors()
            .iter()
            .map(|t| {
                format!(
                    "{}:{}",
                    json_str(&t.name),
                    json_str(&self.value(t.id).describe(&self.table))
                )
            })
            .collect();
        out.push_str(&format!(",\"layouts\":{{{}}}", layouts.join(",")));
        let hints: Vec<String> = self
            .hints
            .iter()
            .map(|h| {
                format!(
                    "{{\"tensor\":{},\"expr\":{}}}",
                    json_str(&h.gs_tensor),
                    json_str(&h.expr)
                )
            })
            .collect();
        out.push_str(&format!(",\"hints\":[{}]", hints.join(",")));
        let diags: Vec<String> = self
            .report
            .diagnostics
            .iter()
            .map(|d| d.to_json(Some(gd)))
            .collect();
        out.push_str(&format!(",\"diagnostics\":[{}]}}", diags.join(",")));
        out
    }

    /// Renders the per-tensor layout table.
    pub fn describe(&self, gd: &Graph) -> String {
        let mut out = String::new();
        for t in gd.tensors() {
            out.push_str(&format!(
                "  {:<24} {}\n",
                t.name,
                self.value(t.id).describe(&self.table)
            ));
        }
        out
    }
}

/// Self-seeded analysis of a single graph: every input is its own
/// replicated leaf. Useful for structural layout inspection and CI sweeps;
/// cross-rank consistency checks need [`analyze_pair`]'s relation seeds.
pub fn analyze_graph(gd: &Graph) -> ShardAnalysis {
    let mut table = TermTable::new();
    let mut seeds: HashMap<TensorId, AbsVal> = HashMap::new();
    for &i in gd.inputs() {
        let t = table.leaf(&gd.tensor(i).name);
        seeds.insert(i, AbsVal::Rep(t));
    }
    let mut report = LintReport::default();
    let values = propagate(gd, &mut table, &seeds, &mut report);
    ShardAnalysis {
        table,
        values,
        report,
        hints: Vec::new(),
    }
}

/// Full paired analysis: interpret `gs` into logical terms, seed `gd`
/// inputs from the input-relation `maps` (pairs of `G_s` tensor name and
/// mapping expression over `G_d` tensor names), propagate, cross-check any
/// `declared` builder layouts, and derive relation hints.
pub fn analyze_pair(
    gs: &Graph,
    gd: &Graph,
    maps: &[(String, RecExpr)],
    declared: &[(TensorId, DeclaredLayout)],
) -> ShardAnalysis {
    let mut table = TermTable::new();
    let gs_terms = gs_terms(gs, &mut table);

    let mut seeds: HashMap<TensorId, AbsVal> = HashMap::new();
    let mut mentioned: HashSet<TensorId> = HashSet::new();
    for (gs_name, expr) in maps {
        seed_one(gs, gd, &gs_terms, gs_name, expr, &mut seeds, &mut mentioned);
    }

    let mut warnings: Vec<Diagnostic> = Vec::new();
    check_declared(gd, &table, &seeds, declared, &mut warnings);

    // SH05: an input that feeds the outputs but appears in no mapping can
    // silently absorb a missing shard (bug-4 shape); flag it before the
    // checker discovers an unmappable operator downstream.
    let live = live_tensors(gd);
    for &i in gd.inputs() {
        if live.contains(&i) && !seeds.contains_key(&i) && !mentioned.contains(&i) {
            warnings.push(
                Diagnostic::warning(
                    crate::codes::UNMAPPED_INPUT,
                    Anchor::Tensor(i),
                    format!(
                        "input {:?} is reachable from the outputs but no input \
                         mapping mentions it; its layout is unknown",
                        gd.tensor(i).name
                    ),
                )
                .with_suggestion("add it to the input relation (or remove it)"),
            );
        }
    }

    let mut report = LintReport::default();
    let values = propagate(gd, &mut table, &seeds, &mut report);
    report.diagnostics.extend(warnings);

    let hints = hints::generate(gs, gd, &gs_terms, &values, &table);
    ShardAnalysis {
        table,
        values,
        report,
        hints,
    }
}

/// One topological pass of the transfer functions; unseeded inputs get
/// fresh opaque terms (sound: fresh terms match nothing).
fn propagate(
    gd: &Graph,
    table: &mut TermTable,
    seeds: &HashMap<TensorId, AbsVal>,
    report: &mut LintReport,
) -> Vec<AbsVal> {
    let mut values = vec![AbsVal::Unknown; gd.num_tensors()];
    for &i in gd.inputs() {
        values[i.0 as usize] = match seeds.get(&i) {
            Some(v) => v.clone(),
            None => AbsVal::Rep(table.fresh_term()),
        };
    }
    for node in gd.nodes() {
        let ins: Vec<AbsVal> = node
            .inputs
            .iter()
            .map(|&t| values[t.0 as usize].clone())
            .collect();
        let out = match transfer::transfer(table, gd, node, &ins) {
            Ok(v) => v,
            Err(e) => {
                let mut d = Diagnostic::error(e.code, Anchor::Node(node.id), e.message);
                if let Some(s) = e.suggestion {
                    d = d.with_suggestion(s);
                }
                report.diagnostics.push(d);
                // Widening to Unknown silences downstream cascades: every
                // transfer error requires known operand layouts.
                AbsVal::Unknown
            }
        };
        values[node.output.0 as usize] = out;
    }
    values
}

/// Interprets `G_s` into logical terms, one per tensor. Operators with
/// symbolic attributes become opaque fresh terms.
fn gs_terms(gs: &Graph, table: &mut TermTable) -> Vec<TermId> {
    let mut terms: Vec<TermId> = vec![0; gs.num_tensors()];
    for &i in gs.inputs() {
        terms[i.0 as usize] = table.leaf(&gs.tensor(i).name);
    }
    for node in gs.nodes() {
        let children: Vec<TermId> = node.inputs.iter().map(|&t| terms[t.0 as usize]).collect();
        let t = match &node.op {
            Op::Identity => children[0],
            Op::ScalarMul { numer, denom } => table.scaled(children[0], *numer, *denom),
            Op::OnesLike => match gs.tensor(node.output).shape.as_concrete() {
                Some(dims) => table.op("ones", Vec::new(), dims),
                None => table.fresh_term(),
            },
            Op::Concat { dim } | Op::AllGather { dim } => table.fold_concat(&children, *dim),
            Op::AllReduce => table.fold_add(&children),
            op => {
                let attrs: Option<Vec<i64>> =
                    op.attr_scalars().iter().map(|e| e.as_const()).collect();
                match attrs {
                    Some(attrs) => table.op(op.name(), children, attrs),
                    None => table.fresh_term(),
                }
            }
        };
        terms[node.output.0 as usize] = t;
    }
    terms
}

/// The shape of one mapping expression, as far as seeding understands it.
enum Flat {
    /// A bare `G_d` tensor name: the tensor holds the full value.
    Identity(String),
    /// A (possibly nested, same-dim) concat of `G_d` tensor names, in
    /// order.
    Shards(usize, Vec<String>),
    /// Anything else: leaves are only *mentioned*, not seeded.
    Other,
}

fn flatten_map(expr: &RecExpr) -> Flat {
    fn collect(expr: &RecExpr, id: entangle_egraph::Id, dim: i64, out: &mut Vec<String>) -> bool {
        match expr.node(id) {
            ENode::Op(sym, ch) if ch.is_empty() => {
                out.push(sym.as_str().to_owned());
                true
            }
            ENode::Op(sym, ch) if sym.as_str() == "concat" && ch.len() == 3 => {
                expr.node(ch[2]).as_int() == Some(dim)
                    && collect(expr, ch[0], dim, out)
                    && collect(expr, ch[1], dim, out)
            }
            _ => false,
        }
    }
    match expr.root() {
        ENode::Op(sym, ch) if ch.is_empty() => Flat::Identity(sym.as_str().to_owned()),
        ENode::Op(sym, ch) if sym.as_str() == "concat" && ch.len() == 3 => {
            let Some(dim) = expr.node(ch[2]).as_int() else {
                return Flat::Other;
            };
            let mut leaves = Vec::new();
            if collect(expr, ch[0], dim, &mut leaves) && collect(expr, ch[1], dim, &mut leaves) {
                Flat::Shards(dim as usize, leaves)
            } else {
                Flat::Other
            }
        }
        _ => Flat::Other,
    }
}

#[allow(clippy::too_many_arguments)]
fn seed_one(
    gs: &Graph,
    gd: &Graph,
    gs_terms: &[TermId],
    gs_name: &str,
    expr: &RecExpr,
    seeds: &mut HashMap<TensorId, AbsVal>,
    mentioned: &mut HashSet<TensorId>,
) {
    let mention_all = |mentioned: &mut HashSet<TensorId>| {
        for sym in expr.leaf_symbols() {
            if let Some(t) = gd.tensor_by_name(sym.as_str()) {
                mentioned.insert(t.id);
            }
        }
    };
    let Some(gs_t) = gs.tensor_by_name(gs_name) else {
        mention_all(mentioned);
        return;
    };
    let term = gs_terms[gs_t.id.0 as usize];
    match flatten_map(expr) {
        Flat::Identity(leaf) => {
            if let Some(t) = gd.tensor_by_name(&leaf) {
                mentioned.insert(t.id);
                seeds.entry(t.id).or_insert(AbsVal::Rep(term));
            }
        }
        Flat::Shards(dim, leaves) => {
            mention_all(mentioned);
            let full = gs_t.shape.dims().get(dim).and_then(|d| d.as_const());
            let gd_ts: Option<Vec<&entangle_ir::Tensor>> = leaves
                .iter()
                .map(|n| gd.tensor_by_name(n.as_str()))
                .collect();
            let (Some(full), Some(gd_ts)) = (full, gd_ts) else {
                return;
            };
            let extents: Option<Vec<i64>> = gd_ts
                .iter()
                .map(|t| t.shape.dims().get(dim).and_then(|d| d.as_const()))
                .collect();
            let Some(extents) = extents else { return };
            if extents.iter().sum::<i64>() != full {
                return;
            }
            let mut off = 0i64;
            for (t, len) in gd_ts.iter().zip(extents) {
                seeds.entry(t.id).or_insert_with(|| {
                    AbsVal::window(
                        term,
                        dim,
                        full,
                        vec![Seg::Piece {
                            start: off,
                            end: off + len,
                        }],
                    )
                });
                off += len;
            }
        }
        Flat::Other => mention_all(mentioned),
    }
}

/// SH06: compare what the distribution strategy *declared* against what
/// the input relation *implies*.
fn check_declared(
    gd: &Graph,
    table: &TermTable,
    seeds: &HashMap<TensorId, AbsVal>,
    declared: &[(TensorId, DeclaredLayout)],
    warnings: &mut Vec<Diagnostic>,
) {
    for (tid, decl) in declared {
        let Some(seeded) = seeds.get(tid) else {
            continue;
        };
        let agrees = match (decl, seeded) {
            (DeclaredLayout::Replicated, AbsVal::Rep(_)) => true,
            (
                DeclaredLayout::Sharded { dim, index, parts },
                AbsVal::Window {
                    dim: wd,
                    full,
                    segs,
                    ..
                },
            ) => {
                let p = *parts as i64;
                *wd == *dim
                    && full % p == 0
                    && entangle_ir::layout::pure_piece(segs)
                        == Some((*index as i64 * (full / p), (*index as i64 + 1) * (full / p)))
            }
            _ => false,
        };
        if !agrees {
            warnings.push(
                Diagnostic::warning(
                    crate::codes::DECLARED_MISMATCH,
                    Anchor::Tensor(*tid),
                    format!(
                        "strategy declares {:?} as {decl}, but the input \
                         relation implies {}",
                        gd.tensor(*tid).name,
                        seeded.describe(table)
                    ),
                )
                .with_suggestion("the declaration or the input relation is stale"),
            );
        }
    }
}

/// Tensors backward-reachable from the graph outputs.
fn live_tensors(gd: &Graph) -> HashSet<TensorId> {
    let mut live: HashSet<TensorId> = HashSet::new();
    let mut stack: Vec<TensorId> = gd.outputs().to_vec();
    while let Some(t) = stack.pop() {
        if live.insert(t) {
            if let Some(node) = gd.producer(t) {
                stack.extend(node.inputs.iter().copied());
            }
        }
    }
    live
}
