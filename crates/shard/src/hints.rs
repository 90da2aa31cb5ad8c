//! Relation hints: inferred layouts exported as candidate mappings.
//!
//! When the analysis proves a set of `G_d` tensors reconstructs a `G_s`
//! tensor — identical replicas, shards tiling a dimension, or partial sums
//! tiling a range — that proof *is* a relation mapping, which
//! `entangle shard` prints.

use std::collections::HashMap;

use entangle_ir::{Graph, TensorId};

use crate::domain::{AbsVal, TermId, TermTable};

/// `(start, end, gd tensor name)` pieces grouped by a shard/partial key.
type PieceGroups<K> = HashMap<K, Vec<(i64, i64, String)>>;

/// One exported mapping candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hint {
    /// The `G_s` tensor being mapped.
    pub gs_tensor: String,
    /// Mapping expression over `G_d` tensor names (paper s-expression
    /// syntax).
    pub expr: String,
}

/// Derives hints for every `G_s` operator output whose logical term is
/// reconstructible from `G_d` tensor layouts. Deterministic: `G_d` tensors
/// are considered in id order.
pub(crate) fn generate(
    gs: &Graph,
    gd: &Graph,
    gs_terms: &[TermId],
    values: &[AbsVal],
    table: &TermTable,
) -> Vec<Hint> {
    let mut by_term: HashMap<TermId, Vec<TensorId>> = HashMap::new();
    for t in gd.tensors() {
        if let Some(term) = values[t.id.0 as usize].term() {
            by_term.entry(term).or_default().push(t.id);
        }
    }

    let mut hints = Vec::new();
    for gs_tensor in gs.tensors() {
        if gs_tensor.producer.is_none() {
            continue; // inputs are already mapped by the input relation
        }
        let term = gs_terms[gs_tensor.id.0 as usize];
        let Some(gd_ids) = by_term.get(&term) else {
            continue;
        };
        // (dim) -> pieces; (axis, total) -> pieces
        let mut shard_groups: PieceGroups<usize> = HashMap::new();
        let mut partial_groups: PieceGroups<(usize, i64)> = HashMap::new();
        for &id in gd_ids {
            let name = gd.tensor(id).name.clone();
            match &values[id.0 as usize] {
                AbsVal::Rep(_) => hints.push(Hint {
                    gs_tensor: gs_tensor.name.clone(),
                    expr: name,
                }),
                AbsVal::Window {
                    dim, full, segs, ..
                } => {
                    let gs_extent = gs_tensor.shape.dims().get(*dim).and_then(|d| d.as_const());
                    if gs_extent != Some(*full) {
                        continue;
                    }
                    if let Some((s, e)) = entangle_ir::layout::pure_piece(segs) {
                        shard_groups.entry(*dim).or_default().push((s, e, name));
                    }
                }
                AbsVal::Partial {
                    start,
                    end,
                    total,
                    axis,
                    ..
                } => partial_groups
                    .entry((*axis, *total))
                    .or_default()
                    .push((*start, *end, name)),
                AbsVal::Unknown => {}
            }
        }
        for (dim, mut pieces) in sorted_groups(shard_groups) {
            let full = gs_tensor
                .shape
                .dims()
                .get(dim)
                .and_then(|d| d.as_const())
                .expect("checked above");
            if let Some(names) = tiling(&mut pieces, full) {
                hints.push(Hint {
                    gs_tensor: gs_tensor.name.clone(),
                    expr: fold(&names, &format!(" {dim})"), "(concat "),
                });
            }
        }
        for ((_axis, total), mut pieces) in sorted_groups(partial_groups) {
            if let Some(names) = tiling(&mut pieces, total) {
                hints.push(Hint {
                    gs_tensor: gs_tensor.name.clone(),
                    expr: fold(&names, ")", "(add "),
                });
            }
        }
    }
    let _ = table; // terms already resolved; kept for future diagnostics
    hints
}

/// Deterministic iteration over a small hash-keyed group map.
fn sorted_groups<K: Ord + Copy, V>(groups: HashMap<K, Vec<V>>) -> Vec<(K, Vec<V>)> {
    let mut out: Vec<_> = groups.into_iter().collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Sorts pieces, drops duplicates, and returns the member names when they
/// tile `[0, full)` exactly.
fn tiling(pieces: &mut Vec<(i64, i64, String)>, full: i64) -> Option<Vec<String>> {
    pieces.sort();
    pieces.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    if pieces.len() < 2 {
        return None;
    }
    let mut cursor = 0i64;
    for (s, e, _) in pieces.iter() {
        if *s != cursor {
            return None;
        }
        cursor = *e;
    }
    (cursor == full).then(|| pieces.iter().map(|(_, _, n)| n.clone()).collect())
}

/// Left-folded binary s-expression: `(head (head a b suffix) c suffix)`.
fn fold(names: &[String], suffix: &str, head: &str) -> String {
    let mut acc = names[0].clone();
    for n in &names[1..] {
        acc = format!("{head}{acc} {n}{suffix}");
    }
    acc
}
