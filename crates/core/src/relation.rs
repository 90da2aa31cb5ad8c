//! Relations: sets of (tensor, clean-expression) mappings (§3.2).

use std::collections::BTreeMap;
use std::fmt;

use entangle_egraph::RecExpr;
use entangle_ir::{Graph, IrError, Shape, TensorId};
use entangle_lemmas::{infer_application, Meta};

/// A relation from `G_s` tensors to expressions over `G_d` tensors.
///
/// Each entry pairs a `G_s` tensor with one or more expressions whose leaves
/// are `G_d` tensor *names*; several mappings per tensor model replication
/// (§3.2: "a relation might provide several mappings for the same tensor").
///
/// Built through [`Relation::builder`], which validates each expression's
/// shape against the `G_s` tensor it maps.
///
/// Entries are kept ordered by `G_s` tensor id (and mappings in insertion
/// order), so iteration — and everything rendered from it, including the
/// JSON certificate interchange — is deterministic and byte-stable.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    map: BTreeMap<TensorId, Vec<RecExpr>>,
}

impl Relation {
    /// An empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Starts a validated builder for an input relation from `gs` to `gd`.
    pub fn builder<'a>(gs: &'a Graph, gd: &'a Graph) -> RelationBuilder<'a> {
        RelationBuilder {
            gs,
            gd,
            rel: Relation::new(),
        }
    }

    /// Adds a mapping (unvalidated; prefer the builder for user input).
    pub fn insert(&mut self, tensor: TensorId, expr: RecExpr) {
        let entry = self.map.entry(tensor).or_default();
        if !entry.contains(&expr) {
            entry.push(expr);
        }
    }

    /// The mappings recorded for a tensor.
    pub fn mappings(&self, tensor: TensorId) -> Option<&[RecExpr]> {
        self.map.get(&tensor).map(Vec::as_slice)
    }

    /// `true` if the tensor has at least one mapping.
    pub fn contains(&self, tensor: TensorId) -> bool {
        self.map.contains_key(&tensor)
    }

    /// Number of mapped tensors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no tensor is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(tensor, expressions)` pairs, ordered by tensor id.
    pub fn iter(&self) -> impl Iterator<Item = (TensorId, &[RecExpr])> {
        self.map.iter().map(|(t, e)| (*t, e.as_slice()))
    }

    /// Is the relation *complete* for the given tensors (§3.2): does it map
    /// every one of them?
    pub fn is_complete_for(&self, tensors: &[TensorId]) -> bool {
        tensors.iter().all(|t| self.contains(*t))
    }

    /// Renders the relation with `G_s` tensor names resolved through `gs`.
    pub fn display<'a>(&'a self, gs: &'a Graph) -> RelationDisplay<'a> {
        RelationDisplay { rel: self, gs }
    }
}

/// Display adapter produced by [`Relation::display`].
pub struct RelationDisplay<'a> {
    rel: &'a Relation,
    gs: &'a Graph,
}

impl fmt::Display for RelationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, exprs) in &self.rel.map {
            let name = &self.gs.tensor(*t).name;
            for e in exprs {
                writeln!(f, "  {name} -> {e}")?;
            }
        }
        Ok(())
    }
}

/// Validating builder for input relations.
///
/// Each mapping is parsed from the paper's s-expression syntax, its leaves
/// are resolved against `G_d`'s tensor names, and its shape is inferred and
/// compared against the `G_s` tensor — malformed input relations are the
/// most common user error, and this is where they surface.
pub struct RelationBuilder<'a> {
    gs: &'a Graph,
    gd: &'a Graph,
    rel: Relation,
}

impl<'a> RelationBuilder<'a> {
    /// Maps the `G_s` tensor named `gs_tensor` to `expr` (s-expression over
    /// `G_d` tensor names).
    ///
    /// # Errors
    ///
    /// Rejects unknown tensor names on either side, unparsable expressions,
    /// and expressions whose inferred shape or dtype disagree with the
    /// `G_s` tensor.
    pub fn map(&mut self, gs_tensor: &str, expr: &str) -> Result<&mut Self, IrError> {
        let t = self
            .gs
            .tensor_by_name(gs_tensor)
            .ok_or_else(|| IrError::UnknownTensor(format!("{gs_tensor} in G_s")))?;
        let parsed: RecExpr = expr
            .parse()
            .map_err(|e| IrError::Invalid(format!("mapping for {gs_tensor}: {e}")))?;
        let (shape, dtype) = infer_expr_meta(&parsed, self.gd)?;
        if shape != t.shape {
            return Err(IrError::Shape(format!(
                "mapping for {gs_tensor}: expression has shape {shape}, tensor has {}",
                t.shape
            )));
        }
        if dtype != t.dtype {
            return Err(IrError::Shape(format!(
                "mapping for {gs_tensor}: expression has dtype {dtype}, tensor has {}",
                t.dtype
            )));
        }
        self.rel.insert(t.id, parsed);
        Ok(self)
    }

    /// Maps a `G_s` tensor to a single identical `G_d` tensor.
    ///
    /// # Errors
    ///
    /// Same as [`RelationBuilder::map`].
    pub fn identity(&mut self, gs_tensor: &str, gd_tensor: &str) -> Result<&mut Self, IrError> {
        self.map(gs_tensor, gd_tensor)
    }

    /// Maps a `G_s` tensor to each of several replicas (one identity mapping
    /// per replica), modeling replicated inputs.
    ///
    /// # Errors
    ///
    /// Same as [`RelationBuilder::map`].
    pub fn replicated(
        &mut self,
        gs_tensor: &str,
        gd_tensors: &[&str],
    ) -> Result<&mut Self, IrError> {
        for gd in gd_tensors {
            self.map(gs_tensor, gd)?;
        }
        Ok(self)
    }

    /// Maps a `G_s` tensor to the concatenation of shards along `dim`
    /// (left-folded binary concats, matching the e-graph lowering).
    ///
    /// # Errors
    ///
    /// Same as [`RelationBuilder::map`].
    pub fn sharded(
        &mut self,
        gs_tensor: &str,
        gd_tensors: &[&str],
        dim: usize,
    ) -> Result<&mut Self, IrError> {
        let mut expr = gd_tensors
            .first()
            .ok_or_else(|| IrError::Invalid("sharded mapping needs shards".into()))?
            .to_string();
        for shard in &gd_tensors[1..] {
            expr = format!("(concat {expr} {shard} {dim})");
        }
        self.map(gs_tensor, &expr)
    }

    /// Finishes the builder.
    pub fn build(&mut self) -> Relation {
        std::mem::take(&mut self.rel)
    }
}

/// Infers the shape and dtype of an expression over `G_d` tensor names.
pub(crate) fn infer_expr_meta(
    expr: &RecExpr,
    gd: &Graph,
) -> Result<(Shape, entangle_ir::DType), IrError> {
    let mut metas: Vec<Meta> = Vec::with_capacity(expr.len());
    for node in expr.nodes() {
        let meta = match node {
            entangle_egraph::ENode::Int(i) => {
                Meta::scalar(entangle_symbolic::SymExpr::constant(*i))
            }
            entangle_egraph::ENode::Sym(e) => Meta::scalar(e.clone()),
            entangle_egraph::ENode::Op(sym, ch) if ch.is_empty() => {
                let t = gd
                    .tensor_by_name(sym.as_str())
                    .ok_or_else(|| IrError::UnknownTensor(format!("{} in G_d", sym.as_str())))?;
                Meta::tensor(t.shape.clone(), t.dtype)
            }
            entangle_egraph::ENode::Op(sym, ch) => {
                let child_metas: Vec<&Meta> = ch.iter().map(|c| &metas[c.index()]).collect();
                infer_application(*sym, &child_metas)?
            }
        };
        metas.push(meta);
    }
    let root = metas
        .last()
        .ok_or_else(|| IrError::Invalid("empty expression".into()))?;
    match (&root.shape, root.dtype) {
        (Some(s), Some(d)) => Ok((s.clone(), d)),
        _ => Err(IrError::Invalid("expression is not a tensor".into())),
    }
}
