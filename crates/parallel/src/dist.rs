//! The output of a distribution strategy: `G_d` plus the input relation.

use entangle::Relation;
use entangle_ir::{DeclaredLayout, Graph, IrError, TensorId};

/// The input-relation expression joining the shards `name.0`, …,
/// `name.{parts - 1}` along `dim`: a left-nested `concat` chain
/// (`(concat (concat name.0 name.1 dim) name.2 dim)`), `name.0` alone for
/// one shard. Every strategy writes its sharded inputs' maps through it.
pub(crate) fn join_shards(name: &str, parts: usize, dim: usize) -> String {
    (1..parts).fold(format!("{name}.0"), |expr, r| {
        format!("(concat {expr} {name}.{r} {dim})")
    })
}

/// A distributed implementation together with the clean input-relation
/// specification relating it back to the sequential model.
#[derive(Debug, Clone)]
pub struct Distributed {
    /// The distributed computation graph `G_d`.
    pub graph: Graph,
    /// `(G_s tensor name, s-expression over G_d tensor names)` pairs — the
    /// user-provided input relation `R_i`, emitted mechanically by the
    /// strategy that performed the partitioning.
    pub input_maps: Vec<(String, String)>,
    /// Layouts the strategy declared for the inputs it created, for
    /// cross-checking against the layouts the input relation implies
    /// (`entangle-shard`, code `SH06`). Strategies that predate the
    /// annotation simply leave this empty.
    pub declared: Vec<(TensorId, DeclaredLayout)>,
}

impl Distributed {
    /// Builds the validated [`Relation`] against the sequential graph.
    ///
    /// # Errors
    ///
    /// Propagates name/shape mismatches between the recorded maps and the
    /// two graphs (which would indicate a strategy bug).
    pub fn relation(&self, gs: &Graph) -> Result<Relation, IrError> {
        let mut b = Relation::builder(gs, &self.graph);
        for (gs_name, expr) in &self.input_maps {
            b.map(gs_name, expr)?;
        }
        Ok(b.build())
    }

    /// The identity "distribution": `G_d = G_s`, every input mapped to
    /// itself. The degenerate world-size-1 case.
    pub fn identity(gs: &Graph) -> Distributed {
        Distributed {
            graph: gs.clone(),
            input_maps: gs
                .inputs()
                .iter()
                .map(|&t| {
                    let name = gs.tensor(t).name.clone();
                    (name.clone(), name)
                })
                .collect(),
            declared: gs
                .inputs()
                .iter()
                .map(|&t| (t, DeclaredLayout::Replicated))
                .collect(),
        }
    }
}
