//! Generic data parallelism over *generated* training graphs.
//!
//! Where [`crate::data_parallel`] hand-writes the distributed regression
//! training step, this module derives everything: the sequential training
//! graph comes from [`entangle_autodiff::backward`], and the distributed
//! implementation is produced by instantiating the same (differentiated)
//! graph once per replica over batch shards, then combining losses and
//! gradients with the all-reduce-and-average discipline.
//!
//! This is the strongest version of the paper's workflow: both `G_s` and
//! `G_d` are *generated*, and the checker still has to relate them through
//! the lemma corpus — including the scalar-linearity lemmas that float the
//! `2/N`-style factors autodiff introduces.

use std::collections::HashMap;

use entangle_autodiff::{backward, AutodiffError, GradGraph};
use entangle_ir::{Dim, Graph, GraphBuilder, IrError, Op, TensorId};

use crate::dist::{join_shards, Distributed};

/// Errors from the generated-DP transform.
#[derive(Debug)]
pub enum DpError {
    /// Differentiation of the forward graph failed.
    Autodiff(AutodiffError),
    /// Graph construction failed (e.g. a batch dim that does not divide).
    Ir(IrError),
    /// A named batch input does not exist or cannot be sharded.
    BadBatchInput(String),
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::Autodiff(e) => write!(f, "autodiff failed: {e}"),
            DpError::Ir(e) => write!(f, "graph construction failed: {e}"),
            DpError::BadBatchInput(m) => write!(f, "bad batch input: {m}"),
        }
    }
}

impl std::error::Error for DpError {}

impl From<AutodiffError> for DpError {
    fn from(e: AutodiffError) -> Self {
        DpError::Autodiff(e)
    }
}

impl From<IrError> for DpError {
    fn from(e: IrError) -> Self {
        DpError::Ir(e)
    }
}

/// The result of [`data_parallel_training`]: the generated sequential
/// training graph and its generated distributed implementation.
#[derive(Debug)]
pub struct DpTraining {
    /// `G_s`: the forward graph extended with gradients (loss and every
    /// gradient are outputs).
    pub sequential: GradGraph,
    /// `G_d` + input relation.
    pub distributed: Distributed,
}

/// Differentiates `fwd` at `loss` and data-parallelizes the resulting
/// training step across `replicas` batch shards.
///
/// `batch_inputs` names the inputs sharded on dim 0 (data and labels);
/// every other input is treated as a replicated parameter. Losses and
/// gradients are all-reduced; with `average` they are additionally scaled
/// by `1/R`. Gradients of batch inputs are gathered (scaled per shard when
/// averaging).
///
/// Use `average = false` with *sum*-semantics losses (see
/// [`entangle_models::regression_sum_loss`]): shard quantities then add up
/// exactly and every backward intermediate maps cleanly. Mean-semantics
/// losses with `average = true` are numerically correct too, but bake a
/// batch-size scale into every per-replica gradient — intermediate tensors
/// then relate to the sequential ones only through a (non-clean) scale, and
/// the checker reports a violation of the paper's §3.3 assumptions. That
/// expected false alarm is kept as a test
/// (`dp_mean_loss_average_is_a_documented_false_alarm`).
///
/// # Errors
///
/// Fails when differentiation is unsupported, a batch input is unknown or
/// does not divide by `replicas`, or the shard instantiation produces an
/// invalid graph (e.g. an operator whose attributes bake in the full batch
/// size).
pub fn data_parallel_training(
    fwd: &Graph,
    loss: TensorId,
    batch_inputs: &[&str],
    replicas: usize,
    average: bool,
) -> Result<DpTraining, DpError> {
    assert!(replicas >= 1);
    let r = replicas as i64;

    // G_s: the full-batch training step.
    let sequential = backward(fwd, loss)?;

    // The shard template: the same forward graph at batch/R, differentiated.
    let shard_fwd = reshard(fwd, batch_inputs, replicas)?;
    let shard_loss = shard_fwd
        .tensor_by_name(&fwd.tensor(loss).name)
        .expect("loss survives resharding")
        .id;
    let shard_train = backward(&shard_fwd, shard_loss)?;

    // Instantiate the shard-training template once per replica into one
    // global graph, sharing parameter inputs.
    let mut g = GraphBuilder::new("dist-dp-training");
    let mut maps: Vec<(String, String)> = Vec::new();
    let mut shared: HashMap<String, TensorId> = HashMap::new();
    let mut instances: Vec<HashMap<TensorId, TensorId>> = Vec::new();

    for rep in 0..replicas {
        let mut map: HashMap<TensorId, TensorId> = HashMap::new();
        for &input in shard_train.graph.inputs() {
            let t = shard_train.graph.tensor(input);
            let id = if batch_inputs.contains(&t.name.as_str()) {
                let name = format!("{}.{rep}", t.name);
                g.input_shaped(&name, t.shape.clone(), t.dtype)
            } else {
                match shared.get(&t.name) {
                    Some(&id) => id,
                    None => {
                        let id = g.input_shaped(&t.name, t.shape.clone(), t.dtype);
                        shared.insert(t.name.clone(), id);
                        maps.push((t.name.clone(), t.name.clone()));
                        id
                    }
                }
            };
            map.insert(input, id);
        }
        for node in shard_train.graph.nodes() {
            let inputs: Vec<TensorId> = node.inputs.iter().map(|t| map[t]).collect();
            let out = g
                .apply(&format!("r{rep}.{}", node.name), node.op.clone(), &inputs)
                .map_err(DpError::Ir)?;
            map.insert(node.output, out);
        }
        instances.push(map);
    }

    // Input maps for the sharded batch inputs.
    for name in batch_inputs {
        maps.push(((*name).to_owned(), join_shards(name, replicas, 0)));
    }

    // Combine: average the losses and the parameter gradients; scale and
    // gather the batch-input gradients.
    let combine =
        |g: &mut GraphBuilder, name: &str, parts: &[TensorId]| -> Result<TensorId, DpError> {
            let red = if parts.len() == 1 {
                parts[0]
            } else {
                g.apply(&format!("{name}_allreduce"), Op::AllReduce, parts)?
            };
            Ok(if average && parts.len() > 1 {
                g.apply(
                    &format!("{name}_avg"),
                    Op::ScalarMul { numer: 1, denom: r },
                    &[red],
                )?
            } else {
                red
            })
        };

    let losses: Vec<TensorId> = instances.iter().map(|m| m[&shard_loss]).collect();
    let total_loss = combine(&mut g, "loss", &losses)?;
    g.mark_output(total_loss);

    for &input in shard_train.graph.inputs() {
        let Some(grad) = shard_train.grad_of(input) else {
            continue;
        };
        let name = &shard_train.graph.tensor(input).name;
        let parts: Vec<TensorId> = instances.iter().map(|m| m[&grad]).collect();
        if batch_inputs.contains(&name.as_str()) {
            // d loss_total / d x_r = (1/R) · d loss_r / d x_r, gathered.
            let scaled: Result<Vec<TensorId>, DpError> = parts
                .iter()
                .enumerate()
                .map(|(rep, &p)| {
                    Ok(if average && replicas > 1 {
                        g.apply(
                            &format!("grad_{name}.{rep}_scaled"),
                            Op::ScalarMul { numer: 1, denom: r },
                            &[p],
                        )?
                    } else {
                        p
                    })
                })
                .collect();
            let scaled = scaled?;
            let gathered = if replicas == 1 {
                scaled[0]
            } else {
                g.apply(
                    &format!("grad_{name}_gather"),
                    Op::AllGather { dim: 0 },
                    &scaled,
                )?
            };
            g.mark_output(gathered);
        } else {
            let combined = combine(&mut g, &format!("grad_{name}"), &parts)?;
            g.mark_output(combined);
        }
    }

    let graph = g.finish()?;
    Ok(DpTraining {
        sequential,
        distributed: Distributed {
            declared: Vec::new(),
            graph,
            input_maps: maps,
        },
    })
}

/// Rebuilds `graph` with the named inputs' leading dimension divided by
/// `replicas` (all other inputs unchanged); shapes are re-inferred, so any
/// operator whose attributes bake in the full batch size fails loudly.
fn reshard(graph: &Graph, batch_inputs: &[&str], replicas: usize) -> Result<Graph, DpError> {
    let mut g = GraphBuilder::new(&format!("{}-shard", graph.name()));
    let mut map: HashMap<TensorId, TensorId> = HashMap::new();
    for &input in graph.inputs() {
        let t = graph.tensor(input);
        let shape = if batch_inputs.contains(&t.name.as_str()) {
            let full = t.shape.dim(0).as_const().ok_or_else(|| {
                DpError::BadBatchInput(format!("{} has a symbolic batch dim", t.name))
            })?;
            if full % replicas as i64 != 0 {
                return Err(DpError::BadBatchInput(format!(
                    "{}'s batch {full} does not divide by {replicas}",
                    t.name
                )));
            }
            t.shape.with_dim(0, Dim::from(full / replicas as i64))
        } else {
            t.shape.clone()
        };
        map.insert(input, g.input_shaped(&t.name, shape, t.dtype));
    }
    for name in batch_inputs {
        if graph.tensor_by_name(name).is_none() {
            return Err(DpError::BadBatchInput(format!(
                "{name} is not a graph input"
            )));
        }
    }
    for node in graph.nodes() {
        let inputs: Vec<TensorId> = node.inputs.iter().map(|t| map[t]).collect();
        let out = g.apply(&node.name, node.op.clone(), &inputs)?;
        map.insert(node.output, out);
    }
    for &o in graph.outputs() {
        g.mark_output(map[&o]);
    }
    Ok(g.finish()?)
}
