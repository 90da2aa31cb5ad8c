//! The computation graph: tensors, operator nodes, builder and validation.

use std::collections::HashMap;
use std::fmt;

use crate::dtype::DType;
use crate::infer::infer_output;
use crate::op::Op;
use crate::shape::Shape;

/// Identifies a tensor (edge) within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub u32);

/// Identifies an operator node (vertex) within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A tensor: an edge of the computation graph.
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Unique id within the graph.
    pub id: TensorId,
    /// Human-readable name (unique within the graph).
    pub name: String,
    /// Shape, possibly symbolic.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// The node producing this tensor; `None` for graph inputs.
    pub producer: Option<NodeId>,
}

/// An operator node: a vertex of the computation graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique id within the graph.
    pub id: NodeId,
    /// Human-readable name (used in refinement-error reports).
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Input tensors in operator order.
    pub inputs: Vec<TensorId>,
    /// The single output tensor.
    pub output: TensorId,
}

/// Errors raised while building or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// Shape or type inference rejected an operator application.
    Shape(String),
    /// A referenced tensor does not exist.
    UnknownTensor(String),
    /// Duplicate tensor name.
    DuplicateName(String),
    /// The graph failed a structural validity check.
    Invalid(String),
    /// JSON (de)serialization failure.
    Serde(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Shape(m) => write!(f, "shape error: {m}"),
            IrError::UnknownTensor(m) => write!(f, "unknown tensor: {m}"),
            IrError::DuplicateName(m) => write!(f, "duplicate tensor name: {m}"),
            IrError::Invalid(m) => write!(f, "invalid graph: {m}"),
            IrError::Serde(m) => write!(f, "serialization error: {m}"),
        }
    }
}

impl std::error::Error for IrError {}

/// A validated computation graph.
///
/// Nodes are stored in a valid topological order (the construction order);
/// every tensor is produced exactly once (single static assignment).
///
/// # Examples
///
/// See the [crate-level example](crate) and [`GraphBuilder`].
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    tensors: Vec<Tensor>,
    nodes: Vec<Node>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
    /// Name → vector-position index, maintained by every construction path
    /// (positions, not ids: unvalidated graphs may carry misindexed ids).
    /// Duplicate names — possible in unvalidated graphs, and for nodes
    /// after tensor-name uniquification — keep the *first* occurrence,
    /// matching a forward linear scan.
    tensor_index: HashMap<String, usize>,
    node_index: HashMap<String, usize>,
}

impl Graph {
    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Graph inputs `I(G)` — data inputs and weights alike.
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph outputs `O(G)`.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// All tensors `T(G)`.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// A tensor by id.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.0 as usize]
    }

    /// A tensor by name, if present. O(1).
    pub fn tensor_by_name(&self, name: &str) -> Option<&Tensor> {
        self.tensor_index.get(name).map(|&i| &self.tensors[i])
    }

    /// A node by name (first occurrence for duplicates), if present. O(1).
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.node_index.get(name).map(|&i| &self.nodes[i])
    }

    /// The operator nodes, in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of operator nodes (the paper's "total number of operators").
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// The node producing `tensor`, or `None` for a graph input.
    pub fn producer(&self, tensor: TensorId) -> Option<&Node> {
        self.tensor(tensor).producer.map(|n| self.node(n))
    }

    /// All nodes consuming `tensor`.
    pub fn consumers(&self, tensor: TensorId) -> Vec<&Node> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&tensor))
            .collect()
    }

    /// Re-validates the whole graph: structural integrity, SSA, topological
    /// order, and shape inference on every node.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut produced: HashMap<TensorId, ()> = HashMap::new();
        for (i, t) in self.tensors.iter().enumerate() {
            if t.id.0 as usize != i {
                return Err(IrError::Invalid(format!("tensor {} misindexed", t.id)));
            }
        }
        let mut names: HashMap<&str, ()> = HashMap::new();
        for t in &self.tensors {
            if names.insert(&t.name, ()).is_some() {
                return Err(IrError::DuplicateName(t.name.clone()));
            }
        }
        for &i in &self.inputs {
            self.check_tensor(i)?;
            produced.insert(i, ());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id.0 as usize != i {
                return Err(IrError::Invalid(format!("node {} misindexed", node.id)));
            }
            let mut metas = Vec::with_capacity(node.inputs.len());
            for &input in &node.inputs {
                self.check_tensor(input)?;
                if !produced.contains_key(&input) {
                    return Err(IrError::Invalid(format!(
                        "node {} consumes {} before it is produced (not topological)",
                        node.name,
                        self.tensor(input).name
                    )));
                }
                let t = self.tensor(input);
                metas.push((t.shape.clone(), t.dtype));
            }
            let (shape, dtype) = infer_output(&node.op, &metas)?;
            let out = self.tensor(node.output);
            if out.shape != shape || out.dtype != dtype {
                return Err(IrError::Shape(format!(
                    "node {}: recorded output {} {} but inferred {} {}",
                    node.name, out.shape, out.dtype, shape, dtype
                )));
            }
            if out.producer != Some(node.id) {
                return Err(IrError::Invalid(format!(
                    "tensor {} producer mismatch",
                    out.name
                )));
            }
            if produced.insert(node.output, ()).is_some() {
                return Err(IrError::Invalid(format!(
                    "tensor {} produced twice",
                    out.name
                )));
            }
        }
        for &o in &self.outputs {
            self.check_tensor(o)?;
            if !produced.contains_key(&o) {
                return Err(IrError::Invalid(format!(
                    "output {} is never produced",
                    self.tensor(o).name
                )));
            }
        }
        Ok(())
    }

    fn check_tensor(&self, id: TensorId) -> Result<(), IrError> {
        if (id.0 as usize) < self.tensors.len() {
            Ok(())
        } else {
            Err(IrError::UnknownTensor(format!("{id}")))
        }
    }

    /// Appends an operator node to the graph, inferring its output tensor.
    ///
    /// Used by user-expectation checking (§4.4), which extends `G_s` and
    /// `G_d` with the combiner expressions `f_s` and `f_d`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the inputs violate the operator's
    /// constraints, or an unknown-tensor error for foreign ids.
    pub fn append(&mut self, name: &str, op: Op, inputs: &[TensorId]) -> Result<TensorId, IrError> {
        let mut metas = Vec::with_capacity(inputs.len());
        for &i in inputs {
            self.check_tensor(i)?;
            let t = self.tensor(i);
            metas.push((t.shape.clone(), t.dtype));
        }
        let (shape, dtype) = infer_output(&op, &metas)?;
        let id = TensorId(self.tensors.len() as u32);
        let mut unique = name.to_owned();
        if self.tensor_by_name(&unique).is_some() {
            unique = format!("{name}#{}", id.0);
        }
        let node_id = NodeId(self.nodes.len() as u32);
        self.tensor_index
            .entry(unique.clone())
            .or_insert(self.tensors.len());
        self.tensors.push(Tensor {
            id,
            name: unique,
            shape,
            dtype,
            producer: Some(node_id),
        });
        self.node_index
            .entry(name.to_owned())
            .or_insert(self.nodes.len());
        self.nodes.push(Node {
            id: node_id,
            name: name.to_owned(),
            op,
            inputs: inputs.to_vec(),
            output: id,
        });
        Ok(id)
    }

    /// Marks an existing tensor as a graph output.
    pub fn add_output(&mut self, tensor: TensorId) {
        if !self.outputs.contains(&tensor) {
            self.outputs.push(tensor);
        }
    }

    /// Renders the graph in Graphviz DOT format (operators as boxes,
    /// tensors as edges labeled with shapes), for debugging refinement
    /// failures visually.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {:?} {{", self.name);
        let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontsize=10];");
        for &i in &self.inputs {
            let t = self.tensor(i);
            let _ = writeln!(
                out,
                "  \"t{}\" [shape=ellipse, label=\"{}\\n{}\"];",
                i.0, t.name, t.shape
            );
        }
        for node in &self.nodes {
            let _ = writeln!(
                out,
                "  \"n{}\" [label=\"{}\\n({})\"];",
                node.id.0,
                node.name,
                node.op.name()
            );
            for &input in &node.inputs {
                let t = self.tensor(input);
                let src = match t.producer {
                    Some(p) => format!("n{}", p.0),
                    None => format!("t{}", input.0),
                };
                let _ = writeln!(
                    out,
                    "  \"{src}\" -> \"n{}\" [label=\"{}\"];",
                    node.id.0, t.shape
                );
            }
        }
        for &o in &self.outputs {
            let t = self.tensor(o);
            let _ = writeln!(
                out,
                "  \"out{}\" [shape=doublecircle, label=\"{}\"];",
                o.0, t.name
            );
            let src = match t.producer {
                Some(p) => format!("n{}", p.0),
                None => format!("t{}", o.0),
            };
            let _ = writeln!(out, "  \"{src}\" -> \"out{}\";", o.0);
        }
        out.push_str("}\n");
        out
    }

    /// Serializes to the JSON interchange format.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serde`] on serialization failure.
    pub fn to_json(&self) -> Result<String, IrError> {
        Ok(crate::json::encode_graph(self))
    }

    /// Deserializes from the JSON interchange format and validates.
    ///
    /// This is the entry point for graphs produced by foreign front ends
    /// (the role of the paper's HLO-translation utility).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serde`] on malformed JSON (including duplicate
    /// tensor names and out-of-range tensor/node references, which are
    /// rejected at decode time), or any validation error on a structurally
    /// broken graph.
    pub fn from_json(json: &str) -> Result<Graph, IrError> {
        let g = crate::json::decode_graph(json)?;
        g.validate()?;
        Ok(g)
    }

    /// Deserializes from the JSON interchange format *without* validating.
    ///
    /// Decode-level checks (well-formed JSON, positional ids, unique names,
    /// in-range references) still apply, but structural and shape invariants
    /// are not enforced — this is the entry point for diagnostics tooling
    /// (`entangle lint`) that wants to report *all* problems in a graph
    /// rather than stop at the first.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Serde`] on malformed JSON.
    pub fn from_json_unvalidated(json: &str) -> Result<Graph, IrError> {
        crate::json::decode_graph(json)
    }

    /// Assembles a graph from raw parts **without any validation**.
    ///
    /// For interchange front ends and diagnostics tooling that must be able
    /// to represent malformed graphs. Everything else should go through
    /// [`GraphBuilder`] or [`Graph::from_json`]; accessors like
    /// [`Graph::tensor`] panic on graphs whose references dangle.
    pub fn from_parts_unchecked(
        name: String,
        tensors: Vec<Tensor>,
        nodes: Vec<Node>,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> Graph {
        let mut tensor_index = HashMap::with_capacity(tensors.len());
        for (i, t) in tensors.iter().enumerate() {
            tensor_index.entry(t.name.clone()).or_insert(i);
        }
        let mut node_index = HashMap::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            node_index.entry(n.name.clone()).or_insert(i);
        }
        Graph {
            name,
            tensors,
            nodes,
            inputs,
            outputs,
            tensor_index,
            node_index,
        }
    }
}

/// Incremental graph construction with eager shape inference.
///
/// # Examples
///
/// ```
/// use entangle_ir::{DType, GraphBuilder, Op};
///
/// let mut g = GraphBuilder::new("tiny");
/// let x = g.input("x", &[2, 3], DType::F32);
/// let y = g.apply("y", Op::Relu, &[x]).unwrap();
/// g.mark_output(y);
/// let graph = g.finish().unwrap();
/// assert_eq!(graph.tensor(y).shape.to_string(), "[2, 3]");
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Starts an empty graph.
    pub fn new(name: &str) -> GraphBuilder {
        GraphBuilder {
            graph: Graph {
                name: name.to_owned(),
                tensors: Vec::new(),
                nodes: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                tensor_index: HashMap::new(),
                node_index: HashMap::new(),
            },
        }
    }

    fn fresh_tensor(&mut self, name: &str, shape: Shape, dtype: DType) -> TensorId {
        let id = TensorId(self.graph.tensors.len() as u32);
        let mut unique = name.to_owned();
        if self.graph.tensor_by_name(&unique).is_some() {
            unique = format!("{name}#{}", id.0);
        }
        self.graph
            .tensor_index
            .entry(unique.clone())
            .or_insert(self.graph.tensors.len());
        self.graph.tensors.push(Tensor {
            id,
            name: unique,
            shape,
            dtype,
            producer: None,
        });
        id
    }

    /// Declares a graph input with concrete dims.
    pub fn input(&mut self, name: &str, dims: &[i64], dtype: DType) -> TensorId {
        self.input_shaped(name, Shape::of(dims), dtype)
    }

    /// Declares a graph input with an explicit (possibly symbolic) shape.
    pub fn input_shaped(&mut self, name: &str, shape: Shape, dtype: DType) -> TensorId {
        let id = self.fresh_tensor(name, shape, dtype);
        self.graph.inputs.push(id);
        id
    }

    /// Applies an operator, inferring the output tensor.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the inputs violate the operator's
    /// constraints.
    pub fn apply(&mut self, name: &str, op: Op, inputs: &[TensorId]) -> Result<TensorId, IrError> {
        let metas: Vec<(Shape, DType)> = inputs
            .iter()
            .map(|&i| {
                let t = self.graph.tensor(i);
                (t.shape.clone(), t.dtype)
            })
            .collect();
        let (shape, dtype) = infer_output(&op, &metas)?;
        let out = self.fresh_tensor(name, shape, dtype);
        let node_id = NodeId(self.graph.nodes.len() as u32);
        self.graph.tensors[out.0 as usize].producer = Some(node_id);
        self.graph
            .node_index
            .entry(name.to_owned())
            .or_insert(self.graph.nodes.len());
        self.graph.nodes.push(Node {
            id: node_id,
            name: name.to_owned(),
            op,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Marks a tensor as a graph output (may be called multiple times).
    pub fn mark_output(&mut self, tensor: TensorId) {
        if !self.graph.outputs.contains(&tensor) {
            self.graph.outputs.push(tensor);
        }
    }

    /// Read-only view of the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Finishes and validates the graph.
    ///
    /// # Errors
    ///
    /// Propagates any validation failure.
    pub fn finish(self) -> Result<Graph, IrError> {
        self.graph.validate()?;
        Ok(self.graph)
    }
}
