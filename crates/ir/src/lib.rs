//! Tensor computation-graph IR for ENTANGLE.
//!
//! The paper represents both the sequential model `G_s` and the distributed
//! implementation `G_d` as computation graphs: "a directed acyclic graph
//! whose vertices are operators (i.e., computation or communication kernels)
//! and whose edges are tensors" (§3.2), captured from PyTorch via
//! TorchDynamo in torch.fx form with ATen IR operators, or translated from
//! HLO (§5).
//!
//! This crate is that representation: an ATen-flavoured operator vocabulary
//! ([`Op`]), tensors with (possibly symbolic) shapes and dtypes, a validated
//! DAG ([`Graph`]) built through [`GraphBuilder`] with eager shape
//! inference, and a JSON interchange format playing the role of the
//! paper's fx/HLO bridge (the "377 lines of Python" that translated XLA
//! output into the tool's intermediate format).
//!
//! Collective communication appears as ordinary operators — [`Op::AllReduce`],
//! [`Op::AllGather`], [`Op::ReduceScatter`] — exactly as captured graphs
//! contain communication kernels as vertices.
//!
//! # Examples
//!
//! The sequential side of the paper's Figure 1:
//!
//! ```
//! use entangle_ir::{DType, GraphBuilder, Op};
//!
//! let mut g = GraphBuilder::new("figure1-sequential");
//! let a = g.input("A", &[4, 8], DType::F32);
//! let b = g.input("B", &[8, 4], DType::F32);
//! let e = g.input("E", &[4, 4], DType::F32);
//! let c = g.apply("C", Op::Matmul, &[a, b]).unwrap();
//! let f = g.apply("F", Op::Sub, &[c, e]).unwrap();
//! g.mark_output(f);
//! let graph = g.finish().unwrap();
//! assert_eq!(graph.num_nodes(), 2);
//! assert_eq!(graph.outputs(), &[f]);
//! ```

mod dtype;
mod graph;
mod infer;
pub mod json;
pub mod layout;
mod op;
mod shape;

pub use dtype::DType;
pub use graph::{Graph, GraphBuilder, IrError, Node, NodeId, Tensor, TensorId};
pub use infer::infer_output;
pub use layout::DeclaredLayout;
pub use op::{Attr, AttrKind, AttrValues, Op, OpRow, OPS};
pub use shape::{Dim, Shape};

#[cfg(test)]
mod tests;
