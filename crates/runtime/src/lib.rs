//! A dense `f64` interpreter for the ENTANGLE operator vocabulary.
//!
//! The paper validates its lemmas "by checking correct shapes and types"
//! (§5) and ultimately trusts them because they mirror ATen semantics. This
//! crate goes further and gives the reproduction an executable ground truth:
//! every operator of [`entangle_ir::Op`] can be interpreted on concrete
//! tensors, which lets the test suite
//!
//! 1. validate every lemma by evaluating both sides on random inputs, and
//! 2. differentially test the checker end to end: run the sequential model
//!    `G_s` and the distributed implementation `G_d` on inputs related by
//!    `R_i`, then confirm the output relation `R_o` ENTANGLE produced really
//!    reconstructs `G_s`'s outputs (the soundness certificate of §3.3).
//!
//! This is the substitution for "run it on the GPU cluster": same property,
//! CPU-sized tensors.
//!
//! The operator semantics live in [`kernels`], written once and generic
//! over the element algebra. [`eval_op`] is that code at `f64`;
//! `entangle-num` runs the same code over symbolic expressions to derive
//! the tolerance this interpreter is held to.
//!
//! # Examples
//!
//! ```
//! use entangle_ir::{DType, GraphBuilder, Op};
//! use entangle_runtime::{eval_graph, Value};
//! use std::collections::HashMap;
//!
//! let mut g = GraphBuilder::new("axpy");
//! let x = g.input("x", &[2, 2], DType::F32);
//! let y = g.input("y", &[2, 2], DType::F32);
//! let s = g.apply("s", Op::Add, &[x, y]).unwrap();
//! g.mark_output(s);
//! let graph = g.finish().unwrap();
//!
//! let mut inputs = HashMap::new();
//! inputs.insert(x, Value::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
//! inputs.insert(y, Value::new(vec![2, 2], vec![10.0, 20.0, 30.0, 40.0]).unwrap());
//! let env = eval_graph(&graph, &inputs).unwrap();
//! assert_eq!(env[&s].data(), &[11.0, 22.0, 33.0, 44.0]);
//! ```

#![forbid(unsafe_code)]

mod eval;
pub mod kernels;
mod value;

pub use eval::{eval_graph, eval_op, EvalError, F64};
pub use value::{reassoc_rel_bound, Tolerance, Value, REASSOC_SLACK};

use rand::Rng;

/// Fills a [`Value`] of the given shape with uniform random data in
/// `(-1, 1)`; the standard input generator for differential tests.
pub fn random_value<R: Rng>(rng: &mut R, shape: &[usize]) -> Value {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Value::new(shape.to_vec(), data).expect("consistent shape")
}

/// Random integer "token id" tensor in `[0, high)` (stored as floats, as all
/// runtime values are).
pub fn random_ids<R: Rng>(rng: &mut R, shape: &[usize], high: i64) -> Value {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(0..high) as f64).collect();
    Value::new(shape.to_vec(), data).expect("consistent shape")
}

#[cfg(test)]
mod tests;
