//! Operator and graph evaluation.

use std::collections::HashMap;
use std::fmt;

use entangle_ir::{Graph, Op, TensorId};

use crate::kernels::{eval_op_in, Algebra, Atom, View};
use crate::value::Value;

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Input shapes are invalid for the operator.
    Shape(String),
    /// A symbolic attribute could not be resolved to a concrete value.
    Symbolic(String),
    /// A graph input was not supplied.
    MissingInput(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Shape(m) => write!(f, "shape error during eval: {m}"),
            EvalError::Symbolic(m) => write!(f, "unresolved symbolic scalar: {m}"),
            EvalError::MissingInput(m) => write!(f, "missing graph input: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The `f64` algebra: every method is the IEEE-754 operation it names.
pub struct F64;

impl Algebra for F64 {
    type Elem = f64;

    fn int(&mut self, v: i64) -> f64 {
        v as f64
    }

    fn add(&mut self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn neg(&mut self, a: f64) -> f64 {
        -a
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        a * b
    }

    fn scale_mul(&mut self, x: f64, numer: i64, denom: i64) -> f64 {
        (numer as f64 / denom as f64) * x
    }

    fn scale_div(&mut self, x: f64, n: u64) -> f64 {
        x / n as f64
    }

    fn fun(&mut self, atom: Atom, args: &[f64]) -> f64 {
        const GELU_C: f64 = 0.044715;
        // Only a handle over an empty table (`Col` of a zero-row embedding)
        // has no first argument.
        let x = args.first().copied().unwrap_or(f64::NAN);
        match atom {
            Atom::Div => x / args[1],
            Atom::Max => x.max(args[1]),
            Atom::Exp => x.exp(),
            Atom::Ln => x.ln(),
            Atom::Sqrt => x.sqrt(),
            Atom::Tanh => x.tanh(),
            Atom::Gelu => {
                0.5 * x
                    * (1.0
                        + ((2.0 / std::f64::consts::PI).sqrt() * (x + GELU_C * x * x * x)).tanh())
            }
            Atom::Silu => x / (1.0 + (-x).exp()),
            Atom::Relu => x.max(0.0),
            Atom::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Atom::Step => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Atom::GeluGrad => {
                let c = (2.0 / std::f64::consts::PI).sqrt();
                let t = (c * (x + GELU_C * x * x * x)).tanh();
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * GELU_C * x * x)
            }
            Atom::SiluGrad => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 + x * (1.0 - s))
            }
            Atom::Cos => x.cos(),
            Atom::Sin => x.sin(),
            Atom::RstdEps => 1.0 / (x + 1e-5).sqrt(),
            Atom::AttnScale => x * (1.0 / args[1].sqrt()),
            // Selections by an id that cannot be read. `index` reads every
            // id, so no kernel result depends on these.
            Atom::Col | Atom::Row | Atom::Embed | Atom::Sel | Atom::Ind => f64::NAN,
        }
    }

    fn dot(
        &mut self,
        rows: &[f64],
        cols: &[f64],
        (m, k, n): (usize, usize, usize),
        out: &mut Vec<f64>,
    ) {
        for i in 0..m {
            for j in 0..n {
                let (row, col) = (&rows[i * k..][..k], &cols[j * k..][..k]);
                out.push(row.iter().zip(col).fold(0.0, |acc, (a, b)| acc + a * b));
            }
        }
    }

    fn index(&self, e: f64) -> Option<usize> {
        Some(e.round() as usize)
    }

    fn admit(&self, _shape: &[usize]) -> Result<(), String> {
        Ok(())
    }
}

/// Evaluates one operator on concrete inputs: [`eval_op_in`] at `f64`.
///
/// # Errors
///
/// Returns [`EvalError`] on too few inputs, shape violations, degenerate
/// attributes, or unresolved symbolic attributes.
pub fn eval_op(op: &Op, inputs: &[&Value]) -> Result<Value, EvalError> {
    let views: Vec<View<'_, f64>> = inputs
        .iter()
        .map(|v| View {
            shape: v.shape(),
            data: v.data(),
        })
        .collect();
    match eval_op_in(&mut F64, op, &views) {
        Ok(t) => Ok(Value::new(t.shape, t.data).expect("kernels size their output")),
        Err(EvalError::Shape(m)) => Err(EvalError::Shape(format!("{op}: {m}"))),
        Err(EvalError::Symbolic(m)) => Err(EvalError::Symbolic(format!("{op}: {m}"))),
        Err(e) => Err(e),
    }
}

/// Evaluates a whole graph given values for its inputs.
///
/// Returns the environment mapping every tensor (inputs, intermediates and
/// outputs) to its value.
///
/// # Errors
///
/// Returns [`EvalError::MissingInput`] when a graph input has no value, or
/// any operator-level error.
pub fn eval_graph(
    graph: &Graph,
    inputs: &HashMap<TensorId, Value>,
) -> Result<HashMap<TensorId, Value>, EvalError> {
    let mut env: HashMap<TensorId, Value> = HashMap::new();
    for &i in graph.inputs() {
        let v = inputs
            .get(&i)
            .ok_or_else(|| EvalError::MissingInput(graph.tensor(i).name.clone()))?;
        env.insert(i, v.clone());
    }
    for node in graph.nodes() {
        let vals: Vec<&Value> = node.inputs.iter().map(|t| &env[t]).collect();
        let out = eval_op(&node.op, &vals)?;
        env.insert(node.output, out);
    }
    Ok(env)
}
