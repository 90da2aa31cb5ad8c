//! Ground evaluation: a term with no pattern variables, evaluated bottom-up
//! at any element algebra.
//!
//! [`ground_step`] is the one reading of a term node: integers and symbolic
//! scalars are attributes, a synthetic `~ones[..]` leaf is exact ones, any
//! other leaf is the caller's, and an application is
//! [`entangle_lemmas::decode_op`] on its children's metadata run through
//! [`entangle_runtime::kernels::eval_op_in`] at the algebra. The `f64`
//! oracle ([`eval_ground`]), `entangle-num`'s symbolic arena and its
//! structural hashes all evaluate terms through it, so the model and the
//! oracle it bounds read a term alike and refuse a size through the same
//! [`Algebra::admit`].

use entangle_egraph::{ENode, Id, RecExpr, Symbol};
use entangle_ir::{DType, Dim, Shape};
use entangle_lemmas::{decode_op, parse_ones_leaf, Meta};
use entangle_runtime::kernels::{eval_op_in, Algebra, Tensor};
use entangle_runtime::{EvalError, Value, F64};
use entangle_symbolic::SymExpr;

/// What an evaluated subterm is to its parents: the metadata `decode_op`
/// reads off it, and its elements when it is a tensor (the algebras are
/// dtype-erased; the decoder only reads scalars).
pub type Slot<E> = (Meta, Option<Tensor<E>>);

/// Evaluates one node of a ground term at `alg`, `child` giving each
/// child's metadata and elements. A synthetic `~ones[..]` leaf is admitted
/// by `alg` before any element is made; any other leaf is `leaf`'s, which
/// receives the leaf's interned name.
///
/// # Errors
///
/// A malformed or oversized synthetic leaf, `leaf`'s error, an
/// undecodable application, a scalar where a tensor is needed, and
/// whatever the kernels or `alg` refuse, in the kernels' own words.
pub fn ground_step<'s, A: Algebra>(
    alg: &mut A,
    node: &ENode,
    child: impl Fn(Id) -> (&'s Meta, Option<&'s Tensor<A::Elem>>),
    leaf: impl FnOnce(&mut A, Symbol) -> Result<Tensor<A::Elem>, String>,
) -> Result<Slot<A::Elem>, String>
where
    A::Elem: 's,
{
    let t = match node {
        ENode::Int(i) => return Ok((Meta::scalar(SymExpr::constant(*i)), None)),
        ENode::Sym(e) => return Ok((Meta::scalar(e.clone()), None)),
        ENode::Op(sym, ch) if ch.is_empty() => {
            let name = sym.as_str();
            let ones = parse_ones_leaf(name)
                .map_err(|_| format!("unparseable synthetic leaf {name:?}"))?;
            match ones {
                Some(dims) => {
                    let n = dims
                        .iter()
                        .try_fold(1usize, |n, &d| n.checked_mul(d))
                        .ok_or_else(|| format!("{name:?} overflows"))?;
                    alg.admit(&dims)?;
                    let one = alg.int(1);
                    Tensor {
                        shape: dims,
                        data: vec![one; n],
                    }
                }
                None => leaf(alg, *sym)?,
            }
        }
        ENode::Op(sym, ch) => {
            let sym = sym.as_str();
            let metas: Vec<&Meta> = ch.iter().map(|&c| child(c).0).collect();
            let (op, tensor_count) =
                decode_op(sym, &metas).ok_or_else(|| format!("cannot decode {sym}"))?;
            let inputs = ch
                .get(..tensor_count)
                .ok_or_else(|| format!("{sym}: missing tensor children"))?
                .iter()
                .map(|&c| child(c).1.map(Tensor::view))
                .collect::<Option<Vec<_>>>()
                .ok_or("tensor child has no value")?;
            eval_op_in(alg, &op, &inputs).map_err(|e| match e {
                EvalError::Shape(m) | EvalError::Symbolic(m) | EvalError::MissingInput(m) => m,
            })?
        }
    };
    let shape = Shape(t.shape.iter().map(|&d| Dim::from(d)).collect());
    Ok((Meta::tensor(shape, DType::F32), Some(t)))
}

/// Evaluates a ground term at `alg`: [`ground_step`] on every node in
/// order, `leaf` resolving each leaf that is not synthetic.
///
/// # Errors
///
/// The error of the first node, in postorder, that has one; a root that
/// is a scalar has no value.
pub fn eval_ground_in<A: Algebra>(
    alg: &mut A,
    expr: &RecExpr,
    mut leaf: impl FnMut(&mut A, Symbol) -> Result<Tensor<A::Elem>, String>,
) -> Result<Tensor<A::Elem>, String> {
    let mut slots: Vec<Slot<A::Elem>> = Vec::with_capacity(expr.len());
    for node in expr.nodes() {
        let child = |c: Id| {
            let (meta, t) = &slots[c.index()];
            (meta, t.as_ref())
        };
        let slot = ground_step(alg, node, child, &mut leaf)?;
        slots.push(slot);
    }
    slots
        .pop()
        .and_then(|(_, t)| t)
        .ok_or_else(|| "root has no value".to_owned())
}

/// Evaluates a *ground* term (no pattern variables) at `f64`: the meaning
/// of a clean expression through the runtime's interpreter. `leaf`
/// resolves a tensor name to its value; synthetic `~ones[...]` leaves
/// evaluate to ones tensors; scalar children are attributes, not values.
///
/// # Errors
///
/// As [`eval_ground_in`]: an unknown or malformed leaf, an undecodable
/// application, operands the runtime rejects, a scalar where a tensor is
/// needed.
pub fn eval_ground<'v>(
    expr: &RecExpr,
    leaf: impl Fn(&str) -> Option<&'v Value>,
) -> Result<Value, String> {
    let t = eval_ground_in(&mut F64, expr, |_, sym| {
        let v = leaf(sym.as_str()).ok_or_else(|| format!("unknown leaf {:?}", sym.as_str()))?;
        Ok(Tensor {
            shape: v.shape().to_vec(),
            data: v.data().to_vec(),
        })
    })?;
    Ok(Value::new(t.shape, t.data).expect("kernels size their output"))
}
