//! Dense row-major tensors.

use std::fmt;

/// A dense, row-major, `f64` tensor value.
///
/// Integer tensors (token ids) are stored as floats holding exact small
/// integers — the interpreter rounds where an integer is semantically
/// required (embedding/cross-entropy indices).
///
/// # Examples
///
/// ```
/// use entangle_runtime::Value;
///
/// let v = Value::new(vec![2, 3], (0..6).map(|i| i as f64).collect()).unwrap();
/// assert_eq!(v.shape(), &[2, 3]);
/// assert_eq!(v.get(&[1, 2]), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Value {
    /// Creates a value; `data.len()` must equal the shape's element count.
    pub fn new(shape: Vec<usize>, data: Vec<f64>) -> Option<Value> {
        if shape.iter().product::<usize>() == data.len() {
            Some(Value { shape, data })
        } else {
            None
        }
    }

    /// A scalar (rank-0) value.
    pub fn scalar(v: f64) -> Value {
        Value {
            shape: vec![],
            data: vec![v],
        }
    }

    /// A zero-filled value.
    pub fn zeros(shape: Vec<usize>) -> Value {
        let n = shape.iter().product();
        Value {
            shape,
            data: vec![0.0; n],
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The flat data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The scalar value of a rank-0 (or single-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn as_scalar(&self) -> f64 {
        assert_eq!(self.data.len(), 1, "as_scalar on non-scalar value");
        self.data[0]
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.shape[i + 1];
        }
        s
    }

    /// Flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank or bounds mismatch.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let strides = self.strides();
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of bounds for dim {i} ({dim})");
            off += ix * strides[i];
        }
        off
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, index: &[usize], v: f64) {
        let off = self.offset(index);
        self.data[off] = v;
    }

    /// Max absolute difference to another value; `None` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Value) -> Option<f64> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// `true` when every element differs by at most `tol`.
    pub fn allclose(&self, other: &Value, tol: f64) -> bool {
        self.max_abs_diff(other).is_some_and(|d| d <= tol)
    }

    /// `true` when the two values agree within a *derived* tolerance:
    /// bit-for-bit for [`Tolerance::Exact`], within the scaled relative
    /// bound for [`Tolerance::Relative`]. Shape mismatches never pass.
    pub fn within(&self, other: &Value, tol: &Tolerance) -> bool {
        match tol {
            Tolerance::Exact => self.shape == other.shape && self.data == other.data,
            Tolerance::Relative(bound) => {
                let Some(diff) = self.max_abs_diff(other) else {
                    return false;
                };
                let scale = self
                    .data
                    .iter()
                    .chain(&other.data)
                    .fold(1.0f64, |m, v| m.max(v.abs()));
                diff <= bound * scale
            }
        }
    }
}

/// A numeric comparison policy *derived* from a static classification of
/// the computation being compared — the differential oracle's replacement
/// for hard-coded `allclose` epsilons.
///
/// `Exact` is for rearrangement-only computations (slice / concat /
/// transpose / identity reshuffles): the runtime moves bits, so both sides
/// must agree bit-for-bit. `Relative(b)` is for reassociation-only
/// computations (reduction-order changes): both sides compute the same
/// real-arithmetic value, and the rounded results may differ by at most
/// `b · max(‖a‖∞, ‖b‖∞, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// The two computations are rearrangements of the same rounded values:
    /// compare bit-exact.
    Exact,
    /// The two computations reassociate the same real expression: compare
    /// within this relative error bound.
    Relative(f64),
}

/// Slack factor on the analytic `(1+ε)^k − 1` reassociation bound.
///
/// The bound counts *rounding sites* that differ between the two
/// evaluation orders; it does not model condition-number amplification
/// through downstream non-linear operators (a Lipschitz factor) or the
/// double rounding inside non-power-of-two rational scalings. Both effects
/// are small constants for the operator vocabulary here, so they are
/// absorbed into one documented slack constant rather than threaded
/// through the analysis. This constant is part of the oracle's trusted
/// computing base (see DESIGN.md, "Numeric-soundness analysis").
pub const REASSOC_SLACK: f64 = 32.0;

/// The relative error bound for a reassociation-only computation with `k`
/// differing rounding sites: `((1+ε)^k − 1) · REASSOC_SLACK` with
/// `ε = 2⁻⁵²` (f64 unit roundoff — the runtime interpreter evaluates in
/// f64). Computed stably via `ln1p`/`expm1`; monotone in `k`.
pub fn reassoc_rel_bound(k: u64) -> f64 {
    // Conversion saturates for astronomically large k; the bound is then
    // effectively infinite, which is the honest answer.
    let k = k as f64;
    (k * f64::EPSILON.ln_1p()).exp_m1() * REASSOC_SLACK
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}
