//! Shapes with possibly-symbolic dimensions.

use std::fmt;

use entangle_symbolic::SymExpr;

/// A single dimension: an affine symbolic expression, usually a constant.
///
/// # Examples
///
/// ```
/// use entangle_ir::Dim;
///
/// let d = Dim::from(16);
/// assert_eq!(d.as_const(), Some(16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dim(pub SymExpr);

impl Dim {
    /// The concrete size, if this dimension is constant.
    pub fn as_const(&self) -> Option<i64> {
        self.0.as_const()
    }

    /// The underlying symbolic expression.
    pub fn expr(&self) -> &SymExpr {
        &self.0
    }
}

impl From<i64> for Dim {
    fn from(v: i64) -> Dim {
        Dim(SymExpr::constant(v))
    }
}

impl From<i32> for Dim {
    fn from(v: i32) -> Dim {
        Dim(SymExpr::constant(v as i64))
    }
}

impl From<usize> for Dim {
    fn from(v: usize) -> Dim {
        Dim(SymExpr::constant(v as i64))
    }
}

impl From<SymExpr> for Dim {
    fn from(e: SymExpr) -> Dim {
        Dim(e)
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tensor shape: an ordered list of dimensions. Rank 0 is a scalar tensor.
///
/// # Examples
///
/// ```
/// use entangle_ir::Shape;
///
/// let s = Shape::of(&[2, 4, 8]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.numel(), Some(64));
/// assert_eq!(s.to_string(), "[2, 4, 8]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(pub Vec<Dim>);

impl Shape {
    /// A shape from concrete dimensions.
    pub fn of(dims: &[i64]) -> Shape {
        Shape(dims.iter().map(|&d| Dim::from(d)).collect())
    }

    /// The scalar (rank-0) shape.
    pub fn scalar() -> Shape {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Dim] {
        &self.0
    }

    /// The `i`-th dimension.
    pub fn dim(&self, i: usize) -> &Dim {
        &self.0[i]
    }

    /// Total element count, if all dimensions are constant.
    pub fn numel(&self) -> Option<i64> {
        self.0
            .iter()
            .try_fold(1i64, |acc, d| Some(acc * d.as_const()?))
    }

    /// All dimensions as constants, if the shape is fully concrete.
    pub fn as_concrete(&self) -> Option<Vec<i64>> {
        self.0.iter().map(Dim::as_const).collect()
    }

    /// Replaces dimension `i`, returning a new shape.
    pub fn with_dim(&self, i: usize, dim: Dim) -> Shape {
        let mut out = self.clone();
        out.0[i] = dim;
        out
    }

    /// Right-aligned NumPy/PyTorch broadcasting of two shapes.
    ///
    /// Dimensions broadcast when equal or when one side is the constant 1.
    /// Symbolic dimensions broadcast only against an identical expression or
    /// a literal 1. Returns `None` when the shapes are incompatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = Vec::with_capacity(rank);
        for i in 0..rank {
            let a = self.rank().checked_sub(rank - i).map(|j| &self.0[j]);
            let b = other.rank().checked_sub(rank - i).map(|j| &other.0[j]);
            let d = match (a, b) {
                (Some(x), Some(y)) => {
                    if x == y {
                        x.clone()
                    } else if x.as_const() == Some(1) {
                        y.clone()
                    } else if y.as_const() == Some(1) {
                        x.clone()
                    } else {
                        return None;
                    }
                }
                (Some(x), None) => x.clone(),
                (None, Some(y)) => y.clone(),
                (None, None) => unreachable!("index within max rank"),
            };
            dims.push(d);
        }
        Some(Shape(dims))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Dim>> for Shape {
    fn from(dims: Vec<Dim>) -> Shape {
        Shape(dims)
    }
}
