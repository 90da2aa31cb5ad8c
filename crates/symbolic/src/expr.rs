//! Affine symbolic expressions over integer variables.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An interned symbolic integer variable.
///
/// Variables are created through [`crate::SymCtx::var`]; the context owns the
/// mapping from indices back to human-readable names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymVar(pub(crate) u32);

impl SymVar {
    /// The interned index of this variable.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs a variable from its interned index.
    ///
    /// Intended for interchange formats that persist variables by index;
    /// the caller is responsible for pairing it with the right
    /// [`crate::SymCtx`].
    pub fn from_index(index: u32) -> SymVar {
        SymVar(index)
    }
}

/// An affine expression `c + Σ aᵢ·xᵢ` over symbolic integer variables.
///
/// This is the complete symbolic-scalar language of the checker: the paper
/// observes that captured graphs only apply "simple operations (e.g.,
/// addition)" to symbolic scalars, and affine expressions are closed under
/// all of them (addition, subtraction, negation, multiplication by a
/// constant).
///
/// `SymExpr` implements [`Add`], [`Sub`], [`Neg`] and [`Mul<i64>`]; a purely
/// concrete value is built with [`SymExpr::constant`].
///
/// # Examples
///
/// ```
/// use entangle_symbolic::{SymCtx, SymExpr};
///
/// let mut ctx = SymCtx::new();
/// let n = ctx.var("n");
/// let e = n.clone() * 2 + SymExpr::constant(3);
/// assert_eq!(e.to_string(), "2*s0 + 3");
/// assert!(e.as_const().is_none());
/// assert_eq!(SymExpr::constant(7).as_const(), Some(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymExpr {
    /// Variable coefficients; invariant: no zero coefficients are stored.
    pub(crate) terms: BTreeMap<SymVar, i64>,
    pub(crate) constant: i64,
}

impl SymExpr {
    /// A constant expression.
    pub fn constant(value: i64) -> Self {
        SymExpr {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// The expression `0`.
    pub fn zero() -> Self {
        Self::constant(0)
    }

    /// A single variable with coefficient one.
    pub fn from_var(var: SymVar) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(var, 1);
        SymExpr { terms, constant: 0 }
    }

    /// Returns the concrete value if this expression has no variables.
    pub fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// The variables mentioned by this expression.
    pub fn vars(&self) -> impl Iterator<Item = SymVar> + '_ {
        self.terms.keys().copied()
    }

    /// The `(variable, coefficient)` terms, in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (SymVar, i64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// The constant part `c` of `c + Σ aᵢ·xᵢ`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Builds an expression from a constant and `(variable, coefficient)`
    /// terms; zero coefficients are dropped.
    pub fn from_terms(constant: i64, terms: impl IntoIterator<Item = (SymVar, i64)>) -> SymExpr {
        let mut e = SymExpr {
            terms: terms.into_iter().collect(),
            constant,
        };
        e.normalize();
        e
    }

    /// Evaluates the expression under a concrete assignment.
    ///
    /// Variables absent from `assignment` evaluate to zero.
    pub fn eval(&self, assignment: &BTreeMap<SymVar, i64>) -> i64 {
        let mut acc = self.constant;
        for (v, coeff) in &self.terms {
            acc += coeff * assignment.get(v).copied().unwrap_or(0);
        }
        acc
    }

    fn normalize(&mut self) {
        self.terms.retain(|_, c| *c != 0);
    }

    /// Renders the expression using a resolver for variable names.
    pub(crate) fn display_with<'a, F>(&'a self, resolve: F) -> String
    where
        F: Fn(SymVar) -> String + 'a,
    {
        if self.terms.is_empty() {
            return self.constant.to_string();
        }
        let mut out = String::new();
        for (i, (v, c)) in self.terms.iter().enumerate() {
            let name = resolve(*v);
            if i == 0 {
                match *c {
                    1 => out.push_str(&name),
                    -1 => out.push_str(&format!("-{name}")),
                    c => out.push_str(&format!("{c}*{name}")),
                }
            } else {
                let (sign, mag) = if *c < 0 { ("- ", -c) } else { ("+ ", *c) };
                out.push(' ');
                out.push_str(sign);
                if mag == 1 {
                    out.push_str(&name);
                } else {
                    out.push_str(&format!("{mag}*{name}"));
                }
            }
        }
        if self.constant != 0 {
            let (sign, mag) = if self.constant < 0 {
                ("- ", -self.constant)
            } else {
                ("+ ", self.constant)
            };
            out.push(' ');
            out.push_str(sign);
            out.push_str(&mag.to_string());
        }
        out
    }
}

impl Default for SymExpr {
    fn default() -> Self {
        Self::zero()
    }
}

impl From<i64> for SymExpr {
    fn from(value: i64) -> Self {
        Self::constant(value)
    }
}

impl From<SymVar> for SymExpr {
    fn from(var: SymVar) -> Self {
        Self::from_var(var)
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|v| format!("s{}", v.0)))
    }
}

impl Add for SymExpr {
    type Output = SymExpr;
    fn add(mut self, rhs: SymExpr) -> SymExpr {
        for (v, c) in rhs.terms {
            *self.terms.entry(v).or_insert(0) += c;
        }
        self.constant += rhs.constant;
        self.normalize();
        self
    }
}

impl Add<i64> for SymExpr {
    type Output = SymExpr;
    fn add(mut self, rhs: i64) -> SymExpr {
        self.constant += rhs;
        self
    }
}

impl Sub for SymExpr {
    type Output = SymExpr;
    fn sub(self, rhs: SymExpr) -> SymExpr {
        self + (-rhs)
    }
}

impl Sub<i64> for SymExpr {
    type Output = SymExpr;
    fn sub(mut self, rhs: i64) -> SymExpr {
        self.constant -= rhs;
        self
    }
}

impl Neg for SymExpr {
    type Output = SymExpr;
    fn neg(mut self) -> SymExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for SymExpr {
    type Output = SymExpr;
    fn mul(mut self, rhs: i64) -> SymExpr {
        if rhs == 0 {
            return SymExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}
