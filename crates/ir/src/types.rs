//! Value types of the dialect and runtime constant values.

use crate::ops;
use std::fmt;

/// The four value types the pipeline computes with. `Real` and `Double`
/// are both carried as `f64` at run time (the distinction matters only
/// for memory-footprint accounting: REAL is 4 bytes, the rest 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `INTEGER` (i64 at run time).
    Int,
    /// `REAL` (f64 at run time, 4 bytes in footprint accounting).
    Real,
    /// `DOUBLE PRECISION`.
    Double,
    /// `LOGICAL`.
    Logical,
}

impl Ty {
    /// Element size in bytes, used for working-set / capacity accounting
    /// in the simulator's paging model.
    pub fn size_bytes(self) -> u64 {
        match self {
            Ty::Int => 4,
            Ty::Real => 4,
            Ty::Double => 8,
            Ty::Logical => 4,
        }
    }

    /// The result type of a binary numeric operation (Fortran promotion:
    /// DOUBLE > REAL > INTEGER).
    pub fn promote(self, other: Ty) -> Ty {
        use Ty::*;
        match (self, other) {
            (Double, _) | (_, Double) => Double,
            (Real, _) | (_, Real) => Real,
            (Int, Int) => Int,
            (Logical, Logical) => Logical,
            // Mixed logical/numeric never type-checks; keep the numeric
            // side so downstream costing stays sane.
            (Logical, t) | (t, Logical) => t,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "integer"),
            Ty::Real => write!(f, "real"),
            Ty::Double => write!(f, "double precision"),
            Ty::Logical => write!(f, "logical"),
        }
    }
}

/// A runtime constant: PARAMETER values, DATA initializers, and the
/// simulator's scalar values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value.
    I(i64),
    /// Real value (single and double share f64).
    R(f64),
    /// Logical value.
    B(bool),
}

impl Value {
    /// The natural type of the value.
    pub fn ty(self) -> Ty {
        match self {
            Value::I(_) => Ty::Int,
            Value::R(_) => Ty::Double,
            Value::B(_) => Ty::Logical,
        }
    }

    /// Numeric coercion to f64 (integers widen exactly up to 2^53, far
    /// beyond any workload constant).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => ops::real_of_int(v),
            Value::R(v) => v,
            Value::B(b) => ops::real_of_bool(b),
        }
    }

    /// Integer view with Fortran truncation semantics for reals.
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::R(v) => ops::trunc(v),
            Value::B(b) => ops::int_of_bool(b),
        }
    }

    /// Logical view (nonzero numerics are true).
    #[inline]
    pub fn as_bool(self) -> bool {
        match self {
            Value::B(b) => b,
            Value::I(v) => ops::bool_of_int(v),
            Value::R(v) => ops::bool_of_real(v),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::R(v) => write!(f, "{v:?}"),
            Value::B(true) => write!(f, ".true."),
            Value::B(false) => write!(f, ".false."),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_lattice() {
        assert_eq!(Ty::Int.promote(Ty::Real), Ty::Real);
        assert_eq!(Ty::Real.promote(Ty::Double), Ty::Double);
        assert_eq!(Ty::Int.promote(Ty::Int), Ty::Int);
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::I(3).as_f64(), 3.0);
        assert_eq!(Value::R(2.7).as_i64(), 2);
        assert_eq!(Value::R(-2.7).as_i64(), -2);
        assert!(Value::I(1).as_bool());
        assert!(!Value::R(0.0).as_bool());
    }

    #[test]
    fn sizes() {
        assert_eq!(Ty::Real.size_bytes(), 4);
        assert_eq!(Ty::Double.size_bytes(), 8);
    }
}
