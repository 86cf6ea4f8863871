//! Typed, resolved expressions.

use crate::program::Unit;
use crate::symbol::SymbolId;
use crate::types::Ty;

/// Arithmetic / relational / logical operators after lowering (CONCAT is
/// rejected during lowering; character expressions never reach the IR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division truncates)
    Div,
    /// `**`
    Pow,
    /// `.EQ.`
    Eq,
    /// `.NE.`
    Ne,
    /// `.LT.`
    Lt,
    /// `.LE.`
    Le,
    /// `.GT.`
    Gt,
    /// `.GE.`
    Ge,
    /// `.AND.`
    And,
    /// `.OR.`
    Or,
    /// `.EQV.`
    Eqv,
    /// `.NEQV.`
    Neqv,
}

impl BinOp {
    /// Relational operators (result type LOGICAL).
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
    /// Logical connectives.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Eqv | BinOp::Neqv)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// `.NOT.`.
    Not,
}

/// Intrinsic functions of the dialect. Generic names subsume the
/// specific F77 names (`AMAX1`, `DSQRT`, ... are normalized here during
/// lowering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the standard F77 generic intrinsics
pub enum Intrinsic {
    Abs,
    Sqrt,
    Exp,
    Log,
    Log10,
    Sin,
    Cos,
    Tan,
    Atan,
    Atan2,
    Sinh,
    Cosh,
    Tanh,
    Sign,
    Mod,
    Min,
    Max,
    Int,
    Nint,
    Real,
    Dble,
    /// Vector index sequence `iota(lo, hi)` = [lo, lo+1, ..., hi] — the
    /// Alliant vector-sequence instruction surfaced as a runtime-library
    /// intrinsic; produced by the vectorizer for loop-index values.
    Iota,
    // Cedar Fortran vector reduction intrinsics (§2.1).
    /// Vector sum.
    Sum,
    /// Vector product.
    Product,
    /// Inner product of two vectors.
    DotProduct,
    /// Largest element.
    MaxVal,
    /// Smallest element.
    MinVal,
    /// 1-based index of the largest element.
    MaxLoc,
    /// 1-based index of the smallest element.
    MinLoc,
}

impl Intrinsic {
    /// Does this intrinsic reduce a vector argument to a scalar?
    pub fn is_reduction(self) -> bool {
        matches!(
            self,
            Intrinsic::Sum
                | Intrinsic::Product
                | Intrinsic::DotProduct
                | Intrinsic::MaxVal
                | Intrinsic::MinVal
                | Intrinsic::MaxLoc
                | Intrinsic::MinLoc
        )
    }

    /// The generic Fortran name the printer emits.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Abs => "abs",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Log10 => "log10",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Tan => "tan",
            Intrinsic::Atan => "atan",
            Intrinsic::Atan2 => "atan2",
            Intrinsic::Sinh => "sinh",
            Intrinsic::Cosh => "cosh",
            Intrinsic::Tanh => "tanh",
            Intrinsic::Sign => "sign",
            Intrinsic::Mod => "mod",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Int => "int",
            Intrinsic::Nint => "nint",
            Intrinsic::Real => "real",
            Intrinsic::Dble => "dble",
            Intrinsic::Iota => "iota",
            Intrinsic::Sum => "sum",
            Intrinsic::Product => "product",
            Intrinsic::DotProduct => "dotproduct",
            Intrinsic::MaxVal => "maxval",
            Intrinsic::MinVal => "minval",
            Intrinsic::MaxLoc => "maxloc",
            Intrinsic::MinLoc => "minloc",
        }
    }
}

/// How a reduction intrinsic executes (§3.3): serially, vectorized on
/// one CE, or via the Cedar runtime library's two-level parallel scheme
/// (partial results per cluster, then combined across clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParMode {
    /// One CE, scalar loop.
    #[default]
    Serial,
    /// One CE, vector pipeline.
    Vector,
    /// All CEs of one cluster (partial results + cluster combine).
    ClusterParallel,
    /// All CEs of all clusters (two-step combine; the paper's parallel
    /// `dotproduct` that halved Conjugate Gradient's run time).
    CedarParallel,
}

/// One subscript position of an array reference.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum Index {
    /// Ordinary scalar subscript.
    At(Expr),
    /// Section `lo:hi:step` (step defaults to 1). `lo`/`hi` default to
    /// the declared bounds when `None`.
    Range { lo: Option<Expr>, hi: Option<Expr>, step: Option<Expr> },
}

/// A resolved expression.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum Expr {
    /// Integer literal.
    ConstI(i64),
    /// Real literal (`double` from a `D` exponent).
    ConstR {
        value: f64,
        double: bool,
    },
    /// Logical literal.
    ConstB(bool),
    /// Scalar variable (or PARAMETER) read.
    Scalar(SymbolId),
    /// Array element read.
    Elem {
        arr: SymbolId,
        idx: Vec<Expr>,
    },
    /// Array section read (vector context) — whole arrays lower to a
    /// section covering every dimension.
    Section {
        arr: SymbolId,
        idx: Vec<Index>,
    },
    Un(UnOp, Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Intrinsic call; reductions carry their execution mode.
    Intr {
        f: Intrinsic,
        args: Vec<Expr>,
        par: ParMode,
    },
    /// User function call (resolved by name at program level).
    Call {
        unit: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    /// A single-precision real literal.
    pub fn real(v: f64) -> Expr {
        Expr::ConstR { value: v, double: false }
    }

    /// Literal integer value, if the expression is one (after folding
    /// unary minus).
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Expr::ConstI(v) => Some(*v),
            Expr::Un(UnOp::Neg, e) => e.as_const_int()?.checked_neg(),
            _ => None,
        }
    }

    /// Binary operation helper.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// `l + r` with trivial constant folding (keeps stripmined bounds
    /// readable in emitted Cedar Fortran).
    #[allow(clippy::should_implement_trait)]
    pub fn add(l: Expr, r: Expr) -> Expr {
        match (l.as_const_int(), r.as_const_int()) {
            (Some(a), Some(b)) => Expr::ConstI(a + b),
            (_, Some(0)) => l,
            (Some(0), _) => r,
            _ => Expr::bin(BinOp::Add, l, r),
        }
    }

    /// `l - r` with trivial constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(l: Expr, r: Expr) -> Expr {
        match (l.as_const_int(), r.as_const_int()) {
            (Some(a), Some(b)) => Expr::ConstI(a - b),
            (_, Some(0)) => l,
            _ => Expr::bin(BinOp::Sub, l, r),
        }
    }

    /// `l * r` with trivial constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(l: Expr, r: Expr) -> Expr {
        match (l.as_const_int(), r.as_const_int()) {
            (Some(a), Some(b)) => Expr::ConstI(a * b),
            (_, Some(1)) => l,
            (Some(1), _) => r,
            _ => Expr::bin(BinOp::Mul, l, r),
        }
    }

    /// Infer the value type against a unit's symbol table.
    pub fn ty(&self, unit: &Unit) -> Ty {
        match self {
            Expr::ConstI(_) => Ty::Int,
            Expr::ConstR { double, .. } => {
                if *double {
                    Ty::Double
                } else {
                    Ty::Real
                }
            }
            Expr::ConstB(_) => Ty::Logical,
            Expr::Scalar(s) | Expr::Elem { arr: s, .. } | Expr::Section { arr: s, .. } => {
                unit.symbol(*s).ty
            }
            Expr::Un(UnOp::Not, _) => Ty::Logical,
            Expr::Un(UnOp::Neg, e) => e.ty(unit),
            Expr::Bin(op, l, r) => {
                if op.is_comparison() || op.is_logical() {
                    Ty::Logical
                } else {
                    l.ty(unit).promote(r.ty(unit))
                }
            }
            Expr::Intr { f, args, .. } => match f {
                Intrinsic::Int
                | Intrinsic::Nint
                | Intrinsic::MaxLoc
                | Intrinsic::MinLoc
                | Intrinsic::Iota => Ty::Int,
                Intrinsic::Real => Ty::Real,
                Intrinsic::Dble => Ty::Double,
                Intrinsic::Mod
                | Intrinsic::Abs
                | Intrinsic::Sign
                | Intrinsic::Min
                | Intrinsic::Max
                | Intrinsic::Sum
                | Intrinsic::Product
                | Intrinsic::MaxVal
                | Intrinsic::MinVal
                | Intrinsic::DotProduct => args.first().map_or(Ty::Real, |a| a.ty(unit)),
                _ => args.first().map_or(Ty::Real, |a| a.ty(unit).promote(Ty::Real)),
            },
            Expr::Call { unit: name, .. } => {
                // Function result types are resolved during lowering; the
                // call site can't see the other unit here, so default to
                // the implicit-typing rule on the function name.
                crate::lower::implicit_ty(name)
            }
        }
    }

    /// Does the expression contain any `Section` (vector) reference?
    pub fn has_section(&self) -> bool {
        let mut found = false;
        crate::visit::walk_expr(self, &mut |e| {
            if matches!(e, Expr::Section { .. }) {
                found = true;
            }
        });
        found
    }

    /// Is the expression vector-valued (contains a section or an `iota`
    /// sequence)? Such expressions are only legal in vector contexts —
    /// including as gather subscripts.
    pub fn is_vector_valued(&self) -> bool {
        let mut found = false;
        crate::visit::walk_expr(self, &mut |e| {
            if matches!(e, Expr::Section { .. } | Expr::Intr { f: Intrinsic::Iota, .. }) {
                found = true;
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_folding_helpers() {
        assert_eq!(Expr::add(Expr::ConstI(2), Expr::ConstI(3)), Expr::ConstI(5));
        assert_eq!(
            Expr::add(Expr::Scalar(SymbolId(0)), Expr::ConstI(0)),
            Expr::Scalar(SymbolId(0))
        );
        assert_eq!(
            Expr::mul(Expr::ConstI(1), Expr::Scalar(SymbolId(1))),
            Expr::Scalar(SymbolId(1))
        );
        assert_eq!(Expr::sub(Expr::ConstI(2), Expr::ConstI(7)).as_const_int(), Some(-5));
    }

    #[test]
    fn negated_literal_is_const() {
        let e = Expr::Un(UnOp::Neg, Box::new(Expr::ConstI(4)));
        assert_eq!(e.as_const_int(), Some(-4));
    }

    #[test]
    fn reduction_predicate() {
        assert!(Intrinsic::DotProduct.is_reduction());
        assert!(!Intrinsic::Sqrt.is_reduction());
    }
}
