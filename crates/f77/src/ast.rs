//! Abstract syntax for the accepted dialect: Fortran 77 plus the vector
//! subset and the Cedar Fortran parallel extensions (so restructurer
//! output parses back with the same grammar).
//!
//! The AST is deliberately *syntactic*: `NameArgs` may be an array
//! element, an array section, or a function reference — `cedar-ir`
//! resolves the ambiguity against symbol tables during lowering.

use crate::span::Span;

/// A whole source file: one or more program units.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFile {
    /// Program units in source order.
    pub units: Vec<ProgramUnit>,
}

impl SourceFile {
    /// Find a unit by (lower-case) name.
    pub fn unit(&self, name: &str) -> Option<&ProgramUnit> {
        self.units.iter().find(|u| u.name == name)
    }
}

/// PROGRAM / SUBROUTINE / FUNCTION.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramUnit {
    /// PROGRAM / SUBROUTINE / FUNCTION.
    pub kind: UnitKind,
    /// Unit name, lower-cased.
    pub name: String,
    /// Dummy argument names, in order.
    pub args: Vec<String>,
    /// Specification statements.
    pub decls: Vec<Decl>,
    /// Executable statements.
    pub body: Vec<Stmt>,
    /// Line of the unit header.
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq, Eq)]
/// Kind of program unit.
pub enum UnitKind {
    /// A main PROGRAM.
    Program,
    /// A SUBROUTINE.
    Subroutine,
    /// Function with an optional explicit result type from the header
    /// (`REAL FUNCTION F(...)`).
    Function(Option<TypeSpec>),
}

/// Fortran base types of the dialect. CHARACTER is carried through the
/// front end for diagnostics but rejected during lowering except in I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeSpec {
    /// `INTEGER`.
    Integer,
    /// `REAL`.
    Real,
    /// `DOUBLE PRECISION` / `REAL*8`.
    Double,
    /// `LOGICAL`.
    Logical,
    /// `CHARACTER` (front-end only; rejected at lowering).
    Character,
}

/// Cedar Fortran data-visibility classes (paper §2.1, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// One copy in global memory, visible to all processors of all
    /// clusters (`GLOBAL` / `PROCESS COMMON`).
    Global,
    /// One copy per cluster (`CLUSTER` / plain `COMMON`; the Cedar
    /// Fortran default for data declared outside loops).
    Cluster,
}

/// One declared entity, possibly with array bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Entity name, lower-cased.
    pub name: String,
    /// Array bounds; empty for scalars.
    pub dims: Vec<DimBound>,
}

impl Entity {
    /// A scalar (dimension-less) entity.
    pub fn scalar(name: impl Into<String>) -> Self {
        Entity { name: name.into(), dims: Vec::new() }
    }
}

/// One dimension declarator: `upper`, `lower:upper`, or `*` (assumed
/// size, `upper == None`).
#[derive(Debug, Clone, PartialEq)]
pub struct DimBound {
    /// Lower bound (defaults to 1).
    pub lower: Option<Expr>,
    /// Upper bound; `None` means assumed size (`*`).
    pub upper: Option<Expr>,
}

/// A specification statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Source line of the statement.
    pub span: Span,
    /// What was declared.
    pub kind: DeclKind,
}

#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum DeclKind {
    /// `INTEGER a, b(10)` — also produced by `REAL*8` (mapped to Double).
    Type { ty: TypeSpec, entities: Vec<Entity> },
    /// `DIMENSION a(n, m)`.
    Dimension { entities: Vec<Entity> },
    /// `PARAMETER (n = 100, pi = 3.14)`.
    Parameter { assigns: Vec<(String, Expr)> },
    /// `COMMON /blk/ a, b` (`process == true` for Cedar `PROCESS COMMON`,
    /// which places the block in global memory).
    Common { block: Option<String>, entities: Vec<Entity>, process: bool },
    /// Cedar `GLOBAL a, b` / `CLUSTER a, b`.
    Visibility { vis: Visibility, names: Vec<String> },
    /// `DATA a, b /1.0, 2*0.0/` — names paired positionally with
    /// repeat-counted constants.
    Data { names: Vec<Expr>, values: Vec<(u32, Expr)> },
    /// `EXTERNAL f, g`.
    External(Vec<String>),
    /// `INTRINSIC sqrt` (accepted and ignored).
    Intrinsic(Vec<String>),
    /// `SAVE a, b` (accepted and ignored; no cross-call reuse).
    Save(Vec<String>),
    /// `IMPLICIT NONE`.
    ImplicitNone,
    /// Parsed but rejected at lowering (aliasing defeats the analyses the
    /// paper's restructurer also refuses to reason about).
    Equivalence(Vec<Vec<Expr>>),
}

/// Loop scheduling classes (paper §2.1, Figure 3). `Seq` is an ordinary
/// Fortran DO; the rest are Cedar Fortran concurrent loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopClass {
    /// Sequential `DO`.
    Seq,
    /// All CEs of one cluster (hardware microtasking).
    CDoall,
    /// One CE per cluster (runtime-library microtasking).
    SDoall,
    /// All CEs of all clusters.
    XDoall,
    /// Ordered intra-cluster loop with cascade synchronization.
    CDoacross,
    /// Ordered one-CE-per-cluster loop.
    SDoacross,
    /// Ordered machine-wide loop.
    XDoacross,
}

impl LoopClass {
    /// Any concurrent class (everything but `Seq`).
    pub fn is_parallel(self) -> bool {
        !matches!(self, LoopClass::Seq)
    }
    /// A DOACROSS class (iterations start in order).
    pub fn is_ordered(self) -> bool {
        matches!(self, LoopClass::CDoacross | LoopClass::SDoacross | LoopClass::XDoacross)
    }
    /// The Cedar Fortran keyword for this class.
    pub fn keyword(self) -> &'static str {
        match self {
            LoopClass::Seq => "do",
            LoopClass::CDoall => "cdoall",
            LoopClass::SDoall => "sdoall",
            LoopClass::XDoall => "xdoall",
            LoopClass::CDoacross => "cdoacross",
            LoopClass::SDoacross => "sdoacross",
            LoopClass::XDoacross => "xdoacross",
        }
    }
}

/// An executable statement with optional statement label.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Source line.
    pub span: Span,
    /// Statement label (columns 1–5), if any.
    pub label: Option<u32>,
    /// The statement itself.
    pub kind: StmtKind,
}

impl Stmt {
    /// An unlabeled statement.
    pub fn new(span: Span, kind: StmtKind) -> Self {
        Stmt { span, label: None, kind }
    }
}

#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum StmtKind {
    /// Scalar or vector assignment; the LHS is a `Name` or `NameArgs`.
    Assign { lhs: Expr, rhs: Expr },
    /// Single-statement `WHERE (mask) a(...) = ...` masked vector
    /// assignment (fortran90 subset used by the restructurer).
    Where { mask: Expr, lhs: Expr, rhs: Expr },
    /// Block IF / ELSE IF / ELSE.
    If { cond: Expr, then_body: Vec<Stmt>, elifs: Vec<(Expr, Vec<Stmt>)>, else_body: Vec<Stmt> },
    /// DO in any scheduling class, including Cedar concurrent loops with
    /// loop-local declarations and pre/postambles (Figure 3).
    Do {
        class: LoopClass,
        var: String,
        start: Expr,
        end: Expr,
        step: Option<Expr>,
        /// Loop-local declarations (concurrent loops only).
        decls: Vec<Decl>,
        /// Executed once per participating CE before its first iteration.
        preamble: Vec<Stmt>,
        body: Vec<Stmt>,
        /// Executed once per CE after its last iteration (SDO/XDO only).
        postamble: Vec<Stmt>,
    },
    /// MIL-STD-1753 `DO WHILE (cond) ... END DO`.
    DoWhile { cond: Expr, body: Vec<Stmt> },
    /// `!$omp parallel do [private(...)] [reduction(op:x)]` applied to
    /// the sequential `DO` that follows it. Produced by the OpenMP
    /// emission backend; lowering rewrites it into an `XDOALL` with
    /// synthesized privatization and reduction machinery.
    OmpParallelDo { privates: Vec<String>, reductions: Vec<(RedOp, String)>, body: Box<Stmt> },
    /// `CALL name(args)`.
    Call { name: String, args: Vec<Expr> },
    /// `GOTO label` (parsed; rejected at lowering).
    Goto(u32),
    /// `CONTINUE` (dropped at lowering).
    Continue,
    /// `RETURN`.
    Return,
    /// `STOP`.
    Stop,
    /// I/O statements are parsed loosely and simulated as no-ops with a
    /// fixed cost; `args` kept for diagnostics.
    Io { kind: IoKind, args: Vec<Expr> },
}

/// Operator of a reduction (§3.3): what the analysis recognizes, what
/// the restructurer merges partials with, and what an OpenMP
/// `reduction(op:var)` clause names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// `s = s + e`; `reduction(+:s)`.
    Sum,
    /// `s = s * e`; `reduction(*:s)`.
    Product,
    /// `s = min(s, e)`; `reduction(min:s)`.
    Min,
    /// `s = max(s, e)`; `reduction(max:s)`.
    Max,
}

impl RedOp {
    /// Identity element for partial accumulators.
    pub fn identity(self) -> f64 {
        match self {
            RedOp::Sum => 0.0,
            RedOp::Product => 1.0,
            RedOp::Min => f64::INFINITY,
            RedOp::Max => f64::NEG_INFINITY,
        }
    }

    /// The operator as an OpenMP `reduction` clause spells it.
    pub fn clause(self) -> &'static str {
        match self {
            RedOp::Sum => "+",
            RedOp::Product => "*",
            RedOp::Min => "min",
            RedOp::Max => "max",
        }
    }
}

/// Which I/O statement a loosely-parsed [`StmtKind::Io`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// `PRINT fmt, list`.
    Print,
    /// `WRITE (unit, fmt) list`.
    Write,
    /// `READ (unit, fmt) list`.
    Read,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal (`is_double` for `D` exponents).
    Real { value: f64, is_double: bool },
    /// `.TRUE.` / `.FALSE.`.
    Logical(bool),
    /// Character literal.
    Str(String),
    /// Bare name: scalar variable or whole-array reference.
    Name(String),
    /// `name(list)` — array element, array section, function or
    /// intrinsic reference; disambiguated during lowering.
    NameArgs { name: String, args: Vec<ArgExpr> },
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A bare name expression.
    pub fn name(s: impl Into<String>) -> Expr {
        Expr::Name(s.into())
    }
    /// Binary operation helper.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }
    /// The base identifier of a Name / NameArgs expression.
    pub fn base_name(&self) -> Option<&str> {
        match self {
            Expr::Name(n) => Some(n),
            Expr::NameArgs { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// One item of a `name(...)` argument list.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum ArgExpr {
    Expr(Expr),
    /// `lower:upper:stride` with all parts optional (`a(:)`, `a(1:n)`,
    /// `a(1:n:2)`).
    Section {
        lower: Option<Expr>,
        upper: Option<Expr>,
        stride: Option<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Unary minus.
    Neg,
    /// Unary plus (dropped at lowering).
    Plus,
    /// `.NOT.`.
    Not,
}

/// Binary operators with F77 semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `//` (character concatenation; rejected at lowering).
    Concat,
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
    /// `.AND.`/`.OR.`/`.EQV.`/`.NEQV.`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Eqv | BinOp::Neqv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_class_predicates() {
        assert!(!LoopClass::Seq.is_parallel());
        assert!(LoopClass::XDoall.is_parallel());
        assert!(LoopClass::CDoacross.is_ordered());
        assert!(!LoopClass::CDoall.is_ordered());
        assert_eq!(LoopClass::SDoall.keyword(), "sdoall");
    }

    #[test]
    fn base_name_extraction() {
        let e = Expr::NameArgs { name: "a".into(), args: vec![ArgExpr::Expr(Expr::Int(1))] };
        assert_eq!(e.base_name(), Some("a"));
        assert_eq!(Expr::Int(3).base_name(), None);
    }
}
