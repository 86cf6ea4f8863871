//! Statements.

use crate::expr::{Expr, Index};
use crate::symbol::SymbolId;
use cedar_f77::ast::LoopClass;
use cedar_f77::Span;

/// Assignment target.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum LValue {
    /// Scalar variable.
    Scalar(SymbolId),
    Elem { arr: SymbolId, idx: Vec<Expr> },
    Section { arr: SymbolId, idx: Vec<Index> },
}

impl LValue {
    /// The assigned symbol.
    pub fn base(&self) -> SymbolId {
        match self {
            LValue::Scalar(s) | LValue::Elem { arr: s, .. } | LValue::Section { arr: s, .. } => {
                *s
            }
        }
    }
    /// Is this a vector (section) target?
    pub fn is_vector(&self) -> bool {
        matches!(self, LValue::Section { .. })
    }
}

/// Synchronization operations (paper §2.1 Fig. 4 and §4.1.6). The
/// front end recognizes `CALL AWAIT(point, dist)` / `CALL ADVANCE(point)`
/// / `CALL LOCK(k)` / `CALL UNLOCK(k)` and lowers them here.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum SyncOp {
    /// Wait until iteration `i - dist` has executed `Advance(point)`.
    /// Legal only inside a DOACROSS body.
    Await { point: u32, dist: Expr },
    /// Signal this iteration's passage of `point`.
    Advance { point: u32 },
    /// Enter an unordered critical section.
    Lock { id: u32 },
    Unlock { id: u32 },
}

/// A DO loop of any scheduling class with the Cedar Fortran extras
/// (Figure 3): loop-local declarations, per-CE preamble/postamble.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Scheduling class (`Seq`, `CDOALL`, ...).
    pub class: LoopClass,
    /// Loop control variable.
    pub var: SymbolId,
    /// First value of the control variable.
    pub start: Expr,
    /// Last value of the control variable.
    pub end: Expr,
    /// Step (defaults to 1).
    pub step: Option<Expr>,
    /// Symbols private to the loop (one copy per participating CE;
    /// per cluster for SDO loops).
    pub locals: Vec<SymbolId>,
    /// Executed once per participant before its first iteration.
    pub preamble: Vec<Stmt>,
    /// The iterated statements.
    pub body: Vec<Stmt>,
    /// Executed once per participant after its last iteration.
    pub postamble: Vec<Stmt>,
    /// Source line of the loop header.
    pub span: Span,
}

/// Executable statements of the IR.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum Stmt {
    /// Scalar or element-wise vector assignment.
    Assign { lhs: LValue, rhs: Expr, span: Span },
    /// Masked vector assignment (`WHERE`).
    WhereAssign { mask: Expr, lhs: LValue, rhs: Expr, span: Span },
    /// Block IF / ELSE IF / ELSE.
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        elifs: Vec<(Expr, Vec<Stmt>)>,
        else_body: Vec<Stmt>,
        span: Span,
    },
    /// A DO loop of any scheduling class.
    Loop(Loop),
    /// MIL-STD-1753 `DO WHILE`.
    DoWhile { cond: Expr, body: Vec<Stmt>, span: Span },
    /// Subroutine call (by-reference argument binding).
    Call { callee: String, args: Vec<Expr>, span: Span },
    /// Subroutine-level tasking (§2.2.2): start `callee` on a new
    /// execution thread. `lib` selects the low-overhead microtasking
    /// path (`mtskstart`, no synchronization allowed inside — the
    /// paper's deadlock rule) over the operating-system cluster task
    /// (`ctskstart`, expensive but unrestricted).
    TaskStart { callee: String, args: Vec<Expr>, lib: bool, span: Span },
    /// Join every outstanding task (`tskwait`).
    TaskWait { span: Span },
    /// Cascade synchronization / critical-section operation.
    Sync(SyncOp),
    /// `RETURN`.
    Return,
    /// `STOP`.
    Stop,
    /// Simulated as a fixed-cost no-op.
    Io { span: Span },
}

impl Stmt {
    /// Source line of the statement (NONE for generated code).
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::WhereAssign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::DoWhile { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::TaskStart { span, .. }
            | Stmt::TaskWait { span }
            | Stmt::Io { span } => *span,
            Stmt::Loop(l) => l.span,
            _ => Span::NONE,
        }
    }

    /// Is this a (possibly nested) loop statement?
    pub fn as_loop(&self) -> Option<&Loop> {
        match self {
            Stmt::Loop(l) => Some(l),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Loop {
        /// A plain sequential loop with unit step and no locals.
        pub(crate) fn new_seq(var: SymbolId, start: Expr, end: Expr, body: Vec<Stmt>) -> Self {
            Loop {
                class: LoopClass::Seq,
                var,
                start,
                end,
                step: None,
                locals: Vec::new(),
                preamble: Vec::new(),
                body,
                postamble: Vec::new(),
                span: Span::NONE,
            }
        }
    }

    #[test]
    fn lvalue_base_symbol() {
        let lv = LValue::Elem { arr: SymbolId(3), idx: vec![Expr::ConstI(1)] };
        assert_eq!(lv.base(), SymbolId(3));
        assert!(!lv.is_vector());
        let lv = LValue::Section { arr: SymbolId(2), idx: vec![] };
        assert!(lv.is_vector());
    }

    #[test]
    fn loop_accessor() {
        let l = Loop::new_seq(SymbolId(0), Expr::ConstI(1), Expr::ConstI(10), vec![]);
        let s = Stmt::Loop(l);
        assert!(s.as_loop().is_some());
        assert_eq!(s.span(), Span::NONE);
    }
}
