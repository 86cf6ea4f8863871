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
    Elem {
        arr: SymbolId,
        idx: Vec<Expr>,
    },
    Section {
        arr: SymbolId,
        idx: Vec<Index>,
    },
}

impl LValue {
    /// The assigned symbol.
    pub fn base(&self) -> SymbolId {
        match self {
            LValue::Scalar(s) | LValue::Elem { arr: s, .. } | LValue::Section { arr: s, .. } => *s,
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
    Await {
        point: u32,
        dist: Expr,
    },
    /// Signal this iteration's passage of `point`.
    Advance {
        point: u32,
    },
    /// Enter an unordered critical section.
    Lock {
        id: u32,
    },
    Unlock {
        id: u32,
    },
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

/// Iterations of `DO var = start, end, step`: none when `end` is behind
/// `start`, `None` for a zero step or a count outside `i64`. Every trip
/// count of the pipeline (planner, dependence tests, simulator) is this
/// rule.
#[inline]
pub fn trip(start: i64, end: i64, step: i64) -> Option<i64> {
    i64::try_from(trip_wide(start, end, step)?).ok()
}

/// [`trip`] before it is narrowed to `i64`. Every count fits `i128`, so
/// `None` means a zero step.
#[inline]
pub fn trip_wide(start: i64, end: i64, step: i64) -> Option<i128> {
    if step == 0 {
        return None;
    }
    Some(((end as i128 - start as i128 + step as i128) / step as i128).max(0))
}

impl Loop {
    /// [`trip`] of the header when its bounds and step are integer
    /// literals.
    pub fn const_trip(&self) -> Option<i64> {
        let step = self.step.as_ref().map_or(Some(1), Expr::as_const_int)?;
        trip(self.start.as_const_int()?, self.end.as_const_int()?, step)
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
    fn trip_counts_at_the_ends_of_i64() {
        assert_eq!(trip(1, 10, 1), Some(10));
        assert_eq!(trip(10, 1, -1), Some(10));
        assert_eq!(trip(100, 1, -2), Some(50));
        assert_eq!(trip(10, 1, 1), Some(0));
        assert_eq!(trip(1, 10, -1), Some(0));
        assert_eq!(trip(1, 10, 0), None);
        assert_eq!(trip(1, i64::MAX, 1), Some(i64::MAX));
        assert_eq!(trip(0, i64::MAX, 1), None);
        assert_eq!(trip(-5, i64::MAX, 1), None);
        assert_eq!(trip(i64::MAX, -5, -1), None);
        assert_eq!(trip(i64::MIN, i64::MAX, 1), None);
        assert_eq!(trip(i64::MAX, i64::MIN, 1), Some(0));
        assert_eq!(trip(i64::MIN, i64::MIN, -1), Some(1));
        assert_eq!(trip(i64::MAX, i64::MAX, i64::MAX), Some(1));
        assert_eq!(trip(i64::MIN, i64::MAX, i64::MIN), Some(0));
        // The simulator's count of `DO I = 1, 9223372036854775807, 3`.
        assert_eq!(trip(1, i64::MAX, 3), Some(3_074_457_345_618_258_603));
    }

    fn first_loop(src: &str) -> Loop {
        let p = crate::compile_free(src).unwrap();
        let u = p.units.into_iter().next().unwrap();
        u.body.iter().find_map(Stmt::as_loop).expect("no loop").clone()
    }

    #[test]
    fn const_trip_counts() {
        let l = first_loop("subroutine s(a)\nreal a(100)\ndo i = 1, 100\na(i) = 0.\nend do\nend\n");
        assert_eq!(l.const_trip(), Some(100));
        let l =
            first_loop("subroutine s(a)\nreal a(100)\ndo i = 100, 1, -2\na(i) = 0.\nend do\nend\n");
        assert_eq!(l.const_trip(), Some(50));
        let l = first_loop("subroutine s(a, n)\nreal a(n)\ndo i = 1, n\na(i) = 0.\nend do\nend\n");
        assert_eq!(l.const_trip(), None);
        let l = first_loop("subroutine s(a)\nreal a(9)\ndo i = 1, 9, 0\na(1) = 0.\nend do\nend\n");
        assert_eq!(l.const_trip(), None);
        let l = first_loop(
            "subroutine s(a)\nreal a(9)\ndo i = -5, 9223372036854775807\na(1) = 0.\nend do\nend\n",
        );
        assert_eq!(l.const_trip(), None);
    }

    #[test]
    fn loop_accessor() {
        let l = Loop::new_seq(SymbolId(0), Expr::ConstI(1), Expr::ConstI(10), vec![]);
        let s = Stmt::Loop(l);
        assert!(s.as_loop().is_some());
        assert_eq!(s.span(), Span::NONE);
    }
}
