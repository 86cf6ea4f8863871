//! Scalar dataflow: upward-exposed reads, live-out approximation, and
//! scalar privatization legality (paper §3.2).
//!
//! "The privatization pass looks for scalar variables whose value does
//! not cross iteration boundaries, and marks them as local to the loop."
//! A scalar is privatizable in a loop iff no read in an iteration can
//! see a value written by another iteration — i.e. every read is
//! preceded, on every path within the same iteration, by a write. If the
//! value is also needed after the loop, the transform must add a
//! last-value assignment.

use cedar_ir::visit::{walk_expr, walk_stmt_exprs, walk_stmts};
use cedar_ir::{Expr, LValue, Loop, Stmt, SymKind, SymbolId, Unit};

/// Result of scalar privatization legality for one symbol in one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarStatus {
    /// Written before any read on every intra-iteration path.
    Privatizable {
        /// The value of the final iteration is live after the loop, so
        /// privatization must copy it out.
        needs_last_value: bool,
    },
    /// Read before (or without) a dominating write: iterations
    /// communicate through it.
    CrossIteration,
    /// Never written in the loop (plain loop-invariant input).
    ReadOnly,
}

/// Classify scalar `s` with respect to loop `l`.
pub fn classify_scalar(unit: &Unit, l: &Loop, s: SymbolId) -> ScalarStatus {
    let mut a = ExposureAnalysis { target: s, exposed: false, defined: false };
    a.block(&l.body);
    if !a.written_anywhere(&l.body) {
        return ScalarStatus::ReadOnly;
    }
    if a.exposed {
        return ScalarStatus::CrossIteration;
    }
    ScalarStatus::Privatizable { needs_last_value: live_out(unit, l, s) }
}

/// Conservative liveness: `s` is live after the loop if it escapes the
/// unit (argument / COMMON / function result / SAVEd) or is referenced
/// anywhere else in the unit body outside the loop.
pub fn live_out(unit: &Unit, l: &Loop, s: SymbolId) -> bool {
    match unit.symbol(s).kind {
        SymKind::Arg(_) | SymKind::Common { .. } | SymKind::FuncResult => return true,
        _ => {}
    }
    let mut uses_outside = 0usize;
    // Count reads of `s` in the unit excluding the subtree of `l`.
    fn count_in(body: &[Stmt], l: &Loop, s: SymbolId, n: &mut usize) {
        for st in body {
            if let Stmt::Loop(inner) = st {
                // Identify the loop under test structurally (callers often
                // hold a clone, so pointer identity is not reliable).
                if inner.span == l.span && inner.var == l.var && inner.start == l.start {
                    continue; // skip the loop under test
                }
            }
            walk_stmt_exprs(st, false, &mut |e: &Expr| {
                walk_expr(e, &mut |x| {
                    if matches!(x, Expr::Scalar(v) if *v == s) {
                        *n += 1;
                    }
                });
            });
            match st {
                Stmt::If { then_body, elifs, else_body, .. } => {
                    count_in(then_body, l, s, n);
                    for (_, b) in elifs {
                        count_in(b, l, s, n);
                    }
                    count_in(else_body, l, s, n);
                }
                Stmt::Loop(inner) => {
                    count_in(&inner.preamble, l, s, n);
                    count_in(&inner.body, l, s, n);
                    count_in(&inner.postamble, l, s, n);
                }
                Stmt::DoWhile { body, .. } => count_in(body, l, s, n),
                _ => {}
            }
        }
    }
    count_in(&unit.body, l, s, &mut uses_outside);
    uses_outside > 0
}

/// Must-define / upward-exposure walk for one scalar.
struct ExposureAnalysis {
    target: SymbolId,
    exposed: bool,
    /// Must-defined at the current program point (within one iteration).
    defined: bool,
}

impl ExposureAnalysis {
    fn written_anywhere(&self, body: &[Stmt]) -> bool {
        let mut w = false;
        walk_stmts(body, &mut |s: &Stmt| match s {
            Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } => {
                if matches!(lhs, LValue::Scalar(v) if *v == self.target) {
                    w = true;
                }
            }
            Stmt::Call { args, .. } => {
                // By-reference scalar actual may be written.
                for a in args {
                    if matches!(a, Expr::Scalar(v) if *v == self.target) {
                        w = true;
                    }
                }
            }
            _ => {}
        });
        w
    }

    fn block(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn reads_in_expr(&mut self, e: &Expr) {
        let t = self.target;
        let mut saw = false;
        walk_expr(e, &mut |x| {
            if matches!(x, Expr::Scalar(v) if *v == t) {
                saw = true;
            }
        });
        if saw && !self.defined {
            self.exposed = true;
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { lhs, rhs, .. } => {
                // RHS reads first, then subscript reads, then the def.
                self.reads_in_expr(rhs);
                match lhs {
                    LValue::Scalar(v) => {
                        if *v == self.target {
                            self.defined = true;
                        }
                    }
                    LValue::Elem { idx, .. } => {
                        for e in idx {
                            self.reads_in_expr(e);
                        }
                    }
                    LValue::Section { .. } => {}
                }
            }
            Stmt::WhereAssign { mask, lhs, rhs, .. } => {
                self.reads_in_expr(mask);
                self.reads_in_expr(rhs);
                // Masked writes are conditional: do not count as must-def.
                if let LValue::Elem { idx, .. } = lhs {
                    for e in idx {
                        self.reads_in_expr(e);
                    }
                }
            }
            Stmt::If { cond, then_body, elifs, else_body, .. } => {
                self.reads_in_expr(cond);
                let before = self.defined;
                let mut all_branches_define = true;

                self.defined = before;
                self.block(then_body);
                all_branches_define &= self.defined;

                for (c, b) in elifs {
                    self.defined = before;
                    self.reads_in_expr(c);
                    self.block(b);
                    all_branches_define &= self.defined;
                }

                let has_else = !else_body.is_empty();
                if has_else {
                    self.defined = before;
                    self.block(else_body);
                    all_branches_define &= self.defined;
                } else {
                    // Implicit fall-through path defines nothing new.
                    all_branches_define = false;
                }

                self.defined = before || all_branches_define;
            }
            Stmt::Loop(inner) => {
                // Inner loop may execute zero times: exposure inside is
                // checked with the incoming state; definitions inside do
                // not count as must-defs afterwards.
                let before = self.defined;
                self.block(&inner.preamble);
                self.block(&inner.body);
                self.block(&inner.postamble);
                self.defined = before;
                // Bounds are reads.
                self.reads_in_expr(&inner.start);
                self.reads_in_expr(&inner.end);
                if let Some(st) = &inner.step {
                    self.reads_in_expr(st);
                }
            }
            Stmt::DoWhile { cond, body, .. } => {
                self.reads_in_expr(cond);
                let before = self.defined;
                self.block(body);
                self.defined = before;
            }
            Stmt::Call { args, .. } => {
                for a in args {
                    self.reads_in_expr(a);
                    // A by-reference scalar may be defined by the callee,
                    // but we cannot rely on it: not a must-def.
                }
            }
            Stmt::Sync(cedar_ir::SyncOp::Await { dist, .. }) => self.reads_in_expr(dist),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn classify(src: &str, name: &str) -> ScalarStatus {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let s = u.find_symbol(name).unwrap();
        classify_scalar(u, &l, s)
    }

    #[test]
    fn written_scalars_skip_inner_ivars_and_split_by_status() {
        // The pairing the legality check makes: every written scalar
        // but inner-loop indices, classified one by one.
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\nw = 0.0\ndo i = 1, n\n\
             t = b(i)\nw = w + t\ndo j = 1, 4\na(i) = t\nend do\nend do\nb(1) = w\nend\n",
        )
        .unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let refs = crate::refs::collect(u, &l, None);
        let mut got: Vec<(&str, ScalarStatus)> = refs
            .written_non_ivar_scalars()
            .map(|s| (u.symbol(s).name.as_str(), classify_scalar(u, &l, s)))
            .collect();
        got.sort_by_key(|(name, _)| *name);
        assert_eq!(
            got,
            vec![
                ("t", ScalarStatus::Privatizable { needs_last_value: false }),
                ("w", ScalarStatus::CrossIteration),
            ]
        );
    }

    #[test]
    fn classic_privatizable_temp() {
        let st = classify(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\nt = b(i)\n\
             a(i) = sqrt(t)\nend do\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::Privatizable { needs_last_value: false });
    }

    #[test]
    fn live_out_needs_last_value() {
        let st = classify(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\nt = b(i)\n\
             a(i) = t\nend do\nb(1) = t\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::Privatizable { needs_last_value: true });
    }

    #[test]
    fn read_before_write_crosses_iterations() {
        let st = classify(
            "subroutine s(a, n)\nreal a(n)\nt = 0.0\ndo i = 1, n\na(i) = t\n\
             t = a(i) + 1.0\nend do\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::CrossIteration);
    }

    #[test]
    fn accumulator_crosses_iterations() {
        let st = classify(
            "subroutine s(a, n, total)\nreal a(n), total\ntotal = 0.0\n\
             do i = 1, n\ntotal = total + a(i)\nend do\nend\n",
            "total",
        );
        assert_eq!(st, ScalarStatus::CrossIteration);
    }

    #[test]
    fn conditional_write_is_not_must_def() {
        let st = classify(
            "subroutine s(a, n, t)\nreal a(n)\ndo i = 1, n\n\
             if (a(i) .gt. 0.0) then\nt = a(i)\nend if\na(i) = t\nend do\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::CrossIteration);
    }

    #[test]
    fn both_branches_writing_is_must_def() {
        let st = classify(
            "subroutine s(a, n)\nreal a(n)\ndo i = 1, n\n\
             if (a(i) .gt. 0.0) then\nt = 1.0\nelse\nt = -1.0\nend if\n\
             a(i) = t\nend do\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::Privatizable { needs_last_value: false });
    }

    #[test]
    fn read_only_scalar() {
        let st = classify(
            "subroutine s(a, n, c)\nreal a(n), c\ndo i = 1, n\na(i) = c\nend do\nend\n",
            "c",
        );
        assert_eq!(st, ScalarStatus::ReadOnly);
    }

    #[test]
    fn write_inside_inner_loop_not_must_def_after() {
        // inner loop may run zero times, so the read of t after it is
        // exposed.
        let st = classify(
            "subroutine s(a, n, m)\nreal a(n)\ndo i = 1, n\n\
             do j = 1, m\nt = a(i) * j\nend do\na(i) = t\nend do\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::CrossIteration);
    }

    #[test]
    fn argument_scalar_is_live_out() {
        let st = classify(
            "subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\nt = a(i)\n\
             a(i) = t * 2.0\nend do\nend\n",
            "t",
        );
        assert_eq!(st, ScalarStatus::Privatizable { needs_last_value: true });
    }
}
