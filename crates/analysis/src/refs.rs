//! Memory-reference collection over a loop body.
//!
//! Collects every array access inside a tested loop together with the
//! stack of loop index variables enclosing it, and flags the accesses
//! the affine machinery cannot analyze. Calls inside the body are
//! handled through interprocedural summaries when the caller provides
//! them; otherwise any array reachable by a call is conservatively
//! marked unanalyzable.

use crate::interproc::ProgramSummaries;
use cedar_ir::visit::walk_expr;
use cedar_ir::{Expr, LValue, Loop, Stmt, SymbolId, Unit};
use std::collections::BTreeSet;

/// Whether an access reads or writes its array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The access reads the element(s).
    Read,
    /// The access writes the element(s).
    Write,
}

/// One array access within the tested loop.
#[derive(Debug, Clone)]
pub struct ArrayAccess {
    /// The accessed array.
    pub arr: SymbolId,
    /// Raw subscript expressions (empty for accesses with unknown
    /// subscripts, e.g. whole-array call arguments).
    pub subs: Vec<Expr>,
    /// Read or write.
    pub kind: AccessKind,
    /// Loop index variables enclosing the access, tested loop first.
    pub ivars: Vec<SymbolId>,
}

/// All references of a loop body.
#[derive(Debug, Default)]
pub struct BodyRefs {
    /// Every array access in pre-order.
    pub accesses: Vec<ArrayAccess>,
    /// Arrays whose subscripts (or call exposure) defeat analysis.
    pub unanalyzable: BTreeSet<SymbolId>,
    /// Scalars written anywhere in the body (loop variables of inner
    /// loops excluded).
    pub scalar_writes: BTreeSet<SymbolId>,
    /// Scalars read anywhere in the body.
    pub scalar_reads: BTreeSet<SymbolId>,
    /// Inner-loop index variables (they are written by their loops).
    pub inner_ivars: BTreeSet<SymbolId>,
    /// True if the body contains CALLs or user-function references that
    /// the provided summaries could not prove side-effect free.
    pub has_opaque_calls: bool,
    /// Arrays a callee is known (via summaries) to write.
    pub call_written: BTreeSet<SymbolId>,
}

/// Collect all references in the body of `l` (the tested loop).
pub fn collect(unit: &Unit, l: &Loop, summaries: Option<&ProgramSummaries>) -> BodyRefs {
    let mut out = BodyRefs::default();
    let _ = unit;
    let mut ctx = Collector { out: &mut out, ivars: vec![l.var], summaries };
    ctx.block(&l.body);
    out
}

struct Collector<'a> {
    out: &'a mut BodyRefs,
    ivars: Vec<SymbolId>,
    summaries: Option<&'a ProgramSummaries>,
}

impl Collector<'_> {
    fn block(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { lhs, rhs, .. } => {
                self.lvalue(lhs);
                self.expr(rhs);
            }
            Stmt::WhereAssign { mask, lhs, rhs, .. } => {
                self.expr(mask);
                self.lvalue(lhs);
                self.expr(rhs);
            }
            Stmt::If { cond, then_body, elifs, else_body, .. } => {
                self.expr(cond);
                self.block(then_body);
                for (c, b) in elifs {
                    self.expr(c);
                    self.block(b);
                }
                self.block(else_body);
            }
            Stmt::Loop(inner) => {
                self.out.inner_ivars.insert(inner.var);
                self.expr(&inner.start);
                self.expr(&inner.end);
                if let Some(st) = &inner.step {
                    self.expr(st);
                }
                self.ivars.push(inner.var);
                self.block(&inner.preamble);
                self.block(&inner.body);
                self.block(&inner.postamble);
                self.ivars.pop();
            }
            Stmt::DoWhile { cond, body, .. } => {
                self.expr(cond);
                self.block(body);
            }
            Stmt::Call { callee, args, .. } => {
                self.call(callee, args);
            }
            Stmt::Sync(op) => {
                if let cedar_ir::SyncOp::Await { dist, .. } = op {
                    self.expr(dist);
                }
            }
            Stmt::TaskStart { args, .. } => {
                // Tasking runs the callee concurrently with unknown
                // interleaving: treat everything reachable as opaque.
                self.out.has_opaque_calls = true;
                for a in args {
                    self.expr(a);
                    if let Expr::Section { arr, .. } | Expr::Elem { arr, .. } = a {
                        self.out.unanalyzable.insert(*arr);
                        self.out.call_written.insert(*arr);
                    }
                }
            }
            Stmt::TaskWait { .. } => {}
            Stmt::Return | Stmt::Stop | Stmt::Io { .. } => {}
        }
    }

    fn lvalue(&mut self, lhs: &LValue) {
        match lhs {
            LValue::Scalar(s) => {
                self.out.scalar_writes.insert(*s);
            }
            LValue::Elem { arr, idx } => {
                self.push_access(*arr, idx.clone(), AccessKind::Write);
                for e in idx {
                    self.expr(e);
                }
            }
            LValue::Section { arr, .. } => {
                // Vector writes appear only in already-vectorized input;
                // treat conservatively.
                self.out.unanalyzable.insert(*arr);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        walk_expr(e, &mut |x| match x {
            Expr::Scalar(s) => {
                self.out.scalar_reads.insert(*s);
            }
            Expr::Elem { arr, idx } => {
                self.push_access(*arr, idx.clone(), AccessKind::Read);
            }
            Expr::Section { arr, .. } => {
                self.out.unanalyzable.insert(*arr);
            }
            Expr::Call { unit: callee, args } => {
                self.call_expr(callee, args);
            }
            _ => {}
        });
    }

    fn push_access(&mut self, arr: SymbolId, subs: Vec<Expr>, kind: AccessKind) {
        self.out.accesses.push(ArrayAccess { arr, subs, kind, ivars: self.ivars.clone() });
    }

    /// A CALL statement: consult summaries; without one, every array
    /// argument becomes unanalyzable and the call is opaque.
    fn call(&mut self, callee: &str, args: &[Expr]) {
        if cedar_ir::is_timer_call(callee) {
            return; // simulator timing no-op
        }
        for a in args {
            self.expr(a);
        }
        let summary = self.summaries.and_then(|s| s.get(callee));
        match summary {
            Some(sm) => {
                for (pos, a) in args.iter().enumerate() {
                    if let Expr::Section { arr, .. } | Expr::Elem { arr, .. } = a {
                        if sm.arg_writes.contains(&pos) {
                            // Summary knows the argument is written but
                            // not at which subscripts.
                            self.out.unanalyzable.insert(*arr);
                            self.out.call_written.insert(*arr);
                        } else if sm.arg_reads.contains(&pos) {
                            self.out.unanalyzable.insert(*arr);
                        }
                    }
                    if let Expr::Scalar(s) = a {
                        if sm.arg_writes.contains(&pos) {
                            self.out.scalar_writes.insert(*s);
                        }
                    }
                }
                if sm.touches_commons {
                    self.out.has_opaque_calls = true;
                }
            }
            None => {
                self.out.has_opaque_calls = true;
                for a in args {
                    if let Expr::Section { arr, .. } | Expr::Elem { arr, .. } = a {
                        self.out.unanalyzable.insert(*arr);
                        self.out.call_written.insert(*arr);
                    }
                    if let Expr::Scalar(s) = a {
                        // By-reference scalar may be written by the callee.
                        self.out.scalar_writes.insert(*s);
                    }
                }
            }
        }
    }

    fn call_expr(&mut self, callee: &str, args: &[Expr]) {
        // Function reference inside an expression: arguments were already
        // walked by the caller of `expr` (walk_expr descends), so only
        // classify side effects here.
        let summary = self.summaries.and_then(|s| s.get(callee));
        let pure = summary.is_some_and(|sm| sm.arg_writes.is_empty() && !sm.touches_commons);
        if !pure {
            self.out.has_opaque_calls = true;
            for a in args {
                if let Expr::Section { arr, .. } | Expr::Elem { arr, .. } = a {
                    self.out.unanalyzable.insert(*arr);
                }
            }
        }
    }
}

impl BodyRefs {
    /// Scalars written in the body excluding inner-loop index variables.
    pub fn written_non_ivar_scalars(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.scalar_writes.iter().copied().filter(move |s| !self.inner_ivars.contains(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn refs_of(src: &str) -> (cedar_ir::Program, BodyRefs) {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let r = collect(u, &l, None);
        (p, r)
    }

    #[test]
    fn collects_reads_and_writes() {
        let (_, r) = refs_of(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = b(i) + b(i + 1)\nend do\nend\n",
        );
        let writes: Vec<_> = r.accesses.iter().filter(|a| a.kind == AccessKind::Write).collect();
        let reads: Vec<_> = r.accesses.iter().filter(|a| a.kind == AccessKind::Read).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(reads.len(), 2);
        assert!(!r.has_opaque_calls);
    }

    #[test]
    fn inner_loop_vars_tracked() {
        let (_, r) = refs_of(
            "subroutine s(a, n)\nreal a(n, n)\ndo i = 1, n\ndo j = 1, n\n\
             a(j, i) = 0.0\nend do\nend do\nend\n",
        );
        assert_eq!(r.accesses.len(), 1);
        assert_eq!(r.accesses[0].ivars.len(), 2);
        assert_eq!(r.inner_ivars.len(), 1);
    }

    #[test]
    fn unknown_call_poisons_arrays() {
        let (_, r) = refs_of(
            "subroutine s(a, n)\nreal a(n)\nexternal f\ndo i = 1, n\n\
             call f(a, i)\nend do\nend\n",
        );
        assert!(r.has_opaque_calls);
        assert_eq!(r.unanalyzable.len(), 1);
    }

    #[test]
    fn scalar_sets() {
        let (p, r) = refs_of(
            "subroutine s(a, n)\nreal a(n)\ndo i = 1, n\nt = a(i)\na(i) = t * t\nend do\nend\n",
        );
        let u = &p.units[0];
        let t = u.find_symbol("t").unwrap();
        assert!(r.scalar_writes.contains(&t));
        assert!(r.scalar_reads.contains(&t));
        assert_eq!(r.written_non_ivar_scalars().count(), 1);
    }
}
