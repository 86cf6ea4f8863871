//! Static synchronization audit (DESIGN.md §8).
//!
//! After all transformations, re-analyze the *output* program and check
//! that every dependence carried by a parallel loop is covered by the
//! synchronization actually present in the emitted code: an
//! `await`/`advance` cascade whose distance is at most the dependence
//! distance (DOACROSS), or a critical section enclosing every access to
//! the conflicting variable (unordered updates). Uncovered edges are
//! recorded as [`SyncAuditFinding`]s in the [`Report`] — they mean the
//! restructurer emitted a parallel loop whose iterations can conflict,
//! the static counterpart of what the simulator's happens-before race
//! detector observes dynamically.
//!
//! The audit is deliberately confined to dependences the analyzer can
//! *prove*: arrays whose subscripts defeat analysis are not reported
//! (a user-directive loop over such arrays would otherwise always be
//! flagged), and two-version nests are skipped — their parallel branch
//! is guarded by the run-time dependence test.

use crate::report::{LoopDecision, Report, SyncAuditFinding};
use cedar_analysis::depend::{self, DepKind, Direction};
use cedar_ir::visit::{walk_expr, walk_stmts};
use cedar_ir::{Expr, Loop, Program, Stmt, SymbolId, SyncOp, Unit};
use std::collections::BTreeSet;

/// Audit every parallel loop of `program`, appending findings to
/// `report.sync_audit`.
pub fn audit(program: &Program, report: &mut Report) {
    for unit in &program.units {
        walk_stmts(&unit.body, &mut |s| match s {
            Stmt::Loop(l) if l.class.is_parallel() && !is_two_version(unit, l, report) => {
                audit_parallel(unit, l, report)
            }
            _ => {}
        });
    }
}

/// Is this loop the parallel branch of a two-version nest? Those are
/// guarded by the run-time dependence test: statically provable
/// dependences are exactly what the test checks for at run time.
fn is_two_version(unit: &Unit, l: &Loop, report: &Report) -> bool {
    report.loops.iter().any(|r| {
        r.unit == unit.name
            && r.span.line == l.span.line
            && matches!(r.decision, LoopDecision::TwoVersion)
    })
}

fn audit_parallel(unit: &Unit, l: &Loop, report: &mut Report) {
    let deps = depend::analyze_loop(unit, l, None);
    let locals: BTreeSet<SymbolId> = l.locals.iter().copied().collect();
    // Minimum distance guaranteed by a complete cascade (an await whose
    // point is also advanced in the body); None = no usable cascade.
    let cascade = if l.class.is_ordered() { cascade_cover(&l.body) } else { None };
    // Symbols with at least one access outside every lock/unlock region.
    let unlocked = unlocked_symbols(&l.body);

    let mut seen: BTreeSet<(SymbolId, &'static str)> = BTreeSet::new();
    for d in &deps.deps {
        if d.direction != Direction::Lt || locals.contains(&d.arr) {
            continue;
        }
        let kind = match d.kind {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        };
        if !seen.insert((d.arr, kind)) {
            continue; // one finding per (symbol, kind)
        }
        // Cascade cover: an await of distance c orders iteration i
        // after i-c, so it covers any dependence of distance >= c; an
        // unknown distance needs the strongest cascade, c = 1.
        let cascaded = match (cascade, d.distance) {
            (Some(c), Some(dist)) => c <= dist,
            (Some(c), None) => c == 1,
            (None, _) => false,
        };
        // Critical-section cover: every access to the symbol sits
        // inside a lock/unlock region (unordered but atomic — legal
        // only for commutative updates, which is the transform's
        // responsibility; the audit checks coverage, not commutativity).
        if cascaded || !unlocked.contains(&d.arr) {
            continue;
        }
        let name = &unit.symbol(d.arr).name;
        let dist = match d.distance {
            Some(k) => format!("distance {k}"),
            None => "unknown distance".to_string(),
        };
        report.sync_audit.push(SyncAuditFinding {
            unit: unit.name.clone(),
            line: l.span.line,
            var: name.clone(),
            detail: format!(
                "{kind} dependence on `{name}` ({dist}) crosses {} iterations \
                 without a covering cascade or critical section",
                l.class.keyword()
            ),
        });
    }

    // Scalars are invisible to the array dependence tests: a shared
    // scalar written by the body is a distance-1 carried dependence
    // unless privatized (in `locals`) or always accessed under lock.
    for &s in &deps.refs.scalar_writes {
        if locals.contains(&s)
            || s == l.var
            || deps.refs.inner_ivars.contains(&s)
            || !unlocked.contains(&s)
        {
            continue;
        }
        if cascade == Some(1) {
            continue; // a distance-1 cascade orders every iteration pair
        }
        if !seen.insert((s, "scalar")) {
            continue;
        }
        let name = &unit.symbol(s).name;
        report.sync_audit.push(SyncAuditFinding {
            unit: unit.name.clone(),
            line: l.span.line,
            var: name.clone(),
            detail: format!(
                "shared scalar `{name}` is written by {} iterations without \
                 privatization, a distance-1 cascade, or a critical section",
                l.class.keyword()
            ),
        });
    }
}

/// The strongest (smallest-distance) complete cascade in `body`: the
/// minimum constant `await` distance over points that are also
/// `advance`d. Awaits with non-constant distances are ignored (they
/// cannot be proven to cover anything).
fn cascade_cover(body: &[Stmt]) -> Option<i64> {
    let mut awaits: Vec<(u32, i64)> = Vec::new();
    let mut advanced: BTreeSet<u32> = BTreeSet::new();
    collect_cascade(body, &mut awaits, &mut advanced);
    awaits.iter().filter(|(p, d)| advanced.contains(p) && *d >= 1).map(|&(_, d)| d).min()
}

fn collect_cascade(body: &[Stmt], awaits: &mut Vec<(u32, i64)>, advanced: &mut BTreeSet<u32>) {
    for s in body {
        match s {
            Stmt::Sync(SyncOp::Await { point, dist: Expr::ConstI(d) }) => {
                awaits.push((*point, *d));
            }
            Stmt::Sync(SyncOp::Advance { point }) => {
                advanced.insert(*point);
            }
            Stmt::If { then_body, elifs, else_body, .. } => {
                collect_cascade(then_body, awaits, advanced);
                for (_, b) in elifs {
                    collect_cascade(b, awaits, advanced);
                }
                collect_cascade(else_body, awaits, advanced);
            }
            // Nested loops run their own cascades; an await inside one
            // does not order the iterations of *this* loop.
            _ => {}
        }
    }
}

/// Symbols (scalars and array bases) with at least one access outside
/// every lock/unlock region of `body`. Accesses inside nested loops
/// still belong to an iteration of the audited loop, so they are
/// visited too, at the lock depth in effect at the nested loop.
fn unlocked_symbols(body: &[Stmt]) -> BTreeSet<SymbolId> {
    let mut out = BTreeSet::new();
    let mut depth = 0usize;
    scan_locks(body, &mut depth, &mut out);
    out
}

fn scan_locks(body: &[Stmt], depth: &mut usize, out: &mut BTreeSet<SymbolId>) {
    let note_expr = |e: &Expr, depth: usize, out: &mut BTreeSet<SymbolId>| {
        walk_expr(e, &mut |x| {
            if depth == 0 {
                match x {
                    Expr::Scalar(s) | Expr::Elem { arr: s, .. } | Expr::Section { arr: s, .. } => {
                        out.insert(*s);
                    }
                    _ => {}
                }
            }
        });
    };
    for s in body {
        match s {
            Stmt::Sync(SyncOp::Lock { .. }) => *depth += 1,
            Stmt::Sync(SyncOp::Unlock { .. }) => *depth = depth.saturating_sub(1),
            Stmt::Sync(_) => {}
            Stmt::Assign { lhs, rhs, span: _ } => {
                if *depth == 0 {
                    out.insert(lhs.base());
                    lvalue_indices(lhs, &mut |e| note_expr(e, 0, out));
                }
                note_expr(rhs, *depth, out);
            }
            Stmt::WhereAssign { mask, lhs, rhs, .. } => {
                if *depth == 0 {
                    out.insert(lhs.base());
                    lvalue_indices(lhs, &mut |e| note_expr(e, 0, out));
                }
                note_expr(mask, *depth, out);
                note_expr(rhs, *depth, out);
            }
            Stmt::If { cond, then_body, elifs, else_body, .. } => {
                note_expr(cond, *depth, out);
                scan_locks(then_body, depth, out);
                for (c, b) in elifs {
                    note_expr(c, *depth, out);
                    scan_locks(b, depth, out);
                }
                scan_locks(else_body, depth, out);
            }
            Stmt::Loop(l) => {
                note_expr(&l.start, *depth, out);
                note_expr(&l.end, *depth, out);
                if let Some(e) = &l.step {
                    note_expr(e, *depth, out);
                }
                scan_locks(&l.preamble, depth, out);
                scan_locks(&l.body, depth, out);
                scan_locks(&l.postamble, depth, out);
            }
            Stmt::DoWhile { cond, body, .. } => {
                note_expr(cond, *depth, out);
                scan_locks(body, depth, out);
            }
            Stmt::Call { args, .. } | Stmt::TaskStart { args, .. } => {
                for a in args {
                    note_expr(a, *depth, out);
                }
            }
            Stmt::TaskWait { .. } | Stmt::Return | Stmt::Stop | Stmt::Io { .. } => {}
        }
    }
}

fn lvalue_indices(lhs: &cedar_ir::LValue, f: &mut impl FnMut(&Expr)) {
    match lhs {
        cedar_ir::LValue::Scalar(_) => {}
        cedar_ir::LValue::Elem { idx, .. } => {
            for e in idx {
                f(e);
            }
        }
        cedar_ir::LValue::Section { idx, .. } => {
            for ix in idx {
                match ix {
                    cedar_ir::Index::At(e) => f(e),
                    cedar_ir::Index::Range { lo, hi, step } => {
                        for e in [lo, hi, step].into_iter().flatten() {
                            f(e);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PassConfig;
    use crate::driver::restructure;
    use cedar_ir::compile_free;

    fn audit_src(src: &str) -> Report {
        let p = compile_free(src).unwrap();
        let mut report = Report::default();
        audit(&p, &mut report);
        report
    }

    #[test]
    fn uncovered_recurrence_in_directive_doall_is_flagged() {
        let r = audit_src(
            "program p\nparameter (n = 16)\nreal b(n)\ncdoall i = 2, n\n\
             b(i) = b(i - 1) + 1.0\nend cdoall\nend\n",
        );
        assert_eq!(r.sync_audit.len(), 1, "{:?}", r.sync_audit);
        assert_eq!(r.sync_audit[0].var, "b");
        assert!(r.sync_audit[0].detail.contains("flow dependence"), "{}", r.sync_audit[0].detail);
    }

    #[test]
    fn cascade_covers_the_recurrence() {
        let r = audit_src(
            "program p\nparameter (n = 16)\nreal b(n)\ncdoacross i = 2, n\n\
             call await(1, 1)\nb(i) = b(i - 1) + 1.0\ncall advance(1)\nend cdoacross\nend\n",
        );
        assert!(r.sync_audit.is_empty(), "{:?}", r.sync_audit);
    }

    #[test]
    fn await_without_advance_does_not_cover() {
        let r = audit_src(
            "program p\nparameter (n = 16)\nreal b(n)\ncdoacross i = 2, n\n\
             call await(1, 1)\nb(i) = b(i - 1) + 1.0\nend cdoacross\nend\n",
        );
        assert_eq!(r.sync_audit.len(), 1, "{:?}", r.sync_audit);
    }

    #[test]
    fn shared_scalar_needs_privatization_or_lock() {
        let racy = audit_src(
            "program p\nparameter (n = 16)\nreal a(n), s\ns = 0.0\ncdoall i = 1, n\n\
             s = s + a(i)\nend cdoall\nend\n",
        );
        assert_eq!(racy.sync_audit.len(), 1, "{:?}", racy.sync_audit);
        assert!(
            racy.sync_audit[0].detail.contains("shared scalar"),
            "{}",
            racy.sync_audit[0].detail
        );

        let locked = audit_src(
            "program p\nparameter (n = 16)\nreal a(n), s\ns = 0.0\ncdoall i = 1, n\n\
             call lock(1)\ns = s + a(i)\ncall unlock(1)\nend cdoall\nend\n",
        );
        assert!(locked.sync_audit.is_empty(), "{:?}", locked.sync_audit);

        let private = audit_src(
            "program p\nparameter (n = 16)\nreal a(n)\ncdoall i = 1, n\nreal t\n\
             t = a(i) * 2.0\na(i) = t\nend cdoall\nend\n",
        );
        assert!(private.sync_audit.is_empty(), "{:?}", private.sync_audit);
    }

    #[test]
    fn restructured_output_passes_its_own_audit() {
        // The automatic restructurer's output must audit clean: the
        // pass re-checks the transforms' inserted synchronization.
        let src = "program p\nparameter (n = 96)\nreal a(n), b(n)\ndo i = 1, n\n\
                   b(i) = i * 1.0\nend do\ndo i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend do\n\
                   a(1) = 1.0\ndo i = 2, n\n\
                   t = sqrt(b(i)) + sin(b(i)) * cos(b(i)) + exp(b(i) * 0.01)\n\
                   a(i) = a(i - 1) * 0.5 + t\nend do\nx = a(n)\nend\n";
        let p = compile_free(src).unwrap();
        let rr = restructure(&p, &PassConfig::automatic_1991());
        assert!(
            rr.report.sync_audit.is_empty(),
            "restructurer output failed its own sync audit:\n{:?}",
            rr.report.sync_audit
        );
    }
}
