//! Interprocedural summary information (§4.1.1).
//!
//! The paper's hand analysis relied on "interprocedural summary
//! information ... simply keeping track of which interface variables
//! were used and defined by a particular routine and all of the routines
//! which it called". This module computes exactly that: per-unit
//! use/def sets over dummy arguments and COMMON blocks, closed
//! transitively over the call graph with a fixpoint.

use cedar_ir::visit::{walk_expr, walk_stmt_exprs, walk_stmts};
use cedar_ir::{Expr, LValue, Program, Stmt, SymKind, Unit};
use std::collections::{BTreeMap, BTreeSet};

/// Use/def summary of one routine, expressed over its interface:
/// argument positions and COMMON block names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitSummary {
    /// Argument positions read (directly or via callees).
    pub arg_reads: BTreeSet<usize>,
    /// Argument positions written.
    pub arg_writes: BTreeSet<usize>,
    /// COMMON blocks read.
    pub common_reads: BTreeSet<String>,
    /// COMMON blocks written.
    pub common_writes: BTreeSet<String>,
    /// Convenience: any COMMON traffic at all.
    pub touches_commons: bool,
    /// The routine (transitively) calls something with no summary
    /// (unresolved EXTERNAL); treat as arbitrary side effects.
    pub opaque: bool,
}

/// Summaries for every unit of a program.
#[derive(Debug, Clone, Default)]
pub struct ProgramSummaries {
    map: BTreeMap<String, UnitSummary>,
}

impl ProgramSummaries {
    /// Summary for a unit by (lower-case) name.
    pub fn get(&self, unit: &str) -> Option<&UnitSummary> {
        self.map.get(unit)
    }
}

/// Compute summaries with a fixpoint over the call graph (handles
/// recursion by iterating to stability).
pub fn summarize(p: &Program) -> ProgramSummaries {
    let mut out = ProgramSummaries::default();
    for u in &p.units {
        out.map.insert(u.name.clone(), direct_summary(u));
    }
    // Fixpoint: propagate callee effects through call sites.
    loop {
        let mut changed = false;
        for u in &p.units {
            let mut acc = out.map[&u.name].clone();
            propagate_calls(u, &out, &mut acc);
            if acc != out.map[&u.name] {
                out.map.insert(u.name.clone(), acc);
                changed = true;
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Intraprocedural effects only (call sites handled by the fixpoint).
fn direct_summary(u: &Unit) -> UnitSummary {
    let mut s = UnitSummary::default();
    let classify = |sym: cedar_ir::SymbolId| -> Option<Iface> {
        match &u.symbol(sym).kind {
            SymKind::Arg(pos) => Some(Iface::Arg(*pos)),
            SymKind::Common { block, .. } => Some(Iface::Common(block.clone())),
            _ => None,
        }
    };
    walk_stmts(&u.body, &mut |st: &Stmt| {
        // Reads: every expression operand.
        walk_stmt_exprs(st, false, &mut |e: &Expr| match e {
            Expr::Scalar(x) | Expr::Elem { arr: x, .. } | Expr::Section { arr: x, .. } => {
                match classify(*x) {
                    Some(Iface::Arg(p)) => {
                        s.arg_reads.insert(p);
                    }
                    Some(Iface::Common(b)) => {
                        s.common_reads.insert(b);
                    }
                    None => {}
                }
            }
            _ => {}
        });
        // Writes: assignment targets.
        if let Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } = st {
            record_write(lhs, &classify, &mut s);
        }
    });
    s.touches_commons = !s.common_reads.is_empty() || !s.common_writes.is_empty();
    s
}

enum Iface {
    Arg(usize),
    Common(String),
}

fn record_write(
    lhs: &LValue,
    classify: &impl Fn(cedar_ir::SymbolId) -> Option<Iface>,
    s: &mut UnitSummary,
) {
    match classify(lhs.base()) {
        Some(Iface::Arg(p)) => {
            s.arg_writes.insert(p);
        }
        Some(Iface::Common(b)) => {
            s.common_writes.insert(b);
        }
        None => {}
    }
}

/// Fold callee summaries into `acc` at each call site of `u`.
fn propagate_calls(u: &Unit, sums: &ProgramSummaries, acc: &mut UnitSummary) {
    let classify = |sym: cedar_ir::SymbolId| -> Option<Iface> {
        match &u.symbol(sym).kind {
            SymKind::Arg(pos) => Some(Iface::Arg(*pos)),
            SymKind::Common { block, .. } => Some(Iface::Common(block.clone())),
            _ => None,
        }
    };
    let handle_call = |callee: &str, args: &[Expr], acc: &mut UnitSummary| {
        if cedar_ir::is_timer_call(callee) {
            return;
        }
        let Some(cs) = sums.get(callee) else {
            acc.opaque = true;
            // Unknown callee: anything passed may be read and written.
            for a in args {
                if let Expr::Scalar(x) | Expr::Elem { arr: x, .. } | Expr::Section { arr: x, .. } =
                    a
                {
                    match classify(*x) {
                        Some(Iface::Arg(p)) => {
                            acc.arg_reads.insert(p);
                            acc.arg_writes.insert(p);
                        }
                        Some(Iface::Common(b)) => {
                            acc.common_reads.insert(b.clone());
                            acc.common_writes.insert(b);
                        }
                        None => {}
                    }
                }
            }
            return;
        };
        let cs = cs.clone();
        if cs.opaque {
            acc.opaque = true;
        }
        acc.common_reads.extend(cs.common_reads.iter().cloned());
        acc.common_writes.extend(cs.common_writes.iter().cloned());
        for (pos, a) in args.iter().enumerate() {
            // An actual that is itself interface data inherits the
            // callee's effect on that position.
            if let Expr::Scalar(x) | Expr::Elem { arr: x, .. } | Expr::Section { arr: x, .. } = a {
                match classify(*x) {
                    Some(Iface::Arg(p)) => {
                        if cs.arg_reads.contains(&pos) {
                            acc.arg_reads.insert(p);
                        }
                        if cs.arg_writes.contains(&pos) {
                            acc.arg_writes.insert(p);
                        }
                    }
                    Some(Iface::Common(b)) => {
                        if cs.arg_reads.contains(&pos) {
                            acc.common_reads.insert(b.clone());
                        }
                        if cs.arg_writes.contains(&pos) {
                            acc.common_writes.insert(b);
                        }
                    }
                    None => {}
                }
            }
        }
    };
    walk_stmts(&u.body, &mut |st: &Stmt| {
        if let Stmt::Call { callee, args, .. } | Stmt::TaskStart { callee, args, .. } = st {
            handle_call(callee, args, acc);
        }
        walk_stmt_exprs(st, false, &mut |e: &Expr| {
            walk_expr(e, &mut |x| {
                if let Expr::Call { unit: callee, args } = x {
                    handle_call(callee, args, acc);
                }
            });
        });
    });
    acc.touches_commons = !acc.common_reads.is_empty() || !acc.common_writes.is_empty();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    #[test]
    fn direct_arg_use_def() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\na(i) = b(i)\nend do\nend\n",
        )
        .unwrap();
        let s = summarize(&p);
        let sm = s.get("s").unwrap();
        assert!(sm.arg_writes.contains(&0));
        assert!(sm.arg_reads.contains(&1));
        assert!(!sm.arg_writes.contains(&1));
        assert!(!sm.opaque);
    }

    #[test]
    fn transitive_propagation_through_calls() {
        let p = compile_free(
            "subroutine top(x, y, n)\nreal x(n), y(n)\ncall leaf(y, x, n)\nend\n\
             subroutine leaf(p, q, n)\nreal p(n), q(n)\ndo i = 1, n\np(i) = q(i)\nend do\nend\n",
        )
        .unwrap();
        let s = summarize(&p);
        let sm = s.get("top").unwrap();
        // leaf writes arg0 (=y of top, position 1), reads arg1 (=x, pos 0)
        assert!(sm.arg_writes.contains(&1));
        assert!(sm.arg_reads.contains(&0));
        assert!(!sm.arg_writes.contains(&0));
    }

    #[test]
    fn common_effects_propagate() {
        let p = compile_free(
            "subroutine top\ncall leaf\nend\n\
             subroutine leaf\ncommon /blk/ w(10)\nw(1) = 2.0\nend\n",
        )
        .unwrap();
        let s = summarize(&p);
        assert!(s.get("top").unwrap().common_writes.contains("blk"));
    }

    #[test]
    fn pure_function_detected() {
        let p = compile_free("real function f(x)\nf = x * 2.0\nend\n").unwrap();
        let sm = summarize(&p).get("f").unwrap().clone();
        assert!(sm.arg_writes.is_empty() && sm.common_writes.is_empty() && !sm.opaque);
    }

    #[test]
    fn unknown_external_is_opaque() {
        let p = compile_free(
            "subroutine s(a, n)\nreal a(n)\nexternal mystery\ncall mystery(a, n)\nend\n",
        )
        .unwrap();
        let s = summarize(&p);
        let sm = s.get("s").unwrap();
        assert!(sm.opaque);
        assert!(sm.arg_writes.contains(&0));
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let p = compile_free(
            "subroutine a(x)\ncall b(x)\nend\nsubroutine b(y)\ny = y + 1.0\ncall a(y)\nend\n",
        )
        .unwrap();
        let s = summarize(&p);
        assert!(s.get("a").unwrap().arg_writes.contains(&0));
        assert!(s.get("b").unwrap().arg_writes.contains(&0));
    }
}
