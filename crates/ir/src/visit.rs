//! Expression and statement walkers used by every analysis and
//! transformation pass.

use crate::expr::{Expr, Index};
use crate::stmt::{LValue, Stmt, SyncOp};
use crate::symbol::SymbolId;

/// Visit `e` and every sub-expression, outermost first.
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Un(_, inner) => walk_expr(inner, f),
        Expr::Bin(_, l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        Expr::Elem { idx, .. } => {
            for i in idx {
                walk_expr(i, f);
            }
        }
        Expr::Section { idx, .. } => {
            for i in idx {
                walk_index(i, f);
            }
        }
        Expr::Intr { args, .. } | Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        _ => {}
    }
}

fn walk_index(i: &Index, f: &mut impl FnMut(&Expr)) {
    match i {
        Index::At(e) => walk_expr(e, f),
        Index::Range { lo, hi, step } => {
            for e in [lo, hi, step].into_iter().flatten() {
                walk_expr(e, f);
            }
        }
    }
}

/// Rewrite an expression bottom-up: children first, then the node itself
/// is passed to `f`, whose return value replaces it.
pub fn map_expr(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(map_expr(inner, f))),
        Expr::Bin(op, l, r) => Expr::Bin(*op, Box::new(map_expr(l, f)), Box::new(map_expr(r, f))),
        Expr::Elem { arr, idx } => {
            Expr::Elem { arr: *arr, idx: idx.iter().map(|i| map_expr(i, f)).collect() }
        }
        Expr::Section { arr, idx } => {
            Expr::Section { arr: *arr, idx: idx.iter().map(|i| map_index(i, f)).collect() }
        }
        Expr::Intr { f: intr, args, par } => {
            Expr::Intr { f: *intr, args: args.iter().map(|a| map_expr(a, f)).collect(), par: *par }
        }
        Expr::Call { unit, args } => {
            Expr::Call { unit: unit.clone(), args: args.iter().map(|a| map_expr(a, f)).collect() }
        }
        other => other.clone(),
    };
    f(rebuilt)
}

fn map_index(i: &Index, f: &mut impl FnMut(Expr) -> Expr) -> Index {
    match i {
        Index::At(e) => Index::At(map_expr(e, f)),
        Index::Range { lo, hi, step } => Index::Range {
            lo: lo.as_ref().map(|e| map_expr(e, f)),
            hi: hi.as_ref().map(|e| map_expr(e, f)),
            step: step.as_ref().map(|e| map_expr(e, f)),
        },
    }
}

/// Apply `f` to every expression occurring in a statement (conditions,
/// bounds, subscripts, RHS, call arguments), without descending into
/// nested statement bodies unless `recurse` is set.
pub fn walk_stmt_exprs(s: &Stmt, recurse: bool, f: &mut impl FnMut(&Expr)) {
    fn walk_lv<F: FnMut(&Expr)>(l: &LValue, f: &mut F) {
        match l {
            LValue::Scalar(_) => {}
            LValue::Elem { idx, .. } => {
                for e in idx {
                    walk_expr(e, f);
                }
            }
            LValue::Section { idx, .. } => {
                for i in idx {
                    walk_index(i, f);
                }
            }
        }
    }
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            walk_lv(lhs, f);
            walk_expr(rhs, f);
        }
        Stmt::WhereAssign { mask, lhs, rhs, .. } => {
            walk_expr(mask, f);
            walk_lv(lhs, f);
            walk_expr(rhs, f);
        }
        Stmt::If { cond, then_body, elifs, else_body, .. } => {
            walk_expr(cond, f);
            if recurse {
                for st in then_body.iter().chain(else_body) {
                    walk_stmt_exprs(st, recurse, f);
                }
                for (c, b) in elifs {
                    walk_expr(c, f);
                    for st in b {
                        walk_stmt_exprs(st, recurse, f);
                    }
                }
            } else {
                for (c, _) in elifs {
                    walk_expr(c, f);
                }
            }
        }
        Stmt::Loop(l) => {
            walk_expr(&l.start, f);
            walk_expr(&l.end, f);
            if let Some(st) = &l.step {
                walk_expr(st, f);
            }
            if recurse {
                for st in l.preamble.iter().chain(&l.body).chain(&l.postamble) {
                    walk_stmt_exprs(st, recurse, f);
                }
            }
        }
        Stmt::DoWhile { cond, body, .. } => {
            walk_expr(cond, f);
            if recurse {
                for st in body {
                    walk_stmt_exprs(st, recurse, f);
                }
            }
        }
        Stmt::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Stmt::Sync(SyncOp::Await { dist, .. }) => walk_expr(dist, f),
        _ => {}
    }
}

/// Visit every statement in a body, depth-first, parents before
/// children.
pub fn walk_stmts<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match s {
            Stmt::If { then_body, elifs, else_body, .. } => {
                walk_stmts(then_body, f);
                for (_, b) in elifs {
                    walk_stmts(b, f);
                }
                walk_stmts(else_body, f);
            }
            Stmt::Loop(l) => {
                walk_stmts(&l.preamble, f);
                walk_stmts(&l.body, f);
                walk_stmts(&l.postamble, f);
            }
            Stmt::DoWhile { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

/// Mutable depth-first statement visitor (parents before children).
pub fn walk_stmts_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in body.iter_mut() {
        f(s);
        match s {
            Stmt::If { then_body, elifs, else_body, .. } => {
                walk_stmts_mut(then_body, f);
                for (_, b) in elifs {
                    walk_stmts_mut(b, f);
                }
                walk_stmts_mut(else_body, f);
            }
            Stmt::Loop(l) => {
                walk_stmts_mut(&mut l.preamble, f);
                walk_stmts_mut(&mut l.body, f);
                walk_stmts_mut(&mut l.postamble, f);
            }
            Stmt::DoWhile { body, .. } => walk_stmts_mut(body, f),
            _ => {}
        }
    }
}

/// Rewrite every expression in `s` in place with `f` (bottom-up),
/// including nested statement bodies.
pub fn map_stmt_exprs(s: &mut Stmt, f: &mut impl FnMut(Expr) -> Expr) {
    fn map_lv<F: FnMut(Expr) -> Expr>(l: &mut LValue, f: &mut F) {
        match l {
            LValue::Scalar(_) => {}
            LValue::Elem { idx, .. } => {
                for e in idx.iter_mut() {
                    *e = map_expr(e, f);
                }
            }
            LValue::Section { idx, .. } => {
                for i in idx.iter_mut() {
                    *i = map_index(i, f);
                }
            }
        }
    }
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            map_lv(lhs, f);
            *rhs = map_expr(rhs, f);
        }
        Stmt::WhereAssign { mask, lhs, rhs, .. } => {
            *mask = map_expr(mask, f);
            map_lv(lhs, f);
            *rhs = map_expr(rhs, f);
        }
        Stmt::If { cond, then_body, elifs, else_body, .. } => {
            *cond = map_expr(cond, f);
            for st in then_body.iter_mut().chain(else_body.iter_mut()) {
                map_stmt_exprs(st, f);
            }
            for (c, b) in elifs.iter_mut() {
                *c = map_expr(c, f);
                for st in b {
                    map_stmt_exprs(st, f);
                }
            }
        }
        Stmt::Loop(l) => {
            l.start = map_expr(&l.start, f);
            l.end = map_expr(&l.end, f);
            if let Some(st) = &mut l.step {
                *st = map_expr(st, f);
            }
            for st in l.preamble.iter_mut().chain(l.body.iter_mut()).chain(l.postamble.iter_mut()) {
                map_stmt_exprs(st, f);
            }
        }
        Stmt::DoWhile { cond, body, .. } => {
            *cond = map_expr(cond, f);
            for st in body {
                map_stmt_exprs(st, f);
            }
        }
        Stmt::Call { args, .. } => {
            for a in args {
                *a = map_expr(a, f);
            }
        }
        Stmt::Sync(SyncOp::Await { dist, .. }) => *dist = map_expr(dist, f),
        _ => {}
    }
}

/// `e` with every symbol it reads (scalar, element or section base)
/// passed through `f`.
pub fn rename_expr(e: &Expr, f: &mut impl FnMut(SymbolId) -> SymbolId) -> Expr {
    map_expr(e, &mut |x| renamed(x, f))
}

fn renamed(e: Expr, f: &mut impl FnMut(SymbolId) -> SymbolId) -> Expr {
    match e {
        Expr::Scalar(s) => Expr::Scalar(f(s)),
        Expr::Elem { arr, idx } => Expr::Elem { arr: f(arr), idx },
        Expr::Section { arr, idx } => Expr::Section { arr: f(arr), idx },
        other => other,
    }
}

/// Pass every symbol that the statements of `body` (nested bodies
/// included) read or assign through `f`: each expression and each
/// assignment target is rewritten once. Loop heads (`var`, `locals`)
/// are left alone.
pub fn rename_symbols(body: &mut [Stmt], f: &mut impl FnMut(SymbolId) -> SymbolId) {
    for s in body.iter_mut() {
        map_stmt_exprs(s, &mut |e| renamed(e, f));
    }
    walk_stmts_mut(body, &mut |s| {
        if let Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } = s {
            let (LValue::Scalar(v) | LValue::Elem { arr: v, .. } | LValue::Section { arr: v, .. }) =
                lhs;
            *v = f(*v);
        }
    });
}

/// Substitute scalar reads of `var` by `replacement` throughout an
/// expression (the workhorse of stripmining and GIV rewriting).
pub fn substitute_scalar(e: &Expr, var: SymbolId, replacement: &Expr) -> Expr {
    map_expr(e, &mut |x| match x {
        Expr::Scalar(s) if s == var => replacement.clone(),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn map_expr_rewrites_bottom_up() {
        // (s0 + 1) with s0 -> 5 then folded by the helper
        let e = Expr::bin(BinOp::Add, Expr::Scalar(SymbolId(0)), Expr::ConstI(1));
        let out = substitute_scalar(&e, SymbolId(0), &Expr::ConstI(5));
        assert_eq!(out, Expr::bin(BinOp::Add, Expr::ConstI(5), Expr::ConstI(1)));
    }

    #[test]
    fn walk_expr_sees_subscripts() {
        let e = Expr::Elem { arr: SymbolId(1), idx: vec![Expr::Scalar(SymbolId(2))] };
        let mut seen = Vec::new();
        walk_expr(&e, &mut |x| {
            if let Expr::Scalar(s) = x {
                seen.push(*s);
            }
        });
        assert_eq!(seen, vec![SymbolId(2)]);
    }

    #[test]
    fn walk_stmts_depth_first() {
        let inner = Stmt::Return;
        let l =
            crate::stmt::Loop::new_seq(SymbolId(0), Expr::ConstI(1), Expr::ConstI(2), vec![inner]);
        let body = vec![Stmt::Loop(l), Stmt::Stop];
        let mut kinds = Vec::new();
        walk_stmts(&body, &mut |s| {
            kinds.push(std::mem::discriminant(s));
        });
        assert_eq!(kinds.len(), 3);
    }
}
