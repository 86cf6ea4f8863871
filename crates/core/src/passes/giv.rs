//! Generalized induction-variable substitution (§4.1.4).

use cedar_analysis::induction::{Giv, GivKind, UpdateSite};
use cedar_ir::visit::map_stmt_exprs;
use cedar_ir::{BinOp, Expr, LValue, Loop, Placement, Stmt, SymKind, SymbolId, Unit};

/// Apply one GIV substitution: returns (pre, post) statements or `None`
/// if the shape is unsupported (non-unit outer step etc.).
pub fn apply_giv(unit: &mut Unit, l: &mut Loop, g: &Giv) -> Option<(Vec<Stmt>, Vec<Stmt>)> {
    if l.step.as_ref().is_some_and(|e| e.as_const_int() != Some(1)) {
        return None;
    }
    let ty = unit.symbol(g.var).ty;
    let v0_name = unit.fresh_name(&format!("{}$0", unit.symbol(g.var).name));
    let v0 = unit.add_symbol(cedar_ir::Symbol {
        name: v0_name,
        ty,
        dims: Vec::new(),
        kind: SymKind::Local,
        placement: Placement::Default,
        init: Vec::new(),
        span: l.span,
    });
    let pre =
        vec![Stmt::Assign { lhs: LValue::Scalar(v0), rhs: Expr::Scalar(g.var), span: l.span }];

    // Outer normalized index k = i - start.
    let k = Expr::sub(Expr::Scalar(l.var), l.start.clone());
    let k1 = Expr::add(k.clone(), Expr::ConstI(1));

    match (&g.kind, g.site) {
        (GivKind::Additive { .. } | GivKind::Geometric { .. }, UpdateSite::TopLevel(pos)) => {
            let cf_before = g.closed_form_at(Expr::Scalar(v0), k.clone());
            let cf_after = g.closed_form_at(Expr::Scalar(v0), k1);
            for (idx, s) in l.body.iter_mut().enumerate() {
                if idx == pos {
                    continue;
                }
                let cf = if idx < pos { &cf_before } else { &cf_after };
                subst_in_stmt(s, g.var, cf);
            }
            l.body.remove(pos);
            // Final value after the loop: closed form at k = trip.
            let trip = Expr::add(Expr::sub(l.end.clone(), l.start.clone()), Expr::ConstI(1));
            let post = vec![Stmt::Assign {
                lhs: LValue::Scalar(g.var),
                rhs: g.closed_form_at(Expr::Scalar(v0), trip),
                span: l.span,
            }];
            Some((pre, post))
        }
        (GivKind::Triangular { inner_var, step, a, b }, UpdateSite::InnerLoop(pos)) => {
            let inner_var = *inner_var;
            let (a, b) = (*a, *b);
            let step = step.clone();
            let outer_start = l.start.clone();
            // The recognizer expresses the inner trip count in terms of
            // the outer loop *variable*: trip(i) = a·i + b. In terms of
            // the 0-based index t (i = start + t) that is
            // a·t + (b + a·start), so the count accumulated before
            // iteration k is S(k) = a·k·(k−1)/2 + (b + a·start)·k.
            let sum_at = move |k: Expr| -> Expr {
                let k2 = Expr::bin(
                    BinOp::Div,
                    Expr::mul(k.clone(), Expr::sub(k.clone(), Expr::ConstI(1))),
                    Expr::ConstI(2),
                );
                let b_corr =
                    Expr::add(Expr::ConstI(b), Expr::mul(Expr::ConstI(a), outer_start.clone()));
                Expr::add(Expr::mul(Expr::ConstI(a), k2), Expr::mul(b_corr, k))
            };
            let step_for_value = step.clone();
            let value_at = move |k: Expr| -> Expr {
                Expr::add(Expr::Scalar(v0), Expr::mul(step_for_value.clone(), sum_at(k)))
            };
            // Value before/after the inner loop of iteration k.
            let cf_outer_before = value_at(k.clone());
            let cf_outer_after = value_at(k1.clone());
            // Within the inner loop (index j, start s0): m updates have
            // happened after the update statement at inner iteration j:
            // m = j - s0 + 1; before it: m = j - s0.
            let Stmt::Loop(inner) = &mut l.body[pos] else { return None };
            if inner.step.as_ref().is_some_and(|e| e.as_const_int() != Some(1)) {
                return None;
            }
            if inner.var != inner_var {
                return None;
            }
            let m_before = Expr::sub(Expr::Scalar(inner_var), inner.start.clone());
            let m_after = Expr::add(m_before.clone(), Expr::ConstI(1));
            let step_expr = match &g.kind {
                GivKind::Triangular { step, .. } => step.clone(),
                _ => unreachable!(),
            };
            let upos = inner.body.iter().position(
                |s| matches!(s, Stmt::Assign { lhs: LValue::Scalar(v), .. } if *v == g.var),
            )?;
            let cf_in = |m: &Expr| {
                Expr::add(cf_outer_before.clone(), Expr::mul(step_expr.clone(), m.clone()))
            };
            for (idx, s) in inner.body.iter_mut().enumerate() {
                if idx == upos {
                    continue;
                }
                let cf = if idx < upos { cf_in(&m_before) } else { cf_in(&m_after) };
                subst_in_stmt(s, g.var, &cf);
            }
            inner.body.remove(upos);
            // Outer-body statements around the inner loop.
            for (idx, s) in l.body.iter_mut().enumerate() {
                if idx == pos {
                    continue;
                }
                let cf = if idx < pos { &cf_outer_before } else { &cf_outer_after };
                subst_in_stmt(s, g.var, cf);
            }
            let trip = Expr::add(Expr::sub(l.end.clone(), l.start.clone()), Expr::ConstI(1));
            let post = vec![Stmt::Assign {
                lhs: LValue::Scalar(g.var),
                rhs: value_at(trip),
                span: l.span,
            }];
            Some((pre, post))
        }
        _ => None,
    }
}

fn subst_in_stmt(s: &mut Stmt, var: SymbolId, replacement: &Expr) {
    map_stmt_exprs(s, &mut |e| match &e {
        Expr::Scalar(v) if *v == var => replacement.clone(),
        _ => e,
    });
    // Nested statements are covered by map_stmt_exprs' recursion; LHS
    // bases can never be the substituted scalar (a GIV has exactly one
    // defining statement, which the caller removes).
}
