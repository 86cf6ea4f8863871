//! Run-time dependence test synthesis (§4.1.5).
//!
//! OCEAN's hot loops index singly-dimensioned arrays with expressions
//! like `a(i0 + (j - 1) * m + i)` where `m` is a variable: statically the
//! subscript is nonlinear (symbol × index), so traditional tests assume
//! dependence. Hoeflinger's run-time test observes that such a subscript
//! is a *linearized multi-dimensional array* access — distinct `j` touch
//! disjoint element blocks — **iff** the inner extent fits inside the
//! stride. That condition can't be known until run time, so the
//! restructurer emits a two-version loop:
//!
//! ```fortran
//!       IF (m .GE. ninner) THEN
//!         <parallel version>
//!       ELSE
//!         <serial version>
//!       END IF
//! ```
//!
//! This module recognizes the subscript shape and produces the guard
//! expression.

use crate::affine::extract;
use cedar_ir::{BinOp, Expr, Intrinsic, Loop, Stmt, SymbolId};

/// A recognized linearized-array access pattern in a tested loop.
#[derive(Debug, Clone)]
pub struct LinearizedPattern {
    /// The array being indexed.
    pub arr: SymbolId,
    /// The symbolic stride multiplying the tested loop's index.
    pub stride: Expr,
    /// Extent of the inner part: max value of `subscript - stride·f(i)`
    /// minus its min, plus 1 — i.e. the guard is `stride >= extent`.
    pub inner_extent: Expr,
}

impl LinearizedPattern {
    /// The run-time guard under which the loop is parallel.
    pub fn guard(&self) -> Expr {
        Expr::bin(BinOp::Ge, self.stride.clone(), self.inner_extent.clone())
    }
}

/// Scan the subscripts of every access to 1-D arrays in `l`'s body for
/// the shape `inv0 + stride·(i - c) + g(inner)` where `stride` is a
/// loop-invariant *scalar variable* (not a constant — constants are
/// handled statically), `i` is the tested loop variable, and `g` is
/// affine in the inner loop variables with constant coefficients.
///
/// With `targets`, only accesses of those arrays are scanned (read-only
/// arrays outside the set cannot carry the dependence and are ignored).
///
/// Returns one pattern per array (the widest inner extent seen), or
/// `None` for arrays accessed any other way — callers then keep the
/// loop serial.
pub fn find_linearized_for(
    unit: &cedar_ir::Unit,
    l: &Loop,
    invariant: &dyn Fn(SymbolId) -> bool,
    targets: Option<&std::collections::BTreeSet<SymbolId>>,
) -> Option<LinearizedPattern> {
    let mut inner_vars: Vec<(SymbolId, Expr)> = Vec::new(); // (var, trip expr)
    cedar_ir::visit::walk_stmts(&l.body, &mut |s: &Stmt| {
        if let Stmt::Loop(inner) = s {
            let trip =
                Expr::add(Expr::sub(inner.end.clone(), inner.start.clone()), Expr::ConstI(1));
            inner_vars.push((inner.var, trip));
        }
    });

    let mut pattern: Option<LinearizedPattern> = None;
    let mut ok = true;
    let mut visit_sub = |arr: SymbolId, sub: &Expr| {
        if !ok {
            return;
        }
        if targets.is_some_and(|t| !t.contains(&arr)) {
            return;
        }
        match match_linearized(unit, sub, l.var, &inner_vars, invariant) {
            Some((stride, extent)) => match &mut pattern {
                None => pattern = Some(LinearizedPattern { arr, stride, inner_extent: extent }),
                Some(p) => {
                    if p.arr != arr || p.stride != stride {
                        ok = false; // mixed arrays/strides: give up
                    } else if extent_bigger(&extent, &p.inner_extent) {
                        p.inner_extent = extent;
                    }
                }
            },
            None => ok = false,
        }
    };

    let mut any = false;
    cedar_ir::visit::walk_stmts(&l.body, &mut |s: &Stmt| {
        cedar_ir::visit::walk_stmt_exprs(s, false, &mut |e: &Expr| {
            cedar_ir::visit::walk_expr(e, &mut |x| {
                if let Expr::Elem { arr, idx } = x {
                    if idx.len() == 1 {
                        any = true;
                        visit_sub(*arr, &idx[0]);
                    }
                }
            });
        });
        if let Stmt::Assign { lhs: cedar_ir::LValue::Elem { arr, idx }, .. } = s {
            if idx.len() == 1 {
                any = true;
                visit_sub(*arr, &idx[0]);
            }
        }
    });
    if ok && any {
        pattern
    } else {
        None
    }
}

/// Prefer the syntactically larger extent (best effort: compare constant
/// parts; unknown comparisons keep the existing one).
fn extent_bigger(a: &Expr, b: &Expr) -> bool {
    match (a.as_const_int(), b.as_const_int()) {
        (Some(x), Some(y)) => x > y,
        _ => false,
    }
}

/// Match one subscript. Returns `(stride_expr, inner_extent_expr)`.
fn match_linearized(
    _unit: &cedar_ir::Unit,
    sub: &Expr,
    outer: SymbolId,
    inner_vars: &[(SymbolId, Expr)],
    invariant: &dyn Fn(SymbolId) -> bool,
) -> Option<(Expr, Expr)> {
    // Decompose sub = Σ terms (over additions/subtractions).
    let mut terms: Vec<(Expr, bool)> = Vec::new(); // (term, negated)
    flatten_sum(sub, false, &mut terms);

    let mut stride: Option<Expr> = None;
    let ivars: Vec<SymbolId> = inner_vars.iter().map(|(v, _)| *v).collect();
    let mut inner_affine_terms: Vec<Expr> = Vec::new();

    for (t, neg) in &terms {
        // Term containing the outer variable must be stride * (outer ± c).
        if expr_uses(t, outer) {
            if *neg {
                return None;
            }
            let s = match_stride_times_outer(t, outer, invariant)?;
            match &stride {
                None => stride = Some(s),
                Some(existing) if *existing == s => {}
                _ => return None,
            }
        } else {
            // Must be affine over inner vars with constant coefficients
            // (plus invariant symbols).
            let inv = |x: SymbolId| invariant(x);
            extract(t, &ivars, &inv)?;
            inner_affine_terms.push(if *neg {
                Expr::Un(cedar_ir::UnOp::Neg, Box::new(t.clone()))
            } else {
                t.clone()
            });
        }
    }
    let stride = stride?;
    // The stride must be a (symbolic) variable-bearing expression —
    // constant strides are statically analyzable and shouldn't reach
    // here.
    if stride.as_const_int().is_some() {
        return None;
    }

    // Inner extent: for each inner var appearing (coefficient c), the
    // subscript varies by |c| * (trip - 1); plus 1. We build
    // `1 + Σ c_v * (trip_v - 1)` assuming positive unit-like coefficients
    // (the common linearized layout). Negative coefficients bail out.
    let mut extent = Expr::ConstI(1);
    for (v, trip) in inner_vars {
        let mut coeff_sum = 0i64;
        for t in &inner_affine_terms {
            let inv = |x: SymbolId| invariant(x);
            if let Some(a) = extract(t, &[*v], &inv) {
                coeff_sum += a.coeffs[0];
            }
        }
        if coeff_sum < 0 {
            return None;
        }
        if coeff_sum > 0 {
            extent = Expr::add(
                extent,
                Expr::mul(Expr::ConstI(coeff_sum), Expr::sub(trip.clone(), Expr::ConstI(1))),
            );
        }
    }
    Some((stride, extent))
}

fn flatten_sum(e: &Expr, neg: bool, out: &mut Vec<(Expr, bool)>) {
    match e {
        Expr::Bin(BinOp::Add, l, r) => {
            flatten_sum(l, neg, out);
            flatten_sum(r, neg, out);
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            flatten_sum(l, neg, out);
            flatten_sum(r, !neg, out);
        }
        other => out.push((other.clone(), neg)),
    }
}

fn expr_uses(e: &Expr, v: SymbolId) -> bool {
    let mut f = false;
    cedar_ir::visit::walk_expr(e, &mut |x| {
        if matches!(x, Expr::Scalar(s) if *s == v) {
            f = true;
        }
    });
    f
}

/// Match `stride * (outer ± c)` / `(outer ± c) * stride` where `stride`
/// is invariant and non-constant-bearing of the outer var.
fn match_stride_times_outer(
    t: &Expr,
    outer: SymbolId,
    invariant: &dyn Fn(SymbolId) -> bool,
) -> Option<Expr> {
    let Expr::Bin(BinOp::Mul, l, r) = t else { return None };
    let (stride, idx) = if expr_uses(l, outer) { (&**r, &**l) } else { (&**l, &**r) };
    if expr_uses(stride, outer) {
        return None;
    }
    // stride must be invariant (all scalars pass `invariant`, no array
    // refs or calls).
    let mut inv_ok = true;
    cedar_ir::visit::walk_expr(stride, &mut |x| match x {
        Expr::Scalar(s) if !invariant(*s) => inv_ok = false,
        Expr::Elem { .. }
        | Expr::Section { .. }
        | Expr::Call { .. }
        | Expr::Intr { f: Intrinsic::Sum, .. } => inv_ok = false,
        _ => {}
    });
    if !inv_ok {
        return None;
    }
    // idx must be affine in outer with coefficient 1.
    let inv = |x: SymbolId| invariant(x);
    let a = extract(idx, &[outer], &inv)?;
    if a.coeffs[0] != 1 {
        return None;
    }
    Some(stride.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn pattern(src: &str) -> Option<LinearizedPattern> {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let refs = crate::refs::collect(u, &l, None);
        let written = refs.scalar_writes.clone();
        let inner = refs.inner_ivars.clone();
        let lv = l.var;
        let invariant = move |s| s != lv && !written.contains(&s) && !inner.contains(&s);
        find_linearized_for(u, &l, &invariant, None)
    }

    #[test]
    fn ocean_style_pattern_recognized() {
        let p = pattern(
            "subroutine s(a, n, m)\nreal a(*)\ndo j = 1, n\ndo i = 1, m\n\
             a((j - 1) * mstr + i) = 0.0\nend do\nend do\nend\n",
        );
        let p = p.expect("pattern not recognized");
        // guard: mstr >= 1 + (m - 1)
        let g = p.guard();
        assert!(matches!(g, Expr::Bin(BinOp::Ge, _, _)));
    }

    #[test]
    fn constant_stride_not_a_runtime_case() {
        let p = pattern(
            "subroutine s(a, n, m)\nreal a(*)\ndo j = 1, n\ndo i = 1, m\n\
             a((j - 1) * 100 + i) = 0.0\nend do\nend do\nend\n",
        );
        assert!(p.is_none());
    }

    #[test]
    fn mixed_strides_rejected() {
        let p = pattern(
            "subroutine s(a, n, m)\nreal a(*)\ndo j = 1, n\ndo i = 1, m\n\
             a((j - 1) * m1 + i) = a((j - 1) * m2 + i)\nend do\nend do\nend\n",
        );
        assert!(p.is_none());
    }

    #[test]
    fn offset_terms_fold_into_extent() {
        let p = pattern(
            "subroutine s(a, n, m, k0)\nreal a(*)\ndo j = 1, n\ndo i = 1, m\n\
             a(k0 + (j - 1) * mstr + 2 * i) = 0.0\nend do\nend do\nend\n",
        );
        let p = p.expect("pattern");
        // extent = 1 + 2*(m-1)
        assert!(matches!(p.inner_extent, Expr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn nonlinear_inner_rejected() {
        let p = pattern(
            "subroutine s(a, idx, n, m)\nreal a(*)\ninteger idx(m)\ndo j = 1, n\n\
             do i = 1, m\na((j - 1) * mstr + idx(i)) = 0.0\nend do\nend do\nend\n",
        );
        assert!(p.is_none());
    }
}
