//! Stripmining, vectorization, scalar expansion, and IF→WHERE
//! conversion (§3.2).
//!
//! The canonical transformation is the paper's own example:
//!
//! ```fortran
//!       DO i = 1, n            GLOBAL a, b, strip, n
//!         t = b(i)        →    XDOALL i = 1, n, 32
//!         a(i) = sqrt(t)          INTEGER upper, i3
//!       END DO                    REAL t(32)
//!                                 i3 = MIN(32, n - i + 1)
//!                                 upper = i + i3 - 1
//!                                 t(1:i3) = b(i:upper)
//!                                 a(i:upper) = sqrt(t(1:i3))
//!                               END XDOALL
//! ```

use cedar_analysis::affine::extract;
use cedar_ir::visit::substitute_scalar;
use cedar_ir::{
    Expr, Index, Intrinsic, LValue, Loop, LoopClass, ParMode, Placement, Stmt, SymbolId, Ty, Unit,
};
use std::collections::BTreeSet;

/// Can the direct body of `l` be rewritten into vector statements over
/// `l.var`? `private_scalars` are expansion candidates (their
/// assignments become vector temporaries).
pub fn body_vectorizable(unit: &Unit, l: &Loop, private_scalars: &[SymbolId]) -> bool {
    if l.step.as_ref().is_some_and(|e| e.as_const_int() != Some(1)) {
        return false;
    }
    let privates: BTreeSet<SymbolId> = private_scalars.iter().copied().collect();
    l.body.iter().all(|s| stmt_vectorizable(unit, s, l.var, &privates))
}

fn stmt_vectorizable(unit: &Unit, s: &Stmt, ivar: SymbolId, privates: &BTreeSet<SymbolId>) -> bool {
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            lvalue_vectorizable(unit, lhs, ivar, privates)
                && expr_vectorizable(unit, rhs, ivar, privates)
        }
        // Logical IF with a single assignment → WHERE.
        Stmt::If { cond, then_body, elifs, else_body, .. }
            if elifs.is_empty() && else_body.is_empty() && then_body.len() == 1 =>
        {
            expr_vectorizable(unit, cond, ivar, privates)
                && expr_uses_var(cond, ivar)
                && stmt_vectorizable(unit, &then_body[0], ivar, privates)
        }
        _ => false,
    }
}

fn lvalue_vectorizable(
    unit: &Unit,
    lhs: &LValue,
    ivar: SymbolId,
    privates: &BTreeSet<SymbolId>,
) -> bool {
    match lhs {
        LValue::Scalar(s) => privates.contains(s),
        LValue::Elem { idx, .. } => {
            // Exactly one unit-stride dimension: `a(i, i)`-style diagonal
            // accesses have no section form, and scatter stores
            // (vector-valued subscripts) are not generated.
            vector_dims(unit, idx, ivar, privates, false) == Some(1)
        }
        LValue::Section { .. } => false, // already vector
    }
}

/// Number of subscript dimensions that depend on `ivar` (unit-stride
/// ranges, plus hardware *gathers* when `allow_gather`); `None` if any
/// dimension has an unsupported shape.
fn vector_dims(
    unit: &Unit,
    idx: &[Expr],
    ivar: SymbolId,
    privates: &BTreeSet<SymbolId>,
    allow_gather: bool,
) -> Option<usize> {
    let mut n = 0;
    for e in idx {
        match sub_class(unit, e, ivar, privates, allow_gather) {
            SubClass::UnitStride | SubClass::Gather => n += 1,
            SubClass::Invariant => {}
            SubClass::Bad => return None,
        }
    }
    Some(n)
}

fn expr_vectorizable(unit: &Unit, e: &Expr, ivar: SymbolId, privates: &BTreeSet<SymbolId>) -> bool {
    match e {
        Expr::ConstI(_) | Expr::ConstR { .. } | Expr::ConstB(_) => true,
        Expr::Scalar(_) => {
            // The loop variable as a value becomes an `iota` vector (the
            // Alliant vector-sequence instruction); other scalars
            // broadcast.
            true
        }
        Expr::Elem { idx, .. } => {
            matches!(vector_dims(unit, idx, ivar, privates, true), Some(0) | Some(1))
        }
        Expr::Section { .. } => false,
        Expr::Un(_, inner) => expr_vectorizable(unit, inner, ivar, privates),
        Expr::Bin(_, l, r) => {
            expr_vectorizable(unit, l, ivar, privates) && expr_vectorizable(unit, r, ivar, privates)
        }
        Expr::Intr { f, args, .. } => {
            !f.is_reduction() && args.iter().all(|a| expr_vectorizable(unit, a, ivar, privates))
        }
        Expr::Call { .. } => false,
    }
}

#[derive(PartialEq, Eq)]
enum SubClass {
    /// Affine in the loop var with coefficient 1 (contiguous section).
    UnitStride,
    /// Loop-invariant.
    Invariant,
    /// Vector-valued subscript handled by the hardware gather path
    /// (e.g. `x(col(k))` — the subscript expression itself vectorizes).
    Gather,
    Bad,
}

fn sub_class(
    unit: &Unit,
    e: &Expr,
    ivar: SymbolId,
    privates: &BTreeSet<SymbolId>,
    allow_gather: bool,
) -> SubClass {
    // Private scalars inside subscripts defeat sectioning.
    let mut uses_private = false;
    cedar_ir::visit::walk_expr(e, &mut |x| {
        if matches!(x, Expr::Scalar(s) if privates.contains(s)) {
            uses_private = true;
        }
    });
    if uses_private {
        return SubClass::Bad;
    }
    let inv = |_: SymbolId| true; // subscript symbols are loop-invariant here
    match extract(e, &[ivar], &inv) {
        Some(a) if a.coeffs[0] == 0 => SubClass::Invariant,
        Some(a) if a.coeffs[0] == 1 => SubClass::UnitStride,
        _ if allow_gather
            && expr_uses_var(e, ivar)
            && expr_vectorizable(unit, e, ivar, privates) =>
        {
            SubClass::Gather
        }
        _ => SubClass::Bad,
    }
}

fn expr_uses_var(e: &Expr, v: SymbolId) -> bool {
    let mut f = false;
    cedar_ir::visit::walk_expr(e, &mut |x| {
        if matches!(x, Expr::Scalar(s) if *s == v) {
            f = true;
        }
    });
    f
}

/// Build the stripmined parallel loop (class `class`) replacing `l`.
/// Adds the `i3`/`upper` locals and `t(strip)` expansion arrays to
/// `unit`; the caller is responsible for having verified
/// [`body_vectorizable`].
pub fn stripmine(
    unit: &mut Unit,
    l: &Loop,
    class: LoopClass,
    strip: usize,
    private_scalars: &[SymbolId],
) -> Stmt {
    let i3 = unit.add_scalar("i3", Ty::Int, Placement::Private);
    let upper = unit.add_scalar("upper", Ty::Int, Placement::Private);
    let mut locals = vec![i3, upper];

    // Scalar expansion: one strip-sized vector temp per private scalar.
    let mut expansion: Vec<(SymbolId, SymbolId)> = Vec::new();
    for &ps in private_scalars {
        let ty = unit.symbol(ps).ty;
        let name = format!("{}$v", unit.symbol(ps).name);
        let arr = unit.add_array1(&name, ty, Expr::ConstI(strip as i64), Placement::Private);
        expansion.push((ps, arr));
        locals.push(arr);
    }

    // i3 = min(strip, end - i + 1); upper = i + i3 - 1
    let header = vec![
        Stmt::Assign {
            lhs: LValue::Scalar(i3),
            rhs: Expr::Intr {
                f: Intrinsic::Min,
                args: vec![
                    Expr::ConstI(strip as i64),
                    Expr::add(Expr::sub(l.end.clone(), Expr::Scalar(l.var)), Expr::ConstI(1)),
                ],
                par: ParMode::Serial,
            },
            span: l.span,
        },
        Stmt::Assign {
            lhs: LValue::Scalar(upper),
            rhs: Expr::sub(Expr::add(Expr::Scalar(l.var), Expr::Scalar(i3)), Expr::ConstI(1)),
            span: l.span,
        },
    ];

    let mut body = header;
    for s in &l.body {
        body.push(vectorize_stmt(s, l.var, upper, i3, &expansion));
    }

    Stmt::Loop(Loop {
        class,
        var: l.var,
        start: l.start.clone(),
        end: l.end.clone(),
        step: Some(Expr::ConstI(strip as i64)),
        locals,
        preamble: Vec::new(),
        body,
        postamble: Vec::new(),
        span: l.span,
    })
}

/// Vectorize a whole loop into plain vector statements (used for the
/// innermost loop of an SDOALL/CDOALL nest, §3.2: "If there are only two
/// nested parallel loops, the innermost is also stripmined to generate
/// vector statements"). Requires no private scalars.
pub fn vectorize_whole(l: &Loop) -> Vec<Stmt> {
    // Each statement becomes a full-range vector statement: subscripts
    // e(i) → e(start) : e(end).
    l.body.iter().map(|s| vectorize_stmt_range(s, l.var, &l.start, &l.end)).collect()
}

/// Rewrite one statement into strip form: unit-stride subscripts `e(i)`
/// become `e(i) : e(upper)`; private scalars become `t$v(1:i3)`.
fn vectorize_stmt(
    s: &Stmt,
    ivar: SymbolId,
    upper: SymbolId,
    i3: SymbolId,
    expansion: &[(SymbolId, SymbolId)],
) -> Stmt {
    let lo_of = |e: &Expr| e.clone();
    let hi_of = |e: &Expr| substitute_scalar(e, ivar, &Expr::Scalar(upper));
    let strip_section = |arr: SymbolId| -> Expr {
        // t$v(1:i3)
        Expr::Section {
            arr,
            idx: vec![Index::Range {
                lo: Some(Expr::ConstI(1)),
                hi: Some(Expr::Scalar(i3)),
                step: None,
            }],
        }
    };
    rewrite_stmt(s, ivar, &lo_of, &hi_of, expansion, &strip_section)
}

fn vectorize_stmt_range(s: &Stmt, ivar: SymbolId, start: &Expr, end: &Expr) -> Stmt {
    let start = start.clone();
    let end = end.clone();
    let lo_of = move |e: &Expr| substitute_scalar(e, ivar, &start);
    let hi_of = move |e: &Expr| substitute_scalar(e, ivar, &end);
    rewrite_stmt(s, ivar, &lo_of, &hi_of, &[], &|_| unreachable!("no expansion"))
}

fn rewrite_stmt(
    s: &Stmt,
    ivar: SymbolId,
    lo_of: &dyn Fn(&Expr) -> Expr,
    hi_of: &dyn Fn(&Expr) -> Expr,
    expansion: &[(SymbolId, SymbolId)],
    strip_section: &dyn Fn(SymbolId) -> Expr,
) -> Stmt {
    match s {
        Stmt::Assign { lhs, rhs, span } => {
            let new_rhs = rewrite_expr(rhs, ivar, lo_of, hi_of, expansion, strip_section);
            let new_lhs = match lhs {
                LValue::Scalar(sv) => {
                    let arr = expansion
                        .iter()
                        .find(|(p, _)| p == sv)
                        .map(|(_, a)| *a)
                        .expect("expansion target verified by body_vectorizable");
                    match strip_section(arr) {
                        Expr::Section { arr, idx } => LValue::Section { arr, idx },
                        _ => unreachable!(),
                    }
                }
                LValue::Elem { arr, idx } => LValue::Section {
                    arr: *arr,
                    idx: idx
                        .iter()
                        .map(|e| section_index(e, ivar, lo_of, hi_of, expansion, strip_section))
                        .collect(),
                },
                LValue::Section { .. } => unreachable!("checked by body_vectorizable"),
            };
            Stmt::Assign { lhs: new_lhs, rhs: new_rhs, span: *span }
        }
        Stmt::If { cond, then_body, span, .. } => {
            // IF→WHERE (logical IF with one assignment).
            let mask = rewrite_expr(cond, ivar, lo_of, hi_of, expansion, strip_section);
            let inner = rewrite_stmt(&then_body[0], ivar, lo_of, hi_of, expansion, strip_section);
            match inner {
                Stmt::Assign { lhs, rhs, .. } => Stmt::WhereAssign { mask, lhs, rhs, span: *span },
                _ => unreachable!("checked by body_vectorizable"),
            }
        }
        other => other.clone(),
    }
}

fn section_index(
    e: &Expr,
    ivar: SymbolId,
    lo_of: &dyn Fn(&Expr) -> Expr,
    hi_of: &dyn Fn(&Expr) -> Expr,
    expansion: &[(SymbolId, SymbolId)],
    strip_section: &dyn Fn(SymbolId) -> Expr,
) -> Index {
    if !expr_uses_var(e, ivar) {
        return Index::At(e.clone());
    }
    let inv = |_: SymbolId| true;
    match extract(e, &[ivar], &inv) {
        Some(a) if a.coeffs[0] == 1 => {
            Index::Range { lo: Some(lo_of(e)), hi: Some(hi_of(e)), step: None }
        }
        // Vector-valued subscript: hardware gather through the
        // vectorized index expression.
        _ => Index::At(rewrite_expr(e, ivar, lo_of, hi_of, expansion, strip_section)),
    }
}

fn rewrite_expr(
    e: &Expr,
    ivar: SymbolId,
    lo_of: &dyn Fn(&Expr) -> Expr,
    hi_of: &dyn Fn(&Expr) -> Expr,
    expansion: &[(SymbolId, SymbolId)],
    strip_section: &dyn Fn(SymbolId) -> Expr,
) -> Expr {
    match e {
        Expr::Scalar(s) => {
            if let Some((_, arr)) = expansion.iter().find(|(p, _)| p == s) {
                strip_section(*arr)
            } else if *s == ivar {
                // The index value itself: iota(lo, hi).
                Expr::Intr {
                    f: Intrinsic::Iota,
                    args: vec![lo_of(e), hi_of(e)],
                    par: cedar_ir::ParMode::Vector,
                }
            } else {
                e.clone()
            }
        }
        Expr::Elem { arr, idx } => {
            if idx.iter().any(|x| expr_uses_var(x, ivar)) {
                Expr::Section {
                    arr: *arr,
                    idx: idx
                        .iter()
                        .map(|x| section_index(x, ivar, lo_of, hi_of, expansion, strip_section))
                        .collect(),
                }
            } else {
                e.clone()
            }
        }
        Expr::Un(op, inner) => Expr::Un(
            *op,
            Box::new(rewrite_expr(inner, ivar, lo_of, hi_of, expansion, strip_section)),
        ),
        Expr::Bin(op, l, r) => Expr::Bin(
            *op,
            Box::new(rewrite_expr(l, ivar, lo_of, hi_of, expansion, strip_section)),
            Box::new(rewrite_expr(r, ivar, lo_of, hi_of, expansion, strip_section)),
        ),
        Expr::Intr { f, args, par } => Expr::Intr {
            f: *f,
            args: args
                .iter()
                .map(|a| rewrite_expr(a, ivar, lo_of, hi_of, expansion, strip_section))
                .collect(),
            par: *par,
        },
        other => other.clone(),
    }
}

/// Vectorize the accumulation expression of a recognized reduction into
/// a whole-range section expression for the library substitution
/// (§3.3): `s = s + a(i)*b(i)` over `i = lo..hi` becomes
/// `dotproduct(a(lo:hi), b(lo:hi))` (or `sum(<vector expr>)`).
pub fn reduction_library_expr(
    unit: &Unit,
    l: &Loop,
    accum_expr: &Expr,
    op: cedar_analysis::reduction::RedOp,
    par: ParMode,
) -> Option<Expr> {
    use cedar_analysis::reduction::RedOp;
    // The accumulated expression must have a section form: every array
    // reference unit-stride in exactly one dimension, no loop-var
    // values, no calls.
    if !expr_vectorizable(unit, accum_expr, l.var, &BTreeSet::new()) {
        return None;
    }
    let vec_expr = rewrite_expr(
        accum_expr,
        l.var,
        &|e| substitute_scalar(e, l.var, &l.start),
        &|e| substitute_scalar(e, l.var, &l.end),
        &[],
        &|_| unreachable!(),
    );
    if !vec_expr.has_section() {
        return None;
    }
    let f = match op {
        RedOp::Sum => Intrinsic::Sum,
        RedOp::Product => Intrinsic::Product,
        RedOp::Min => Intrinsic::MinVal,
        RedOp::Max => Intrinsic::MaxVal,
    };
    // dotproduct special case: product of two plain sections.
    if op == RedOp::Sum {
        if let Expr::Bin(cedar_ir::BinOp::Mul, a, b) = &vec_expr {
            if matches!(&**a, Expr::Section { .. }) && matches!(&**b, Expr::Section { .. }) {
                return Some(Expr::Intr {
                    f: Intrinsic::DotProduct,
                    args: vec![(**a).clone(), (**b).clone()],
                    par,
                });
            }
        }
    }
    Some(Expr::Intr { f, args: vec![vec_expr], par })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn setup(src: &str) -> (cedar_ir::Program, Loop) {
        let p = compile_free(src).unwrap();
        let l = p.units[0].body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        (p, l)
    }

    #[test]
    fn paper_example_is_vectorizable_and_stripmines() {
        let (mut p, l) = setup(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\nt = b(i)\n\
             a(i) = sqrt(t)\nend do\nend\n",
        );
        let u = &mut p.units[0];
        let t = u.find_symbol("t").unwrap();
        assert!(body_vectorizable(u, &l, &[t]));
        let new = stripmine(u, &l, LoopClass::XDoall, 32, &[t]);
        let Stmt::Loop(nl) = &new else { panic!() };
        assert_eq!(nl.class, LoopClass::XDoall);
        assert_eq!(nl.step.as_ref().unwrap().as_const_int(), Some(32));
        assert_eq!(nl.locals.len(), 3); // i3, upper, t$v
                                        // Body: i3 =, upper =, t$v(1:i3) = b(i:upper), a(i:upper) = sqrt(t$v(1:i3))
        assert_eq!(nl.body.len(), 4);
        let text = {
            let mut s = String::new();
            cedar_ir::print::print_unit(u, &mut s);
            s
        };
        let _ = text;
        assert!(matches!(&nl.body[2], Stmt::Assign { lhs: LValue::Section { .. }, .. }));
    }

    #[test]
    fn loop_var_as_value_vectorizes_via_iota() {
        let (mut p, l) =
            setup("subroutine s(a, n)\nreal a(n)\ndo i = 1, n\na(i) = i * 2.0\nend do\nend\n");
        let u = &mut p.units[0];
        assert!(body_vectorizable(u, &l, &[]));
        let new = stripmine(u, &l, LoopClass::XDoall, 16, &[]);
        let mut out = String::new();
        let mut u2 = u.clone();
        u2.body = vec![new];
        cedar_ir::print::print_unit(&u2, &mut out);
        assert!(out.contains("iota(i, upper)"), "got:\n{out}");
    }

    #[test]
    fn gather_subscripts_vectorize_for_reads_only() {
        let (mut p, l) = setup(
            "subroutine s(y, x, col, n)\nreal y(n), x(n)\ninteger col(n)\n\
             do k = 1, n\ny(k) = x(col(k))\nend do\nend\n",
        );
        let u = &mut p.units[0];
        assert!(body_vectorizable(u, &l, &[]));
        let new = stripmine(u, &l, LoopClass::XDoall, 16, &[]);
        let mut out = String::new();
        let mut u2 = u.clone();
        u2.body = vec![new];
        cedar_ir::print::print_unit(&u2, &mut out);
        assert!(out.contains("x(col(k:upper))"), "got:\n{out}");
        // Scatter (gather on the LHS) must NOT vectorize.
        let (p2, l2) = setup(
            "subroutine s(y, x, col, n)\nreal y(n), x(n)\ninteger col(n)\n\
             do k = 1, n\ny(col(k)) = x(k)\nend do\nend\n",
        );
        assert!(!body_vectorizable(&p2.units[0], &l2, &[]));
    }

    #[test]
    fn call_defeats_vectorization() {
        let (p, l) = setup(
            "subroutine s(a, n)\nreal a(n)\nexternal f\ndo i = 1, n\n\
             a(i) = f(a(i))\nend do\nend\n",
        );
        assert!(!body_vectorizable(&p.units[0], &l, &[]));
    }

    #[test]
    fn logical_if_becomes_where() {
        let (mut p, l) = setup(
            "subroutine s(a, n, c)\nreal a(n), c\ndo i = 1, n\n\
             if (a(i) .gt. c) a(i) = c\nend do\nend\n",
        );
        let u = &mut p.units[0];
        assert!(body_vectorizable(u, &l, &[]));
        let new = stripmine(u, &l, LoopClass::XDoall, 16, &[]);
        let Stmt::Loop(nl) = &new else { panic!() };
        assert!(matches!(&nl.body[2], Stmt::WhereAssign { .. }));
    }

    #[test]
    fn offset_subscripts_section_correctly() {
        let (mut p, l) = setup(
            "subroutine s(a, b, n)\nreal a(n), b(n + 1)\ndo i = 1, n\n\
             a(i) = b(i + 1)\nend do\nend\n",
        );
        let u = &mut p.units[0];
        assert!(body_vectorizable(u, &l, &[]));
        let new = stripmine(u, &l, LoopClass::XDoall, 8, &[]);
        let mut out = String::new();
        // Wrap in the unit for printing.
        let mut u2 = u.clone();
        u2.body = vec![new];
        cedar_ir::print::print_unit(&u2, &mut out);
        assert!(out.contains("b(i + 1:upper + 1)"), "got:\n{out}");
    }

    #[test]
    fn vectorize_whole_inner_loop() {
        let (p, l) = setup(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = b(i) * 2.0\nend do\nend\n",
        );
        let stmts = vectorize_whole(&l);
        assert_eq!(stmts.len(), 1);
        let Stmt::Assign { lhs: LValue::Section { idx, .. }, .. } = &stmts[0] else { panic!() };
        assert!(matches!(&idx[0], Index::Range { .. }));
        let _ = p;
    }

    #[test]
    fn dotproduct_library_form() {
        let (p, l) = setup(
            "real function dot(a, b, n)\nreal a(n), b(n)\ndot = 0.0\ndo i = 1, n\n\
             dot = dot + a(i) * b(i)\nend do\nend\n",
        );
        let Stmt::Assign { rhs, .. } = &l.body[0] else { panic!() };
        let Expr::Bin(cedar_ir::BinOp::Add, _, accum) = rhs else { panic!() };
        let lib = reduction_library_expr(
            &p.units[0],
            &l,
            accum,
            cedar_analysis::reduction::RedOp::Sum,
            ParMode::CedarParallel,
        )
        .unwrap();
        assert!(matches!(lib, Expr::Intr { f: Intrinsic::DotProduct, .. }));
        let _ = p;
    }
}
