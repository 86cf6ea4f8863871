//! Array privatization legality (§4.1.2).
//!
//! "The pattern of definition and use for a privatizable array is the
//! same as it is for a privatizable scalar. Any element used must have
//! first been defined." — and the paper notes most cases in the Perfect
//! codes "were very easy to recognize".
//!
//! This pass implements the common easy pattern:
//!
//! * the array's *writes* inside one iteration of the tested loop form
//!   covering phases: inner `DO j = lo, hi` loops whose body assigns
//!   `a(j) = ...` unconditionally (subscript exactly the inner index);
//! * every *read* of the array occurs textually after a covering write
//!   phase, at subscripts provably within a covered range — reads may
//!   sit in loops with different (contained) bounds and use offset
//!   subscripts `a(j ± c)`, checked by constant-difference range
//!   inclusion;
//! * the array is not live-out of the loop (copy-out unsupported).
//!
//! Anything else is conservatively "not privatizable".

use crate::affine::extract;
use cedar_ir::{Expr, LValue, Loop, Stmt, SymKind, SymbolId, Unit};

/// Verdict for one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayPrivStatus {
    /// Every read is covered by a same-iteration write.
    Privatizable,
    /// A read may see another iteration's data, or the pattern is too
    /// complex for the matcher.
    NotProven,
    /// Needs the value after the loop (copy-out unsupported).
    LiveOut,
}

/// Is array `arr` privatizable with respect to loop `l`?
pub fn classify_array(unit: &Unit, l: &Loop, arr: SymbolId) -> ArrayPrivStatus {
    if array_live_out(unit, l, arr) {
        return ArrayPrivStatus::LiveOut;
    }
    let mut covered: Vec<(Expr, Expr)> = Vec::new();
    for s in &l.body {
        if !stmt_ok(s, arr, &mut covered) {
            return ArrayPrivStatus::NotProven;
        }
    }
    if covered.is_empty() {
        return ArrayPrivStatus::NotProven;
    }
    ArrayPrivStatus::Privatizable
}

/// Provable constant difference `a - b` (None when unknown); symbolic
/// parts must cancel structurally.
fn const_diff(a: &Expr, b: &Expr) -> Option<i64> {
    let inv = |_: SymbolId| true;
    let fa = extract(a, &[], &inv)?;
    let fb = extract(b, &[], &inv)?;
    let d = fa.sub(&fb);
    if d.sym.is_empty() {
        Some(d.konst)
    } else {
        None
    }
}

/// Is `[lo_r, hi_r]` provably within some covered `[lo_c, hi_c]`?
fn range_covered(covered: &[(Expr, Expr)], lo_r: &Expr, hi_r: &Expr) -> bool {
    covered.iter().any(|(lo_c, hi_c)| {
        const_diff(lo_r, lo_c).is_some_and(|d| d >= 0)
            && const_diff(hi_c, hi_r).is_some_and(|d| d >= 0)
    })
}

/// All offsets at which the statement reads `arr` relative to `ivar`
/// (subscript = ivar + c). `None` when any read subscript is not of
/// that shape (invariant subscripts return their offset relative to
/// nothing — handled by the caller via `Fixed`).
enum ReadShape {
    /// Reads at `ivar + c` for the collected offsets.
    Offsets(Vec<i64>),
    /// No reads at all.
    NoReads,
    /// Unsupported shape.
    Bad,
}

fn read_shape(s: &Stmt, arr: SymbolId, ivar: SymbolId) -> ReadShape {
    let mut offsets = Vec::new();
    let mut bad = false;
    let inv = |x: SymbolId| x != ivar;
    let mut check_expr = |e: &Expr| {
        cedar_ir::visit::walk_expr(e, &mut |x| {
            if let Expr::Elem { arr: a, idx } = x {
                if *a == arr {
                    if idx.len() != 1 {
                        bad = true;
                        return;
                    }
                    match extract(&idx[0], &[ivar], &inv) {
                        Some(f) if f.coeffs[0] == 1 && f.sym.is_empty() => offsets.push(f.konst),
                        _ => bad = true,
                    }
                }
            }
            if matches!(x, Expr::Section { arr: a, .. } if *a == arr) {
                bad = true;
            }
        });
    };
    cedar_ir::visit::walk_stmt_exprs(s, true, &mut check_expr);
    if bad {
        ReadShape::Bad
    } else if offsets.is_empty() {
        ReadShape::NoReads
    } else {
        ReadShape::Offsets(offsets)
    }
}

/// Check one top-level statement: reads of `arr` must be covered;
/// defining loops extend coverage.
fn stmt_ok(s: &Stmt, arr: SymbolId, covered: &mut Vec<(Expr, Expr)>) -> bool {
    match s {
        Stmt::Loop(inner) => {
            let step_ok = inner.step.as_ref().is_none_or(|e| e.as_const_int() == Some(1));
            let mut defines_here = false;
            for st in &inner.body {
                match st {
                    Stmt::Assign { lhs: LValue::Elem { arr: a, idx }, rhs, .. } if *a == arr => {
                        // write a(j) with j == inner.var exactly.
                        let leading_is_ivar = idx.len() == 1
                            && matches!(idx.first(), Some(Expr::Scalar(v)) if *v == inner.var);
                        if !leading_is_ivar || !step_ok {
                            return false;
                        }
                        // RHS reads of `arr` need prior coverage (same
                        // element this iteration, or a covered range).
                        match read_shape(st, arr, inner.var) {
                            ReadShape::NoReads => {}
                            ReadShape::Offsets(offs) => {
                                let self_ok = defines_here && offs.iter().all(|&c| c <= 0);
                                if !self_ok
                                    && !reads_within(covered, &inner.start, &inner.end, &offs)
                                {
                                    return false;
                                }
                            }
                            ReadShape::Bad => return false,
                        }
                        defines_here = true;
                    }
                    other => {
                        // Reads inside this inner loop must be covered
                        // (by prior phases, or by this loop's own writes
                        // at non-positive offsets once defined).
                        match read_shape(other, arr, inner.var) {
                            ReadShape::NoReads => {}
                            ReadShape::Offsets(offs) => {
                                let self_ok = defines_here && offs.iter().all(|&c| c <= 0);
                                if !self_ok
                                    && !reads_within(covered, &inner.start, &inner.end, &offs)
                                {
                                    return false;
                                }
                            }
                            ReadShape::Bad => return false,
                        }
                        if stmt_writes_array(other, arr) {
                            return false; // unrecognized write shape
                        }
                    }
                }
            }
            if defines_here {
                let b = (inner.start.clone(), inner.end.clone());
                if !covered.contains(&b) {
                    covered.push(b);
                }
            }
            true
        }
        Stmt::If { cond, then_body, elifs, else_body, .. } => {
            if reads_array(cond, arr) {
                return false; // conservative: guard reads need full coverage info
            }
            let check_branch = |body: &[Stmt], covered: &Vec<(Expr, Expr)>| -> bool {
                let mut c = covered.clone();
                body.iter().all(|st| stmt_ok(st, arr, &mut c))
            };
            if !check_branch(then_body, covered) || !check_branch(else_body, covered) {
                return false;
            }
            for (c, b) in elifs {
                if reads_array(c, arr) {
                    return false;
                }
                if !check_branch(b, covered) {
                    return false;
                }
            }
            true
        }
        other => {
            if stmt_writes_array(other, arr) {
                return false;
            }
            // Straight-line reads: subscripts must be constants within a
            // covered range.
            let mut ok = true;
            cedar_ir::visit::walk_stmt_exprs(other, true, &mut |e: &Expr| {
                cedar_ir::visit::walk_expr(e, &mut |x| {
                    if let Expr::Elem { arr: a, idx } = x {
                        if *a == arr {
                            if idx.len() == 1 && range_covered(covered, &idx[0], &idx[0]) {
                                // fine
                            } else {
                                ok = false;
                            }
                        }
                    }
                    if matches!(x, Expr::Section { arr: a, .. } if *a == arr) {
                        ok = false;
                    }
                });
            });
            ok
        }
    }
}

/// Reads at `loop var + offset` over `[lo, hi]`: effective range
/// `[lo + min_off, hi + max_off]` must be covered.
fn reads_within(covered: &[(Expr, Expr)], lo: &Expr, hi: &Expr, offsets: &[i64]) -> bool {
    let min_off = offsets.iter().copied().min().unwrap_or(0);
    let max_off = offsets.iter().copied().max().unwrap_or(0);
    let lo_eff = Expr::add(lo.clone(), Expr::ConstI(min_off));
    let hi_eff = Expr::add(hi.clone(), Expr::ConstI(max_off));
    range_covered(covered, &lo_eff, &hi_eff)
}

fn reads_array(e: &Expr, arr: SymbolId) -> bool {
    let mut found = false;
    cedar_ir::visit::walk_expr(e, &mut |x| {
        if matches!(x, Expr::Elem { arr: a, .. } | Expr::Section { arr: a, .. } if *a == arr) {
            found = true;
        }
    });
    found
}

fn stmt_writes_array(s: &Stmt, arr: SymbolId) -> bool {
    let mut found = false;
    fn scan(body: &[Stmt], arr: SymbolId, found: &mut bool) {
        for st in body {
            match st {
                Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. }
                    if lhs.base() == arr && !matches!(lhs, LValue::Scalar(_)) =>
                {
                    *found = true;
                }
                Stmt::If { then_body, elifs, else_body, .. } => {
                    scan(then_body, arr, found);
                    for (_, b) in elifs {
                        scan(b, arr, found);
                    }
                    scan(else_body, arr, found);
                }
                Stmt::Loop(inner) => {
                    scan(&inner.body, arr, found);
                }
                Stmt::DoWhile { body, .. } => scan(body, arr, found),
                Stmt::Call { args, .. } => {
                    for a in args {
                        if matches!(a, Expr::Section { arr: x, .. } | Expr::Elem { arr: x, .. } if *x == arr)
                        {
                            *found = true; // conservatively
                        }
                    }
                }
                _ => {}
            }
        }
    }
    scan(std::slice::from_ref(s), arr, &mut found);
    found
}

/// Array liveness after the loop: escapes the unit, or referenced
/// anywhere outside the loop.
fn array_live_out(unit: &Unit, l: &Loop, arr: SymbolId) -> bool {
    match unit.symbol(arr).kind {
        SymKind::Arg(_) | SymKind::Common { .. } => return true,
        _ => {}
    }
    let mut n = 0usize;
    fn count_in(body: &[Stmt], l: &Loop, arr: SymbolId, n: &mut usize) {
        for st in body {
            if let Stmt::Loop(inner) = st {
                if inner.span == l.span && inner.var == l.var && inner.start == l.start {
                    continue;
                }
            }
            cedar_ir::visit::walk_stmt_exprs(st, false, &mut |e: &Expr| {
                cedar_ir::visit::walk_expr(e, &mut |x| {
                    if matches!(x, Expr::Elem { arr: a, .. } | Expr::Section { arr: a, .. } if *a == arr)
                    {
                        *n += 1;
                    }
                });
            });
            if let Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } = st {
                if lhs.base() == arr {
                    *n += 1;
                }
            }
            match st {
                Stmt::If { then_body, elifs, else_body, .. } => {
                    count_in(then_body, l, arr, n);
                    for (_, b) in elifs {
                        count_in(b, l, arr, n);
                    }
                    count_in(else_body, l, arr, n);
                }
                Stmt::Loop(inner) => {
                    count_in(&inner.preamble, l, arr, n);
                    count_in(&inner.body, l, arr, n);
                    count_in(&inner.postamble, l, arr, n);
                }
                Stmt::DoWhile { body, .. } => count_in(body, l, arr, n),
                _ => {}
            }
        }
    }
    count_in(&unit.body, l, arr, &mut n);
    n > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn classify(src: &str, name: &str) -> ArrayPrivStatus {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        classify_array(u, &l, u.find_symbol(name).unwrap())
    }

    #[test]
    fn classic_work_array_is_privatizable() {
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             do j = 1, m\nw(j) = b(i, j) * 2.0\nend do\n\
             do j = 1, m\na(i) = a(i) + w(j)\nend do\nend do\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::Privatizable);
    }

    #[test]
    fn read_in_same_defining_loop_after_write() {
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             do j = 1, m\nw(j) = b(i, j)\na(i) = a(i) + w(j)\nend do\nend do\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::Privatizable);
    }

    #[test]
    fn pencil_pattern_with_offsets_and_shrunken_range() {
        // MG3D/ARC2D shape: define penc(1..n), read penc(i-1), penc(i),
        // penc(i+1) over 2..n-1.
        let st = classify(
            "subroutine s(p, n, m)\nreal p(n, m), penc(100)\ndo j = 1, m\n\
             do i = 1, n\npenc(i) = p(i, j) * 0.9\nend do\n\
             do i = 2, n - 1\np(i, j) = penc(i) + 0.5 * (penc(i - 1) + penc(i + 1))\nend do\n\
             end do\nend\n",
            "penc",
        );
        assert_eq!(st, ArrayPrivStatus::Privatizable);
    }

    #[test]
    fn out_of_range_offset_not_proven() {
        let st = classify(
            "subroutine s(p, n, m)\nreal p(n, m), penc(100)\ndo j = 1, m\n\
             do i = 1, n\npenc(i) = p(i, j)\nend do\n\
             do i = 1, n\np(i, j) = penc(i + 3)\nend do\nend do\nend\n",
            "penc",
        );
        assert_eq!(st, ArrayPrivStatus::NotProven);
    }

    #[test]
    fn read_before_definition_not_proven() {
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             do j = 1, m\na(i) = a(i) + w(j)\nend do\n\
             do j = 1, m\nw(j) = b(i, j)\nend do\nend do\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::NotProven);
    }

    #[test]
    fn larger_read_range_not_proven() {
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             do j = 1, m\nw(j) = b(i, j)\nend do\n\
             do j = 1, m + 1\na(i) = a(i) + w(j)\nend do\nend do\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::NotProven);
    }

    #[test]
    fn argument_array_is_live_out() {
        let st = classify(
            "subroutine s(w, b, n, m)\nreal w(m), b(n, m)\ndo i = 1, n\n\
             do j = 1, m\nw(j) = b(i, j)\nend do\nend do\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::LiveOut);
    }

    #[test]
    fn use_after_loop_is_live_out() {
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             do j = 1, m\nw(j) = b(i, j)\nend do\nend do\na(1) = w(1)\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::LiveOut);
    }

    #[test]
    fn conditional_write_not_proven() {
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             do j = 1, m\nif (b(i, j) .gt. 0.0) then\nw(j) = b(i, j)\nend if\nend do\n\
             do j = 1, m\na(i) = a(i) + w(j)\nend do\nend do\nend\n",
            "w",
        );
        assert_eq!(st, ArrayPrivStatus::NotProven);
    }

    #[test]
    fn backward_self_reference_in_defining_loop_ok() {
        // w(j) = w(j-1) + b: reads only already-defined elements.
        let st = classify(
            "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
             w(1) = 0.0\ndo j = 2, m\nw(j) = w(j - 1) + b(i, j)\nend do\n\
             do j = 2, m\na(i) = a(i) + w(j)\nend do\nend do\nend\n",
            "w",
        );
        // The scalar first-element write w(1) = 0.0 is an unrecognized
        // top-level write shape: conservatively not proven.
        assert_eq!(st, ArrayPrivStatus::NotProven);
    }
}
