//! Reduction recognition (paper §3.3 and §4.1.3).
//!
//! Recognizes:
//! * scalar accumulations `s = s + e` (also `-`, `*`, `MIN`, `MAX`, and
//!   the `IF (e .GT. s) s = e` min/max idiom);
//! * **array-element** accumulations `a(j) = a(j) + e` (the form the
//!   1991 KAP "was not prepared for");
//! * **multiple accumulation statements** against the same target in one
//!   loop body, as in the paper's BDNA/MDG example.
//!
//! A symbol is a reduction target for loop `L` iff *every* reference to
//! it inside `L` belongs to an accumulation statement with a consistent
//! operation.

use cedar_ir::visit::walk_expr;
use cedar_ir::{BinOp, Expr, Intrinsic, LValue, Loop, Stmt, SymbolId};
use std::collections::{BTreeMap, BTreeSet};

pub use cedar_ir::RedOp;

/// One recognized reduction target.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Accumulator symbol.
    pub target: SymbolId,
    /// Accumulation operation.
    pub op: RedOp,
    /// Number of accumulation statements feeding the target.
    pub n_statements: usize,
    /// True if the target is an array (element-wise reduction).
    pub is_array: bool,
}

/// Find all reduction targets of `l`.
pub fn find_reductions(l: &Loop) -> Vec<Reduction> {
    // Gather accumulation statements and all other references.
    #[derive(Default)]
    struct Acc {
        ops: Vec<RedOp>,
        is_array: bool,
    }
    let mut accums: BTreeMap<SymbolId, Acc> = BTreeMap::new();
    let mut disqualified: BTreeSet<SymbolId> = BTreeSet::new();
    let mut other_refs: BTreeMap<SymbolId, usize> = BTreeMap::new();

    // Custom traversal: a recognized accumulation statement (which may be
    // a whole IF for the min/max idiom) is *not* descended into, so its
    // canonical self-references are not double-counted.
    fn scan(
        body: &[Stmt],
        loop_var: SymbolId,
        accums: &mut BTreeMap<SymbolId, Acc>,
        disqualified: &mut BTreeSet<SymbolId>,
        other_refs: &mut BTreeMap<SymbolId, usize>,
    ) {
        for s in body {
            if let Some((target, op, is_array, extra_refs)) = recognize_accum(s, loop_var) {
                let e = accums.entry(target).or_default();
                e.ops.push(op);
                e.is_array |= is_array;
                if extra_refs {
                    disqualified.insert(target);
                }
                continue;
            }
            match s {
                Stmt::If { cond, then_body, elifs, else_body, .. } => {
                    count_expr(cond, other_refs);
                    scan(then_body, loop_var, accums, disqualified, other_refs);
                    for (c, b) in elifs {
                        count_expr(c, other_refs);
                        scan(b, loop_var, accums, disqualified, other_refs);
                    }
                    scan(else_body, loop_var, accums, disqualified, other_refs);
                }
                Stmt::Loop(inner) => {
                    count_expr(&inner.start, other_refs);
                    count_expr(&inner.end, other_refs);
                    if let Some(st) = &inner.step {
                        count_expr(st, other_refs);
                    }
                    scan(&inner.preamble, loop_var, accums, disqualified, other_refs);
                    scan(&inner.body, loop_var, accums, disqualified, other_refs);
                    scan(&inner.postamble, loop_var, accums, disqualified, other_refs);
                }
                Stmt::DoWhile { cond, body, .. } => {
                    count_expr(cond, other_refs);
                    scan(body, loop_var, accums, disqualified, other_refs);
                }
                other => count_refs(other, other_refs),
            }
        }
    }
    scan(&l.body, l.var, &mut accums, &mut disqualified, &mut other_refs);

    accums
        .into_iter()
        .filter(|(t, _)| !disqualified.contains(t) && !other_refs.contains_key(t))
        .filter_map(|(target, acc)| {
            let op = acc.ops[0];
            if acc.ops.iter().any(|o| *o != op) {
                return None; // mixed operations
            }
            Some(Reduction { target, op, n_statements: acc.ops.len(), is_array: acc.is_array })
        })
        .collect()
}

/// Indices of *top-level* body statements that are accumulation
/// statements onto `target` (used by loop distribution, §3.3: the
/// restructurer "must often distribute an original loop to isolate
/// those computations done by library code").
pub fn accumulation_statement_indices(l: &Loop, target: SymbolId) -> Vec<usize> {
    l.body
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(recognize_accum(s, l.var), Some((t, _, _, false)) if t == target))
        .map(|(k, _)| k)
        .collect()
}

/// Count references of every symbol in a (non-accumulation) statement.
fn count_refs(s: &Stmt, refs: &mut BTreeMap<SymbolId, usize>) {
    let mut tally = |sym: SymbolId| {
        *refs.entry(sym).or_insert(0) += 1;
    };
    match s {
        Stmt::Assign { lhs, rhs, .. } | Stmt::WhereAssign { lhs, rhs, .. } => {
            tally(lhs.base());
            if let LValue::Elem { idx, .. } = lhs {
                for e in idx {
                    count_expr(e, refs);
                }
            }
            count_expr(rhs, refs);
            if let Stmt::WhereAssign { mask, .. } = s {
                count_expr(mask, refs);
            }
        }
        Stmt::If { cond, .. } => count_expr(cond, refs),
        Stmt::DoWhile { cond, .. } => count_expr(cond, refs),
        Stmt::Loop(inner) => {
            count_expr(&inner.start, refs);
            count_expr(&inner.end, refs);
            if let Some(st) = &inner.step {
                count_expr(st, refs);
            }
        }
        Stmt::Call { args, .. } => {
            for a in args {
                count_expr(a, refs);
            }
        }
        _ => {}
    }
}

fn count_expr(e: &Expr, refs: &mut BTreeMap<SymbolId, usize>) {
    walk_expr(e, &mut |x| {
        if let Expr::Scalar(v) | Expr::Elem { arr: v, .. } | Expr::Section { arr: v, .. } = x {
            *refs.entry(*v).or_insert(0) += 1;
        }
    });
}

/// Try to recognize `s` as one accumulation statement. Returns
/// `(target, op, is_array, has_extra_target_refs)`.
fn recognize_accum(s: &Stmt, _loop_var: SymbolId) -> Option<(SymbolId, RedOp, bool, bool)> {
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            let (target, is_array, lhs_idx) = match lhs {
                LValue::Scalar(v) => (*v, false, None),
                LValue::Elem { arr, idx } => (*arr, true, Some(idx)),
                LValue::Section { .. } => return None,
            };
            let (op, occurrences) = match_accum_rhs(rhs, target, lhs_idx)?;
            // Exactly one self-reference in the canonical position, and
            // none elsewhere (subscripts of the LHS must not mention it).
            let total = count_sym_refs(rhs, target)
                + lhs_idx.map_or(0, |idx| idx.iter().map(|e| count_sym_refs(e, target)).sum());
            Some((target, op, is_array, total != occurrences))
        }
        // IF (x .GT. s) s = x   → max reduction; .LT. → min.
        Stmt::If { cond, then_body, elifs, else_body, .. }
            if elifs.is_empty() && else_body.is_empty() && then_body.len() == 1 =>
        {
            let Stmt::Assign { lhs: LValue::Scalar(tv), rhs, .. } = &then_body[0] else {
                return None;
            };
            let Expr::Bin(rel, a, b) = cond else { return None };
            // Pattern: cond compares `rhs` with the target.
            let (x, op) = match rel {
                BinOp::Gt | BinOp::Ge => {
                    if matches!(&**b, Expr::Scalar(v) if v == tv) {
                        (&**a, RedOp::Max)
                    } else if matches!(&**a, Expr::Scalar(v) if v == tv) {
                        (&**b, RedOp::Min)
                    } else {
                        return None;
                    }
                }
                BinOp::Lt | BinOp::Le => {
                    if matches!(&**b, Expr::Scalar(v) if v == tv) {
                        (&**a, RedOp::Min)
                    } else if matches!(&**a, Expr::Scalar(v) if v == tv) {
                        (&**b, RedOp::Max)
                    } else {
                        return None;
                    }
                }
                _ => return None,
            };
            if x != rhs {
                return None; // assigned value must be the compared value
            }
            if count_sym_refs(rhs, *tv) != 0 {
                return None;
            }
            Some((*tv, op, false, false))
        }
        _ => None,
    }
}

/// Match `rhs` as `target ⊕ e` / `e ⊕ target` / `min(target, e)` /
/// `max(target, e)`, returning the op and how many target references
/// the canonical position accounts for.
fn match_accum_rhs(
    rhs: &Expr,
    target: SymbolId,
    lhs_idx: Option<&Vec<Expr>>,
) -> Option<(RedOp, usize)> {
    let is_self = self_test(target, lhs_idx);
    match rhs {
        Expr::Bin(BinOp::Add, ..) | Expr::Bin(BinOp::Sub, ..) => {
            let mut leaves = Vec::new();
            sum_leaves(rhs, true, &mut leaves);
            if chain_matches(&leaves, target, &is_self) {
                Some((RedOp::Sum, 1))
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Mul, ..) | Expr::Bin(BinOp::Div, ..) => {
            let mut leaves = Vec::new();
            mul_leaves(rhs, true, &mut leaves);
            if chain_matches(&leaves, target, &is_self) {
                Some((RedOp::Product, 1))
            } else {
                None
            }
        }
        Expr::Intr { f, args, .. } if matches!(f, Intrinsic::Min | Intrinsic::Max) => {
            if args.len() != 2 {
                return None;
            }
            let (self_pos, other) = if is_self(&args[0]) {
                (true, &args[1])
            } else if is_self(&args[1]) {
                (true, &args[0])
            } else {
                return None;
            };
            let _ = self_pos;
            if count_sym_refs(other, target) != 0 {
                return None;
            }
            Some((if *f == Intrinsic::Min { RedOp::Min } else { RedOp::Max }, 1))
        }
        _ => None,
    }
}

/// "Is this leaf the reduction target itself?" — a plain scalar read for
/// scalar reductions, or the same-element read `a(idx)` for array
/// reductions.
fn self_test(target: SymbolId, lhs_idx: Option<&Vec<Expr>>) -> impl Fn(&Expr) -> bool + '_ {
    move |e: &Expr| match (e, lhs_idx) {
        (Expr::Scalar(v), None) => *v == target,
        (Expr::Elem { arr, idx }, Some(li)) => *arr == target && idx == li,
        _ => false,
    }
}

// Flatten +/- (or */÷) chains into signed leaves so chained
// accumulations like `s = s + a(i) + c(i)` or `s = s - x + y` are
// recognized. The target must appear exactly once, as a whole leaf, with
// positive sign (sum) or as a direct numerator factor (product):
// renaming it to a partial accumulator then preserves the value for any
// chain shape.
fn sum_leaves<'a>(e: &'a Expr, pos: bool, out: &mut Vec<(&'a Expr, bool)>) {
    match e {
        Expr::Bin(BinOp::Add, l, r) => {
            sum_leaves(l, pos, out);
            sum_leaves(r, pos, out);
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            sum_leaves(l, pos, out);
            sum_leaves(r, !pos, out);
        }
        _ => out.push((e, pos)),
    }
}

fn mul_leaves<'a>(e: &'a Expr, num: bool, out: &mut Vec<(&'a Expr, bool)>) {
    match e {
        Expr::Bin(BinOp::Mul, l, r) => {
            mul_leaves(l, num, out);
            mul_leaves(r, num, out);
        }
        Expr::Bin(BinOp::Div, l, r) => {
            mul_leaves(l, num, out);
            mul_leaves(r, !num, out);
        }
        _ => out.push((e, num)),
    }
}

fn chain_matches(
    leaves: &[(&Expr, bool)],
    target: SymbolId,
    is_self: &impl Fn(&Expr) -> bool,
) -> bool {
    let selfs: Vec<bool> =
        leaves.iter().filter(|(e, _)| is_self(e)).map(|&(_, positive)| positive).collect();
    selfs.len() == 1
        && selfs[0]
        && leaves.iter().filter(|(e, _)| !is_self(e)).all(|(e, _)| count_sym_refs(e, target) == 0)
}

/// Rebuild `rhs` with the reduction target's single positive/numerator
/// occurrence removed — the expression the loop accumulates each
/// iteration (signs baked in, so `s = s - x + y` yields `-x + y`).
/// Returns `None` when `rhs` is not a matched accumulation chain.
pub fn accumulated_expr(rhs: &Expr, target: SymbolId, lhs_idx: Option<&Vec<Expr>>) -> Option<Expr> {
    let is_self = self_test(target, lhs_idx);
    let (mut leaves, product) = match rhs {
        Expr::Bin(BinOp::Add, ..) | Expr::Bin(BinOp::Sub, ..) => {
            let mut leaves = Vec::new();
            sum_leaves(rhs, true, &mut leaves);
            (leaves, false)
        }
        Expr::Bin(BinOp::Mul, ..) | Expr::Bin(BinOp::Div, ..) => {
            let mut leaves = Vec::new();
            mul_leaves(rhs, true, &mut leaves);
            (leaves, true)
        }
        _ => return None,
    };
    if !chain_matches(&leaves, target, &is_self) {
        return None;
    }
    let pos = leaves.iter().position(|(e, _)| is_self(e)).unwrap();
    leaves.remove(pos);
    let mut acc: Option<Expr> = None;
    for (e, positive) in leaves {
        let e = e.clone();
        acc = Some(match (acc, positive, product) {
            (None, true, _) => e,
            (None, false, false) => Expr::Un(cedar_ir::UnOp::Neg, Box::new(e)),
            (None, false, true) => Expr::bin(BinOp::Div, Expr::real(1.0), e),
            (Some(a), true, false) => Expr::bin(BinOp::Add, a, e),
            (Some(a), false, false) => Expr::bin(BinOp::Sub, a, e),
            (Some(a), true, true) => Expr::bin(BinOp::Mul, a, e),
            (Some(a), false, true) => Expr::bin(BinOp::Div, a, e),
        });
    }
    acc
}

fn count_sym_refs(e: &Expr, sym: SymbolId) -> usize {
    let mut n = 0;
    walk_expr(e, &mut |x| {
        if let Expr::Scalar(v) | Expr::Elem { arr: v, .. } | Expr::Section { arr: v, .. } = x {
            if *v == sym {
                n += 1;
            }
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn reds(src: &str) -> (cedar_ir::Program, Vec<Reduction>) {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let r = find_reductions(&l);
        (p, r)
    }

    #[test]
    fn scalar_sum() {
        let (p, r) = reds(
            "subroutine s(a, n, total)\nreal a(n), total\ndo i = 1, n\n\
             total = total + a(i)\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Sum);
        assert_eq!(r[0].target, p.units[0].find_symbol("total").unwrap());
        assert!(!r[0].is_array);
    }

    #[test]
    fn dot_product_form() {
        let (_, r) = reds(
            "real function dot(a, b, n)\nreal a(n), b(n)\ndot = 0.0\n\
             do i = 1, n\ndot = dot + a(i) * b(i)\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Sum);
    }

    #[test]
    fn array_element_accumulation() {
        let (_, r) = reds(
            "subroutine s(a, b, n, m)\nreal a(m), b(n, m)\ndo i = 1, n\n\
             do j = 1, m\na(j) = a(j) + b(i, j)\nend do\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].is_array);
    }

    #[test]
    fn multiple_accumulation_statements() {
        let (_, r) = reds(
            "subroutine s(a, b, c, d, n, m)\nreal a(m), b(n, m), c(n, m), d(n, m)\n\
             do i = 1, n\ndo j = 1, m\na(j) = a(j) + b(i, j)\n\
             a(j) = a(j) + c(i, j)\na(j) = a(j) + d(i, j)\nend do\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].n_statements, 3);
    }

    #[test]
    fn min_max_if_idiom() {
        let (_, r) = reds(
            "subroutine s(a, n, big)\nreal a(n), big\ndo i = 1, n\n\
             if (a(i) .gt. big) big = a(i)\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Max);
    }

    #[test]
    fn max_intrinsic_form() {
        let (_, r) = reds(
            "subroutine s(a, n, big)\nreal a(n), big\ndo i = 1, n\n\
             big = max(big, a(i))\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Max);
    }

    #[test]
    fn extra_use_disqualifies() {
        let (_, r) = reds(
            "subroutine s(a, n, total)\nreal a(n), total\ndo i = 1, n\n\
             total = total + a(i)\na(i) = total\nend do\nend\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn mixed_ops_disqualify() {
        let (_, r) = reds(
            "subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\n\
             t = t + a(i)\nt = t * a(i)\nend do\nend\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn mismatched_element_subscript_disqualifies() {
        let (_, r) = reds(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 2, n\n\
             a(i) = a(i - 1) + b(i)\nend do\nend\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn subtraction_accumulates() {
        let (_, r) =
            reds("subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\nt = t - a(i)\nend do\nend\n");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Sum);
    }

    #[test]
    fn chained_sum_is_recognized() {
        // s = s + a(i) + c(i): the target is a leaf of a +-chain, not a
        // direct operand of the top-level Add.
        let (_, r) = reds(
            "subroutine s(a, c, n, t)\nreal a(n), c(n), t\ndo i = 1, n\n\
             t = t + a(i) + c(i)\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Sum);
    }

    #[test]
    fn chained_sum_with_middle_target() {
        let (_, r) = reds(
            "subroutine s(a, c, n, t)\nreal a(n), c(n), t\ndo i = 1, n\n\
             t = a(i) + t + c(i)\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Sum);
    }

    #[test]
    fn negated_target_is_not_a_sum() {
        // t = a(i) - t flips the accumulator's sign each iteration.
        let (_, r) =
            reds("subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\nt = a(i) - t\nend do\nend\n");
        assert!(r.is_empty());
    }

    #[test]
    fn target_in_denominator_is_not_a_product() {
        let (_, r) =
            reds("subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\nt = a(i) / t\nend do\nend\n");
        assert!(r.is_empty());
    }

    #[test]
    fn product_over_div_chain() {
        // t = t * a(i) / c(i) accumulates the ratio each iteration.
        let (_, r) = reds(
            "subroutine s(a, c, n, t)\nreal a(n), c(n), t\ndo i = 1, n\n\
             t = t * a(i) / c(i)\nend do\nend\n",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, RedOp::Product);
    }

    #[test]
    fn accumulated_expr_strips_chained_target() {
        let p = compile_free(
            "subroutine s(a, c, n, t)\nreal a(n), c(n), t\ndo i = 1, n\n\
             t = t + a(i) - c(i)\nend do\nend\n",
        )
        .unwrap();
        let u = &p.units[0];
        let t = u.find_symbol("t").unwrap();
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap();
        let Stmt::Assign { rhs, .. } = &l.body[0] else { panic!() };
        let accum = accumulated_expr(rhs, t, None).expect("chain should strip");
        // The rest of the chain: a(i) - c(i), with no reference to t.
        assert_eq!(count_sym_refs(&accum, t), 0);
        assert!(matches!(accum, Expr::Bin(BinOp::Sub, _, _)));
    }

    #[test]
    fn accumulated_expr_bakes_sign_of_leading_subtraction() {
        let p = compile_free(
            "subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\nt = t - a(i)\nend do\nend\n",
        )
        .unwrap();
        let u = &p.units[0];
        let t = u.find_symbol("t").unwrap();
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap();
        let Stmt::Assign { rhs, .. } = &l.body[0] else { panic!() };
        let accum = accumulated_expr(rhs, t, None).unwrap();
        assert!(matches!(accum, Expr::Un(cedar_ir::UnOp::Neg, _)));
    }

    #[test]
    fn accumulated_expr_rejects_non_chain() {
        let p = compile_free(
            "subroutine s(a, n, t)\nreal a(n), t\ndo i = 1, n\nt = sqrt(a(i))\nend do\nend\n",
        )
        .unwrap();
        let u = &p.units[0];
        let t = u.find_symbol("t").unwrap();
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap();
        let Stmt::Assign { rhs, .. } = &l.body[0] else { panic!() };
        assert!(accumulated_expr(rhs, t, None).is_none());
    }
}
