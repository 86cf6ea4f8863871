//! Loop fusion (§4.2.4 / Figure 9): adjacent conformable loops are
//! combined into one, enlarging the parallel grain so a single
//! `SDOALL` startup covers what used to be many.
//!
//! Legality here is deliberately the simple, provably-safe subset: two
//! adjacent loops with identical headers fuse iff for every array
//! written in either loop and referenced in the other, *all* such
//! references use identical subscript expressions (after renaming the
//! second loop's index to the first's), and no scalar is written in
//! either loop. Identical subscripts mean iteration `i` of the fused
//! loop touches exactly the elements both original iterations `i`
//! touched, so no cross-iteration value can change hands.

use cedar_ir::visit::{map_stmt_exprs, walk_expr, walk_stmt_exprs, walk_stmts};
use cedar_ir::{Expr, LValue, Loop, Stmt, SymbolId, Unit};
use std::collections::{BTreeMap, BTreeSet};

/// Fuse adjacent conformable loops throughout a unit body (applied
/// recursively, repeatedly until a fixpoint). Returns the header line
/// of the surviving loop for every fusion performed, so the driver can
/// credit `Technique::LoopFusion` to the loop's report entry when it is
/// later classified (coverage tooling gates on the technique being
/// visible in the report, not just the transform having run).
pub fn fuse_unit(unit: &mut Unit) -> Vec<u32> {
    let mut body = std::mem::take(&mut unit.body);
    let mut fused = Vec::new();
    fuse_block(&mut body, &mut fused);
    unit.body = body;
    fused
}

fn fuse_block(body: &mut Vec<Stmt>, fused: &mut Vec<u32>) {
    // Recurse first.
    for s in body.iter_mut() {
        match s {
            Stmt::Loop(l) => fuse_block(&mut l.body, fused),
            Stmt::If { then_body, elifs, else_body, .. } => {
                fuse_block(then_body, fused);
                for (_, b) in elifs.iter_mut() {
                    fuse_block(b, fused);
                }
                fuse_block(else_body, fused);
            }
            Stmt::DoWhile { body: b, .. } => fuse_block(b, fused),
            _ => {}
        }
    }
    // Then fuse at this level until no more changes.
    loop {
        let mut did = false;
        let mut k = 0;
        while k + 1 < body.len() {
            let can = match (&body[k], &body[k + 1]) {
                (Stmt::Loop(a), Stmt::Loop(b)) => can_fuse(a, b),
                _ => false,
            };
            if can {
                let Stmt::Loop(b) = body.remove(k + 1) else { unreachable!() };
                let Stmt::Loop(a) = &mut body[k] else { unreachable!() };
                let mut tail = b.body;
                if b.var != a.var {
                    for s in tail.iter_mut() {
                        rename_var(s, b.var, a.var);
                    }
                }
                a.body.extend(tail);
                fused.push(a.span.line);
                did = true;
            } else {
                k += 1;
            }
        }
        if !did {
            return;
        }
    }
}

fn rename_var(s: &mut Stmt, from: SymbolId, to: SymbolId) {
    map_stmt_exprs(s, &mut |e| match e {
        Expr::Scalar(v) if v == from => Expr::Scalar(to),
        other => other,
    });
    // Inner loops using `from` as their own index keep it (they'd shadow
    // it); we only fuse when `from` is not an inner loop index, checked
    // in can_fuse.
}

fn can_fuse(a: &Loop, b: &Loop) -> bool {
    use cedar_ir::LoopClass;
    if a.class != LoopClass::Seq || b.class != LoopClass::Seq {
        return false;
    }
    if a.start != b.start || a.end != b.end || a.step != b.step {
        return false;
    }
    if !a.locals.is_empty() || !b.locals.is_empty() {
        return false;
    }
    // b must not use a's loop variable for anything but its own index,
    // and b's inner loops must not redefine b.var.
    let mut bad = false;
    walk_stmts(&b.body, &mut |s: &Stmt| {
        if let Stmt::Loop(inner) = s {
            if inner.var == b.var || inner.var == a.var {
                bad = true;
            }
        }
    });
    if bad {
        return false;
    }
    // No scalar writes in either body.
    if has_scalar_writes(&a.body) || has_scalar_writes(&b.body) {
        return false;
    }
    // Array interaction check: for arrays written in one and referenced
    // in the other, subscripts must match exactly modulo index renaming.
    let a_sigs = array_signatures(&a.body, a.var);
    let b_sigs = array_signatures(&b.body, a.var /* rename target */);
    // b's signatures computed with b.var renamed to a.var:
    let b_sigs = {
        let mut renamed: Vec<Stmt> = b.body.clone();
        for s in renamed.iter_mut() {
            rename_var(s, b.var, a.var);
        }
        let _ = b_sigs;
        array_signatures(&renamed, a.var)
    };
    let all_arrays: BTreeSet<SymbolId> = a_sigs.keys().chain(b_sigs.keys()).copied().collect();
    for arr in all_arrays {
        let (Some(sa), Some(sb)) = (a_sigs.get(&arr), b_sigs.get(&arr)) else {
            continue; // touched by one loop only
        };
        let written = sa.written || sb.written;
        if !written {
            continue;
        }
        // All subscript lists across both loops must be identical.
        let mut all: Vec<&Vec<Expr>> = sa.subscripts.iter().collect();
        all.extend(sb.subscripts.iter());
        if let Some(first) = all.first() {
            if !all.iter().all(|s| s == first) {
                return false;
            }
        }
        // Unknown-subscript accesses (sections/calls) bail out.
        if sa.opaque || sb.opaque {
            return false;
        }
    }
    true
}

#[derive(Default)]
struct ArraySig {
    written: bool,
    subscripts: Vec<Vec<Expr>>,
    opaque: bool,
}

fn has_scalar_writes(body: &[Stmt]) -> bool {
    let mut found = false;
    let mut ivars: BTreeSet<SymbolId> = BTreeSet::new();
    walk_stmts(body, &mut |s: &Stmt| {
        if let Stmt::Loop(l) = s {
            ivars.insert(l.var);
        }
    });
    walk_stmts(body, &mut |s: &Stmt| {
        if let Stmt::Assign { lhs: LValue::Scalar(v), .. } = s {
            if !ivars.contains(v) {
                found = true;
            }
        }
        if let Stmt::Call { .. } = s {
            found = true; // conservative
        }
    });
    found
}

fn array_signatures(body: &[Stmt], _ivar: SymbolId) -> BTreeMap<SymbolId, ArraySig> {
    let mut map: BTreeMap<SymbolId, ArraySig> = BTreeMap::new();
    walk_stmts(body, &mut |s: &Stmt| {
        walk_stmt_exprs(s, false, &mut |e: &Expr| {
            walk_expr(e, &mut |x| match x {
                Expr::Elem { arr, idx } => {
                    map.entry(*arr).or_default().subscripts.push(idx.clone());
                }
                Expr::Section { arr, .. } => {
                    map.entry(*arr).or_default().opaque = true;
                }
                _ => {}
            });
        });
        if let Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } = s {
            match lhs {
                LValue::Elem { arr, idx } => {
                    let e = map.entry(*arr).or_default();
                    e.written = true;
                    e.subscripts.push(idx.clone());
                }
                LValue::Section { arr, .. } => {
                    let e = map.entry(*arr).or_default();
                    e.written = true;
                    e.opaque = true;
                }
                LValue::Scalar(_) => {}
            }
        }
    });
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn fuse(src: &str) -> (cedar_ir::Program, usize) {
        let mut p = compile_free(src).unwrap();
        let n = fuse_unit(&mut p.units[0]).len();
        (p, n)
    }

    #[test]
    fn independent_conformable_loops_fuse() {
        let (p, n) = fuse(
            "subroutine s(a, b, c, d, n)\nreal a(n), b(n), c(n), d(n)\n\
             do i = 1, n\na(i) = b(i)\nend do\ndo j = 1, n\nc(j) = d(j)\nend do\nend\n",
        );
        assert_eq!(n, 1);
        let loops: Vec<_> = p.units[0].body.iter().filter(|s| s.as_loop().is_some()).collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].as_loop().unwrap().body.len(), 2);
    }

    #[test]
    fn producer_consumer_same_subscript_fuses() {
        let (_, n) = fuse(
            "subroutine s(a, b, c, n)\nreal a(n), b(n), c(n)\n\
             do i = 1, n\na(i) = b(i)\nend do\ndo i = 1, n\nc(i) = a(i) * 2.0\nend do\nend\n",
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn shifted_subscript_blocks_fusion() {
        let (_, n) = fuse(
            "subroutine s(a, b, c, n)\nreal a(n + 1), b(n), c(n)\n\
             do i = 1, n\na(i) = b(i)\nend do\ndo i = 1, n\nc(i) = a(i + 1)\nend do\nend\n",
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn different_bounds_block_fusion() {
        let (_, n) = fuse(
            "subroutine s(a, b, n, m)\nreal a(n), b(n)\n\
             do i = 1, n\na(i) = 1.0\nend do\ndo i = 1, m\nb(i) = 2.0\nend do\nend\n",
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn chains_of_loops_fuse_transitively() {
        let (p, n) = fuse(
            "subroutine s(a, b, c, n)\nreal a(n), b(n), c(n)\n\
             do i = 1, n\na(i) = 1.0\nend do\ndo i = 1, n\nb(i) = a(i)\nend do\n\
             do i = 1, n\nc(i) = b(i)\nend do\nend\n",
        );
        assert_eq!(n, 2);
        let l = p.units[0].body.iter().find_map(|s| s.as_loop()).unwrap();
        assert_eq!(l.body.len(), 3);
    }

    #[test]
    fn nested_fusion_applies_inside_outer_loops() {
        let (p, n) = fuse(
            "subroutine s(a, b, n, m)\nreal a(n, m), b(n, m)\ndo k = 1, m\n\
             do i = 1, n\na(i, k) = 1.0\nend do\ndo i = 1, n\nb(i, k) = a(i, k)\nend do\n\
             end do\nend\n",
        );
        assert_eq!(n, 1);
        let outer = p.units[0].body.iter().find_map(|s| s.as_loop()).unwrap();
        assert_eq!(outer.body.len(), 1);
    }

    #[test]
    fn scalar_write_blocks_fusion() {
        let (_, n) = fuse(
            "subroutine s(a, b, n, t)\nreal a(n), b(n), t\n\
             do i = 1, n\nt = b(i)\na(i) = t\nend do\ndo i = 1, n\nb(i) = a(i)\nend do\nend\n",
        );
        assert_eq!(n, 0);
    }
}
