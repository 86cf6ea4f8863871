//! Loop coalescing (§4.2.4): collapse a perfect DOALL×DOALL 2-nest into
//! a single machine-wide loop.
//!
//! A short outer parallel loop starves Cedar: an `SDOALL i = 1, 3` can
//! employ at most three of the four clusters, no matter how much work
//! each iteration holds. When the inner loop is parallel too, the pair
//! is really one big iteration space — so the restructurer rewrites
//!
//! ```fortran
//!       DO i = 1, n1
//!         DO j = 1, n2
//!           ... body(i, j) ...
//! ```
//!
//! into
//!
//! ```fortran
//!       XDOALL k = 0, n1*n2 - 1
//!         INTEGER i, j
//!         i = k / n2 + lo1
//!         j = MOD(k, n2) + lo2
//!         ... body(i, j) ...
//! ```
//!
//! and lets the 32-CE self-scheduler balance the combined space. The
//! index recovery costs two integer operations per iteration, which is
//! why the driver only coalesces when the outer trip count actually
//! under-fills the machine (see [`profitable`]).

use cedar_ir::visit::rename_symbols;
use cedar_ir::{BinOp, Expr, Intrinsic, LValue, Loop, ParMode, Stmt, SymbolId, Ty, Unit};

/// Constant trip count of a step-1 loop, if both bounds are literals.
fn const_trip_step1(l: &Loop) -> Option<i64> {
    if l.step.as_ref().is_some_and(|step| step.as_const_int() != Some(1)) {
        return None;
    }
    l.const_trip()
}

/// Is `outer` a *perfect* 2-nest — its body exactly one serial loop?
pub fn perfect_inner(outer: &Loop) -> Option<&Loop> {
    match outer.body.as_slice() {
        [Stmt::Loop(inner)] => Some(inner),
        _ => None,
    }
}

/// Should this nest be coalesced rather than run as SDOALL×CDOALL?
/// Only when the outer trip count under-fills the machine while the
/// combined space would fill it (§4.2.4's granularity argument).
pub fn profitable(outer: &Loop, inner: &Loop, machine_ces: i64) -> bool {
    match (const_trip_step1(outer), const_trip_step1(inner)) {
        (Some(n1), Some(n2)) => n1 < machine_ces && n1.saturating_mul(n2) >= machine_ces,
        _ => false,
    }
}

/// Coalesce a perfect 2-nest into one flat loop. The caller must have
/// verified that **both** levels are DOALL-legal; this function only
/// checks the structural requirements (perfect nest, literal step-1
/// bounds) and returns `None` when they do not hold.
///
/// The returned loop is `Seq`-classed; the driver assigns the final
/// class. Both original index variables become loop-locals recovered
/// from the flat index, so no cross-iteration state remains.
pub fn coalesce(unit: &mut Unit, outer: &Loop) -> Option<Loop> {
    let inner = perfect_inner(outer)?.clone();
    let n1 = const_trip_step1(outer)?;
    let n2 = const_trip_step1(&inner)?;
    if n1 <= 0 || n2 <= 0 {
        return None;
    }
    let lo1 = outer.start.as_const_int()?;
    let lo2 = inner.start.as_const_int()?;

    // Fresh flat index (an ordinary local, like any loop control
    // variable — the simulator binds those per participant) plus
    // loop-local copies of the two recovered indices.
    let k = add_int_local(unit, "k$c", cedar_ir::SymKind::Local, cedar_ir::Placement::Default);
    let iv = add_int_local(
        unit,
        &format!("{}$c", unit.symbol(outer.var).name),
        cedar_ir::SymKind::LoopLocal,
        cedar_ir::Placement::Private,
    );
    let jv = add_int_local(
        unit,
        &format!("{}$c", unit.symbol(inner.var).name),
        cedar_ir::SymKind::LoopLocal,
        cedar_ir::Placement::Private,
    );

    let mut body = inner.body.clone();
    rename_symbols(&mut body, &mut |s| {
        if s == outer.var {
            iv
        } else if s == inner.var {
            jv
        } else {
            s
        }
    });

    let span = outer.span;
    let recover = |target: SymbolId, value: Expr| Stmt::Assign {
        lhs: LValue::Scalar(target),
        rhs: value,
        span,
    };
    // i = k / n2 + lo1   (integer division truncates)
    let i_val = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Div, Expr::Scalar(k), Expr::ConstI(n2)),
        Expr::ConstI(lo1),
    );
    // j = mod(k, n2) + lo2
    let j_val = Expr::bin(
        BinOp::Add,
        Expr::Intr {
            f: Intrinsic::Mod,
            args: vec![Expr::Scalar(k), Expr::ConstI(n2)],
            par: ParMode::Serial,
        },
        Expr::ConstI(lo2),
    );
    let mut flat_body = vec![recover(iv, i_val), recover(jv, j_val)];
    flat_body.extend(body);

    let mut locals = outer.locals.clone();
    locals.extend(inner.locals.iter().copied());
    locals.push(iv);
    locals.push(jv);

    Some(Loop {
        class: cedar_ir::LoopClass::Seq,
        var: k,
        start: Expr::ConstI(0),
        end: Expr::ConstI(n1.checked_mul(n2)? - 1),
        step: None,
        locals,
        preamble: outer.preamble.clone(),
        body: flat_body,
        postamble: outer.postamble.clone(),
        span,
    })
}

fn add_int_local(
    unit: &mut Unit,
    base: &str,
    kind: cedar_ir::SymKind,
    placement: cedar_ir::Placement,
) -> SymbolId {
    let name = unit.fresh_name(base);
    unit.add_symbol(cedar_ir::Symbol {
        name,
        ty: Ty::Int,
        dims: Vec::new(),
        kind,
        placement,
        init: Vec::new(),
        span: cedar_ir::Span::NONE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn nest(src: &str) -> (cedar_ir::Program, Loop) {
        let p = compile_free(src).unwrap();
        let l = p.units[0].body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        (p, l)
    }

    #[test]
    fn perfect_nest_coalesces_to_product_space() {
        let (mut p, l) = nest(
            "subroutine s(a)\nreal a(64, 3)\ndo i = 1, 3\ndo j = 1, 64\n\
             a(j, i) = 1.0\nend do\nend do\nend\n",
        );
        let flat = coalesce(&mut p.units[0], &l).expect("coalesces");
        assert_eq!(flat.start.as_const_int(), Some(0));
        assert_eq!(flat.end.as_const_int(), Some(191));
        // index recovery + original statement
        assert_eq!(flat.body.len(), 3);
        assert_eq!(flat.locals.len(), 2);
    }

    #[test]
    fn imperfect_nest_is_rejected() {
        let (mut p, l) = nest(
            "subroutine s(a, b)\nreal a(64, 3), b(3)\ndo i = 1, 3\nb(i) = 0.0\n\
             do j = 1, 64\na(j, i) = 1.0\nend do\nend do\nend\n",
        );
        assert!(coalesce(&mut p.units[0], &l).is_none());
    }

    #[test]
    fn symbolic_bounds_are_rejected() {
        let (mut p, l) = nest(
            "subroutine s(a, n)\nreal a(n, n)\ndo i = 1, n\ndo j = 1, n\n\
             a(j, i) = 1.0\nend do\nend do\nend\n",
        );
        assert!(coalesce(&mut p.units[0], &l).is_none());
    }

    #[test]
    fn profitability_requires_underfilled_outer() {
        let (_, l) = nest(
            "subroutine s(a)\nreal a(64, 3)\ndo i = 1, 3\ndo j = 1, 64\n\
             a(j, i) = 1.0\nend do\nend do\nend\n",
        );
        let inner = perfect_inner(&l).unwrap().clone();
        assert!(profitable(&l, &inner, 32));

        let (_, big) = nest(
            "subroutine s(a)\nreal a(8, 64)\ndo i = 1, 64\ndo j = 1, 8\n\
             a(j, i) = 1.0\nend do\nend do\nend\n",
        );
        let inner = perfect_inner(&big).unwrap().clone();
        assert!(!profitable(&big, &inner, 32), "64 outer iterations fill the machine");
    }

    #[test]
    fn tiny_combined_space_is_not_profitable() {
        let (_, l) = nest(
            "subroutine s(a)\nreal a(4, 3)\ndo i = 1, 3\ndo j = 1, 4\n\
             a(j, i) = 1.0\nend do\nend do\nend\n",
        );
        let inner = perfect_inner(&l).unwrap().clone();
        assert!(!profitable(&l, &inner, 32), "12 iterations cannot fill 32 CEs");
    }
}
