//! Loop furniture: the `locals`, `preamble` and `postamble` of a loop,
//! built and read here and nowhere else.
//!
//! Privatization gives a loop its own copy of a temporary (§3.1,
//! §4.1.2). A reduction becomes a per-participant partial that starts
//! at the operator's identity and is merged into its target under a
//! lock (§3.3). The restructurer builds both; lowering an OpenMP
//! `reduction(op:x)` clause builds the same partial; the OpenMP backend
//! reads the partials back into clauses with [`scalar_reductions`].

use crate::visit::rename_symbols;
use crate::{
    BinOp, Expr, Index, Intrinsic, LValue, Loop, ParMode, Placement, RedOp, Span, Stmt, SymKind,
    Symbol, SymbolId, SyncOp, Ty, Unit,
};

/// Replace every reference to `sym` in `l`'s body by a fresh loop-local
/// copy of the same type and dims, named `sym$suffix`, and return the
/// copy.
pub fn privatize(unit: &mut Unit, l: &mut Loop, sym: SymbolId, suffix: char) -> SymbolId {
    let s = unit.symbol(sym);
    let copy = Symbol {
        name: unit.fresh_name(&format!("{}${suffix}", s.name)),
        ty: s.ty,
        dims: s.dims.clone(),
        kind: SymKind::LoopLocal,
        placement: Placement::Private,
        init: Vec::new(),
        span: s.span,
    };
    let local = unit.add_symbol(copy);
    rename_symbols(&mut l.body, &mut |x| if x == sym { local } else { x });
    l.locals.push(local);
    local
}

/// `target ⊕ partial`: the merge of a partial, and of a library
/// reduction's result.
pub fn combine(op: RedOp, target: Expr, partial: Expr) -> Expr {
    let f = match op {
        RedOp::Sum => return Expr::bin(BinOp::Add, target, partial),
        RedOp::Product => return Expr::bin(BinOp::Mul, target, partial),
        RedOp::Min => Intrinsic::Min,
        RedOp::Max => Intrinsic::Max,
    };
    Expr::Intr { f, args: vec![target, partial], par: ParMode::Serial }
}

/// The value a partial starts from, typed as its target: an INTEGER
/// `min` or `max` starts from the end of `i64`, which a REAL store of
/// the infinity saturates to.
fn identity(ty: Ty, op: RedOp) -> Expr {
    match (ty, op) {
        (Ty::Int, RedOp::Sum) => Expr::ConstI(0),
        (Ty::Int, RedOp::Product) => Expr::ConstI(1),
        (Ty::Int, RedOp::Min) => Expr::ConstI(i64::MAX),
        (Ty::Int, RedOp::Max) => Expr::ConstI(i64::MIN),
        (_, op) => Expr::real(op.identity()),
    }
}

/// Turn the reduction of `target` by `op` in `l` into a per-participant
/// partial (§3.3): the body accumulates into it, the preamble sets it to
/// the identity, and the postamble merges it into the target under lock
/// `lock`. An array target gets an array partial, merged whole. The
/// statements carry `span`.
pub fn reduction_partials(
    unit: &mut Unit,
    l: &mut Loop,
    (op, target): (RedOp, SymbolId),
    lock: u32,
    span: Span,
) {
    let partial = privatize(unit, l, target, 'r');
    let sym = unit.symbol(target);
    let rank = sym.dims.len();
    // The whole of `x`: the scalar, or a section of every element.
    let whole = |x| match rank {
        0 => (LValue::Scalar(x), Expr::Scalar(x)),
        _ => {
            let idx = vec![Index::Range { lo: None, hi: None, step: None }; rank];
            (LValue::Section { arr: x, idx: idx.clone() }, Expr::Section { arr: x, idx })
        }
    };
    let ((p_lv, p_rd), (t_lv, t_rd)) = (whole(partial), whole(target));
    l.preamble.push(Stmt::Assign { lhs: p_lv, rhs: identity(sym.ty, op), span });
    l.postamble.push(Stmt::Sync(SyncOp::Lock { id: lock }));
    l.postamble.push(Stmt::Assign { lhs: t_lv, rhs: combine(op, t_rd, p_rd), span });
    l.postamble.push(Stmt::Sync(SyncOp::Unlock { id: lock }));
}

/// Read `l`'s furniture back as the scalar reductions
/// [`reduction_partials`] builds: `(op, target, partial)` per merge, in
/// order. `None` if the preamble or postamble holds anything else, an
/// array partial included.
pub fn scalar_reductions(unit: &Unit, l: &Loop) -> Option<Vec<(RedOp, SymbolId, SymbolId)>> {
    let merges = l.postamble.chunks(3);
    if merges.len() != l.preamble.len() || !l.postamble.len().is_multiple_of(3) {
        return None;
    }
    let read = |init: &Stmt, merge: &[Stmt]| {
        let Stmt::Assign { lhs: LValue::Scalar(p), rhs: start, .. } = init else { return None };
        let [Stmt::Sync(SyncOp::Lock { id: a }), Stmt::Assign { lhs: LValue::Scalar(t), rhs, .. }, Stmt::Sync(SyncOp::Unlock { id: b })] =
            merge
        else {
            return None;
        };
        let (op, x, y) = match rhs {
            Expr::Bin(BinOp::Add, x, y) => (RedOp::Sum, &**x, &**y),
            Expr::Bin(BinOp::Mul, x, y) => (RedOp::Product, &**x, &**y),
            Expr::Intr { f: Intrinsic::Min, args, .. } if args.len() == 2 => {
                (RedOp::Min, &args[0], &args[1])
            }
            Expr::Intr { f: Intrinsic::Max, args, .. } if args.len() == 2 => {
                (RedOp::Max, &args[0], &args[1])
            }
            _ => return None,
        };
        let merged = *x == Expr::Scalar(*t) && *y == Expr::Scalar(*p);
        (a == b && merged && l.locals.contains(p) && *start == identity(unit.symbol(*t).ty, op))
            .then_some((op, *t, *p))
    };
    l.preamble.iter().zip(merges).map(|(init, merge)| read(init, merge)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_free;

    #[test]
    fn scalar_partials_read_back_as_built() {
        let p = compile_free(
            "subroutine s(a, n, x, k)\nreal a(n), x, w(4)\ninteger k\ndo i = 1, n\n\
             x = x + a(i)\nk = k + i\nw(1) = w(1) + a(i)\nend do\nend\n",
        )
        .unwrap();
        let mut u = p.units[0].clone();
        let Stmt::Loop(serial) = u.body[0].clone() else { panic!() };
        let [x, k, w] = ["x", "k", "w"].map(|n| u.find_symbol(n).unwrap());
        for op in [RedOp::Sum, RedOp::Product, RedOp::Min, RedOp::Max] {
            let mut l = serial.clone();
            reduction_partials(&mut u, &mut l, (op, x), 7, serial.span);
            reduction_partials(&mut u, &mut l, (op, k), 8, serial.span);
            let want = vec![(op, x, l.locals[0]), (op, k, l.locals[1])];
            assert_eq!(scalar_reductions(&u, &l), Some(want), "{op:?}");
            // Another start value, or starts out of merge order, are not a partial's.
            let mut other = l.clone();
            other.preamble.swap(0, 1);
            assert_eq!(scalar_reductions(&u, &other), None, "{op:?}");
            let Stmt::Assign { rhs, .. } = &mut other.preamble[0] else { panic!() };
            *rhs = Expr::ConstI(2);
            other.preamble.swap(0, 1);
            assert_eq!(scalar_reductions(&u, &other), None, "{op:?}");
            // An array partial has no clause.
            reduction_partials(&mut u, &mut l, (op, w), 9, serial.span);
            assert_eq!(scalar_reductions(&u, &l), None, "{op:?}");
        }
    }

    #[test]
    fn integer_min_and_max_partials_start_at_the_ends_of_i64_in_text_that_parses() {
        let src = "subroutine s(a, n, m)\ninteger a(n), m\n!$omp parallel do reduction(OP:m)\n\
                   do i = 1, n\nm = OP(m, a(i))\nend do\nend\n";
        for (op, start) in [("min", i64::MAX), ("max", i64::MIN)] {
            let p = compile_free(&src.replace("OP", op)).unwrap();
            let Stmt::Loop(l) = &p.units[0].body[0] else { panic!() };
            let Stmt::Assign { rhs, .. } = &l.preamble[0] else { panic!() };
            assert_eq!(*rhs, Expr::ConstI(start), "{op}");
            let reads = scalar_reductions(&p.units[0], l).expect("a partial");
            assert_eq!(reads.len(), 1, "{op}");
            let text = crate::print::print_program(&p);
            assert!(
                text.contains(&format!(
                    "m$r = {}",
                    match start {
                        i64::MAX => "9223372036854775807",
                        _ => "(-9223372036854775807 - 1)",
                    }
                )),
                "{text}"
            );
            crate::compile_source(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        }
    }
}
