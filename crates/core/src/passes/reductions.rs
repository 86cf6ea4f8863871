//! Reduction rewriting: per-participant partials with a lock-protected
//! merge (§3.3).

use cedar_analysis::reduction::{RedOp, Reduction};
use cedar_ir::visit::rename_symbols;
use cedar_ir::{
    BinOp, Expr, Index, Intrinsic, LValue, Loop, ParMode, Placement, Stmt, SymKind, SymbolId,
    SyncOp, Ty, Unit,
};

/// The identity element a partial accumulator starts from, typed to
/// match the target. (The OpenMP clause lowering in `cedar-ir`
/// re-synthesizes this same mapping; keep them in agreement.)
pub fn reduction_identity(ty: Ty, op: RedOp) -> Expr {
    match (ty, op) {
        (Ty::Int, RedOp::Sum) => Expr::ConstI(0),
        (Ty::Int, RedOp::Product) => Expr::ConstI(1),
        (_, op) => Expr::real(op.identity()),
    }
}

/// `target ⊕ partial` for the postamble merge.
pub fn combine(op: RedOp, target: Expr, partial: Expr) -> Expr {
    match op {
        RedOp::Sum => Expr::bin(BinOp::Add, target, partial),
        RedOp::Product => Expr::bin(BinOp::Mul, target, partial),
        RedOp::Min => {
            Expr::Intr { f: Intrinsic::Min, args: vec![target, partial], par: ParMode::Serial }
        }
        RedOp::Max => {
            Expr::Intr { f: Intrinsic::Max, args: vec![target, partial], par: ParMode::Serial }
        }
    }
}

/// Transform a recognized reduction into per-participant partial
/// accumulation with a lock-protected postamble merge (§3.3). The
/// caller allocates the lock id.
pub fn reduction_partials(unit: &mut Unit, l: &mut Loop, r: &Reduction, lock: u32) {
    let sym = unit.symbol(r.target).clone();
    let name = unit.fresh_name(&format!("{}$r", sym.name));
    let partial = unit.add_symbol(cedar_ir::Symbol {
        name,
        ty: sym.ty,
        dims: sym.dims.clone(),
        kind: SymKind::LoopLocal,
        placement: Placement::Private,
        init: Vec::new(),
        span: sym.span,
    });
    rename_symbols(&mut l.body, &mut |x| if x == r.target { partial } else { x });
    l.locals.push(partial);

    let identity = reduction_identity(sym.ty, r.op);

    if r.is_array {
        let full = |arr: SymbolId| -> (LValue, Expr) {
            let idx: Vec<Index> =
                sym.dims.iter().map(|_| Index::Range { lo: None, hi: None, step: None }).collect();
            (LValue::Section { arr, idx: idx.clone() }, Expr::Section { arr, idx })
        };
        let (p_lv, p_rd) = full(partial);
        let (t_lv, t_rd) = full(r.target);
        l.preamble.push(Stmt::Assign { lhs: p_lv, rhs: identity, span: l.span });
        let merged = combine(r.op, t_rd, p_rd);
        l.postamble.push(Stmt::Sync(SyncOp::Lock { id: lock }));
        l.postamble.push(Stmt::Assign { lhs: t_lv, rhs: merged, span: l.span });
        l.postamble.push(Stmt::Sync(SyncOp::Unlock { id: lock }));
    } else {
        l.preamble.push(Stmt::Assign { lhs: LValue::Scalar(partial), rhs: identity, span: l.span });
        let merged = combine(r.op, Expr::Scalar(r.target), Expr::Scalar(partial));
        l.postamble.push(Stmt::Sync(SyncOp::Lock { id: lock }));
        l.postamble.push(Stmt::Assign { lhs: LValue::Scalar(r.target), rhs: merged, span: l.span });
        l.postamble.push(Stmt::Sync(SyncOp::Unlock { id: lock }));
    }
}
