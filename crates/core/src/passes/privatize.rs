//! Scalar and array privatization: replace per-iteration temporaries
//! with fresh loop-local copies (§3.1, §4.1.2).

use cedar_ir::visit::rename_symbols;
use cedar_ir::{Loop, Placement, SymKind, SymbolId, Unit};

/// Replace references to each scalar with a fresh loop-local.
pub fn privatize_scalars(unit: &mut Unit, l: &mut Loop, scalars: &[SymbolId]) {
    for &s in scalars {
        let sym = unit.symbol(s);
        let name = unit.fresh_name(&format!("{}$p", sym.name));
        let ty = sym.ty;
        let local = unit.add_symbol(cedar_ir::Symbol {
            name,
            ty,
            dims: Vec::new(),
            kind: SymKind::LoopLocal,
            placement: Placement::Private,
            init: Vec::new(),
            span: sym.span,
        });
        rename_symbols(&mut l.body, &mut |x| if x == s { local } else { x });
        l.locals.push(local);
    }
}

/// Replace references to each array with a fresh loop-local copy
/// (legality guaranteed by the array-privatization analysis: every
/// element is written before read within one iteration, and the
/// array is not live-out).
pub fn privatize_arrays(unit: &mut Unit, l: &mut Loop, arrays: &[SymbolId]) {
    for &a in arrays {
        let sym = unit.symbol(a).clone();
        let name = unit.fresh_name(&format!("{}$p", sym.name));
        let local = unit.add_symbol(cedar_ir::Symbol {
            name,
            ty: sym.ty,
            dims: sym.dims.clone(),
            kind: SymKind::LoopLocal,
            placement: Placement::Private,
            init: Vec::new(),
            span: sym.span,
        });
        rename_symbols(&mut l.body, &mut |x| if x == a { local } else { x });
        l.locals.push(local);
    }
}
