//! Program units and whole-program structure.

use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::symbol::{Dim, Placement, SymKind, Symbol, SymbolId};
use crate::types::Ty;
use cedar_f77::ast::Visibility;
use cedar_f77::Span;
use std::collections::BTreeMap;

/// Index of a unit within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitId(pub u32);

/// Kind of program unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitKind {
    /// The main PROGRAM (the simulation entry point).
    Program,
    /// A SUBROUTINE.
    Subroutine,
    /// A FUNCTION with a result variable.
    Function,
}

/// A compiled program unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Unit name, lower-cased.
    pub name: String,
    /// PROGRAM / SUBROUTINE / FUNCTION.
    pub kind: UnitKind,
    /// Dummy arguments in positional order.
    pub args: Vec<SymbolId>,
    /// The unit's symbol table ([`SymbolId`] indexes into it).
    pub symbols: Vec<Symbol>,
    /// Executable statements.
    pub body: Vec<Stmt>,
    /// Function result symbol (FUNCTION units only).
    pub result: Option<SymbolId>,
    /// Line of the unit header.
    pub span: Span,
}

impl Unit {
    /// The symbol addressed by `id`.
    pub fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.index()]
    }

    /// Mutable access to the symbol addressed by `id`.
    pub fn symbol_mut(&mut self, id: SymbolId) -> &mut Symbol {
        &mut self.symbols[id.index()]
    }

    /// Look a symbol up by (lower-case) name.
    pub fn find_symbol(&self, name: &str) -> Option<SymbolId> {
        self.symbols
            .iter()
            .position(|s| s.name == name)
            .map(|i| SymbolId(i as u32))
    }

    /// Add a symbol, returning its id. Callers must keep names unique;
    /// use [`Unit::fresh_name`] for compiler temporaries.
    pub fn add_symbol(&mut self, sym: Symbol) -> SymbolId {
        debug_assert!(
            self.find_symbol(&sym.name).is_none(),
            "duplicate symbol `{}` in unit `{}`",
            sym.name,
            self.name
        );
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(sym);
        id
    }

    /// A name of the form `base$n` not yet present in the table.
    /// (`$` is legal in our identifier lexer and cannot collide with
    /// user Fortran names.)
    pub fn fresh_name(&self, base: &str) -> String {
        for n in 0u32.. {
            let cand = if n == 0 { base.to_string() } else { format!("{base}${n}") };
            if self.find_symbol(&cand).is_none() {
                return cand;
            }
        }
        unreachable!()
    }

    /// Convenience: add a fresh scalar local of type `ty`.
    pub fn add_scalar(&mut self, base: &str, ty: Ty, placement: Placement) -> SymbolId {
        let name = self.fresh_name(base);
        self.add_symbol(Symbol {
            name,
            ty,
            dims: Vec::new(),
            kind: SymKind::LoopLocal,
            placement,
            init: Vec::new(),
            span: Span::NONE,
        })
    }

    /// Convenience: add a fresh 1-D array local with bounds `1..=len`.
    pub fn add_array1(&mut self, base: &str, ty: Ty, len: Expr, placement: Placement) -> SymbolId {
        let name = self.fresh_name(base);
        self.add_symbol(Symbol {
            name,
            ty,
            dims: vec![Dim::simple(len)],
            kind: SymKind::LoopLocal,
            placement,
            init: Vec::new(),
            span: Span::NONE,
        })
    }
}

/// A COMMON block: ordered member layout shared across units. Members
/// are identified per-unit (each unit may name them differently); the
/// block itself carries the placement (`COMMON` → cluster,
/// `PROCESS COMMON` → global, §2.1 Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct CommonBlock {
    /// Block name (`$blank` for blank COMMON).
    pub name: String,
    /// `COMMON` → per-cluster; `PROCESS COMMON` → global.
    pub visibility: Visibility,
    /// Number of members; every unit must declare the block with the
    /// same member count (the lowerer enforces this; the simulator takes
    /// member shapes from the first unit that declares the block).
    pub members: usize,
}

/// A whole program: units plus shared COMMON block metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Units in source order.
    pub units: Vec<Unit>,
    /// COMMON block registry (name → layout metadata).
    pub commons: BTreeMap<String, CommonBlock>,
}

impl Program {
    /// Look a unit up by (lower-case) name.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// The main program unit (the entry point for simulation).
    pub fn main(&self) -> Option<&Unit> {
        self.units.iter().find(|u| u.kind == UnitKind::Program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_unit() -> Unit {
        Unit {
            name: "t".into(),
            kind: UnitKind::Subroutine,
            args: vec![],
            symbols: vec![],
            body: vec![],
            result: None,
            span: Span::NONE,
        }
    }

    #[test]
    fn fresh_names_do_not_collide() {
        let mut u = empty_unit();
        let a = u.add_scalar("t", Ty::Real, Placement::Private);
        let b = u.add_scalar("t", Ty::Real, Placement::Private);
        assert_ne!(u.symbol(a).name, u.symbol(b).name);
        assert_eq!(u.symbol(a).name, "t");
        assert_eq!(u.symbol(b).name, "t$1");
    }

    #[test]
    fn find_symbol_by_name() {
        let mut u = empty_unit();
        let a = u.add_scalar("x", Ty::Int, Placement::Default);
        assert_eq!(u.find_symbol("x"), Some(a));
        assert_eq!(u.find_symbol("y"), None);
    }
}
