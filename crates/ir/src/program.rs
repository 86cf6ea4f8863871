//! Program units and whole-program structure.

use crate::expr::{BinOp, Expr, UnOp};
use crate::ops;
use crate::stmt::Stmt;
use crate::symbol::{Dim, Placement, SymKind, Symbol, SymbolId};
use crate::types::{Ty, Value};
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
        self.symbols.iter().position(|s| s.name == name).map(|i| SymbolId(i as u32))
    }

    /// The value of `e` if it is a constant expression: literals and
    /// PARAMETER symbols under the operators, each computed by
    /// [`ops`](crate::ops) as the engines compute it. INTEGER arithmetic
    /// is checked, so an overflow, a division by zero or `0 ** -k` is
    /// not a constant.
    pub fn const_value(&self, e: &Expr) -> Option<Value> {
        Some(match e {
            Expr::ConstI(v) => Value::I(*v),
            Expr::ConstR { value, .. } => Value::R(*value),
            Expr::ConstB(b) => Value::B(*b),
            Expr::Scalar(s) => match &self.symbol(*s).kind {
                SymKind::Param(v) => *v,
                _ => return None,
            },
            Expr::Un(op, inner) => {
                let v = self.const_value(inner)?;
                if let (UnOp::Neg, Value::I(a)) = (op, v) {
                    a.checked_neg()?;
                }
                ops::un(*op, v)
            }
            Expr::Bin(op, l, r) => {
                let (a, b) = (self.const_value(l)?, self.const_value(r)?);
                if let (Value::I(x), Value::I(y)) = (a, b) {
                    let checked = match op {
                        BinOp::Add => x.checked_add(y),
                        BinOp::Sub => x.checked_sub(y),
                        BinOp::Mul => x.checked_mul(y),
                        BinOp::Div => x.checked_div(y),
                        BinOp::Pow if y >= 0 => x.checked_pow(u32::try_from(y).ok()?),
                        _ => Some(x),
                    };
                    checked?;
                }
                ops::bin(*op, a, b).ok()?
            }
            _ => return None,
        })
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
    fn parameter_becomes_constant() {
        let p = crate::compile_free(
            "subroutine s\nparameter (n = 10, m = n * 2)\nreal a(m)\na(1) = n\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let m = u.find_symbol("m").unwrap();
        assert_eq!(u.symbol(m).kind, SymKind::Param(Value::I(20)));
        let a = u.find_symbol("a").unwrap();
        // Parameter references fold at use sites, so the bound is const.
        assert_eq!(u.symbol(a).const_len(), Some(20));
    }

    #[test]
    fn integer_constants_are_checked() {
        let mut u = empty_unit();
        let n = u.add_scalar("n", Ty::Int, Placement::Default);
        u.symbol_mut(n).kind = SymKind::Param(Value::I(i64::MAX));
        let k = u.add_scalar("k", Ty::Int, Placement::Default);
        let (i, n) = (Expr::ConstI, Expr::Scalar(n));
        assert_eq!(u.const_value(&Expr::Scalar(k)), None);
        let value = |op, l, r| u.const_value(&Expr::bin(op, l, r));
        assert_eq!(u.const_value(&n), Some(Value::I(i64::MAX)));
        assert_eq!(value(BinOp::Sub, n.clone(), i(1)), Some(Value::I(i64::MAX - 1)));
        assert_eq!(value(BinOp::Add, n.clone(), i(1)), None);
        assert_eq!(value(BinOp::Sub, i(i64::MIN), i(1)), None);
        assert_eq!(value(BinOp::Mul, Expr::bin(BinOp::Pow, i(2), i(62)), i(4)), None);
        assert_eq!(value(BinOp::Pow, i(-2), i(63)), Some(Value::I(i64::MIN)));
        assert_eq!(value(BinOp::Pow, i(2), i(63)), None);
        assert_eq!(value(BinOp::Pow, i(2), i(-1)), Some(Value::I(0)));
        assert_eq!(value(BinOp::Pow, i(0), i(-1)), None);
        assert_eq!(value(BinOp::Div, i(1), i(0)), None);
        assert_eq!(value(BinOp::Div, i(i64::MIN), i(-1)), None);
        assert_eq!(u.const_value(&Expr::Un(UnOp::Neg, Box::new(i(i64::MIN)))), None);
        assert_eq!(
            u.const_value(&Expr::Un(UnOp::Neg, Box::new(i(i64::MAX)))),
            Some(Value::I(-i64::MAX))
        );
        // Mixed arithmetic is real, where overflow is infinity.
        assert_eq!(value(BinOp::Mul, n, Expr::real(2.0)), Some(Value::R(i64::MAX as f64 * 2.0)));
    }

    #[test]
    fn find_symbol_by_name() {
        let mut u = empty_unit();
        let a = u.add_scalar("x", Ty::Int, Placement::Default);
        assert_eq!(u.find_symbol("x"), Some(a));
        assert_eq!(u.find_symbol("y"), None);
    }
}
