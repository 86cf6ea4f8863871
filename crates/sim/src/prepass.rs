//! One-time interpreter prepass: derived per-program data computed at
//! [`Simulator::new`](crate::Simulator::new) so the hot execution loop
//! stops re-deriving it per frame, per call, and per loop entry.
//!
//! Two caches live here:
//!
//! * **Callee index** — `unit name → index` for CALL / function-call /
//!   task-start resolution, replacing a linear scan of `program.units`
//!   on every call. Pure lookup: cannot affect simulated behavior.
//! * **Constant-folded declared dims** — for every symbol whose declared
//!   bounds fold to integer constants against `PARAMETER`s, the dims
//!   *and the exact sequence of charges the interpreter's slow path
//!   would have made while evaluating them*. Frame construction
//!   (`new_frame`, `bind_locals`, `eval_dummy_dims`) then replays the
//!   recorded sequence through [`CostModel::charge`](crate::cost::CostModel::charge)
//!   instead of walking the expression trees.
//!
//! ## Why the replay is bit-identical
//!
//! Simulated time is an `f64` accumulator, and float addition does not
//! associate: collapsing k unit charges into one `k × cost` add could
//! drift by an ULP once the clock holds a non-dyadic value (e.g. after a
//! contention-scaled memory cost). So the fold does **not** sum the
//! charges — it records the *sequence* of charges, by class, that the
//! tree walk makes, in evaluation order (lower bound then upper
//! bound per dim; post-order within an expression), and the fast path
//! replays them one by one. Same adds, same order, same rounding —
//! bit-identical cycles by construction, which the fast-path
//! equivalence property test (`prop_fastpath.rs`) asserts over every
//! Table 1 kernel.
//!
//! The folder computes integers with the engines' own ops
//! (`cedar_ir::ops`: wrapping add/sub/mul/negation, truncating
//! division) and bails to `None` — meaning "use the slow path" — on
//! anything it cannot reproduce faithfully: non-integer parameters,
//! division by zero, missing upper bounds (assumed-size), or any
//! operator outside `+ - * /` and unary minus.
//! Race-detection runs also bypass the cache at the use site: the slow
//! path's `PARAMETER` reads pass through the detector's shadow memory,
//! and skipping them must not change detector state.

use crate::cost::CostClass;
use cedar_ir::{ops, BinOp, Expr, Program, SymKind, UnOp, Unit, Value};
use std::collections::HashMap;

/// Constant-folded declared dims of one symbol, plus the exact charge
/// sequence the interpreter's slow path would emit to evaluate them.
pub(crate) struct ConstDims {
    /// `(lower, upper)` per declared dimension.
    pub dims: Vec<(i64, i64)>,
    /// The charges of the slow path, in its evaluation order.
    pub charges: Vec<CostClass>,
}

/// Program-wide derived data, computed once per simulator.
pub(crate) struct Prepass {
    /// `unit name → index` into `program.units`.
    pub unit_index: HashMap<String, usize>,
    /// Per unit, per symbol: `Some` iff every declared bound folds to an
    /// integer constant. Indexed `[unit][symbol]`.
    pub sym_dims: Vec<Vec<Option<ConstDims>>>,
    /// Master switch ([`MachineConfig::fast_paths`](crate::MachineConfig::fast_paths));
    /// when false the dim cache is ignored and only the pure callee
    /// index is used.
    pub enabled: bool,
}

impl Prepass {
    pub fn build(program: &Program, enabled: bool) -> Prepass {
        let mut unit_index = HashMap::with_capacity(program.units.len());
        for (i, u) in program.units.iter().enumerate() {
            // First definition wins, matching `Iterator::position`.
            unit_index.entry(u.name.clone()).or_insert(i);
        }
        let sym_dims = program
            .units
            .iter()
            .map(|u| u.symbols.iter().map(|sym| fold_sym_dims(u, sym)).collect())
            .collect();
        Prepass { unit_index, sym_dims, enabled }
    }

    /// Cached dims for `[unit][symbol]`, honoring the master switch.
    pub fn dims(&self, unit: usize, sym: usize) -> Option<&ConstDims> {
        if !self.enabled {
            return None;
        }
        self.sym_dims.get(unit)?.get(sym)?.as_ref()
    }
}

/// Fold the declared dims of one symbol. `None` when any bound needs
/// runtime evaluation (adjustable arrays, assumed-size, real-typed
/// parameters, foldable-but-error cases like division by zero).
fn fold_sym_dims(unit: &Unit, sym: &cedar_ir::Symbol) -> Option<ConstDims> {
    if sym.dims.is_empty() {
        // Scalars pay nothing in eval_dims; caching buys nothing.
        return None;
    }
    let mut f = Folder { unit, charges: Vec::new() };
    let mut dims = Vec::with_capacity(sym.dims.len());
    for d in &sym.dims {
        let lo = f.fold(&d.lower)?;
        let hi = f.fold(d.upper.as_ref()?)?;
        dims.push((lo, hi));
    }
    Some(ConstDims { dims, charges: f.charges })
}

/// Symbolic mirror of `Simulator::eval_scalar` over the constant subset
/// of the expression language, recording the charge stream.
struct Folder<'a> {
    unit: &'a Unit,
    charges: Vec<CostClass>,
}

impl Folder<'_> {
    fn fold(&mut self, e: &Expr) -> Option<i64> {
        match e {
            Expr::ConstI(v) => Some(*v),
            Expr::Scalar(s) => match &self.unit.symbol(*s).kind {
                // Slow path: one cache-hit charge, then an integer load.
                SymKind::Param(Value::I(v)) => {
                    self.charges.push(CostClass::CacheHit);
                    Some(*v)
                }
                _ => None,
            },
            Expr::Un(UnOp::Neg, inner) => {
                let v = self.fold(inner)?;
                self.charges.push(CostClass::ScalarOp);
                Some(ops::neg_i(v))
            }
            Expr::Bin(op, l, r) => {
                let a = self.fold(l)?;
                let b = self.fold(r)?;
                self.charges.push(CostClass::ScalarOp);
                match op {
                    BinOp::Add => Some(ops::add_i(a, b)),
                    BinOp::Sub => Some(ops::sub_i(a, b)),
                    BinOp::Mul => Some(ops::mul_i(a, b)),
                    BinOp::Div => ops::div_i(a, b),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        cedar_ir::compile_source(src).expect("test source compiles")
    }

    #[test]
    fn folds_parameter_dims_with_charge_sequence() {
        let p = compile(
            "      program t\n\
             \x20     parameter (n = 8)\n\
             \x20     real a(n, 2*n)\n\
             \x20     a(1, 1) = 0.0\n\
             \x20     end\n",
        );
        let pre = Prepass::build(&p, true);
        let ui = pre.unit_index["t"];
        let si = p.units[ui].find_symbol("a").unwrap().index();
        let cd = pre.dims(ui, si).expect("dims fold");
        assert_eq!(cd.dims, vec![(1, 8), (1, 16)]);
        // Lowering substitutes PARAMETER refs with constants, so dim 1
        // (`n` → 8) charges nothing; dim 2 keeps the `2*8` multiply and
        // charges one scalar op, exactly like the slow walk.
        assert_eq!(cd.charges, vec![CostClass::ScalarOp]);
    }

    #[test]
    fn adjustable_dims_do_not_fold() {
        let p = compile(
            "      subroutine s(a, m)\n\
             \x20     real a(m)\n\
             \x20     a(1) = 0.0\n\
             \x20     end\n",
        );
        let pre = Prepass::build(&p, true);
        let ui = pre.unit_index["s"];
        let si = p.units[ui].find_symbol("a").unwrap().index();
        assert!(pre.dims(ui, si).is_none(), "runtime bound must not fold");
    }

    #[test]
    fn disabled_switch_hides_the_cache() {
        let p = compile(
            "      program t\n\
             \x20     real a(4)\n\
             \x20     a(1) = 0.0\n\
             \x20     end\n",
        );
        let pre = Prepass::build(&p, false);
        let ui = pre.unit_index["t"];
        let si = p.units[ui].find_symbol("a").unwrap().index();
        assert!(pre.dims(ui, si).is_none());
    }
}
