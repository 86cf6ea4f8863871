//! Inline subroutine expansion (§3.2, §4.1.1): "The Cedar restructurer
//! provides inline expansion of subroutine calls as an option to reduce
//! the number of routine boundaries and meet some interprocedural
//! analysis needs."
//!
//! Scope of the implementation: CALLs to SUBROUTINE units whose body is
//! at most [`MAX_BODY_STMTS`] statements, where every actual argument is
//! a bare variable (scalar or whole array) and the dummy's rank matches.
//! Callee locals get fresh caller symbols; COMMON members map to the
//! caller's (added if absent). These are exactly the cases where
//! inlining is a pure symbol substitution — the paper notes the 1991
//! inliner failed on deep nests and array reshaping, which we likewise
//! refuse.

use cedar_ir::visit::{rename_expr, rename_symbols, walk_stmts_mut};
use cedar_ir::{Expr, LValue, Program, Stmt, SymKind, SymbolId, Unit, UnitKind};
use std::collections::BTreeMap;

/// Statement-count threshold for inlining.
pub const MAX_BODY_STMTS: usize = 40;

/// Expand eligible calls throughout the program (one round, innermost
/// first — recursion is naturally limited because a routine is never
/// inlined into itself).
pub fn expand(program: &mut Program) -> usize {
    let mut inlined = 0;
    let callees: Vec<Unit> = program.units.clone();
    for unit in &mut program.units {
        let name = unit.name.clone();
        let mut body = std::mem::take(&mut unit.body);
        inlined += expand_block(unit, &mut body, &callees, &name);
        unit.body = body;
    }
    inlined
}

fn expand_block(
    caller: &mut Unit,
    body: &mut Vec<Stmt>,
    callees: &[Unit],
    self_name: &str,
) -> usize {
    let mut n = 0;
    let mut k = 0;
    while k < body.len() {
        // Recurse into structured statements.
        match &mut body[k] {
            Stmt::Loop(l) => {
                n += expand_block(caller, &mut l.body, callees, self_name);
            }
            Stmt::If { then_body, elifs, else_body, .. } => {
                n += expand_block(caller, then_body, callees, self_name);
                for (_, b) in elifs.iter_mut() {
                    n += expand_block(caller, b, callees, self_name);
                }
                n += expand_block(caller, else_body, callees, self_name);
            }
            Stmt::DoWhile { body: b, .. } => {
                n += expand_block(caller, b, callees, self_name);
            }
            _ => {}
        }
        let replacement = if let Stmt::Call { callee, args, .. } = &body[k] {
            if callee != self_name {
                callees
                    .iter()
                    .find(|u| u.name == *callee && u.kind == UnitKind::Subroutine)
                    .and_then(|target| try_inline(caller, target, args))
            } else {
                None
            }
        } else {
            None
        };
        match replacement {
            Some(stmts) => {
                let len = stmts.len();
                body.splice(k..k + 1, stmts);
                n += 1;
                k += len;
            }
            None => k += 1,
        }
    }
    n
}

/// Attempt to inline one call; `None` when ineligible.
fn try_inline(caller: &mut Unit, callee: &Unit, args: &[Expr]) -> Option<Vec<Stmt>> {
    if count_stmts(&callee.body) > MAX_BODY_STMTS {
        return None;
    }
    if args.len() != callee.args.len() {
        return None;
    }
    // No RETURN in the middle (a trailing RETURN is fine).
    if has_inner_return(&callee.body) {
        return None;
    }

    // Build the symbol map callee-id → caller-id.
    let mut map: BTreeMap<SymbolId, SymbolId> = BTreeMap::new();
    let mut const_temps: Vec<(SymbolId, Expr)> = Vec::new();
    for (pos, actual) in args.iter().enumerate() {
        let dummy = callee.args[pos];
        let dsym = callee.symbol(dummy);
        match actual {
            Expr::Scalar(a) => {
                if dsym.is_array() || caller.symbol(*a).is_array() {
                    return None;
                }
                map.insert(dummy, *a);
            }
            Expr::Section { arr, idx }
                if idx.iter().all(|i| {
                    matches!(i, cedar_ir::Index::Range { lo: None, hi: None, step: None })
                }) =>
            {
                // Whole-array actual; ranks must match.
                if caller.symbol(*arr).dims.len() != dsym.dims.len() {
                    return None;
                }
                map.insert(dummy, *arr);
            }
            // Constant actuals: materialize a by-value temp in the
            // caller (`tmp = const` prepended before the inlined body).
            Expr::ConstI(_) | Expr::ConstR { .. } | Expr::ConstB(_) => {
                if dsym.is_array() {
                    return None;
                }
                let name = caller.fresh_name(&format!("{}${}", callee.name, dsym.name));
                let tmp = caller.add_symbol(cedar_ir::Symbol {
                    name,
                    ty: dsym.ty,
                    dims: Vec::new(),
                    kind: SymKind::Local,
                    placement: cedar_ir::Placement::Default,
                    init: Vec::new(),
                    span: dsym.span,
                });
                const_temps.push((tmp, actual.clone()));
                map.insert(dummy, tmp);
            }
            _ => return None,
        }
    }

    // Fresh caller symbols for callee locals (and COMMON member
    // bridging).
    for (si, sym) in callee.symbols.iter().enumerate() {
        let sid = SymbolId(si as u32);
        if map.contains_key(&sid) {
            continue;
        }
        match &sym.kind {
            SymKind::Arg(_) => return None, // must have been mapped
            SymKind::Common { block, member } => {
                // Find or create the caller's member symbol.
                let existing = caller.symbols.iter().position(|s| {
                    matches!(&s.kind, SymKind::Common { block: b, member: m } if b == block && m == member)
                });
                let cid = match existing {
                    Some(i) => SymbolId(i as u32),
                    None => {
                        // Dims of COMMON members must be literal here
                        // (PARAMETER-based dims would need the constants
                        // imported too — refuse those calls).
                        if !sym.dims.iter().all(|d| {
                            d.lower.as_const_int().is_some()
                                && d.upper.as_ref().is_some_and(|u| u.as_const_int().is_some())
                        }) {
                            return None;
                        }
                        let mut ns = sym.clone();
                        ns.name = caller.fresh_name(&sym.name);
                        caller.add_symbol(ns)
                    }
                };
                map.insert(sid, cid);
            }
            _ => {
                // Local / Param / LoopLocal: clone under a fresh name.
                // Dims may reference other callee symbols — remap below
                // after all ids exist; for now clone raw and fix up.
                let mut ns = sym.clone();
                ns.name = caller.fresh_name(&format!("{}${}", callee.name, sym.name));
                let cid = caller.add_symbol(ns);
                map.insert(sid, cid);
            }
        }
    }

    let mut rename = |s: SymbolId| *map.get(&s).unwrap_or(&s);
    // Fix up dim expressions of the cloned symbols.
    let cloned: Vec<(SymbolId, SymbolId)> = map.iter().map(|(a, b)| (*a, *b)).collect();
    for (callee_id, caller_id) in &cloned {
        let csym = callee.symbol(*callee_id);
        if matches!(csym.kind, SymKind::Arg(_)) {
            continue;
        }
        if caller.symbol(*caller_id).name.contains('$') && csym.is_array() {
            let new_dims: Vec<cedar_ir::symbol::Dim> = csym
                .dims
                .iter()
                .map(|d| cedar_ir::symbol::Dim {
                    lower: rename_expr(&d.lower, &mut rename),
                    upper: d.upper.as_ref().map(|u| rename_expr(u, &mut rename)),
                })
                .collect();
            caller.symbol_mut(*caller_id).dims = new_dims;
        }
    }

    // Rewrite the body.
    let mut out = Vec::with_capacity(callee.body.len() + const_temps.len());
    for (tmp, val) in &const_temps {
        out.push(Stmt::Assign {
            lhs: LValue::Scalar(*tmp),
            rhs: val.clone(),
            span: cedar_ir::Span::NONE,
        });
    }
    let body = out.len();
    out.extend(callee.body.iter().filter(|s| !matches!(s, Stmt::Return)).cloned());
    rename_symbols(&mut out[body..], &mut rename);
    walk_stmts_mut(&mut out[body..], &mut |s| {
        if let Stmt::Loop(l) = s {
            l.var = rename(l.var);
            l.locals.iter_mut().for_each(|v| *v = rename(*v));
        }
    });
    Some(out)
}

fn count_stmts(body: &[Stmt]) -> usize {
    let mut n = 0;
    cedar_ir::visit::walk_stmts(body, &mut |_| n += 1);
    n
}

fn has_inner_return(body: &[Stmt]) -> bool {
    let mut n = 0;
    let mut seen_non_trailing = false;
    cedar_ir::visit::walk_stmts(body, &mut |s| {
        n += 1;
        if matches!(s, Stmt::Return) {
            seen_non_trailing = true;
        }
    });
    // Allow exactly one RETURN if it is the final top-level statement.
    if let Some(Stmt::Return) = body.last() {
        let mut inner = 0;
        cedar_ir::visit::walk_stmts(&body[..body.len() - 1], &mut |s| {
            if matches!(s, Stmt::Return) {
                inner += 1;
            }
        });
        return inner > 0;
    }
    seen_non_trailing
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;
    use cedar_ir::print::print_program;

    #[test]
    fn simple_call_inlines() {
        let mut p = compile_free(
            "subroutine top(x, y, n)\nreal x(n), y(n)\ncall axpy(x, y, n)\nend\n\
             subroutine axpy(a, b, m)\nreal a(m), b(m)\ndo i = 1, m\n\
             b(i) = b(i) + a(i)\nend do\nend\n",
        )
        .unwrap();
        let n = expand(&mut p);
        assert_eq!(n, 1);
        let top = p.unit("top").unwrap();
        assert!(matches!(top.body[0], Stmt::Loop(_)));
        let text = print_program(&p);
        assert!(!text.contains("call axpy"), "{text}");
    }

    #[test]
    fn callee_locals_get_fresh_names() {
        let mut p = compile_free(
            "subroutine top(x, n)\nreal x(n)\nt = 1.0\ncall f(x, n)\nx(1) = t\nend\n\
             subroutine f(a, m)\nreal a(m)\nt = 2.0\na(1) = t\nend\n",
        )
        .unwrap();
        expand(&mut p);
        let top = p.unit("top").unwrap();
        // Two distinct `t`s must exist.
        assert!(top.find_symbol("t").is_some());
        assert!(top.find_symbol("f$t").is_some());
    }

    #[test]
    fn expression_actual_blocks_inlining() {
        let mut p = compile_free(
            "subroutine top(x, n)\nreal x(n)\ncall f(x, n + 1)\nend\n\
             subroutine f(a, m)\nreal a(*)\na(1) = m\nend\n",
        )
        .unwrap();
        assert_eq!(expand(&mut p), 0);
    }

    #[test]
    fn element_actual_blocks_inlining() {
        let mut p = compile_free(
            "subroutine top(x, n)\nreal x(n, n)\ncall f(x(1, 2), n)\nend\n\
             subroutine f(a, m)\nreal a(m)\na(1) = 0.0\nend\n",
        )
        .unwrap();
        assert_eq!(expand(&mut p), 0);
    }

    #[test]
    fn functions_are_not_inlined() {
        let mut p =
            compile_free("program p\nx = g(1.0)\nend\nreal function g(v)\ng = v + 1.0\nend\n")
                .unwrap();
        assert_eq!(expand(&mut p), 0);
    }

    #[test]
    fn inlined_program_computes_same_result() {
        let src = "program p\nparameter (n = 16)\nreal x(n), y(n)\ndo i = 1, n\n\
                   x(i) = i * 1.0\ny(i) = 1.0\nend do\ncall axpy(x, y, n)\n\
                   s = y(n)\nend\n\
                   subroutine axpy(a, b, m)\nreal a(m), b(m)\ndo i = 1, m\n\
                   b(i) = b(i) + 2.0 * a(i)\nend do\nend\n";
        let p0 = compile_free(src).unwrap();
        let mut p1 = p0.clone();
        expand(&mut p1);
        let cfg = cedar_sim::MachineConfig::cedar_config1();
        let r0 = cedar_sim::run(&p0, cfg.clone()).unwrap();
        let r1 = cedar_sim::run(&p1, cfg).unwrap();
        assert_eq!(r0.read_f64("s"), r1.read_f64("s"));
    }
}
