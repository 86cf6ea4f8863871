//! The globalization pass (§3.2): "identifies the variables used in
//! parallel loops involving processors from different clusters and then
//! marks them as GLOBAL. Any variable used by the processors in a single
//! cluster is marked as CLUSTER."
//!
//! Correctness on Cedar demands this: CLUSTER data has one copy per
//! cluster, so a value written by the serial portion (running on one
//! cluster) is invisible to the others unless the datum is GLOBAL.
//!
//! **Interface data** (§3.2) — dummy arguments and actuals at call
//! sites — takes the global default, but only where it can matter: when
//! the callee (transitively) runs cross-cluster loops. A routine that is
//! entirely sequential keeps its callers' data in cluster memory, which
//! is exactly the placement trade-off the paper describes ("Placing an
//! array in global memory may benefit some parallel loops, but slow
//! down some serial loops").
//!
//! With data partitioning enabled (§4.2.3 / Fig. 8), arrays that would
//! be globalized are instead marked `Partitioned`: blocks live in the
//! cluster memories and ≈half the references stay local.

use crate::config::PassConfig;
use cedar_ir::visit::{walk_expr, walk_stmt_exprs, walk_stmts};
use cedar_ir::{Expr, LoopClass, Placement, Program, Stmt, SymKind, SymbolId, Unit, Visibility};
use std::collections::{BTreeMap, BTreeSet};

/// Run globalization over the whole program.
pub fn run(program: &mut Program, cfg: &PassConfig) {
    // Pass 1a: which units (transitively) contain cross-cluster loops?
    let mut parallel_units: BTreeSet<String> = program
        .units
        .iter()
        .filter(|u| has_cross_cluster_loops(u))
        .map(|u| u.name.clone())
        .collect();
    let call_graph: BTreeMap<String, BTreeSet<String>> =
        program.units.iter().map(|u| (u.name.clone(), callees_of(u))).collect();
    loop {
        let mut changed = false;
        for (caller, callees) in &call_graph {
            if !parallel_units.contains(caller)
                && callees.iter().any(|c| parallel_units.contains(c))
            {
                parallel_units.insert(caller.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 1b: per-unit symbol sets to globalize.
    let mut to_globalize: BTreeMap<String, BTreeSet<SymbolId>> = BTreeMap::new();
    let mut global_commons: BTreeSet<String> = BTreeSet::new();
    for unit in &program.units {
        let mut set = cross_cluster_symbols(unit);
        // Interface data of parallel routines.
        if parallel_units.contains(&unit.name) {
            set.extend(unit.args.iter().copied());
        }
        // Actuals at call sites whose callee is (transitively) parallel.
        set.extend(parallel_call_actuals(unit, &parallel_units));
        for s in &set {
            if let SymKind::Common { block, .. } = &unit.symbol(*s).kind {
                global_commons.insert(block.clone());
            }
        }
        to_globalize.insert(unit.name.clone(), set);
    }
    // COMMON blocks are all-or-nothing: if any member anywhere went
    // global, every unit's members of that block must agree.
    for unit in &program.units {
        let set = to_globalize.get_mut(&unit.name).unwrap();
        for (si, s) in unit.symbols.iter().enumerate() {
            if let SymKind::Common { block, .. } = &s.kind {
                if global_commons.contains(block) {
                    set.insert(SymbolId(si as u32));
                }
            }
        }
    }

    // Pass 2: apply placements.
    for unit in &mut program.units {
        let set = &to_globalize[&unit.name];
        for &sym in set {
            let s = unit.symbol_mut(sym);
            if matches!(s.kind, SymKind::LoopLocal) || s.placement == Placement::Private {
                continue;
            }
            s.placement = if cfg.data_partitioning && s.is_array() {
                Placement::Partitioned
            } else {
                Placement::Global
            };
        }
    }
    for b in global_commons {
        if let Some(blk) = program.commons.get_mut(&b) {
            blk.visibility = Visibility::Global;
        }
    }
}

fn has_cross_cluster_loops(unit: &Unit) -> bool {
    let mut found = false;
    walk_stmts(&unit.body, &mut |s: &Stmt| {
        if let Stmt::Loop(l) = s {
            if matches!(
                l.class,
                LoopClass::SDoall | LoopClass::XDoall | LoopClass::SDoacross | LoopClass::XDoacross
            ) {
                found = true;
            }
        }
    });
    found
}

fn callees_of(unit: &Unit) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk_stmts(&unit.body, &mut |s: &Stmt| {
        if let Stmt::Call { callee, .. } | Stmt::TaskStart { callee, .. } = s {
            out.insert(callee.clone());
        }
        walk_stmt_exprs(s, false, &mut |e: &Expr| {
            walk_expr(e, &mut |x| {
                if let Expr::Call { unit: callee, .. } = x {
                    out.insert(callee.clone());
                }
            });
        });
    });
    out
}

/// Symbols passed as actual arguments to (transitively) parallel
/// callees.
fn parallel_call_actuals(unit: &Unit, parallel: &BTreeSet<String>) -> BTreeSet<SymbolId> {
    fn arg_symbols(args: &[Expr], out: &mut BTreeSet<SymbolId>) {
        for a in args {
            if let Expr::Scalar(v) | Expr::Elem { arr: v, .. } | Expr::Section { arr: v, .. } = a {
                out.insert(*v);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk_stmts(&unit.body, &mut |s: &Stmt| {
        match s {
            Stmt::Call { callee, args, .. } if parallel.contains(callee) => {
                arg_symbols(args, &mut out);
            }
            // A task may run on any cluster: its actuals must be global
            // regardless of the callee's own loop classes.
            Stmt::TaskStart { args, .. } => arg_symbols(args, &mut out),
            _ => {}
        }
        walk_stmt_exprs(s, false, &mut |e: &Expr| {
            walk_expr(e, &mut |x| {
                if let Expr::Call { unit: callee, args } = x {
                    if parallel.contains(callee) {
                        arg_symbols(args, &mut out);
                    }
                }
            });
        });
    });
    out
}

/// Symbols referenced anywhere inside an SDOALL/XDOALL (cross-cluster)
/// loop of the unit, including the loop headers' bound expressions.
fn cross_cluster_symbols(unit: &Unit) -> BTreeSet<SymbolId> {
    let mut out = BTreeSet::new();
    walk_stmts(&unit.body, &mut |s: &Stmt| {
        if let Stmt::Loop(l) = s {
            if matches!(
                l.class,
                LoopClass::SDoall | LoopClass::XDoall | LoopClass::SDoacross | LoopClass::XDoacross
            ) {
                collect_symbols(s, &mut out);
            }
        }
    });
    out
}

fn collect_symbols(root: &Stmt, out: &mut BTreeSet<SymbolId>) {
    walk_stmts(std::slice::from_ref(root), &mut |s: &Stmt| {
        walk_stmt_exprs(s, false, &mut |e: &Expr| {
            walk_expr(e, &mut |x| {
                if let Expr::Scalar(v) | Expr::Elem { arr: v, .. } | Expr::Section { arr: v, .. } =
                    x
                {
                    out.insert(*v);
                }
            });
        });
        if let Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } = s {
            out.insert(lhs.base());
        }
        if let Stmt::Loop(l) = s {
            out.insert(l.var);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    #[test]
    fn xdoall_data_becomes_global() {
        let mut p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n), w(10)\nxdoall i = 1, n\n\
             a(i) = b(i)\nend xdoall\nw(1) = 1.0\nend\n",
        )
        .unwrap();
        run(&mut p, &PassConfig::automatic_1991());
        let u = &p.units[0];
        for name in ["a", "b", "n"] {
            let s = u.find_symbol(name).unwrap();
            assert_eq!(u.symbol(s).placement, Placement::Global, "{name}");
        }
        // w only used serially: stays default (cluster).
        let w = u.find_symbol("w").unwrap();
        assert_eq!(u.symbol(w).placement, Placement::Default);
    }

    #[test]
    fn cdoall_local_data_stays_cluster() {
        let mut p = compile_free(
            "program p\nreal a(64), b(64)\ncdoall i = 1, 64\n\
             a(i) = b(i)\nend cdoall\nend\n",
        )
        .unwrap();
        run(&mut p, &PassConfig::automatic_1991());
        let u = &p.units[0];
        let a = u.find_symbol("a").unwrap();
        assert_eq!(u.symbol(a).placement, Placement::Default);
    }

    #[test]
    fn interface_data_of_parallel_callee_goes_global() {
        let mut p = compile_free(
            "program p\nreal x(32)\ncall s(x, 32)\nend\n\
             subroutine s(a, n)\nreal a(n)\nxdoall i = 1, n\na(i) = 1.0\nend xdoall\nend\n",
        )
        .unwrap();
        run(&mut p, &PassConfig::automatic_1991());
        let main = p.unit("p").unwrap();
        let x = main.find_symbol("x").unwrap();
        assert_eq!(main.symbol(x).placement, Placement::Global);
        let s = p.unit("s").unwrap();
        let a = s.find_symbol("a").unwrap();
        assert_eq!(s.symbol(a).placement, Placement::Global);
    }

    #[test]
    fn serial_callee_keeps_cluster_placement() {
        // The paper's trade-off: a wholly sequential routine must not
        // drag its caller's data into global memory.
        let mut p = compile_free(
            "program p\nreal x(32)\ncall s(x, 32)\nend\n\
             subroutine s(a, n)\nreal a(n)\ndo i = 2, n\na(i) = a(i - 1)\nend do\nend\n",
        )
        .unwrap();
        run(&mut p, &PassConfig::automatic_1991());
        let main = p.unit("p").unwrap();
        let x = main.find_symbol("x").unwrap();
        assert_eq!(main.symbol(x).placement, Placement::Default);
        let s = p.unit("s").unwrap();
        let a = s.find_symbol("a").unwrap();
        assert_eq!(s.symbol(a).placement, Placement::Default);
    }

    #[test]
    fn loop_locals_stay_private() {
        let mut p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\nxdoall i = 1, n\nreal t\n\
             t = b(i)\na(i) = t\nend xdoall\nend\n",
        )
        .unwrap();
        run(&mut p, &PassConfig::automatic_1991());
        let u = &p.units[0];
        let Stmt::Loop(l) = &u.body[0] else { panic!() };
        assert_eq!(u.symbol(l.locals[0]).placement, Placement::Private);
    }

    #[test]
    fn common_block_promoted_to_global_everywhere() {
        let mut p = compile_free(
            "subroutine s(n)\ncommon /blk/ w(100)\nxdoall i = 1, n\n\
             w(i) = 1.0\nend xdoall\nend\n\
             subroutine r\ncommon /blk/ v(100)\nv(1) = 2.0\nend\n",
        )
        .unwrap();
        run(&mut p, &PassConfig::automatic_1991());
        assert_eq!(p.commons["blk"].visibility, Visibility::Global);
        // The serial unit's member symbol agrees.
        let r = p.unit("r").unwrap();
        let v = r.find_symbol("v").unwrap();
        assert_eq!(r.symbol(v).placement, Placement::Global);
    }

    #[test]
    fn partitioning_marks_arrays_partitioned() {
        let mut p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\nsdoall i = 1, n\n\
             a(i) = b(i)\nend sdoall\nend\n",
        )
        .unwrap();
        let mut cfg = PassConfig::manual_improved();
        cfg.data_partitioning = true;
        run(&mut p, &cfg);
        let u = &p.units[0];
        let a = u.find_symbol("a").unwrap();
        let n = u.find_symbol("n").unwrap();
        assert_eq!(u.symbol(a).placement, Placement::Partitioned);
        // scalars still go global
        assert_eq!(u.symbol(n).placement, Placement::Global);
    }
}
