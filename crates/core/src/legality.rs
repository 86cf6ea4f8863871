//! Per-loop legality analysis: combines the `cedar-analysis` machinery
//! into a verdict the driver can act on.

use crate::config::{Level, PassConfig};
use cedar_analysis::array_private::{classify_array, ArrayPrivStatus};
use cedar_analysis::depend::{self, LoopDeps};
use cedar_analysis::induction::{find_givs, Giv, GivKind};
use cedar_analysis::interproc::ProgramSummaries;
use cedar_analysis::reduction::{find_reductions, Reduction};
use cedar_analysis::runtime_test::LinearizedPattern;
use cedar_analysis::scalar::{classify_scalar, ScalarStatus};
use cedar_ir::{Loop, SymbolId, Unit};
use std::collections::BTreeSet;

/// Everything the driver needs to know about one loop.
#[derive(Debug)]
pub struct Verdict {
    /// Parallel as DOALL once the listed removals are applied.
    pub doall: bool,
    /// Human-readable blockers when `doall` is false.
    pub blockers: Vec<String>,
    /// Scalars to privatize (none need last-value assignment — those
    /// stay blocking).
    pub private_scalars: Vec<SymbolId>,
    /// Arrays to privatize (§4.1.2).
    pub private_arrays: Vec<SymbolId>,
    /// Recognized reductions to transform.
    pub reductions: Vec<Reduction>,
    /// Recognized (generalized) induction variables to substitute.
    pub givs: Vec<Giv>,
    /// Constant-distance carried flow dependences (array, distance):
    /// DOACROSS candidate when this is the only blocker.
    pub doacross_deps: Vec<(SymbolId, i64)>,
    /// All remaining carried dependences have unknown shape but every
    /// reference to the blocking arrays is a commutative accumulation —
    /// critical-section candidate (§4.1.6).
    pub critical_arrays: Vec<SymbolId>,
    /// Linearized-subscript pattern for the run-time test (§4.1.5).
    pub runtime_pattern: Option<LinearizedPattern>,
    /// The raw dependence analysis (for sync insertion).
    pub deps: LoopDeps,
}

/// Analyze `l` under the configured technique set. Runs only inside the
/// parallelizing pipeline, so §3's techniques are always on; §4.1's are
/// on at [`Level::Manual`]. `summaries` (§4.1.1) are computed only at
/// that level.
pub fn analyze(
    unit: &Unit,
    l: &Loop,
    cfg: &PassConfig,
    summaries: Option<&ProgramSummaries>,
) -> Verdict {
    let manual = cfg.level == Level::Manual;
    let deps = depend::analyze_loop(unit, l, summaries);

    let mut blockers: Vec<String> = Vec::new();

    // ---- reductions ----
    let all_reds = find_reductions(l);
    let reductions: Vec<Reduction> = all_reds
        .into_iter()
        // Simple scalar reductions are §3.3; array-element and
        // multi-statement reductions are §4.1.3.
        .filter(|r| manual || !(r.is_array || r.n_statements > 1))
        // Array accumulations with *unanalyzable* subscripts (MDG/TRACK
        // histograms) go to the critical-section path (§4.1.6) rather
        // than the private-copy reduction transform.
        .filter(|r| !(r.is_array && manual && deps.unanalyzable_written.contains(&r.target)))
        // A "reduction" whose target carries no actual cross-iteration
        // dependence (e.g. `x(i) = x(i) + t` — each iteration touches
        // its own element) needs no transform: plain DOALL handles it
        // without per-participant partials.
        .filter(|r| {
            if !r.is_array {
                return true; // scalar accumulators always carry
            }
            deps.deps.iter().any(|d| d.arr == r.target)
                || deps.unanalyzable_written.contains(&r.target)
        })
        .collect();
    let red_targets: BTreeSet<SymbolId> = reductions.iter().map(|r| r.target).collect();

    // ---- induction variables ----
    let written = deps.refs.scalar_writes.clone();
    let inner = deps.refs.inner_ivars.clone();
    let lvar = l.var;
    let invariant = move |s: SymbolId| s != lvar && !written.contains(&s) && !inner.contains(&s);
    let givs: Vec<Giv> = find_givs(l, &invariant)
        .into_iter()
        .filter(|g| match g.kind {
            // Plain constant-step additive IVs were classic KAP
            // technology; geometric/triangular are §4.1.4.
            GivKind::Additive { ref step } => step.as_const_int().is_some() || manual,
            _ => manual,
        })
        // A GIV used *after* the loop would need a final-value
        // assignment, which the substitution pass emits only for
        // closed-form-safe cases; keep only non-live-out GIVs plus
        // additive ones (final value is cheap to emit).
        .collect();
    let giv_vars: BTreeSet<SymbolId> = givs.iter().map(|g| g.var).collect();

    // ---- scalar blockers (§3.2 scalar privatization) ----
    let mut private_scalars = Vec::new();
    for s in deps.refs.written_non_ivar_scalars() {
        if s == l.var || red_targets.contains(&s) || giv_vars.contains(&s) {
            continue;
        }
        match classify_scalar(unit, l, s) {
            ScalarStatus::Privatizable { needs_last_value: false } => private_scalars.push(s),
            ScalarStatus::Privatizable { needs_last_value: true } => {
                blockers
                    .push(format!("scalar `{}` needs last-value assignment", unit.symbol(s).name));
            }
            ScalarStatus::CrossIteration => {
                blockers.push(format!(
                    "scalar `{}` carries a value across iterations",
                    unit.symbol(s).name
                ));
            }
            ScalarStatus::ReadOnly => {}
        }
    }

    // ---- array dependences ----
    let mut private_arrays = Vec::new();
    let mut dep_arrays: BTreeSet<SymbolId> = BTreeSet::new();
    for d in &deps.deps {
        if red_targets.contains(&d.arr) {
            continue; // handled by reduction transform
        }
        dep_arrays.insert(d.arr);
    }
    for arr in std::mem::take(&mut dep_arrays) {
        // Array privatization (§4.1.2).
        if manual && classify_array(unit, l, arr) == ArrayPrivStatus::Privatizable {
            private_arrays.push(arr);
        } else {
            dep_arrays.insert(arr);
        }
    }

    // Unanalyzable written arrays: reduction / privatization / critical
    // section may still rescue them.
    let mut critical_arrays = Vec::new();
    let mut hard_unanalyzable = Vec::new();
    for arr in &deps.unanalyzable_written {
        if red_targets.contains(arr) {
            continue;
        }
        // Array privatization (§4.1.2).
        if manual && classify_array(unit, l, *arr) == ArrayPrivStatus::Privatizable {
            private_arrays.push(*arr);
            continue;
        }
        // Unordered critical sections (§4.1.6).
        if manual && all_refs_are_accumulations(l, *arr) {
            critical_arrays.push(*arr);
            continue;
        }
        hard_unanalyzable.push(*arr);
    }

    // Remaining carried deps after privatization.
    let doacross_deps: Vec<(SymbolId, i64)> = deps
        .deps
        .iter()
        .filter(|d| dep_arrays.contains(&d.arr) && !private_arrays.contains(&d.arr))
        .filter_map(|d| d.distance.map(|dist| (d.arr, dist)))
        .collect();
    let all_remaining_have_distance = deps
        .deps
        .iter()
        .filter(|d| dep_arrays.contains(&d.arr) && !private_arrays.contains(&d.arr))
        .all(|d| d.distance.is_some());

    for arr in dep_arrays.iter().filter(|a| !private_arrays.contains(a)) {
        blockers.push(format!("carried dependence on array `{}`", unit.symbol(*arr).name));
    }
    for arr in &hard_unanalyzable {
        blockers
            .push(format!("unanalyzable subscripts on written array `{}`", unit.symbol(*arr).name));
    }
    if deps.refs.has_opaque_calls {
        blockers.push("loop body contains calls with unknown side effects".into());
    }

    // ---- run-time test candidate (§4.1.5) ----
    // Applicable when the only blockers are unanalyzable 1-D subscripts
    // that match the linearized pattern.
    let runtime_pattern = if manual
        && !hard_unanalyzable.is_empty()
        && dep_arrays.iter().all(|a| private_arrays.contains(a))
        && !deps.refs.has_opaque_calls
    {
        let written2 = deps.refs.scalar_writes.clone();
        let inner2 = deps.refs.inner_ivars.clone();
        let lv = l.var;
        let targets: std::collections::BTreeSet<SymbolId> =
            hard_unanalyzable.iter().copied().collect();
        cedar_analysis::runtime_test::find_linearized_for(
            unit,
            l,
            &move |s| s != lv && !written2.contains(&s) && !inner2.contains(&s),
            Some(&targets),
        )
        .filter(|p| hard_unanalyzable.contains(&p.arr) && hard_unanalyzable.len() == 1)
    } else {
        None
    };

    // Critical-section arrays are not blockers in the message sense but
    // still forbid a plain DOALL (the driver takes the critical path).
    let doall = blockers.is_empty() && critical_arrays.is_empty();
    // DOACROSS viability (§3.3): every blocker is a known-distance
    // dependence.
    let doacross_ok = !doall
        && !doacross_deps.is_empty()
        && all_remaining_have_distance
        && hard_unanalyzable.is_empty()
        && !deps.refs.has_opaque_calls
        && blockers.iter().all(|b| b.starts_with("carried dependence"));

    Verdict {
        doall,
        blockers,
        private_scalars,
        private_arrays,
        reductions,
        givs,
        doacross_deps: if doacross_ok { doacross_deps } else { Vec::new() },
        critical_arrays,
        runtime_pattern,
        deps,
    }
}

/// Every reference to `arr` in the loop is part of a `a(e) = a(e) ⊕ x`
/// accumulation statement (commutative; legal inside a critical
/// section).
fn all_refs_are_accumulations(l: &Loop, arr: SymbolId) -> bool {
    // Reuse the reduction recognizer on a filtered view: run it and ask
    // whether `arr` is a (possibly disqualified-for-mixed-op) target.
    // Simpler: scan statements directly.
    use cedar_ir::{BinOp, Expr, LValue, Stmt};
    fn scan(body: &[Stmt], arr: SymbolId, ok: &mut bool) {
        for s in body {
            match s {
                Stmt::Assign { lhs, rhs, .. } => {
                    let lhs_is_target = matches!(lhs, LValue::Elem { arr: a, .. } if *a == arr);
                    let rhs_refs = count_refs(rhs, arr);
                    if lhs_is_target {
                        // Must be a(e) = a(e) op x with matching e.
                        let LValue::Elem { idx, .. } = lhs else { unreachable!() };
                        let canonical = match rhs {
                            Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul, l2, r2) => {
                                matches!(&**l2, Expr::Elem { arr: a, idx: i2 } if *a == arr && i2 == idx)
                                    && count_refs(r2, arr) == 0
                                    || matches!(&**r2, Expr::Elem { arr: a, idx: i2 } if *a == arr && i2 == idx)
                                        && count_refs(l2, arr) == 0
                            }
                            _ => false,
                        };
                        if !canonical {
                            *ok = false;
                        }
                    } else if rhs_refs > 0 {
                        *ok = false; // read outside an accumulation
                    }
                }
                Stmt::If { cond, then_body, elifs, else_body, .. } => {
                    if count_refs(cond, arr) > 0 {
                        *ok = false;
                    }
                    scan(then_body, arr, ok);
                    for (c, b) in elifs {
                        if count_refs(c, arr) > 0 {
                            *ok = false;
                        }
                        scan(b, arr, ok);
                    }
                    scan(else_body, arr, ok);
                }
                Stmt::Loop(inner) => scan(&inner.body, arr, ok),
                Stmt::DoWhile { body, .. } => scan(body, arr, ok),
                Stmt::Call { args, .. } => {
                    for a in args {
                        if count_refs(a, arr) > 0 {
                            *ok = false;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    fn count_refs(e: &cedar_ir::Expr, arr: SymbolId) -> usize {
        let mut n = 0;
        cedar_ir::visit::walk_expr(e, &mut |x| {
            if matches!(x, cedar_ir::Expr::Elem { arr: a, .. } | cedar_ir::Expr::Section { arr: a, .. } if *a == arr)
            {
                n += 1;
            }
        });
        n
    }
    let mut ok = true;
    scan(&l.body, arr, &mut ok);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn verdict(src: &str, cfg: &PassConfig) -> (cedar_ir::Program, Verdict) {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let v = analyze(u, &l, cfg, None);
        (p, v)
    }

    #[test]
    fn clean_loop_is_doall() {
        let (_, v) = verdict(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\na(i) = b(i)\nend do\nend\n",
            &PassConfig::automatic_1991(),
        );
        assert!(v.doall, "{:?}", v.blockers);
    }

    #[test]
    fn privatizable_temp_unlocks_doall() {
        let src = "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\nt = b(i)\n\
                   a(i) = sqrt(t)\nend do\nend\n";
        let (_, v) = verdict(src, &PassConfig::automatic_1991());
        assert!(v.doall);
        assert_eq!(v.private_scalars.len(), 1);
    }

    #[test]
    fn recurrence_gets_doacross_candidate() {
        let (_, v) = verdict(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 2, n\n\
             b(i) = a(i) + b(i - 1)\nend do\nend\n",
            &PassConfig::automatic_1991(),
        );
        assert!(!v.doall);
        assert_eq!(v.doacross_deps.len(), 1);
        assert_eq!(v.doacross_deps[0].1, 1);
    }

    #[test]
    fn array_privatization_gated_by_config() {
        let src = "subroutine s(a, b, n, m)\nreal a(n), b(n, m), w(100)\ndo i = 1, n\n\
                   do j = 1, m\nw(j) = b(i, j)\nend do\n\
                   do j = 1, m\na(i) = a(i) + w(j)\nend do\nend do\nend\n";
        let (_, v) = verdict(src, &PassConfig::automatic_1991());
        assert!(!v.doall, "automatic pass must not privatize arrays");
        let (_, v) = verdict(src, &PassConfig::manual_improved());
        assert!(v.doall, "{:?}", v.blockers);
        assert_eq!(v.private_arrays.len(), 1);
    }

    #[test]
    fn multi_statement_reduction_gated() {
        let src = "subroutine s(a, b, c, n, m)\nreal a(m), b(n, m), c(n, m)\n\
                   do i = 1, n\ndo j = 1, m\na(j) = a(j) + b(i, j)\n\
                   a(j) = a(j) + c(i, j)\nend do\nend do\nend\n";
        let (_, v) = verdict(src, &PassConfig::automatic_1991());
        assert!(!v.doall);
        let (_, v) = verdict(src, &PassConfig::manual_improved());
        assert!(v.doall, "{:?}", v.blockers);
        assert_eq!(v.reductions.len(), 1);
    }

    #[test]
    fn histogram_update_needs_critical_sections() {
        let src = "subroutine s(h, idx, n, m)\nreal h(m)\ninteger idx(n)\n\
                   do i = 1, n\nh(idx(i)) = h(idx(i)) + 1.0\nend do\nend\n";
        let (_, v) = verdict(src, &PassConfig::automatic_1991());
        assert!(!v.doall && v.critical_arrays.is_empty());
        let (_, v) = verdict(src, &PassConfig::manual_improved());
        assert!(!v.doall);
        assert_eq!(v.critical_arrays.len(), 1);
    }

    #[test]
    fn linearized_pattern_offers_runtime_test() {
        let src = "subroutine s(a, n, m, mstr)\nreal a(*)\ndo j = 1, n\ndo i = 1, m\n\
                   a((j - 1) * mstr + i) = 2.0\nend do\nend do\nend\n";
        let (_, v) = verdict(src, &PassConfig::automatic_1991());
        assert!(!v.doall && v.runtime_pattern.is_none());
        let (_, v) = verdict(src, &PassConfig::manual_improved());
        assert!(v.runtime_pattern.is_some());
    }

    #[test]
    fn geometric_giv_gated() {
        let src = "subroutine s(a, n)\nreal a(n)\nw = 1.0\ndo i = 1, n\nw = w * 0.5\n\
                   a(i) = w\nend do\nend\n";
        let (_, v) = verdict(src, &PassConfig::automatic_1991());
        assert!(!v.doall);
        let (_, v) = verdict(src, &PassConfig::manual_improved());
        assert_eq!(v.givs.len(), 1);
    }
}
