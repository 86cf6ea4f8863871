//! Induction variables and *generalized* induction variables (§4.1.4).
//!
//! Recognized update shapes for a scalar `v` inside a tested loop `L`
//! (with `v` assigned by exactly one statement in `L`, unconditionally):
//!
//! * `v = v + c` at the top level of `L`'s body — ordinary additive IV;
//!   closed form `v₀ + k·c` at the start of iteration `k` (0-based).
//! * `v = v * c` at the top level — **geometric GIV** (the OCEAN case);
//!   closed form `v₀ · c^k`.
//! * `v = v + c` at the top level of one directly nested inner loop
//!   whose trip count is affine in `L`'s index — **triangular GIV** (the
//!   TRFD case); before outer iteration `k` the accumulated count is
//!   `c · Σ_{t<k} trip(t) = c · (a·k·(k−1)/2 + b·k)` for
//!   `trip(t) = a·t + b`.
//!
//! `c` must be loop-invariant. The closed forms are returned as IR
//! expression builders so the restructurer can substitute uses and
//! eliminate the recurrence.

use crate::affine::extract;
use cedar_ir::visit::walk_stmts;
use cedar_ir::{BinOp, Expr, LValue, Loop, Stmt, SymbolId};
use std::collections::BTreeSet;

/// Where the single update statement sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateSite {
    /// Direct child of the tested loop body, at this statement index.
    TopLevel(usize),
    /// Top level of the direct-child inner loop at this statement index.
    InnerLoop(usize),
}

/// The update pattern of a recognized induction variable.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // payload fields are described by the variant docs
pub enum GivKind {
    /// `v = v + step` once per iteration.
    Additive { step: Expr },
    /// `v = v * ratio` once per iteration.
    Geometric { ratio: Expr },
    /// `v = v + step` once per *inner* iteration; inner trip count is
    /// `a·i + b` in terms of the outer index value `i`.
    Triangular { step: Expr, inner_var: SymbolId, a: i64, b: i64 },
}

/// One recognized (generalized) induction variable.
#[derive(Debug, Clone)]
pub struct Giv {
    /// The induction variable.
    pub var: SymbolId,
    /// Its update pattern.
    pub kind: GivKind,
    /// Where the update statement lives.
    pub site: UpdateSite,
}

impl Giv {
    /// Closed form of `v` *at the start* of outer iteration `k`
    /// (0-based), given an expression for `k` and the initial value
    /// symbol `v0`. For triangular GIVs this is the value before the
    /// inner loop runs.
    pub fn closed_form_at(&self, v0: Expr, k: Expr) -> Expr {
        match &self.kind {
            GivKind::Additive { step } => Expr::add(v0, Expr::mul(k, step.clone())),
            GivKind::Geometric { ratio } => Expr::mul(v0, Expr::bin(BinOp::Pow, ratio.clone(), k)),
            GivKind::Triangular { step, a, b, .. } => {
                // v0 + step * (a*k*(k-1)/2 + b*k)
                let k2 = Expr::bin(
                    BinOp::Div,
                    Expr::mul(k.clone(), Expr::sub(k.clone(), Expr::ConstI(1))),
                    Expr::ConstI(2),
                );
                let tri =
                    Expr::add(Expr::mul(Expr::ConstI(*a), k2), Expr::mul(Expr::ConstI(*b), k));
                Expr::add(v0, Expr::mul(step.clone(), tri))
            }
        }
    }
}

/// Find GIVs of loop `l`. `invariant(s)` must hold for the step/ratio's
/// free scalars (callers pass "not written in the loop body").
pub fn find_givs(l: &Loop, invariant: &dyn Fn(SymbolId) -> bool) -> Vec<Giv> {
    // Count assignments per scalar in the whole body; a GIV must have
    // exactly one, and it must be unconditional.
    let mut assign_counts: std::collections::BTreeMap<SymbolId, usize> = Default::default();
    walk_stmts(&l.body, &mut |s: &Stmt| {
        if let Stmt::Assign { lhs: LValue::Scalar(v), .. } = s {
            *assign_counts.entry(*v).or_insert(0) += 1;
        }
    });

    let mut found = Vec::new();
    let mut seen: BTreeSet<SymbolId> = BTreeSet::new();

    // Top-level updates.
    for (pos, s) in l.body.iter().enumerate() {
        if let Some((v, kind)) = match_update(s, invariant) {
            if assign_counts.get(&v) == Some(&1) && seen.insert(v) {
                found.push(Giv { var: v, kind, site: UpdateSite::TopLevel(pos) });
            }
        }
        // Triangular: update at top level of a direct inner loop.
        if let Stmt::Loop(inner) = s {
            // Inner trip count affine in the outer index: trip = end -
            // start + 1 for unit step.
            if inner.step.as_ref().is_some_and(|e| e.as_const_int() != Some(1)) {
                continue;
            }
            let ivars = [l.var];
            let inv = |x: SymbolId| invariant(x);
            let (Some(sa), Some(ea)) =
                (extract(&inner.start, &ivars, &inv), extract(&inner.end, &ivars, &inv))
            else {
                continue;
            };
            let trip = ea.sub(&sa); // + 1 handled below
            if !trip.sym.is_empty() {
                continue;
            }
            let a = trip.coeffs[0];
            let b = trip.konst + 1;
            for st in &inner.body {
                if let Some((v, GivKind::Additive { step })) = match_update(st, invariant) {
                    if assign_counts.get(&v) == Some(&1) && seen.insert(v) {
                        found.push(Giv {
                            var: v,
                            kind: GivKind::Triangular { step, inner_var: inner.var, a, b },
                            site: UpdateSite::InnerLoop(pos),
                        });
                    }
                }
            }
        }
    }
    found
}

/// Match `v = v + c`, `v = v - c`, or `v = v * c` with loop-invariant `c`.
fn match_update(s: &Stmt, invariant: &dyn Fn(SymbolId) -> bool) -> Option<(SymbolId, GivKind)> {
    let Stmt::Assign { lhs: LValue::Scalar(v), rhs, .. } = s else {
        return None;
    };
    let v = *v;
    let is_invariant_expr = |e: &Expr| -> bool {
        let mut ok = true;
        cedar_ir::visit::walk_expr(e, &mut |x| match x {
            Expr::Scalar(sym) if !invariant(*sym) => ok = false,
            Expr::Elem { .. } | Expr::Section { .. } | Expr::Call { .. } => ok = false,
            _ => {}
        });
        ok
    };
    match rhs {
        Expr::Bin(BinOp::Add, l, r) => {
            if matches!(&**l, Expr::Scalar(x) if *x == v) && is_invariant_expr(r) {
                Some((v, GivKind::Additive { step: (**r).clone() }))
            } else if matches!(&**r, Expr::Scalar(x) if *x == v) && is_invariant_expr(l) {
                Some((v, GivKind::Additive { step: (**l).clone() }))
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            if matches!(&**l, Expr::Scalar(x) if *x == v) && is_invariant_expr(r) {
                Some((
                    v,
                    GivKind::Additive {
                        step: Expr::Un(cedar_ir::UnOp::Neg, Box::new((**r).clone())),
                    },
                ))
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Mul, l, r) => {
            if matches!(&**l, Expr::Scalar(x) if *x == v) && is_invariant_expr(r) {
                Some((v, GivKind::Geometric { ratio: (**r).clone() }))
            } else if matches!(&**r, Expr::Scalar(x) if *x == v) && is_invariant_expr(l) {
                Some((v, GivKind::Geometric { ratio: (**l).clone() }))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn givs(src: &str) -> (cedar_ir::Program, Vec<Giv>) {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let refs = crate::refs::collect(u, &l, None);
        let written = refs.scalar_writes.clone();
        let inner = refs.inner_ivars.clone();
        let lv = l.var;
        let g = find_givs(&l, &move |s| s != lv && !written.contains(&s) && !inner.contains(&s));
        (p, g)
    }

    #[test]
    fn simple_additive_iv() {
        let (p, g) = givs(
            "subroutine s(a, n)\nreal a(2 * n)\nk = 0\ndo i = 1, n\nk = k + 2\n\
             a(k) = 1.0\nend do\nend\n",
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].var, p.units[0].find_symbol("k").unwrap());
        assert!(matches!(g[0].kind, GivKind::Additive { .. }));
    }

    #[test]
    fn geometric_giv() {
        let (_, g) = givs(
            "subroutine s(a, n)\nreal a(n)\nw = 1.0\ndo i = 1, n\nw = w * 2.0\n\
             a(i) = w\nend do\nend\n",
        );
        assert_eq!(g.len(), 1);
        assert!(matches!(g[0].kind, GivKind::Geometric { .. }));
    }

    #[test]
    fn triangular_giv() {
        let (_, g) = givs(
            "subroutine s(a, n)\nreal a(n * n)\nk = 0\ndo i = 1, n\n\
             do j = 1, i\nk = k + 1\na(k) = 1.0\nend do\nend do\nend\n",
        );
        assert_eq!(g.len(), 1);
        match &g[0].kind {
            GivKind::Triangular { a, b, .. } => {
                // trip(i) = i  →  a = 1, b = 0
                assert_eq!((*a, *b), (1, 0));
            }
            other => panic!("expected triangular, got {other:?}"),
        }
    }

    #[test]
    fn conditional_update_rejected() {
        let (_, g) = givs(
            "subroutine s(a, n)\nreal a(n)\nk = 0\ndo i = 1, n\n\
             if (a(i) .gt. 0.0) then\nk = k + 1\nend if\na(i) = k\nend do\nend\n",
        );
        assert!(g.is_empty());
    }

    #[test]
    fn multiple_updates_rejected() {
        let (_, g) = givs(
            "subroutine s(a, n)\nreal a(3 * n)\nk = 0\ndo i = 1, n\nk = k + 1\n\
             a(k) = 0.0\nk = k + 2\nend do\nend\n",
        );
        assert!(g.is_empty());
    }

    #[test]
    fn variant_step_rejected() {
        let (_, g) = givs(
            "subroutine s(a, n)\nreal a(n)\nk = 0\nm = 1\ndo i = 1, n\n\
             k = k + m\nm = m + 1\na(i) = k\nend do\nend\n",
        );
        // k's step m is written in the loop; m itself *is* a valid IV.
        assert_eq!(g.len(), 1);
        assert!(matches!(g[0].kind, GivKind::Additive { .. }));
    }

    #[test]
    fn closed_forms() {
        let (p, g) = givs(
            "subroutine s(a, n)\nreal a(2 * n)\nk = 0\ndo i = 1, n\nk = k + 2\n\
             a(k) = 1.0\nend do\nend\n",
        );
        let u = &p.units[0];
        let v0 = Expr::ConstI(0);
        let k = Expr::Scalar(u.find_symbol("i").unwrap());
        let cf = g[0].closed_form_at(v0, k);
        // v0 + k*2 — just check it type-checks as an expression tree.
        assert!(matches!(cf, Expr::Bin(BinOp::Add, _, _) | Expr::Bin(BinOp::Mul, _, _)));
    }
}
