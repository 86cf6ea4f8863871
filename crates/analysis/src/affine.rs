//! Affine forms of subscript expressions.
//!
//! An [`Affine`] is `Σ coeffs[k] · ivar[k] + Σ sym[j].0 · sym[j].1 + konst`
//! where `ivar[k]` are the loop index variables of the enclosing nest
//! (outermost first) and `sym` are **loop-invariant terms** with integer
//! coefficients. A term is either a plain scalar symbol or an opaque
//! invariant expression (e.g. `(i-1)*(i-2)/2` when `i` is invariant in
//! the tested loop, or `(j-1)*mstr`): terms compare structurally, so
//! matching unknowns cancel in dependence equations — `a(T + j)` vs.
//! `a(T + j - 1)` is an exact distance-1 test even though `T` is a
//! nonlinear expression.

use cedar_ir::visit::walk_expr;
use cedar_ir::{BinOp, Expr, SymbolId, UnOp};

/// Affine expression over a fixed list of index variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Affine {
    /// Coefficient of each nest index variable (outermost first).
    /// Per-index-variable coefficients, one per enclosing loop.
    pub coeffs: Vec<i64>,
    /// Loop-invariant symbolic terms with nonzero coefficients,
    /// deterministically ordered.
    pub sym: Vec<(i64, Expr)>,
    /// Constant term.
    pub konst: i64,
}

impl Affine {
    /// The constant `k` over `nvars` index variables.
    pub fn constant(nvars: usize, k: i64) -> Self {
        Affine { coeffs: vec![0; nvars], sym: Vec::new(), konst: k }
    }

    /// The single index variable `which` with coefficient 1.
    pub fn var(nvars: usize, which: usize) -> Self {
        let mut coeffs = vec![0; nvars];
        coeffs[which] = 1;
        Affine { coeffs, sym: Vec::new(), konst: 0 }
    }

    /// A loop-invariant opaque term with coefficient 1.
    pub fn term(nvars: usize, e: Expr) -> Self {
        Affine { coeffs: vec![0; nvars], sym: vec![(1, e)], konst: 0 }
    }

    /// True when only the constant term is nonzero.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0) && self.sym.is_empty()
    }

    /// Indices of variables with nonzero coefficient.
    pub fn vars(&self) -> Vec<usize> {
        self.coeffs.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, _)| i).collect()
    }

    fn normalize(mut self) -> Self {
        self.sym.retain(|(c, _)| *c != 0);
        self.sym.sort_by_cached_key(|(_, e)| format!("{e:?}"));
        let mut merged: Vec<(i64, Expr)> = Vec::with_capacity(self.sym.len());
        for (c, e) in self.sym.drain(..) {
            match merged.last_mut() {
                Some((mc, me)) if *me == e => *mc += c,
                _ => merged.push((c, e)),
            }
        }
        merged.retain(|(c, _)| *c != 0);
        self.sym = merged;
        self
    }

    /// Sum of two forms over the same variable space.
    pub fn add(&self, other: &Affine) -> Affine {
        let coeffs = self.coeffs.iter().zip(&other.coeffs).map(|(a, b)| a + b).collect();
        let mut sym = self.sym.clone();
        sym.extend(other.sym.iter().cloned());
        Affine { coeffs, sym, konst: self.konst + other.konst }.normalize()
    }

    /// Difference `self - other`.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Multiply every term by the literal `k`.
    pub fn scale(&self, k: i64) -> Affine {
        Affine {
            coeffs: self.coeffs.iter().map(|c| c * k).collect(),
            sym: self.sym.iter().map(|(c, s)| (c * k, s.clone())).collect(),
            konst: self.konst * k,
        }
        .normalize()
    }

    /// `self + k · other` in place: `self.add(&other.scale(k))` without
    /// the two intermediate forms.
    pub(crate) fn add_scaled(&mut self, other: &Affine, k: i64) {
        for (c, o) in self.coeffs.iter_mut().zip(&other.coeffs) {
            *c += o * k;
        }
        self.konst += other.konst * k;
        if !other.sym.is_empty() {
            self.sym.extend(other.sym.iter().map(|(c, s)| (c * k, s.clone())));
            *self = std::mem::take(self).normalize();
        }
    }

    /// Do the symbolic terms of `self - other` cancel? Allocates only
    /// when the two term lists differ.
    pub(crate) fn terms_cancel(&self, other: &Affine) -> bool {
        self.sym == other.sym || self.sub(other).sym.is_empty()
    }
}

/// Extract an affine form of `e` over `ivars` (outermost-first loop
/// index symbols). `invariant` decides whether a scalar symbol may be
/// treated as loop-invariant. Nonlinear subexpressions that are wholly
/// loop-invariant (no ivars, invariant scalars only, no array or
/// function references) fold into opaque symbolic terms; anything else
/// returns `None`.
pub fn extract(
    e: &Expr,
    ivars: &[SymbolId],
    invariant: &dyn Fn(SymbolId) -> bool,
) -> Option<Affine> {
    if let Some(a) = linear(e, ivars, invariant) {
        return Some(a);
    }
    opaque(e, ivars, invariant)
}

fn linear(e: &Expr, ivars: &[SymbolId], invariant: &dyn Fn(SymbolId) -> bool) -> Option<Affine> {
    let n = ivars.len();
    match e {
        Expr::ConstI(v) => Some(Affine::constant(n, *v)),
        Expr::Scalar(s) => {
            if let Some(k) = ivars.iter().position(|v| v == s) {
                Some(Affine::var(n, k))
            } else if invariant(*s) {
                Some(Affine::term(n, e.clone()))
            } else {
                None
            }
        }
        Expr::Un(UnOp::Neg, inner) => Some(extract(inner, ivars, invariant)?.scale(-1)),
        Expr::Bin(op, l, r) => {
            match op {
                BinOp::Add => {
                    Some(extract(l, ivars, invariant)?.add(&extract(r, ivars, invariant)?))
                }
                BinOp::Sub => {
                    Some(extract(l, ivars, invariant)?.sub(&extract(r, ivars, invariant)?))
                }
                BinOp::Mul => {
                    let lf = extract(l, ivars, invariant)?;
                    let rf = extract(r, ivars, invariant)?;
                    // One side must be a pure constant for a *linear*
                    // product (invariant × ivar is nonlinear; the caller
                    // falls back to an opaque term only if the whole
                    // product is invariant).
                    if lf.is_constant() {
                        Some(rf.scale(lf.konst))
                    } else if rf.is_constant() {
                        Some(lf.scale(rf.konst))
                    } else {
                        None
                    }
                }
                BinOp::Div => {
                    let lf = extract(l, ivars, invariant)?;
                    let rf = extract(r, ivars, invariant)?;
                    if rf.is_constant() && rf.konst != 0 {
                        let k = rf.konst;
                        if lf.konst % k == 0
                            && lf.coeffs.iter().all(|c| c % k == 0)
                            && lf.sym.iter().all(|(c, _)| c % k == 0)
                        {
                            return Some(Affine {
                                coeffs: lf.coeffs.iter().map(|c| c / k).collect(),
                                sym: lf.sym.iter().map(|(c, s)| (c / k, s.clone())).collect(),
                                konst: lf.konst / k,
                            });
                        }
                        None
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whole-expression opaque fallback: invariant scalar arithmetic only.
fn opaque(e: &Expr, ivars: &[SymbolId], invariant: &dyn Fn(SymbolId) -> bool) -> Option<Affine> {
    let mut ok = true;
    walk_expr(e, &mut |x| match x {
        Expr::Scalar(s) if ivars.contains(s) || !invariant(*s) => ok = false,
        Expr::Elem { .. } | Expr::Section { .. } | Expr::Call { .. } | Expr::Intr { .. } => {
            ok = false;
        }
        _ => {}
    });
    if ok {
        Some(Affine::term(ivars.len(), e.clone()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32) -> SymbolId {
        SymbolId(id)
    }

    fn always(_: SymbolId) -> bool {
        true
    }

    #[test]
    fn extracts_linear_combination() {
        // 2*i - j + 3   over ivars [i=s0, j=s1]
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Sub,
                Expr::mul(Expr::ConstI(2), Expr::Scalar(s(0))),
                Expr::Scalar(s(1)),
            ),
            Expr::ConstI(3),
        );
        let a = extract(&e, &[s(0), s(1)], &always).unwrap();
        assert_eq!(a.coeffs, vec![2, -1]);
        assert_eq!(a.konst, 3);
        assert!(a.sym.is_empty());
    }

    #[test]
    fn symbolic_terms_merge_and_cancel() {
        let e = Expr::bin(BinOp::Add, Expr::Scalar(s(0)), Expr::Scalar(s(5)));
        let a = extract(&e, &[s(0)], &always).unwrap();
        let d = a.sub(&a);
        assert!(d.is_constant());
        assert_eq!(d.konst, 0);
    }

    #[test]
    fn invariant_nonlinear_product_becomes_opaque_term() {
        // m1 * m2 is nonlinear but invariant: one opaque term.
        let e = Expr::bin(BinOp::Mul, Expr::Scalar(s(7)), Expr::Scalar(s(8)));
        let a = extract(&e, &[s(0)], &always).unwrap();
        assert!(a.vars().is_empty());
        assert_eq!(a.sym.len(), 1);
        // And it cancels against an identical occurrence.
        let plus_j = a.add(&Affine::var(1, 0));
        let diff = plus_j.sub(&plus_j);
        assert!(diff.is_constant() && diff.konst == 0);
    }

    #[test]
    fn triangular_flattened_index_is_affine_in_inner_var() {
        // T + j where T = (i*(i-1))/2 and i is invariant (outer var seen
        // from the inner loop).
        let i = Expr::Scalar(s(3));
        let t = Expr::bin(
            BinOp::Div,
            Expr::bin(BinOp::Mul, i.clone(), Expr::bin(BinOp::Sub, i.clone(), Expr::ConstI(1))),
            Expr::ConstI(2),
        );
        let e = Expr::bin(BinOp::Add, t, Expr::Scalar(s(0)));
        let a = extract(&e, &[s(0)], &always).unwrap();
        assert_eq!(a.coeffs, vec![1]);
        assert_eq!(a.sym.len(), 1);
    }

    #[test]
    fn ivar_products_still_rejected() {
        let e = Expr::bin(BinOp::Mul, Expr::Scalar(s(0)), Expr::Scalar(s(1)));
        assert!(extract(&e, &[s(0), s(1)], &always).is_none());
        // invariant × ivar also rejected (nonlinear AND not invariant)
        let e = Expr::bin(BinOp::Mul, Expr::Scalar(s(7)), Expr::Scalar(s(0)));
        assert!(extract(&e, &[s(0)], &always).is_none());
    }

    #[test]
    fn non_invariant_scalar_rejected() {
        let e = Expr::Scalar(s(9));
        assert!(extract(&e, &[s(0)], &|_| false).is_none());
    }

    #[test]
    fn array_reference_never_opaque() {
        let e = Expr::Elem { arr: s(4), idx: vec![Expr::ConstI(1)] };
        assert!(extract(&e, &[s(0)], &always).is_none());
    }

    #[test]
    fn exact_division_folds() {
        let e = Expr::bin(
            BinOp::Div,
            Expr::bin(BinOp::Add, Expr::mul(Expr::ConstI(4), Expr::Scalar(s(0))), Expr::ConstI(8)),
            Expr::ConstI(4),
        );
        let a = extract(&e, &[s(0)], &always).unwrap();
        assert_eq!(a.coeffs, vec![1]);
        assert_eq!(a.konst, 2);
        // (i + 1) / 2 is not affine in i and not invariant either.
        let e = Expr::bin(
            BinOp::Div,
            Expr::bin(BinOp::Add, Expr::Scalar(s(0)), Expr::ConstI(1)),
            Expr::ConstI(2),
        );
        assert!(extract(&e, &[s(0)], &always).is_none());
    }

    #[test]
    fn in_place_scaled_add_is_add_of_a_scale() {
        // x = i + m, y = 2*i - m + k over ivars [i]
        let (i, m, k) = (Expr::Scalar(s(0)), Expr::Scalar(s(5)), Expr::Scalar(s(6)));
        let x = extract(&Expr::bin(BinOp::Add, i.clone(), m.clone()), &[s(0)], &always).unwrap();
        let y = Expr::bin(BinOp::Sub, Expr::mul(Expr::ConstI(2), i), m);
        let y = extract(&Expr::bin(BinOp::Add, y, k), &[s(0)], &always).unwrap();
        for c in [-2, 1, 3] {
            let mut z = x.clone();
            z.add_scaled(&y, c);
            assert_eq!(z, x.add(&y.scale(c)));
        }
        assert!(x.terms_cancel(&x) && y.terms_cancel(&y));
        assert!(!x.terms_cancel(&y));
    }

    #[test]
    fn negation_scales() {
        let e = Expr::Un(UnOp::Neg, Box::new(Expr::Scalar(s(0))));
        let a = extract(&e, &[s(0)], &always).unwrap();
        assert_eq!(a.coeffs, vec![-1]);
    }
}
