//! The reference table of one loop: every array access the dependence
//! tests can pair, its subscripts extracted once and normalized once.
//!
//! An access is normalized into its *own* k-space `[k1, 0, inner…]`:
//! every enclosing loop variable `v` is rewritten as
//! `start_v + step_v · k_v`, composed outermost-in, `k1` belonging to
//! the tested loop and one position per inner loop of the access after
//! it. Position 1 is held for the distance `d` of a pair: the sink of a
//! pair runs in iteration `k1 + d` of every loop the pair shares, so its
//! `d` coefficient is its `k` coefficient and a pair's difference is
//! composed from the two forms as they stand (`depend`'s
//! `carried_difference` and `interchange_legal`).

use crate::affine::{extract, Affine};
use crate::nest::LoopLevel;
use crate::refs::{AccessKind, ArrayAccess, BodyRefs};
use cedar_ir::SymbolId;
use std::collections::BTreeSet;

/// Subscripts of the accesses of one loop body in their own k-space.
pub(crate) struct RefTable {
    /// Per access of [`BodyRefs::accesses`], its subscripts normalized.
    /// `None` for an access no test pairs (its array is never written,
    /// or is unanalyzable already), and for one under a loop with no
    /// constant step or with a start the extractor rejects.
    pub forms: Vec<Option<Vec<Affine>>>,
    /// Written arrays with a subscript the affine extractor rejects.
    pub nonaffine: BTreeSet<SymbolId>,
}

impl RefTable {
    /// The table of `refs`: `levels` holds the loop of every index
    /// variable an access may be under, `invariant` the scalars that
    /// may stand as symbolic terms.
    pub fn new(
        refs: &BodyRefs,
        levels: &[(SymbolId, LoopLevel)],
        invariant: &dyn Fn(SymbolId) -> bool,
    ) -> RefTable {
        let tested = |arr: SymbolId| {
            !refs.unanalyzable.contains(&arr)
                && refs.accesses.iter().any(|w| w.arr == arr && w.kind == AccessKind::Write)
        };
        let mut nonaffine = BTreeSet::new();
        let forms = refs
            .accesses
            .iter()
            .map(|a| {
                if !tested(a.arr) {
                    return None;
                }
                let raw: Option<Vec<Affine>> =
                    a.subs.iter().map(|sub| extract(sub, &a.ivars, invariant)).collect();
                let Some(raw) = raw else {
                    nonaffine.insert(a.arr);
                    return None;
                };
                normalize(a, raw, levels, invariant)
            })
            .collect();
        RefTable { forms, nonaffine }
    }
}

/// Compose the subscripts `raw` of `acc`, affine over its index
/// variables, into its own k-space.
fn normalize(
    acc: &ArrayAccess,
    raw: Vec<Affine>,
    levels: &[(SymbolId, LoopLevel)],
    invariant: &dyn Fn(SymbolId) -> bool,
) -> Option<Vec<Affine>> {
    let ivars = &acc.ivars;
    let nvars = ivars.len() + 1;
    // Rewrite each ivar over the ks, outermost-in:
    // v = start_v(outer ivars, rewritten) + step_v · k_v.
    let compose = |raw: Affine, var_forms: &[Affine]| {
        let mut form = Affine { coeffs: vec![0; nvars], sym: raw.sym, konst: raw.konst };
        for (oi, &cf) in raw.coeffs.iter().enumerate() {
            if cf != 0 {
                form.add_scaled(&var_forms[oi], cf);
            }
        }
        form
    };
    let mut var_forms: Vec<Affine> = Vec::with_capacity(ivars.len());
    for (depth, v) in ivars.iter().enumerate() {
        let (_, lv) = levels.iter().find(|(x, _)| x == v)?;
        let step = lv.step?;
        let start = extract(&lv.start, &ivars[..depth], invariant)?;
        let mut form = compose(start, &var_forms);
        form.coeffs[if depth == 0 { 0 } else { depth + 1 }] += step;
        var_forms.push(form);
    }
    Some(raw.into_iter().map(|r| compose(r, &var_forms)).collect())
}
