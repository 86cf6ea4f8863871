//! Data-dependence testing.
//!
//! For a tested loop `L`, every pair of accesses to the same array (at
//! least one a write) is tested for a dependence *carried by `L`*: does
//! a solution exist with the two accesses in different iterations of
//! `L`, all loop variables within their ranges, and all subscript
//! dimensions equal?
//!
//! The machinery normalizes each access into *iteration space*: every
//! enclosing loop variable `v` is rewritten as
//! `start_v + step_v · k_v` with `k_v ∈ [0, trip_v)`, composing affine
//! forms outermost-in (which makes triangular inner loops — `DO j = 1, i`
//! — exact rather than conservative). The two accesses get disjoint
//! `k`-variables; the carried-dependence constraint is `k₂ = k₁ + d`,
//! `d ≥ 1`. Each access is normalized once, into the loop's reference
//! table (`crate::reftable`), and a pair's equations are composed from
//! its two rows.
//!
//! Per dimension the tests are, in order: exact strong-SIV distance,
//! the GCD test, and Banerjee-style interval bounds. Anything the
//! affine extractor rejects is conservatively assumed dependent —
//! matching the behaviour the paper reports for its restructurer
//! (§4.1.5: "traditional dependence tests ... conservatively assume that
//! a dependence exists").

use crate::affine::Affine;
use crate::interproc::ProgramSummaries;
use crate::nest::LoopLevel;
use crate::refs::{self, AccessKind, ArrayAccess, BodyRefs};
use crate::reftable::RefTable;
use cedar_ir::visit::walk_stmts;
use cedar_ir::{Expr, Loop, Stmt, SymbolId, Unit};
use std::collections::BTreeSet;

/// Direction of a dependence at the tested loop (we canonicalize so the
/// source is the earlier iteration: direction is always `Lt` for carried
/// dependences; `Eq` marks loop-independent ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Source iteration strictly earlier (`<`).
    Lt,
    /// Same iteration (loop-independent).
    Eq,
    /// Source iteration later (`>`) — only inside direction vectors.
    Gt,
}

/// Classic dependence kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write before read (true dependence).
    Flow,
    /// Read before write.
    Anti,
    /// Write before write.
    Output,
}

/// One dependence between two collected accesses.
#[derive(Debug, Clone)]
pub struct Dependence {
    /// The array (or scalar) both endpoints touch.
    pub arr: SymbolId,
    /// Flow / anti / output.
    pub kind: DepKind,
    /// Index of the source access (earlier iteration) in [`LoopDeps::refs`].
    pub src: usize,
    /// Index of the sink access.
    pub dst: usize,
    /// Direction at the tested loop level.
    pub direction: Direction,
    /// Constant iteration distance when provably exact.
    pub distance: Option<i64>,
}

/// Dependence analysis result for one loop.
#[derive(Debug)]
pub struct LoopDeps {
    /// The collected body references the dependences index into.
    pub refs: BodyRefs,
    /// Loop-carried dependences (direction `Lt`, source earlier).
    pub deps: Vec<Dependence>,
    /// Arrays with a write whose subscripts defeated analysis — these
    /// serialize the loop unless a §4.1 technique removes them.
    pub unanalyzable_written: BTreeSet<SymbolId>,
}

impl LoopDeps {
    /// Any carried array dependence (or unanalyzable written array)?
    pub fn has_carried_array_dep(&self) -> bool {
        !self.deps.is_empty() || !self.unanalyzable_written.is_empty()
    }
}

const BIG: i128 = 1 << 40;

/// Analyze carried dependences of loop `l` within `unit`.
pub fn analyze_loop(unit: &Unit, l: &Loop, summaries: Option<&ProgramSummaries>) -> LoopDeps {
    let refs = refs::collect(unit, l, summaries);
    analyze_from_refs(l, refs)
}

/// As [`analyze_loop`] but with pre-collected references.
pub fn analyze_from_refs(l: &Loop, refs: BodyRefs) -> LoopDeps {
    // Arrays that are unanalyzable *and* written (directly or via call)
    // serialize the loop.
    let mut unanalyzable_written: BTreeSet<SymbolId> = BTreeSet::new();
    for arr in &refs.unanalyzable {
        let written_direct =
            refs.accesses.iter().any(|a| a.arr == *arr && a.kind == AccessKind::Write);
        // Call-poisoned arrays are assumed written (collector inserted
        // them exactly because the callee may write them).
        if written_direct
            || refs.has_opaque_calls
            || refs.call_written.contains(arr)
            || written_via_section(l, *arr)
        {
            unanalyzable_written.insert(*arr);
        }
    }

    // The environment of loop-variable normalization: loop levels by
    // index variable (tested + inner).
    let mut levels: Vec<(SymbolId, LoopLevel)> = vec![(l.var, LoopLevel::of(l))];
    walk_stmts(&l.body, &mut |s: &Stmt| {
        if let Stmt::Loop(inner) = s {
            if !levels.iter().any(|(v, _)| *v == inner.var) {
                levels.push((inner.var, LoopLevel::of(inner)));
            }
        }
    });

    // Scalars written in the body are not loop-invariant symbols.
    let invariant =
        |s: SymbolId| !refs.scalar_writes.contains(&s) && !refs.inner_ivars.contains(&s);
    // Accesses with non-affine subscripts poison their (written) array.
    let table = RefTable::new(&refs, &levels, &invariant);
    unanalyzable_written.extend(&table.nonaffine);

    let (mut ranges, mut joint) = (Vec::new(), Vec::new());
    let mut deps = Vec::new();
    let n = refs.accesses.len();
    for i in 0..n {
        for j in 0..n {
            let (a, b) = (&refs.accesses[i], &refs.accesses[j]);
            if a.arr != b.arr {
                continue;
            }
            if a.kind != AccessKind::Write && b.kind != AccessKind::Write {
                continue;
            }
            if refs.unanalyzable.contains(&a.arr) || table.nonaffine.contains(&a.arr) {
                continue; // already handled wholesale
            }
            // Test: `a` in iteration k1, `b` in iteration k2 = k1 + d, d>=1.
            let (fa, fb) = (table.forms[i].as_deref(), table.forms[j].as_deref());
            if let Some(distance) = test_pair(a, b, fa, fb, &levels, &mut ranges, &mut joint) {
                deps.push(Dependence {
                    arr: a.arr,
                    kind: match (a.kind, b.kind) {
                        (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
                        (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
                        _ => DepKind::Output,
                    },
                    src: i,
                    dst: j,
                    direction: Direction::Lt,
                    distance,
                });
            }
        }
    }
    LoopDeps { refs, deps, unanalyzable_written }
}

/// Did a vector (section) write to `arr` appear in the body? The
/// collector marks the array unanalyzable; this distinguishes "written"
/// for the serialization decision.
fn written_via_section(l: &Loop, arr: SymbolId) -> bool {
    let mut found = false;
    walk_stmts(&l.body, &mut |s: &Stmt| {
        if let Stmt::Assign { lhs, .. } | Stmt::WhereAssign { lhs, .. } = s {
            if lhs.is_vector() && lhs.base() == arr {
                found = true;
            }
        }
    });
    found
}

/// Result of testing one ordered access pair, with its rows `fa` and
/// `fb` of the reference table, for a carried dependence. `None` =
/// provably independent; `Some(d)` = dependent with exact distance `d`
/// when `d.is_some()`. `ranges` and `joint` are buffers reused from
/// pair to pair.
fn test_pair(
    a: &ArrayAccess,
    b: &ArrayAccess,
    fa: Option<&[Affine]>,
    fb: Option<&[Affine]>,
    levels: &[(SymbolId, LoopLevel)],
    ranges: &mut Vec<(i128, i128)>,
    joint: &mut Vec<i64>,
) -> Option<Option<i64>> {
    // Accesses with unknown subscripts are handled by the caller.
    if a.subs.is_empty() || b.subs.is_empty() || a.subs.len() != b.subs.len() {
        return Some(None);
    }
    let trip = levels[0].1.const_trip();
    if let Some(t) = trip {
        if t <= 1 {
            return None; // no two distinct iterations exist
        }
    }
    // A subscript or a loop the normalization rejects is conservative:
    // assume a dependence.
    let (Some(norm_a), Some(norm_b)) = (fa, fb) else {
        return Some(None);
    };

    // Joint k-space layout: [k1, d, inner-a ks..., inner-b ks...].
    // k2 is represented implicitly as k1 + d.
    let k1 = trip.map_or(BIG, |t| (t - 1) as i128);
    ranges.clear();
    ranges.extend([(0, k1), (1, k1)]); // k1, d >= 1
    for v in a.ivars[1..].iter().chain(&b.ivars[1..]) {
        let lt = levels.iter().find(|(x, _)| x == v).and_then(|(_, lv)| lv.const_trip());
        ranges.push((0, lt.map_or(BIG, |t| ((t - 1).max(0)) as i128)));
    }

    let mut exact_distance: Option<i64> = None;
    for (x, y) in norm_a.iter().zip(norm_b) {
        let Some(konst) = carried_difference(x, y, joint) else {
            // Un-cancelled symbolic terms: cannot disprove. Dependence
            // assumed for this dim; no distance info.
            continue;
        };
        match test_dim(joint, konst, ranges) {
            DimResult::Independent => return None,
            DimResult::Distance(d) => match exact_distance {
                None => exact_distance = Some(d),
                Some(e) if e == d => {}
                Some(_) => return None, // inconsistent distances
            },
            DimResult::Dependent => {}
        }
    }
    if let Some(d) = exact_distance {
        if d < 1 {
            return None; // only d >= 1 is a carried dep in this ordering
        }
        if let Some(t) = trip {
            if (d as i128) > (t - 1) as i128 {
                return None;
            }
        }
    }
    Some(exact_distance)
}

/// The equation `fa − fb = 0` of one subscript dimension over the joint
/// k-space `[k1, d, inner-a…, inner-b…]`, the sink `fb` in iteration
/// `k1 + d`: its coefficients into `joint`, its constant returned.
/// `None` when symbolic terms do not cancel.
fn carried_difference(fa: &Affine, fb: &Affine, joint: &mut Vec<i64>) -> Option<i64> {
    if !fa.terms_cancel(fb) {
        return None;
    }
    joint.clear();
    joint.extend([fa.coeffs[0] - fb.coeffs[0], -fb.coeffs[0]]);
    joint.extend_from_slice(&fa.coeffs[2..]);
    joint.extend(fb.coeffs[2..].iter().map(|c| -c));
    Some(fa.konst - fb.konst)
}

enum DimResult {
    Independent,
    Dependent,
    /// Equation forces `d` to this exact constant.
    Distance(i64),
}

/// Test one subscript-dimension equation `Σ coeffs_v · v + konst = 0`
/// over the given k-space ranges (v[1] is the distance variable `d`).
fn test_dim(coeffs: &[i64], konst: i64, ranges: &[(i128, i128)]) -> DimResult {
    let c = konst as i128;

    // ZIV: no variables at all.
    if coeffs.iter().all(|&x| x == 0) {
        return if c == 0 { DimResult::Dependent } else { DimResult::Independent };
    }

    // Exact distance: only `d` appears.
    let only_d = coeffs.iter().enumerate().all(|(i, &x)| i == 1 || x == 0);
    if only_d {
        let a = coeffs[1] as i128;
        if a == 0 {
            unreachable!("handled by ZIV");
        }
        if c % a != 0 {
            return DimResult::Independent;
        }
        let d = -c / a;
        let (lo, hi) = ranges[1];
        if d < lo || d > hi {
            return DimResult::Independent;
        }
        return DimResult::Distance(d as i64);
    }

    // GCD test.
    let mut g: i128 = 0;
    for &x in coeffs {
        g = gcd(g, (x as i128).abs());
    }
    if g != 0 && c % g != 0 {
        return DimResult::Independent;
    }

    // Banerjee interval bounds.
    let mut min = c;
    let mut max = c;
    for (i, &x) in coeffs.iter().enumerate() {
        let x = x as i128;
        if x == 0 {
            continue;
        }
        let (lo, hi) = ranges[i];
        if x > 0 {
            min += x * lo;
            max += x * hi;
        } else {
            min += x * hi;
            max += x * lo;
        }
    }
    if min > 0 || max < 0 {
        return DimResult::Independent;
    }
    DimResult::Dependent
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Is interchanging the perfect 2-nest `outer{inner{body}}` legal?
///
/// Classical criterion: interchange is illegal iff some dependence has
/// direction vector `(<, >)` — carried forward by the outer loop but
/// *backward* at the inner level; after interchange that dependence
/// would flow against execution order. We test exactly that pattern
/// with the same normalized-k machinery as [`analyze_loop`]: variables
/// `[k_outer, d_outer, k_inner, d_inner]` with `d_outer ≥ 1` and
/// `d_inner ≤ −1`.
///
/// Accesses whose subscripts defeat the affine extractor make the
/// answer conservatively `false`, as do opaque calls and vector
/// statements. Scalars are the caller's responsibility (an interchange
/// candidate must already have no cross-iteration scalars).
pub fn interchange_legal(unit: &Unit, outer: &Loop, inner: &Loop) -> bool {
    let refs = refs::collect(unit, outer, None);
    if refs.has_opaque_calls || !refs.unanalyzable.is_empty() {
        return false;
    }
    let lv_out = LoopLevel::of(outer);
    let lv_in = LoopLevel::of(inner);
    if lv_out.step.is_none() || lv_in.step.is_none() {
        return false;
    }
    // The inner bounds must not depend on the outer variable (otherwise
    // the interchanged iteration space differs).
    let mut inner_bounds_use_outer = false;
    for e in [&inner.start, &inner.end] {
        cedar_ir::visit::walk_expr(e, &mut |x| {
            if matches!(x, Expr::Scalar(v) if *v == outer.var) {
                inner_bounds_use_outer = true;
            }
        });
    }
    if inner_bounds_use_outer {
        return false;
    }

    let (iv_out, iv_in) = (outer.var, inner.var);
    let invariant = |s: SymbolId| s != iv_in && s != iv_out && !refs.scalar_writes.contains(&s);
    let (trip_out, trip_in) = (lv_out.const_trip(), lv_in.const_trip());
    let table = RefTable::new(&refs, &[(iv_out, lv_out), (iv_in, lv_in)], &invariant);

    let big = BIG;
    // k-space: [k_out, d_out, k_in, d_in]
    let ranges: Vec<(i128, i128)> = vec![
        (0, trip_out.map_or(big, |t| (t - 1).max(0) as i128)),
        (1, trip_out.map_or(big, |t| (t - 1).max(1) as i128)),
        (0, trip_in.map_or(big, |t| (t - 1).max(0) as i128)),
        (trip_in.map_or(-big, |t| -((t - 1).max(1) as i128)), -1),
    ];
    // The subscripts of access `i` in its own k-space [k_out, 0, k_in].
    // Only accesses nested exactly under (outer, inner) qualify —
    // anything else (deeper nests) is conservative.
    let form = |i: usize| {
        let ivars = &refs.accesses[i].ivars;
        table.forms[i].as_deref().filter(|_| *ivars == [iv_out, iv_in])
    };

    let mut joint = Vec::with_capacity(4);
    let n = refs.accesses.len();
    for i in 0..n {
        for j in 0..n {
            let (a, b) = (&refs.accesses[i], &refs.accesses[j]);
            if a.arr != b.arr {
                continue;
            }
            if a.kind != AccessKind::Write && b.kind != AccessKind::Write {
                continue;
            }
            let (Some(fa), Some(fb)) = (form(i), form(j)) else {
                return false; // conservative
            };
            // Does a (<, >)-direction solution exist? `b` runs at
            // (k_out + d_out, k_in + d_in).
            let mut solvable = true;
            for (x, y) in fa.iter().zip(fb) {
                if !x.terms_cancel(y) {
                    continue; // cannot disprove this dim
                }
                joint.clear();
                joint.extend([x.coeffs[0] - y.coeffs[0], -y.coeffs[0]]);
                joint.extend([x.coeffs[2] - y.coeffs[2], -y.coeffs[2]]);
                match test_dim(&joint, x.konst - y.konst, &ranges) {
                    DimResult::Independent => {
                        solvable = false;
                        break;
                    }
                    DimResult::Distance(d) => {
                        // d is the forced d_out value; must lie in range.
                        if d < 1 {
                            solvable = false;
                            break;
                        }
                    }
                    DimResult::Dependent => {}
                }
            }
            if solvable {
                return false; // a (<, >) dependence may exist
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn deps_of(src: &str) -> LoopDeps {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        analyze_loop(u, &l, None)
    }

    #[test]
    fn independent_loop_has_no_deps() {
        let d = deps_of(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\na(i) = b(i)\nend do\nend\n",
        );
        assert!(!d.has_carried_array_dep());
    }

    #[test]
    fn classic_recurrence_detected_with_distance() {
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n)\ndo i = 2, n\na(i) = a(i - 1) + 1.0\nend do\nend\n",
        );
        assert_eq!(d.deps.len(), 1);
        let dep = &d.deps[0];
        assert_eq!(dep.kind, DepKind::Flow);
        assert_eq!(dep.distance, Some(1));
    }

    #[test]
    fn distance_k_recurrence() {
        let d =
            deps_of("subroutine s(a, n)\nreal a(n)\ndo i = 6, n\na(i) = a(i - 5)\nend do\nend\n");
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].distance, Some(5));
    }

    #[test]
    fn anti_dependence_detected() {
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n)\ndo i = 1, n - 1\na(i) = a(i + 1)\nend do\nend\n",
        );
        // a(i+1) read in iteration k, written in iteration k+1: anti, d=1.
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].kind, DepKind::Anti);
        assert_eq!(d.deps[0].distance, Some(1));
    }

    #[test]
    fn stride_disjoint_accesses_independent() {
        // even writes, odd reads: 2i vs 2i+1 never equal (GCD test).
        let d = deps_of(
            "subroutine s(a, n)\nreal a(2 * n + 1)\ndo i = 1, n\n\
             a(2 * i) = a(2 * i + 1)\nend do\nend\n",
        );
        assert!(!d.has_carried_array_dep());
    }

    #[test]
    fn banerjee_range_separation() {
        // writes a(i), reads a(i+100), i in 1..50: ranges never overlap.
        let d =
            deps_of("subroutine s(a)\nreal a(200)\ndo i = 1, 50\na(i) = a(i + 100)\nend do\nend\n");
        assert!(!d.has_carried_array_dep());
    }

    #[test]
    fn symbolic_offset_cancels() {
        // a(i+m) written and read at same offset: no carried dep even
        // though m is unknown.
        let d = deps_of(
            "subroutine s(a, n, m)\nreal a(*)\ndo i = 1, n\n\
             a(i + m) = a(i + m) * 2.0\nend do\nend\n",
        );
        assert!(!d.has_carried_array_dep());
    }

    #[test]
    fn symbolic_loop_start_cancels_with_an_exact_distance() {
        // Both accesses carry the start `m` in their normal form; it
        // cancels and the distance is exact.
        let d = deps_of(
            "subroutine s(a, n, m)\nreal a(*)\ndo i = m, n\n\
             a(i) = a(i - 2) + 1.0\nend do\nend\n",
        );
        assert_eq!(d.deps.len(), 1);
        assert_eq!((d.deps[0].kind, d.deps[0].distance), (DepKind::Flow, Some(2)));
    }

    #[test]
    fn symbolic_mismatch_is_conservative() {
        // a(i+m) vs a(i+k): cannot disprove.
        let d = deps_of(
            "subroutine s(a, n, m, k)\nreal a(*)\ndo i = 1, n\n\
             a(i + m) = a(i + k)\nend do\nend\n",
        );
        assert!(d.has_carried_array_dep());
    }

    #[test]
    fn multidim_column_independent() {
        // each iteration works on its own column: no carried dep.
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n, n)\ndo j = 1, n\ndo i = 1, n\n\
             a(i, j) = a(i, j) + 1.0\nend do\nend do\nend\n",
        );
        assert!(!d.has_carried_array_dep());
    }

    #[test]
    fn multidim_row_shift_dependent() {
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n, n)\ndo j = 2, n\ndo i = 1, n\n\
             a(i, j) = a(i, j - 1)\nend do\nend do\nend\n",
        );
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].distance, Some(1));
    }

    #[test]
    fn triangular_inner_loop_exact() {
        // DO i; DO j = 1, i - 1: writes a(i), reads a(j) with j < i:
        // carried flow dependence must be found.
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n)\ndo i = 2, n\ndo j = 1, i - 1\n\
             a(i) = a(i) + a(j)\nend do\nend do\nend\n",
        );
        assert!(d.deps.iter().any(|dep| dep.kind == DepKind::Flow));
    }

    #[test]
    fn nonaffine_subscript_is_conservative() {
        let d = deps_of(
            "subroutine s(a, idx, n)\nreal a(n)\ninteger idx(n)\ndo i = 1, n\n\
             a(idx(i)) = 0.0\nend do\nend\n",
        );
        assert!(d.has_carried_array_dep());
        assert!(!d.unanalyzable_written.is_empty());
    }

    #[test]
    fn scalar_temp_does_not_create_array_dep() {
        let d = deps_of(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\nt = b(i)\n\
             a(i) = t * t\nend do\nend\n",
        );
        assert!(!d.has_carried_array_dep());
        // but t is recorded as a written scalar
        assert_eq!(d.refs.written_non_ivar_scalars().count(), 1);
    }

    #[test]
    fn opaque_call_serializes() {
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n)\nexternal f\ndo i = 1, n\ncall f(a, i)\nend do\nend\n",
        );
        assert!(d.has_carried_array_dep());
    }

    #[test]
    fn known_pure_call_is_harmless() {
        let src = "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\n\
                   a(i) = g(b(i))\nend do\nend\n\
                   real function g(x)\ng = x * x\nend\n";
        let p = compile_free(src).unwrap();
        let sums = crate::interproc::summarize(&p);
        let u = &p.units[0];
        let l = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let d = analyze_loop(u, &l, Some(&sums));
        assert!(!d.has_carried_array_dep());
        assert!(!d.refs.has_opaque_calls);
    }

    fn nest2(src: &str) -> (cedar_ir::Program, Loop, Loop) {
        let p = compile_free(src).unwrap();
        let u = &p.units[0];
        let outer = u.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        let inner = outer.body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        (p, outer, inner)
    }

    #[test]
    fn interchange_legal_for_equal_lt_direction() {
        // dep direction (=, <): interchange is allowed.
        let (p, o, i) = nest2(
            "subroutine s(a, n, m)\nreal a(n, m)\ndo i = 1, n\ndo j = 2, m\n\
             a(i, j) = a(i, j - 1) + 1.0\nend do\nend do\nend\n",
        );
        assert!(interchange_legal(&p.units[0], &o, &i));
    }

    #[test]
    fn interchange_illegal_for_lt_gt_direction() {
        // The classic (<, >) counterexample: after interchange the value
        // would be consumed before it is produced.
        let (p, o, i) = nest2(
            "subroutine s(a, n, m)\nreal a(n + 1, m + 1)\ndo i = 1, n\ndo j = 2, m\n\
             a(i + 1, j - 1) = a(i, j) + 1.0\nend do\nend do\nend\n",
        );
        assert!(!interchange_legal(&p.units[0], &o, &i));
    }

    #[test]
    fn interchange_legal_for_lt_lt_direction() {
        let (p, o, i) = nest2(
            "subroutine s(a, n, m)\nreal a(n + 1, m + 1)\ndo i = 1, n\ndo j = 1, m\n\
             a(i + 1, j + 1) = a(i, j) + 1.0\nend do\nend do\nend\n",
        );
        assert!(interchange_legal(&p.units[0], &o, &i));
    }

    #[test]
    fn interchange_refused_for_triangular_bounds() {
        let (p, o, i) = nest2(
            "subroutine s(a, n)\nreal a(n, n)\ndo i = 1, n\ndo j = 1, i\n\
             a(i, j) = 1.0\nend do\nend do\nend\n",
        );
        assert!(!interchange_legal(&p.units[0], &o, &i));
    }

    #[test]
    fn loop_step_two_no_false_dep() {
        // a(i) = a(i+1) with step 2: write set {1,3,5..}, read {2,4,6..}
        let d = deps_of(
            "subroutine s(a, n)\nreal a(n)\ndo i = 1, n, 2\na(i) = a(i + 1)\nend do\nend\n",
        );
        assert!(!d.has_carried_array_dep());
    }
}
