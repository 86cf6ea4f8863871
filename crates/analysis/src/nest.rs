//! Loop-nest views: normalized per-level information used by the
//! dependence tests and the restructurer's legality checks.

use cedar_ir::{Expr, Loop, SymbolId};

/// One loop level.
#[derive(Debug, Clone)]
pub struct LoopLevel {
    /// Index variable.
    pub var: SymbolId,
    /// First value.
    pub start: Expr,
    /// Last value (inclusive).
    pub end: Expr,
    /// Constant step (1 if absent). `None` when the step expression is
    /// not a literal — such loops are never parallelized.
    pub step: Option<i64>,
    /// Constant iteration bounds `(first, last)` if both bounds fold.
    pub const_range: Option<(i64, i64)>,
}

impl LoopLevel {
    /// Extract the level description from a [`Loop`] header.
    pub fn of(l: &Loop) -> LoopLevel {
        let step = match &l.step {
            None => Some(1),
            Some(e) => e.as_const_int(),
        };
        let const_range = match (l.start.as_const_int(), l.end.as_const_int()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        };
        LoopLevel { var: l.var, start: l.start.clone(), end: l.end.clone(), step, const_range }
    }

    /// Constant trip count if bounds and step are literals.
    pub fn const_trip(&self) -> Option<i64> {
        let (a, b) = self.const_range?;
        cedar_ir::trip(a, b, self.step?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn first_level(src: &str) -> LoopLevel {
        let p = compile_free(src).unwrap();
        let u = p.units.into_iter().next().unwrap();
        LoopLevel::of(u.body.iter().find_map(|s| s.as_loop()).expect("no loop"))
    }

    #[test]
    fn step_and_negative_range() {
        let l = first_level(
            "subroutine s(a)\nreal a(100)\ndo i = 100, 1, -2\na(i) = 0.\nend do\nend\n",
        );
        assert_eq!(l.step, Some(-2));
        assert_eq!(l.const_trip(), Some(50));
    }

    #[test]
    fn symbolic_bounds_or_step_have_no_trip_count() {
        let l = first_level("subroutine s(a, n)\nreal a(n)\ndo i = 1, n\na(i) = 0.\nend do\nend\n");
        assert_eq!((l.step, l.const_range, l.const_trip()), (Some(1), None, None));
        let l = first_level(
            "subroutine s(a, k)\nreal a(100)\ndo i = 1, 100, k\na(i) = 0.\nend do\nend\n",
        );
        assert_eq!((l.step, l.const_range, l.const_trip()), (None, Some((1, 100)), None));
    }

    #[test]
    fn an_empty_range_runs_zero_times() {
        let l = first_level("subroutine s(a)\nreal a(100)\ndo i = 10, 1\na(i) = 0.\nend do\nend\n");
        assert_eq!(l.const_range, Some((10, 1)));
        assert_eq!(l.const_trip(), Some(0));
    }
}
