//! Loop-nest views: normalized per-level information used by the
//! dependence tests and the restructurer's legality checks.

use cedar_ir::visit::walk_stmts;
use cedar_ir::{Expr, Loop, Stmt, SymbolId, Unit};

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
        let s = self.step?;
        if s == 0 {
            return None;
        }
        Some(((b - a + s) / s).max(0))
    }
}

/// Information about a loop and everything nested inside it.
#[derive(Debug, Clone)]
pub struct NestInfo {
    /// The tested (outermost) level.
    pub level: LoopLevel,
    /// Every loop index variable appearing in the nest (tested loop
    /// first, then inner loops in pre-order).
    pub all_ivars: Vec<SymbolId>,
    /// Const ranges per entry of `all_ivars` (None when unknown).
    pub ivar_ranges: Vec<Option<(i64, i64)>>,
    /// Trip count expression `max(0, (end - start + step) / step)` of the
    /// tested loop, as an IR expression (used by cost heuristics).
    pub trip_expr: Expr,
}

impl NestInfo {
    /// Build nest info rooted at `l`.
    pub fn build(_unit: &Unit, l: &Loop) -> NestInfo {
        let level = LoopLevel::of(l);
        let mut all_ivars = vec![l.var];
        let mut ivar_ranges = vec![level.const_range];
        walk_stmts(&l.body, &mut |s: &Stmt| {
            if let Stmt::Loop(inner) = s {
                if !all_ivars.contains(&inner.var) {
                    all_ivars.push(inner.var);
                    ivar_ranges.push(LoopLevel::of(inner).const_range);
                }
            }
        });
        let step = l.step.clone().unwrap_or(Expr::ConstI(1));
        let trip_expr = Expr::bin(
            cedar_ir::BinOp::Div,
            Expr::add(Expr::sub(l.end.clone(), l.start.clone()), step.clone()),
            step,
        );
        NestInfo { level, all_ivars, ivar_ranges, trip_expr }
    }
}

/// Depth of the deepest loop nest within (and including) `l`.
pub fn nest_depth(l: &Loop) -> usize {
    fn body_depth(body: &[Stmt]) -> usize {
        body.iter()
            .map(|s| match s {
                Stmt::Loop(inner) => 1 + body_depth(&inner.body),
                Stmt::If { then_body, elifs, else_body, .. } => {
                    let mut d = body_depth(then_body).max(body_depth(else_body));
                    for (_, b) in elifs {
                        d = d.max(body_depth(b));
                    }
                    d
                }
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }
    1 + body_depth(&l.body)
}

/// The perfectly-nested chain of loops starting at `l`: `l` itself, then
/// an inner loop if it is the *only* statement of the body, and so on.
pub fn perfect_nest(l: &Loop) -> Vec<&Loop> {
    let mut chain = vec![l];
    let mut cur = l;
    while cur.body.len() == 1 {
        match &cur.body[0] {
            Stmt::Loop(inner) => {
                chain.push(inner);
                cur = inner;
            }
            _ => break,
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn first_loop(src: &str) -> (cedar_ir::Unit, Loop) {
        let p = compile_free(src).unwrap();
        let u = p.units.into_iter().next().unwrap();
        let l = u
            .body
            .iter()
            .find_map(|s| s.as_loop())
            .expect("no loop")
            .clone();
        (u, l)
    }

    #[test]
    fn const_trip_counts() {
        let (u, l) = first_loop("subroutine s(a)\nreal a(100)\ndo i = 1, 100\na(i) = 0.\nend do\nend\n");
        let n = NestInfo::build(&u, &l);
        assert_eq!(n.level.const_trip(), Some(100));
        assert_eq!(n.all_ivars.len(), 1);
    }

    #[test]
    fn step_and_negative_range() {
        let (u, l) = first_loop(
            "subroutine s(a)\nreal a(100)\ndo i = 100, 1, -2\na(i) = 0.\nend do\nend\n",
        );
        let n = NestInfo::build(&u, &l);
        assert_eq!(n.level.step, Some(-2));
        assert_eq!(n.level.const_trip(), Some(50));
    }

    #[test]
    fn collects_inner_ivars() {
        let (u, l) = first_loop(
            "subroutine s(a, n)\nreal a(n, n)\ndo i = 1, n\ndo j = 1, 10\n\
             a(j, i) = 0.\nend do\nend do\nend\n",
        );
        let n = NestInfo::build(&u, &l);
        assert_eq!(n.all_ivars.len(), 2);
        assert_eq!(n.ivar_ranges[0], None);
        assert_eq!(n.ivar_ranges[1], Some((1, 10)));
    }

    #[test]
    fn nest_depth_and_perfect_nest() {
        let (_, l) = first_loop(
            "subroutine s(a, n)\nreal a(n, n)\ndo i = 1, n\ndo j = 1, n\n\
             a(j, i) = 0.\nend do\nend do\nend\n",
        );
        assert_eq!(nest_depth(&l), 2);
        assert_eq!(perfect_nest(&l).len(), 2);
    }

    #[test]
    fn imperfect_nest_chain_stops() {
        let (_, l) = first_loop(
            "subroutine s(a, n)\nreal a(n, n)\ndo i = 1, n\na(1, i) = 0.\n\
             do j = 1, n\na(j, i) = 0.\nend do\nend do\nend\n",
        );
        assert_eq!(nest_depth(&l), 2);
        assert_eq!(perfect_nest(&l).len(), 1);
    }
}
