//! Loop-class selection and the §3.4 candidate-version cost heuristic.
//!
//! "To find the right match between loop levels and hardware levels, the
//! restructurer considers a whole loop nest at one time ... Currently,
//! the restructurer uses simple heuristics to identify transformed
//! program versions worth further consideration," capped at a
//! user-settable limit (default 50).

use crate::config::PassConfig;
use cedar_ir::visit::walk_stmt_exprs;
use cedar_ir::{Expr, Loop, Planning, Stmt, Unit};

/// How a parallel (DOALL-legal) nest should be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestPlan {
    /// Single loop stripmined into `XDOALL i = lo, hi, strip` with a
    /// vector-statement body (§3.2's canonical form).
    XdoallVector,
    /// Single loop as XDOALL with a scalar body (body not
    /// vectorizable).
    XdoallScalar,
    /// Two-level nest: outer SDOALL, inner CDOALL; optionally the inner
    /// body vectorized.
    SdoallCdoall {
        /// The innermost statements also run in vector mode.
        inner_vector: bool,
    },
    /// FX/80: single loop stripmined into CDOALL + vector strips.
    CdoallVector,
    /// FX/80 or small loops: plain CDOALL scalar body.
    CdoallScalar,
}

/// Trip count assumed for a loop whose bounds are not constants (the
/// machine's numbers come from [`PassConfig::machine`]).
pub(crate) const DEFAULT_TRIP: f64 = 100.0;

/// Rough per-iteration cost of a body: statements weighted by operation
/// and reference counts. Only relative magnitudes matter.
pub fn body_cost(_unit: &Unit, body: &[Stmt]) -> f64 {
    fn stmt_cost(s: &Stmt) -> f64 {
        let mut cost = 2.0; // statement overhead
                            // walk_stmt_exprs already visits every sub-expression node.
        walk_stmt_exprs(s, false, &mut |e: &Expr| {
            cost += match e {
                Expr::Bin(..) | Expr::Un(..) => 1.0,
                Expr::Elem { .. } | Expr::Section { .. } => 3.0,
                Expr::Intr { .. } => 4.0,
                Expr::Call { .. } => 30.0,
                _ => 0.0,
            };
        });
        match s {
            Stmt::Loop(inner) => {
                let trip = inner.const_trip().unwrap_or(DEFAULT_TRIP as i64).max(1) as f64;
                cost += trip * block_cost(&inner.body)
                    + block_cost(&inner.preamble)
                    + block_cost(&inner.postamble);
            }
            Stmt::If { then_body, elifs, else_body, .. } => {
                // Weight by the heavier branch.
                let mut branch = block_cost(then_body).max(block_cost(else_body));
                for (_, b) in elifs {
                    branch = branch.max(block_cost(b));
                }
                cost += branch;
            }
            Stmt::DoWhile { body, .. } => {
                cost += DEFAULT_TRIP * block_cost(body);
            }
            _ => {}
        }
        cost
    }
    fn block_cost(body: &[Stmt]) -> f64 {
        body.iter().map(stmt_cost).sum()
    }
    block_cost(body)
}

/// Candidate plans with estimated execution times; the driver takes the
/// cheapest and accounts versions against `max_versions`.
pub fn choose_plan(
    unit: &Unit,
    l: &Loop,
    inner_parallel: bool,
    body_vectorizable: bool,
    inner_vectorizable: bool,
    cfg: &PassConfig,
) -> (NestPlan, usize) {
    let trip = l.const_trip().map(|t| t as f64).unwrap_or(DEFAULT_TRIP);
    let cost = body_cost(unit, &l.body).max(1.0);
    let m = &cfg.machine;
    let (ces, all_ces) = (m.ces_per_cluster as f64, m.total_ces() as f64);
    // More than one cluster: the classes that leave it exist. On one
    // (the FX/80) everything maps to CDOALL + vector.
    let many = m.clusters > 1;
    // Stripmining (§3.2) is on at every parallelizing level.
    let (vector, iv) = (body_vectorizable, inner_vectorizable);
    let inner_gain = if iv { m.vector_gain } else { 1.0 };
    let nested = NestPlan::SdoallCdoall { inner_vector: iv };
    // (applies, plan, start-up, iterations in flight). Small loops: one
    // cluster with vector strips avoids the library start-up.
    let plans = [
        (many && inner_parallel, nested, m.sdo_start + m.cdo_start, all_ces * inner_gain),
        (many && vector, NestPlan::XdoallVector, m.xdo_start, all_ces * m.vector_gain),
        (vector, NestPlan::CdoallVector, m.cdo_start, ces * m.vector_gain),
        (many, NestPlan::XdoallScalar, m.xdo_start, all_ces),
        (true, NestPlan::CdoallScalar, m.cdo_start, ces),
    ];
    let candidates: Vec<(NestPlan, f64)> = plans
        .into_iter()
        .filter(|p| p.0)
        .map(|(_, plan, start, in_flight)| (plan, start + trip * cost / in_flight))
        .collect();

    let considered = candidates.len().min(cfg.max_versions);
    let best = candidates
        .into_iter()
        .take(cfg.max_versions)
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(p, _)| p)
        .unwrap_or(NestPlan::CdoallScalar);
    (best, considered)
}

/// §3.3: "the restructurer lowers its estimate of the benefit owing to
/// parallel execution by a synchronization delay factor — the size of
/// the synchronized region (as a fraction of one iteration) divided by
/// the number of processors that may be executing it concurrently."
/// DOACROSS is worthwhile when the discounted speedup still beats 1.
pub fn doacross_worthwhile(unit: &Unit, l: &Loop, sync_region: &[Stmt], m: &Planning) -> bool {
    let total = body_cost(unit, &l.body).max(1.0);
    let region = body_cost(unit, sync_region).min(total);
    discounted_speedup(m, region / total) > 1.5
}

/// The speedup of one cluster's CEs (DOACROSS and critical sections
/// are cluster classes) when `serial_share` of an iteration is
/// serialized: P / (1 + P · share). All of it → 1; none → P.
fn discounted_speedup(m: &Planning, serial_share: f64) -> f64 {
    let p = m.ces_per_cluster as f64;
    p / (1.0 + p * serial_share)
}

/// Is interchanging a serial-outer/parallel-inner 2-nest profitable?
///
/// Compares the non-interchanged form (outer serial, inner parallel on
/// one cluster, vectorized when possible) against the interchanged form
/// (inner moved outward; either one cluster at cluster-memory cost or
/// machine-wide at globalized cost). Interchange typically wins when
/// the inner loops are too *short* to amortize their per-instance
/// startup — §4.2.4's granularity argument applied to nests.
pub fn interchange_profitable(
    unit: &Unit,
    outer: &Loop,
    inner: &Loop,
    inner_vectorizable: bool,
    m: &Planning,
) -> bool {
    let trip_out = outer.const_trip().map(|t| t as f64).unwrap_or(DEFAULT_TRIP);
    let trip_in = inner.const_trip().map(|t| t as f64).unwrap_or(DEFAULT_TRIP);
    let c = body_cost(unit, &inner.body).max(1.0);
    let work = trip_out * trip_in * c;

    let ces = m.ces_per_cluster as f64;
    let inner_gain = if inner_vectorizable { m.vector_gain } else { 1.0 };
    let est_noninter = trip_out * (m.cdo_start + trip_in * c / (ces * inner_gain));

    // Interchanged: the serialized outer runs inside each iteration.
    // Cross-cluster execution globalizes the data (dearer scalar
    // traffic); single-cluster stays cheap.
    let est_xdo = m.xdo_start + work * m.global_penalty / m.total_ces() as f64;
    let est_cdo = m.cdo_start + work / ces;
    let est_inter = est_xdo.min(est_cdo);

    est_inter < est_noninter
}

/// Critical sections serialize their region *and* pay a lock per
/// iteration; demand a clearly-positive discounted speedup.
pub fn critical_worthwhile(unit: &Unit, l: &Loop, locked_region: &[Stmt], m: &Planning) -> bool {
    let total = body_cost(unit, &l.body).max(1.0);
    let region = body_cost(unit, locked_region).min(total) + m.lock_cost;
    discounted_speedup(m, region / total) > 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::{compile_free, Machine};

    fn setup(src: &str) -> (cedar_ir::Program, Loop) {
        let p = compile_free(src).unwrap();
        let l = p.units[0].body.iter().find_map(|s| s.as_loop()).unwrap().clone();
        (p, l)
    }

    #[test]
    fn vectorizable_single_loop_prefers_xdoall_vector() {
        let (p, l) = setup(
            "subroutine s(a, b)\nreal a(100000), b(100000)\ndo i = 1, 100000\n\
             a(i) = b(i)\nend do\nend\n",
        );
        let (plan, n) =
            choose_plan(&p.units[0], &l, false, true, false, &PassConfig::automatic_1991());
        assert_eq!(plan, NestPlan::XdoallVector);
        assert!(n >= 2);
    }

    #[test]
    fn tiny_trip_prefers_cheap_startup() {
        let (p, l) =
            setup("subroutine s(a, b)\nreal a(8), b(8)\ndo i = 1, 8\na(i) = b(i)\nend do\nend\n");
        let (plan, _) =
            choose_plan(&p.units[0], &l, false, false, false, &PassConfig::automatic_1991());
        assert_eq!(plan, NestPlan::CdoallScalar);
    }

    #[test]
    fn nested_parallel_prefers_sdoall_cdoall() {
        let (p, l) = setup(
            "subroutine s(a, n)\nreal a(1000, 1000)\ndo j = 1, 1000\ndo i = 1, 1000\n\
             a(i, j) = 1.0\nend do\nend do\nend\n",
        );
        let (plan, _) =
            choose_plan(&p.units[0], &l, true, false, true, &PassConfig::automatic_1991());
        assert_eq!(plan, NestPlan::SdoallCdoall { inner_vector: true });
    }

    #[test]
    fn fx80_uses_cluster_classes_only() {
        let (p, l) = setup(
            "subroutine s(a, b)\nreal a(100000), b(100000)\ndo i = 1, 100000\n\
             a(i) = b(i)\nend do\nend\n",
        );
        let cfg = PassConfig::automatic_1991().for_machine(&Machine::fx80());
        let (plan, _) = choose_plan(&p.units[0], &l, false, true, false, &cfg);
        assert_eq!(plan, NestPlan::CdoallVector);
    }

    #[test]
    fn doacross_discount() {
        let (p, l) = setup(
            "subroutine s(a, b, c, n)\nreal a(n), b(n), c(n)\ndo i = 2, n\n\
             c(i) = a(i) * 2.0 + sqrt(a(i))\nb(i) = b(i - 1) + c(i)\nend do\nend\n",
        );
        let m = Machine::cedar_config1().planning();
        // small sync region (one stmt of two) on 8 CEs: worthwhile
        let region = vec![l.body[1].clone()];
        assert!(doacross_worthwhile(&p.units[0], &l, &region, &m));
        // whole body synchronized: not worthwhile
        assert!(!doacross_worthwhile(&p.units[0], &l, &l.body.clone(), &m));
    }

    /// The planner's `every_cost_field_is_live`: each of the eight
    /// planning numbers, moved far, changes the decision on a probe
    /// nest — so none of them can be a literal here, and a calibrated
    /// machine reaches the heuristic.
    #[test]
    fn the_planner_follows_the_machine() {
        let single = |trip: u32| {
            setup(&format!(
                "subroutine s(a, b)\nreal a({trip}), b({trip})\ndo i = 1, {trip}\n\
                 a(i) = b(i)\nend do\nend\n"
            ))
        };
        let nest = |outer: u32, inner: u32| {
            setup(&format!(
                "subroutine s(a, b)\nreal a({inner}, {outer}), b({inner}, {outer})\n\
                 do j = 1, {outer}\ndo i = 1, {inner}\na(i, j) = b(i, j)\nend do\nend do\nend\n"
            ))
        };
        let (short, long, tiny) = (single(64), single(100_000), single(8));
        let (square, long_rows, short_rows) = (nest(1000, 1000), nest(100, 1000), nest(100, 8));
        let cascade = setup(
            "subroutine s(a, b, c, n)\nreal a(n), b(n), c(n)\ndo i = 2, n\n\
             c(i) = a(i) * 2.0 + sqrt(a(i))\nb(i) = b(i - 1) + c(i)\nend do\nend\n",
        );
        let histogram = setup(
            "subroutine s(h, idx, b, c, n)\nreal h(64), b(40, n), c(40)\ninteger idx(n)\n\
             do i = 1, n\nt = 0.0\ndo k = 1, 40\nt = t + b(k, i) * c(k)\nend do\n\
             h(idx(i)) = h(idx(i)) + t\nend do\nend\n",
        );
        let decide = |m: Planning| {
            let cfg = PassConfig { machine: m, ..PassConfig::automatic_1991() };
            let plan = |(p, l): &(cedar_ir::Program, Loop), inner_par, vec, inner_vec| {
                format!("{:?}", choose_plan(&p.units[0], l, inner_par, vec, inner_vec, &cfg).0)
            };
            let interchange = |(p, l): &(cedar_ir::Program, Loop)| {
                let inner = l.body[0].as_loop().unwrap();
                interchange_profitable(&p.units[0], l, inner, true, &m).to_string()
            };
            let (cp, cl) = &cascade;
            let (hp, hl) = &histogram;
            vec![
                plan(&short, false, true, false),
                plan(&long, false, true, false),
                plan(&tiny, false, false, false),
                plan(&square, true, false, true),
                interchange(&long_rows),
                interchange(&short_rows),
                doacross_worthwhile(&cp.units[0], cl, &cl.body[1..], &m).to_string(),
                critical_worthwhile(&hp.units[0], hl, &hl.body[2..], &m).to_string(),
            ]
        };
        let base = Machine::cedar_config1().planning();
        let at_base = decide(base);
        assert_eq!(
            at_base,
            [
                "CdoallVector",
                "XdoallVector",
                "CdoallScalar",
                "SdoallCdoall { inner_vector: true }",
                "false",
                "true",
                "true",
                "true"
            ]
        );
        // (number, moved far, the probe that has to notice)
        let moved = [
            ("clusters", Planning { clusters: 1, ..base }, 1),
            ("ces_per_cluster", Planning { ces_per_cluster: 1, ..base }, 6),
            ("ces_per_cluster", Planning { ces_per_cluster: 400, ..base }, 1),
            ("cdo_start", Planning { cdo_start: base.cdo_start * 50.0, ..base }, 2),
            ("sdo_start", Planning { sdo_start: base.sdo_start * 50.0, ..base }, 3),
            ("xdo_start", Planning { xdo_start: base.xdo_start / 50.0, ..base }, 0),
            ("vector_gain", Planning { vector_gain: base.vector_gain / 50.0, ..base }, 1),
            ("global_penalty", Planning { global_penalty: base.global_penalty / 50.0, ..base }, 4),
            ("lock_cost", Planning { lock_cost: base.lock_cost * 50.0, ..base }, 7),
        ];
        for (name, m, probe) in moved {
            assert_ne!(decide(m)[probe], at_base[probe], "`{name}` does not move probe {probe}");
        }
        // A short vector loop leaves the cluster once XDOALL starts cheaply.
        assert_eq!(decide(moved[5].1)[0], "XdoallVector");
        // One cluster has no class that leaves it; neither has a machine
        // whose library start-ups never pay.
        let dear = Planning { sdo_start: 1e9, xdo_start: 1e9, ..base };
        for m in [moved[0].1, dear] {
            let plans = &decide(m)[..4];
            assert!(plans.iter().all(|p| p.starts_with("Cdoall")), "{plans:?}");
        }
    }
}
