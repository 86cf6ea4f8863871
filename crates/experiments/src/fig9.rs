//! Figure 9: combining multiple parallel loops into a single parallel
//! loop (FLO52).
//!
//! Three variants of FLO52's major subroutine:
//! * **A** — inner loops parallel (the restructurer's first version);
//! * **B** — the two outer loops parallelized (array privatization);
//! * **C** — the outer loops fused into one parallel loop.
//!
//! "On the Alliant FX/80 architecture the resulting performance gain
//! amounts to 50%, whereas on Cedar, a 100% speedup results, which
//! illustrates the difference in startup latencies between the CDO and
//! SDO loops."

use crate::pipeline::{assert_equivalent, run_program};
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;

/// Figure 9 result for one machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Machine label (Cedar or FX/80).
    pub machine: &'static str,
    /// Relative speeds of variants A, B, C (A = 1.0).
    pub a: f64,
    /// Variant B: loops distributed (one parallel loop per statement).
    pub b: f64,
    /// Variant C: loops fused into a single parallel loop.
    pub c: f64,
}

fn variants(machine: &cedar_ir::Machine) -> [PassConfig; 3] {
    // A: automatic — outer loops blocked by the work arrays, inner
    // loops parallelized.
    let a = PassConfig::automatic_1991().for_machine(machine);
    // B: outer loops parallel (array privatization) but no fusion.
    let mut b = PassConfig::manual_improved().for_machine(machine);
    b.loop_fusion = false;
    // C: outer loops fused, then parallelized.
    let c = PassConfig::manual_improved().for_machine(machine);
    [a, b, c]
}

/// Measure the three fusion variants on both machines.
pub fn run() -> Vec<Machine> {
    let w = cedar_workloads::perfect::flo52();
    let program = crate::cache::compiled(&w);
    let machines = [
        ("Alliant FX/80", MachineConfig::fx80_scaled()),
        ("Cedar", MachineConfig::cedar_config1_scaled()),
    ];
    // 2 machines × 3 variants = 6 independent cells.
    let cells: Vec<(usize, usize)> =
        (0..machines.len()).flat_map(|m| (0..3).map(move |v| (m, v))).collect();
    let outs = cedar_par::par_map(cells, |(m, v)| {
        let (_, mc) = &machines[m];
        let cfg = &variants(&mc.machine)[v];
        let p = crate::cache::restructured(&program, cfg);
        run_program(&p, None, mc, &w.watch)
    });
    machines
        .iter()
        .enumerate()
        .map(|(m, (mname, _))| {
            let (oa, ob, oc) = (&outs[m * 3], &outs[m * 3 + 1], &outs[m * 3 + 2]);
            assert_equivalent("fig9-b", oa, ob);
            assert_equivalent("fig9-c", oa, oc);
            Machine { machine: mname, a: 1.0, b: oa.cycles / ob.cycles, c: oa.cycles / oc.cycles }
        })
        .collect()
}

/// Render the variants as the harness's text artifact.
pub fn render(ms: &[Machine]) -> String {
    let mut out = String::from(
        "Figure 9: combining multiple parallel loops into a single\n\
         parallel loop (FLO52 variants; A = inner loops parallel,\n\
         B = outer loops parallel, C = outer loops fused; speed of A = 1)\n\n",
    );
    let rows: Vec<Vec<String>> = ms
        .iter()
        .map(|m| {
            vec![
                m.machine.to_string(),
                format!("{:.2}", m.a),
                format!("{:.2}", m.b),
                format!("{:.2}", m.c),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(&["machine", "A", "B", "C"], &rows));
    out.push_str("\nPaper: C/A ≈ 1.5 on the FX/80 and ≈ 2.0 on Cedar.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_c_over_b_over_a() {
        for m in run() {
            assert!(m.b > m.a, "{}: B ({:.2}) must beat A", m.machine, m.b);
            assert!(m.c >= m.b, "{}: C ({:.2}) must be at least B ({:.2})", m.machine, m.c, m.b);
        }
    }

    #[test]
    fn cedar_gains_more_from_fusion_than_fx80() {
        let ms = run();
        let fx = &ms[0];
        let cedar = &ms[1];
        assert!(
            cedar.c / cedar.a > fx.c / fx.a,
            "Cedar C/A ({:.2}) must exceed FX/80 C/A ({:.2}) — SDO startup dominates",
            cedar.c,
            fx.c
        );
    }
}
