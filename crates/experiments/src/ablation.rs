//! Ablation studies for the design choices DESIGN.md calls out: each
//! sweep isolates one knob of the restructurer or the machine model and
//! shows its effect on a workload chosen to expose it.

use crate::pipeline::run_program;
use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;

/// (label, cycles) series with a short explanation.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Sweep name.
    pub title: &'static str,
    /// What the sweep demonstrates.
    pub note: &'static str,
    /// `(parameter label, cycles or speedup)` points in sweep order.
    pub points: Vec<(String, f64)>,
}

/// Strip length for stripmined XDOALL loops (§3.2: "For a given loop,
/// the optimal strip length depends on the total number of iterations
/// and the number of processors"). The machine's prefetch unit streams
/// 32-element blocks, so 32 is the natural default.
pub fn strip_length() -> Sweep {
    let w = cedar_workloads::linalg::cg(184);
    let program = w.compile();
    let mc = MachineConfig::cedar_config1_scaled();
    let mut points = Vec::new();
    for strip in [4usize, 8, 16, 32, 64, 128] {
        let mut cfg = PassConfig::automatic_1991();
        cfg.strip_len = strip;
        let prog = crate::cache::restructured(&program, &cfg);
        let o = run_program(&prog, None, &mc, &w.watch);
        points.push((format!("strip={strip}"), o.cycles));
    }
    Sweep {
        title: "strip length (CG, automatic, Cedar)",
        note: "short strips pay per-strip dispatch and vector startup; \
               very long strips under-populate the 32 CEs",
        points,
    }
}

/// Candidate-version cap (§3.4, default 50): capping at 1 makes the
/// selector take the first candidate plan instead of the cheapest.
pub fn version_cap() -> Sweep {
    let w = cedar_workloads::perfect::arc2d();
    let program = w.compile();
    let mc = MachineConfig::cedar_config1_scaled();
    let mut points = Vec::new();
    for cap in [1usize, 2, 50] {
        let mut cfg = PassConfig::manual_improved();
        cfg.max_versions = cap;
        let r = restructure(&program, &cfg);
        let o = run_program(&r.program, None, &mc, &w.watch);
        points.push((
            format!("max_versions={cap} ({} considered)", r.report.versions_considered),
            o.cycles,
        ));
    }
    Sweep {
        title: "candidate-version cap (ARC2D, manual, Cedar)",
        note: "\"as the number of alternatives increases, so does the number \
               of near-optimal ones\" — the cap rarely hurts, exactly as §3.4 hopes",
        points,
    }
}

/// Loop interchange on/off (§3.4): the outward-moved parallel loop vs.
/// inner-only parallelism.
pub fn interchange() -> Sweep {
    let src = "
      PROGRAM ITX
      PARAMETER (N = 512, M = 8)
      REAL A(N, M), CHKSUM
      DO 10 J = 1, M
        A(1, J) = 0.5 + 0.001 * REAL(J)
   10 CONTINUE
      DO 30 I = 2, N
        DO 20 J = 1, M
          A(I, J) = A(I - 1, J) * 0.99 + 0.0001
   20   CONTINUE
   30 CONTINUE
      CHKSUM = A(N, 1) + A(N, M)
      END
";
    let program = cedar_ir::compile_source(src).unwrap();
    let mc = MachineConfig::cedar_config1_scaled();
    let mut points = Vec::new();
    for (label, on) in [("interchange off", false), ("interchange on", true)] {
        let mut cfg = PassConfig::automatic_1991();
        cfg.interchange = on;
        let prog = crate::cache::restructured(&program, &cfg);
        let o = run_program(&prog, None, &mc, &["chksum"]);
        points.push((label.to_string(), o.cycles));
    }
    Sweep {
        title: "loop interchange (wavefront nest, automatic, Cedar)",
        note: "the 8-iteration inner loops are startup-dominated until the \
               parallel dimension is moved outward (profitable only because \
               the inner loops are short)",
        points,
    }
}

/// Inline expansion on/off for the ADM proxy (§4.1.1): the per-column
/// physics call is opaque until inlined.
pub fn inlining() -> Sweep {
    let w = cedar_workloads::perfect::adm();
    let program = w.compile();
    let mc = MachineConfig::cedar_config1_scaled();
    let mut points = Vec::new();
    for (label, on) in [("inlining off", false), ("inlining on", true)] {
        let mut cfg = PassConfig::manual_improved();
        cfg.inline_expansion = on;
        let prog = crate::cache::restructured(&program, &cfg);
        let o = run_program(&prog, None, &mc, &w.watch);
        points.push((label.to_string(), o.cycles));
    }
    Sweep {
        title: "inline expansion (ADM, manual, Cedar)",
        note: "without inlining the hot column loop stays serial behind the call",
        points,
    }
}

/// Interconnect saturation model: the number of full-speed global
/// streams decides where Figure 8's global curve flattens.
pub fn global_streams() -> Sweep {
    let w = cedar_workloads::linalg::cg(384);
    let program = crate::cache::compiled(&w);
    let prog = crate::cache::restructured(&program, &PassConfig::manual_improved());
    let mut points = Vec::new();
    for streams in [4.0f64, 10.0, 32.0] {
        let mut mc = MachineConfig::cedar_config1();
        mc.machine.global_streams = streams;
        let o = run_program(&prog, None, &mc, &w.watch);
        points.push((format!("streams={streams}"), o.cycles));
    }
    Sweep {
        title: "global-memory streams (CG, manual, 4 clusters)",
        note: "fewer full-speed streams saturate earlier — the Figure 8 knob",
        points,
    }
}

/// Loop coalescing on/off (§4.2.4): a perfect 2×1024 DOALL nest. The
/// 2-iteration outer loop can employ at most two of the four clusters;
/// flattening the nest into one XDOALL over the 2048-iteration product
/// space puts all 32 CEs to work.
pub fn coalescing() -> Sweep {
    // The inner body carries a short serial recurrence per point, so
    // it cannot vectorize — exactly the shape where flattening the
    // iteration space is the only way to use more than one cluster.
    let src = "
      PROGRAM COAL
      PARAMETER (N1 = 2, N2 = 1024)
      REAL A(N2, N1), CHKSUM, T
      CALL TSTART
      DO 20 I = 1, N1
        DO 10 J = 1, N2
          T = 0.001 * REAL(I + J)
          DO 5 K = 1, 32
            T = 0.9 * T + 0.01
    5     CONTINUE
          A(J, I) = T
   10   CONTINUE
   20 CONTINUE
      CALL TSTOP
      CHKSUM = 0.0
      DO 30 I = 1, N1
        CHKSUM = CHKSUM + A(N2, I)
   30 CONTINUE
      END
";
    let program = cedar_ir::compile_source(src).expect("coalescing workload");
    let mc = MachineConfig::cedar_config1_scaled();
    let mut points = Vec::new();
    for (label, on) in [("coalescing off", false), ("coalescing on", true)] {
        let mut cfg = PassConfig::manual_improved();
        cfg.coalesce = on;
        let prog = crate::cache::restructured(&program, &cfg);
        let o = run_program(&prog, None, &mc, &["chksum"]);
        points.push((label.to_string(), o.cycles));
    }
    Sweep {
        title: "loop coalescing (2-wide outer nest, manual, Cedar)",
        note: "the 2-iteration outer DOALL confines the non-vectorizable \
               nest to half the machine; flattening the product space \
               lets the 32-CE self-scheduler balance it",
        points,
    }
}

/// Run every ablation sweep. Sweeps are independent and run on
/// [`cedar_par::par_map`]; points within a sweep stay serial (they are
/// few, and nested parallelism degrades to serial anyway).
pub fn run_all() -> Vec<Sweep> {
    let sweeps: Vec<fn() -> Sweep> =
        vec![strip_length, version_cap, interchange, coalescing, inlining, global_streams];
    cedar_par::par_map(sweeps, |f| f())
}

/// Render the sweeps as the harness's text artifact.
pub fn render(sweeps: &[Sweep]) -> String {
    let mut out = String::from("Ablation studies\n================\n");
    for s in sweeps {
        out.push_str(&format!("\n{}\n  ({})\n", s.title, s.note));
        let best = s.points.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
        for (label, cycles) in &s.points {
            out.push_str(&format!(
                "  {label:<40} {cycles:>14.0} cycles   ({:.2}x of best)\n",
                cycles / best
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_sweep_has_interior_optimum_or_plateau() {
        let s = strip_length();
        let cycles: Vec<f64> = s.points.iter().map(|(_, c)| *c).collect();
        // The shortest strip must not be the best (dispatch dominated).
        let best = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(cycles[0] > best, "strip=4 should not win: {cycles:?}");
    }

    #[test]
    fn interchange_ablation_shows_gain() {
        let s = interchange();
        assert!(
            s.points[1].1 < s.points[0].1,
            "interchange must speed up the wavefront nest: {:?}",
            s.points
        );
    }

    #[test]
    fn inlining_ablation_shows_gain() {
        let s = inlining();
        assert!(s.points[1].1 < s.points[0].1, "inlining must unlock ADM: {:?}", s.points);
    }

    #[test]
    fn fewer_streams_is_never_faster() {
        let s = global_streams();
        assert!(s.points[0].1 >= s.points[2].1, "{:?}", s.points);
    }
}
