//! Compile → restructure → simulate plumbing shared by every
//! experiment.

use cedar_ir::Program;
use cedar_restructure::PassConfig;
use cedar_sim::{ExecStats, MachineConfig};
use cedar_workloads::Workload;

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Timed cycles (timer regions when present, else whole run).
    pub cycles: f64,
    /// Full simulator counters.
    pub stats: ExecStats,
    /// Watched result variables (name → values).
    pub results: Vec<(String, Vec<f64>)>,
}

/// The cycles a run reports: timer regions (`CALL TSTART` / `TSTOP`)
/// give routine time, as the paper does for Table 1; a program without
/// timers reports its whole run.
pub fn timed_cycles(stats: &ExecStats) -> f64 {
    if stats.region_cycles > 0.0 {
        stats.region_cycles
    } else {
        stats.cycles
    }
}

/// Run an already-lowered program (optionally restructuring first).
/// Restructure results and whole outcomes are shared across calls via
/// the process-wide [`crate::cache`], so sweeps that re-run the same
/// `(program, cfg)` pair under different machines/seeds transform it
/// once, and a repeated serial reference is simulated once.
pub fn run_program(
    program: &Program,
    cfg: Option<&PassConfig>,
    mc: &MachineConfig,
    watch: &[&str],
) -> Outcome {
    // Supervisor hooks (identity when no supervisor is active): chaos
    // gates fire *before* the cache lookup so a memoized outcome can
    // never mask an injection, and the active degradation rung rewrites
    // the configs — which also keys the memo on what actually runs.
    if cfg.is_some() {
        crate::supervise::gate("restructure");
    }
    crate::supervise::gate("simulate");
    let (adj_cfg, adj_mc) = crate::supervise::adjust(cfg, mc);
    let (cfg, mc) = (adj_cfg.as_ref(), &adj_mc);

    // The whole cell is memoized: `run_program` simulations are
    // fault-free and deterministic, so equal keys mean bit-identical
    // outcomes (this is what dedups a sweep's repeated serial
    // references instead of re-simulating them per variant).
    let printed = cedar_ir::print::print_program(program);
    let cfg_key = format!("{cfg:?}");
    let mc_key = format!("{mc:?}");
    let watch_key = watch.join("\u{1f}");
    let out = crate::cache::outcome(&[&printed, &cfg_key, &mc_key, &watch_key], || match cfg {
        Some(c) => {
            let transformed = crate::cache::restructured_printed(program, &printed, c);
            execute(&transformed, mc.clone(), watch)
        }
        None => execute(program, mc.clone(), watch),
    });
    (*out).clone()
}

/// Simulate `program` as it stands, with no memo: what [`run_program`]
/// does on a miss when handed no pass configuration — the same
/// `simulate` chaos gate, the same rung adjustment of the machine, the
/// same failure contract. For callers whose set of programs is not
/// finite (the service), which must keep nothing per program.
pub fn simulate(program: &Program, mc: &MachineConfig, watch: &[&str]) -> Outcome {
    crate::supervise::gate("simulate");
    execute(program, crate::supervise::adjust_machine(mc), watch)
}

/// One fault-free run on an already adjusted machine. A simulator error
/// is a harness panic, after the supervisor has been told what it was.
fn execute(program: &Program, mc: MachineConfig, watch: &[&str]) -> Outcome {
    let sim = cedar_sim::run(program, mc).unwrap_or_else(|e| {
        // Hand the structured error to the supervisor (when one is
        // active) before the harness panic, so the failure is
        // classified as a sim-error/timeout rather than a panic.
        crate::supervise::note_sim_error(&e);
        panic!("simulation failed: {e}\n---\n{}", cedar_ir::print::print_program(program))
    });
    let results =
        watch.iter().filter_map(|w| sim.read_f64(w).map(|v| (w.to_string(), v))).collect();
    Outcome { cycles: timed_cycles(&sim.stats), stats: sim.stats, results }
}

/// Run one workload under a pass configuration, verifying semantic
/// equivalence against the serial execution on the same machine.
/// Returns `(serial, variant)` outcomes.
pub fn run_workload(w: &Workload, cfg: &PassConfig, mc: &MachineConfig) -> (Outcome, Outcome) {
    let program = crate::cache::compiled(w);
    let serial = run_program(&program, None, mc, &w.watch);
    let variant = run_program(&program, Some(cfg), mc, &w.watch);
    assert_equivalent(w.name, &serial, &variant);
    (serial, variant)
}

/// Compare watched results with a relative tolerance (reductions
/// reassociate, so bit-exactness is not expected).
pub fn assert_equivalent(name: &str, a: &Outcome, b: &Outcome) {
    for ((wa, va), (wb, vb)) in a.results.iter().zip(&b.results) {
        assert_eq!(wa, wb);
        assert_eq!(va.len(), vb.len(), "{name}: {wa} length mismatch");
        for (x, y) in va.iter().zip(vb) {
            assert!(
                (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                "{name}: {wa}: {x} vs {y} — restructured program computes different results"
            );
        }
    }
}

/// Format a speedup for display: one decimal below 100, integral above
/// (matching the paper's Table 1 style).
pub fn fmt_speedup(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(1079.3), "1079");
        assert_eq!(fmt_speedup(29.44), "29.4");
        assert_eq!(fmt_speedup(9.16), "9.16");
    }

    #[test]
    fn pipeline_runs_and_checks_equivalence() {
        let w = cedar_workloads::linalg::tridag(64);
        let mc = MachineConfig::cedar_config1_scaled();
        let (ser, var) = run_workload(&w, &PassConfig::automatic_1991(), &mc);
        assert!(ser.cycles > 0.0 && var.cycles > 0.0);
    }
}
