//! Cross-crate integration: for every workload in the registry, the
//! restructured program must compute the same results as the serial
//! original under both technique sets, on both machine models.
//!
//! This is the repository's strongest end-to-end guarantee: the
//! restructurer may only ever change *time*, never *values*.

use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;
use cedar_workloads::Workload;

fn check(w: &Workload, cfg: &PassConfig, mc: &MachineConfig, tag: &str) {
    let program = w.compile();
    let serial = cedar_sim::run(&program, mc.clone())
        .unwrap_or_else(|e| panic!("{} [{tag}] serial: {e}", w.name));
    let r = restructure(&program, cfg);
    let par = cedar_sim::run(&r.program, mc.clone()).unwrap_or_else(|e| {
        panic!(
            "{} [{tag}] restructured: {e}\n{}",
            w.name,
            cedar_ir::print::print_program(&r.program)
        )
    });
    for v in &w.watch {
        let a = serial.read_f64(v).unwrap_or_else(|| panic!("{}: missing {v}", w.name));
        let b = par.read_f64(v).unwrap_or_else(|| panic!("{}: missing {v} (par)", w.name));
        assert_eq!(a.len(), b.len(), "{} [{tag}] {v}: length", w.name);
        for (k, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                "{} [{tag}] {v}[{k}]: serial {x} vs restructured {y}",
                w.name,
            );
        }
    }
}

/// Reduced-size Table 1 workloads (full sizes run in the harness; the
/// test suite uses sizes that keep wall time in seconds).
fn small_linalg() -> Vec<Workload> {
    use cedar_workloads::linalg::*;
    vec![
        cg(48),
        ludcmp(32),
        lubksb(32),
        sparse(64),
        gaussj(32),
        svbksb(40),
        svdcmp(32),
        mprove(32),
        toeplz(48),
        tridag(96),
    ]
}

#[test]
fn linalg_automatic_on_cedar() {
    let mc = MachineConfig::cedar_config1_scaled();
    let cfg = PassConfig::automatic_1991();
    for w in small_linalg() {
        check(&w, &cfg, &mc, "auto/cedar");
    }
}

#[test]
fn linalg_manual_on_cedar() {
    let mc = MachineConfig::cedar_config1_scaled();
    let cfg = PassConfig::manual_improved();
    for w in small_linalg() {
        check(&w, &cfg, &mc, "manual/cedar");
    }
}

#[test]
fn linalg_automatic_on_fx80() {
    let mc = MachineConfig::fx80_scaled();
    let cfg = PassConfig::automatic_1991().for_machine(&mc.machine);
    for w in small_linalg() {
        check(&w, &cfg, &mc, "auto/fx80");
    }
}

#[test]
fn perfect_all_configs() {
    let cedar = MachineConfig::cedar_config1_scaled();
    let fx = MachineConfig::fx80_scaled();
    for w in cedar_workloads::table2_workloads() {
        check(&w, &PassConfig::automatic_1991(), &cedar, "auto/cedar");
        check(&w, &PassConfig::manual_improved(), &cedar, "manual/cedar");
        check(&w, &PassConfig::automatic_1991().for_machine(&fx.machine), &fx, "auto/fx80");
        check(&w, &PassConfig::manual_improved().for_machine(&fx.machine), &fx, "manual/fx80");
    }
}

#[test]
fn serial_config_never_changes_programs() {
    for w in cedar_workloads::table2_workloads() {
        let p = w.compile();
        let r = restructure(&p, &PassConfig::serial());
        assert_eq!(
            cedar_ir::print::print_program(&p),
            cedar_ir::print::print_program(&r.program),
            "{}: PassConfig::serial must be the identity",
            w.name
        );
    }
}

#[test]
fn machine_configurations_are_deterministic() {
    // Two identical runs must produce bit-identical cycle counts.
    let w = cedar_workloads::perfect::spec77();
    let p = w.compile();
    let r = restructure(&p, &PassConfig::manual_improved());
    let mc = MachineConfig::cedar_config1_scaled();
    let a = cedar_sim::run(&r.program, mc.clone()).unwrap().cycles();
    let b = cedar_sim::run(&r.program, mc).unwrap().cycles();
    assert_eq!(a, b, "simulation must be deterministic");
}
