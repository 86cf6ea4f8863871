//! Absolute simulated cycle counts, pinned bit for bit.
//!
//! Every other identity gate (`vm_identity`, `vm_coverage`,
//! `prop_fast_paths`, `verdict_jobs`) compares two runs of the *same*
//! cost code, so a formula changed in the seam both engines share
//! passes all of them. `tests/fixtures/cycle_bits.txt` holds, one line
//! per run, `cycles().to_bits()` in hex and an FNV-1a-64 of
//! `format!("{:?}", stats)`:
//!
//! * the 22 pool workloads × {serial original, `automatic_1991`,
//!   `manual_improved`} × {Cedar configuration 1, configuration 2,
//!   FX/80}, each restructured `for_machine` of it, capacities scaled;
//! * for each Cedar-1 candidate one `FaultConfig::legal(1)` run and one
//!   race-collecting run (the jitter draw sits inside the memory
//!   charge; the detector must charge nothing);
//! * `GenProgram` seeds 0..300 under `automatic_1991` on Cedar 1.
//!
//! A refactor of the simulator leaves the fixture byte-unchanged. A
//! calibration of the machine model regenerates it on purpose, and the
//! diff shows which cells moved:
//!
//! ```text
//! UPDATE_CYCLE_BITS=1 cargo test -p cedar-fuzz --test cycle_bits
//! ```

use cedar_fuzz::GenProgram;
use cedar_ir::Program;
use cedar_restructure::{restructure, PassConfig};
use cedar_sim::{FaultConfig, MachineConfig, SimError, Simulator};
use std::path::{Path, PathBuf};

const SEEDS: usize = 300;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/cycle_bits.txt")
}

/// `label cycles=<hex> stats=<hex>`, or the error the run ended with.
fn line(label: &str, run: Result<Simulator<'_>, SimError>) -> String {
    match run {
        Ok(sim) => format!(
            "{label} cycles={:016x} stats={:016x}",
            sim.cycles().to_bits(),
            cedar_store::fnv1a(format!("{:?}", sim.stats).as_bytes())
        ),
        Err(e) => format!("{label} error={:?}", e.kind),
    }
}

/// The lines of one pool workload.
fn pool_lines(w: &cedar_workloads::Workload) -> Vec<String> {
    // (machine, also run faulted and race-collecting)
    let machines = [
        (MachineConfig::cedar_config1_scaled(), true),
        (MachineConfig::cedar_config2_scaled(), false),
        (MachineConfig::fx80_scaled(), false),
    ];
    let passes = [
        ("automatic_1991", PassConfig::automatic_1991()),
        ("manual_improved", PassConfig::manual_improved()),
    ];
    let serial = w.compile();
    let mut out = Vec::new();
    for (mc, perturbed) in &machines {
        let label = format!("pool {} serial {}", w.name, mc.machine.name);
        out.push(line(&label, cedar_sim::run(&serial, mc.clone())));
        for (pname, pass) in &passes {
            let candidate: Program =
                restructure(&serial, &pass.clone().for_machine(&mc.machine)).program;
            let label = format!("pool {} {pname} {}", w.name, mc.machine.name);
            out.push(line(&label, cedar_sim::run(&candidate, mc.clone())));
            if !perturbed {
                continue;
            }
            let faulted = cedar_sim::run_with_faults(&candidate, mc.clone(), FaultConfig::legal(1));
            out.push(line(&format!("{label} faults=legal(1)"), faulted));
            let raced = cedar_sim::run_collecting_races(&candidate, mc.clone());
            out.push(line(&format!("{label} races=collected"), raced));
        }
    }
    out
}

fn cycle_lines() -> Vec<String> {
    let mut pool = cedar_workloads::table1_workloads();
    pool.extend(cedar_workloads::table2_workloads());
    let mut lines: Vec<String> =
        cedar_par::par_map(pool, |w| pool_lines(&w)).into_iter().flatten().collect();
    let auto = PassConfig::automatic_1991();
    lines.extend(cedar_par::par_map_range(SEEDS, |seed| {
        let src = GenProgram::generate(seed as u64).render().source;
        let p = cedar_ir::compile_free(&src)
            .unwrap_or_else(|e| panic!("seed {seed} does not compile: {e}"));
        let candidate = restructure(&p, &auto).program;
        let run = cedar_sim::run(&candidate, MachineConfig::cedar_config1_scaled());
        line(&format!("seed {seed} automatic_1991"), run)
    }));
    lines
}

#[test]
fn simulated_cycles_match_the_recorded_bits() {
    let got = cycle_lines();
    let path = fixture_path();
    if std::env::var("UPDATE_CYCLE_BITS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        println!("cycle_bits: {} lines written to {}", got.len(), path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(want.len(), got.len(), "fixture has a different number of runs");
    let moved: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  recorded:  {w}\n  simulated: {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} runs moved; the first:\n{}",
        moved.len(),
        got.len(),
        moved[0]
    );
}
