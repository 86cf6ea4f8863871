//! Cross-backend properties over generated programs.
//!
//! Three invariants every emission backend must hold for *any* program
//! the fuzz generator can produce, checked over a deterministic seed
//! sweep (the CI `backend-smoke` job covers thousands more seeds via
//! the `compare` binary; these are the always-on core):
//!
//! 1. **Re-parse closure** — every backend's output is legal input to
//!    the front end. An emission that cannot be re-compiled cannot be
//!    compared, shipped, or diffed.
//! 2. **Serial fidelity** — the serial backend's emission, re-parsed
//!    and simulated, reproduces the original program's memory
//!    bit-for-bit. It is the comparator's reference, so it is held to
//!    the strictest standard: no reassociation, no tolerance.
//! 3. **Report neutrality** — the restructuring [`Report`] is a
//!    function of the pass pipeline alone; choosing a different
//!    emission dialect must not change a single decision in it.

use cedar_fuzz::GenProgram;
use cedar_restructure::{restructure, BackendKind, EmitInput, PassConfig};
use cedar_sim::MachineConfig;
use cedar_verify::{first_bit_diff, Snapshot};

const SEEDS: u64 = 40;

fn snapshot(p: &cedar_ir::Program, watch: &[String]) -> Snapshot {
    let sim = cedar_sim::run(p, MachineConfig::cedar_config1_scaled())
        .unwrap_or_else(|e| panic!("simulation failed: {e}"));
    watch.iter().filter_map(|w| sim.read_f64(w).map(|v| (w.clone(), v))).collect()
}

#[test]
fn every_backend_emission_reparses() {
    for cfg in [PassConfig::manual_improved(), PassConfig::automatic_1991()] {
        for seed in 0..SEEDS {
            let r = GenProgram::generate(seed).render();
            let p = cedar_ir::compile_free(&r.source).unwrap();
            let rr = restructure(&p, &cfg);
            let input = EmitInput { original: &p, restructured: &rr.program, report: &rr.report };
            for kind in BackendKind::all() {
                let text = kind.backend().emit(&input);
                cedar_ir::compile_source(&text).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {kind} emission does not re-parse: {e}\n\
                         --- input ---\n{}\n--- emission ---\n{text}",
                        r.source
                    )
                });
            }
        }
    }
}

#[test]
fn serial_backend_is_bit_faithful_to_the_input() {
    let cfg = PassConfig::manual_improved();
    for seed in 0..SEEDS {
        let r = GenProgram::generate(seed).render();
        let p = cedar_ir::compile_free(&r.source).unwrap();
        let watch: Vec<String> = r.watch.iter().map(|w| w.name.clone()).collect();
        let reference = snapshot(&p, &watch);

        let rr = restructure(&p, &cfg);
        let input = EmitInput { original: &p, restructured: &rr.program, report: &rr.report };
        let text = BackendKind::Serial.backend().emit(&input);
        let reparsed = cedar_ir::compile_source(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: serial emission does not re-parse: {e}"));
        let got = snapshot(&reparsed, &watch);

        if let Some(d) = first_bit_diff(&reference, &got) {
            panic!(
                "seed {seed}: serial emission is not bit-faithful at {d}\n\
                 --- input ---\n{}\n--- emission ---\n{text}",
                r.source
            );
        }
    }
}

#[test]
fn report_is_backend_neutral() {
    // emit() takes the report by reference and must not depend on which
    // dialect renders it: the same restructure drives all three, and a
    // fresh emit_with per backend reproduces the identical report.
    for seed in 0..SEEDS {
        let r = GenProgram::generate(seed).render();
        let p = cedar_ir::compile_free(&r.source).unwrap();
        let cfg = PassConfig::manual_improved();
        let reports: Vec<String> = BackendKind::all()
            .iter()
            .map(|k| cedar_restructure::emit_with(*k, &p, &cfg).1.to_string())
            .collect();
        assert_eq!(reports[0], reports[1], "seed {seed}: openmp changed the report");
        assert_eq!(reports[0], reports[2], "seed {seed}: serial changed the report");
    }
}
