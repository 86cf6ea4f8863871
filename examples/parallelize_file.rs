//! A command-line front door to the restructurer: read fixed-form
//! Fortran 77, emit Cedar Fortran.
//!
//! ```text
//! cargo run --release --example parallelize_file -- [FILE.f] [flags]
//!
//!   FILE.f        fixed-form Fortran 77 source (reads a built-in MDG
//!                 sample when omitted)
//!   --manual      enable the §4.1 "manually improved" technique set
//!   --fx80        target the Alliant FX/80 (cluster classes only)
//!   --report      print per-loop decisions instead of the output code
//!   --simulate    also run serial vs. restructured on the Cedar model
//!   --validate    differentially validate instead (serial reference,
//!                 race-collecting run, 4 perturbed schedules; racy or
//!                 diverging nests are demoted) and print the accepted
//!                 program and the verdict. The output does not depend
//!                 on `CEDAR_JOBS` — CI diffs it between 1 and 4.
//! ```

use cedar_restructure::{restructure, PassConfig, Target};
use cedar_sim::MachineConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<&str> = args.iter().map(|s| s.as_str()).filter(|s| s.starts_with("--")).collect();
    let file = args.iter().find(|s| !s.starts_with("--"));

    let src = match file {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}"))),
        None => {
            eprintln!("(no input file given; using the built-in MDG sample)");
            cedar_workloads::perfect::mdg().source
        }
    };

    let program = match cedar_ir::compile_source(&src) {
        Ok(p) => p,
        Err(e) => die(&format!("front end: {e}")),
    };

    let mut cfg = if flags.contains(&"--manual") {
        PassConfig::manual_improved()
    } else {
        PassConfig::automatic_1991()
    };
    if flags.contains(&"--fx80") {
        cfg = cfg.for_target(Target::Fx80);
    }

    if flags.contains(&"--validate") {
        // Watch the arrays of the main program: its data. (Scalars are
        // mostly loop indices and temporaries, whose values after a
        // parallel loop are not defined.)
        let watch: Vec<&str> = program
            .units
            .iter()
            .filter(|u| u.kind == cedar_ir::UnitKind::Program)
            .flat_map(|u| {
                u.symbols
                    .iter()
                    .filter(|s| s.is_array())
                    .map(|s| s.name.as_str())
            })
            .collect();
        let vcfg = cedar_verify::ValidationConfig {
            seeds: (1..=4).collect(),
            ..Default::default()
        };
        let mc = MachineConfig::cedar_config1_scaled();
        let v = cedar_verify::restructure_validated(&program, &cfg, &mc, &watch, &vcfg)
            .unwrap_or_else(|e| die(&format!("serial reference: {e}")));
        print!("{}", cedar_ir::print::print_program(&v.program));
        // `Debug` prints every cycle count and error bound exactly.
        println!("{:?}\n{:?}", v.report, v.validation);
        return;
    }

    let result = restructure(&program, &cfg);
    if flags.contains(&"--report") {
        print!("{}", result.report);
    } else {
        print!("{}", cedar_ir::print::print_program(&result.program));
    }

    if flags.contains(&"--simulate") {
        let mc = if flags.contains(&"--fx80") {
            MachineConfig::fx80_scaled()
        } else {
            MachineConfig::cedar_config1_scaled()
        };
        let serial = cedar_sim::run(&program, mc.clone())
            .unwrap_or_else(|e| die(&format!("serial simulation: {e}")));
        let par = cedar_sim::run(&result.program, mc)
            .unwrap_or_else(|e| die(&format!("parallel simulation: {e}")));
        eprintln!(
            "serial {:.0} cycles, restructured {:.0} cycles, speedup {:.2}x",
            serial.cycles(),
            par.cycles(),
            serial.cycles() / par.cycles()
        );
    }
}

fn die(msg: &str) -> ! {
    eprintln!("parallelize_file: {msg}");
    std::process::exit(1);
}
