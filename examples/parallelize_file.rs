//! The command-line front door to the restructurer: read Fortran 77,
//! emit Cedar Fortran (or OpenMP, or the directive-free reference).
//!
//! ```text
//! cargo run --release --example parallelize_file -- [FILE.f] [flags]
//! ```
//!
//! `--help` prints the flags. Exit codes: `0` ok, `1` the program does
//! not compile or its simulation fails, `2` a bad command line or an
//! input that cannot be read.

use cedar_par::cli::{exitcode, Args};
use cedar_restructure::{restructure, BackendKind, EmitInput, PassConfig};
use cedar_sim::MachineConfig;

const USAGE: &str = "usage: parallelize_file [FILE.f] [--free] [--manual] [--fx80] \
[--backend cedar|openmp|serial] [--report] [--simulate] [--validate]
  FILE.f        fixed-form Fortran 77 source (a built-in MDG sample when omitted)
  --free        FILE.f is free-form source
  --manual      enable the §4.1 \"manually improved\" technique set
  --fx80        plan for, validate and simulate on the Alliant FX/80
                (one cluster) instead of Cedar configuration 1
  --backend B   emission dialect (default cedar)
  --report      print per-loop decisions instead of the output code
  --simulate    also run serial vs. restructured on the machine model
  --validate    differentially validate instead (serial reference,
                race-collecting run, 4 perturbed schedules; racy or
                diverging nests are demoted) and print the accepted
                program and the verdict. The output does not depend
                on CEDAR_JOBS: CI diffs it between 1 and 4.";

fn main() {
    let mut args = Args::from_env("parallelize_file", USAGE);
    let backend = args.value("--backend").unwrap_or(BackendKind::Cedar);
    let (free, manual, fx80) = (args.flag("--free"), args.flag("--manual"), args.flag("--fx80"));
    let report = args.flag("--report");
    let (simulate, validate) = (args.flag("--simulate"), args.flag("--validate"));
    let file = args.positional();
    args.finish();

    let src = match file {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| args.fail(format!("cannot read {path}: {e}"))),
        None => {
            eprintln!("(no input file given; using the built-in MDG sample)");
            cedar_workloads::perfect::mdg().source
        }
    };

    let compiled = if free { cedar_ir::compile_free(&src) } else { cedar_ir::compile_source(&src) };
    let program = compiled.unwrap_or_else(|e| die(&format!("front end: {e}")));

    // One machine: what the pass plans for, `--validate` checks on and
    // `--simulate` runs on.
    let mc =
        if fx80 { MachineConfig::fx80_scaled() } else { MachineConfig::cedar_config1_scaled() };
    let cfg = if manual { PassConfig::manual_improved() } else { PassConfig::automatic_1991() }
        .for_machine(&mc.machine);
    let emit = |restructured, report| {
        backend.backend().emit(&EmitInput { original: &program, restructured, report })
    };

    if validate {
        // Watch the arrays of the main program: its data. (Scalars are
        // mostly loop indices and temporaries, whose values after a
        // parallel loop are not defined.)
        let watch: Vec<&str> = program
            .units
            .iter()
            .filter(|u| u.kind == cedar_ir::UnitKind::Program)
            .flat_map(|u| u.symbols.iter().filter(|s| s.is_array()).map(|s| s.name.as_str()))
            .collect();
        let vcfg =
            cedar_verify::ValidationConfig { seeds: (1..=4).collect(), ..Default::default() };
        let v = cedar_verify::restructure_validated(&program, &cfg, &mc, &watch, &vcfg)
            .unwrap_or_else(|e| die(&format!("serial reference: {e}")));
        print!("{}", emit(&v.program, &v.report));
        // `Debug` prints every cycle count and error bound exactly.
        println!("{:?}\n{:?}", v.report, v.validation);
        eprintln!("validated on {}", mc.machine.name);
        return;
    }

    let result = restructure(&program, &cfg);
    if report {
        print!("{}", result.report);
    } else {
        print!("{}", emit(&result.program, &result.report));
    }

    if simulate {
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
    std::process::exit(exitcode::VALIDATION);
}
