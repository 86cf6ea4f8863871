//! Restructure one Fortran source file and print the emission.
//!
//! ```text
//! emit prog.f                          # Cedar Fortran, automatic passes
//! emit prog.f --backend openmp         # OpenMP directives instead
//! emit prog.f --backend serial         # directive-free reference
//! emit prog.f --free --config manual   # free-form input, tuned passes
//! ```
//!
//! The emission goes to stdout; the restructuring report to stderr with
//! `--report`. Exit codes: `0` ok, `1` compile error, `2` usage error.

use cedar_restructure::{emit_with, BackendKind, PassConfig};
use std::process::ExitCode;

const USAGE: &str =
    "usage: emit FILE [--backend cedar|openmp|serial] [--config auto|manual|serial] \
     [--free] [--report]";

fn main() -> ExitCode {
    let mut file = None;
    let mut backend = BackendKind::Cedar;
    let mut cfg = PassConfig::automatic_1991();
    let mut free_form = false;
    let mut report = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        let r: Result<(), String> = match arg.as_str() {
            "--backend" => value("--backend").and_then(|v| {
                backend = v.parse()?;
                Ok(())
            }),
            "--config" => value("--config").and_then(|v| {
                cfg = PassConfig::named(&v).ok_or_else(|| format!("unknown config `{v}`"))?;
                Ok(())
            }),
            "--free" => {
                free_form = true;
                Ok(())
            }
            "--report" => {
                report = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("emit: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(file) = file else {
        eprintln!("emit: no input file\n{USAGE}");
        return ExitCode::from(2);
    };

    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("emit: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let compiled = if free_form {
        cedar_ir::compile_free(&source)
    } else {
        cedar_ir::compile_source(&source)
    };
    let program = match compiled {
        Ok(p) => p,
        Err(e) => {
            eprintln!("emit: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (text, rep) = emit_with(backend, &program, &cfg);
    print!("{text}");
    if report {
        eprint!("{rep}");
    }
    ExitCode::SUCCESS
}
