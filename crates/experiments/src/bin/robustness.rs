//! Robustness sweep: differentially validate every Table 1 / Table 2
//! workload under N perturbation seeds and emit a JSON report.
//!
//! Usage: `robustness [N_SEEDS] [--json PATH]` (default 8 seeds; JSON
//! goes to `target/robustness.json` unless overridden).
//!
//! Runs under the supervised experiment engine: a workload whose
//! validation job panics, times out, or dies on a simulator fault at
//! every degradation-ladder rung is quarantined (crash bundle under
//! `target/crash-bundles/`, `quarantined` section in the JSON) instead
//! of aborting the sweep.
//!
//! Exit codes (see README "Exit codes"): 0 = clean; 1 = validation
//! failure (a workload needed a serial fallback or degraded entirely);
//! 2 = harness error (at least one cell quarantined — the validation
//! verdict is incomplete, so this outranks code 1) or a bad command
//! line.

use cedar_experiments::{exitcode, robustness, Supervisor};

fn main() {
    let mut n_seeds: u64 = 8;
    let json_path = cedar_experiments::sweep_args(
        "usage: robustness [N_SEEDS] [--json PATH]",
        "target/robustness.json",
        |a| a.parse().map(|n| n_seeds = n).is_ok(),
    );

    let sup = Supervisor::from_env();
    let (rows, recovered, quarantined) = robustness::run_supervised(n_seeds, &sup);
    print!("{}", robustness::render(&rows));

    let degraded = rows.iter().filter(|r| r.degraded).count();
    let fallbacks: usize = rows.iter().map(|r| r.fallbacks).sum();
    let bitwise = rows.iter().filter(|r| r.bit_identical).count();
    println!(
        "\n{} workloads x {} seeds: {} bit-identical, {} fallback(s), {} degraded",
        rows.len(),
        n_seeds,
        bitwise,
        fallbacks,
        degraded
    );

    let json = robustness::to_json(&rows, n_seeds, &quarantined);
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    for r in &recovered {
        eprintln!("recovered `{}` at rung `{}`", r.cell, r.rung);
    }
    if fallbacks > 0 || degraded > 0 {
        for r in &rows {
            for note in &r.fallback_notes {
                eprintln!("  {}: {note}", r.workload);
            }
        }
        eprintln!("FAIL: {fallbacks} fallback(s), {degraded} degraded workload(s)");
    }
    if !quarantined.is_empty() {
        for q in &quarantined {
            eprintln!("QUARANTINED `{}` ({})", q.cell, q.kind);
        }
        eprintln!("HARNESS ERROR: {} cell(s) quarantined", quarantined.len());
    }
    std::process::exit(exitcode::classify(
        fallbacks > 0 || degraded > 0,
        quarantined.len(),
    ));
}
