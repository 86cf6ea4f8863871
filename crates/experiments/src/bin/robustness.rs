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
//! verdict is incomplete, so this outranks code 1), a bad command
//! line or environment, or a report that cannot be written.

use cedar_experiments::{robustness, Supervisor};
use cedar_par::cli::{exitcode, Args};

fn main() {
    let mut args = Args::from_env("robustness", "usage: robustness [N_SEEDS] [--json PATH]");
    let json_path = args.value("--json").unwrap_or_else(|| "target/robustness.json".to_string());
    let n_seeds: u64 = match args.positional().map(|n| n.parse()) {
        None => 8,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => args.fail("N_SEEDS is a count of at least 1"),
    };
    args.finish();

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

    args.write_report(&json_path, &robustness::to_json(&rows, n_seeds, &quarantined));
    println!("wrote {json_path}");

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
    std::process::exit(exitcode::classify(fallbacks > 0 || degraded > 0, quarantined.len()));
}
