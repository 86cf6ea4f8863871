//! Race-detector sweep: every restructured Table 1 / Table 2 workload
//! (expected clean) plus the seeded racy negatives (expected flagged),
//! with a JSON confusion matrix.
//!
//! Usage: `races [--json PATH]` (JSON goes to `target/races.json`
//! unless overridden).
//!
//! Runs under the supervised experiment engine: a program whose
//! detector run panics, times out, or dies on a simulator fault at
//! every degradation-ladder rung is quarantined (crash bundle under
//! `target/crash-bundles/`, `quarantined` section in the JSON) instead
//! of aborting the sweep.
//!
//! Exit codes (see README "Exit codes"): 0 = clean; 1 = validation
//! failure (false positive/negative or detector-induced cycle
//! difference); 2 = harness error (at least one cell quarantined — the
//! confusion matrix is incomplete, so this outranks code 1), a bad
//! command line or environment, or a report that cannot be written.

use cedar_experiments::{races, Supervisor};
use cedar_par::cli::{exitcode, Args};

fn main() {
    let mut args = Args::from_env("races", "usage: races [--json PATH]");
    let json_path = args.value("--json").unwrap_or_else(|| "target/races.json".to_string());
    args.finish();

    let sup = Supervisor::from_env();
    let (rows, recovered, quarantined) = races::run_supervised(&sup);
    print!("{}", races::render(&rows));

    let c = races::confusion(&rows);
    let cycle_breaks = rows.iter().filter(|r| !r.cycles_identical).count();
    println!(
        "\nconfusion: {} true positive, {} false negative, {} false positive, \
         {} true negative; {} cycle-count mismatch(es)",
        c.true_positive, c.false_negative, c.false_positive, c.true_negative, cycle_breaks
    );

    args.write_report(&json_path, &races::to_json(&rows, &quarantined));
    println!("wrote {json_path}");

    for r in &recovered {
        eprintln!("recovered `{}` at rung `{}`", r.cell, r.rung);
    }
    let validation_failed = c.false_negative > 0 || c.false_positive > 0 || cycle_breaks > 0;
    if validation_failed {
        eprintln!(
            "FAIL: {} false negative(s), {} false positive(s), {} cycle mismatch(es)",
            c.false_negative, c.false_positive, cycle_breaks
        );
    }
    if !quarantined.is_empty() {
        for q in &quarantined {
            eprintln!("QUARANTINED `{}` ({})", q.cell, q.kind);
        }
        eprintln!("HARNESS ERROR: {} cell(s) quarantined", quarantined.len());
    }
    std::process::exit(exitcode::classify(validation_failed, quarantined.len()));
}
