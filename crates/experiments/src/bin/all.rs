//! Regenerate every table and figure of the paper in one run, under
//! the supervised experiment engine (DESIGN.md §10).
//!
//! Usage: `all [--json PATH]` — a supervision report (recovered and
//! quarantined cells) is written to `target/artifacts.json` unless
//! overridden. On a clean run stdout is byte-identical to the
//! unsupervised harness; failed cells are retried up the degradation
//! ladder, and cells quarantined at every rung are reported on stderr
//! and in the JSON instead of aborting the suite.
//!
//! Exit codes (see README "Exit codes"): 0 = every cell completed,
//! 2 = harness error (at least one cell quarantined; crash bundles are
//! under `target/crash-bundles/`), a bad command line or environment,
//! or a report that cannot be written.

use cedar_experiments::supervise::{self, Quarantine, Recovery, Supervisor};
use cedar_experiments::Writer;
use cedar_par::cli::{exitcode, Args};

fn main() {
    let mut args = Args::from_env("all", "usage: all [--json PATH]");
    let json_path = args.value("--json").unwrap_or_else(|| "target/artifacts.json".to_string());
    args.finish();

    let sup = Supervisor::from_env();
    let t0 = std::time::Instant::now();
    let mut recovered: Vec<Recovery> = Vec::new();
    let mut quarantined: Vec<Quarantine> = Vec::new();
    fn collect(
        r: Vec<Recovery>,
        q: Vec<Quarantine>,
        recovered: &mut Vec<Recovery>,
        quarantined: &mut Vec<Quarantine>,
    ) {
        recovered.extend(r);
        quarantined.extend(q);
    }

    let (rows, r, q) = cedar_experiments::table1::run_supervised(&sup);
    collect(r, q, &mut recovered, &mut quarantined);
    println!("{}", cedar_experiments::table1::render(&rows));

    let (rows, r, q) = cedar_experiments::table2::run_supervised(&sup);
    collect(r, q, &mut recovered, &mut quarantined);
    println!("{}", cedar_experiments::table2::render(&rows));

    let footnote = supervise::run_cell(&sup, "table2/QCD/footnote", || {
        cedar_experiments::table2::qcd_footnote()
    });
    collect(footnote.recovered, footnote.quarantined, &mut recovered, &mut quarantined);
    if let Some((ser, crit, par)) = footnote.results.into_iter().next().flatten() {
        println!(
            "QCD footnote (Cedar): RNG cycle serialized {ser:.2}x (paper 1.8), \
             critical section {crit:.2}x (paper 4.5), parallel RNG {par:.2}x (paper 20.8)\n"
        );
    }

    let sweep = supervise::run_cell(&sup, "fig6", cedar_experiments::fig6::run);
    collect(sweep.recovered, sweep.quarantined, &mut recovered, &mut quarantined);
    if let Some(bars) = sweep.results.into_iter().next().flatten() {
        println!("{}", cedar_experiments::fig6::render(&bars));
    }

    let sweep = supervise::run_cell(&sup, "fig7", cedar_experiments::fig7::run);
    collect(sweep.recovered, sweep.quarantined, &mut recovered, &mut quarantined);
    if let Some(f) = sweep.results.into_iter().next().flatten() {
        println!("{}", cedar_experiments::fig7::render(&f));
    }

    let sweep = supervise::run_cell(&sup, "fig8", cedar_experiments::fig8::run);
    collect(sweep.recovered, sweep.quarantined, &mut recovered, &mut quarantined);
    if let Some((series, _)) = sweep.results.into_iter().next().flatten() {
        println!("{}", cedar_experiments::fig8::render(&series));
    }

    let sweep = supervise::run_cell(&sup, "fig9", cedar_experiments::fig9::run);
    collect(sweep.recovered, sweep.quarantined, &mut recovered, &mut quarantined);
    if let Some(ms) = sweep.results.into_iter().next().flatten() {
        println!("{}", cedar_experiments::fig9::render(&ms));
    }

    let sweep = supervise::run_cell(&sup, "ablation", cedar_experiments::ablation::run_all);
    collect(sweep.recovered, sweep.quarantined, &mut recovered, &mut quarantined);
    if let Some(sweeps) = sweep.results.into_iter().next().flatten() {
        println!("{}", cedar_experiments::ablation::render(&sweeps));
    }

    eprintln!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());

    let mut w = Writer::document();
    w.key("schema").str("cedar-artifacts-v1");
    w.key("chaos_seed").opt(sup.chaos, Writer::int);
    let deadline = sup.deadline.map(|d| d.as_secs_f64());
    w.key("deadline_s").opt(deadline, |w, s| w.float(s, format_args!("{s}")));
    w.key("recovered").raw(supervise::recovered_json(&recovered));
    w.key("quarantined").raw(supervise::quarantined_json(&quarantined));
    args.write_report(&json_path, &w.finish());
    eprintln!("wrote {json_path}");

    if !recovered.is_empty() {
        for r in &recovered {
            eprintln!("recovered `{}` at rung `{}`", r.cell, r.rung);
        }
    }
    if !quarantined.is_empty() {
        for q in &quarantined {
            eprintln!(
                "QUARANTINED `{}` ({}): {}{}",
                q.cell,
                q.kind,
                q.attempts.last().map(|(_, _, m)| robustness_trim(m)).unwrap_or_default(),
                q.bundle.as_ref().map(|b| format!(" [bundle: {b}]")).unwrap_or_default()
            );
        }
        eprintln!(
            "HARNESS ERROR: {} cell(s) quarantined; crash bundles under {}",
            quarantined.len(),
            sup.bundle_dir.display()
        );
    }
    std::process::exit(exitcode::classify(false, quarantined.len()));
}

/// First line of an error message, for one-line stderr summaries.
fn robustness_trim(msg: &str) -> &str {
    msg.lines().next().unwrap_or(msg)
}
