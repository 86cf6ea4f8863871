//! Robustness sweep: every Table 1 / Table 2 workload is restructured,
//! then differentially validated under N seeded schedule perturbations
//! (`cedar-verify`). The sweep reports, per workload, whether the
//! restructured program survived all perturbed schedules, how far its
//! results moved (reductions reassociate, so small relative error is
//! expected there), and any nests the validator had to revert to
//! serial — emitted both as a text table and as a JSON report.

use cedar_sim::MachineConfig;
use cedar_verify::{restructure_validated, Validated, ValidationConfig};
use cedar_workloads::Workload;

/// One validated workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name (Table 1/2 row; workload names are static).
    pub workload: &'static str,
    /// Which suite it came from (`table1` / `table2`).
    pub suite: &'static str,
    /// Pass configuration label (`automatic` / `manual`).
    pub config: &'static str,
    /// Restructure→check rounds (1 = accepted first try).
    pub attempts: usize,
    /// Nests reverted to serial during validation.
    pub fallbacks: usize,
    /// Validation abandoned all parallelism.
    pub degraded: bool,
    /// Every perturbed run matched the unperturbed run bit for bit
    /// (expected exactly for reduction-free programs).
    pub bit_identical: bool,
    /// Largest relative deviation over all seeds.
    pub max_rel_err: f64,
    /// Per-seed `(seed, cycles, bit_identical, max_rel_err)`, sorted by
    /// seed so report emission is deterministic.
    pub seed_runs: Vec<(u64, f64, bool, f64)>,
    /// Human-readable fallback notes (`unit:line: reason`), sorted.
    pub fallback_notes: Vec<String>,
}

fn validate(w: &Workload, suite: &'static str, config: &'static str, seeds: &[u64]) -> Row {
    // This sweep bypasses `pipeline::run_program` (cedar-verify drives
    // the simulator itself), so it applies the supervisor hooks
    // directly: a chaos gate, plus the active rung's config rewrites
    // (all identities without a supervisor).
    crate::supervise::gate("validate");
    let program = crate::cache::compiled(w);
    let cfg = cedar_restructure::PassConfig::named(config)
        .unwrap_or_else(|| panic!("`{config}` names no pass configuration"));
    let cfg = crate::supervise::adjust_pass(&cfg);
    let mc = crate::supervise::adjust_machine(&MachineConfig::cedar_config1_scaled());
    let vcfg = ValidationConfig { seeds: seeds.to_vec(), ..Default::default() };
    let v: Validated = restructure_validated(&program, &cfg, &mc, &w.watch, &vcfg)
        .unwrap_or_else(|e| panic!("workload `{}`: serial reference failed: {e}", w.name));
    let max_rel_err = v.validation.seed_runs.iter().map(|r| r.max_rel_err).fold(0.0f64, f64::max);
    // Sort both lists before emission so the JSON report is byte-stable
    // regardless of the order the validator discovered things in.
    let mut seed_runs: Vec<(u64, f64, bool, f64)> = v
        .validation
        .seed_runs
        .iter()
        .map(|r| (r.seed, r.cycles, r.bit_identical, r.max_rel_err))
        .collect();
    seed_runs.sort_by_key(|&(seed, ..)| seed);
    let mut fallback_notes: Vec<String> = v
        .validation
        .fallbacks
        .iter()
        .map(|fb| format!("{}:line {}: {}", fb.unit, fb.line, fb.reason))
        .collect();
    fallback_notes.sort();
    Row {
        workload: w.name,
        suite,
        config,
        attempts: v.validation.attempts,
        fallbacks: v.validation.fallbacks.len(),
        degraded: v.validation.degraded_to_serial,
        bit_identical: v.validation.all_bit_identical(),
        max_rel_err,
        seed_runs,
        fallback_notes,
    }
}

/// Validate the workloads named in `only` of both suites under `n_seeds`
/// perturbation seeds; `None` validates everything (determinism tests
/// use small subsets to stay fast). Row order is the suite order
/// regardless of the filter's order. Workloads are independent
/// validation jobs ([`cedar_par::par_map`]); the validator's own
/// per-seed sweep runs serially inside each worker.
pub fn run_filtered(n_seeds: u64, only: Option<&[&str]>) -> Vec<Row> {
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    cedar_par::par_map(jobs(only), |(w, suite, config)| validate(&w, suite, config, &seeds))
}

fn jobs(only: Option<&[&str]>) -> Vec<(Workload, &'static str, &'static str)> {
    cedar_workloads::table1_workloads()
        .into_iter()
        .map(|w| (w, "table1", "automatic"))
        .chain(cedar_workloads::table2_workloads().into_iter().map(|w| (w, "table2", "manual")))
        .filter(|(w, ..)| only.is_none_or(|names| names.contains(&w.name)))
        .collect()
}

/// Both suites under the supervised engine: one cell per validation job.
/// A quarantined workload drops out of the row list and is reported in
/// the quarantine section (and the sweep JSON) instead of aborting the
/// whole validation run.
pub fn run_supervised(
    n_seeds: u64,
    sup: &crate::supervise::Supervisor,
) -> (Vec<Row>, Vec<crate::supervise::Recovery>, Vec<crate::supervise::Quarantine>) {
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    let cells = jobs(None)
        .into_iter()
        .map(|(w, suite, config)| {
            crate::supervise::Cell::with_source(
                format!("robustness/{suite}/{}", w.name),
                w.source.clone(),
                (w, suite, config),
            )
        })
        .collect();
    let sweep = crate::supervise::run_cells(sup, cells, |(w, suite, config)| {
        validate(w, suite, config, &seeds)
    });
    (sweep.results.into_iter().flatten().collect(), sweep.recovered, sweep.quarantined)
}

/// Text rendering.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.suite.to_string(),
                r.config.to_string(),
                r.attempts.to_string(),
                r.fallbacks.to_string(),
                if r.degraded { "yes" } else { "no" }.to_string(),
                if r.bit_identical { "yes" } else { "no" }.to_string(),
                format!("{:.2e}", r.max_rel_err),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "workload",
            "suite",
            "config",
            "attempts",
            "fallbacks",
            "degraded",
            "bit-identical",
            "max-rel-err",
        ],
        &body,
    )
}

/// JSON rendering. Quarantined cells — jobs the supervisor gave up on
/// — are first-class report citizens, not silently missing rows.
pub fn to_json(rows: &[Row], n_seeds: u64, quarantined: &[crate::supervise::Quarantine]) -> String {
    let mut w = crate::Writer::document();
    w.key("seeds").int(n_seeds);
    w.key("quarantined").raw(crate::supervise::quarantined_json(quarantined));
    w.key("workloads").rows();
    for r in rows {
        w.obj();
        w.key("name").str(r.workload);
        w.key("suite").str(r.suite);
        w.key("config").str(r.config);
        w.key("attempts").int(r.attempts);
        w.key("fallbacks").int(r.fallbacks);
        w.key("degraded_to_serial").bool(r.degraded);
        w.key("bit_identical").bool(r.bit_identical);
        w.key("max_rel_err").float(r.max_rel_err, format_args!("{:e}", r.max_rel_err));
        w.key("seed_runs").arr();
        for &(seed, cycles, bit, err) in &r.seed_runs {
            w.obj().key("seed").int(seed).key("cycles").float(cycles, format_args!("{cycles:e}"));
            w.key("bit_identical").bool(bit);
            w.key("max_rel_err").float(err, format_args!("{err:e}")).end();
        }
        w.end();
        w.key("fallback_notes").strs(&r.fallback_notes).end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_smoke_and_json_shape() {
        // Two seeds over a couple of representative workloads keeps the
        // smoke test fast; the binary sweeps everything.
        let seeds = [1u64, 2];
        let w = cedar_workloads::linalg::tridag(48);
        let row = validate(&w, "table1", "automatic", &seeds);
        assert_eq!(row.seed_runs.len(), 2);
        assert!(!row.degraded, "tridag must not degrade: {row:?}");
        let json = to_json(&[row], 2, &[]);
        assert!(json.contains("\"name\": \"tridag\""));
        assert!(json.contains("\"seed_runs\": ["));
        assert!(json.contains("\"quarantined\": []"));
        assert!(json.ends_with("}\n"));
    }
}
