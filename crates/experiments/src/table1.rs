//! Table 1: speedups of automatically restructured linear algebra
//! routines on Configuration 1 of the 32-processor Cedar.

use crate::pipeline::{fmt_speedup, run_workload};
use crate::supervise::{run_cells, Cell, Quarantine, Recovery, Supervisor};
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;
use cedar_workloads::Workload;

/// Paper-reported speedups, in workload registry order.
pub const PAPER: &[(&str, usize, f64)] = &[
    ("CG", 400, 163.0),
    ("ludcmp", 1000, 9.2),
    ("lubksb", 1000, 6.8),
    ("sparse", 800, 29.0),
    ("gaussj", 600, 10.0),
    ("svbksb", 200, 32.0),
    ("svdcmp", 200, 7.2),
    ("mprove", 1000, 1079.0),
    ("toeplz", 800, 1.3),
    ("tridag", 800, 2.1),
];

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Routine name.
    pub name: &'static str,
    /// Problem size the paper ran.
    pub paper_size: usize,
    /// Scaled size we run (capacities are scaled to match).
    pub our_size: usize,
    /// Speedup Table 1 reports.
    pub paper_speedup: f64,
    /// Speedup we measure.
    pub measured_speedup: f64,
    /// Serial-baseline cycles.
    pub serial_cycles: f64,
    /// Restructured-version cycles.
    pub parallel_cycles: f64,
}

/// Measure one row, automatically restructured for Configuration 1.
fn measure(w: &Workload) -> Row {
    let (cfg, mc) = (PassConfig::automatic_1991(), MachineConfig::cedar_config1_scaled());
    let (ser, par) = run_workload(w, &cfg, &mc);
    let paper = PAPER.iter().find(|(n, _, _)| *n == w.name).expect("registry order matches PAPER");
    Row {
        name: w.name,
        paper_size: paper.1,
        our_size: w.size,
        paper_speedup: paper.2,
        measured_speedup: ser.cycles / par.cycles,
        serial_cycles: ser.cycles,
        parallel_cycles: par.cycles,
    }
}

/// Run the whole table. Cells are independent simulations, so they run
/// on [`cedar_par::par_map`] (index-ordered results; `CEDAR_JOBS=1`
/// serializes).
pub fn run() -> Vec<Row> {
    cedar_par::par_map(cells(), |cell| measure(&cell.input))
}

/// [`run`] under the supervised engine. Failed cells climb the
/// degradation ladder; cells quarantined at every rung are reported
/// separately instead of aborting the table.
pub fn run_supervised(sup: &Supervisor) -> (Vec<Row>, Vec<Recovery>, Vec<Quarantine>) {
    let sweep = run_cells(sup, cells(), measure);
    (sweep.results.into_iter().flatten().collect(), sweep.recovered, sweep.quarantined)
}

/// The table's cells: one per routine.
fn cells() -> Vec<Cell<Workload>> {
    let cell = |w: Workload| Cell::with_source(format!("table1/{}", w.name), w.source.clone(), w);
    cedar_workloads::table1_workloads().into_iter().map(cell).collect()
}

/// Render in the paper's layout plus our columns.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "Table 1: Speedups of automatically restructured linear algebra \
         routines\n(Cedar Configuration 1 model, capacity scale 128)\n\n",
    );
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.paper_size.to_string(),
                r.our_size.to_string(),
                fmt_speedup(r.paper_speedup),
                fmt_speedup(r.measured_speedup),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &["Routine", "Paper size", "Our size", "Paper speedup", "Measured speedup"],
        &body,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-size table takes ~10s in release; in tests we assert the
    /// qualitative shape on three representative rows at reduced sizes.
    #[test]
    fn shape_holds_at_reduced_sizes() {
        let mc = MachineConfig::cedar_config1_scaled();
        let cfg = PassConfig::automatic_1991();
        let fast = run_one(&cedar_workloads::linalg::sparse(96), &cfg, &mc);
        let slow = run_one(&cedar_workloads::linalg::tridag(128), &cfg, &mc);
        assert!(fast > slow, "sparse ({fast:.1}) must outrun tridag ({slow:.1})");
        assert!(fast > 3.0, "sparse speedup too small: {fast:.2}");
        assert!(slow < 4.0, "tridag speedup too large: {slow:.2}");
    }

    fn run_one(w: &cedar_workloads::Workload, cfg: &PassConfig, mc: &MachineConfig) -> f64 {
        let (ser, par) = run_workload(w, cfg, mc);
        ser.cycles / par.cycles
    }
}
