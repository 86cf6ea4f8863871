//! Figure 6: the effect of compiler-inserted prefetch instructions on
//! Conjugate Gradient and TRFD.
//!
//! "Although there is an improvement of up to 100% in CG, TRFD exhibits
//! only a 15% gain, primarily because vector lengths are large in CG
//! and small in TRFD. In addition, the manually optimized version of
//! TRFD has a high percentage of its references privatized."

use crate::pipeline::run_program;
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;

/// One bar of Figure 6.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Program label.
    pub program: &'static str,
    /// Cycles with the prefetch buffer disabled.
    pub no_prefetch_cycles: f64,
    /// Cycles with prefetch on.
    pub prefetch_cycles: f64,
    /// Relative speed with prefetch (no-prefetch = 1.0).
    pub gain: f64,
    /// The gain Figure 6 reports.
    pub paper_gain: f64,
}

/// Measure both prefetch settings for each Figure-6 program. The four
/// (program, prefetch) cells are independent jobs; the restructure of
/// each program is shared between its two cells via [`crate::cache`].
pub fn run() -> Vec<Bar> {
    let specs: Vec<(&'static str, cedar_workloads::Workload, PassConfig, f64)> = vec![
        ("Conjugate Gradient", cedar_workloads::linalg::cg(192), PassConfig::automatic_1991(), 2.0),
        ("TRFD", cedar_workloads::perfect::trfd(), PassConfig::manual_improved(), 1.15),
    ];
    let cells: Vec<(usize, bool)> =
        (0..specs.len()).flat_map(|k| [(k, true), (k, false)]).collect();
    let runs = cedar_par::par_map(cells, |(k, prefetch)| {
        let (_, w, cfg, _) = &specs[k];
        let program = crate::cache::restructured(&crate::cache::compiled(w), cfg);
        let mc = if prefetch {
            MachineConfig::cedar_config1_scaled()
        } else {
            MachineConfig::cedar_config1_scaled().without_prefetch()
        };
        run_program(&program, None, &mc, &w.watch)
    });
    specs
        .iter()
        .enumerate()
        .map(|(k, (name, _, _, paper_gain))| {
            let with = &runs[k * 2];
            let without = &runs[k * 2 + 1];
            crate::pipeline::assert_equivalent(name, with, without);
            Bar {
                program: name,
                no_prefetch_cycles: without.cycles,
                prefetch_cycles: with.cycles,
                gain: without.cycles / with.cycles,
                paper_gain: *paper_gain,
            }
        })
        .collect()
}

/// Render the bars as the harness's text artifact.
pub fn render(bars: &[Bar]) -> String {
    let mut out = String::from(
        "Figure 6: effect of compiler-inserted prefetch instructions\n\
         (relative speed, no-prefetch = 1.0)\n\n",
    );
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.program.to_string(),
                "1.00".to_string(),
                format!("{:.2}", b.gain),
                format!("{:.2}", b.paper_gain),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &["Program", "No prefetch", "Prefetch", "Paper prefetch"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_gains_more_than_trfd() {
        let bars = run();
        let cg = &bars[0];
        let trfd = &bars[1];
        assert!(cg.gain > 1.2, "CG prefetch gain too small: {:.2}", cg.gain);
        assert!(
            trfd.gain < cg.gain,
            "TRFD ({:.2}) must gain less than CG ({:.2}) — short, privatized vectors",
            trfd.gain,
            cg.gain
        );
        assert!(trfd.gain >= 1.0, "prefetch must never hurt: {:.2}", trfd.gain);
    }
}
