//! Figure 8: data partitioning in the Conjugate Gradient algorithm.
//!
//! Two implementation variants swept over 1–4 clusters, both measured
//! relative to "a program variant that was optimized for a 1-cluster
//! execution and which has its data in cluster memory":
//!
//! * **global-memory placement** (the automatically compiled form): all
//!   shared data in global memory — fast transfer + prefetch beats the
//!   cluster baseline on one cluster, but flattens as the global ports
//!   saturate;
//! * **data distribution** (§4.2.3): arrays partitioned across cluster
//!   memories (≈50 % of references localized) — slower on one cluster,
//!   near-linear through four.

use crate::pipeline::{assert_equivalent, run_program};
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;

/// One placement strategy's scaling curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Placement label (cluster / global / partitioned).
    pub label: &'static str,
    /// Speed relative to the 1-cluster cluster-memory baseline, indexed
    /// by cluster count 1..=4.
    pub speeds: Vec<f64>,
}

/// Sweep cluster counts for each placement; also returns the
/// global-memory crossover point (clusters where global overtakes
/// cluster placement).
pub fn run() -> (Vec<Series>, f64) {
    // Fig. 8 isolates placement/bandwidth effects, not paging: use the
    // unscaled machine (full 16 MB cluster memories) and a size big
    // enough to amortize loop startup.
    let w = cedar_workloads::linalg::cg(384);
    let program = crate::cache::compiled(&w);

    // Baseline: 1-cluster-optimized, data in cluster memory (no
    // globalization; cluster loop classes only). On purpose the one
    // pass not planned for the machine it runs on: the FX/80's
    // description stands in for "Cedar with one cluster".
    let mut base_cfg = PassConfig::manual_improved().for_machine(&cedar_ir::Machine::fx80());
    base_cfg.globalize = false;
    let base_prog = crate::cache::restructured(&program, &base_cfg);
    let base_mc = MachineConfig::cedar_config1().with_clusters(1);
    let baseline = run_program(&base_prog, None, &base_mc, &w.watch);

    let mut part_cfg = PassConfig::manual_improved();
    part_cfg.data_partitioning = true;
    let series_cfgs: [(&'static str, PassConfig); 2] = [
        ("global-memory data placement", PassConfig::manual_improved()),
        ("data distribution", part_cfg),
    ];
    // 2 placements × 4 cluster counts = 8 independent curve points; the
    // restructure of each placement is shared across its points.
    let cells: Vec<(usize, usize)> =
        (0..series_cfgs.len()).flat_map(|s| (1..=4).map(move |c| (s, c))).collect();
    let outs = cedar_par::par_map(cells, |(s, c)| {
        let prog = crate::cache::restructured(&program, &series_cfgs[s].1);
        let mc = MachineConfig::cedar_config1().with_clusters(c);
        run_program(&prog, None, &mc, &w.watch)
    });
    let series = series_cfgs
        .iter()
        .enumerate()
        .map(|(s, (label, _))| {
            let mut speeds = Vec::new();
            for o in &outs[s * 4..s * 4 + 4] {
                assert_equivalent(label, &baseline, o);
                speeds.push(baseline.cycles / o.cycles);
            }
            Series { label, speeds }
        })
        .collect();

    (series, baseline.cycles)
}

/// Render the curves as the harness's text artifact.
pub fn render(series: &[Series]) -> String {
    let mut out = String::from(
        "Figure 8: data partitioning in the Conjugate Gradient algorithm\n\
         (speed relative to the 1-cluster cluster-memory variant)\n\n",
    );
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let mut row = vec![s.label.to_string()];
            row.extend(s.speeds.iter().map(|v| format!("{v:.2}")));
            row
        })
        .collect();
    out.push_str(&crate::render_table(
        &["variant", "1 cluster", "2 clusters", "3 clusters", "4 clusters"],
        &rows,
    ));
    out.push_str(
        "\nPaper shape: global ≈1.6 at one cluster then saturating; \
         distribution below global at one cluster, near-linear to four, \
         crossing above by 3–4 clusters.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_crosses_over_and_scales() {
        let (series, _) = run();
        let global = &series[0].speeds;
        let part = &series[1].speeds;
        // Global placement beats the cluster baseline on one cluster.
        assert!(global[0] > 1.0, "global 1-cluster: {:.2}", global[0]);
        // Global saturates: 4-cluster gain over 2-cluster is limited.
        assert!(global[3] / global[1] < 1.6, "global should flatten: {:?}", global);
        // Distribution starts slower than global...
        assert!(
            part[0] < global[0],
            "partitioned 1-cluster ({:.2}) must trail global ({:.2})",
            part[0],
            global[0]
        );
        // ...but scales better and wins by 4 clusters.
        assert!(
            part[3] > global[3],
            "partitioned must win at 4 clusters: {:?} vs {:?}",
            part,
            global
        );
        assert!(part[3] / part[0] > 2.0, "partitioned should scale near-linearly: {:?}", part);
    }
}
