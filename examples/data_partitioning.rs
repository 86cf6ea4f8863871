//! Data placement on the Cedar hierarchy (paper §4.2.2–4.2.3): sweep
//! the Conjugate Gradient algorithm over 1–4 clusters under two
//! placement strategies — everything in global memory vs. partitioned
//! across the cluster memories — reproducing Figure 8's two curves.
//!
//! Run with: `cargo run --release --example data_partitioning`

use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;

fn main() {
    let w = cedar_workloads::linalg::cg(384);
    let program = w.compile();

    // Reference: optimized for one cluster (the FX/80's description),
    // data in cluster memory.
    let mut base_cfg = PassConfig::manual_improved().for_machine(&cedar_ir::Machine::fx80());
    base_cfg.globalize = false;
    let base = restructure(&program, &base_cfg).program;
    let base_sim =
        cedar_sim::run(&base, MachineConfig::cedar_config1().with_clusters(1)).expect("baseline");
    let t0 = region(&base_sim);
    println!("baseline (1 cluster, cluster memory): {t0:.0} cycles\n");
    println!("{:<28} {:>9} {:>9} {:>9} {:>9}", "strategy", "1 cl", "2 cl", "3 cl", "4 cl");

    for (label, partition) in [("global-memory placement", false), ("data distribution", true)] {
        let mut cfg = PassConfig::manual_improved();
        cfg.data_partitioning = partition;
        let prog = restructure(&program, &cfg).program;
        let mut row = format!("{label:<28}");
        for clusters in 1..=4 {
            let mc = MachineConfig::cedar_config1().with_clusters(clusters);
            let sim = cedar_sim::run(&prog, mc).expect("variant");
            row.push_str(&format!(" {:>9.2}", t0 / region(&sim)));
        }
        println!("{row}");
    }
    println!(
        "\nShape to observe (paper Fig. 8): the global curve rises then\n\
         flattens as the interconnect saturates; the distribution curve\n\
         starts below it and scales near-linearly, crossing above by\n\
         three to four clusters."
    );
}

/// Timer-region cycles (the workloads bracket their kernels with
/// CALL TSTART / CALL TSTOP).
fn region(sim: &cedar_sim::Simulator<'_>) -> f64 {
    if sim.stats.region_cycles > 0.0 {
        sim.stats.region_cycles
    } else {
        sim.cycles()
    }
}
