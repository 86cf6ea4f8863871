use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;

fn run(w: &cedar_workloads::Workload, cfg: &PassConfig, mc: &MachineConfig) -> f64 {
    let p0 = w.compile();
    let r = restructure(&p0, cfg);
    cedar_sim::run(&r.program, mc.clone()).unwrap().cycles()
}

fn main() {
    let mc = MachineConfig::cedar_config1_scaled();
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "name", "serial", "auto", "manual", "s/a", "s/m"
    );
    for w in cedar_workloads::table2_workloads() {
        let ser = run(&w, &PassConfig::serial(), &mc);
        let auto = run(&w, &PassConfig::automatic_1991(), &mc);
        let man = run(&w, &PassConfig::manual_improved(), &mc);
        println!(
            "{:<8} {:>14.0} {:>14.0} {:>14.0} {:>8.2} {:>8.2}",
            w.name,
            ser,
            auto,
            man,
            ser / auto,
            ser / man
        );
    }
}
