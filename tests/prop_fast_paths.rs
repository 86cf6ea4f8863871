//! Property test for the simulator's fast paths: the VM's loop kernels,
//! the arithmetic-progression section indexer, and the contiguous bulk
//! load/store are *observationally invisible*. Disabling all of them
//! ([`MachineConfig::without_fast_paths`]) on any restructured Table 1
//! kernel must reproduce the exact same execution — every `ExecStats`
//! counter, the cycle count bit for bit, and every watched result
//! value.

use std::sync::OnceLock;

use proptest::prelude::*;

use cedar_sim::MachineConfig;

/// Table 1 kernels, restructured once (immutable inputs; the property
/// varies only which kernel runs).
fn restructured_table1() -> &'static Vec<(String, Vec<&'static str>, cedar_ir::Program)> {
    static CACHE: OnceLock<Vec<(String, Vec<&'static str>, cedar_ir::Program)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        cedar_workloads::table1_workloads()
            .iter()
            .map(|w| {
                let r = cedar_restructure::restructure(
                    &w.compile(),
                    &cedar_restructure::PassConfig::automatic_1991(),
                );
                (w.name.to_string(), w.watch.clone(), r.program)
            })
            .collect()
    })
}

/// Simulate and return `(stats debug form, cycles, watched bits)`.
fn observe(
    program: &cedar_ir::Program,
    watch: &[&str],
    mc: MachineConfig,
) -> (String, u64, Vec<(String, Vec<u64>)>) {
    let sim = cedar_sim::run(program, mc).expect("simulation");
    let watched = watch
        .iter()
        .filter_map(|w| {
            sim.read_f64(w).map(|v| (w.to_string(), v.iter().map(|x| x.to_bits()).collect()))
        })
        .collect();
    (format!("{:?}", sim.stats), sim.cycles().to_bits(), watched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fast_paths_are_observationally_invisible(which in 0usize..10) {
        let kernels = restructured_table1();
        let (name, watch, program) = &kernels[which % kernels.len()];
        let fast = observe(program, watch, MachineConfig::cedar_config1_scaled());
        let slow = observe(
            program,
            watch,
            MachineConfig::cedar_config1_scaled().without_fast_paths(),
        );
        prop_assert_eq!(
            &fast.0, &slow.0,
            "kernel `{}`: ExecStats diverge with fast paths disabled", name
        );
        prop_assert_eq!(
            fast.1, slow.1,
            "kernel `{}`: cycle count diverges with fast paths disabled", name
        );
        prop_assert_eq!(
            &fast.2, &slow.2,
            "kernel `{}`: watched results diverge with fast paths disabled", name
        );
    }
}
