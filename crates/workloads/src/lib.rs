#![warn(missing_docs)]
//! Fortran 77 workload sources for the Cedar restructurer experiments.
//!
//! Two suites mirror the paper's §4.1 evaluation:
//!
//! * [`linalg`] — the Conjugate Gradient algorithm and nine
//!   Numerical-Recipes-style linear algebra routines of **Table 1**,
//!   written clean-room in the accepted F77 dialect;
//! * [`perfect`] — twelve kernels that proxy the Perfect Benchmarks
//!   programs of **Table 2**. Each proxy is built so the *automatic*
//!   pipeline fails (or wins) for the same stated reason as in the
//!   paper, and each §4.1 technique unlocks the same program it
//!   unlocked there (array privatization for MDG/ADM, generalized
//!   induction variables and the run-time test for OCEAN, triangular
//!   GIVs for TRFD, the RNG dependence cycle for QCD, critical sections
//!   for TRACK, loop granularity/fusion for FLO52, ...).
//!
//! Every workload is a *complete program* (driver + routines): the
//! driver initializes data deterministically, invokes the kernel, and
//! reduces results into named checksum variables that the experiment
//! harness (and the equivalence tests) read back from the simulator.
//!
//! Paper sizes vs. ours: interpreting 10⁹ operations is pointless, so
//! sizes are scaled down (the `paper_size`/`size` fields record the
//! mapping) and the machine-capacity scale in `cedar-sim` keeps the
//! working-set/capacity ratios — which drive the paging results — the
//! same. See EXPERIMENTS.md.

pub mod linalg;
pub mod perfect;

/// One runnable workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Table/figure row name (e.g. "ludcmp", "MDG").
    pub name: &'static str,
    /// The data size the paper reports for this row.
    pub paper_size: usize,
    /// The scaled size we run.
    pub size: usize,
    /// Complete fixed-form Fortran 77 source.
    pub source: String,
    /// Variables of the main program to read back as results (first one
    /// is the primary checksum).
    pub watch: Vec<&'static str>,
    /// The §4.1 technique the paper credits for this workload's manual
    /// improvement (documentation only).
    pub key_technique: &'static str,
}

impl Workload {
    /// Parse + lower the source.
    pub fn compile(&self) -> cedar_ir::Program {
        cedar_ir::compile_source(&self.source)
            .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", self.name))
    }
}

/// All Table 1 workloads at their default scaled sizes.
pub fn table1_workloads() -> Vec<Workload> {
    linalg::all()
}

/// All Table 2 (Perfect proxy) workloads.
pub fn table2_workloads() -> Vec<Workload> {
    perfect::all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_compile() {
        for w in table1_workloads().iter().chain(&table2_workloads()) {
            let p = w.compile();
            assert!(p.main().is_some(), "workload `{}` has no PROGRAM unit", w.name);
        }
    }

    #[test]
    fn registry_is_complete() {
        let t1: Vec<&str> = table1_workloads().iter().map(|w| w.name).collect();
        assert_eq!(
            t1,
            vec![
                "CG", "ludcmp", "lubksb", "sparse", "gaussj", "svbksb", "svdcmp", "mprove",
                "toeplz", "tridag"
            ]
        );
        let t2: Vec<&str> = table2_workloads().iter().map(|w| w.name).collect();
        assert_eq!(
            t2,
            vec![
                "ARC2D", "FLO52", "BDNA", "DYFESM", "ADM", "MDG", "MG3D", "OCEAN", "TRACK", "TRFD",
                "QCD", "SPEC77"
            ]
        );
    }
}
