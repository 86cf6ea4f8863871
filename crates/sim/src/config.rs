//! Run configurations: a [`Machine`] plus the settings of one run on it.

use cedar_ir::Machine;
use cedar_par::CancelToken;
use std::time::Duration;

/// Which execution engine runs the program (DESIGN.md §14).
///
/// Both engines are **bit-identical** in every observable: cycles,
/// outputs, stats, race reports, and `SimError`s. The VM is the default
/// because it is faster; the tree-walker stays as the differential
/// oracle the property tests and the fuzz `vm-vs-interpreter` lane
/// compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The original tree-walking interpreter over the IR.
    Interp,
    /// The bytecode VM: each unit body is lowered once into a flat
    /// instruction stream (`sim::compile`) and dispatched by a tight
    /// `loop { match instr }` (`sim::vm`).
    Vm,
}

/// A machine and how to run on it. The model — topology, costs,
/// capacities — is the [`Machine`] the restructurer also plans from;
/// the rest says which engine runs, what stops a runaway program and
/// what is observed on the way.
///
/// The `*_scaled` constructors divide capacities by
/// [`MachineConfig::DEFAULT_SCALE`] so that reduced workload sizes keep
/// the paper's working-set / capacity ratios (see DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The simulated machine.
    pub machine: Machine,

    // ---- interpreter safety ----
    /// DO WHILE iteration bound (runaway-loop backstop).
    pub max_while_iters: u64,
    /// Watchdog budget on total executed statements; a run exceeding it
    /// fails with a `Limit` error instead of spinning forever.
    pub watchdog_ops: u64,
    /// Enable the happens-before data-race detector (DESIGN.md §8).
    /// Off by default: the detector charges no simulated cycles either
    /// way, but instrumenting every element access costs host time.
    pub detect_races: bool,
    /// Run the VM's straight-line inner loops as loop kernels, and index
    /// a one-range section as an arithmetic progression. Simulated
    /// behavior is bit-identical either way — the switch exists so the
    /// fast-path equivalence tests can compare the shortcuts against
    /// the statement-by-statement and element-by-element paths
    /// (DESIGN.md §9).
    pub fast_paths: bool,
    /// Cooperative cancellation handle the watchdog polls alongside its
    /// statement budget (every 1024 executed statements, so one clock
    /// read amortizes over the window). When the token expires — its
    /// wall-clock deadline lapses or a supervisor calls
    /// [`CancelToken::cancel`] — the run aborts with
    /// [`crate::SimErrorKind::Timeout`]. `None` (the default) polls
    /// nothing and costs nothing. A successful run is bit-identical
    /// with or without a token: the deadline can only *abort*, never
    /// change what the program computes.
    pub cancel: Option<CancelToken>,
    /// Execution engine ([`Engine::Vm`] by default;
    /// [`MachineConfig::with_engine`] selects the tree-walking
    /// differential oracle). Bit-identical either way — see DESIGN.md §14.
    pub engine: Engine,
}

impl MachineConfig {
    /// Capacity scale factor used by the experiments. Workload sizes
    /// are scaled down from the paper's (e.g. 1000→160 matrix rows for
    /// `mprove`), so memory capacities scale by this factor to keep the
    /// paper's working-set/capacity ratios: 16 MB/128 = 128 KB of
    /// cluster memory means a two-matrix 160×160 REAL working set
    /// (205 KB) thrashes in cluster memory but fits in the 512 KB global
    /// pool — exactly the `mprove`/CG story of Table 1.
    pub const DEFAULT_SCALE: u64 = 128;

    /// `machine` under the default run settings.
    pub fn on(machine: Machine) -> MachineConfig {
        MachineConfig {
            machine,
            max_while_iters: 50_000_000,
            watchdog_ops: 4_000_000_000,
            detect_races: false,
            fast_paths: true,
            cancel: None,
            engine: Engine::Vm,
        }
    }

    /// [`Machine::cedar_config1`].
    pub fn cedar_config1() -> MachineConfig {
        Self::on(Machine::cedar_config1())
    }

    /// [`Machine::cedar_config2`].
    pub fn cedar_config2() -> MachineConfig {
        Self::on(Machine::cedar_config2())
    }

    /// [`Machine::fx80`].
    pub fn fx80() -> MachineConfig {
        Self::on(Machine::fx80())
    }

    /// Scale both capacities down by `factor` (keeps working-set ratios
    /// when workloads shrink).
    pub fn scaled(mut self, factor: u64) -> MachineConfig {
        let m = &mut self.machine;
        m.cluster_capacity = (m.cluster_capacity / factor).max(1);
        m.global_capacity = (m.global_capacity / factor).max(1);
        m.name = format!("{}-scaled{factor}", m.name);
        self
    }

    /// Cedar Configuration 1 with capacities scaled for the reduced
    /// workload sizes used by the experiment harness.
    /// Config 1 (Table 2 note: 2 clusters) at [`Self::DEFAULT_SCALE`].
    pub fn cedar_config1_scaled() -> MachineConfig {
        Self::cedar_config1().scaled(Self::DEFAULT_SCALE)
    }

    /// Config 2 (4 clusters × 8 CEs) at [`Self::DEFAULT_SCALE`].
    pub fn cedar_config2_scaled() -> MachineConfig {
        Self::cedar_config2().scaled(Self::DEFAULT_SCALE)
    }

    /// Alliant FX/80 at [`Self::DEFAULT_SCALE`].
    pub fn fx80_scaled() -> MachineConfig {
        Self::fx80().scaled(Self::DEFAULT_SCALE)
    }

    /// Disable the prefetch unit (Fig. 6 ablation).
    pub fn without_prefetch(mut self) -> MachineConfig {
        self.machine.prefetch = false;
        self
    }

    /// Restrict the machine to `n` clusters (Fig. 8 sweep).
    pub fn with_clusters(mut self, n: usize) -> MachineConfig {
        assert!(n >= 1);
        self.machine.clusters = n;
        self
    }

    /// Switch off the loop kernels and the progression indexer
    /// ([`MachineConfig::fast_paths`]); the fast-path equivalence tests
    /// compare against this mode.
    pub fn without_fast_paths(mut self) -> MachineConfig {
        self.fast_paths = false;
        self
    }

    /// Enable the happens-before data-race detector. The first race
    /// aborts the run with [`crate::SimErrorKind::DataRace`] unless the
    /// simulator is switched to collect-all mode
    /// ([`crate::Simulator::collect_races`]).
    pub fn with_race_detection(mut self) -> MachineConfig {
        self.detect_races = true;
        self
    }

    /// Thread a cancellation token into the watchdog (see
    /// [`MachineConfig::cancel`]). The experiment supervisor clones one
    /// per-cell token into every simulator the cell spawns, so the cell
    /// shares a single wall-clock budget.
    pub fn with_cancel(mut self, token: CancelToken) -> MachineConfig {
        self.cancel = Some(token);
        self
    }

    /// Convenience: a fresh token expiring `budget` from now.
    pub fn with_time_budget(self, budget: Duration) -> MachineConfig {
        self.with_cancel(CancelToken::with_budget(budget))
    }

    /// Select the execution engine. The differential tests run every
    /// program under both.
    pub fn with_engine(mut self, engine: Engine) -> MachineConfig {
        self.engine = engine;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_ratio() {
        let c = MachineConfig::cedar_config1().scaled(1024).machine;
        assert_eq!(c.cluster_capacity, (16 << 20) / 1024);
        assert_eq!(c.global_capacity, (64 << 20) / 1024);
        assert_eq!(
            c.global_capacity / c.cluster_capacity,
            4,
            "global:cluster capacity ratio must survive scaling"
        );
    }

    #[test]
    fn ablation_helpers() {
        let c = MachineConfig::cedar_config1().without_prefetch();
        assert!(!c.machine.prefetch);
        let c = MachineConfig::cedar_config1().with_clusters(2);
        assert_eq!(c.machine.total_ces(), 16);
    }

    #[test]
    fn engine_selection_defaults_to_vm_and_overrides() {
        assert_eq!(MachineConfig::cedar_config1().engine, Engine::Vm);
        let c = MachineConfig::cedar_config1().with_engine(Engine::Interp);
        assert_eq!(c.engine, Engine::Interp);
    }
}
