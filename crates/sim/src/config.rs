//! Machine configurations and the cycle-cost model parameters.

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

/// All cost-model parameters of a simulated machine. The named
/// constructors encode the two Cedar configurations the paper used plus
/// the Alliant FX/80 baseline (one Cedar-like cluster).
///
/// Costs are in cycles; capacities in bytes. The `*_scaled`
/// constructors divide capacities by [`MachineConfig::DEFAULT_SCALE`] so
/// that reduced workload sizes keep the paper's working-set /
/// capacity ratios (see DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Label printed in harness output.
    pub name: String,
    // ---- topology ----
    /// Number of clusters (Cedar: 4; FX/80: 1).
    pub clusters: usize,
    /// Computational elements per cluster (8).
    pub ces_per_cluster: usize,

    // ---- per-access memory costs (cycles per element) ----
    /// Cluster cache / CE-local data (privatized loop locals).
    pub cache_hit: f64,
    /// Cluster memory behind the cluster switch.
    pub cluster_mem: f64,
    /// Global memory, scalar (non-pipelined) access.
    pub global_scalar: f64,
    /// Global memory, vector access without prefetch (partially
    /// pipelined through the interconnect).
    pub global_vector: f64,
    /// Global memory, vector access with the prefetch unit engaged —
    /// *faster per element than cluster memory*: Fig. 8's global-data
    /// variant beats the cluster-memory baseline on one cluster "because
    /// of the high transfer rate of global memory and prefetch".
    pub global_prefetch: f64,
    /// Is compiler-inserted prefetch enabled (§2.2.3)?
    pub prefetch: bool,

    // ---- computation costs ----
    /// One scalar ALU/FPU operation.
    pub scalar_op: f64,
    /// Per-element cost of a vector operation once the pipe is full.
    pub vector_op: f64,
    /// Pipeline fill / vector instruction issue overhead per vector
    /// statement.
    pub vector_startup: f64,
    /// Fixed cost of a CALL/RETURN pair.
    pub call_overhead: f64,
    /// Cost charged for an I/O statement (treated as buffered no-op).
    pub io_cost: f64,

    // ---- parallel loop startup / scheduling (§2.2.1) ----
    /// CDOALL/CDOACROSS startup via the concurrency control bus.
    pub cdo_start: f64,
    /// Per-iteration dispatch cost on the concurrency bus.
    pub cdo_dispatch: f64,
    /// SDOALL startup through the runtime library (helper tasks).
    pub sdo_start: f64,
    /// XDOALL startup through the runtime library.
    pub xdo_start: f64,
    /// Per-iteration dispatch cost of library microtasking.
    pub lib_dispatch: f64,
    /// End-of-loop barrier cost per participant wave.
    pub barrier: f64,

    // ---- subroutine-level tasking (§2.2.2) ----
    /// Starting a new OS cluster task (`ctskstart`): "much higher
    /// overhead, but ... unrestricted forms of synchronization".
    pub ctsk_start: f64,
    /// Dispatching onto an existing helper task (`mtskstart`):
    /// "a low-overhead mechanism ... a finer grain of parallelism".
    pub mtsk_start: f64,

    // ---- synchronization (§2.1, §4.1.6) ----
    /// Cycles to test a cascade counter (excluding stall time).
    pub await_cost: f64,
    /// Cycles to bump a cascade counter.
    pub advance_cost: f64,
    /// Cycles to acquire/release a lock (excluding stall time).
    pub lock_cost: f64,

    // ---- global memory bandwidth / contention ----
    /// Number of concurrent global-memory streams the interconnect
    /// sustains at full speed; more simultaneous participants than this
    /// scale access costs linearly (Fig. 8 saturation).
    pub global_streams: f64,

    // ---- capacity / paging model ----
    /// Physical bytes of one cluster memory.
    pub cluster_capacity: u64,
    /// Physical bytes of global memory.
    pub global_capacity: u64,
    /// Surcharge (cycles, amortized per access) once a pool thrashes.
    pub page_fault_cost: f64,

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
    /// Use the interpreter's prepass caches (constant-folded declared
    /// dims with recorded charge sequences; see `sim::prepass`).
    /// Simulated behavior is bit-identical either way — the switch
    /// exists so the fast-path equivalence property tests can compare
    /// cached against uncached runs (DESIGN.md §9).
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

    /// Common cost skeleton shared by all configurations.
    fn base(name: &str, clusters: usize) -> MachineConfig {
        MachineConfig {
            name: name.to_string(),
            clusters,
            ces_per_cluster: 8,
            cache_hit: 1.0,
            cluster_mem: 3.0,
            global_scalar: 40.0,
            global_vector: 3.0,
            global_prefetch: 0.75,
            prefetch: true,
            scalar_op: 1.0,
            vector_op: 0.5,
            vector_startup: 25.0,
            call_overhead: 30.0,
            io_cost: 50.0,
            cdo_start: 60.0,
            cdo_dispatch: 2.0,
            sdo_start: 2200.0,
            xdo_start: 2800.0,
            lib_dispatch: 12.0,
            barrier: 20.0,
            ctsk_start: 12000.0,
            mtsk_start: 400.0,
            await_cost: 6.0,
            advance_cost: 4.0,
            lock_cost: 30.0,
            global_streams: 10.0,
            cluster_capacity: 16 << 20,
            global_capacity: 64 << 20,
            page_fault_cost: 400.0,
            max_while_iters: 50_000_000,
            watchdog_ops: 4_000_000_000,
            detect_races: false,
            fast_paths: true,
            cancel: None,
            engine: Engine::Vm,
        }
    }

    /// Cedar Configuration 1: 4 clusters × 8 CEs, 64 MB global,
    /// 16 MB cluster memory each (the machine of Table 1 and the
    /// "Automatically compiled" column of Table 2).
    pub fn cedar_config1() -> MachineConfig {
        Self::base("cedar-config1", 4)
    }

    /// Cedar Configuration 2: like Configuration 1 but 64 MB of cluster
    /// memory per cluster (the "Manually improved" runs).
    pub fn cedar_config2() -> MachineConfig {
        let mut c = Self::base("cedar-config2", 4);
        c.cluster_capacity = 64 << 20;
        c
    }

    /// Alliant FX/80 baseline: a single Cedar-like cluster (8 CEs),
    /// no global memory hierarchy — "global" placements behave like
    /// cluster memory and cross-cluster loop classes degrade to their
    /// cluster forms.
    pub fn fx80() -> MachineConfig {
        let mut c = Self::base("fx80", 1);
        // One memory level: global == cluster memory in cost.
        c.global_scalar = c.cluster_mem;
        c.global_vector = c.cluster_mem * 0.5;
        c.global_prefetch = c.cluster_mem * 0.5;
        c.global_streams = 32.0; // bus is not the bottleneck at 8 CEs
        c.sdo_start = c.cdo_start; // no cross-cluster library path
        c.xdo_start = c.cdo_start;
        c.lib_dispatch = c.cdo_dispatch;
        c.cluster_capacity = 32 << 20;
        c.global_capacity = 32 << 20;
        c
    }

    /// Scale both capacities down by `factor` (keeps working-set ratios
    /// when workloads shrink).
    pub fn scaled(mut self, factor: u64) -> MachineConfig {
        self.cluster_capacity = (self.cluster_capacity / factor).max(1);
        self.global_capacity = (self.global_capacity / factor).max(1);
        self.name = format!("{}-scaled{factor}", self.name);
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

    /// Total CE count.
    pub fn total_ces(&self) -> usize {
        self.clusters * self.ces_per_cluster
    }

    /// Disable the prefetch unit (Fig. 6 ablation).
    pub fn without_prefetch(mut self) -> MachineConfig {
        self.prefetch = false;
        self
    }

    /// Restrict the machine to `n` clusters (Fig. 8 sweep).
    pub fn with_clusters(mut self, n: usize) -> MachineConfig {
        assert!(n >= 1);
        self.clusters = n;
        self
    }

    /// Disable the interpreter's prepass caches (fast-path equivalence
    /// tests compare against this mode; see `sim::prepass`).
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
    fn configurations_differ_as_documented() {
        let c1 = MachineConfig::cedar_config1();
        let c2 = MachineConfig::cedar_config2();
        assert_eq!(c1.total_ces(), 32);
        assert_eq!(c1.cluster_capacity, 16 << 20);
        assert_eq!(c2.cluster_capacity, 64 << 20);
        let fx = MachineConfig::fx80();
        assert_eq!(fx.total_ces(), 8);
        assert_eq!(fx.global_scalar, fx.cluster_mem);
    }

    #[test]
    fn scaling_preserves_ratio() {
        let c = MachineConfig::cedar_config1().scaled(1024);
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
        assert!(!c.prefetch);
        let c = MachineConfig::cedar_config1().with_clusters(2);
        assert_eq!(c.total_ces(), 16);
    }

    #[test]
    fn engine_selection_defaults_to_vm_and_overrides() {
        assert_eq!(MachineConfig::cedar_config1().engine, Engine::Vm);
        let c = MachineConfig::cedar_config1().with_engine(Engine::Interp);
        assert_eq!(c.engine, Engine::Interp);
    }
}
